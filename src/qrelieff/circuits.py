"""Composable sub-circuits of the quantum feature-selection pipeline.

Register layout for encoded samples (least-significant bit first):

* bit 0            data qubit (feature-value rotation target)
* bit 1            flag qubit, prepared |1>
* bits 2 .. n+1    feature-index register (n = ceil(log2 N), at least 1)

The width depends on the feature count N alone.

``swap_flag`` exchanges bits 0 and 1, turning the encoded layout
``...|flag>|data>`` into ``...|data>|flag>`` so a subsequent swap test
overlaps the data of one sample with the flag of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NoSolutionError, QReliefFError, SearchFailedError
from .rng import RngStream
from .statevector import (
    GateOp,
    StateVector,
    check_width,
    h,
    ry,
    swap,
    swap_registers,
    zero_state,
)


# ---------------------------------------------------------------------------
# comparator and bounded uniform superposition
# ---------------------------------------------------------------------------

def cmp_flag(state: StateVector, index_register, bound: int, flag: int) -> StateVector:
    """Set ``flag`` on every basis branch whose index-register value is >= bound.

    The bound is held classically; the index register is unchanged.  The flag
    qubit must be clear on every branch with nonzero amplitude.
    """
    index_register = [int(q) for q in index_register]
    for q in index_register:
        state._check_qubit(q)
    state._check_qubit(flag)
    if flag in index_register:
        raise QReliefFError("flag qubit overlaps index register")
    if not 1 <= bound <= (1 << len(index_register)):
        raise QReliefFError(
            f"bound {bound} outside [1, {1 << len(index_register)}]"
        )
    k = len(index_register)
    amps = state.amplitudes.copy()
    # the flag on the middle axis, the register value (index_register[0] its
    # least-significant bit) along the last
    sub = state._split(amps, [flag, *index_register[::-1]])
    block = sub.reshape(-1, 2, 1 << k)
    if np.sum(np.abs(block[:, 1]) ** 2) > 1e-12:
        raise QReliefFError("flag qubit is not clear before comparison")
    block[:, :, bound:] = block[:, ::-1, bound:].copy()
    sub[...] = block.reshape(sub.shape)
    # a permutation of a unit vector; skip the norm re-check
    return StateVector(state.n_qubits, amps, _checked=True)


def uniform_mod_n(n: int, bound: int) -> StateVector:
    """(1/sqrt(bound)) * sum_{i<bound} |i> on ``n`` qubits.

    Realized as H^n on a fresh register, a comparison against the bound into a
    scratch flag, and exact postselection of the flag-clear branch.
    """
    if not 1 <= bound <= (1 << n):
        raise QReliefFError(f"bound {bound} outside [1, {1 << n}]")
    if bound == (1 << n):
        return zero_state(n)._run(h(q) for q in range(n))
    state = zero_state(n + 1)._run(h(q) for q in range(n))  # qubit n is the comparison flag
    state = cmp_flag(state, range(n), bound, n)
    state = state.postselect(n, 0)
    # the flag is |0> exactly; drop it
    return StateVector(n, state.amplitudes[: 1 << n])


# ---------------------------------------------------------------------------
# amplitude encoding of one sample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodingLayout:
    """Qubit positions of one encoded sample."""

    n_features: int

    @property
    def data(self) -> int:
        return 0

    @property
    def flag(self) -> int:
        return 1

    @property
    def feature_qubits(self) -> tuple[int, ...]:
        return tuple(range(2, 2 + self.n_feature_qubits))

    @property
    def n_feature_qubits(self) -> int:
        return max(1, math.ceil(math.log2(self.n_features)))

    @property
    def n_qubits(self) -> int:
        return 2 + self.n_feature_qubits

    @property
    def unitary(self) -> bool:
        """Whether the encoding is a unitary circuit, with no postselection:
        N must fill the feature register, i.e. be a power of two, 2 or more."""
        return self.n_features == 1 << self.n_feature_qubits


def _check_feature_vector(v: np.ndarray):
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # NaN fails too
        raise QReliefFError(f"feature vector norm {np.linalg.norm(v)} is not 1")
    if np.any(v < 0):
        raise QReliefFError("feature values must be nonnegative")


def _multiplexed_ry_gates(v: np.ndarray, layout: EncodingLayout) -> list[GateOp]:
    """Ry(2 asin v_i) on the data qubit, conditioned on feature index == i."""
    gates = []
    for i, vi in enumerate(v):
        controls = [
            (q, (i >> j) & 1) for j, q in enumerate(layout.feature_qubits)
        ]
        gates.append(ry(2.0 * math.asin(min(float(vi), 1.0)), layout.data, controls))
    return gates


def encode_sample(v) -> StateVector:
    """Encode a unit-norm feature vector as an amplitude-superposition state.

    The result is ``(1/sqrt(N)) sum_i |i> |1> (sqrt(1-v_i^2)|0> + v_i|1>)``
    in the layout documented at module top.
    """
    v = np.asarray(v, dtype=float)
    _check_feature_vector(v)
    layout = EncodingLayout(len(v))
    feats = uniform_mod_n(layout.n_feature_qubits, len(v))
    # local value flag*2 + data = 2, i.e. |flag=1, data=0>
    full = np.kron(feats.amplitudes, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
    return StateVector(layout.n_qubits, full)._run(_multiplexed_ry_gates(v, layout))


def swap_flag(state: StateVector) -> StateVector:
    """Exchange the flag and data qubits of an encoded sample."""
    return state.apply(swap(0, 1))


# ---------------------------------------------------------------------------
# swap test
# ---------------------------------------------------------------------------

def swap_test_state(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """Composite state after the swap-test circuit; ancilla is the top qubit.

    Register B occupies bits 0..m-1, register A bits m..2m-1, the ancilla bit
    2m.  ``swap_qubits`` selects which qubit pairs are exchanged (default all);
    excluding a pair is only meaningful when the excluded registers factor out.
    """
    if a.n_qubits != b.n_qubits:
        raise QReliefFError("swap test requires equal register widths")
    m = a.n_qubits
    check_width(2 * m + 1)
    amps = np.zeros(2 << 2 * m, dtype=complex)
    # ancilla |0>: A (x) B fills the lower half
    np.multiply.outer(a.amplitudes, b.amplitudes, out=amps[: 1 << 2 * m].reshape(a.dim, b.dim))
    # a product of two unit vectors; skip the norm re-check
    return StateVector(2 * m + 1, amps, _checked=True)._run(swap_test_gates(m, swap_qubits))


def swap_test(a: StateVector, b: StateVector, swap_qubits=None) -> float:
    """Exact P(ancilla = 1) = 1/2 - |<A|B>|^2 / 2 of the swap-test circuit."""
    state = swap_test_state(a, b, swap_qubits)
    return state.probability_one(2 * a.n_qubits)


def swap_test_gates(m: int, swap_qubits=None) -> list[GateOp]:
    """Gate list of the swap test on two m-qubit registers plus top ancilla:
    H, one controlled register swap of the selected pairs, H."""
    b_qubits = list(range(m) if swap_qubits is None else swap_qubits)
    anc = 2 * m
    cswap = swap_registers([m + q for q in b_qubits], b_qubits, controls=[anc])
    return [h(anc), cswap, h(anc)]


# ---------------------------------------------------------------------------
# Grover-Long amplitude amplification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverPlan:
    """Iteration count and phase of one phase-matched Grover search."""

    n: int
    space_size: int
    marked_estimate: int
    J: int
    eta: float
    phi: float


def grover_plan(n: int, marked_estimate: int) -> GroverPlan:
    """Phase-matched plan for a search over 2**n items with a known marked count.

    J is the smallest nonnegative integer with 4J+2 >= pi/eta, and the phase
    follows the matching condition phi = 2 asin(sin(pi/(4J+2)) / sin(eta)).
    """
    space = 1 << n
    if marked_estimate == 0:
        raise NoSolutionError("no marked elements to search for")
    if not 1 <= marked_estimate <= space:
        raise QReliefFError(f"marked count {marked_estimate} outside [1, {space}]")
    eta = math.asin(math.sqrt(marked_estimate / space))
    J = max(0, math.ceil((math.pi / eta - 2.0) / 4.0 - 1e-12))
    arg = math.sin(math.pi / (4 * J + 2)) / math.sin(eta)
    phi = 2.0 * math.asin(min(arg, 1.0))
    return GroverPlan(n, space, marked_estimate, J, eta, phi)


def _grover_in_place(
    amps: np.ndarray, oracle: np.ndarray, phi: float, psi: np.ndarray
) -> np.ndarray:
    """G = -W I0 W^-1 O in place on the amplitudes ``amps``, which it
    returns: O puts e^{i phi} on the ``oracle`` branches, and W I0 W^-1 =
    I + (e^{i phi} - 1)|psi><psi| puts it on ``psi`` = W|0>."""
    rotation = np.exp(1j * phi)
    amps[oracle] *= rotation  # O
    amps += (rotation - 1) * np.vdot(psi, amps) * psi  # W I0 W^-1
    np.negative(amps, out=amps)
    return amps


def grover_search_state(plan: GroverPlan, oracle: np.ndarray) -> StateVector:
    """H^n|0> followed by the plan's J iterations G = -W I0 W^-1 O, W = H^n,
    whose O puts e^{i phi} on the branches of the boolean mask ``oracle``."""
    dim = 1 << plan.n
    if not (
        isinstance(oracle, np.ndarray) and oracle.dtype == bool and oracle.shape == (dim,)
    ):
        raise QReliefFError("oracle must be a boolean mask of the state's length")
    check_width(plan.n)
    uniform = np.full(dim, dim ** -0.5, dtype=complex)  # H^n|0>
    amps = uniform.copy()
    for _ in range(plan.J):
        _grover_in_place(amps, oracle, plan.phi, uniform)
    return StateVector(plan.n, amps, _checked=True)


# ---------------------------------------------------------------------------
# amplitude estimation
# ---------------------------------------------------------------------------

def reduced_preparation(a: float) -> StateVector:
    """Ry(2 asin sqrt(a))|0>: one qubit that reads 1 with probability a."""
    if not -1e-12 <= a <= 1.0 + 1e-12:
        raise QReliefFError(f"amplitude {a} outside [0, 1]")
    a = min(max(a, 0.0), 1.0)
    return zero_state(1).apply(ry(2.0 * math.asin(math.sqrt(a)), 0))


@dataclass(frozen=True)
class AEOutcome:
    """One amplitude-estimation reading: y in [0, 2^t) with a = sin^2(pi y / 2^t)."""

    y: int
    t: int

    @property
    def a_hat(self) -> float:
        return math.sin(math.pi * self.y / (1 << self.t)) ** 2


def _grover_step(psi: StateVector):
    """G = -A S0 A^-1 S_chi for ``psi`` = A|0>, as a function that runs it in
    place on an amplitude array and returns that array: the Grover iteration
    with W = A, the branches with the top qubit set (the upper half) as the
    oracle and phi = pi."""
    flag = np.arange(psi.dim) >= psi.dim // 2
    return lambda amps: _grover_in_place(amps, flag, math.pi, psi.amplitudes)


def _grover_orbit(psi: StateVector, t: int) -> np.ndarray:
    """Row y is G^y A|0> for y in [0, 2^t), one G step per row.

    G runs uncontrolled on the preparation register alone, in place on one
    working array that is copied into each row.
    """
    grover = _grover_step(psi)
    orbit = np.empty((1 << t, psi.dim), dtype=complex)
    orbit[0] = psi.amplitudes
    amps = psi.amplitudes.copy()
    for y in range(1, 1 << t):
        orbit[y] = grover(amps)
    return orbit


def _grover_orbit_by_squaring(psi: StateVector, t: int) -> np.ndarray:
    """The rows of :func:`_grover_orbit` from G as a dense 2^p x 2^p matrix.

    Rows [2^k, 2^(k+1)) are rows [0, 2^k) times (G^(2^k))^T, and G is squared
    after each block: 2t - 1 matrix products in place of 2^t - 1 G steps.
    """
    p = psi.n_qubits
    grover = _grover_step(psi)
    g = np.empty((1 << p, 1 << p), dtype=complex)
    for j, column in enumerate(np.eye(1 << p, dtype=complex)):
        g[:, j] = grover(column)
    orbit = np.empty((1 << t, 1 << p), dtype=complex)
    orbit[0] = psi.amplitudes
    for k in range(t):
        block = 1 << k
        np.matmul(orbit[:block], g.T, out=orbit[block : 2 * block])
        if k + 1 < t:
            g = g @ g
    return orbit


def amplitude_estimate(psi: StateVector, t: int) -> np.ndarray:
    """Exact outcome distribution of t-bit amplitude estimation of the
    probability a that the top qubit of ``psi`` = A|0> reads 1.

    ``psi`` is the prepared state, not the circuit A: A enters the estimate
    only through A|0>, so any unitary preparation is given by its output.
    Returns the probability of each y in [0, 2^t); the estimate for outcome y
    is sin^2(pi y / 2^t).  :func:`reduced_preparation` gives the single-qubit
    state with the same a as any larger preparation.

    After the readout Hadamards and the controlled powers of G, the circuit's
    state is 2^(-t/2) sum_y |y> G^y A|0>, readout register above the
    preparation register; it is built from the orbit of A|0> under the
    uncontrolled G rather than by applying 2^t - 1 controlled G's.  One G step
    is a sign flip on the upper half (top qubit 1) and a reflection about
    psi, since A S0 A^-1 = I - 2|psi><psi|: O(2^p) work on a p-qubit
    preparation, and no gates.  When G as a dense matrix has no more entries
    than the readout has values (4^p <= 2^t: reduced mode, p = 1, for t >= 2),
    the orbit comes from t - 1 squarings of that matrix, 8^p multiply-adds
    each, and t block products.  Otherwise (t = 1, and every ``full``
    circuit, where p >= 7) the orbit takes 2^t - 1 G steps and G is never
    built.  Row y of the orbit is readout value y, so the inverse QFT on the
    readout register is one FFT along the orbit's first axis.
    """
    if t < 1:
        raise ConfigError(f"readout qubit count must be >= 1, got {t}")
    p = psi.n_qubits
    check_width(p + t)
    orbit = (_grover_orbit_by_squaring if 2 * p <= t else _grover_orbit)(psi, t)
    orbit /= math.sqrt(1 << t)
    readout = np.fft.fft(orbit, axis=0, norm="ortho")
    state = StateVector(p + t, readout.reshape(-1), _checked=True)
    return state.marginal_probabilities(range(p, p + t))


@lru_cache(maxsize=4096)
def ae_distribution_for_amplitude(a: float, t: int) -> np.ndarray:
    """Memoized estimation distribution of :func:`reduced_preparation` (a)."""
    dist = amplitude_estimate(reduced_preparation(a), t)
    dist.setflags(write=False)
    return dist


def fold_distribution(dist: np.ndarray) -> np.ndarray:
    """Collapse y and 2^t - y (the same estimate) onto y <= 2^(t-1)."""
    half = len(dist) // 2
    folded = np.empty(half + 1)
    folded[0] = dist[0]
    folded[half] = dist[half]
    folded[1:half] = dist[1:half] + dist[:half:-1]
    return folded


def modal_outcome(dist: np.ndarray, t: int) -> AEOutcome:
    """The most probable canonical reading min(y, 2^t - y); ties go low."""
    folded = fold_distribution(dist)
    return AEOutcome(int(np.argmax(folded)), t)


# ---------------------------------------------------------------------------
# quantum extreme search (threshold-walking Grover)
# ---------------------------------------------------------------------------

# Consecutive unmarked readings before a search gives up.  Phase matching makes
# one unmarked reading a rounding-level event, so hitting the cap means a bug.
MAX_FAILED_READINGS = 16


def quantum_extreme_search(values, k: int, direction: str, rng: RngStream) -> list[int]:
    """Positions of the k extreme values, ordered by (value, position).

    Maintains a threshold pivot (initially the first element), Grover-searches
    for elements strictly beyond it with a plan built from the known marked
    count, and moves the pivot to the measured element until nothing beats it.
    The result equals the classical top-k under (value, ascending position)
    ordering in the requested direction.
    """
    values = [int(v) for v in values]
    if not values:
        raise QReliefFError("empty value table")
    if not 1 <= k <= len(values):
        raise QReliefFError(f"k={k} outside [1, {len(values)}]")
    if direction not in ("min", "max"):
        raise ConfigError(f"direction must be 'min' or 'max', got {direction!r}")
    sign = 1 if direction == "min" else -1

    def key(i):
        return (sign * values[i], i)

    n = max(1, math.ceil(math.log2(len(values))))
    remaining = list(range(len(values)))
    found = []
    for _ in range(k):
        pivot = remaining[0]
        failed = 0
        while True:
            marked = [i for i in remaining if key(i) < key(pivot)]
            if not marked:
                break
            mask = np.zeros(1 << n, dtype=bool)
            mask[marked] = True
            plan = grover_plan(n, len(marked))
            state = grover_search_state(plan, mask)
            reading = state.sample(range(n), 1, rng)
            measured = int(next(iter(reading))[::-1], 2)
            if mask[measured]:
                pivot, failed = measured, 0
                continue
            # a failed reading (vanishing probability) repeats the search
            failed += 1
            if failed >= MAX_FAILED_READINGS:
                raise SearchFailedError(
                    f"{failed} searches in a row read an unmarked element "
                    f"({len(marked)} of {len(values)} marked)"
                )
        found.append(pivot)
        remaining.remove(pivot)
    return found
