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
    basis_state,
    check_width,
    h,
    ry,
    swap,
    x,
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
        """Whether a gate list realizes the encoding: N must fill the feature
        register, i.e. be a power of two, 2 or more."""
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


def encode_sample_gates(v) -> list[GateOp]:
    """The unitary gate list realizing :func:`encode_sample`.

    Only available when the feature count is a power of two (the bounded
    superposition otherwise needs postselection, which is not unitary).
    """
    v = np.asarray(v, dtype=float)
    _check_feature_vector(v)
    layout = EncodingLayout(len(v))
    if not layout.unitary:
        raise QReliefFError(
            "gate-list encoding requires a power-of-two feature count"
        )
    gates = [x(layout.flag)]
    gates.extend(h(q) for q in layout.feature_qubits)
    gates.extend(_multiplexed_ry_gates(v, layout))
    return gates


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
    """Gate list of the swap test on two m-qubit registers plus top ancilla."""
    if swap_qubits is None:
        swap_qubits = range(m)
    anc = 2 * m
    gates = [h(anc)]
    gates.extend(swap(m + q, q, controls=[(anc, 1)]) for q in swap_qubits)
    gates.append(h(anc))
    return gates


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
    state: StateVector, oracle: np.ndarray, phi: float, w_gates, w_inverse
) -> StateVector:
    """G = -W I0 W^-1 O in place on ``state``, which it returns; O and I0
    put e^{i phi} on the ``oracle`` branches and the all-zeros branch."""
    amps = state.amplitudes
    rotation = np.exp(1j * phi)
    amps[oracle] *= rotation  # O
    state._run(w_inverse)
    amps[:1] *= rotation  # I0
    state._run(w_gates)
    np.negative(amps, out=amps)
    return state


def grover_iterate(
    state: StateVector, plan: GroverPlan, oracle: np.ndarray, w_gates
) -> StateVector:
    """One generalized Grover iteration G = -W I0 W^-1 O.

    ``oracle`` is a boolean mask over basis indices; the marked branches pick
    up phase e^{i phi}, as does the all-zeros branch after undoing the
    preparation ``w_gates``.
    """
    if not (
        isinstance(oracle, np.ndarray)
        and oracle.dtype == bool
        and oracle.shape == (state.dim,)
    ):
        raise QReliefFError("oracle must be a boolean mask of the state's length")
    w_gates = list(w_gates)
    copy = StateVector(state.n_qubits, state.amplitudes.copy(), _checked=True)
    return _grover_in_place(
        copy, oracle, plan.phi, w_gates, [g.inverse() for g in reversed(w_gates)]
    )


def grover_search_state(plan: GroverPlan, oracle: np.ndarray) -> StateVector:
    """H^n|0> followed by the plan's J iterations."""
    w_gates = [h(q) for q in range(plan.n)]
    state = zero_state(plan.n)._run(w_gates)
    for _ in range(plan.J):
        state = grover_iterate(state, plan, oracle, w_gates)
    return state


# ---------------------------------------------------------------------------
# quantum Fourier transform
# ---------------------------------------------------------------------------

def _fourier(state: StateVector, register, transform) -> StateVector:
    """``transform`` (an orthonormal numpy FFT) on the register's value space,
    with ``register[0]`` as the least-significant bit of the value."""
    register = [int(q) for q in register]
    if not register:
        raise QReliefFError("empty register")
    amps = state.amplitudes.copy()
    # register[0] on the last axis: each row of the block is one register value
    sub = state._split(amps, register[::-1])
    rows = sub.reshape(-1, 1 << len(register))
    sub[...] = transform(rows, axis=1, norm="ortho").reshape(sub.shape)
    return StateVector(state.n_qubits, amps, _checked=True)


def qft(state: StateVector, register) -> StateVector:
    """Discrete Fourier transform e^{+2 pi i jk/n}/sqrt(n) on the register's
    value space."""
    return _fourier(state, register, np.fft.ifft)


def inverse_qft(state: StateVector, register) -> StateVector:
    """Exact inverse discrete Fourier transform e^{-2 pi i jk/n}/sqrt(n) on the
    register's value space."""
    return _fourier(state, register, np.fft.fft)


# ---------------------------------------------------------------------------
# amplitude estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preparation:
    """A unitary preparation circuit with a designated flag qubit.

    The estimated amplitude is the probability of reading 1 on ``flag`` after
    running ``gates`` on |0...0>.
    """

    gates: tuple
    n_qubits: int
    flag: int


def reduced_preparation(a: float) -> Preparation:
    """Single-qubit preparation Ry(2 asin sqrt(a)) with the same flag amplitude."""
    if not -1e-12 <= a <= 1.0 + 1e-12:
        raise QReliefFError(f"amplitude {a} outside [0, 1]")
    a = min(max(a, 0.0), 1.0)
    return Preparation((ry(2.0 * math.asin(math.sqrt(a)), 0),), 1, 0)


@dataclass(frozen=True)
class AEOutcome:
    """One amplitude-estimation reading: y in [0, 2^t) with a = sin^2(pi y / 2^t)."""

    y: int
    t: int

    @property
    def a_hat(self) -> float:
        return math.sin(math.pi * self.y / (1 << self.t)) ** 2


def _grover_step(prep: Preparation):
    """G = -A S0 A^-1 S_chi on the preparation register, as a function that
    runs it in place on a state and returns that state: the Grover iteration
    with W = A, the flag = 1 branches as the oracle and phi = pi."""
    inverse = [g.inverse() for g in reversed(prep.gates)]
    flag = ((np.arange(1 << prep.n_qubits) >> prep.flag) & 1) == 1
    return lambda state: _grover_in_place(state, flag, math.pi, prep.gates, inverse)


def _grover_orbit(prep: Preparation, t: int) -> np.ndarray:
    """Row y is G^y A|0> for y in [0, 2^t), one G step per row.

    G runs uncontrolled on the preparation register alone, in place on one
    working state whose amplitudes are copied into each row.
    """
    grover = _grover_step(prep)
    orbit = np.empty((1 << t, 1 << prep.n_qubits), dtype=complex)
    state = zero_state(prep.n_qubits)._run(prep.gates)
    orbit[0] = state.amplitudes
    for y in range(1, 1 << t):
        orbit[y] = grover(state).amplitudes
    return orbit


def _grover_orbit_by_squaring(prep: Preparation, t: int) -> np.ndarray:
    """The rows of :func:`_grover_orbit` from G as a dense 2^p x 2^p matrix.

    Rows [2^k, 2^(k+1)) are rows [0, 2^k) times (G^(2^k))^T, and G is squared
    after each block: 2t - 1 matrix products in place of 2^t - 1 G steps.
    """
    p = prep.n_qubits
    grover = _grover_step(prep)
    g = np.empty((1 << p, 1 << p), dtype=complex)
    for j in range(1 << p):
        g[:, j] = grover(basis_state(p, j)).amplitudes
    orbit = np.empty((1 << t, 1 << p), dtype=complex)
    orbit[0] = zero_state(p)._run(prep.gates).amplitudes
    for k in range(t):
        block = 1 << k
        np.matmul(orbit[:block], g.T, out=orbit[block : 2 * block])
        if k + 1 < t:
            g = g @ g
    return orbit


def amplitude_estimate(prep: Preparation, t: int) -> np.ndarray:
    """Exact outcome distribution of t-bit amplitude estimation of ``prep``.

    Returns the probability of each y in [0, 2^t); the estimate for outcome y
    is sin^2(pi y / 2^t).  :func:`reduced_preparation` gives the single-qubit
    circuit with the same flag amplitude as any larger preparation.

    After the readout Hadamards and the controlled powers of G, the circuit's
    state is 2^(-t/2) sum_y |y> G^y A|0>, readout register above the
    preparation register; it is built from the orbit of A|0> under the
    uncontrolled G rather than by applying 2^t - 1 controlled G's.  When G as
    a dense matrix has no more entries than the readout has values (4^p <= 2^t
    for a p-qubit preparation: reduced mode, p = 1, for t >= 2), the orbit
    comes from t - 1 squarings of that matrix, 8^p multiply-adds each, and t
    block products.  Otherwise (t = 1, and every ``full`` circuit, where
    p >= 7) the orbit runs gate by gate and G is never built.  The inverse QFT
    is an FFT along the readout register.
    """
    if t < 1:
        raise ConfigError(f"readout qubit count must be >= 1, got {t}")
    if not 0 <= prep.flag < prep.n_qubits:
        raise QReliefFError("preparation has no valid flag qubit")
    p = prep.n_qubits
    check_width(p + t)
    orbit = (_grover_orbit_by_squaring if 2 * p <= t else _grover_orbit)(prep, t)
    orbit /= math.sqrt(1 << t)
    readout = range(p, p + t)
    state = inverse_qft(StateVector(p + t, orbit.reshape(-1), _checked=True), readout)
    return state.marginal_probabilities(readout)


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
