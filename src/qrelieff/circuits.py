"""Composable sub-circuits of the quantum feature-selection pipeline.

Register layout for encoded samples (least-significant bit first):

* bit 0            data qubit (feature-value rotation target)
* bit 1            flag qubit, prepared |1>
* bits 2 .. n+1    feature-index register (n = ceil(log2 N), at least 1)

The width depends on the feature count N alone.

An encoded sample is the bounded superposition of :func:`uniform_mod_n` on
the feature register, the flag set, and on branch i an Ry(2 asin v_i) of the
data qubit: the paper's multiplexed Ry, a uniformly controlled rotation
(Mottonen et al., quant-ph/0407010).  :func:`encode_sample` writes the
amplitudes that rotation produces rather than applying N controlled Ry gates
to a state that is mostly zeros; ``tests/reference_kernels.py`` keeps the
gate list, and the tests hold the two to the same bits.

``swap_flag`` exchanges bits 0 and 1, turning the encoded layout
``...|flag>|data>`` into ``...|data>|flag>`` so a subsequent swap test
overlaps the data of one sample with the flag of another.

The swap test is the textbook one (Buhrman, Cleve, Watrous and de Wolf,
quant-ph/0102001): the ancilla starts in |+>, controls the register swap,
and is read in the X basis.  :func:`swap_test_state` writes |+> (x) A (x) B
directly, only in the rows where A is nonzero, and runs the controlled swap
as a gate; the readout (:meth:`StateVector.x_basis_probabilities`) folds
the final H into its sums without a pass that writes the state.  Each
qubit of A outside the swap that holds one bit on every nonzero row of A
(each qubit of the pipeline's sample-index register, which holds a basis
state) is one more control of the swap and is recorded on the composite,
so the readout skips the blocks it rules out.  At M = 16, N = 8 the swap
and the readout each touch one of the 16 blocks in each half of the
19-qubit composite (times in the README).  Each test reads the bits of the
H, swap, H circuit read in the computational basis.  Amplitude estimation
takes the probability it estimates, on which alone its distribution
depends (:func:`amplitude_estimate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import statevector
from .errors import ConfigError, QReliefFError
from .rng import RngStream
from .statevector import (
    _H,
    GateOp,
    StateVector,
    check_width,
    h,
    run_circuit,
    swap,
    swap_registers,
    x,
)


def _index_bits(count: int) -> int:
    """Width of a register indexing ``count`` items: ceil(log2 count), at least 1."""
    return max(1, math.ceil(math.log2(count)))


# ---------------------------------------------------------------------------
# comparator and bounded uniform superposition
# ---------------------------------------------------------------------------

def _cmp_gates(index_register, bound: int, flag: int) -> list[GateOp]:
    """Disjoint multi-controlled X gates on ``flag`` that flip it where the
    register value v (``index_register[0]`` lowest) is >= bound: one for
    v = bound, and one for each 0-bit j of the bound, on the v that agree
    with it above bit j and have bit j set.  None at bound = 2^k."""
    bits = [(q, (bound >> j) & 1) for j, q in enumerate(index_register)]
    if bound == 1 << len(bits):
        return []
    return [
        x(flag, controls=bits),
        *(x(flag, controls=[*bits[j + 1:], (q, 1)]) for j, (q, bit) in enumerate(bits) if not bit),
    ]


def cmp_flag(state: StateVector, index_register, bound: int, flag: int) -> StateVector:
    """Set ``flag`` on every basis branch whose index-register value is >= bound.

    The bound is held classically; the index register is unchanged.  The flag
    qubit must be clear on every branch with nonzero amplitude.  The gates of
    :func:`_cmp_gates` flip it, in place on one copy of the state.
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
    if state.marginal_probabilities([flag])[1] > 1e-12:
        raise QReliefFError("flag qubit is not clear before comparison")
    # a permutation of a unit vector; skip the norm re-check
    out = StateVector(state.n_qubits, state.amplitudes.copy(), _checked=True)
    return out._run(_cmp_gates(index_register, bound, flag))


def uniform_mod_n(n: int, bound: int) -> StateVector:
    """(1/sqrt(bound)) * sum_{i<bound} |i> on ``n`` qubits.

    Realized as one gate list through :func:`run_circuit`: H^n on a fresh
    register, then the comparator's X gates (:func:`_cmp_gates`) into a
    scratch flag, qubit n, and exact postselection of the flag-clear branch.
    At bound = 2^n no gate names the flag, the state holds the register
    alone, and nothing is postselected.
    """
    check_width(n)
    if not 1 <= bound <= (1 << n):
        raise QReliefFError(f"bound {bound} outside [1, {1 << n}]")
    gates = [*(h(q) for q in range(n)), *_cmp_gates(range(n), bound, n)]
    state = run_circuit(n + 1, gates)[0]
    if bound == (1 << n):
        return state
    state = state.postselect(n, 0)
    # the flag is |0> exactly; drop it
    return StateVector(n, state.amplitudes[: 1 << n])


# ---------------------------------------------------------------------------
# amplitude encoding of one sample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodingLayout:
    """Register widths of one encoded sample."""

    n_features: int

    @property
    def n_feature_qubits(self) -> int:
        return _index_bits(self.n_features)

    @property
    def n_qubits(self) -> int:
        return 2 + self.n_feature_qubits

    @property
    def unitary(self) -> bool:
        """Whether the encoding is a unitary circuit, with no postselection:
        N must fill the feature register, i.e. be a power of two, 2 or more."""
        return self.n_features == 1 << self.n_feature_qubits


def _check_feature_vector(v: np.ndarray):
    if v.ndim != 1:
        raise QReliefFError(f"feature vector must be 1-D, got shape {v.shape}")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # NaN fails too
        raise QReliefFError(f"feature vector norm {np.linalg.norm(v)} is not 1")
    if np.any(v < 0):
        raise QReliefFError("feature values must be nonnegative")


def encode_sample(v) -> StateVector:
    """Encode a unit-norm feature vector as an amplitude-superposition state.

    The result is ``(1/sqrt(N)) sum_i |i> |1> (sqrt(1-v_i^2)|0> + v_i|1>)``
    in the layout documented at module top.  On branch i it writes cos(h_i) f_i
    and sin(h_i) f_i, with h_i = asin v_i and f the amplitudes of
    :func:`uniform_mod_n`: the products the Ry kernel forms on
    |flag=1, data=0>, whose other terms add exact zeros.
    """
    v = np.asarray(v, dtype=float)
    _check_feature_vector(v)
    layout = EncodingLayout(len(v))
    feats = uniform_mod_n(layout.n_feature_qubits, len(v)).amplitudes[: len(v)]
    half = [math.asin(min(float(vi), 1.0)) for vi in v]
    # row i is feature index i, column flag*2 + data
    amps = np.zeros((1 << layout.n_feature_qubits, 4))
    amps[: len(v), 2] = feats * [math.cos(a) for a in half]
    amps[: len(v), 3] = feats * [math.sin(a) for a in half]
    return StateVector(layout.n_qubits, amps.reshape(-1))


def swap_flag(state: StateVector) -> StateVector:
    """Exchange the flag and data qubits of an encoded sample."""
    return state.apply(swap(0, 1))


# ---------------------------------------------------------------------------
# swap test
# ---------------------------------------------------------------------------

def _plus_outer(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|+> (x) A (x) B as a (2, len(a), len(b)) array: r (a_i B) in row i of
    both halves, the products first and r second, as the H kernel multiplies
    the ancilla-|0> half.  Only the ``rows`` where a_i is nonzero are
    written, a group of rows at a time through one buffer of at most
    ``CHUNK`` amplitudes (a row is at most 2^13 under the width cap); every
    other row stays +0."""
    dtype = np.result_type(a, b)
    halves = np.zeros((2, len(a), len(b)), dtype=dtype)
    step = max(statevector.CHUNK // len(b), 1)
    buf = np.empty((min(step, len(rows)), len(b)), dtype=dtype)
    for start in range(0, len(rows), step):
        group = rows[start:start + step]
        part = buf[: len(group)]
        np.multiply(a[group, None], b, out=part)
        np.multiply(_H[0, 0], part, out=part)
        halves[0, group] = part
        halves[1, group] = part
    return halves


def swap_test_state(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """Composite state of the swap test before its X-basis readout: the
    ancilla (the top qubit) in |+>, then the register swap controlled on it.

    Register B occupies bits 0..m-1, register A bits m..2m-1, the ancilla bit
    2m.  ``swap_qubits`` selects which qubit pairs are exchanged (default all);
    excluding a pair is only meaningful when the excluded registers factor out.
    :meth:`StateVector.x_basis_probabilities` reads the ancilla; an H on it
    gives the state after the whole circuit (H, controlled swap, H).  Each
    qubit of A outside the swap that holds one bit on every nonzero row of A
    controls the swap on that bit and is recorded (``_fixed``): the rows
    with the other bit are +0.0 in both halves, which a swap of every row
    would map onto themselves.
    """
    if a.n_qubits != b.n_qubits:
        raise QReliefFError("swap test requires equal register widths")
    m = a.n_qubits
    check_width(2 * m + 1)
    rows = np.flatnonzero(a.amplitudes)
    halves = _plus_outer(a.amplitudes, b.amplitudes, rows)
    b_qubits = list(range(m) if swap_qubits is None else swap_qubits)
    same = ~int(np.bitwise_or.reduce(rows ^ rows[0]))  # the bits every nonzero row shares
    fixed = tuple((m + q, int(rows[0]) >> q & 1) for q in range(m) if q not in b_qubits and same >> q & 1)
    cswap = swap_registers([m + q for q in b_qubits], b_qubits, controls=[2 * m, *fixed])
    # a product of unit vectors; skip the norm re-check
    state = StateVector(2 * m + 1, halves.reshape(-1), _checked=True).apply(cswap, _in_place=True)
    state._fixed = fixed
    return state


# ---------------------------------------------------------------------------
# Grover-Long amplitude amplification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverPlan:
    """Iteration count and phase of one phase-matched Grover search."""

    n: int
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
        raise QReliefFError("no marked elements to search for")
    if not 1 <= marked_estimate <= space:
        raise QReliefFError(f"marked count {marked_estimate} outside [1, {space}]")
    eta = math.asin(math.sqrt(marked_estimate / space))
    J = max(0, math.ceil((math.pi / eta - 2.0) / 4.0 - 1e-12))
    arg = math.sin(math.pi / (4 * J + 2)) / math.sin(eta)
    phi = 2.0 * math.asin(min(arg, 1.0))
    return GroverPlan(n, J, eta, phi)


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

def check_ae_width(t: int):
    """Raise :class:`CapacityError` unless t-bit amplitude estimation fits
    under the width cap.  Its orbit and the FFT's result are complex arrays
    of 1 + t qubits, and the squared moduli of that result two float halves
    of one (a tracemalloc peak of 2.00 such states at t = 16), so it is
    charged four: one complex state of 3 + t qubits, at most the largest
    state the cap allows."""
    check_width(3 + t)


def _grover_orbit_by_squaring(psi: np.ndarray, t: int) -> np.ndarray:
    """Row y is G^y A|0> for y in [0, 2^t), for the amplitudes ``psi`` =
    A|0> on p qubits, from G as a dense 2^p x 2^p matrix.

    G = -A S0 A^-1 S_chi is the Grover iteration with W = A, the branches
    with the top qubit set (the upper half) as the oracle and phi = pi.
    Rows [2^k, 2^(k+1)) are rows [0, 2^k) times (G^(2^k))^T, and G is
    squared after each block: 2t - 1 matrix products in place of 2^t - 1 G
    steps.
    """
    dim = len(psi)
    flag = np.arange(dim) >= dim // 2
    g = np.empty((dim, dim), dtype=complex)
    for j, column in enumerate(np.eye(dim, dtype=complex)):
        g[:, j] = _grover_in_place(column, flag, math.pi, psi)
    orbit = np.empty((1 << t, dim), dtype=complex)
    orbit[0] = psi
    for k in range(t):
        block = 1 << k
        np.matmul(orbit[:block], g.T, out=orbit[block : 2 * block])
        if k + 1 < t:
            g = g @ g
    return orbit


def amplitude_estimate(a: float, t: int) -> np.ndarray:
    """Exact outcome distribution of t-bit amplitude estimation of the
    probability ``a``: the probability of each y in [0, 2^t), whose estimate
    is sin^2(pi y / 2^t).  ``a`` may lie up to 1e-12 outside [0, 1] and is
    clamped to it.

    The distribution depends on a alone, not on the circuit that prepares
    it: G keeps A|0> in the plane of its good and bad parts and rotates it
    there by 2 asin sqrt(a) (Brassard, Hoyer, Mosca and Tapp,
    quant-ph/0005055).  So A is the one-qubit Ry(2 asin sqrt(a)), and A|0>
    is written as [cos h, sin h] with h = asin sqrt(a), the Ry kernel's
    bits.

    After the readout Hadamards and the controlled powers of G, the circuit's
    state is 2^(-t/2) sum_y |y> G^y A|0>, readout register above the
    preparation qubit.  It is built from the orbit of A|0> under the
    uncontrolled G, G a 2 x 2 matrix squared t - 1 times, rather than by
    applying 2^t - 1 controlled G's.  Row y of the orbit is readout value y,
    so the inverse QFT on the readout register is one FFT along the orbit's
    first axis, and the readout register's marginal is the sum of each
    row's two squared moduli.
    """
    if t < 1:
        raise ConfigError(f"readout qubit count must be >= 1, got {t}")
    if not -1e-12 <= a <= 1.0 + 1e-12:  # NaN fails too
        raise QReliefFError(f"amplitude {a} outside [0, 1]")
    check_ae_width(t)
    half = math.asin(math.sqrt(min(max(a, 0.0), 1.0)))
    orbit = _grover_orbit_by_squaring(np.array([math.cos(half), math.sin(half)]), t)
    orbit /= math.sqrt(1 << t)
    readout = np.fft.fft(orbit, axis=0, norm="ortho")
    del orbit
    return (np.abs(readout) ** 2).sum(axis=1)


@lru_cache(maxsize=4096)
def ae_distribution_for_amplitude(a: float, t: int) -> np.ndarray:
    """Memoized :func:`amplitude_estimate` (a, t), read-only."""
    dist = amplitude_estimate(a, t)
    dist.setflags(write=False)
    return dist


def estimate(y: int, t: int) -> float:
    """The probability that t-bit amplitude estimation's reading y stands
    for: sin^2(pi y / 2^t)."""
    return math.sin(math.pi * y / (1 << t)) ** 2


def fold_distribution(dist: np.ndarray) -> np.ndarray:
    """Collapse y and 2^t - y (the same estimate) onto y <= 2^(t-1)."""
    half = len(dist) // 2
    folded = np.empty(half + 1)
    folded[0] = dist[0]
    folded[half] = dist[half]
    folded[1:half] = dist[1:half] + dist[:half:-1]
    return folded


# Folded probabilities this close to the largest count as tied with it.  Two
# computations of one distribution (the one-qubit orbit and the paper's whole
# composite) differ by rounding, ~1e-15, so an exact tie such as P(1) = 1/2 at
# t = 1 must not be broken by which path computed it.
MODAL_TIE_TOL = 1e-12


def modal_outcome(dist: np.ndarray) -> int:
    """The most probable canonical reading min(y, 2^t - y) of the 2^t-entry
    distribution ``dist``; ties (within :data:`MODAL_TIE_TOL`) go low."""
    folded = fold_distribution(dist)
    return int(np.argmax(folded >= folded.max() - MODAL_TIE_TOL))


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

    n = _index_bits(len(values))
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
            measured = int(np.flatnonzero(state.sample(range(n), 1, rng))[0])
            if mask[measured]:
                pivot, failed = measured, 0
                continue
            # a failed reading (vanishing probability) repeats the search
            failed += 1
            if failed >= MAX_FAILED_READINGS:
                raise QReliefFError(
                    f"{failed} searches in a row read an unmarked element "
                    f"({len(marked)} of {len(values)} marked)"
                )
        found.append(pivot)
        remaining.remove(pivot)
    return found
