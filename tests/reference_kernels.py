"""Reference implementations that the simulator's fast paths replaced.

The gate kernel and the comparator here build ``np.arange(dim)`` index masks
and gather or scatter with fancy indexing; amplitude estimation applies the controlled Grover operator
2^j times for readout qubit j on the whole (p+t)-qubit state; the (inverse)
QFT is a dense DFT matrix.  All are slow but transparent, and the equivalence
tests hold the package to them.

The swap-test composite, the Grover iteration and the Grover orbit below are
the same circuits with one new state per gate (``StateVector.apply``) and
full-length index masks; the package runs them in place on one buffer and must
match them bit for bit.
"""

import math

import numpy as np

from qrelieff.circuits import Preparation, reduced_preparation, swap_test_gates
from qrelieff.errors import QReliefFError
from qrelieff.statevector import GateOp, StateVector, _normalize_controls


def _controls_mask(n_qubits: int, controls) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    mask = np.ones(1 << n_qubits, dtype=bool)
    for q, pol in controls:
        mask &= ((idx >> q) & 1) == pol
    return mask


def apply(state: StateVector, gate: GateOp) -> StateVector:
    """U|state> for one gate, through index masks."""
    mask = _controls_mask(state.n_qubits, gate.controls)
    amps = state.amplitudes.copy()
    idx = np.arange(state.dim)
    if gate.kind == "swap":
        a, b = gate.targets
        sel = mask & (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 0)
        src = idx[sel]
        dst = src ^ ((1 << a) | (1 << b))
        amps[src], amps[dst] = amps[dst], amps[src].copy()
    elif gate.kind == "phase":
        (t,) = gate.targets
        sel = mask & (((idx >> t) & 1) == 1)
        amps[sel] *= np.exp(1j * gate.angle)
    else:
        (t,) = gate.targets
        u = gate.matrix()
        sel = mask & (((idx >> t) & 1) == 0)
        i0 = idx[sel]
        i1 = i0 | (1 << t)
        a0, a1 = amps[i0], amps[i1].copy()
        amps[i0] = u[0, 0] * a0 + u[0, 1] * a1
        amps[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return StateVector(state.n_qubits, amps, _checked=True)


def cmp_flag(state: StateVector, index_register, bound: int, flag: int) -> StateVector:
    """Set ``flag`` where the register value is >= bound, through O(2^n)
    int64 index arrays and a scatter."""
    index_register = [int(q) for q in index_register]
    idx = np.arange(state.dim)
    flag_set = ((idx >> flag) & 1) == 1
    if np.sum(np.abs(state.amplitudes[flag_set]) ** 2) > 1e-12:
        raise QReliefFError("flag qubit is not clear before comparison")
    values = np.zeros(state.dim, dtype=np.int64)
    for j, q in enumerate(index_register):
        values |= ((idx >> q) & 1) << j
    dst = np.where(values >= bound, idx ^ (1 << flag), idx)
    amps = np.zeros_like(state.amplitudes)
    amps[dst] = state.amplitudes
    return StateVector(state.n_qubits, amps)


def apply_all(state: StateVector, gates) -> StateVector:
    for g in gates:
        state = apply(state, g)
    return state


def apply_unitary(state: StateVector, u: np.ndarray, targets, controls=()) -> StateVector:
    """A dense unitary on the ``targets`` sub-register (``targets[0]`` lowest)."""
    targets = [int(t) for t in targets]
    k = len(targets)
    mask = _controls_mask(state.n_qubits, _normalize_controls(controls))
    idx = np.arange(state.dim)
    target_bits = sum(1 << t for t in targets)
    sub = np.arange(1 << k)
    offs = np.zeros(1 << k, dtype=np.int64)
    for j, t in enumerate(targets):
        offs |= ((sub >> j) & 1) << t
    base = idx[(idx & target_bits) == 0]
    rows = mask[base]
    amps = state.amplitudes.copy()
    block = amps[base[rows, None] + offs[None, :]]
    amps[base[rows, None] + offs[None, :]] = block @ np.asarray(u).T
    return StateVector(state.n_qubits, amps, _checked=True)


def probability_one(state: StateVector, qubit: int) -> float:
    idx = np.arange(state.dim)
    sel = ((idx >> qubit) & 1) == 1
    return float(np.sum(np.abs(state.amplitudes[sel]) ** 2))


def postselect(state: StateVector, qubit: int, outcome: int) -> StateVector:
    idx = np.arange(state.dim)
    keep = ((idx >> qubit) & 1) == outcome
    amps = np.where(keep, state.amplitudes, 0.0)
    return StateVector(state.n_qubits, amps / math.sqrt(np.sum(np.abs(amps) ** 2)))


def marginal_probabilities(state: StateVector, qubits) -> np.ndarray:
    idx = np.arange(state.dim)
    key = np.zeros(state.dim, dtype=np.int64)
    for j, q in enumerate(qubits):
        key |= ((idx >> q) & 1) << j
    probs = np.abs(state.amplitudes) ** 2
    return np.bincount(key, weights=probs, minlength=1 << len(qubits))


def _controlled_g(state: StateVector, prep: Preparation, control: int) -> StateVector:
    """G = -A S0 A^-1 S_chi controlled on ``control``."""
    ctrl = ((control, 1),)
    idx = np.arange(state.dim)
    on = ((idx >> control) & 1) == 1
    state = apply(state, GateOp("phase", (prep.flag,), ctrl, math.pi))
    for g in reversed(prep.gates):
        inv = g.inverse()
        state = apply(state, GateOp(inv.kind, inv.targets, inv.controls + ctrl, inv.angle))
    prep_bits = (1 << prep.n_qubits) - 1
    state = state.phase_on_indices(on & ((idx & prep_bits) == 0), math.pi)
    for g in prep.gates:
        state = apply(state, GateOp(g.kind, g.targets, g.controls + ctrl, g.angle))
    return state.phase_on_indices(on, math.pi)


def amplitude_estimate(prep: Preparation, t: int, mode: str = "reduced") -> np.ndarray:
    """t-bit amplitude estimation with 2^t - 1 controlled Grover operators."""
    if mode == "reduced":
        zero = StateVector(prep.n_qubits, np.eye(1, 1 << prep.n_qubits, dtype=complex)[0])
        prep = reduced_preparation(probability_one(apply_all(zero, prep.gates), prep.flag))
    p = prep.n_qubits
    state = StateVector(p + t, np.eye(1, 1 << (p + t), dtype=complex)[0])
    state = apply_all(state, prep.gates)
    readout = list(range(p, p + t))
    state = apply_all(state, [GateOp("h", (q,)) for q in readout])
    for j, q in enumerate(readout):
        for _ in range(1 << j):
            state = _controlled_g(state, prep, q)
    state = apply_unitary(state, dft_matrix(t, inverse=True), readout)
    return marginal_probabilities(state, readout)


def dft_matrix(t: int, inverse: bool) -> np.ndarray:
    """The dense 2^t-point (inverse) DFT matrix the QFT was once applied as."""
    dim = 1 << t
    sign = -1.0 if inverse else 1.0
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(sign * 2j * math.pi * jk / dim) / math.sqrt(dim)


def fold_distribution(dist: np.ndarray) -> np.ndarray:
    """y and 2^t - y folded onto y <= 2^(t-1), one element at a time."""
    half = len(dist) // 2
    folded = np.zeros(half + 1)
    folded[0] = dist[0]
    folded[half] = dist[half]
    for m in range(1, half):
        folded[m] = dist[m] + dist[len(dist) - m]
    return folded


def swap_test_state(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """The swap-test composite built with two ``np.kron`` calls."""
    amps = np.kron(np.array([1.0, 0.0], dtype=complex), np.kron(a.amplitudes, b.amplitudes))
    state = StateVector(2 * a.n_qubits + 1, amps)
    for g in swap_test_gates(a.n_qubits, swap_qubits):
        state = state.apply(g)
    return state


def grover_iterate(state: StateVector, phi: float, oracle: np.ndarray, w_gates) -> StateVector:
    """G = -W I0 W^-1 O, with I0 as a full-length mask."""
    state = state.phase_on_indices(oracle, phi)
    for g in reversed(w_gates):
        state = state.apply(g.inverse())
    zeros = np.zeros(state.dim, dtype=bool)
    zeros[0] = True
    state = state.phase_on_indices(zeros, phi)
    for g in w_gates:
        state = state.apply(g)
    return StateVector(state.n_qubits, -state.amplitudes)


def grover_orbit(prep: Preparation, t: int) -> np.ndarray:
    """Row y is G^y A|0>, one new state per gate and per phase flip."""
    p = prep.n_qubits
    idx = np.arange(1 << p)
    flag = ((idx >> prep.flag) & 1) == 1
    zero = idx == 0
    orbit = np.empty((1 << t, 1 << p), dtype=complex)
    state = StateVector(p, np.eye(1, 1 << p, dtype=complex)[0])
    for g in prep.gates:
        state = state.apply(g)
    orbit[0] = state.amplitudes
    for y in range(1, 1 << t):
        state = state.phase_on_indices(flag, math.pi)
        for g in reversed(prep.gates):
            state = state.apply(g.inverse())
        state = state.phase_on_indices(zero, math.pi)
        for g in prep.gates:
            state = state.apply(g)
        orbit[y] = -state.amplitudes
        state = StateVector(p, orbit[y], _checked=True)
    return orbit
