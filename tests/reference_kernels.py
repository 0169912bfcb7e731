"""Reference implementations that the simulator's fast paths replaced.

The gate kernel and the comparator here build ``np.arange(dim)`` index masks
and gather or scatter with fancy indexing; amplitude estimation applies the controlled Grover operator
2^j times for readout qubit j on the whole (p+t)-qubit state; the (inverse)
QFT is a dense DFT matrix.  All are slow but transparent, and the equivalence
tests hold the package to them.

``amplitude_estimate_by_qft`` is the package's amplitude estimation with its
old readout, on the one-qubit state Ry(2 asin sqrt a)|0> built by a gate:
the orbit as a (1+t)-qubit state, an inverse QFT on the readout register
through a transposed copy of that state (``inverse_qft``), and the marginal
of the register.  The package writes that state's two amplitudes, runs one
FFT down the orbit's first axis and sums each row's squared moduli; it must
match this bit for bit.

``composite_amplitude_estimate`` is amplitude estimation on a preparation of
any width, its orbit ``composite_orbit`` one in-place G step per row: the
paper's circuit, with the whole swap-test composite as A.  The package
estimates only the composite's P(1) = a, on one qubit, and the tests hold
that estimate to this one.

The swap-test composite, the Grover iteration and the Grover orbit below are
the same circuits with one new state per gate (``StateVector.apply``) and
full-length index masks; the package runs them in place on one buffer and must
match them bit for bit.

``split_view`` is the compact view the package's gates, postselection and
comparator once ran on: the rest axes merged, the control axes indexed out
and the target axes last.  The package now views every state with one axis
per qubit; the references below keep this view, so they do not share the
package's.  ``apply_stride`` is the stride-view kernel with one expression for every
2x2 gate, which the per-kind kernels of ``StateVector.apply`` replaced.
``apply_unchunked`` is the per-kind kernels run once on the whole view, a
one-pair SWAP as the exchange of its 10 and 01 branches, and a register swap
of two or more pairs as one transposition of the whole controlled view
through a copy of it (``swap_registers_unchunked``), which the chunked
kernel and the block-by-block register swap (now every SWAP) replaced.  ``probability_one_unchunked`` and
``marginal_probabilities_unchunked`` are the readouts as whole-state numpy
expressions, which the sums over blocks replaced.  ``swap_test_gates`` is the
swap test with one controlled SWAP per qubit pair, which the controlled
register swap replaced.  ``swap_test_p1`` is the pipeline's swap-test reading
as it ran on the whole circuit: the ancilla prepared by an H, the register
swap, the readout H as a gate and a computational-basis readout, which the
|+> composite and the X-basis readout replaced; it reads the ancilla
through ``probability_one_unchunked``, not through the package's readouts.
``swap_test_state_dense`` is the |+> composite as it was once built: r (A (x)
B) written into every row of both halves, the rows where A is zero included,
and the controlled register swap as one transposition of the whole view;
the package writes only A's nonzero rows and swaps only the rows whose
qubits outside the swap hold the bits that every nonzero row of A holds.

Amplitude estimation here takes the circuit A as a ``Preparation``, a gate
list with a designated flag qubit, and runs its gates inside every controlled
G; the package takes only the probability a that A's flag reads 1.
``encode_sample_gates`` is the encoding as such a gate list: X, H^n and one
controlled Ry per feature (``multiplexed_ry_gates``).  ``encode_sample_by_gates``
is ``encode_sample`` with those Ry gates applied to the bounded superposition
and the set flag; ``encode_sample`` writes the amplitudes they produce and must
match it bit for bit.

``gate_matrix``, ``inverse``, ``basis_state`` and ``widen`` are small
helpers the package no longer needs: the uncontrolled matrix of a gate (the
package's kernel forms only Ry's), which the index-mask kernels and the
``apply_unitary`` comparisons use; the inverse of a gate, for running a gate
list backwards; a computational basis state; and a state on some qubits
copied onto more of them, the added ones at |0>, which ``run_circuit`` once
did before each gate that named a new qubit and the tests do to compare its
narrow state with a run on every qubit.  A phase is applied
through ``phase_on_indices``: the package has no Phase gate.
"""

import math
from typing import NamedTuple

import numpy as np

from qrelieff.circuits import (
    EncodingLayout,
    _grover_in_place,
    _grover_orbit_by_squaring,
    uniform_mod_n,
)
from qrelieff.errors import QReliefFError
from qrelieff.statevector import (
    _H,
    GateOp,
    StateVector,
    _normalize_controls,
    _ry_matrix,
    h,
    ry,
    swap,
    swap_registers,
    x,
)


class Preparation(NamedTuple):
    """A unitary preparation circuit: P(1) of ``flag`` after ``gates`` run
    on |0...0> is the estimated amplitude."""

    gates: tuple
    n_qubits: int
    flag: int


def reduced_preparation(a: float) -> Preparation:
    """The single-qubit circuit Ry(2 asin sqrt(a)), whose flag reads 1 with
    probability a."""
    return Preparation((ry(2.0 * math.asin(math.sqrt(min(max(a, 0.0), 1.0))), 0),), 1, 0)


def multiplexed_ry_gates(v) -> list[GateOp]:
    """Ry(2 asin v_i) on the data qubit (0), controlled on feature index i
    (qubits 2..n+1): one gate per feature."""
    feature_qubits = range(2, 2 + EncodingLayout(len(v)).n_feature_qubits)
    gates = []
    for i, vi in enumerate(v):
        controls = [(q, (i >> j) & 1) for j, q in enumerate(feature_qubits)]
        gates.append(ry(2.0 * math.asin(min(float(vi), 1.0)), 0, controls))
    return gates


def encode_sample_gates(v) -> list[GateOp]:
    """The encoding of a feature vector with a power-of-two length N >= 2 as
    a gate list: X on the flag (qubit 1), H on each feature-index qubit
    (2..n+1), then the multiplexed Ry on the data qubit (0)."""
    n = len(v).bit_length() - 1
    if len(v) < 2 or len(v) != 1 << n:
        raise QReliefFError("gate-list encoding requires a power-of-two feature count")
    return [x(1), *(h(q) for q in range(2, 2 + n)), *multiplexed_ry_gates(v)]


def encode_sample_by_gates(v) -> StateVector:
    """``encode_sample`` with its Ry stage run as gates: the bounded
    superposition of ``uniform_mod_n`` on the feature register, the flag set
    by a Kronecker product with |flag=1, data=0>, then the multiplexed Ry."""
    v = np.asarray(v, dtype=float)
    layout = EncodingLayout(len(v))
    feats = uniform_mod_n(layout.n_feature_qubits, len(v))
    full = np.kron(feats.amplitudes, np.array([0.0, 0.0, 1.0, 0.0]))
    return StateVector(layout.n_qubits, full)._run(multiplexed_ry_gates(v))


def widen(amps: np.ndarray, held, wider) -> np.ndarray:
    """``amps`` on the qubits ``held`` (sorted, the lowest its bit 0) copied
    into a new array on the qubits ``wider`` (sorted, a superset), with
    every added qubit at |0>."""
    out = np.zeros(1 << len(wider), dtype=amps.dtype)
    index = tuple(slice(None) if q in held else 0 for q in reversed(wider))
    out.reshape((2,) * len(wider))[index] = amps.reshape((2,) * len(held))
    return out


def gate_matrix(gate: GateOp) -> np.ndarray:
    """The uncontrolled matrix of ``gate`` on its targets, ``targets[0]``
    lowest: for a SWAP of k/2 pairs, bit 2i of the register value trades
    places with bit 2i + 1."""
    if gate.kind == "h":
        return _H
    if gate.kind == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if gate.kind == "ry":
        return _ry_matrix(gate.angle)
    k = len(gate.targets)
    perm = [sum(((v >> (j ^ 1)) & 1) << j for j in range(k)) for v in range(1 << k)]
    return np.eye(1 << k)[perm]


def inverse(gate: GateOp) -> GateOp:
    """The inverse gate: Ry(-theta); H, X and SWAP are their own inverses."""
    if gate.kind == "ry":
        return GateOp("ry", gate.targets, gate.controls, -gate.angle)
    return gate


def basis_state(n_qubits: int, index: int) -> StateVector:
    """|index> on ``n_qubits`` qubits, as float64 amplitudes."""
    amps = np.zeros(1 << n_qubits)
    amps[index] = 1.0
    return StateVector(n_qubits, amps, _checked=True)


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
        for a, b in zip(gate.targets[::2], gate.targets[1::2]):
            sel = mask & (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 0)
            src = idx[sel]
            dst = src ^ ((1 << a) | (1 << b))
            amps[src], amps[dst] = amps[dst], amps[src].copy()
    else:
        (t,) = gate.targets
        u = gate_matrix(gate)
        sel = mask & (((idx >> t) & 1) == 0)
        i0 = idx[sel]
        i1 = i0 | (1 << t)
        a0, a1 = amps[i0], amps[i1].copy()
        amps[i0] = u[0, 0] * a0 + u[0, 1] * a1
        amps[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return StateVector(state.n_qubits, amps, _checked=True)


def split_view(state: StateVector, amps: np.ndarray, targets, controls=()) -> np.ndarray:
    """View of ``amps`` (``state``'s amplitudes or a copy) on the branch
    where every control holds its polarity, with one trailing length-2 axis
    per target, in the order given: the compact view the package's gates
    once ran on.

    The amplitudes are reshaped so that each listed qubit q owns an axis:
    one qubit gives ``(2^(n-q-1), 2, 2^q)``, and each further qubit splits
    one of the outer blocks the same way.  Integer indices then fix the
    controls, and the target axes move last.  ``sub[..., 1, 0]`` is thus the
    branch with ``targets[0] = 1`` and ``targets[1] = 0``.  Writes through
    the view land in ``amps`` when it is C-contiguous.
    """
    qubits = [*targets, *(q for q, _ in controls)]
    for q in qubits:
        state._check_qubit(q)
    order = sorted(qubits, reverse=True)
    shape, above = [], state.n_qubits
    for q in order:
        if q == above:
            raise QReliefFError(f"repeated qubit in {qubits}")
        shape += [1 << (above - q - 1), 2]
        above = q
    shape.append(1 << above)
    view = amps.reshape(shape)
    # qubit order[i] owns axis 2i + 1
    if controls:
        index = [slice(None)] * len(shape)
        for q, pol in controls:
            index[2 * order.index(q) + 1] = pol
        view = view[tuple(index)]
    # each control axis above a target's drops out of the indexed view
    kept = [2 * order.index(q) + 1 - sum(c > q for c, _ in controls) for q in targets]
    perm = [i for i in range(view.ndim) if i not in kept] + kept
    return view.transpose(perm)


def apply_stride(state: StateVector, gate: GateOp) -> StateVector:
    """U|state> for one gate on :func:`split_view`'s view, with four
    products per 2x2 gate."""
    amps = state.amplitudes.copy()
    if gate.kind == "swap":  # one pair at a time
        for pair in zip(gate.targets[::2], gate.targets[1::2]):
            sub = split_view(state, amps, pair, gate.controls)
            sub[..., 1, 0], sub[..., 0, 1] = sub[..., 0, 1], sub[..., 1, 0].copy()
        return StateVector(state.n_qubits, amps, _checked=True)
    sub = split_view(state, amps, gate.targets, gate.controls)
    u = gate_matrix(gate)
    a0, a1 = sub[..., 0], sub[..., 1]
    a0[...], a1[...] = u[0, 0] * a0 + u[0, 1] * a1, u[1, 0] * a0 + u[1, 1] * a1
    return StateVector(state.n_qubits, amps, _checked=True)


def apply_unchunked(state: StateVector, gate: GateOp, in_place: bool = False) -> StateVector:
    """U|state> for one gate by the per-kind kernels on the whole of
    :func:`split_view`'s view at once; ``in_place`` overwrites ``state``'s
    amplitudes and returns ``state``."""
    amps = state.amplitudes if in_place else state.amplitudes.copy()
    if len(gate.targets) > 2:  # a register swap
        swap_registers_unchunked(state, amps, gate)
        return state if in_place else StateVector(state.n_qubits, amps, _checked=True)
    sub = split_view(state, amps, gate.targets, gate.controls)
    if gate.kind == "swap":
        sub[..., 1, 0], sub[..., 0, 1] = sub[..., 0, 1], sub[..., 1, 0].copy()
    elif gate.kind == "x":
        sub[..., 0], sub[..., 1] = sub[..., 1], sub[..., 0].copy()
    elif gate.kind == "h":
        a0, a1, r = sub[..., 0], sub[..., 1], gate_matrix(gate)[0, 0]
        t = r * a0
        np.multiply(r, a1, out=a1)
        np.add(t, a1, out=a0)
        np.subtract(t, a1, out=a1)
    else:
        u = gate_matrix(gate)
        a0, a1 = sub[..., 0], sub[..., 1]
        t = u[1, 0] * a0
        np.multiply(u[0, 0], a0, out=a0)
        a0 += u[0, 1] * a1
        np.multiply(u[1, 1], a1, out=a1)
        a1 += t
    return state if in_place else StateVector(state.n_qubits, amps, _checked=True)


def swap_registers_unchunked(state: StateVector, amps: np.ndarray, gate: GateOp):
    """Swap every target pair of ``gate`` in ``amps`` (C-contiguous) with one
    transposition of the controlled branch's ``(2,)*n`` view, through a copy
    of that whole view."""
    ctrl = dict(gate.controls)
    # qubit q owns axis n - 1 - q; the control axes drop out when indexed
    qubits = range(state.n_qubits - 1, -1, -1)
    view = amps.reshape((2,) * state.n_qubits)[tuple(ctrl.get(q, slice(None)) for q in qubits)]
    axis = {q: i for i, q in enumerate(q for q in qubits if q not in ctrl)}
    perm = list(range(view.ndim))
    for a, b in zip(gate.targets[::2], gate.targets[1::2]):
        perm[axis[a]], perm[axis[b]] = axis[b], axis[a]
    view[...] = view.transpose(perm).copy()


def phase_on_indices(state: StateVector, sel: np.ndarray, phi: float) -> StateVector:
    """Multiply the amplitudes at the basis indices selected by the boolean
    mask ``sel`` by e^{i phi} (a diagonal phase gate)."""
    amps = state.amplitudes.copy()
    amps[sel] *= np.exp(1j * phi)
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


def probability_one_unchunked(state: StateVector, qubit: int) -> float:
    """P(qubit = 1) as one numpy sum over the squares of the whole 1 half."""
    ones = split_view(state, state.amplitudes, [qubit])[..., 1]
    return float(np.sum(np.abs(ones).ravel() ** 2))


def marginal_probabilities_unchunked(state: StateVector, qubits) -> np.ndarray:
    """The marginal as one axis-0 numpy sum over the squares of every
    amplitude, one column per register value."""
    probs = split_view(state, np.abs(state.amplitudes) ** 2, list(qubits)[::-1])
    return probs.reshape(-1, 1 << len(qubits)).sum(axis=0)


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
    state = phase_on_indices(state, on & (((idx >> prep.flag) & 1) == 1), math.pi)
    for g in reversed(prep.gates):
        inv = inverse(g)
        state = apply(state, GateOp(inv.kind, inv.targets, inv.controls + ctrl, inv.angle))
    prep_bits = (1 << prep.n_qubits) - 1
    state = phase_on_indices(state, on & ((idx & prep_bits) == 0), math.pi)
    for g in prep.gates:
        state = apply(state, GateOp(g.kind, g.targets, g.controls + ctrl, g.angle))
    return phase_on_indices(state, on, math.pi)


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


def inverse_qft(state: StateVector, register) -> StateVector:
    """The inverse DFT e^{-2 pi i jk/n}/sqrt(n) on the register's value space,
    ``register[0]`` lowest, as an orthonormal FFT through a copy of the state
    and a reshaped transposed view of it."""
    register = [int(q) for q in register]
    amps = state.amplitudes.copy()
    # register[0] on the last axis: each row of the block is one register value
    sub = split_view(state, amps, register[::-1])
    rows = sub.reshape(-1, 1 << len(register))
    sub[...] = np.fft.fft(rows, axis=1, norm="ortho").reshape(sub.shape)
    return StateVector(state.n_qubits, amps, _checked=True)


def amplitude_estimate_by_qft(psi: StateVector, t: int) -> np.ndarray:
    """The package's amplitude estimation of the one-qubit ``psi`` = A|0>,
    read out by :func:`inverse_qft` on the readout register of the
    (1+t)-qubit state and that register's marginal."""
    orbit = _grover_orbit_by_squaring(psi.amplitudes, t)
    orbit /= math.sqrt(1 << t)
    readout = range(1, 1 + t)
    state = inverse_qft(StateVector(1 + t, orbit.reshape(-1), _checked=True), readout)
    return state.marginal_probabilities(readout)


def composite_orbit(psi: StateVector, t: int) -> np.ndarray:
    """Row y is G^y A|0> for y in [0, 2^t), one G step per row, for ``psi``
    = A|0> on any number p of qubits.

    G = -A S0 A^-1 S_chi runs uncontrolled on the preparation register
    alone, the branches with the top qubit set as the oracle and phi = pi,
    in place on one working array that is copied into each row: O(2^p) work
    per step.
    """
    flag = np.arange(psi.dim) >= psi.dim // 2
    orbit = np.empty((1 << t, psi.dim), dtype=complex)
    orbit[0] = psi.amplitudes
    amps = psi.amplitudes.astype(complex)  # G reflects with e^{i pi}
    for y in range(1, 1 << t):
        orbit[y] = _grover_in_place(amps, flag, math.pi, psi.amplitudes)
    return orbit


def composite_amplitude_estimate(psi: StateVector, t: int) -> np.ndarray:
    """t-bit amplitude estimation of P(top qubit = 1) run on the whole
    p-qubit ``psi`` = A|0>, the paper's circuit when A is the swap test: the
    orbit of :func:`composite_orbit` as the (p+t)-qubit state, one FFT down
    its first axis, and the readout register's marginal."""
    p = psi.n_qubits
    orbit = composite_orbit(psi, t) / math.sqrt(1 << t)
    readout = np.fft.fft(orbit, axis=0, norm="ortho")
    state = StateVector(p + t, readout.reshape(-1), _checked=True)
    return state.marginal_probabilities(range(p, p + t))


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


def swap_test_gates(m: int, swap_qubits=None) -> list[GateOp]:
    """H, one controlled SWAP per selected qubit pair, H."""
    if swap_qubits is None:
        swap_qubits = range(m)
    anc = 2 * m
    gates = [h(anc)]
    gates.extend(swap(m + q, q, controls=[(anc, 1)]) for q in swap_qubits)
    gates.append(h(anc))
    return gates


def swap_test_state(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """The swap-test composite built with two ``np.kron`` calls."""
    amps = np.kron(np.array([1.0, 0.0], dtype=complex), np.kron(a.amplitudes, b.amplitudes))
    state = StateVector(2 * a.n_qubits + 1, amps)
    for g in swap_test_gates(a.n_qubits, swap_qubits):
        state = state.apply(g)
    return state


def swap_test_state_dense(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """The swap-test composite before its readout H, every amplitude
    written: the outer product A (x) B, then r, into the lower half, copied
    into the upper half, and the register swap under the ancilla through
    :func:`apply_unchunked`."""
    m = a.n_qubits
    amps = np.empty(2 << 2 * m, dtype=np.result_type(a.amplitudes, b.amplitudes))
    lower = amps[: 1 << 2 * m]
    np.multiply.outer(a.amplitudes, b.amplitudes, out=lower.reshape(a.dim, b.dim))
    np.multiply(_H[0, 0], lower, out=lower)
    amps[1 << 2 * m:] = lower
    b_qubits = list(range(m) if swap_qubits is None else swap_qubits)
    cswap = swap_registers([m + q for q in b_qubits], b_qubits, controls=[2 * m])
    return apply_unchunked(StateVector(2 * m + 1, amps, _checked=True), cswap, in_place=True)


def swap_test_p1(flagged_u: StateVector, v_state: StateVector, swap_qubits, shots=None, rng=None) -> float:
    """P(ancilla = 1) of the swap test of ``flagged_u`` against ``v_state``
    over the ``swap_qubits`` pairs: the composite with the ancilla |0> (a
    zero-filled upper half), then H, the controlled register swap and H, each
    through ``StateVector.apply``, and :func:`probability_one_unchunked` of
    the ancilla, or
    the fraction of ``shots`` readings of it that ``StateVector.sample`` draws
    on ``rng``."""
    m = flagged_u.n_qubits
    anc, swap_qubits = 2 * m, list(swap_qubits)
    amps = np.zeros(2 << 2 * m, dtype=np.result_type(flagged_u.amplitudes, v_state.amplitudes))
    np.multiply.outer(
        flagged_u.amplitudes, v_state.amplitudes, out=amps[: 1 << 2 * m].reshape(flagged_u.dim, -1)
    )
    state = StateVector(anc + 1, amps, _checked=True)
    cswap = swap_registers([m + q for q in swap_qubits], swap_qubits, controls=[anc])
    for g in (h(anc), cswap, h(anc)):
        state = state.apply(g)
    if shots is None:
        return probability_one_unchunked(state, anc)
    return int(state.sample([anc], shots, rng)[1]) / shots


def grover_iterate(state: StateVector, phi: float, oracle: np.ndarray, w_gates) -> StateVector:
    """G = -W I0 W^-1 O, with I0 as a full-length mask."""
    state = phase_on_indices(state, oracle, phi)
    for g in reversed(w_gates):
        state = state.apply(inverse(g))
    zeros = np.zeros(state.dim, dtype=bool)
    zeros[0] = True
    state = phase_on_indices(state, zeros, phi)
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
        state = phase_on_indices(state, flag, math.pi)
        for g in reversed(prep.gates):
            state = state.apply(inverse(g))
        state = phase_on_indices(state, zero, math.pi)
        for g in prep.gates:
            state = state.apply(g)
        orbit[y] = -state.amplitudes
        state = StateVector(p, orbit[y], _checked=True)
    return orbit
