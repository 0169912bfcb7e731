"""Exact simulation of multi-qubit registers, on real or complex amplitudes.

Conventions used throughout the package:

* A state built from real data holds float64 amplitudes, 8 bytes each; any
  other holds complex128, 16 bytes each.  H, X, Ry, SWAP and the register
  swap have real matrices, so they keep a real state real, and every
  circuit of the pipeline and of Program 3 is real: its states, the
  swap-test composites included, take half the bytes, and each gate and
  readout moves half of them.  Only :meth:`StateVector.apply_unitary` turns
  a real state into a complex one; Grover search and amplitude estimation
  work on complex arrays.  The gate matrices are float arrays,
  and numpy multiplies a complex amplitude by a float as by the float plus
  0j, so complex states get the bits they got from complex matrices.  On a
  real state every amplitude equals the real part of its complex twin, bit
  for bit but for the sign of an exact zero, and every probability is the
  same float.
* Qubit ``j`` is the least-significant bit ``j`` of the basis index, i.e.
  basis index of a bitstring ``b`` is ``sum(b_j * 2**j)``.
* Gate application never mutates its input: :meth:`StateVector.apply`
  returns a new :class:`StateVector` unless the caller owns the buffer and
  asks for in-place work, as :meth:`StateVector._run` does for a whole gate
  list on a state it has just built.
* :func:`run_circuit` runs a gate list from |0...0> on one state of the
  qubits its gates name, skipping SWAP pairs of two qubits no gate has
  named yet; each gate takes every such qubit as a control on |0>, so it
  touches only the amplitudes of the qubits named so far.  It returns the
  state and which qubits it holds; with every other qubit added at |0>, it
  holds the amplitudes of the same gates run on every qubit (see its
  docstring).  It is the one way the package runs a gate list from zero.
* Every gate, readout and postselection views the amplitudes through
  :meth:`StateVector._qubit_axes`: a ``(2,)*n`` array, one axis per qubit,
  with the qubits it names first leading and the qubits it fixes (a gate's
  controls) indexed out.  Writes through the view land in the state.
* Each one-target gate kind has its own kernel (:func:`_kernel`) on the two
  halves of its view, target clear and target set: X exchanges them, H is
  a two-multiply butterfly, and Ry runs in place.  X and H may flip the sign
  of an exact zero amplitude relative to the matrix product; values and
  probabilities are unchanged.
* The target axis leads the view, and the kernel runs on it block by block
  (:func:`_blocks`): each block takes one index of each of the highest other
  qubits, as many as leave it at most ``CHUNK`` = 2^14 amplitudes (128 KiB
  real, 256 KiB complex), so its temporaries stay in cache where whole-view
  ones would take half the state (8 MiB of complex amplitudes at 20 qubits).
  Every operation is elementwise, so each amplitude gets the same products
  and sums as on the whole view and the bytes do not change; a view of
  ``CHUNK`` amplitudes or fewer is one block.  numpy's inner loop runs over
  the 2^q amplitudes below target q, so targets 1 and 2 are the slowest
  (see the README for times).
* A SWAP of k >= 1 qubit pairs under one set of controls (:func:`swap`,
  :func:`swap_registers`) is one axis transposition of the ``(2,)*n`` view
  on the controlled branch, where k single exchanges would make k strided
  passes.  The transposition runs block by block, each block at most
  ``CHUNK`` amplitudes, through one block-sized temporary
  (:meth:`StateVector._swap_registers`).  Amplitudes only move, so the bytes
  equal those of the pairs swapped one at a time.  The controls alone
  decide which amplitudes a swap reads.
* Probabilities are exact (computed from amplitudes); sampling is opt-in
  through :meth:`StateVector.sample`, whose counts are indexed by register
  value as :meth:`StateVector.marginal_probabilities` is.  Every draw is
  :class:`RngStream`'s, which divides the probabilities by their sum, so a
  caller passes a readout as it is.  The readouts sum
  |amp|^2 over the same blocks of at most ``CHUNK`` amplitudes and add the
  block sums in numpy's own pairwise order (:func:`_sums_of_squares`); a
  real block is squared as ``x * x``, with no ``np.abs`` copy.
  :meth:`StateVector.x_basis_probabilities` is the swap test's one readout:
  both probabilities of the top qubit in the X basis, from the H kernel's
  r lo + r hi and r lo - r hi formed block by block into its own buffers
  and summed the same way, so its bits are those of an H followed by
  :meth:`StateVector.marginal_probabilities`, and the state is only read.
  It skips the blocks that the state's recorded fixed qubits rule out
  (``StateVector._fixed``), whose squares add up to +0, and reads no
  amplitude to decide what to skip.
  :meth:`StateVector.x_basis_probability_one` is its entry 1.
  ``zero_state`` skips the norm check, and the check of any other input is
  one ``np.vdot``.
  :meth:`StateVector.postselect` sums the norm of its zeroed copy the same
  way and renormalizes it in place, as a product with
  1/sqrt(p), which numpy's complex division by a real also computes.  So
  working memory is the state (8 bytes per amplitude real, 16 complex) plus
  under 1 MiB for any gate, readout or postselection on 20 qubits; only
  :meth:`StateVector.apply_unitary`, which returns a complex copy, still
  takes a whole state of temporaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PostselectionError, QReliefFError
from .rng import RngStream

MAX_QUBITS = 28  # 2**28 amplitudes = 2 GiB of float64, 4 GiB of complex128
NORM_TOL = 1e-9
CHUNK = 1 << 14  # amplitudes per block of a gate or readout: 128 KiB real, 256 KiB complex

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _normalize_controls(controls) -> tuple[tuple[int, int], ...]:
    """Accept ints (control on one) or (qubit, polarity) pairs."""
    out = []
    for c in controls:
        if isinstance(c, tuple):
            q, pol = c
        else:
            q, pol = c, 1
        if pol not in (0, 1):
            raise QReliefFError(f"control polarity must be 0 or 1, got {pol}")
        out.append((int(q), int(pol)))
    return tuple(out)


@dataclass(frozen=True)
class GateOp:
    """One primitive gate: H, X, Ry(theta) or SWAP, each with a real matrix.

    ``controls`` is a tuple of ``(qubit, polarity)`` pairs; polarity 1 means
    the gate acts when the control is |1>, polarity 0 when it is |0>.  A SWAP
    exchanges ``targets[2i]`` with ``targets[2i + 1]`` for every pair i; more
    than one pair makes it a register swap.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("h", "x", "ry", "swap"):
            raise QReliefFError(f"unknown gate kind {self.kind!r}")
        if self.kind == "swap":
            if not self.targets or len(self.targets) % 2:
                raise QReliefFError("swap expects one or more target pairs")
        elif len(self.targets) != 1:
            raise QReliefFError(f"{self.kind} expects 1 target")
        ctrl_qubits = {q for q, _ in self.controls}
        if len(ctrl_qubits) != len(self.controls):
            raise QReliefFError("duplicate control qubits")
        if ctrl_qubits & set(self.targets):
            raise QReliefFError("controls overlap targets")
        if len(set(self.targets)) != len(self.targets):
            raise QReliefFError("duplicate target qubits")


def h(target: int, controls=()) -> GateOp:
    return GateOp("h", (target,), _normalize_controls(controls))


def x(target: int, controls=()) -> GateOp:
    return GateOp("x", (target,), _normalize_controls(controls))


def ry(theta: float, target: int, controls=()) -> GateOp:
    return GateOp("ry", (target,), _normalize_controls(controls), float(theta))


def swap(a: int, b: int, controls=()) -> GateOp:
    return GateOp("swap", (a, b), _normalize_controls(controls))


def swap_registers(a_qubits, b_qubits, controls=()) -> GateOp:
    """One SWAP of ``a_qubits[i]`` with ``b_qubits[i]`` for every i."""
    if len(a_qubits) != len(b_qubits):
        raise QReliefFError("swapped registers differ in width")
    pairs = tuple(int(q) for pair in zip(a_qubits, b_qubits) for q in pair)
    return GateOp("swap", pairs, _normalize_controls(controls))


def _kernel(a0: np.ndarray, a1: np.ndarray, kind: str, u):
    """Apply a one-target gate to one block of its view: ``a0`` and ``a1``
    are the block's amplitudes with the target clear and set, views of one
    shape that are written in place.  ``u`` is the matrix of an Ry gate.
    Every operation is elementwise."""
    if kind == "x":
        a0[...], a1[...] = a1, a0.copy()
    elif kind == "h":
        # butterfly: r a0 + r a1 and r a0 - r a1, one temporary
        r = _H[0, 0]
        t = r * a0
        np.multiply(r, a1, out=a1)
        np.add(t, a1, out=a0)
        np.subtract(t, a1, out=a1)
    else:
        # u00 a0 + u01 a1 and u11 a1 + u10 a0 in place: the matrix product's
        # own products (scalar first) and sums, so its bytes too
        t = u[1, 0] * a0
        np.multiply(u[0, 0], a0, out=a0)
        a0 += u[0, 1] * a1
        np.multiply(u[1, 1], a1, out=a1)
        a1 += t


def _squares(block: np.ndarray, out=None) -> np.ndarray:
    """|amp|^2 of every amplitude of ``block``, into ``out`` if given (a
    float64 array of the block's shape, or a real block itself): ``x * x`` on
    a real block, bit for bit ``np.abs(x) ** 2`` since |x| |x| = x x exactly,
    and ``np.abs(x) ** 2`` on a complex one."""
    if block.dtype.kind == "c":
        if out is None:
            return np.abs(block) ** 2
        block = np.abs(block, out=out)
    return np.multiply(block, block, out=out)


def _loop_axes(n_qubits: int) -> int:
    """Axes of a ``(2,)*n`` view looped over so that one block of the rest
    holds at most ``CHUNK`` amplitudes."""
    return max(n_qubits - (CHUNK.bit_length() - 1), 0)


def _blocks(view: np.ndarray, whole: int = 0):
    """Views that tile ``view`` (a ``(2,)*m`` array), each of at most
    ``CHUNK`` amplitudes: every block keeps the first ``whole`` axes whole
    and takes one index of each of the next ``_loop_axes(m)``, the blocks in
    C order of those indices."""
    keep = (slice(None),) * whole
    for index in itertools.product((0, 1), repeat=_loop_axes(view.ndim)):
        yield view[(*keep, *index)]


def _pairwise(parts: np.ndarray) -> np.ndarray:
    """Each row of ``parts`` (a power-of-two count of block sums) added
    pairwise in a balanced tree."""
    while parts.shape[1] > 1:
        parts = parts[:, 0::2] + parts[:, 1::2]
    return parts[:, 0]


def _sums_of_squares(view: np.ndarray, k: int) -> np.ndarray:
    """For each index of the first ``k`` axes of ``view`` (a ``(2,)*m``
    array), in C order, the sum of |amp|^2 over the other axes.

    Each sum is bit for bit ``np.sum`` of those squares raveled in C order:
    numpy sums a power-of-two length pairwise, halving it down to runs of
    128, so the sums of aligned blocks of at most ``CHUNK`` amplitudes, added
    pairwise in a balanced tree, are its own partial sums (``CHUNK`` is at
    least 128).  The blocks are those of :func:`_blocks`, one index of each
    leading axis looped over until a block fits.
    """
    loop = _loop_axes(view.ndim)
    rows = 1 << max(k - loop, 0)  # register values in one block
    parts = np.empty((1 << loop) * rows)
    for j, block in enumerate(_blocks(view)):
        parts[j * rows:(j + 1) * rows] = _squares(block).reshape(rows, -1).sum(axis=1)
    return _pairwise(parts.reshape(1 << k, -1))


def check_width(n_qubits: int):
    """Raise :class:`CapacityError` unless 1 <= n_qubits <= MAX_QUBITS.

    Every :class:`StateVector` passes this check; call it directly before
    allocating amplitudes by other means.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"qubit count {n_qubits} outside supported range [1, {MAX_QUBITS}]"
        )


class StateVector:
    """2**n_qubits amplitudes; the simulator's single source of truth.

    Bool, integer or float amplitudes are held as float64, any others as
    complex128.  Every gate kind has a real matrix and keeps a real state
    real; only :meth:`apply_unitary` makes it complex.

    ``_fixed`` lists ``(qubit, value)`` pairs where every amplitude with the
    other value is +0.0: :func:`~qrelieff.circuits.swap_test_state` records
    them, the X-basis readout skips by them, and in-place gates clear them.
    """

    __slots__ = ("n_qubits", "amplitudes", "_fixed")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray, _checked: bool = False):
        check_width(n_qubits)
        amplitudes = np.asarray(amplitudes)
        real = amplitudes.dtype.kind in "biuf"
        amplitudes = np.asarray(amplitudes, dtype=float if real else complex)
        if amplitudes.shape != (1 << n_qubits,):
            raise QReliefFError(
                f"amplitude vector of length {amplitudes.size} does not match "
                f"{n_qubits} qubits"
            )
        if not _checked:
            norm = np.vdot(amplitudes, amplitudes).real  # no whole-state temporary
            if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
                raise QReliefFError(f"state norm {norm} deviates from 1")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes
        self._fixed: tuple[tuple[int, int], ...] = ()

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def _check_qubit(self, q: int):
        if not 0 <= q < self.n_qubits:
            raise QReliefFError(f"qubit index {q} out of range for {self.n_qubits} qubits")

    def _qubit_axes(self, amps: np.ndarray, fixed=(), first=()) -> np.ndarray:
        """View of ``amps`` (this state's amplitudes or a C-contiguous copy)
        as a ``(2,)*n`` array, one axis per qubit: the qubits in ``first``
        lead, in that order, then the others from the highest down, and each
        qubit of ``fixed`` (``(qubit, value)`` pairs, as a gate's controls)
        is indexed out.  Writes through the view land in ``amps``, also when
        every qubit is fixed."""
        qubits = [*first, *(q for q, _ in fixed)]
        for q in qubits:
            self._check_qubit(q)
        if len(set(qubits)) < len(qubits):
            raise QReliefFError(f"repeated qubit in {qubits}")
        n, value = self.n_qubits, dict(fixed)
        order = [*first, *(q for q in range(n - 1, -1, -1) if q not in first)]
        view = amps.reshape((2,) * n).transpose([n - 1 - q for q in order])
        return view[(*(value.get(q, slice(None)) for q in order), ...)]

    # -- gate application ----------------------------------------------------

    def apply(self, gate: GateOp, _in_place: bool = False) -> "StateVector":
        """Return U|self> where U is the gate extended by identity.

        ``_in_place`` overwrites this state's amplitudes, clears
        :attr:`_fixed` and returns ``self``; only for states whose
        C-contiguous buffer no caller holds.
        """
        amps = self.amplitudes if _in_place else self.amplitudes.copy()
        if gate.kind == "swap":
            self._swap_registers(amps, gate)
        else:
            view = self._qubit_axes(amps, fixed=gate.controls, first=gate.targets)
            u = _ry_matrix(gate.angle) if gate.kind == "ry" else None  # once for all blocks
            for block in _blocks(view, 1):
                _kernel(block[0, ...], block[1, ...], gate.kind, u)
        if _in_place:
            self._fixed = ()
            return self
        # unitary by construction; skip the norm re-check
        return StateVector(self.n_qubits, amps, _checked=True)

    def _swap_registers(self, amps: np.ndarray, gate: GateOp):
        """Swap every target pair of ``gate`` in ``amps`` (C-contiguous): a
        transposition of the controlled branch's ``(2,)*n`` view, block by
        block.

        The outer axes are taken from the outermost, each with the axis it is
        paired with, until a block of the other axes holds at most ``CHUNK``
        amplitudes.  The transposition maps every block onto one block: a
        block it fixes is transposed in place through one copy of it, and the
        others trade places with their partners, transposed, whatever they
        hold: the controls alone limit what the swap reads.
        """
        ctrl = dict(gate.controls)
        for q in gate.targets:
            self._check_qubit(q)
        view = self._qubit_axes(amps, fixed=gate.controls)
        axis_qubit = [q for q in range(self.n_qubits - 1, -1, -1) if q not in ctrl]
        perm = list(range(view.ndim))
        for a, b in zip(gate.targets[::2], gate.targets[1::2]):
            i, j = axis_qubit.index(a), axis_qubit.index(b)
            perm[i], perm[j] = j, i
        outer = []
        for a in range(view.ndim):
            if view.size >> len(outer) <= CHUNK:
                break
            if a not in outer:
                outer += [a] if perm[a] == a else [a, perm[a]]
        inner = [a for a in range(view.ndim) if a not in outer]
        blocks = view.transpose(outer + inner)
        inner_perm = [inner.index(perm[a]) for a in inner]
        for s in itertools.product((0, 1), repeat=len(outer)):
            t = tuple(s[outer.index(perm[a])] for a in outer)  # where block s goes
            if t == s:
                block = blocks[(*s, ...)]
                block[...] = block.transpose(inner_perm).copy()
            elif s < t:
                b, c = blocks[(*s, ...)], blocks[(*t, ...)]
                moved = b.transpose(inner_perm).copy()
                b[...] = c.transpose(inner_perm)
                c[...] = moved

    def _run(self, gates) -> "StateVector":
        """Apply ``gates`` in place, each through :meth:`apply`; returns ``self``.

        Only for states whose C-contiguous buffer no caller holds.
        """
        for g in gates:
            self.apply(g, _in_place=True)
        return self

    def apply_unitary(self, u: np.ndarray, targets, controls=()) -> "StateVector":
        """Apply an arbitrary unitary on the subspace spanned by ``targets``.

        ``targets[0]`` is the least-significant bit of the sub-register value,
        consistent with the global bit order.  No package path calls it; it
        stays because the benchmark's tracer (``perfbench/child.py``) wraps
        it by name.
        """
        targets = [int(t) for t in targets]
        k = len(targets)
        u = np.asarray(u, dtype=complex)
        if u.shape != (1 << k, 1 << k):
            raise QReliefFError("unitary dimension does not match target register")
        amps = self.amplitudes.astype(complex)
        # the targets last, targets[0] on the last axis: each row of the
        # block is one register value
        view = self._qubit_axes(amps, fixed=_normalize_controls(controls), first=targets[::-1])
        sub = np.moveaxis(view, range(k), range(-k, 0))
        sub[...] = (sub.reshape(-1, 1 << k) @ u.T).reshape(sub.shape)
        return StateVector(self.n_qubits, amps, _checked=True)

    # -- measurement ---------------------------------------------------------

    def postselect(self, qubit: int, outcome: int) -> "StateVector":
        """Project on ``qubit == outcome`` and renormalize."""
        if outcome not in (0, 1):
            raise QReliefFError(f"outcome must be 0 or 1, got {outcome}")
        amps = self.amplitudes.copy()
        self._qubit_axes(amps, fixed=[(qubit, 1 - outcome)])[...] = 0.0
        p = _sums_of_squares(self._qubit_axes(amps), 0)[0]
        if p <= 1e-12:
            raise PostselectionError(
                f"branch qubit {qubit} = {outcome} has probability {p}"
            )
        # numpy divides a complex by a real through this reciprocal; a
        # float64 division would round a real state's amplitudes differently
        amps *= 1.0 / math.sqrt(p)
        return StateVector(self.n_qubits, amps, _checked=True)

    def marginal_probabilities(self, qubits) -> np.ndarray:
        """Exact marginal distribution over the listed qubits.

        Entry ``v`` is the probability of reading sub-register value ``v``,
        with ``qubits[0]`` as its least-significant bit.
        """
        qubits = [int(q) for q in qubits]
        if not qubits:
            raise QReliefFError("empty qubit list")
        return _sums_of_squares(self._qubit_axes(self.amplitudes, first=qubits[::-1]), len(qubits))

    def x_basis_probabilities(self) -> np.ndarray:
        """Exact distribution of the top qubit read in the X basis: bit for
        bit ``apply(h(top)).marginal_probabilities([top])``, without the H
        pass or a copy of the state.

        Entry 0 sums the squares of r lo + r hi and entry 1 those of
        r lo - r hi (lo and hi the halves with the top qubit clear and set,
        r = 1/sqrt 2): the H kernel's own products and sums, summed over
        :func:`_sums_of_squares`'s blocks and tree.  The products and sums of
        one block of each half go through three block-sized buffers, and a
        complex block's moduli through a fourth, of floats.  A block index
        that gives a qubit of :attr:`_fixed` its other value is skipped, as
        its squares add up to +0.
        """
        per = 1 << max(_loop_axes(self.n_qubits) - 1, 0)  # blocks per half
        low = self.n_qubits - per.bit_length()  # the qubit of bit 0 of a block index
        index = [(q - low, v) for q, v in self._fixed if low <= q < low + per.bit_length() - 1]
        care, want = sum(1 << b for b, _ in index), sum(v << b for b, v in index)
        halves = self.amplitudes.reshape(2, per, -1)
        t, u, s = (np.empty_like(halves[0, 0]) for _ in range(3))
        sq = np.empty(s.shape) if s.dtype.kind == "c" else s
        r = _H[0, 0]
        parts = np.zeros((2, per))
        for j in range(per):
            if j & care != want:
                continue  # the squares add up to +0, which ``parts`` holds
            np.multiply(r, halves[0, j], out=t)
            np.multiply(r, halves[1, j], out=u)
            parts[0, j] = _squares(np.add(t, u, out=s), out=sq).sum()
            parts[1, j] = _squares(np.subtract(t, u, out=s), out=sq).sum()
        return _pairwise(parts)

    def x_basis_probability_one(self) -> float:
        """Entry 1 of :meth:`x_basis_probabilities`."""
        return float(self.x_basis_probabilities()[1])

    def sample(self, qubits, shots: int, rng: RngStream) -> np.ndarray:
        """Counts of ``shots`` i.i.d. readings of the listed qubits, one
        multinomial draw over :meth:`marginal_probabilities`: entry ``v`` counts
        register value ``v``, ``qubits[0]`` least significant.  Deterministic
        under a fixed rng."""
        if shots < 1:
            raise QReliefFError("shots must be >= 1")
        return rng.multinomial(shots, self.marginal_probabilities(qubits))


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    check_width(n_qubits)
    amps = np.zeros(1 << n_qubits)
    amps[0] = 1.0
    return StateVector(n_qubits, amps, _checked=True)


def run_circuit(n_qubits: int, gates) -> tuple[StateVector, list[int]]:
    """The state that ``gates`` make from |0...0> on ``n_qubits`` qubits, on
    the qubits they name, and those qubits in their global order (the first
    is the state's qubit 0).

    One pass finds the qubits the gates name, as a target or a control.  A
    qubit no gate has named yet is |0>, so a SWAP pair of two such qubits is
    dropped from its gate, and a SWAP left with no pair is skipped, controls
    and all.  The state of the named width is allocated once, and each gate
    runs in place through :meth:`StateVector.apply` on its renumbered
    qubits, every qubit no gate has named yet added as a control on |0>: it
    touches only the amplitudes of the qubits named so far.  A list that
    names no qubit gives |0...0> on all ``n_qubits``.

    On the whole state a pair whose unnamed qubit is 1 is (0, 0), and every
    kernel maps it to +-0; every other amplitude gets the same elementwise
    products and sums.  So the state widened to all ``n_qubits`` (every
    unnamed qubit at |0>) compares equal to ``zero_state(n_qubits)._run(gates)``,
    up to the sign of an exact zero, and its readouts are the same floats.  A
    readout of the narrower state itself adds the same squares in another
    tree, so it may differ in the last bit.
    """
    check_width(n_qubits)
    kept = []  # (gate, its targets with no pair of unnamed qubits)
    first: dict[int, int] = {}  # qubit -> index in ``kept`` of the gate that first names it
    for g in gates:
        for q in (*g.targets, *(q for q, _ in g.controls)):
            if not 0 <= q < n_qubits:
                raise QReliefFError(f"qubit index {q} out of range for {n_qubits} qubits")
        targets = g.targets
        if g.kind == "swap":
            # a pair of qubits no gate has named exchanges |0> with |0>
            pairs = [(a, b) for a, b in zip(targets[::2], targets[1::2]) if a in first or b in first]
            if not pairs:
                continue
            targets = tuple(q for pair in pairs for q in pair)
        for q in (*targets, *(q for q, _ in g.controls)):
            first.setdefault(q, len(kept))
        kept.append((g, targets))
    if not first:
        return zero_state(n_qubits), list(range(n_qubits))
    held = sorted(first)
    local = {q: i for i, q in enumerate(held)}
    state = zero_state(len(held))
    for i, (g, targets) in enumerate(kept):
        idle = [(q, 0) for q in held if first[q] > i]  # not named yet: |0>
        state.apply(GateOp(
            g.kind,
            tuple(local[q] for q in targets),
            tuple((local[q], pol) for q, pol in (*g.controls, *idle)),
            g.angle,
        ), _in_place=True)
    return state, held
