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
  same float.  Program 3's 25 gates on 20 qubits (8 MiB real, 16 MiB
  complex) fell from about 72 to 43 ms in process, and one swap test on a
  19-qubit composite from about 4.3 to 3.0 ms (2 vCPU, numpy 2.4.6, one BLAS
  thread).
* Qubit ``j`` is the least-significant bit ``j`` of the basis index, i.e.
  basis index of a bitstring ``b`` is ``sum(b_j * 2**j)``.
* Gate application never mutates its input: :meth:`StateVector.apply`
  returns a new :class:`StateVector` unless the caller owns the buffer and
  asks for in-place work, and :meth:`StateVector.apply_all` copies the
  amplitudes once and runs the whole gate list in place on that private copy.
* Each gate kind has its own kernel (:func:`_kernel`) on
  :meth:`StateVector._split`'s view: X exchanges the two target halves, H is
  a two-multiply butterfly, SWAP exchanges the 10 and 01 branches, and Ry
  runs in place.  X and H may flip the sign of an
  exact zero amplitude relative to the matrix product; values and
  probabilities are unchanged.
* The kernel runs on the view piece by piece (:func:`_pieces`), each piece at
  most ``CHUNK`` = 2^14 amplitudes (128 KiB real, 256 KiB complex), so its
  temporaries stay in cache where whole-view ones took half the state (8 MiB
  of complex amplitudes at 20 qubits).  The rest
  axes are walked from the outermost: whole axes are looped over while what
  lies inside them exceeds a piece, and the next axis is cut into runs.
  Innermost rest axes of 4 or fewer elements in all are stepped through when
  a longer axis lies above them, so numpy's inner loop runs along that axis.
  Every operation is elementwise, so each amplitude gets the same products
  and sums as on the whole view and the bytes do not change; a view of one
  piece or less is one call, as before.  Program 3's 25 gates fell from about
  135 to 85 ms in process, and a cold ``reproduce_program3`` from about 213
  to 131 ms (2 vCPU, numpy 2.4.6, one BLAS thread).
* A register swap (:func:`swap_registers`, k >= 2 qubit pairs under one set
  of controls) is one axis transposition of the ``(2,)*n`` view on the
  controlled branch, where k single SWAPs would make k strided passes: five
  controlled pairs on 19 qubits take 1.14 ms against 4.37 ms as five SWAPs.
  One pair keeps the branch exchange, which measured faster than the
  transposition: 0.60 against 1.09 ms controlled on 19 qubits, 2.6 against
  4.3 ms uncontrolled on 20.  The transposition runs block by block, each
  block at most ``CHUNK`` amplitudes, through one block-sized temporary
  (:meth:`StateVector._swap_registers`).  Amplitudes only move, so the bytes
  equal those of the pairs swapped one at a time.
* Probabilities are exact (computed from amplitudes); sampling is opt-in
  through :meth:`StateVector.sample`.  The readouts sum |amp|^2 over pieces
  of at most ``CHUNK`` amplitudes and add the piece sums in numpy's own
  pairwise order (:func:`_sums_of_squares`).  ``zero_state`` skips the norm
  check, and the check of any other input is one ``np.vdot``.
  :meth:`StateVector.postselect` sums the norm of its zeroed copy the same
  way and renormalizes it in place, as a product with
  1/sqrt(p), which numpy's complex division by a real also computes.  So
  working memory is the state (8 bytes per amplitude real, 16 complex) plus
  under 1 MiB for any gate, readout or postselection on 20 qubits, where
  half-state temporaries took 4-16 MiB; only
  :meth:`StateVector.apply_unitary`, which returns a complex copy, still
  takes a whole state of temporaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, PostselectionError, QReliefFError
from .rng import RngStream

MAX_QUBITS = 28  # 2**28 amplitudes = 2 GiB of float64, 4 GiB of complex128
NORM_TOL = 1e-9
CHUNK = 1 << 14  # amplitudes per piece of a gate's view: 128 KiB real, 256 KiB complex
SHORT = 4  # innermost axes this short are stepped through

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


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

    def matrix(self) -> np.ndarray:
        """The uncontrolled matrix on the targets, ``targets[0]`` lowest."""
        if self.kind == "h":
            return _H
        if self.kind == "x":
            return _X
        if self.kind == "ry":
            return _ry_matrix(self.angle)
        # swap: bit 2i of the register value trades places with bit 2i + 1
        k = len(self.targets)
        perm = [sum(((v >> (j ^ 1)) & 1) << j for j in range(k)) for v in range(1 << k)]
        return np.eye(1 << k)[perm]


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


def _kernel(sub: np.ndarray, kind: str, u):
    """Apply a one-target gate, or a one-pair SWAP, to ``sub``: a view with
    the target axes last, as :meth:`StateVector._split` makes it or any piece
    of that view.  ``u`` is the matrix of an Ry gate.  Every operation is
    elementwise."""
    if kind == "swap":
        sub[..., 1, 0], sub[..., 0, 1] = sub[..., 0, 1], sub[..., 1, 0].copy()
    elif kind == "x":
        sub[..., 0], sub[..., 1] = sub[..., 1], sub[..., 0].copy()
    elif kind == "h":
        # butterfly: r a0 + r a1 and r a0 - r a1, one temporary
        a0, a1, r = sub[..., 0], sub[..., 1], _H[0, 0]
        t = r * a0
        np.multiply(r, a1, out=a1)
        np.add(t, a1, out=a0)
        np.subtract(t, a1, out=a1)
    else:
        # u00 a0 + u01 a1 and u11 a1 + u10 a0 in place: the matrix product's
        # own products (scalar first) and sums, so its bytes too
        a0, a1 = sub[..., 0], sub[..., 1]
        t = u[1, 0] * a0
        np.multiply(u[0, 0], a0, out=a0)
        a0 += u[0, 1] * a1
        np.multiply(u[1, 1], a1, out=a1)
        a1 += t


def _pieces(sub: np.ndarray, k: int):
    """Views that tile ``sub`` (rest axes, then ``k`` target axes of length
    2), each of at most ``CHUNK`` amplitudes; ``sub`` itself when it fits.

    Length-1 rest axes are dropped.  The innermost rest axes, as many as hold
    ``SHORT`` or fewer elements together, are stepped through, one index per
    piece, when the axis above them is longer: numpy's inner loop then runs
    along that axis.  The other rest axes are walked from the outermost: each
    is looped over whole while the axes inside it hold more than a piece, and
    the next one is cut into runs that fill a piece.  The steps of one run
    follow each other, so the run stays in cache.
    """
    if sub.size <= CHUNK:
        return (sub,)
    sub = sub.squeeze(tuple(i for i, m in enumerate(sub.shape[:-k]) if m == 1))
    rest = sub.shape[:-k]
    n_step, size = 0, 1
    while n_step < len(rest) - 1 and size * rest[-1 - n_step] <= SHORT:
        size *= rest[-1 - n_step]
        n_step += 1
    if n_step and rest[-1 - n_step] <= SHORT:
        n_step = 0
    middle, stepped = rest[:len(rest) - n_step], rest[len(rest) - n_step:]
    per = CHUNK >> k  # rest elements per piece
    j, inner = len(middle) - 1, 1
    while j > 0 and inner * middle[j] <= per:
        inner *= middle[j]
        j -= 1
    run, whole = per // inner, (slice(None),) * (len(middle) - j - 1)
    return (
        sub[(*outer, slice(a, a + run), *whole, *step)]
        for outer in itertools.product(*map(range, middle[:j]))
        for a in range(0, middle[j], run)
        for step in itertools.product(*map(range, stepped))
    )


def _sums_of_squares(view: np.ndarray, k: int) -> np.ndarray:
    """For each index of the first ``k`` axes of ``view`` (a ``(2,)*m``
    array), in C order, the sum of |amp|^2 over the other axes.

    Each sum is bit for bit ``np.sum`` of those squares raveled in C order:
    numpy sums a power-of-two length pairwise, halving it down to blocks of
    128, so the sums of aligned pieces of at most ``CHUNK`` amplitudes, added
    pairwise in a balanced tree, are its own partial sums (``CHUNK`` is at
    least 128).  The leading axes are looped over, one piece each, until a
    piece fits.
    """
    loop = max(view.ndim - (CHUNK.bit_length() - 1), 0)
    rows = 1 << max(k - loop, 0)  # register values in one piece
    parts = np.empty((1 << loop) * rows)
    for j, index in enumerate(itertools.product((0, 1), repeat=loop)):
        sq = np.abs(view[index]).reshape(rows, -1) ** 2
        parts[j * rows:(j + 1) * rows] = sq.sum(axis=1)
    parts = parts.reshape(1 << k, -1)
    while parts.shape[1] > 1:
        parts = parts[:, 0::2] + parts[:, 1::2]
    return parts[:, 0]


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
    """

    __slots__ = ("n_qubits", "amplitudes")

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

    # -- basics --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def _check_qubit(self, q: int):
        if not 0 <= q < self.n_qubits:
            raise QReliefFError(f"qubit index {q} out of range for {self.n_qubits} qubits")

    def _split(self, amps: np.ndarray, targets, controls=()) -> np.ndarray:
        """View of ``amps`` (this state's amplitudes or a copy) on the branch
        where every control holds its polarity, with one trailing length-2 axis
        per target, in the order given.

        The amplitudes are reshaped so that each listed qubit q owns an axis:
        one qubit gives ``(2^(n-q-1), 2, 2^q)``, and each further qubit splits
        one of the outer blocks the same way.  Integer indices then fix the
        controls, and the target axes move last.  ``sub[..., 1, 0]`` is thus the
        branch with ``targets[0] = 1`` and ``targets[1] = 0``.  Writes through
        the view land in ``amps`` when it is C-contiguous.
        """
        qubits = [*targets, *(q for q, _ in controls)]
        for q in qubits:
            self._check_qubit(q)
        order = sorted(qubits, reverse=True)
        shape, above = [], self.n_qubits
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

    def _qubit_axes(self, amps: np.ndarray, fixed=None, first=()) -> np.ndarray:
        """View of ``amps`` as a ``(2,)*n`` array, one axis per qubit: the
        qubits in ``first`` lead, in that order, then the others from the
        highest down, and each qubit of ``fixed`` (a dict of qubit to value)
        is indexed out."""
        fixed = fixed or {}
        for q in (*first, *fixed):
            self._check_qubit(q)
        if len({*first, *fixed}) < len(first) + len(fixed):
            raise QReliefFError(f"repeated qubit in {[*first, *fixed]}")
        n = self.n_qubits
        order = [*first, *(q for q in range(n - 1, -1, -1) if q not in first)]
        view = amps.reshape((2,) * n).transpose([n - 1 - q for q in order])
        return view[tuple(fixed.get(q, slice(None)) for q in order)]

    # -- gate application ----------------------------------------------------

    def apply(self, gate: GateOp, _in_place: bool = False) -> "StateVector":
        """Return U|self> where U is the gate extended by identity.

        ``_in_place`` overwrites this state's amplitudes and returns ``self``;
        only for states whose C-contiguous buffer no caller holds.
        """
        amps = self.amplitudes if _in_place else self.amplitudes.copy()
        if len(gate.targets) > 2:  # a register swap
            self._swap_registers(amps, gate)
        else:
            sub = self._split(amps, gate.targets, gate.controls)
            u = gate.matrix() if gate.kind == "ry" else None  # once for all pieces
            for piece in _pieces(sub, len(gate.targets)):
                _kernel(piece, gate.kind, u)
        if _in_place:
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
        others trade places with their partners, transposed.
        """
        ctrl = dict(gate.controls)
        for q in gate.targets:
            self._check_qubit(q)
        view = self._qubit_axes(amps, fixed=ctrl)
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

    def apply_all(self, gates) -> "StateVector":
        """Return the state after ``gates``, run in order on one private copy."""
        return StateVector(self.n_qubits, self.amplitudes.copy(), _checked=True)._run(gates)

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
        # targets[0] on the last axis: each row of the block is one register value
        sub = self._split(amps, targets[::-1], _normalize_controls(controls))
        sub[...] = (sub.reshape(-1, 1 << k) @ u.T).reshape(sub.shape)
        return StateVector(self.n_qubits, amps, _checked=True)

    # -- measurement ---------------------------------------------------------

    def probability_one(self, qubit: int) -> float:
        """Exact probability of reading 1 on ``qubit``."""
        return float(_sums_of_squares(self._qubit_axes(self.amplitudes, fixed={qubit: 1}), 0)[0])

    def postselect(self, qubit: int, outcome: int) -> "StateVector":
        """Project on ``qubit == outcome`` and renormalize."""
        if outcome not in (0, 1):
            raise QReliefFError(f"outcome must be 0 or 1, got {outcome}")
        amps = self.amplitudes.copy()
        self._split(amps, [qubit])[..., 1 - outcome] = 0.0
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

    def sample(self, qubits, shots: int, rng: RngStream) -> dict[str, int]:
        """Draw ``shots`` i.i.d. readings of the listed qubits.

        Keys are bitstrings with ``qubits[i]`` at string position ``i``.
        Deterministic under a fixed rng.
        """
        if shots < 1:
            raise QReliefFError("shots must be >= 1")
        probs = self.marginal_probabilities(qubits)
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        out = {}
        for v, c in enumerate(counts):
            if c:
                bits = "".join(str((v >> j) & 1) for j in range(len(qubits)))
                out[bits] = int(c)
        return out


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    check_width(n_qubits)
    amps = np.zeros(1 << n_qubits)
    amps[0] = 1.0
    return StateVector(n_qubits, amps, _checked=True)

