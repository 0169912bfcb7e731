"""The stride-view gate kernel and the Grover-orbit amplitude estimation
against the index-mask kernel and the controlled-G loop they replaced, the
per-kind gate kernels against the one-expression stride-view kernel, the
chunked kernel bit for bit against the same kernels on the whole view, the
register swap against its pairs swapped one at a time and, block by block,
against one transposition of the whole view, the readouts summed over blocks
against whole-state numpy sums, the swap test's X-basis readout and
``_swap_test_p1`` bit for bit against the H, register swap, H circuit read
in the computational basis, the swap-test composite written only in A's
nonzero rows, its swap controlled on the qubits that A holds fixed and
its readout skipping the blocks they rule out, against every row written
and one whole-view swap, the in-place gate
lists (``_run``, the swap test) bit for bit against one new state per
gate, ``run_circuit`` on the qubits its gates have named against ``_run``
on all of them, the Grover search state and orbit, which reflect about
W|0> in place of running W^-1 and W, against per-gate iterations, the
orbit by repeated squaring against the orbit step by step, the readout's one FFT down the
orbit bit for bit against the QFT on the (1+t)-qubit state it replaced, the
one-qubit estimate of a composite's P(1) against amplitude estimation of the
whole composite (with and without a sample-index register, and with per-pair
swaps), and the comparator ``cmp_flag`` bit for bit against its index-array
scatter.  Amplitude estimation takes the prepared one-qubit state A|0>; the
reference takes A's gates, on any width, with the flag on the top qubit."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from qrelieff import statevector
from qrelieff.circuits import (
    EncodingLayout,
    _grover_orbit_by_squaring,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    fold_distribution,
    grover_plan,
    grover_search_state,
    modal_outcome,
    swap_flag,
    swap_test_state,
)
from qrelieff.cli import load_csv
from qrelieff.errors import QReliefFError
from qrelieff.pipeline import PipelineConfig, _swap_test_p1, prepare_states
from qrelieff.program3 import N_QUBITS, build_circuit, final_state, reproduce_program3
from qrelieff.relieff import NormalizedDataset, normalize
from qrelieff.rng import RngStream
from qrelieff.statevector import (
    GateOp,
    StateVector,
    h,
    run_circuit,
    ry,
    swap_registers,
    x,
    zero_state,
)

DATA = Path(__file__).parent / "data"

TOL = 1e-12
# Program 3's exact P(1) as computed by the index-mask kernel and by the
# stride-view kernels on the whole view: the same float.
PROGRAM3_EXACT_P1 = 0.49999999999999933


GATE_KINDS = ["h", "x", "ry", "swap"]


@st.composite
def gates(draw, n_qubits: int, kind: str | None = None):
    """One primitive gate with random (or the given) kind, targets, controls
    and polarities; a SWAP has 1 to n/2 pairs."""
    if kind is None:
        kind = draw(st.sampled_from(GATE_KINDS if n_qubits > 1 else GATE_KINDS[:-1]))
    order = draw(st.permutations(range(n_qubits)))
    n_targets = 2 * draw(st.integers(1, n_qubits // 2)) if kind == "swap" else 1
    n_controls = draw(st.integers(0, n_qubits - n_targets))
    controls = tuple(
        (q, draw(st.integers(0, 1))) for q in order[n_targets:n_targets + n_controls]
    )
    angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind == "ry" else 0.0
    return GateOp(kind, tuple(order[:n_targets]), controls, angle)


@st.composite
def states(draw, n_qubits: int):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


@st.composite
def states_with_zeros(draw, n_qubits: int):
    """A random state whose real and imaginary parts are +0.0 or -0.0 at
    random positions (none, some or nearly all of them)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(1 << n_qubits, 2))
    zeros = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    if not parts.any():
        parts[rng.integers(1 << n_qubits), 0] = -1.0
    parts /= math.sqrt(np.sum(parts**2))  # real division keeps each zero's sign
    return StateVector(n_qubits, parts.view(complex).ravel())


@st.composite
def states_with_zero_blocks(draw, n_qubits: int):
    """A random real or complex state cut into aligned runs of 2^j
    amplitudes (j drawn), each run kept, set to +0.0, or set to zeros of
    random sign: whole zero blocks for the chunked kernels, which move every
    block whatever it holds, some all +0.0 and some holding a -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([1, 2]))  # floats per amplitude
    runs = 1 << (n_qubits - draw(st.integers(0, n_qubits - 1)))
    parts = rng.normal(size=(runs, (width << n_qubits) // runs))
    fate = rng.integers(0, 3, size=runs)
    parts[fate == 1] = 0.0
    signed = fate == 2
    parts[signed] = np.where(rng.random((signed.sum(), parts.shape[1])) < 0.5, 0.0, -0.0)
    if not parts.any():
        parts[rng.integers(runs), 0] = -1.0
    parts /= math.sqrt(np.sum(parts**2))  # real division keeps each zero's sign
    amps = parts.ravel()
    return StateVector(n_qubits, amps.view(complex) if width == 2 else amps)


@st.composite
def circuits(draw, max_qubits=10, max_gates=12):
    n = draw(st.integers(1, max_qubits))
    return draw(states(n)), draw(st.lists(gates(n), min_size=1, max_size=max_gates))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_gate_sequences_match_reference(case):
    state, sequence = case
    fast, slow = state, state
    for gate in sequence:
        fast, slow = fast.apply(gate), ref.apply(slow, gate)
    np.testing.assert_allclose(fast.amplitudes, slow.amplitudes, rtol=0, atol=TOL)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.mark.parametrize("kind", GATE_KINDS)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_gate_kernels_match_stride_reference(kind, data):
    """Equal values and bit-identical probabilities for every kind; bit-identical
    amplitudes for Ry and SWAP.  X and H may flip an exact zero's sign."""
    n = data.draw(st.integers(2 if kind == "swap" else 1, 10))
    state = data.draw(states_with_zeros(n))
    gate = data.draw(gates(n, kind))
    before = state.amplitudes.copy()
    fast, slow = state.apply(gate), ref.apply_stride(state, gate)
    assert np.array_equal(_bits(state.amplitudes), _bits(before))  # input untouched
    assert np.array_equal(fast.amplitudes, slow.amplitudes)
    assert np.array_equal(_bits(np.abs(fast.amplitudes) ** 2), _bits(np.abs(slow.amplitudes) ** 2))
    if kind in ("ry", "swap"):
        assert np.array_equal(_bits(fast.amplitudes), _bits(slow.amplitudes))
    own = StateVector(n, before.copy(), _checked=True)
    assert own.apply(gate, _in_place=True) is own
    assert np.array_equal(_bits(own.amplitudes), _bits(fast.amplitudes))


def _assert_chunked_matches_unchunked(state: StateVector, gate: GateOp):
    """``apply`` out of place and in place against the kernels on the whole
    view, bit for bit."""
    before = state.amplitudes.copy()
    want = ref.apply_unchunked(state, gate)
    assert np.array_equal(_bits(state.apply(gate).amplitudes), _bits(want.amplitudes))
    assert np.array_equal(_bits(state.amplitudes), _bits(before))  # input untouched
    own = StateVector(state.n_qubits, before, _checked=True)
    assert own.apply(gate, _in_place=True) is own
    assert np.array_equal(_bits(own.amplitudes), _bits(want.amplitudes))


@pytest.mark.parametrize("kind", GATE_KINDS)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chunked_kernel_matches_unchunked(kind, data):
    """Blocks of 4 amplitudes, each the target axis and the lowest other
    qubit's: the loop over every other axis runs on states of up to 10
    qubits, every target included, on states with and without whole zero
    blocks (all +0.0, or holding a -0.0)."""
    n = data.draw(st.integers(2 if kind == "swap" else 1, 10))
    order = data.draw(st.permutations(range(n)))
    n_targets = 2 if kind == "swap" else 1
    n_controls = data.draw(st.integers(0, min(3, n - n_targets)))
    controls = tuple(
        (q, data.draw(st.integers(0, 1))) for q in order[n_targets:n_targets + n_controls]
    )
    angle = data.draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind == "ry" else 0.0
    gate = GateOp(kind, tuple(order[:n_targets]), controls, angle)
    state = data.draw(st.one_of(states_with_zeros(n), states_with_zero_blocks(n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", 4)
        _assert_chunked_matches_unchunked(state, gate)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocks_tile_the_view_once(data):
    """Every amplitude of a one-target gate's controlled branch lies in
    exactly one block of its walk, and no block holds more than ``CHUNK``
    amplitudes."""
    n = data.draw(st.integers(2, 10))
    gate = data.draw(gates(n, data.draw(st.sampled_from(GATE_KINDS[:-1]))))
    chunk = data.draw(st.sampled_from([4, 8, 16, 64]))
    state = StateVector(n, np.zeros(1 << n), _checked=True)
    seen = np.zeros(1 << n, dtype=np.int64)
    view = state._qubit_axes(seen, fixed=gate.controls, first=gate.targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", chunk)
        for block in statevector._blocks(view, 1):
            assert block.size <= chunk
            block += 1
    assert np.all(view == 1)
    assert seen.sum() == view.size


@pytest.fixture(scope="module")
def wide_states():
    """One random state each of 15, 19 and 20 qubits."""
    out = {}
    for n in (15, 19, 20):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out[n] = StateVector(n, amps / np.linalg.norm(amps))
    return out


@pytest.mark.parametrize("n", [15, 19, 20])
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_chunked_kernel_matches_unchunked_on_wide_states(wide_states, n, kind):
    """Targets 0, 1, 2, 5 and n-1 (a SWAP pairs each with its neighbour), each
    with no control, one control above the targets and one below them."""
    state = wide_states[n]
    for t in (0, 1, 2, 5, n - 1):
        targets = (t, t + 1 if t < n - 1 else t - 1) if kind == "swap" else (t,)
        low, high = min(targets), max(targets)
        for controls in ((), ((high + (n - high) // 2, 1),), ((low // 2, 0),)):
            if any(q in targets for q, _ in controls):
                continue  # no qubit below target 0 (or the pair 0, 1)
            gate = GateOp(kind, targets, controls, 0.7 if kind == "ry" else 0.0)
            _assert_chunked_matches_unchunked(state, gate)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chunked_register_swap_matches_unchunked(data):
    """Blocks of 1 to 64 amplitudes, fixed ones transposed in place and the
    others traded with their partners, zero blocks included: bit for bit
    the whole-view transposition, under 0 to 3 controls of either
    polarity."""
    n = data.draw(st.integers(4, 12))
    order = data.draw(st.permutations(range(n)))
    n_controls = data.draw(st.integers(0, min(3, n - 4)))
    k = data.draw(st.integers(2, (n - n_controls) // 2))
    controls = tuple(
        (q, data.draw(st.integers(0, 1))) for q in order[2 * k:2 * k + n_controls]
    )
    gate = swap_registers(order[:k], order[k:2 * k], controls)
    state = data.draw(st.one_of(states_with_zeros(n), states_with_zero_blocks(n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", data.draw(st.sampled_from([1, 4, 16, 64])))
        _assert_chunked_matches_unchunked(state, gate)


@pytest.mark.parametrize("n, gate", [
    (20, swap_registers([0, 1, 2, 4, 5, 6, 7, 8], range(9, 17), controls=[19])),
    (19, swap_registers(range(9, 14), range(5), controls=[18])),
    (20, swap_registers(range(10), range(10, 20))),
    (20, swap_registers([19, 3], [0, 12], controls=[(7, 0)])),
], ids=["program3", "swap-test-19", "halves-20", "mixed-20"])
def test_chunked_register_swap_matches_unchunked_on_wide_states(wide_states, n, gate):
    _assert_chunked_matches_unchunked(wide_states[n], gate)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_readouts_in_blocks_match_whole_state_sums(data):
    """Blocks of 128 to 1024 amplitudes: ``marginal_probabilities`` of the
    top qubits, lowest first (every register the package reads), gives the
    bits of one numpy sum over the whole state.  Any other register, one
    lower qubit included, sums each value's amplitudes in C order, where
    numpy's axis-0 sum runs row by row: equal to ``TOL``."""
    n = data.draw(st.integers(1, 13))
    state = data.draw(states_with_zeros(n))
    q = data.draw(st.integers(0, n - 1))
    top = list(range(n - data.draw(st.integers(1, n)), n))
    qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", data.draw(st.sampled_from([128, 256, 1024])))
        np.testing.assert_allclose(
            state.marginal_probabilities([q])[1],
            ref.probability_one_unchunked(state, q), rtol=0, atol=TOL,
        )
        assert np.array_equal(
            _bits(state.marginal_probabilities(top)),
            _bits(ref.marginal_probabilities_unchunked(state, top)),
        )
        np.testing.assert_allclose(
            state.marginal_probabilities(qubits),
            ref.marginal_probabilities_unchunked(state, qubits), rtol=0, atol=TOL,
        )


@pytest.mark.parametrize("log_n", range(7, 19))
def test_numpy_sums_a_power_of_two_pairwise(log_n):
    """The readouts rest on this: ``np.sum`` of 2^m floats halves the length
    down to blocks of 128, so the sums of aligned pieces of 2^7 or more,
    added pairwise in a balanced tree, are bit for bit the sum of the whole."""
    values = np.random.default_rng(log_n).random(1 << log_n)
    for log_piece in range(7, log_n + 1):
        sums = [np.sum(piece) for piece in values.reshape(-1, 1 << log_piece)]
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        assert sums[0] == np.sum(values), f"pieces of 2^{log_piece}"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_register_swap_matches_pairs_one_at_a_time(data):
    """One transposition gives the bytes of its k pairs swapped in turn."""
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, n // 2))
    order = data.draw(st.permutations(range(n)))
    n_controls = data.draw(st.integers(0, n - 2 * k))
    controls = tuple(
        (q, data.draw(st.integers(0, 1))) for q in order[2 * k:2 * k + n_controls]
    )
    state = data.draw(states_with_zeros(n))
    gate = swap_registers(order[:k], order[k:2 * k], controls)
    before = state.amplitudes.copy()
    want = ref.apply_stride(state, gate)  # one pair at a time
    got = state.apply(gate)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert state.amplitudes.tobytes() == before.tobytes()  # input untouched
    own = StateVector(n, before.copy(), _checked=True)
    assert own.apply(gate, _in_place=True) is own
    assert own.amplitudes.tobytes() == got.amplitudes.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_measurements_match_reference(data):
    n = data.draw(st.integers(1, 10))
    state = data.draw(states(n))
    q = data.draw(st.integers(0, n - 1))
    assert abs(state.marginal_probabilities([q])[1] - ref.probability_one(state, q)) <= TOL
    outcome = data.draw(st.integers(0, 1))
    np.testing.assert_allclose(
        state.postselect(q, outcome).amplitudes,
        ref.postselect(state, q, outcome).amplitudes, rtol=0, atol=TOL,
    )
    qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    np.testing.assert_allclose(
        state.marginal_probabilities(qubits),
        ref.marginal_probabilities(state, qubits), rtol=0, atol=TOL,
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_unitary_matches_reference(data):
    n = data.draw(st.integers(1, 8))
    state = data.draw(states(n))
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, min(n, 3)))
    n_controls = data.draw(st.integers(0, n - k))
    controls = [(q, data.draw(st.integers(0, 1))) for q in order[k:k + n_controls]]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k)))
    np.testing.assert_allclose(
        state.apply_unitary(u, order[:k], controls).amplitudes,
        ref.apply_unitary(state, u, order[:k], controls).amplitudes, rtol=0, atol=TOL,
    )


@pytest.mark.parametrize("t", range(1, 11))
def test_reduced_ae_matches_controlled_grover_loop(t):
    rng = np.random.default_rng(t)
    amplitudes = [0.0, 0.5, 1.0, *rng.random(3 if t <= 8 else 1)]
    for a in amplitudes:
        np.testing.assert_allclose(
            amplitude_estimate(float(a), t),
            ref.amplitude_estimate(ref.reduced_preparation(float(a)), t),
            rtol=0, atol=TOL, err_msg=f"a={a}",
        )


def _preparation(data, p: int):
    """A drawn gate list on p qubits as a reference preparation with its flag
    on the top qubit, and the state A|0> it prepares."""
    prep_gates = tuple(data.draw(st.lists(gates(p), min_size=1, max_size=4)))
    return ref.Preparation(prep_gates, p, p - 1), zero_state(p)._run(prep_gates)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_full_ae_matches_controlled_grover_loop(data):
    """The one-qubit estimate of the top qubit's P(1) of a p-qubit
    preparation against the controlled-G loop run on the whole preparation:
    the distribution depends on P(1) alone."""
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 5))
    prep, psi = _preparation(data, p)
    np.testing.assert_allclose(
        amplitude_estimate(psi.marginal_probabilities([p - 1])[1], t),
        ref.amplitude_estimate(prep, t, mode="full"), rtol=0, atol=TOL,
    )


def test_program3_exact_p1_unchanged():
    assert reproduce_program3(shots=1, runs=1).exact_p1 == PROGRAM3_EXACT_P1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_fold_distribution_is_bit_identical_to_loop(t, seed):
    dist = np.random.default_rng(seed).random(1 << t)
    dist /= dist.sum()
    assert np.array_equal(fold_distribution(dist), ref.fold_distribution(dist))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_run_is_bit_identical_to_chained_apply(case):
    state, sequence = case
    # a state on the caller's own array: np.asarray does not copy it
    caller = state.amplitudes.copy()
    state = StateVector(state.n_qubits, caller)
    assert state.amplitudes is caller
    before = caller.copy()
    chained = state
    for gate in sequence:
        chained = chained.apply(gate)
    assert np.array_equal(caller, before)  # apply leaves its input alone
    private = StateVector(state.n_qubits, before, _checked=True)
    assert private._run(sequence) is private
    assert np.array_equal(private.amplitudes, chained.amplitudes)


@st.composite
def sparse_circuits(draw, max_qubits=10, max_gates=12):
    """n qubits and a gate list on some of them: each gate names qubits from
    a prefix of a random order of the used ones, so qubits are named a few
    at a time, controls of either polarity land on named and unnamed qubits,
    and the qubits outside the used ones stay idle but for SWAPs: a SWAP may
    gain pairs of idle qubits, or trade its pairs for them, and its pairs
    are then shuffled, so some pairs exchange two qubits no gate names."""
    n = draw(st.integers(1, max_qubits))
    used = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    idle = [q for q in range(n) if q not in used]
    out = []
    for _ in range(draw(st.integers(1, max_gates))):
        g = draw(gates(draw(st.integers(1, len(used)))))
        targets = [used[q] for q in g.targets]
        if g.kind == "swap" and len(idle) > 1:
            extra = draw(st.permutations(idle))[:2 * draw(st.integers(0, len(idle) // 2))]
            if extra and draw(st.booleans()):
                targets = []
            targets = draw(st.permutations(targets + extra))
        out.append(GateOp(
            g.kind,
            tuple(targets),
            tuple((used[q], pol) for q, pol in g.controls),
            g.angle,
        ))
    return n, out


def _run_widened(n: int, sequence) -> StateVector:
    """``run_circuit``'s state widened to all n qubits."""
    state, held = run_circuit(n, sequence)
    assert held == sorted(held) and len(held) == state.n_qubits
    return StateVector(n, ref.widen(state.amplitudes, held, range(n)), _checked=True)


def _assert_same_state(fast: StateVector, slow: StateVector):
    """Equal amplitudes (an exact zero may differ in sign) and bit-identical
    one-qubit marginals."""
    assert fast.n_qubits == slow.n_qubits
    assert fast.amplitudes.dtype == slow.amplitudes.dtype
    assert np.array_equal(fast.amplitudes, slow.amplitudes)
    for q in range(fast.n_qubits):
        assert np.array_equal(
            _bits(fast.marginal_probabilities([q])), _bits(slow.marginal_probabilities([q]))
        )


@settings(max_examples=300, deadline=None)
@given(sparse_circuits())
@example((5, [h(0), swap_registers([0, 3], [1, 4])]))  # pair (3, 4) dropped
@example((5, [h(0), swap_registers([3, 1], [4, 2], controls=[0])]))  # SWAP skipped
@example((5, [h(0), swap_registers([3], [4], controls=[(2, 0)]), h(2)]))  # its control unnamed
def test_run_circuit_matches_run_on_every_qubit(case):
    n, sequence = case
    _assert_same_state(_run_widened(n, sequence), zero_state(n)._run(sequence))


def test_run_circuit_matches_run_on_program3():
    gates = build_circuit()
    assert np.array_equal(final_state().amplitudes, run_circuit(N_QUBITS, gates)[0].amplitudes)
    _assert_same_state(_run_widened(N_QUBITS, gates), zero_state(N_QUBITS)._run(gates))


def test_run_circuit_matches_run_on_a_state_wider_than_a_piece():
    """15 of 18 qubits named one at a time: the named qubits outgrow
    ``CHUNK`` before the last is named, so the later gates, controlled on
    |0> of the rest, run block by block."""
    n, idle = 18, (3, 8, 16)
    order = [int(q) for q in np.random.default_rng(7).permutation(
        [q for q in range(n) if q not in idle]
    )]
    assert 1 << len(order) > statevector.CHUNK
    sequence = []
    for i, q in enumerate(order):
        sequence.append(ry(0.3 + i, q) if i % 2 else h(q))
        if i >= 2:
            sequence.append(x(order[i - 1], controls=[(order[i - 2], i % 2)]))
    sequence += [
        swap_registers(order[:4], order[4:8], controls=[order[9]]),
        ry(0.3, order[10], controls=[(order[11], 0), order[12]]),
        h(order[-1]),
    ]
    _assert_same_state(_run_widened(n, sequence), zero_state(n)._run(sequence))


@st.composite
def unit_vectors(draw, n: int):
    """A nonnegative unit vector of length n."""
    values = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n
    ).filter(lambda v: sum(v) > 1e-3)))
    return values / np.linalg.norm(values)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encode_sample_matches_the_gate_path(data):
    # the written Ry stage against the controlled Ry gates it replaced, on
    # vectors with exact zeros and one-hot vectors
    n = data.draw(st.integers(1, 64))
    if data.draw(st.booleans()):
        v = np.zeros(n)
        v[data.draw(st.integers(0, n - 1))] = 1.0
    else:
        values = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        v = np.array(data.draw(
            st.lists(values, min_size=n, max_size=n).filter(lambda v: sum(v) > 1e-3)
        ))
        v /= np.linalg.norm(v)
    written, by_gates = encode_sample(v), ref.encode_sample_by_gates(v)
    assert written.amplitudes.tobytes() == by_gates.amplitudes.tobytes()


@st.composite
def encoded_samples(draw, n_features: int, index_bits: int):
    """An encoded sample under an ``index_bits``-qubit register in a random
    basis state, as the pipeline's sample-index register pads it."""
    encoded = encode_sample(draw(unit_vectors(n_features)))
    register = np.zeros(1 << index_bits, dtype=complex)
    register[draw(st.integers(0, (1 << index_bits) - 1))] = 1.0
    return StateVector(encoded.n_qubits + index_bits, np.kron(register, encoded.amplitudes))


def swap_test_circuit(a: StateVector, b: StateVector, swap_qubits=None) -> StateVector:
    """The state after the whole swap test, its readout H on the ancilla
    included: :func:`swap_test_state` stops before that H."""
    state = swap_test_state(a, b, swap_qubits)
    return state.apply(h(state.n_qubits - 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_swap_test_state_is_bit_identical_to_kron(data):
    n_features = data.draw(st.integers(1, 8))
    index_bits = data.draw(st.integers(0, 2))
    a = data.draw(encoded_samples(n_features, index_bits))
    b = swap_flag(data.draw(encoded_samples(n_features, index_bits)))
    before = (a.amplitudes.copy(), b.amplitudes.copy())
    assert np.array_equal(swap_test_circuit(a, b).amplitudes, ref.swap_test_state(a, b).amplitudes)
    assert np.array_equal(a.amplitudes, before[0]) and np.array_equal(b.amplitudes, before[1])


def _has_sign_bit(state: StateVector) -> bool:
    return bool(np.signbit(state.amplitudes.view(np.float64)).any())


@st.composite
def swap_test_inputs(draw, max_index_bits=2):
    """Two registers of one width and the qubits of B the swap test swaps:
    random states with zeros of either sign, or encodings under a one-hot
    sample-index register of 1 to ``max_index_bits`` qubits, as
    ``prepare_states`` pads them (real, or cast to complex), the first after
    ``swap_flag`` and only the encoding swapped."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        swapped = draw(st.one_of(st.none(), st.permutations(range(m)).flatmap(
            lambda order: st.integers(1, m).map(lambda k: sorted(order[:k])))))
        return draw(states_with_zeros(m)), draw(states_with_zeros(m)), swapped
    n_features = draw(st.integers(1, 8))
    index_bits = draw(st.integers(1, max_index_bits))
    a, b = (draw(encoded_samples(n_features, index_bits)) for _ in range(2))
    if draw(st.booleans()):
        a, b = (StateVector(s.n_qubits, s.amplitudes.real.copy()) for s in (a, b))
    return swap_flag(a), b, range(EncodingLayout(n_features).n_qubits)


@settings(max_examples=150, deadline=None)
@given(swap_test_inputs(), st.sampled_from([4, 128, statevector.CHUNK]))
def test_swap_test_state_matches_the_dense_build(case, chunk):
    """The composite written only where A is nonzero, whose zero blocks the
    swap's fixed-qubit controls and the recorded (qubit, bit) pairs keep the
    swap and the readout off, against every row written and the swap as one
    whole-view transposition: equal amplitudes, the same bits where no input
    amplitude has its sign bit set (a zero row of the dense build is
    r (0 b_j), whose sign follows b_j's), and the readout bit for bit that
    of an H and ``marginal_probabilities`` on the dense composite.  Blocks of
    4 and 128 amplitudes give the small composites zero blocks to pass
    over."""
    a, b, swapped = case
    before = (a.amplitudes.copy(), b.amplitudes.copy())
    want = ref.swap_test_state_dense(a, b, swapped)
    top = want.n_qubits - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", chunk)
        got = swap_test_state(a, b, swapped)
        probs, p1 = got.x_basis_probabilities(), got.x_basis_probability_one()
        readout = want.apply(h(top)).marginal_probabilities([top])
    assert got.amplitudes.dtype == want.amplitudes.dtype
    assert np.array_equal(got.amplitudes, want.amplitudes)
    if not (_has_sign_bit(a) or _has_sign_bit(b)):
        assert np.array_equal(_bits(got.amplitudes), _bits(want.amplitudes))
    assert probs.tobytes() == readout.tobytes()
    assert np.float64(p1).tobytes() == readout[1].tobytes()
    assert all(np.array_equal(_bits(s.amplitudes), _bits(old)) for s, old in zip((a, b), before))


@settings(max_examples=150, deadline=None)
@given(swap_test_inputs(max_index_bits=4), st.sampled_from([4, 128, statevector.CHUNK]))
def test_swap_test_state_records_the_qubits_that_a_holds_fixed(case, chunk):
    """``swap_test_state`` records, for each qubit of A outside the swap that
    holds one bit on every nonzero row of A, that qubit and bit: every
    nonzero amplitude of the composite agrees with them, and the readouts,
    which skip the blocks they rule out, are bit for bit those of the same
    amplitudes with nothing recorded.  Blocks of 4 and 128 amplitudes put
    the sample-index register's qubits in the block index."""
    a, b, swapped = case
    m = a.n_qubits
    rows = np.flatnonzero(a.amplitudes)
    want = {
        (m + q, int(bits[0]))
        for q in range(m) if swapped is not None and q not in swapped
        for bits in [rows >> q & 1] if (bits == bits[0]).all()
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", chunk)
        got = swap_test_state(a, b, swapped)
        bare = StateVector(got.n_qubits, got.amplitudes, _checked=True)
        readouts = [(s.x_basis_probabilities(), s.x_basis_probability_one()) for s in (got, bare)]
    assert set(got._fixed) == want and bare._fixed == ()
    nonzero = np.flatnonzero(got.amplitudes)
    for q, bit in got._fixed:
        assert (nonzero >> q & 1 == bit).all(), (q, bit)
    (probs, p1), (bare_probs, bare_p1) = readouts
    assert probs.tobytes() == bare_probs.tobytes()
    assert np.float64(p1).tobytes() == np.float64(bare_p1).tobytes()


def test_a_gate_in_place_clears_the_recorded_qubits():
    """A gate run in place may write where the recorded qubits ruled out, so
    it clears them, and the readout then reads every block; a gate on a copy
    records nothing and leaves the original's record."""
    enc = encode_sample(np.array([0.6, 0.8]))  # 3 qubits
    a, b = (StateVector(5, np.kron(np.eye(4)[i], enc.amplitudes)) for i in (1, 2))
    state = swap_test_state(swap_flag(a), b, range(3))
    assert state._fixed == ((8, 1), (9, 0))  # A's sample-index register holds 1
    copy = state.apply(x(9))
    assert copy._fixed == () and state._fixed == ((8, 1), (9, 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", 4)
        assert state.apply(x(9), _in_place=True) is state
        assert state._fixed == ()
        got = state.x_basis_probabilities()
        want = StateVector(state.n_qubits, state.amplitudes.copy()).x_basis_probabilities()
    assert got.tobytes() == want.tobytes() and got.sum() > 0.99


@pytest.mark.parametrize("n", range(1, 22))
@settings(max_examples=3, deadline=None)
@given(real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_x_basis_readout_is_bit_identical_to_h_then_marginal(n, real, seed):
    """The swap test's readout folds the H on the top qubit into its sums:
    the bits of that H followed by ``marginal_probabilities``, on real and
    complex states with exact zeros, below and above ``CHUNK``."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) if real else rng.normal(size=(1 << n, 2)).view(complex).ravel()
    amps[rng.random(1 << n) < 0.3] = 0.0
    if not amps.any():
        amps[0] = 1.0
    state = StateVector(n, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    want = state.apply(h(n - 1)).marginal_probabilities([n - 1])
    assert state.x_basis_probabilities().tobytes() == want.tobytes()
    assert state.x_basis_probability_one() == want[1]
    assert state.amplitudes.tobytes() == before.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_swap_test_p1_is_bit_identical_to_the_whole_circuit(data):
    """``_swap_test_p1``, exact and sampled, against H, register swap and H
    as three gates and a computational-basis readout, on encodings padded by
    a sample-index register, as complex or real states.  Sampled mode also
    returns the exact P(1), bit for bit."""
    n_features = data.draw(st.integers(1, 8))
    index_bits = data.draw(st.integers(0, 2))
    u, v = (data.draw(encoded_samples(n_features, index_bits)) for _ in range(2))
    if data.draw(st.booleans()):
        u, v = (StateVector(s.n_qubits, s.amplitudes.real) for s in (u, v))
    u = swap_flag(u)
    layout = EncodingLayout(n_features)
    swapped = range(layout.n_qubits)
    exact, reading = _swap_test_p1(u, v, layout, PipelineConfig(), None)
    assert exact == reading == ref.swap_test_p1(u, v, swapped)
    shots, seed = data.draw(st.integers(1, 4096)), data.draw(st.integers(0, 2**32 - 1))
    p1, sampled = _swap_test_p1(u, v, layout, PipelineConfig(mode="sampled", shots=shots), RngStream(seed))
    assert p1 == exact
    assert sampled == ref.swap_test_p1(u, v, swapped, shots, RngStream(seed))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_search_state_matches_per_gate_iterations(data):
    n = data.draw(st.integers(1, 6))
    marked = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    oracle = np.zeros(1 << n, dtype=bool)
    oracle[list(marked)] = True
    plan = grover_plan(n, len(marked))
    w_gates = [h(q) for q in range(n)]
    slow = ref.apply_all(StateVector(n, np.eye(1, 1 << n, dtype=complex)[0]), w_gates)
    for _ in range(plan.J):
        slow = ref.grover_iterate(slow, plan.phi, oracle, w_gates)
    np.testing.assert_allclose(
        grover_search_state(plan, oracle).amplitudes, slow.amplitudes, rtol=0, atol=TOL
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_orbit_matches_per_gate_orbit(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 6))
    prep, psi = _preparation(data, p)
    np.testing.assert_allclose(
        ref.composite_orbit(psi, t), ref.grover_orbit(prep, t), rtol=0, atol=TOL
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_orbit_by_squaring_matches_step_by_step_orbit(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 8))
    _, psi = _preparation(data, p)
    np.testing.assert_allclose(
        _grover_orbit_by_squaring(psi.amplitudes, t), ref.composite_orbit(psi, t), rtol=0, atol=TOL
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_ae_fft_readout_is_bit_identical_to_qft_on_the_state(data):
    a = data.draw(st.floats(0.0, 1.0))
    t = data.draw(st.integers(1, 10))
    got, want = amplitude_estimate(a, t), ref.amplitude_estimate_by_qft(_ry_state(a), t)
    assert got.tobytes() == want.tobytes()


def _ry_state(a: float) -> StateVector:
    """Ry(2 asin sqrt(a))|0>, the gate run on one qubit."""
    return zero_state(1).apply(ry(2.0 * math.asin(math.sqrt(a)), 0))


@pytest.mark.parametrize("t", range(1, 17))
@settings(max_examples=12, deadline=None)
@given(a=st.floats(0.0, 1.0))
@example(a=0.0)
@example(a=0.25)
@example(a=0.5)
@example(a=1.0)
def test_estimate_of_a_is_bit_identical_to_the_gate_prepared_state(t, a):
    """The written state [cos h, sin h], h = asin sqrt(a), and the row sums
    of the squared FFT give the bits of the Ry gate run on |0>, the orbit as
    a (1+t)-qubit state, the QFT on it and its readout marginal."""
    got = amplitude_estimate(a, t)
    assert got.tobytes() == ref.amplitude_estimate_by_qft(_ry_state(a), t).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_one_qubit_estimate_matches_composite_orbit(data):
    """``full`` estimates the exact P(1) of the swap test on one qubit; the
    paper's circuit runs amplitude estimation on the whole composite (its
    readout H included).  Their distributions agree to ``TOL`` for N = 2, 4
    and 8 and t up to 9, and their modal readings are equal."""
    n_features = data.draw(st.sampled_from([2, 4, 8]))
    a, b = (encode_sample(data.draw(unit_vectors(n_features))) for _ in range(2))
    t = data.draw(st.integers(1, 9))
    p1, _ = _swap_test_p1(swap_flag(a), b, EncodingLayout(n_features), PipelineConfig(), None)
    got = amplitude_estimate(p1, t)
    want = ref.composite_amplitude_estimate(swap_test_circuit(swap_flag(a), b), t)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert modal_outcome(got) == modal_outcome(want)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_full_circuit_preparation_matches_padded_preparation(data):
    # the paper's circuit estimates the composite of the two encodings
    # alone; the package estimates, on one qubit, the P(1) of the composite
    # that prepare_states pads with a sample-index register (which the swap
    # test leaves out of its swaps), and must give the same distribution
    n_features = data.draw(st.sampled_from([2, 4]))
    index_bits = data.draw(st.integers(1, 2))
    t = data.draw(st.integers(1, 5))
    n_samples = 1 << index_bits
    rows = np.array([data.draw(unit_vectors(n_features)) for _ in range(n_samples)])
    nd = NormalizedDataset(rows, np.arange(n_samples) % 2, [f"F{i}" for i in range(n_features)])
    u = data.draw(st.integers(0, n_samples - 1))
    q = data.draw(st.integers(0, n_samples - 1))

    m = EncodingLayout(n_features).n_qubits
    states = prepare_states(nd)
    padded = swap_test_state(swap_flag(states[u]), states[q], range(m))
    narrow = swap_test_circuit(swap_flag(encode_sample(rows[u])), encode_sample(rows[q]))
    assert (narrow.n_qubits, padded.n_qubits) == (2 * m + 1, 2 * (m + index_bits) + 1)
    p1, _ = _swap_test_p1(swap_flag(states[u]), states[q], EncodingLayout(n_features), PipelineConfig(), None)
    assert p1 == padded.x_basis_probability_one()
    got = amplitude_estimate(p1, t)
    want = ref.composite_amplitude_estimate(narrow, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert modal_outcome(got) == modal_outcome(want)


@pytest.mark.parametrize("t", [3, 4])
def test_full_circuit_ae_matches_per_qubit_swaps(t):
    # the swap-test composite of two encodings with its swap as one register
    # swap and as one controlled SWAP per qubit pair: the same state, the
    # same P(1) and the same one-qubit estimation distribution, bit for bit
    # (the real composite cast to the reference's complex128)
    nd, _ = normalize(load_csv(DATA / "four_by_two.csv")[0])
    for u in range(nd.n_samples):
        for q in range(nd.n_samples):
            a, b = swap_flag(encode_sample(nd.samples[u])), encode_sample(nd.samples[q])
            got, want = swap_test_circuit(a, b), ref.swap_test_state(a, b)
            assert np.asarray(got.amplitudes, complex).tobytes() == want.amplitudes.tobytes(), (u, q)
            top = got.n_qubits - 1
            p1 = got.marginal_probabilities([top])[1], want.marginal_probabilities([top])[1]
            assert p1[0] == p1[1], (u, q)
            dists = [amplitude_estimate(p, t) for p in p1]
            assert dists[0].tobytes() == dists[1].tobytes(), (u, q)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cmp_flag_is_bit_identical_to_index_scatter(data):
    n = data.draw(st.integers(2, 8))
    order = data.draw(st.permutations(range(n)))
    flag, register = order[0], order[1:1 + data.draw(st.integers(1, n - 1))]
    bound = data.draw(st.integers(1, 1 << len(register)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.3] = 0.0
    flag_set = ((np.arange(1 << n) >> flag) & 1) == 1
    if data.draw(st.booleans()):  # clear the flag, with zeros of either sign
        parts = amps.view(float).reshape(-1, 2)
        parts[flag_set] = rng.choice([-0.0, 0.0], size=(int(flag_set.sum()), 2))
    if not np.any(amps):
        amps[0] = 1.0
    state = StateVector(n, amps / np.linalg.norm(amps))
    try:
        want = ref.cmp_flag(state, register, bound, flag)
    except QReliefFError as exc:
        with pytest.raises(QReliefFError, match=str(exc)):
            cmp_flag(state, register, bound, flag)
        return
    got = cmp_flag(state, register, bound, flag)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
