"""The stride-view gate kernel and the Grover-orbit amplitude estimation
against the index-mask kernel and the controlled-G loop they replaced, the
per-kind gate kernels against the one-expression stride-view kernel, the
chunked kernel bit for bit against the same kernels on the whole view, the
register swap against its pairs swapped one at a time and, block by block,
against one transposition of the whole view, the readouts summed over pieces
against whole-state numpy sums, the in-place gate
lists (``apply_all``, the swap test) bit for bit against one new state per
gate, the Grover search state and orbit, which reflect about W|0> in place
of running W^-1 and W, against per-gate iterations, the orbit by repeated
squaring against the orbit step by step, the readout's one FFT down the
orbit bit for bit against the QFT on the (p+t)-qubit state it replaced, the
``full`` circuit's composite against the one padded with a
sample-index register and against per-pair swaps, and the comparator
``cmp_flag`` bit for bit against its index-array scatter.  Amplitude
estimation takes the prepared state A|0> and reads its top qubit; the
reference takes A's gates with the flag on that qubit."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from qrelieff import statevector
from qrelieff.circuits import (
    EncodingLayout,
    _grover_orbit,
    _grover_orbit_by_squaring,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    fold_distribution,
    grover_plan,
    grover_search_state,
    modal_outcome,
    reduced_preparation,
    swap_flag,
    swap_test_state,
)
from qrelieff.cli import load_csv
from qrelieff.errors import QReliefFError
from qrelieff.pipeline import prepare_states
from qrelieff.program3 import RESULT_QUBIT, final_state
from qrelieff.relieff import NormalizedDataset, normalize
from qrelieff.statevector import GateOp, StateVector, h, swap_registers, zero_state

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
    """Pieces of 4 amplitudes: the whole-axis loop, the cut axis and the
    stepped short axes all run on states of up to 10 qubits."""
    n = data.draw(st.integers(2 if kind == "swap" else 1, 10))
    order = data.draw(st.permutations(range(n)))
    n_targets = 2 if kind == "swap" else 1
    n_controls = data.draw(st.integers(0, min(3, n - n_targets)))
    controls = tuple(
        (q, data.draw(st.integers(0, 1))) for q in order[n_targets:n_targets + n_controls]
    )
    angle = data.draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind == "ry" else 0.0
    gate = GateOp(kind, tuple(order[:n_targets]), controls, angle)
    state = data.draw(states_with_zeros(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", 4)
        _assert_chunked_matches_unchunked(state, gate)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pieces_tile_the_view_once(data):
    """Every amplitude of a gate's view lies in exactly one piece, and no
    piece holds more than ``CHUNK`` amplitudes."""
    n = data.draw(st.integers(2, 10))
    gate = data.draw(gates(n))
    if len(gate.targets) > 2:
        gate = GateOp("swap", gate.targets[:2], gate.controls)
    chunk = data.draw(st.sampled_from([4, 8, 16, 64]))
    state = StateVector(n, np.zeros(1 << n), _checked=True)
    seen = np.zeros(1 << n, dtype=np.int64)
    sub = state._split(seen, gate.targets, gate.controls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", chunk)
        for piece in statevector._pieces(sub, len(gate.targets)):
            assert piece.size <= chunk
            piece += 1
    assert np.all(sub == 1)
    assert seen.sum() == sub.size


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
    others traded with their partners: bit for bit the whole-view
    transposition, under 0 to 3 controls of either polarity."""
    n = data.draw(st.integers(4, 12))
    order = data.draw(st.permutations(range(n)))
    n_controls = data.draw(st.integers(0, min(3, n - 4)))
    k = data.draw(st.integers(2, (n - n_controls) // 2))
    controls = tuple(
        (q, data.draw(st.integers(0, 1))) for q in order[2 * k:2 * k + n_controls]
    )
    gate = swap_registers(order[:k], order[k:2 * k], controls)
    state = data.draw(states_with_zeros(n))
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
def test_readouts_in_pieces_match_whole_state_sums(data):
    """Pieces of 128 to 1024 amplitudes: ``probability_one`` on any qubit
    and ``marginal_probabilities`` of the top qubits, lowest first (every
    register the package reads), give the bits of one numpy sum over the
    whole state.  Any other register sums each value's amplitudes in C order,
    where numpy's axis-0 sum runs row by row: equal to ``TOL``."""
    n = data.draw(st.integers(1, 13))
    state = data.draw(states_with_zeros(n))
    q = data.draw(st.integers(0, n - 1))
    top = list(range(n - data.draw(st.integers(1, n)), n))
    qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "CHUNK", data.draw(st.sampled_from([128, 256, 1024])))
        assert state.probability_one(q) == ref.probability_one_unchunked(state, q)
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
    assert abs(state.probability_one(q) - ref.probability_one(state, q)) <= TOL
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
            amplitude_estimate(reduced_preparation(float(a)), t),
            ref.amplitude_estimate(ref.reduced_preparation(float(a)), t),
            rtol=0, atol=TOL, err_msg=f"a={a}",
        )


def _preparation(data, p: int):
    """A drawn gate list on p qubits as a reference preparation with its flag
    on the top qubit, and the state A|0> it prepares."""
    prep_gates = tuple(data.draw(st.lists(gates(p), min_size=1, max_size=4)))
    return ref.Preparation(prep_gates, p, p - 1), zero_state(p).apply_all(prep_gates)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_full_ae_matches_controlled_grover_loop(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 5))
    prep, psi = _preparation(data, p)
    np.testing.assert_allclose(
        amplitude_estimate(psi, t),
        ref.amplitude_estimate(prep, t, mode="full"), rtol=0, atol=TOL,
    )


def test_program3_exact_p1_unchanged():
    assert final_state().probability_one(RESULT_QUBIT) == PROGRAM3_EXACT_P1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_fold_distribution_is_bit_identical_to_loop(t, seed):
    dist = np.random.default_rng(seed).random(1 << t)
    dist /= dist.sum()
    assert np.array_equal(fold_distribution(dist), ref.fold_distribution(dist))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_apply_all_is_bit_identical_to_chained_apply(case):
    state, sequence = case
    # a state on the caller's own array: np.asarray does not copy it
    caller = state.amplitudes.copy()
    state = StateVector(state.n_qubits, caller)
    assert state.amplitudes is caller
    chained = state
    for gate in sequence:
        chained = chained.apply(gate)
    before = caller.copy()
    result = state.apply_all(sequence)
    assert np.array_equal(result.amplitudes, chained.amplitudes)
    assert np.array_equal(caller, before)
    assert result.amplitudes is not caller


@st.composite
def unit_vectors(draw, n: int):
    """A nonnegative unit vector of length n."""
    values = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n
    ).filter(lambda v: sum(v) > 1e-3)))
    return values / np.linalg.norm(values)


@st.composite
def encoded_samples(draw, n_features: int, index_bits: int):
    """An encoded sample under an ``index_bits``-qubit register in a random
    basis state, as the pipeline's sample-index register pads it."""
    encoded = encode_sample(draw(unit_vectors(n_features)))
    register = np.zeros(1 << index_bits, dtype=complex)
    register[draw(st.integers(0, (1 << index_bits) - 1))] = 1.0
    return StateVector(encoded.n_qubits + index_bits, np.kron(register, encoded.amplitudes))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_swap_test_state_is_bit_identical_to_kron(data):
    n_features = data.draw(st.integers(1, 8))
    index_bits = data.draw(st.integers(0, 2))
    a = data.draw(encoded_samples(n_features, index_bits))
    b = swap_flag(data.draw(encoded_samples(n_features, index_bits)))
    before = (a.amplitudes.copy(), b.amplitudes.copy())
    assert np.array_equal(swap_test_state(a, b).amplitudes, ref.swap_test_state(a, b).amplitudes)
    assert np.array_equal(a.amplitudes, before[0]) and np.array_equal(b.amplitudes, before[1])


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
        _grover_orbit(psi, t), ref.grover_orbit(prep, t), rtol=0, atol=TOL
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_orbit_by_squaring_matches_step_by_step_orbit(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(p, 8))
    _, psi = _preparation(data, p)
    np.testing.assert_allclose(
        _grover_orbit_by_squaring(psi, t), _grover_orbit(psi, t), rtol=0, atol=TOL
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_ae_fft_readout_is_bit_identical_to_qft_on_the_state(data):
    # t = 1 takes the step-by-step orbit, t >= 2 the orbit by squaring
    psi = reduced_preparation(data.draw(st.floats(0.0, 1.0)))
    t = data.draw(st.integers(1, 10))
    got, want = amplitude_estimate(psi, t), ref.amplitude_estimate_by_qft(psi, t)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_full_ae_fft_readout_is_bit_identical_to_qft_on_the_state(data):
    n_features = data.draw(st.sampled_from([2, 4, 8]))
    a, b = (encode_sample(data.draw(unit_vectors(n_features))) for _ in range(2))
    psi = swap_test_state(swap_flag(a), b)
    t = data.draw(st.integers(1, 6))
    got, want = amplitude_estimate(psi, t), ref.amplitude_estimate_by_qft(psi, t)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_full_circuit_preparation_matches_padded_preparation(data):
    # the full circuit's composite holds no sample-index register; the one
    # that prepare_states puts above each encoding (and the swap test leaves
    # out of its swaps) must not move the estimation distribution
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
    narrow = swap_test_state(swap_flag(encode_sample(rows[u])), encode_sample(rows[q]))
    assert (narrow.n_qubits, padded.n_qubits) == (2 * m + 1, 2 * (m + index_bits) + 1)
    got, want = amplitude_estimate(narrow, t), amplitude_estimate(padded, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert modal_outcome(got, t).y == modal_outcome(want, t).y


@pytest.mark.parametrize("t", [3, 4])
def test_full_circuit_ae_matches_per_qubit_swaps(t):
    # the full circuit's composite with its swap test as one register swap
    # and as one controlled SWAP per qubit pair: the same state and the same
    # estimation distribution, bit for bit (the real composite cast to the
    # reference's complex128)
    nd, _ = normalize(load_csv(DATA / "four_by_two.csv")[0])
    for u in range(nd.n_samples):
        for q in range(nd.n_samples):
            a, b = swap_flag(encode_sample(nd.samples[u])), encode_sample(nd.samples[q])
            got, want = swap_test_state(a, b), ref.swap_test_state(a, b)
            assert np.asarray(got.amplitudes, complex).tobytes() == want.amplitudes.tobytes(), (u, q)
            dists = amplitude_estimate(got, t), amplitude_estimate(want, t)
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
