"""The stride-view gate kernel and the Grover-orbit amplitude estimation
against the index-mask kernel and the controlled-G loop they replaced, the
in-place gate lists (``apply_all``, the swap test, the Grover iteration and
orbit) bit for bit against one new state per gate, the orbit by repeated
squaring against the orbit step by step, the FFT QFT against the dense
DFT matrix, the ``full`` circuit's preparation against the same circuit
padded with a sample-index register, and the comparator ``cmp_flag`` bit for
bit against its index-array scatter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from qrelieff.circuits import (
    EncodingLayout,
    Preparation,
    _grover_orbit,
    _grover_orbit_by_squaring,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    encode_sample_gates,
    fold_distribution,
    grover_iterate,
    grover_plan,
    inverse_qft,
    modal_outcome,
    qft,
    reduced_preparation,
    swap_flag,
    swap_test_gates,
    swap_test_state,
)
from qrelieff.errors import QReliefFError
from qrelieff.pipeline import _full_circuit_preparation
from qrelieff.program3 import RESULT_QUBIT, final_state
from qrelieff.relieff import NormalizedDataset
from qrelieff.statevector import GateOp, StateVector, h, swap, x

TOL = 1e-12
# Program 3's exact P(1) as computed by the index-mask kernel.
PROGRAM3_EXACT_P1 = 0.49999999999999933


@st.composite
def gates(draw, n_qubits: int):
    """One primitive gate with random kind, targets, controls and polarities."""
    kinds = ["h", "x", "ry", "phase"] + (["swap"] if n_qubits > 1 else [])
    kind = draw(st.sampled_from(kinds))
    order = draw(st.permutations(range(n_qubits)))
    n_targets = 2 if kind == "swap" else 1
    n_controls = draw(st.integers(0, n_qubits - n_targets))
    controls = tuple(
        (q, draw(st.integers(0, 1))) for q in order[n_targets:n_targets + n_controls]
    )
    angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind in ("ry", "phase") else 0.0
    return GateOp(kind, tuple(order[:n_targets]), controls, angle)


@st.composite
def states(draw, n_qubits: int):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


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
        prep = reduced_preparation(float(a))
        np.testing.assert_allclose(
            amplitude_estimate(prep, t), ref.amplitude_estimate(prep, t),
            rtol=0, atol=TOL, err_msg=f"a={a}",
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_full_ae_matches_controlled_grover_loop(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 5))
    prep_gates = data.draw(st.lists(gates(p), min_size=1, max_size=4))
    prep = Preparation(tuple(prep_gates), p, data.draw(st.integers(0, p - 1)))
    np.testing.assert_allclose(
        amplitude_estimate(prep, t),
        ref.amplitude_estimate(prep, t, mode="full"), rtol=0, atol=TOL,
    )


def test_program3_exact_p1_unchanged():
    assert abs(final_state().probability_one(RESULT_QUBIT) - PROGRAM3_EXACT_P1) <= TOL


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
def test_grover_iterate_is_bit_identical_to_mask_version(data):
    n = data.draw(st.integers(1, 6))
    marked = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    oracle = np.zeros(1 << n, dtype=bool)
    oracle[list(marked)] = True
    plan = grover_plan(n, len(marked))
    w_gates = data.draw(st.one_of(
        st.just([h(q) for q in range(n)]), st.lists(gates(n), min_size=1, max_size=4)
    ))
    state = data.draw(states(n))
    before = state.amplitudes.copy()
    fast, slow = state, state
    for _ in range(3):
        fast = grover_iterate(fast, plan, oracle, w_gates)
        slow = ref.grover_iterate(slow, plan.phi, oracle, w_gates)
        assert np.array_equal(fast.amplitudes, slow.amplitudes)
    assert np.array_equal(state.amplitudes, before)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_orbit_is_bit_identical_to_per_gate_orbit(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, 6))
    prep_gates = data.draw(st.lists(gates(p), min_size=1, max_size=4))
    prep = Preparation(tuple(prep_gates), p, data.draw(st.integers(0, p - 1)))
    assert np.array_equal(_grover_orbit(prep, t), ref.grover_orbit(prep, t))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grover_orbit_by_squaring_matches_step_by_step_orbit(data):
    p = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(p, 8))
    prep_gates = data.draw(st.lists(gates(p), min_size=1, max_size=4))
    prep = Preparation(tuple(prep_gates), p, data.draw(st.integers(0, p - 1)))
    np.testing.assert_allclose(
        _grover_orbit_by_squaring(prep, t), _grover_orbit(prep, t), rtol=0, atol=TOL
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fft_qft_matches_dense_dft(data):
    t = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(t, min(t + 2, 11)))
    state = data.draw(states(n))
    # any t of the n qubits, in any order
    register = data.draw(st.permutations(range(n)))[:t]
    for transform, inverse in ((qft, False), (inverse_qft, True)):
        np.testing.assert_allclose(
            transform(state, register).amplitudes,
            ref.apply_unitary(state, ref.dft_matrix(t, inverse), register).amplitudes,
            rtol=0, atol=TOL, err_msg=f"inverse={inverse} register={register}",
        )


def _shifted(gates, offset: int):
    return [
        GateOp(g.kind, tuple(q + offset for q in g.targets),
               tuple((q + offset, pol) for q, pol in g.controls), g.angle)
        for g in gates
    ]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_full_circuit_preparation_matches_padded_preparation(data):
    # the full circuit encodes without a sample-index register; with one above
    # each encoding (X on the set bits of the sample's index) the estimation
    # distribution must not move
    n_features = data.draw(st.sampled_from([2, 4]))
    index_bits = data.draw(st.integers(1, 2))
    t = data.draw(st.integers(1, 5))
    n_samples = 1 << index_bits
    rows = np.array([data.draw(unit_vectors(n_features)) for _ in range(n_samples)])
    nd = NormalizedDataset(rows, np.arange(n_samples) % 2, [f"F{i}" for i in range(n_features)])
    u = data.draw(st.integers(0, n_samples - 1))
    q = data.draw(st.integers(0, n_samples - 1))

    m = EncodingLayout(n_features).n_qubits
    wide = m + index_bits

    def padded_encoding(sample):
        marks = [x(m + j) for j in range(index_bits) if (sample >> j) & 1]
        return encode_sample_gates(rows[sample]) + marks

    gates = (
        padded_encoding(q)
        + _shifted(padded_encoding(u) + [swap(0, 1)], wide)
        + swap_test_gates(wide, range(m))
    )
    padded = Preparation(tuple(gates), 2 * wide + 1, 2 * wide)
    narrow = _full_circuit_preparation(nd, u, q)
    assert narrow.n_qubits == 2 * m + 1
    got, want = amplitude_estimate(narrow, t), amplitude_estimate(padded, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert modal_outcome(got, t).y == modal_outcome(want, t).y


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
