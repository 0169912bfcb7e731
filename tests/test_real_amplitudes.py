"""Real amplitudes stay real: a state built from real data is float64, and
every gate with a real matrix (H, X, Ry, SWAP, the register swap), every
readout and ``postselect`` give on it what they give on its complex128 twin,
the same amplitudes with a zero imaginary part.

The real parts agree bit for bit but for the sign of an exact zero: the
twin's products carry ``+0j`` terms, which can turn -0.0 into +0.0 or back
(Ry with a negative matrix entry, or ``postselect`` on a -0.0).  Values and
probabilities, and so every readout, are bit-identical.  Only
``apply_unitary`` and the Grover and amplitude-estimation arrays make
complex128 amplitudes."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelieff import pipeline
from qrelieff.circuits import (
    EncodingLayout,
    cmp_flag,
    encode_sample,
    swap_test_state,
)
from qrelieff.cli import example_csv_path, load_csv
from qrelieff.errors import PostselectionError
from qrelieff.pipeline import PipelineConfig, prepare_states, qrelieff_run
from qrelieff.program3 import final_state
from qrelieff.relieff import normalize
from qrelieff.rng import RngStream
from qrelieff.statevector import StateVector, h, ry, zero_state

import reference_kernels as ref
from test_equivalence import DATA, gates, states_with_zeros, unit_vectors


@st.composite
def real_states(draw, n_qubits: int):
    """A random float64 state with +0.0 and -0.0 entries at random positions
    (none, some or nearly all of them)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n_qubits)
    zeros = rng.random(amps.shape) < draw(st.sampled_from([0.0, 0.3, 0.7, 0.95]))
    amps[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    if not amps.any():
        amps[rng.integers(1 << n_qubits)] = -1.0
    return StateVector(n_qubits, amps / math.sqrt(np.sum(amps**2)))


def _twin(state: StateVector) -> StateVector:
    """The same amplitudes as complex128, every imaginary part +0.0."""
    return StateVector(state.n_qubits, state.amplitudes.astype(complex), _checked=True)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_real_twin(real: StateVector, twin: StateVector):
    """``real`` is float64, ``twin`` complex128 with zero imaginary parts, and
    their real parts are bit-identical once the sign of zero is dropped."""
    assert real.amplitudes.dtype == np.float64
    assert twin.amplitudes.dtype == np.complex128
    assert not np.any(twin.amplitudes.imag)
    assert np.array_equal(_bits(real.amplitudes + 0.0), _bits(twin.amplitudes.real + 0.0))


def assert_same_readouts(real: StateVector, twin: StateVector, qubits):
    for q in range(real.n_qubits):
        assert real.marginal_probabilities([q])[1] == twin.marginal_probabilities([q])[1]
    assert real.marginal_probabilities(qubits).tobytes() == twin.marginal_probabilities(qubits).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_gate_lists_match_the_complex_twin(data):
    n = data.draw(st.integers(1, 10))
    state = data.draw(real_states(n))
    sequence = data.draw(st.lists(gates(n), min_size=1, max_size=12))
    real = StateVector(n, state.amplitudes.copy(), _checked=True)._run(sequence)
    twin = _twin(state)._run(sequence)
    assert_real_twin(real, twin)
    one_by_one = state
    for gate in sequence:
        one_by_one = one_by_one.apply(gate)
    assert one_by_one.amplitudes.tobytes() == real.amplitudes.tobytes()
    qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    assert_same_readouts(real, twin, qubits)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_real_postselect_matches_the_complex_twin(data):
    n = data.draw(st.integers(1, 10))
    state = data.draw(real_states(n))
    qubit, outcome = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
    try:
        real = state.postselect(qubit, outcome)
    except PostselectionError:
        with pytest.raises(PostselectionError):
            _twin(state).postselect(qubit, outcome)
        return
    assert_real_twin(real, _twin(state).postselect(qubit, outcome))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_postselect_renormalizes_complex_states_as_the_division_did(data):
    """The product with 1/sqrt(p) against the division by sqrt(p) it
    replaced: the same values and probabilities, and the same bits but for
    the sign of zero."""
    n = data.draw(st.integers(1, 10))
    state = data.draw(states_with_zeros(n))
    qubit, outcome = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
    try:
        got = state.postselect(qubit, outcome).amplitudes
    except PostselectionError:
        return
    amps = state.amplitudes.copy()
    amps[((np.arange(state.dim) >> qubit) & 1) != outcome] = 0.0
    want = amps / math.sqrt(np.sum(np.abs(amps) ** 2))
    assert np.array_equal(_bits((got + 0.0).view(float)), _bits((want + 0.0).view(float)))
    assert (np.abs(got) ** 2).tobytes() == (np.abs(want) ** 2).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_x_basis_readout_matches_the_complex_twin(data):
    state = data.draw(real_states(data.draw(st.integers(1, 10))))
    twin = _twin(state)
    assert state.x_basis_probabilities().tobytes() == twin.x_basis_probabilities().tobytes()
    assert state.x_basis_probability_one() == twin.x_basis_probability_one()


def _encode_sample_complex(v: np.ndarray) -> StateVector:
    """:func:`encode_sample` as it ran on complex128 amplitudes throughout."""
    layout = EncodingLayout(len(v))
    n = layout.n_feature_qubits
    if len(v) == 1 << n:
        feats = _twin(zero_state(n))._run(h(q) for q in range(n))
    else:  # qubit n is the comparison flag
        feats = _twin(zero_state(n + 1))._run(h(q) for q in range(n))
        feats = cmp_flag(feats, range(n), len(v), n).postselect(n, 0)
    full = np.kron(feats.amplitudes[: 1 << n], np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
    return StateVector(layout.n_qubits, full)._run(ref.multiplexed_ry_gates(v))


@pytest.mark.parametrize("n_features", range(2, 17))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_encode_sample_matches_the_complex_path(n_features, data):
    v = data.draw(unit_vectors(n_features))
    real, twin = encode_sample(v), _encode_sample_complex(v)
    assert_real_twin(real, twin)
    assert_same_readouts(real, twin, range(real.n_qubits))


class TestDtypes:
    def test_constructor_keeps_real_input_real(self):
        for amps in ([0, 1], [False, True], np.array([0.0, 1.0], dtype=np.float32)):
            assert StateVector(1, amps).amplitudes.dtype == np.float64
        for amps in ([0j, 1], np.array([0, 1], dtype=np.complex64)):
            assert StateVector(1, amps).amplitudes.dtype == np.complex128

    def test_program3_state_is_real(self):
        assert final_state().amplitudes.dtype == np.float64

    def test_prepared_states_are_real(self):
        nd, _ = normalize(load_csv(example_csv_path())[0])
        assert {s.amplitudes.dtype for s in prepare_states(nd)} == {np.dtype(np.float64)}

    def test_apply_unitary_makes_a_real_state_complex(self):
        state = zero_state(2).apply(h(0))
        out = state.apply_unitary(np.diag([1, 1j]), [0])
        assert out.amplitudes.dtype == np.complex128
        np.testing.assert_allclose(out.amplitudes, state.amplitudes * [1, 1j, 1, 1], rtol=0, atol=1e-15)
        assert state.amplitudes.dtype == np.float64  # input untouched

    def test_complex_input_stays_complex_through_real_gates(self):
        state = StateVector(1, np.array([1.0, 1.0j]) / math.sqrt(2.0))
        assert state.apply(ry(0.3, 0)).amplitudes.dtype == np.complex128
        assert swap_test_state(state, zero_state(1)).amplitudes.dtype == np.complex128

    @pytest.mark.parametrize("input_name, knobs", [
        (None, dict(mode="exact")),
        (None, dict(mode="sampled")),
        ("four_by_two.csv", dict(ae_circuit="full", ae_bits=3)),
    ])
    def test_only_estimation_and_grover_make_complex_states(self, monkeypatch, input_name, knobs):
        """Every state of a run is float64 but the Grover search states; the
        swap-test composites are float64, and amplitude estimation makes no
        state."""
        made, composites = [], []
        init = StateVector.__init__

        def recording_init(self, n_qubits, amplitudes, _checked=False):
            init(self, n_qubits, amplitudes, _checked)
            made.append((self.amplitudes.dtype, sys._getframe(1).f_code.co_name))

        def recording_swap_test(*args, **kwargs):
            state = swap_test_state(*args, **kwargs)
            composites.append(state.amplitudes.dtype)
            return state

        monkeypatch.setattr(StateVector, "__init__", recording_init)
        monkeypatch.setattr(pipeline, "swap_test_state", recording_swap_test)
        path = example_csv_path() if input_name is None else DATA / input_name
        nd, stats = normalize(load_csv(path)[0])
        qrelieff_run(nd, PipelineConfig(T=2, **knobs), RngStream(0), stats)
        assert composites and set(composites) == {np.dtype(np.float64)}
        complex_makers = {caller for dtype, caller in made if dtype == np.complex128}
        assert complex_makers <= {"grover_search_state"}
        assert any(dtype == np.float64 for dtype, _ in made)
        assert "amplitude_estimate" not in {caller for _, caller in made}
