"""Unit tests for the composable circuit blocks."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qrelieff import (
    CapacityError,
    ConfigError,
    NoSolutionError,
    QReliefFError,
    RngStream,
    SearchFailedError,
    StateVector,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    fold_distribution,
    grover_plan,
    grover_search_state,
    h,
    modal_outcome,
    quantum_extreme_search,
    reduced_preparation,
    swap_flag,
    swap_test,
    uniform_mod_n,
    zero_state,
)
from qrelieff import Dataset, circuits, normalize, statevector
from qrelieff.circuits import AEOutcome, EncodingLayout, swap_test_state
from qrelieff.cli import load_csv
from qrelieff.pipeline import prepare_states
from qrelieff.statevector import ry, x

import reference_kernels as ref
from conftest import EXAMPLE_ROWS, random_unit_vector

DATA = Path(__file__).parent / "data"


def encoded_closed_form(v, sample_index=0, index_bits=0):
    """Independent amplitude construction of the encoding layout."""
    v = np.asarray(v, dtype=float)
    n = max(1, math.ceil(math.log2(len(v))))
    amps = np.zeros(1 << (2 + n + index_bits), dtype=complex)
    scale = 1.0 / math.sqrt(len(v))
    base = sample_index << (2 + n)
    for i, vi in enumerate(v):
        amps[base + (i << 2) + 0b10] = scale * math.sqrt(max(0.0, 1.0 - vi**2))
        amps[base + (i << 2) + 0b11] = scale * vi
    return amps


class TestCmpFlag:
    def test_branch_above_bound(self):
        state = ref.basis_state(4, 5)  # index register value 5 on qubits 0-2
        out = cmp_flag(state, [0, 1, 2], 4, 3)
        np.testing.assert_allclose(out.amplitudes[5 | 8], 1.0)

    def test_branch_below_bound(self):
        state = ref.basis_state(4, 3)
        out = cmp_flag(state, [0, 1, 2], 4, 3)
        np.testing.assert_allclose(out.amplitudes[3], 1.0)

    def test_uniform_never_flags_at_full_bound(self):
        state = zero_state(4).apply(h(0)).apply(h(1)).apply(h(2))
        out = cmp_flag(state, [0, 1, 2], 8, 3)
        assert out.probability_one(3) == pytest.approx(0.0, abs=1e-12)

    def test_flag_must_be_clear(self):
        state = ref.basis_state(4, 8)  # flag already set
        with pytest.raises(QReliefFError):
            cmp_flag(state, [0, 1, 2], 4, 3)

    def test_bound_range(self):
        with pytest.raises(QReliefFError):
            cmp_flag(zero_state(4), [0, 1, 2], 9, 3)
        with pytest.raises(QReliefFError):
            cmp_flag(zero_state(4), [0, 1, 2], 0, 3)

    def test_exhaustive_small(self):
        for n in range(1, 4):
            for bound in range(1, (1 << n) + 1):
                for i in range(1 << n):
                    out = cmp_flag(ref.basis_state(n + 1, i), range(n), bound, n)
                    flagged = out.probability_one(n) > 0.5
                    assert flagged == (i >= bound), (n, bound, i)


class TestUniformModN:
    def test_power_of_two(self):
        np.testing.assert_allclose(
            uniform_mod_n(2, 4).amplitudes, [0.5] * 4, atol=1e-12
        )

    def test_bounded(self):
        expected = [1 / math.sqrt(3)] * 3 + [0]
        np.testing.assert_allclose(uniform_mod_n(2, 3).amplitudes, expected, atol=1e-10)

    def test_single_branch(self):
        np.testing.assert_allclose(
            uniform_mod_n(3, 1).amplitudes, [1] + [0] * 7, atol=1e-12
        )

    def test_bound_range(self):
        with pytest.raises(QReliefFError):
            uniform_mod_n(2, 5)


class TestEncodeSample:
    def test_one_hot_vector(self):
        state = encode_sample([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            state.amplitudes, encoded_closed_form([1, 0, 0, 0]), atol=1e-10
        )

    def test_worked_example_row(self):
        v = EXAMPLE_ROWS[0] / np.linalg.norm(EXAMPLE_ROWS[0])
        state = encode_sample(v)
        amps = encoded_closed_form(v)
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-10)
        # branches 0 and 3 carry data-qubit amplitude 1/sqrt(2) on |1>
        scale = 1.0 / math.sqrt(6)
        assert abs(state.amplitudes[(0 << 2) + 0b11] - scale / math.sqrt(2)) < 1e-10
        assert abs(state.amplitudes[(3 << 2) + 0b11] - scale / math.sqrt(2)) < 1e-10

    def test_norm_precondition(self):
        with pytest.raises(QReliefFError):
            encode_sample([0.9, 0.0])

    def test_negative_entries_rejected(self):
        v = np.array([-0.6, 0.8])
        with pytest.raises(QReliefFError):
            encode_sample(v)

    def test_random_vectors_match_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            v = random_unit_vector(rng, n)
            state = encode_sample(v)
            np.testing.assert_allclose(
                state.amplitudes, encoded_closed_form(v), atol=1e-10
            )

    def test_sample_index_register(self):
        # four samples: prepare_states puts a 2-bit sample register above each
        ds = Dataset(
            np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [2.0, 1.0]]),
            np.array([0, 0, 1, 1]), ["a", "b"],
        )
        nd, _ = normalize(ds)
        for q, state in enumerate(prepare_states(nd)):
            np.testing.assert_allclose(
                state.amplitudes, encoded_closed_form(nd.samples[q], q, 2), atol=1e-10
            )

    def test_gate_list_matches_nonunitary_path(self):
        # for a power-of-two N, the postselected bounded superposition of
        # encode_sample is the unitary circuit X, H^n, one controlled Ry per
        # feature
        rng = np.random.default_rng(23)
        v = random_unit_vector(rng, 4)
        layout = EncodingLayout(4)
        via_gates = zero_state(layout.n_qubits).apply_all(ref.encode_sample_gates(v))
        direct = encode_sample(v)
        np.testing.assert_allclose(
            via_gates.amplitudes, direct.amplitudes, atol=1e-10
        )


class TestSwapFlagAndSwapTest:
    def test_swap_flag_involution(self):
        state = encode_sample([0.6, 0.8])
        back = swap_flag(swap_flag(state))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_swap_flag_branches(self):
        state = swap_flag(encode_sample([1.0, 0.0]))
        # branch i=0 ends |data=1>|flag=1>, branch i=1 ends |data=0>|flag=1>
        inv_sqrt2 = 1.0 / math.sqrt(2)
        assert abs(state.amplitudes[0b11] - inv_sqrt2) < 1e-10
        assert abs(state.amplitudes[(1 << 2) + 0b01] - inv_sqrt2) < 1e-10

    def test_inner_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            u = random_unit_vector(rng, n)
            v = random_unit_vector(rng, n)
            ip = np.vdot(swap_flag(encode_sample(u)).amplitudes, encode_sample(v).amplitudes)
            assert abs(ip - np.dot(u, v) / n) < 1e-10

    def test_identical_states(self):
        state = encode_sample([0.6, 0.8])
        assert swap_test(state, state) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_states(self):
        a = ref.basis_state(1, 0)
        b = ref.basis_state(1, 1)
        assert swap_test(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_encoded_pair(self):
        u = EXAMPLE_ROWS[0] / np.linalg.norm(EXAMPLE_ROWS[0])
        v = EXAMPLE_ROWS[1] / np.linalg.norm(EXAMPLE_ROWS[1])
        p1 = swap_test(swap_flag(encode_sample(u)), encode_sample(v))
        n = len(u)
        expected = 0.5 - np.dot(u, v) ** 2 / (2 * n**2)
        assert p1 == pytest.approx(expected, abs=1e-10)

    def test_width_checked_before_composite(self, monkeypatch):
        def kron(*args):
            raise AssertionError("composite allocated before the width check")

        monkeypatch.setattr(statevector, "MAX_QUBITS", 6)
        monkeypatch.setattr(circuits.np, "kron", kron)
        with pytest.raises(CapacityError):
            swap_test_state(zero_state(3), zero_state(3))  # 7-qubit composite

    def test_width_mismatch(self):
        with pytest.raises(QReliefFError):
            swap_test(zero_state(1), zero_state(2))


class TestGroverPlan:
    def test_quarter_marked(self):
        plan = grover_plan(2, 1)
        assert plan.eta == pytest.approx(math.pi / 6, abs=1e-12)
        assert plan.J == 1
        # the arcsin argument is 1 up to the last floating-point bit
        assert plan.phi == pytest.approx(math.pi, abs=1e-6)

    def test_everything_marked(self):
        plan = grover_plan(3, 8)
        assert plan.eta == pytest.approx(math.pi / 2, abs=1e-12)
        assert plan.J == 0
        assert plan.phi == pytest.approx(math.pi, abs=1e-12)

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            grover_plan(2, 0)

    def test_invariants(self):
        for n in range(1, 5):
            for m in range(1, (1 << n) + 1):
                plan = grover_plan(n, m)
                assert math.sin(math.pi / (4 * plan.J + 2)) <= math.sin(plan.eta) + 1e-12
                assert 0 < plan.phi <= math.pi + 1e-12
                if plan.J > 0:
                    assert 4 * (plan.J - 1) + 2 < math.pi / plan.eta


@pytest.fixture
def apply_calls(monkeypatch):
    """The gates passed to StateVector.apply from here on, one per call."""
    calls = []
    apply = StateVector.apply

    def counted(self, gate, *args, **kwargs):
        calls.append(gate)
        return apply(self, gate, *args, **kwargs)

    monkeypatch.setattr(StateVector, "apply", counted)
    return calls


class TestGroverIterate:
    def test_single_marked_exact(self):
        plan = grover_plan(2, 1)
        mask = np.zeros(4, dtype=bool)
        mask[3] = True
        state = grover_search_state(plan, mask)
        assert abs(state.amplitudes[3]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_phi_pi_matches_textbook_operator(self):
        from qrelieff import GroverPlan

        # phi = pi exactly: one generalized iterate must equal textbook Grover
        plan = GroverPlan(2, 4, 1, 1, math.asin(0.5), math.pi)
        mask = np.zeros(4, dtype=bool)
        mask[2] = True
        out = grover_search_state(plan, mask)
        # textbook: oracle sign flip, then inversion about the mean
        amps = zero_state(2).apply_all([h(0), h(1)]).amplitudes
        amps[mask] *= -1
        amps = 2 * amps.mean() - amps
        np.testing.assert_allclose(out.amplitudes, amps, atol=1e-10)

    def test_empty_oracle_preserves_distribution(self):
        plan = grover_plan(2, 1)
        assert plan.J == 1
        out = grover_search_state(plan, np.zeros(4, dtype=bool))
        np.testing.assert_allclose(np.abs(out.amplitudes) ** 2, [0.25] * 4, atol=1e-10)

    @pytest.mark.parametrize(
        "oracle",
        [lambda i: i == 3, np.zeros(8, dtype=bool), np.zeros(4, dtype=int), [False] * 4],
        ids=["callable", "wrong-length", "int-dtype", "list"],
    )
    def test_oracle_must_be_state_length_mask(self, oracle):
        plan = grover_plan(2, 1)
        with pytest.raises(QReliefFError, match="boolean mask"):
            grover_search_state(plan, oracle)

    def test_width_checked_before_search_state(self, monkeypatch):
        def full(*args, **kwargs):
            raise AssertionError("state allocated before the width check")

        monkeypatch.setattr(statevector, "MAX_QUBITS", 4)
        monkeypatch.setattr(circuits.np, "full", full)
        with pytest.raises(CapacityError):
            grover_search_state(grover_plan(5, 1), np.zeros(32, dtype=bool))

    def test_search_applies_no_gates(self, apply_calls):
        # H^n|0> and every iteration are array operations on one buffer
        plan = grover_plan(6, 1)
        mask = np.zeros(64, dtype=bool)
        mask[5] = True
        state = grover_search_state(plan, mask)
        assert plan.J > 1
        assert abs(state.amplitudes[5]) ** 2 > 0.99
        assert apply_calls == []


class TestAmplitudeEstimation:
    def test_zero_amplitude(self):
        dist = amplitude_estimate(reduced_preparation(0.0), 4)
        assert dist[0] == pytest.approx(1.0, abs=1e-10)

    def test_half_amplitude_on_grid(self):
        dist = amplitude_estimate(reduced_preparation(0.5), 3)
        assert dist[2] + dist[6] == pytest.approx(1.0, abs=1e-10)
        assert modal_outcome(dist, 3).y == 2
        assert AEOutcome(2, 3).a_hat == pytest.approx(0.5, abs=1e-12)

    def test_quarter_amplitude_mass_bound(self):
        t = 4
        dist = amplitude_estimate(reduced_preparation(0.25), t)
        exact = math.asin(math.sqrt(0.25)) * (1 << t) / math.pi
        lo, hi = math.floor(exact), math.ceil(exact)
        folded = fold_distribution(dist)
        assert folded[lo] + folded[hi] >= 8 / math.pi**2

    def test_full_mode_matches_reduced(self):
        # a two-qubit state whose top qubit reads 1 with probability 0.3
        # against the single-qubit rotation with the same amplitude
        psi = zero_state(2).apply_all(
            (ry(2.0 * math.asin(math.sqrt(0.3)), 0), x(1, controls=[0]))
        )
        full = amplitude_estimate(psi, 3)
        reduced = amplitude_estimate(reduced_preparation(0.3), 3)
        np.testing.assert_allclose(full, reduced, atol=1e-10)

    def test_multi_qubit_full_mode(self):
        # H then CNOT: the top qubit reads 1 with probability 0.5
        psi = zero_state(2).apply_all((h(0), x(1, controls=[0])))
        dist = amplitude_estimate(psi, 3)
        assert dist[2] + dist[6] == pytest.approx(1.0, abs=1e-10)

    def test_width_checked_before_orbit(self, monkeypatch):
        def empty(*args, **kwargs):
            raise AssertionError("orbit allocated before the width check")

        psi = zero_state(2).apply_all((h(0), ry(0.4, 1)))
        monkeypatch.setattr(statevector, "MAX_QUBITS", 4)
        monkeypatch.setattr(circuits.np, "empty", empty)
        with pytest.raises(CapacityError):
            amplitude_estimate(psi, 3)  # p + t = 5 qubits

    def test_full_orbit_runs_the_preparation_once(self, apply_calls):
        # the swap-test composite psi = A|0> is built once, before the orbit;
        # each G step reflects about psi and applies no gate, at any 2^t
        nd, _ = normalize(load_csv(DATA / "four_by_two.csv")[0])
        psi = swap_test_state(
            swap_flag(encode_sample(nd.samples[0])), encode_sample(nd.samples[1])
        )
        counts = []
        for t in (1, 4):
            apply_calls.clear()
            circuits._grover_orbit(psi, t)
            counts.append(len(apply_calls))
        assert counts == [0, 0]

    def test_peak_memory_of_one_call(self):
        # numpy reports its buffers to tracemalloc; a dense 2^10-point DFT
        # matrix alone is 16 MiB
        tracemalloc.start()
        try:
            amplitude_estimate(reduced_preparation(0.3), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "p, t, dense", [(1, 1, False), (1, 2, True), (2, 4, True), (2, 3, False), (3, 2, False)]
    )
    def test_dense_grover_only_when_smaller_than_readout(self, monkeypatch, p, t, dense):
        def refuse(psi, t):
            raise AssertionError("wrong orbit path")

        skipped = "_grover_orbit" if dense else "_grover_orbit_by_squaring"
        monkeypatch.setattr(circuits, skipped, refuse)
        # top-qubit P(1) = sin^2(0.35), whatever the other qubits hold
        psi = zero_state(p).apply_all((ry(0.7, p - 1), *(h(q) for q in range(p - 1))))
        reduced = ref.reduced_preparation(math.sin(0.35) ** 2)
        np.testing.assert_allclose(
            amplitude_estimate(psi, t), ref.amplitude_estimate(reduced, t), atol=1e-12
        )

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            amplitude_estimate(reduced_preparation(0.5), 0)

    def test_grid_alignment_concentrates(self):
        t = 5
        for m in (0, 4, 16):
            a = math.sin(math.pi * m / (1 << t)) ** 2
            dist = amplitude_estimate(reduced_preparation(a), t)
            folded = fold_distribution(dist)
            assert folded[m] >= 0.999, (m, folded[m])

    def test_modal_tie_goes_low(self):
        dist = np.zeros(8)
        dist[1] = dist[3] = 0.5
        assert modal_outcome(dist, 3).y == 1


class TestQuantumExtremeSearch:
    def test_min_single(self):
        assert quantum_extreme_search([3, 1, 2], 1, "min", RngStream(0)) == [1]

    def test_max_with_total_tie(self):
        assert quantum_extreme_search([5, 5, 5], 2, "max", RngStream(0)) == [0, 1]

    def test_k_exceeds_population(self):
        with pytest.raises(QReliefFError):
            quantum_extreme_search([1, 2, 3], 4, "min", RngStream(0))

    def test_empty_table(self):
        with pytest.raises(QReliefFError):
            quantum_extreme_search([], 1, "min", RngStream(0))

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            quantum_extreme_search([1, 2], 1, "sideways", RngStream(0))

    def test_unmarked_readings_are_bounded(self, monkeypatch):
        # every reading lands on element 0, the pivot, which is never marked
        calls = []

        def sample(self, qubits, shots, rng):
            calls.append(1)
            return {"0" * len(list(qubits)): shots}

        monkeypatch.setattr(StateVector, "sample", sample)
        with pytest.raises(SearchFailedError):
            quantum_extreme_search([3, 1, 2], 1, "min", RngStream(0))
        assert len(calls) == circuits.MAX_FAILED_READINGS

    def test_matches_classical_sort(self):
        rng = np.random.default_rng(13)
        stream = RngStream(13)
        for trial in range(60):
            pop = int(rng.integers(1, 13))
            k = int(rng.integers(1, min(4, pop) + 1))
            values = [int(v) for v in rng.integers(0, 8, size=pop)]
            for direction in ("min", "max"):
                sign = 1 if direction == "min" else -1
                expected = sorted(
                    range(pop), key=lambda i: (sign * values[i], i)
                )[:k]
                got = quantum_extreme_search(
                    values, k, direction, stream.substream(trial)
                )
                assert got == expected, (values, k, direction)
