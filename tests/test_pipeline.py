"""Integration tests for the quantum feature-selection pipeline."""

import math

import numpy as np
import pytest

from qrelieff import (
    ConfigError,
    Dataset,
    PipelineConfig,
    QReliefFError,
    RngStream,
    RunConfig,
    normalize,
    qrelieff_run,
    quantum_neighbors,
    quantum_similarity,
    relieff_run,
)
from qrelieff.circuits import EncodingLayout
from qrelieff.pipeline import _swap_test_p1, build_similarity_table, prepare_states

from conftest import random_binary_dataset
from test_relieff import GOLDEN_AVERAGE, GOLDEN_NEIGHBORS


@pytest.fixture(scope="module")
def example_states(example_normalized):
    nd, _ = example_normalized
    return prepare_states(nd)


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode="approximate")
        with pytest.raises(ConfigError):
            PipelineConfig(mode="sampled", shots=0)
        with pytest.raises(ConfigError):
            PipelineConfig(mode="exact", shots=0)
        with pytest.raises(ConfigError):
            PipelineConfig(ae_bits=11)
        with pytest.raises(ConfigError):
            PipelineConfig(ae_circuit="medium")
        with pytest.raises(ConfigError):
            PipelineConfig(tau=-0.1)


class TestPrepareStates:
    def test_worked_example_widths(self, example_states):
        assert len(example_states) == 6
        # data + flag + 3 feature-index + 3 sample-index qubits
        assert all(s.n_qubits == 8 for s in example_states)

    def test_single_feature_width_floor(self):
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0, 0]), ["a"])
        nd, _ = normalize(ds)
        states = prepare_states(nd)
        assert states[0].n_qubits == 4  # data + flag + 1 feature + 1 sample bit

    def test_duplicate_samples_identical(self):
        ds = Dataset(
            np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0, 0]), ["a", "b"]
        )
        nd, _ = normalize(ds)
        states = prepare_states(nd)
        # identical rows, distinct sample-index registers
        assert states[0].n_qubits == states[1].n_qubits
        p0 = np.abs(states[0].amplitudes[: 1 << 3]) ** 2
        p1 = np.abs(states[1].amplitudes[1 << 3 : 1 << 4]) ** 2
        np.testing.assert_allclose(p0, p1, atol=1e-12)


class TestQuantumSimilarity:
    def test_self_similarity(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        rec = quantum_similarity(example_states, nd, 0, 0, cfg)
        assert rec.s_raw == pytest.approx(1.0, abs=1e-9)
        assert rec.sample == 0 and rec.excluded

    def test_orthogonal_rows(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        rec = quantum_similarity(example_states, nd, 0, 2, cfg)
        assert rec.s_raw == pytest.approx(0.0, abs=1e-9)
        assert rec.s_quantized == 0
        assert rec.sample == 2 and not rec.excluded

    def test_quarter_similarity(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        rec = quantum_similarity(example_states, nd, 0, 1, cfg)
        assert rec.s_raw == pytest.approx(0.25, abs=1e-9)

    def test_quantization_monotone(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        recs = []
        for q in range(1, 6):
            recs.append(quantum_similarity(example_states, nd, 0, q, cfg))
        for a in recs:
            for b in recs:
                if a.s_quantized != b.s_quantized:
                    assert (a.s_raw < b.s_raw) == (a.s_quantized < b.s_quantized)

    def test_sampled_mode_needs_rng(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig(mode="sampled", shots=64)
        with pytest.raises(QReliefFError):
            quantum_similarity(example_states, nd, 0, 1, cfg)

    def test_sampled_p1_mean_within_5_sigma_of_exact(self):
        """Sampled P(1) is unbiased: over R = 1000 substreams of RngStream(0),
        4 shots each, the mean reading of the pair (1, 0), (0.6, 0.8) lies
        within 5 sigma of the exact P(1) = 0.455, sigma = sqrt(p (1 - p) /
        (R shots)) = 0.0079.  The mean reads z = -1.37; dividing the
        counts by shots + 1 moves it to z = -12.6."""
        nd, _ = normalize(Dataset(np.array([[1.0, 0.0], [0.6, 0.8]]), np.array([0, 1]), ["a", "b"]))
        u, v = prepare_states(nd)
        layout, r_streams, shots, seed = EncodingLayout(2), 1000, 4, 0
        p = _swap_test_p1(u, v, layout, PipelineConfig(), None)
        cfg, rng = PipelineConfig(mode="sampled", shots=shots), RngStream(seed)
        mean = np.mean([_swap_test_p1(u, v, layout, cfg, rng.substream(r)) for r in range(r_streams)])
        sigma = math.sqrt(p * (1.0 - p) / (r_streams * shots))
        assert abs(mean - p) <= 5.0 * sigma, (mean - p) / sigma

    def test_full_circuit_small(self):
        # orthogonal rows: the swap-test ancilla amplitude is exactly 0.5,
        # which sits on the estimation grid at every readout width
        ds = Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), ["a", "b"]
        )
        nd, _ = normalize(ds)
        states = prepare_states(nd)
        reduced = quantum_similarity(states, nd, 0, 1, PipelineConfig(ae_bits=3))
        full = quantum_similarity(
            states, nd, 0, 1, PipelineConfig(ae_bits=3, ae_circuit="full")
        )
        assert full.s_raw == pytest.approx(0.0, abs=1e-9)
        assert reduced.s_raw == pytest.approx(0.0, abs=1e-9)
        assert full.s_quantized == reduced.s_quantized == 0


class TestQuantumNeighbors:
    def test_worked_example_first_pick(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        table = build_similarity_table(example_states, nd, 0, cfg, None)
        nb = quantum_neighbors(table, nd.labels, 1, "max", RngStream(0))
        assert nb.hits == [1]
        assert {c: list(v) for c, v in nb.misses.items()} == {1: [3], 2: [4]}

    def test_excluded_record_present(self, example_normalized, example_states):
        nd, _ = example_normalized
        table = build_similarity_table(example_states, nd, 0, PipelineConfig(), None)
        class_a = table.records[0]
        assert [r.sample for r in class_a] == [0, 1]
        assert class_a[0].excluded and not class_a[1].excluded

    def test_bad_order(self, example_normalized, example_states):
        nd, _ = example_normalized
        table = build_similarity_table(example_states, nd, 0, PipelineConfig(), None)
        with pytest.raises(ConfigError):
            quantum_neighbors(table, nd.labels, 1, "near", RngStream(0))


class TestQReliefFRun:
    def test_worked_example_exact(self, example_normalized):
        nd, stats = example_normalized
        cfg = PipelineConfig(T=4, pick_policy="round-robin")
        result = qrelieff_run(nd, cfg, RngStream(0), stats)
        np.testing.assert_allclose(result.average_weights, GOLDEN_AVERAGE, atol=1e-12)
        assert result.selected(0.5) == [0, 1, 2]
        for t, rec in enumerate(result.iterations):
            hits, misses = GOLDEN_NEIGHBORS[t]
            assert rec.neighbors.hits == hits
            assert {c: list(v) for c, v in rec.neighbors.misses.items()} == misses

    def test_matches_classical_backend(self, example_normalized):
        nd, stats = example_normalized
        qcfg = PipelineConfig(T=4, pick_policy="random")
        ccfg = RunConfig(T=4, pick_policy="random")
        q = qrelieff_run(nd, qcfg, RngStream(11), stats)
        c = relieff_run(nd, ccfg, RngStream(11), stats)
        assert [r.picked for r in q.iterations] == [r.picked for r in c.iterations]
        np.testing.assert_allclose(q.average_weights, c.average_weights, atol=1e-12)

    def test_sampled_mode_deterministic(self, example_normalized):
        nd, stats = example_normalized
        cfg = PipelineConfig(T=2, pick_policy="round-robin", mode="sampled", shots=256)
        a = qrelieff_run(nd, cfg, RngStream(7), stats)
        b = qrelieff_run(nd, cfg, RngStream(7), stats)
        np.testing.assert_array_equal(a.average_weights, b.average_weights)

    def test_sampled_mode_selection_stability(self, example_normalized):
        # measured during development: 100/100 seeds reproduce the exact-mode
        # selection at shots=1024; spot-check the first ten here
        nd, stats = example_normalized
        exact = qrelieff_run(
            nd, PipelineConfig(T=4, pick_policy="round-robin"), RngStream(0), stats
        ).selected(0.5)
        for seed in range(10):
            cfg = PipelineConfig(T=4, pick_policy="round-robin", mode="sampled", shots=1024)
            sampled = qrelieff_run(nd, cfg, RngStream(seed), stats).selected(0.5)
            assert sampled == exact, seed

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_noise_clamped_only_in_sampled_mode(self, example_normalized, mode):
        # in exact mode the picked sample's own s lands just above 1 by
        # rounding: clamped, not flagged; shot noise flags some sampled records
        nd, stats = example_normalized
        cfg = PipelineConfig(T=4, pick_policy="round-robin", mode=mode)
        tables = qrelieff_run(nd, cfg, RngStream(0), stats).tables
        records = [r for table in tables for rs in table.records.values() for r in rs]
        assert all(0.0 <= r.s_raw <= 1.0 for r in records)
        assert any(r.noise_clamped for r in records) == (mode == "sampled")

    def test_trace_rederives_average(self, example_normalized):
        nd, stats = example_normalized
        cfg = PipelineConfig(T=4, pick_policy="round-robin")
        result = qrelieff_run(nd, cfg, RngStream(0), stats)
        np.testing.assert_allclose(
            result.iterations[-1].weights_after / cfg.T,
            result.average_weights,
            atol=1e-12,
        )
        assert len(result.tables) == cfg.T

    def test_random_binary_dataset_agreement(self):
        rng = np.random.default_rng(91)
        ds = random_binary_dataset(rng, 6, 4, 3)
        nd, stats = normalize(ds)
        qcfg = PipelineConfig(T=3, pick_policy="round-robin", ae_bits=8)
        ccfg = RunConfig(T=3, pick_policy="round-robin")
        q = qrelieff_run(nd, qcfg, RngStream(5), stats)
        c = relieff_run(nd, ccfg, RngStream(5), stats)
        assert q.selected(0.5) == c.selected(0.5)
        for qr, cr in zip(q.iterations, c.iterations):
            assert qr.neighbors.hits == cr.neighbors.hits
            assert {k: list(v) for k, v in qr.neighbors.misses.items()} == {
                k: list(v) for k, v in cr.neighbors.misses.items()
            }
