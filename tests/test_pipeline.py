"""Integration tests for the quantum feature-selection pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    relieff_run,
)
from qrelieff.circuits import (
    EncodingLayout,
    amplitude_estimate,
    estimate,
    swap_flag,
)
from qrelieff.cli import load_csv
from qrelieff.pipeline import (
    _full_circuit_outcome,
    _full_readout_bits,
    _quantize_similarity,
    _swap_test_p1,
    build_similarity_table,
    prepare_states,
)

from conftest import random_binary_dataset
from test_equivalence import DATA
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


def similarity_reading(states, nd, u, q, cfg):
    """Sample q's (s_raw, y) in the similarity table of pick u (rng None)."""
    table = build_similarity_table(states, nd, u, cfg, None)
    return table.s_raw[q], table.y[q]


class TestQuantumSimilarity:
    def test_self_similarity(self, example_normalized, example_states):
        nd, _ = example_normalized
        s, _ = similarity_reading(example_states, nd, 0, 0, PipelineConfig())
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_rows(self, example_normalized, example_states):
        nd, _ = example_normalized
        s, y = similarity_reading(example_states, nd, 0, 2, PipelineConfig())
        assert s == pytest.approx(0.0, abs=1e-9)
        assert y == 0

    def test_quarter_similarity(self, example_normalized, example_states):
        nd, _ = example_normalized
        s, _ = similarity_reading(example_states, nd, 0, 1, PipelineConfig())
        assert s == pytest.approx(0.25, abs=1e-9)

    def test_quantization_monotone(self, example_normalized, example_states):
        nd, _ = example_normalized
        table = build_similarity_table(example_states, nd, 0, PipelineConfig(), None)
        readings = list(zip(table.s_raw, table.y))[1:]
        for s_a, y_a in readings:
            for s_b, y_b in readings:
                if y_a != y_b:
                    assert (s_a < s_b) == (y_a < y_b)

    def test_sampled_mode_needs_rng(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig(mode="sampled", shots=64)
        with pytest.raises(QReliefFError):
            build_similarity_table(example_states, nd, 0, cfg, rng=None)

    def test_sampled_p1_mean_within_5_sigma_of_exact(self):
        """Sampled P(1) is unbiased: over R = 1000 substreams of RngStream(0),
        4 shots each, the mean reading of the pair (1, 0), (0.6, 0.8) lies
        within 5 sigma of the exact P(1) = 0.455, sigma = sqrt(p (1 - p) /
        (R shots)) = 0.0079.  The mean reads z = -1.37; dividing the
        counts by shots + 1 moves it to z = -12.6."""
        nd, _ = normalize(Dataset(np.array([[1.0, 0.0], [0.6, 0.8]]), np.array([0, 1]), ["a", "b"]))
        u, v = prepare_states(nd)
        u = swap_flag(u)
        layout, r_streams, shots, seed = EncodingLayout(2), 1000, 4, 0
        p, _ = _swap_test_p1(u, v, layout, PipelineConfig(), None)
        cfg, rng = PipelineConfig(mode="sampled", shots=shots), RngStream(seed)
        mean = np.mean([_swap_test_p1(u, v, layout, cfg, rng.substream(r))[1] for r in range(r_streams)])
        sigma = math.sqrt(p * (1.0 - p) / (r_streams * shots))
        assert abs(mean - p) <= 5.0 * sigma, (mean - p) / sigma

    def test_full_sampled_draws_pass_chi_square(self):
        """Sampled ``full`` readings follow the t_f-bit estimation
        distribution of their pair's P(1), pushed through the t-bit
        quantizer: 1000 readings of the pair (0, 1) of four_by_two at t = 3
        (t_f = 9), one per substream of RngStream(0), give chi-square 4.05.
        The quantizer's 5 bins expect 5.7, 2.8, 16.8, 880.7 and 93.9
        readings; walking up from y = 0, bins are merged until each group
        expects at least 5, which leaves 4 groups.  The bound, 30.66, is the
        1 - 1e-6 quantile of chi-square with 3 degrees of freedom
        (scipy.stats.chi2.ppf).  Readings drawn from the t-bit distribution
        of the same P(1) give 1.2e5."""
        nd, _ = normalize(load_csv(DATA / "four_by_two.csv")[0])
        states, layout = prepare_states(nd), EncodingLayout(nd.n_features)
        (u, q), t, draws, seed = (0, 1), 3, 1000, 0
        p1, _ = _swap_test_p1(swap_flag(states[u]), states[q], layout, PipelineConfig(), None)
        t_f = _full_readout_bits(layout, t)
        pushed = np.zeros((1 << (t - 1)) + 1)
        for y, prob in enumerate(amplitude_estimate(p1, t_f)):
            a_hat = estimate(min(y, (1 << t_f) - y), t_f)
            s = min(max((1.0 - 2.0 * a_hat) * nd.n_features**2, 0.0), 1.0)
            pushed[_quantize_similarity(s, t)] += prob
        cfg, rng = PipelineConfig(mode="sampled", ae_circuit="full", ae_bits=t), RngStream(seed)
        readings = [_full_circuit_outcome(p1, layout, cfg, rng.substream(r)) for r in range(draws)]
        observed = np.bincount(readings, minlength=len(pushed))
        groups, want, got = [], 0.0, 0
        for e, o in zip(draws * pushed, observed):
            want, got = want + e, got + o
            if want >= 5.0:
                groups.append((want, got))
                want, got = 0.0, 0
        expected, counts = np.array(groups).T
        expected[-1], counts[-1] = expected[-1] + want, counts[-1] + got
        assert len(groups) == 4 and expected.min() >= 5.0
        chi_square = float(np.sum((counts - expected) ** 2 / expected))
        assert chi_square <= 30.66, chi_square

    def test_full_agrees_with_reduced_on_eight_by_four(self):
        """Exact ``full`` and ``reduced`` read the same y on at least 90% of
        the eight_by_four readings at t = 6: 15 of the 16 readings of the
        canonical case eight_by_four-full-exact (T = 2, seed 0) and 62 of
        all 64 pairs.  Estimating the swap-test ancilla at t bits, ``full``
        matched on 2 of 16 and 8 of 64."""
        nd, stats = normalize(load_csv(DATA / "eight_by_four.csv")[0])
        runs = [
            qrelieff_run(nd, PipelineConfig(T=2, ae_bits=6, ae_circuit=c), RngStream(0), stats)
            for c in ("reduced", "full")
        ]
        keys = [
            [(tab.picked, q, y) for tab in run.tables for q, y in enumerate(tab.y)]
            for run in runs
        ]
        assert len(keys[0]) == len(keys[1]) == 16
        assert sum(a == b for a, b in zip(*keys)) >= 0.9 * 16

        states, pairs, agree = prepare_states(nd), 0, 0
        for u in range(nd.n_samples):
            reduced, full = (
                build_similarity_table(states, nd, u, PipelineConfig(ae_bits=6, ae_circuit=c), None)
                for c in ("reduced", "full")
            )
            for a, b in zip(reduced.y, full.y):
                pairs, agree = pairs + 1, agree + (a == b)
        assert pairs == 64 and agree >= 0.9 * pairs, agree

    def test_full_circuit_small(self):
        # orthogonal rows: the swap-test ancilla amplitude is exactly 0.5,
        # which sits on the estimation grid at every readout width
        ds = Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), ["a", "b"]
        )
        nd, _ = normalize(ds)
        states = prepare_states(nd)
        reduced = similarity_reading(states, nd, 0, 1, PipelineConfig(ae_bits=3))
        full = similarity_reading(
            states, nd, 0, 1, PipelineConfig(ae_bits=3, ae_circuit="full")
        )
        assert full[0] == pytest.approx(0.0, abs=1e-9)
        assert reduced[0] == pytest.approx(0.0, abs=1e-9)
        assert full[1] == reduced[1] == 0


class TestQuantumNeighbors:
    def test_worked_example_first_pick(self, example_normalized, example_states):
        nd, _ = example_normalized
        cfg = PipelineConfig()
        table = build_similarity_table(example_states, nd, 0, cfg, None)
        nb = quantum_neighbors(table, nd.labels, 1, "max", RngStream(0))
        assert nb.hits == [1]
        assert {c: list(v) for c, v in nb.misses.items()} == {1: [3], 2: [4]}

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
        # rounding: clamped, not flagged; shot noise flags some sampled readings
        nd, stats = example_normalized
        cfg = PipelineConfig(T=4, pick_policy="round-robin", mode=mode)
        tables = qrelieff_run(nd, cfg, RngStream(0), stats).tables
        assert all(0.0 <= s <= 1.0 for table in tables for s in table.s_raw)
        assert any(f for table in tables for f in table.noise_clamped) == (mode == "sampled")

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

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(8, 16), n=st.integers(2, 8), classes=st.integers(2, 3),
        k=st.sampled_from([1, 2]), order=st.sampled_from(["max", "min"]),
        t=st.integers(4, 10), seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_backends_agree_where_readings_are_distinct(
        self, m, n, classes, k, order, t, seed
    ):
        """In exact mode the quantum backend ranks a class by its t-bit
        readings y, the classical one by exact similarity.  Where a class's
        top k + 1 readings (nearest first) are all distinct, the two neighbor
        lists are equal; where only the k-th and (k + 1)-th differ, the
        neighbor sets are.  A tie among the readings may pick either way."""
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(m) % classes)
        nd, stats = normalize(Dataset(rng.random((m, n)) + 0.01, labels, list("abcdefgh")[:n]))
        common = dict(T=3, k=k, neighbor_order=order)
        q = qrelieff_run(nd, PipelineConfig(ae_bits=t, **common), RngStream(seed), stats)
        c = relieff_run(nd, RunConfig(**common), RngStream(seed), stats)
        sign = -1 if order == "max" else 1  # nearest first
        for table, qr, cr in zip(q.tables, q.iterations, c.iterations):
            assert qr.picked == cr.picked == table.picked
            u_class = int(nd.labels[table.picked])
            for cls in range(nd.n_classes):
                ranked = sorted((q for q in nd.class_members(cls).tolist() if q != table.picked),
                                key=lambda q: (sign * table.y[q], q))
                ys = [table.y[q] for q in ranked]
                kk = min(k, len(ys))
                got, want = (
                    r.neighbors.hits if cls == u_class else r.neighbors.misses[cls]
                    for r in (qr, cr)
                )
                if len(set(ys[: kk + 1])) == len(ys[: kk + 1]):
                    assert got == want, (cls, ys)
                elif kk < len(ys) and ys[kk - 1] != ys[kk]:
                    assert set(got) == set(want), (cls, ys)
