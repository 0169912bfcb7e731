"""Unit tests for the classical feature-selection core."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelieff import (
    ConfigError,
    DataError,
    Dataset,
    DegenerateSampleError,
    FeatureStats,
    NormalizedDataset,
    QReliefFError,
    RngStream,
    RunConfig,
    find_neighbors,
    normalize,
    relieff_run,
    select_features,
    similarity,
    update_weights,
)
from qrelieff.relieff import diff_vector, neighbor_set, pick_sequence

from conftest import EXAMPLE_FEATURES, EXAMPLE_LABELS, EXAMPLE_ROWS

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Frozen expected values for the six-sample dataset with round-robin picks,
# k=1, max-similarity neighbors (computed once with an independent
# brute-force script and pinned here).
GOLDEN_WT_ROWS = [
    [1.0, 0.5, 0.5, -0.5, -0.5, 0.0],
    [2.0, 1.0, 1.0, -1.5, -1.0, 0.5],
    [2.5, 2.0, 1.5, -2.0, -1.0, 0.0],
    [3.0, 3.0, 2.0, -2.5, -0.5, -1.0],
]
GOLDEN_AVERAGE = [0.75, 0.75, 0.5, -0.625, -0.125, -0.25]
GOLDEN_NEIGHBORS = {
    0: ([1], {1: [3], 2: [4]}),
    1: ([0], {1: [2], 2: [4]}),
    2: ([3], {0: [0], 2: [5]}),
    3: ([2], {0: [0], 2: [4]}),
}


class TestDataset:
    """Every input fault is a DataError, so a caller can tell it from a
    program fault by its type."""

    def test_shape_validation(self):
        with pytest.raises(DataError, match="need at least 2 samples, got 1"):
            Dataset(np.ones((1, 3)), np.array([0]), ["a", "b", "c"])
        with pytest.raises(DataError, match=r"labels must be dense class ids 0\.\.P-1"):
            Dataset(np.ones((2, 2)), np.array([0, 2]), ["a", "b"])

    @pytest.mark.parametrize("samples, labels, names, match", [
        (np.ones((0, 2)), [], ["a", "b"], "need at least 2 samples, got 0"),
        (np.ones((2, 0)), [0, 1], [], "need at least 1 feature"),
        (np.ones((2, 1)), [0, 1, 1], ["a"], "label count does not match sample count"),
        (np.ones((2, 1)), [0, 1], ["a", "b"], "feature name count does not match"),
    ], ids=["no samples", "no features", "label count", "feature name count"])
    def test_counts_checked(self, samples, labels, names, match):
        with pytest.raises(DataError, match=match):
            Dataset(samples, np.array(labels), names)

    def test_normalized_rows_must_have_unit_norm(self):
        with pytest.raises(DataError, match="rows of a NormalizedDataset must have unit norm"):
            NormalizedDataset(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0, 1]), ["a", "b"])
        NormalizedDataset(np.eye(2), np.array([0, 1]), ["a", "b"])

    @pytest.mark.parametrize("samples, labels, match", [
        (np.ones(2), [0, 1], "samples must be a 2-D array"),
        (np.ones((2, 1, 1)), [0, 1], "samples must be a 2-D array"),
        (np.ones((2, 1)), [[0], [1]], "labels must be a 1-D array"),
        (np.ones((2, 1)), [0, 1.7],
         r"label of sample 1 \(counting from 0\) is not an integer class id: 1.7"),
        (np.ones((2, 1)), [np.nan, 0],
         r"label of sample 0 \(counting from 0\) is not an integer class id: nan"),
        (np.ones((2, 1)), [0, np.inf],
         r"label of sample 1 \(counting from 0\) is not an integer class id: inf"),
        (np.ones((2, 1)), ["0", "1"], "labels must be integer class ids, got dtype <U1"),
        (np.array([[1.0], [-np.inf]]), [0, 1],
         r"sample 1 \(counting from 0\), feature 'a' is not finite: -inf"),
    ], ids=["1-D samples", "3-D samples", "2-D labels", "fractional label", "nan label",
            "inf label", "string labels", "infinite sample value"])
    def test_malformed_input_named(self, samples, labels, match):
        with pytest.raises(DataError, match=match):
            Dataset(samples, labels, ["a"])

    def test_integral_float_labels_accepted(self):
        ds = Dataset(np.eye(2), np.array([1.0, 0.0]), ["a", "b"])
        assert ds.labels.dtype == int and ds.labels.tolist() == [1, 0]

    def test_class_helpers(self, example_dataset):
        assert example_dataset.n_samples == 6
        assert example_dataset.n_features == 6
        assert example_dataset.n_classes == 3
        assert example_dataset.class_size(1) == 2
        np.testing.assert_array_equal(example_dataset.class_members(2), [4, 5])


class TestNoMaskedArrays:
    """``np.unique`` imports numpy.ma on its first call; the data checks avoid it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 6), st.floats(-3.0, 6.0)), min_size=2, max_size=8))
    def test_dense_label_verdict_matches_unique(self, labels):
        """Accepted exactly when every label is a whole number and the
        labels are dense."""
        as_int = np.asarray(labels, dtype=int)
        whole = all(float(v).is_integer() for v in labels)
        dense = np.array_equal(np.unique(as_int), np.arange(len(np.unique(as_int))))
        try:
            Dataset(np.ones((len(labels), 1)), labels, ["a"])
        except QReliefFError:
            assert not (whole and dense)
        else:
            assert whole and dense

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_discrete_verdict_matches_unique(self, data):
        values = [0.0, -0.0, 0.5, -0.5, 0.25, 1e-13, -1e-13, 1.4e-12, -1.4e-12, 0.5 + 1e-13, 0.3]
        m, n = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 5))
        matrix = np.array(data.draw(st.lists(
            st.sampled_from(values), min_size=m * n, max_size=m * n
        ))).reshape(m, n)
        want = []
        for i in range(n):
            nonzero = np.unique(np.round(matrix[:, i], 12))
            want.append(len(nonzero[np.abs(nonzero) > 1e-12]) <= 1)
        assert FeatureStats.from_matrix(matrix).discrete.tolist() == want

    def test_both_backends_leave_numpy_ma_unloaded(self):
        code = (
            "import sys\n"
            "import numpy\n"
            "ma = lambda: {m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')}\n"
            "before = ma()\n"
            "from qrelieff import PipelineConfig, RngStream, normalize, qrelieff_run, relieff_run\n"
            "from qrelieff.cli import example_csv_path, load_csv\n"
            "nd, stats = normalize(load_csv(example_csv_path())[0])\n"
            "cfg = PipelineConfig(T=2)\n"
            "relieff_run(nd, cfg, RngStream(0), stats)\n"
            "qrelieff_run(nd, cfg, RngStream(0), stats)\n"
            "print(sorted(ma() - before))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNormalize:
    def test_worked_example_row(self, example_normalized):
        nd, _ = example_normalized
        np.testing.assert_allclose(
            nd.samples[0], [INV_SQRT2, 0, 0, INV_SQRT2, 0, 0], atol=1e-12
        )

    def test_unit_vector_unchanged(self):
        ds = Dataset(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
                     np.array([0, 0]), ["a", "b", "c"])
        nd, _ = normalize(ds)
        np.testing.assert_allclose(nd.samples[0], [0, 1, 0], atol=1e-12)

    def test_zero_row_rejected(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0, 0]), ["a", "b"])
        with pytest.raises(DegenerateSampleError, match=r"sample 0 \(counting from 0\) has zero norm"):
            normalize(ds)

    def test_rows_at_any_scale_normalize_to_the_same_bits(self):
        """Every row is scaled by a power of two before its norm is taken,
        which is exact, so 2^e X gives the bits of X for e from -1010 to
        1000.  From |e| = 900 on, the squares of the raw values underflow
        to a zero norm or overflow to inf."""
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.5, 8.0, (5, 4)) * rng.choice([-1.0, 1.0], (5, 4))
        labels, names = np.array([0, 0, 1, 1, 1]), ["a", "b", "c", "d"]
        want = normalize(Dataset(rows, labels, names))[0].samples.tobytes()
        for e in range(-1010, 1001):
            got = normalize(Dataset(np.ldexp(rows, e), labels, names))[0].samples
            assert got.tobytes() == want, e

    def test_idempotence(self, example_normalized):
        nd, _ = example_normalized
        nd2, _ = normalize(nd)
        np.testing.assert_allclose(nd2.samples, nd.samples, atol=1e-12)

    def test_discrete_detection(self, example_normalized):
        _, stats = example_normalized
        assert stats.discrete.all()  # indicator columns: values in {0, 1/sqrt(2)}

    def test_kind_override(self, example_dataset):
        _, stats = normalize(example_dataset, "continuous")
        assert not stats.discrete.any()
        with pytest.raises(ConfigError):
            normalize(example_dataset, "fuzzy")


class TestDiff:
    def test_discrete_cases(self, example_normalized):
        nd, stats = example_normalized
        d = diff_vector(nd.samples[0], nd.samples[1], stats)
        assert d[0] == 0.0  # both 1/sqrt2
        assert d[3] == 1.0  # 1/sqrt2 vs 0

    def test_continuous_case(self):
        stats = FeatureStats(np.array([0.0]), np.array([1.0]), np.array([False]))
        d = diff_vector(np.array([0.2]), np.array([0.7]), stats)
        assert d[0] == pytest.approx(0.5)

    def test_constant_feature(self):
        stats = FeatureStats(np.array([0.3]), np.array([0.3]), np.array([False]))
        assert diff_vector(np.array([0.3]), np.array([0.3]), stats)[0] == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(31)
        rows = rng.random((8, 5))
        stats = FeatureStats.from_matrix(rows)
        for _ in range(40):
            u, v = rows[rng.integers(8)], rows[rng.integers(8)]
            d_uv = diff_vector(u, v, stats)
            assert np.array_equal(d_uv, diff_vector(v, u, stats))
            assert np.all((0.0 <= d_uv) & (d_uv <= 1.0))


class TestSimilarity:
    def test_self(self, example_normalized):
        nd, _ = example_normalized
        assert similarity(nd.samples[0], nd.samples[0]) == pytest.approx(1.0)

    def test_disjoint_supports(self, example_normalized):
        nd, _ = example_normalized
        assert similarity(nd.samples[0], nd.samples[2]) == pytest.approx(0.0)

    def test_shared_coordinate(self, example_normalized):
        nd, _ = example_normalized
        assert similarity(nd.samples[0], nd.samples[1]) == pytest.approx(0.25)

    def test_symmetry_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.random(4)
            v = rng.random(4)
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            s = similarity(u, v)
            assert s == pytest.approx(similarity(v, u))
            assert 0.0 <= s <= 1.0 + 1e-12


class TestFindNeighbors:
    def test_max_order(self, example_normalized):
        nd, _ = example_normalized
        nb = find_neighbors(nd, 0, 1, "max")
        assert nb.hits == [1]
        assert nb.misses == {1: [3], 2: [4]}

    def test_min_order(self, example_normalized):
        nd, _ = example_normalized
        nb = find_neighbors(nd, 0, 1, "min")
        assert nb.hits == [1]
        assert nb.misses == {1: [2], 2: [4]}  # tie in class C goes to S4

    def test_k_clamped(self, example_normalized):
        nd, _ = example_normalized
        nb = find_neighbors(nd, 0, 5, "max")
        assert nb.hits == [1]
        assert sorted(nb.misses[1]) == [2, 3]

    def test_singleton_class(self):
        ds = Dataset(np.eye(3), np.array([0, 1, 1]), ["a", "b", "c"])
        nd, _ = normalize(ds)
        with pytest.raises(QReliefFError):
            find_neighbors(nd, 0, 1, "max")

    def test_bad_order(self, example_normalized):
        nd, _ = example_normalized
        with pytest.raises(ConfigError):
            find_neighbors(nd, 0, 1, "middle")


class TestNeighborSet:
    """The per-class walk both backends share; only ``top_k`` differs."""

    LABELS = np.array([0, 0, 1, 1, 1, 2])

    def test_each_class_gets_its_candidates_and_clamped_k(self):
        calls = []

        def top_k(c, candidates, k):
            calls.append((c, candidates, k))
            return candidates[::-1][:k]

        nb = neighbor_set(self.LABELS, 1, 2, top_k)
        assert calls == [(0, [0], 1), (1, [2, 3, 4], 2), (2, [5], 1)]
        assert (nb.hits, nb.misses) == ([0], {1: [4, 3], 2: [5]})

    @pytest.mark.parametrize(
        "u, k, error, message",
        [
            (5, 1, QReliefFError, "class 2 has no sample other than the picked one"),
            (0, 0, ConfigError, "k must be >= 1, got 0"),
        ],
    )
    def test_rejected_before_any_ranking(self, u, k, error, message):
        def top_k(c, candidates, k):
            raise AssertionError("ranked a class of a rejected pick")

        with pytest.raises(error, match=message):
            neighbor_set(self.LABELS, u, k, top_k)


class TestUpdateWeights:
    def test_worked_example_first_update(self, example_normalized):
        nd, stats = example_normalized
        nb = find_neighbors(nd, 0, 1, "max")
        wt = update_weights(np.zeros(6), 0, nb, nd, stats)
        np.testing.assert_allclose(wt, GOLDEN_WT_ROWS[0], atol=1e-12)

    def test_identical_neighbor_no_change(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        ds = Dataset(rows, np.array([0, 0, 1, 1]), ["a", "b"])
        nd, stats = normalize(ds)
        nb = find_neighbors(nd, 0, 1, "max")
        assert nb.hits == [1]
        wt = update_weights(np.zeros(2), 0, nb, nd, stats)
        # hit is identical, the single miss class gets full weight 1
        np.testing.assert_allclose(wt, [1.0, 1.0], atol=1e-12)

    def test_miss_priors_sum_to_one(self, example_normalized):
        nd, _ = example_normalized
        for u in range(nd.n_samples):
            u_class = int(nd.labels[u])
            denom = nd.n_samples - nd.class_size(u_class)
            total = sum(
                nd.class_size(c) / denom
                for c in range(nd.n_classes)
                if c != u_class
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSelectFeatures:
    def test_published_weight_vector(self):
        assert select_features([1, 1, 1, -0.5, 0, -0.5], 0.5) == [0, 1, 2]

    def test_tau_zero(self):
        assert select_features([0.1, 0.0, 0.2], 0.0) == [0, 1, 2]

    def test_tau_one(self):
        assert select_features([0.9, 0.5], 1.0) == []

    def test_nonfinite_rejected(self):
        with pytest.raises(QReliefFError):
            select_features([np.nan, 1.0], 0.5)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(T=0)
        with pytest.raises(ConfigError):
            RunConfig(k=0)
        with pytest.raises(ConfigError):
            RunConfig(tau=1.5)
        with pytest.raises(ConfigError):
            RunConfig(neighbor_order="sideways")
        with pytest.raises(ConfigError):
            RunConfig(pick_policy="never")

    @pytest.mark.parametrize("field", ["neighbor_order", "pick_policy"])
    def test_bad_choice_named(self, field):
        with pytest.raises(ConfigError, match="got 'x'"):
            RunConfig(**{field: "x"})

    def test_pick_sequences(self):
        cfg = RunConfig(T=5, pick_policy="round-robin")
        assert pick_sequence(cfg, 3, RngStream(0)) == [0, 1, 2, 0, 1]
        cfg = RunConfig(T=5, pick_policy="random")
        a = pick_sequence(cfg, 6, RngStream(9))
        b = pick_sequence(cfg, 6, RngStream(9))
        assert a == b
        assert all(0 <= u < 6 for u in a)


class TestReliefFRun:
    def test_worked_example_trace(self, example_normalized):
        nd, stats = example_normalized
        cfg = RunConfig(T=4, pick_policy="round-robin")
        result = relieff_run(nd, cfg, RngStream(0), stats)
        for t, rec in enumerate(result.iterations):
            assert rec.picked == t
            hits, misses = GOLDEN_NEIGHBORS[t]
            assert rec.neighbors.hits == hits
            assert {c: list(v) for c, v in rec.neighbors.misses.items()} == misses
            np.testing.assert_allclose(rec.weights_after, GOLDEN_WT_ROWS[t], atol=1e-12)
        np.testing.assert_allclose(result.average_weights, GOLDEN_AVERAGE, atol=1e-12)
        assert result.selected(0.5) == [0, 1, 2]

    def test_determinism(self, example_normalized):
        nd, stats = example_normalized
        cfg = RunConfig(T=6, pick_policy="random")
        a = relieff_run(nd, cfg, RngStream(3), stats)
        b = relieff_run(nd, cfg, RngStream(3), stats)
        np.testing.assert_array_equal(a.average_weights, b.average_weights)
        assert [r.picked for r in a.iterations] == [r.picked for r in b.iterations]

    def test_scale_invariance(self, example_dataset):
        scaled = Dataset(
            example_dataset.samples * 7.3,
            example_dataset.labels.copy(),
            list(example_dataset.feature_names),
        )
        nd_a, st_a = normalize(example_dataset)
        nd_b, st_b = normalize(scaled)
        cfg = RunConfig(T=4, pick_policy="round-robin")
        a = relieff_run(nd_a, cfg, RngStream(0), st_a)
        b = relieff_run(nd_b, cfg, RngStream(0), st_b)
        np.testing.assert_allclose(a.average_weights, b.average_weights, atol=1e-12)
        assert a.selected(0.5) == b.selected(0.5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        rows = rng.random((6, 4)) + 0.1
        labels = np.array([0, 0, 1, 1, 2, 2])
        perm = [2, 0, 3, 1]
        ds_a = Dataset(rows, labels, [f"F{i}" for i in range(4)])
        ds_b = Dataset(rows[:, perm], labels, [f"F{i}" for i in range(4)])
        cfg = RunConfig(T=6, pick_policy="round-robin")
        nd_a, st_a = normalize(ds_a)
        nd_b, st_b = normalize(ds_b)
        a = relieff_run(nd_a, cfg, RngStream(0), st_a)
        b = relieff_run(nd_b, cfg, RngStream(0), st_b)
        np.testing.assert_allclose(
            a.average_weights[perm], b.average_weights, atol=1e-12
        )
