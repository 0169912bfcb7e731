"""The ReliefF loop of both backends and the classical baseline.

:func:`run_iterations` is the one loop: pick, find neighbors, update, then
the 1/T average.  :func:`neighbor_set` is the one per-class neighbor walk; a
backend supplies only how it ranks one class's candidates.  The classical
backend (:func:`relieff_run`) ranks by cosine-squared similarity; the quantum
pipeline plugs in its similarity table and Grover search.  Also here: row
normalization, the per-feature diff measure, the weight update and threshold
selection.

All weight arithmetic operates on normalized rows so the classical oracle and
the quantum backend are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateSampleError, QReliefFError
from .rng import RngStream


@dataclass
class Dataset:
    """M samples by N features with dense integer class labels; any fault is a DataError."""

    samples: np.ndarray
    labels: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise DataError(
                f"samples must be a 2-D array (samples by features), got shape {self.samples.shape}"
            )
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DataError(f"labels must be a 1-D array, got shape {labels.shape}")
        if labels.dtype.kind == "f":
            bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.floor(labels))))
            if bad.size:
                raise DataError(
                    f"label of sample {bad[0]} (counting from 0) is not an integer "
                    f"class id: {labels[bad[0]]}"
                )
        elif labels.dtype.kind not in "biu":
            raise DataError(f"labels must be integer class ids, got dtype {labels.dtype}")
        self.labels = labels.astype(int)
        m, n = self.samples.shape
        if m < 2:
            raise DataError(f"need at least 2 samples, got {m}")
        if n < 1:
            raise DataError("need at least 1 feature")
        if len(self.labels) != m:
            raise DataError("label count does not match sample count")
        if len(self.feature_names) != n:
            raise DataError("feature name count does not match feature count")
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            row, col = bad[0]
            raise DataError(
                f"sample {row} (counting from 0), feature {self.feature_names[col]!r} "
                f"is not finite: {self.samples[row, col]}"
            )
        # dense: sorted labels start at 0 and never skip a value (np.unique
        # would import numpy.ma on its first call)
        ordered = np.sort(self.labels)
        if ordered[0] != 0 or np.any(np.diff(ordered) > 1):
            raise DataError("labels must be dense class ids 0..P-1")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def class_size(self, c: int) -> int:
        return int(np.sum(self.labels == c))

    def class_members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)


class NormalizedDataset(Dataset):
    """A dataset whose rows have unit L2 norm."""

    def __post_init__(self):
        super().__post_init__()
        norms = np.linalg.norm(self.samples, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # NaN fails too
            raise DataError("rows of a NormalizedDataset must have unit norm")


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature range and discreteness over the normalized matrix.

    A feature is discrete when every observed value lies in {0, c} for one
    constant c (the shape binary indicator columns take after row
    normalization).
    """

    mins: np.ndarray
    maxs: np.ndarray
    discrete: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, kind: str = "auto") -> "FeatureStats":
        if kind not in ("auto", "discrete", "continuous"):
            raise ConfigError(f"unknown feature kind {kind!r}")
        mins = matrix.min(axis=0)
        maxs = matrix.max(axis=0)
        n = matrix.shape[1]
        if kind == "discrete":
            discrete = np.ones(n, dtype=bool)
        elif kind == "continuous":
            discrete = np.zeros(n, dtype=bool)
        else:
            # at most one distinct rounded nonzero value per column; a column
            # with none has hi = -inf < lo = +inf
            rounded = np.round(matrix, 12)
            nonzero = np.abs(rounded) > 1e-12
            hi = np.where(nonzero, rounded, -np.inf).max(axis=0)
            lo = np.where(nonzero, rounded, np.inf).min(axis=0)
            discrete = hi <= lo
        return cls(mins, maxs, discrete)


def normalize(d: Dataset, feature_kind: str = "auto") -> tuple[NormalizedDataset, FeatureStats]:
    """Divide every row by its L2 norm and compute feature statistics.

    Each row is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1), so its squares neither underflow nor overflow
    at any scale; the scale is exact, so an ordinary row's bits do not
    change.  Raises on any zero-norm row, naming it.
    """
    _, e = np.frexp(np.abs(d.samples).max(axis=1))
    scaled = np.ldexp(d.samples, -e[:, None])
    norms = np.linalg.norm(scaled, axis=1)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise DegenerateSampleError(f"sample {zero[0]} (counting from 0) has zero norm")
    rows = scaled / norms[:, None]
    nd = NormalizedDataset(rows, d.labels.copy(), list(d.feature_names))
    return nd, FeatureStats.from_matrix(rows, feature_kind)


def diff_vector(u: np.ndarray, v: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Per-feature dissimilarity in [0, 1] between two normalized rows.

    A discrete feature differs by 0 or 1; a continuous one by |u_i - v_i| over
    its observed range, and a constant feature (zero range) by 0.
    """
    span = stats.maxs - stats.mins
    cont = np.divide(
        np.abs(u - v), span, out=np.zeros_like(span), where=span != 0
    )
    disc = (np.abs(u - v) >= 1e-12).astype(float)
    return np.where(stats.discrete, disc, cont)


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine-squared similarity (dot product squared for unit vectors)."""
    return float(np.dot(u, v) ** 2)


@dataclass
class NeighborSet:
    """k nearest hits (same class) and per-class misses of a picked sample."""

    hits: list[int]
    misses: dict[int, list[int]]


def neighbor_set(labels: np.ndarray, u: int, k: int, top_k) -> NeighborSet:
    """Hits and per-class misses of picked sample ``u``, for either backend.

    In every class c, ``top_k(c, candidates, k)`` returns the chosen nearest
    of ``candidates``: the class's members other than ``u``, in ascending
    index order.  k is clamped to their count.  A picked sample that is the
    only member of its class has no hit, which is a :class:`DataError`.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    u_class = int(labels[u])
    if np.count_nonzero(labels == u_class) < 2:
        raise DataError(f"class {u_class} has no sample other than the picked one")
    hits: list[int] = []
    misses: dict[int, list[int]] = {}
    for c in range(int(labels.max()) + 1):
        candidates = [int(q) for q in np.flatnonzero(labels == c) if q != u]
        chosen = top_k(c, candidates, min(k, len(candidates)))
        if c == u_class:
            hits = chosen
        else:
            misses[c] = chosen
    return NeighborSet(hits, misses)


def find_neighbors(
    nd: NormalizedDataset, u_index: int, k: int, order: str = "max"
) -> NeighborSet:
    """Per class, the k most similar samples to ``u`` under ``order``.

    ``max`` treats larger similarity as nearer; ``min`` is the inverted
    reading.  Ties break toward the lower sample index.
    """
    if order not in ("max", "min"):
        raise ConfigError(f"neighbor order must be 'max' or 'min', got {order!r}")
    u = nd.samples[u_index]
    sign = -1.0 if order == "max" else 1.0  # nearest sorts first

    def top_k(c, candidates, k):
        return sorted(candidates, key=lambda q: (sign * similarity(u, nd.samples[q]), q))[:k]

    return neighbor_set(nd.labels, u_index, k, top_k)


def update_weights(
    wt: np.ndarray,
    u_index: int,
    nb: NeighborSet,
    nd: NormalizedDataset,
    stats: FeatureStats,
) -> np.ndarray:
    """One ReliefF weight update: subtract hit diffs, add prior-weighted miss diffs.

    The miss-class coefficient p(C)/(1 - p(class(u))) is computed as
    M_C / (M - M_class(u)), which keeps it exact for equal class sizes.
    """
    wt = np.asarray(wt, dtype=float).copy()
    u = nd.samples[u_index]
    for j in nb.hits:
        wt -= diff_vector(u, nd.samples[j], stats)
    denom = nd.n_samples - nd.class_size(int(nd.labels[u_index]))
    for c, members in nb.misses.items():
        coeff = nd.class_size(c) / denom
        for j in members:
            wt += coeff * diff_vector(u, nd.samples[j], stats)
    return wt


def select_features(weights: np.ndarray, tau: float) -> list[int]:
    """Indices i with averaged weight >= tau, in feature order."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise QReliefFError("weights must be finite")
    return [i for i, w in enumerate(weights) if w >= tau]


@dataclass
class RunConfig:
    """Shared iteration parameters of both backends."""

    T: int = 4
    k: int = 1
    tau: float = 0.5
    neighbor_order: str = "max"
    pick_policy: str = "random"

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        if self.neighbor_order not in ("max", "min"):
            raise ConfigError(f"neighbor order must be 'max' or 'min', got {self.neighbor_order!r}")
        if self.pick_policy not in ("random", "round-robin"):
            raise ConfigError(
                f"pick policy must be 'random' or 'round-robin', got {self.pick_policy!r}"
            )


def check_has_miss_class(nd: Dataset):
    """Reject a dataset with one class before a run: ReliefF scores features
    by misses (other classes) against hits, and with no miss class a run
    would only subtract hit differences."""
    if nd.n_classes < 2:
        raise DataError(f"ReliefF needs at least 2 classes, got {nd.n_classes}")


def pick_sequence(cfg: RunConfig, n_samples: int, rng: RngStream) -> list[int]:
    """The T picked sample indices; round-robin cycles 0,1,2,... deterministically."""
    if cfg.pick_policy == "round-robin":
        return [t % n_samples for t in range(cfg.T)]
    stream = rng.substream(0)  # pick substream, shared by both backends
    return [stream.integers(n_samples) for _ in range(cfg.T)]


@dataclass
class IterationRecord:
    picked: int
    neighbors: NeighborSet
    weights_after: np.ndarray


@dataclass
class ReliefFResult:
    average_weights: np.ndarray
    iterations: list[IterationRecord]

    def selected(self, tau: float) -> list[int]:
        return select_features(self.average_weights, tau)


def run_iterations(
    nd: NormalizedDataset, cfg: RunConfig, rng: RngStream, stats: FeatureStats, neighbors
) -> tuple[np.ndarray, list[IterationRecord]]:
    """The ReliefF loop of both backends: T iterations of pick / find
    neighbors / update, then the 1/T average.

    ``neighbors(u, t)`` returns the :class:`NeighborSet` of the t-th picked
    sample u.  Returns the averaged weights and the per-iteration trace.
    """
    check_has_miss_class(nd)
    wt = np.zeros(nd.n_features)
    trace = []
    for t, u in enumerate(pick_sequence(cfg, nd.n_samples, rng)):
        nb = neighbors(u, t)
        wt = update_weights(wt, u, nb, nd, stats)
        trace.append(IterationRecord(u, nb, wt.copy()))
    return wt / cfg.T, trace


def relieff_run(
    nd: NormalizedDataset, cfg: RunConfig, rng: RngStream, stats: FeatureStats
) -> ReliefFResult:
    """Classical ReliefF: :func:`run_iterations` with :func:`find_neighbors`."""
    return ReliefFResult(*run_iterations(
        nd, cfg, rng, stats, lambda u, t: find_neighbors(nd, u, cfg.k, cfg.neighbor_order)
    ))
