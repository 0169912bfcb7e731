"""The quantum subroutines that plug into the shared ReliefF loop.

For each pick, the similarity step swap-tests every encoded sample against
the picked one and reads each result out through amplitude estimation, into
lists indexed by sample (:func:`build_similarity_table`).  The neighbor step
ranks each class by Grover extreme search over those readings
(:func:`quantum_neighbors`).  The loop, the per-class neighbor walk, the
weight update and the selection are :mod:`qrelieff.relieff`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    _index_bits,
    EncodingLayout,
    ae_distribution_for_amplitude,
    amplitude_estimate,
    check_ae_width,
    encode_sample,
    estimate,
    modal_outcome,
    quantum_extreme_search,
    swap_flag,
    swap_test_state,
)
from .errors import ConfigError, DataError, QReliefFError
from .relieff import (
    FeatureStats,
    NeighborSet,
    NormalizedDataset,
    ReliefFResult,
    RunConfig,
    check_has_miss_class,
    neighbor_set,
    run_iterations,
)
from .rng import MAX_SHOTS, RngStream
from .statevector import StateVector, check_width


@dataclass
class PipelineConfig(RunConfig):
    """RunConfig plus the quantum execution knobs."""

    mode: str = "exact"
    shots: int = 1024
    ae_bits: int = 6
    ae_circuit: str = "reduced"

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if self.shots > MAX_SHOTS:
            raise ConfigError(f"shots must be <= {MAX_SHOTS}, got {self.shots}")
        if not 1 <= self.ae_bits <= 10:
            raise ConfigError(f"ae_bits must lie in [1, 10], got {self.ae_bits}")
        if self.ae_circuit not in ("reduced", "full"):
            raise ConfigError(
                f"ae_circuit must be 'reduced' or 'full', got {self.ae_circuit!r}"
            )


@dataclass
class SimilarityTable:
    """The similarity readings of one picked sample against every sample q,
    each list indexed by q: the similarity s clamped to [0, 1], its t-bit
    reading y, and whether shot noise pushed s outside [0, 1]."""

    picked: int
    s_raw: list[float]
    y: list[int]
    noise_clamped: list[bool]


def prepare_states(nd: NormalizedDataset) -> list[StateVector]:
    """One encoded state per sample under a ceil(log2 M)-bit register that
    holds the sample's index.  No circuit reads that register; it only widens
    the swap-test composite."""
    sample_bits = _index_bits(nd.n_samples)
    basis = np.eye(1 << sample_bits)
    encoded = [encode_sample(v) for v in nd.samples]
    return [
        StateVector(e.n_qubits + sample_bits, np.kron(basis[q], e.amplitudes))
        for q, e in enumerate(encoded)
    ]


def _swap_test_p1(
    flagged_u: StateVector,
    v_state: StateVector,
    layout: EncodingLayout,
    cfg: PipelineConfig,
    rng: RngStream | None,
) -> tuple[float, float]:
    """P(ancilla=1) of the swap test of ``flagged_u`` (a sample state after
    :func:`swap_flag`) against ``v_state`` over the encoding's data, flag and
    feature-index qubits, the ancilla read in the X basis: the exact
    probability and its reading, which sampled mode estimates from finite
    ancilla shots.

    Qubits above the encoding stay out of the controlled swaps; they factor
    out of the overlap.
    """
    p = swap_test_state(flagged_u, v_state, range(layout.n_qubits)).x_basis_probabilities()
    p1 = float(p[1])
    if cfg.mode == "exact":
        return p1, p1
    if rng is None:
        raise QReliefFError("sampled mode needs an rng stream")
    return p1, int(rng.multinomial(cfg.shots, p)[1]) / cfg.shots


def _full_readout_bits(layout: EncodingLayout, t: int) -> int:
    """t_f = t + 2 ceil(log2 N) + 4 readout bits for P(1) = 1/2 - s/(2 N^2):
    2 ceil(log2 N) undo the factor N^2, and 4 more round s to the t-bit grid
    point that ``reduced`` reads in nearly every case."""
    return t + 2 * layout.n_feature_qubits + 4


def _full_circuit_outcome(
    p1: float, layout: EncodingLayout, cfg: PipelineConfig, rng: RngStream | None
) -> int:
    """The t-bit similarity reading from t_f-bit amplitude estimation
    (:func:`_full_readout_bits`) of the swap-test composite's P(1) ``p1``:
    its modal reading (exact mode) or one drawn (sampled), turned into
    s = (1 - 2 a) N^2, clamped and put on the grid."""
    t_f = _full_readout_bits(layout, cfg.ae_bits)
    dist = amplitude_estimate(p1, t_f)
    if cfg.mode == "exact":
        y = modal_outcome(dist)
    else:
        y = rng.choice_weighted(dist)
        y = min(y, (1 << t_f) - y)
    s = min(max((1.0 - 2.0 * estimate(y, t_f)) * layout.n_features**2, 0.0), 1.0)
    return _quantize_similarity(s, cfg.ae_bits)


def _quantize_similarity(s: float, t: int) -> int:
    """Nearest t-bit estimation grid point to a known similarity."""
    m = round((1 << t) * math.asin(math.sqrt(s)) / math.pi)
    return min(max(m, 0), 1 << (t - 1))


def build_similarity_table(
    states: list[StateVector],
    nd: NormalizedDataset,
    u: int,
    cfg: PipelineConfig,
    rng: RngStream | None,
) -> SimilarityTable:
    """Swap-test every sample q against the picked one u, u itself included:
    similarity s = (1 - 2 P(1)) N^2 and its t-bit amplitude-estimation
    reading, at index q of the table's lists.

    The default path runs the swap test (exact or shots-estimated ancilla),
    recovers s, and estimates the algebraically equivalent single-qubit
    amplitude sqrt(s); the ``full`` circuit path amplitude-estimates the
    swap-test ancilla's exact P(1) (:func:`_full_circuit_outcome`) and
    converts that reading back to an s grid point.  The raw estimate is
    clamped to [0, 1].  In sampled mode shot noise can push it outside, and
    the sample's ``noise_clamped`` entry is set; in exact mode only rounding
    can (u against itself lands just above 1), and nothing is flagged.  Each
    pair owns an rng substream keyed by its sample index.
    """
    layout = EncodingLayout(nd.n_features)
    flagged_u = swap_flag(states[u])
    table = SimilarityTable(u, [], [], [])
    for q, v_state in enumerate(states):
        q_rng = rng.substream(q) if rng is not None else None
        p1, reading = _swap_test_p1(flagged_u, v_state, layout, cfg, q_rng)
        s = (1.0 - 2.0 * reading) * layout.n_features**2
        table.noise_clamped.append(cfg.mode == "sampled" and not 0.0 <= s <= 1.0)
        s = min(max(s, 0.0), 1.0)
        table.s_raw.append(s)
        if cfg.ae_circuit == "full":
            table.y.append(_full_circuit_outcome(p1, layout, cfg, q_rng))
        else:
            dist = ae_distribution_for_amplitude(round(s, 15), cfg.ae_bits)
            table.y.append(modal_outcome(dist))
    return table


def quantum_neighbors(
    table: SimilarityTable,
    labels: np.ndarray,
    k: int,
    order: str,
    rng: RngStream,
) -> NeighborSet:
    """:func:`neighbor_set` ranked by Grover extreme search over each class's
    quantized similarities, on rng substream (c) for class c.

    ``max`` order searches for the largest quantized values (nearest under
    cosine-squared semantics); ties resolve to the lower sample index, matching
    the classical comparison on the same quantized keys.
    """

    def top_k(c, candidates, k):
        positions = quantum_extreme_search([table.y[q] for q in candidates], k, order, rng.substream(c))
        return [candidates[p] for p in positions]

    return neighbor_set(labels, table.picked, k, top_k)


@dataclass
class QReliefFResult(ReliefFResult):
    tables: list[SimilarityTable]


def check_quantum_input(nd: NormalizedDataset, cfg: PipelineConfig):
    """Reject, before any work, an input the quantum backend cannot run: one
    class (no miss class), a negative feature value (the encoding's
    amplitudes are the values), the ``full`` circuit on a feature count
    that is not a power of two of 2 or more, or a register over the width
    cap: the swap-test composite, or the ``full`` circuit's amplitude
    estimation (:func:`check_ae_width`)."""
    check_has_miss_class(nd)
    negative = np.argwhere(nd.samples < 0)
    if negative.size:
        row, column = negative[0]
        raise DataError(
            f"sample {row} (counting from 0), feature {nd.feature_names[column]!r} is negative; "
            f"the quantum backend needs nonnegative feature values"
        )
    layout = EncodingLayout(nd.n_features)
    if cfg.ae_circuit == "full" and not layout.unitary:
        raise DataError(
            f"ae_circuit 'full' needs a power-of-two feature count of 2 or more, "
            f"got N={nd.n_features}"
        )
    check_width(2 * (layout.n_qubits + _index_bits(nd.n_samples)) + 1)
    if cfg.ae_circuit == "full":
        check_ae_width(_full_readout_bits(layout, cfg.ae_bits))


def qrelieff_run(
    nd: NormalizedDataset, cfg: PipelineConfig, rng: RngStream, stats: FeatureStats
) -> QReliefFResult:
    """Quantum ReliefF: :func:`run_iterations` with the swap-test similarity
    table of each pick (rng substream (1, t) in sampled mode) and Grover
    neighbor search (substream (2, t)).  The result keeps every table, so the
    trace re-derives the weights offline.
    """
    check_quantum_input(nd, cfg)  # before any encoding work
    states = prepare_states(nd)
    tables: list[SimilarityTable] = []

    def neighbors(u, t):
        sim_rng = rng.substream(1, t) if cfg.mode == "sampled" else None
        tables.append(build_similarity_table(states, nd, u, cfg, sim_rng))
        return quantum_neighbors(
            tables[-1], nd.labels, cfg.k, cfg.neighbor_order, rng.substream(2, t)
        )

    return QReliefFResult(*run_iterations(nd, cfg, rng, stats, neighbors), tables)
