"""The quantum subroutines that plug into the shared ReliefF loop.

For each pick, the similarity step swap-tests every encoded sample against
the picked one and reads each result out through amplitude estimation
(:func:`build_similarity_table`).  The neighbor step ranks each class by
Grover extreme search over those readings (:func:`quantum_neighbors`).  The
loop, the per-class neighbor walk, the weight update and the selection are
:mod:`qrelieff.relieff`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    AEOutcome,
    EncodingLayout,
    Preparation,
    ae_distribution_for_amplitude,
    amplitude_estimate,
    encode_sample,
    encode_sample_gates,
    modal_outcome,
    quantum_extreme_search,
    swap_flag,
    swap_test_gates,
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
from .rng import RngStream
from .statevector import GateOp, StateVector, swap


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
        if not 1 <= self.ae_bits <= 10:
            raise ConfigError(f"ae_bits must lie in [1, 10], got {self.ae_bits}")
        if self.ae_circuit not in ("reduced", "full"):
            raise ConfigError(
                f"ae_circuit must be 'reduced' or 'full', got {self.ae_circuit!r}"
            )


@dataclass
class SimilarityRecord:
    """One swap-test + estimation reading for a (picked, candidate) pair."""

    sample: int
    s_raw: float
    outcome: AEOutcome
    excluded: bool = False
    noise_clamped: bool = False

    @property
    def s_quantized(self) -> int:
        return self.outcome.y

    def as_dict(self):
        return {
            "sample": self.sample,
            "s_raw": self.s_raw,
            "y": self.outcome.y,
            "s_quantized": self.s_quantized,
            "excluded": self.excluded,
            "noise_clamped": self.noise_clamped,
        }


@dataclass
class SimilarityTable:
    """Per-class similarity records for one picked sample."""

    picked: int
    records: dict[int, list[SimilarityRecord]] = field(default_factory=dict)

    def as_dict(self):
        return {
            "picked": self.picked,
            "classes": {
                str(c): [r.as_dict() for r in recs]
                for c, recs in sorted(self.records.items())
            },
        }


def prepare_states(nd: NormalizedDataset) -> list[StateVector]:
    """One encoded state per sample under a ceil(log2 M)-bit register that
    holds the sample's index.  No circuit reads that register; it only widens
    the swap-test composite."""
    sample_bits = max(1, math.ceil(math.log2(nd.n_samples)))
    basis = np.eye(1 << sample_bits, dtype=complex)
    encoded = [encode_sample(v) for v in nd.samples]
    return [
        StateVector(e.n_qubits + sample_bits, np.kron(basis[q], e.amplitudes))
        for q, e in enumerate(encoded)
    ]


def _swap_test_p1(
    u_state: StateVector,
    v_state: StateVector,
    layout: EncodingLayout,
    cfg: PipelineConfig,
    rng: RngStream | None,
) -> float:
    """P(ancilla=1) of the swap test over the encoding's data, flag and
    feature-index qubits.

    Qubits above the encoding stay out of the controlled swaps; they factor
    out of the overlap.  In sampled mode the probability is estimated from
    finite ancilla shots.
    """
    state = swap_test_state(swap_flag(u_state), v_state, range(layout.n_qubits))
    ancilla = 2 * u_state.n_qubits
    if cfg.mode == "exact":
        return state.probability_one(ancilla)
    if rng is None:
        raise QReliefFError("sampled mode needs an rng stream")
    counts = state.sample([ancilla], cfg.shots, rng)
    return counts.get("1", 0) / cfg.shots


def _shift_gates(gates, offset: int):
    return [
        GateOp(
            g.kind,
            tuple(t + offset for t in g.targets),
            tuple((q + offset, pol) for q, pol in g.controls),
            g.angle,
        )
        for g in gates
    ]


def _full_circuit_preparation(nd: NormalizedDataset, u: int, q: int) -> Preparation:
    """The swap-test circuit of samples u and q as a preparation: q encoded
    on qubits 0..m-1, u (flag and data swapped) on m..2m-1, and the ancilla,
    the flag, on 2m; 2m + 1 qubits whatever M is.  Needs a power-of-two
    feature count (the encoding must be unitary)."""
    m = EncodingLayout(nd.n_features).n_qubits
    b_gates = encode_sample_gates(nd.samples[q])
    a_gates = encode_sample_gates(nd.samples[u]) + [swap(0, 1)]
    gates = b_gates + _shift_gates(a_gates, m) + swap_test_gates(m)
    return Preparation(tuple(gates), 2 * m + 1, 2 * m)


def _full_circuit_outcome(
    nd: NormalizedDataset, u: int, q: int, cfg: PipelineConfig, rng: RngStream | None
) -> AEOutcome:
    """The t-bit amplitude-estimation reading of the swap-test ancilla
    amplitude a = P(1) on :func:`_full_circuit_preparation`."""
    dist = amplitude_estimate(_full_circuit_preparation(nd, u, q), cfg.ae_bits)
    if cfg.mode == "exact":
        return modal_outcome(dist, cfg.ae_bits)
    y = rng.choice_weighted(dist / dist.sum())
    return AEOutcome(min(y, (1 << cfg.ae_bits) - y), cfg.ae_bits)


def _quantize_similarity(s: float, t: int) -> AEOutcome:
    """Nearest t-bit estimation grid point to a known similarity."""
    m = round((1 << t) * math.asin(math.sqrt(s)) / math.pi)
    return AEOutcome(min(max(m, 0), 1 << (t - 1)), t)


def quantum_similarity(
    states: list[StateVector],
    nd: NormalizedDataset,
    u: int,
    q: int,
    cfg: PipelineConfig,
    rng: RngStream | None = None,
) -> SimilarityRecord:
    """Similarity s = (1 - 2 P(1)) N^2 of encoded samples u and q, plus its
    t-bit amplitude-estimation reading.

    The default path runs the swap test (exact or shots-estimated ancilla),
    recovers s, and estimates the algebraically equivalent single-qubit
    amplitude sqrt(s); the ``full`` circuit path amplitude-estimates the
    swap-test ancilla itself and converts that reading back to an s grid
    point.  Sampling noise can push the raw estimate outside [0, 1]; it is
    clamped and flagged rather than propagated.  The record of u against
    itself is marked excluded.
    """
    n_features, layout = nd.n_features, EncodingLayout(nd.n_features)
    p1 = _swap_test_p1(states[u], states[q], layout, cfg, rng)
    s = (1.0 - 2.0 * p1) * n_features**2
    clamped = not 0.0 <= s <= 1.0
    s = min(max(s, 0.0), 1.0)
    if cfg.ae_circuit == "full":
        ae = _full_circuit_outcome(nd, u, q, cfg, rng)
        s_full = min(max((1.0 - 2.0 * ae.a_hat) * n_features**2, 0.0), 1.0)
        outcome = _quantize_similarity(s_full, cfg.ae_bits)
    else:
        dist = ae_distribution_for_amplitude(round(s, 15), cfg.ae_bits)
        outcome = modal_outcome(dist, cfg.ae_bits)
    return SimilarityRecord(q, s, outcome, excluded=q == u, noise_clamped=clamped)


def build_similarity_table(
    states: list[StateVector],
    nd: NormalizedDataset,
    u: int,
    cfg: PipelineConfig,
    rng: RngStream | None,
) -> SimilarityTable:
    """Swap-test every sample against the picked one, grouped by class.

    The picked sample keeps a record (marked excluded) so the trace stays
    complete.  Each pair owns an rng substream keyed by its sample index.
    """
    table = SimilarityTable(u)
    for c in range(nd.n_classes):
        table.records[c] = [
            quantum_similarity(
                states, nd, u, q, cfg, rng.substream(q) if rng is not None else None
            )
            for q in nd.class_members(c).tolist()
        ]
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
        y = {r.sample: r.s_quantized for r in table.records[c]}
        positions = quantum_extreme_search([y[q] for q in candidates], k, order, rng.substream(c))
        return [candidates[p] for p in positions]

    return neighbor_set(labels, table.picked, k, top_k)


@dataclass
class QReliefFResult(ReliefFResult):
    tables: list[SimilarityTable]


def qrelieff_run(
    nd: NormalizedDataset, cfg: PipelineConfig, rng: RngStream, stats: FeatureStats
) -> QReliefFResult:
    """Quantum ReliefF: :func:`run_iterations` with the swap-test similarity
    table of each pick (rng substream (1, t) in sampled mode) and Grover
    neighbor search (substream (2, t)).  The result keeps every table, so the
    trace re-derives the weights offline.
    """
    check_has_miss_class(nd)  # before any encoding work
    if cfg.ae_circuit == "full" and not EncodingLayout(nd.n_features).unitary:
        raise DataError(
            f"ae_circuit 'full' needs a power-of-two feature count of 2 or more, "
            f"got N={nd.n_features}"
        )
    states = prepare_states(nd)
    tables: list[SimilarityTable] = []

    def neighbors(u, t):
        sim_rng = rng.substream(1, t) if cfg.mode == "sampled" else None
        tables.append(build_similarity_table(states, nd, u, cfg, sim_rng))
        return quantum_neighbors(
            tables[-1], nd.labels, cfg.k, cfg.neighbor_order, rng.substream(2, t)
        )

    return QReliefFResult(*run_iterations(nd, cfg, rng, stats, neighbors), tables)
