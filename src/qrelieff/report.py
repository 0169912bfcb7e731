"""Run reports: a machine-readable JSON document plus a plain-text table
rendering, and the text beside a Program 3 reproduction document.  This
module writes every key of the run report, neighbor sets and similarity log
included.  The canonical body (everything except the "timing" section) is
byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import json
from importlib import resources

from .pipeline import QReliefFResult, SimilarityTable
from .relieff import Dataset, ReliefFResult


def _similarity_log(tables: list[SimilarityTable], dataset: Dataset) -> list[dict]:
    """Per pick, each class's samples q in ascending order: the raw
    similarity, its reading y (again as ``s_quantized``), whether q is the
    pick (``excluded``) and the noise flag."""
    classes = [dataset.class_members(c).tolist() for c in range(dataset.n_classes)]
    return [
        {
            "picked": table.picked,
            "classes": {
                str(c): [
                    {
                        "sample": q,
                        "s_raw": table.s_raw[q],
                        "y": table.y[q],
                        "s_quantized": table.y[q],
                        "excluded": q == table.picked,
                        "noise_clamped": table.noise_clamped[q],
                    }
                    for q in members
                ]
                for c, members in enumerate(classes)
            },
        }
        for table in tables
    ]


def _backend_section(result, report):
    """One backend's results under the report's config and dataset sections."""
    selected = result.selected(report["config"]["tau"])
    feature_names = report["dataset"]["feature_names"]
    section = {
        "average_weights": [float(w) for w in result.average_weights],
        "selected_indices": selected,
        "selected_features": [feature_names[i] for i in selected],
    }
    if report["config"]["emit_iterations"]:
        section["iterations"] = [
            {
                "picked": rec.picked,
                "neighbors": {
                    "picked": rec.picked,
                    "hits": list(rec.neighbors.hits),
                    "misses": {str(c): list(v) for c, v in sorted(rec.neighbors.misses.items())},
                },
                "weights": [float(w) for w in rec.weights_after],
            }
            for rec in result.iterations
        ]
    return section


def neighbor_agreement(classical: ReliefFResult, quantum: ReliefFResult) -> list[bool]:
    """Per iteration, whether the two backends picked the same sample and
    found the same neighbor set."""
    return [
        c.picked == q.picked and c.neighbors == q.neighbors
        for c, q in zip(classical.iterations, quantum.iterations)
    ]


def build_report(
    flags: dict,
    dataset: Dataset,
    class_names: list[str],
    classical: ReliefFResult | None,
    quantum: QReliefFResult | None,
    timing: dict,
) -> dict:
    """The run report of the CLI flags ``flags`` (argument name to value) on
    ``dataset``.  The config section echoes every flag but ``output`` and
    ``reproduce_program3``, which shape no report body."""
    report = {
        "config": {k: v for k, v in flags.items() if k not in ("output", "reproduce_program3")},
        "dataset": {
            "n_samples": dataset.n_samples,
            "n_features": dataset.n_features,
            "n_classes": dataset.n_classes,
            "feature_names": dataset.feature_names,
            "class_names": class_names,
        },
        "results": {},
        "timing": timing,
    }
    results = report["results"]
    if classical is not None:
        results["classical"] = _backend_section(classical, report)
    if quantum is not None:
        results["quantum"] = _backend_section(quantum, report)
        if report["config"]["emit_iterations"]:
            results["quantum"]["similarity_log"] = _similarity_log(quantum.tables, dataset)
    if classical is not None and quantum is not None:
        per_iter = neighbor_agreement(classical, quantum)
        c_section, q_section = results["classical"], results["quantum"]
        report["agreement"] = {
            "neighbors_per_iteration": per_iter,
            "neighbors_all_equal": all(per_iter),
            "selected_equal": c_section["selected_indices"] == q_section["selected_indices"],
        }
    return report


def canonical_body(report: dict) -> str:
    """The byte-stable serialization: the report minus wall-clock timings."""
    return serialize({k: v for k, v in report.items() if k != "timing"})


def serialize(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Plain-text rendering in the shape of the published iteration table."""
    lines = []
    for backend in ("classical", "quantum"):
        section = report["results"].get(backend)
        if section is None:
            continue
        lines.append(f"== {backend} backend ==")
        for t, rec in enumerate(section.get("iterations", []), start=1):
            row = "  ".join(f"{w:8.4f}" for w in rec["weights"])
            lines.append(f"  iteration {t} (picked S{rec['picked']})  WT [{row}]")
        avg = "  ".join(f"{w:8.4f}" for w in section["average_weights"])
        lines.append(f"  averaged       WT [{avg}]")
        lines.append("  selected: " + ", ".join(section["selected_features"]))
    if "agreement" in report:
        agree = report["agreement"]
        lines.append(
            "backend agreement: neighbors "
            + ("identical" if agree["neighbors_all_equal"] else "DIFFER")
            + ", selection "
            + ("identical" if agree["selected_equal"] else "DIFFERS")
        )
    return "\n".join(lines) + "\n"


def render_program3_text(doc: dict) -> str:
    """Plain-text summary of a Program 3 reproduction document."""
    return (
        f"exact P(1)          = {doc['exact_p1']:.12f}\n"
        f"sampled mean ({doc['runs']}x{doc['shots']}) = {doc['sampled_mean']:.6f}\n"
        f"published mean      = {doc['published_p1']} (reference only)\n"
    )


def schema() -> dict:
    """The published report schema shipped with the package."""
    text = resources.files("qrelieff").joinpath("data/report_schema.json").read_text()
    return json.loads(text)
