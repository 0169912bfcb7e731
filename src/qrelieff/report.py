"""Run reports: a machine-readable JSON document plus a plain-text table
rendering.  The canonical body (everything except the "timing" section) is
byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .pipeline import QReliefFResult
from .relieff import ReliefFResult


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _backend_section(result, feature_names, tau, emit_iterations):
    section = {
        "average_weights": [float(w) for w in result.average_weights],
        "selected_indices": result.selected(tau),
        "selected_features": [feature_names[i] for i in result.selected(tau)],
    }
    if emit_iterations:
        section["iterations"] = [
            {
                "picked": rec.picked,
                "neighbors": rec.neighbors.as_dict(),
                "weights": [float(w) for w in rec.weights_after],
            }
            for rec in result.iterations
        ]
    return section


def neighbor_agreement(classical: ReliefFResult, quantum: ReliefFResult) -> list[bool]:
    """Per-iteration equality of the two backends' neighbor sets."""
    out = []
    for c_rec, q_rec in zip(classical.iterations, quantum.iterations):
        same = (
            c_rec.picked == q_rec.picked
            and list(c_rec.neighbors.hits) == list(q_rec.neighbors.hits)
            and {k: list(v) for k, v in c_rec.neighbors.misses.items()}
            == {k: list(v) for k, v in q_rec.neighbors.misses.items()}
        )
        out.append(bool(same))
    return out


def build_report(
    config: dict,
    dataset_info: dict,
    classical: ReliefFResult | None,
    quantum: QReliefFResult | None,
    tau: float,
    feature_names: list[str],
    emit_iterations: bool,
    timing: dict,
) -> dict:
    report = {
        "config": config,
        "dataset": dataset_info,
        "results": {},
        "timing": timing,
    }
    if classical is not None:
        report["results"]["classical"] = _backend_section(
            classical, feature_names, tau, emit_iterations
        )
    if quantum is not None:
        section = _backend_section(quantum, feature_names, tau, emit_iterations)
        if emit_iterations:
            section["similarity_log"] = [t.as_dict() for t in quantum.tables]
        report["results"]["quantum"] = section
    if classical is not None and quantum is not None:
        per_iter = neighbor_agreement(classical, quantum)
        report["agreement"] = {
            "neighbors_per_iteration": per_iter,
            "neighbors_all_equal": all(per_iter),
            "selected_equal": classical.selected(tau) == quantum.selected(tau),
        }
    return report


def canonical_body(report: dict) -> str:
    """The byte-stable serialization: the report minus wall-clock timings."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, sort_keys=True, indent=2, default=_json_default) + "\n"


def serialize(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


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


def schema() -> dict:
    """The published report schema shipped with the package."""
    text = resources.files("qrelieff").joinpath("data/report_schema.json").read_text()
    return json.loads(text)
