"""Command-line harness: CSV ingestion, backend orchestration and report
emission.

Exit codes: 0 success, 2 configuration error, 3 data error (and any other
package error), 4 capacity error (including running out of memory), 5 internal
error (a circuit invariant failed: a program fault, not bad input).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import report as report_mod
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    NoSolutionError,
    PostselectionError,
    QReliefFError,
    SearchFailedError,
)
from .pipeline import PipelineConfig, qrelieff_run
from .program3 import reproduce_program3
from .relieff import Dataset, normalize, relieff_run
from .rng import RngStream


def example_csv_path() -> Path:
    """The six-sample, six-feature fixture dataset shipped with the package."""
    return Path(str(resources.files("qrelieff").joinpath("data/example6.csv")))


def load_csv(path, label_column: str = "class") -> tuple[Dataset, list[str]]:
    """Parse a CSV with a header row into a Dataset.

    The label column holds string class names, mapped to dense ids in
    first-appearance order; all other cells must be numeric.  Returns the
    dataset and the class names in id order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        header = [c.strip() for c in header]
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not in header")
        label_pos = header.index(label_column)
        feature_names = [c for i, c in enumerate(header) if i != label_pos]
        rows, labels = [], []
        class_ids: dict[str, int] = {}
        class_names: list[str] = []
        for r, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            values = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                cell = cell.strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell at row {r}, column {header[i]!r}: {cell!r}"
                    )
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: non-finite cell at row {r}, column {header[i]!r}: {cell!r}"
                    )
                values.append(value)
            name = row[label_pos].strip()
            if not name:
                raise DataError(f"{path}: empty label at row {r}")
            if name not in class_ids:
                class_ids[name] = len(class_ids)
                class_names.append(name)
            rows.append(values)
            labels.append(class_ids[name])
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 samples, got {len(rows)}")
    try:
        dataset = Dataset(np.array(rows), np.array(labels), feature_names)
    except QReliefFError as exc:
        raise DataError(f"{path}: {exc}")
    return dataset, class_names


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qrelieff",
        description="Feature selection over CSV datasets with classical ReliefF "
        "and its simulated quantum counterpart.",
    )
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--label-col", default="class", help="label column name")
    p.add_argument("--backend", choices=["classical", "quantum", "both"], default="both")
    p.add_argument("--k", type=int, default=1, help="neighbors per class")
    p.add_argument("--T", type=int, default=4, help="iteration count")
    p.add_argument("--tau", type=float, default=0.5, help="relevance threshold in [0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pick", choices=["random", "round-robin"], default="random")
    p.add_argument("--order", choices=["max", "min"], default="max",
                   help="whether larger or smaller similarity counts as nearer")
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--ae-bits", type=int, default=6)
    p.add_argument("--ae-circuit", choices=["reduced", "full"], default="reduced")
    p.add_argument("--feature-kind", choices=["auto", "discrete", "continuous"],
                   default="auto", help="override automatic discrete-feature detection")
    p.add_argument("--output", help="report path (default: standard output)")
    p.add_argument("--emit-iterations", action="store_true",
                   help="include per-iteration weight rows and similarity logs")
    p.add_argument("--reproduce-program3", action="store_true",
                   help="run the published 20-qubit similarity circuit and exit")
    return p


def _run_program3(args, out):
    result = reproduce_program3(shots=args.shots, seed=args.seed)
    doc = result.as_dict()
    text = (
        f"exact P(1)          = {result.exact_p1:.12f}\n"
        f"sampled mean (8x{result.shots}) = {result.sampled_mean:.6f}\n"
        f"published mean      = {result.published_p1} (reference only)\n"
    )
    if args.output:
        Path(args.output).write_text(report_mod.serialize(doc))
        out.write(text)
    else:
        out.write(report_mod.serialize(doc))
        sys.stderr.write(text)
    return 0


def run_cli(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return 2 if exc.code else 0

    try:
        if args.reproduce_program3:
            return _run_program3(args, out)
        if not args.input:
            raise ConfigError("--input is required")
        cfg = PipelineConfig(
            T=args.T, k=args.k, tau=args.tau,
            neighbor_order=args.order, pick_policy=args.pick,
            mode=args.mode, shots=args.shots, ae_bits=args.ae_bits,
            ae_circuit=args.ae_circuit,
        )
        dataset, class_names = load_csv(args.input, args.label_col)
        nd, stats = normalize(dataset, args.feature_kind)

        timing = {}
        classical = quantum = None
        if args.backend in ("classical", "both"):
            t0 = time.perf_counter()
            classical = relieff_run(nd, cfg, RngStream(args.seed), stats)
            timing["classical_s"] = time.perf_counter() - t0
        if args.backend in ("quantum", "both"):
            t0 = time.perf_counter()
            quantum = qrelieff_run(nd, cfg, RngStream(args.seed), stats)
            timing["quantum_s"] = time.perf_counter() - t0

        # every flag but --output and --reproduce-program3, which shape no report body
        config_echo = {
            k: v for k, v in vars(args).items() if k not in ("output", "reproduce_program3")
        }
        dataset_info = {
            "n_samples": dataset.n_samples,
            "n_features": dataset.n_features,
            "n_classes": dataset.n_classes,
            "feature_names": dataset.feature_names,
            "class_names": class_names,
        }
        doc = report_mod.build_report(
            config_echo, dataset_info, classical, quantum,
            args.tau, dataset.feature_names, args.emit_iterations, timing,
        )
        if args.output:
            Path(args.output).write_text(report_mod.serialize(doc))
            out.write(report_mod.render_text(doc))
        else:
            out.write(report_mod.serialize(doc))
            sys.stderr.write(report_mod.render_text(doc))
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 3
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 4
    except MemoryError as exc:
        sys.stderr.write(f"capacity error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 4
    except (PostselectionError, NoSolutionError, SearchFailedError) as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 5
    except QReliefFError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
