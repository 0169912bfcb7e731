"""Command-line harness: CSV ingestion, backend orchestration and report
emission.

Exit codes: 0 success, 2 configuration error, 3 data error (every input
fault: the CSV text, a value ``Dataset`` refuses, a zero row, a picked sample
alone in its class), 4 capacity error (including running out of memory), 5
internal error (a bare QReliefFError: a program fault, not bad input).  The
error's type alone picks the code; ``errors`` defines one type per code.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import report as report_mod
from .errors import CapacityError, ConfigError, DataError, QReliefFError
from .pipeline import PipelineConfig, check_quantum_input, qrelieff_run
from .program3 import reproduce_program3
from .relieff import Dataset, normalize, relieff_run
from .rng import RngStream


def example_csv_path() -> Path:
    """The six-sample, six-feature fixture dataset shipped with the package."""
    return Path(str(resources.files("qrelieff").joinpath("data/example6.csv")))


def load_csv(path, label_column: str = "class") -> tuple[Dataset, list[str]]:
    """Parse a CSV with a header row into a Dataset and its class names.

    UTF-8 text, a leading byte-order mark dropped; the label column's names
    get dense ids in first-appearance order.  A fault in the text names its
    CSV row, a cell that is not a number among them; :class:`Dataset` judges
    the numbers.  Either is a :class:`DataError`.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    with io.StringIO(text, newline="") as fh:
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
                    values.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell at row {r}, column {header[i]!r}: {cell!r}"
                    )
            name = row[label_pos].strip()
            if not name:
                raise DataError(f"{path}: empty label at row {r}")
            if name not in class_ids:
                class_ids[name] = len(class_ids)
                class_names.append(name)
            rows.append(values)
            labels.append(class_ids[name])
    samples = np.array(rows, dtype=float).reshape(len(rows), len(feature_names))
    try:
        return Dataset(samples, np.array(labels), feature_names), class_names
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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


def _write(doc: dict, text: str, output: str | None, out) -> None:
    """The JSON document to ``output`` with its text on ``out``, or, with no
    ``output``, the document on ``out`` and the text on standard error."""
    if output:
        try:
            Path(output).write_text(report_mod.serialize(doc))
        except OSError as exc:
            raise ConfigError(f"cannot write --output {output}: {exc.strerror or exc}")
        out.write(text)
    else:
        out.write(report_mod.serialize(doc))
        sys.stderr.write(text)


def run_cli(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return 2 if exc.code else 0

    try:
        # before any backend runs, so a mistyped path costs nothing
        if args.output:
            output = Path(args.output)
            if output.is_dir():
                raise ConfigError(f"--output {args.output}: it is a directory")
            if not output.parent.is_dir():
                raise ConfigError(f"--output {args.output}: {output.parent} is not a directory")
        if args.reproduce_program3:
            doc = reproduce_program3(shots=args.shots, seed=args.seed).as_dict()
            _write(doc, report_mod.render_program3_text(doc), args.output, out)
            return 0
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

        if args.backend in ("quantum", "both"):
            check_quantum_input(nd, cfg)  # before the classical run, so a bad input costs nothing
        runs, timing = {}, {}
        for name, backend_run in (("classical", relieff_run), ("quantum", qrelieff_run)):
            if args.backend in (name, "both"):
                t0 = time.perf_counter()
                runs[name] = backend_run(nd, cfg, RngStream(args.seed), stats)
                timing[f"{name}_s"] = time.perf_counter() - t0

        classical, quantum = runs.get("classical"), runs.get("quantum")
        doc = report_mod.build_report(vars(args), dataset, class_names, classical, quantum, timing)
        _write(doc, report_mod.render_text(doc), args.output, out)
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
    except QReliefFError as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 5


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
