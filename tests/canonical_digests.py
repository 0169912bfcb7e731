"""Digests of the CLI's canonical report bodies over a fixed case list, to
show that a change leaves every report byte as it was.

The cases run ``example6.csv`` and every CSV under ``tests/data/`` through
:func:`qrelieff.cli.run_cli` with ``--backend both --emit-iterations --T 3``,
at 1 to 10 readout bits, seeds 0 and 1, exact and sampled mode, and the
``reduced`` and ``full`` amplitude-estimation circuits.  Each case gives the
sha256 of ``report.canonical_body`` with ``config.input`` reduced to the
file's name, so the digest does not depend on where the checkout lives.  A
case the CLI rejects gives its exit code and its stderr line instead.

    PYTHONPATH=src python tests/canonical_digests.py                 # print each digest
    PYTHONPATH=src python tests/canonical_digests.py --record FILE   # write them
    PYTHONPATH=src python tests/canonical_digests.py --compare FILE  # check them

``--record`` also writes the bodies themselves, xz-compressed, beside FILE
(:func:`bodies_path`), and ``--compare`` reads them to name, for each
differing case, its first differing leaf and the largest relative difference
of its floats.  ``--compare`` exits 1 if any case differs.  The digests in
``tests/data/canonical_digests.json`` were recorded under numpy 2; numpy 1.x
may round the readouts differently.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import lzma
import sys
from pathlib import Path

from qrelieff import report
from qrelieff.cli import example_csv_path, run_cli

DATA = Path(__file__).resolve().parent / "data"
RECORDED = DATA / "canonical_digests.json"


def inputs() -> dict[str, Path]:
    """Input file name -> path: the shipped example and the test CSVs."""
    paths = [example_csv_path(), *sorted(DATA.glob("*.csv"))]
    return {p.name: p for p in paths}


def cases() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (input file name, CLI flags other than --input)."""
    out = {}
    for name in inputs():
        for circuit in ("reduced", "full"):
            for mode in ("exact", "sampled"):
                for seed in (0, 1):
                    for t in range(1, 11):
                        out[f"{Path(name).stem}-{circuit}-{mode}-seed{seed}-t{t}"] = (name, [
                            "--backend", "both", "--emit-iterations", "--T", "3",
                            "--ae-circuit", circuit, "--mode", mode,
                            "--seed", str(seed), "--ae-bits", str(t),
                        ])
    return out


def run_case(name: str) -> tuple[dict, dict | None]:
    """The recorded form of case ``name`` (its digest, or its exit code and
    stderr line) and its canonical body as a tree, None if rejected."""
    input_name, flags = cases()[name]
    path = str(inputs()[input_name])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(["--input", path, *flags], out)
    if code:
        return {"exit": code, "stderr": err.getvalue().strip().replace(path, input_name)}, None
    doc = json.loads(out.getvalue())
    doc["config"]["input"] = input_name
    body = report.canonical_body(doc)
    return {"sha256": hashlib.sha256(body.encode()).hexdigest()}, json.loads(body)


def bodies_path(file: Path) -> Path:
    """Where ``--record FILE`` puts the bodies: FILE with suffix ``.bodies.xz``."""
    return file.with_suffix(".bodies.xz")


def record(file: Path, names) -> None:
    digests, bodies = {}, {}
    for name in names:
        digests[name], bodies[name] = run_case(name)
    write_record(file, digests, bodies)


def write_record(file: Path, digests: dict, bodies: dict) -> None:
    file.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    text = json.dumps(bodies, sort_keys=True, separators=(",", ":"))
    bodies_path(file).write_bytes(lzma.compress(text.encode(), preset=9))


def load_bodies(file: Path) -> dict:
    path = bodies_path(file)
    return json.loads(lzma.decompress(path.read_bytes())) if path.exists() else {}


def _leaves(tree, path="$"):
    """(path, value) of every leaf of a JSON tree, keys in sorted order."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], f"{path}.{key}")
    elif isinstance(tree, list):
        for i, item in enumerate(tree):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, tree


def describe_difference(got, want) -> str:
    """The first leaf where two canonical bodies differ, and the largest
    relative difference of the floats at paths both hold."""
    if got is None or want is None:
        return "one run was rejected and the other was not"
    new, old = list(_leaves(got)), list(_leaves(want))
    first = next(
        (f"{o[0]}: {o[1]!r} -> {n[1]!r}" if o[0] == n[0] else f"{o[0]} -> {n[0]}"
         for o, n in zip(old, new) if o != n or type(o[1]) is not type(n[1])),
        f"{len(old)} leaves -> {len(new)}",
    )
    olds = dict(old)
    worst = max(
        (abs(v - olds[p]) / max(abs(v), abs(olds[p]))
         for p, v in new if isinstance(v, float) and isinstance(olds.get(p), float) and v != olds[p]),
        default=0.0,
    )
    return f"first differing leaf {first}; largest relative float difference {worst:.3g}"


def compare(file: Path, names) -> list[str]:
    """One line per case of ``names`` whose run differs from its record in
    ``file`` (or has none), naming how it differs."""
    recorded, bodies, lines = json.loads(file.read_text()), None, []
    for name in names:
        got, body = run_case(name)
        if got == recorded.get(name):
            continue
        if name not in recorded:
            lines.append(f"{name}: not recorded")
            continue
        if bodies is None:
            bodies = load_bodies(file)
        if name in bodies:
            lines.append(f"{name}: {describe_difference(body, bodies[name])}")
        else:
            lines.append(f"{name}: {recorded[name]} -> {got}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--record", type=Path, metavar="FILE", help="write every digest to FILE")
    group.add_argument("--compare", type=Path, metavar="FILE", nargs="?", const=RECORDED,
                       help=f"check every digest against FILE (default {RECORDED.name})")
    args = parser.parse_args(argv)
    names = sorted(cases())
    if args.record:
        record(args.record, names)
        print(f"recorded {len(names)} cases in {args.record}")
        return 0
    if args.compare:
        lines = compare(args.compare, names)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(names)} cases differ from {args.compare}")
        return 1 if lines else 0
    for name in names:
        print(name, *run_case(name)[0].values())
    return 0


if __name__ == "__main__":
    sys.exit(main())
