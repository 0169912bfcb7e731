"""Digests of the CLI's canonical report bodies over a fixed case list, to
show that a change leaves every report byte as it was.

The cases run ``example6.csv`` and every CSV under ``tests/data/`` through
:func:`qrelieff.cli.run_cli` with ``--backend both --emit-iterations``.  A
grid runs each input at ``--T 3``, at 1 to 10 readout bits, seeds 0 and 1,
exact and sampled mode, and the ``reduced`` and ``full`` amplitude-estimation
circuits.  :data:`LISTED_CASES` adds 22 runs off that grid: round-robin
picks, 1, 2 and 4 iterations, and the ``full`` circuit on ``four_by_two`` at
8 readout bits.  Each case gives the sha256 of ``report.canonical_body``
with ``config.input`` reduced to the file's name, so the digest does not
depend on where the checkout lives.  A case the CLI rejects gives its exit
code and its stderr line instead.  The ``continuous_*`` inputs are made by
:func:`continuous_csv`.

    PYTHONPATH=src python tests/canonical_digests.py                 # print each digest
    PYTHONPATH=src python tests/canonical_digests.py --record FILE   # write them
    PYTHONPATH=src python tests/canonical_digests.py --compare FILE  # check them

``--record`` also writes the bodies themselves, xz-compressed, beside FILE
(:func:`bodies_path`), and ``--compare`` reads them to name, for each
differing case, its first differing leaf and the largest relative difference
of its floats.  After the cases it prints one line per class of differing
leaves (:func:`leaf_class`) with their count over all cases and their
largest relative float difference.  ``--compare`` exits 1 if any case
differs.  The digests in ``tests/data/canonical_digests.json`` were recorded
under numpy 2; numpy 1.x may round the readouts differently.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import lzma
import random
import re
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


# name -> CLI flags after --backend both --emit-iterations; the input is the
# CSV that the name starts with, as in the grid
LISTED_CASES = {
    "continuous_16x8-exact-T2-t6": "--mode exact --T 2 --ae-bits 6 --seed 1",
    "continuous_16x8-sampled-T2-t6": "--mode sampled --T 2 --ae-bits 6 --seed 1",
    "continuous_32x8-exact-T1-t6": "--mode exact --T 1 --ae-bits 6 --seed 1",
    "continuous_8x4-exact-T1-t10": "--mode exact --T 1 --ae-bits 10 --seed 1",
    "eight_by_four-full-exact": "--mode exact --ae-circuit full --ae-bits 6 --T 2",
    "eight_by_four-full-sampled": "--mode sampled --ae-circuit full --ae-bits 6 --T 2",
    "example6-exact-random-seed0": "--mode exact --pick random --seed 0 --ae-bits 6",
    "example6-exact-random-seed1": "--mode exact --pick random --seed 1 --ae-bits 6",
    "example6-exact-round-robin-seed0": "--mode exact --pick round-robin --seed 0 --ae-bits 6",
    "example6-exact-round-robin-seed1": "--mode exact --pick round-robin --seed 1 --ae-bits 6",
    "example6-exact-t1": "--mode exact --pick random --seed 0 --ae-bits 1",
    "example6-exact-t10": "--mode exact --pick random --seed 0 --ae-bits 10",
    "example6-sampled-random-seed0": "--mode sampled --pick random --seed 0 --ae-bits 6",
    "example6-sampled-random-seed1": "--mode sampled --pick random --seed 1 --ae-bits 6",
    "example6-sampled-round-robin-seed0": "--mode sampled --pick round-robin --seed 0 --ae-bits 6",
    "example6-sampled-round-robin-seed1": "--mode sampled --pick round-robin --seed 1 --ae-bits 6",
    "four_by_two-full-exact": "--mode exact --ae-circuit full --ae-bits 3",
    "four_by_two-full-exact-t1": "--mode exact --ae-circuit full --ae-bits 1",
    "four_by_two-full-exact-t4": "--mode exact --ae-circuit full --ae-bits 4",
    "four_by_two-full-exact-t8": "--mode exact --ae-circuit full --ae-bits 8",
    "four_by_two-full-sampled": "--mode sampled --ae-circuit full --ae-bits 3",
    "four_by_two-full-sampled-t4": "--mode sampled --ae-circuit full --ae-bits 4",
}


def continuous_csv(m: int, n: int) -> str:
    """m samples of n features, each ``random.Random(1).random() + 0.01``
    in turn, in two alternating classes: ``continuous_{m}x{n}.csv``, the
    benchmark's input of that shape."""
    rng = random.Random(1)
    lines = [",".join(f"F{i}" for i in range(n)) + ",class"]
    for r in range(m):
        values = ",".join(repr(rng.random() + 0.01) for _ in range(n))
        lines.append(f"{values},c{r % 2}")
    return "\n".join(lines) + "\n"


def cases() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (input file name, CLI flags other than --input): the
    grid, then :data:`LISTED_CASES`."""
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
    for name, flags in LISTED_CASES.items():
        out[name] = (f"{name.split('-')[0]}.csv",
                     ["--backend", "both", "--emit-iterations", *flags.split()])
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


def _differing_leaves(got, want) -> dict[str, float]:
    """Path -> relative difference of each leaf where two canonical bodies
    differ: in value, in type, or by being in one body only.  Only a float
    held at the path in both bodies has a relative difference; any other
    leaf has 0.0."""
    new, old = dict(_leaves(got)), dict(_leaves(want))
    out = {}
    for path in new.keys() | old.keys():
        n, o = new.get(path), old.get(path)
        if path in new and path in old and n == o and type(n) is type(o):
            continue
        floats = isinstance(n, float) and isinstance(o, float)
        out[path] = abs(n - o) / max(abs(n), abs(o)) if floats else 0.0
    return out


def leaf_class(path: str) -> str:
    """``path`` with list indices collapsed to ``[]`` and the class ids under
    ``classes`` and ``misses`` to ``c``, so that, say, every similarity
    reading falls in ``$.results.quantum.similarity_log[].classes.c[].s_raw``."""
    return re.sub(r"\.(classes|misses)\.\d+", r".\1.c", re.sub(r"\[\d+\]", "[]", path))


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
    worst = max(_differing_leaves(got, want).values(), default=0.0)
    return f"first differing leaf {first}; largest relative float difference {worst:.3g}"


def compare(file: Path, names, classes: dict | None = None) -> list[str]:
    """One line per case of ``names`` whose run differs from its record in
    ``file`` (or has none), naming how it differs.  Each leaf that differs
    from a recorded body is also counted in ``classes``, if given, under its
    :func:`leaf_class`: class -> (count, largest relative float difference)."""
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
        if name not in bodies:
            lines.append(f"{name}: {recorded[name]} -> {got}")
            continue
        lines.append(f"{name}: {describe_difference(body, bodies[name])}")
        if classes is not None and body is not None and bodies[name] is not None:
            for path, relative in _differing_leaves(body, bodies[name]).items():
                count, worst = classes.get(leaf_class(path), (0, 0.0))
                classes[leaf_class(path)] = (count + 1, max(worst, relative))
    return lines


def summary(classes: dict) -> list[str]:
    """One line per class of differing leaves that :func:`compare` counted."""
    return [
        f"leaf class {name}: {count} differ; largest relative float difference {worst:.3g}"
        for name, (count, worst) in sorted(classes.items())
    ]


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
        classes = {}
        lines = compare(args.compare, names, classes)
        for line in lines + summary(classes):
            print(line)
        print(f"{len(lines)} of {len(names)} cases differ from {args.compare}")
        return 1 if lines else 0
    for name in names:
        print(name, *run_case(name)[0].values())
    return 0


if __name__ == "__main__":
    sys.exit(main())
