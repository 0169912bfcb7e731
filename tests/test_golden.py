"""CLI reports against canonical bodies recorded from an earlier version.

``data/golden_reports.json`` holds, for each case, the CLI flags and the
report minus its wall-clock "timing" section.  A rerun must give the same
tree: floats within 1e-12, every other value exactly.  Under numpy 2 the
rerun must also give the same bytes: the body serialized with sorted keys
equals the recorded one as text, so a change in the last bit of any float
fails.  (numpy 1.x is not held to the bytes, as its FFT and summation may
round differently.)  The cases are the
shipped six-sample example (both backends, per-iteration logs, exact and
sampled mode, random and round-robin picks, seeds 0-1, 6 readout bits; exact
mode at 1 and 10 readout bits), a four-sample, two-feature input through the
``full`` amplitude-estimation circuit at 3 and 4 readout bits (and, exact mode
only, at 1 and 8), and an eight-sample, four-feature input through the
``full`` circuit at 6 readout bits and 2 iterations.  Three cases run the
default circuit on continuous data made as the benchmark makes its inputs
(:func:`continuous_csv`): 16 samples of 8 features (2 iterations, 6 readout
bits, exact and sampled), 8 of 4 (1 iteration, 10 bits) and 32 of 8 (1
iteration, 6 bits, on 21-qubit swap-test composites).

Re-record only after a deliberate change of results, and only the cases it
changes:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

rewrites the named cases and leaves every other one byte for byte; with no
name it re-records every case.
"""

import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from qrelieff.cli import example_csv_path, run_cli

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_reports.json"
FLOAT_TOL = 1e-12
# (samples, features) of each continuous-data input
CONTINUOUS = ((16, 8), (8, 4), (32, 8))


def continuous_csv(m: int, n: int) -> str:
    """m samples of n features, each ``random.Random(1).random() + 0.01``
    in turn, in two alternating classes: the benchmark's input of that
    shape."""
    rng = random.Random(1)
    lines = [",".join(f"F{i}" for i in range(n)) + ",class"]
    for r in range(m):
        values = ",".join(repr(rng.random() + 0.01) for _ in range(n))
        lines.append(f"{values},c{r % 2}")
    return "\n".join(lines) + "\n"


def _continuous_name(m: int, n: int) -> str:
    return f"continuous_{m}x{n}"


def _cases() -> dict[str, tuple[str, list[str]]]:
    """name -> (input file name, CLI flags other than --input)."""
    cases = {}
    for mode in ("exact", "sampled"):
        for pick in ("random", "round-robin"):
            for seed in (0, 1):
                cases[f"example6-{mode}-{pick}-seed{seed}"] = ("example6.csv", [
                    "--backend", "both", "--emit-iterations", "--mode", mode,
                    "--pick", pick, "--seed", str(seed), "--ae-bits", "6",
                ])
        for t in (3, 4):
            suffix = "" if t == 3 else f"-t{t}"
            cases[f"four_by_two-full-{mode}{suffix}"] = ("four_by_two.csv", [
                "--backend", "both", "--emit-iterations", "--mode", mode,
                "--ae-circuit", "full", "--ae-bits", str(t),
            ])
        cases[f"eight_by_four-full-{mode}"] = ("eight_by_four.csv", [
            "--backend", "both", "--emit-iterations", "--mode", mode,
            "--ae-circuit", "full", "--ae-bits", "6", "--T", "2",
        ])
    for t in (1, 10):
        cases[f"example6-exact-t{t}"] = ("example6.csv", [
            "--backend", "both", "--emit-iterations", "--mode", "exact",
            "--pick", "random", "--seed", "0", "--ae-bits", str(t),
        ])
    for t in (1, 8):
        cases[f"four_by_two-full-exact-t{t}"] = ("four_by_two.csv", [
            "--backend", "both", "--emit-iterations", "--mode", "exact",
            "--ae-circuit", "full", "--ae-bits", str(t),
        ])
    for (m, n), modes, iterations, t in (
        ((16, 8), ("exact", "sampled"), 2, 6),
        ((8, 4), ("exact",), 1, 10),
        ((32, 8), ("exact",), 1, 6),
    ):
        for mode in modes:
            cases[f"{_continuous_name(m, n)}-{mode}-T{iterations}-t{t}"] = (
                f"{_continuous_name(m, n)}.csv", [
                    "--backend", "both", "--emit-iterations", "--mode", mode,
                    "--T", str(iterations), "--ae-bits", str(t), "--seed", "1",
                ])
    return cases


def _body(input_name: str, flags: list[str]) -> dict:
    """The report of one CLI run minus "timing", its input path replaced by
    the file name so the body does not depend on where the checkout lives."""
    path = example_csv_path() if input_name == "example6.csv" else DATA / input_name
    out = io.StringIO()
    code = run_cli(["--input", str(path), *flags], out)
    assert code == 0, f"exit code {code}"
    doc = json.loads(out.getvalue())
    del doc["timing"]
    doc["config"]["input"] = input_name
    return doc


def assert_same_tree(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same_tree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_tree(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("m, n", CONTINUOUS, ids=lambda v: str(v))
def test_continuous_inputs_are_generated(m, n):
    assert (DATA / f"{_continuous_name(m, n)}.csv").read_text() == continuous_csv(m, n)


def test_every_case_is_recorded():
    assert sorted(GOLDEN_CASES) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_report_matches_recorded_body(name):
    input_name, flags = _cases()[name]
    case = GOLDEN_CASES[name]
    assert (case["input"], case["flags"]) == (input_name, flags)
    assert_same_tree(_body(input_name, flags), case["body"])


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="bodies recorded under numpy 2"
)
@pytest.mark.parametrize("name", sorted(_cases()))
def test_report_is_byte_identical_to_recorded_body(name):
    case = GOLDEN_CASES[name]
    got = _body(case["input"], case["flags"])
    assert json.dumps(got, sort_keys=True) == json.dumps(case["body"], sort_keys=True)


def test_tree_walk_tolerates_only_float_rounding():
    assert_same_tree({"w": [0.5, 1]}, {"w": [0.5 + 1e-13, 1]})
    for got in ({"w": [0.5 + 1e-11, 1]}, {"w": [0.5, 1.0]}, {"w": [0.5]}, {"v": [0.5, 1]}):
        with pytest.raises(AssertionError):
            assert_same_tree(got, {"w": [0.5, 1]})


def record(names=(), golden=GOLDEN):
    """Re-run the named cases, or every case if none is named, into the
    ``golden`` file; every other recorded case keeps its bytes."""
    cases = _cases()
    unknown = sorted(set(names) - set(cases))
    if unknown:
        raise SystemExit(f"unknown golden case: {', '.join(unknown)}")
    recorded = json.loads(golden.read_text()) if names else {}
    for name in names or cases:
        input_name, flags = cases[name]
        recorded[name] = {"input": input_name, "flags": flags, "body": _body(input_name, flags)}
    golden.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")


def test_record_rewrites_only_the_named_cases(tmp_path):
    recorded = GOLDEN.read_text()
    copy = tmp_path / "golden.json"
    stale = json.loads(recorded)
    name = "four_by_two-full-exact-t1"
    stale[name]["body"]["config"]["seed"] = -1
    copy.write_text(json.dumps(stale, sort_keys=True, indent=1) + "\n")
    record([name], copy)
    assert copy.read_text() == recorded
    with pytest.raises(SystemExit, match="unknown golden case: no-such-case"):
        record(["no-such-case"], copy)


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
