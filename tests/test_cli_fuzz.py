"""The command line on generated inputs: small CSV texts, clean or with
negative, non-finite, empty and text cells and values near the ends of the
float range (1e200, 1e-200), under generated flag sets.

Whatever the input, ``run_cli`` must return 0, 2, 3 or 4, never 5 (an
internal error) and never raise: every input fault is a configuration, data
or capacity error.  An error must be one stderr line with the one prefix its
exit code documents; a report must validate against the schema, and a second
run must give the same canonical body.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrelieff.cli import run_cli
from qrelieff.report import canonical_body, schema

jsonschema = pytest.importorskip("jsonschema")

# the stderr prefixes of each error exit code (cli.py's docstring)
PREFIXES = {
    2: ("configuration error: ",),
    3: ("data error: ",),
    4: ("capacity error: ",),
}

CLEAN_CELLS = ("0.01", "0.5", "1", "2", "3", "7.25", "9.99")
ODD_CELLS = (
    "0", "-1.5", "-0.25", "nan", "inf", "-inf", "", "  ", "abc", "1e400", "1e200", "1e-200",
)


def _rng(draw) -> random.Random:
    """Hypothesis draws only the seed: its own draws favour the ends of each
    range (one class, T = 0), and the fuzz wants mostly runnable inputs."""
    return random.Random(draw(st.integers(0, 2**32 - 1)))


@st.composite
def csv_texts(draw):
    """2-12 rows of 1-8 features and 1-4 classes.  Three texts in four hold
    positive numbers only, in 2-4 classes that take the rows in turn, at
    least two rows each; the others mix in zero, negative, non-finite, empty
    and text cells, and draw each row's class."""
    rng = _rng(draw)
    n_features = rng.randint(1, 8)
    clean = rng.random() < 0.75
    n_classes = rng.randint(2, 4) if clean else rng.randint(1, 4)
    n_rows = rng.randint(2 * n_classes if clean else 2, 12)
    lines = [",".join([*(f"F{i}" for i in range(n_features)), "class"])]
    for r in range(n_rows):
        values = [
            rng.choice(CLEAN_CELLS if clean or rng.random() < 0.8 else ODD_CELLS)
            for _ in range(n_features)
        ]
        label = r % n_classes if clean else rng.randrange(n_classes)
        lines.append(",".join([*values, f"c{label}"]))
    return "\n".join(lines) + "\n"


@st.composite
def flag_sets(draw):
    """Flags of every option that shapes a run; one value in ten of
    ``--k``, ``--T`` and ``--shots`` is out of range: 0, or for ``--shots``
    0 or 2**63, one past the largest count numpy draws.  The ``full`` circuit
    reads at most 4 bits: at 10 bits on 8 features it estimates with 20
    readout qubits, seconds per run."""
    rng = _rng(draw)
    circuit = rng.choice(["reduced", "full"])
    flags = {
        "--backend": rng.choice(["classical", "quantum", "both"]),
        "--mode": rng.choice(["exact", "sampled"]),
        "--ae-circuit": circuit,
        "--ae-bits": rng.randint(1, 10 if circuit == "reduced" else 4),
        "--k": rng.randint(1, 3),
        "--T": rng.randint(1, 2),
        "--pick": rng.choice(["random", "round-robin"]),
        "--order": rng.choice(["max", "min"]),
        "--shots": rng.choice([1, 7, 64]),
        "--seed": rng.randint(0, 3),
    }
    for name in ("--k", "--T", "--shots"):
        if rng.random() < 0.1:
            flags[name] = rng.choice([0, 2**63]) if name == "--shots" else 0
    emit = ["--emit-iterations"] if rng.random() < 0.5 else []
    return [*(str(v) for item in flags.items() for v in item), *emit]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv, out)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), flags=flag_sets())
def test_cli_exits_with_a_documented_code_on_any_input(tmp_path, text, flags):
    path = tmp_path / "input.csv"
    path.write_text(text)
    argv = ["--input", str(path), *flags]
    code, out, err = _run(argv)
    assert code in (0, *PREFIXES), (code, err)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith(PREFIXES[code]), err
        assert out == ""
        return
    report = json.loads(out)
    jsonschema.validate(report, schema())
    again = _run(argv)
    assert again[0] == 0
    assert canonical_body(json.loads(again[1])) == canonical_body(report)
