"""End-to-end benchmark of the qrelieff CLI.

    python3 perfbench/run.py --workload sim_wide --seed 1 --seconds 30 --trace 0

Every operation is one run of the real CLI in a fresh single-threaded
interpreter, one at a time, on inputs generated from ``--seed``.  Each output
is checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run (see ``child.py``) and the tracing overhead.  The workloads, the
metrics and the checks are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SCHEMA = SRC / "qrelieff" / "data" / "report_schema.json"
EXAMPLE_CSV = SRC / "qrelieff" / "data" / "example6.csv"

PIPELINE_FLAGS = [
    "--backend", "both", "--mode", "exact", "--ae-circuit", "reduced",
    "--k", "1", "--pick", "random", "--emit-iterations",
]
# (samples M, features N, iterations T, AE readout bits t) of each pipeline
# workload; program3 has no generated input.
WORKLOADS = {
    "sim_wide": (16, 8, 2, 6),  # swap tests on 19-qubit composites dominate
    "ae_deep": (8, 4, 1, 10),   # 10-bit amplitude estimation dominates
    "program3": None,           # 20-qubit gate kernel, no pipeline
}
SETUP_PROBES = 7   # at least this many set-up probes per untraced run
MIN_RUNS = 3       # untraced CLI runs per measurement, whatever --seconds says
CHILD_ENV = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Per-layer values that must repeat exactly across traced runs of one input.
EXACT_METRICS = [
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "qubits")
]
# The child's own clock stops before interpreter teardown; this much of the
# parent-measured wall time may lie outside it.
TRACE_SLACK_S = 0.25
# Rounding allowed when span self times and uncovered time are summed.
TRACE_SUM_TOLERANCE_S = 1e-3


class CheckFailed(Exception):
    pass


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn(argv, stdout_path: Path) -> dict:
    """Run one child to completion; its wall time, CPU time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        spawn_ns = _now_ns()
        argv = [sys.executable] + [a.replace("{spawn_ns}", str(spawn_ns)) for a in argv]
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end_ns = _now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "spawn_ns": spawn_ns,
        "run_s": (end_ns - spawn_ns) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_dataset(path: Path, m: int, n: int, seed: int):
    """Uniform[0,1) + 0.01 features, two balanced classes with alternating labels."""
    rng = random.Random(seed)
    lines = [",".join(f"F{i}" for i in range(n)) + ",class"]
    for r in range(m):
        values = ",".join(repr(rng.random() + 0.01) for _ in range(n))
        lines.append(f"{values},c{r % 2}")
    path.write_text("\n".join(lines) + "\n")


def cli_seed(seed: int, m: int, t_iter: int) -> int:
    """The first CLI seed from ``1000 * seed`` whose T random picks are all
    different samples, so that no workload seed repeats a similarity table."""
    sys.path.insert(0, str(SRC))
    from qrelieff.relieff import RunConfig, pick_sequence
    from qrelieff.rng import RngStream

    cfg = RunConfig(T=t_iter)
    for s in range(1000 * seed, 1000 * seed + 1000):
        if len(set(pick_sequence(cfg, m, RngStream(s)))) == t_iter:
            return s
    raise CheckFailed(f"no CLI seed near {1000 * seed} gives {t_iter} distinct picks")


def cli_args(workload: str, seed: int, csv_path: Path) -> list[str]:
    if WORKLOADS[workload] is None:
        return ["--reproduce-program3", "--shots", "1024", "--seed", str(seed)]
    m, _, t_iter, ae_bits = WORKLOADS[workload]
    return ["--input", str(csv_path), *PIPELINE_FLAGS, "--T", str(t_iter),
            "--ae-bits", str(ae_bits), "--seed", str(cli_seed(seed, m, t_iter))]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def canonical_hash(doc: dict) -> str:
    body = {k: v for k, v in doc.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def check_neighbors(doc: dict, k: int):
    """Grover neighbors equal the top-k under (quantized value desc, index asc)
    over each iteration's similarity log."""
    section = doc["results"]["quantum"]
    if len(section["iterations"]) != len(section["similarity_log"]):
        raise CheckFailed("one similarity log per iteration expected")
    for it, table in zip(section["iterations"], section["similarity_log"]):
        if it["picked"] != table["picked"]:
            raise CheckFailed("iteration and similarity log disagree on the pick")
        expect_hits, expect_misses = [], {}
        for c, recs in table["classes"].items():
            own = any(r["excluded"] for r in recs)
            cands = sorted(
                (r for r in recs if not r["excluded"]),
                key=lambda r: (-r["s_quantized"], r["sample"]),
            )
            chosen = [r["sample"] for r in cands[:k]]
            if own:
                expect_hits = chosen
            else:
                expect_misses[c] = chosen
        nb = it["neighbors"]
        if nb["hits"] != expect_hits or nb["misses"] != expect_misses:
            raise CheckFailed(
                f"iteration picking {it['picked']}: neighbors {nb} differ from "
                f"top-{k} hits {expect_hits}, misses {expect_misses}"
            )


def check_program3(doc: dict):
    p, runs, shots = doc["exact_p1"], doc["run_means"], doc["shots"]
    if not 0.0 < p < 1.0 or len(runs) != doc["runs"] or shots != 1024:
        raise CheckFailed(f"malformed program3 document: {doc}")
    if abs(doc["sampled_mean"] - sum(runs) / len(runs)) > 1e-12:
        raise CheckFailed("program3 sampled mean is not the mean of its runs")
    sigma = math.sqrt(p * (1.0 - p) / (shots * len(runs)))
    if abs(doc["sampled_mean"] - p) > 6.0 * sigma:
        raise CheckFailed(f"program3 sampled mean {doc['sampled_mean']} is >6 sigma from {p}")


class OutputChecker:
    """Checks each CLI run's output; every run of one input must agree."""

    def __init__(self, workload: str):
        self.pipeline = WORKLOADS[workload] is not None
        self.reference = None
        self.validator = None
        if self.pipeline:
            import jsonschema

            schema = json.loads(SCHEMA.read_text())
            self.validator = jsonschema.Draft7Validator(schema)

    def check(self, result: dict, stdout_path: Path) -> dict:
        if result["exit_code"] != 0:
            err = stdout_path.with_suffix(".err").read_text()[-2000:]
            raise CheckFailed(f"exit code {result['exit_code']}: {err}")
        doc = json.loads(stdout_path.read_text())
        if self.pipeline:
            errors = sorted(e.message for e in self.validator.iter_errors(doc))
            if errors:
                raise CheckFailed(f"report fails the schema: {errors[:3]}")
            check_neighbors(doc, int(doc["config"]["k"]))
            key = canonical_hash(doc)
        else:
            check_program3(doc)
            key = hashlib.sha256(stdout_path.read_bytes()).hexdigest()
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            raise CheckFailed("output differs from the first run of this seed")
        return doc


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_probe(csv_path: Path | None) -> float:
    """Set-up time of a fresh interpreter: import plus parse and normalize."""
    argv = [str(HERE / "child.py"), "setup", "{spawn_ns}"]
    if csv_path is not None:
        argv.append(str(csv_path))
    out = WORK / "setup.out"
    res = _spawn(argv, out)
    if res["exit_code"] != 0:
        raise CheckFailed(f"set-up probe failed: {out.with_suffix('.err').read_text()}")
    return (int(out.read_text().strip()) - res["spawn_ns"]) / 1e9


def run_traced(args: list[str], out: Path) -> tuple[dict, dict]:
    trace_path = out.with_suffix(".trace.json")
    res = _spawn([str(HERE / "child.py"), "trace", "{spawn_ns}", str(trace_path), *args], out)
    if res["exit_code"] != 0:
        return res, {}
    trace = json.loads(trace_path.read_text())
    metrics = trace["metrics"]
    # other.self_s is measured on its own, from the edges of the top-level
    # spans, so this sum tests the span stack's self-time arithmetic.
    spans = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k != "other.self_s")
    covered = spans + metrics["other.self_s"]
    if abs(covered - trace["total_s"]) > TRACE_SUM_TOLERANCE_S:
        raise CheckFailed(
            f"span self times ({spans:.4f} s) plus other.self_s "
            f"({metrics['other.self_s']:.4f} s) do not add up to the child's "
            f"wall time ({trace['total_s']:.4f} s)"
        )
    if not 0 <= res["run_s"] - trace["total_s"] <= TRACE_SLACK_S:
        raise CheckFailed(
            f"the child's wall time ({trace['total_s']:.4f} s) is not within "
            f"{TRACE_SLACK_S} s below the traced run_s ({res['run_s']:.4f} s)"
        )
    return res, metrics


def counter_selftest(seed: int):
    """Traced counts on the shipped example equal their closed forms."""
    rows = EXAMPLE_CSV.read_text().split()
    header, labels = rows[0].split(","), [r.rsplit(",", 1)[1] for r in rows[1:]]
    m, n, p, t_iter = len(labels), len(header) - 1, len(set(labels)), 4
    args = ["--input", str(EXAMPLE_CSV), "--backend", "quantum", "--pick", "round-robin",
            "--k", "1", "--T", str(t_iter), "--seed", str(seed)]
    res, got = run_traced(args, WORK / "selftest.out")
    if res["exit_code"] != 0:
        raise CheckFailed(f"counter self-test exited {res['exit_code']}")
    feature_bits, sample_bits = (max(1, math.ceil(math.log2(v))) for v in (n, m))
    got["circuits.ae.hits+misses"] = (
        got.get("circuits.ae.cache_hits", 0) + got.get("circuits.ae.cache_misses", 0)
    )
    want = {
        "circuits.swap_test.calls": t_iter * m,
        "circuits.ae.calls": t_iter * m,
        "circuits.ae.hits+misses": t_iter * m,
        "circuits.extreme.calls": t_iter * p,
        "relieff.update_weights.calls": t_iter,
        "statevector.widest_qubits": 2 * (2 + feature_bits + sample_bits) + 1,
    }
    wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    if wrong:
        raise CheckFailed(f"counter self-test (got, want): {wrong}")


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool):
    WORK.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload]
    csv_path = None
    if spec is not None:
        csv_path = WORK / f"{workload}.csv"
        write_dataset(csv_path, spec[0], spec[1], seed)
    args = cli_args(workload, seed, csv_path)
    checker = OutputChecker(workload)
    attempted = failed = 0
    samples = {name: [] for name in END_TO_END_UNITS}
    setup_probe(csv_path)  # fills the bytecode caches; not timed
    traced_runs, traced_layers, agreement = [], [], []

    def operation(fn):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn()
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            failed += 1
            print(f"# failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def untraced():
        out = WORK / f"{workload}.out"
        res = _spawn(["-m", "qrelieff.cli", *args], out)
        doc = checker.check(res, out)
        for name in ("run_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(res[name])
        if "agreement" in doc:
            per_iter = doc["agreement"]["neighbors_per_iteration"]
            agreement.append(sum(per_iter) / len(per_iter))
        return res

    def traced():
        out = WORK / f"{workload}.trace.out"
        res, layers = run_traced(args, out)
        checker.check(res, out)
        if traced_layers:
            moved = [k for k in EXACT_METRICS
                     if layers.get(k, 0) != traced_layers[0].get(k, 0)]
            if moved:
                raise CheckFailed(f"counts differ between traced runs: {moved}")
        traced_runs.append(res["run_s"])
        traced_layers.append(layers)

    if trace:
        operation(lambda: counter_selftest(seed))
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        if trace:
            operation(untraced)
            operation(traced)
        else:
            # set-up probes are spread over the run, as host noise comes in bursts
            samples["setup_s"].append(setup_probe(csv_path))
            operation(untraced)
        now = time.monotonic()
        if now + (now - started) > deadline:
            # past twice the budget, stop even short of the minimum run count
            if len(samples["run_s"]) >= (1 if trace else MIN_RUNS) or now > deadline + seconds:
                break

    while not trace and len(samples["setup_s"]) < SETUP_PROBES:
        samples["setup_s"].append(setup_probe(csv_path))

    env = environment(workload, seed, seconds, int(trace))
    print("# env " + json.dumps(env, sort_keys=True))
    if trace:
        metrics = {}
        for name in PER_LAYER_UNITS:
            values = [layer.get(name, 0) for layer in traced_layers]
            metrics[name] = values[0] if name in EXACT_METRICS and values else median(values)
        metrics["pipeline.oracle_agree_frac"] = median(agreement)
        metrics["trace.run_s"] = median(traced_runs)
        metrics["trace.overhead_s"] = median(traced_runs) - median(samples["run_s"])
        units = PER_LAYER_UNITS
        counts = {"traced": len(traced_runs), "untraced": len(samples["run_s"])}
    else:
        metrics = {name: median(values) for name, values in samples.items()}
        units = END_TO_END_UNITS
        counts = {name: len(values) for name, values in samples.items()}
        print(f"# raw {json.dumps(samples, sort_keys=True)}")
    print(f"# samples {json.dumps(counts, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qrelieff" / "cli.py").is_file():
        print(f"error: no qrelieff sources under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
