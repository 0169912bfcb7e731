"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL verdict line (bypassing output capture)
with its tolerance, then asserts.  Published reference numbers that are not
reproducible from the construction itself are echoed for comparison only.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from qrelieff import (
    PipelineConfig,
    RngStream,
    RunConfig,
    amplitude_estimate,
    cmp_flag,
    encode_sample,
    fold_distribution,
    grover_plan,
    grover_search_state,
    normalize,
    qrelieff_run,
    quantum_extreme_search,
    reduced_preparation,
    relieff_run,
    swap_flag,
    swap_test,
)
from qrelieff.cli import example_csv_path, load_csv, run_cli
from qrelieff.program3 import reproduce_program3
from qrelieff.report import canonical_body

from conftest import random_binary_dataset, random_unit_vector
from reference_kernels import basis_state
from test_circuits import encoded_closed_form


def _verdict(ok: bool, label: str):
    sys.__stdout__.write(f"[{'PASS' if ok else 'FAIL'}] {label}\n")
    sys.__stdout__.flush()
    assert ok, label


def test_criterion_1_cmp_exhaustive():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for bound in range(1, (1 << n) + 1):
            for i in range(1 << n):
                out = cmp_flag(basis_state(n + 1, i), range(n), bound, n)
                ok &= (out.probability_one(n) > 0.5) == (i >= bound)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(ok, f"criterion 1: comparator flag exact for all n <= 5 ({elapsed:.2f}s < 1s)")


def test_criterion_2_encoding_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        v = random_unit_vector(rng, n)
        state = encode_sample(v)
        worst = max(worst, np.max(np.abs(state.amplitudes - encoded_closed_form(v))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _verdict(
        ok,
        f"criterion 2: encoding matches closed form on 200 random vectors "
        f"(worst {worst:.2e} < 1e-10, {elapsed:.2f}s < 5s)",
    )


def test_criterion_3_swap_test_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_p1, worst_s = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = random_unit_vector(rng, n)
        v = random_unit_vector(rng, n)
        p1 = swap_test(swap_flag(encode_sample(u)), encode_sample(v))
        dot = float(np.dot(u, v))
        worst_p1 = max(worst_p1, abs(p1 - (0.5 - 0.5 * (dot / n) ** 2)))
        worst_s = max(worst_s, abs((1.0 - 2.0 * p1) * n**2 - dot**2))
    elapsed = time.perf_counter() - start
    ok = worst_p1 < 1e-10 and worst_s < 1e-9 and elapsed < 30.0
    _verdict(
        ok,
        f"criterion 3: swap-test P(1) identity (worst {worst_p1:.2e} < 1e-10) and "
        f"similarity recovery (worst {worst_s:.2e} < 1e-9) on 100 pairs ({elapsed:.1f}s < 30s)",
    )


def test_criterion_4_grover_long_success():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 1.0
    for n in range(1, 5):
        for marked in range(1, (1 << n) + 1):
            mask = np.zeros(1 << n, dtype=bool)
            mask[rng.choice(1 << n, size=marked, replace=False)] = True
            plan = grover_plan(n, marked)
            state = grover_search_state(plan, mask)
            worst = min(worst, float(np.sum(np.abs(state.amplitudes[mask]) ** 2)))
    elapsed = time.perf_counter() - start
    ok = worst >= 0.999 and elapsed < 10.0
    _verdict(
        ok,
        f"criterion 4: phase-matched search success >= 0.999 for all n <= 4 "
        f"(worst {worst:.12f}, {elapsed:.2f}s < 10s)",
    )


def test_criterion_5_amplitude_estimation_bound():
    start = time.perf_counter()
    t = 6
    grid = 1 << t
    ok = True
    details = []
    for a in (0.0, 1.0 / 16, 0.25, 0.5, 0.75, 1.0):
        dist = amplitude_estimate(reduced_preparation(a), t)
        folded = fold_distribution(dist)
        exact = math.asin(math.sqrt(a)) * grid / math.pi
        lo = min(int(math.floor(exact)), grid // 2)
        hi = min(int(math.ceil(exact)), grid // 2)
        mass = folded[lo] if lo == hi else folded[lo] + folded[hi]
        ok &= mass >= 8 / math.pi**2
        if abs(exact - round(exact)) < 1e-9:  # a sits exactly on the grid
            ok &= mass >= 0.999
        details.append(f"a={a:g}:{mass:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(
        ok,
        "criterion 5: t=6 estimation mass >= 8/pi^2 ~ 0.81 on the two nearest "
        f"grid points, >= 0.999 when grid-aligned ({', '.join(details)}; {elapsed:.2f}s < 10s)",
    )


def test_criterion_6_extreme_search_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    stream = RngStream(66)
    trials = 0
    ok = True
    for direction in ("min", "max"):
        sign = 1 if direction == "min" else -1
        for pop in range(1, 17):
            for k in range(1, min(4, pop) + 1):
                for rep in range(50):
                    values = [int(v) for v in rng.integers(0, 64, size=pop)]
                    expected = sorted(
                        range(pop), key=lambda i: (sign * values[i], i)
                    )[:k]
                    got = quantum_extreme_search(
                        values, k, direction, stream.substream(trials)
                    )
                    ok &= got == expected
                    trials += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _verdict(
        ok,
        f"criterion 6: quantum extreme search equals classical top-k on "
        f"{trials} instances ({elapsed:.1f}s < 60s)",
    )


def test_criterion_7_worked_example():
    start = time.perf_counter()
    ds, _ = load_csv(example_csv_path())
    nd, stats = normalize(ds)
    ccfg = RunConfig(T=4, k=1, tau=0.5, pick_policy="round-robin", neighbor_order="max")
    qcfg = PipelineConfig(
        T=4, k=1, tau=0.5, pick_policy="round-robin", neighbor_order="max",
        mode="exact", ae_bits=6,
    )
    classical = relieff_run(nd, ccfg, RngStream(0), stats)
    quantum = qrelieff_run(nd, qcfg, RngStream(0), stats)
    ok = classical.selected(0.5) == [0, 1, 2]
    ok &= quantum.selected(0.5) == [0, 1, 2]
    for result in (classical, quantum):
        w = result.average_weights
        ok &= float(w[:3].min()) > float(w[3:].max())
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    for result, name in ((classical, "classical"), (quantum, "quantum")):
        rows = [
            "[" + " ".join(f"{v:g}" for v in rec.weights_after) + "]"
            for rec in result.iterations
        ]
        sys.__stdout__.write(f"       {name} iteration rows: {'; '.join(rows)}\n")
    sys.__stdout__.write(
        "       published iteration rows (reference only, not asserted): "
        "[1 1 1 0 0 -1]; [2 2 2 -1 0 -1]; [3 3 3 -1 0 -2]; [4 4 4 -2 0 -2]\n"
    )
    _verdict(
        ok,
        "criterion 7: both backends select exactly {F0, F1, F2} on the worked "
        f"example and F0..F2 weights strictly exceed F3..F5 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_8_backend_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    for case in range(20):
        ds = random_binary_dataset(
            rng, m=int(rng.integers(6, 9)), n=int(rng.integers(4, 9)), p=3
        )
        nd, stats = normalize(ds)
        seed = 1000 + case
        ccfg = RunConfig(T=4, k=1, pick_policy="random")
        qcfg = PipelineConfig(T=4, k=1, pick_policy="random", ae_bits=8)
        classical = relieff_run(nd, ccfg, RngStream(seed), stats)
        quantum = qrelieff_run(nd, qcfg, RngStream(seed), stats)
        for c_rec, q_rec in zip(classical.iterations, quantum.iterations):
            ok &= c_rec.picked == q_rec.picked
            ok &= c_rec.neighbors.hits == q_rec.neighbors.hits
            ok &= {k: list(v) for k, v in c_rec.neighbors.misses.items()} == {
                k: list(v) for k, v in q_rec.neighbors.misses.items()
            }
        ok &= classical.selected(0.5) == quantum.selected(0.5)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    _verdict(
        ok,
        "criterion 8: identical neighbor sets and selections on 20 random "
        f"binary datasets, exact mode, t=8 ({elapsed:.1f}s < 600s)",
    )


def test_criterion_9_program3_reproduction():
    start = time.perf_counter()
    result = reproduce_program3(shots=1024, runs=8, seed=9)
    p = result.exact_p1
    sigma = math.sqrt(p * (1 - p) / (8 * 1024))
    deviation = abs(result.sampled_mean - p)
    ok = deviation < 3 * sigma
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    sys.__stdout__.write(
        f"       exact P(1) = {p:.6f}, sampled mean = {result.sampled_mean:.6f}, "
        f"published mean {result.published_p1} echoed for reference only\n"
    )
    _verdict(
        ok,
        "criterion 9: 20-qubit circuit sampled mean within 3 sigma of its exact "
        f"value (|{deviation:.5f}| < {3 * sigma:.5f}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    argv = [
        "--input", str(example_csv_path()), "--backend", "both",
        "--pick", "round-robin", "--seed", "4", "--emit-iterations",
    ]
    bodies = []
    for rep in range(2):
        target = tmp_path / f"report{rep}.json"
        code = run_cli(argv + ["--output", str(target)], sys.stderr)
        assert code == 0
        bodies.append(canonical_body(json.loads(target.read_text())))
    elapsed = time.perf_counter() - start
    ok = bodies[0] == bodies[1] and elapsed < 10.0
    _verdict(
        ok,
        f"criterion 10: repeated CLI invocations yield byte-identical canonical "
        f"report bodies ({elapsed:.1f}s < 10s)",
    )
