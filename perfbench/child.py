"""Child processes of the benchmark: a set-up probe and a traced CLI run.

Each invocation is a fresh interpreter, so process-wide state such as the
amplitude-estimation memo starts cold, as it does for a CLI user.

    python3 child.py setup SPAWN_NS [CSV]
        Import the package, then parse and normalize CSV if given, and print
        the CLOCK_MONOTONIC nanoseconds at which that finished.

    python3 child.py trace SPAWN_NS TRACE_JSON CLI_ARG...
        Run ``qrelieff.cli.run_cli(CLI_ARG...)`` with spans around the public
        entry points of each module and write the per-layer summary to
        TRACE_JSON.  The CLI report goes to standard output as usual.

SPAWN_NS is the CLOCK_MONOTONIC time at which the parent started the process;
time before the first span (interpreter start, imports) counts as
``other.self_s``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Nested spans with self time, plus counters recorded at the same calls.

    A span's self time is its duration minus the duration of the spans it
    directly encloses; spans of one name are summed over all calls.  The
    durations of top-level spans are summed apart, so the time outside every
    span is known without the self times.
    """

    def __init__(self):
        self.child_s: list[float] = []  # per open span: time of enclosed spans
        self.top_s = [0.0]  # summed duration of top-level spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span ``name``; ``before(args)`` / ``after(args, result)``
        record counters and run inside the span."""
        stack, top_s = self.child_s, self.top_s
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                total_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    top_s[0] += dt

        return traced

    def maximum(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def minimum(self, key, value):
        if key not in self.minima or value < self.minima[key]:
            self.minima[key] = value


def install(tracer: Tracer):
    """Patch each entry point where its caller looks it up.

    Returns the unpatched amplitude-estimation memo, whose ``cache_info``
    gives the hits and misses.
    """
    from qrelieff import circuits, cli, pipeline, program3, relieff, report
    from qrelieff.statevector import StateVector

    counts = tracer.counts

    def on_apply(args):
        n = args[0].n_qubits
        counts["statevector.apply.amps"] += 1 << n
        tracer.maximum("statevector.widest_qubits", n)

    def on_state(args):
        tracer.maximum("statevector.widest_qubits", args[0].n_qubits)

    StateVector.apply = tracer.wrap("statevector.apply", StateVector.apply, on_apply)
    StateVector.apply_unitary = tracer.wrap(
        "statevector.apply_unitary", StateVector.apply_unitary, on_state
    )
    StateVector.sample = tracer.wrap("statevector.sample", StateVector.sample, on_state)

    ae_memo = circuits.ae_distribution_for_amplitude
    ae_misses = [ae_memo.cache_info().misses]

    def on_ae(args, result):
        misses = ae_memo.cache_info().misses
        if misses != ae_misses[0]:
            counts["circuits.ae.grover_ops"] += (misses - ae_misses[0]) * ((1 << args[1]) - 1)
            ae_misses[0] = misses

    def on_swap_test(args):
        tracer.maximum("circuits.swap_test.qubits", 2 * args[0].n_qubits + 1)

    def on_grover(args, state):
        plan, oracle = args[0], args[1]
        counts["circuits.grover.iterations"] += plan.J
        p = float((abs(state.amplitudes[oracle]) ** 2).sum())
        tracer.minimum("circuits.grover.p_success_min", p)

    def on_serialize(args, text):
        counts["report.bytes"] += len(text)

    pipeline.encode_sample = tracer.wrap("circuits.encode", pipeline.encode_sample)
    pipeline.swap_test_state = tracer.wrap(
        "circuits.swap_test", pipeline.swap_test_state, on_swap_test
    )
    pipeline.ae_distribution_for_amplitude = tracer.wrap(
        "circuits.ae", ae_memo, after=on_ae
    )
    pipeline.quantum_extreme_search = tracer.wrap(
        "circuits.extreme", pipeline.quantum_extreme_search
    )
    circuits.grover_search_state = tracer.wrap(
        "circuits.grover", circuits.grover_search_state, after=on_grover
    )
    pipeline.build_similarity_table = tracer.wrap(
        "pipeline.similarity", pipeline.build_similarity_table
    )
    pipeline.quantum_neighbors = tracer.wrap("pipeline.neighbors", pipeline.quantum_neighbors)
    cli.qrelieff_run = tracer.wrap("pipeline.run", cli.qrelieff_run)
    cli.relieff_run = tracer.wrap("relieff.run", cli.relieff_run)
    update = tracer.wrap("relieff.update_weights", relieff.update_weights)
    pipeline.update_weights = relieff.update_weights = update
    program3.final_state = tracer.wrap("program3.final_state", program3.final_state)
    cli.load_csv = tracer.wrap("cli.load_csv", cli.load_csv)
    report.build_report = tracer.wrap("report.build", report.build_report)
    report.serialize = tracer.wrap("report.serialize", report.serialize, after=on_serialize)
    return ae_memo


def summarize(tracer: Tracer, ae_memo, spawn_ns: int, exit_code: int) -> dict:
    total_s = (_now_ns() - spawn_ns) / 1e9
    info = ae_memo.cache_info()
    apply_amps = tracer.counts["statevector.apply.amps"]
    metrics = {
        "statevector.apply.ns_per_amp": (
            tracer.self_s["statevector.apply"] / apply_amps * 1e9 if apply_amps else 0.0
        ),
        "circuits.ae.cache_hits": info.hits,
        "circuits.ae.cache_misses": info.misses,
        "circuits.ae.hit_ratio": (
            info.hits / tracer.calls["circuits.ae"] if tracer.calls["circuits.ae"] else 0.0
        ),
        "circuits.grover.searches": tracer.calls["circuits.grover"],
        "pipeline.similarity.tables": tracer.calls["pipeline.similarity"],
        "other.self_s": total_s - tracer.top_s[0],
    }
    metrics.update(tracer.counts)
    metrics.update(tracer.maxima)
    metrics.update(tracer.minima)
    for name in tracer.calls:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
        metrics[f"{name}.s"] = tracer.total_s[name]
    return {"exit_code": exit_code, "total_s": total_s, "metrics": metrics}


def main(argv) -> int:
    mode, spawn_ns = argv[0], int(argv[1])
    if mode == "setup":
        from qrelieff.cli import load_csv
        from qrelieff.relieff import normalize

        if len(argv) > 2:
            dataset, _ = load_csv(argv[2])
            normalize(dataset)
        print(_now_ns())
        return 0
    if mode == "trace":
        trace_path, cli_args = argv[2], argv[3:]
        from qrelieff import cli

        tracer = Tracer()
        ae_memo = install(tracer)
        code = cli.run_cli(cli_args)
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(summarize(tracer, ae_memo, spawn_ns, code), fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
