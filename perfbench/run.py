"""Benchmark of the toyfield package: exact, wide and sampled workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds against the package in
``src/`` of this checkout and prints a report; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, from a traced replay of a fixed part of the schedule.
A run repeats its seed's pass of operations in rounds and reports the
median time of each operation, scaled to a reference machine speed that
the run measures as it goes (``pb_clock``).  ``--workload all`` runs the three workloads
in turn and prints the workload-specific metrics of each.  Every run also writes a result file with
its provenance under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from time import perf_counter

import pb_clock
import pb_env

SETUP_PROBES = 11
WORKLOAD_NAMES = ("exact", "wide", "sampled")


def load_spec() -> dict:
    with open(pb_env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(name: str) -> tuple[float, float]:
    """Start time and wall time from starting a fresh interpreter until the
    workload's warm-up is done."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(pb_env.ROOT / "perfbench" / "pb_child.py"),
                           "setup", name], stdout=subprocess.PIPE, text=True,
                          cwd=pb_env.ROOT, env=pb_env.child_env()) as probe:
        line = probe.stdout.readline()
        seconds = perf_counter() - start
        try:
            probe.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            probe.kill()
            raise
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe of {name} failed (exit {probe.returncode})")
    return start, seconds


def run_ops(workload, ops: list, seconds: int) -> tuple[list, list[float], object]:
    """Issue the pass's operations one after another, untraced, round after
    round, and stop at the first one due after ``seconds``, once the first
    round is complete.  Returns the results and the set-up probe times, both
    scaled to the reference speed, and the speedometer.

    Between operations the loop times the speed kernel (``pb_clock``).  The
    set-up probes are spread evenly over the run, between operations, so
    that they sample the machine at different times."""
    speed = pb_clock.Speedometer()
    speed.burst(pb_clock.MAX_BURST)
    start = perf_counter()
    deadline = start + seconds
    probes_due = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    results, probes = [], []
    for round_no in itertools.count():
        if round_no >= 1 and perf_counter() >= deadline:
            break
        for index, op in enumerate(ops):
            speed.burst()
            now = perf_counter()
            if round_no >= 1 and now >= deadline:
                break
            if probes_due and now >= probes_due[0]:
                probes_due.pop(0)
                probes.append(setup_probe(workload.name))
                speed.burst()
            issued = perf_counter()
            result = workload.execute(op, round_no, True, None)
            result.index, result.start = index, issued
            results.append(result)
    for _ in probes_due:
        speed.burst()
        probes.append(setup_probe(workload.name))
    speed.burst(pb_clock.MAX_BURST)
    for r in results:
        r.scaled = r.seconds * speed.scale(r.start, r.seconds)
    setup = [took * speed.scale(began, took) for began, took in probes]
    return results, setup, speed


def traced_replay(workload, ops: list) -> tuple[list, list, object]:
    """Run each operation of the first ``trace_rounds`` rounds plain, then
    again traced, so that both see the same machine; returns both result
    lists and the tracer."""
    from pb_trace import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for round_no in range(workload.trace_rounds):
        for index, op in enumerate(ops):
            plain.append(workload.execute(op, round_no, True, None))
            tracer.op = len(traced)
            with tracer.tracing():
                traced.append(workload.execute(op, round_no, False, tracer))
            plain[-1].index = traced[-1].index = index
    return plain, traced, tracer


def summarize(workload, results: list) -> dict:
    """Counts by operation of the pass: an operation is attempted once however
    often a run times it, and failed when any of its timings failed (every
    operation is deterministic, so then all of them did)."""
    from pb_checks import FAILURES, REFUSED

    failed_timings = [r for r in results if r.status in FAILURES]
    failed = {r.index for r in failed_timings}
    by_status: dict[str, int] = {}
    for r in results:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    summary = {
        "ops_attempted": len({r.index for r in results}),
        "ops_failed": len(failed),
        "ops_refused": len({r.index for r in results if r.status == REFUSED}),
        "timings": len(results),
        "timings_failed": len(failed_timings),
        "by_status": by_status,
        "first_failures": [f"{r.kind}: {r.status} {r.detail}".strip()
                           for r in failed_timings if r.round_no == 0][:5],
    }
    if workload.name == "exact":
        summary["failures_outside_theory"] = len({r.index for r in failed_timings
                                                  if r.left_theory})
        summary["failures_inside_theory"] = len({r.index for r in failed_timings
                                                 if r.left_theory is False})
    return summary


def end_to_end(workload, results: list, setup: list[float]) -> dict:
    """Latencies are each operation's median scaled time; ``pass_s`` adds
    them up over the operations of one pass (the first round)."""
    from pb_workloads import latencies, tail

    latency = latencies(results)
    ops = latencies(results, workload.op_kind).values()
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail(ops) * 1e3,
        "pass_s": sum(latency[r.key] for r in results if r.round_no == 0),
    }


def per_layer(names: list[str], tracer, overhead_s: float) -> dict:
    """Per-layer values by name: ``<module>.<function>.<self_s|calls|errors>``
    from the spans, other ``<module>.<function>.<count>`` from the counts."""
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead_s
            continue
        function, field = name.rsplit(".", 1)
        stat = tracer.stats.get(function)
        if field in ("self_s", "calls", "errors"):
            values[name] = getattr(stat, field) if stat else (0.0 if field == "self_s" else 0)
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import pb_workloads

    spec = load_spec()
    workload = pb_workloads.WORKLOADS[name]()
    workload.warm_up()
    ops = workload.pass_ops(seed)
    report: dict = {}
    if not trace:
        results, setup, speed = run_ops(workload, ops, seconds)
        plain = results
        report["setup_probes_s"] = setup
        report["speed"] = speed.summary()
        correct = workload.verdict(results)
        values = end_to_end(workload, results, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        plain, results, tracer = traced_replay(workload, ops)
        untraced_s = sum(r.seconds for r in plain)
        traced_s = sum(r.seconds for r in results)
        correct = workload.verdict(plain) and workload.verdict(results)
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(names, tracer, traced_s - untraced_s)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans_path = pb_env.OUT / f"spans-{name}-seed{seed}.tsv"
        report["tracing"] = {
            "untraced_s": untraced_s, "traced_s": traced_s,
            "overhead_s": traced_s - untraced_s,
            "spans_written": tracer.write_spans(spans_path),
            "spans_dropped": tracer.dropped, "spans_file": spans_path.name,
        }
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    summary = summarize(workload, plain)
    if not trace:
        report["named_metrics"] = {
            f"{name}.setup_s": (values["setup_s"], "s", len(setup)),
            **workload.named_metrics(results),
        }
        fewest, most = pb_workloads.repeats(results, workload.op_kind)
        report["samples"] = {"ops_in_pass": len(ops),
                             "rounds": 1 + max(r.round_no for r in results),
                             "timings_per_op": [fewest, most]}
        unscaled: dict = {}
        for r in results:
            unscaled.setdefault(r.key, []).append(r.seconds)
        report["raw_op_p50_ms"] = statistics.median(
            statistics.median(unscaled[key]) for key in pb_workloads.latencies(
                results, workload.op_kind)) * 1e3
        if len(unscaled) <= 100:
            scaled = pb_workloads.latencies(results)
            report["op_latencies_s"] = {str(key): {"scaled": scaled[key],
                                                   "unscaled": statistics.median(times)}
                                        for key, times in unscaled.items()}
    report.update(summary)
    return {
        "result": {
            "correct": bool(correct),
            "attempted": summary["ops_attempted"],
            "failed": summary["ops_failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
        "report": report,
    }


def print_report(name: str, report: dict) -> None:
    print(f"workload {name}")
    for metric, (value, unit, count) in report.get("named_metrics", {}).items():
        print(f"  {metric:28s} {value:14.6g} {unit:4s} (n={count})")
    if "samples" in report:
        samples = report["samples"]
        print(f"  {samples['ops_in_pass']} ops in a pass, {samples['rounds']} rounds; each "
              f"latency is the median of {samples['timings_per_op'][0]} to "
              f"{samples['timings_per_op'][1]} scaled timings")
        speed = report["speed"]
        print(f"  speed kernel: {speed['kernel_timings']} timings, median "
              f"{speed['kernel_median_us']:.1f} us (min {speed['kernel_min_us']:.1f}, max "
              f"{speed['kernel_max_us']:.1f}); unscaled op p50 {report['raw_op_p50_ms']:.4g} ms")
    if "tracing" in report:
        t = report["tracing"]
        print(f"  tracing overhead {t['overhead_s']:.3f} s "
              f"({t['untraced_s']:.3f} s untraced, {t['traced_s']:.3f} s traced); "
              f"{t['spans_written']} spans written, {t['spans_dropped']} dropped")
    print(f"  ops attempted {report['ops_attempted']}, failed {report['ops_failed']}, "
          f"refused {report['ops_refused']}; {report['timings']} timings, "
          f"{report['timings_failed']} failed; by status {report['by_status']}")
    if "failures_outside_theory" in report:
        print(f"  failed programs outside the theory {report['failures_outside_theory']}, "
              f"inside {report['failures_inside_theory']}")
    for line in report["first_failures"]:
        print(f"  failure: {line[:200]}")


def run_all(seed: int, seconds: int) -> dict:
    """Each workload in its own process; the workload-specific metrics."""
    named: dict = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=pb_env.ROOT, timeout=600)
        print(done.stdout, end="")
        if done.returncode != 0:
            raise RuntimeError(f"workload {name} exited {done.returncode}: {done.stderr[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        with open(result_path(name, seed, False), encoding="utf-8") as handle:
            named.update(json.load(handle)["report"]["named_metrics"])
    print("end-to-end metrics of all workloads")
    for metric, (value, unit, count) in named.items():
        print(f"  {metric:28s} {value:14.6g} {unit:4s} (n={count})")
    return {**totals, "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in named.items()}}


def result_path(name: str, seed: int, trace: bool):
    return pb_env.OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        pb_env.bootstrap()
    except pb_env.MissingSource as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    pb_env.OUT.mkdir(parents=True, exist_ok=True)
    pb_env.pin_to_one_cpu()
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    trace = bool(args.trace)
    outcome = measure(args.workload, args.seed, args.seconds, trace)
    outcome["provenance"] = pb_env.provenance(args.workload, args.seed, args.seconds, trace)
    with open(result_path(args.workload, args.seed, trace), "w", encoding="utf-8") as out:
        json.dump(outcome, out, indent=1)
    print_report(args.workload, outcome["report"])
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
