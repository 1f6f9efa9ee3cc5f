"""The three workloads: their warm-up, pass, operations and checks.

Each workload is a closed loop: one caller in one thread issues an operation,
waits for its result, checks it, then issues the next.  A seed fixes one
*pass*, a list of operations; a run repeats the pass in rounds, so every
operation is timed several times at different moments of the run.  Only the
seeded inputs of ``pb_inputs`` cross into ``toyfield``.  Import this module
only after ``pb_env.bootstrap()``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import pb_checks
import pb_env
import pb_inputs
from pb_checks import CRASH, DISAGREE, FAILED, FAILURES, OK
from toyfield import circuits, cli, montecarlo, phase_space, scenarios, toy_dynamics
from toyfield import toy_measurement

CHILD = pb_env.ROOT / "perfbench" / "pb_child.py"


@dataclass
class OpResult:
    kind: str
    key: object  # operations with the same key are repeats of one operation
    round_no: int
    seconds: float
    status: str
    detail: str = ""
    work: int = 0  # shots or runs of a sampled call
    left_theory: bool | None = None  # for a failed exact program, once analysed
    index: int = 0  # position of the operation in the pass
    start: float = 0.0  # perf_counter() when it was issued
    scaled: float = 0.0  # seconds at the reference speed (pb_clock)


def latencies(results: list[OpResult], kind: str | None = None) -> dict:
    """Latency of each operation (by key), optionally of one kind: the median
    of its timings, each scaled to the reference speed (``pb_clock``)."""
    times: dict = {}
    for r in results:
        if kind is None or r.kind == kind:
            times.setdefault(r.key, []).append(r.scaled)
    return {key: statistics.median(values) for key, values in times.items()}


def tail(values) -> float:
    """The 99th percentile when at least 1000 values give it ten values
    beyond; otherwise the largest value."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[math.ceil(0.99 * n) - 1 if n >= 1000 else n - 1]


def repeats(results: list[OpResult], kind: str) -> tuple[int, int]:
    """Fewest and most timings of one operation of the given kind."""
    counts: dict = {}
    for r in results:
        if r.kind == kind:
            counts[r.key] = counts.get(r.key, 0) + 1
    return min(counts.values()), max(counts.values())


def scenario(choice) -> "scenarios.Scenario":
    name, params = choice
    return scenarios.scenario_by_name(name, **dict(params))


def left_theory(text: str) -> bool:
    """Whether some branch of the toy engine's exact run of the program
    reaches a state that fails ``is_valid`` (untimed failure analysis).
    False also when the toy engine cannot replay the program at all."""
    try:
        plan = circuits.compile_toy(circuits.parse(text))
        states = [plan.initial]
        for step in plan.steps:
            if not all(phase_space.is_valid(s) for s in states):
                return True
            if isinstance(step, circuits.GateStep):
                states = [toy_dynamics.push_forward(s, step.gate) for s in states]
            elif step.variable == "N":
                states = [o.posterior for s in states for o in
                          toy_measurement.measure_occupation(s, step.index, step.kind)]
            else:
                states = [o.posterior for s in states for o in
                          toy_measurement.measure_ancilla(s, step.index, step.variable)]
        return not all(phase_space.is_valid(s) for s in states)
    except Exception:
        return False


class Exact:
    """Random small programs through both exact engines, compared exactly;
    once per pass, the exact check suites."""

    name = "exact"
    op_kind = "program"
    PROGRAMS_PER_PASS = 10_000
    trace_rounds = 1
    SUITES = ("equivalence", "coarse-grain", "destructive")

    def __init__(self) -> None:
        self.analysed: dict[int, bool] = {}

    def warm_up(self) -> None:
        for text in pb_inputs.covering_programs():
            program = circuits.parse(text)
            circuits.compile_toy(program)
            circuits.compile_quantum(program)
        self.run_suites()

    def pass_ops(self, seed: int) -> list[tuple]:
        rng = pb_inputs.stream(self.name, seed)
        ops = [("program", i, pb_inputs.exact_program(rng))
               for i in range(self.PROGRAMS_PER_PASS)]
        return ops + [("suites", "suites", None)]

    def run_suites(self) -> str | None:
        """The exact part of ``toyfield check all``; None when all pass."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(["check", suite]) for suite in self.SUITES]
        failing = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
        if any(codes) or failing:
            return f"exit codes {codes}; {failing[:3]}"
        return None

    def execute(self, op: tuple, round_no: int, analyse: bool, tracer) -> OpResult:
        kind, key, text = op
        if kind == "suites":
            start = perf_counter()
            problem = self.run_suites()
            seconds = perf_counter() - start
            return OpResult(kind, key, round_no, seconds, FAILED if problem else OK,
                            problem or "")
        detail = ""
        start = perf_counter()
        try:
            program = circuits.parse(text)
            toy_plan = circuits.compile_toy(program)
            quantum_plan = circuits.compile_quantum(program)
            toy = circuits.run_toy_exact(toy_plan)
            quantum = circuits.run_quantum_exact(quantum_plan)
            label = pb_checks.assignment_label
            same = circuits.joint_to_labeled(toy, label) == circuits.joint_to_labeled(quantum, label)
            status = OK if same else DISAGREE
        except Exception as error:
            status = pb_checks.REFUSED if pb_checks.is_named_refusal(error) else CRASH
            detail = f"{type(error).__name__}: {error}"
        seconds = perf_counter() - start
        result = OpResult(kind, key, round_no, seconds, status, detail)
        if status in FAILURES and analyse:
            if key not in self.analysed:
                self.analysed[key] = left_theory(text)
            result.left_theory = self.analysed[key]
        return result

    def verdict(self, results: list[OpResult]) -> bool:
        """Correct when every suite pass holds and every failed program had
        left the theory's valid states (the known, counted defect)."""
        return all(r.status == OK if r.kind == "suites" else r.left_theory is not False
                   for r in results)

    def named_metrics(self, results: list[OpResult]) -> dict:
        programs = latencies(results, "program").values()
        suites = latencies(results, "suites")["suites"]
        return {
            "exact.program_p50_ms": (statistics.median(programs) * 1e3, "ms", len(programs)),
            "exact.program_p99_ms": (tail(programs) * 1e3, "ms", len(programs)),
            "exact.check_suites_s": (suites, "s", 1),
        }


class Wide:
    """Eight-mode interferometer banks, each run cold by the CLI in a fresh
    process."""

    name = "wide"
    op_kind = "program"
    PROGRAMS_PER_PASS = 2
    trace_rounds = 2
    TIMEOUT_S = 150

    def warm_up(self) -> None:
        pass

    def pass_ops(self, seed: int) -> list[tuple]:
        self.directory = pb_env.OUT / f"wide-{seed}"
        self.directory.mkdir(parents=True, exist_ok=True)
        rng = pb_inputs.stream(self.name, seed)
        return [("program", i, *pb_inputs.mzi_bank(rng)) for i in range(self.PROGRAMS_PER_PASS)]

    def execute(self, op: tuple, round_no: int, analyse: bool, tracer) -> OpResult:
        kind, key, text, expected = op
        path = self.directory / f"bank-{key}.mzi"
        path.write_text(text, encoding="utf-8")
        args = ["run", str(path), "--engine", "toy", "--format", "json"]
        spans = self.directory / f"spans-{key}.json"
        if tracer is None:
            command = [sys.executable, "-m", "toyfield.cli", *args]
        else:
            command = [sys.executable, str(CHILD), "cli", str(spans), *args]
        start = perf_counter()
        try:
            done = subprocess.run(command, cwd=pb_env.ROOT, env=pb_env.child_env(),
                                  capture_output=True, text=True, timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OpResult(kind, key, round_no, perf_counter() - start, FAILED, "timed out")
        seconds = perf_counter() - start
        if tracer is not None and spans.exists():
            tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        if done.returncode != 0:
            return OpResult(kind, key, round_no, seconds, FAILED,
                            f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        try:
            problem = pb_checks.check_joint(json.loads(done.stdout), expected)
        except ValueError as error:
            problem = f"unreadable output: {error}"
        return OpResult(kind, key, round_no, seconds, FAILED if problem else OK, problem or "")

    def verdict(self, results: list[OpResult]) -> bool:
        return all(r.status == OK for r in results)

    def named_metrics(self, results: list[OpResult]) -> dict:
        programs = latencies(results).values()
        return {
            "wide.program_p50_s": (statistics.median(programs), "s", len(programs)),
            "wide.program_tail_s": (tail(programs), "s", len(programs)),
        }


class Sampled:
    """Bulk Monte Carlo, the locality audit and the CA, with a stream of
    small Monte Carlo runs between them."""

    name = "sampled"
    op_kind = "small"
    trace_rounds = 1

    def warm_up(self) -> None:
        from toyfield import automaton

        for choice in pb_inputs.SMALL_RUN_SCENARIOS:
            scenarios.run_scenario(scenario(choice), "montecarlo", 16, 0)
        whichway = scenario(pb_inputs.WHICHWAY)
        montecarlo.locality_audit(circuits.compile_toy(whichway.program), 16, 0)
        automaton.run_experiment(automaton.plan_from_program(whichway.program), 16, 0,
                                 whichway.labeler)

    def pass_ops(self, seed: int) -> list[tuple]:
        """The pass, the exact references from the quantum engine and the
        audit's negative control; the last two are neither timed nor traced."""
        choices = {*pb_inputs.SMALL_RUN_SCENARIOS, *(c for _, c, _ in pb_inputs.BULK_CALLS)}
        self.reference = {c: scenarios.run_scenario(scenario(c), "quantum").probs
                          for c in choices}
        whichway = circuits.compile_toy(scenario(pb_inputs.WHICHWAY).program)
        corrupt = montecarlo.RunRecord(
            0, 0, (montecarlo.MeasurementEvent("which_way", "mode", 1, 1, 0, 0b0001, 0b0011),),
            {"which_way": 1},
        )
        self.control_caught = not montecarlo.audit_records([corrupt], whichway.shape).clean
        return list(pb_inputs.sampled_pass(pb_inputs.stream(self.name, seed)))

    def execute(self, op: tuple, round_no: int, analyse: bool, tracer) -> OpResult:
        from toyfield import automaton

        kind, choice, shots, seed = op
        key = (kind, choice)
        start = perf_counter()
        try:
            chosen = scenario(choice)
            if kind == "mc":
                counts = montecarlo.estimate(circuits.compile_toy(chosen.program), shots, seed,
                                             labeler=chosen.labeler, scenario=chosen.key).counts
            elif kind == "audit":
                plan = circuits.compile_toy(chosen.program)
                report = montecarlo.locality_audit(plan, shots, seed)
            elif kind == "ca":
                counts = automaton.run_experiment(automaton.plan_from_program(chosen.program),
                                                  shots, seed, chosen.labeler)
            else:
                counts = scenarios.run_scenario(chosen, "montecarlo", shots, seed).counts
        except Exception as error:
            return OpResult(kind, key, round_no, perf_counter() - start, CRASH,
                            f"{type(error).__name__}: {error}", shots)
        seconds = perf_counter() - start
        if kind == "audit":
            events = shots * len(chosen.program.labels())
            problem = None
            if not report.clean or report.runs != shots or report.events_checked != events:
                problem = (f"{len(report.violations)} violations, {report.runs} runs, "
                           f"{report.events_checked} events")
        else:
            problem = pb_checks.check_counts(counts, shots, self.reference[choice])
        return OpResult(kind, key, round_no, seconds, FAILED if problem else OK, problem or "",
                        shots)

    def verdict(self, results: list[OpResult]) -> bool:
        return self.control_caught and all(r.status == OK for r in results)

    def named_metrics(self, results: list[OpResult]) -> dict:
        def rate(kind: str) -> tuple:
            work = {r.key: r.work for r in results if r.kind == kind}
            best = latencies(results, kind)
            return (sum(work.values()) / sum(best.values()), "1/s", len(best))

        small = latencies(results, "small").values()
        return {
            "sampled.mc_shots_per_s": rate("mc"),
            "sampled.audit_runs_per_s": rate("audit"),
            "sampled.ca_shots_per_s": rate("ca"),
            "sampled.small_run_p50_ms": (statistics.median(small) * 1e3, "ms", len(small)),
        }


WORKLOADS = {w.name: w for w in (Exact, Wide, Sampled)}
