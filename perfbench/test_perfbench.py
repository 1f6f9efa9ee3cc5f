"""Tests of the benchmark's own parts: inputs, output checks and tracing.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import pb_env

pb_env.bootstrap()

import pb_checks  # noqa: E402
import pb_clock  # noqa: E402
import pb_inputs  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402
from toyfield import circuits, montecarlo, toy_dynamics  # noqa: E402

# Two photons over three modes: the quantum engine's label weights are not
# dyadic, and snap_dyadic raises a bare ValueError.
NON_DYADIC = ("mode L R E;\nsource L;\nsource E;\nbs R E;\nbs L R;\nbs E R;\n"
              "measure N E as x1;\n")


def labeled(joint) -> dict[str, str]:
    """An exact joint distribution as ``toyfield run --format json`` prints it."""
    return {k: str(v) for k, v in circuits.joint_to_labeled(joint, pb_checks.assignment_label).items()}


def run_exact_op(text: str) -> pb_workloads.OpResult:
    return pb_workloads.Exact().execute(("program", 0, text), 0, True, None)


class TestInputs:
    def test_same_seed_gives_identical_inputs(self):
        def inputs(seed):
            rng = pb_inputs.stream("exact", seed)
            exact = "".join(pb_inputs.exact_program(rng) for _ in range(200))
            rng = pb_inputs.stream("wide", seed)
            wide = "".join(pb_inputs.mzi_bank(rng)[0] for _ in range(5))
            sampled = repr(list(pb_inputs.sampled_pass(pb_inputs.stream("sampled", seed))))
            return (exact + wide + sampled).encode()

        assert inputs(7) == inputs(7)
        assert inputs(7) != inputs(8)

    def test_exact_programs_stay_within_the_stated_mix(self):
        rng = pb_inputs.stream("exact", 1)
        for _ in range(300):
            program = circuits.parse(pb_inputs.exact_program(rng))
            assert 1 <= len(program.modes) + len(program.ancillas) <= 3
            assert len(program.ancillas) <= 1
            assert 1 <= len(program.statements) <= 8

    def test_same_seed_gives_identical_exact_results(self):
        def results(seed):
            rng = pb_inputs.stream("exact", seed)
            out = []
            for _ in range(60):
                program = circuits.parse(pb_inputs.exact_program(rng))
                try:
                    out.append(circuits.run_quantum_exact(circuits.compile_quantum(program)))
                except ValueError as error:
                    out.append(str(error))
                out.append(circuits.run_toy_exact(circuits.compile_toy(program)))
            return out

        assert results(3) == results(3)

    def test_a_sampled_pass_has_the_stated_mix(self):
        ops = list(pb_inputs.sampled_pass(pb_inputs.stream("sampled", 1)))
        per_bulk = pb_inputs.SMALL_ROUNDS_PER_BULK * len(pb_inputs.SMALL_RUN_SCENARIOS)
        assert len(ops) == len(pb_inputs.BULK_CALLS) * (1 + per_bulk)
        small = sorted(choice for kind, choice, _, _ in ops if kind == "small")
        copies = len(pb_inputs.BULK_CALLS) * pb_inputs.SMALL_ROUNDS_PER_BULK
        assert small == sorted(pb_inputs.SMALL_RUN_SCENARIOS * copies)


class TestMziBank:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_closed_form_equals_toy_engine_inside_the_theory(self, n):
        rng = pb_inputs.stream("test", n)
        for _ in range(6):
            text, expected = pb_inputs.mzi_bank(rng, n=n)
            joint = circuits.run_toy_exact(circuits.compile_toy(circuits.parse(text)))
            assert pb_checks.check_joint(labeled(joint), expected) is None
            assert pb_workloads.left_theory(text) is False

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_equals_quantum_engine(self, n):
        rng = pb_inputs.stream("test", n)
        for _ in range(6):
            text, expected = pb_inputs.mzi_bank(rng, n=n)
            joint = circuits.run_quantum_exact(circuits.compile_quantum(circuits.parse(text)))
            assert pb_checks.check_joint(labeled(joint), expected) is None

    def test_eight_modes_cost_the_same_gate_tables(self):
        rng = pb_inputs.stream("test", 8)
        for _ in range(5):
            text, expected = pb_inputs.mzi_bank(rng)
            plan = circuits.compile_toy(circuits.parse(text))
            gates = {step.gate for step in plan.steps if isinstance(step, circuits.GateStep)}
            assert len(gates) == 2 * 4 + 1
            assert sum(expected.values()) == 1
            assert all(label.count("=1") == 4 for label in expected)

    def test_check_rejects_a_wrong_answer(self):
        _, expected = pb_inputs.mzi_bank(pb_inputs.stream("test", 3), n=3)
        right = {label: str(p) for label, p in expected.items()}
        assert pb_checks.check_joint(right, expected) is None
        moved = {label.replace("=1", "=2"): p for label, p in right.items()}
        assert pb_checks.check_joint(moved, expected) is not None
        first = sorted(right)[0]
        assert pb_checks.check_joint({**right, first: "1/3"}, expected) is not None


class TestClassifier:
    def test_non_dyadic_program_is_a_failure_outside_the_theory(self):
        result = run_exact_op(NON_DYADIC)
        assert result.status == pb_checks.CRASH
        assert result.detail.startswith("ValueError")
        assert result.left_theory is True

    def test_cascade_disagreement_is_a_failure_outside_the_theory(self):
        text = ("mode m0 m1 m2;\nsource m1;\nvacuum m2;\nvacuum m0;\n"
                "bs m1 m2;\nbs m2 m0;\n"
                "detect m0 as d_m0;\ndetect m1 as d_m1;\ndetect m2 as d_m2;\n")
        result = run_exact_op(text)
        assert result.status == pb_checks.DISAGREE
        assert result.left_theory is True

    def test_parse_error_is_a_refusal(self):
        result = run_exact_op("mode L;\nbs L;\n")
        assert result.status == pb_checks.REFUSED
        assert result.detail.startswith("ParseError")

    def test_agreeing_program_is_ok(self):
        text = "mode L R;\nsource L;\nbs L R;\nphase R pi;\nbs L R;\ndetect L as l;\ndetect R as r;\n"
        assert run_exact_op(text).status == pb_checks.OK

    def test_counts_within_and_beyond_the_z_bound(self):
        reference = {"a": Fraction(1, 4), "b": Fraction(3, 4)}
        assert pb_checks.check_counts({"a": 250, "b": 750}, 1000, reference) is None
        assert pb_checks.check_counts({"a": 350, "b": 650}, 1000, reference) is not None
        assert pb_checks.check_counts({"a": 250, "b": 749, "c": 1}, 1000, reference) is not None
        assert pb_checks.check_counts({"a": 250, "b": 700}, 1000, reference) is not None


class TestTracer:
    def test_wraps_every_import_site_and_restores_them(self):
        originals = (circuits.gate_table, montecarlo.gate_table, circuits.parse)
        tracer = pb_trace.Tracer()
        with tracer.tracing():
            assert circuits.gate_table is toy_dynamics.gate_table is montecarlo.gate_table
            assert circuits.gate_table is not originals[0]
            text = "mode L R;\nsource L;\nbs L R;\ndetect L as l;\ndetect R as r;\n"
            circuits.run_toy_exact(circuits.compile_toy(circuits.parse(text)))
        assert (circuits.gate_table, montecarlo.gate_table, circuits.parse) == originals
        cache = tracer.counts
        assert tracer.stats["toy_dynamics.gate_table"].calls == 2
        assert cache["toy_dynamics.gate_table.hits"] + cache["toy_dynamics.gate_table.misses"] == 2
        assert tracer.stats["circuits.parse"].calls == 1
        assert tracer.stats["toy_dynamics.push_forward"].calls == 1

    def test_self_time_excludes_children(self):
        tracer = pb_trace.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(1000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        tracer.op = 5
        outer()
        ids, parents, ops, names, starts, ends = tracer._span
        outer_span = list(names).index(tracer.names.index("outer"))
        assert list(parents).count(ids[outer_span]) == 3
        assert set(ops) == {5}
        total = ends[outer_span] - starts[outer_span]
        stats = tracer.stats
        assert stats["inner"].calls == 3
        assert stats["outer"].self_s + stats["inner"].self_s == pytest.approx(total, abs=1e-9)

    def test_errors_are_counted_and_spans_capped(self):
        tracer = pb_trace.Tracer(capacity=1)

        def boom():
            raise ValueError("x")

        wrapped = tracer.wrap("boom", boom)
        for _ in range(2):
            with pytest.raises(ValueError):
                wrapped()
        assert tracer.stats["boom"].errors == 2
        assert tracer.dropped == 1


class TestHarness:
    def test_tail_is_p99_or_the_largest_value(self):
        assert pb_workloads.tail(range(2000)) == 1979
        assert pb_workloads.tail(range(1000)) == 989
        assert pb_workloads.tail([3.0, 1.0, 2.0]) == 3.0

    def test_latency_is_the_median_scaled_timing_of_each_operation(self):
        def result(kind, key, scaled):
            return pb_workloads.OpResult(kind, key, 0, 1.0, pb_checks.OK, scaled=scaled)

        results = [result("program", 0, 2.0), result("program", 1, 5.0),
                   result("program", 0, 1.0), result("program", 0, 9.0),
                   result("suites", "s", 9.0)]
        assert pb_workloads.latencies(results) == {0: 2.0, 1: 5.0, "s": 9.0}
        assert pb_workloads.latencies(results, "program") == {0: 2.0, 1: 5.0}
        assert pb_workloads.repeats(results, "program") == (1, 3)

    def test_timings_scale_by_the_nearest_kernel_timings(self, monkeypatch):
        monkeypatch.setattr(pb_clock, "NEAREST", 2)
        monkeypatch.setattr(pb_clock, "SENSITIVITY", 1.0)
        speed = pb_clock.Speedometer()
        with pytest.raises(RuntimeError):
            speed.scale(0.0, 1.0)
        speed.starts = [0.0, 0.1, 10.0, 10.1, 20.0]
        ref = pb_clock.REFERENCE_S
        speed.seconds = [2 * ref, 2 * ref, ref, ref, 4 * ref]
        assert speed.scale(0.05, 0.0) == pytest.approx(0.5)
        assert speed.scale(10.0, 0.1) == pytest.approx(1.0)
        assert speed.scale(30.0, 1.0) == pytest.approx(1 / 2.5)
        monkeypatch.setattr(pb_clock, "SENSITIVITY", 0.5)
        speed._cache.clear()
        assert speed.scale(0.05, 0.0) == pytest.approx(0.5 ** 0.5)
        speed.burst(2)
        assert len(speed.seconds) == 7 and all(s > 0 for s in speed.seconds[5:])

    def test_an_operation_counts_once_however_often_it_is_timed(self):
        import run

        def result(index, round_no, status):
            return pb_workloads.OpResult("program", index, round_no, 1.0, status, index=index)

        results = [result(0, 0, pb_checks.OK), result(1, 0, pb_checks.CRASH),
                   result(2, 0, pb_checks.REFUSED), result(0, 1, pb_checks.OK),
                   result(1, 1, pb_checks.CRASH)]
        summary = run.summarize(pb_workloads.Wide, results)
        assert (summary["ops_attempted"], summary["ops_failed"], summary["ops_refused"]) == (3, 1, 1)
        assert (summary["timings"], summary["timings_failed"]) == (5, 2)

    def test_benchmark_json_names_only_metrics_the_harness_produces(self):
        with open(pb_env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        traced = {f"{m}.{f}" for m, f in pb_trace.TARGETS}
        counts = {"toy_dynamics.gate_table.hits", "toy_dynamics.gate_table.misses",
                  *(f"{k}.{v[0]}" for k, v in pb_trace.RESULT_COUNTS.items())}
        for metric in spec["per_layer"]:
            name = metric["name"]
            function, field = name.rsplit(".", 1)
            assert (name == "trace.overhead_s" or name in counts
                    or (function in traced and field in ("self_s", "calls", "errors"))), name
        assert {m["name"] for m in spec["end_to_end"]} == {
            "setup_s", "op_p50_ms", "op_tail_ms", "pass_s"}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        assert max(bounds.values()) == bounds["setup_s"] <= 0.25
        assert [w["name"] for w in spec["workloads"]] == list(pb_workloads.WORKLOADS)

    def test_refuses_to_run_without_the_package_source(self, tmp_path):
        shutil.copy(pb_env.ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(pb_env.ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert done.returncode != 0
        assert done.stdout == ""
