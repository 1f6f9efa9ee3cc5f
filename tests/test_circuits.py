"""Parser, renderer, compilation targets and plan execution."""

import json
import re
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from toyfield import circuits
from toyfield.circuits import (
    CapabilityError,
    CompileError,
    GateStep,
    MeasureStep,
    ParseError,
    Program,
    Source,
    Vacuum,
    compile_quantum,
    compile_toy,
    default_labeler,
    joint_to_labeled,
    parse,
    render,
    run_quantum_exact,
    run_toy_exact,
)
from toyfield.montecarlo import exact_law
from scalar_reference import snap_dyadic
from toyfield.toy_dynamics import Beamsplitter, Cnot, PhaseShift, SwapModes
from toyfield.toy_measurement import DisturbanceKind

ND = DisturbanceKind.NONDESTRUCTIVE


def detect(mode: int, label: str) -> MeasureStep:
    return MeasureStep(label, "mode", mode, "N", ND, True)

MZI_PI = (
    "mode L R; source L; vacuum R; bs L R; phase R pi; bs L R; "
    "detect L as dl; detect R as dr;"
)
# Leaves the valid states: 1/3 and 2/3 on the toy engine, not dyadic on the
# quantum engine.
LEAVES_THEORY = (
    "mode L R E; source L; vacuum R; bs L R; bs L E; bs R L; detect L as dl; detect R as dr;\n"
)


class TestParse:
    def test_mzi_program(self):
        program = parse(MZI_PI)
        assert program.modes == ("L", "R")
        assert program.statements == (
            Source(0),
            Vacuum(1),
            GateStep(Beamsplitter(0, 1)),
            GateStep(PhaseShift(1, 1)),
            GateStep(Beamsplitter(0, 1)),
            detect(0, "dl"),
            detect(1, "dr"),
        )

    def test_comments_and_whitespace(self):
        text = "# the interferometer\nmode L R;\n\n  source L; # feed left\nvacuum R;\nbs L R;\ndetect L as dl;\ndetect R as dr;\n"
        program = parse(text)
        assert len(program.statements) == 5

    def test_missing_semicolon_position(self):
        with pytest.raises(ParseError) as err:
            parse("mode L R;\nsource L")
        assert err.value.line == 2 and err.value.column == 9

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier X"):
            parse("mode L R; source L; measure N X nondestructive as w;")

    def test_duplicate_preparation(self):
        with pytest.raises(ParseError, match="duplicate preparation"):
            parse("mode L; source L; vacuum L;")

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate label"):
            parse("mode L R; detect L as d; detect R as d;")

    def test_kind_on_ancilla_measurement(self):
        with pytest.raises(ParseError, match="occupation measurements"):
            parse("mode L; ancilla A; measure Q A destructive as q;")

    def test_phase_literal_restricted(self):
        with pytest.raises(ParseError, match="phase literal"):
            parse("mode L R; phase R halfpi;")

    def test_declaration_after_statement(self):
        with pytest.raises(ParseError, match="precede"):
            parse("mode L; source L; mode R;")

    def test_bs_needs_distinct_modes(self):
        with pytest.raises(ParseError, match="distinct"):
            parse("mode L R; bs L L;")

    def test_measure_default_kind_is_nondestructive(self):
        program = parse("mode L R; source L; measure N R as w;")
        assert program.statements[-1] == MeasureStep("w", "mode", 1, "N", ND)

    def test_preparation_after_use_rejected(self):
        with pytest.raises(ParseError, match="after it was used"):
            parse("mode L R; bs L R; source L;")

    @pytest.mark.parametrize("text, message, column", [
        # a duplicate label comes before the missing ";" after it
        ("mode L; detect L as x1; measure N L as x1 junk;", "duplicate label x1", 40),
        # a statement's own errors come before the checks that read earlier ones
        ("mode L R; bs L R; source L junk;", "expected ';'", 28),
        ("mode L R; source L; bs L L junk;", "expected ';'", 28),
    ])
    def test_error_precedence_across_statements(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 1, column {column}: {message}"


def parse_error(text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value).split(": ", 1)[1], err.value.line, err.value.column


class TestStatementMemo:
    """``parse`` reads each statement's text through a bounded memo keyed by
    the text and the program's declarations; the checks that read earlier
    statements are made on every parse."""

    def test_the_same_text_resolves_to_each_programs_own_indices(self):
        assert parse("mode L R;\nsource L;\n").statements == (Source(0),)
        assert parse("mode R L;\nsource L;\n").statements == (Source(1),)

    @pytest.mark.parametrize("valid, invalid, error", [
        ("mode L R;\ndetect L as x1;\n", "mode L R;\ndetect R as x1;\ndetect L as x1;\n",
         ("duplicate label x1", 3, 13)),
        ("mode L R;\nsource L;\n", "mode L R;\nvacuum L;\nsource L;\n",
         ("duplicate preparation of L", 3, 8)),
        ("mode L R;\nsource L;\n", "mode L R;\nbs L R;\nsource L;\n",
         ("preparation of L after it was used", 3, 8)),
    ])
    def test_a_remembered_statement_is_checked_against_the_program(self, valid, invalid, error):
        parse(valid)
        hits = circuits._statement.cache_info().hits
        assert parse_error(invalid) == error
        assert circuits._statement.cache_info().hits > hits  # the statement came from the memo

    def test_a_failing_statement_raises_on_every_parse(self):
        for _ in range(3):
            misses = circuits._statement.cache_info().misses
            assert parse_error("mode L;\nbs L L;\n") == ("bs needs two distinct modes", 2, 6)
            assert circuits._statement.cache_info().misses == misses + 1

    def test_the_memo_is_bounded(self):
        bound = circuits._statement.cache_info().maxsize
        for i in range(bound + 10):
            parse(f"mode L; detect L as x{i};")
        assert circuits._statement.cache_info().currsize == bound

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_the_oracle_checks_hold_with_the_memo(self, memo):
        """``test_parse_oracle``'s checks from an empty memo, and from one
        filled by the golden cases' texts."""
        import test_parse_oracle

        circuits._statement.cache_clear()
        if memo == "warm":
            for case in _PARSE_CASES:
                try:
                    parse(case["text"])
                except ParseError:
                    pass
            assert circuits._statement.cache_info().currsize > 0
        test_parse_oracle.test_parse_equals_the_oracle_on_programs_renders_and_mutants()
        test_parse_oracle.test_parse_equals_the_oracle_on_spacing_and_character_mutants()


class TestRender:
    def test_round_trip_mzi(self):
        program = parse(MZI_PI)
        assert parse(render(program)) == program

    def test_render_is_idempotent_after_parse(self):
        text = render(parse(MZI_PI))
        assert render(parse(text)) == text

    def test_round_trip_full_vocabulary(self):
        text = (
            "mode L R E;\nancilla A;\nsource L;\nvacuum R;\nbs L R;\n"
            "cnot R A;\nswap R E;\nphase E 0;\n"
            "measure N R destructive as w;\nmeasure Q A as q;\n"
            "measure P A as p;\ndetect L as dl;\ndetect R as dr;\n"
        )
        program = parse(text)
        assert parse(render(program)) == program


_PARSE_CASES = json.loads(
    (Path(__file__).parent / "golden" / "parse_cases.json").read_text(encoding="utf-8")
)


_PARSE_MESSAGES = [
    r"unexpected character '.*'", r"expected ';'", r"expected mode name",
    r"expected ancilla name", r"expected label", r"expected at least one mode name",
    r"duplicate declaration of \S+", r"expected a statement",
    r"declarations must precede statements", r"\S+ is an ancilla, not a mode",
    r"\S+ is a mode, not an ancilla", r"unknown identifier \S+",
    r"duplicate preparation of \S+", r"preparation of \S+ after it was used",
    r"bs needs two distinct modes", r"swap needs two distinct modes",
    r"expected phase literal 0 or pi", r"expected measured variable N, Q or P",
    r"disturbance kind applies only to occupation measurements", r"expected 'as'",
    r"duplicate label \S+", r"unknown statement '\S+'",
]


class TestGoldenParse:
    """The recorded texts parse to the same programs, rendered byte for
    byte, or fail with the same message at the same line and column."""

    def test_every_case_replays(self):
        wrong = []
        for case in _PARSE_CASES:
            try:
                got = render(parse(case["text"]))
                if got == case.get("render") and parse(got) == parse(case["text"]):
                    continue
            except ParseError as err:
                got = [str(err).split(": ", 1)[1], err.line, err.column]
                if got == case.get("error"):
                    continue
            wrong.append((case, got))
        assert not wrong, f"{len(wrong)} cases differ, first: {wrong[:3]}"

    def test_corpus_reaches_every_message(self):
        messages = [c["error"][0] for c in _PARSE_CASES if "error" in c]
        for pattern in _PARSE_MESSAGES:
            assert any(re.fullmatch(pattern, m) for m in messages), pattern
        assert sum("render" in c for c in _PARSE_CASES) > 300


_NAMES = st.sampled_from(["L", "R", "E", "m1", "m2"])


@st.composite
def small_programs(draw) -> Program:
    mode_count = draw(st.integers(2, 3))
    modes = ["L", "R", "E"][:mode_count]
    use_ancilla = draw(st.booleans())
    indices = range(mode_count)
    statements = [Source(0), Vacuum(1)]
    gate_count = draw(st.integers(0, 4))
    for _ in range(gate_count):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            a, b = draw(st.permutations(indices))[:2]
            statements.append(GateStep(Beamsplitter(a, b)))
        elif kind == 1:
            statements.append(GateStep(PhaseShift(draw(st.sampled_from(indices)),
                                                  draw(st.integers(0, 1)))))
        elif kind == 2 and use_ancilla:
            statements.append(GateStep(Cnot(draw(st.sampled_from(indices)), 0)))
        elif kind == 3 and mode_count == 3:
            statements.append(GateStep(SwapModes(1, 2)))
    statements.append(detect(0, "dl"))
    statements.append(detect(1, "dr"))
    return Program(tuple(modes), ("A",) if use_ancilla else (), tuple(statements))


class TestPropertyRoundTrip:
    @given(small_programs())
    def test_parse_render_identity(self, program):
        assert parse(render(program)) == program

    @given(small_programs())
    def test_toy_probabilities_sum_to_one(self, program):
        joint = run_toy_exact(compile_toy(program))
        assert sum(joint.values()) == 1


class TestCompile:
    def test_toy_plan_shape(self):
        plan = compile_toy(parse(MZI_PI))
        assert plan.shape.modes == 2 and plan.shape.ancillas == 0
        assert plan.program.labels() == ("dl", "dr")

    def test_unprepared_mode_defaults_to_vacuum(self):
        program = parse("mode L R; source L; bs L R; detect L as dl; detect R as dr;")
        plan = compile_toy(program)
        assert plan.initial.size == 4
        for bits in plan.initial.support_bits():
            assert bits[2] == 0

    def test_quantum_dimension_cap(self):
        text = "mode a b c d; source a; detect a as x;"
        with pytest.raises(CapabilityError):
            compile_quantum(parse(text))

    def test_both_compilers_lower_a_program_once(self):
        program = parse(
            "mode L R; ancilla A; source L; bs L R; cnot R A; measure P A as p; "
            "bs L R; detect L as dl; detect R as dr;"
        )
        toy, quantum = compile_toy(program), compile_quantum(program)
        assert toy.steps is quantum.steps is program.steps
        fresh = parse(render(program))
        assert program == fresh and fresh == program
        assert hash(program) == hash(fresh)
        assert render(program) == render(fresh)

    def test_a_program_compiles_to_one_toy_plan(self, monkeypatch):
        from toyfield import circuits

        compiled = []
        compile_ = circuits._compile_toy

        def counting(program):
            compiled.append(program)
            return compile_(program)

        monkeypatch.setattr(circuits, "_compile_toy", counting)
        program = parse("mode L R; source L; bs L R; detect L as dl;")
        assert compile_toy(program) is compile_toy(program)
        fresh = parse(render(program))
        assert compile_toy(fresh) == compile_toy(program)
        assert len(compiled) == 2 and compiled[0] is program and compiled[1] is fresh

    def test_a_program_without_modes_is_refused_by_each_compiler(self):
        program = Program((), (), ())
        for compile_ in (compile_toy, compile_quantum, compile_toy):
            with pytest.raises(CompileError, match="declares no modes"):
                compile_(program)

    def test_a_statement_no_engine_runs_is_refused_by_each_compiler(self):
        program = Program(("L",), (), ("junk",))
        for compile_ in (compile_toy, compile_quantum):
            with pytest.raises(CompileError, match="cannot compile statement 'junk'"):
                compile_(program)

    def test_ca_rejects_ancillas(self):
        from toyfield.automaton import plan_from_program
        from toyfield.scenarios import quantum_eraser

        with pytest.raises(CapabilityError):
            plan_from_program(quantum_eraser("P").program)

    def test_ca_accepts_interferometer(self):
        from toyfield.automaton import plan_from_program
        from toyfield.scenarios import mzi_phase

        plan = plan_from_program(mzi_phase(1).program)
        assert plan.wires == ("L", "R") and plan.length == 16
        devices = [(b.kind, b.cells, b.parameter) for b in plan.bindings
                   if b.kind in ("beamsplitter", "phase")]
        assert devices == [
            ("beamsplitter", (("L", 4), ("R", 4), ("L", 5), ("R", 5)), None),
            ("beamsplitter", (("L", 12), ("R", 12), ("L", 13), ("R", 13)), None),
            ("phase", (("R", 8), ("R", 9)), ("phase", 1)),
        ]
        sinks = [(b.cells, b.parameter) for b in plan.bindings if b.kind == "sink"]
        assert sinks == [((("L", 16),), "detector_L"), ((("R", 16),), "detector_R")]


class TestExecution:
    def test_program_matches_scenario(self):
        from toyfield.scenarios import mzi_phase, run_scenario

        joint = run_toy_exact(compile_toy(parse(MZI_PI)))
        labeled = joint_to_labeled(
            joint, lambda ev: "detector_L" if ev["dl"] else "detector_R"
        )
        reference = run_scenario(mzi_phase(1), "toy").probs
        assert labeled == reference

    def test_quantum_program_execution(self):
        joint = run_quantum_exact(compile_quantum(parse(MZI_PI)))
        assert joint == {(("dl", 0), ("dr", 1)): Fraction(1)}

    def test_seven_ancilla_measurements_give_128_equal_outcomes_on_both_engines(self):
        # Each P or Q measurement of the ancilla randomizes the other
        # variable, so every record has weight 1/128: finer than 1/64.
        program = parse("mode L; ancilla A;" + "".join(
            f" measure {'PQ'[i % 2]} A as m{i};" for i in range(7)))
        toy = run_toy_exact(compile_toy(program))
        assert len(toy) == 128 and set(toy.values()) == {Fraction(1, 128)}
        assert run_quantum_exact(compile_quantum(program)) == toy

    def test_enumeration_identity(self):
        program = parse(
            "mode L R; source L; vacuum R; bs L R; "
            "measure N R nondestructive as w; bs L R; "
            "detect L as dl; detect R as dr;"
        )
        plan = compile_toy(program)
        assert exact_law(plan) == run_toy_exact(plan)

    def test_enumeration_on_four_modes_builds_no_gate_table(self):
        from toyfield.toy_dynamics import gate_table

        program = parse(
            "mode a b c d; source a; vacuum b; source c; vacuum d; "
            "bs a b; bs c d; phase b pi; measure N d nondestructive as w; bs a b; bs c d; "
            "detect a as da; detect b as db; detect c as dc; detect d as dd;"
        )
        plan = compile_toy(program)
        before = gate_table.cache_info()
        assert exact_law(plan) == run_toy_exact(plan)
        assert gate_table.cache_info() == before

    def test_toy_weights_are_fractions_equal_to_an_all_fraction_walk(self):
        """Weights are reduced int pairs while the run branches; the returned
        totals are still Fractions, equal to a walk that multiplies every
        outcome's Fraction probability."""
        import random

        from scalar_reference import joint
        from test_quantum_exact import random_program
        from toyfield.scenarios import all_variants
        from toyfield.toy_dynamics import push_forward
        from toyfield.toy_measurement import measure_ancilla, measure_occupation

        def fraction_measure(state, step):
            if step.variable == "N":
                outcomes = measure_occupation(state, step.index, step.kind)
            else:
                outcomes = measure_ancilla(state, step.index, step.variable)
            return [(o.value, o.probability, o.posterior) for o in outcomes]

        rng = random.Random(2022)
        programs = [variant.program for variant in all_variants()]
        assert len(programs) == 17
        programs += [parse(LEAVES_THEORY), parse(TestInTheoryWitness.TEXT)]
        programs += [parse(random_program(rng)) for _ in range(2000)]
        for program in programs:
            plan = compile_toy(program)
            got = run_toy_exact(plan)
            want = joint([(Fraction(1), plan.initial, ())], plan.steps,
                         push_forward, fraction_measure)
            assert got == want, render(program)
            assert list(got) == list(want)
            assert all(type(v) is Fraction for v in got.values()), render(program)
        assert set(run_toy_exact(compile_toy(programs[17])).values()) == {
            Fraction(1, 3), Fraction(2, 3)}

    def test_every_branch_weight_is_a_pair_in_lowest_terms(self):
        """After every step of random programs, and of one whose states leave
        the valid ones (weights of a third), each branch weight is a pair of
        ints in lowest terms; a certain outcome leaves the start's ``ONE``."""
        import random
        from math import gcd

        from test_quantum_exact import random_program
        from toyfield.circuits import ONE, branches, toy_measure
        from toyfield.toy_dynamics import push_forward

        rng = random.Random(30)
        programs = [parse(LEAVES_THEORY)] + [parse(random_program(rng)) for _ in range(1000)]
        seen = set()
        for program in programs:
            plan = compile_toy(program)
            for _, current in branches([(ONE, plan.initial, ())], plan.steps, push_forward,
                                       toy_measure):
                for w, _, _ in current:
                    n, d = w
                    assert type(n) is int and type(d) is int, render(program)
                    assert 0 < n <= d and gcd(n, d) == 1, render(program)
                    assert w is ONE or w != ONE, render(program)
                    seen.add(w)
        assert {(1, 1), (1, 2), (1, 4), (1, 3), (2, 3)} <= seen

    def test_equal_toy_and_quantum_weights_are_one_object(self):
        """On the 17 variants both engines give equal joint distributions,
        and each toy weight is the quantum weight's object."""
        from toyfield.scenarios import all_variants

        variants = list(all_variants())
        assert len(variants) == 17
        for variant in variants:
            toy = run_toy_exact(compile_toy(variant.program))
            quantum = run_quantum_exact(compile_quantum(variant.program))
            assert toy == quantum, variant.key
            assert all(toy[key] is quantum[key] for key in toy), variant.key

    def test_snap_dyadic(self):
        assert snap_dyadic(0.25) == Fraction(1, 4)
        assert snap_dyadic(0.5000000001) == Fraction(1, 2)
        with pytest.raises(ValueError):
            snap_dyadic(1 / 3)


class TestInTheoryWitness:
    """Two markings of one ancilla between three splitters: every toy state
    stays valid, and still the exact engines disagree.  Epistemically
    restricted bits are not stabilizer qubits, so this is a known difference
    of the theories, pinned here: a change to either engine fails."""

    TEXT = (
        "mode L R; ancilla A; source L;\n"
        "bs L R; cnot L A; bs L R; cnot L A; bs L R;\n"
        "detect L as dl; measure Q A as q;\n"
    )

    def test_toy_and_quantum_exact_distributions(self):
        program = parse(self.TEXT)
        plan = compile_toy(program)
        toy = {"dl=0 q=1": Fraction(1, 2), "dl=1 q=0": Fraction(1, 2)}
        assert joint_to_labeled(run_toy_exact(plan), default_labeler) == toy
        assert joint_to_labeled(exact_law(plan), default_labeler) == toy
        quantum = run_quantum_exact(compile_quantum(program))
        assert joint_to_labeled(quantum, default_labeler) == {
            "dl=0 q=0": Fraction(1, 2), "dl=1 q=1": Fraction(1, 2)}

    def test_every_toy_branch_state_is_valid(self):
        from toyfield.circuits import branches, toy_measure
        from toyfield.phase_space import is_valid
        from toyfield.toy_dynamics import push_forward

        plan = compile_toy(parse(self.TEXT))
        states = [plan.initial]
        for _, current in branches([((1, 1), plan.initial, ())], plan.steps, push_forward,
                                   toy_measure):
            states += [state for _, state, _ in current]
        assert len(states) == 1 + 5 + 2 + 2
        assert all(is_valid(state) for state in states)
