"""The memos of the exact engines: toy measurement steps, states and
preparations on registers of at most three subsystems, the exact quantum
kernel's gate maps, measurement and weight, a program's lowering and plan,
and the shared step and shape objects.  Each gives what the uncached
computation gives, hands out nothing a caller can corrupt, holds no larger
register and is bounded."""

from __future__ import annotations

import functools
import importlib
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import toyfield
from toyfield import circuits, phase_space, quantum
from toyfield.circuits import (
    CompileError,
    MeasureStep,
    Program,
    compile_quantum,
    compile_toy,
    parse,
    toy_measure,
)
from toyfield.phase_space import EpistemicState, RegisterShape, enumerate_valid_states, prepared
from toyfield.toy_dynamics import (
    Beamsplitter, Cnot, PhaseShift, SwapModes, gate_table, kernel_forward, push_forward,
)
from toyfield.toy_measurement import DisturbanceKind, measure_ancilla, measure_occupation

SMALL_SHAPES = [RegisterShape(m, a) for m in range(4) for a in range(4 - m) if m + a]


def measure_steps(shape: RegisterShape):
    """Every measurement step of the register, labelled ``x``."""
    for mode in range(shape.modes):
        for kind in DisturbanceKind:
            yield MeasureStep("x", "mode", mode, "N", kind)
        yield MeasureStep("x", "mode", mode, "N", DisturbanceKind.NONDESTRUCTIVE, True)
    for ancilla in range(shape.ancillas):
        for basis in ("Q", "P"):
            yield MeasureStep("x", "ancilla", ancilla, basis, DisturbanceKind.NONDESTRUCTIVE)


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_memoised_outcomes_equal_the_uncached_ones(shape):
    """The step memo on every valid state: the uncached triples, as one
    shared tuple whose posteriors are the shared states."""
    uncached = circuits.toy_measure.__wrapped__
    for state in enumerate_valid_states(shape):
        for step in measure_steps(shape):
            want = uncached(state, step)
            got = toy_measure(state, step)  # a miss or a hit
            assert type(got) is tuple and got == want
            assert toy_measure(state, step) is got  # a hit
            for _, _, posterior in got:
                assert phase_space.shared_state(shape, posterior.support) is posterior


def test_the_step_memo_equals_the_uncached_outcomes_on_random_programs(monkeypatch):
    """Every measurement of the exact toy runs of 300 random programs."""
    from test_quantum_exact import random_program

    reached = []
    monkeypatch.setattr(circuits, "toy_measure",
                        lambda state, step: reached.append((state, step)) or toy_measure(state, step))
    rng = random.Random(6)
    for _ in range(300):
        circuits.run_toy_exact(compile_toy(parse(random_program(rng))))
    assert len(reached) > 300
    for state, step in reached:
        assert toy_measure(state, step) == toy_measure.__wrapped__(state, step)


def test_a_returned_list_can_be_mutated():
    state = prepared(RegisterShape(2, 1), (0,))
    first = measure_occupation(state, 0)
    kept = list(first)
    first.clear()
    assert measure_occupation(state, 0) == kept

    branch = quantum.exact_start(1, 2)
    outcomes = quantum.exact_measure(branch, 0, "P")
    assert type(outcomes) is tuple and all(type(pair) is tuple for pair in outcomes)
    assert quantum.exact_measure(branch, 0, "P") == outcomes


def test_an_eight_mode_register_is_not_memoised():
    memos = (circuits.toy_measure, phase_space._shared_state, phase_space._prepared)
    before = [memo.cache_info() for memo in memos]
    plan = compile_toy(parse("mode " + " ".join(f"m{k}" for k in range(8)) + "; source m0; "
                             "source m3; measure N m3 destructive as x;"))
    state = prepared(RegisterShape(8), (0, 3))
    assert plan.initial == state
    outcomes = measure_occupation(state, 3, DisturbanceKind.DESTRUCTIVE)
    assert [o.value for o in outcomes] == [1]
    step = MeasureStep("x", "mode", 3, "N", DisturbanceKind.DESTRUCTIVE)
    assert [value for value, _, _ in plan.measure(state, step)] == [1]
    assert plan.measure(state, step) is not plan.measure(state, step)
    assert plan.apply(state, SwapModes(0, 3)) is not plan.apply(state, SwapModes(0, 3))
    assert measure_ancilla(prepared(RegisterShape(7, 1)), 0, "P")[0].probability == Fraction(1, 2)
    assert [memo.cache_info() for memo in memos] == before


# Registers a program can declare (a mode at least): the small ones, and 4 to 6 subsystems.
PLAN_SHAPES = [shape for shape in SMALL_SHAPES if shape.modes] + [
    RegisterShape(4), RegisterShape(3, 1), RegisterShape(2, 2), RegisterShape(5),
    RegisterShape(4, 1), RegisterShape(6), RegisterShape(3, 3)]


@pytest.mark.parametrize("shape", PLAN_SHAPES, ids=str)
def test_a_plan_holds_the_state_ops_of_its_register(shape):
    """The table-and-memo ops up to three subsystems, the kernel ops above,
    chosen once by the compiler; a larger plan's start is kept by no memo."""
    text = ("mode " + " ".join(f"m{k}" for k in range(shape.modes)) + ";"
            + "".join(f" ancilla a{k};" for k in range(shape.ancillas)) + " source m0;")
    before = phase_space._prepared.cache_info()
    plan = compile_toy(parse(text))
    assert plan.shape == shape and plan.initial == prepared(shape, (0,))
    if shape.subsystems <= 3:
        assert plan.apply is push_forward and plan.measure is toy_measure
        assert plan.initial is phase_space._prepared(shape, (0,))
    else:
        assert plan.apply is kernel_forward and plan.measure is toy_measure.__wrapped__
        assert phase_space._prepared.cache_info() == before


def test_an_idle_mode_gives_the_same_law_through_the_kernel_ops():
    """300 random programs, each with one idle mode declared after the
    others, give the exact toy law of the program as written.  A padded
    program above three subsystems runs through the kernel ops, the
    unmemoised preparation and the uncached measurement: no memo of states
    or tables changes."""
    from test_quantum_exact import random_program

    memos = (toy_measure, phase_space._shared_state, phase_space._prepared, gate_table)
    rng = random.Random(36)
    widened = 0
    for _ in range(300):
        text = random_program(rng)
        head, tail = text.split(";", 1)  # the mode declaration, then the rest
        want = circuits.run_toy_exact(compile_toy(parse(text)))
        before = [memo.cache_info() for memo in memos]
        plan = compile_toy(parse(f"{head} idle;{tail}"))
        assert circuits.run_toy_exact(plan) == want, text
        if plan.shape.subsystems > 3:
            widened += 1
            assert plan.apply is kernel_forward and plan.measure is toy_measure.__wrapped__
            assert [memo.cache_info() for memo in memos] == before, text
    assert widened > 100


def test_equal_small_register_push_forwards_are_one_object():
    shape = RegisterShape(2, 1)
    shared = prepared(shape, (0,))
    fresh = EpistemicState(shape, frozenset(shared.support))  # equal, not shared
    assert fresh == shared and fresh is not shared
    for gate in (Beamsplitter(0, 1), PhaseShift(1, 1), Cnot(0, 0), SwapModes(1, 0)):
        assert push_forward(fresh, gate) is push_forward(shared, gate)
    swapped = push_forward(shared, SwapModes(0, 1))
    assert push_forward(swapped, SwapModes(1, 0)) is shared
    assert hash(shared) == hash(fresh) == hash(shared.support)


def test_a_preparation_is_shared_on_small_registers_only():
    assert prepared(RegisterShape(3), [1]) is prepared(RegisterShape(3), (1,))
    assert prepared(RegisterShape(4), (1,)) == prepared(RegisterShape(4), [1])
    assert prepared(RegisterShape(4), (1,)) is not prepared(RegisterShape(4), (1,))


def test_an_equal_weight_is_one_fraction():
    """Both exact engines make their weights through ``shared_fraction``: an
    unreduced pair gives its reduced pair's object, and the quantum weight
    of a branch is the object of its value."""
    quarter = phase_space.shared_fraction(1, 4)
    assert phase_space.shared_fraction(2, 8) is quarter
    assert type(quarter) is Fraction and quarter == Fraction(1, 4)
    assert phase_space.shared_fraction(3, 3) is phase_space.shared_fraction(1, 1) == 1
    assert quantum.exact_weight(((0, 0), (1, 0), 3)) is quarter  # 2 / 2**3
    assert quantum.exact_weight.__wrapped__(((0, 0), (1, 0), 3)) is quarter


def test_every_memo_is_bounded():
    """Every ``lru_cache`` in the package, found by walking its modules: a
    memo keyed by states, branches or user text has a size bound."""
    from toyfield import scenarios, toy_dynamics, toy_measurement

    # The unbounded memos: each is keyed by a gate or a register size (or,
    # for scenarios, one of the module's fixed texts), a set the engines fix.
    unbounded = {toy_dynamics.gate_table, toy_dynamics._gate_kernel, quantum.exact_gate,
                 toy_measurement.measurement_kernel, quantum._halves,
                 phase_space._valid_supports, scenarios._program}
    found = {}
    for module_info in pkgutil.iter_modules(toyfield.__path__):
        module = importlib.import_module(f"toyfield.{module_info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found.setdefault(value, f"{module_info.name}.{name}")
    assert unbounded <= found.keys()
    assert {circuits.toy_measure, phase_space._shared_state, phase_space.shared_fraction,
            quantum._transition} <= found.keys()
    unchecked = [name for memo, name in found.items()
                 if memo not in unbounded and memo.cache_info().maxsize is None]
    assert unchecked == []


def test_quantum_memos_equal_the_uncached_maps():
    from test_quantum_exact import GATES

    rng = random.Random(11)
    for _ in range(200):
        state = (tuple(rng.randint(-3, 3) for _ in range(8)),
                 tuple(rng.randint(-3, 3) for _ in range(8)), rng.randint(0, 3))
        for gate in GATES:
            apply = quantum.exact_gate(gate, 2, 3)
            if isinstance(gate, PhaseShift) and not gate.s:  # the identity: no memo entry
                before = quantum._transition.cache_info()
                assert apply(state) is state
                assert quantum._transition.cache_info() == before
                continue
            uncached = apply.args[0]  # the map that ``_transition`` memoises
            assert apply(state) == uncached(state)
            assert apply(state) == uncached(state)  # a hit
        for subsystem in range(3):
            for variable in ("N", "Q", "P"):
                for destructive in (False, True):
                    args = (state, subsystem, variable, destructive)
                    want = quantum.exact_measure.__wrapped__(*args)
                    assert quantum.exact_measure(*args) == want  # a miss or a hit
                    assert quantum.exact_measure(*args) == want  # a hit


# Gates of four classes on one register; the first three hash alike.
REGISTER = ("mode a b; ancilla A; source a; bs a b; phase a pi; swap a b; cnot a A; "
            "detect a as d;")


def test_the_gate_memos_compare_no_gates_of_two_classes(monkeypatch):
    """A gate's class is part of its memo key, so a gate is never compared
    with one of another class that hashes alike."""
    classes = (Beamsplitter, Cnot, PhaseShift, SwapModes)
    crossed = []
    for cls in classes:
        def eq(self, other, eq=cls.__eq__):
            if type(other) in classes and type(other) is not type(self):
                crossed.append((self, other))
            return eq(self, other)

        monkeypatch.setattr(cls, "__eq__", eq)
    assert hash(Beamsplitter(0, 1)) == hash(PhaseShift(0, 1)) == hash(SwapModes(0, 1))
    for _ in range(2):
        program = parse(REGISTER)
        circuits.run_toy_exact(compile_toy(program))
        circuits.run_quantum_exact(compile_quantum(program))
    assert crossed == []


PROGRAM = ("mode L R; ancilla A; source L; bs L R; cnot R A; phase L pi; "
           "measure P A as p; bs L R; detect L as dl;")


def test_a_program_is_lowered_and_compiled_once():
    program = parse(PROGRAM)
    assert program.steps is program.steps is vars(program)["steps"]
    assert compile_toy(program) is compile_toy(program) is vars(program)["toy_plan"]
    assert compile_quantum(program).steps is compile_quantum(program).steps is program.steps


def test_no_per_object_memo_is_a_locking_cached_property():
    from toyfield.automaton import CaPlan

    for cls in (Program, circuits.ToyPlan, CaPlan):
        memos = [v for v in vars(cls).values() if isinstance(v, circuits.object_memo)]
        assert memos and not any(isinstance(v, functools.cached_property)
                                 for v in vars(cls).values())


def test_a_program_that_does_not_compile_raises_on_every_read():
    program = Program((), (), ())
    for _ in range(3):
        with pytest.raises(CompileError, match="declares no modes"):
            program.toy_plan
    assert "toy_plan" not in vars(program) and "steps" not in vars(program)


def test_equal_programs_share_their_steps_and_shape():
    first, second = parse(PROGRAM), parse(PROGRAM)
    assert first is not second and first.steps is not second.steps
    assert all(a is b for a, b in zip(first.steps, second.steps, strict=True))
    assert compile_toy(first).shape is compile_toy(second).shape
    other = parse(PROGRAM.replace("ancilla A; ", "").replace("cnot R A; ", "")
                  .replace("measure P A as p; ", ""))
    assert other.steps[0] is first.steps[0]  # bs L R
    assert compile_toy(other).shape is not compile_toy(first).shape


def test_the_weight_memo_equals_the_uncached_weight(monkeypatch):
    """Every final branch of the exact quantum runs of 300 random programs."""
    from test_quantum_exact import random_program

    reached = []
    weigh = quantum.exact_weight
    monkeypatch.setattr(quantum, "exact_weight", lambda s: reached.append(s) or weigh(s))
    rng = random.Random(5)
    for _ in range(300):
        try:
            circuits.run_quantum_exact(compile_quantum(parse(random_program(rng))))
        except ValueError:  # a weight that is not dyadic
            pass
    assert len(reached) > 300
    for state in reached:
        try:
            want = weigh.__wrapped__(state)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                weigh(state)
        else:
            assert weigh(state) == want and type(weigh(state)) is Fraction


def test_a_non_dyadic_weight_raises_the_same_message_every_time():
    branch = ((1, 0), (1, 0), 0)  # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="is not dyadic within 1e-09") as caught:
            quantum.exact_weight(branch)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
