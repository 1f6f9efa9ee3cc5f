"""The memos of the exact engines: toy measurement outcomes and preparations
on registers of at most three subsystems, the exact quantum kernel's gate
maps, measurement and weight, a program's lowering and plan, and the shared
step and shape objects.  Each gives what the uncached computation gives,
hands out nothing a caller can corrupt, holds no larger register and is
bounded."""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction

import pytest

from toyfield import circuits, phase_space, quantum, toy_measurement
from toyfield.circuits import (
    CompileError,
    Program,
    compile_quantum,
    compile_toy,
    parse,
)
from toyfield.phase_space import RegisterShape, enumerate_valid_states, prepared
from toyfield.toy_dynamics import Beamsplitter, Cnot, PhaseShift, SwapModes
from toyfield.toy_measurement import (
    DisturbanceKind,
    measure_ancilla,
    measure_occupation,
    measurement_kernel,
)

SMALL_SHAPES = [RegisterShape(m, a) for m in range(4) for a in range(4 - m) if m + a]


def kernels(shape: RegisterShape):
    """Every measurement of the register: ``(measure, label, kernel)``, where
    ``measure(state, include_zero)`` is the public call."""
    for mode in range(shape.modes):
        for kind in DisturbanceKind:
            destructive = kind is DisturbanceKind.DESTRUCTIVE
            yield ((lambda s, z, mode=mode, kind=kind: measure_occupation(s, mode, kind, z)),
                   f"N_{mode}",
                   measurement_kernel("N", mode, shape.modes, shape.ancillas, destructive))
    for ancilla in range(shape.ancillas):
        for basis in ("Q", "P"):
            yield ((lambda s, z, ancilla=ancilla, basis=basis: measure_ancilla(s, ancilla, basis, z)),
                   f"{basis}_{ancilla}",
                   measurement_kernel(basis, ancilla, shape.modes, shape.ancillas))


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_memoised_outcomes_equal_the_uncached_ones(shape):
    uncached = toy_measurement._outcomes.__wrapped__
    for n, state in enumerate(enumerate_valid_states(shape)):
        include_zero = bool(n % 2)
        for measure, label, kernel in kernels(shape):
            want = list(uncached(state, label, kernel, include_zero))
            assert measure(state, include_zero) == want  # a miss or a hit
            assert measure(state, include_zero) == want  # a hit


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
    before = (toy_measurement._outcomes.cache_info(), phase_space._prepared.cache_info())
    state = prepared(RegisterShape(8), (0, 3))
    outcomes = measure_occupation(state, 3, DisturbanceKind.DESTRUCTIVE)
    assert [o.value for o in outcomes] == [1]
    assert measure_ancilla(prepared(RegisterShape(7, 1)), 0, "P")[0].probability == Fraction(1, 2)
    assert (toy_measurement._outcomes.cache_info(), phase_space._prepared.cache_info()) == before


def test_a_preparation_is_shared_on_small_registers_only():
    assert prepared(RegisterShape(3), [1]) is prepared(RegisterShape(3), (1,))
    assert prepared(RegisterShape(4), (1,)) == prepared(RegisterShape(4), [1])
    assert prepared(RegisterShape(4), (1,)) is not prepared(RegisterShape(4), (1,))


def test_every_memo_is_bounded():
    memos = (toy_measurement._outcomes, phase_space._prepared, quantum.exact_measure,
             quantum._transition, quantum.exact_weight, circuits._gate_step,
             circuits._measure_step, circuits._shape)
    for memo in memos:
        assert memo.cache_info().maxsize is not None


def test_quantum_memos_equal_the_uncached_maps():
    from test_quantum_exact import GATES

    rng = random.Random(11)
    for _ in range(200):
        state = (tuple(rng.randint(-3, 3) for _ in range(8)),
                 tuple(rng.randint(-3, 3) for _ in range(8)), rng.randint(0, 3))
        for gate in GATES:
            apply = quantum.exact_gate(gate, 2, 3)
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


def test_a_program_is_lowered_and_compiled_once(monkeypatch):
    calls = []
    lower = circuits._lower
    monkeypatch.setattr(circuits, "_lower", lambda p: calls.append(p) or lower(p))
    program = parse(PROGRAM)
    assert program.steps is program.steps is vars(program)["steps"]
    assert compile_toy(program) is compile_toy(program) is vars(program)["toy_plan"]
    compile_quantum(program)
    compile_quantum(program)
    assert calls == [program]


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
