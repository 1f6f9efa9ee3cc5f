"""Records (``toyfield._record.record``): equality, hash, repr, freezing,
construction, and pickling and copying by fields alone."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import toyfield
from toyfield import circuits
from toyfield.circuits import MeasureStep, Program, Source, Vacuum, compile_toy, parse
from toyfield.phase_space import RegisterShape
from toyfield.toy_dynamics import Beamsplitter, Identity, SwapModes
from toyfield.toy_measurement import DisturbanceKind

STEP = ("click", "mode", 0, "N", DisturbanceKind.NONDESTRUCTIVE, True)


def test_records_of_two_classes_with_equal_fields_differ():
    assert Source(0) != Vacuum(0)
    assert Beamsplitter(0, 1) != SwapModes(0, 1)
    assert Beamsplitter(0, 1) == Beamsplitter(0, 1)
    assert len({Beamsplitter(0, 1), SwapModes(0, 1), Beamsplitter(0, 1)}) == 2


@pytest.mark.parametrize("value, fields", [
    (Beamsplitter(0, 1), (0, 1)),
    (MeasureStep(*STEP), STEP),
    (RegisterShape(2, 1), (2, 1)),
    (Identity(), ()),
    (Source(0), (0,)),
    (Program(("a", "b"), (), ()), (("a", "b"), (), ())),
])
def test_a_record_hashes_as_the_tuple_of_its_fields(value, fields):
    assert hash(value) == hash(fields)
    assert hash(value) == hash(fields)  # the kept hash


def test_a_record_that_defines_its_hash_keeps_it():
    state = compile_toy(parse("mode a b; source a;")).initial
    assert hash(state) == hash(state.support)


def test_repr_names_every_field():
    assert repr(Program(("a",), (), ())) == "Program(modes=('a',), ancillas=(), statements=())"
    assert repr(RegisterShape(2)) == "RegisterShape(modes=2, ancillas=0)"
    assert repr(Identity()) == "Identity()"


def test_a_record_refuses_assignment_and_deletion():
    shape = RegisterShape(1)
    with pytest.raises(AttributeError):
        shape.modes = 2
    with pytest.raises(AttributeError):
        del shape.modes
    assert shape.modes == 1


def test_keywords_and_defaults_construct_a_record():
    shape = RegisterShape(modes=1)
    assert shape == RegisterShape(1, 0)
    assert (shape.ancillas, shape.point_count) == (0, 4)
    assert MeasureStep(*STEP[:5]).is_detect is False
    with pytest.raises(TypeError):
        RegisterShape()
    with pytest.raises(ValueError):
        RegisterShape(modes=0)  # __post_init__ runs


def test_a_step_pickled_under_another_hash_seed_finds_its_memo_entry():
    # The child hashes the step (its label is a str, whose hash differs per
    # process) before pickling it: the kept hash must not travel.
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(Path(toyfield.__file__).resolve().parents[1])
    code = (
        "import pickle, sys\n"
        "from toyfield.circuits import MeasureStep\n"
        "from toyfield.toy_measurement import DisturbanceKind\n"
        "step = MeasureStep('click', 'mode', 0, 'N', DisturbanceKind.NONDESTRUCTIVE, True)\n"
        "print(hash(step))\n"
        "sys.stdout.flush()\n"
        "sys.stdout.buffer.write(pickle.dumps(step))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    child_hash, pickled = result.stdout.split(b"\n", 1)
    fresh = MeasureStep(*STEP)
    assert int(child_hash) != hash(fresh)  # the hashes differ across processes
    loaded = pickle.loads(pickled)
    assert loaded == fresh and loaded is not fresh
    assert hash(loaded) == hash(fresh)

    state = compile_toy(parse("mode a; source a;")).initial
    outcomes = circuits.toy_measure(state, fresh)
    hits = circuits.toy_measure.cache_info().hits
    assert circuits.toy_measure(state, loaded) is outcomes
    assert circuits.toy_measure.cache_info().hits == hits + 1


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_a_copy_carries_its_fields_alone(copier):
    program = parse("mode a b; source a; bs a b; detect a as da;")
    hash(program)
    assert program.steps  # an object_memo value, kept on the instance
    assert set(vars(program)) > set(Program._fields)
    twin = copier(program)
    assert twin == program and twin is not program
    assert set(vars(twin)) == set(Program._fields)
    assert hash(twin) == hash(program)
