"""The exact Z[sqrt(2)] kernel against the float state-vector API.

Program runs go through ``quantum.exact_*``; the float API (``apply_gate``,
``measure_subsystem``, ``reset_to_zero``, then ``snap_dyadic`` on the
aggregated weights) is the reference.  ``float_reference`` is that float
path over the same lowered steps.  Where it returns, the exact kernel must
return the same joint distribution; where it raises, the kernel must raise
``ValueError`` or return a weight finer than the reference's 1/64 grid.
"""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from toyfield import circuits, quantum
from toyfield.circuits import (
    Source,
    compile_quantum,
    parse,
    run_quantum_exact,
)
from scalar_reference import joint, snap_dyadic
from toyfield.toy_dynamics import Beamsplitter, Cnot, Identity, PhaseShift, SwapModes
from toyfield.toy_measurement import DisturbanceKind

_BASES = {
    "N": quantum.OCCUPATION_BASIS,
    "Q": quantum.ANCILLA_Q_BASIS,
    "P": quantum.ANCILLA_P_BASIS,
}


def _unitary(gate, modes: int):
    """The float gate and target bits of a toy gate."""
    if isinstance(gate, Beamsplitter):
        return quantum.bs_unitary("second"), (gate.a, gate.b)
    if isinstance(gate, PhaseShift):
        return quantum.phase_unitary(math.pi * gate.s, "second"), (gate.mode,)
    if isinstance(gate, Cnot):
        return quantum.cnot_unitary("second"), (gate.control, modes + gate.ancilla)
    if isinstance(gate, SwapModes):
        return quantum.swap_unitary(), (gate.a, gate.b)
    raise AssertionError(gate)


def float_reference(program) -> dict:
    """The joint distribution by float state vectors, with Born weights per
    step and the aggregated weights snapped to multiples of 1/64."""
    modes = len(program.modes)
    qubits = modes + len(program.ancillas)
    start = sum(1 << s.mode for s in program.statements if isinstance(s, Source))

    def apply(state, gate):
        unitary, targets = _unitary(gate, modes)
        return quantum.apply_gate(state, unitary, targets)

    def measure(state, step):
        subsystem = step.index if step.target_kind == "mode" else modes + step.index
        outcomes = quantum.measure_subsystem(state, subsystem, _BASES[step.variable])
        if step.kind is DisturbanceKind.DESTRUCTIVE:
            return [(k, p, quantum.reset_to_zero(s, subsystem)) for k, p, s in outcomes]
        return outcomes

    start_branch = [(1.0, quantum.basis_state(start, qubits), {})]
    raw = joint(start_branch, program.steps, apply, measure)
    snapped = {key: snap_dyadic(w) for key, w in raw.items()}
    return {key: p for key, p in snapped.items() if p}


def random_program(rng: random.Random) -> str:
    """Program text of at most three subsystems and 14 statements, drawn
    from every statement kind the quantum engine runs."""
    modes = [f"m{i}" for i in range(rng.randint(1, 3))]
    ancillas = [f"a{i}" for i in range(rng.randint(0, 3 - len(modes)))]
    lines = [f"mode {' '.join(modes)};"] + [f"ancilla {a};" for a in ancillas]
    for mode in modes:
        prep = rng.choice(("source", "vacuum", None))
        if prep:
            lines.append(f"{prep} {mode};")
    labels = iter(range(100))
    kinds = ["phase", "measure N", "detect"]
    kinds += ["bs", "bs", "swap"] if len(modes) > 1 else []
    kinds += ["cnot", "measure Q", "measure P"] if ancillas else []
    for _ in range(rng.randint(1, 14)):
        kind = rng.choice(kinds)
        if kind in ("bs", "swap"):
            a, b = rng.sample(modes, 2)
            lines.append(f"{kind} {a} {b};")
        elif kind == "phase":
            lines.append(f"phase {rng.choice(modes)} {rng.choice(('0', 'pi'))};")
        elif kind == "cnot":
            lines.append(f"cnot {rng.choice(modes)} {rng.choice(ancillas)};")
        elif kind == "measure N":
            disturbance = rng.choice(("", " nondestructive", " destructive"))
            lines.append(f"measure N {rng.choice(modes)}{disturbance} as x{next(labels)};")
        elif kind == "detect":
            lines.append(f"detect {rng.choice(modes)} as x{next(labels)};")
        else:
            lines.append(f"{kind} {rng.choice(ancillas)} as x{next(labels)};")
    return "\n".join(lines) + "\n"


# Seven fair measurements in a row: 128 outcomes of 1/128, finer than 1/64.
ALTERNATING = "mode L; ancilla A;" + "".join(
    f" measure {'PQ'[i % 2]} A as m{i};" for i in range(7))


def compare(program) -> str:
    """How the exact kernel met the float reference on one program."""
    try:
        reference = float_reference(program)
    except ValueError:
        try:
            joint = run_quantum_exact(compile_quantum(program))
        except ValueError:
            return "both refused"
        assert max(p.denominator for p in joint.values()) > 64, program
        return "finer than 1/64"
    assert run_quantum_exact(compile_quantum(program)) == reference, program
    return "agreed"


def test_exact_kernel_equals_the_float_reference():
    rng = random.Random(20211127)
    texts = [random_program(rng) for _ in range(1500)] + [ALTERNATING]
    seen = Counter(compare(parse(text)) for text in texts)
    # All three cases are reached: agreement, a non-dyadic weight that both
    # refuse, and a weight below 1/64 that only the float path refuses.
    assert seen["agreed"] > 1400 and seen["both refused"] > 0, seen
    assert seen["finer than 1/64"] > 0, seen


def to_floats(state) -> list[float]:
    a, b, e = state
    return [(x + y * math.sqrt(2.0)) / math.sqrt(2.0) ** e for x, y in zip(a, b)]


GATES = [Beamsplitter(0, 2), Beamsplitter(2, 1), PhaseShift(1, 1), PhaseShift(0, 0),
         Cnot(0, 0), Cnot(1, 0), SwapModes(0, 1), SwapModes(2, 0)]

# One statement of every keyword the parser knows.
EVERY_STATEMENT = ("mode L R; ancilla A; source L; vacuum R; bs L R; phase L pi; cnot L A; "
                   "swap L R; measure N L as n; measure Q A as q; measure P A as p; "
                   "detect R as d;")


def test_the_gates_checked_are_every_gate_class_the_lowering_makes():
    program = parse(EVERY_STATEMENT)
    statements = EVERY_STATEMENT.split(";")[2:-1]  # past the declarations
    assert {re.match(r"measure \w|\w+", s.strip()).group() for s in statements} == set(
        circuits._STATEMENTS)
    made = {type(s.gate) for s in program.steps if isinstance(s, circuits.GateStep)}
    assert made == {type(gate) for gate in GATES}


@pytest.mark.parametrize("gate", GATES)
def test_each_gate_equals_its_unitary(gate):
    """On random vectors of Z[sqrt(2)] over two modes and an ancilla."""
    rng = random.Random(repr(gate))
    kernel = quantum.exact_gate(gate, 2, 3)
    unitary, bits = _unitary(gate, 2)
    for _ in range(20):
        state = (tuple(rng.randint(-3, 3) for _ in range(8)),
                 tuple(rng.randint(-3, 3) for _ in range(8)), rng.randint(0, 3))
        amps = to_floats(state)
        norm = math.sqrt(sum(x * x for x in amps))
        if not norm:
            continue
        want = quantum.apply_gate(quantum.StateVector(tuple(x / norm for x in amps)), unitary, bits)
        got = to_floats(kernel(state))
        assert got == pytest.approx([x.real * norm for x in want.amps], abs=1e-9)


def test_a_gate_without_an_exact_map_is_refused():
    with pytest.raises(ValueError, match=re.escape("no exact kernel for gate Identity()")):
        quantum.exact_gate(Identity(), 2, 3)


def test_weight_is_the_squared_norm_and_refuses_irrational_parts():
    assert quantum.exact_weight(((1, 1, 0, 0), (0, 0, 0, 0), 2)) == Fraction(1, 2)
    assert quantum.exact_weight(((0, 0), (1, 1), 4)) == Fraction(1, 4)
    with pytest.raises(ValueError, match=r"is not dyadic within 1e-09$"):
        quantum.exact_weight(((1, 0), (1, 0), 3))
