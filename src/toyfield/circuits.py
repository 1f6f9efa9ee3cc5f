"""A small textual language for interferometer circuits, plus plan execution.

Grammar (whitespace-insensitive, ``#`` line comments, statements end with
semicolons)::

    program := decl* stmt*
    decl    := "mode" ident+ ";" | "ancilla" ident ";"
    stmt    := "source" ident ";"
             | "vacuum" ident ";"
             | "bs" ident ident ";"
             | "phase" ident ("0" | "pi") ";"
             | "cnot" ident ident ";"
             | "swap" ident ident ";"
             | "measure" ("N"|"Q"|"P") ident ("nondestructive"|"destructive")? "as" ident ";"
             | "detect" ident "as" ident ";"

Phase literals are restricted to 0 and pi in the grammar itself: the program
text is the contract shared by every engine, and the classical engine has no
counterpart for other angles.  Programs lower to one sequence of gate and
measurement steps, which each engine's plan pairs with its own initial
state; one branching executor runs the steps on either exact engine and
returns joint distributions over the declared labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from toyfield import quantum
from toyfield.phase_space import EpistemicState, RegisterShape
from toyfield.toy_dynamics import (
    Beamsplitter,
    Cnot,
    PhaseShift,
    SwapModes,
    ToyGate,
    gate_image,
    gate_table,  # noqa: F401  the tracer test reads it (ROADMAP item 1)
    push_forward,
)
from toyfield.toy_measurement import (
    DisturbanceKind,
    measure_ancilla,
    measure_occupation,
    measurement_kernel,
)

__all__ = [
    "CapabilityError",
    "CompileError",
    "ParseError",
    "Program",
    "QuantumPlan",
    "ToyPlan",
    "branches",
    "compile_quantum",
    "compile_toy",
    "default_labeler",
    "enumerate_toy_runs",
    "parse",
    "render",
    "run_quantum_exact",
    "run_toy_exact",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CompileError(ValueError):
    pass


class CapabilityError(CompileError):
    """The target engine cannot host this program."""


# ---------------------------------------------------------------------------
# Program representation


@dataclass(frozen=True)
class Source:
    mode: str


@dataclass(frozen=True)
class Vacuum:
    mode: str


@dataclass(frozen=True)
class Bs:
    a: str
    b: str


@dataclass(frozen=True)
class Phase:
    mode: str
    s: int  # 0 or 1; 1 means a pi shift


@dataclass(frozen=True)
class CnotStmt:
    control: str
    ancilla: str


@dataclass(frozen=True)
class Swap:
    a: str
    b: str


@dataclass(frozen=True)
class MeasureN:
    mode: str
    kind: DisturbanceKind
    label: str


@dataclass(frozen=True)
class MeasureQ:
    ancilla: str
    label: str


@dataclass(frozen=True)
class MeasureP:
    ancilla: str
    label: str


@dataclass(frozen=True)
class Detect:
    mode: str
    label: str


Statement = Union[
    Source, Vacuum, Bs, Phase, CnotStmt, Swap, MeasureN, MeasureQ, MeasureP, Detect
]


@dataclass(frozen=True)
class Program:
    modes: tuple[str, ...]
    ancillas: tuple[str, ...]
    statements: tuple[Statement, ...]
    name: str = ""

    def labels(self) -> tuple[str, ...]:
        out = []
        for stmt in self.statements:
            if isinstance(stmt, (MeasureN, MeasureQ, MeasureP, Detect)):
                out.append(stmt.label)
        return tuple(out)


# ---------------------------------------------------------------------------
# Lexer and parser


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "semi", "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    last_end = (1, 1)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == ";":
            tokens.append(_Token("semi", ";", line, column))
            column += 1
            i += 1
            last_end = (line, column)
            continue
        if ch.isalnum() or ch == "_":
            start, start_col = i, column
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                column += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
            last_end = (line, column)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    # The end-of-input marker sits right after the last token so that
    # "expected ';'" style errors point at a useful position.
    tokens.append(_Token("eof", "", *last_end))
    return tokens


_KEYWORDS = {
    "mode", "ancilla", "source", "vacuum", "bs", "phase", "cnot", "swap",
    "measure", "detect", "as", "nondestructive", "destructive",
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.modes: list[str] = []
        self.ancillas: list[str] = []
        self.statements: list[Statement] = []
        self.prepared: set[str] = set()
        self.touched: set[str] = set()
        self.labels: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None) -> "ParseError":
        token = token or self.peek()
        return ParseError(message, token.line, token.column)

    def expect_semi(self) -> None:
        token = self.take()
        if token.kind != "semi":
            raise ParseError("expected ';'", token.line, token.column)

    def identifier(self, what: str = "identifier") -> _Token:
        token = self.take()
        if token.kind != "ident" or token.text in _KEYWORDS or token.text[0].isdigit():
            raise ParseError(f"expected {what}", token.line, token.column)
        return token

    def declared_mode(self) -> str:
        token = self.take()
        if token.kind != "ident":
            raise ParseError("expected mode name", token.line, token.column)
        if token.text not in self.modes:
            if token.text in self.ancillas:
                raise ParseError(
                    f"{token.text} is an ancilla, not a mode", token.line, token.column
                )
            raise ParseError(f"unknown identifier {token.text}", token.line, token.column)
        return token.text

    def declared_ancilla(self) -> str:
        token = self.take()
        if token.kind != "ident":
            raise ParseError("expected ancilla name", token.line, token.column)
        if token.text not in self.ancillas:
            if token.text in self.modes:
                raise ParseError(
                    f"{token.text} is a mode, not an ancilla", token.line, token.column
                )
            raise ParseError(f"unknown identifier {token.text}", token.line, token.column)
        return token.text

    def label(self) -> str:
        token = self.identifier("label")
        if token.text in self.labels:
            raise ParseError(f"duplicate label {token.text}", token.line, token.column)
        self.labels.add(token.text)
        return token.text

    def parse(self) -> Program:
        while self.peek().kind == "ident" and self.peek().text in ("mode", "ancilla"):
            self.declaration()
        while self.peek().kind != "eof":
            self.statement()
        return Program(tuple(self.modes), tuple(self.ancillas), tuple(self.statements))

    def declaration(self) -> None:
        keyword = self.take()
        if keyword.text == "mode":
            names = []
            while self.peek().kind == "ident" and self.peek().text not in _KEYWORDS:
                names.append(self.identifier("mode name"))
            if not names:
                raise self.fail("expected at least one mode name")
            self.expect_semi()
            for token in names:
                if token.text in self.modes or token.text in self.ancillas:
                    raise ParseError(
                        f"duplicate declaration of {token.text}",
                        token.line,
                        token.column,
                    )
                self.modes.append(token.text)
        else:
            token = self.identifier("ancilla name")
            self.expect_semi()
            if token.text in self.modes or token.text in self.ancillas:
                raise ParseError(
                    f"duplicate declaration of {token.text}", token.line, token.column
                )
            self.ancillas.append(token.text)

    def statement(self) -> None:
        token = self.take()
        if token.kind != "ident":
            raise ParseError("expected a statement", token.line, token.column)
        word = token.text
        if word in ("mode", "ancilla"):
            raise ParseError(
                "declarations must precede statements", token.line, token.column
            )
        if word in ("source", "vacuum"):
            mode_token = self.peek()
            mode = self.declared_mode()
            self.expect_semi()
            if mode in self.prepared:
                raise ParseError(
                    f"duplicate preparation of {mode}",
                    mode_token.line,
                    mode_token.column,
                )
            if mode in self.touched:
                raise ParseError(
                    f"preparation of {mode} after it was used",
                    mode_token.line,
                    mode_token.column,
                )
            self.prepared.add(mode)
            self.statements.append(Source(mode) if word == "source" else Vacuum(mode))
            return
        if word == "bs" or word == "swap":
            first = self.peek()
            a = self.declared_mode()
            second = self.peek()
            b = self.declared_mode()
            self.expect_semi()
            if a == b:
                raise ParseError(
                    f"{word} needs two distinct modes", second.line, second.column
                )
            self.touched.update((a, b))
            self.statements.append(Bs(a, b) if word == "bs" else Swap(a, b))
            return
        if word == "phase":
            mode = self.declared_mode()
            angle = self.take()
            if angle.kind != "ident" or angle.text not in ("0", "pi"):
                raise ParseError("expected phase literal 0 or pi", angle.line, angle.column)
            self.expect_semi()
            self.touched.add(mode)
            self.statements.append(Phase(mode, 0 if angle.text == "0" else 1))
            return
        if word == "cnot":
            control = self.declared_mode()
            target = self.declared_ancilla()
            self.expect_semi()
            self.touched.update((control, target))
            self.statements.append(CnotStmt(control, target))
            return
        if word == "measure":
            variable = self.take()
            if variable.kind != "ident" or variable.text not in ("N", "Q", "P"):
                raise ParseError(
                    "expected measured variable N, Q or P", variable.line, variable.column
                )
            if variable.text == "N":
                target = self.declared_mode()
            else:
                target = self.declared_ancilla()
            kind = DisturbanceKind.NONDESTRUCTIVE
            kind_token = self.peek()
            if kind_token.kind == "ident" and kind_token.text in (
                "nondestructive",
                "destructive",
            ):
                self.take()
                if variable.text != "N":
                    raise ParseError(
                        "disturbance kind applies only to occupation measurements",
                        kind_token.line,
                        kind_token.column,
                    )
                kind = DisturbanceKind(kind_token.text)
            as_token = self.take()
            if as_token.kind != "ident" or as_token.text != "as":
                raise ParseError("expected 'as'", as_token.line, as_token.column)
            label = self.label()
            self.expect_semi()
            self.touched.add(target)
            if variable.text == "N":
                self.statements.append(MeasureN(target, kind, label))
            elif variable.text == "Q":
                self.statements.append(MeasureQ(target, label))
            else:
                self.statements.append(MeasureP(target, label))
            return
        if word == "detect":
            mode = self.declared_mode()
            as_token = self.take()
            if as_token.kind != "ident" or as_token.text != "as":
                raise ParseError("expected 'as'", as_token.line, as_token.column)
            label = self.label()
            self.expect_semi()
            self.touched.add(mode)
            self.statements.append(Detect(mode, label))
            return
        raise ParseError(f"unknown statement {word!r}", token.line, token.column)


def parse(text: str) -> Program:
    """Parse program text; raises ParseError with line/column on failure."""
    return _Parser(text.replace("\r\n", "\n")).parse()


def render(program: Program) -> str:
    """Canonical text form; parse(render(p)) == p."""
    lines = []
    if program.modes:
        lines.append("mode " + " ".join(program.modes) + ";")
    for ancilla in program.ancillas:
        lines.append(f"ancilla {ancilla};")
    for stmt in program.statements:
        if isinstance(stmt, Source):
            lines.append(f"source {stmt.mode};")
        elif isinstance(stmt, Vacuum):
            lines.append(f"vacuum {stmt.mode};")
        elif isinstance(stmt, Bs):
            lines.append(f"bs {stmt.a} {stmt.b};")
        elif isinstance(stmt, Phase):
            lines.append(f"phase {stmt.mode} {'pi' if stmt.s else '0'};")
        elif isinstance(stmt, CnotStmt):
            lines.append(f"cnot {stmt.control} {stmt.ancilla};")
        elif isinstance(stmt, Swap):
            lines.append(f"swap {stmt.a} {stmt.b};")
        elif isinstance(stmt, MeasureN):
            lines.append(f"measure N {stmt.mode} {stmt.kind.value} as {stmt.label};")
        elif isinstance(stmt, MeasureQ):
            lines.append(f"measure Q {stmt.ancilla} as {stmt.label};")
        elif isinstance(stmt, MeasureP):
            lines.append(f"measure P {stmt.ancilla} as {stmt.label};")
        elif isinstance(stmt, Detect):
            lines.append(f"detect {stmt.mode} as {stmt.label};")
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compiled plans


@dataclass(frozen=True)
class GateStep:
    gate: ToyGate


@dataclass(frozen=True)
class MeasureStep:
    label: str
    target_kind: str  # "mode" or "ancilla"
    index: int
    variable: str  # "N", "Q" or "P"
    kind: DisturbanceKind  # meaningful for N only
    is_detect: bool = False


Step = Union[GateStep, MeasureStep]


@dataclass(frozen=True)
class ToyPlan:
    program: Program
    shape: RegisterShape
    initial: EpistemicState
    steps: tuple[Step, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if isinstance(s, MeasureStep))


@dataclass(frozen=True)
class QuantumPlan:
    program: Program
    initial: quantum.StateVector
    steps: tuple[Step, ...]


def _lower(program: Program) -> tuple[Step, ...]:
    """The program's gates and measurements as steps shared by both engines;
    preparations are folded into each engine's initial state instead."""
    if not program.modes:
        raise CompileError("program declares no modes")
    mode = {name: i for i, name in enumerate(program.modes)}
    ancilla = {name: j for j, name in enumerate(program.ancillas)}
    nondestructive = DisturbanceKind.NONDESTRUCTIVE
    steps: list[Step] = []
    for stmt in program.statements:
        if isinstance(stmt, (Source, Vacuum)):
            continue
        if isinstance(stmt, Bs):
            step = GateStep(Beamsplitter(mode[stmt.a], mode[stmt.b]))
        elif isinstance(stmt, Phase):
            step = GateStep(PhaseShift(mode[stmt.mode], stmt.s))
        elif isinstance(stmt, CnotStmt):
            step = GateStep(Cnot(mode[stmt.control], ancilla[stmt.ancilla]))
        elif isinstance(stmt, Swap):
            step = GateStep(SwapModes(mode[stmt.a], mode[stmt.b]))
        elif isinstance(stmt, MeasureN):
            step = MeasureStep(stmt.label, "mode", mode[stmt.mode], "N", stmt.kind)
        elif isinstance(stmt, (MeasureQ, MeasureP)):
            variable = "Q" if isinstance(stmt, MeasureQ) else "P"
            step = MeasureStep(
                stmt.label, "ancilla", ancilla[stmt.ancilla], variable, nondestructive
            )
        elif isinstance(stmt, Detect):
            step = MeasureStep(
                stmt.label, "mode", mode[stmt.mode], "N", nondestructive, is_detect=True
            )
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")
        steps.append(step)
    return tuple(steps)


def compile_toy(program: Program) -> ToyPlan:
    """Lower a program to the classical engine: an initial flat state and a
    sequence of permutation gates and measurement steps."""
    steps = _lower(program)
    shape = RegisterShape(len(program.modes), len(program.ancillas))
    sourced = {
        program.modes.index(s.mode) for s in program.statements if isinstance(s, Source)
    }
    # Unprepared modes default to the vacuum; ancillas start with q known 0.
    support = {0}
    for m in sourced:
        bit = 1 << shape.occupation_slot(m)
        support = {x | bit for x in support}
    for m in range(shape.modes):
        phi = 1 << shape.phase_slot(m)
        support |= {x ^ phi for x in support}
    for j in range(shape.ancillas):
        p = 1 << shape.momentum_slot(j)
        support |= {x ^ p for x in support}
    for step in steps:
        if isinstance(step, GateStep):
            gate_image(step.gate, shape)  # verifies the permutation up front
    return ToyPlan(program, shape, EpistemicState(shape, frozenset(support)), steps)


def compile_quantum(program: Program) -> QuantumPlan:
    """Lower a program to the state-vector engine (modes then ancillas)."""
    steps = _lower(program)
    qubits = len(program.modes) + len(program.ancillas)
    if qubits > 3:
        raise CapabilityError("state-vector engine supports at most 3 subsystems")
    start_index = 0
    for stmt in program.statements:
        if isinstance(stmt, Source):
            start_index |= 1 << program.modes.index(stmt.mode)
    return QuantumPlan(program, quantum.basis_state(start_index, qubits), steps)


# ---------------------------------------------------------------------------
# Exact execution

Assignment = tuple[tuple[str, int], ...]
JointDistribution = dict[Assignment, Fraction]


def branches(start, steps, apply, measure):
    """Branch ``start`` over the steps; yield ``(step, branches)`` after each.

    A branch is ``(weight, state, events)``.  A gate maps every branch's state
    through ``apply(state, gate)``; a measurement splits every branch over
    ``measure(state, step)``'s ``(value, probability, posterior)`` outcomes,
    multiplying its weight and recording ``events[step.label] = value``.
    ``start`` is the list of branches before the first step; its weights set
    the arithmetic (``Fraction`` stays exact, ``float`` stays float).
    """
    current = start
    for step in steps:
        if isinstance(step, GateStep):
            gate = step.gate
            current = [(w, apply(state, gate), events) for w, state, events in current]
        else:
            label = step.label
            current = [
                (w * prob, posterior, {**events, label: value})
                for w, state, events in current
                for value, prob, posterior in measure(state, step)
            ]
        yield step, current


def _joint(start, steps, apply, measure) -> dict:
    """Total weight per label assignment over the final branches."""
    final = start
    for _, final in branches(start, steps, apply, measure):
        pass
    joint: dict = {}
    for w, _, events in final:
        key = tuple(sorted(events.items()))
        joint[key] = joint.get(key, 0) + w
    return joint


def toy_measure(state: EpistemicState, step: MeasureStep):
    """The classical engine's outcomes of a measurement step, as
    ``(value, probability, posterior)`` triples."""
    if step.variable == "N":
        outcomes = measure_occupation(state, step.index, step.kind)
    else:
        outcomes = measure_ancilla(state, step.index, step.variable)
    return [(o.value, o.probability, o.posterior) for o in outcomes]


def run_toy_exact(plan: ToyPlan) -> JointDistribution:
    """Exact joint distribution over measurement labels, by branching."""
    return _joint([(Fraction(1), plan.initial, {})], plan.steps, push_forward, toy_measure)


def snap_dyadic(p: float, tol: float = 1e-9, denominator: int = 64) -> Fraction:
    """Snap a float probability to the nearest dyadic rational.

    All exact outcome probabilities in this package are multiples of 1/64 or
    coarser; a float farther than ``tol`` from such a rational is an error.
    """
    candidate = Fraction(round(p * denominator), denominator)
    if abs(p - float(candidate)) > tol:
        raise ValueError(f"probability {p} is not dyadic within {tol}")
    return candidate


_BASES = {
    "N": quantum.OCCUPATION_BASIS,
    "Q": quantum.ANCILLA_Q_BASIS,
    "P": quantum.ANCILLA_P_BASIS,
}


@lru_cache(maxsize=None)  # the 3-subsystem cap leaves a few dozen keys
def _unitary(gate: ToyGate, modes: int) -> tuple[quantum.QuantumGate, tuple[int, ...]]:
    """The state-vector gate and target bits of a toy gate on a register
    of ``modes`` modes followed by its ancillas."""
    if isinstance(gate, Beamsplitter):
        return quantum.bs_unitary("second"), (gate.a, gate.b)
    if isinstance(gate, PhaseShift):
        return quantum.phase_unitary(math.pi * gate.s, "second"), (gate.mode,)
    if isinstance(gate, Cnot):
        return quantum.cnot_unitary("second"), (gate.control, modes + gate.ancilla)
    if isinstance(gate, SwapModes):
        return quantum.swap_unitary(), (gate.a, gate.b)
    raise CompileError(f"no state-vector counterpart for {gate!r}")


def run_quantum_exact(plan: QuantumPlan, tol: float = 1e-9) -> JointDistribution:
    """Joint distribution from the state-vector engine, exactified.

    Branch weights are Born probabilities; the aggregated label weights are
    snapped to dyadic rationals (failing loudly if any is farther than
    ``tol`` from one).
    """
    modes = len(plan.program.modes)

    def apply(state: quantum.StateVector, gate: ToyGate) -> quantum.StateVector:
        unitary, targets = _unitary(gate, modes)
        return quantum.apply_gate(state, unitary, targets)

    def measure(state: quantum.StateVector, step: MeasureStep):
        subsystem = step.index if step.target_kind == "mode" else modes + step.index
        outcomes = quantum.measure_subsystem(state, subsystem, _BASES[step.variable])
        if step.kind is DisturbanceKind.DESTRUCTIVE:
            return [(k, p, quantum.reset_to_zero(s, subsystem)) for k, p, s in outcomes]
        return outcomes

    raw = _joint([(1.0, plan.initial, {})], plan.steps, apply, measure)
    joint: JointDistribution = {}
    for key, w in raw.items():
        p = snap_dyadic(w, tol)
        if p:
            joint[key] = p
    return joint


def step_run_index(state: int, shape: RegisterShape, step: MeasureStep, coin: int):
    """Apply one measurement step to a packed state with an explicit coin:
    ``(value, state after)`` under the step's measurement kernel."""
    read, keep, flip = measurement_kernel(
        step.variable,
        step.index,
        shape.modes,
        shape.ancillas,
        step.kind is DisturbanceKind.DESTRUCTIVE,
    )
    return (state >> read) & 1, (state & keep) ^ (coin << flip)


def enumerate_toy_runs(plan: ToyPlan) -> JointDistribution:
    """Average single-run sampling over all initial states and coin choices.

    This enumerates what the Monte Carlo path can ever produce: every
    supported initial physical state, and both disturbance choices at every
    measurement.  The result must equal :func:`run_toy_exact` exactly; the
    identity is an enumeration fact, not a statistical one.
    """
    shape = plan.shape
    half = Fraction(1, 2)

    def apply(state: int, gate: ToyGate) -> int:
        return gate_image(gate, shape)[state]

    def measure(state: int, step: MeasureStep):
        outcomes = (step_run_index(state, shape, step, coin) for coin in (0, 1))
        return [(value, half, after) for value, after in outcomes]

    weight = Fraction(1, len(plan.initial.support))
    start = [(weight, x, {}) for x in sorted(plan.initial.support)]
    return _joint(start, plan.steps, apply, measure)


def default_labeler(outcome: dict[str, int]) -> str:
    """Name an outcome by its ``label=value`` assignments in label order."""
    return " ".join(f"{k}={v}" for k, v in sorted(outcome.items()))


def joint_to_labeled(
    joint: JointDistribution, labeler: Callable[[dict[str, int]], str]
) -> dict[str, Fraction]:
    """Collapse a joint assignment distribution to named outcomes."""
    out: dict[str, Fraction] = {}
    for key, weight in joint.items():
        label = labeler(dict(key))
        out[label] = out.get(label, Fraction(0)) + weight
    return {label: w for label, w in out.items() if w}
