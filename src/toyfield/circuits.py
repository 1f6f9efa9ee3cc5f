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
counterpart for other angles.  Programs compile to engine-specific plans;
the exact executors here branch over measurement outcomes and return joint
distributions over the declared labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    gate_table,
    push_forward,
)
from toyfield.toy_measurement import (
    DisturbanceKind,
    measure_ancilla,
    measure_occupation,
)

__all__ = [
    "CapabilityError",
    "CompileError",
    "ParseError",
    "Program",
    "QuantumPlan",
    "ToyPlan",
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


ToyStep = Union[GateStep, MeasureStep]


@dataclass(frozen=True)
class ToyPlan:
    program: Program
    shape: RegisterShape
    initial: EpistemicState
    steps: tuple[ToyStep, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if isinstance(s, MeasureStep))


@dataclass(frozen=True)
class QGateStep:
    gate: quantum.QuantumGate
    targets: tuple[int, ...]


@dataclass(frozen=True)
class QMeasureStep:
    label: str
    subsystem: int
    basis: quantum.MeasurementBasis
    destructive: bool = False


QuantumStep = Union[QGateStep, QMeasureStep]


@dataclass(frozen=True)
class QuantumPlan:
    program: Program
    initial: quantum.StateVector
    steps: tuple[QuantumStep, ...]


def _subsystem_maps(program: Program) -> tuple[dict[str, int], dict[str, int]]:
    mode_index = {name: i for i, name in enumerate(program.modes)}
    ancilla_index = {name: j for j, name in enumerate(program.ancillas)}
    return mode_index, ancilla_index


def compile_toy(program: Program) -> ToyPlan:
    """Lower a program to the classical engine: an initial flat state and a
    sequence of permutation gates and measurement steps."""
    if not program.modes:
        raise CompileError("program declares no modes")
    mode_index, ancilla_index = _subsystem_maps(program)
    shape = RegisterShape(len(program.modes), len(program.ancillas))

    sourced = {
        mode_index[s.mode] for s in program.statements if isinstance(s, Source)
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
    initial = EpistemicState(shape, frozenset(support))

    steps: list[ToyStep] = []
    for stmt in program.statements:
        if isinstance(stmt, (Source, Vacuum)):
            continue
        if isinstance(stmt, Bs):
            steps.append(GateStep(Beamsplitter(mode_index[stmt.a], mode_index[stmt.b])))
        elif isinstance(stmt, Phase):
            steps.append(GateStep(PhaseShift(mode_index[stmt.mode], stmt.s)))
        elif isinstance(stmt, CnotStmt):
            steps.append(
                GateStep(Cnot(mode_index[stmt.control], ancilla_index[stmt.ancilla]))
            )
        elif isinstance(stmt, Swap):
            steps.append(GateStep(SwapModes(mode_index[stmt.a], mode_index[stmt.b])))
        elif isinstance(stmt, MeasureN):
            steps.append(
                MeasureStep(stmt.label, "mode", mode_index[stmt.mode], "N", stmt.kind)
            )
        elif isinstance(stmt, MeasureQ):
            steps.append(
                MeasureStep(
                    stmt.label,
                    "ancilla",
                    ancilla_index[stmt.ancilla],
                    "Q",
                    DisturbanceKind.NONDESTRUCTIVE,
                )
            )
        elif isinstance(stmt, MeasureP):
            steps.append(
                MeasureStep(
                    stmt.label,
                    "ancilla",
                    ancilla_index[stmt.ancilla],
                    "P",
                    DisturbanceKind.NONDESTRUCTIVE,
                )
            )
        elif isinstance(stmt, Detect):
            steps.append(
                MeasureStep(
                    stmt.label,
                    "mode",
                    mode_index[stmt.mode],
                    "N",
                    DisturbanceKind.NONDESTRUCTIVE,
                    is_detect=True,
                )
            )
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")
    plan = ToyPlan(program, shape, initial, tuple(steps))
    for step in plan.steps:
        if isinstance(step, GateStep):
            gate_image(step.gate, shape)  # verifies the permutation up front
    return plan


def compile_quantum(program: Program) -> QuantumPlan:
    """Lower a program to the state-vector engine (modes then ancillas)."""
    if not program.modes:
        raise CompileError("program declares no modes")
    mode_index, ancilla_index = _subsystem_maps(program)
    qubits = len(program.modes) + len(program.ancillas)
    if qubits > 3:
        raise CapabilityError("state-vector engine supports at most 3 subsystems")

    start_index = 0
    for stmt in program.statements:
        if isinstance(stmt, Source):
            start_index |= 1 << mode_index[stmt.mode]
    initial = quantum.basis_state(start_index, qubits)

    def ancilla_bit(name: str) -> int:
        return len(program.modes) + ancilla_index[name]

    steps: list[QuantumStep] = []
    for stmt in program.statements:
        if isinstance(stmt, (Source, Vacuum)):
            continue
        if isinstance(stmt, Bs):
            steps.append(
                QGateStep(
                    quantum.bs_unitary("second"),
                    (mode_index[stmt.a], mode_index[stmt.b]),
                )
            )
        elif isinstance(stmt, Phase):
            steps.append(
                QGateStep(
                    quantum.phase_unitary(math.pi * stmt.s, "second"),
                    (mode_index[stmt.mode],),
                )
            )
        elif isinstance(stmt, CnotStmt):
            steps.append(
                QGateStep(
                    quantum.cnot_unitary("second"),
                    (mode_index[stmt.control], ancilla_bit(stmt.ancilla)),
                )
            )
        elif isinstance(stmt, Swap):
            steps.append(
                QGateStep(
                    quantum.swap_unitary(),
                    (mode_index[stmt.a], mode_index[stmt.b]),
                )
            )
        elif isinstance(stmt, MeasureN):
            steps.append(
                QMeasureStep(
                    stmt.label,
                    mode_index[stmt.mode],
                    quantum.OCCUPATION_BASIS,
                    destructive=stmt.kind is DisturbanceKind.DESTRUCTIVE,
                )
            )
        elif isinstance(stmt, MeasureQ):
            steps.append(
                QMeasureStep(
                    stmt.label, ancilla_bit(stmt.ancilla), quantum.ANCILLA_Q_BASIS
                )
            )
        elif isinstance(stmt, MeasureP):
            steps.append(
                QMeasureStep(
                    stmt.label, ancilla_bit(stmt.ancilla), quantum.ANCILLA_P_BASIS
                )
            )
        elif isinstance(stmt, Detect):
            steps.append(
                QMeasureStep(stmt.label, mode_index[stmt.mode], quantum.OCCUPATION_BASIS)
            )
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")
    return QuantumPlan(program, initial, tuple(steps))


# ---------------------------------------------------------------------------
# Exact execution

Assignment = tuple[tuple[str, int], ...]
JointDistribution = dict[Assignment, Fraction]


def _toy_measure(state: EpistemicState, step: MeasureStep):
    if step.variable == "N":
        return [
            (o.value, o.probability, o.posterior)
            for o in measure_occupation(state, step.index, step.kind)
        ]
    return [
        (o.value, o.probability, o.posterior)
        for o in measure_ancilla(state, step.index, step.variable)
    ]


def run_toy_exact(plan: ToyPlan) -> JointDistribution:
    """Exact joint distribution over measurement labels, by branching."""
    branches: list[tuple[Fraction, EpistemicState, dict[str, int]]] = [
        (Fraction(1), plan.initial, {})
    ]
    for step in plan.steps:
        if isinstance(step, GateStep):
            branches = [
                (w, push_forward(state, step.gate), ev) for w, state, ev in branches
            ]
        else:
            new_branches = []
            for w, state, ev in branches:
                for value, prob, posterior in _toy_measure(state, step):
                    new_events = dict(ev)
                    new_events[step.label] = value
                    new_branches.append((w * prob, posterior, new_events))
            branches = new_branches
    joint: JointDistribution = {}
    for w, _, ev in branches:
        key = tuple(sorted(ev.items()))
        joint[key] = joint.get(key, Fraction(0)) + w
    return joint


def snap_dyadic(p: float, tol: float = 1e-9, denominator: int = 64) -> Fraction:
    """Snap a float probability to the nearest dyadic rational.

    All exact outcome probabilities in this package are multiples of 1/64 or
    coarser; a float farther than ``tol`` from such a rational is an error.
    """
    candidate = Fraction(round(p * denominator), denominator)
    if abs(p - float(candidate)) > tol:
        raise ValueError(f"probability {p} is not dyadic within {tol}")
    return candidate


def run_quantum_exact(plan: QuantumPlan, tol: float = 1e-9) -> JointDistribution:
    """Joint distribution from the state-vector engine, exactified.

    Branch weights are Born probabilities; the aggregated label weights are
    snapped to dyadic rationals (failing loudly if any is farther than
    ``tol`` from one).
    """
    branches: list[tuple[float, quantum.StateVector, dict[str, int]]] = [
        (1.0, plan.initial, {})
    ]
    for step in plan.steps:
        if isinstance(step, QGateStep):
            branches = [
                (w, quantum.apply_gate(state, step.gate, step.targets), ev)
                for w, state, ev in branches
            ]
        else:
            new_branches = []
            for w, state, ev in branches:
                for value, prob, collapsed in quantum.measure_subsystem(
                    state, step.subsystem, step.basis
                ):
                    if step.destructive:
                        collapsed = quantum.reset_to_zero(collapsed, step.subsystem)
                    new_events = dict(ev)
                    new_events[step.label] = value
                    new_branches.append((w * prob, collapsed, new_events))
            branches = new_branches
    raw: dict[Assignment, float] = {}
    for w, _, ev in branches:
        key = tuple(sorted(ev.items()))
        raw[key] = raw.get(key, 0.0) + w
    joint: JointDistribution = {}
    for key, w in raw.items():
        p = snap_dyadic(w, tol)
        if p:
            joint[key] = p
    return joint


def enumerate_toy_runs(plan: ToyPlan) -> JointDistribution:
    """Average single-run sampling over all initial states and coin choices.

    This enumerates what the Monte Carlo path can ever produce: every
    supported initial physical state, and both disturbance choices at every
    measurement.  The result must equal :func:`run_toy_exact` exactly; the
    identity is an enumeration fact, not a statistical one.
    """
    from toyfield.montecarlo import step_run_index  # local import; no cycle at module load

    shape = plan.shape
    joint: JointDistribution = {}
    initial_states = sorted(plan.initial.support)
    base_weight = Fraction(1, len(initial_states))

    measure_steps = [s for s in plan.steps if isinstance(s, MeasureStep)]
    coin_count = len(measure_steps)

    for start in initial_states:
        for coins in range(1 << coin_count):
            weight = base_weight * Fraction(1, 1 << coin_count)
            state = start
            events: dict[str, int] = {}
            coin_cursor = 0
            for step in plan.steps:
                if isinstance(step, GateStep):
                    state = gate_table(step.gate, shape)[state]
                else:
                    coin = (coins >> coin_cursor) & 1
                    coin_cursor += 1
                    value, state = step_run_index(state, shape, step, coin)
                    events[step.label] = value
            key = tuple(sorted(events.items()))
            joint[key] = joint.get(key, Fraction(0)) + weight
    return joint


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
