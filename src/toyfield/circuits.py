"""A small textual language for interferometer circuits, plus plan execution.

Grammar (whitespace-insensitive, ``#`` line comments, statements end with
semicolons)::

    program := decl* stmt*
    decl    := "mode" ident+ ";" | "ancilla" ident ";"
    stmt    := "source" mode ";"
             | "vacuum" mode ";"
             | "bs" mode mode ";"
             | "phase" mode ("0" | "pi") ";"
             | "cnot" mode ancilla ";"
             | "swap" mode mode ";"
             | "measure" "N" mode ("nondestructive"|"destructive")? "as" label ";"
             | "measure" ("Q"|"P") ancilla "as" label ";"
             | "detect" mode "as" label ";"

The statement rules are written once, in the table ``_STATEMENTS`` (each
keyword's builder and argument kinds, a mode or an ancilla read as its
index), which the parser reads statements through and the renderer writes
them back through, names taken from the program's declarations.  A parsed
program holds what the engines run: the preparations ``Source`` and
``Vacuum``, and each gate or measurement as its hash-consed ``GateStep`` or
``MeasureStep``.  The parser checks the text, comments removed, against
the token and ASCII spacing characters once and splits it on ``;``, one
declaration or statement a piece.  A statement's piece is read by one loop
over its tokens, memoised by its text and the declared names; the parser
itself checks only what reads earlier statements (labels, preparations).
The text is scanned with a regular expression only for a ``ParseError``, to
find a stray character or a token's line and column; its three patterns
(the scan, the token characters and the comment) are compiled on first use.

Phase literals are restricted to 0 and pi in the grammar itself: the program
text is the contract shared by every engine, and the classical engine has no
counterpart for other angles.  Each engine's plan pairs the program's steps
(its statements without the preparations) with its own initial state; one
branching executor runs the steps on either exact engine and returns joint
distributions over the declared labels.  A ``Scenario`` pairs a program with
a labeler, and ``run_scenario`` runs it on any engine: a program file is run
through them without loading the scenario catalogue (:mod:`toyfield.scenarios`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from typing import Callable, Union

from toyfield._record import record
from toyfield.phase_space import (
    ONE,
    SMALL_REGISTER_POINTS,
    EpistemicState,
    RegisterShape,
    _prepared,
    prepared,
    shared_fraction,
)
from toyfield.toy_dynamics import (
    Beamsplitter,
    Cnot,
    PhaseShift,
    SwapModes,
    ToyGate,
    _gate_kernel,
    gate_table,
    kernel_forward,
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
    "OutcomeDistribution",
    "ParseError",
    "Program",
    "QuantumPlan",
    "Scenario",
    "ToyPlan",
    "branches",
    "compile_quantum",
    "compile_toy",
    "default_labeler",
    "parse",
    "render",
    "run_quantum_exact",
    "run_scenario",
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


class object_memo:
    """A per-object memo: on first read the value is computed and stored in
    the instance's ``__dict__``, which later reads find before this
    descriptor.  It takes no lock (unlike ``functools.cached_property`` on
    Python 3.11): values are deterministic and immutable, so two threads
    computing one at once store equal values.  An exception stores nothing,
    so the next read computes again."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.compute(instance)
        instance.__dict__[self.name] = value
        return value


# ---------------------------------------------------------------------------
# Program representation


@record
class Source:
    """``source m``: prepare the mode (by index) with one excitation."""

    mode: int


@record
class Vacuum:
    """``vacuum m``: prepare the mode (by index) empty, the default of an unprepared mode."""

    mode: int


@record
class GateStep:
    """A gate statement, shared by both exact engines."""

    gate: ToyGate


@record
class MeasureStep:
    """A measurement statement, shared by both exact engines."""

    label: str
    target_kind: str  # "mode" or "ancilla"
    index: int
    variable: str  # "N", "Q" or "P"
    kind: DisturbanceKind  # meaningful for N only
    is_detect: bool = False


Step = Union[GateStep, MeasureStep]
Statement = Union[Source, Vacuum, GateStep, MeasureStep]


# Hash-consed steps and shapes: equal values built by different programs are
# one object, so the memos keyed by them (``gate_table``, ``toy_measure``,
# ``phase_space._prepared``) match their keys by identity.  Each is a bounded
# LRU, since labels are user text, keyed by plain values, whose hashes are C
# code (an enum's ``__hash__`` is Python).
@lru_cache(maxsize=1024)
def _gate_step(gate: type, *targets: int) -> GateStep:
    return GateStep(gate(*targets))


@lru_cache(maxsize=1024)
def _measure_step(label: str, target_kind: str, index: int, variable: str,
                  destructive: bool, is_detect: bool) -> MeasureStep:
    kind = _DESTRUCTIVE if destructive else _NONDESTRUCTIVE
    return MeasureStep(label, target_kind, index, variable, kind, is_detect)


_shape = lru_cache(maxsize=64)(RegisterShape)


@record
class Program:
    """A parsed program: declared modes and ancillas, then its statements in
    order, the preparations over mode indices and the gates and measurements
    as the steps the engines run."""

    modes: tuple[str, ...]
    ancillas: tuple[str, ...]
    statements: tuple[Statement, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.statements if type(s) is MeasureStep)

    @object_memo
    def steps(self) -> tuple[Step, ...]:
        """The statements with the preparations left out, which each engine
        folds into its initial state instead: the steps both compilers read."""
        if not self.modes:
            raise CompileError("program declares no modes")
        steps = []
        for stmt in self.statements:
            if type(stmt) is GateStep or type(stmt) is MeasureStep:
                steps.append(stmt)
            elif type(stmt) is not Source and type(stmt) is not Vacuum:
                raise CompileError(f"cannot compile statement {stmt!r}")
        return tuple(steps)

    @object_memo
    def toy_plan(self) -> ToyPlan:
        """The program's classical plan (:func:`compile_toy`), compiled once
        per program object; a program that does not compile raises each time."""
        return _compile_toy(self)


# ---------------------------------------------------------------------------
# Statement table, lexer and parser

# Each statement's keyword, the function that builds it and its argument kinds
# (``as`` is syntax only), a mode or an ancilla passed as its index: parse
# reads every statement through its entry and render writes it back through
# the same kinds.
_NONDESTRUCTIVE = DisturbanceKind.NONDESTRUCTIVE
_DESTRUCTIVE = DisturbanceKind.DESTRUCTIVE
_STATEMENTS: dict[str, tuple[Callable[..., Statement], tuple[str, ...]]] = {
    "source": (Source, ("mode",)),
    "vacuum": (Vacuum, ("mode",)),
    "bs": (partial(_gate_step, Beamsplitter), ("mode", "mode")),
    "phase": (partial(_gate_step, PhaseShift), ("mode", "angle")),
    "cnot": (partial(_gate_step, Cnot), ("mode", "ancilla")),
    "swap": (partial(_gate_step, SwapModes), ("mode", "mode")),
    "measure N": (lambda m, kind, label: _measure_step(label, "mode", m, "N",
                                                       kind is _DESTRUCTIVE, False),
                  ("mode", "kind", "as", "label")),
    "measure Q": (lambda a, label: _measure_step(label, "ancilla", a, "Q", False, False),
                  ("ancilla", "as", "label")),
    "measure P": (lambda a, label: _measure_step(label, "ancilla", a, "P", False, False),
                  ("ancilla", "as", "label")),
    "detect": (lambda m, label: _measure_step(label, "mode", m, "N", False, True),
               ("mode", "as", "label")),
}
_GATE_KEYWORDS = {Beamsplitter: "bs", PhaseShift: "phase", Cnot: "cnot", SwapModes: "swap"}
_ANGLES = ("0", "pi")  # indexed by PhaseShift.s
_DISTURBANCES = ("nondestructive", "destructive")
_KINDS = {"nondestructive": _NONDESTRUCTIVE, "destructive": _DESTRUCTIVE}  # no enum call
_ARTICLE = {"mode": "a mode", "ancilla": "an ancilla"}

_KEYWORDS = {
    "mode", "ancilla", "source", "vacuum", "bs", "phase", "cnot", "swap",
    "measure", "detect", "as", "nondestructive", "destructive",
}
_NOT_NAMES = _KEYWORDS | {"", ";"}

# A token (";" or a word), a comment, or any other character but spacing,
# which is an error.  A text whose characters outside comments are all token
# characters or ASCII spacing (``_PLAIN``, after ``_COMMENT`` is removed) is
# split on ";" and on its spacing; the ``_LEXEME`` scan runs only for a
# ParseError, to find a stray character or where a token sits.  "" marks the
# end of input.  Only a ParseError or a comment reads the patterns of
# ``_LAZY``, so each is compiled on first use and kept by ``re``'s own cache.
_PLAIN = re.compile(r"[;\w \t\r\n]*")
_LAZY = {"_LEXEME": r";|\w+|#[^\n]*|[^ \t\r\n]", "_TOKEN_CHARS": r"[;\w]*",
         "_COMMENT": r"#[^\n]*"}


def _pattern(name: str) -> re.Pattern:
    return re.compile(_LAZY[name])


def _error(text: str, message: str, index: int) -> ParseError:
    """The error at token ``index``.  The end-of-input marker sits right
    after the last token so that "expected ';'" style errors point at a
    useful position."""
    found = [m for m in _pattern("_LEXEME").finditer(text) if m.group()[0] != "#"]
    offset = found[index].start() if index < len(found) else found[-1].end() if found else 0
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Misread(Exception):
    """An error at token ``index`` of one declaration or statement; ``label``
    is the label read before a missing ``;``, reported first if a duplicate."""

    def __init__(self, message: str, index: int, label: str | None = None):
        super().__init__(message)
        self.message, self.index, self.label = message, index, label


def parse(text: str) -> Program:
    """Parse program text; raises ParseError with line/column on failure.

    The text, comments removed, is split on ``;``: the declarations are read
    here, and each later piece by the memoised :func:`_statement`; here are
    only the checks that read earlier statements.  An error names the token
    it stopped at, counting the tokens before its piece.
    """
    text = text.replace("\r\n", "\n")
    code = _pattern("_COMMENT").sub("", text) if "#" in text else text
    if not _PLAIN.fullmatch(code):  # str.split would take \x0b, \xa0 and others as spacing
        tokens = [t for t in _pattern("_LEXEME").findall(text) if t[0] != "#"]
        token_chars = _pattern("_TOKEN_CHARS")
        stray = next(t for t in tokens if not token_chars.fullmatch(t))
        raise _error(text, f"unexpected character {stray!r}", tokens.index(stray))
    pieces = code.split(";")
    last = len(pieces) - 1  # the text after the last ";", blank unless a ";" is missing
    names: dict[str, dict[str, int]] = {"mode": {}, "ancilla": {}}  # name -> index
    statements: list[Statement] = []
    prepared, touched, labels = set(), set(), set()  # names and labels
    try:
        for k, piece in enumerate(pieces):  # the declarations, up to the first other piece
            tokens = piece.split()
            word = tokens[0] if tokens else ""
            if word != "mode" and word != "ancilla":
                break
            tokens.append(";" if k < last else "")  # "" marks the end of input
            i = 1  # the names: one or more modes, or one ancilla
            while tokens[i] not in _NOT_NAMES and (word == "mode" or i == 1):
                if tokens[i][0].isdigit():
                    raise _Misread(f"expected {word} name", i)
                i += 1
            if i == 1:
                raise _Misread("expected at least one mode name" if word == "mode"
                               else "expected ancilla name", i)
            if tokens[i] != ";":
                raise _Misread("expected ';'", i)
            for at in range(1, i):
                if tokens[at] in names["mode"] or tokens[at] in names["ancilla"]:
                    raise _Misread(f"duplicate declaration of {tokens[at]}", at)
                names[word][tokens[at]] = len(names[word])
        modes, ancillas = tuple(names["mode"]), tuple(names["ancilla"])
        for k in range(k, last):
            statement, named, label, count = _statement(pieces[k], modes, ancillas)
            # Each check points at the last token: the label or the prepared mode.
            if label is not None:
                if label in labels:
                    raise _Misread(f"duplicate label {label}", count - 1)
                labels.add(label)
            if type(statement) is Source or type(statement) is Vacuum:
                mode = named[0]
                if mode in prepared:
                    raise _Misread(f"duplicate preparation of {mode}", count - 1)
                if mode in touched:
                    raise _Misread(f"preparation of {mode} after it was used", count - 1)
                prepared.add(mode)
            else:
                touched.update(named)
            statements.append(statement)
        k = last
        if pieces[last].strip():
            _statement(pieces[last], modes, ancillas, "")  # raises, at the latest for the ";"
    except _Misread as misread:
        message, index = misread.message, misread.index
        if misread.label in labels:
            message, index = f"duplicate label {misread.label}", index - 1
        before = sum(len(piece.split()) + 1 for piece in pieces[:k])  # each piece and its ";"
        raise _error(text, message, before + index) from None
    return Program(modes, ancillas, tuple(statements))


@lru_cache(maxsize=1024)
def _statement(piece: str, modes: tuple[str, ...], ancillas: tuple[str, ...], end: str = ";"):
    """A statement's piece read through its ``_STATEMENTS`` entry, one
    argument kind at a time, against the declared names: its hash-consed
    statement, the names it reads, its label (or None) and its token count.
    ``end`` is the token after it, ``";"`` or ``""`` for the end of input.
    An error raises ``_Misread``; errors are not cached."""
    tokens = [*piece.split(), end]
    word = tokens[0]
    if word == ";":
        raise _Misread("expected a statement", 0)
    if word == "mode" or word == "ancilla":
        raise _Misread("declarations must precede statements", 0)
    key, i = word, 1
    if word == "measure":
        if tokens[1] not in ("N", "Q", "P"):
            raise _Misread("expected measured variable N, Q or P", 1)
        key, i = "measure " + tokens[1], 2
    if key not in _STATEMENTS:
        raise _Misread(f"unknown statement {word!r}", 0)
    build, kinds = _STATEMENTS[key]
    declared = {"mode": modes, "ancilla": ancillas}
    values, named, label = [], [], None  # named: the subsystems the statement names
    for kind in kinds:
        token = tokens[i]
        if kind == "mode" or kind == "ancilla":
            if token == "" or token == ";":
                raise _Misread(f"expected {kind} name", i)
            if token not in declared[kind]:
                other = "ancilla" if kind == "mode" else "mode"
                if token in declared[other]:
                    raise _Misread(f"{token} is {_ARTICLE[other]}, not {_ARTICLE[kind]}", i)
                raise _Misread(f"unknown identifier {token}", i)
            named.append(token)
            values.append(declared[kind].index(token))
        elif kind == "angle":
            if token not in _ANGLES:
                raise _Misread("expected phase literal 0 or pi", i)
            values.append(_ANGLES.index(token))
        elif kind == "kind":
            if token not in _DISTURBANCES:
                values.append(_NONDESTRUCTIVE)
                continue  # the kind is optional and takes no token here
            values.append(_KINDS[token])
        elif kind == "as":
            if token in _DISTURBANCES and (key == "measure Q" or key == "measure P"):
                raise _Misread("disturbance kind applies only to occupation measurements", i)
            if token != "as":
                raise _Misread("expected 'as'", i)
        else:  # a label, new unless parse finds it earlier in the program
            if token in _NOT_NAMES or token[0].isdigit():
                raise _Misread("expected label", i)
            label = token
            values.append(token)
        i += 1
    if tokens[i] != ";":
        raise _Misread("expected ';'", i, label)
    if len(named) == 2 and named[0] == named[1]:  # the second mode, the last token
        raise _Misread(f"{word} needs two distinct modes", i - 1)
    return build(*values), tuple(named), label, i


def _arguments(stmt: Statement) -> tuple[str, tuple]:
    """A statement's keyword and its argument values, in the order of the
    keyword's argument kinds (``as`` takes none)."""
    if type(stmt) is GateStep:
        gate = stmt.gate
        return _GATE_KEYWORDS[type(gate)], tuple(getattr(gate, name) for name in gate._fields)
    if type(stmt) is MeasureStep:
        keyword = "detect" if stmt.is_detect else "measure " + stmt.variable
        if keyword == "measure N":
            return keyword, (stmt.index, stmt.kind, stmt.label)
        return keyword, (stmt.index, stmt.label)
    return type(stmt).__name__.lower(), (stmt.mode,)  # "source" or "vacuum"


def render(program: Program) -> str:
    """Canonical text form; parse(render(p)) == p."""
    lines = []
    if program.modes:
        lines.append("mode " + " ".join(program.modes) + ";")
    lines += [f"ancilla {ancilla};" for ancilla in program.ancillas]
    for stmt in program.statements:
        keyword, values = _arguments(stmt)
        values = iter(values)
        words = [keyword]
        for kind in _STATEMENTS[keyword][1]:
            value = "as" if kind == "as" else next(values)
            if kind == "mode":
                value = program.modes[value]
            elif kind == "ancilla":
                value = program.ancillas[value]
            elif kind == "angle":
                value = _ANGLES[value]
            elif kind == "kind":
                value = value.value
            words.append(value)
        lines.append(" ".join(words) + ";")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compiled plans


@record
class ToyPlan:
    """A program compiled for the classical engine: its register, initial state and steps,
    and the state ops its register uses, as :func:`branches` reads them."""

    program: Program
    shape: RegisterShape
    initial: EpistemicState
    steps: tuple[Step, ...]
    apply: Callable
    measure: Callable

    # Monte Carlo's seed-independent work, done once per plan object; the
    # locality audit and single-run replay build their kernel on every call.
    @object_memo
    def column_kernel(self):
        """The plan as Monte Carlo column ops (:func:`toyfield.montecarlo._kernel`)."""
        from toyfield.montecarlo import _kernel

        return _kernel(self)

    @object_memo
    def patterns(self):
        """The pattern table of the bits a shot's outcome reads
        (:func:`toyfield.montecarlo._patterns`)."""
        from toyfield.montecarlo import _patterns

        return _patterns(self)

    def __reduce__(self):  # by the program: a large register's ``measure`` has no importable name
        return compile_toy, (self.program,)


@record
class QuantumPlan:
    """A program compiled for the exact state-vector kernel: its initial branch and steps."""

    program: Program
    initial: tuple  # a branch of the exact kernel, quantum.ExactState
    steps: tuple[Step, ...]


def compile_toy(program: Program) -> ToyPlan:
    """Compile a program for the classical engine: an initial flat state and
    the program's steps, permutation gates and measurements.  The plan is
    made once per program object and shared (:attr:`Program.toy_plan`)."""
    return program.toy_plan


def _compile_toy(program: Program) -> ToyPlan:
    steps = program.steps
    shape = _shape(len(program.modes), len(program.ancillas))
    sourced = tuple(s.mode for s in program.statements if isinstance(s, Source))
    # The one choice of state ops, read from this module's globals now (a wrapper
    # set over one is what the plan holds); each gate is checked in apply's form.
    if shape.point_count <= SMALL_REGISTER_POINTS:  # tables, and memos keyed by states
        check, start, apply, measure = gate_table, _prepared, push_forward, toy_measure
    else:  # gate kernels, and nothing kept
        check, start, apply = _gate_kernel, prepared, kernel_forward
        measure = toy_measure.__wrapped__
    for step in steps:
        if isinstance(step, GateStep):
            check(step.gate, shape)
    # Unprepared modes default to the vacuum; ancillas start with q known 0.
    return ToyPlan(program, shape, start(shape, sourced), steps, apply, measure)


def compile_quantum(program: Program) -> QuantumPlan:
    """Compile a program for the state-vector engine (modes then ancillas),
    starting from the exact kernel's basis state."""
    import toyfield.quantum as quantum

    steps = program.steps
    qubits = len(program.modes) + len(program.ancillas)
    if qubits > 3:
        raise CapabilityError("state-vector engine supports at most 3 subsystems")
    start_index = 0
    for stmt in program.statements:
        if isinstance(stmt, Source):
            start_index |= 1 << stmt.mode
    return QuantumPlan(program, quantum.exact_start(start_index, qubits), steps)


# ---------------------------------------------------------------------------
# Exact execution

Assignment = tuple[tuple[str, int], ...]
JointDistribution = dict[Assignment, Fraction]


def _product(w: tuple[int, int], p: tuple[int, int]) -> tuple[int, int]:
    """The reduced pair of the product of two reduced pairs: one ``gcd``."""
    numerator, denominator = w[0] * p[0], w[1] * p[1]
    divisor = gcd(numerator, denominator)
    return numerator // divisor, denominator // divisor


def branches(start, steps, apply, measure):
    """Branch ``start`` over the steps; yield ``(step, branches)`` after each.

    A branch is ``(weight, state, events)``, its weight a reduced
    ``(numerator, denominator)`` pair of ints.  A gate maps every branch's
    state through ``apply(state, gate)``; a measurement splits every branch
    over ``measure(state, step)``'s ``(value, probability, posterior)``
    outcomes, each probability a reduced pair, multiplying its weight and
    appending ``(step.label, value)`` to its events, a tuple of ``(label,
    value)`` pairs in step order.  ``start`` is the list of branches before
    the first step, each with the events ``()``, usually the one branch of
    weight :data:`ONE`.  A certain outcome's probability is :data:`ONE`,
    which leaves the weight as it is; a split makes its product with one
    ``math.gcd``, so every weight stays in lowest terms.
    """
    current = start
    for step in steps:
        if isinstance(step, GateStep):
            gate = step.gate
            current = [(w, apply(state, gate), events) for w, state, events in current]
        else:
            label = step.label
            current = [
                (w if p is ONE else p if w is ONE else _product(w, p),
                 posterior, (*events, (label, value)))
                for w, state, events in current
                for value, p, posterior in measure(state, step)
            ]
        yield step, current


def _final(start, steps, apply, measure) -> list:
    """The branches after the last step.  From one start branch their events
    differ, so each assignment (a branch's events sorted, in label order
    since a program's labels are distinct) is one branch's."""
    final = start
    for _, final in branches(start, steps, apply, measure):
        pass
    return final


@lru_cache(maxsize=4096)
def toy_measure(state: EpistemicState, step: MeasureStep) -> tuple:
    """The classical engine's outcomes of a measurement step, as a tuple of
    ``(value, probability, posterior)`` triples, each probability a reduced
    ``(numerator, denominator)`` pair; a certain outcome, the only one, has
    the probability :data:`ONE`.

    A bounded memo keyed by the state and the step, whose tuple every call on
    them shares.  It serves registers of at most ``SMALL_REGISTER_POINTS`` (64)
    points; a plan on a larger one holds the uncached ``toy_measure.__wrapped__``."""
    if step.variable == "N":
        outcomes = measure_occupation(state, step.index, step.kind)
    else:
        outcomes = measure_ancilla(state, step.index, step.variable)
    if len(outcomes) == 1:
        o = outcomes[0]
        return ((o.value, ONE, o.posterior),)
    return tuple((o.value, (o.probability.numerator, o.probability.denominator), o.posterior)
                 for o in outcomes)


def run_toy_exact(plan: ToyPlan) -> JointDistribution:
    """Exact joint distribution over measurement labels, by branching.

    Weights are reduced int pairs (:func:`branches`); each outcome's is made
    a ``Fraction`` once, by :func:`~toyfield.phase_space.shared_fraction`."""
    final = _final([(ONE, plan.initial, ())], plan.steps, plan.apply, plan.measure)
    return {tuple(sorted(events)): shared_fraction(*w) for w, _, events in final}


def run_quantum_exact(plan: QuantumPlan) -> JointDistribution:
    """Joint distribution from the state-vector engine, computed exactly.

    Each branch is an unnormalized amplitude vector over Z[sqrt(2)] with one
    scale exponent, as integer tuples; a step's own gate picks its map
    (``quantum.exact_gate``), and ``quantum.exact_measure`` splits it: its
    memo's ``(value, ONE, branch)`` triples are the split, each outcome of
    probability :data:`ONE`, used as they are.  A final branch's squared norm
    (``quantum.exact_weight``) is the Born probability of its record; a
    weight with an irrational part raises ``ValueError``, and every other
    weight is a dyadic ``Fraction`` of whatever denominator it has, the
    object :func:`~toyfield.phase_space.shared_fraction` gives for it.
    """
    import toyfield.quantum as quantum  # no fromlist: no import machinery per call

    exact_gate, exact_measure = quantum.exact_gate, quantum.exact_measure
    exact_weight = quantum.exact_weight
    modes = len(plan.program.modes)
    qubits = modes + len(plan.program.ancillas)

    def apply(state, gate: ToyGate):
        return exact_gate(gate, modes, qubits)(state)

    def measure(state, step: MeasureStep):
        subsystem = step.index if step.target_kind == "mode" else modes + step.index
        destructive = step.kind is DisturbanceKind.DESTRUCTIVE
        return exact_measure(state, subsystem, step.variable, destructive)

    final = _final([(ONE, plan.initial, ())], plan.steps, apply, measure)
    return {tuple(sorted(events)): exact_weight(state) for _, state, events in final}


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
        out[label] = out[label] + weight if label in out else weight
    return out


# ---------------------------------------------------------------------------
# Scenarios and engines

ENGINES = ("toy", "quantum", "ca", "montecarlo")


@record
class OutcomeDistribution:
    """Labeled outcome probabilities; exact engines carry rationals.

    Sampled engines also carry shot counts; ``probs`` then holds empirical
    frequencies as Fractions of the shot count, made from the counts on
    first read when given as ``None``.  An exact distribution must sum to 1;
    a sampled one's counts must sum to the shot count, as its frequencies do.
    """

    probs: dict[str, Fraction]
    shots: int | None = None
    counts: dict[str, int] | None = None

    @object_memo
    def probs(self) -> dict[str, Fraction]:
        return {label: Fraction(c, self.shots) for label, c in self.counts.items()}

    def __post_init__(self) -> None:
        if self.counts is not None:
            if sum(self.counts.values()) != self.shots:
                raise ValueError("counts must sum to the shot count")
            if self.probs is None:  # the memo makes them from the counts on first read
                del vars(self)["probs"]
            return
        total = sum(self.probs.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def as_floats(self) -> dict[str, float]:
        return {k: float(v) for k, v in sorted(self.probs.items())}


OutcomeDistribution.__init__.__defaults__ = (None, None)  # probs is required: no memo default
Labeler = Callable[[dict[str, int]], str]


@record
class Scenario:
    """A named experiment: its parameters, its program and its outcome labeler."""

    name: str
    params: tuple[tuple[str, str], ...]
    program: Program
    labeler: Labeler

    @property
    def key(self) -> str:
        if not self.params:
            return self.name
        return self.name + "[" + ",".join(f"{k}={v}" for k, v in self.params) + "]"

    def program_text(self) -> str:
        return render(self.program)


_TIMINGS = ("before", "after")

# Each catalogued scenario's name (:mod:`toyfield.scenarios`) -> the
# parameters ``scenario_by_name`` reads for it, each with the values it accepts.
SCENARIO_PARAMS: dict[str, dict[str, tuple]] = {
    "mzi_phase": {"phase": (0, 1, "0", "1", "pi")},
    "mzi_whichway": {"kind": (*_KINDS, *_KINDS.values())},
    "bomb_tester": {"functional": (True, False)},
    "delayed_choice": {"choice": ("phase0", "phasepi", "detector"), "timing": _TIMINGS},
    "quantum_eraser": {"basis": ("Q", "P"), "ancilla_timing": _TIMINGS},
    "mirror_removed": {},
}


def run_scenario(
    scenario: Scenario,
    engine: str = "toy",
    shots: int | None = None,
    seed: int | None = None,
) -> OutcomeDistribution:
    """Run a scenario on the chosen engine.

    The exact engines ("toy", "quantum") need no shots; "montecarlo" and
    "ca" require both a shot count and a seed.
    """
    if engine == "toy":
        joint = run_toy_exact(compile_toy(scenario.program))
        return OutcomeDistribution(joint_to_labeled(joint, scenario.labeler))
    if engine == "quantum":
        joint = run_quantum_exact(compile_quantum(scenario.program))
        return OutcomeDistribution(joint_to_labeled(joint, scenario.labeler))
    if engine in ("montecarlo", "ca"):
        if shots is None or seed is None:
            raise ValueError(f"engine {engine!r} requires shots and seed")
        if engine == "montecarlo":
            import toyfield.montecarlo as sampler

            plan = compile_toy(scenario.program)
        else:
            import toyfield.automaton as sampler

            plan = sampler.plan_from_program(scenario.program)
        counts = sampler.run_experiment(plan, shots, seed, scenario.labeler)
        return OutcomeDistribution(None, shots=shots, counts=counts)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
