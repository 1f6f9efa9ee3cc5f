"""The program parser as a class with one method per grammar rule: the
reference that ``circuits.parse``, which reads a program a statement at a
time, is checked against.

``test_parse_oracle`` feeds both the same texts; each must give the same
``Program`` or the same ``(message, line, column)``.  The oracle reads the
language's tables (the statement table, keywords, lexer) from
``toyfield.circuits``, and tokenizes with the ``_LEXEME`` scan, which
``circuits.parse`` runs only to place an error: the two differ in how they
split the text and how they walk the tokens.
"""

from __future__ import annotations

from toyfield.circuits import (
    _ANGLES,
    _ARTICLE,
    _DISTURBANCES,
    _NOT_NAMES,
    _STATEMENTS,
    ParseError,
    Program,
    Source,
    Statement,
    Vacuum,
    _pattern,
)
from toyfield.toy_measurement import DisturbanceKind

_LEXEME, _TOKEN_CHARS = _pattern("_LEXEME"), _pattern("_TOKEN_CHARS")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _LEXEME.findall(text)
        if "#" in text:  # every "#" starts or sits in a comment
            self.tokens = [t for t in self.tokens if t[0] != "#"]
        if not _TOKEN_CHARS.fullmatch("".join(self.tokens)):
            stray = next(t for t in self.tokens if not _TOKEN_CHARS.fullmatch(t))
            raise self.fail(f"unexpected character {stray!r}", self.tokens.index(stray))
        self.tokens.append("")
        self.pos = 0
        self.names: dict[str, list[str]] = {"mode": [], "ancilla": []}
        self.prepared: set[str] = set()
        self.touched: set[str] = set()
        self.labels: set[str] = set()

    def fail(self, message: str, index: int) -> ParseError:
        """The error at token ``index``.  The end-of-input marker sits right
        after the last token so that "expected ';'" style errors point at a
        useful position."""
        found = [m for m in _LEXEME.finditer(self.text) if m.group()[0] != "#"]
        offset = found[index].start() if index < len(found) else found[-1].end() if found else 0
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        if self.take() != text:
            raise self.fail(f"expected {text!r}", self.pos - 1)

    def name(self, what: str) -> tuple[int, str]:
        """A new name and its token index: a word that is no keyword and
        starts with no digit."""
        text = self.take()
        at = self.pos - 1
        if text in _NOT_NAMES or text[0].isdigit():
            raise self.fail(f"expected {what}", at)
        return at, text

    def declared(self, kind: str) -> tuple[int, str]:
        """A name declared as ``kind``, "mode" or "ancilla", and its token index."""
        text = self.take()
        at = self.pos - 1
        if text in ("", ";"):
            raise self.fail(f"expected {kind} name", at)
        if text not in self.names[kind]:
            other = "ancilla" if kind == "mode" else "mode"
            if text in self.names[other]:
                raise self.fail(f"{text} is {_ARTICLE[other]}, not {_ARTICLE[kind]}", at)
            raise self.fail(f"unknown identifier {text}", at)
        return at, text

    def parse(self) -> Program:
        while self.peek() in ("mode", "ancilla"):
            self.declaration()
        statements = []
        while self.peek():
            statements.append(self.statement())
        return Program(tuple(self.names["mode"]), tuple(self.names["ancilla"]), tuple(statements))

    def declaration(self) -> None:
        kind = self.take()
        if kind == "mode":
            names = []
            while self.peek() not in _NOT_NAMES:
                names.append(self.name("mode name"))
            if not names:
                raise self.fail("expected at least one mode name", self.pos)
        else:
            names = [self.name("ancilla name")]
        self.expect(";")
        for at, text in names:
            if text in self.names["mode"] or text in self.names["ancilla"]:
                raise self.fail(f"duplicate declaration of {text}", at)
            self.names[kind].append(text)

    def statement(self) -> Statement:
        start = self.pos
        word = self.take()
        if word == ";":
            raise self.fail("expected a statement", start)
        if word in ("mode", "ancilla"):
            raise self.fail("declarations must precede statements", start)
        key = word
        if word == "measure":
            variable = self.take()
            if variable not in ("N", "Q", "P"):
                raise self.fail("expected measured variable N, Q or P", start + 1)
            key = f"measure {variable}"
        if key not in _STATEMENTS:
            raise self.fail(f"unknown statement {word!r}", start)
        build, kinds = _STATEMENTS[key]
        values: list = []
        targets = []
        for kind in kinds:
            if kind in ("mode", "ancilla"):
                targets.append(self.declared(kind))
                values.append(self.names[kind].index(targets[-1][1]))
            elif kind == "angle":
                angle = self.take()
                if angle not in _ANGLES:
                    raise self.fail("expected phase literal 0 or pi", self.pos - 1)
                values.append(_ANGLES.index(angle))
            elif kind == "kind":
                disturbance = DisturbanceKind.NONDESTRUCTIVE
                if self.peek() in _DISTURBANCES:
                    disturbance = DisturbanceKind(self.take())
                values.append(disturbance)
            elif kind == "as":
                if self.peek() in _DISTURBANCES and key in ("measure Q", "measure P"):
                    raise self.fail(
                        "disturbance kind applies only to occupation measurements", self.pos
                    )
                self.expect("as")
            else:
                at, label = self.name("label")
                if label in self.labels:
                    raise self.fail(f"duplicate label {label}", at)
                self.labels.add(label)
                values.append(label)
        self.expect(";")
        names = [text for _, text in targets]
        if build is Source or build is Vacuum:
            at, mode = targets[0]
            if mode in self.prepared:
                raise self.fail(f"duplicate preparation of {mode}", at)
            if mode in self.touched:
                raise self.fail(f"preparation of {mode} after it was used", at)
            self.prepared.add(mode)
        else:
            if len(set(names)) < len(names):
                raise self.fail(f"{word} needs two distinct modes", targets[1][0])
            self.touched.update(names)
        return build(*values)


def parse(text: str) -> Program:
    """Parse program text; raises ParseError with line/column on failure."""
    return _Parser(text.replace("\r\n", "\n")).parse()
