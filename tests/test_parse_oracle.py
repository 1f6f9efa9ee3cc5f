"""``circuits.parse``, which reads each statement through the memoised
``circuits._statement``, against the class-based parser it replaced
(``parse_oracle``): on seeded random programs, their canonical renders and
token mutants of them, both give the same ``Program`` or the same error
message at the same line and column."""

from __future__ import annotations

import random
import re
from collections import Counter

from parse_oracle import parse as oracle_parse
from test_quantum_exact import random_program
from toyfield.circuits import ParseError, parse, render

# Token or spacing runs of a program text: a mutant changes the tokens and
# keeps the spacing, so errors land on many lines and columns.
_PIECES = re.compile(r";|[^\s;]+|\s+")


def outcome(parser, text: str):
    """The parsed program, or ``(message, line, column)`` of its ParseError."""
    try:
        return parser(text)
    except ParseError as error:
        return str(error).split(": ", 1)[1], error.line, error.column


def mutants(text: str, rng: random.Random) -> list[str]:
    """Three copies of the text with one token dropped, three with one
    duplicated and three with two swapped."""
    pieces = _PIECES.findall(text)
    words = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    out = []
    for operation in ("drop", "duplicate", "swap") * 3:
        changed = list(pieces)
        i, j = rng.choice(words), rng.choice(words)
        if operation == "drop":
            changed[i] = ""
        elif operation == "duplicate":
            changed[i] = f"{changed[i]} {changed[i]}"
        else:
            changed[i], changed[j] = changed[j], changed[i]
        out.append("".join(changed))
    return out


def test_parse_equals_the_oracle_on_programs_renders_and_mutants():
    rng = random.Random(2111_13727)
    texts = []
    for _ in range(1000):
        text = random_program(rng)
        texts += [text, render(parse(text)), *mutants(text, rng)]
    assert len(texts) == 11_000
    differ = [(text, outcome(parse, text), outcome(oracle_parse, text))
              for text in texts if outcome(parse, text) != outcome(oracle_parse, text)]
    assert not differ, f"{len(differ)} texts differ, first: {differ[:3]}"
    # The mutants reach many of the parser's checks, not one error over and over.
    errors = Counter(result[0] for result in (outcome(parse, text) for text in texts)
                     if isinstance(result, tuple))
    assert len(errors) >= 15, errors


# Characters ``str.split`` takes as spacing but the language does not (the
# lexer must report them as stray characters), the lone carriage return it
# does take, and word characters outside ASCII.
_FOREIGN_SPACING = ("\x0b", "\x0c", "\x85", "\xa0", "\u2028")
_WORD_CHARACTERS = ("é", "٣")


def character_mutants(text: str, rng: random.Random) -> list[str]:
    """Copies of the text with one character put in place of a spacing run
    or next to a token, for each of ``_FOREIGN_SPACING``, a lone ``\\r`` and
    ``_WORD_CHARACTERS``; and two with a comment touching a token, after a
    ";" and between two words."""
    pieces = _PIECES.findall(text)
    spacing = [i for i, piece in enumerate(pieces) if piece.isspace()]
    words = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    out = []
    for char in (*_FOREIGN_SPACING, "\r", *_WORD_CHARACTERS):
        changed = list(pieces)
        changed[rng.choice(spacing)] = char
        out.append("".join(changed))
        changed = list(pieces)
        i = rng.choice(words)
        changed[i] = char + changed[i] if rng.random() < 0.5 else changed[i] + char
        out.append("".join(changed))
    for ends_statement in (True, False):
        changed = list(pieces)
        i = rng.choice([i for i in words if (pieces[i] == ";") == ends_statement])
        changed[i] += "#c"  # bs L R;#c  or  L#c
        if i + 1 < len(changed) and changed[i + 1].isspace():
            changed[i + 1] = "\n"  # the comment ends at the next token
        out.append("".join(changed))
    return out


def test_parse_equals_the_oracle_on_spacing_and_character_mutants():
    """The split lexer against the oracle's scan: stray spacing characters
    give the same error, and a lone carriage return, a comment touching a
    token and a non-ASCII word character the same program or error."""
    rng = random.Random(2111_13727 + 1)
    texts = []
    for _ in range(1000):
        texts += character_mutants(random_program(rng), rng)
    assert len(texts) == 18_000
    results = [(text, outcome(parse, text), outcome(oracle_parse, text)) for text in texts]
    differ = [result for result in results if result[1] != result[2]]
    assert not differ, f"{len(differ)} texts differ, first: {differ[:3]}"
    stray = Counter(result[1][0] for result in results if isinstance(result[1], tuple)
                    and result[1][0].startswith("unexpected character"))
    assert {f"unexpected character {char!r}" for char in _FOREIGN_SPACING} <= stray.keys()
    parsed = sum(1 for result in results if not isinstance(result[1], tuple))
    assert parsed >= 3000, parsed  # the \r, comment and word-character programs that parse
