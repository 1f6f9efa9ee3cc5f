"""``circuits.parse``, one loop over the token list, against the class-based
parser it replaced (``parse_oracle``): on seeded random programs, their
canonical renders and token mutants of them, both give the same ``Program``
or the same error message at the same line and column."""

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
