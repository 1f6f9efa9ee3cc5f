"""Write ``parse_cases.json``: program texts and what ``circuits.parse`` makes of them.

Each case is ``{"text": ..., "render": ...}`` for a text that parses (its
canonical ``render`` form) or ``{"text": ..., "error": [message, line,
column]}`` for one that raises ``ParseError``.  The texts are every
scenario's program, hand-written programs that reach every parser message
and lexical edge, and seeded token-level mutations of them (deletions,
insertions, substitutions, swaps, renames and respacings).
``test_circuits.TestGoldenParse`` replays the file; regenerate it only when
the language itself changes::

    PYTHONPATH=src python3 tests/golden/make_parse_cases.py > tests/golden/parse_cases.json
"""

from __future__ import annotations

import json
import random
import re
import sys

from toyfield.circuits import ParseError, parse, render
from toyfield.scenarios import all_variants

SEED = 2111_13727
MUTATIONS = 1600

WELL_FORMED = [
    "",
    "# only a comment",
    "mode L;",
    "mode L R; source L; bs L R; detect L as dl; detect R as dr; # trailing comment",
    "mode L R;\tsource L;\tbs\tL\tR;\tdetect L as d;",
    "mode L R;\r\nsource L;\r\nbs L R;\r\ndetect L as dl;\r\n",
    "mode L R;\rsource L;\r bs L R;",
    "mode L R;\n# comment\n\n  phase R pi; phase L 0; swap L R;\n",
    "mode é R; source é; bs é R; detect é as ï;",
    "mode L_1 _R; ancilla A_b; cnot L_1 A_b; measure Q A_b as q_1;",
    "mode L; ancilla A; ancilla B; measure P B as p; measure Q A as q;",
    "mode L R; source L; measure N R as w; measure N L destructive as x;",
    "mode L; measure N L nondestructive as w;",
    "mode L;mode R;ancilla A;source L;vacuum R;cnot L A;bs R L;",
    "mode L R E; vacuum E; source L; bs L R; swap R E; bs L R; detect L as a; detect R as b;",
]

# at least one text per parser message
FAULTY = [
    "mode L\f;",
    "mode L R; source L; bs L R!",
    "mode L R;\nsource L",
    "mode L R; source L bs L R;",
    "mode ;",
    "mode 2x;",
    "mode ²;",
    "mode L as;",
    "mode L L;",
    "mode L; ancilla L;",
    "ancilla ;",
    "ancilla 9;",
    "ancilla mode;",
    "mode L; ancilla A A;",
    "mode L; ; source L;",
    "mode L; source L; mode R;",
    "mode L; source L; ancilla A;",
    "mode L; source X;",
    "mode L; ancilla A; source A;",
    "mode L; source ;",
    "mode L; source L; vacuum L;",
    "mode L R; bs L R; source L;",
    "mode L R; bs L L;",
    "mode L R; swap R R;",
    "mode L R; phase R halfpi;",
    "mode L R; phase R;",
    "mode L; ancilla A; cnot L L;",
    "mode L; ancilla A; cnot A A;",
    "mode L; ancilla A; cnot L X;",
    "mode L; measure X L as w;",
    "mode L; measure;",
    "mode L; ancilla A; measure Q A destructive as q;",
    "mode L; ancilla A; measure P A nondestructive as p;",
    "mode L; ancilla A; measure Q L as q;",
    "mode L; ancilla A; measure N A as n;",
    "mode L; measure N L destructive destructive as w;",
    "mode L; measure N L w;",
    "mode L; detect L destructive as d;",
    "mode L; detect L d;",
    "mode L; detect L as ;",
    "mode L; detect L as as;",
    "mode L; detect L as 7up;",
    "mode L R; detect L as d; detect R as d;",
    "mode L; teleport L;",
    "mode L; as L;",
    "mode L; 0 L;",
    "mode L; Mode L;",
    "mode L; detect é as ² ;",
]

_PIECE = re.compile(r"\s+|#[^\n]*|\w+|.", re.S)

_KEYWORDS = [
    "mode", "ancilla", "source", "vacuum", "bs", "phase", "cnot", "swap",
    "measure", "detect", "as", "nondestructive", "destructive",
]
_VOCABULARY = _KEYWORDS + [
    "N", "Q", "P", "0", "pi", "1", "L", "R", "E", "A", "B", "X", "d", "w",
    "detector_L", "detector_R", "anc", "which_way", ";", ";", ";", "2x", "é",
    "²", "#c\n", "\t", "\r\n", "\f", "!", "-", "\n",
]
_SPACING = [" ", "\t", "\n", "\r\n", "  # note\n", "\r"]
# spacing and renames usually keep a program valid; the other edits break it
_OPERATIONS = ("delete", "insert", "substitute", "swap") + ("rename", "space") * 3


def _mutate(rng: random.Random, text: str) -> str:
    pieces = _PIECE.findall(text)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        tokens = [i for i, p in enumerate(pieces) if not p.isspace()]
        op = rng.choice(_OPERATIONS)
        if not tokens:
            op = "insert"
        if op == "space":
            pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(_SPACING))
        elif op == "rename":
            # a keyword to another keyword of the text, a name to another name
            words = [i for i in tokens if pieces[i][0].isalnum()]
            if words:
                i = rng.choice(words)
                keyword = pieces[i] in _KEYWORDS
                pieces[i] = rng.choice(
                    [pieces[j] for j in words if (pieces[j] in _KEYWORDS) == keyword]
                )
        elif op == "delete":
            del pieces[rng.choice(tokens)]
        elif op == "insert":
            pieces.insert(rng.randrange(len(pieces) + 1), " " + rng.choice(_VOCABULARY) + " ")
        elif op == "substitute":
            pieces[rng.choice(tokens)] = rng.choice(_VOCABULARY + [pieces[i] for i in tokens])
        elif len(tokens) > 1:
            k = rng.randrange(len(tokens) - 1)
            i, j = tokens[k], tokens[k + 1]
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


def _case(text: str) -> dict:
    try:
        return {"text": text, "render": render(parse(text))}
    except ParseError as error:
        message = str(error).split(": ", 1)[1]
        return {"text": text, "error": [message, error.line, error.column]}


def main() -> None:
    valid = sorted({s.program_text() for s in all_variants()}) + WELL_FORMED
    rng = random.Random(SEED)
    mutated = [
        _mutate(rng, rng.choice(valid if rng.random() < 0.8 else FAULTY))
        for _ in range(MUTATIONS)
    ]
    texts = valid + FAULTY + mutated
    unique = list(dict.fromkeys(texts))
    cases = [_case(text) for text in unique]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")


if __name__ == "__main__":
    main()
