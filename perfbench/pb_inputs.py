"""Seeded input generators for the three workloads.

Everything here is pure Python and imports nothing from ``toyfield``: the
benchmark hands the package only the program text and scenario choices made
here.  The same seed always yields byte-identical inputs; each workload draws
from its own ``random.Random`` stream, seeded with ``"<workload>-<seed>"``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator

# Mode and ancilla names of the random ``exact`` programs.
_MODES = ("L", "R", "E")
_ANCILLA = "A"


def stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{seed}")


def exact_program(rng: random.Random) -> str:
    """One random program of 1-3 subsystems, at most one ancilla and 1-8
    statements, drawn from the whole grammar.

    The register size, the ancilla and the statement count are uniform; each
    statement's type is uniform over the statement types, and a type with no
    legal instance at that point (``bs`` on one mode, ``cnot`` without an
    ancilla, a preparation after use) is drawn again, so every program parses
    and fits the quantum engine's three subsystems.  Nothing steers the mix
    towards or away from programs on which the engines are known to disagree.
    """
    n_modes = rng.randint(1, 3)
    modes = _MODES[:n_modes]
    ancillas = (_ANCILLA,) if rng.randint(0, min(1, 3 - n_modes)) else ()
    count = rng.randint(1, 8)
    kinds = ["source", "vacuum", "bs", "phase", "swap", "measure", "detect"]
    if ancillas:
        kinds += ["cnot", "measure_ancilla"]
    prepared: set[str] = set()
    touched: set[str] = set()
    body: list[str] = []
    labels = 0
    while len(body) < count:
        kind = rng.choice(kinds)
        if kind in ("source", "vacuum"):
            free = [m for m in modes if m not in prepared and m not in touched]
            if not free:
                continue
            mode = rng.choice(free)
            prepared.add(mode)
            body.append(f"{kind} {mode};")
        elif kind in ("bs", "swap"):
            if n_modes < 2:
                continue
            a, b = rng.sample(modes, 2)
            touched.update((a, b))
            body.append(f"{kind} {a} {b};")
        elif kind == "phase":
            mode = rng.choice(modes)
            touched.add(mode)
            body.append(f"phase {mode} {rng.choice(('0', 'pi'))};")
        elif kind == "cnot":
            mode = rng.choice(modes)
            touched.update((mode, _ANCILLA))
            body.append(f"cnot {mode} {_ANCILLA};")
        else:
            labels += 1
            if kind == "measure":
                mode = rng.choice(modes)
                touched.add(mode)
                disturbance = rng.choice(("", " nondestructive", " destructive"))
                body.append(f"measure N {mode}{disturbance} as x{labels};")
            elif kind == "detect":
                mode = rng.choice(modes)
                touched.add(mode)
                body.append(f"detect {mode} as x{labels};")
            else:
                touched.add(_ANCILLA)
                basis = rng.choice(("Q", "P"))
                body.append(f"measure {basis} {_ANCILLA} as x{labels};")
    head = ["mode " + " ".join(modes) + ";"] + [f"ancilla {a};" for a in ancillas]
    return "\n".join(head + body) + "\n"


def covering_programs() -> list[str]:
    """Programs that use every gate on every register an ``exact`` program
    can have, so compiling them fills the gate-table cache (set-up only)."""
    texts = []
    for n_modes in (1, 2, 3):
        for n_ancillas in (0, 1):
            if n_modes + n_ancillas > 3:
                continue
            modes = _MODES[:n_modes]
            lines = ["mode " + " ".join(modes) + ";"]
            if n_ancillas:
                lines.append(f"ancilla {_ANCILLA};")
            for m in modes:
                lines += [f"phase {m} 0;", f"phase {m} pi;"]
                if n_ancillas:
                    lines.append(f"cnot {m} {_ANCILLA};")
                for other in modes:
                    if other != m:
                        lines += [f"bs {m} {other};", f"swap {m} {other};"]
            texts.append("\n".join(lines) + "\n")
    return texts


WIDE_MODES = 8


def mzi_bank(rng: random.Random, n: int = WIDE_MODES) -> tuple[str, dict[str, Fraction]]:
    """Single-photon Mach-Zehnder interferometers side by side on ``n`` modes.

    A seeded shuffle of the modes is cut into pairs (with odd ``n`` the last
    mode stays in vacuum).  Each pair gets a photon on its first mode and
    either a closed interferometer (``bs``, a ``0`` or ``pi`` shift on a
    seeded arm, ``bs``) or an open one (``bs``, then the shift).  The pairs'
    gates are interleaved in a seeded order, one ``swap`` of two seeded modes
    follows them, and every mode gets a ``detect``, read in a seeded order.
    Every program has two distinct gates per pair plus the swap, so each one
    costs the compiler the same number of gate tables; no state leaves the
    theory's valid states, whatever the order of the reads.

    Returns the program text and the closed form: the joint distribution as
    ``toyfield run --format json`` labels it.  A closed pair's photon leaves
    by its entry mode after a ``0`` shift and by the other mode after a
    ``pi`` shift; an open pair's photon is found in either mode with
    probability 1/2.  Pairs are independent, so the joint distribution is the
    product, read through the swap.
    """
    modes = [f"m{i}" for i in range(n)]
    order = modes[:]
    rng.shuffle(order)
    pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2)]
    prepare = [f"source {a};" for a, _ in pairs] + [f"vacuum {m};" for m in order[1::2]]
    if n % 2:
        prepare.append(f"vacuum {order[-1]};")
    rng.shuffle(prepare)
    gates: list[list[str]] = []
    exits: list[tuple[str, ...]] = []  # the modes the photon of each pair may leave by
    for a, b in pairs:
        shift = rng.choice(("0", "pi"))
        closed = rng.random() < 0.5
        sequence = [f"bs {a} {b};", f"phase {rng.choice((a, b))} {shift};"]
        if closed:
            sequence.append(f"bs {a} {b};")
            exits.append((a,) if shift == "0" else (b,))
        else:
            exits.append((a, b))
        gates.append(sequence)
    body: list[str] = []
    while any(gates):
        body.append(rng.choice([g for g in gates if g]).pop(0))
    x, y = rng.sample(modes, 2)
    body.append(f"swap {x} {y};")
    after_swap = {x: y, y: x}
    reads = modes[:]
    rng.shuffle(reads)
    lines = ["mode " + " ".join(modes) + ";", *prepare, *body]
    lines += [f"detect {m} as d_{m};" for m in reads]
    expected: dict[str, Fraction] = {}
    for fired in itertools.product(*exits):
        ones = {after_swap.get(m, m) for m in fired}
        label = " ".join(f"d_{m}={int(m in ones)}" for m in sorted(modes))
        expected[label] = Fraction(1, 2 ** sum(len(e) == 2 for e in exits))
    return "\n".join(lines) + "\n", expected


# Scenario choices: (scenario name, parameters) as the CLI would pass them.
SMALL_RUN_SCENARIOS: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = (
    ("mzi_phase", (("phase", "0"),)),
    ("mzi_phase", (("phase", "pi"),)),
    ("mzi_whichway", (("kind", "nondestructive"),)),
    ("mzi_whichway", (("kind", "destructive"),)),
    ("bomb_tester", (("functional", True),)),
    ("bomb_tester", (("functional", False),)),
    *(
        ("delayed_choice", (("choice", c), ("timing", t)))
        for c in ("phase0", "phasepi", "detector")
        for t in ("before", "after")
    ),
    *(
        ("quantum_eraser", (("basis", b), ("ancilla_timing", t)))
        for b in ("Q", "P")
        for t in ("before", "after")
    ),
    ("mirror_removed", ()),
)

BOMB = ("bomb_tester", (("functional", True),))
ERASER_P = ("quantum_eraser", (("basis", "P"),))
WHICHWAY = ("mzi_whichway", ())

MC_SHOTS = 20_000
AUDIT_RUNS = 20_000
CA_SHOTS = 200_000
SMALL_SHOTS = 1_000

# The bulk calls of one ``sampled`` pass, in order.
BULK_CALLS = (
    ("mc", BOMB, MC_SHOTS),
    ("mc", ERASER_P, MC_SHOTS),
    ("audit", WHICHWAY, AUDIT_RUNS),
    ("ca", WHICHWAY, CA_SHOTS),
    ("ca", BOMB, CA_SHOTS),
)


# Each bulk call is followed by this many rounds of the small runs.
SMALL_ROUNDS_PER_BULK = 1


def sampled_pass(rng: random.Random) -> Iterator[tuple]:
    """One pass of the ``sampled`` schedule: each bulk call is followed by
    the 17 scenario variants as small Monte Carlo runs in a seeded order.  Each call gets its own seeded RNG seed.
    """
    for kind, scenario, shots in BULK_CALLS:
        yield kind, scenario, shots, rng.getrandbits(63)
        for _ in range(SMALL_ROUNDS_PER_BULK):
            for scenario_choice in rng.sample(SMALL_RUN_SCENARIOS, len(SMALL_RUN_SCENARIOS)):
                yield "small", scenario_choice, SMALL_SHOTS, rng.getrandbits(63)
