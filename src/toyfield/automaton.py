"""Spatially localized realization: wires as 1-D cell arrays.

Each mode of an ancilla-free program is a wire of cells ``1 .. length``,
``cells[wire][i - 1]`` holding cell ``(wire, i)``'s state (an occupation bit
and a phase bit).  Free propagation is a partitioned block rule (Toffoli and
Margolus, *Cellular Automata Machines*, 1987), one permutation per wire and
step parity (:func:`_propagate`): from even t, cells (2,3), (4,5), ... swap
states and the boundary cells 1 and ``length`` talk to a source or a sink;
from odd t, cells (1,2), (3,4), ... swap.  An excitation emitted at cell 1
on the first transition therefore sits at cell j at step j, on every wire.

:func:`plan_from_program` generates the layout from the program's steps
(:attr:`toyfield.circuits.Program.steps`): step k's group replaces the
free swap of cells 4k+4 and 4k+5 at even steps, where every wire's front
meets it.  A ``bs`` is the register's splitter gate
(:func:`toyfield.toy_dynamics.beamsplitter_rule`) across its two wires'
cells, in both travel directions; a ``swap`` exchanges its wires' cells; a
``phase`` flips the phases of its wire's pair; a ``measure N``, or a
``detect`` that a later step acts on, is a detector that clicks on its input
cell's occupation, passes it (nondestructive) or leaves vacuum
(destructive), and draws both phases fresh.  Any other ``detect`` reads its
wire's sink, cell ``length`` at the last step.  Sourced wires emit the
excitation at step 0; every emitted and resupplied phase is drawn.  Each
group's next state depends only on its own cells, so the dynamics is local
by construction, and each deterministic map is its own time reverse.  The
layout is the groups' table, :attr:`CaPlan.bindings`, plus one shift per
wire; :func:`_advance` shifts, then applies the table to ints or to uint8
lane columns.

The coins are Monte Carlo's: shot ``s`` of seed ``m`` reads Philox4x64-10
blocks ``(s, 0)``, ``(s, 1)``, ... keyed by ``derive_seed(m)``
(:data:`toyfield.montecarlo.RNG_SCHEME`), and bit ``b`` of the shot is bit
``b % 64`` of its word ``b // 64``.  Bits ``[0, W·length)`` are the initial
phases of the ``W`` wires' cells, wire by wire; bit ``W·length + i`` is the
i-th phase drawn during the run, in rule-table order, so a shot reads
``(2W + detectors)·length`` bits.  A single run is the batch of one lane,
so :func:`run_single` replays shot ``s`` of any bulk call from ``(seed,
s)``, and its trace follows that lane.

A shot's events are a fixed function of a few of its bits.  The rules are
branch-free on their operands, so one run of :func:`_advance` on
:class:`_Unknown` bits finds the bits ``D`` the events read
(:attr:`CaPlan.reads`): ``(32, 33)`` on the two-path interferometer,
``(34, 35, 56)`` with a detector.  :func:`run_experiment` counts through
Monte Carlo's :func:`~toyfield.montecarlo._tally`, from the patterns of
``D``, each evolved once as a lane (:attr:`CaPlan.patterns`), or from one
lane per shot.  Shots draw the patterns alike, which makes them the exact
law too: :func:`exact_law` is Monte Carlo's, which weighs any plan's table.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable

import numpy as np

from toyfield._record import record
from toyfield.circuits import (
    CapabilityError,
    MeasureStep,
    Program,
    Source,
    object_memo,
    parse,
)
# exact_law weighs any plan's pattern table, so it is this engine's exact law too
from toyfield.montecarlo import _pattern_table, _shot_words, _tally, derive_seed, exact_law
from toyfield.toy_dynamics import Beamsplitter, PhaseShift, beamsplitter_rule
from toyfield.toy_measurement import DisturbanceKind

__all__ = [
    "CaPlan",
    "RuleBinding",
    "check_time_reversal",
    "exact_law",
    "plan_from_program",
    "run_experiment",
    "run_single",
    "trace_line",
]

Cell = tuple[str, int]  # (wire, position)


@record
class RuleBinding:
    """Assignment of an update map to a cell group at even steps."""

    kind: str  # beamsplitter | swap | phase | detector | source | vacuum_source | sink
    cells: tuple[Cell, ...]
    parameter: object = None


@record
class CaPlan:
    """A program's wire layout: one wire of ``length`` cells per mode, and
    the rule table each even transition walks after the shift, each group
    on one even free pair per wire it acts on, or on cell 1 or ``length``.
    Cross-wire groups come first, then the 2-cell groups position by
    position, the sources and the sinks: a draw's place there is its bit."""

    wires: tuple[str, ...]
    length: int
    bindings: tuple[RuleBinding, ...]

    @object_memo
    def cells(self) -> tuple[Cell, ...]:
        """Every cell, wire by wire: the order of the initial phase bits."""
        return tuple((wire, i) for wire in self.wires for i in range(1, self.length + 1))

    @object_memo
    def reads(self) -> tuple[int, tuple[int, ...]]:
        """How many bits a shot reads, and the sorted bits ``D`` its events
        may depend on: one run of :class:`_Unknown` bits, every draw a bit
        of its own."""
        read: list[int] = []

        def bit(b: int) -> _Unknown:
            read.append(b)
            return _Unknown(frozenset((b,)))

        events = _run(self, bit, 0).values()
        dependencies = frozenset().union(*(e.bits for e in events if isinstance(e, _Unknown)))
        return len(read), tuple(sorted(dependencies))

    @object_memo
    def patterns(self) -> tuple[tuple[str, ...], tuple[int, ...], np.ndarray]:
        """The :func:`~toyfield.montecarlo._pattern_table` of ``D``, its
        labels the events, detectors then sinks: lane ``j`` draws bit ``i``
        of ``j`` at ``D[i]``, and every other bit is one shared zero column."""

        def record(every: np.ndarray) -> dict[str, np.ndarray]:
            zero = np.zeros(len(every), dtype=np.uint8)
            drawn = {b: (every >> i & 1).astype(np.uint8) for i, b in enumerate(self.reads[1])}
            return _lanes(self, len(every), lambda b: drawn.get(b, zero))

        return _pattern_table(self.reads[1], record)


# _advance walks the table on every even step, and a plan's patterns are evolved once
@lru_cache(maxsize=64)
def plan_from_program(program: Program) -> CaPlan:
    """The wire layout of an ancilla-free program, generated from its
    steps (see the module docstring)."""
    if program.ancillas:
        raise CapabilityError("the wire layout has no ancilla systems")
    wires = program.modes
    sinks: dict[str, str | None] = dict.fromkeys(wires)
    groups: list[tuple[str, tuple[str, ...], object]] = []  # (kind, wires, parameter), last first
    later: set[str] = set()  # the wires that later steps act on
    for step in reversed(program.steps):
        if isinstance(step, MeasureStep):
            acted = (wires[step.index],)
            if step.is_detect and acted[0] not in later:
                sinks[acted[0]] = step.label
            else:
                groups.append(("detector", acted, ("detector", step.kind, step.label)))
        elif isinstance(step.gate, PhaseShift):
            acted = (wires[step.gate.mode],)
            groups.append(("phase", acted, ("phase", step.gate.s)))
        else:
            acted = (wires[step.gate.a], wires[step.gate.b])
            groups.append(("beamsplitter" if isinstance(step.gate, Beamsplitter) else "swap",
                           acted, None))
        later.update(acted)
    length = 4 * (len(groups) + 1)
    placed = [
        RuleBinding(kind, (*((w, p) for w in acted), *((w, p + 1) for w in acted)), parameter)
        for p, (kind, acted, parameter) in zip(range(4, length, 4), reversed(groups))
    ]
    sourced = {wires[s.mode] for s in program.statements if isinstance(s, Source)}
    bindings = (
        *sorted(placed, key=lambda b: -len(b.cells)),  # stable: cross-wire groups first
        *(RuleBinding("source" if w in sourced else "vacuum_source", ((w, 1),)) for w in wires),
        *(RuleBinding("sink", ((w, length),), sinks[w]) for w in wires),
    )
    return CaPlan(wires, length, bindings)


# ---------------------------------------------------------------------------
# The block rule

Pair = tuple[int, int]  # (n, phi)


def _split(left: Pair, right: Pair) -> tuple[Pair, Pair]:
    """Splitter transfer across the wires: the register's splitter gate."""
    n_l, phi_l, n_r, phi_r = beamsplitter_rule(*left, *right)
    return (n_l, phi_l), (n_r, phi_r)


# One rule per binding kind: the group's cell states in, in the order of
# ``binding.cells``, and its new states out in the same order.


def _beamsplitter(states, binding, t, coin):
    l_in, r_in, l_out, r_out = states
    return (*_split(l_out, r_out), *_split(l_in, r_in))


def _swap(states, binding, t, coin):
    l_in, r_in, l_out, r_out = states
    return r_out, l_out, r_in, l_in


def _phase(states, binding, t, coin):
    (n_a, phi_a), (n_b, phi_b) = states
    s = binding.parameter[1]
    return (n_b, phi_b ^ s), (n_a, phi_a ^ s)


def _detector(states, binding, t, coin):
    (n_a, _), (n_b, _) = states
    keep = binding.parameter[1] is DisturbanceKind.NONDESTRUCTIVE
    out_b = (n_a if keep else 0, coin())
    out_a = (n_b if keep else 0, coin())
    return out_a, out_b


def _source(states, binding, t, coin):
    return ((1 if t == 0 else 0, coin()),)


def _vacuum(states, binding, t, coin):
    return ((0, coin()),)


_RULES = {
    "beamsplitter": _beamsplitter,
    "swap": _swap,
    "phase": _phase,
    "detector": _detector,
    "source": _source,
    "vacuum_source": _vacuum,
    "sink": _vacuum,
}


def _propagate(cells: dict, odd: int) -> dict:
    """Free propagation from step t, ``odd = t % 2``: one slice exchange per
    wire swaps cells (1,2), (3,4), ... at odd t, and (2,3), ..., (length-2,
    length-1) at even t, which leaves cells 1 and ``length`` as they were."""
    new = {}
    for wire, row in cells.items():
        new[wire] = row = row.copy()
        lo, hi = 1 - odd, len(row) - 1 + odd
        row[lo:hi:2], row[lo + 1:hi:2] = row[lo + 1:hi:2], row[lo:hi:2]
    return new


def _advance(cells: dict, t: int, plan: CaPlan, coin: Callable[[], object]) -> tuple[dict, dict]:
    """One transition from step t: the free shift, then at even t the table.

    A cell is an ``(n, phi)`` pair of bits, either ints or per-shot columns,
    and ``coin()`` draws a fresh phase of the same kind.  Returns the new
    cells and each detector's click, by label: the occupation of its input
    cell (no detector acts at odd t).
    """
    new = _propagate(cells, t % 2)
    clicks: dict = {}
    for binding in () if t % 2 else plan.bindings:
        states = [cells[wire][i - 1] for wire, i in binding.cells]
        if binding.kind == "detector":
            clicks[binding.parameter[2]] = states[0][0]
        for (wire, i), state in zip(binding.cells, _RULES[binding.kind](states, binding, t, coin)):
            new[wire][i - 1] = state
    return new, clicks


@record
class _Unknown:
    """A bit the dependency pass does not know: the set of a shot's bit
    indices it may depend on.  ``x & 0`` and ``x | 1`` fold to constants;
    any other operation with a constant keeps ``x``'s set, and one with
    another unknown bit joins the sets.  The rules and
    :func:`~toyfield.toy_dynamics.beamsplitter_rule` are branch-free on
    their operands, so they run on these bits unchanged."""

    bits: frozenset[int]

    def _join(self, other, absorbing: int | None = None):
        if isinstance(other, _Unknown):
            return _Unknown(self.bits | other.bits)
        return other if other == absorbing else self

    def __and__(self, other):
        return self._join(other, 0)

    def __or__(self, other):
        return self._join(other, 1)

    def __xor__(self, other):
        return self._join(other)

    __rand__, __ror__, __rxor__ = __and__, __or__, __xor__


# ---------------------------------------------------------------------------
# Batch runner


def trace_line(plan: CaPlan, t: int, cells: dict) -> str:
    """One debug line of lane 0: step, occupied cells, one phase row per wire."""
    lane = {wire: [[int(np.ravel(x)[0]) for x in cell] for cell in cells[wire]]
            for wire in plan.wires}
    occupied = ",".join(f"{w}{i}" for w, i in plan.cells if lane[w][i - 1][0])
    rows = " ".join(f"{wire}=" + "".join(str(phi) for _, phi in row) for wire, row in lane.items())
    return f"t={t:2d} occupied=[{occupied or '-'}] phases {rows}"


def _run(
    plan: CaPlan, bit: Callable[[int], object], vacuum, trace: list[str] | None = None
) -> dict:
    """Evolve one run of ``plan`` from its initial cells to its event record:
    whether each detector clicked, then each labelled sink's occupation.

    ``bit(b)`` is bit ``b`` of the run's draws and ``vacuum`` the empty
    occupation, both ints, :class:`_Unknown` bits or per-lane columns.
    """
    drawn = itertools.count()

    def coin():
        return bit(next(drawn))

    cells = {wire: [(vacuum, coin()) for _ in range(plan.length)] for wire in plan.wires}
    fired: dict = {}
    if trace is not None:
        trace.append(trace_line(plan, 0, cells))
    for t in range(plan.length):
        cells, clicks = _advance(cells, t, plan, coin)
        for label, click in clicks.items():
            fired[label] = fired.get(label, vacuum) | click
        if trace is not None:
            trace.append(trace_line(plan, t + 1, cells))
    for binding in plan.bindings:
        if binding.kind == "sink" and binding.parameter is not None:
            fired[binding.parameter] = cells[binding.cells[0][0]][-1][0]
    return fired


def _lanes(
    plan: CaPlan, lanes: int, bit: Callable[[int], np.ndarray], trace: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Evolve ``lanes`` lanes at once, ``bit(b)`` the uint8 column of their
    bit ``b``, one uint8 column per cell bit, into per-lane event bits;
    ``trace`` receives a :func:`trace_line` of lane 0 at every step."""
    events = _run(plan, bit, np.zeros(lanes, dtype=np.uint8), trace)
    return {label: np.broadcast_to(bits, lanes) for label, bits in events.items()}


def _batch_events(
    plan: CaPlan, shots: int, key: int, first: int = 0, trace: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Shots ``first .. first + shots - 1`` under the Philox key ``key``
    (:func:`~toyfield.montecarlo.derive_seed` of the seed), one lane per
    shot: their per-shot event bits (see :func:`_lanes`)."""
    words = -(-plan.reads[0] // 64)
    # Only the words read are copied.  Row 8w + j holds byte j of the shot's
    # word w, so bit b is bit b % 8 of row b // 8; shifting uint8 rows is
    # cheaper than shifting uint64 words.
    planes = (
        _shot_words(key, first, shots, words).astype("<u8", copy=False)
        .view(np.uint8).reshape(words, shots, 8).transpose(0, 2, 1).reshape(8 * words, shots)
    )
    return _lanes(plan, shots, lambda b: (planes[b >> 3] >> (b & 7)) & 1, trace)


def run_single(
    plan: CaPlan, seed: int, shot: int = 0, trace: list[str] | None = None
) -> dict[str, int]:
    """Shot ``shot`` of ``seed``: the same run a bulk call makes there."""
    events = _batch_events(plan, 1, derive_seed(seed), shot, trace)
    return {label: int(bits[0]) for label, bits in events.items()}


def run_experiment(
    plan: CaPlan,
    shots: int,
    seed: int,
    labeler: Callable[[dict[str, int]], str],
) -> dict[str, int]:
    """Outcome counts over shots ``0 .. shots - 1`` of ``seed``, counted by
    :func:`toyfield.montecarlo._tally` from the bits ``D`` the plan's
    dependency pass finds (:attr:`CaPlan.reads`): from the pattern table,
    evolved once per plan (:attr:`CaPlan.patterns`), or past 16 bits from
    one lane per shot (:func:`_batch_events`).  The counts are those of one
    lane per shot.
    """
    return _tally(plan, shots, seed, _batch_events, labeler)


# ---------------------------------------------------------------------------
# Time-reversal checks


def check_time_reversal(kind: str) -> bool:
    """True iff the deterministic map ``kind`` that runs is its own time
    reverse: reversing its cells along the wire commutes with it, over all
    4^k joint cell states.  ``free_swap`` is the free shift
    (:func:`_propagate`) of a 4-cell wire at both parities; ``phase`` (s =
    1, k = 2), ``beamsplitter`` and ``swap`` are the groups of the layout of
    ``bs L R; phase R pi; swap L R;``.  ``broken_oneway``, a phase flip on
    one travel direction only, is the negative control.
    """

    def broken_oneway(states, binding, t, coin):
        (n_a, phi_a), (n_b, phi_b) = states
        return (n_b, phi_b ^ 1), (n_a, phi_a)

    if kind not in ("free_swap", "phase", "beamsplitter", "swap", "broken_oneway"):
        raise ValueError(f"{kind!r} is not a deterministic rule")
    if kind == "free_swap":
        rows = [list(zip(bits[::2], bits[1::2])) for bits in itertools.product((0, 1), repeat=8)]
        return all(
            _propagate({"w": row[::-1]}, odd)["w"] == _propagate({"w": row}, odd)["w"][::-1]
            for row in rows for odd in (0, 1)
        )
    group, rule = ("phase", broken_oneway) if kind == "broken_oneway" else (kind, _RULES[kind])
    plan = plan_from_program(parse("mode L R; bs L R; phase R pi; swap L R;"))
    binding = next(b for b in plan.bindings if b.kind == group)
    ends = min(i for _, i in binding.cells) + max(i for _, i in binding.cells)
    # mirror[k] is the index of cell k's mirror image along the wire
    mirror = [binding.cells.index((wire, ends - i)) for wire, i in binding.cells]
    for bits in itertools.product((0, 1), repeat=2 * len(binding.cells)):
        states = list(zip(bits[::2], bits[1::2]))
        out = rule(states, binding, 0, None)
        reversed_out = rule([states[k] for k in mirror], binding, 0, None)
        if list(reversed_out) != [out[k] for k in mirror]:
            return False
    return True
