"""Spatially localized realization: wires as 1-D cell arrays.

Each interferometer wire is an array of 16 cells; a cell holds one mode's
physical state (an occupation bit and a phase bit).  Free propagation is a
partitioned block rule that alternates pairings between even and odd time
steps: on a transition from even t, cells labeled (2,3), (4,5), ..., (14,15)
swap states and the boundary cells 1 and 16 talk to a source or detector;
on a transition from odd t, cells (1,2), (3,4), ..., (15,16) swap.  An
excitation injected at cell 1 therefore sits at cell j at step j and meets
every device group on an even step.

Devices replace the free rule of their cell group at even steps only:

* splitter across the wires at cells (4,5) and (12,13): the register's
  splitter gate, :func:`toyfield.toy_dynamics.beamsplitter_rule`, on the two
  input cells (the interferometric update when exactly one is occupied,
  plain transfer otherwise), identically in both travel directions;
* phase shifter or detector on the R wire at cells (8,9); a nondestructive
  detector passes the occupation and draws both boundary phases fresh, a
  destructive one (a trigger, a brick) leaves both cells as vacuum with
  fresh phases;
* the source at L1 emits the excitation at a chosen even step and vacuum
  with a uniformly sampled phase otherwise; R1 is a vacuum source; cells 16
  are read by the port detectors and resupplied as vacuum.

Every group's next state depends only on the group's own current state, so
the dynamics is local by construction, and each deterministic map is its
own time reverse.  The layout lives in one table, :func:`layout_bindings`,
and one transition function, :func:`_advance`, applies it rule by rule to
whole lane columns: :func:`_lanes` evolves every lane of a batch as uint8
cell columns, from byte planes of the bits each lane draws.

The coins are Monte Carlo's: shot ``s`` of seed ``m`` reads Philox4x64-10
block ``s`` keyed by ``derive_seed(m)`` (:data:`toyfield.montecarlo.RNG_SCHEME`),
and bit ``b`` of the shot is bit ``b % 64`` of word ``b // 64``.  Bits
``[0, 32)`` are the initial phases of L1..L16 and then R1..R16; bit
``32 + i`` is the i-th phase drawn during the run, in rule-table order.  A
hostable plan reads 64 bits, or 80 with a detector, so one block suffices,
and a call copies only the words its plan reads.
A single run is the batch of one lane, so :func:`run_single` replays shot
``s`` of any bulk call from ``(seed, s)``, and its trace follows that lane.

A shot's events are a fixed function of a few of its bits.  The rules are
branch-free on their operands, so one run of :func:`_advance` on
:class:`_Unknown` bits, each carrying the set of draws it may depend on,
finds the bits ``D`` the events read: ``(32, 33)`` on a two-path layout,
``(34, 35, 56)`` with a detector.  Each layout, cached with its rule table,
evolves the ``2^|D|`` patterns of ``D`` once, one lane each.
:func:`run_experiment` runs :data:`toyfield.montecarlo._CHUNK_SHOTS` shots
at a time, so memory stays bounded: every chunk, however short, is one
Philox draw, its shots' patterns counted and summed under each pattern's
outcome by two bincounts.  Chunks are counted through Monte Carlo's tally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from toyfield.circuits import (
    Bs,
    CapabilityError,
    Detect,
    MeasureN,
    Phase,
    Program,
    Source,
    Vacuum,
)
from toyfield.montecarlo import _block, _shot_words, _tally, derive_seed
from toyfield.toy_dynamics import beamsplitter_rule
from toyfield.toy_measurement import DisturbanceKind

__all__ = [
    "CaPlan",
    "RuleBinding",
    "WIRE_LENGTH",
    "check_time_reversal",
    "layout_bindings",
    "plan_from_program",
    "run_experiment",
    "run_scenario_ca",
    "run_single",
    "trace_line",
]

WIRE_LENGTH = 16
_CELL_LABELS = tuple(f"{wire}{i}" for wire in ("L", "R") for i in range(1, WIRE_LENGTH + 1))
_BS_POSITIONS = (4, 12)  # labels of the splitter input cells
_DEVICE_POSITION = 8  # label of the R-arm device input cell


@dataclass(frozen=True)
class RuleBinding:
    """Assignment of an update map to a cell group at one step parity."""

    kind: str  # free_swap | beamsplitter | phase | detector | source | vacuum_source | sink
    cells: tuple[str, ...]
    parity: str = "even"
    parameter: object = None


def layout_bindings(plan: CaPlan) -> tuple[RuleBinding, ...]:
    """The full rule table: every cell sits in exactly one group per parity.

    The boundary groups come last: their phase draws follow the device's.
    """
    return _layout_of(plan).bindings


def _layout_of(plan: CaPlan) -> _Layout:
    return _layout(plan.device, plan.inject_step, plan.port_labels["L"], plan.port_labels["R"])


# _advance asks for the table on every step, and a layout's runs are read once
@lru_cache(maxsize=64)
def _layout(device: tuple | None, inject_step: int, port_l: str, port_r: str) -> _Layout:
    bindings: list[RuleBinding] = []
    for position in _BS_POSITIONS:
        cells = (
            f"L{position}",
            f"R{position}",
            f"L{position + 1}",
            f"R{position + 1}",
        )
        bindings.append(RuleBinding("beamsplitter", cells, "even"))
    for i in range(2, WIRE_LENGTH - 1, 2):
        for wire in ("L", "R"):
            if i in _BS_POSITIONS:
                continue
            if wire == "R" and i == _DEVICE_POSITION and device is not None:
                kind = "phase" if device[0] == "phase" else "detector"
                bindings.append(RuleBinding(kind, (f"R{i}", f"R{i + 1}"), "even", device))
                continue
            bindings.append(RuleBinding("free_swap", (f"{wire}{i}", f"{wire}{i + 1}"), "even"))
    bindings += [
        RuleBinding("source", ("L1",), "even", inject_step),
        RuleBinding("vacuum_source", ("R1",), "even"),
        RuleBinding("sink", (f"L{WIRE_LENGTH}",), "even", port_l),
        RuleBinding("sink", (f"R{WIRE_LENGTH}",), "even", port_r),
    ]
    for i in range(1, WIRE_LENGTH, 2):
        for wire in ("L", "R"):
            bindings.append(RuleBinding("free_swap", (f"{wire}{i}", f"{wire}{i + 1}"), "odd"))
    plan = CaPlan(device, {"L": port_l, "R": port_r}, inject_step)
    return _Layout(plan, tuple(bindings))


@dataclass(frozen=True)
class CaPlan:
    """A circuit the wire layout can host."""

    device: tuple | None  # None | ("phase", s) | ("detector", DisturbanceKind, label)
    port_labels: dict[str, str]  # wire -> detect label
    inject_step: int = 0

    def arrival_step(self, position: int) -> int:
        """Step at which the excitation reaches the given cell label."""
        return self.inject_step + position

    def validate_schedule(self) -> None:
        if self.inject_step % 2:
            raise CapabilityError("the source fires on even steps only")
        for position in (*_BS_POSITIONS, _DEVICE_POSITION, WIRE_LENGTH):
            if self.arrival_step(position) % 2:
                raise CapabilityError(
                    f"excitation reaches cell {position} on an odd step"
                )


def plan_from_program(program: Program) -> CaPlan:
    """Check a program against the fixed layout and extract its bindings.

    The layout hosts exactly the two-wire interferometer: one sourced mode,
    one vacuum mode, a splitter, at most one R-arm device (phase shifter or
    occupation detector), a second splitter, and a port detector per wire.
    """
    if program.ancillas:
        raise CapabilityError("the wire layout has no ancilla systems")
    if len(program.modes) != 2:
        raise CapabilityError("the wire layout hosts exactly two modes")
    sourced = [s.mode for s in program.statements if isinstance(s, Source)]
    if len(sourced) != 1 or sourced[0] != program.modes[0]:
        raise CapabilityError("the layout sources the first mode only")
    left, right = program.modes

    body = [
        s for s in program.statements if not isinstance(s, (Source, Vacuum))
    ]
    if len(body) < 4:
        raise CapabilityError("expected two splitters and two port detections")
    if body[0] != Bs(left, right):
        raise CapabilityError("the layout starts with a splitter oriented L R")
    rest = body[1:]
    device: tuple | None = None
    if isinstance(rest[0], Phase):
        if rest[0].mode != right:
            raise CapabilityError("the layout's device sits on the R wire")
        device = ("phase", rest[0].s)
        rest = rest[1:]
    elif isinstance(rest[0], MeasureN):
        if rest[0].mode != right:
            raise CapabilityError("the layout's device sits on the R wire")
        device = ("detector", rest[0].kind, rest[0].label)
        rest = rest[1:]
    if not rest or rest[0] != Bs(left, right):
        raise CapabilityError("expected the second splitter oriented L R")
    rest = rest[1:]
    ports: dict[str, str] = {}
    for stmt in rest:
        if not isinstance(stmt, Detect):
            raise CapabilityError(f"statement {stmt!r} is not hosted by the layout")
        wire = "L" if stmt.mode == left else "R"
        if wire in ports:
            raise CapabilityError(f"duplicate port detection on wire {wire}")
        ports[wire] = stmt.label
    if set(ports) != {"L", "R"}:
        raise CapabilityError("both output ports must be detected")
    plan = CaPlan(device, ports)
    plan.validate_schedule()
    return plan


# ---------------------------------------------------------------------------
# The block rule

Pair = tuple[int, int]  # (n, phi)


def _split(left: Pair, right: Pair) -> tuple[Pair, Pair]:
    """Splitter transfer across the wires: the register's splitter gate."""
    n_l, phi_l, n_r, phi_r = beamsplitter_rule(*left, *right)
    return (n_l, phi_l), (n_r, phi_r)


# One rule per binding kind: the group's cell states in, in the order of
# ``binding.cells``, and its new states out in the same order.


def _free_swap(states, binding, t, coin):
    return states[::-1]


def _beamsplitter(states, binding, t, coin):
    l_in, r_in, l_out, r_out = states
    return (*_split(l_out, r_out), *_split(l_in, r_in))


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
    return ((1 if t == binding.parameter else 0, coin()),)


def _vacuum(states, binding, t, coin):
    return ((0, coin()),)


_RULES = {
    "free_swap": _free_swap,
    "beamsplitter": _beamsplitter,
    "phase": _phase,
    "detector": _detector,
    "source": _source,
    "vacuum_source": _vacuum,
    "sink": _vacuum,
}


def _advance(cells: dict, t: int, plan: CaPlan, coin: Callable[[], object]) -> tuple[dict, object]:
    """One transition from step t: every group of t's parity maps its own cells.

    A cell is an ``(n, phi)`` pair of bits, either ints or per-shot columns,
    and ``coin()`` draws a fresh phase of the same kind.  Returns the new
    cells and the detector's click, the occupation of its input cell (0 when
    no detector acts at t).
    """
    parity = "odd" if t % 2 else "even"
    new: dict = {}
    click = 0
    for binding in layout_bindings(plan):
        if binding.parity != parity:
            continue
        states = [cells[label] for label in binding.cells]
        if binding.kind == "detector":
            click = states[0][0]
        new.update(zip(binding.cells, _RULES[binding.kind](states, binding, t, coin)))
    return new, click


@dataclass(frozen=True)
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


def _read_out(plan: CaPlan, cells: dict, fired) -> dict:
    """The event record: the detector's firing and each port's sink cell."""
    events = {}
    for binding in layout_bindings(plan):
        if binding.kind == "detector":
            events[binding.parameter[2]] = fired
        elif binding.kind == "sink":
            events[binding.parameter] = cells[binding.cells[0]][0]
    return events


# ---------------------------------------------------------------------------
# Batch runner


def trace_line(t: int, cells: dict) -> str:
    """One debug line of lane 0: step, occupied cells, phase rows."""
    lane = {label: [int(np.ravel(x)[0]) for x in cells[label]] for label in _CELL_LABELS}
    phases = "".join(str(phi) for _, phi in lane.values())
    occupied = ",".join(label for label, (n, _) in lane.items() if n) or "-"
    left, right = phases[:WIRE_LENGTH], phases[WIRE_LENGTH:]
    return f"t={t:2d} occupied=[{occupied}] phases L={left} R={right}"


def _run(
    plan: CaPlan, bit: Callable[[int], object], vacuum, trace: list[str] | None = None
) -> dict:
    """Evolve one run of ``plan`` from its initial cells to its event record.

    ``bit(b)`` is bit ``b`` of the run's draws and ``vacuum`` the empty
    occupation, both ints, :class:`_Unknown` bits or per-lane columns.
    """
    drawn = itertools.count(len(_CELL_LABELS))

    def coin():
        return bit(next(drawn))

    cells = {label: (vacuum, bit(b)) for b, label in enumerate(_CELL_LABELS)}
    fired = vacuum
    if trace is not None:
        trace.append(trace_line(0, cells))
    for t in range(plan.arrival_step(WIRE_LENGTH)):
        cells, click = _advance(cells, t, plan, coin)
        fired = fired | click
        if trace is not None:
            trace.append(trace_line(t + 1, cells))
    return _read_out(plan, cells, fired)


def _lanes(
    plan: CaPlan, planes: np.ndarray, trace: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Evolve one lane per column of the uint8 byte ``planes``, row ``b //
    8`` holding bit ``b`` of every lane in its bit ``b % 8``, at once; one
    uint8 column per cell bit.  Returns per-lane event bits.

    ``trace`` receives a :func:`trace_line` of lane 0 at every step.
    """
    lanes = planes.shape[1]

    def bit(b: int) -> np.ndarray:
        return (planes[b >> 3] >> (b & 7)) & 1

    events = _run(plan, bit, np.zeros(lanes, dtype=np.uint8), trace)
    return {label: np.broadcast_to(bits, lanes) for label, bits in events.items()}


def _batch_events(
    plan: CaPlan, shots: int, seed: int, first: int = 0, trace: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Shots ``first .. first + shots - 1`` of ``seed``, one lane per shot:
    their per-shot event bits (see :func:`_lanes`)."""
    words = -(-_layout_of(plan).reads[0] // 64)
    # Only the words read are copied.  Row 8w + j holds byte j of the shot's
    # word w, so bit b is bit b % 8 of row b // 8; shifting uint8 rows is
    # cheaper than shifting uint64 words.
    planes = (
        _shot_words(derive_seed(seed), first, shots, words).astype("<u8", copy=False)
        .view(np.uint8).reshape(words, shots, 8).transpose(0, 2, 1).reshape(8 * words, shots)
    )
    return _lanes(plan, planes, trace)


class _Layout:
    """A layout's rule table and, worked out on its first use, what the
    layout's runs read: their bit count, the bits their events depend on
    and the outcome of every pattern of those bits."""

    def __init__(self, plan: CaPlan, bindings: tuple[RuleBinding, ...]) -> None:
        self.plan = plan
        self.bindings = bindings

    @cached_property
    def reads(self) -> tuple[int, tuple[int, ...]]:
        """How many bits a shot reads, and the sorted bits ``D`` its events
        may depend on: one run of :class:`_Unknown` bits, every draw a bit
        of its own."""
        read: list[int] = []

        def bit(b: int) -> _Unknown:
            read.append(b)
            return _Unknown(frozenset((b,)))

        events = _run(self.plan, bit, 0).values()
        if len(read) > 256:
            raise ValueError("the plan draws more than one Philox block per shot")
        dependencies = frozenset().union(*(e.bits for e in events if isinstance(e, _Unknown)))
        return len(read), tuple(sorted(dependencies))

    @cached_property
    def patterns(self) -> tuple[list[str], np.ndarray]:
        """The event labels, in :func:`_read_out`'s order, and the read-only
        ``int64`` outcome code of each pattern of ``D``: lane ``j`` draws
        bit ``i`` of ``j`` at ``D[i]`` and 0 at every other bit, and bit
        ``k`` of its code is its ``k``-th event."""
        bits, dependencies = self.reads
        every = np.arange(1 << len(dependencies))
        planes = np.zeros((8 * -(-bits // 64), len(every)), dtype=np.uint8)
        for i, b in enumerate(dependencies):
            planes[b >> 3] |= ((every >> i & 1) << (b & 7)).astype(np.uint8)
        events = _lanes(self.plan, planes)
        codes = np.zeros(len(every), dtype=np.int64)
        for k, column in enumerate(events.values()):
            codes |= column.astype(np.int64) << k
        codes.flags.writeable = False
        return list(events), codes


def run_single(
    plan: CaPlan, seed: int, shot: int = 0, trace: list[str] | None = None
) -> dict[str, int]:
    """Shot ``shot`` of ``seed``: the same run a bulk call makes there."""
    events = _batch_events(plan, 1, seed, shot, trace)
    return {label: int(bits[0]) for label, bits in events.items()}


def _index_runs(dependencies: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """How to gather a shot's pattern index, bit ``i`` its bit
    ``dependencies[i]``: one ``(word, shift, mask, position)`` per run of
    consecutive bits within one word, read by one shift and one mask, then
    moved to its place."""
    runs: list[tuple[int, int, int, int]] = []
    for i, b in enumerate(dependencies):
        if runs and b == dependencies[i - 1] + 1 and b % 64:
            word, shift, mask, position = runs[-1]
            runs[-1] = (word, shift, mask << 1 | 1, position)
        else:
            runs.append((b >> 6, b & 63, 1, i))
    return runs


def run_experiment(
    plan: CaPlan,
    shots: int,
    seed: int,
    labeler: Callable[[dict[str, int]], str],
) -> dict[str, int]:
    """Outcome counts over shots ``0 .. shots - 1`` of ``seed``, counted
    :data:`toyfield.montecarlo._CHUNK_SHOTS` shots at a time.

    A shot's events are a function of the bits ``D`` of its draws that the
    layout's dependency pass finds (:attr:`_Layout.reads`).  Each chunk is
    one Philox draw and two bincounts: how many of its shots drew each
    pattern of ``D``, summed under the outcome code of each pattern, evolved
    once per layout (:attr:`_Layout.patterns`).  The counts are those of
    one lane per shot (:func:`_batch_events`).
    """
    layout = _layout_of(plan)
    runs = _index_runs(layout.reads[1])
    key = derive_seed(seed)

    def counted(first: int, n: int) -> tuple[Sequence[str], list[int], list[int]]:
        drawn = _block(key, first, n).view(np.int64)
        index = np.zeros(n, dtype=np.int64)
        for word, shift, mask, position in runs:
            index |= (drawn[:, word] >> shift & mask) << position
        labels, codes = layout.patterns
        sizes = np.bincount(codes, np.bincount(index, minlength=len(codes)))
        seen = sizes.nonzero()[0]
        return labels, seen.tolist(), sizes[seen].astype(np.int64).tolist()

    return _tally(shots, counted, labeler)


def run_scenario_ca(scenario, shots: int, seed: int) -> dict[str, int]:
    """Compile a scenario for the wire layout and count outcomes."""
    plan = plan_from_program(scenario.program)
    return run_experiment(plan, shots, seed, scenario.labeler)


# ---------------------------------------------------------------------------
# Time-reversal checks


def check_time_reversal(kind: str) -> bool:
    """True iff the deterministic rule ``kind`` of the table that runs
    (``free_swap``, ``phase`` with s = 1, ``beamsplitter``) is its own time
    reverse: reversing its group's cells along the wire commutes with it.

    Checked exhaustively over the group's 4^k joint cell states (k = 2, or
    4 for the splitter).  ``broken_oneway``, a phase flip on one travel
    direction only, is the negative control.
    """

    def broken_oneway(states, binding, t, coin):
        (n_a, phi_a), (n_b, phi_b) = states
        return (n_b, phi_b ^ 1), (n_a, phi_a)

    if kind not in ("free_swap", "phase", "beamsplitter", "broken_oneway"):
        raise ValueError(f"{kind!r} is not a deterministic rule")
    group, rule = ("phase", broken_oneway) if kind == "broken_oneway" else (kind, _RULES[kind])
    plan = CaPlan(("phase", 1), {"L": "L", "R": "R"})
    binding = next(b for b in layout_bindings(plan) if b.kind == group)
    position = [int(label[1:]) for label in binding.cells]
    ends = min(position) + max(position)
    # mirror[k] is the index of cell k's mirror image along the wire
    mirror = [
        binding.cells.index(f"{label[0]}{ends - j}")
        for label, j in zip(binding.cells, position)
    ]
    for bits in itertools.product((0, 1), repeat=2 * len(binding.cells)):
        states = list(zip(bits[::2], bits[1::2]))
        out = rule(states, binding, 0, None)
        reversed_out = rule([states[k] for k in mirror], binding, 0, None)
        if list(reversed_out) != [out[k] for k in mirror]:
            return False
    return True
