"""Sampled runs, frequency aggregation and the locality audit.

A run draws one physical state uniformly from the preparation's support,
applies the plan's gates deterministically, and at each measurement reads
the actual bit value and applies a coin-sampled disturbance function.

Every draw is a pure function of ``(seed, shot, bit)``, read off the
counter-based Philox4x64-10 generator (Salmon et al., SC'11):

* the key is :func:`derive_seed` of the master seed, a BLAKE2b-128 digest,
  so master seeds of any width key the generator;
* shot ``s`` reads the 256-bit blocks at counters ``(s, 0, 0, 0)``,
  ``(s, 1, 0, 0)``, ... (64-bit words, least significant first); a plan
  needing at most 256 bits per shot reads block ``s`` of the stream alone;
* bit ``b`` of a shot is bit ``b % 64`` of word ``(b % 256) // 64`` of its
  block ``b // 256``.  Bits ``[0, k)`` index the plan's sorted support of
  ``2^k`` points, and bit ``k + i`` is the coin of the i-th measurement.

Shots are therefore independent runs, and a shot's outcome is a function
of the ``B = k + m`` bits it reads (``m`` measurements); the last coin, bit
``B - 1``, only moves the state after the last value is read, so no outcome
depends on it.  Shot numbers lie in ``[0, 2**64)``, the counter's first
word; :func:`_block` refuses any other.  Each thread draws from one Philox
generator, made on first use and moved to each draw's ``(key, counter)``
with its buffer emptied, so no word carries over between calls.

:func:`_kernel` turns a plan into column ops, and one lane kernel,
:func:`_lanes`, advances ``uint64`` lanes through them: gates through their
two-subsystem kernels and measurements through their ``(read, keep,
flip)`` triples.  :func:`sample_run` and :func:`locality_audit` build the
kernel on every call and give every shot its own lane, so ``(seed, shot)``
replays any run of a bulk call and the audit sees every run's states.
:func:`run_experiment` counts through :func:`_tally`, as the wire automaton
does, from the kernel and the pattern table the plan makes once per plan
object (:attr:`~toyfield.circuits.ToyPlan.column_kernel`,
:attr:`~toyfield.circuits.ToyPlan.patterns`), so a call does only the work
that depends on its seed.  Every shot draws each pattern alike, so weighing
them alike gives the exact law of a shot's outcome, :func:`exact_law`.
:func:`estimate` compares the counts with an exact reference.

numpy is imported, and a thread's generator made, on first use, not with
this module.
"""

from __future__ import annotations

import hashlib
import math
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from toyfield._record import record
from toyfield import __version__
from toyfield.circuits import (
    CapabilityError,
    GateStep,
    JointDistribution,
    Program,
    ToyPlan,
    default_labeler,
    joint_to_labeled,
    render,
    run_toy_exact,
)
from toyfield.phase_space import RegisterShape
from toyfield.toy_dynamics import _gate_kernel
from toyfield.toy_dynamics import gate_table  # noqa: F401  the tracer test reads it (ROADMAP item 1)
from toyfield.toy_measurement import DisturbanceKind, measurement_kernel

if TYPE_CHECKING:
    import numpy as np

    from toyfield.automaton import CaPlan

__all__ = [
    "FrequencyReport",
    "LocalityReport",
    "LocalityViolation",
    "MeasurementEvent",
    "RNG_SCHEME",
    "RunRecord",
    "ShotColumns",
    "derive_seed",
    "estimate",
    "exact_law",
    "locality_audit",
    "program_sha256",
    "provenance",
    "run_experiment",
    "sample_run",
]

# Both sampled engines draw from this scheme; each lays its bits out in its
# own module docstring.
RNG_SCHEME = "philox4x64-10; key=blake2b-128(seed); counter=(shot, block, 0, 0); v1"

# Shots advanced together; bounds the columns' memory, never the results.
_CHUNK_SHOTS = 1 << 16

# The most bits a pattern table enumerates: it then holds at most 2^16 lanes.
_PATTERN_BITS = 16


def derive_seed(master: int) -> int:
    """The 128-bit Philox key of a non-negative master seed of any width."""
    if master < 0:
        raise ValueError("seed must be non-negative")
    digest = hashlib.blake2b(str(master).encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def program_sha256(program: Program) -> str:
    """The SHA-256 of the program's canonical text, which names it in reports."""
    return hashlib.sha256(render(program).encode()).hexdigest()


def provenance(seed: int, digest: str) -> dict[str, object]:
    """The keys every sampled JSON report carries: the seed, the draw scheme,
    the program's :func:`program_sha256` and the toyfield version."""
    return {"seed": seed, "rng": RNG_SCHEME, "program_sha256": digest,
            "toyfield_version": __version__}


@record
class MeasurementEvent:
    """One measurement during a run, with enough state to audit locality."""

    label: str
    target_kind: str  # "mode" or "ancilla"
    target: int
    value: int
    coin: int
    state_before: int
    state_after: int


@record
class RunRecord:
    """One run; ``sample_run(plan, seed, shot)`` replays it."""

    seed: int
    initial_state: int
    events: tuple[MeasurementEvent, ...]
    outcome: dict[str, int]
    shot: int = 0


@record
class ShotColumns:
    """Shots ``first``, ``first + 1``, ... of one seed, one lane per shot.

    The fields mirror :class:`RunRecord`: ``initial_state`` and every event's
    ``value``, ``coin``, ``state_before`` and ``state_after`` are ``uint64``
    columns.
    """

    seed: int
    first: int
    initial_state: np.ndarray
    events: tuple[MeasurementEvent, ...]

    @property
    def runs(self) -> int:
        return len(self.initial_state)

    def record(self, lane: int) -> RunRecord:
        events = tuple(
            MeasurementEvent(
                e.label, e.target_kind, e.target, int(e.value[lane]), int(e.coin[lane]),
                int(e.state_before[lane]), int(e.state_after[lane]),
            )
            for e in self.events
        )
        outcome = {e.label: e.value for e in events}
        return RunRecord(self.seed, int(self.initial_state[lane]), events, outcome,
                         self.first + lane)

    @classmethod
    def of(cls, record: RunRecord) -> ShotColumns:
        """One record as a batch of one lane."""
        import numpy as np

        def column(x: int) -> np.ndarray:
            return np.array([x], dtype=np.uint64)

        events = tuple(
            MeasurementEvent(e.label, e.target_kind, e.target, column(e.value),
                             column(e.coin), column(e.state_before), column(e.state_after))
            for e in record.events
        )
        return cls(record.seed, record.shot, column(record.initial_state), events)


_PHILOX = threading.local()  # .generator: this thread's Philox, made on first use


def _block(key: int, first: int, shots: int, block: int = 0) -> np.ndarray:
    """Philox block ``block`` of shots ``first .. first + shots - 1`` under
    ``key``: a ``(shots, 4)`` array, row ``s`` the four words of shot
    ``first + s``.

    Shot numbers are the counter's first 64-bit word, so a shot outside
    ``[0, 2**64)`` is refused: it would read another shot's block.  Each
    thread draws from one generator, moved to counter ``first + (block <<
    64)`` with its buffer emptied, so a draw equals that of a new
    ``np.random.Philox(key=key, counter=first + (block << 64))``.
    """
    if first < 0 or first + shots > 1 << 64:
        shot = first if first < 0 else first + shots - 1
        raise ValueError(f"shot {shot} is outside the shot range [0, 2**64)")
    try:
        philox = _PHILOX.generator
    except AttributeError:
        import numpy as np

        philox = _PHILOX.generator = np.random.Philox(key=0)
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": [first, block, 0, 0], "key": [key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return philox.random_raw(4 * shots).reshape(shots, 4)


def _shot_words(key: int, first: int, shots: int, words: int) -> np.ndarray:
    """The first ``words`` Philox words of shots ``first .. first + shots - 1``
    under ``key``.

    A contiguous ``(words, shots)`` array: row ``w`` is word ``w % 4`` of
    every shot's :func:`_block` ``w // 4``, so bit ``b`` of a shot is bit
    ``b % 64`` of row ``b // 64``.  Both sampled engines draw through it and
    copy only the words they read.
    """
    import numpy as np

    out = np.empty((words, shots), dtype=np.uint64)
    for block in range(-(-words // 4)):
        out[4 * block:4 * block + 4] = _block(key, first, shots, block).T[:words - 4 * block]
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _kernel(plan: ToyPlan) -> tuple[np.ndarray, tuple[tuple, ...], int]:
    """``plan`` as column ops: its sorted support, one op per step and the
    number of bits a shot reads.  The arrays are read-only, so the copy a
    plan caches (:attr:`~toyfield.circuits.ToyPlan.column_kernel`) cannot
    be changed through a caller."""
    import numpy as np

    shape = plan.shape
    support = _read_only(np.array(sorted(plan.initial.support), dtype=np.uint64))
    k = len(support).bit_length() - 1
    if len(support) != 1 << k:
        raise ValueError(f"initial support of {len(support)} points is not a power of two")
    ops = []
    bit = k
    for step in plan.steps:
        if isinstance(step, GateStep):
            shift0, shift1, deltas = _gate_kernel(step.gate, shape)
            ops.append((step, shift0, shift1, _read_only(np.array(deltas, dtype=np.uint64))))
        else:
            destructive = step.kind is DisturbanceKind.DESTRUCTIVE
            read, keep, flip = measurement_kernel(
                step.variable, step.index, shape.modes, shape.ancillas, destructive
            )
            ops.append((step, read, keep & 0xFFFF_FFFF_FFFF_FFFF, flip, bit))
            bit += 1
    return support, tuple(ops), bit


def _outcome_bits(support: np.ndarray, bits: int) -> int:
    """How many of a shot's ``bits`` its outcome reads: all but the last
    measurement's coin, the top bit, which only moves the state after the
    last value is read."""
    return bits - (bits > len(support).bit_length() - 1)


def _lanes(
    support: np.ndarray, ops: tuple[tuple, ...], words: np.ndarray
) -> tuple[np.ndarray, tuple[MeasurementEvent, ...]]:
    """Run one lane per column of ``words``, laid out as :func:`_shot_words`
    gives them, through :func:`_kernel`'s ``ops``: the lanes' initial states
    and their measurement events."""

    def draw(b: int) -> np.ndarray:
        return words[b >> 6] >> (b & 63)

    x = initial = support.take(draw(0) & (len(support) - 1))
    events = []
    for op in ops:
        if isinstance(op[0], GateStep):
            _, shift0, shift1, deltas = op
            x = x ^ deltas.take(((x >> shift0) & 3) | (((x >> shift1) & 3) << 2))
        else:
            step, read, keep, flip, b = op
            coin = draw(b) & 1
            after = (x & keep) ^ (coin << flip)
            events.append(MeasurementEvent(
                step.label, step.target_kind, step.index, (x >> read) & 1, coin, x, after
            ))
            x = after
    return initial, tuple(events)


def _shot_columns(plan: ToyPlan, seed: int, shots: int, first: int = 0) -> Iterator[ShotColumns]:
    """Shots ``first .. first + shots - 1`` of ``plan`` under ``seed``, one
    lane per shot, in chunks of :data:`_CHUNK_SHOTS`."""
    support, ops, bits = _kernel(plan)
    key = derive_seed(seed)
    stop = first + shots
    for start in range(first, stop, _CHUNK_SHOTS):
        words = _shot_words(key, start, min(_CHUNK_SHOTS, stop - start), max(1, -(-bits // 64)))
        yield ShotColumns(seed, start, *_lanes(support, ops, words))


def _patterns(plan: ToyPlan) -> _Table:
    """The plan's :func:`_pattern_table` of the bits a shot's outcome reads,
    run through its cached kernel: pattern ``j`` is word 0 of lane ``j``."""
    support, ops, bits = plan.column_kernel
    return _pattern_table(
        range(_outcome_bits(support, bits)),
        lambda every: {e.label: e.value for e in _lanes(support, ops, every[None])[1]},
    )


def exact_law(plan: ToyPlan | CaPlan) -> JointDistribution:
    """The exact law of a shot's outcome on either sampled engine, keyed by
    label assignments as :func:`~toyfield.circuits.run_toy_exact` keys them:
    a shot draws every pattern of the bits its outcome reads alike, so each
    pattern of the plan's table (:attr:`~toyfield.circuits.ToyPlan.patterns`
    or :attr:`toyfield.automaton.CaPlan.patterns`) weighs one over their
    number.  It agrees with ``run_toy_exact`` while the states stay valid
    and can differ once one leaves them."""
    import numpy as np

    table = plan.patterns
    sizes = np.bincount(table[2], minlength=len(table.outcomes)).tolist()
    return {tuple(sorted(pairs)): Fraction(size, len(table[2]))
            for pairs, size in zip(table.outcomes, sizes)}


def sample_run(plan: ToyPlan, seed: int, shot: int = 0) -> RunRecord:
    """Shot ``shot`` of ``seed``: the same run a bulk call makes there."""
    return next(_shot_columns(plan, seed, 1, shot)).record(0)


@record
class FrequencyReport:
    """Empirical frequencies against an exact reference distribution."""

    scenario: str
    shots: int
    seed: int
    counts: dict[str, int]
    exact: dict[str, Fraction]
    z_scores: dict[str, float]
    tv_distance: float
    program_sha256: str

    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), default=0.0)


def _z_score(count: int, shots: int, p: Fraction) -> float:
    if p == 0 or p == 1:
        expected = shots * int(p == 1)
        return 0.0 if count == expected else math.inf
    pf = float(p)
    return (count / shots - pf) / math.sqrt(pf * (1.0 - pf) / shots)


def _distinct(
    record: dict[str, np.ndarray], lanes: int
) -> tuple[list[str], list[int], np.ndarray]:
    """The labels of a ``{label: bit column}`` record of ``lanes`` lanes,
    its distinct outcome codes as ints in ascending order (bit ``j`` is
    label ``j``) and each lane's id, the index of its code.

    Each group of 32 labels, the highest first, is packed into an int64 key
    under the rank of the lane's higher groups, so one sort per group finds
    the distinct rows, in code order.
    """
    import numpy as np

    labels, columns = list(record), list(record.values())
    key = np.zeros(lanes, dtype=np.int64)
    tables = []  # the distinct keys of each group of 32 labels but the lowest, highest first
    # np.unique sorts, faster here than its hash path, only when asked for counts
    for n, j in enumerate(reversed(range(0, len(columns), 32))):
        if n:
            tables.append(np.unique(key, return_counts=True)[0])
            key = np.searchsorted(tables[-1], key) << 32
        for i, column in enumerate(columns[j:j + 32]):
            key |= column.astype(np.int64) << i
    rows, ids = np.unique(key, return_inverse=True)
    codes = []
    for row in rows.tolist():
        code = row & 0xFFFF_FFFF
        for shift, table in enumerate(reversed(tables), 1):
            row = int(table[row >> 32])
            code |= (row & 0xFFFF_FFFF) << 32 * shift
        codes.append(code)
    return labels, codes, ids


class _Table(tuple):
    """A pattern table ``(labels, codes, ids)`` and what :func:`_tally` reads
    of it per call: the Philox ``blocks`` holding a bit of ``D``, its index
    ``runs`` (word ``word`` of ``blocks[slot]``, shifted left by ``move`` or
    right if negative, masked) and each code's ``(label, bit)`` ``outcomes``."""


def _pattern_table(
    dependencies: Sequence[int], record: Callable[[np.ndarray], dict[str, np.ndarray]]
) -> _Table:
    """Every pattern of the sorted bits ``D``, ``dependencies``, that an
    outcome reads, as a :class:`_Table`: ``record(every)`` runs lane ``j``
    of the ``uint64`` column ``every`` on pattern ``j``, whose bit ``i`` is
    bit ``D[i]``, into a ``{label: bit column}`` record, and
    :func:`_distinct` gives its labels, its distinct codes and each
    pattern's id, held here as tuples and a read-only array.

    Raises :class:`~toyfield.circuits.CapabilityError` above
    :data:`_PATTERN_BITS` bits: the table would hold ``2^|D|`` lanes.
    """
    width = len(dependencies)
    if width > _PATTERN_BITS:
        raise CapabilityError(f"the outcome reads {width} random bits; a pattern table"
                              f" holds at most {_PATTERN_BITS}")
    import numpy as np

    labels, codes, ids = _distinct(record(np.arange(1 << width, dtype=np.uint64)), 1 << width)
    table = _Table((tuple(labels), tuple(codes), _read_only(ids)))
    runs = _index_runs(dependencies)
    table.blocks = tuple(sorted({word >> 2 for word, *_ in runs}))
    table.runs = tuple((table.blocks.index(word >> 2), word & 3, position - shift, mask << position)
                       for word, shift, mask, position in runs)
    table.outcomes = tuple(tuple((label, code >> j & 1) for j, label in enumerate(labels))
                           for code in codes)
    return table


def _index_runs(dependencies: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
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
    return tuple(runs)


def _check_shots(shots: int) -> None:
    """Refuse, before any draw, a shot count outside ``[1, 2**64]``: shot
    numbers lie in ``[0, 2**64)``."""
    if not 0 < shots <= 1 << 64:
        raise ValueError(f"shots must be positive and at most 2**64; got {shots}")


def _tally(
    plan: ToyPlan | CaPlan,
    shots: int,
    seed: int,
    lanes: Callable[[ToyPlan | CaPlan, int, int, int], dict[str, np.ndarray]],
    labeler: Callable[[dict[str, int]], str],
) -> dict[str, int]:
    """Outcome counts of shots ``0 .. shots - 1`` of ``seed`` on ``plan``,
    :data:`_CHUNK_SHOTS` at a time; both sampled engines count here.

    A shot's outcome is a function of the sorted bits ``D`` of its draws.
    With at most :data:`_PATTERN_BITS` of them, all a call reads of the plan
    is its pattern table (``plan.patterns``, a :class:`_Table`), and a chunk
    draws each Philox block holding a bit of ``D`` once, gathers each shot's
    pattern and is two bincounts: how many shots drew each pattern, summed
    under each pattern's outcome id.  With more, the table is refused, and
    ``lanes(plan, n, key, first)`` records one lane per shot ``first ..
    first + n - 1`` as ``{label: bit column}`` for :func:`_distinct` to
    count.  Either way the counts are those of one lane per shot, Python
    ints labelled in ascending code order (bit ``j`` is label ``j``), so no
    chunk size changes the result or its order; ``labeler`` sees each
    outcome once.  Shot counts outside ``[1, 2**64]`` are refused first.
    """
    import numpy as np

    _check_shots(shots)
    key = derive_seed(seed)
    chunks = ((first, min(_CHUNK_SHOTS, shots - first)) for first in range(0, shots, _CHUNK_SHOTS))
    try:
        table = plan.patterns
    except CapabilityError:  # D holds more bits than a pattern table
        tallies: dict[int, int] = {}
        for first, n in chunks:
            labels, codes, ids = _distinct(lanes(plan, n, key, first), n)
            for code, size in zip(codes, np.bincount(ids).tolist()):
                tallies[code] = tallies.get(code, 0) + size
        outcomes = [(tuple((label, code >> j & 1) for j, label in enumerate(labels)), tallies[code])
                    for code in sorted(tallies)]
    else:
        ids = table[2]
        totals = [0] * len(table[1])
        for first, n in chunks:
            drawn = [_block(key, first, n, block) for block in table.blocks]
            index = None  # D empty: every shot draws pattern 0
            for slot, word, move, mask in table.runs:
                bits = drawn[slot][:, word]
                if move:
                    bits = bits << move if move > 0 else bits >> -move
                index = bits & mask if index is None else index | bits & mask
            drew = (n,) if index is None else np.bincount(index.view(np.int64), minlength=len(ids))
            sizes = np.bincount(ids, drew, len(totals)).astype(np.int64).tolist()
            totals = [total + size for total, size in zip(totals, sizes)]
            del drawn  # freed before the next draw, which reuses its pages, not faulting new ones
        outcomes = zip(table.outcomes, totals)
    counts: dict[str, int] = {}
    for pairs, total in outcomes:
        if total:
            label = labeler(dict(pairs))
            counts[label] = counts.get(label, 0) + total
    return counts


def _shot_events(plan: ToyPlan, shots: int, key: int, first: int) -> dict[str, np.ndarray]:
    """One lane per shot through the plan's cached kernel: each label's value column."""
    support, ops, bits = plan.column_kernel
    events = _lanes(support, ops, _shot_words(key, first, shots, max(1, -(-bits // 64))))[1]
    return {e.label: e.value for e in events}


def run_experiment(
    plan: ToyPlan,
    shots: int,
    seed: int,
    labeler: Callable[[dict[str, int]], str] | None = None,
) -> dict[str, int]:
    """Outcome counts over shots ``0 .. shots - 1`` of ``seed``, with the
    contract of :func:`toyfield.automaton.run_experiment`; no exact
    reference is computed.  A shot's outcome reads the low ``B - 1`` bits
    of its word 0, all its ``B`` bits but the last measurement's coin (``B``
    with no measurement), and :func:`_tally` counts it from the plan's
    pattern table (:attr:`ToyPlan.patterns`) or, past :data:`_PATTERN_BITS`
    bits, from one lane per shot through the plan's cached kernel."""
    return _tally(plan, shots, seed, _shot_events, labeler or default_labeler)


def estimate(
    plan: ToyPlan,
    shots: int,
    seed: int,
    labeler: Callable[[dict[str, int]], str] | None = None,
    scenario: str = "",
) -> FrequencyReport:
    """:func:`run_experiment`'s counts compared with the exact toy run.

    The z-score per label compares the empirical count with the exact
    probability under the binomial null; the total-variation distance
    summarizes the whole distribution.  The report names the program by
    the SHA-256 of its canonical text.
    """
    labeler = labeler or default_labeler
    counts = run_experiment(plan, shots, seed, labeler)
    exact = joint_to_labeled(run_toy_exact(plan), labeler)
    labels = set(counts) | set(exact)
    z_scores = {
        label: _z_score(counts.get(label, 0), shots, exact.get(label, Fraction(0)))
        for label in labels
    }
    tv = 0.5 * sum(
        abs(counts.get(label, 0) / shots - float(exact.get(label, Fraction(0))))
        for label in labels
    )
    return FrequencyReport(scenario, shots, seed, counts, exact, z_scores, tv,
                           program_sha256(plan.program))


@record
class LocalityViolation:
    """A measurement that moved bits outside its subsystem, in shot ``shot``
    of ``seed``."""

    seed: int
    event: MeasurementEvent
    changed_bits: int
    shot: int = 0


@record
class LocalityReport:
    """What a locality audit checked and every violation it found."""

    runs: int
    events_checked: int
    violations: tuple[LocalityViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_records(
    records: Iterable[RunRecord | ShotColumns], shape: RegisterShape
) -> LocalityReport:
    """Check that each measurement changed only the measured subsystem's bits.

    ``records`` may mix single runs and column batches of runs.
    """
    runs = 0
    checked = 0
    violations: list[LocalityViolation] = []
    for record in records:
        batch = ShotColumns.of(record) if isinstance(record, RunRecord) else record
        runs += batch.runs
        for i, event in enumerate(batch.events):
            checked += batch.runs
            if event.target_kind == "mode":
                lo = shape.occupation_slot(event.target)
            else:
                lo = shape.coordinate_slot(event.target)
            own_mask = 0b11 << lo
            moved = event.state_before ^ event.state_after
            changed = moved ^ (moved & own_mask)
            for lane in changed.nonzero()[0].tolist():
                violations.append(LocalityViolation(
                    batch.seed, batch.record(lane).events[i], int(changed[lane]),
                    batch.first + lane,
                ))
    return LocalityReport(runs, checked, tuple(violations))


def locality_audit(plan: ToyPlan, shots: int, seed: int) -> LocalityReport:
    """Run shots ``0 .. shots - 1`` of ``seed`` and audit every measurement.

    A violation means some bit outside the measured subsystem changed across
    the event; it names the event and the ``(seed, shot)`` that replays it.
    """
    _check_shots(shots)
    return audit_records(_shot_columns(plan, seed, shots), plan.shape)
