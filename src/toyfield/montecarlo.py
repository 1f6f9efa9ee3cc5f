"""Per-run sampling, frequency aggregation and the locality audit.

A run draws one physical state uniformly from the preparation's support,
applies the plan's gates deterministically, and at each measurement reads
the actual bit value and applies a coin-sampled disturbance function.  Runs
are replayable: the run seed fixes every draw.

Seeding is two-level.  A master seed plus a shot index is hashed (BLAKE2b)
into an independent child seed, so shards of a large estimate never share
randomness regardless of how shots are split across workers; within a run,
draws come sequentially from a generator seeded with the child seed, and
each draw's value is recorded in the run record.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from toyfield.circuits import GateStep, ToyPlan, default_labeler, step_run_index
from toyfield.phase_space import RegisterShape
from toyfield.toy_dynamics import gate_table

__all__ = [
    "FrequencyReport",
    "LocalityReport",
    "MeasurementEvent",
    "RunRecord",
    "derive_seed",
    "estimate",
    "locality_audit",
    "sample_run",
]


def derive_seed(master: int, index: int) -> int:
    """A child seed statistically independent across (master, index) pairs."""
    digest = hashlib.blake2b(
        f"{master}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class MeasurementEvent:
    """One measurement during a run, with enough state to audit locality."""

    label: str
    target_kind: str  # "mode" or "ancilla"
    target: int
    value: int
    coin: int
    state_before: int
    state_after: int


@dataclass(frozen=True)
class RunRecord:
    seed: int
    initial_state: int
    events: tuple[MeasurementEvent, ...]
    outcome: dict[str, int]


def sample_run(plan: ToyPlan, seed: int) -> RunRecord:
    """One stochastic run of a compiled plan; identical seeds replay exactly."""
    rng = random.Random(seed)
    shape = plan.shape
    initial_states = sorted(plan.initial.support)
    state = initial_states[rng.randrange(len(initial_states))]
    initial = state
    events: list[MeasurementEvent] = []
    outcome: dict[str, int] = {}
    for step in plan.steps:
        if isinstance(step, GateStep):
            state = gate_table(step.gate, shape)[state]
        else:
            coin = rng.getrandbits(1)
            before = state
            value, state = step_run_index(state, shape, step, coin)
            events.append(
                MeasurementEvent(
                    step.label, step.target_kind, step.index, value, coin, before, state
                )
            )
            outcome[step.label] = value
    return RunRecord(seed, initial, tuple(events), outcome)


@dataclass(frozen=True)
class FrequencyReport:
    """Empirical frequencies against an exact reference distribution."""

    scenario: str
    shots: int
    seed: int
    counts: dict[str, int]
    exact: dict[str, Fraction]
    z_scores: dict[str, float]
    tv_distance: float

    def frequencies(self) -> dict[str, float]:
        return {label: count / self.shots for label, count in self.counts.items()}

    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), default=0.0)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "shots": self.shots,
            "seed": self.seed,
            "counts": dict(sorted(self.counts.items())),
            "exact": {k: f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
                      for k, v in sorted(self.exact.items())},
            "z_scores": {k: round(v, 6) for k, v in sorted(self.z_scores.items())},
            "tv_distance": round(self.tv_distance, 9),
        }
        return json.dumps(payload, indent=2)


def _z_score(count: int, shots: int, p: Fraction) -> float:
    if p == 0 or p == 1:
        expected = shots * int(p == 1)
        return 0.0 if count == expected else math.inf
    pf = float(p)
    return (count / shots - pf) / math.sqrt(pf * (1.0 - pf) / shots)


def estimate(
    plan: ToyPlan,
    shots: int,
    seed: int,
    labeler: Callable[[dict[str, int]], str] | None = None,
    exact: dict[str, Fraction] | None = None,
    scenario: str = "",
) -> FrequencyReport:
    """Aggregate ``shots`` independent runs into a frequency report.

    The z-score per label compares the empirical count with the exact
    reference probability under the binomial null; the total-variation
    distance summarizes the whole distribution.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if labeler is None:
        labeler = default_labeler
    if exact is None:
        from toyfield.circuits import joint_to_labeled, run_toy_exact

        exact = joint_to_labeled(run_toy_exact(plan), labeler)
    counts: dict[str, int] = {}
    for shot in range(shots):
        record = sample_run(plan, derive_seed(seed, shot))
        label = labeler(record.outcome)
        counts[label] = counts.get(label, 0) + 1
    labels = set(counts) | set(exact)
    z_scores = {
        label: _z_score(counts.get(label, 0), shots, exact.get(label, Fraction(0)))
        for label in labels
    }
    tv = 0.5 * sum(
        abs(counts.get(label, 0) / shots - float(exact.get(label, Fraction(0))))
        for label in labels
    )
    return FrequencyReport(scenario, shots, seed, counts, dict(exact), z_scores, tv)


@dataclass(frozen=True)
class LocalityViolation:
    shot_seed: int
    event: MeasurementEvent
    changed_bits: int


@dataclass(frozen=True)
class LocalityReport:
    runs: int
    events_checked: int
    violations: tuple[LocalityViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_records(
    records: Iterable[RunRecord], shape: RegisterShape
) -> LocalityReport:
    """Check that each measurement changed only the measured subsystem's bits."""
    runs = 0
    checked = 0
    violations: list[LocalityViolation] = []
    for record in records:
        runs += 1
        for event in record.events:
            checked += 1
            if event.target_kind == "mode":
                lo = shape.occupation_slot(event.target)
            else:
                lo = shape.coordinate_slot(event.target)
            own_mask = 0b11 << lo
            changed = (event.state_before ^ event.state_after) & ~own_mask
            if changed:
                violations.append(LocalityViolation(record.seed, event, changed))
    return LocalityReport(runs, checked, tuple(violations))


def locality_audit(plan: ToyPlan, shots: int, seed: int) -> LocalityReport:
    """Run the plan ``shots`` times and audit every measurement event.

    A violation means some bit outside the measured subsystem changed across
    the event; the offending run record is reported.
    """
    records = (sample_run(plan, derive_seed(seed, shot)) for shot in range(shots))
    return audit_records(records, plan.shape)
