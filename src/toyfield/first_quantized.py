"""The coarse-grained single-excitation theory and its derivation checks.

Within the single-excitation sector of a two-mode register (exactly one
occupation bit set), a photon-like description uses a binary which-way
variable w (1 when the left mode is occupied) and a binary relative phase
theta = Phi_L + Phi_R.  The map from sector states to (w, theta) is exactly
2-to-1: simultaneous flips of both local phases are invisible to it.

The coarse theory has the same structure as the two-mode theory: between w
and theta at most one of {w, theta, w + theta} can be known; the splitter
swaps w and theta; measuring w randomizes theta.  This module provides the
coarse objects and an exhaustive check that coarse-graining commutes with
dynamics and measurement for any circuit that stays in the sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from toyfield.phase_space import (
    EpistemicState,
    PhysicalState,
    RegisterShape,
)
from toyfield.toy_dynamics import (
    Beamsplitter,
    Identity,
    PhaseShift,
    SwapModes,
    ToyGate,
    apply_gate_index,
    push_forward,
)
from toyfield.toy_measurement import DisturbanceKind, measure_occupation

__all__ = [
    "CommutationReport",
    "FqEpistemicState",
    "FqState",
    "SectorError",
    "check_commutation",
    "coarse_grain",
    "coarse_grain_epistemic",
    "coarse_grain_gate",
    "fq_beamsplitter",
    "fq_measure_whichway",
    "fq_phase_shift",
]

_TWO_MODES = RegisterShape(2)


class SectorError(ValueError):
    """Raised when a state lies outside the single-excitation sector."""


@dataclass(frozen=True)
class FqState:
    """Coarse ontic state: which-way bit w and relative phase bit theta."""

    w: int
    theta: int

    def __post_init__(self) -> None:
        if self.w not in (0, 1) or self.theta not in (0, 1):
            raise ValueError("w and theta must be bits")

    @property
    def way(self) -> str:
        return "L" if self.w == 1 else "R"


@dataclass(frozen=True)
class FqEpistemicState:
    """Flat distribution over coarse states; valid when at most one of
    {w, theta, w + theta} is known."""

    support: frozenset[FqState]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be non-empty")

    @property
    def size(self) -> int:
        return len(self.support)

    def is_valid(self) -> bool:
        if len(self.support) == 4:
            return True
        if len(self.support) != 2:
            return False
        a, b = sorted(self.support, key=lambda s: (s.w, s.theta))
        # Exactly one of w, theta, w + theta constant across the pair.
        return (a.w ^ b.w, a.theta ^ b.theta) in ((0, 1), (1, 0), (1, 1))


def _sector_check(n_l: int, n_r: int) -> None:
    if n_l ^ n_r != 1:
        raise SectorError("state outside the single-excitation sector")


def coarse_grain(state: PhysicalState) -> FqState:
    """Project a two-mode sector state onto (w, theta)."""
    if state.shape != _TWO_MODES:
        raise ValueError("coarse-graining is defined on two-mode registers")
    left, right = state.mode(0), state.mode(1)
    _sector_check(left.n, right.n)
    return FqState(left.n, left.phi ^ right.phi)


def coarse_grain_index(index: int) -> FqState:
    n_l, phi_l = index & 1, (index >> 1) & 1
    n_r, phi_r = (index >> 2) & 1, (index >> 3) & 1
    _sector_check(n_l, n_r)
    return FqState(n_l, phi_l ^ phi_r)


def coarse_grain_epistemic(state: EpistemicState) -> FqEpistemicState:
    """Coarse-grain a two-mode epistemic state with sector-confined support."""
    if state.shape != _TWO_MODES:
        raise ValueError("coarse-graining is defined on two-mode registers")
    return FqEpistemicState(frozenset(coarse_grain_index(x) for x in state.support))


def fq_beamsplitter(state: FqState) -> FqState:
    """The splitter in the coarse theory: swap w and theta."""
    return FqState(state.theta, state.w)


def fq_beamsplitter_reversed(state: FqState) -> FqState:
    """Coarse image of the splitter with its arguments reversed.

    Feeding the right mode into the exchanged role makes N_R (not N_L)
    track the relative phase, so on the sector w and theta swap with both
    complemented.  A distinct, equally valid coarse gate.
    """
    return FqState(state.theta ^ 1, state.w ^ 1)


def fq_phase_shift(state: FqState, s: int) -> FqState:
    """A local phase flip on either mode flips the relative phase."""
    return FqState(state.w, state.theta ^ s)


def fq_swap_modes(state: FqState) -> FqState:
    """Exchanging the two modes inverts w and preserves theta."""
    return FqState(state.w ^ 1, state.theta)


def _fq_apply(state: FqEpistemicState, f) -> FqEpistemicState:
    return FqEpistemicState(frozenset(f(s) for s in state.support))


def fq_measure_whichway(
    state: FqEpistemicState,
) -> list[tuple[int, Fraction, FqEpistemicState]]:
    """Measure w: condition on the outcome, then randomize theta."""
    total = len(state.support)
    outcomes = []
    for value in (0, 1):
        kept = [s for s in state.support if s.w == value]
        if not kept:
            continue
        prob = Fraction(len(kept), total)
        posterior = frozenset(
            FqState(value, theta) for s in kept for theta in (s.theta, s.theta ^ 1)
        )
        outcomes.append((value, prob, FqEpistemicState(posterior)))
    return outcomes


def coarse_grain_gate(gate: ToyGate):
    """The coarse counterpart of a two-mode gate, or None if it has none."""
    if isinstance(gate, Beamsplitter):
        return fq_beamsplitter if gate.a == 0 else fq_beamsplitter_reversed
    if isinstance(gate, PhaseShift):
        return lambda s, bit=gate.s: fq_phase_shift(s, bit)
    if isinstance(gate, SwapModes):
        return fq_swap_modes
    if isinstance(gate, Identity):
        return lambda s: s
    return None


SECTOR_INDICES = tuple(
    index
    for index in range(16)
    if ((index & 1) ^ ((index >> 2) & 1)) == 1
)


@dataclass(frozen=True)
class CommutationReport:
    commutes: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.commutes


def _sector_epistemic_states() -> list[EpistemicState]:
    """All valid two-mode epistemic states supported inside the sector."""
    from toyfield.phase_space import enumerate_valid_states, is_valid

    sector = set(SECTOR_INDICES)
    return [
        state
        for state in enumerate_valid_states(_TWO_MODES)
        if set(state.support) <= sector and is_valid(state)
    ]


def check_commutation(circuit) -> CommutationReport:
    """Verify coarse-graining commutes with a sector circuit, exhaustively.

    ``circuit`` is a sequence of steps: either a two-mode ToyGate or the pair
    ("measure", mode).  Gates are checked on all 8 sector ontic states;
    measurements are checked on every valid sector-supported epistemic state
    (outcome probabilities and coarse posteriors must agree).  Each step is
    also replayed along the epistemic evolution from every valid sector
    state, comparing the coarse image after every step.
    """
    for step in circuit:
        if isinstance(step, tuple) and step[0] == "measure":
            continue
        fq = coarse_grain_gate(step)
        if fq is None:
            return CommutationReport(False, f"gate {step!r} has no coarse counterpart")
        for index in SECTOR_INDICES:
            image = apply_gate_index(step, index, _TWO_MODES)
            try:
                fine_then_coarse = coarse_grain_index(image)
            except SectorError:
                return CommutationReport(False, f"gate {step!r} leaves the sector")
            coarse_then_fq = fq(coarse_grain_index(index))
            if fine_then_coarse != coarse_then_fq:
                return CommutationReport(
                    False, f"gate {step!r} disagrees on ontic state {index}"
                )

    for start in _sector_epistemic_states():
        branches = [(start, coarse_grain_epistemic(start))]
        for step in circuit:
            new_branches = []
            if isinstance(step, tuple) and step[0] == "measure":
                mode = step[1]
                for fine, coarse in branches:
                    fine_outcomes = measure_occupation(
                        fine, mode, DisturbanceKind.NONDESTRUCTIVE
                    )
                    coarse_outcomes = dict(
                        (value, (prob, post))
                        for value, prob, post in fq_measure_whichway(coarse)
                    )
                    for outcome in fine_outcomes:
                        # N_0 reads w directly; N_1 reads its complement.
                        w_value = outcome.value if mode == 0 else outcome.value ^ 1
                        if w_value not in coarse_outcomes:
                            return CommutationReport(
                                False, f"outcome {outcome.value} missing coarsely"
                            )
                        prob, post = coarse_outcomes[w_value]
                        if prob != outcome.probability:
                            return CommutationReport(
                                False, "outcome probabilities disagree"
                            )
                        if coarse_grain_epistemic(outcome.posterior).support != post.support:
                            return CommutationReport(
                                False, "posterior coarse images disagree"
                            )
                        new_branches.append((outcome.posterior, post))
            else:
                fq = coarse_grain_gate(step)
                for fine, coarse in branches:
                    fine_next = push_forward(fine, step)
                    coarse_next = _fq_apply(coarse, fq)
                    if coarse_grain_epistemic(fine_next).support != coarse_next.support:
                        return CommutationReport(
                            False, f"gate {step!r} disagrees along the evolution"
                        )
                    new_branches.append((fine_next, coarse_next))
            branches = new_branches
    return CommutationReport(True)
