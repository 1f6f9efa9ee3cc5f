"""The coarse-grained single-excitation theory and its derivation checks.

Within the single-excitation sector of a two-mode register (exactly one
occupation bit set), a photon-like description uses a binary which-way
variable w (1 when the left mode is occupied) and a binary relative phase
theta = Phi_L + Phi_R.  The map from sector states to (w, theta) is exactly
2-to-1: simultaneous flips of both local phases are invisible to it.

The coarse theory is the toy theory of one mode, with w as its occupation N
and theta as its phase Phi: at most one of {w, theta, w + theta} can be
known, the splitter swaps w and theta, and measuring w randomizes theta.  So
a coarse point is a packed one-mode state ``w | theta << 1`` on
:data:`COARSE`, a coarse state of knowledge is an ``EpistemicState`` there,
its validity is :func:`~toyfield.phase_space.is_valid` and measuring w is the
engine's occupation measurement of mode 0.  This module maps fine states and
gates onto it and checks exhaustively that coarse-graining commutes with
dynamics and measurement for any circuit that stays in the sector.
"""

from __future__ import annotations

from toyfield._record import record
from toyfield.circuits import ONE, GateStep, MeasureStep, branches, toy_measure
from toyfield.phase_space import EpistemicState, RegisterShape, enumerate_valid_states
from toyfield.toy_dynamics import (
    Beamsplitter, Identity, PhaseShift, SwapModes, ToyGate, apply_gate_index, push_forward,
)
from toyfield.toy_measurement import DisturbanceKind

__all__ = [
    "COARSE",
    "CommutationReport",
    "SECTOR_INDICES",
    "SectorError",
    "check_commutation",
    "coarse_grain_epistemic",
    "coarse_grain_gate",
    "coarse_grain_index",
]

COARSE = RegisterShape(1)
_TWO_MODES = RegisterShape(2)

SECTOR_INDICES = tuple(index for index in range(16) if (index ^ index >> 2) & 1)

# Coarse gates as the image of each coarse point w | theta << 1, in point
# order.  They are written out, not derived from the fine gates, so that the
# ontic check in check_commutation compares two independent descriptions.
_SPLITTER = (0, 2, 1, 3)  # swap w and theta
_SPLITTER_REVERSED = (3, 1, 2, 0)  # swap w and theta, complementing both
_PHASE_SHIFT = ((0, 1, 2, 3), (2, 3, 0, 1))  # flip theta by s
_SWAP_MODES = (1, 0, 3, 2)  # flip w
_IDENTITY = (0, 1, 2, 3)

_WHICHWAY = MeasureStep("w", "mode", 0, "N", DisturbanceKind.NONDESTRUCTIVE)


class SectorError(ValueError):
    """Raised when a state lies outside the single-excitation sector."""


def coarse_grain_index(index: int) -> int:
    """Project a packed two-mode sector state onto the coarse point ``w | theta << 1``."""
    n_l, phi_l = index & 1, (index >> 1) & 1
    n_r, phi_r = (index >> 2) & 1, (index >> 3) & 1
    if n_l ^ n_r != 1:
        raise SectorError("state outside the single-excitation sector")
    return n_l | (phi_l ^ phi_r) << 1


def coarse_grain_epistemic(state: EpistemicState) -> EpistemicState:
    """Coarse-grain a two-mode epistemic state with sector-confined support."""
    if state.shape != _TWO_MODES:
        raise ValueError("coarse-graining is defined on two-mode registers")
    return EpistemicState(COARSE, frozenset(map(coarse_grain_index, state.support)))


def coarse_grain_gate(gate: ToyGate) -> tuple[int, ...] | None:
    """The coarse counterpart of a two-mode gate, as the image of each of the
    four coarse points, or None if it has none.

    A splitter swaps w and theta.  Fed with its arguments reversed, it makes
    N_R (not N_L) track the relative phase, so w and theta also complement.
    A phase flip on either mode flips theta; exchanging the modes flips w.
    """
    if isinstance(gate, Beamsplitter):
        return _SPLITTER if gate.a == 0 else _SPLITTER_REVERSED
    if isinstance(gate, PhaseShift):
        return _PHASE_SHIFT[gate.s]
    if isinstance(gate, SwapModes):
        return _SWAP_MODES
    if isinstance(gate, Identity):
        return _IDENTITY
    return None


def _coarse_apply(state: EpistemicState, gate: ToyGate) -> EpistemicState:
    table = coarse_grain_gate(gate)
    return EpistemicState(COARSE, frozenset(table[x] for x in state.support))


def _coarse_measure(state: EpistemicState, step: MeasureStep) -> list:
    # Measuring N_L reads w; measuring N_R reads its complement.
    return [(w ^ step.index, p, post) for w, p, post in toy_measure(state, _WHICHWAY)]


@record
class CommutationReport:
    """Whether coarse-graining commutes with a circuit, and where it first fails if not."""

    commutes: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.commutes


def check_commutation(circuit) -> CommutationReport:
    """Verify coarse-graining commutes with a sector circuit, exhaustively.

    ``circuit`` is a sequence of steps: either a two-mode ToyGate or the pair
    ("measure", mode), a nondestructive occupation measurement.  Each gate's
    coarse table is checked on all 8 sector ontic states.  Then, from every
    valid sector-supported epistemic state, the circuit branches on the fine
    register and, from that state's coarse image, on :data:`COARSE`; after
    every step both runs must hold the same weights, compared as their
    reduced int pairs, and records, with each fine branch's coarse image
    equal to its coarse branch's state.
    """
    steps = []
    for step in circuit:
        if isinstance(step, tuple) and step[0] == "measure":
            mode, kind = step[1], DisturbanceKind.NONDESTRUCTIVE
            steps.append(MeasureStep(f"N_{mode}", "mode", mode, "N", kind))
            continue
        table = coarse_grain_gate(step)
        if table is None:
            return CommutationReport(False, f"gate {step!r} has no coarse counterpart")
        for index in SECTOR_INDICES:
            try:
                image = coarse_grain_index(apply_gate_index(step, index, _TWO_MODES))
            except SectorError:
                return CommutationReport(False, f"gate {step!r} leaves the sector")
            if image != table[coarse_grain_index(index)]:
                return CommutationReport(
                    False, f"gate {step!r} disagrees on ontic state {index}"
                )
        steps.append(GateStep(step))

    sector = set(SECTOR_INDICES)
    for start in enumerate_valid_states(_TWO_MODES):
        if not start.support <= sector:
            continue
        fine = branches([(ONE, start, ())], steps, push_forward, toy_measure)
        coarse = branches(
            [(ONE, coarse_grain_epistemic(start), ())], steps, _coarse_apply, _coarse_measure
        )
        for number, ((_, fine_now), (_, coarse_now)) in enumerate(zip(fine, coarse), 1):
            fine_image = sorted(
                (w, events, coarse_grain_epistemic(state).support) for w, state, events in fine_now
            )
            if fine_image != sorted((w, events, state.support) for w, state, events in coarse_now):
                return CommutationReport(
                    False, f"step {number} disagrees from start state {sorted(start.support)}"
                )
    return CommutationReport(True)
