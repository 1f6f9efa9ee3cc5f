"""Measurement semantics: outcome probabilities, update rules, sampling.

Every measurement follows one rule, fixed by a ``(read, keep, flip)`` triple
of bit slots and masks (:func:`measurement_kernel`).  A run reads the
measured bit, ``(x >> read) & 1``, and a fairly tossed coin picks the
disturbance: the state moves to ``(x & keep) ^ (coin << flip)``.  ``flip``
is always the conjugate bit of the measured one: an occupation measurement
disturbs the mode's phase, a Q (P) measurement the ancilla's momentum
(coordinate).  ``keep`` is the identity except for a destructive detector (a
brick, an absorbing photodetector), which first clears both of the mode's
bits: the mode is left unoccupied with a uniformly sampled phase.

An observer's exact update is that rule applied to every state they cannot
rule out: the support splits by the read bit, and each part's image under
both coins is the posterior of its outcome.  The intermediate
(conditioned-only) distribution can violate the knowledge restriction, so no
step of the rule is exposed on its own.  The nondestructive and destructive
rules average to the same stochastic map on the rest of the register
(complete phase randomization of the measured mode), so they are
indistinguishable at the distribution level.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from toyfield._record import record
from toyfield.phase_space import EpistemicState, RegisterShape, shared_state

__all__ = [
    "DisturbanceKind",
    "MeasurementOutcome",
    "measure_ancilla",
    "measure_occupation",
    "measurement_kernel",
    "sample_measurement_index",
]


class DisturbanceKind(enum.Enum):
    NONDESTRUCTIVE = "nondestructive"
    DESTRUCTIVE = "destructive"


@record
class MeasurementOutcome:
    """One value of a measurement, its probability and the posterior it leaves."""

    variable: str
    value: int
    probability: Fraction
    posterior: EpistemicState


@lru_cache(maxsize=None)  # keyed by plain values: it sits on the per-shot path
def measurement_kernel(
    variable: str, index: int, modes: int, ancillas: int, destructive: bool = False
) -> tuple[int, int, int]:
    """The ``(read, keep, flip)`` triple of measuring ``variable`` ("N" on
    mode ``index``, "Q" or "P" on ancilla ``index``) on a register of
    ``modes`` modes and ``ancillas`` ancillas.

    ``destructive`` makes ``keep`` clear both bits of the measured subsystem.
    """
    shape = RegisterShape(modes, ancillas)
    if variable == "N":
        read = shape.occupation_slot(index)
    elif variable in ("Q", "P"):
        read = shape.coordinate_slot(index) + (variable == "P")
    else:
        raise ValueError(f"variable must be 'N', 'Q' or 'P', got {variable!r}")
    keep = ~(0b11 << (read & ~1)) if destructive else -1
    return read, keep, read ^ 1


def _measure(state, label, kernel) -> list[MeasurementOutcome]:
    """The kernel applied to the whole support, on a register of any size:
    one outcome per read value.  Each posterior is ``shared_state``'s, one
    object per value on registers of at most ``SMALL_REGISTER_POINTS`` points,
    where a plan memoises the outcomes (``circuits.toy_measure``)."""
    read, keep, flip = kernel
    parts: tuple[list[int], list[int]] = ([], [])
    for x in state.support:
        parts[(x >> read) & 1].append(x & keep)
    bit, total = 1 << flip, len(state.support)
    return [
        MeasurementOutcome(label, value, Fraction(len(part), total), shared_state(
            state.shape, frozenset(part + [x ^ bit for x in part])))
        for value, part in enumerate(parts) if part
    ]


def measure_occupation(
    state: EpistemicState,
    mode: int,
    kind: DisturbanceKind = DisturbanceKind.NONDESTRUCTIVE,
) -> list[MeasurementOutcome]:
    """Occupation measurement on one mode, labelled ``N_<mode>``.

    Nondestructive: the posterior keeps the observed occupation and has the
    mode's phase randomized.  Destructive: the posterior has the mode reset
    to the unoccupied uniform-phase state regardless of the outcome.
    Zero-probability outcomes are not listed.
    """
    shape = state.shape
    destructive = kind is DisturbanceKind.DESTRUCTIVE
    kernel = measurement_kernel("N", mode, shape.modes, shape.ancillas, destructive)
    return _measure(state, f"N_{mode}", kernel)


def measure_ancilla(state: EpistemicState, ancilla: int, basis: str) -> list[MeasurementOutcome]:
    """Measure an ancilla's coordinate (basis "Q") or momentum (basis "P").

    The posterior has the conjugate bit randomized.  Q outcomes 0/1 are the
    a0/a1 labels; P outcomes 0/1 are a+/a-.  Outcomes are labelled
    ``Q_<ancilla>`` or ``P_<ancilla>``.
    """
    if basis not in ("Q", "P"):
        raise ValueError(f"basis must be 'Q' or 'P', got {basis!r}")
    kernel = measurement_kernel(basis, ancilla, state.shape.modes, state.shape.ancillas)
    return _measure(state, f"{basis}_{ancilla}", kernel)


def sample_measurement_index(
    index: int,
    shape: RegisterShape,
    mode: int,
    kind: DisturbanceKind,
    coin: int,
) -> tuple[int, int]:
    """Coin-explicit single-run occupation measurement on a packed state.

    ``coin`` selects the disturbance function: identity/flip for
    nondestructive, reset-to-0/reset-to-1 for destructive.
    """
    destructive = kind is DisturbanceKind.DESTRUCTIVE
    read, keep, flip = measurement_kernel("N", mode, shape.modes, shape.ancillas, destructive)
    return (index >> read) & 1, (index & keep) ^ (coin << flip)
