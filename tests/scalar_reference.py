"""One state at a time: the scalar forms the tests check the engines against.

The engines work on packed supports and on columns of shots.  Here one
physical state is a record of bits (``PhysicalState``, read per mode as
``ModeState`` and per ancilla as ``AncillaState``).  These helpers
apply one gate to one ``PhysicalState``, one measurement step to one packed
state with an explicit coin, count one functional's values over a support,
name the parity of two modes' bits, snap a float probability to a dyadic
``Fraction``, and walk a program's branches with weights of any number type
(``joint``).  Each reads the engines' own tables (the gates' local rules and
the measurement kernel), so a test compares a scalar path with a bulk one,
not two copies of a rule.

The rest is the calculus the engines never call: binary linear functionals
and conditioning on one, randomizing a bit, products of registers, a lone
ancilla's preparation, and the splitter's raw algebra (its update on every
input, in two coordinate forms), which the gate restricts to one occupied
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from toyfield.circuits import GateStep, MeasureStep
from toyfield.phase_space import EpistemicState, RegisterShape, unpack_bits
from toyfield.toy_dynamics import (
    Beamsplitter,
    Cnot,
    PhaseShift,
    SwapModes,
    ToyGate,
    apply_gate_index,
)
from toyfield.toy_measurement import DisturbanceKind, measurement_kernel


@dataclass(frozen=True)
class ModeState:
    """One mode's ontic state: occupation bit and phase bit."""

    n: int
    phi: int

    def __post_init__(self) -> None:
        if self.n not in (0, 1) or self.phi not in (0, 1):
            raise ValueError("mode bits must be 0 or 1")


@dataclass(frozen=True)
class AncillaState:
    """One ancilla's ontic state: coordinate bit q and momentum bit p.

    The labeled forms a0/a1 (for q) and a+/a- (for p) are relabelings of
    0/1.
    """

    q: int
    p: int

    def __post_init__(self) -> None:
        if self.q not in (0, 1) or self.p not in (0, 1):
            raise ValueError("ancilla bits must be 0 or 1")


@dataclass(frozen=True)
class PhysicalState:
    """A complete bit assignment for a register.

    ``bits`` is in register order: (N_0, Phi_0, N_1, Phi_1, ..., q_0, p_0,
    ...).
    """

    bits: tuple[int, ...]
    shape: RegisterShape

    def __post_init__(self) -> None:
        if len(self.bits) != self.shape.bit_count:
            raise ValueError(
                f"expected {self.shape.bit_count} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def mode(self, i: int) -> ModeState:
        n_slot = self.shape.occupation_slot(i)
        return ModeState(self.bits[n_slot], self.bits[n_slot + 1])

    def ancilla(self, j: int) -> AncillaState:
        q_slot = self.shape.coordinate_slot(j)
        return AncillaState(self.bits[q_slot], self.bits[q_slot + 1])

    def index(self) -> int:
        """Little-endian packed integer; the canonical enumeration index."""
        return sum(b << k for k, b in enumerate(self.bits))

    @classmethod
    def from_index(cls, index: int, shape: RegisterShape) -> "PhysicalState":
        return cls(unpack_bits(index, shape.bit_count), shape)


def apply_gate(gate: ToyGate, state: PhysicalState) -> PhysicalState:
    new_index = apply_gate_index(gate, state.index(), state.shape)
    return PhysicalState.from_index(new_index, state.shape)


def apply_beamsplitter(state: PhysicalState, a: int, b: int) -> PhysicalState:
    """Beamsplitter between modes a and b; a plays the exchanged role."""
    return apply_gate(Beamsplitter(a, b), state)


def apply_phase_shift(state: PhysicalState, mode: int, s: int) -> PhysicalState:
    """Flip the mode's phase bit when s = 1; occupation is untouched."""
    return apply_gate(PhaseShift(mode, s), state)


def apply_cnot(state: PhysicalState, control: int, ancilla: int) -> PhysicalState:
    """Record the control's occupation in q; back-action shifts Phi by p."""
    return apply_gate(Cnot(control, ancilla), state)


def apply_swap(state: PhysicalState, a: int, b: int) -> PhysicalState:
    return apply_gate(SwapModes(a, b), state)


def delta_occupation(shape: RegisterShape, a: int, b: int) -> Functional:
    return Functional(
        (1 << shape.occupation_slot(a)) | (1 << shape.occupation_slot(b)),
        f"N_{a}^N_{b}",
    )


def delta_phase(shape: RegisterShape, a: int, b: int) -> Functional:
    return Functional(
        (1 << shape.phase_slot(a)) | (1 << shape.phase_slot(b)),
        f"Phi_{a}^Phi_{b}",
    )


def outcome_distribution(
    state: EpistemicState, variable: Functional
) -> list[tuple[int, Fraction]]:
    """Probability of each value: the fraction of the support attaining it."""
    total = len(state.support)
    ones = sum(1 for x in state.support if ((x & variable.mask).bit_count() & 1))
    return [(0, Fraction(total - ones, total)), (1, Fraction(ones, total))]


def snap_dyadic(p: float, tol: float = 1e-9, denominator: int = 64) -> Fraction:
    """Snap a float probability to the nearest multiple of ``1/denominator``.

    For float results, such as ``quantum.measure_subsystem``'s Born
    probabilities, checked against dyadic ones; a float farther than ``tol``
    from such a multiple is an error.  Program runs need no snapping:
    ``circuits.run_quantum_exact`` computes every weight exactly, at any
    denominator.
    """
    candidate = Fraction(round(p * denominator), denominator)
    if abs(p - float(candidate)) > tol:
        raise ValueError(f"probability {p} is not dyadic within {tol}")
    return candidate


def step_run_index(state: int, shape: RegisterShape, step: MeasureStep, coin: int):
    """Apply one measurement step to a packed state with an explicit coin:
    ``(value, state after)`` under the step's measurement kernel."""
    read, keep, flip = measurement_kernel(
        step.variable,
        step.index,
        shape.modes,
        shape.ancillas,
        step.kind is DisturbanceKind.DESTRUCTIVE,
    )
    return (state >> read) & 1, (state & keep) ^ (coin << flip)


def joint(start, steps, apply, measure) -> dict:
    """Total weight per label assignment of a branch walk whose weights
    multiply with ``*``: ``Fraction`` stays exact and ``float`` stays float.

    The engines' walk, ``circuits.branches``, carries reduced int pairs; this
    one takes ``start`` (a list of ``(weight, state, events)`` branches) and
    ``measure``'s ``(value, probability, posterior)`` outcomes in any number
    type.  An assignment is a branch's events sorted, so in label order."""
    current = start
    for step in steps:
        if isinstance(step, GateStep):
            current = [(w, apply(state, step.gate), events) for w, state, events in current]
        else:
            current = [(w * p, posterior, (*events, (step.label, value)))
                       for w, state, events in current
                       for value, p, posterior in measure(state, step)]
    totals: dict = {}
    for w, _, events in current:
        key = tuple(sorted(events))
        totals[key] = totals[key] + w if key in totals else w
    return totals


# ---------------------------------------------------------------------------
# The epistemic-state calculus beyond what the engines run


class ImpossibleOutcome(ValueError):
    """Raised when conditioning on an event of probability zero."""


@dataclass(frozen=True)
class Functional:
    """A binary linear functional on the register bits, f(x) = parity(mask & x)."""

    mask: int
    label: str = ""


def occupation(shape: RegisterShape, mode: int) -> Functional:
    return Functional(1 << shape.occupation_slot(mode), f"N_{mode}")


def phase(shape: RegisterShape, mode: int) -> Functional:
    return Functional(1 << shape.phase_slot(mode), f"Phi_{mode}")


def coordinate(shape: RegisterShape, ancilla: int) -> Functional:
    return Functional(1 << shape.coordinate_slot(ancilla), f"Q_{ancilla}")


def momentum(shape: RegisterShape, ancilla: int) -> Functional:
    return Functional(1 << shape.momentum_slot(ancilla), f"P_{ancilla}")


def make_ancilla(q: int = 0) -> EpistemicState:
    """A single ancilla with its coordinate bit known and momentum uniform."""
    if q not in (0, 1):
        raise ValueError("q must be 0 or 1")
    shape = RegisterShape(0, 1)
    return EpistemicState(shape, frozenset({q, q | 2}))


def condition(state: EpistemicState, variable: Functional, value: int) -> EpistemicState:
    """Restrict the support to states where the functional takes the value."""
    if value not in (0, 1):
        raise ValueError("value must be a bit")
    kept = frozenset(
        x for x in state.support if ((x & variable.mask).bit_count() & 1) == value
    )
    if not kept:
        label = variable.label or f"mask {variable.mask:#x}"
        raise ImpossibleOutcome(f"impossible outcome: {label} = {value}")
    return EpistemicState(state.shape, kept)


def randomize(state: EpistemicState, slot: int) -> EpistemicState:
    """Union the support with its image under flipping one bit slot."""
    if not 0 <= slot < state.shape.bit_count:
        raise IndexError(f"bit slot {slot} out of range")
    flip = 1 << slot
    return EpistemicState(state.shape, state.support | {x ^ flip for x in state.support})


def product(a: EpistemicState, b: EpistemicState) -> EpistemicState:
    """Cartesian-product support; mode and ancilla counts concatenate."""
    shape = RegisterShape(a.shape.modes + b.shape.modes, a.shape.ancillas + b.shape.ancillas)

    def relocate(x: int, src: RegisterShape, mode_off: int, anc_off: int) -> int:
        y = 0
        for m in range(src.modes):
            y |= ((x >> src.occupation_slot(m)) & 1) << shape.occupation_slot(mode_off + m)
            y |= ((x >> src.phase_slot(m)) & 1) << shape.phase_slot(mode_off + m)
        for j in range(src.ancillas):
            y |= ((x >> src.coordinate_slot(j)) & 1) << shape.coordinate_slot(anc_off + j)
            y |= ((x >> src.momentum_slot(j)) & 1) << shape.momentum_slot(anc_off + j)
        return y

    support = frozenset(
        relocate(x, a.shape, 0, 0) | relocate(y, b.shape, a.shape.modes, a.shape.ancillas)
        for x in a.support
        for y in b.support
    )
    return EpistemicState(shape, support)


def beamsplitter_formula(n_a: int, phi_a: int, n_b: int, phi_b: int) -> tuple[int, int, int, int]:
    """The raw interferometric update on one pair of modes (the gate,
    ``toy_dynamics.beamsplitter_rule``, applies it only where exactly one
    input is occupied)."""
    return (
        phi_a ^ phi_b,
        n_a ^ phi_b,
        n_a ^ n_b ^ phi_a ^ phi_b,
        phi_b,
    )


def beamsplitter_swap_rule(n_a: int, phi_a: int, n_b: int, phi_b: int) -> tuple[int, int, int, int]:
    """Same map in (N_a, dN, dPhi, Phi_b) coordinates: swap N_a with dPhi."""
    d_n = n_a ^ n_b
    d_phi = phi_a ^ phi_b
    n_a_out = d_phi
    d_phi_out = n_a
    n_b_out = n_a_out ^ d_n
    phi_a_out = d_phi_out ^ phi_b
    return (n_a_out, phi_a_out, n_b_out, phi_b)
