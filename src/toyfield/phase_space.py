"""Discrete binary phase space and the epistemic-state calculus.

A register holds some number of field modes and auxiliary (ancilla) systems.
Each mode carries one occupation bit N and one phase bit Phi; each ancilla
carries one coordinate bit q and one momentum bit p.  A physical state is a
complete assignment of these bits.  A state of knowledge (epistemic state) is
a flat probability distribution over a support set of physical states.

The knowledge restriction: the binary linear functionals that are constant on
the support must form an isotropic set under the symplectic pairing that
pairs each occupation/coordinate bit with its own phase/momentum bit.  For a
single mode this reduces to "at most one of N, Phi, N xor Phi can be known".

Physical states are packed little-endian into integers (bit 2k = subsystem
k's occupation/coordinate bit, bit 2k+1 = its phase/momentum bit, modes
before ancillas), which is also the canonical index used in golden files.
All probabilities are exact dyadic rationals; no floating point enters here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

__all__ = [
    "AncillaState",
    "EpistemicState",
    "Functional",
    "ImpossibleOutcome",
    "ModeState",
    "PhysicalState",
    "RegisterShape",
    "ValidityReport",
    "condition",
    "enumerate_valid_states",
    "is_valid",
    "make_ancilla",
    "make_occupied",
    "make_vacuum",
    "marginal",
    "product",
    "randomize",
]


class ImpossibleOutcome(ValueError):
    """Raised when conditioning on an event of probability zero."""


@dataclass(frozen=True)
class RegisterShape:
    """Number of modes and ancillas in a register; fixes the bit layout."""

    modes: int
    ancillas: int = 0

    def __post_init__(self) -> None:
        if self.modes < 0 or self.ancillas < 0:
            raise ValueError("register shape must be non-negative")
        if self.modes + self.ancillas == 0:
            raise ValueError("register must hold at least one subsystem")

    @property
    def subsystems(self) -> int:
        return self.modes + self.ancillas

    @property
    def bit_count(self) -> int:
        return 2 * self.subsystems

    @property
    def point_count(self) -> int:
        return 1 << self.bit_count

    def occupation_slot(self, mode: int) -> int:
        self._check_mode(mode)
        return 2 * mode

    def phase_slot(self, mode: int) -> int:
        self._check_mode(mode)
        return 2 * mode + 1

    def coordinate_slot(self, ancilla: int) -> int:
        self._check_ancilla(ancilla)
        return 2 * (self.modes + ancilla)

    def momentum_slot(self, ancilla: int) -> int:
        self._check_ancilla(ancilla)
        return 2 * (self.modes + ancilla) + 1

    def subsystem_slots(self, subsystem: int) -> tuple[int, int]:
        if not 0 <= subsystem < self.subsystems:
            raise IndexError(f"subsystem index {subsystem} out of range")
        return 2 * subsystem, 2 * subsystem + 1

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.modes:
            raise IndexError(f"mode index {mode} out of range for {self}")

    def _check_ancilla(self, ancilla: int) -> None:
        if not 0 <= ancilla < self.ancillas:
            raise IndexError(f"ancilla index {ancilla} out of range for {self}")


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
        return pack_bits(self.bits)

    @classmethod
    def from_index(cls, index: int, shape: RegisterShape) -> "PhysicalState":
        return cls(unpack_bits(index, shape.bit_count), shape)

    @classmethod
    def from_modes(
        cls,
        modes: Sequence[ModeState],
        ancillas: Sequence[AncillaState] = (),
    ) -> "PhysicalState":
        shape = RegisterShape(len(modes), len(ancillas))
        bits: list[int] = []
        for m in modes:
            bits.extend((m.n, m.phi))
        for a in ancillas:
            bits.extend((a.q, a.p))
        return cls(tuple(bits), shape)


def pack_bits(bits: Sequence[int]) -> int:
    value = 0
    for k, b in enumerate(bits):
        value |= (b & 1) << k
    return value


def unpack_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> k) & 1 for k in range(width))


@dataclass(frozen=True)
class Functional:
    """A binary linear functional on the register bits, f(x) = parity(mask & x)."""

    mask: int
    label: str = ""

    def evaluate_index(self, index: int) -> int:
        return (index & self.mask).bit_count() & 1

    def evaluate(self, state: PhysicalState) -> int:
        return self.evaluate_index(state.index())

    def __xor__(self, other: "Functional") -> "Functional":
        label = f"{self.label}^{other.label}" if self.label and other.label else ""
        return Functional(self.mask ^ other.mask, label)


def occupation(shape: RegisterShape, mode: int) -> Functional:
    return Functional(1 << shape.occupation_slot(mode), f"N_{mode}")


def phase(shape: RegisterShape, mode: int) -> Functional:
    return Functional(1 << shape.phase_slot(mode), f"Phi_{mode}")


def coordinate(shape: RegisterShape, ancilla: int) -> Functional:
    return Functional(1 << shape.coordinate_slot(ancilla), f"Q_{ancilla}")


def momentum(shape: RegisterShape, ancilla: int) -> Functional:
    return Functional(1 << shape.momentum_slot(ancilla), f"P_{ancilla}")


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


@dataclass(frozen=True)
class EpistemicState:
    """A flat probability distribution over a support of physical states.

    The support is stored as packed-state integers.  Every supported state
    has probability ``1/len(support)``; validity against the knowledge
    restriction is checked by :func:`is_valid`, never silently repaired.
    """

    shape: RegisterShape
    support: frozenset[int]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be non-empty")
        limit = self.shape.point_count
        if any(not 0 <= x < limit for x in self.support):
            raise ValueError("support index out of range for register shape")

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def probability(self) -> Fraction:
        """Weight of each supported physical state."""
        return Fraction(1, len(self.support))

    def states(self) -> Iterator[PhysicalState]:
        for index in sorted(self.support):
            yield PhysicalState.from_index(index, self.shape)

    def support_bits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            sorted(unpack_bits(x, self.shape.bit_count) for x in self.support)
        )

    def contains(self, state: PhysicalState) -> bool:
        return state.index() in self.support

    def render(self) -> str:
        """Canonical textual form, e.g. ``{(1,0,0,0),(1,0,0,1)}``."""
        cells = ",".join(
            "(" + ",".join(str(b) for b in bits) + ")" for bits in self.support_bits()
        )
        return "{" + cells + "}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def _difference_basis(support: frozenset[int]) -> list[int] | None:
    """Basis of the difference space if the support is an affine subspace.

    Returns None when the support is not closed under x ^ y ^ z.
    """
    base = next(iter(support))
    rows: dict[int, int] = {}
    for x in support:
        v = x ^ base
        while v:
            lead = v.bit_length() - 1
            if lead in rows:
                v ^= rows[lead]
            else:
                rows[lead] = v
                break
    basis = list(rows.values())
    if len(support) != (1 << len(basis)):
        return None
    span = {0}
    for b in basis:
        span |= {s ^ b for s in span}
    if {base ^ s for s in span} != set(support):
        return None
    return basis


_EVEN_BITS = 0x5555555555555555


def _symplectic_product(f: int, g: int, subsystems: int) -> int:
    """Pairing that couples bit 2k with bit 2k+1, mod 2."""
    a = (((f & _EVEN_BITS) << 1) & g).bit_count()
    b = (((g & _EVEN_BITS) << 1) & f).bit_count()
    return (a ^ b) & 1


def _annihilator_basis(basis: list[int], dim: int) -> list[int]:
    """Basis of {f : parity(f & b) = 0 for every b}, by Gauss-Jordan."""
    rows = list(basis)
    # Full reduction: each pivot bit appears in exactly one row.
    pivots: list[int] = []
    reduced: list[int] = []
    for row in rows:
        for p, r in zip(pivots, reduced):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = row.bit_length() - 1
        reduced = [r ^ row if (r >> p) & 1 else r for r in reduced]
        pivots.append(p)
        reduced.append(row)
    pivot_set = set(pivots)
    out: list[int] = []
    for j in range(dim):
        if j in pivot_set:
            continue
        f = 1 << j
        for p, r in zip(pivots, reduced):
            if (r >> j) & 1:
                f |= 1 << p
        out.append(f)
    return out


def is_valid(state: EpistemicState) -> ValidityReport:
    """Check the four epistemic-state invariants; report the first violated.

    The invariants: non-empty support (enforced at construction), flatness
    (by representation), affine-subspace support, and isotropy of the known
    functionals.  Isotropy implies the dimension bound on the known set, so
    it is not checked separately.
    """
    basis = _difference_basis(state.support)
    if basis is None:
        return ValidityReport(False, "not an affine subspace")
    n = state.shape.subsystems
    # The known set is the annihilator of the difference space; the pairing
    # is bilinear, so isotropy of the span follows from basis pairs.
    annihilator = _annihilator_basis(basis, state.shape.bit_count)
    for f, g in combinations(annihilator, 2):
        if _symplectic_product(f, g, n):
            return ValidityReport(False, "isotropy violated")
    return ValidityReport(True)


def make_occupied(mode_count: int, occupied_index: int) -> EpistemicState:
    """Knowledge state: N fixed to 1 on one mode, 0 elsewhere, phases uniform."""
    shape = RegisterShape(mode_count)
    if not 0 <= occupied_index < mode_count:
        raise IndexError(f"occupied mode {occupied_index} out of range")
    support = set()
    for phases in range(1 << mode_count):
        index = 1 << shape.occupation_slot(occupied_index)
        for m in range(mode_count):
            index |= ((phases >> m) & 1) << shape.phase_slot(m)
        support.add(index)
    return EpistemicState(shape, frozenset(support))


def make_vacuum(mode_count: int) -> EpistemicState:
    """Knowledge state: every mode unoccupied surely, all phases uniform."""
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    shape = RegisterShape(mode_count)
    support = set()
    for phases in range(1 << mode_count):
        index = 0
        for m in range(mode_count):
            index |= ((phases >> m) & 1) << shape.phase_slot(m)
        support.add(index)
    return EpistemicState(shape, frozenset(support))


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


def _gather_slots(
    shape: RegisterShape, modes: Sequence[int], ancillas: Sequence[int]
) -> list[int]:
    slots: list[int] = []
    for m in modes:
        slots.append(shape.occupation_slot(m))
        slots.append(shape.phase_slot(m))
    for a in ancillas:
        slots.append(shape.coordinate_slot(a))
        slots.append(shape.momentum_slot(a))
    return slots


def marginal(
    state: EpistemicState,
    modes: Sequence[int] = (),
    ancillas: Sequence[int] = (),
) -> EpistemicState:
    """Project the support onto the selected subsystems, flat on the image."""
    if not modes and not ancillas:
        raise ValueError("selection must be non-empty")
    if len(set(modes)) != len(modes) or len(set(ancillas)) != len(ancillas):
        raise ValueError("selection must not repeat subsystems")
    slots = _gather_slots(state.shape, modes, ancillas)
    new_shape = RegisterShape(len(modes), len(ancillas))
    projected = set()
    for x in state.support:
        y = 0
        for k, slot in enumerate(slots):
            y |= ((x >> slot) & 1) << k
        projected.add(y)
    return EpistemicState(new_shape, frozenset(projected))


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


def _isotropic_subspaces(subsystems: int) -> list[list[int]]:
    """All isotropic subspaces of the 2n-bit symplectic space, as bases."""
    dim = 2 * subsystems
    vectors = range(1, 1 << dim)
    found: dict[frozenset[int], list[int]] = {frozenset({0}): []}
    frontier: list[tuple[frozenset[int], list[int]]] = [(frozenset({0}), [])]
    while frontier:
        next_frontier: list[tuple[frozenset[int], list[int]]] = []
        for span, basis in frontier:
            for v in vectors:
                if v in span:
                    continue
                if any(_symplectic_product(v, b, subsystems) for b in basis):
                    continue
                new_span = frozenset(span | {s ^ v for s in span})
                if new_span in found:
                    continue
                new_basis = basis + [v]
                found[new_span] = new_basis
                next_frontier.append((new_span, new_basis))
        frontier = next_frontier
    return list(found.values())


@lru_cache(maxsize=None)
def _valid_supports(bit_count: int, subsystems: int) -> tuple[frozenset[int], ...]:
    supports: list[frozenset[int]] = []
    for basis in _isotropic_subspaces(subsystems):
        k = len(basis)
        for values in range(1 << k):
            support = set(range(1 << bit_count))
            for i, mask in enumerate(basis):
                want = (values >> i) & 1
                support = {x for x in support if ((x & mask).bit_count() & 1) == want}
            supports.append(frozenset(support))
    return tuple(supports)


def enumerate_valid_states(shape: RegisterShape) -> list[EpistemicState]:
    """Every valid epistemic state on the register, by exhaustive construction.

    Intended for registers of at most 3 subsystems, where the catalog is
    small enough to serve as a brute-force oracle.
    """
    if shape.subsystems > 3:
        raise ValueError("valid-state enumeration supported up to 3 subsystems")
    return [
        EpistemicState(shape, support)
        for support in _valid_supports(shape.bit_count, shape.subsystems)
    ]
