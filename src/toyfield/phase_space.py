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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Sequence

from toyfield._record import record

__all__ = [
    "EpistemicState",
    "ONE",
    "RegisterShape",
    "ValidityReport",
    "enumerate_valid_states",
    "is_valid",
    "make_occupied",
    "make_vacuum",
    "marginal",
    "prepared",
    "shared_fraction",
    "shared_state",
]


# Registers of at most three subsystems (64 points, the quantum engine's cap)
# reach a small, finite set of states, so work on them is memoised: gate
# tables, measurement outcomes, preparations, and the states themselves
# (:func:`shared_state`).  Beyond that the point count grows 4x per subsystem,
# and nothing is kept: a plan picks its ops once (``circuits._compile_toy``).
SMALL_REGISTER_POINTS = 64


@record
class RegisterShape:
    """Number of modes and ancillas in a register; fixes the bit layout.

    Its ``point_count``, the 4^n packed states, is worked out once: memo lookups read it.
    """

    modes: int
    ancillas: int = 0

    def __post_init__(self) -> None:
        if self.modes < 0 or self.ancillas < 0:
            raise ValueError("register shape must be non-negative")
        if self.modes + self.ancillas == 0:
            raise ValueError("register must hold at least one subsystem")
        object.__setattr__(self, "point_count", 1 << 2 * (self.modes + self.ancillas))

    @property
    def subsystems(self) -> int:
        return self.modes + self.ancillas

    @property
    def bit_count(self) -> int:
        return 2 * self.subsystems

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

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.modes:
            raise IndexError(f"mode index {mode} out of range for {self}")

    def _check_ancilla(self, ancilla: int) -> None:
        if not 0 <= ancilla < self.ancillas:
            raise IndexError(f"ancilla index {ancilla} out of range for {self}")


def unpack_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> k) & 1 for k in range(width))


@record
class EpistemicState:
    """A flat probability distribution over a support of physical states.

    The support is stored as packed-state integers.  Every supported state
    has probability ``1/len(support)``; validity against the knowledge
    restriction is checked by :func:`is_valid`, never silently repaired.
    Its hash is the support's, which the frozenset keeps once computed.
    """

    shape: RegisterShape
    support: frozenset[int]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be non-empty")
        limit = self.shape.point_count
        if min(self.support) < 0 or max(self.support) >= limit:
            raise ValueError("support index out of range for register shape")

    def __hash__(self) -> int:
        return hash(self.support)

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def probability(self) -> Fraction:
        """Weight of each supported physical state."""
        return Fraction(1, len(self.support))

    def support_bits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            sorted(unpack_bits(x, self.shape.bit_count) for x in self.support)
        )

    def render(self) -> str:
        """Canonical textual form, e.g. ``{(1,0,0,0),(1,0,0,1)}``."""
        cells = ",".join(
            "(" + ",".join(str(b) for b in bits) + ")" for bits in self.support_bits()
        )
        return "{" + cells + "}"

    def __str__(self) -> str:
        return self.render()


@record
class ValidityReport:
    """Whether a state obeys the knowledge restriction, and the first violation if not."""

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


def _symplectic_product(f: int, g: int) -> int:
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
    # The known set is the annihilator of the difference space; the pairing
    # is bilinear, so isotropy of the span follows from basis pairs.
    annihilator = _annihilator_basis(basis, state.shape.bit_count)
    for f, g in combinations(annihilator, 2):
        if _symplectic_product(f, g):
            return ValidityReport(False, "isotropy violated")
    return ValidityReport(True)


def shared_state(shape: RegisterShape, support: frozenset[int]) -> EpistemicState:
    """``EpistemicState(shape, support)``, one object per value on registers
    of at most ``SMALL_REGISTER_POINTS`` points, so the memos keyed by states
    match their keys by identity; each is checked once, when first built.  A
    new object on larger registers, where nothing is kept."""
    if shape.point_count <= SMALL_REGISTER_POINTS:
        return _shared_state(shape, support)
    return EpistemicState(shape, support)


_shared_state = lru_cache(maxsize=4096)(EpistemicState)


# The weight of a branch no measurement has split, and the probability of a
# certain outcome, as a reduced ``(numerator, denominator)`` pair: the one
# object ``circuits.branches`` multiplies by nothing.
ONE = (1, 1)


@lru_cache(maxsize=1024)
def shared_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``, one object per value: both exact
    engines make their outcome weights here, so equal distributions compare
    by identity.  A bounded LRU keyed by the pair; an unreduced pair's entry
    holds its reduced pair's object, and a reduced one builds its
    ``Fraction`` once."""
    divisor = gcd(numerator, denominator)
    if divisor != 1:
        return shared_fraction(numerator // divisor, denominator // divisor)
    return Fraction(numerator, denominator)


def prepared(shape: RegisterShape, occupied: Sequence[int] = ()) -> EpistemicState:
    """Knowledge state: N fixed to 1 on the listed modes and to 0 on the
    others, every ancilla's q fixed to 0, every phase and momentum uniform.
    The state is :func:`shared_state`'s, so equal preparations are one object."""
    support = {0}
    for m in occupied:
        support = {x | (1 << shape.occupation_slot(m)) for x in support}
    for slot in range(1, shape.bit_count, 2):  # the phase and momentum bits
        support |= {x ^ (1 << slot) for x in support}
    return shared_state(shape, frozenset(support))


# The start of a plan on at most SMALL_REGISTER_POINTS points (``circuits._compile_toy``).
_prepared = lru_cache(maxsize=256)(prepared)


def make_occupied(mode_count: int, occupied_index: int) -> EpistemicState:
    """Knowledge state: N fixed to 1 on one mode, 0 elsewhere, phases uniform."""
    shape = RegisterShape(mode_count)
    if not 0 <= occupied_index < mode_count:
        raise IndexError(f"occupied mode {occupied_index} out of range")
    return prepared(shape, (occupied_index,))


def make_vacuum(mode_count: int) -> EpistemicState:
    """Knowledge state: every mode unoccupied surely, all phases uniform."""
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    return prepared(RegisterShape(mode_count))


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
    # the k-th selected subsystem's two bits move to slots 2k and 2k+1
    firsts = [state.shape.occupation_slot(m) for m in modes]
    firsts += [state.shape.coordinate_slot(a) for a in ancillas]
    projected = frozenset(sum(((x >> first) & 3) << 2 * k for k, first in enumerate(firsts))
                          for x in state.support)
    return EpistemicState(RegisterShape(len(modes), len(ancillas)), projected)


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
                if any(_symplectic_product(v, b) for b in basis):
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
