"""Deterministic transformations on physical states and their push-forwards.

Gates are permutations of the register's physical-state space.  The
beamsplitter implements the interferometric update

    N_a' = Phi_a + Phi_b
    N_b' = N_a + N_b + Phi_a + Phi_b
    Phi_a' = N_a + Phi_b
    Phi_b' = Phi_b        (all mod 2)

which is the Swap Rule: exchange N_a with the relative phase Phi_a + Phi_b,
keeping N_a + N_b and Phi_b fixed.  Argument order matters: the first mode
plays the role whose phase is exchanged, the second mode's phase passes
through unchanged.

The update above mixes occupation into phase and is stated for interacting
excitations; a splitter with no excitation present in either input is a
passive element and leaves both modes untouched.  The gate therefore applies
the formula only when exactly one input is occupied (N_a + N_b = 1) and acts
as the identity otherwise.  Without this, a pair of unoccupied inputs with
odd relative phase would be mapped to a doubly occupied pair, producing
detector clicks out of vacuum in the bomb-tester and removed-mirror
arrangements.  The raw formula is kept as :func:`beamsplitter_formula` for
the algebraic identities it satisfies on all sixteen two-mode states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from toyfield.phase_space import (
    EpistemicState,
    PhysicalState,
    RegisterShape,
)

__all__ = [
    "Beamsplitter",
    "Cnot",
    "Identity",
    "PhaseShift",
    "SwapModes",
    "ToyGate",
    "apply_beamsplitter",
    "apply_cnot",
    "apply_gate",
    "apply_phase_shift",
    "apply_swap",
    "beamsplitter_formula",
    "beamsplitter_swap_rule",
    "gate_image",
    "gate_table",
    "push_forward",
]


@dataclass(frozen=True)
class Beamsplitter:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("beamsplitter needs two distinct modes")


@dataclass(frozen=True)
class PhaseShift:
    mode: int
    s: int

    def __post_init__(self) -> None:
        if self.s not in (0, 1):
            raise ValueError("phase shift bit must be 0 or 1")


@dataclass(frozen=True)
class Cnot:
    control: int
    ancilla: int


@dataclass(frozen=True)
class SwapModes:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("swap needs two distinct modes")


@dataclass(frozen=True)
class Identity:
    pass


ToyGate = Union[Beamsplitter, PhaseShift, Cnot, SwapModes, Identity]


def beamsplitter_formula(n_a: int, phi_a: int, n_b: int, phi_b: int) -> tuple[int, int, int, int]:
    """The raw interferometric update on one pair of modes."""
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


def _mode_bits(index: int, shape: RegisterShape, mode: int) -> tuple[int, int]:
    n_slot = shape.occupation_slot(mode)
    return (index >> n_slot) & 1, (index >> (n_slot + 1)) & 1


def _set_mode_bits(index: int, shape: RegisterShape, mode: int, n: int, phi: int) -> int:
    n_slot = shape.occupation_slot(mode)
    index &= ~(0b11 << n_slot)
    return index | (n << n_slot) | (phi << (n_slot + 1))


def _apply_beamsplitter_index(index: int, shape: RegisterShape, a: int, b: int) -> int:
    n_a, phi_a = _mode_bits(index, shape, a)
    n_b, phi_b = _mode_bits(index, shape, b)
    if n_a ^ n_b == 0:
        return index
    n_a, phi_a, n_b, phi_b = beamsplitter_formula(n_a, phi_a, n_b, phi_b)
    index = _set_mode_bits(index, shape, a, n_a, phi_a)
    return _set_mode_bits(index, shape, b, n_b, phi_b)


def _apply_phase_shift_index(index: int, shape: RegisterShape, mode: int, s: int) -> int:
    return index ^ (s << shape.phase_slot(mode))


def _apply_cnot_index(index: int, shape: RegisterShape, control: int, ancilla: int) -> int:
    n, _ = _mode_bits(index, shape, control)
    p = (index >> shape.momentum_slot(ancilla)) & 1
    index ^= p << shape.phase_slot(control)
    index ^= n << shape.coordinate_slot(ancilla)
    return index


def _apply_swap_index(index: int, shape: RegisterShape, a: int, b: int) -> int:
    n_a, phi_a = _mode_bits(index, shape, a)
    n_b, phi_b = _mode_bits(index, shape, b)
    index = _set_mode_bits(index, shape, a, n_b, phi_b)
    return _set_mode_bits(index, shape, b, n_a, phi_a)


def apply_gate_index(gate: ToyGate, index: int, shape: RegisterShape) -> int:
    """Apply a gate to a packed physical-state index."""
    if isinstance(gate, Beamsplitter):
        return _apply_beamsplitter_index(index, shape, gate.a, gate.b)
    if isinstance(gate, PhaseShift):
        return _apply_phase_shift_index(index, shape, gate.mode, gate.s)
    if isinstance(gate, Cnot):
        return _apply_cnot_index(index, shape, gate.control, gate.ancilla)
    if isinstance(gate, SwapModes):
        return _apply_swap_index(index, shape, gate.a, gate.b)
    if isinstance(gate, Identity):
        return index
    raise TypeError(f"unknown gate {gate!r}")


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


def _touched_subsystems(gate: ToyGate, shape: RegisterShape) -> tuple[int, ...]:
    if isinstance(gate, (Beamsplitter, SwapModes)):
        return (gate.a, gate.b)
    if isinstance(gate, PhaseShift):
        return (gate.mode,)
    if isinstance(gate, Cnot):
        return (gate.control, shape.modes + gate.ancilla)
    if isinstance(gate, Identity):
        return ()
    raise TypeError(f"unknown gate {gate!r}")


@lru_cache(maxsize=None)
def _gate_kernel(gate: ToyGate, shape: RegisterShape) -> tuple[int, int, tuple[int, ...]]:
    """``(shift0, shift1, deltas)``: the gate maps ``x`` to
    ``x ^ deltas[(x >> shift0) & 3 | ((x >> shift1) & 3) << 2]``.

    The deltas are :func:`apply_gate_index` on the local bit patterns of the
    touched subsystems: 16 for two, 4 for one (its second shift repeats the
    first and its deltas repeat every 4 entries), 1 for none.  Raises
    ``ValueError`` unless they permute the patterns and write only the
    touched bits, which makes the gate a permutation of the whole register.
    """
    shifts = [shape.subsystem_slots(s)[0] for s in _touched_subsystems(gate, shape)]
    points = [0]  # local pattern i at index i: first subsystem in the low bits
    for shift in shifts:
        points = [x | (bits << shift) for bits in range(4) for x in points]
    images = [apply_gate_index(gate, x, shape) for x in points]
    inside = sum(0b11 << shift for shift in shifts)
    if len(set(images)) != len(points) or any(y & ~inside for y in images):
        raise ValueError(f"gate {gate!r} is not a bijection on {shape}")
    deltas = [x ^ y for x, y in zip(points, images)]
    shift0, shift1 = (shifts * 2)[:2] if shifts else (0, 0)
    return shift0, shift1, tuple(deltas * (16 // len(deltas)))


class _LazyImage(dict):
    """A gate's permutation of one register, filled in as points are asked for."""

    __slots__ = ("_shift0", "_shift1", "_deltas")

    def __init__(self, shift0: int, shift1: int, deltas: tuple[int, ...]) -> None:
        super().__init__()
        self._shift0, self._shift1, self._deltas = shift0, shift1, deltas

    def __missing__(self, x: int) -> int:
        y = x ^ self._deltas[(x >> self._shift0) & 3 | ((x >> self._shift1) & 3) << 2]
        self[x] = y
        return y


@lru_cache(maxsize=None)
def _lazy_image(gate: ToyGate, shape: RegisterShape) -> _LazyImage:
    return _LazyImage(*_gate_kernel(gate, shape))


# Up to three subsystems (64 points, the quantum engine's cap) a full table
# is about as cheap to build as one push-forward's visits, and indexing a
# tuple beats the lazy image's dict lookup; beyond that the table grows 4x
# per subsystem while a state's support need not.
_FULL_TABLE_POINTS = 64


def gate_image(gate: ToyGate, shape: RegisterShape) -> tuple[int, ...] | dict[int, int]:
    """Point -> image under the gate, checked to be a permutation.

    On registers of at most three subsystems this is :func:`gate_table`;
    on larger ones it is filled from the gate's kernel only at the points
    asked for, so no 4^n table is built.
    """
    if shape.point_count <= _FULL_TABLE_POINTS:
        return gate_table(gate, shape)
    return _lazy_image(gate, shape)


@lru_cache(maxsize=None)
def gate_table(gate: ToyGate, shape: RegisterShape) -> tuple[int, ...]:
    """Permutation table of the gate on the whole register: 4^n entries.

    Each gate reads and writes only the bits of the one or two subsystems it
    touches (a splitter or swap its two modes, a phase shift its mode, a
    marker its mode and ancilla), so at most 16 local patterns fix its action
    everywhere.  The table is built from that kernel, whose local check
    already proves the map a permutation, and is checked once more in full.
    Push-forwards and the run enumeration on more than three subsystems go
    through :func:`gate_image` and never build it, and Monte Carlo applies
    the kernel itself to whole columns of shots.
    """
    shift0, shift1, deltas = _gate_kernel(gate, shape)
    table = tuple([
        x ^ deltas[(x >> shift0) & 3 | ((x >> shift1) & 3) << 2]
        for x in range(shape.point_count)
    ])
    if len(set(table)) != shape.point_count:
        raise ValueError(f"gate {gate!r} is not a bijection on {shape}")
    return table


def push_forward(state: EpistemicState, gate: ToyGate) -> EpistemicState:
    """Image of the support under the gate permutation; stays flat."""
    image = gate_image(gate, state.shape)
    return EpistemicState(state.shape, frozenset(image[x] for x in state.support))
