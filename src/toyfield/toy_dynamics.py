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
arrangements.  :func:`beamsplitter_rule` is the one copy of this condition;
the wire automaton's splitter calls it too.  The raw formula and its
swap-rule form, with the identities they satisfy on all sixteen two-mode
states, are the tests' scalar reference (``tests/scalar_reference.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Union

from toyfield._record import record
from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    shared_state,
)

__all__ = [
    "Beamsplitter",
    "Cnot",
    "Identity",
    "PhaseShift",
    "SwapModes",
    "ToyGate",
    "beamsplitter_rule",
    "gate_table",
    "kernel_forward",
    "push_forward",
]


@record
class Beamsplitter:
    """The splitter on modes ``a`` and ``b``; ``a`` plays the exchanged role."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("beamsplitter needs two distinct modes")


@record
class PhaseShift:
    """Flip the mode's phase bit when ``s`` is 1."""

    mode: int
    s: int

    def __post_init__(self) -> None:
        if self.s not in (0, 1):
            raise ValueError("phase shift bit must be 0 or 1")


@record
class Cnot:
    """Copy the control mode's occupation into the ancilla's coordinate bit."""

    control: int
    ancilla: int


@record
class SwapModes:
    """Exchange the two bits of mode ``a`` with those of mode ``b``."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("swap needs two distinct modes")


@record
class Identity:
    """The gate that changes nothing."""


ToyGate = Union[Beamsplitter, PhaseShift, Cnot, SwapModes, Identity]


def beamsplitter_rule(n_a, phi_a, n_b, phi_b):
    """The splitter gate: the interferometric update of the module docstring
    where exactly one input is occupied, the identity elsewhere.

    The formula flips N_a, Phi_a and N_b together, by N_a + Phi_a + Phi_b,
    so the gate is that flip gated by N_a + N_b.  Branch-free: the bits are
    ints or equal-length uint8 columns.
    """
    flip = (n_a ^ n_b) & (n_a ^ phi_a ^ phi_b)
    return n_a ^ flip, phi_a ^ flip, n_b ^ flip, phi_b


def _local_rule(gate: ToyGate, shape: RegisterShape) -> tuple[tuple[int, ...], Callable]:
    """``(slots, rule)``: the bit slots the gate reads and writes, and its map
    from their bits to their new bits, in slot order.

    Raises ``IndexError`` for a mode or ancilla outside the register.
    """
    def mode_slots(*modes: int) -> tuple[int, ...]:
        return tuple(s for m in modes for s in (shape.occupation_slot(m), shape.phase_slot(m)))

    if isinstance(gate, Beamsplitter):
        return mode_slots(gate.a, gate.b), beamsplitter_rule
    if isinstance(gate, SwapModes):
        return mode_slots(gate.a, gate.b), lambda n_a, phi_a, n_b, phi_b: (n_b, phi_b, n_a, phi_a)
    if isinstance(gate, PhaseShift):
        return (shape.phase_slot(gate.mode),), lambda phi: (phi ^ gate.s,)
    if isinstance(gate, Cnot):
        ancilla = (shape.coordinate_slot(gate.ancilla), shape.momentum_slot(gate.ancilla))
        # the marker copies N into q; its back-action shifts Phi by p
        return mode_slots(gate.control) + ancilla, lambda n, phi, q, p: (n, phi ^ p, q ^ n, p)
    if isinstance(gate, Identity):
        return (), lambda: ()
    raise TypeError(f"unknown gate {gate!r}")


def apply_gate_index(gate: ToyGate, index: int, shape: RegisterShape) -> int:
    """Apply a gate to a packed physical-state index."""
    slots, rule = _local_rule(gate, shape)
    for slot, bit in zip(slots, rule(*((index >> slot) & 1 for slot in slots))):
        index = (index & ~(1 << slot)) | (bit << slot)
    return index


@lru_cache(maxsize=None, typed=True)  # typed, as gates of two classes can hash alike
def _gate_kernel(gate: ToyGate, shape: RegisterShape) -> tuple[int, int, tuple[int, ...]]:
    """``(shift0, shift1, deltas)``: the gate maps ``x`` to
    ``x ^ deltas[(x >> shift0) & 3 | ((x >> shift1) & 3) << 2]``.

    The deltas are :func:`apply_gate_index` on the local bit patterns of the
    touched subsystems: 16 for two, 4 for one (its second shift repeats the
    first and its deltas repeat every 4 entries), 1 for none.  Raises
    ``ValueError`` unless they permute the patterns and write only the
    touched bits, which makes the gate a permutation of the whole register.
    """
    slots, _ = _local_rule(gate, shape)
    shifts = list(dict.fromkeys(slot & ~1 for slot in slots))  # touched subsystems' first bits
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


def _kernel_images(gate: ToyGate, shape: RegisterShape, points) -> list[int]:
    """The images of ``points`` under the gate, read off its kernel."""
    shift0, shift1, deltas = _gate_kernel(gate, shape)
    return [x ^ deltas[(x >> shift0) & 3 | ((x >> shift1) & 3) << 2] for x in points]


@lru_cache(maxsize=None, typed=True)  # typed, as for _gate_kernel
def gate_table(gate: ToyGate, shape: RegisterShape) -> tuple[int, ...]:
    """Permutation table of the gate on the whole register: 4^n entries.

    Each gate reads and writes only the bits of the one or two subsystems it
    touches (a splitter or swap its two modes, a phase shift its mode, a
    marker its mode and ancilla), so at most 16 local patterns fix its action
    everywhere.  The table is that kernel's image of every point; the
    kernel's local check already proves the map a permutation, and the
    table is checked once more in full.  Above three subsystems
    :func:`kernel_forward` applies the kernel to the support and never
    builds it, and Monte Carlo applies the kernel to whole columns of shots.
    """
    table = tuple(_kernel_images(gate, shape, range(shape.point_count)))
    if len(set(table)) != shape.point_count:
        raise ValueError(f"gate {gate!r} is not a bijection on {shape}")
    return table


def push_forward(state: EpistemicState, gate: ToyGate) -> EpistemicState:
    """Image of the support under the gate permutation, read off :func:`gate_table`.

    Serves registers of at most ``SMALL_REGISTER_POINTS`` points (three
    subsystems), where a full table is about as cheap to build as one
    push-forward's visits; equal images are one object (``shared_state``)."""
    shape = state.shape
    table = gate_table(gate, shape)
    return shared_state(shape, frozenset(map(table.__getitem__, state.support)))


def kernel_forward(state: EpistemicState, gate: ToyGate) -> EpistemicState:
    """The push-forward above three subsystems, where a table grows 4x per subsystem
    while a support need not: the gate's kernel on the support, a new state."""
    return EpistemicState(state.shape, frozenset(_kernel_images(gate, state.shape, state.support)))
