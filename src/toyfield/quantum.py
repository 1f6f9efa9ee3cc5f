"""State-vector engine for the quantum reference predictions.

Program runs go through the exact kernel at the end of this module
(``exact_start``, ``exact_gate``, ``exact_measure``, ``exact_weight``): the
program text reaches only the splitter's 1/sqrt(2), 0/pi phases and the P
basis, so every amplitude is (a + b sqrt(2)) / sqrt(2)^e with integers a, b
and one exponent e per branch, and every weight is computed exactly.  The
kernel reads the program's gates (``toy_dynamics.Beamsplitter`` and
the rest) directly, and a branch is a tuple of integer tuples from start to
weight.  The float API above it (``StateVector``, the unitaries,
``apply_gate``, ``measure_subsystem``) takes arbitrary angles and bases, and
serves as the reference the kernel is tested against.

Two descriptions are supported.  In the first-quantized description the
system is a single photon with a two-dimensional which-way degree of freedom
spanned by |L> and |R>.  In the second-quantized description the systems are
field modes, each with a two-dimensional occupation space spanned by |0> and
|1>, plus optional ancilla qubits.  Registers are ordered modes first, then
ancillas; basis index bit i is subsystem i's bit (little-endian).

Dimensions never exceed 8, so matrices are dense tuples and the arithmetic
is plain Python complex (the exact kernel: Python integers).  No numerical
library is involved: results are bit-for-bit deterministic across platforms.

The 50-50 splitter acts on the single-excitation block as

    |1>|0>  ->  (|0>|1> - |1>|0>) / sqrt(2)
    |0>|1>  ->  (|0>|1> + |1>|0>) / sqrt(2)

and as the identity on |0>|0> and |1>|1>: a passive element does nothing to
a pair of unoccupied (or doubly occupied) inputs.  This matches the
classical engine's treatment of the same situation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul
from typing import Callable, Sequence

from toyfield._record import record
from toyfield.phase_space import ONE, shared_fraction
from toyfield.toy_dynamics import Beamsplitter, Cnot, PhaseShift, SwapModes, ToyGate

__all__ = [
    "MeasurementBasis",
    "QuantumGate",
    "StateVector",
    "ANCILLA_P_BASIS",
    "ANCILLA_Q_BASIS",
    "OCCUPATION_BASIS",
    "WHICHWAY_BASIS",
    "apply_gate",
    "bs_unitary",
    "cnot_unitary",
    "exact_gate",
    "exact_measure",
    "exact_start",
    "exact_weight",
    "measure_subsystem",
    "phase_unitary",
    "reset_to_zero",
    "swap_unitary",
    "translate_1q_to_2q",
]

_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

Matrix = tuple[tuple[complex, ...], ...]


def _is_unitary(matrix: Matrix) -> bool:
    dim = len(matrix)
    for i in range(dim):
        for j in range(dim):
            acc = 0j
            for k in range(dim):
                acc += matrix[k][i].conjugate() * matrix[k][j]
            want = 1.0 if i == j else 0.0
            if abs(acc - want) > _TOL:
                return False
    return True


@record
class QuantumGate:
    """A dense unitary together with the number of qubits it acts on."""

    name: str
    matrix: Matrix

    def __post_init__(self) -> None:
        dim = len(self.matrix)
        if dim not in (2, 4) or any(len(row) != dim for row in self.matrix):
            raise ValueError("gate matrix must be 2x2 or 4x4")
        if not _is_unitary(self.matrix):
            raise ValueError(f"gate {self.name!r} is not unitary within 1e-12")

    @property
    def arity(self) -> int:
        return 1 if len(self.matrix) == 2 else 2


@record
class StateVector:
    """Amplitudes over the computational basis of a qubit register."""

    amps: tuple[complex, ...]

    def __post_init__(self) -> None:
        dim = len(self.amps)
        if dim not in (2, 4, 8):
            raise ValueError("supported dimensions are 2, 4 and 8")
        if abs(self.norm() - 1.0) > 1e-9:
            raise ValueError("state vector must be normalized")

    @property
    def dim(self) -> int:
        return len(self.amps)

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps))

    def probability(self, index: int) -> float:
        return abs(self.amps[index]) ** 2

    def canonicalized(self) -> "StateVector":
        """Fix the global phase: first nonzero amplitude real and positive."""
        for a in self.amps:
            if abs(a) > _TOL:
                factor = a.conjugate() / abs(a)
                return StateVector(tuple(x * factor for x in self.amps))
        return self


def basis_state(index: int, qubits: int) -> StateVector:
    amps = [0j] * (1 << qubits)
    amps[index] = 1.0 + 0j
    return StateVector(tuple(amps))


def states_close(a: StateVector, b: StateVector, tol: float = 1e-12) -> bool:
    """Equality up to a global phase."""
    if a.dim != b.dim:
        return False
    overlap = sum(x.conjugate() * y for x, y in zip(a.amps, b.amps))
    return abs(abs(overlap) - 1.0) <= tol


def bs_unitary(description: str = "second") -> QuantumGate:
    """The 50-50 splitter: a Hadamard-like self-inverse map.

    "first": acts on the photon qubit, |L> -> (|R> - |L>)/sqrt(2) and
    |R> -> (|R> + |L>)/sqrt(2), with basis order (|L>, |R>).
    "second": acts on a pair of mode qubits within the single-excitation
    block, identity outside it; basis order (|n_a n_b>) = 00, 10, 01, 11
    with bit 0 = mode a.
    """
    s = _INV_SQRT2
    if description == "first":
        matrix = (
            (-s + 0j, s + 0j),
            (s + 0j, s + 0j),
        )
        return QuantumGate("bs1q", matrix)
    if description == "second":
        # Index = n_a + 2 * n_b. |10> is index 1, |01> is index 2.
        matrix = (
            (1 + 0j, 0j, 0j, 0j),
            (0j, -s + 0j, s + 0j, 0j),
            (0j, s + 0j, s + 0j, 0j),
            (0j, 0j, 0j, 1 + 0j),
        )
        return QuantumGate("bs2q", matrix)
    raise ValueError(f"unknown description {description!r}")


def phase_unitary(phi: float, description: str = "second") -> QuantumGate:
    """Phase shift: |R> (or |1>) picks up e^{i phi}; the other state is fixed.

    Arbitrary angles are accepted here; the classical engine only has
    counterparts for phi in {0, pi}.
    """
    factor = cmath.exp(1j * phi)
    name = "phase1q" if description == "first" else "phase2q"
    if description not in ("first", "second"):
        raise ValueError(f"unknown description {description!r}")
    return QuantumGate(name, ((1 + 0j, 0j), (0j, factor)))


def cnot_unitary(description: str = "second") -> QuantumGate:
    """CNOT with the photon (|R>) or the mode occupation (|1>) as control.

    Basis order (control bit, target bit) with index = control + 2 * target.
    """
    if description not in ("first", "second"):
        raise ValueError(f"unknown description {description!r}")
    name = "cnot1q" if description == "first" else "cnot2q"
    matrix = (
        (1 + 0j, 0j, 0j, 0j),
        (0j, 0j, 0j, 1 + 0j),
        (0j, 0j, 1 + 0j, 0j),
        (0j, 1 + 0j, 0j, 0j),
    )
    return QuantumGate(name, matrix)


def swap_unitary() -> QuantumGate:
    matrix = (
        (1 + 0j, 0j, 0j, 0j),
        (0j, 0j, 1 + 0j, 0j),
        (0j, 1 + 0j, 0j, 0j),
        (0j, 0j, 0j, 1 + 0j),
    )
    return QuantumGate("swap", matrix)


def _apply(amps: Sequence[complex], matrix: Matrix, targets: Sequence[int]) -> list[complex]:
    """``matrix`` on the target qubits; the first target is the matrix's lowest bit."""
    # offsets[row]: the basis-index bits of the targets in matrix row ``row``
    offsets = [0]
    for target in targets:
        offsets += [offset | (1 << target) for offset in offsets]
    out = list(amps)
    for index in range(len(amps)):
        if index & offsets[-1]:
            continue
        block = [index | offset for offset in offsets]
        old = [amps[i] for i in block]
        for i, row in zip(block, matrix):
            out[i] = sum(map(mul, row, old))
    return out


def apply_gate(state: StateVector, gate: QuantumGate, targets: Sequence[int]) -> StateVector:
    """Apply the gate to the listed subsystems (bit positions)."""
    if len(targets) != gate.arity:
        raise ValueError(f"gate {gate.name!r} expects {gate.arity} targets")
    amps = _apply(state.amps, gate.matrix, targets)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if abs(norm - 1.0) > _TOL:
        raise AssertionError(f"norm drifted to {norm} after {gate.name}")
    return StateVector(tuple(amps))


@record
class MeasurementBasis:
    """A labeled orthonormal basis of a single subsystem."""

    labels: tuple[str, str]
    vectors: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self) -> None:
        v0, v1 = self.vectors
        n0 = abs(v0[0]) ** 2 + abs(v0[1]) ** 2
        n1 = abs(v1[0]) ** 2 + abs(v1[1]) ** 2
        overlap = v0[0].conjugate() * v1[0] + v0[1].conjugate() * v1[1]
        if abs(n0 - 1) > _TOL or abs(n1 - 1) > _TOL or abs(overlap) > _TOL:
            raise ValueError("measurement basis must be orthonormal")


OCCUPATION_BASIS = MeasurementBasis(("0", "1"), ((1 + 0j, 0j), (0j, 1 + 0j)))
WHICHWAY_BASIS = MeasurementBasis(("L", "R"), ((1 + 0j, 0j), (0j, 1 + 0j)))
ANCILLA_Q_BASIS = MeasurementBasis(("a0", "a1"), ((1 + 0j, 0j), (0j, 1 + 0j)))
ANCILLA_P_BASIS = MeasurementBasis(
    ("a+", "a-"),
    (
        (_INV_SQRT2 + 0j, _INV_SQRT2 + 0j),
        (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j),
    ),
)


def measure_subsystem(
    state: StateVector,
    subsystem: int,
    basis: MeasurementBasis = OCCUPATION_BASIS,
    tol: float = _TOL,
) -> list[tuple[int, float, StateVector]]:
    """Projective measurement of one subsystem in a labeled basis.

    Returns (outcome k, Born probability, collapsed state) for outcomes of
    nonzero probability.  The collapsed state is renormalized and its global
    phase canonicalized so collapsed states compare exactly in golden files.
    """
    bit = 1 << subsystem
    outcomes: list[tuple[int, float, StateVector]] = []
    for k, vector in enumerate(basis.vectors):
        projected = list(state.amps)
        for index in range(state.dim):
            if index & bit:
                continue
            a0 = state.amps[index]
            a1 = state.amps[index | bit]
            overlap = vector[0].conjugate() * a0 + vector[1].conjugate() * a1
            projected[index] = overlap * vector[0]
            projected[index | bit] = overlap * vector[1]
        prob = sum(abs(a) ** 2 for a in projected)
        if prob <= tol:
            continue
        scale = 1.0 / math.sqrt(prob)
        collapsed = StateVector(tuple(a * scale for a in projected))
        outcomes.append((k, prob, collapsed.canonicalized()))
    return outcomes


def reset_to_zero(state: StateVector, subsystem: int) -> StateVector:
    """Relabel a subsystem known to be in a definite bit state down to |0>.

    Models absorption by a destructive detector: the excitation is removed
    and the mode returns to the vacuum.  Requires the subsystem to be
    disentangled onto one bit value (as it is right after a projective
    occupation measurement).
    """
    bit = 1 << subsystem
    weight_one = sum(abs(a) ** 2 for i, a in enumerate(state.amps) if i & bit)
    if weight_one <= _TOL:
        return state
    if weight_one < 1.0 - _TOL:
        raise ValueError("subsystem is not in a definite state; cannot reset")
    amps = [0j] * state.dim
    for index, a in enumerate(state.amps):
        if index & bit:
            amps[index & ~bit] = a
    return StateVector(tuple(amps))


def translate_1q_to_2q(state: StateVector) -> StateVector:
    """Map the photon description onto a pair of modes.

    |L> becomes |1>_L |0>_R and |R> becomes |0>_L |1>_R; extended linearly.
    The result lives in the total-occupation-1 subspace of two mode qubits
    (bit 0 = mode L, bit 1 = mode R).
    """
    if state.dim != 2:
        raise ValueError("translation expects a 2-dimensional state")
    amps = [0j] * 4
    amps[1] = state.amps[0]
    amps[2] = state.amps[1]
    return StateVector(tuple(amps))


def total_occupation_weights(state: StateVector, mode_bits: Sequence[int]) -> dict[int, float]:
    """Probability mass per total occupation over the given mode subsystems."""
    weights: dict[int, float] = {}
    for index, amp in enumerate(state.amps):
        total = sum((index >> b) & 1 for b in mode_bits)
        weights[total] = weights.get(total, 0.0) + abs(amp) ** 2
    return weights


# ---------------------------------------------------------------------------
# Exact kernel over Z[sqrt(2)]
#
# A branch is ``(a, b, e)``: integer tuples a and b and an exponent e, holding
# the unnormalized amplitudes (a[k] + b[k] sqrt(2)) / sqrt(2)^e.  Branches
# stay unnormalized, so a branch's squared norm is the Born probability of
# its whole measurement record: no per-step probability, square root or
# global phase is needed.  Gates and bases are real, so amplitudes are too.
# A register has at most three qubits, so programs reach few branches: the
# gate maps, the measurement and the weight are memoised on the branch, each
# memo up to ``_TRANSITIONS`` entries.

ExactState = tuple[tuple[int, ...], tuple[int, ...], int]
_TRANSITIONS = 4096


@lru_cache(maxsize=64)  # shared, so the memos' keys compare by identity
def exact_start(index: int, qubits: int) -> ExactState:
    """The basis state ``index`` of a register of ``qubits`` qubits."""
    return tuple(int(k == index) for k in range(1 << qubits)), (0,) * (1 << qubits), 0


def _permute(source: tuple[int, ...], negate: tuple[int, ...], state: ExactState) -> ExactState:
    """Entry k takes entry ``source[k]``, negated where k is in ``negate``."""
    a, b, e = state
    a = [a[k] for k in source]
    b = [b[k] for k in source]
    for k in negate:
        a[k] = -a[k]
        b[k] = -b[k]
    return tuple(a), tuple(b), e


def _splitter(pairs: tuple[tuple[int, int], ...], state: ExactState) -> ExactState:
    """``bs_unitary("second")`` times sqrt(2): each pair (x10, x01) becomes
    (x01 - x10, x10 + x01), every other entry is multiplied by sqrt(2), which
    maps (a, b) to (2b, a), and e grows by 1."""
    a, b, e = state
    a2 = [2 * y for y in b]
    b2 = list(a)
    for u, v in pairs:
        a2[u] = a[v] - a[u]
        a2[v] = a[u] + a[v]
        b2[u] = b[v] - b[u]
        b2[v] = b[u] + b[v]
    return tuple(a2), tuple(b2), e + 1


@lru_cache(maxsize=_TRANSITIONS)
def _transition(kernel: Callable[[ExactState], ExactState], state: ExactState) -> ExactState:
    return kernel(state)


def _unchanged(state: ExactState) -> ExactState:
    return state


# The 3-subsystem cap leaves a few dozen keys.  Typed, since gates of two
# classes with equal fields hash alike: the class in the key tells them apart.
@lru_cache(maxsize=None, typed=True)
def exact_gate(gate: ToyGate, modes: int, qubits: int) -> Callable[[ExactState], ExactState]:
    """The exact map of a program's gate on a register of ``modes`` modes and
    then its ancillas, ``qubits`` qubits in all.

    A ``Beamsplitter`` is ``bs_unitary("second")`` with mode ``a`` first, a
    ``PhaseShift`` is ``phase_unitary(pi * s)``, a ``Cnot`` is
    ``cnot_unitary()`` from mode ``control`` to qubit ``modes + ancilla``,
    and ``SwapModes`` is ``swap_unitary()``; any other gate raises
    ``ValueError``.  The index maps are built once per gate and register,
    and the map is memoised on the branch, except ``phase m 0``'s: the
    identity returns the branch it is given and keeps no memo entry.
    """
    indices = range(1 << qubits)
    if isinstance(gate, Beamsplitter):
        a, b = 1 << gate.a, 1 << gate.b
        pairs = tuple((k, k ^ a ^ b) for k in indices if k & (a | b) == a)
        return partial(_transition, partial(_splitter, pairs))
    negate: tuple[int, ...] = ()
    source = tuple(indices)
    if isinstance(gate, PhaseShift):
        if not gate.s:
            return _unchanged
        negate = tuple(k for k in indices if k >> gate.mode & 1)
    elif isinstance(gate, Cnot):
        target = modes + gate.ancilla
        source = tuple(k ^ 1 << target if k >> gate.control & 1 else k for k in indices)
    elif isinstance(gate, SwapModes):
        flip = 1 << gate.a | 1 << gate.b
        source = tuple(k ^ flip if (k >> gate.a ^ k >> gate.b) & 1 else k for k in indices)
    else:
        raise ValueError(f"no exact kernel for gate {gate!r}")
    return partial(_transition, partial(_permute, source, negate))


@lru_cache(maxsize=None)
def _halves(subsystem: int, qubits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The basis indices with the subsystem's bit 0, and each with it set."""
    bit = 1 << subsystem
    low = tuple(k for k in range(1 << qubits) if not k & bit)
    return low, tuple(k | bit for k in low)


@lru_cache(maxsize=_TRANSITIONS)
def exact_measure(state: ExactState, subsystem: int, variable: str,
                  destructive: bool = False) -> tuple[tuple[int, tuple, ExactState], ...]:
    """Split a branch over a projective measurement of one subsystem.

    ``variable`` "N" or "Q" measures the bit (``OCCUPATION_BASIS``,
    ``ANCILLA_Q_BASIS``); a destructive N then moves the bit-1 part to bit
    0, as ``reset_to_zero`` does.  "P" projects on (|0> +- |1>)/sqrt(2)
    (``ANCILLA_P_BASIS``): both entries of a pair become +-(x0 +- x1) and e
    grows by 2.  Returns the ``(outcome, ONE, branch)`` triples of the
    nonzero branches as a tuple, shared by every call on an equal branch; a
    zero branch is dropped exactly.  The branches are unnormalized, so each
    outcome's probability is :data:`~toyfield.phase_space.ONE`, and the
    triples are the ones ``circuits.branches`` splits over.
    """
    a, b, e = state
    size = len(a)
    low, high = _halves(subsystem, size.bit_length() - 1)
    out = []
    if variable == "P":
        for value, sign in ((0, 1), (1, -1)):
            a2 = [0] * size
            b2 = [0] * size
            for k0, k1 in zip(low, high):
                x = a[k0] + sign * a[k1]
                y = b[k0] + sign * b[k1]
                a2[k0], a2[k1], b2[k0], b2[k1] = x, sign * x, y, sign * y
            if any(a2) or any(b2):
                out.append((value, ONE, (tuple(a2), tuple(b2), e + 2)))
        return tuple(out)
    for value, kept in enumerate((low, high)):
        a2 = [0] * size
        b2 = [0] * size
        for k, to in zip(kept, low if destructive else kept):
            a2[to] = a[k]
            b2[to] = b[k]
        if any(a2) or any(b2):
            out.append((value, ONE, (tuple(a2), tuple(b2), e)))
    return tuple(out)


@lru_cache(maxsize=_TRANSITIONS)
def exact_weight(state: ExactState) -> Fraction:
    """A branch's squared norm (X + Y sqrt(2)) / 2^e, which must be dyadic.

    Y != 0 raises ``ValueError``; the message keeps the float path's
    wording, "... is not dyadic within 1e-09".  The weight is the object
    :func:`~toyfield.phase_space.shared_fraction` gives for X/2^e, the one
    the toy engine gives for an equal weight.  Memoised on the branch; a
    raising branch stores nothing and raises again.
    """
    a, b, e = state
    rational = sum(x * x for x in a) + 2 * sum(y * y for y in b)
    irrational = 2 * sum(map(mul, a, b))
    if irrational:
        value = (rational + irrational * math.sqrt(2.0)) / 2**e
        sign = "+" if irrational > 0 else "-"
        raise ValueError(
            f"probability {value} = ({rational} {sign} {abs(irrational)}*sqrt(2))/2**{e} "
            "is not dyadic within 1e-09"
        )
    return shared_fraction(rational, 1 << e)
