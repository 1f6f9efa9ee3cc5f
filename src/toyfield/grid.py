"""Support diagrams of the classical engine, step by step.

``toyfield grid`` and ``toyfield run --format grids`` print them; the command
line loads this module only for those two, so no other run compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from toyfield.circuits import ONE, CapabilityError, GateStep, ToyPlan, branches
from toyfield.phase_space import EpistemicState, marginal

_AXIS_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def render_grid(state: EpistemicState) -> list[str]:
    """A 4x4 support diagram over two modes.

    Rows are (N_L, Phi_L) and columns (N_R, Phi_R), both in the order 00,
    01, 10, 11.  Registers with more than two subsystems are shown as their
    marginal on the first two modes.
    """
    if state.shape.modes < 2:
        raise CapabilityError("grid diagrams need at least two modes")
    if state.shape.subsystems > 2:
        state = marginal(state, modes=(0, 1))
    filled = {
        ((bits[0], bits[1]), (bits[2], bits[3])) for bits in state.support_bits()
    }
    lines = ["        N_R,Phi_R", "        00 01 10 11"]
    for row in _AXIS_ORDER:
        cells = " ".join(
            " #" if (row, col) in filled else " ." for col in _AXIS_ORDER
        )
        lines.append(f"  {row[0]}{row[1]}   {cells}")
    return lines


def _describe_step(step) -> str:
    if isinstance(step, GateStep):
        return repr(step.gate)
    tag = "detect" if step.is_detect else f"measure {step.variable}"
    return f"{tag} -> {step.label}"


def print_grids(plan: ToyPlan, selected: set[int] | None) -> int:
    """Print the diagram of every branch after each selected step (``None``
    selects all; the command line has checked that each is a step of the
    plan, 0 the preparation); returns the exit code 0.  A register the
    diagrams cannot draw raises ``CapabilityError`` before any output."""
    initial = render_grid(plan.initial)
    print("Support diagrams; rows (N_L,Phi_L), columns (N_R,Phi_R), order 00,01,10,11.")
    if selected is None or 0 in selected:
        print("\nstep 0: preparation   p=1")
        for line in initial:
            print(line)
    stepped = branches([(ONE, plan.initial, ())], plan.steps, plan.apply, plan.measure)
    for step_number, (step, current) in enumerate(stepped, 1):
        if selected is not None and step_number not in selected:
            continue
        for w, state, events in current:
            tags = " ".join(f"{label}={value}" for label, value in events)
            suffix = f"   [{tags}]" if tags else ""
            print(f"\nstep {step_number}: {_describe_step(step)}   p={Fraction(*w)}{suffix}")
            for line in render_grid(state):
                print(line)
    return 0
