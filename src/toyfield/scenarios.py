"""Scripted interferometer experiments, runnable on every engine.

Every scenario is one Mach-Zehnder interferometer, written once
(``_mzi_text``), with a different device between its splitters, plus a
labeler that maps the raw joint measurement record onto a fixed outcome
vocabulary: the lit port (``detector_L``, ``no_click``, ...), or, through
the one device labeler, the device event's name and the port (``fired &
detector_R``, ``a+ & detector_L``), an absorbing device that fired named
alone (``absorbed``, ``exploded``).  The vocabulary is stable across engines
so exact distributions can be diffed verbatim.

Scenario catalog:

* ``mzi_phase`` -- interferometer with a phase shifter (0 or pi) in the R
  arm; the lit output port is a deterministic function of the shift.
* ``mzi_whichway`` -- a detector in the R arm (nondestructive or
  destructive); the in-arm record and the ports are each uniform.
* ``bomb_tester`` -- a trigger in the R arm treated as a which-way detector
  whose firing is an explosion; a quarter of runs certify a live trigger
  without setting it off.
* ``delayed_choice`` -- same circuits as the two above with the device
  choice made early or late; the timing flag never changes a distribution.
* ``quantum_eraser`` -- a CNOT copies the R occupation onto an ancilla;
  measuring the ancilla coordinate reveals the path (no interference),
  measuring its momentum reveals the phase kick instead (interference per
  outcome).  The ancilla can be read before or after the ports.
* ``mirror_removed`` -- the R-arm mirror is replaced by a swap with an
  unoccupied environment mode; half the runs leave the interferometer dark.

``Scenario``, ``OutcomeDistribution``, ``run_scenario``, ``ENGINES`` and
``SCENARIO_PARAMS`` live in :mod:`toyfield.circuits`, which a program-file
run loads anyway, and are re-exported here; only a named scenario loads this
catalogue.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator

from toyfield.circuits import (  # noqa: F401  re-exported: callers read them here too
    ENGINES,
    SCENARIO_PARAMS,
    Labeler,
    OutcomeDistribution,
    Program,
    Scenario,
    parse,
    run_scenario,
)
from toyfield.toy_measurement import DisturbanceKind

__all__ = [
    "OutcomeDistribution",
    "Scenario",
    "all_variants",
    "bomb_tester",
    "delayed_choice",
    "mirror_removed",
    "mzi_phase",
    "mzi_whichway",
    "quantum_eraser",
    "run_scenario",
    "scenario_by_name",
]


@functools.cache
def _program(text: str) -> Program:
    """The parse of one of this module's fixed texts, made on first use and
    shared by every scenario built from that text."""
    return parse(text)


def _port_label(events: dict[str, int]) -> str:
    left = events.get("detector_L", 0)
    right = events.get("detector_R", 0)
    if left and right:
        return "both_ports"
    if left:
        return "detector_L"
    if right:
        return "detector_R"
    return "no_click"


def _mzi_text(device: str, modes: str = "L R", ancilla: str = "", before: str = "",
              after: str = "") -> str:
    """The one interferometer: ``modes`` (L, R and any extra mode, each
    extra one empty like R), an optional ancilla, a source in L, the
    ``device`` statement between the two splitters and the two port
    detections, with one optional statement just ``before`` them and one
    just ``after``."""
    lines = (f"mode {modes}", ancilla and f"ancilla {ancilla}", "source L",
             *(f"vacuum {mode}" for mode in modes.split()[1:]), "bs L R", device, "bs L R",
             before, "detect L as detector_L", "detect R as detector_R", after)
    return "".join(f"{line};\n" for line in lines if line)


def _device_labeler(event: str, names: tuple[str, str], absorbing: bool = False) -> Labeler:
    """Each outcome named by ``names[value]`` of the device's ``event``, then
    `` & `` and the lit port.  An ``absorbing`` device that fired took the
    excitation, so its name stands alone: a live bomb is an absorbing
    which-way detector."""

    def labeler(events: dict[str, int]) -> str:
        value = events[event]
        if value and absorbing:
            return names[1]
        return f"{names[value]} & {_port_label(events)}"

    return labeler


def mzi_phase(s: int) -> Scenario:
    """Interferometer with a phase shifter; s = 1 means a pi shift."""
    if s not in (0, 1):
        raise ValueError("phase bit must be 0 or 1")
    program = _program(_mzi_text(f"phase R {'pi' if s else '0'}"))
    return Scenario(
        "mzi_phase", (("phase", "pi" if s else "0"),), program, _port_label
    )


def mzi_whichway(kind: DisturbanceKind = DisturbanceKind.NONDESTRUCTIVE) -> Scenario:
    """Interferometer with an occupation detector in the R arm."""
    program = _program(_mzi_text(f"measure N R {kind.value} as which_way"))
    absorbing = kind is DisturbanceKind.DESTRUCTIVE
    names = ("silent", "absorbed" if absorbing else "fired")
    labeler = _device_labeler("which_way", names, absorbing)
    return Scenario("mzi_whichway", (("kind", kind.value),), program, labeler)


def bomb_tester(functional: bool) -> Scenario:
    """A trigger-armed device in the R arm, or a dud with no coupling at all.

    A live trigger is exactly an absorbing which-way detector whose firing
    is an explosion.  A dud leaves the plain interferometer, so the photon
    always exits at the L port.
    """
    if functional:
        program = _program(_mzi_text("measure N R destructive as trigger"))
        labeler = _device_labeler("trigger", ("safe", "exploded"), absorbing=True)
        return Scenario("bomb_tester", (("bomb", "functional"),), program, labeler)
    program = _program(_mzi_text(""))
    return Scenario("bomb_tester", (("bomb", "faulty"),), program, _port_label)


def delayed_choice(choice: str, timing: str = "after") -> Scenario:
    """Insert a phase shifter or a detector, deciding early or late.

    ``choice`` is "phase0", "phasepi" or "detector".  The timing flag is
    metadata: free propagation commutes with the insertion point, so the
    compiled circuit and every distribution are independent of it.
    """
    if timing not in ("before", "after"):
        raise ValueError("timing must be 'before' or 'after'")
    if choice == "detector":
        base = mzi_whichway(DisturbanceKind.NONDESTRUCTIVE)
    elif choice in ("phase0", "phasepi"):
        base = mzi_phase(0 if choice == "phase0" else 1)
    else:
        raise ValueError(f"unknown choice {choice!r}")
    return Scenario(
        "delayed_choice",
        (("choice", choice), ("timing", timing)),
        base.program,
        base.labeler,
    )


def quantum_eraser(basis: str, ancilla_timing: str = "after") -> Scenario:
    """Which-way marking onto an ancilla, read out in the Q or P basis.

    With ``ancilla_timing`` "before" the ancilla is measured before the
    ports, "after" only after both port detections: the joint distribution
    is the same either way.
    """
    if basis not in ("Q", "P"):
        raise ValueError("basis must be 'Q' or 'P'")
    if ancilla_timing not in ("before", "after"):
        raise ValueError("ancilla_timing must be 'before' or 'after'")
    # the timing names the template's slot for the readout
    text = _mzi_text("cnot R A", ancilla="A", **{ancilla_timing: f"measure {basis} A as anc"})
    labeler = _device_labeler("anc", ("a0", "a1") if basis == "Q" else ("a+", "a-"))
    params = (("basis", basis), ("ancilla_timing", ancilla_timing))
    return Scenario("quantum_eraser", params, _program(text), labeler)


def mirror_removed() -> Scenario:
    """The R-arm mirror is gone: the splitter's R input tracks a fresh
    unoccupied mode and the excitation can leave the interferometer."""
    program = _program(_mzi_text("swap R E", modes="L R E"))
    return Scenario("mirror_removed", (), program, _port_label)


# (scenario, parameter, type, value) of every accepted form: typed, as True == 1 == 1.0
_FORMS = frozenset((name, param, type(form), form) for name, accepted in SCENARIO_PARAMS.items()
                   for param, forms in accepted.items() for form in forms)


@functools.lru_cache(maxsize=64)  # only validated arguments reach it: the 17 variants
def _variant(build: Callable[..., Scenario], *args) -> Scenario:
    return build(*args)


def scenario_by_name(name: str, **params) -> Scenario:
    """The scenario ``name`` with the parameters of :data:`SCENARIO_PARAMS`,
    one object per variant.

    Raises ``KeyError`` for an unknown name, and ``ValueError`` for a
    parameter the scenario does not take or a value outside its accepted
    forms.
    """
    if name not in SCENARIO_PARAMS:
        raise KeyError(f"unknown scenario {name!r}")
    accepted = SCENARIO_PARAMS[name]
    for param, value in params.items():
        if param not in accepted:
            raise ValueError(f"{name} takes no parameter {param!r}")
        try:
            known = (name, param, type(value), value) in _FORMS
        except TypeError:  # an unhashable value is no accepted form
            known = False
        if not known:
            raise ValueError(f"{name} parameter {param}={value!r} is not one of {accepted[param]}")
    get = params.get
    if name == "mzi_phase":
        return _variant(mzi_phase, 1 if get("phase", "0") in (1, "1", "pi") else 0)
    if name == "mzi_whichway":
        return _variant(mzi_whichway, DisturbanceKind(get("kind", "nondestructive")))
    if name == "bomb_tester":
        return _variant(bomb_tester, get("functional", True))
    if name == "delayed_choice":
        return _variant(delayed_choice, get("choice", "detector"), get("timing", "after"))
    if name == "quantum_eraser":
        return _variant(quantum_eraser, get("basis", "P"), get("ancilla_timing", "after"))
    return _variant(mirror_removed)


def all_variants() -> Iterator[Scenario]:
    """Every scenario at every parameter setting, the equivalence sweep: the
    distinct objects :func:`scenario_by_name` returns over the product of each
    scenario's :data:`SCENARIO_PARAMS` forms, in table order, so aliases such
    as ``phase=1`` and ``phase="pi"`` give one variant."""
    variants = (scenario_by_name(name, **dict(zip(accepted, values)))
                for name, accepted in SCENARIO_PARAMS.items()
                for values in itertools.product(*accepted.values()))
    return iter({id(variant): variant for variant in variants}.values())


def equivalence_sweep() -> list[tuple[str, OutcomeDistribution, OutcomeDistribution, bool]]:
    """Exact toy vs quantum distribution for every scenario variant."""
    rows = []
    for scenario in all_variants():
        toy = run_scenario(scenario, "toy")
        quantum_dist = run_scenario(scenario, "quantum")
        rows.append((scenario.key, toy, quantum_dist, toy.probs == quantum_dist.probs))
    return rows
