"""The verification suites of ``toyfield check``, as rows of results.

Each suite returns ``(name, ok, detail)`` rows; :func:`suite_rows` assembles the
suites a ``check`` command names and :func:`print_suite` prints them.  The
equivalence suite runs each catalogued variant once per exact engine, and its
timing rows pair the two timings of a setting off that sweep's toy runs.  The
command line checks its arguments and imports this module only when it runs a
check, so a ``toyfield run`` neither loads nor compiles it.
"""

from __future__ import annotations

from toyfield import scenarios
from toyfield.circuits import compile_toy
from toyfield.first_quantized import check_commutation
from toyfield.phase_space import RegisterShape, enumerate_valid_states, marginal
from toyfield.toy_dynamics import Beamsplitter, PhaseShift
from toyfield.toy_measurement import DisturbanceKind, measure_occupation

Row = tuple[str, bool, str]


# the scenarios whose parameters are a setting and its timing, with their rows' title
_TIMED = {"quantum_eraser": "eraser", "delayed_choice": "delayed-choice"}


def _check_equivalence() -> list[Row]:
    sweep = scenarios.equivalence_sweep()
    rows = [(f"equivalence {key}", ok,
             "" if ok else f"toy={toy.as_floats()} quantum={quantum.as_floats()}")
            for key, toy, quantum, ok in sweep]
    runs = list(zip(scenarios.all_variants(), sweep))
    for name, title in _TIMED.items():
        # each setting's toy distributions at its two timings, off the sweep's own runs
        timings: dict[tuple[str, str], list] = {}
        for scenario, (_, toy, _, _) in runs:
            if scenario.name == name:
                timings.setdefault(scenario.params[0], []).append(toy.probs)
        rows.extend((f"{title} timing invariance {param}={value}", early == late, "")
                    for (param, value), (early, late) in timings.items())
    return rows


def _check_coarse_grain() -> list[Row]:
    circuits_to_check = {
        "mzi phase 0": [Beamsplitter(0, 1), PhaseShift(1, 0), Beamsplitter(0, 1)],
        "mzi phase pi": [Beamsplitter(0, 1), PhaseShift(1, 1), Beamsplitter(0, 1)],
        "mzi detector": [Beamsplitter(0, 1), ("measure", 1), Beamsplitter(0, 1)],
        "joint phase flip": [PhaseShift(0, 1), PhaseShift(1, 1)],
    }
    rows = []
    for name, circuit in circuits_to_check.items():
        report = check_commutation(circuit)
        rows.append((f"coarse-grain {name}", report.commutes, report.detail))
    return rows


def _check_destructive() -> list[Row]:
    """One row, failed at the first state and mode whose two updates differ."""
    name = "destructive ~ nondestructive (all valid two-mode states)"
    for state in enumerate_valid_states(RegisterShape(2)):
        for mode in (0, 1):
            nd = measure_occupation(state, mode, DisturbanceKind.NONDESTRUCTIVE)
            de = measure_occupation(state, mode, DisturbanceKind.DESTRUCTIVE)
            if [(o.value, o.probability) for o in nd] != [(o.value, o.probability) for o in de]:
                return [(name, False, f"probabilities differ on {state}")]
            other = (1 - mode,)
            if any(marginal(a.posterior, modes=other).support
                   != marginal(b.posterior, modes=other).support for a, b in zip(nd, de)):
                return [(name, False, f"posterior marginals differ on {state}")]
    return [(name, True, "")]


def _check_locality(shots: int, seed: int) -> list[Row]:
    from toyfield.automaton import check_time_reversal
    from toyfield.montecarlo import (
        MeasurementEvent,
        RunRecord,
        audit_records,
        locality_audit,
    )

    rows = []
    for scenario in (
        scenarios.mzi_whichway(DisturbanceKind.NONDESTRUCTIVE),
        scenarios.quantum_eraser("P"),
    ):
        plan = compile_toy(scenario.program)
        report = locality_audit(plan, shots, seed)
        rows.append(
            (
                f"locality {scenario.key} ({report.runs} runs)",
                report.clean,
                f"{len(report.violations)} violations",
            )
        )
    # Negative control: a fabricated event that mutates a distant bit.
    plan = compile_toy(scenarios.mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
    corrupt = RunRecord(
        0,
        0,
        (MeasurementEvent("which_way", "mode", 1, 1, 0, 0b0001, 0b0011),),
        {"which_way": 1},
    )
    control = audit_records([corrupt], plan.shape)
    rows.append(("locality negative control detected", not control.clean, ""))
    # Exact, over every joint state: the wire automaton's deterministic maps
    for kind, name in (("free_swap", "free shift"), ("phase", "phase"),
                       ("beamsplitter", "beamsplitter"), ("swap", "swap")):
        name = f"time reversal: the CA {name} is its own reverse"
        rows.append((name, check_time_reversal(kind), ""))
    control_caught = not check_time_reversal("broken_oneway")
    rows.append(("time reversal negative control detected", control_caught, ""))
    return rows


def suite_rows(suite: str, shots: int, seed: int) -> list[Row]:
    """The rows of ``suite`` (one of ``cli.CHECK_SUITES``; "all" runs every
    suite in order); ``shots`` and ``seed`` drive the sampled locality audit."""
    out: list[Row] = []
    if suite in ("equivalence", "all"):
        out.extend(_check_equivalence())
    if suite in ("coarse-grain", "all"):
        out.extend(_check_coarse_grain())
    if suite in ("destructive", "all"):
        out.extend(_check_destructive())
    if suite in ("locality", "all"):
        out.extend(_check_locality(shots, seed))
    return out


def print_suite(suite: str, shots: int, seed: int) -> int:
    """Print ``suite``'s rows, a FAIL row with its detail, and the tally;
    returns the exit code: 0 if every row passed, 1 otherwise."""
    rows = suite_rows(suite, shots, seed)
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"{status}  {name}{suffix}")
    failed = sum(1 for _, ok, _ in rows if not ok)
    print(f"\n{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0
