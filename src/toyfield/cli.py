"""Command-line frontend: run scenarios or programs, check claims, draw grids.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 parse/compile
error or a quantum result that is not dyadic.  Sampled engines require
explicit --shots and --seed; there is no environment fallback for seeds by
design.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from toyfield import circuits, scenarios
from toyfield.circuits import (
    CapabilityError,
    CompileError,
    ParseError,
    Program,
    compile_toy,
)
from toyfield.phase_space import EpistemicState, marginal
from toyfield.scenarios import OutcomeDistribution, Scenario, run_scenario
from toyfield.toy_dynamics import push_forward

CHECK_SUITES = ("equivalence", "coarse-grain", "destructive", "locality", "all")


def _fraction_str(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _print_distribution(dist: OutcomeDistribution, fmt: str) -> None:
    if fmt == "json":
        import json

        if dist.counts is not None:
            payload = {
                "shots": dist.shots,
                "counts": dict(sorted(dist.counts.items())),
                "frequencies": {
                    k: float(v) for k, v in sorted(dist.probs.items())
                },
            }
        else:
            payload = {k: _fraction_str(v) for k, v in sorted(dist.probs.items())}
        print(json.dumps(payload, indent=2))
        return
    width = max((len(k) for k in dist.probs), default=8)
    for label in sorted(dist.probs):
        p = dist.probs[label]
        extra = f"  ({dist.counts[label]} shots)" if dist.counts else ""
        print(f"{label.ljust(width)}  {_fraction_str(p).rjust(8)}  = {float(p):.6f}{extra}")


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    params: dict = {}
    if args.phase is not None:
        params["phase"] = args.phase
    if args.kind is not None:
        params["kind"] = args.kind
    if args.functional is not None:
        params["functional"] = args.functional
    if args.choice is not None:
        params["choice"] = args.choice
    if args.timing is not None:
        params["timing"] = args.timing
    if args.basis is not None:
        params["basis"] = args.basis
    if args.ancilla_timing is not None:
        params["ancilla_timing"] = args.ancilla_timing
    return scenarios.scenario_by_name(args.target, **params)


def _load_program(target: str) -> Program:
    if target == "-":
        return circuits.parse(sys.stdin.read())
    with open(target, "r", encoding="utf-8") as handle:
        return circuits.parse(handle.read())


def cmd_run(args: argparse.Namespace) -> int:
    engine = args.engine
    needs_shots = engine in ("ca", "montecarlo")
    if needs_shots and (args.shots is None or args.seed is None):
        print(f"engine {engine!r} requires --shots and --seed", file=sys.stderr)
        return 2
    if not needs_shots and (args.shots is not None or args.seed is not None):
        print(f"engine {engine!r} is exact; --shots/--seed do not apply", file=sys.stderr)
        return 2
    if needs_shots and args.shots < 1:
        print("--shots must be at least 1", file=sys.stderr)
        return 2

    is_scenario = args.target in scenarios.SCENARIO_NAMES
    if is_scenario:
        scenario = _scenario_from_args(args)
        if args.show_program:
            print(scenario.program_text(), end="")
            return 0
        if args.format == "grids":
            return _print_grids(compile_toy(scenario.program), args.steps)
        dist = run_scenario(scenario, engine, args.shots, args.seed)
        _print_distribution(dist, args.format)
        return 0

    program = _load_program(args.target)
    if args.show_program:
        print(circuits.render(program), end="")
        return 0
    if args.format == "grids":
        return _print_grids(compile_toy(program), args.steps)
    if engine == "toy":
        joint = circuits.run_toy_exact(compile_toy(program))
    elif engine == "quantum":
        plan = circuits.compile_quantum(program)
        try:
            joint = circuits.run_quantum_exact(plan)
        except ValueError as error:  # a label weight that is not dyadic
            print(f"error: {error}", file=sys.stderr)
            return 3
    elif engine == "montecarlo":
        from toyfield.montecarlo import estimate

        report = estimate(compile_toy(program), args.shots, args.seed, scenario=args.target)
        if args.format == "json":
            print(report.to_json())
        else:
            for label in sorted(report.counts):
                print(f"{label}  {report.counts[label]}/{report.shots}")
        return 0
    else:
        from toyfield.automaton import plan_from_program, run_experiment

        counts = run_experiment(
            plan_from_program(program), args.shots, args.seed, circuits.default_labeler
        )
        dist = OutcomeDistribution(
            {k: Fraction(v, args.shots) for k, v in counts.items()},
            shots=args.shots,
            counts=counts,
        )
        _print_distribution(dist, args.format)
        return 0
    labeled = circuits.joint_to_labeled(joint, circuits.default_labeler)
    _print_distribution(OutcomeDistribution(labeled), args.format)
    return 0


# ---------------------------------------------------------------------------
# Grid diagrams

_AXIS_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def render_grid(state: EpistemicState) -> list[str]:
    """A 4x4 support diagram over two modes.

    Rows are (N_L, Phi_L) and columns (N_R, Phi_R), both in the order 00,
    01, 10, 11.  Registers with more than two subsystems are shown as their
    marginal on the first two modes.
    """
    if state.shape.modes < 2:
        raise ValueError("grid diagrams need at least two modes")
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
    if isinstance(step, circuits.GateStep):
        return repr(step.gate)
    tag = "detect" if step.is_detect else f"measure {step.variable}"
    return f"{tag} -> {step.label}"


def _print_grids(plan, steps_filter: str | None) -> int:
    selected = None
    if steps_filter:
        selected = {int(s) for s in steps_filter.split(",")}
    print("Support diagrams; rows (N_L,Phi_L), columns (N_R,Phi_R), order 00,01,10,11.")
    if selected is None or 0 in selected:
        print("\nstep 0: preparation   p=1")
        for line in render_grid(plan.initial):
            print(line)
    start = [(Fraction(1), plan.initial, {})]
    stepped = circuits.branches(start, plan.steps, push_forward, circuits.toy_measure)
    for step_number, (step, current) in enumerate(stepped, 1):
        if selected is not None and step_number not in selected:
            continue
        for w, state, events in current:
            tags = " ".join(f"{label}={value}" for label, value in events.items())
            suffix = f"   [{tags}]" if tags else ""
            print(f"\nstep {step_number}: {_describe_step(step)}   p={_fraction_str(w)}{suffix}")
            for line in render_grid(state):
                print(line)
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    if args.target in scenarios.SCENARIO_NAMES:
        scenario = _scenario_from_args(args)
        plan = compile_toy(scenario.program)
    else:
        plan = compile_toy(_load_program(args.target))
    return _print_grids(plan, args.steps)


# ---------------------------------------------------------------------------
# Check suites


def _check_equivalence() -> list[tuple[str, bool, str]]:
    rows = []
    for key, toy, quantum_dist, ok in scenarios.equivalence_sweep():
        detail = "" if ok else f"toy={toy.as_floats()} quantum={quantum_dist.as_floats()}"
        rows.append((f"equivalence {key}", ok, detail))
    for basis in ("Q", "P"):
        before = run_scenario(scenarios.quantum_eraser(basis, "before"), "toy")
        after = run_scenario(scenarios.quantum_eraser(basis, "after"), "toy")
        rows.append(
            (
                f"eraser timing invariance basis={basis}",
                before.probs == after.probs,
                "",
            )
        )
    for choice in ("phase0", "phasepi", "detector"):
        early = run_scenario(scenarios.delayed_choice(choice, "before"), "toy")
        late = run_scenario(scenarios.delayed_choice(choice, "after"), "toy")
        rows.append(
            (f"delayed-choice timing invariance choice={choice}", early.probs == late.probs, "")
        )
    return rows


def _check_coarse_grain() -> list[tuple[str, bool, str]]:
    from toyfield.first_quantized import check_commutation
    from toyfield.toy_dynamics import Beamsplitter, PhaseShift

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


def _check_destructive() -> list[tuple[str, bool, str]]:
    from toyfield.phase_space import RegisterShape, enumerate_valid_states, marginal
    from toyfield.toy_measurement import DisturbanceKind, measure_occupation

    rows = []
    mismatch = ""
    ok = True
    for state in enumerate_valid_states(RegisterShape(2)):
        for mode in (0, 1):
            other = 1 - mode
            nd = measure_occupation(state, mode, DisturbanceKind.NONDESTRUCTIVE)
            de = measure_occupation(state, mode, DisturbanceKind.DESTRUCTIVE)
            if [(o.value, o.probability) for o in nd] != [
                (o.value, o.probability) for o in de
            ]:
                ok, mismatch = False, f"probabilities differ on {state}"
                break
            for a, b in zip(nd, de):
                if marginal(a.posterior, modes=(other,)).support != marginal(
                    b.posterior, modes=(other,)
                ).support:
                    ok, mismatch = False, f"posterior marginals differ on {state}"
                    break
    rows.append(("destructive ~ nondestructive (all valid two-mode states)", ok, mismatch))
    return rows


def _check_locality(shots: int, seed: int) -> list[tuple[str, bool, str]]:
    from toyfield.montecarlo import (
        MeasurementEvent,
        RunRecord,
        audit_records,
        locality_audit,
    )
    from toyfield.toy_measurement import DisturbanceKind

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
    return rows


def cmd_check(args: argparse.Namespace) -> int:
    suite = args.suite
    shots = 100_000 if args.shots is None else args.shots
    seed = 7 if args.seed is None else args.seed
    if shots < 1:
        print("--shots must be at least 1", file=sys.stderr)
        return 2
    rows: list[tuple[str, bool, str]] = []
    if suite in ("equivalence", "all"):
        rows.extend(_check_equivalence())
    if suite in ("coarse-grain", "all"):
        rows.extend(_check_coarse_grain())
    if suite in ("destructive", "all"):
        rows.extend(_check_destructive())
    if suite in ("locality", "all"):
        rows.extend(_check_locality(shots, seed))
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"{status}  {name}{suffix}")
    failed = sum(1 for _, ok, _ in rows if not ok)
    print(f"\n{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toyfield",
        description="Run interferometer experiments on the classical, quantum, "
        "cellular-automaton and Monte Carlo engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or a program file")
    run.add_argument("target", help="scenario name, program path, or '-' for stdin")
    run.add_argument("--engine", choices=scenarios.ENGINES, default="toy")
    run.add_argument("--shots", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--format", choices=("table", "json", "grids"), default="table")
    run.add_argument("--steps", help="comma-separated step filter for --format grids")
    run.add_argument(
        "--show-program",
        action="store_true",
        help="print the scenario's circuit in the program language and exit",
    )
    _add_scenario_params(run)
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=CHECK_SUITES)
    check.add_argument("--shots", type=int, help="override the documented 100000")
    check.add_argument("--seed", type=int, help="override the documented seed 7")
    check.set_defaults(func=cmd_check)

    grid = sub.add_parser("grid", help="draw support diagrams step by step")
    grid.add_argument("target", help="scenario name or program path")
    grid.add_argument("--steps", help="comma-separated step numbers to show")
    _add_scenario_params(grid)
    grid.set_defaults(func=cmd_grid)
    return parser


def _add_scenario_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--phase", choices=("0", "pi"))
    sub.add_argument("--kind", choices=("nondestructive", "destructive"))
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--functional", dest="functional", action="store_true", default=None)
    group.add_argument("--faulty", dest="functional", action="store_false", default=None)
    sub.add_argument("--choice", choices=("phase0", "phasepi", "detector"))
    sub.add_argument("--timing", choices=("before", "after"))
    sub.add_argument("--basis", choices=("Q", "P"))
    sub.add_argument("--ancilla-timing", dest="ancilla_timing", choices=("before", "after"))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CompileError, CapabilityError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
