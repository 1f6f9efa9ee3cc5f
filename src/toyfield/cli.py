"""Command-line frontend: run scenarios or programs, check claims, draw grids.

Exit codes: 0 success, 1 check failure, 2 usage error (a bad --steps list,
a step number the program does not have, --steps without --format grids,
--shots < 1 or > 2**64, --seed < 0, grids off the toy engine, a target path
that cannot be read or a scenario flag the target does not take among
them), 3 parse/compile error (text that is not UTF-8 among them), a
register the grids cannot draw, or a quantum result that is not dyadic,
and 141 when the reader closed stdout before the output was written (as in
``toyfield grid mzi_whichway | head -3``): 128 + SIGPIPE, what a shell
reports for a process that signal ends, with no traceback.
Sampled engines require explicit --shots and --seed; there is no
environment fallback for seeds by design.
"""

from __future__ import annotations

import argparse
import os
import sys

from toyfield import circuits
from toyfield.circuits import (
    ENGINES,
    SCENARIO_PARAMS,
    CapabilityError,
    CompileError,
    OutcomeDistribution,
    ParseError,
    Program,
    Scenario,
    compile_toy,
    run_scenario,
)

CHECK_SUITES = ("equivalence", "coarse-grain", "destructive", "locality", "all")


def _print_distribution(
    dist: OutcomeDistribution, fmt: str, program: Program, seed: int | None
) -> None:
    """Print a distribution; sampled JSON also names the seed, draw scheme,
    program and version that reproduce it."""
    if fmt == "json":
        import json

        if dist.counts is not None:
            from toyfield.montecarlo import program_sha256, provenance

            payload = {
                "shots": dist.shots,
                **provenance(seed, program_sha256(program)),
                "counts": dict(sorted(dist.counts.items())),
                "frequencies": {
                    k: float(v) for k, v in sorted(dist.probs.items())
                },
            }
        else:
            payload = {k: str(v) for k, v in sorted(dist.probs.items())}
        print(json.dumps(payload, indent=2))
        return
    width = max((len(k) for k in dist.probs), default=8)
    for label in sorted(dist.probs):
        p = dist.probs[label]
        if dist.counts is None:
            fraction, extra = str(p), ""
        else:  # unreduced, so every row of a run shares the shot count
            count = dist.counts[label]
            fraction, extra = f"{count}/{dist.shots}", f"  ({count} shots)"
        print(f"{label.ljust(width)}  {fraction.rjust(8)}  = {float(p):.6f}{extra}")


class _UsageError(Exception):
    """A target or flag the command cannot take; exit code 2."""


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The named scenario, or a program file (``-`` for stdin) under the default labeler.

    Raises :class:`_UsageError` for a scenario flag the target does not take;
    program files take none.  Only a named scenario loads the catalogue.
    """
    takes = SCENARIO_PARAMS.get(args.target, ())
    params = {
        name: getattr(args, name)
        for names in SCENARIO_PARAMS.values()
        for name in names
        if getattr(args, name) is not None
    }
    for name, value in params.items():
        if name not in takes:
            flag = "--faulty" if value is False else "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} does not apply to {args.target}")
    if args.target not in SCENARIO_PARAMS:
        return Scenario(args.target, (), _load_program(args.target), circuits.default_labeler)
    from toyfield.scenarios import scenario_by_name

    return scenario_by_name(args.target, **params)


def _load_program(target: str) -> Program:
    """Parse the file at ``target``, or stdin for ``-``.  A path that cannot be
    read raises :class:`_UsageError`; text that is not UTF-8, ``CompileError``."""
    try:
        if target == "-":
            text = sys.stdin.read()
        else:
            with open(target, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        raise _UsageError(str(error)) from error
    except UnicodeDecodeError as error:
        raise CompileError(f"{target} is not UTF-8 text: {error}") from error
    return circuits.parse(text)


def _out_of_range(shots: int, seed: int) -> bool:
    """Whether ``--shots`` or ``--seed`` is out of range; prints the usage error if so."""
    if not 1 <= shots <= 1 << 64:
        print("--shots must be at least 1 and at most 2**64", file=sys.stderr)
        return True
    if seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return True
    return False


def cmd_run(args: argparse.Namespace) -> int:
    engine = args.engine
    if args.format == "grids" and engine != "toy":
        print("--format grids draws the toy engine's supports only", file=sys.stderr)
        return 2
    needs_shots = engine in ("ca", "montecarlo")
    if needs_shots and (args.shots is None or args.seed is None):
        print(f"engine {engine!r} requires --shots and --seed", file=sys.stderr)
        return 2
    if not needs_shots and (args.shots is not None or args.seed is not None):
        print(f"engine {engine!r} is exact; --shots/--seed do not apply", file=sys.stderr)
        return 2
    if needs_shots and _out_of_range(args.shots, args.seed):
        return 2
    if args.steps is not None and args.format != "grids":
        print("--steps selects grid steps; it applies only to --format grids", file=sys.stderr)
        return 2

    scenario = _scenario_from_args(args)
    if args.show_program:
        print(scenario.program_text(), end="")
        return 0
    if args.format == "grids":
        return _grids(scenario, args.steps)
    try:
        dist = run_scenario(scenario, engine, args.shots, args.seed)
    except ValueError as error:  # a compile error, or a quantum weight that is not dyadic
        print(f"error: {error}", file=sys.stderr)
        return 3
    _print_distribution(dist, args.format, scenario.program, args.seed)
    return 0


def _step_numbers(text: str) -> set[int] | None:
    """The ``--steps`` list; an empty list selects every step."""
    try:
        return {int(s) for s in text.split(",")} if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of step numbers: {text!r}")


def _grids(scenario: Scenario, selected: set[int] | None) -> int:
    """Print the scenario's support diagrams at the ``--steps`` selected; the
    grid printer (:mod:`toyfield.grid`) is loaded only here."""
    plan = compile_toy(scenario.program)
    last = len(plan.steps)
    stray = sorted((selected or set()) - set(range(last + 1)))
    if stray:
        raise _UsageError(f"--steps {','.join(map(str, stray))}: the program has steps 0 to {last}")
    from toyfield.grid import print_grids

    return print_grids(plan, selected)


def cmd_grid(args: argparse.Namespace) -> int:
    return _grids(_scenario_from_args(args), args.steps)


def cmd_check(args: argparse.Namespace) -> int:
    shots = 100_000 if args.shots is None else args.shots
    seed = 7 if args.seed is None else args.seed
    if _out_of_range(shots, seed):
        return 2
    from toyfield.checks import print_suite  # loaded only by a check, never by a run

    return print_suite(args.suite, shots, seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toyfield",
        description="Run interferometer experiments on the classical, quantum, "
        "cellular-automaton and Monte Carlo engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or a program file")
    run.add_argument("target", help="scenario name, program path, or '-' for stdin")
    run.add_argument("--engine", choices=ENGINES, default="toy")
    run.add_argument("--shots", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--format", choices=("table", "json", "grids"), default="table")
    run.add_argument("--steps", type=_step_numbers, help="comma-separated steps for --format grids")
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
    grid.add_argument("--steps", type=_step_numbers, help="comma-separated step numbers to show")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except (ParseError, CompileError, CapabilityError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The rest of the output is dropped, and the interpreter's shutdown
        # flush writes it to os.devnull instead of failing on the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
