"""Acceptance suite: one test per claim, each printing a pass line.

Every exact distribution is compared as rationals (no tolerance); the
state-vector engine's floats must sit within 1e-9 of dyadic rationals
before exactification.  Statistical claims use the documented seed 7 with
100000 shots and a z threshold of 3.  Stated runtime budgets are asserted
with warm caches.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-claim lines.
"""

import time
from fractions import Fraction

import pytest

from toyfield import scenarios
from toyfield.circuits import compile_toy, parse, render, run_toy_exact
from toyfield.scenarios import run_scenario
from toyfield.toy_measurement import DisturbanceKind

H = Fraction(1, 2)
Q = Fraction(1, 4)

SEED = 7
SHOTS = 100_000


def _report(name: str, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"PASS  {name}{suffix}")


def test_01_mzi_phase_ports():
    # Warm the gate tables, then hold the exact engine to the time budget.
    run_scenario(scenarios.mzi_phase(0), "toy")
    start = time.perf_counter()
    zero = run_scenario(scenarios.mzi_phase(0), "toy").probs
    elapsed = time.perf_counter() - start
    pi = run_scenario(scenarios.mzi_phase(1), "toy").probs
    assert zero == {"detector_L": Fraction(1)}
    assert pi == {"detector_R": Fraction(1)}
    assert elapsed < 1e-3, f"exact run took {elapsed * 1e3:.3f} ms"
    _report("1 interferometer ports track the phase shift", f"{elapsed * 1e6:.0f} us")


def test_02_whichway_uniform():
    got = run_scenario(
        scenarios.mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), "toy"
    ).probs
    assert got == {
        "fired & detector_L": Q,
        "fired & detector_R": Q,
        "silent & detector_L": Q,
        "silent & detector_R": Q,
    }
    fired = got["fired & detector_L"] + got["fired & detector_R"]
    left = got["fired & detector_L"] + got["silent & detector_L"]
    assert fired == H and left == H
    _report("2 in-arm detector and ports are each exactly uniform")


def test_03_bomb_tester():
    live = run_scenario(scenarios.bomb_tester(True), "toy").probs
    dud = run_scenario(scenarios.bomb_tester(False), "toy").probs
    assert live == {"exploded": H, "safe & detector_L": Q, "safe & detector_R": Q}
    assert dud == {"detector_L": Fraction(1)}
    _report("3 live trigger certified with probability exactly 1/4")


def test_04_quantum_eraser():
    for engine in ("toy", "quantum"):
        q_basis = run_scenario(scenarios.quantum_eraser("Q"), engine).probs
        p_basis = run_scenario(scenarios.quantum_eraser("P"), engine).probs
        assert q_basis == {
            "a0 & detector_L": Q,
            "a0 & detector_R": Q,
            "a1 & detector_L": Q,
            "a1 & detector_R": Q,
        }
        assert p_basis == {"a+ & detector_L": H, "a- & detector_R": H}
        for dist in (q_basis, p_basis):
            left = sum(p for label, p in dist.items() if label.endswith("detector_L"))
            assert left == H
        for basis in ("Q", "P"):
            before = run_scenario(
                scenarios.quantum_eraser(basis, "before"), engine
            ).probs
            after = run_scenario(scenarios.quantum_eraser(basis, "after"), engine).probs
            assert before == after
    _report("4 eraser joints exact; ancilla timing is irrelevant")


def test_05_cross_engine_equivalence():
    start = time.perf_counter()
    rows = scenarios.equivalence_sweep()
    elapsed = time.perf_counter() - start
    assert len(rows) == 17
    for key, toy, quantum_dist, ok in rows:
        assert ok, f"{key}: {toy.as_floats()} != {quantum_dist.as_floats()}"
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"
    _report("5 classical and quantum engines agree on every variant", f"{elapsed:.2f} s")


def test_06_coarse_graining_commutes():
    from toyfield.first_quantized import SECTOR_INDICES, check_commutation
    from toyfield.toy_dynamics import Beamsplitter, PhaseShift

    start = time.perf_counter()
    assert len(SECTOR_INDICES) == 8
    cases = [
        [Beamsplitter(0, 1), PhaseShift(1, 0), Beamsplitter(0, 1)],
        [Beamsplitter(0, 1), PhaseShift(1, 1), Beamsplitter(0, 1)],
        [Beamsplitter(0, 1), ("measure", 1), Beamsplitter(0, 1)],
        [Beamsplitter(0, 1), ("measure", 0), Beamsplitter(0, 1)],
        [PhaseShift(0, 1), PhaseShift(1, 1)],
    ]
    for circuit in cases:
        assert check_commutation(circuit)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("6 coarse-graining commutes with sector circuits", f"{elapsed:.2f} s")


def test_07_destructive_equivalence():
    from toyfield.phase_space import RegisterShape, enumerate_valid_states, marginal
    from toyfield.toy_measurement import measure_occupation

    start = time.perf_counter()
    catalog = enumerate_valid_states(RegisterShape(2))
    assert len(catalog) == 91
    for state in catalog:
        for mode in (0, 1):
            other = 1 - mode
            nd = measure_occupation(state, mode, DisturbanceKind.NONDESTRUCTIVE)
            de = measure_occupation(state, mode, DisturbanceKind.DESTRUCTIVE)
            assert [(o.value, o.probability) for o in nd] == [
                (o.value, o.probability) for o in de
            ]
            for a, b in zip(nd, de):
                assert (
                    marginal(a.posterior, modes=(other,)).support
                    == marginal(b.posterior, modes=(other,)).support
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "7 destructive and nondestructive updates agree in distribution",
        f"{len(catalog)} states, {elapsed:.2f} s",
    )


def test_08_closure_of_valid_states():
    from scalar_reference import delta_occupation, product, randomize
    from toyfield.phase_space import (
        RegisterShape,
        enumerate_valid_states,
        is_valid,
        marginal,
    )
    from toyfield.toy_dynamics import (
        Beamsplitter,
        Cnot,
        Identity,
        PhaseShift,
        SwapModes,
        push_forward,
    )
    from toyfield.toy_measurement import measure_ancilla, measure_occupation

    start = time.perf_counter()
    checked = 0
    shapes = [
        RegisterShape(1),
        RegisterShape(2),
        RegisterShape(1, 1),
        RegisterShape(3),
        RegisterShape(2, 1),
    ]
    for shape in shapes:
        catalog = enumerate_valid_states(shape)
        mode_pairs = [
            (a, b)
            for a in range(shape.modes)
            for b in range(shape.modes)
            if a != b
        ]
        sector_masks = {
            pair: delta_occupation(shape, *pair).mask for pair in mode_pairs
        }
        gates = [Identity()]
        gates += [PhaseShift(m, 1) for m in range(shape.modes)]
        gates += [SwapModes(a, b) for a, b in mode_pairs if a < b]
        gates += [
            Cnot(m, j) for m in range(shape.modes) for j in range(shape.ancillas)
        ]
        selections = []
        for keep_modes in range(1 << shape.modes):
            for keep_ancillas in range(1 << shape.ancillas):
                modes = tuple(m for m in range(shape.modes) if (keep_modes >> m) & 1)
                ancillas = tuple(
                    j for j in range(shape.ancillas) if (keep_ancillas >> j) & 1
                )
                if modes or ancillas:
                    selections.append((modes, ancillas))
        for state in catalog:
            for slot in range(shape.bit_count):
                assert is_valid(randomize(state, slot))
                checked += 1
            for gate in gates:
                assert is_valid(push_forward(state, gate))
                checked += 1
            for pair, mask in sector_masks.items():
                confined = len({(x & mask).bit_count() & 1 for x in state.support}) == 1
                if confined:
                    # The splitter is passive off the single-excitation
                    # sector; supports mixing the sectors are the one place
                    # validity is not guaranteed (they leave the theory's
                    # state space exactly as non-stabilizer mixtures do).
                    assert is_valid(push_forward(state, Beamsplitter(*pair)))
                    checked += 1
            for mode in range(shape.modes):
                for kind in DisturbanceKind:
                    for outcome in measure_occupation(state, mode, kind):
                        assert is_valid(outcome.posterior)
                        checked += 1
            for ancilla in range(shape.ancillas):
                for basis in ("Q", "P"):
                    for outcome in measure_ancilla(state, ancilla, basis):
                        assert is_valid(outcome.posterior)
                        checked += 1
            for modes, ancillas in selections:
                assert is_valid(marginal(state, modes=modes, ancillas=ancillas))
                checked += 1
    for left_shape, right_shape in [
        (RegisterShape(1), RegisterShape(1)),
        (RegisterShape(1), RegisterShape(2)),
        (RegisterShape(1), RegisterShape(1, 1)),
    ]:
        for a in enumerate_valid_states(left_shape):
            for b in enumerate_valid_states(right_shape):
                assert is_valid(product(a, b))
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"closure sweep took {elapsed:.2f} s"
    _report("8 every operation preserves validity", f"{checked} checks, {elapsed:.2f} s")


def test_09_cellular_automaton():
    from toyfield.automaton import check_time_reversal

    start = time.perf_counter()
    assert run_scenario(scenarios.mzi_phase(0), "ca", SHOTS, SEED).counts == {
        "detector_L": SHOTS
    }
    assert run_scenario(scenarios.mzi_phase(1), "ca", SHOTS, SEED).counts == {
        "detector_R": SHOTS
    }
    whichway = run_scenario(
        scenarios.mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), "ca", SHOTS, SEED
    ).counts
    worst = 0.0
    for label in (
        "fired & detector_L",
        "fired & detector_R",
        "silent & detector_L",
        "silent & detector_R",
    ):
        z = (whichway[label] / SHOTS - 0.25) / (0.25 * 0.75 / SHOTS) ** 0.5
        worst = max(worst, abs(z))
        assert abs(z) <= 3, (label, z)
    bomb = run_scenario(scenarios.bomb_tester(True), "ca", SHOTS, SEED).counts
    for label, p in (
        ("exploded", 0.5),
        ("safe & detector_L", 0.25),
        ("safe & detector_R", 0.25),
    ):
        z = (bomb[label] / SHOTS - p) / (p * (1 - p) / SHOTS) ** 0.5
        worst = max(worst, abs(z))
        assert abs(z) <= 3, (label, z)
    for kind in ("free_swap", "phase", "beamsplitter"):
        assert check_time_reversal(kind)
    assert not check_time_reversal("broken_oneway")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "9 wire automaton: deterministic ports, uniform frequencies",
        f"max |z| = {worst:.2f}, {elapsed:.1f} s",
    )


def test_10_locality_audit():
    from toyfield.montecarlo import (
        MeasurementEvent,
        RunRecord,
        audit_records,
        estimate,
        locality_audit,
    )

    start = time.perf_counter()
    ww_scenario = scenarios.mzi_whichway(DisturbanceKind.NONDESTRUCTIVE)
    whichway_plan = compile_toy(ww_scenario.program)
    eraser_plan = compile_toy(scenarios.quantum_eraser("P").program)
    ww_report = locality_audit(whichway_plan, SHOTS, SEED)
    er_report = locality_audit(eraser_plan, SHOTS, SEED)
    assert ww_report.clean and ww_report.runs == SHOTS
    assert er_report.clean and er_report.runs == SHOTS
    # Same documented seed and scale for the sampled frequencies themselves.
    frequencies = estimate(
        whichway_plan, SHOTS, SEED, labeler=ww_scenario.labeler
    )
    assert frequencies.max_abs_z() <= 3
    corrupt = RunRecord(
        0,
        0,
        (MeasurementEvent("which_way", "mode", 1, 1, 0, 0b0000, 0b0001),),
        {"which_way": 1},
    )
    assert not audit_records([corrupt], whichway_plan.shape).clean
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "10 measurements never move distant bits",
        f"{ww_report.events_checked + er_report.events_checked} events, {elapsed:.1f} s",
    )


def test_11_circuit_language():
    from toyfield.circuits import ParseError, joint_to_labeled

    # Round trip and canonical form.
    for scenario in scenarios.all_variants():
        assert parse(render(scenario.program)) == scenario.program
        text = render(scenario.program)
        assert render(parse(text)) == text
    # Error positions.
    with pytest.raises(ParseError) as err:
        parse("mode L R;\nsource L")
    assert (err.value.line, err.value.column) == (2, 9)
    with pytest.raises(ParseError) as err:
        parse("mode L R;\nmeasure N X as w;")
    assert err.value.line == 2 and "unknown identifier X" in str(err.value)
    # Every scenario runs identically from its serialized program text.
    for scenario in scenarios.all_variants():
        reparsed = parse(scenario.program_text())
        joint = run_toy_exact(compile_toy(reparsed))
        labeled = joint_to_labeled(joint, scenario.labeler)
        assert labeled == run_scenario(scenario, "toy").probs, scenario.key
    _report("11 circuit language round-trips and matches the scripted runs")
