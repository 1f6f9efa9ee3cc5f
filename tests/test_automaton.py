"""Wire-array engine: propagation, gate cells, locality, statistics."""

import json
import random
from pathlib import Path

import pytest

from toyfield.automaton import (
    CaPlan,
    CellGrid,
    WIRE_LENGTH,
    check_time_reversal,
    new_grid,
    plan_from_program,
    run_experiment,
    run_scenario_ca,
    run_single,
    step,
    trace_line,
)
from toyfield.circuits import CapabilityError
from toyfield.scenarios import (
    all_variants,
    bomb_tester,
    mzi_phase,
    mzi_whichway,
    run_scenario,
)
from toyfield.toy_dynamics import beamsplitter_formula
from toyfield.toy_measurement import DisturbanceKind

PLAIN = plan_from_program(mzi_phase(0).program)


def empty_grid(plan: CaPlan, t: int = 0) -> CellGrid:
    wires = {w: tuple((0, 0) for _ in range(WIRE_LENGTH)) for w in ("L", "R")}
    return CellGrid(t, wires, plan)


def with_cells(grid: CellGrid, assignments: dict[tuple[str, int], tuple[int, int]]) -> CellGrid:
    wires = {w: list(grid.wires[w]) for w in ("L", "R")}
    for (wire, label), state in assignments.items():
        wires[wire][label - 1] = state
    return CellGrid(grid.t, {w: tuple(c) for w, c in wires.items()}, grid.plan, grid.device_fired)


class TestPropagation:
    def test_excitation_walks_rightward(self):
        # Offset so the excitation sits at cell 1 right after injection;
        # successive transitions carry it one cell per step.
        rng = random.Random(0)
        grid = empty_grid(PLAIN)
        grid = step(grid, rng)  # source fires on the first transition
        assert grid.cell("L", 1).state.n == 1
        for expected in (2, 3, 4):
            grid = step(grid, rng)
            assert grid.occupied_cells() == [f"L{expected}"]

    def test_vacuum_stays_vacuum(self):
        plan = CaPlan(None, {"L": "dl", "R": "dr"}, inject_step=-2)  # never fires
        rng = random.Random(1)
        grid = new_grid(plan, rng)
        phases = set()
        for _ in range(12):
            grid = step(grid, rng)
            assert grid.occupied_cells() == []
            phases.add(grid.wires["L"][4])
        assert {n for n, _ in phases} == {0}

    def test_splitter_cells_apply_the_update(self):
        rng = random.Random(2)
        grid = empty_grid(PLAIN, t=4)
        grid = with_cells(grid, {("L", 4): (1, 1), ("R", 4): (0, 1)})
        out = step(grid, rng)
        n_l, phi_l, n_r, phi_r = beamsplitter_formula(1, 1, 0, 1)
        assert out.wires["L"][4] == (n_l, phi_l)
        assert out.wires["R"][4] == (n_r, phi_r)

    def test_splitter_cells_pass_vacuum_through(self):
        rng = random.Random(3)
        grid = empty_grid(PLAIN, t=4)
        grid = with_cells(grid, {("L", 4): (0, 1), ("R", 4): (0, 0)})
        out = step(grid, rng)
        assert out.wires["L"][4] == (0, 1)
        assert out.wires["R"][4] == (0, 0)

    def test_trace_format(self):
        rng = random.Random(4)
        grid = new_grid(PLAIN, rng)
        line = trace_line(grid)
        assert line.startswith("t= 0 occupied=[") and "phases L=" in line


class TestSchedule:
    def test_default_schedule_valid(self):
        PLAIN.validate_schedule()

    def test_odd_injection_rejected(self):
        from toyfield.circuits import CapabilityError

        with pytest.raises(CapabilityError):
            CaPlan(None, {"L": "dl", "R": "dr"}, inject_step=1).validate_schedule()

    def test_arrival_times_hit_even_steps(self):
        for position in (4, 8, 12, 16):
            assert PLAIN.arrival_step(position) % 2 == 0


class TestSingleRuns:
    def test_phase_zero_always_left(self):
        for seed in range(40):
            events = run_single(PLAIN, random.Random(seed))
            assert events == {"detector_L": 1, "detector_R": 0}

    def test_phase_pi_always_right(self):
        plan = plan_from_program(mzi_phase(1).program)
        for seed in range(40):
            events = run_single(plan, random.Random(seed))
            assert events == {"detector_L": 0, "detector_R": 1}

    def test_whichway_all_joint_outcomes_occur(self):
        plan = plan_from_program(
            mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program
        )
        seen = set()
        for seed in range(200):
            events = run_single(plan, random.Random(seed))
            assert events["detector_L"] ^ events["detector_R"] == 1
            seen.add((events["which_way"], events["detector_L"]))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_bomb_explosion_absorbs_excitation(self):
        plan = plan_from_program(bomb_tester(True).program)
        for seed in range(200):
            events = run_single(plan, random.Random(seed))
            if events["trigger"]:
                assert events["detector_L"] == 0 and events["detector_R"] == 0

    def test_occupation_conserved_between_devices(self):
        # Between the source event and the port sink, exactly one excitation
        # lives on the wires (the bomb's absorption removes it).
        rng = random.Random(11)
        grid = new_grid(PLAIN, rng)
        for _ in range(16):
            grid = step(grid, rng)
            total = sum(n for w in ("L", "R") for n, _ in grid.wires[w])
            assert total == 1


class TestLocalityByConstruction:
    def test_outside_flip_never_changes_group(self):
        # Flip a cell far from the splitter group; the group's next state
        # is bit-identical because maps see only their own group.
        base = empty_grid(PLAIN, t=4)
        base = with_cells(base, {("L", 4): (1, 0), ("R", 4): (0, 1)})
        poked = with_cells(base, {("L", 10): (0, 1), ("R", 15): (0, 1)})
        out_a = step(base, random.Random(5))
        out_b = step(poked, random.Random(5))
        for wire in ("L", "R"):
            for label in (4, 5):
                assert out_a.wires[wire][label - 1] == out_b.wires[wire][label - 1]


class TestTimeReversal:
    @pytest.mark.parametrize("kind", ["free_swap", "phase", "beamsplitter"])
    def test_deterministic_maps_are_symmetric(self, kind):
        assert check_time_reversal(kind)

    def test_negative_control(self):
        assert not check_time_reversal("broken_oneway")


class TestRuleTable:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_groups_partition_the_grid(self, parity):
        from toyfield.automaton import layout_bindings

        every_cell = {f"{w}{i}" for w in ("L", "R") for i in range(1, WIRE_LENGTH + 1)}
        seen: list[str] = []
        for binding in layout_bindings(PLAIN):
            if binding.parity == parity:
                seen.extend(binding.cells)
        assert sorted(seen) == sorted(every_cell)

    def test_device_binding_reflects_plan(self):
        from toyfield.automaton import layout_bindings

        plan = plan_from_program(
            mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program
        )
        kinds = {b.cells: b.kind for b in layout_bindings(plan)}
        assert kinds[("R8", "R9")] == "detector"
        assert kinds[("L8", "L9")] == "free_swap"
        assert kinds[("L4", "R4", "L5", "R5")] == "beamsplitter"


class TestBatchRunner:
    def test_deterministic_scenarios(self):
        counts = run_scenario_ca(mzi_phase(0), shots=5000, seed=11)
        assert counts == {"detector_L": 5000}
        counts = run_scenario_ca(mzi_phase(1), shots=5000, seed=11)
        assert counts == {"detector_R": 5000}

    def test_whichway_frequencies(self):
        shots = 40000
        counts = run_scenario_ca(
            mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), shots=shots, seed=11
        )
        assert set(counts) == {
            "fired & detector_L",
            "fired & detector_R",
            "silent & detector_L",
            "silent & detector_R",
        }
        for label, count in counts.items():
            z = (count / shots - 0.25) / (0.25 * 0.75 / shots) ** 0.5
            assert abs(z) < 4, (label, z)

    def test_bomb_frequencies(self):
        shots = 40000
        counts = run_scenario_ca(bomb_tester(True), shots=shots, seed=11)
        z = (counts["exploded"] / shots - 0.5) / (0.25 / shots) ** 0.5
        assert abs(z) < 4

    def test_seed_determinism(self):
        a = run_scenario_ca(bomb_tester(True), shots=2000, seed=9)
        b = run_scenario_ca(bomb_tester(True), shots=2000, seed=9)
        assert a == b

    def test_scalar_and_batch_agree_on_deterministic_runs(self):
        plan = plan_from_program(mzi_phase(1).program)
        scalar = [run_single(plan, random.Random(s)) for s in range(20)]
        assert all(ev == {"detector_L": 0, "detector_R": 1} for ev in scalar)
        batch = run_experiment(
            plan, 20, 3, lambda ev: "R" if ev["detector_R"] else "L"
        )
        assert batch == {"R": 20}

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            run_experiment(PLAIN, 0, 1, lambda ev: "x")


# Seeded outputs of the wire automaton, captured before its block rule was
# folded into one transition function; they pin every draw of both RNGs.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "ca_counts.json").read_text(encoding="utf-8")
)


def _hostable():
    hosted = []
    for scenario in all_variants():
        try:
            hosted.append((scenario, plan_from_program(scenario.program)))
        except CapabilityError:
            pass
    return hosted


HOSTABLE = _hostable()
HOSTABLE_IDS = [scenario.key for scenario, _ in HOSTABLE]


class TestGolden:
    def test_covers_every_hostable_variant(self):
        keys = {scenario.key for scenario, _ in HOSTABLE}
        assert keys == set(GOLDEN["run_experiment"]) == set(GOLDEN["run_single"])

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_batch_counts(self, scenario, plan):
        expected = GOLDEN["run_experiment"][scenario.key]
        for seed, counts in enumerate(expected):
            assert run_experiment(plan, GOLDEN["shots"], seed, scenario.labeler) == counts

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_single_events(self, scenario, plan):
        expected = GOLDEN["run_single"][scenario.key]
        assert [run_single(plan, random.Random(s)) for s in range(len(expected))] == expected

    def test_whichway_trace(self):
        plan = plan_from_program(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
        trace: list[str] = []
        run_single(plan, random.Random(0), trace)
        assert trace == GOLDEN["trace_mzi_whichway_seed0"]


class TestAgainstExactReference:
    SHOTS = 20000
    SEED = 7

    def test_hostable_variant_count(self):
        assert len(HOSTABLE) == 12

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_frequencies_match_quantum(self, scenario, plan):
        counts = run_scenario_ca(scenario, self.SHOTS, self.SEED)
        exact = run_scenario(scenario, "quantum").probs
        assert set(counts) <= {label for label, p in exact.items() if p}
        for label, p in exact.items():
            count = counts.get(label, 0)
            if p in (0, 1):
                assert count == p * self.SHOTS, label
                continue
            z = (count / self.SHOTS - p) / (p * (1 - p) / self.SHOTS) ** 0.5
            assert abs(z) <= 4, (label, float(z))
