"""Sampled runs: reproducibility, frequency reports, locality audit."""

import json

import pytest

from toyfield.circuits import compile_toy, enumerate_toy_runs, run_toy_exact
from toyfield.montecarlo import (
    MeasurementEvent,
    RunRecord,
    audit_records,
    derive_seed,
    estimate,
    locality_audit,
    sample_run,
)
from toyfield.scenarios import (
    all_variants,
    mzi_phase,
    mzi_whichway,
    quantum_eraser,
)
from toyfield.toy_measurement import DisturbanceKind

WW = compile_toy(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
PHASE0 = compile_toy(mzi_phase(0).program)
ERASER = compile_toy(quantum_eraser("P").program)


class TestSampleRun:
    def test_deterministic_plan_always_lands_left(self):
        for seed in range(50):
            record = sample_run(PHASE0, seed)
            assert record.outcome == {"detector_L": 1, "detector_R": 0}

    def test_all_whichway_outcomes_reachable(self):
        seen = set()
        for seed in range(300):
            record = sample_run(WW, seed)
            seen.add((record.outcome["which_way"], record.outcome["detector_L"]))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_fixed_seed_replays_bit_for_bit(self):
        a = sample_run(ERASER, 1234)
        b = sample_run(ERASER, 1234)
        assert a == b

    def test_initial_state_drawn_from_support(self):
        for seed in range(20):
            record = sample_run(WW, seed)
            assert record.initial_state in WW.initial.support

    def test_events_capture_coins_and_states(self):
        record = sample_run(WW, 7)
        assert [e.label for e in record.events] == ["which_way", "detector_L", "detector_R"]
        for event in record.events:
            assert event.coin in (0, 1)
            assert event.value in (0, 1)


class TestEnumerationIdentity:
    @pytest.mark.parametrize(
        "scenario",
        list(all_variants()),
        ids=lambda s: s.key,
    )
    def test_exhaustive_average_equals_exact(self, scenario):
        plan = compile_toy(scenario.program)
        assert enumerate_toy_runs(plan) == run_toy_exact(plan)


class TestEstimate:
    def test_deterministic_plan_has_zero_distance(self):
        report = estimate(PHASE0, shots=500, seed=3)
        assert report.tv_distance == 0
        assert report.max_abs_z() == 0

    def test_whichway_within_three_sigma(self):
        report = estimate(WW, shots=20000, seed=7)
        assert report.max_abs_z() <= 3

    def test_counts_sum_to_shots(self):
        report = estimate(WW, shots=1000, seed=5)
        assert sum(report.counts.values()) == 1000

    def test_json_schema(self):
        report = estimate(PHASE0, shots=100, seed=1, scenario="phase0")
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "scenario", "shots", "seed", "counts", "exact", "z_scores", "tv_distance",
        }
        assert payload["exact"]["detector_L=1 detector_R=0"] == "1"

    def test_seed_determinism(self):
        a = estimate(WW, shots=400, seed=11)
        b = estimate(WW, shots=400, seed=11)
        assert a.counts == b.counts

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            estimate(WW, shots=0, seed=1)

    def test_child_seeds_differ(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_tv_distance_bound_on_every_scenario(self):
        # Loose union bound: the empirical distribution sits within
        # 4 * sqrt(k / shots) of the exact one for k outcome labels.
        from toyfield.scenarios import all_variants

        shots = 4000
        for scenario in all_variants():
            plan = compile_toy(scenario.program)
            report = estimate(
                plan, shots=shots, seed=7, labeler=scenario.labeler,
                scenario=scenario.key,
            )
            k = len(report.exact)
            assert report.tv_distance < 4 * (k / shots) ** 0.5, scenario.key


class TestLocalityAudit:
    def test_whichway_plan_clean(self):
        report = locality_audit(WW, shots=5000, seed=7)
        assert report.clean
        assert report.runs == 5000
        assert report.events_checked == 15000

    def test_eraser_plan_clean(self):
        report = locality_audit(ERASER, shots=5000, seed=7)
        assert report.clean

    def test_injected_fault_detected(self):
        # A fabricated record whose measurement flipped a distant bit.
        corrupt = RunRecord(
            seed=0,
            initial_state=0,
            events=(
                MeasurementEvent(
                    label="which_way",
                    target_kind="mode",
                    target=1,
                    value=1,
                    coin=0,
                    state_before=0b0000,
                    state_after=0b0010,  # left mode's phase bit moved
                ),
            ),
            outcome={"which_way": 1},
        )
        report = audit_records([corrupt], WW.shape)
        assert not report.clean
        assert report.violations[0].changed_bits == 0b0010

    def test_own_subsystem_changes_allowed(self):
        fine = RunRecord(
            seed=0,
            initial_state=0,
            events=(
                MeasurementEvent(
                    label="which_way",
                    target_kind="mode",
                    target=1,
                    value=0,
                    coin=1,
                    state_before=0b0000,
                    state_after=0b1000,  # measured mode's own phase bit
                ),
            ),
            outcome={"which_way": 0},
        )
        assert audit_records([fine], WW.shape).clean
