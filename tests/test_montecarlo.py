"""Sampled runs: reproducibility, frequency reports, locality audit."""

import collections
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import toyfield
from toyfield import automaton, circuits, montecarlo
from toyfield.circuits import (
    CapabilityError,
    GateStep,
    compile_toy,
    default_labeler,
    parse,
    render,
    run_toy_exact,
)
from toyfield.montecarlo import (
    MeasurementEvent,
    RunRecord,
    audit_records,
    derive_seed,
    estimate,
    exact_law,
    locality_audit,
    sample_run,
)
from toyfield.phase_space import is_valid
from scalar_reference import step_run_index
from toyfield.scenarios import (
    Scenario,
    all_variants,
    bomb_tester,
    mzi_phase,
    mzi_whichway,
    quantum_eraser,
    run_scenario,
)
from toyfield.toy_dynamics import gate_table, push_forward
from toyfield.toy_measurement import DisturbanceKind, measurement_kernel

from test_quantum_exact import random_program

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
        assert exact_law(plan) == run_toy_exact(plan)


def stays_valid(plan) -> bool:
    """Whether every branch state of the plan's exact toy run is valid."""
    stepped = circuits.branches([((1, 1), plan.initial, {})], plan.steps,
                                push_forward, circuits.toy_measure)
    return is_valid(plan.initial) and all(
        is_valid(state) for _, branches in stepped for _, state, _ in branches
    )


class TestExactLaw:
    def test_equals_the_exact_run_while_states_stay_valid(self):
        rng = random.Random(7)
        plans = [compile_toy(parse(random_program(rng))) for _ in range(1000)]
        valid = [plan for plan in plans if stays_valid(plan)]
        assert len(valid) == 922
        for plan in valid:
            assert exact_law(plan) == run_toy_exact(plan), render(plan.program)

    def test_a_state_outside_the_valid_states_splits_them(self):
        # a known difference outside the valid states (no validity guard yet):
        # the runs the sampler can make give 1/4 and 3/4, the exact run 1/3 and 2/3
        plan = compile_toy(parse(
            "mode L R E; source L; vacuum R; bs L R; bs L E; bs R L; "
            "detect L as dl; detect R as dr;"
        ))
        assert not stays_valid(plan)
        assert exact_law(plan) == {
            (("dl", 0), ("dr", 0)): Fraction(1, 4), (("dl", 0), ("dr", 1)): Fraction(3, 4)
        }
        assert run_toy_exact(plan) == {
            (("dl", 0), ("dr", 0)): Fraction(1, 3), (("dl", 0), ("dr", 1)): Fraction(2, 3)
        }

    def test_no_measurement_is_one_empty_record(self):
        assert exact_law(compile_toy(parse("mode L R; source L; bs L R;"))) == {(): 1}

    def test_more_than_16_bits_are_refused(self):
        # 1 support bit plus one coin per detection, all but the last read
        def detections(n):
            return compile_toy(parse("mode m; source m;" + "".join(
                f" detect m as d{i};" for i in range(n))))

        ones = tuple(sorted((f"d{i}", 1) for i in range(16)))
        assert exact_law(detections(16)) == {ones: 1} == run_toy_exact(detections(16))
        with pytest.raises(CapabilityError, match="reads 18 random bits; .* at most 16"):
            exact_law(detections(18))


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

    def test_seed_determinism(self):
        a = estimate(WW, shots=400, seed=11)
        b = estimate(WW, shots=400, seed=11)
        assert a.counts == b.counts

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            estimate(WW, shots=0, seed=1)

    def test_master_seeds_get_distinct_keys(self):
        keys = {derive_seed(master) for master in range(1000)}
        keys.add(derive_seed(2**200))  # wider than the key itself
        assert len(keys) == 1001
        assert all(0 <= key < 2**128 for key in keys)

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

    @pytest.mark.parametrize("shots", [0, -5])
    def test_no_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots must be positive"):
            locality_audit(WW, shots=shots, seed=7)

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


# Seeded Monte Carlo outputs captured when runs moved to counter-based Philox
# draws; they pin every draw and every state transition.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "mc_runs.json").read_text(encoding="utf-8")
)
RECORDED = {
    s.key: s
    for s in (
        mzi_whichway(DisturbanceKind.NONDESTRUCTIVE),
        mzi_whichway(DisturbanceKind.DESTRUCTIVE),
        quantum_eraser("Q"),
        quantum_eraser("P"),
        bomb_tester(functional=True),
    )
}


def field_dict(value):
    """A record as a dict of its fields, read field by field into nested
    records, tuples and dicts."""
    if hasattr(type(value), "_fields"):
        return {name: field_dict(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return [field_dict(v) for v in value]
    if isinstance(value, dict):
        return {k: field_dict(v) for k, v in value.items()}
    return value


class TestGolden:
    def test_covers_every_variant(self):
        assert set(GOLDEN["estimate"]) == {s.key for s in all_variants()}
        assert set(GOLDEN["sample_run"]) == set(RECORDED)

    @pytest.mark.parametrize("scenario", list(all_variants()), ids=lambda s: s.key)
    def test_estimate_counts(self, scenario):
        plan = compile_toy(scenario.program)
        for seed, counts in enumerate(GOLDEN["estimate"][scenario.key]):
            report = estimate(plan, GOLDEN["shots"], seed, labeler=scenario.labeler)
            assert report.counts == counts

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_run_records(self, key):
        plan = compile_toy(RECORDED[key].program)
        expected = GOLDEN["sample_run"][key]
        records = [field_dict(sample_run(plan, s)) for s in range(len(expected))]
        assert json.loads(json.dumps(records)) == expected


# Seventy labels, past the 64 of one word and over three groups of 32: d00
# and its 68 repeats agree, and d69 is drawn afresh after a second splitter.
SEVENTY = Scenario("seventy_detects", (), parse(
    "mode L R; source L; vacuum R; bs L R;"
    + "".join(f"detect L as d{i:02d};" for i in range(69)) + "bs L R; detect L as d69;"
), default_labeler)


class TestBatchOracle:
    """The column kernel against the scalar per-point rules, draw for draw."""

    SHOTS = 200
    SEED = 3

    def batch(self, plan):
        (batch,) = montecarlo._shot_columns(plan, self.SEED, self.SHOTS)
        return batch

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_scalar_replay_of_every_record(self, key):
        plan = compile_toy(RECORDED[key].program)
        batch = self.batch(plan)
        for lane in range(self.SHOTS):
            record = batch.record(lane)
            assert record.initial_state in plan.initial.support
            state, events, outcome = record.initial_state, iter(record.events), {}
            for step in plan.steps:
                if isinstance(step, GateStep):
                    state = gate_table(step.gate, plan.shape)[state]
                    continue
                event = next(events)
                assert event.state_before == state
                value, state = step_run_index(state, plan.shape, step, event.coin)
                assert (event.value, event.state_after) == (value, state)
                outcome[step.label] = value
            assert record.outcome == outcome

    @pytest.mark.parametrize("key", sorted(RECORDED))
    def test_sample_run_is_a_row_of_the_batch(self, key):
        plan = compile_toy(RECORDED[key].program)
        batch = self.batch(plan)
        for shot in range(self.SHOTS):
            assert sample_run(plan, self.SEED, shot) == batch.record(shot)

    @pytest.mark.parametrize("key", [*sorted(RECORDED), SEVENTY.key])
    def test_tally_of_sample_runs_is_estimate(self, key):
        scenario = {**RECORDED, SEVENTY.key: SEVENTY}[key]
        plan = compile_toy(scenario.program)
        tally = collections.Counter(
            scenario.labeler(sample_run(plan, 5, shot).outcome) for shot in range(300)
        )
        counts = estimate(plan, 300, 5, labeler=scenario.labeler).counts
        assert counts == dict(tally)
        assert all(type(count) is int for count in counts.values())

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_changes_nothing(self, chunk, monkeypatch):
        hostable = []  # the wire automaton's plans, which chunk by the same constant
        for s in all_variants():
            try:
                hostable.append((s, automaton.plan_from_program(s.program)))
            except CapabilityError:
                pass

        def results():
            return [
                (estimate(compile_toy(s.program), 50, 2, labeler=s.labeler).counts,
                 locality_audit(compile_toy(s.program), 50, 2))
                for s in RECORDED.values()
            ] + [automaton.run_experiment(plan, 50, 2, s.labeler) for s, plan in hostable]

        expected = results()
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk)
        assert results() == expected

    def test_draws_follow_the_documented_layout(self):
        # 1 support bit plus 300 coins: two Philox blocks per shot.
        text = "mode m;\nsource m;\n" + "".join(f"detect m as d{i};\n" for i in range(300))
        plan = compile_toy(parse(text))
        support = sorted(plan.initial.support)
        k = len(support).bit_length() - 1
        key = derive_seed(11)
        for shot in (0, 5, 2**40):
            bits = 0
            for block in range(2):
                words = np.random.Philox(key=key, counter=shot + (block << 64)).random_raw(4)
                for w, word in enumerate(words.tolist()):
                    bits |= word << (256 * block + 64 * w)
            record = sample_run(plan, 11, shot)
            assert record.initial_state == support[bits & ((1 << k) - 1)]
            assert [e.coin for e in record.events] == [(bits >> (k + i)) & 1 for i in range(300)]

    @pytest.mark.parametrize("detections, words", [(0, 1), (63, 1), (64, 2), (300, 5)])
    def test_copies_only_the_words_read(self, monkeypatch, detections, words):
        # 1 support bit plus one coin per detection.
        text = "mode m;\nsource m;\n" + "".join(f"detect m as d{i};\n" for i in range(detections))
        asked = []
        shot_words = montecarlo._shot_words

        def spy(key, first, shots, count):
            asked.append(count)
            return shot_words(key, first, shots, count)

        monkeypatch.setattr(montecarlo, "_shot_words", spy)
        sample_run(compile_toy(parse(text)), 11, 3)
        assert asked == [words]

    def test_fewer_words_are_a_prefix_of_more(self):
        key = derive_seed(11)
        whole = montecarlo._shot_words(key, 3, 10, 8)
        for count in range(1, 8):
            assert np.array_equal(montecarlo._shot_words(key, 3, 10, count), whole[:count])

    def test_violation_replays_from_seed_and_shot(self, monkeypatch):
        def leaky(variable, index, modes, ancillas, destructive=False):
            read, keep, flip = measurement_kernel(variable, index, modes, ancillas, destructive)
            return read, keep, (flip + 2) % (2 * (modes + ancillas))  # a neighbour's bit

        monkeypatch.setattr(montecarlo, "measurement_kernel", leaky)
        report = locality_audit(WW, shots=50, seed=9)
        assert {v.event.label for v in report.violations} == set(WW.program.labels())
        for violation in report.violations:
            read = 2 * violation.event.target  # WW measures occupations only
            assert violation.changed_bits == 1 << (read + 3) % 4
            replay = sample_run(WW, violation.seed, violation.shot)
            assert violation.event in replay.events


def lane_per_shot_counts(plan, shots, seed):
    """Default-labelled counts read row by row off one lane per shot,
    labelled in ascending code order (bit ``j`` of a code is event ``j``)."""
    rows = collections.Counter()
    for batch in montecarlo._shot_columns(plan, seed, shots):
        rows.update(zip(*(e.value.tolist() for e in batch.events)) if batch.events
                    else [()] * batch.runs)
    counts: dict[str, int] = {}
    for row in sorted(rows, key=lambda row: sum(bit << j for j, bit in enumerate(row))):
        label = default_labeler(dict(zip(plan.program.labels(), row)))
        counts[label] = counts.get(label, 0) + rows[row]
    return counts


def spy_tally(monkeypatch, home):
    """Log the plan setup a sampled call makes, ``_index_runs`` and the
    ``_pattern_table`` that ``home`` calls, and the ``(first, shots,
    block)`` of every Philox block it draws."""
    made, drawn = [], []

    def wrap(module, name, log, entry):
        real = getattr(module, name)

        def spy(*args):
            log.append(entry(*args))
            return real(*args)

        monkeypatch.setattr(module, name, spy)

    wrap(montecarlo, "_index_runs", made, lambda *args: "_index_runs")
    wrap(home, "_pattern_table", made, lambda *args: "_pattern_table")
    wrap(montecarlo, "_block", drawn, lambda key, first, shots, block=0: (first, shots, block))
    return made, drawn


class TestPatternLanes:
    """Counts from one lane per bit pattern, weighted by the shots that drew
    it, against one lane per shot."""

    @staticmethod
    def spy_lanes(monkeypatch):
        lanes = []
        real = montecarlo._lanes

        def spy(support, ops, words):
            lanes.append(words.shape[1])
            return real(support, ops, words)

        monkeypatch.setattr(montecarlo, "_lanes", spy)
        return lanes

    def test_random_programs(self, monkeypatch):
        lanes = self.spy_lanes(monkeypatch)
        rng = random.Random(13)
        for seed in range(200):
            plan = compile_toy(parse(random_program(rng)))
            support, _, bits = montecarlo._kernel(plan)
            width = montecarlo._outcome_bits(support, bits)
            assert width == bits - bool(plan.program.labels())  # all but the last coin
            assert width <= montecarlo._PATTERN_BITS
            del lanes[:]
            counts = montecarlo.run_experiment(plan, 500, seed)
            assert lanes == [1 << width]
            assert counts == lane_per_shot_counts(plan, 500, seed)

    def test_chunks_shorter_than_the_patterns_read_them_too(self, monkeypatch):
        plan = fresh_plan(bomb_tester(functional=True))
        assert montecarlo._kernel(plan)[2] == 5  # 16 patterns of the 4 bits an outcome reads
        expected = lane_per_shot_counts(plan, 100, 4)
        lanes = self.spy_lanes(monkeypatch)
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 8)
        assert montecarlo.run_experiment(plan, 100, 4) == expected
        assert lanes == [16]  # the patterns once, for twelve chunks of 8 and one of 4
        del lanes[:]
        assert montecarlo.run_experiment(plan, 100, 4) == expected
        assert lanes == []  # the plan holds the patterns now

    def test_more_than_16_bits_run_one_lane_per_shot(self, monkeypatch):
        # 1 support bit plus 18 coins: the outcome reads 18 bits
        plan = compile_toy(parse("mode m; source m;" + "".join(
            f" detect m as d{i};" for i in range(18))))
        expected = lane_per_shot_counts(plan, 100, 4)
        lanes = self.spy_lanes(monkeypatch)
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 32)
        assert montecarlo.run_experiment(plan, 100, 4) == expected
        assert lanes == [32, 32, 32, 4]
        assert "patterns" not in vars(plan)

    def test_bulk_call_advances_only_the_patterns(self, monkeypatch):
        scenario = bomb_tester(functional=True)
        plan = fresh_plan(scenario)
        lanes = self.spy_lanes(monkeypatch)
        counts = montecarlo.run_experiment(plan, 20_000, 9, scenario.labeler)
        assert sum(counts.values()) == 20_000
        assert lanes == [1 << montecarlo._kernel(plan)[2] - 1]

    @pytest.mark.parametrize("shots", [1, 65_536, 65_537])  # one chunk, a full one, two
    @pytest.mark.parametrize("scenario", [*RECORDED.values(), SEVENTY], ids=lambda s: s.key)
    def test_counts_are_ints_in_code_order(self, scenario, shots):
        # SEVENTY's outcome reads more bits than a pattern table holds
        plan = compile_toy(scenario.program)
        counts = montecarlo.run_experiment(plan, shots, 3)
        assert list(counts.items()) == list(lane_per_shot_counts(plan, shots, 3).items())
        assert all(type(count) is int for count in counts.values())
        assert sum(counts.values()) == shots

    @pytest.mark.parametrize("detections", [63, 64])
    def test_last_coin_on_a_word_boundary(self, detections):
        # 1 support bit plus one coin per detection: with 64 the last coin,
        # which no outcome reads, is bit 0 of word 1, still drawn per shot.
        text = "mode m;\nsource m;\n" + "".join(f"detect m as d{i};\n" for i in range(detections))
        plan = compile_toy(parse(text))
        assert montecarlo.run_experiment(plan, 300, 2) == lane_per_shot_counts(plan, 300, 2)


def fresh_plan(scenario):
    """A plan of the scenario's text that no earlier call has cached into."""
    return compile_toy(parse(scenario.program_text()))


class TestPlanCache:
    """What depends only on the plan is made once per plan object."""

    SHOTS = (1, 7, 10**3, 2 * 10**4, 70_001)
    SEEDS = (0, 5, 2**70)

    @staticmethod
    def items(plan, shots, seed, labeler):
        return list(montecarlo.run_experiment(plan, shots, seed, labeler).items())

    def test_compile_toy_is_cached_on_the_program(self):
        program = bomb_tester(functional=True).program
        assert compile_toy(program) is compile_toy(program)
        fresh = parse(render(program))
        assert compile_toy(fresh) is not compile_toy(program)
        assert compile_toy(fresh) == compile_toy(program)

    @pytest.mark.parametrize("scenario", list(all_variants()), ids=lambda s: s.key)
    def test_cached_and_fresh_plans_count_alike(self, scenario):
        cached = compile_toy(scenario.program)
        for shots in self.SHOTS:
            for seed in self.SEEDS:
                expected = self.items(fresh_plan(scenario), shots, seed, scenario.labeler)
                assert self.items(cached, shots, seed, scenario.labeler) == expected
                assert self.items(cached, shots, seed, scenario.labeler) == expected
        assert "column_kernel" in vars(cached) and "patterns" in vars(cached)

    def test_a_second_call_does_only_seed_dependent_work(self, monkeypatch):
        made, drawn = spy_tally(monkeypatch, montecarlo)
        plan = fresh_plan(bomb_tester(functional=True))
        for seed in (1, 2):
            del drawn[:]
            assert sum(montecarlo.run_experiment(plan, 65_537, seed).values()) == 65_537
            assert drawn == [(0, 65_536, 0), (65_536, 1, 0)]  # its one block, once per chunk
        assert made == ["_pattern_table", "_index_runs"]  # by the first call alone

    @pytest.mark.parametrize("chunk", [6, 20])
    def test_chunk_size_after_caching_changes_nothing(self, chunk, monkeypatch):
        variants = list(all_variants())
        shots = (1, 7, 10**3)

        def results(plan_of):
            return [self.items(plan_of(s), n, seed, s.labeler)
                    for s in variants for n in shots for seed in self.SEEDS]

        expected = results(lambda s: compile_toy(s.program))  # caches every table
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk)
        cached = results(lambda s: compile_toy(s.program))
        assert cached == results(fresh_plan)
        assert cached == expected  # items, in order, at every chunk size

    def test_cached_arrays_are_read_only(self):
        plan = fresh_plan(bomb_tester(functional=True))
        montecarlo.run_experiment(plan, 100, 1)
        support, ops, _ = plan.column_kernel
        labels, codes, ids = plan.patterns
        deltas = [op[3] for op in ops if isinstance(op[0], GateStep)]
        assert deltas and isinstance(codes, tuple) and isinstance(labels, tuple)
        for array in (support, *deltas, ids):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_audit_builds_its_own_kernel(self, monkeypatch):
        def leaky(variable, index, modes, ancillas, destructive=False):
            read, keep, flip = measurement_kernel(variable, index, modes, ancillas, destructive)
            return read, keep, (flip + 2) % (2 * (modes + ancillas))  # a neighbour's bit

        plan = fresh_plan(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE))
        montecarlo.run_experiment(plan, 100, 9)  # the plan caches its kernel
        monkeypatch.setattr(montecarlo, "measurement_kernel", leaky)
        violations = locality_audit(plan, 50, 9).violations
        assert {v.event.label for v in violations} == set(plan.program.labels())


class TestGenerator:
    """Each thread reuses one Philox generator, moved to each call's counter."""

    @staticmethod
    def fresh_words(key, first, shots, words):
        rows = []
        for block in range(-(-words // 4)):
            raw = np.random.Philox(key=key, counter=first + (block << 64)).random_raw(4 * shots)
            rows.extend(raw.reshape(shots, 4).T)
        return np.array(rows[:words], dtype=np.uint64).reshape(words, shots)

    def test_interleaved_calls_match_fresh_generators(self):
        keys = (derive_seed(0), derive_seed(2**70), 0, 2**128 - 1)
        rng = random.Random(3)
        for _ in range(60):
            key, first = rng.choice(keys), rng.choice((0, 1, 7, 2**40, 2**64 - 9))
            words, shots = rng.choice((1, 4, 5, 8)), rng.choice((1, 3, 9))
            drawn = montecarlo._shot_words(key, first, shots, words)
            assert np.array_equal(drawn, self.fresh_words(key, first, shots, words))

    def test_a_partly_read_generator_leaves_no_buffered_words(self):
        key = derive_seed(4)
        first = montecarlo._block(key, 0, 1)
        montecarlo._PHILOX.generator.random_raw(1)  # three words of the block stay buffered
        assert np.array_equal(montecarlo._block(key, 0, 1), first)

    def test_threads_count_as_a_serial_loop(self):
        from concurrent.futures import ThreadPoolExecutor

        calls = [(s, shots, seed) for s in list(all_variants())[:8]
                 for shots, seed in ((7, 1), (1000, 2), (20_000, 2**70))]

        def run(call):
            s, shots, seed = call
            return list(montecarlo.run_experiment(fresh_plan(s), shots, seed, s.labeler).items())

        serial = [run(call) for call in calls]
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(run, calls * 3)) == serial * 3


class TestShotRange:
    """Shot numbers are the counter's first 64-bit word."""

    LONG = compile_toy(parse(
        "mode m;\nsource m;\n" + "".join(f"detect m as d{i};\n" for i in range(300))
    ))

    @pytest.mark.parametrize("shot", [-1, 2**64, 2**70])
    def test_outside_refused(self, shot):
        with pytest.raises(ValueError, match=f"shot {shot} is outside the shot range"):
            sample_run(self.LONG, 11, shot)

    def test_last_shot_reads_its_own_second_block(self):
        # 1 support bit, then coins: coin 255 on is block 1, at counter (2^64 - 1, 1, 0, 0).
        shot = 2**64 - 1
        words = np.random.Philox(key=derive_seed(11), counter=shot + (1 << 64)).random_raw(4)
        block = sum(word << (64 * w) for w, word in enumerate(words.tolist()))
        coins = [e.coin for e in sample_run(self.LONG, 11, shot).events]
        assert coins[255:] == [(block >> i) & 1 for i in range(45)]

    def test_more_shots_than_counters_are_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a shot")

        monkeypatch.setattr(montecarlo, "_block", no_draw)  # both engines draw through it
        scenario = bomb_tester(functional=True)
        plan = compile_toy(scenario.program)
        wires = automaton.plan_from_program(scenario.program)
        for run in (
            lambda shots: montecarlo.run_experiment(plan, shots, 1),
            lambda shots: locality_audit(plan, shots, 1),
            lambda shots: automaton.run_experiment(wires, shots, 1, scenario.labeler),
        ):
            with pytest.raises(ValueError, match=r"at most 2\*\*64"):
                run(2**64 + 1)
            with pytest.raises(AssertionError, match="drew a shot"):
                run(2**64)  # admitted: every shot number is below 2**64

    def test_the_wire_automaton_draws_through_the_check(self):
        plan = automaton.plan_from_program(mzi_phase(0).program)
        with pytest.raises(ValueError, match="shot -1 is outside the shot range"):
            automaton.run_single(plan, 3, -1)


def test_estimate_on_ten_modes_builds_no_gate_table():
    # Five interferometers; the first and fourth are open, so four outcomes.
    lines = ["mode " + " ".join(f"m{k}" for k in range(10)) + ";"]
    for pair in range(5):
        a, b = f"m{2 * pair}", f"m{2 * pair + 1}"
        lines += [f"source {a};", f"vacuum {b};", f"bs {a} {b};"]
        if pair % 3:
            lines += [f"phase {b} {'pi' if pair % 2 else '0'};", f"bs {a} {b};"]
    lines += [f"detect m{k} as d{k};" for k in range(10)]
    misses = gate_table.cache_info().misses
    report = estimate(compile_toy(parse("\n".join(lines))), shots=4000, seed=7)
    assert gate_table.cache_info().misses == misses
    assert len(report.exact) == 4
    assert report.max_abs_z() <= 3


def test_sampled_runs_compute_no_exact_reference(monkeypatch, capsys, tmp_path):
    from toyfield.cli import main

    def refuse(plan):
        raise AssertionError("an exact reference was computed")

    monkeypatch.setattr(circuits, "run_toy_exact", refuse)
    scenario = mzi_whichway(DisturbanceKind.NONDESTRUCTIVE)
    assert sum(run_scenario(scenario, "montecarlo", 200, 5).counts.values()) == 200
    path = tmp_path / "whichway.mzi"
    path.write_text(scenario.program_text())
    assert main(["run", str(path), "--engine", "montecarlo", "--shots", "200", "--seed", "5"]) == 0


def test_importing_and_exact_runs_load_no_numpy():
    # numpy costs over 100 ms to import; only sampling may pay for it.
    code = (
        "import sys, toyfield.montecarlo, toyfield.cli as cli\n"
        "cli.main(['run', 'mzi_phase', '--engine', 'toy'])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(toyfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def imported_modules(*args, env=None):
    """The modules ``python -X importtime *args`` loads, by the last column
    of its log, and the process's stdout."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    return loaded, result.stdout


def test_a_toy_run_from_the_command_line_loads_only_what_it_executes(tmp_path):
    # `python -m toyfield.cli`, as a cold run starts; -X importtime logs every
    # module the process loads, one per line, its name in the last column.
    path = tmp_path / "two_mzis.mzi"
    path.write_text(
        "mode a b c d; source a; source c;\n"
        "bs a b; phase b pi; bs a b; bs c d; bs c d;\n"
        "detect a as da; detect b as db; detect c as dc; detect d as dd;\n"
    )
    src = str(Path(toyfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded, out = imported_modules("-m", "toyfield.cli", "run", str(path),
                                   "--engine", "toy", "--format", "json", env=env)
    assert json.loads(out) == {"da=0 db=1 dc=1 dd=0": "1"}
    assert "toyfield.circuits" in loaded
    # dataclasses and inspect only where the interpreter's own start loads them
    at_start, _ = imported_modules("-c", "pass", env=env)
    unused = {"toyfield.checks", "toyfield.first_quantized", "toyfield.quantum",
              "toyfield.montecarlo", "toyfield.automaton", "toyfield.scenarios",
              "toyfield.grid", "numpy", *({"dataclasses", "inspect"} - at_start)}
    assert not unused & loaded, sorted(unused & loaded)


def test_a_cold_grid_run_prints_the_golden_diagrams_byte_for_byte():
    # The grid printer and the scenario catalogue load only for a run that
    # needs them; a fresh `python -m toyfield.cli grid` process loads both and
    # prints exactly the recorded diagrams.
    src = str(Path(toyfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "toyfield.cli", "grid",
                             "mzi_whichway"], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    golden = Path(__file__).parent / "golden" / "grid_mzi_whichway.txt"
    assert result.stdout == golden.read_bytes()
    loaded = {line.rsplit(b"|", 1)[1].strip() for line in result.stderr.splitlines()
              if line.startswith(b"import time:")}
    assert {b"toyfield.grid", b"toyfield.scenarios"} <= loaded


def test_every_record_in_src_has_its_own_docstring():
    # A record's docstring is the one its class body writes; nothing makes one.
    import importlib
    import pkgutil

    seen = 0
    for info in pkgutil.iter_modules(toyfield.__path__):
        module = importlib.import_module(f"toyfield.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and "_fields" in vars(cls)
                    and cls.__module__ == module.__name__):
                continue
            seen += 1
            assert vars(cls).get("__doc__"), f"{module.__name__}.{cls.__name__}"
    assert seen >= 31
