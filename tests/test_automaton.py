"""Wire-array engine: propagation, gate cells, locality, statistics."""

import collections
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toyfield import automaton, montecarlo
from toyfield.automaton import (
    CaPlan,
    WIRE_LENGTH,
    _advance,
    _batch_events,
    check_time_reversal,
    plan_from_program,
    run_experiment,
    run_scenario_ca,
    run_single,
    trace_line,
)
from toyfield.circuits import CapabilityError
from toyfield.montecarlo import _distinct, _tally, derive_seed
from toyfield.phase_space import RegisterShape
from toyfield.scenarios import (
    all_variants,
    bomb_tester,
    mzi_phase,
    mzi_whichway,
    run_scenario,
)
from toyfield.toy_dynamics import Beamsplitter, apply_gate_index, beamsplitter_formula
from toyfield.toy_measurement import DisturbanceKind

PLAIN = plan_from_program(mzi_phase(0).program)
WHICHWAY = plan_from_program(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
LABELS = [f"{w}{i}" for w in ("L", "R") for i in range(1, WIRE_LENGTH + 1)]


def cells_of(assignments=(), phases=itertools.repeat(0)) -> dict:
    """Every cell empty with the given phases, except the assigned ones."""
    cells = {label: (0, phi) for label, phi in zip(LABELS, phases)}
    cells.update(assignments)
    return cells


def coins(seed: int):
    """An explicit coin sequence: the bits of ``seed``'s digest, repeated."""
    digest = derive_seed(seed)
    return itertools.cycle([(digest >> i) & 1 for i in range(128)])


def advance(cells: dict, t: int, plan: CaPlan, draws) -> dict:
    """One transition from step t, taking each coin from ``draws``."""
    return _advance(cells, t, plan, lambda: next(draws))[0]


def occupied(cells: dict) -> list[str]:
    return [label for label in LABELS if cells[label][0]]


class TestPropagation:
    def test_excitation_walks_rightward(self):
        # Offset so the excitation sits at cell 1 right after injection;
        # successive transitions carry it one cell per step.
        draws = coins(0)
        cells = advance(cells_of(), 0, PLAIN, draws)  # source fires on the first transition
        assert cells["L1"][0] == 1
        for expected in (2, 3, 4):
            cells = advance(cells, expected - 1, PLAIN, draws)
            assert occupied(cells) == [f"L{expected}"]

    def test_vacuum_stays_vacuum(self):
        plan = CaPlan(None, {"L": "dl", "R": "dr"}, inject_step=-2)  # never fires
        draws = coins(1)
        cells = cells_of(phases=draws)
        phases = set()
        for t in range(12):
            cells = advance(cells, t, plan, draws)
            assert occupied(cells) == []
            phases.add(cells["L5"])
        assert {n for n, _ in phases} == {0}

    def test_splitter_cells_apply_the_update(self):
        cells = cells_of({"L4": (1, 1), "R4": (0, 1)})
        out = advance(cells, 4, PLAIN, coins(2))
        n_l, phi_l, n_r, phi_r = beamsplitter_formula(1, 1, 0, 1)
        assert out["L5"] == (n_l, phi_l)
        assert out["R5"] == (n_r, phi_r)

    def test_splitter_cells_pass_vacuum_through(self):
        cells = cells_of({"L4": (0, 1), "R4": (0, 0)})
        out = advance(cells, 4, PLAIN, coins(3))
        assert out["L5"] == (0, 1)
        assert out["R5"] == (0, 0)

    def test_splitter_is_the_registers_splitter_gate(self):
        # cells (n, phi) of L then R are modes 0 and 1 of a two-mode register
        for x in range(16):
            left, right = (x & 1, (x >> 1) & 1), ((x >> 2) & 1, (x >> 3) & 1)
            (n_l, phi_l), (n_r, phi_r) = automaton._split(left, right)
            assert n_l | (phi_l << 1) | (n_r << 2) | (phi_r << 3) == apply_gate_index(
                Beamsplitter(0, 1), x, RegisterShape(2)
            )

    def test_trace_format(self):
        trace: list[str] = []
        run_single(PLAIN, 4, trace=trace)
        line = trace[0]
        assert line.startswith("t= 0 occupied=[") and "phases L=" in line
        assert trace_line(0, cells_of()) == f"t= 0 occupied=[-] phases L={'0' * 16} R={'0' * 16}"


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
            events = run_single(PLAIN, seed)
            assert events == {"detector_L": 1, "detector_R": 0}

    def test_phase_pi_always_right(self):
        plan = plan_from_program(mzi_phase(1).program)
        for seed in range(40):
            events = run_single(plan, seed)
            assert events == {"detector_L": 0, "detector_R": 1}

    def test_whichway_all_joint_outcomes_occur(self):
        plan = plan_from_program(
            mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program
        )
        seen = set()
        for seed in range(200):
            events = run_single(plan, seed)
            assert events["detector_L"] ^ events["detector_R"] == 1
            seen.add((events["which_way"], events["detector_L"]))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_bomb_explosion_absorbs_excitation(self):
        plan = plan_from_program(bomb_tester(True).program)
        for seed in range(200):
            events = run_single(plan, seed)
            if events["trigger"]:
                assert events["detector_L"] == 0 and events["detector_R"] == 0

    def test_occupation_conserved_between_devices(self):
        # Between the source event and the port sink, exactly one excitation
        # lives on the wires (the bomb's absorption removes it).
        draws = coins(11)
        cells = cells_of(phases=draws)
        for t in range(16):
            cells = advance(cells, t, PLAIN, draws)
            total = sum(n for n, _ in cells.values())
            assert total == 1


class TestLocalityByConstruction:
    def test_outside_flip_never_changes_group(self):
        # Flip a cell far from the splitter group; the group's next state
        # is bit-identical because maps see only their own group.
        base = cells_of({"L4": (1, 0), "R4": (0, 1)})
        poked = {**base, "L10": (0, 1), "R15": (0, 1)}
        out_a = advance(base, 4, PLAIN, coins(5))
        out_b = advance(poked, 4, PLAIN, coins(5))
        for wire in ("L", "R"):
            for label in (4, 5):
                assert out_a[f"{wire}{label}"] == out_b[f"{wire}{label}"]


class TestTimeReversal:
    @pytest.mark.parametrize("kind", ["free_swap", "phase", "beamsplitter"])
    def test_deterministic_maps_are_symmetric(self, kind):
        assert check_time_reversal(kind)

    def test_negative_control(self):
        assert not check_time_reversal("broken_oneway")


class TestTimeReversalChecksTheRunningRules:
    def test_one_way_phase_rule_is_caught(self, monkeypatch):
        def one_way(states, binding, t, coin):
            (n_a, phi_a), (n_b, phi_b) = states
            return (n_b, phi_b ^ binding.parameter[1]), (n_a, phi_a)

        monkeypatch.setitem(automaton._RULES, "phase", one_way)
        assert not check_time_reversal("phase")

    def test_splitter_acting_one_way_is_caught(self, monkeypatch):
        def one_way(states, binding, t, coin):
            l_in, r_in, l_out, r_out = states
            return (l_out, r_out, *automaton._split(l_in, r_in))

        monkeypatch.setitem(automaton._RULES, "beamsplitter", one_way)
        assert not check_time_reversal("beamsplitter")

    def test_random_rules_are_not_checked(self):
        with pytest.raises(ValueError):
            check_time_reversal("detector")


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
        scalar = [run_single(plan, s) for s in range(20)]
        assert all(ev == {"detector_L": 0, "detector_R": 1} for ev in scalar)
        batch = run_experiment(
            plan, 20, 3, lambda ev: "R" if ev["detector_R"] else "L"
        )
        assert batch == {"R": 20}

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            run_experiment(PLAIN, 0, 1, lambda ev: "x")


# Seeded outputs of the wire automaton, captured when its draws moved to
# Monte Carlo's Philox blocks; they pin every bit a shot reads.
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
        assert [run_single(plan, s) for s in range(len(expected))] == expected

    def test_whichway_trace(self):
        trace: list[str] = []
        run_single(WHICHWAY, 0, trace=trace)
        assert trace == GOLDEN["trace_mzi_whichway_seed0"]


def lane(events: dict, s: int) -> dict[str, int]:
    return {label: int(bits[s]) for label, bits in events.items()}


class TestReplay:
    SEED = 13
    SHOTS = 24

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_single_run_is_a_lane_of_the_batch(self, scenario, plan):
        batch = _batch_events(plan, self.SHOTS, self.SEED)
        for s in range(self.SHOTS):
            assert run_single(plan, self.SEED, s) == lane(batch, s)

    @pytest.mark.parametrize("first", [1, 7])
    def test_batch_from_first_is_a_slice(self, first):
        whole = _batch_events(WHICHWAY, self.SHOTS, self.SEED)
        tail = _batch_events(WHICHWAY, self.SHOTS - first, self.SEED, first)
        for label, bits in tail.items():
            assert np.array_equal(bits, whole[label][first:]), label

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_tally_of_single_runs_is_run_experiment(self, scenario, plan):
        tally = collections.Counter(
            scenario.labeler(run_single(plan, self.SEED, s)) for s in range(self.SHOTS)
        )
        assert run_experiment(plan, self.SHOTS, self.SEED, scenario.labeler) == dict(tally)

    def test_batches_never_exceed_the_chunk(self, monkeypatch):
        from toyfield import automaton, montecarlo

        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 7)
        drawn: list[int] = []
        block = automaton._block

        def spy(key, first, shots, *args):
            drawn.append(shots)
            return block(key, first, shots, *args)

        monkeypatch.setattr(automaton, "_block", spy)
        counts = run_experiment(WHICHWAY, 2 * 7 + 1, self.SEED, lambda ev: "x")
        assert counts == {"x": 15}
        assert drawn == [7, 7, 1]

    def test_draws_follow_the_documented_layout(self):
        # Bits 0-31: initial phases of L1..L16, R1..R16.  At t = 0 the plain
        # interferometer draws, in rule-table order, the phases of L1, R1
        # (source, vacuum source), then of L16, R16 (sinks): bits 32-35.
        for shot in (0, 5, 2**40):
            words = np.random.Philox(key=derive_seed(self.SEED), counter=shot).random_raw(4)
            bits = int(words[0])
            trace: list[str] = []
            run_single(PLAIN, self.SEED, shot, trace)
            rows = [line.split("phases L=")[1].split(" R=") for line in trace[:2]]
            start, after = ([int(c) for c in left + right] for left, right in rows)
            assert start == [(bits >> i) & 1 for i in range(32)]
            assert [after[0], after[16], after[15], after[31]] == [
                (bits >> i) & 1 for i in range(32, 36)
            ]

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_bit_budget(self, scenario, plan):
        drawn: list[int] = []

        def coin() -> int:
            drawn.append(0)
            return 0

        cells = cells_of()
        for t in range(plan.arrival_step(WIRE_LENGTH)):
            cells, _ = _advance(cells, t, plan, coin)
        has_detector = plan.device is not None and plan.device[0] == "detector"
        assert len(LABELS) + len(drawn) == (80 if has_detector else 64)

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_copies_only_the_words_read(self, scenario, plan, monkeypatch):
        from toyfield import automaton

        asked: list[int] = []
        shot_words = automaton._shot_words

        def spy(key, first, shots, words):
            asked.append(words)
            return shot_words(key, first, shots, words)

        monkeypatch.setattr(automaton, "_shot_words", spy)
        run_single(plan, self.SEED)
        has_detector = plan.device is not None and plan.device[0] == "detector"
        assert asked == [2 if has_detector else 1]

    def test_more_than_one_block_is_refused(self):
        long_run = CaPlan(None, {"L": "dl", "R": "dr"}, inject_step=100)
        with pytest.raises(ValueError, match="more than one Philox block"):
            run_single(long_run, 0)


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


def shot_lane_counts(plan, shots, seed, labeler) -> dict[str, int]:
    """``run_experiment``'s counts read off one lane per shot."""
    def counted(first, n):
        return _distinct(_batch_events(plan, n, seed, first), n)

    return _tally(shots, counted, labeler)


def record_label(events: dict[str, int]) -> str:
    return ",".join(f"{label}={bit}" for label, bit in events.items())


def leaky_swap(states, binding, t, coin):
    """A mutant free rule: two L-wire groups XOR the right cell's phase into
    the occupation they carry rightward."""
    (n_a, phi_a), (n_b, phi_b) = states
    leak = phi_b if binding.cells[0] in ("L13", "L15") else 0
    return (n_b, phi_b), (n_a ^ leak, phi_a)


class TestPatternLanes:
    """Counts from one lane per pattern of the bits the events depend on,
    against one lane per shot."""

    SHOTS = (1, 7, 8, 9, 1000, 65_537, 140_001)
    SEEDS = (0, 5, 2**70)

    def test_dependencies_of_the_hosted_layouts(self):
        for scenario, plan in HOSTABLE:
            bits, dependencies = automaton._layout_of(plan).reads
            has_detector = plan.device is not None and plan.device[0] == "detector"
            # the phases the source and the vacuum source draw at step 0
            # (after the detector's two draws, if there is one), and the
            # phase the detector gives the cell it passes at step 8
            assert dependencies == ((34, 35, 56) if has_detector else (32, 33)), scenario.key

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_counts_equal_shot_lanes(self, scenario, plan):
        for shots, seed in itertools.product(self.SHOTS, self.SEEDS):
            expected = shot_lane_counts(plan, shots, seed, scenario.labeler)
            counts = run_experiment(plan, shots, seed, scenario.labeler)
            assert list(counts.items()) == list(expected.items()), (shots, seed)

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_bits_outside_the_dependencies_change_no_event(self, scenario, plan):
        bits, dependencies = automaton._layout_of(plan).reads
        rng = np.random.default_rng(3)
        planes = rng.integers(0, 256, size=(8 * -(-bits // 64), 64), dtype=np.uint8)
        events = automaton._lanes(plan, planes)
        for b in sorted(set(range(bits)) - set(dependencies)):
            flipped = planes.copy()
            flipped[b >> 3] ^= np.uint8(1 << (b & 7))
            for label, column in automaton._lanes(plan, flipped).items():
                assert np.array_equal(column, events[label]), (b, label)

    def test_a_leaky_rule_grows_the_dependencies(self, monkeypatch):
        plans = [plan for _, plan in HOSTABLE[:4]]
        before = [automaton._layout_of(plan).reads[1] for plan in plans]
        monkeypatch.setitem(automaton._RULES, "free_swap", leaky_swap)
        automaton._layout.cache_clear()
        try:
            for plan, old in zip(plans, before):
                dependencies = automaton._layout_of(plan).reads[1]
                assert set(old) < set(dependencies) and 1 << len(dependencies) <= 1000
                # bits of word 1 among them once a detector draws
                assert (max(dependencies) >= 64) == (len(old) == 3)
                for shots in (7, (1 << len(dependencies)) - 1, 1 << len(dependencies), 1000):
                    expected = shot_lane_counts(plan, shots, 2, record_label)
                    assert run_experiment(plan, shots, 2, record_label) == expected, shots
        finally:
            automaton._layout.cache_clear()

    def test_bulk_call_evolves_only_the_patterns(self, monkeypatch):
        automaton._layout.cache_clear()
        evolved: list[int] = []
        lanes = automaton._lanes

        def spy(plan, planes, *args):
            evolved.append(planes.shape[1])
            return lanes(plan, planes, *args)

        def no_shot_lanes(*args):
            raise AssertionError("a bulk chunk took one lane per shot")

        monkeypatch.setattr(automaton, "_lanes", spy)
        monkeypatch.setattr(automaton, "_batch_events", no_shot_lanes)
        for scenario in (mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), mzi_phase(1)):
            plan = plan_from_program(scenario.program)
            del evolved[:]
            for _ in range(2):
                counts = run_experiment(plan, 200_000, 7, scenario.labeler)
                assert sum(counts.values()) == 200_000
            assert evolved == [1 << len(automaton._layout_of(plan).reads[1])]

    def test_chunks_shorter_than_the_patterns_read_them_too(self, monkeypatch):
        automaton._layout.cache_clear()
        expected = shot_lane_counts(WHICHWAY, 17, 4, record_label)
        evolved: list[int] = []
        lanes = automaton._lanes

        def spy(plan, planes, *args):
            evolved.append(planes.shape[1])
            return lanes(plan, planes, *args)

        monkeypatch.setattr(automaton, "_lanes", spy)
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 8)
        assert run_experiment(WHICHWAY, 17, 4, record_label) == expected
        assert evolved == [8]  # the 8 patterns once, for two chunks of 8 and one of 1

    def test_index_runs_stop_at_word_ends(self):
        assert automaton._index_runs((34, 35, 56)) == [(0, 34, 0b11, 0), (0, 56, 1, 2)]
        assert automaton._index_runs((62, 63, 64, 65, 127, 128)) == [
            (0, 62, 0b11, 0), (1, 0, 0b11, 2), (1, 63, 1, 4), (2, 0, 1, 5)
        ]
        assert automaton._index_runs(()) == []

    def test_pattern_codes_are_read_only(self):
        codes = automaton._layout_of(WHICHWAY).patterns[1]
        with pytest.raises(ValueError):
            codes[0] = 0

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_pattern_law_is_the_exact_toy_law(self, scenario, plan):
        # each pattern of D weighs 1/2^|D|: the CA's exact outcome law
        labels, codes = automaton._layout_of(plan).patterns
        law: dict[str, Fraction] = {}
        for code in codes.tolist():
            label = scenario.labeler({name: code >> k & 1 for k, name in enumerate(labels)})
            law[label] = law.get(label, 0) + Fraction(1, len(codes))
        assert law == run_scenario(scenario, "toy").probs
