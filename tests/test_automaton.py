"""Wire-array engine: propagation, gate cells, locality, statistics."""

import collections
import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toyfield import automaton, montecarlo
from toyfield.automaton import (
    CaPlan,
    _advance,
    _batch_events,
    check_time_reversal,
    exact_law,
    plan_from_program,
    run_experiment,
    run_single,
    trace_line,
)
from toyfield.circuits import (
    CapabilityError,
    compile_toy,
    default_labeler,
    parse,
    run_toy_exact,
)
from toyfield.montecarlo import derive_seed
from toyfield.phase_space import RegisterShape
from toyfield.scenarios import (
    all_variants,
    bomb_tester,
    mirror_removed,
    mzi_phase,
    mzi_whichway,
    run_scenario,
)
from scalar_reference import beamsplitter_formula
from toyfield.toy_dynamics import Beamsplitter, apply_gate_index
from toyfield.toy_measurement import DisturbanceKind

from test_montecarlo import spy_tally, stays_valid
from test_quantum_exact import random_program

PLAIN = plan_from_program(mzi_phase(0).program)
WHICHWAY = plan_from_program(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
MIRROR = plan_from_program(mirror_removed().program)
CELLS = PLAIN.cells


def cells_of(assignments=(), phases=itertools.repeat(0)) -> dict:
    """Every cell of the two 16-cell wires empty with the given phases,
    except the assigned ones."""
    cells = {wire: [] for wire in PLAIN.wires}
    for (wire, _), phi in zip(CELLS, phases):
        cells[wire].append((0, phi))
    for (wire, i), state in dict(assignments).items():
        cells[wire][i - 1] = state
    return cells


def coins(seed: int):
    """An explicit coin sequence: the bits of ``seed``'s digest, repeated."""
    digest = derive_seed(seed)
    return itertools.cycle([(digest >> i) & 1 for i in range(128)])


def advance(cells: dict, t: int, plan: CaPlan, draws) -> dict:
    """One transition from step t, taking each coin from ``draws``."""
    return _advance(cells, t, plan, lambda: next(draws))[0]


def occupied(cells: dict) -> list[tuple[str, int]]:
    return [(wire, i) for wire, i in CELLS if cells[wire][i - 1][0]]


@functools.cache
def random_plans() -> list[tuple[object, CaPlan]]:
    """The ancilla-free programs among 1000 drawn by ``random_program`` from
    ``Random(7)``, with their wire layouts."""
    rng = random.Random(7)
    programs = [parse(random_program(rng)) for _ in range(1000)]
    return [(p, plan_from_program(p)) for p in programs if not p.ancillas]


class TestPropagation:
    def test_excitation_walks_rightward(self):
        # Offset so the excitation sits at cell 1 right after injection;
        # successive transitions carry it one cell per step.
        draws = coins(0)
        cells = advance(cells_of(), 0, PLAIN, draws)  # source fires on the first transition
        assert cells["L"][0][0] == 1
        for expected in (2, 3, 4):
            cells = advance(cells, expected - 1, PLAIN, draws)
            assert occupied(cells) == [("L", expected)]

    def test_vacuum_stays_vacuum(self):
        plan = plan_from_program(parse(  # PLAIN's layout with no source
            "mode L R; bs L R; phase R 0; bs L R; detect L as dl; detect R as dr;"
        ))
        assert plan.cells == CELLS
        draws = coins(1)
        cells = cells_of(phases=draws)
        phases = set()
        for t in range(plan.length):
            cells = advance(cells, t, plan, draws)
            assert occupied(cells) == []
            phases.add(cells["L"][4])
        assert {n for n, _ in phases} == {0}

    def test_splitter_cells_apply_the_update(self):
        cells = cells_of({("L", 4): (1, 1), ("R", 4): (0, 1)})
        out = advance(cells, 4, PLAIN, coins(2))
        n_l, phi_l, n_r, phi_r = beamsplitter_formula(1, 1, 0, 1)
        assert out["L"][4] == (n_l, phi_l)
        assert out["R"][4] == (n_r, phi_r)

    def test_splitter_cells_pass_vacuum_through(self):
        cells = cells_of({("L", 4): (0, 1), ("R", 4): (0, 0)})
        out = advance(cells, 4, PLAIN, coins(3))
        assert out["L"][4] == (0, 1)
        assert out["R"][4] == (0, 0)

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
        assert trace_line(PLAIN, 0, cells_of()) == (
            f"t= 0 occupied=[-] phases L={'0' * 16} R={'0' * 16}"
        )

    def test_trace_has_a_phase_row_per_wire(self):
        trace: list[str] = []
        run_single(plan_from_program(mirror_removed().program), 4, trace=trace)
        rows = trace[0].split("phases ")[1].split()
        assert [row[:2] for row in rows] == ["L=", "R=", "E="]
        assert {len(row) for row in rows} == {2 + 16}


GROUP_KINDS = ("beamsplitter", "swap", "phase", "detector")


class TestGeneratedLayout:
    """The layouts of the ancilla-free random programs."""

    def test_step_k_maps_cell_4k_plus_4_to_the_next(self):
        for program, plan in random_plans():
            groups = [b for b in plan.bindings if b.kind in GROUP_KINDS]
            assert sorted(b.cells[0][1] for b in groups) == [4 * k + 4 for k in range(len(groups))]
            assert plan.length == 4 * (len(groups) + 1)
            for binding in groups:
                half = len(binding.cells) // 2
                inputs, outputs = binding.cells[:half], binding.cells[half:]
                assert outputs == tuple((wire, i + 1) for wire, i in inputs)
            # every other step is a detect read from its wire's sink
            sinks = [b.parameter for b in plan.bindings if b.kind == "sink" and b.parameter]
            assert len(groups) + len(sinks) == len(program.steps), program
            assert sorted(plan.patterns[0]) == sorted(program.labels())

    def test_every_excitation_rides_the_front(self):
        # an excitation sits at cell t at step t, so it meets the group at
        # cell p on the even step p
        for _, plan in random_plans()[:200]:
            draws = coins(plan.length)
            cells = {wire: [(0, next(draws)) for _ in range(plan.length)] for wire in plan.wires}
            for t in range(plan.length):
                cells = advance(cells, t, plan, draws)
                assert {i for w, i in plan.cells if cells[w][i - 1][0]} <= {t + 1}

    def test_groups_are_disjoint_and_sit_on_even_free_pairs(self):
        for plan in (PLAIN, *(plan for _, plan in random_plans())):
            seen = [cell for b in plan.bindings for cell in b.cells]
            assert len(set(seen)) == len(seen)
            groups = [b for b in plan.bindings if b.kind in GROUP_KINDS]
            for binding in groups:
                p = binding.cells[0][1]
                wires = [wire for wire, _ in binding.cells[:len(binding.cells) // 2]]
                assert p % 2 == 0 and 2 <= p < plan.length - 1
                assert binding.cells == (*((w, p) for w in wires), *((w, p + 1) for w in wires))
            # the rest of the table is a source and a sink per wire: no free pair
            ends = [b.cells for b in plan.bindings if b not in groups]
            assert ends == [*(((w, 1),) for w in plan.wires),
                            *(((w, plan.length),) for w in plan.wires)]

    def test_a_detect_before_a_later_step_is_a_detector(self):
        plan = plan_from_program(parse(
            "mode L R; source L; bs L R; detect R as mid; detect L as a; bs L R;"
            " detect L as b; detect R as c; measure N R destructive as d;"
        ))
        kinds = {b.parameter[2] if b.kind == "detector" else b.parameter: (b.kind, b.cells[0])
                 for b in plan.bindings if b.kind in ("detector", "sink")}
        # c is read before d acts on its wire; R's sink is read by no one
        assert kinds == {
            "mid": ("detector", ("R", 8)), "a": ("detector", ("L", 12)),
            "c": ("detector", ("R", 20)), "d": ("detector", ("R", 24)),
            "b": ("sink", ("L", 28)), None: ("sink", ("R", 28)),
        }

    def test_ancillas_are_refused(self):
        with pytest.raises(CapabilityError, match="no ancilla systems"):
            plan_from_program(parse("mode L; ancilla A; measure Q A as q;"))

    def test_cells_are_keyed_by_wire_and_position(self):
        # names that would collide as strings: m1's cell 11 and m11's cell 1
        modes = [f"m{i}" for i in range(12)]
        plan = plan_from_program(parse(
            f"mode {' '.join(modes)};" + "".join(f" phase {m} pi;" for m in modes)
        ))
        assert len(set(plan.cells)) == len(plan.cells) == 12 * plan.length
        assert ("m1", 11) in plan.cells and ("m11", 1) in plan.cells


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
        for t in range(PLAIN.length):
            cells = advance(cells, t, PLAIN, draws)
            total = sum(n for row in cells.values() for n, _ in row)
            assert total == 1


def leaks(plan: CaPlan, t: int) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """Every (flipped cell, changed cell) pair where flipping one cell's
    phase, or its occupation, from a random state at step t changes at t+1 a
    cell outside the flipped cell's group (at even t) or free pair."""
    draws = coins(t)
    base = {wire: [(next(draws), next(draws)) for _ in range(plan.length)] for wire in plan.wires}
    before = advance(base, t, plan, coins(99))
    group = {} if t % 2 else {cell: b.cells for b in plan.bindings for cell in b.cells}
    found = []
    for wire, i in plan.cells:
        own = group.get((wire, i), ((wire, i), (wire, i + 1 if i % 2 == t % 2 else i - 1)))
        for flip in ((1, 0), (0, 1)):
            poked = {w: row.copy() for w, row in base.items()}
            poked[wire][i - 1] = tuple(bit ^ f for bit, f in zip(base[wire][i - 1], flip))
            after = advance(poked, t, plan, coins(99))
            found += [((wire, i), (w, j)) for w, j in plan.cells
                      if (w, j) not in own and after[w][j - 1] != before[w][j - 1]]
    return found


class TestLocalityByConstruction:
    def test_outside_flip_never_changes_group(self):
        # Flip a cell far from the splitter group; the group's next state
        # is bit-identical because maps see only their own group.
        group = {("L", 4): (1, 0), ("R", 4): (0, 1)}
        base = cells_of(group)
        poked = cells_of({**group, ("L", 10): (0, 1), ("R", 15): (0, 1)})
        out_a = advance(base, 4, PLAIN, coins(5))
        out_b = advance(poked, 4, PLAIN, coins(5))
        for wire in ("L", "R"):
            for position in (4, 5):
                assert out_a[wire][position - 1] == out_b[wire][position - 1]

    @pytest.mark.parametrize("t", [8, 9])
    @pytest.mark.parametrize("plan", [PLAIN, WHICHWAY, MIRROR], ids=["plain", "whichway", "mirror"])
    def test_a_cell_reaches_only_its_own_group(self, plan, t):
        assert leaks(plan, t) == []

    def test_a_leaky_shift_is_caught(self, monkeypatch):
        propagate = automaton._propagate

        def far_reaching(cells, odd):
            # cell 1 picks up the phase of the wire's last cell
            new = propagate(cells, odd)
            for row in new.values():
                n, phi = row[0]
                row[0] = (n, phi ^ row[-1][1])
            return new

        monkeypatch.setattr(automaton, "_propagate", far_reaching)
        assert (("L", 15), ("L", 1)) in leaks(PLAIN, 9)


class TestTimeReversal:
    @pytest.mark.parametrize("kind", ["free_swap", "phase", "beamsplitter", "swap"])
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

    def test_swap_acting_one_way_is_caught(self, monkeypatch):
        def one_way(states, binding, t, coin):
            l_in, r_in, l_out, r_out = states
            return l_out, r_out, r_in, l_in  # leftward travel stays on its wire

        monkeypatch.setitem(automaton._RULES, "swap", one_way)
        assert not check_time_reversal("swap")

    def test_leaky_shift_is_caught(self, monkeypatch):
        propagate = automaton._propagate

        def one_way(cells, odd):
            # the occupation carried rightward from cell 1 at odd t picks up
            # the phase it meets
            new = propagate(cells, odd)
            for row in new.values():
                (n, phi), (_, phi_met) = row[1], row[0]
                row[1] = (n ^ (phi_met & odd), phi)
            return new

        monkeypatch.setattr(automaton, "_propagate", one_way)
        assert not check_time_reversal("free_swap")

    def test_random_rules_are_not_checked(self):
        with pytest.raises(ValueError):
            check_time_reversal("detector")


class TestRuleTable:
    def test_device_binding_reflects_plan(self):
        kinds = {b.cells: b.kind for b in WHICHWAY.bindings}
        assert kinds[("R", 8), ("R", 9)] == "detector"
        assert (("L", 8), ("L", 9)) not in kinds  # a free pair: the shift moves it
        assert kinds[("L", 4), ("R", 4), ("L", 5), ("R", 5)] == "beamsplitter"

    def test_swap_binding_crosses_the_wires(self):
        plan = plan_from_program(mirror_removed().program)
        kinds = {b.cells: b.kind for b in plan.bindings}
        assert kinds[("R", 8), ("E", 8), ("R", 9), ("E", 9)] == "swap"
        assert (("L", 8), ("L", 9)) not in kinds
        assert [b.parameter for b in plan.bindings if b.kind == "sink"] == [
            "detector_L", "detector_R", None
        ]


class TestBatchRunner:
    def test_deterministic_scenarios(self):
        counts = run_scenario(mzi_phase(0), "ca", 5000, 11).counts
        assert counts == {"detector_L": 5000}
        counts = run_scenario(mzi_phase(1), "ca", 5000, 11).counts
        assert counts == {"detector_R": 5000}

    def test_whichway_frequencies(self):
        shots = 40000
        counts = run_scenario(
            mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), "ca", shots, 11
        ).counts
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
        counts = run_scenario(bomb_tester(True), "ca", shots, 11).counts
        z = (counts["exploded"] / shots - 0.5) / (0.25 / shots) ** 0.5
        assert abs(z) < 4

    def test_seed_determinism(self):
        a = run_scenario(bomb_tester(True), "ca", 2000, 9).counts
        b = run_scenario(bomb_tester(True), "ca", 2000, 9).counts
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
        batch = _batch_events(plan, self.SHOTS, derive_seed(self.SEED))
        for s in range(self.SHOTS):
            assert run_single(plan, self.SEED, s) == lane(batch, s)

    @pytest.mark.parametrize("first", [1, 7])
    def test_batch_from_first_is_a_slice(self, first):
        whole = _batch_events(WHICHWAY, self.SHOTS, derive_seed(self.SEED))
        tail = _batch_events(WHICHWAY, self.SHOTS - first, derive_seed(self.SEED), first)
        for label, bits in tail.items():
            assert np.array_equal(bits, whole[label][first:]), label

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_tally_of_single_runs_is_run_experiment(self, scenario, plan):
        tally = collections.Counter(
            scenario.labeler(run_single(plan, self.SEED, s)) for s in range(self.SHOTS)
        )
        counts = run_experiment(plan, self.SHOTS, self.SEED, scenario.labeler)
        assert counts == dict(tally)
        assert all(type(count) is int for count in counts.values())

    def test_batches_never_exceed_the_chunk(self, monkeypatch):
        from toyfield import automaton, montecarlo

        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 7)
        drawn: list[int] = []
        block = montecarlo._block

        def spy(key, first, shots, *args):
            drawn.append(shots)
            return block(key, first, shots, *args)

        monkeypatch.setattr(montecarlo, "_block", spy)
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

        cells = {wire: [(0, 0)] * plan.length for wire in plan.wires}
        for t in range(plan.length):
            cells, _ = _advance(cells, t, plan, coin)
        detectors = sum(b.kind == "detector" for b in plan.bindings)
        # a phase per cell, then per even step one per source, sink and
        # detector output cell
        assert len(plan.cells) + len(drawn) == (2 * len(plan.wires) + detectors) * plan.length
        assert plan.reads[0] == len(plan.cells) + len(drawn)

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
        words = {"bomb_tester[bomb=faulty]": 1, "mirror_removed": 2}  # 48 and 96 bits
        detectors = any(b.kind == "detector" for b in plan.bindings)
        assert asked == [words.get(scenario.key, 2 if detectors else 1)]

    def test_more_than_one_block_is_read(self):
        # 32 phase steps make two 132-cell wires: the 264 initial phases
        # run on into the shot's second Philox block, at counter (s, 1, 0, 0)
        plan = plan_from_program(parse("mode L R; source L;" + " phase R pi;" * 32))
        assert len(plan.cells) == 264
        for shot in (0, 5, 2**64 - 1):
            bits = 0
            for block in (0, 1):
                philox = np.random.Philox(key=derive_seed(self.SEED), counter=shot + (block << 64))
                for w, word in enumerate(philox.random_raw(4).tolist()):
                    bits |= word << (64 * (4 * block + w))
            trace: list[str] = []
            run_single(plan, self.SEED, shot, trace)
            rows = trace[0].split("phases L=")[1].split(" R=")
            assert [int(c) for c in "".join(rows)] == [(bits >> i) & 1 for i in range(264)]


class TestAgainstExactReference:
    SHOTS = 20000
    SEED = 7

    def test_hostable_variant_count(self):
        assert len(HOSTABLE) == 13

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_frequencies_match_quantum(self, scenario, plan):
        counts = run_scenario(scenario, "ca", self.SHOTS, self.SEED).counts
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
    """``run_experiment``'s counts read row by row off one lane per shot,
    labelled in ascending code order (bit ``j`` of a code is event ``j``)."""
    events = _batch_events(plan, shots, derive_seed(seed))
    rows = collections.Counter(zip(*(bits.tolist() for bits in events.values())))
    counts: dict[str, int] = {}
    for row in sorted(rows, key=lambda row: sum(bit << j for j, bit in enumerate(row))):
        label = labeler(dict(zip(events, row)))
        counts[label] = counts.get(label, 0) + rows[row]
    return counts


def record_label(events: dict[str, int]) -> str:
    return ",".join(f"{label}={bit}" for label, bit in events.items())


def leaky_shift(cells, odd, propagate=automaton._propagate):
    """A mutant free shift: at odd t, the L-wire pairs from cells 13 and 15
    XOR the right cell's phase into the occupation they carry rightward."""
    new = propagate(cells, odd)
    for i in (13, 15) if odd else ():
        (n, phi), (_, phi_right) = new["L"][i], new["L"][i - 1]
        new["L"][i] = (n ^ phi_right, phi)
    return new


class TestPatternLanes:
    """Counts from one lane per pattern of the bits the events depend on,
    against one lane per shot."""

    SHOTS = (1, 7, 8, 9, 1000, 65_536, 65_537, 140_001)
    SEEDS = (0, 5, 2**70)

    def test_dependencies_of_the_hosted_layouts(self):
        assert PLAIN.reads[1] == (32, 33) and WHICHWAY.reads[1] == (34, 35, 56)
        for scenario, plan in HOSTABLE:
            detectors = sum(b.kind == "detector" for b in plan.bindings)
            # the phases every wire's cell 1 draws at step 0 (after the
            # detector's two draws, if there is one), and the phase the
            # detector gives the cell it passes at step 8, four even steps on
            first = len(plan.cells) + 2 * detectors
            passed = len(plan.cells) + 4 * 2 * (len(plan.wires) + detectors)
            assert plan.reads[1] == (
                *range(first, first + len(plan.wires)), *[passed] * detectors
            ), scenario.key

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_counts_equal_shot_lanes(self, scenario, plan):
        for shots, seed in itertools.product(self.SHOTS, self.SEEDS):
            expected = shot_lane_counts(plan, shots, seed, scenario.labeler)
            counts = run_experiment(plan, shots, seed, scenario.labeler)
            assert list(counts.items()) == list(expected.items()), (shots, seed)
            assert all(type(count) is int for count in counts.values())
            assert sum(counts.values()) == shots

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_bits_outside_the_dependencies_change_no_event(self, scenario, plan):
        bits, dependencies = plan.reads
        rng = np.random.default_rng(3)
        drawn = rng.integers(0, 2, size=(bits, 64), dtype=np.uint8)  # row b: bit b of 64 lanes
        events = automaton._lanes(plan, 64, drawn.__getitem__)
        for b in sorted(set(range(bits)) - set(dependencies)):
            flipped = drawn.copy()
            flipped[b] ^= 1
            for label, column in automaton._lanes(plan, 64, flipped.__getitem__).items():
                assert np.array_equal(column, events[label]), (b, label)

    def test_a_leaky_rule_grows_the_dependencies(self, monkeypatch):
        before = [plan.reads[1] for _, plan in HOSTABLE[:4]]
        monkeypatch.setattr(automaton, "_propagate", leaky_shift)
        plan_from_program.cache_clear()
        try:
            for (scenario, _), old in zip(HOSTABLE[:4], before):
                plan = plan_from_program(scenario.program)
                dependencies = plan.reads[1]
                assert set(old) < set(dependencies) and 1 << len(dependencies) <= 1000
                # bits of word 1 among them once a detector draws
                assert (max(dependencies) >= 64) == (len(old) == 3)
                for shots in (7, (1 << len(dependencies)) - 1, 1 << len(dependencies), 1000):
                    expected = shot_lane_counts(plan, shots, 2, record_label)
                    assert run_experiment(plan, shots, 2, record_label) == expected, shots
        finally:
            plan_from_program.cache_clear()

    def test_bulk_call_evolves_only_the_patterns(self, monkeypatch):
        plan_from_program.cache_clear()
        evolved: list[int] = []
        lanes = automaton._lanes

        def spy(plan, count, *args):
            evolved.append(count)
            return lanes(plan, count, *args)

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
            assert evolved == [1 << len(plan.reads[1])]

    def test_chunks_shorter_than_the_patterns_read_them_too(self, monkeypatch):
        plan_from_program.cache_clear()
        plan = plan_from_program(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE).program)
        expected = shot_lane_counts(plan, 17, 4, record_label)
        evolved: list[int] = []
        lanes = automaton._lanes

        def spy(plan, count, *args):
            evolved.append(count)
            return lanes(plan, count, *args)

        monkeypatch.setattr(automaton, "_lanes", spy)
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 8)
        assert run_experiment(plan, 17, 4, record_label) == expected
        assert evolved == [8]  # the 8 patterns once, for two chunks of 8 and one of 1

    def test_index_runs_stop_at_word_ends(self):
        assert montecarlo._index_runs((34, 35, 56)) == ((0, 34, 0b11, 0), (0, 56, 1, 2))
        assert montecarlo._index_runs((62, 63, 64, 65, 127, 128)) == (
            (0, 62, 0b11, 0), (1, 0, 0b11, 2), (1, 63, 1, 4), (2, 0, 1, 5)
        )
        assert montecarlo._index_runs(()) == ()
        assert montecarlo._index_runs(range(5)) == ((0, 0, 0b11111, 0),)  # Monte Carlo's D

    def test_a_second_call_does_only_seed_dependent_work(self, monkeypatch):
        # a fresh copy of a layout whose events read bits of Philox blocks 0 and 1
        spanning = next(plan for _, plan in random_plans()
                        if plan.reads[1] and plan.reads[1][0] < 256 <= plan.reads[1][-1])
        plan = CaPlan(spanning.wires, spanning.length, spanning.bindings)
        made, drawn = spy_tally(monkeypatch, automaton)
        for seed in (1, 2):
            del drawn[:]
            assert sum(run_experiment(plan, 65_537, seed, record_label).values()) == 65_537
            assert drawn == [(first, n, block) for first, n in ((0, 65_536), (65_536, 1))
                             for block in (0, 1)]  # each block once per chunk
        assert made == ["_pattern_table", "_index_runs"]  # by the first call alone

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_pattern_lanes_read_one_zero_column_outside_the_dependencies(self, scenario, plan):
        # the table equals one whose lanes read every bit off all-zero byte planes
        bits, dependencies = plan.reads

        def record(every):
            planes = np.zeros((8 * -(-bits // 64), len(every)), dtype=np.uint8)
            for i, b in enumerate(dependencies):
                planes[b >> 3] |= ((every >> i & 1) << (b & 7)).astype(np.uint8)
            return automaton._lanes(plan, len(every), lambda b: planes[b >> 3] >> (b & 7) & 1)

        labels, codes, ids = montecarlo._pattern_table(dependencies, record)
        assert plan.patterns[:2] == (labels, codes)
        assert np.array_equal(plan.patterns[2], ids)

    def test_pattern_table_is_read_only(self):
        labels, codes, ids = WHICHWAY.patterns
        with pytest.raises(TypeError):
            codes[0] = 0
        with pytest.raises(ValueError):
            ids[0] = 0
        # one id per pattern of D, one code per distinct outcome
        assert len(ids) == 1 << len(WHICHWAY.reads[1]) and len(codes) == 4 == ids.max() + 1

    @pytest.mark.parametrize("scenario, plan", HOSTABLE, ids=HOSTABLE_IDS)
    def test_pattern_law_is_the_exact_toy_law(self, scenario, plan):
        # each pattern of D weighs 1/2^|D|: the CA's exact outcome law
        assert exact_law(plan) == run_toy_exact(compile_toy(scenario.program))
        assert sum(exact_law(plan).values()) == 1

    def test_blocks_past_the_first_are_drawn_once_per_chunk(self, monkeypatch):
        # 3-mode programs whose events read bits of both the first and a
        # later Philox block
        spanning = [
            plan for program, plan in random_plans()
            if len(program.modes) == 3 and plan.reads[1] and plan.reads[1][0] < 256
            and plan.reads[1][-1] >= 256
        ]
        assert len(spanning) == 32
        drawn: list[tuple[int, int]] = []
        block = montecarlo._block

        def spy(key, first, shots, which=0):
            drawn.append((first, which))
            return block(key, first, shots, which)

        monkeypatch.setattr(montecarlo, "_block", spy)
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 64)
        for plan in spanning:
            expected = shot_lane_counts(plan, 150, 3, record_label)
            del drawn[:]
            assert run_experiment(plan, 150, 3, record_label) == expected
            blocks = sorted({b >> 8 for b in plan.reads[1]})
            assert sorted(drawn) == [(first, b) for first in (0, 64, 128) for b in blocks]


class TestExactLaw:
    def test_equals_the_exact_run_while_states_stay_valid(self):
        plans = random_plans()
        assert len(plans) == 635
        valid = [(p, plan) for p, plan in plans if stays_valid(compile_toy(p))]
        assert len(valid) == 557
        for program, plan in valid:
            assert exact_law(plan) == run_toy_exact(compile_toy(program)), program

    def test_equals_the_monte_carlo_law_everywhere(self):
        for program, plan in random_plans():
            assert exact_law(plan) == montecarlo.exact_law(compile_toy(program)), program
        # outside the valid states both sampled engines split the runs 1/4, 3/4
        found = parse(
            "mode L R E; source L; vacuum R; bs L R; bs L E; bs R L; "
            "detect L as dl; detect R as dr;"
        )
        assert exact_law(plan_from_program(found)) == {
            (("dl", 0), ("dr", 0)): Fraction(1, 4), (("dl", 0), ("dr", 1)): Fraction(3, 4)
        }

    def test_an_eight_mode_bank(self):
        # four single-photon interferometers, two closed and two open, and a
        # swap between the open ones
        program = parse(
            "mode m0 m1 m2 m3 m4 m5 m6 m7; source m0; source m2; source m4; source m6;"
            " bs m0 m1; bs m2 m3; bs m4 m5; bs m6 m7; phase m1 pi; phase m3 0;"
            " phase m5 pi; bs m0 m1; bs m2 m3; swap m5 m7;"
            + "".join(f" detect m{i} as d{i};" for i in (3, 0, 7, 1, 6, 4, 2, 5))
        )
        plan = plan_from_program(program)
        law = exact_law(plan)
        assert law == run_toy_exact(compile_toy(program))
        assert len(law) == 4 and set(law.values()) == {Fraction(1, 4)}

    def test_a_mutant_splitter_changes_a_law(self, monkeypatch):
        def gated_by_one_input(states, binding, t, coin):
            # the splitter's flip gated by the left input's occupation alone
            def split(left, right):
                (n_a, phi_a), (n_b, phi_b) = left, right
                flip = n_a & (n_a ^ phi_a ^ phi_b)
                return (n_a ^ flip, phi_a ^ flip), (n_b ^ flip, phi_b)

            l_in, r_in, l_out, r_out = states
            return (*split(l_out, r_out), *split(l_in, r_in))

        monkeypatch.setitem(automaton._RULES, "beamsplitter", gated_by_one_input)
        plan_from_program.cache_clear()
        try:
            changed = [
                scenario.key for scenario, _ in HOSTABLE
                if exact_law(plan_from_program(scenario.program))
                != run_toy_exact(compile_toy(scenario.program))
            ]
        finally:
            plan_from_program.cache_clear()
        assert "mzi_phase[phase=0]" in changed


class TestMemoryBound:
    def test_more_than_16_event_bits_are_counted_one_lane_per_shot(self, monkeypatch):
        text = "mode a b; source a;" + "".join(f" bs a b; detect a as x{i};" for i in range(17))
        plan = plan_from_program(parse(text))
        assert len(plan.reads[1]) == 18
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 128)
        assert run_experiment(plan, 300, 2, record_label) == shot_lane_counts(
            plan, 300, 2, record_label
        )
        assert "patterns" not in vars(plan)  # no table of 2^18 lanes was built
        assert run_single(plan, 1, 5) == lane(_batch_events(plan, 6, derive_seed(1)), 5)
        with pytest.raises(CapabilityError, match="reads 18 random bits; .* at most 16"):
            exact_law(plan)

    def test_16_event_bits_are_counted(self):
        text = "mode a b; source a;" + "".join(f" bs a b; detect a as x{i};" for i in range(15))
        plan = plan_from_program(parse(text))
        assert len(plan.reads[1]) == 16
        assert run_experiment(plan, 300, 2, record_label) == shot_lane_counts(
            plan, 300, 2, record_label
        )


def constant_chain(events: int):
    """``mode a; source a;`` and ``events`` occupation measurements, each of
    which reads 1 whatever the coins: no event reads a coin bit."""
    return parse("mode a; source a;" + "".join(f" measure N a as x{i};" for i in range(events)))


class TestConstantChains:
    """One pattern whose outcome code has more bits than an int64."""

    @pytest.mark.parametrize("events", [40, 63, 64])
    def test_every_shot_reads_all_ones(self, events):
        program = constant_chain(events)
        plan = plan_from_program(program)
        assert plan.reads[1] == ()
        ones = default_labeler({f"x{i}": 1 for i in range(events)})
        for shots in (1, 10, 1000):
            counts = run_experiment(plan, shots, 1, default_labeler)
            assert counts == {ones: shots}
            assert montecarlo.run_experiment(compile_toy(program), shots, 1) == counts
        assert exact_law(plan) == run_toy_exact(compile_toy(program))
