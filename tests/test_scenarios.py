"""Scenario distributions and cross-engine agreement."""

import itertools
from fractions import Fraction

import pytest

from toyfield import scenarios
from toyfield.circuits import compile_toy, run_toy_exact, parse
from toyfield.scenarios import (
    SCENARIO_PARAMS,
    all_variants,
    bomb_tester,
    delayed_choice,
    mirror_removed,
    mzi_phase,
    mzi_whichway,
    quantum_eraser,
    run_scenario,
    scenario_by_name,
)
from toyfield.toy_measurement import DisturbanceKind

H = Fraction(1, 2)
Q = Fraction(1, 4)


@pytest.mark.parametrize("engine", ["toy", "quantum"])
class TestExactDistributions:
    def test_phase_zero_always_left(self, engine):
        assert run_scenario(mzi_phase(0), engine).probs == {"detector_L": 1}

    def test_phase_pi_always_right(self, engine):
        assert run_scenario(mzi_phase(1), engine).probs == {"detector_R": 1}

    def test_whichway_nondestructive(self, engine):
        got = run_scenario(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), engine)
        assert got.probs == {
            "fired & detector_L": Q,
            "fired & detector_R": Q,
            "silent & detector_L": Q,
            "silent & detector_R": Q,
        }

    def test_whichway_destructive(self, engine):
        got = run_scenario(mzi_whichway(DisturbanceKind.DESTRUCTIVE), engine)
        assert got.probs == {
            "absorbed": H,
            "silent & detector_L": Q,
            "silent & detector_R": Q,
        }

    def test_functional_bomb(self, engine):
        got = run_scenario(bomb_tester(True), engine)
        assert got.probs == {
            "exploded": H,
            "safe & detector_L": Q,
            "safe & detector_R": Q,
        }

    def test_faulty_bomb(self, engine):
        assert run_scenario(bomb_tester(False), engine).probs == {"detector_L": 1}

    def test_eraser_coordinate_basis(self, engine):
        got = run_scenario(quantum_eraser("Q"), engine)
        assert got.probs == {
            "a0 & detector_L": Q,
            "a0 & detector_R": Q,
            "a1 & detector_L": Q,
            "a1 & detector_R": Q,
        }

    def test_eraser_momentum_basis(self, engine):
        got = run_scenario(quantum_eraser("P"), engine)
        assert got.probs == {"a+ & detector_L": H, "a- & detector_R": H}

    def test_mirror_removed(self, engine):
        got = run_scenario(mirror_removed(), engine)
        assert got.probs == {"no_click": H, "detector_L": Q, "detector_R": Q}


class TestEngineEquivalence:
    def test_every_variant_agrees_exactly(self):
        for scenario in all_variants():
            toy = run_scenario(scenario, "toy").probs
            quantum = run_scenario(scenario, "quantum").probs
            assert toy == quantum, scenario.key

    def test_all_probabilities_are_quarters(self):
        allowed = {Fraction(0), Q, H, Fraction(1)}
        for scenario in all_variants():
            for p in run_scenario(scenario, "toy").probs.values():
                assert p in allowed


class TestOutcomeDistribution:
    def test_exact_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 3/4, not 1"):
            scenarios.OutcomeDistribution({"a": H, "b": Q})

    def test_sampled_counts_must_sum_to_the_shot_count(self):
        probs = {"a": Fraction(3, 4), "b": Fraction(1, 4)}
        with pytest.raises(ValueError, match="counts must sum to the shot count"):
            scenarios.OutcomeDistribution(probs, shots=4, counts={"a": 3, "b": 2})

    def test_sampled_run_carries_its_counts(self):
        dist = run_scenario(bomb_tester(functional=True), "montecarlo", 1000, 7)
        assert sum(dist.counts.values()) == dist.shots == 1000
        assert dist.probs == {k: Fraction(c, 1000) for k, c in dist.counts.items()}


class TestEraserProperties:
    def test_timing_invariance(self):
        for basis in ("Q", "P"):
            before = run_scenario(quantum_eraser(basis, "before"), "toy").probs
            after = run_scenario(quantum_eraser(basis, "after"), "toy").probs
            assert before == after

    def test_timing_invariance_quantum(self):
        for basis in ("Q", "P"):
            before = run_scenario(quantum_eraser(basis, "before"), "quantum").probs
            after = run_scenario(quantum_eraser(basis, "after"), "quantum").probs
            assert before == after

    def test_marginal_ports_are_uniform(self):
        for basis in ("Q", "P"):
            probs = run_scenario(quantum_eraser(basis), "toy").probs
            left = sum(p for label, p in probs.items() if label.endswith("detector_L"))
            assert left == H

    def test_erasure_scrambles_the_record(self):
        # After a momentum readout, a coordinate readout of the marker is
        # uniform and independent of everything else in the run.
        text = (
            "mode L R;\nancilla A;\nsource L;\nvacuum R;\nbs L R;\ncnot R A;\n"
            "bs L R;\nmeasure P A as p_out;\nmeasure Q A as q_out;\n"
            "detect L as detector_L;\ndetect R as detector_R;\n"
        )
        joint = run_toy_exact(compile_toy(parse(text)))
        weights: dict[tuple, dict[int, Fraction]] = {}
        for key, w in joint.items():
            events = dict(key)
            rest = tuple(sorted((k, v) for k, v in events.items() if k != "q_out"))
            weights.setdefault(rest, {}).setdefault(events["q_out"], Fraction(0))
            weights[rest][events["q_out"]] += w
        for rest, by_q in weights.items():
            total = sum(by_q.values())
            assert by_q[0] == by_q[1] == total / 2, rest


class TestDelayedChoice:
    def test_timing_never_matters(self):
        for choice in ("phase0", "phasepi", "detector"):
            early = run_scenario(delayed_choice(choice, "before"), "toy").probs
            late = run_scenario(delayed_choice(choice, "after"), "toy").probs
            assert early == late

    @pytest.mark.parametrize("choice", ["phase0", "phasepi", "detector"])
    def test_both_timings_are_one_program(self, choice):
        # the timing flag is metadata, so the check suite's timing rows hold by construction
        assert delayed_choice(choice, "before").program is delayed_choice(choice, "after").program

    def test_detector_choice_reproduces_whichway(self):
        got = run_scenario(delayed_choice("detector"), "toy").probs
        want = run_scenario(mzi_whichway(DisturbanceKind.NONDESTRUCTIVE), "toy").probs
        assert got == want

    def test_phase_choice_reproduces_shifter(self):
        got = run_scenario(delayed_choice("phase0"), "toy").probs
        assert got == run_scenario(mzi_phase(0), "toy").probs


class TestMirrorRemoved:
    def test_conditioned_on_click_ports_are_uniform(self):
        probs = run_scenario(mirror_removed(), "toy").probs
        clicked = probs["detector_L"] + probs["detector_R"]
        assert probs["detector_L"] / clicked == H
        assert probs["detector_R"] / clicked == H


class TestCatalogue:
    def test_every_variant_is_the_plain_interferometer_with_a_device(self):
        plain = bomb_tester(False).program.statements
        for scenario in all_variants():
            assert scenario.program.modes[:2] == ("L", "R"), scenario.key
            rest = iter(scenario.program.statements)
            assert all(statement in rest for statement in plain), scenario.key

    def test_every_accepted_form_resolves_to_a_catalogued_variant(self):
        catalogued = {(s.key, s.program) for s in all_variants()}
        for name, accepted in SCENARIO_PARAMS.items():
            for values in itertools.product(*accepted.values()):
                scenario = scenario_by_name(name, **dict(zip(accepted, values)))
                assert (scenario.key, scenario.program) in catalogued, (name, values)

    def test_every_variant_is_the_object_the_registry_returns(self):
        variants = list(all_variants())
        returned = [scenario_by_name(name, **dict(zip(accepted, values)))
                    for name, accepted in SCENARIO_PARAMS.items()
                    for values in itertools.product(*accepted.values())]
        assert len({id(variant) for variant in variants}) == 17
        assert all(any(variant is form for form in returned) for variant in variants)

    @pytest.mark.parametrize("name", ["delayed_choice", "quantum_eraser"])
    def test_a_two_parameter_sweep_is_the_product_of_its_table(self, name):
        accepted = SCENARIO_PARAMS[name]
        want = [tuple(zip(accepted, values)) for values in itertools.product(*accepted.values())]
        assert [s.params for s in all_variants() if s.name == name] == want


class TestRegistry:
    def test_lookup_with_parameters(self):
        scenario = scenario_by_name("mzi_phase", phase="pi")
        assert scenario.params == (("phase", "pi"),)
        assert scenario_by_name("quantum_eraser", basis="Q").params[0] == ("basis", "Q")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("double_slit")

    def test_program_text_serialization(self):
        text = mzi_phase(1).program_text()
        assert "phase R pi;" in text
        assert parse(text) == mzi_phase(1).program

    def test_variant_count(self):
        assert len(list(all_variants())) == 17

    def test_montecarlo_engine_needs_seed(self):
        with pytest.raises(ValueError, match="requires shots and seed"):
            run_scenario(mzi_phase(0), "montecarlo")

    def test_montecarlo_engine_runs(self):
        got = run_scenario(mzi_phase(0), "montecarlo", shots=200, seed=3)
        assert got.probs == {"detector_L": 1}
        assert got.shots == 200

    def test_building_a_scenario_twice_parses_once(self, monkeypatch):
        texts = []
        real = scenarios.parse

        def spy(text):
            texts.append(text)
            return real(text)

        monkeypatch.setattr(scenarios, "parse", spy)
        scenarios._program.cache_clear()
        scenarios._variant.cache_clear()
        first, second = mzi_phase(1), scenario_by_name("mzi_phase", phase="pi")
        assert len(texts) == 1
        assert second.program is first.program

    @pytest.mark.parametrize("name, params", [
        ("mzi_phase", {"phase": 0}), ("mzi_phase", {"phase": 1}), ("mzi_phase", {"phase": "0"}),
        ("mzi_phase", {"phase": "1"}), ("mzi_phase", {"phase": "pi"}),
        ("mzi_whichway", {"kind": "destructive"}),
        ("mzi_whichway", {"kind": DisturbanceKind.DESTRUCTIVE}),
        ("bomb_tester", {"functional": False}),
        ("delayed_choice", {"choice": "phasepi", "timing": "before"}),
        ("quantum_eraser", {"basis": "Q", "ancilla_timing": "before"}),
        ("mirror_removed", {}),
    ])
    def test_accepted_parameters(self, name, params):
        assert scenario_by_name(name, **params).name == name

    def test_phase_and_bomb_values_read_as_documented(self):
        assert scenario_by_name("mzi_phase", phase=1).program == mzi_phase(1).program
        assert scenario_by_name("mzi_phase", phase="0").program == mzi_phase(0).program
        assert scenario_by_name("bomb_tester", functional=False).params == (("bomb", "faulty"),)

    def test_one_object_per_variant(self):
        pi = scenario_by_name("mzi_phase", phase="pi")
        assert scenario_by_name("mzi_phase", phase=1) is pi is scenario_by_name("mzi_phase", phase="1")
        assert scenario_by_name("mzi_phase") is scenario_by_name("mzi_phase", phase=0) is not pi
        assert scenario_by_name("mzi_whichway", kind="destructive") is scenario_by_name(
            "mzi_whichway", kind=DisturbanceKind.DESTRUCTIVE)
        assert scenario_by_name("quantum_eraser") is scenario_by_name(
            "quantum_eraser", basis="P", ancilla_timing="after")

    @pytest.mark.parametrize("value", [["pi"], {"phase": 1}, {1}])
    def test_an_unhashable_value_is_refused_as_a_value(self, value):
        with pytest.raises(ValueError, match="parameter phase=.* is not one of"):
            scenario_by_name("mzi_phase", phase=value)

    @pytest.mark.parametrize("name, param, value", [
        ("mzi_phase", "phase", "banana"),
        ("mzi_phase", "phase", 2),
        ("mzi_phase", "phase", True),
        ("mzi_phase", "phase", 1.0),
        ("bomb_tester", "functional", "false"),
        ("bomb_tester", "functional", 0),
        ("mzi_whichway", "kind", "gentle"),
        ("delayed_choice", "choice", "mirror"),
        ("quantum_eraser", "basis", "X"),
        ("quantum_eraser", "ancilla_timing", "during"),
    ])
    def test_value_outside_the_accepted_forms_refused(self, name, param, value):
        with pytest.raises(ValueError, match=f"parameter {param}={value!r} is not one of"):
            scenario_by_name(name, **{param: value})

    @pytest.mark.parametrize("name, param, value", [
        ("mzi_phase", "kind", "destructive"), ("bomb_tester", "phase", "pi"),
        ("mirror_removed", "timing", "before"), ("quantum_eraser", "timing", "before"),
    ])
    def test_parameter_the_scenario_does_not_take_refused(self, name, param, value):
        with pytest.raises(ValueError, match=f"{name} takes no parameter {param!r}"):
            scenario_by_name(name, **{param: value})
