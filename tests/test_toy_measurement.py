"""Measurement update rules, destructive equivalence, per-run sampling."""

from fractions import Fraction
from itertools import product as iterproduct

import pytest

from scalar_reference import occupation, outcome_distribution
from scalar_reference import PhysicalState
from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    enumerate_valid_states,
    is_valid,
    make_occupied,
    marginal,
)
from toyfield.toy_measurement import (
    DisturbanceKind,
    measure_ancilla,
    measure_occupation,
    sample_measurement_index,
)

TWO = RegisterShape(2)
ERASER_SHAPE = RegisterShape(2, 1)


def from_tuples(shape, tuples):
    return EpistemicState(
        shape, frozenset(sum(b << k for k, b in enumerate(bits)) for bits in tuples)
    )


AFTER_SPLITTER = from_tuples(
    TWO, {(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)}
)
AFTER_PI_SHIFT = from_tuples(
    TWO, {(0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 1)}
)
INPUT_SUPPORT = {(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)}

# The joint state of both modes and the marking ancilla after the controlled
# interaction: the coordinate bit tracks N_R, the relative phase tracks p.
MARKED = from_tuples(
    ERASER_SHAPE,
    {
        (n_l, phi_l, n_r, phi_r, q, p)
        for (n_l, n_r, q) in ((1, 0, 0), (0, 1, 1))
        for p, pairs in ((0, ((0, 1), (1, 0))), (1, ((0, 0), (1, 1))))
        for (phi_l, phi_r) in pairs
    },
)


class TestOutcomeDistribution:
    def test_uniform_after_splitter(self):
        probs = dict(outcome_distribution(AFTER_SPLITTER, occupation(TWO, 1)))
        assert probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_deterministic_port_after_pi_shift(self):
        from toyfield.toy_dynamics import Beamsplitter, push_forward

        final = push_forward(AFTER_PI_SHIFT, Beamsplitter(0, 1))
        probs = dict(outcome_distribution(final, occupation(TWO, 0)))
        assert probs[0] == 1 and probs[1] == 0

    def test_vacuum_is_surely_empty(self):
        from toyfield.phase_space import make_vacuum

        one = RegisterShape(1)
        probs = dict(outcome_distribution(make_vacuum(1), occupation(one, 0)))
        assert probs[0] == 1


class TestMeasureOccupation:
    def test_unfired_detector_restores_input_distribution(self):
        outcomes = measure_occupation(AFTER_SPLITTER, 1, DisturbanceKind.NONDESTRUCTIVE)
        by_value = {o.value: o for o in outcomes}
        assert by_value[0].probability == Fraction(1, 2)
        assert set(by_value[0].posterior.support_bits()) == INPUT_SUPPORT

    def test_destructive_posterior_matches_when_unoccupied(self):
        nd = {o.value: o for o in measure_occupation(AFTER_SPLITTER, 1, DisturbanceKind.NONDESTRUCTIVE)}
        de = {o.value: o for o in measure_occupation(AFTER_SPLITTER, 1, DisturbanceKind.DESTRUCTIVE)}
        assert nd[0].posterior.support == de[0].posterior.support

    def test_repeatability_on_occupied_mode(self):
        state = make_occupied(1, 0)
        outcomes = measure_occupation(state, 0, DisturbanceKind.NONDESTRUCTIVE)
        assert len(outcomes) == 1
        only = outcomes[0]
        assert only.value == 1 and only.probability == 1
        assert set(only.posterior.support_bits()) == {(1, 0), (1, 1)}

    def test_repeatability_everywhere(self):
        for state in enumerate_valid_states(TWO):
            for mode in (0, 1):
                for outcome in measure_occupation(state, mode, DisturbanceKind.NONDESTRUCTIVE):
                    again = measure_occupation(outcome.posterior, mode)
                    assert [(o.value, o.probability) for o in again] == [
                        (outcome.value, Fraction(1))
                    ]

    def test_posteriors_are_valid(self):
        for state in enumerate_valid_states(TWO):
            for mode in (0, 1):
                for kind in DisturbanceKind:
                    for outcome in measure_occupation(state, mode, kind):
                        assert is_valid(outcome.posterior)


class TestDestructiveEquivalence:
    def test_distribution_level_equivalence_exhaustive(self):
        # Same outcome statistics and the same posterior for everything that
        # was not measured, for every valid two-mode state.
        for state in enumerate_valid_states(TWO):
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

    def test_destructive_leaves_mode_unoccupied(self):
        for outcome in measure_occupation(AFTER_SPLITTER, 1, DisturbanceKind.DESTRUCTIVE):
            assert marginal(outcome.posterior, modes=(1,)).support == frozenset({0, 2})


class TestEraserEvolution:
    def test_marking_chain_reproduces_frozen_supports(self):
        # Build the joint state from its factors, then follow the two
        # evolution steps; each support is pinned exactly.
        from scalar_reference import make_ancilla, product
        from toyfield.phase_space import make_occupied
        from toyfield.toy_dynamics import Beamsplitter, Cnot, push_forward

        joint = product(make_occupied(2, 0), make_ancilla(0))
        after_splitter = push_forward(joint, Beamsplitter(0, 1))
        expected = {
            (n_l, phi_l, n_r, phi_r, 0, p)
            for (n_l, phi_l, n_r, phi_r) in {
                (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0),
            }
            for p in (0, 1)
        }
        assert set(after_splitter.support_bits()) == expected
        marked = push_forward(after_splitter, Cnot(1, 0))
        assert marked.support == MARKED.support


class TestMeasureAncilla:
    def test_coordinate_reveals_occupation(self):
        outcomes = {o.value: o for o in measure_ancilla(MARKED, 0, "Q")}
        assert outcomes[0].probability == Fraction(1, 2)
        # Outcome a0 pins the right mode unoccupied.
        right = marginal(outcomes[0].posterior, modes=(1,))
        assert all(bits[0] == 0 for bits in right.support_bits())

    def test_momentum_reveals_relative_phase(self):
        outcomes = {o.value: o for o in measure_ancilla(MARKED, 0, "P")}
        minus = outcomes[1].posterior
        phases = marginal(minus, modes=(0, 1))
        assert all(bits[1] ^ bits[3] == 0 for bits in phases.support_bits())

    def test_fresh_ancilla_momentum_is_uniform(self):
        from scalar_reference import make_ancilla

        outcomes = measure_ancilla(make_ancilla(0), 0, "P")
        assert [(o.value, o.probability) for o in outcomes] == [
            (0, Fraction(1, 2)),
            (1, Fraction(1, 2)),
        ]

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            measure_ancilla(MARKED, 0, "X")


def sample(state: PhysicalState, mode: int, kind: DisturbanceKind, coin: int):
    value, index = sample_measurement_index(state.index(), state.shape, mode, kind, coin)
    return value, PhysicalState.from_index(index, state.shape)


class TestSampling:
    def test_possible_results_nondestructive(self):
        state = PhysicalState((1, 0, 0, 1), TWO)
        seen = set()
        for coin in (0, 1):
            value, out = sample(state, 1, DisturbanceKind.NONDESTRUCTIVE, coin)
            assert value == 0
            seen.add(out.bits)
        assert seen == {(1, 0, 0, 1), (1, 0, 0, 0)}

    def test_destructive_absorbs(self):
        state = PhysicalState((1, 1), RegisterShape(1))
        for coin in (0, 1):
            value, out = sample(state, 0, DisturbanceKind.DESTRUCTIVE, coin)
            assert value == 1
            assert out.mode(0).n == 0

    def test_seeded_reproducibility(self):
        # The coin is a run's only randomness: equal coins, equal runs.
        state = PhysicalState((1, 0, 0, 1), TWO)
        for coin in (0, 1):
            a = sample(state, 1, DisturbanceKind.NONDESTRUCTIVE, coin)
            b = sample(state, 1, DisturbanceKind.NONDESTRUCTIVE, coin)
            assert a == b

    def test_locality_witness(self):
        # Measuring the right mode never moves the left mode's bits, for
        # any input and either disturbance choice.
        for index, kind, coin in iterproduct(range(16), DisturbanceKind, (0, 1)):
            _, new_index = sample_measurement_index(index, TWO, 1, kind, coin)
            assert (new_index ^ index) & 0b0011 == 0

    def test_sampling_average_matches_exact_posterior(self):
        # Averaging the sampled update over the support and both coins
        # reproduces the exact two-step update, outcome by outcome.
        from scalar_reference import step_run_index
        from toyfield.circuits import MeasureStep
        from toyfield.toy_measurement import sample_measurement_index

        def accumulate(state, update):
            accumulated: dict[int, set[int]] = {}
            for x in state.support:
                for coin in (0, 1):
                    value, y = update(x, coin)
                    accumulated.setdefault(value, set()).add(y)
            return accumulated

        for shape in (TWO, ERASER_SHAPE):
            for state in enumerate_valid_states(shape):
                for mode in range(shape.modes):
                    for kind in DisturbanceKind:
                        accumulated = accumulate(
                            state,
                            lambda x, coin: sample_measurement_index(x, shape, mode, kind, coin),
                        )
                        exact = measure_occupation(state, mode, kind)
                        assert {o.value: set(o.posterior.support) for o in exact} == accumulated
        for shape in (RegisterShape(1, 1), ERASER_SHAPE):
            for state in enumerate_valid_states(shape):
                for basis in ("Q", "P"):
                    step = MeasureStep("a", "ancilla", 0, basis, DisturbanceKind.NONDESTRUCTIVE)
                    accumulated = accumulate(
                        state, lambda x, coin: step_run_index(x, shape, step, coin)
                    )
                    exact = measure_ancilla(state, 0, basis)
                    assert {o.value: set(o.posterior.support) for o in exact} == accumulated


class TestKernel:
    def test_triples_on_register_slots(self):
        # Each variable reads its own bit and flips the conjugate one of the
        # same subsystem; only a destructive detector clears anything.
        from toyfield.toy_measurement import measurement_kernel

        shape = ERASER_SHAPE
        everything = (1 << shape.bit_count) - 1
        for mode in range(shape.modes):
            n, phi = shape.occupation_slot(mode), shape.phase_slot(mode)
            read, keep, flip = measurement_kernel("N", mode, 2, 1)
            assert (read, keep & everything, flip) == (n, everything, phi)
            read, keep, flip = measurement_kernel("N", mode, 2, 1, True)
            assert (read, keep & everything, flip) == (
                n, everything & ~(1 << n) & ~(1 << phi), phi,
            )
        q, p = shape.coordinate_slot(0), shape.momentum_slot(0)
        assert measurement_kernel("Q", 0, 2, 1)[::2] == (q, p)
        assert measurement_kernel("P", 0, 2, 1)[::2] == (p, q)

    def test_labels(self):
        assert [o.variable for o in measure_occupation(MARKED, 1)] == ["N_1", "N_1"]
        assert {o.variable for o in measure_ancilla(MARKED, 0, "Q")} == {"Q_0"}
        assert {o.variable for o in measure_ancilla(MARKED, 0, "P")} == {"P_0"}

    def test_out_of_range_targets_rejected(self):
        with pytest.raises(IndexError):
            measure_occupation(MARKED, 2)
        with pytest.raises(IndexError):
            measure_ancilla(MARKED, 1, "Q")
        with pytest.raises(ValueError):
            measure_ancilla(MARKED, 0, "N")
