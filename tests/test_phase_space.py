"""Phase-space types, constructors and the epistemic-state calculus."""

import pytest
from fractions import Fraction

from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    enumerate_valid_states,
    is_valid,
    make_occupied,
    make_vacuum,
    marginal,
)
from scalar_reference import (
    ImpossibleOutcome,
    PhysicalState,
    condition,
    make_ancilla,
    occupation,
    phase,
    product,
    randomize,
)

TWO = RegisterShape(2)


def support_tuples(state):
    return set(state.support_bits())


def from_tuples(shape, tuples):
    return EpistemicState(
        shape, frozenset(sum(b << k for k, b in enumerate(bits)) for bits in tuples)
    )


INPUT_SUPPORT = {(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)}
AFTER_SPLITTER = {(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)}


class TestConstructors:
    def test_occupied_left_of_two(self):
        state = make_occupied(2, 0)
        assert support_tuples(state) == INPUT_SUPPORT
        assert state.probability == Fraction(1, 4)

    def test_occupied_single_mode(self):
        assert support_tuples(make_occupied(1, 0)) == {(1, 0), (1, 1)}

    def test_occupied_right_of_two(self):
        state = make_occupied(2, 1)
        for bits in state.support_bits():
            assert bits[0] == 0 and bits[2] == 1
        assert state.size == 4

    def test_occupied_index_out_of_range(self):
        with pytest.raises(IndexError):
            make_occupied(2, 2)

    def test_vacuum_single(self):
        assert support_tuples(make_vacuum(1)) == {(0, 0), (0, 1)}

    def test_vacuum_two_modes(self):
        state = make_vacuum(2)
        assert state.size == 4
        assert all(bits[0] == 0 and bits[2] == 0 for bits in state.support_bits())

    def test_vacuum_marginal_is_vacuum(self):
        two = make_vacuum(2)
        for m in (0, 1):
            assert marginal(two, modes=(m,)).support == make_vacuum(1).support


class TestValidity:
    def test_point_state_violates_isotropy(self):
        report = is_valid(EpistemicState(RegisterShape(1), frozenset({0})))
        assert not report
        assert report.violation == "isotropy violated"

    def test_parity_known_is_valid(self):
        # N xor Phi known: states (0,0) and (1,1).
        state = EpistemicState(RegisterShape(1), frozenset({0b00, 0b11}))
        assert is_valid(state)

    def test_three_points_not_affine(self):
        state = EpistemicState(RegisterShape(1), frozenset({0b00, 0b10, 0b01}))
        report = is_valid(state)
        assert not report
        assert report.violation == "not an affine subspace"

    def test_empty_support_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EpistemicState(RegisterShape(1), frozenset())

    @pytest.mark.parametrize("point", [16, 1 << 20, -1])
    def test_support_outside_the_register_rejected_at_construction(self, point):
        with pytest.raises(ValueError, match="out of range"):
            EpistemicState(TWO, frozenset({0, 5, point}))

    def test_support_may_reach_the_last_point(self):
        assert EpistemicState(TWO, frozenset({0, TWO.point_count - 1})).size == 2

    def test_single_mode_catalog(self):
        # Exactly 7 valid single-mode states: N, Phi or the parity known
        # (each value), plus full ignorance.
        states = enumerate_valid_states(RegisterShape(1))
        assert len(states) == 7
        assert sorted(s.size for s in states) == [2, 2, 2, 2, 2, 2, 4]
        catalog = {tuple(s.support_bits()) for s in states}
        assert catalog == {
            ((0, 0), (0, 1)),  # N known 0
            ((1, 0), (1, 1)),  # N known 1
            ((0, 0), (1, 0)),  # Phi known 0
            ((0, 1), (1, 1)),  # Phi known 1
            ((0, 0), (1, 1)),  # parity known 0
            ((0, 1), (1, 0)),  # parity known 1
            ((0, 0), (0, 1), (1, 0), (1, 1)),  # nothing known
        }


class TestConditioning:
    def test_condition_after_splitter_on_unoccupied_right(self):
        state = from_tuples(TWO, AFTER_SPLITTER)
        got = condition(state, occupation(TWO, 1), 0)
        assert support_tuples(got) == {(1, 0, 0, 1), (1, 1, 0, 0)}

    def test_redundant_conditioning_is_identity(self):
        state = make_occupied(2, 0)
        assert condition(state, occupation(TWO, 0), 1).support == state.support

    def test_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcome, match="impossible outcome"):
            condition(make_vacuum(1), occupation(RegisterShape(1), 0), 1)

    def test_conditioning_twice_equals_once(self):
        state = from_tuples(TWO, AFTER_SPLITTER)
        once = condition(state, occupation(TWO, 1), 0)
        assert condition(once, occupation(TWO, 1), 0).support == once.support


class TestRandomize:
    def test_restores_input_distribution(self):
        conditioned = from_tuples(TWO, {(1, 0, 0, 1), (1, 1, 0, 0)})
        got = randomize(conditioned, TWO.phase_slot(1))
        assert support_tuples(got) == INPUT_SUPPORT

    def test_idempotent(self):
        state = make_occupied(2, 0)
        slot = TWO.phase_slot(0)
        assert randomize(state, slot).support == randomize(randomize(state, slot), slot).support

    def test_restores_validity_of_point_state(self):
        point = EpistemicState(RegisterShape(1), frozenset({0}))
        assert not is_valid(point)
        fixed = randomize(point, RegisterShape(1).phase_slot(0))
        assert fixed.support == make_vacuum(1).support
        assert is_valid(fixed)

    def test_valid_in_valid_out_everywhere(self):
        for state in enumerate_valid_states(TWO):
            for slot in range(TWO.bit_count):
                assert is_valid(randomize(state, slot))


class TestMarginalProduct:
    def test_marginal_of_entangled_support_is_full(self):
        state = from_tuples(TWO, AFTER_SPLITTER)
        got = marginal(state, modes=(0,))
        assert support_tuples(got) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_marginal_of_occupied_pair_onto_other_mode(self):
        got = marginal(make_occupied(2, 0), modes=(1,))
        assert got.support == make_vacuum(1).support

    def test_product_of_vacua_is_vacuum(self):
        got = product(make_vacuum(1), make_vacuum(1))
        assert got.support == make_vacuum(2).support

    def test_product_marginal_recovers_factor(self):
        left = make_occupied(1, 0)
        combined = product(left, make_vacuum(1))
        assert marginal(combined, modes=(0,)).support == left.support

    def test_product_with_ancilla_shape(self):
        state = product(make_occupied(2, 0), make_ancilla(0))
        assert state.shape == RegisterShape(2, 1)
        assert state.size == 8
        for bits in state.support_bits():
            assert bits[4] == 0  # coordinate bit known

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            marginal(make_vacuum(2))

    def test_repeated_selection_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            marginal(make_vacuum(2), modes=(0, 0))


class TestInvariants:
    def test_flatness_and_power_of_two_preserved(self):
        state = make_occupied(2, 0)
        for op in (
            lambda s: condition(s, occupation(TWO, 0), 1),
            lambda s: randomize(s, TWO.phase_slot(1)),
            lambda s: marginal(s, modes=(0, 1)),
            lambda s: product(s, make_vacuum(1)),
        ):
            out = op(state)
            assert out.size & (out.size - 1) == 0
            assert out.probability == Fraction(1, out.size)

    def test_measurement_update_closure_two_modes(self):
        # Condition on an occupation value, then randomize that phase:
        # valid in, valid out, for every valid state and mode.
        for state in enumerate_valid_states(TWO):
            for mode in (0, 1):
                for value in (0, 1):
                    try:
                        mid = condition(state, occupation(TWO, mode), value)
                    except ImpossibleOutcome:
                        continue
                    out = randomize(mid, TWO.phase_slot(mode))
                    assert is_valid(out), f"{state} mode={mode} value={value}"

    def test_two_mode_catalog_size(self):
        assert len(enumerate_valid_states(TWO)) == 91


class TestRendering:
    def test_canonical_text(self):
        state = make_occupied(2, 0)
        assert (
            state.render()
            == "{(1,0,0,0),(1,0,0,1),(1,1,0,0),(1,1,0,1)}"
        )

    def test_physical_state_round_trip(self):
        shape = RegisterShape(2, 1)
        for index in range(shape.point_count):
            state = PhysicalState.from_index(index, shape)
            assert state.index() == index

    def test_mode_and_ancilla_views(self):
        state = PhysicalState((1, 0, 0, 1, 1, 0), RegisterShape(2, 1))
        assert (state.mode(0).n, state.mode(0).phi) == (1, 0)
        assert (state.mode(1).n, state.mode(1).phi) == (0, 1)
        assert (state.ancilla(0).q, state.ancilla(0).p) == (1, 0)
