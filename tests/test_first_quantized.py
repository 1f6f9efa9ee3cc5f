"""Coarse-graining onto (which-way, relative phase) and its commutation."""

import pytest
from fractions import Fraction

from toyfield.first_quantized import (
    FqEpistemicState,
    FqState,
    SECTOR_INDICES,
    SectorError,
    check_commutation,
    coarse_grain_epistemic,
    coarse_grain_index,
    fq_beamsplitter,
    fq_measure_whichway,
    fq_phase_shift,
)
from scalar_reference import PhysicalState
from toyfield.phase_space import RegisterShape, make_occupied
from toyfield.toy_dynamics import Beamsplitter, Cnot, PhaseShift

TWO = RegisterShape(2)


def ps(*bits):
    return PhysicalState(tuple(bits), TWO)


class TestCoarseGrain:
    def test_left_occupied_with_odd_phase(self):
        got = coarse_grain_index(ps(1, 0, 0, 1).index())
        assert got == FqState(w=1, theta=1)
        assert got.way == "L"

    def test_right_occupied_even_phase(self):
        got = coarse_grain_index(ps(0, 0, 1, 0).index())
        assert got == FqState(w=0, theta=0)
        assert got.way == "R"

    def test_rejects_empty_register(self):
        with pytest.raises(SectorError):
            coarse_grain_index(ps(0, 0, 0, 0).index())

    def test_exactly_two_to_one(self):
        preimages: dict[FqState, int] = {}
        for index in SECTOR_INDICES:
            preimages[coarse_grain_index(index)] = (
                preimages.get(coarse_grain_index(index), 0) + 1
            )
        assert len(SECTOR_INDICES) == 8
        assert set(preimages.values()) == {2}
        assert len(preimages) == 4

    def test_joint_phase_flip_in_kernel(self):
        for index in SECTOR_INDICES:
            flipped = index ^ 0b1010  # both phase bits
            assert coarse_grain_index(index) == coarse_grain_index(flipped)

    def test_input_state_coarse_grains_to_known_way(self):
        coarse = coarse_grain_epistemic(make_occupied(2, 0))
        assert coarse.support == frozenset({FqState(1, 0), FqState(1, 1)})
        assert coarse.is_valid()


class TestFqOperations:
    def test_splitter_swaps(self):
        assert fq_beamsplitter(FqState(1, 0)) == FqState(0, 1)
        assert fq_beamsplitter(FqState(0, 0)) == FqState(0, 0)

    def test_reversed_splitter_swaps_with_complement(self):
        from toyfield.first_quantized import fq_beamsplitter_reversed
        from scalar_reference import apply_gate

        # The coarse image of the reversed-orientation splitter, checked
        # against the fine dynamics on every sector state.
        for index in SECTOR_INDICES:
            state = PhysicalState.from_index(index, TWO)
            fine = coarse_grain_index(apply_gate(Beamsplitter(1, 0), state).index())
            assert fine == fq_beamsplitter_reversed(coarse_grain_index(state.index()))

    def test_splitter_involution(self):
        for w in (0, 1):
            for theta in (0, 1):
                state = FqState(w, theta)
                assert fq_beamsplitter(fq_beamsplitter(state)) == state

    def test_phase_shift(self):
        assert fq_phase_shift(FqState(1, 0), 1) == FqState(1, 1)
        assert fq_phase_shift(FqState(1, 0), 0) == FqState(1, 0)

    def test_measure_correlated_state(self):
        state = FqEpistemicState(frozenset({FqState(1, 1), FqState(0, 0)}))
        outcomes = {v: (p, post) for v, p, post in fq_measure_whichway(state)}
        prob, posterior = outcomes[1]
        assert prob == Fraction(1, 2)
        assert posterior.support == frozenset({FqState(1, 0), FqState(1, 1)})

    def test_measure_known_way_repeats(self):
        state = FqEpistemicState(frozenset({FqState(1, 0), FqState(1, 1)}))
        outcomes = fq_measure_whichway(state)
        assert [(v, p) for v, p, _ in outcomes] == [(1, Fraction(1))]

    def test_measure_uniform_state(self):
        state = FqEpistemicState(
            frozenset(FqState(w, t) for w in (0, 1) for t in (0, 1))
        )
        outcomes = fq_measure_whichway(state)
        assert [(v, p) for v, p, _ in outcomes] == [
            (0, Fraction(1, 2)),
            (1, Fraction(1, 2)),
        ]

    def test_validity_rule(self):
        assert FqEpistemicState(frozenset({FqState(0, 0), FqState(1, 1)})).is_valid()
        assert not FqEpistemicState(frozenset({FqState(0, 0)})).is_valid()


class TestCommutation:
    def test_interferometer_with_shifter(self):
        for s in (0, 1):
            circuit = [Beamsplitter(0, 1), PhaseShift(1, s), Beamsplitter(0, 1)]
            assert check_commutation(circuit)

    def test_interferometer_with_detector(self):
        circuit = [Beamsplitter(0, 1), ("measure", 1), Beamsplitter(0, 1)]
        assert check_commutation(circuit)

    def test_measurement_on_left_mode(self):
        circuit = [Beamsplitter(0, 1), ("measure", 0), Beamsplitter(0, 1)]
        assert check_commutation(circuit)

    def test_joint_phase_flip_acts_as_identity(self):
        report = check_commutation([PhaseShift(0, 1), PhaseShift(1, 1)])
        assert report
        # The coarse image of the double flip is the identity map.
        for index in SECTOR_INDICES:
            assert coarse_grain_index(index ^ 0b1010) == coarse_grain_index(index)

    def test_gate_without_counterpart_reported(self):
        report = check_commutation([Cnot(0, 0)])
        assert not report
        assert "no coarse counterpart" in report.detail


from hypothesis import given, settings
from hypothesis import strategies as st
from toyfield.toy_dynamics import SwapModes

_SECTOR_STEPS = st.sampled_from(
    [
        Beamsplitter(0, 1),
        Beamsplitter(1, 0),
        PhaseShift(0, 1),
        PhaseShift(1, 1),
        PhaseShift(1, 0),
        SwapModes(0, 1),
        ("measure", 0),
        ("measure", 1),
    ]
)


class TestCommutationProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_SECTOR_STEPS, max_size=5))
    def test_any_sector_circuit_commutes(self, circuit):
        # Every circuit built from sector-preserving pieces commutes with
        # the coarse-graining, not just the scripted interferometers.
        assert check_commutation(circuit)
