"""Coarse-graining onto (which-way, relative phase) and its commutation.

The coarse theory is the toy theory of one mode: a coarse point is the packed
int ``w | theta << 1`` on ``COARSE``.
"""

import pytest
from fractions import Fraction

from toyfield import first_quantized
from toyfield.first_quantized import (
    COARSE,
    SECTOR_INDICES,
    SectorError,
    check_commutation,
    coarse_grain_epistemic,
    coarse_grain_gate,
    coarse_grain_index,
)
from scalar_reference import PhysicalState
from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    enumerate_valid_states,
    is_valid,
    make_occupied,
)
from toyfield.toy_dynamics import Beamsplitter, Cnot, PhaseShift
from toyfield.toy_measurement import measure_occupation

TWO = RegisterShape(2)


def ps(*bits):
    return PhysicalState(tuple(bits), TWO)


def pt(w, theta):
    """The coarse point with which-way bit ``w`` and relative phase ``theta``."""
    return w | theta << 1


def coarse(*points):
    return EpistemicState(COARSE, frozenset(points))


class TestCoarseGrain:
    def test_left_occupied_with_odd_phase(self):
        assert coarse_grain_index(ps(1, 0, 0, 1).index()) == pt(w=1, theta=1)

    def test_right_occupied_even_phase(self):
        assert coarse_grain_index(ps(0, 0, 1, 0).index()) == pt(w=0, theta=0)

    def test_rejects_empty_register(self):
        with pytest.raises(SectorError):
            coarse_grain_index(ps(0, 0, 0, 0).index())

    def test_exactly_two_to_one(self):
        preimages: dict[int, int] = {}
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
        image = coarse_grain_epistemic(make_occupied(2, 0))
        assert image == coarse(pt(1, 0), pt(1, 1))
        assert is_valid(image)

    def test_sector_states_are_the_one_mode_states(self):
        # The valid two-mode states supported in the sector coarse-grain one
        # to one onto the valid states of one mode: 7 and 7.
        sector = set(SECTOR_INDICES)
        fine = [s for s in enumerate_valid_states(TWO) if s.support <= sector]
        images = [coarse_grain_epistemic(s) for s in fine]
        assert len(fine) == len(set(images)) == 7
        assert set(images) == set(enumerate_valid_states(COARSE))


class TestFqOperations:
    def test_splitter_swaps(self):
        table = coarse_grain_gate(Beamsplitter(0, 1))
        assert table[pt(1, 0)] == pt(0, 1)
        assert table[pt(0, 0)] == pt(0, 0)

    def test_reversed_splitter_swaps_with_complement(self):
        from scalar_reference import apply_gate

        # The coarse image of the reversed-orientation splitter, checked
        # against the fine dynamics on every sector state.
        table = coarse_grain_gate(Beamsplitter(1, 0))
        for index in SECTOR_INDICES:
            state = PhysicalState.from_index(index, TWO)
            fine = coarse_grain_index(apply_gate(Beamsplitter(1, 0), state).index())
            assert fine == table[coarse_grain_index(state.index())]

    def test_splitter_involution(self):
        table = coarse_grain_gate(Beamsplitter(0, 1))
        for w in (0, 1):
            for theta in (0, 1):
                assert table[table[pt(w, theta)]] == pt(w, theta)

    def test_phase_shift(self):
        for mode in (0, 1):
            assert coarse_grain_gate(PhaseShift(mode, 1))[pt(1, 0)] == pt(1, 1)
            assert coarse_grain_gate(PhaseShift(mode, 0))[pt(1, 0)] == pt(1, 0)

    def test_measure_correlated_state(self):
        state = coarse(pt(1, 1), pt(0, 0))
        outcomes = {o.value: o for o in measure_occupation(state, 0)}
        assert outcomes[1].probability == Fraction(1, 2)
        assert outcomes[1].posterior == coarse(pt(1, 0), pt(1, 1))

    def test_measure_known_way_repeats(self):
        outcomes = measure_occupation(coarse(pt(1, 0), pt(1, 1)), 0)
        assert [(o.value, o.probability) for o in outcomes] == [(1, Fraction(1))]

    def test_measure_uniform_state(self):
        state = coarse(*(pt(w, t) for w in (0, 1) for t in (0, 1)))
        outcomes = measure_occupation(state, 0)
        assert [(o.value, o.probability) for o in outcomes] == [
            (0, Fraction(1, 2)),
            (1, Fraction(1, 2)),
        ]

    def test_validity_rule(self):
        assert is_valid(coarse(pt(0, 0), pt(1, 1)))
        assert not is_valid(coarse(pt(0, 0)))


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

    def test_splitter_table_without_complement_caught(self, monkeypatch):
        # Negative control: a reversed splitter that only swaps w and theta is
        # caught by the check on ontic states.
        monkeypatch.setattr(first_quantized, "_SPLITTER_REVERSED", (0, 2, 1, 3))
        report = check_commutation([Beamsplitter(1, 0)])
        assert not report
        assert "disagrees on ontic state" in report.detail

    def test_right_detector_read_as_w_caught(self, monkeypatch):
        # Negative control: a coarse measurement that records w for N_R, not
        # its complement, is caught by the branch comparison at the detector.
        def reads_w(state, step):
            return first_quantized.toy_measure(state, first_quantized._WHICHWAY)

        monkeypatch.setattr(first_quantized, "_coarse_measure", reads_w)
        report = check_commutation([Beamsplitter(0, 1), ("measure", 1), Beamsplitter(0, 1)])
        assert not report
        assert report.detail.startswith("step 2 disagrees")
        assert check_commutation([Beamsplitter(0, 1), ("measure", 0), Beamsplitter(0, 1)])


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
