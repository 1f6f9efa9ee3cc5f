"""Gate permutations: splitter algebra, push-forwards, conservation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    enumerate_valid_states,
    is_valid,
    make_vacuum,
    make_occupied,
)
from toyfield.toy_dynamics import (
    Beamsplitter,
    Cnot,
    Identity,
    PhaseShift,
    SwapModes,
    apply_gate_index,
    beamsplitter_rule,
    gate_table,
    kernel_forward,
    push_forward,
)
from toyfield import toy_dynamics
from scalar_reference import (
    PhysicalState,
    beamsplitter_formula,
    beamsplitter_swap_rule,
    apply_beamsplitter,
    apply_cnot,
    apply_gate,
    apply_phase_shift,
    apply_swap,
)

TWO = RegisterShape(2)


def ps(*bits) -> PhysicalState:
    n = len(bits) // 2
    return PhysicalState(tuple(bits), RegisterShape(n))


def ps_anc(*bits) -> PhysicalState:
    return PhysicalState(tuple(bits), RegisterShape(len(bits) // 2 - 1, 1))


def from_tuples(shape, tuples):
    return EpistemicState(
        shape, frozenset(sum(b << k for k, b in enumerate(bits)) for bits in tuples)
    )


INPUT_SUPPORT = {(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)}
AFTER_SPLITTER = {(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)}
AFTER_PI_SHIFT = {(0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 1, 0, 1)}


class TestBeamsplitter:
    def test_occupied_left_result(self):
        assert apply_beamsplitter(ps(1, 0, 0, 0), 0, 1) == ps(0, 1, 1, 0)

    def test_all_zero_fixed_point(self):
        assert apply_beamsplitter(ps(0, 0, 0, 0), 0, 1) == ps(0, 0, 0, 0)

    def test_self_inverse_on_all_sixteen(self):
        for index in range(16):
            state = PhysicalState.from_index(index, TWO)
            assert apply_beamsplitter(apply_beamsplitter(state, 0, 1), 0, 1) == state

    def test_formula_equals_swap_rule_on_all_sixteen(self):
        for index in range(16):
            bits = tuple((index >> k) & 1 for k in range(4))
            assert beamsplitter_formula(*bits) == beamsplitter_swap_rule(*bits)

    def test_passive_on_unoccupied_pair(self):
        # A splitter with nothing arriving does nothing: without this, a
        # pair of vacuum inputs with odd relative phase would turn into a
        # doubly occupied pair.
        assert apply_beamsplitter(ps(0, 1, 0, 0), 0, 1) == ps(0, 1, 0, 0)
        assert apply_beamsplitter(ps(0, 0, 0, 1), 0, 1) == ps(0, 0, 0, 1)

    def test_rule_is_the_formula_where_one_input_is_occupied(self):
        for index in range(16):
            bits = tuple((index >> k) & 1 for k in range(4))
            single = bits[0] ^ bits[2]
            assert beamsplitter_rule(*bits) == (beamsplitter_formula(*bits) if single else bits)

    def test_rule_on_columns_equals_the_scalar_rule_per_lane(self):
        import numpy as np

        lanes = np.arange(16, dtype=np.uint8)
        columns = beamsplitter_rule(*((lanes >> k) & 1 for k in range(4)))
        assert all(column.dtype == np.uint8 and column.shape == (16,) for column in columns)
        for lane in range(16):
            bits = tuple((lane >> k) & 1 for k in range(4))
            assert tuple(int(column[lane]) for column in columns) == beamsplitter_rule(*bits)

    def test_raw_formula_creates_pairs_off_sector(self):
        # The raw algebraic map, by contrast, swaps occupation with the
        # relative phase wherever it is applied.
        n_a, phi_a, n_b, phi_b = beamsplitter_formula(0, 1, 0, 0)
        assert (n_a, n_b) == (1, 1)

    def test_conserves_total_occupation(self):
        for index in range(16):
            state = PhysicalState.from_index(index, TWO)
            out = apply_beamsplitter(state, 0, 1)
            assert (out.mode(0).n ^ out.mode(1).n) == (
                state.mode(0).n ^ state.mode(1).n
            )

    def test_phase_shift_and_cnot_conserve_occupations(self):
        for index in range(16):
            state = PhysicalState.from_index(index, TWO)
            shifted = apply_phase_shift(state, 1, 1)
            assert shifted.mode(0).n == state.mode(0).n
            assert shifted.mode(1).n == state.mode(1).n
        shape = RegisterShape(1, 1)
        for index in range(16):
            state = PhysicalState.from_index(index, shape)
            out = apply_cnot(state, 0, 0)
            assert out.mode(0).n == state.mode(0).n

    def test_argument_order_matters(self):
        # The second argument's phase passes through unchanged.
        state = ps(1, 1, 0, 0)
        forward = apply_beamsplitter(state, 0, 1)
        reverse = apply_beamsplitter(state, 1, 0)
        assert forward.mode(1).phi == state.mode(1).phi
        assert reverse.mode(0).phi == state.mode(0).phi
        assert forward != reverse


class TestOtherGates:
    def test_phase_shift_flips(self):
        assert apply_phase_shift(ps(1, 0), 0, 1) == ps(1, 1)

    def test_phase_shift_zero_is_identity(self):
        for index in range(4):
            state = PhysicalState.from_index(index, RegisterShape(1))
            assert apply_phase_shift(state, 0, 0) == state

    def test_phase_shift_involution(self):
        for index in range(4):
            state = PhysicalState.from_index(index, RegisterShape(1))
            assert apply_phase_shift(apply_phase_shift(state, 0, 1), 0, 1) == state

    @pytest.mark.parametrize(
        "before,after",
        [
            ((1, 0, 0, 1), (1, 1, 1, 1)),
            ((0, 0, 0, 0), (0, 0, 0, 0)),
            ((1, 1, 1, 0), (1, 1, 0, 0)),
        ],
    )
    def test_cnot_examples(self, before, after):
        # Register: one mode (control) plus one ancilla.
        assert apply_cnot(ps_anc(*before), 0, 0) == ps_anc(*after)

    def test_swap_exchanges_modes(self):
        assert apply_swap(ps(1, 0, 0, 1), 0, 1) == ps(0, 1, 1, 0)
        state = ps(1, 1, 0, 0)
        assert apply_swap(apply_swap(state, 0, 1), 0, 1) == state

    def test_swap_exports_uniform_phase(self):
        # Swapping with a fresh vacuum mode leaves the register mode in the
        # vacuum's uniform-phase state.
        from scalar_reference import product
        from toyfield.phase_space import marginal

        state = product(make_occupied(1, 0), make_vacuum(1))
        moved = push_forward(state, SwapModes(0, 1))
        assert marginal(moved, modes=(0,)).support == make_vacuum(1).support
        assert marginal(moved, modes=(1,)).support == make_occupied(1, 0).support


GATES_TWO_MODE = [
    Beamsplitter(0, 1),
    Beamsplitter(1, 0),
    PhaseShift(0, 1),
    PhaseShift(1, 1),
    SwapModes(0, 1),
    Identity(),
]


class TestPermutations:
    @pytest.mark.parametrize("gate", GATES_TWO_MODE, ids=repr)
    def test_bijection_on_two_modes(self, gate):
        table = gate_table(gate, TWO)
        assert sorted(table) == list(range(16))

    def test_cnot_bijection(self):
        table = gate_table(Cnot(0, 0), RegisterShape(1, 1))
        assert sorted(table) == list(range(16))

    @given(st.integers(0, 15), st.sampled_from(GATES_TWO_MODE))
    def test_apply_matches_table(self, index, gate):
        state = PhysicalState.from_index(index, TWO)
        assert apply_gate(gate, state).index() == gate_table(gate, TWO)[index]


class TestPushForward:
    def test_input_through_splitter(self):
        state = from_tuples(TWO, INPUT_SUPPORT)
        out = push_forward(state, Beamsplitter(0, 1))
        assert set(out.support_bits()) == AFTER_SPLITTER

    def test_pi_shift_after_splitter(self):
        state = from_tuples(TWO, AFTER_SPLITTER)
        out = push_forward(state, PhaseShift(1, 1))
        assert set(out.support_bits()) == AFTER_PI_SHIFT

    def test_second_splitter_returns_to_input(self):
        state = from_tuples(TWO, AFTER_SPLITTER)
        out = push_forward(state, Beamsplitter(0, 1))
        assert set(out.support_bits()) == INPUT_SUPPORT

    def test_preserves_flatness_and_cardinality(self):
        for state in enumerate_valid_states(TWO):
            for gate in GATES_TWO_MODE:
                out = push_forward(state, gate)
                assert out.size == state.size

    def test_linear_gates_preserve_validity(self):
        for state in enumerate_valid_states(TWO):
            for gate in (PhaseShift(0, 1), PhaseShift(1, 1), SwapModes(0, 1), Identity()):
                assert is_valid(push_forward(state, gate))

    def test_splitter_preserves_validity_within_a_sector(self):
        from scalar_reference import delta_occupation

        dn = delta_occupation(TWO, 0, 1).mask
        for state in enumerate_valid_states(TWO):
            parities = {(x & dn).bit_count() & 1 for x in state.support}
            if len(parities) == 1:
                assert is_valid(push_forward(state, Beamsplitter(0, 1)))

    def test_splitter_on_straddling_support(self):
        # A support spread across both occupation sectors can leave the
        # valid set (mixtures across sectors exit the theory's state space,
        # exactly as the corresponding quantum state leaves the stabilizer
        # set).  The distribution bookkeeping stays exact regardless.
        from scalar_reference import delta_phase

        dphi = delta_phase(TWO, 0, 1)
        straddling = EpistemicState(
            TWO,
            frozenset(
                x for x in range(16) if ((x & dphi.mask).bit_count() & 1) == 1
            ),
        )
        assert is_valid(straddling)
        out = push_forward(straddling, Beamsplitter(0, 1))
        assert out.size == straddling.size
        assert not is_valid(out)


def all_gates(shape):
    pairs = [(a, b) for a in range(shape.modes) for b in range(shape.modes) if a != b]
    yield from (Beamsplitter(a, b) for a, b in pairs)
    yield from (SwapModes(a, b) for a, b in pairs)
    for mode in range(shape.modes):
        yield from (PhaseShift(mode, s) for s in (0, 1))
        yield from (Cnot(mode, ancilla) for ancilla in range(shape.ancillas))
    yield Identity()


SMALL_SHAPES = [
    RegisterShape(modes, ancillas)
    for modes in range(4)
    for ancillas in range(4 - modes)
    if modes + ancillas
]


class TestKernel:
    """Gates applied through their subsystems' kernels equal the scalar loop."""

    @pytest.mark.parametrize("shape", SMALL_SHAPES + [RegisterShape(5)], ids=repr)
    def test_table_and_image_equal_scalar_loop(self, shape):
        for gate in all_gates(shape):
            expected = tuple(
                apply_gate_index(gate, index, shape) for index in range(shape.point_count)
            )
            assert gate_table(gate, shape) == expected, gate
            # a register of more than three subsystems is pushed through the kernel
            forward = push_forward if shape.subsystems <= 3 else kernel_forward
            for support in (frozenset(range(k, shape.point_count, 3)) for k in range(3)):
                moved = forward(EpistemicState(shape, support), gate)
                assert moved.support == frozenset(expected[x] for x in support), gate

    @pytest.mark.parametrize("shape", [TWO, RegisterShape(2, 1)], ids=repr)
    def test_lazy_push_forward_equals_table_image(self, shape):
        for gate in all_gates(shape):
            table = gate_table(gate, shape)
            for state in enumerate_valid_states(shape):
                moved = kernel_forward(state, gate)
                assert moved.support == frozenset(table[x] for x in state.support)

    @pytest.mark.parametrize(
        "scalar",
        [lambda gate, index, shape: index ^ (1 << 7),  # writes into mode 3
         lambda gate, index, shape: index & ~1],  # not a permutation
        ids=["leaks", "collides"],
    )
    def test_kernel_rejects_a_bad_local_map(self, scalar, monkeypatch):
        monkeypatch.setattr(toy_dynamics, "apply_gate_index", scalar)
        toy_dynamics._gate_kernel.cache_clear()  # an earlier run may hold the gate's kernel
        with pytest.raises(ValueError, match="not a bijection"):
            toy_dynamics._gate_kernel(PhaseShift(0, 1), RegisterShape(4))

    @pytest.mark.parametrize("modes", [2, 5])
    def test_compile_refuses_a_gate_that_is_not_a_permutation(self, modes, monkeypatch):
        from toyfield.circuits import compile_toy, parse

        names = " ".join(f"m{k}" for k in range(modes))
        program = parse(f"mode {names}; source m0; bs m0 m1; detect m0 as d;")
        monkeypatch.setattr(toy_dynamics, "apply_gate_index", lambda gate, index, shape: index & ~1)
        toy_dynamics.gate_table.cache_clear()
        toy_dynamics._gate_kernel.cache_clear()
        with pytest.raises(ValueError, match="not a bijection"):
            compile_toy(program)
        assert toy_dynamics.gate_table.cache_info().currsize == 0
        assert toy_dynamics._gate_kernel.cache_info().currsize == 0
        monkeypatch.undo()
        assert compile_toy(program).program is program  # the refusal kept nothing

    def test_exact_run_on_ten_modes_builds_no_gate_table(self):
        from toyfield.circuits import compile_toy, parse, run_toy_exact

        lines = ["mode " + " ".join(f"m{k}" for k in range(10)) + ";"]
        for pair in range(5):
            a, b = f"m{2 * pair}", f"m{2 * pair + 1}"
            phase = "pi" if pair % 2 else "0"
            lines += [f"source {a};", f"vacuum {b};", f"bs {a} {b};",
                      f"phase {b} {phase};", f"bs {a} {b};"]
        lines += [f"detect m{k} as d{k};" for k in range(10)]
        misses = gate_table.cache_info().misses
        joint = run_toy_exact(compile_toy(parse("\n".join(lines))))
        assert gate_table.cache_info().misses == misses
        clicks = {2 * pair + pair % 2 for pair in range(5)}
        assert joint == {tuple(sorted((f"d{k}", int(k in clicks)) for k in range(10))): 1}

    def test_wide_push_forwards_keep_no_point(self):
        import gc
        import tracemalloc

        from toyfield.circuits import compile_toy, parse, run_toy_exact

        def run_bank(pairs, phase):
            """Five interferometers on ten modes, one per ``(source, vacuum)`` pair."""
            lines = ["mode " + " ".join(f"m{k}" for k in range(10)) + ";"]
            lines += [f"source m{a}; vacuum m{b};" for a, b in pairs]
            for a, b in pairs:
                lines += [f"bs m{a} m{b};", f"phase m{b} {phase};", f"bs m{a} m{b};"]
            lines += [f"detect m{k} as d{k};" for k in range(10)]
            run_toy_exact(compile_toy(parse("\n".join(lines))))

        run_bank([(k, k + 1) for k in range(0, 10, 2)], "0")  # warms every other cache
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_bank([(k + 1, k) for k in range(0, 10, 2)], "pi")
            run_bank([(k, 9 - k) for k in range(5)], "0")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, retained
