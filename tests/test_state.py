import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from conftest import (
    BOTH_CHECKS,
    dft_matrix,
    embed_controlled,
    embed_register,
    embed_single,
    random_program,
    random_state_map,
    random_unitary,
    run_program,
    traced,
)

from fermisim.antisym import encode_labels
from fermisim.observables import SamplingPlan
from fermisim.oracle import pack_words
from fermisim.state import (
    MAX_TRIALS,
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    init_basis_state,
    inject_state,
    validation_mode,
)

X = np.array([[0, 1], [1, 0]], dtype=float)
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)

TWO = RegisterLayout.of(("q", 2))
THREE = RegisterLayout.of(("q", 3))
WIDE = RegisterLayout.of(("q", 65))


class TestRegisterLayout:
    def test_offsets_follow_declaration_order(self):
        layout = RegisterLayout.of(("a", 3), ("b", 2), ("c", 4))
        assert layout.width == 9
        assert layout.offset("a") == 0
        assert layout.offset("b") == 3
        assert layout.offset("c") == 5
        assert list(layout.qubits("b")) == [3, 4]

    def test_field_round_trip(self):
        layout = RegisterLayout.of(("a", 3), ("b", 2))
        basis = layout.with_field(0, "a", 5)
        basis = layout.with_field(basis, "b", 2)
        assert layout.field(basis, "a") == 5
        assert layout.field(basis, "b") == 2
        assert basis == 5 | (2 << 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout.of(("a", 2), ("a", 1))

    def test_field_value_must_fit(self):
        layout = RegisterLayout.of(("a", 2))
        with pytest.raises(ValueError):
            layout.with_field(0, "a", 4)

    def test_packers_give_numpy_and_python_words_one_key(self):
        """A numpy word shifted past bit 63 must not wrap: each packer makes the key the Python ints make."""
        words = (4, 5, 6, 7, 4000)
        want = sum(w << (13 * k) for k, w in enumerate(words))
        assert want == 18014402358175375364
        assert pack_words(np.array(words), 13) == pack_words(words, 13) == want
        assert encode_labels(np.array(words) + 1, 13) == encode_labels([w + 1 for w in words], 13) == want
        layout = RegisterLayout.of(("a", 60), ("b", 13))
        assert layout.with_field(0, "b", np.int64(4000)) == layout.with_field(0, "b", 4000) == 4000 << 60
        assert layout.with_field(0, "b", np.array([4000])).tolist() == [4000 << 60]


def _refuse_map(state):
    state.apply_basis_map(lambda keys: keys + 8)


# Each entry point that takes keys, one key it must refuse, and the error it must name that key in.
KEY_GATE_CASES = {
    "constructor-7": (lambda state: QuantumState(TWO, (np.array([7]), np.ones(1))), "basis string 7 out of range"),
    "constructor-minus-1": (lambda state: QuantumState(TWO, (np.array([-1]), np.ones(1))),
                            "basis string -1 out of range"),
    "constructor-float": (lambda state: QuantumState(TWO, (np.array([1.7]), np.ones(1))), "basis string 1.7"),
    "keys-list": (lambda state: THREE.keys([9]), "basis string 9 out of range for 3 qubits"),
    "keys-array": (lambda state: THREE.keys(np.array([9])), "basis string 9 out of range for 3 qubits"),
    "keys-wide-int64": (lambda state: WIDE.keys(np.array([-5], dtype=np.int64)),
                        "basis string -5 out of range for 65 qubits"),
    "gather-float": (lambda state: state.gather(np.array([1.5])), "basis string 1.5"),
    "basis-map": (_refuse_map, "mapping sent a basis string to 10 out of range for 3 qubits"),
    "two-level-mix": (lambda state: state.apply_two_level_mix([(2, 9)], X), "basis string 9 out of range"),
    "inject-state": (lambda state: inject_state(THREE, {2: 0.6, 9: 0.8}), "basis string 9 out of range"),
}


class TestKeyGate:
    """Every key array enters through `RegisterLayout.keys`, so no key outside the layout reaches a store."""

    @pytest.mark.parametrize("case", KEY_GATE_CASES)
    def test_every_entry_point_refuses_a_key_outside_the_layout(self, case):
        # Production mode: validation mode refuses the map earlier, as no bijection of the basis.
        call, message = KEY_GATE_CASES[case]
        state = init_basis_state(THREE, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            call(state)
        assert state.to_map() == {2: 1.0}

    def test_a_wide_layout_keeps_keys_past_64_bits(self, checks):
        key = (1 << 64) + 1
        assert WIDE.keys([key]).tolist() == [key]
        state = QuantumState(WIDE, (WIDE.keys([key]), np.ones(1, dtype=complex)))
        assert state.support() == [key]
        assert state.gather(WIDE.keys([key, 0]))[1].tolist() == [1, 0]


class TestInit:
    def test_basis_state(self, checks):
        state = init_basis_state(TWO, 0b00)
        assert state.norm() == 1.0
        assert state.amplitude(0) == 1.0
        assert state.support() == [0]

    def test_bits_out_of_range(self, checks):
        with pytest.raises(ValueError):
            init_basis_state(TWO, 4)

    def test_inject_normalized(self, checks):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0b00: s, 0b11: s})
        assert abs(state.amplitude(3) - s) < 1e-15

    def test_inject_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            inject_state(TWO, {0: 0.9, 3: 0.5})

    def test_repeated_keys_rejected(self, checks):
        with pytest.raises(ValueError, match="repeats a basis string"):
            QuantumState(TWO, (TWO.keys([1, 3, 1]), np.array([0.6, 0.0, 0.8], dtype=complex)))

    def test_an_empty_store_reads_zeros(self):
        state = QuantumState(TWO, (TWO.keys([1, 2]), np.zeros(2, dtype=complex)))
        assert state.support() == []
        assert state.gather(TWO.keys([1, 3]))[1].tolist() == [0, 0]

    def test_one_index_at_every_width(self):
        """One index, a search of the sorted keys, at every width: a state allocates nothing per basis string."""
        for width in (1, 16, 17, 27):
            layout = RegisterLayout.of(("w", width))
            state, peak, _ = traced(lambda: QuantumState(layout))
            assert peak < 16384, width  # a 2**Q array of positions would take 16 KB at 11 qubits
            assert state.norm() == 1.0
            assert state._lookup(layout.keys([0, (1 << width) - 1])).tolist() == [0, -1]


class TestSingleQubit:
    def test_x_flips_bit_zero(self, checks):
        state = init_basis_state(TWO, 0b00)
        state.apply_controlled_unitary((), 0, X)
        assert abs(state.amplitude(0b01) - 1.0) < 1e-15

    def test_against_kronecker_oracle(self, checks):
        rng = np.random.default_rng(11)
        for width in (3, 4):
            layout = RegisterLayout.of(("q", width))
            for _ in range(20):
                amps = random_state_map(rng, width, 1 << width)
                state = inject_state(layout, amps)
                qubit = int(rng.integers(width))
                gate = random_unitary(rng)
                state.apply_controlled_unitary((), qubit, gate)
                vec = embed_single(width, qubit, gate) @ _to_vec(amps, width)
                _assert_matches_vector(state, vec, 1e-12)

    def test_non_unitary_rejected(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_controlled_unitary((), 0, [[1, 1], [0, 1]])

    def test_qubit_out_of_range(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_controlled_unitary((), 2, X)

    def test_hadamard_twice_is_identity(self, checks):
        state = init_basis_state(THREE, 0b101)
        state.apply_controlled_unitary((), 1, H)
        state.apply_controlled_unitary((), 1, H)
        assert abs(state.amplitude(0b101) - 1.0) < 1e-12


class TestControlled:
    def test_cnot_truth_table(self, checks):
        for control_val, flipped in ((0, False), (1, True)):
            state = init_basis_state(TWO, control_val << 1)
            state.apply_controlled_unitary(((1, 1),), 0, X)
            expect = (control_val << 1) | (1 if flipped else 0)
            assert abs(state.amplitude(expect) - 1.0) < 1e-15

    def test_against_oracle(self, checks):
        rng = np.random.default_rng(7)
        width = 4
        layout = RegisterLayout.of(("q", width))
        for _ in range(20):
            amps = random_state_map(rng, width, 12)
            state = inject_state(layout, amps)
            qubits = rng.choice(width, size=3, replace=False)
            controls = tuple((int(q), int(rng.integers(2))) for q in qubits[1:])
            gate = random_unitary(rng)
            state.apply_controlled_unitary(controls, int(qubits[0]), gate)
            vec = embed_controlled(width, controls, int(qubits[0]), gate) @ _to_vec(amps, width)
            _assert_matches_vector(state, vec, 1e-12)

    def test_control_target_overlap_rejected(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_controlled_unitary(((0, 1),), 0, X)

    def test_bad_control_value(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_controlled_unitary(((1, 2),), 0, X)


class TestPhase:
    def test_phase_on_selected_strings(self, checks):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0b00: s, 0b11: s})
        state.apply_phase_if(lambda b: b == 0b11, math.pi / 2)
        assert abs(state.amplitude(0b11) - s * 1j) < 1e-15
        assert abs(state.amplitude(0b00) - s) < 1e-15

    def test_zero_angle_is_identity(self):
        state = init_basis_state(TWO, 3)
        state.apply_phase_if(lambda b: True, 0.0)
        assert state.amplitude(3) == 1.0

    def test_sign_flip_is_exact(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        state.apply_sign_if(lambda b: b == 3)
        assert state.amplitude(3) == -s

    def test_nonfinite_angle_rejected(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_phase_if(lambda b: True, math.inf)


class TestBasisPermutation:
    def test_cyclic_shift(self, checks):
        dim = 4
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        state.apply_basis_permutation(lambda b: (b + 1) % dim)
        assert abs(state.amplitude(1) - s) < 1e-15
        assert abs(state.amplitude(0) - s) < 1e-15

    def test_round_trip_is_exact(self, checks):
        rng = np.random.default_rng(3)
        amps = random_state_map(rng, 3, 6)
        state = inject_state(THREE, amps)
        table = [int(t) for t in rng.permutation(8)]
        inverse = [0] * 8
        for i, t in enumerate(table):
            inverse[t] = i
        state.apply_basis_permutation(lambda b: table[b])
        state.apply_basis_permutation(lambda b: inverse[b])
        assert state.to_map() == amps

    def test_non_injective_on_support_rejected(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        with pytest.raises(ValueError, match="not injective"):
            state.apply_basis_permutation(lambda b: 0)
        # The rejection leaves the store as it was.
        assert state.to_map() == {0: s, 3: s}
        assert state.gather(TWO.keys([0, 1, 2, 3]))[1].tolist() == [s, 0, 0, s]

    def test_validation_mode_checks_whole_domain(self):
        state = init_basis_state(TWO, 0)
        # injective on the support {0} but not on the full basis
        with validation_mode():
            with pytest.raises(ValueError):
                state.apply_basis_permutation(lambda b: min(b, 2))


class TestTwoLevelMix:
    def test_swap_pair(self, checks):
        state = init_basis_state(TWO, 0b01)
        state.apply_two_level_mix([(0b01, 0b10)], X)
        assert abs(state.amplitude(0b10) - 1.0) < 1e-15

    def test_unpaired_strings_untouched(self, checks):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0b00: s, 0b11: s})
        state.apply_two_level_mix([(0b01, 0b10)], random_unitary(np.random.default_rng(0)))
        assert abs(state.amplitude(0b00) - s) < 1e-15
        assert abs(state.amplitude(0b11) - s) < 1e-15

    def test_against_oracle(self, checks):
        rng = np.random.default_rng(21)
        width = 4
        layout = RegisterLayout.of(("q", width))
        for _ in range(10):
            amps = random_state_map(rng, width, 10)
            state = inject_state(layout, amps)
            flat = [int(b) for b in rng.permutation(1 << width)[:8]]
            pairs = list(zip(flat[0::2], flat[1::2]))
            gate = random_unitary(rng)
            state.apply_two_level_mix(pairs, gate)
            mat = np.eye(1 << width, dtype=complex)
            for b0, b1 in pairs:
                mat[b0, b0] = gate[0, 0]
                mat[b0, b1] = gate[0, 1]
                mat[b1, b0] = gate[1, 0]
                mat[b1, b1] = gate[1, 1]
            _assert_matches_vector(state, mat @ _to_vec(amps, width), 1e-12)

    def test_overlapping_pairs_rejected(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_two_level_mix([(0, 1), (1, 2)], X)

    def test_degenerate_pair_rejected(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.apply_two_level_mix([(2, 2)], X)


class TestQft:
    @BOTH_CHECKS
    @pytest.mark.parametrize("width", (1, 2, 3))
    def test_matches_dft_matrix(self, checks, width):
        layout = RegisterLayout.of(("low", 1), ("r", width), ("high", 2))
        rng = np.random.default_rng(width)
        oracle = embed_register(layout, "r", dft_matrix(width))
        for _ in range(5):
            amps = random_state_map(rng, layout.width, 10)
            state = inject_state(layout, amps)
            state.qft_register("r")
            _assert_matches_vector(state, oracle @ _to_vec(amps, layout.width), 1e-10)

    @given(others=st.lists(st.integers(1, 2), max_size=2), width=st.integers(1, 5),
           position=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    @example(others=[3, 60, 2], width=4, position=2, seed=0)  # 69 qubits, "r" across bit 62
    def test_property_matches_embedded_dft(self, others, width, position, seed):
        regs = [(f"o{i}", w) for i, w in enumerate(others)]
        regs.insert(min(position, len(regs)), ("r", width))
        layout = RegisterLayout.of(*regs)
        rng = np.random.default_rng(seed)
        keys = sorted({int.from_bytes(rng.bytes(16), "little") % (1 << layout.width) for _ in range(12)})
        amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        entries = dict(zip(keys, (amps / np.linalg.norm(amps)).tolist()))
        dft = dft_matrix(width)
        if layout.width <= 12:
            vec = embed_register(layout, "r", dft) @ _to_vec(entries, layout.width)
            want = {b: a for b, a in enumerate(vec.tolist()) if a != 0}
        else:  # too wide for the matrix: the same block applied string by string
            want = {}
            for b, a in entries.items():
                for k in range(1 << width):
                    target = layout.with_field(b, "r", k)
                    want[target] = want.get(target, 0) + dft[k, layout.field(b, "r")] * a
        state = inject_state(layout, entries)
        state.qft_register("r")
        for b in set(want) | set(state.support()):
            assert abs(state.amplitude(b) - want.get(b, 0)) <= 1e-12

    def test_runs_as_one_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the QFT went through a gate or a basis permutation")

        for name in ("apply_controlled_unitary", "_mix_at", "permute_register", "apply_basis_map", "_move_keys"):
            monkeypatch.setattr(QuantumState, name, refuse)
        state = init_basis_state(RegisterLayout.of(("low", 2), ("r", 3)), 0b101_10)
        state.qft_register("r")
        assert len(state.support()) == 8

    def test_plane_wave_collapses_to_single_bin(self):
        width = 3
        dim = 8
        layout = RegisterLayout.of(("r", width))
        k = 3
        amps = {x: np.exp(-2j * np.pi * k * x / dim) / math.sqrt(dim) for x in range(dim)}
        state = inject_state(layout, amps)
        state.qft_register("r")
        assert abs(state.amplitude(k)) > 1 - 1e-12

    def test_preserves_other_registers(self):
        layout = RegisterLayout.of(("r", 2), ("tag", 2))
        state = init_basis_state(layout, 0b10_01)
        state.qft_register("r")
        for b in state.support():
            assert layout.field(b, "tag") == 0b10


class TestSampling:
    def test_counts_sum_and_determinism(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        first = state.sample(seed=42, n_trials=1000)
        second = state.sample(seed=42, n_trials=1000)
        assert first == second
        assert sum(first.values()) == 1000
        assert set(first) <= {0, 3}

    def test_different_seeds_differ(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        assert state.sample(seed=1, n_trials=500) != state.sample(seed=2, n_trials=500)

    def test_frequencies_near_born_rule(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        counts = state.sample(seed=2024, n_trials=10_000)
        assert 0.48 <= counts[3] / 10_000 <= 0.52

    def test_seed_validation(self):
        state = init_basis_state(TWO, 0)
        with pytest.raises(ValueError):
            state.sample(seed=-1, n_trials=10)
        with pytest.raises(ValueError):
            state.sample(seed=1 << 64, n_trials=10)
        with pytest.raises(ValueError):
            state.sample(seed=0, n_trials=0)
        with pytest.raises(ValueError):
            state.sample(seed=0, n_trials=MAX_TRIALS + 1)

    @pytest.mark.parametrize("seed, n_trials, message", [
        (-1, 10, "seed must be an unsigned 64-bit integer"),
        (1 << 64, 10, "seed must be an unsigned 64-bit integer"),
        (0, 0, f"n_trials must be an integer in [1, {MAX_TRIALS}], got 0"),
        (0, MAX_TRIALS + 1, f"n_trials must be an integer in [1, {MAX_TRIALS}], got {MAX_TRIALS + 1}"),
    ])
    def test_sample_and_plan_refuse_with_one_message(self, seed, n_trials, message):
        state = init_basis_state(TWO, 0)
        for make in (state.sample, SamplingPlan):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(seed, n_trials)

    def test_sample_and_plan_take_a_numpy_seed(self):
        s = 1 / math.sqrt(2)
        state = inject_state(TWO, {0: s, 3: s})
        assert state.sample(np.int64(7), 300) == state.sample(7, 300)
        plan = SamplingPlan(np.int64(7), np.int64(300))
        assert plan == SamplingPlan(7, 300) and type(plan.seed) is int and type(plan.n_trials) is int

    def test_deterministic_for_backend(self, checks):
        rng = np.random.default_rng(5)
        amps = random_state_map(rng, 3, 5)
        a = inject_state(THREE, amps).sample(seed=9, n_trials=200)
        b = inject_state(THREE, amps).sample(seed=9, n_trials=200)
        assert a == b


class TestInnerProduct:
    def test_orthogonal_and_self(self):
        a = init_basis_state(TWO, 0)
        b = init_basis_state(TWO, 3)
        assert a.inner_product(b) == 0
        assert abs(a.inner_product(a) - 1.0) < 1e-15

    def test_mixed_backends(self):
        s = 1 / math.sqrt(2)
        a = inject_state(TWO, {0: s, 3: s})
        b = inject_state(TWO, {0: s, 3: -s})
        assert abs(a.inner_product(b)) < 1e-15

    def test_layout_mismatch_rejected(self):
        a = init_basis_state(TWO, 0)
        b = init_basis_state(RegisterLayout.of(("p", 2)), 0)
        with pytest.raises(ValueError):
            a.inner_product(b)


class TestBackendEquivalence:
    def test_random_programs_agree(self):
        """A program gives bitwise the same store in validation and production mode."""
        layout = RegisterLayout.of(("r0", 3), ("r1", 3))
        rng = np.random.default_rng(1234)
        for trial in range(100):
            amps = random_state_map(rng, layout.width, int(rng.integers(1, 20)))
            program = random_program(rng, layout, n_ops=8)
            checked, unchecked = inject_state(layout, amps), inject_state(layout, amps)
            with validation_mode():
                run_program(checked, program)
            run_program(unchecked, program)
            assert np.array_equal(checked._keys, unchecked._keys), f"trial {trial} diverged"
            assert checked._vals.tobytes() == unchecked._vals.tobytes(), f"trial {trial} diverged"

    def test_norm_drift_stays_small(self):
        layout = RegisterLayout.of(("r0", 3), ("r1", 3))
        rng = np.random.default_rng(77)
        state = init_basis_state(layout, 0)
        for _ in range(1000):
            state.apply_controlled_unitary((), int(rng.integers(6)), random_unitary(rng))
        assert abs(state.norm() - 1.0) < 1e-9


def _to_vec(amps: dict[int, complex], width: int) -> np.ndarray:
    vec = np.zeros(1 << width, dtype=complex)
    for b, a in amps.items():
        vec[b] = a
    return vec


def _assert_matches_vector(state: QuantumState, vec: np.ndarray, atol: float) -> None:
    np.testing.assert_allclose(state.to_vector(), vec, atol=atol, rtol=0)
