"""The array kernel of the state engine: array entry points, wide keys, sampling streams."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import BOTH_CHECKS, random_state_map, random_unitary, traced

from fermisim import cli
from fermisim.observables import SamplingPlan, charge_density, k_point_correlation
from fermisim.sq import ModeLayout, jw_parity
from fermisim.state import (
    BIJECTION_CHECK_LIMIT,
    KEY_BITS,
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    UNIFORM_BLOCK,
    _sorted_uniforms,
    _splitmix64_uniforms,
    count_shots,
    init_basis_state,
    inject_state,
    validation_mode,
)

class TestRegisterLayoutArrays:
    def test_field_and_with_field_accept_key_arrays(self):
        layout = RegisterLayout.of(("a", 3), ("b", 2), ("c", 4))
        keys = np.arange(1 << layout.width, dtype=np.int64)
        for name in layout.names():
            got = layout.field(keys, name)
            assert got.tolist() == [layout.field(int(b), name) for b in keys.tolist()]
        values = (keys * 7) % 4
        got = layout.with_field(keys, "b", values)
        want = [layout.with_field(int(b), "b", int(v)) for b, v in zip(keys, values)]
        assert got.tolist() == want

    def test_with_field_rejects_array_values_that_do_not_fit(self):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        keys = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            layout.with_field(keys, "a", np.array([0, 4, 1]))
        with pytest.raises(ValueError):
            layout.with_field(keys, "a", np.array([0, -1, 1]))

    def test_key_dtype_switches_above_key_bits(self):
        assert RegisterLayout.of(("r", KEY_BITS)).key_dtype is np.int64
        assert RegisterLayout.of(("r", KEY_BITS + 1)).key_dtype is object

    def test_jw_parity_on_arrays_matches_per_string(self):
        keys = np.arange(1 << 8, dtype=np.int64)
        for a, b in ((0, 2), (1, 7), (3, 4)):
            want = [jw_parity(int(k), a, b) for k in keys.tolist()]
            assert jw_parity(keys, a, b).tolist() == want


# --------------------------------------------------------- array vs per string


def _random_ops(rng, layout, n_ops):
    """Op descriptions that have both an array and a per-string form."""
    dim = 1 << layout.width
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(["phase", "perm", "register", "mix", "unitary"])
        if kind == "phase":
            mask = int(rng.integers(1, dim))
            ops.append((kind, mask, int(rng.integers(dim)) & mask, float(rng.uniform(-np.pi, np.pi))))
        elif kind == "perm":
            ops.append((kind, rng.permutation(dim)))
        elif kind == "register":
            name = layout.names()[int(rng.integers(len(layout.names())))]
            ops.append((kind, name, rng.permutation(1 << layout.register_width(name))))
        elif kind == "mix":
            flat = rng.permutation(dim)[: 2 * int(rng.integers(1, dim // 2))]
            ops.append((kind, flat.reshape(-1, 2), random_unitary(rng)))
        else:
            ops.append((kind, int(rng.integers(layout.width)), random_unitary(rng)))
    return ops


def _run_array(state, ops):
    for op in ops:
        kind = op[0]
        if kind == "phase":
            _, mask, value, theta = op
            state.apply_phase_where(lambda keys: (keys & mask) == value, theta)
        elif kind == "perm":
            table = op[1]
            state.apply_basis_map(lambda keys: table[keys])
        elif kind == "register":
            state.permute_register(op[1], op[2])
        elif kind == "mix":
            state.apply_two_level_mix(op[1], op[2])
        else:
            state.apply_controlled_unitary((), op[1], op[2])


def _run_per_string(state, ops):
    layout = state.layout
    for op in ops:
        kind = op[0]
        if kind == "phase":
            _, mask, value, theta = op
            state.apply_phase_if(lambda b: (b & mask) == value, theta)
        elif kind == "perm":
            table = op[1].tolist()
            state.apply_basis_permutation(lambda b: table[b])
        elif kind == "register":
            _, name, table = op
            table = table.tolist()
            state.apply_basis_permutation(
                lambda b: layout.with_field(b, name, table[layout.field(b, name)])
            )
        elif kind == "mix":
            state.apply_two_level_mix([(int(p), int(q)) for p, q in op[1]], op[2])
        else:
            state.apply_controlled_unitary((), op[1], op[2])


class TestArrayEntryPoints:
    def test_array_and_per_string_forms_give_identical_states(self, checks):
        layout = RegisterLayout.of(("r0", 2), ("r1", 3), ("r2", 1))
        rng = np.random.default_rng(2718)
        for trial in range(40):
            amps = random_state_map(rng, layout.width, int(rng.integers(1, 24)))
            ops = _random_ops(rng, layout, n_ops=10)
            by_array = inject_state(layout, amps)
            by_string = inject_state(layout, amps)
            _run_array(by_array, ops)
            _run_per_string(by_string, ops)
            assert by_array.to_map() == by_string.to_map(), f"trial {trial} diverged"

    def test_sparse_drops_exact_zeros_only(self):
        layout = RegisterLayout.of(("q", 2))
        s = 1 / math.sqrt(2)
        state = inject_state(layout, {0: s, 1: s})
        state.apply_controlled_unitary((), 0, np.array([[s, s], [s, -s]]))
        assert state.support() == [0]  # s*s - s*s is exactly zero
        state = inject_state(layout, {0: 1.0, 3: 1e-200})
        state.apply_sign_if(lambda b: b == 3)
        state.apply_basis_map(lambda keys: keys ^ 1)
        assert state.support() == [1, 2]
        assert state.amplitude(2) == -1e-200


    def test_non_integer_basis_strings_rejected(self):
        state = init_basis_state(RegisterLayout.of(("q", 2)), 0)
        with pytest.raises(ValueError):
            state.apply_two_level_mix([(0.5, 1)], np.eye(2))
        with pytest.raises(ValueError):
            state.apply_basis_permutation(lambda b: b + 0.5)
        with pytest.raises(ValueError):
            state.apply_basis_map(lambda keys: keys - 1)

    @pytest.mark.parametrize("width", (4, KEY_BITS + 8))
    def test_non_integer_objects_rejected_not_truncated(self, width):
        layout = RegisterLayout.of(("q", width))
        with pytest.raises(ValueError):
            layout.keys(np.array([1.5, 2], dtype=object))
        with pytest.raises(ValueError):
            layout.keys([1 << 70, 2.0])
        assert layout.keys(np.array([np.int64(3), 1], dtype=object)).tolist() == [3, 1]

    def test_map_beyond_int64_raises_value_error(self):
        state = init_basis_state(RegisterLayout.of(("q", 4)), 1)
        with pytest.raises(ValueError, match="out of range"):
            state.apply_basis_map(lambda keys: keys.astype(object) + (1 << 64))
        with pytest.raises(ValueError, match="out of range"):
            RegisterLayout.of(("q", 4)).keys([-(1 << 70)])
        assert state.support() == [1]

    def test_gather_rejects_keys_out_of_range(self, checks):
        layout = RegisterLayout.of(("q", 3))
        state = inject_state(layout, {2: 0.6, 5: 0.8})
        for bad in ([-1], [8], [2, 1 << 40]):
            with pytest.raises(ValueError, match="out of range"):
                state.gather(layout.keys(bad))
        assert state.gather(layout.keys([5, 0, 7]))[1].tolist() == [0.8, 0, 0]


class TestValidationOfArrayMaps:
    def test_vectorized_map_checked_over_whole_domain(self):
        state = init_basis_state(RegisterLayout.of(("q", 4)), 0)
        seen = []

        def clamp(keys):
            seen.append(len(keys))
            return np.minimum(keys, 2)

        state.apply_basis_map(clamp)  # injective on the support {0}
        assert seen == [1]
        with validation_mode():
            with pytest.raises(ValueError):
                state.apply_basis_map(clamp)
        assert seen[1] == 16

    def test_bijection_passes_under_validation(self):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        state = inject_state(layout, {1: 0.6, 10: 0.8j})
        with validation_mode():
            state.permute_register("b", [3, 0, 7, 1, 2, 6, 4, 5])
            state.apply_basis_map(lambda keys: keys ^ 0b10101)
        # b = 0 -> 3 and b = 2 -> 7, then every key is XORed with 0b10101.
        assert state.to_map() == {(1 | (3 << 2)) ^ 0b10101: 0.6, (2 | (7 << 2)) ^ 0b10101: 0.8j}

    def test_whole_domain_check_stops_at_limit(self):
        width = BIJECTION_CHECK_LIMIT + 1
        state = init_basis_state(RegisterLayout.of(("q", width)), 0)
        seen = []

        def clamp(keys):
            seen.append(len(keys))
            return np.minimum(keys, 2)

        with validation_mode():
            state.apply_basis_map(clamp)
        assert seen == [1]


# ---------------------------------------------------------- two-level mix checks


class TestMixChecks:
    """The public mix checks every argument; the internal `_mix_at` does so in validation mode."""

    LAYOUT = RegisterLayout.of(("q", 3))
    START = {2: 0.6, 5: 0.8}

    @staticmethod
    def _hop_gate(signs):
        c, s = math.cos(0.3), math.sin(0.3)
        off = -1j * s * np.asarray(signs, dtype=float)
        return (c, off), (off, c)

    @BOTH_CHECKS
    @pytest.mark.parametrize("entry", (float("nan"), float("inf")))
    def test_public_mix_rejects_non_finite_gates(self, checks, entry):
        state = inject_state(self.LAYOUT, self.START)
        with pytest.raises(ValueError, match="not unitary"):
            state.apply_two_level_mix([(0, 1)], [[entry, 0], [0, 1]])
        assert state.to_map() == self.START

    @BOTH_CHECKS
    @pytest.mark.parametrize(
        "case", ("overlap", "key out of range", "scalar gate", "per-pair gate", "nan per-pair gate")
    )
    def test_internal_mix_checks_its_arguments_in_validation_mode(self, checks, case):
        k0, k1 = self.LAYOUT.keys([2, 4]), self.LAYOUT.keys([3, 5])
        gate = self._hop_gate([1.0, -1.0])
        if case == "overlap":
            k1 = self.LAYOUT.keys([3, 2])
        elif case == "key out of range":
            k1 = np.array([3, 8])
        elif case == "scalar gate":
            gate = np.array([[1.0, 0.0], [0.0, 2.0]])
        elif case == "per-pair gate":
            gate = self._hop_gate([1.0, 2.0])
        else:
            gate = self._hop_gate([1.0, float("nan")])
        state = inject_state(self.LAYOUT, self.START)
        keys = np.concatenate((k0, k1))
        with validation_mode():
            with pytest.raises(ValueError):
                state._mix_at(keys, state._lookup(keys), gate)
        assert state.to_map() == self.START

    def test_per_pair_gate_equals_one_public_mix_per_pair(self, checks):
        rng = np.random.default_rng(808)
        amps = random_state_map(rng, self.LAYOUT.width, 6)
        signs = [1.0, -1.0, -1.0]
        pairs = [(1, 0), (2, 7), (4, 6)]
        state = inject_state(self.LAYOUT, amps)
        keys = self.LAYOUT.keys([p[0] for p in pairs] + [p[1] for p in pairs])
        with validation_mode():
            state._mix_at(keys, state._lookup(keys), self._hop_gate(signs))
        want = inject_state(self.LAYOUT, amps)
        for pair, sign in zip(pairs, signs):
            (c, off), _ = self._hop_gate([sign])
            want.apply_two_level_mix([pair], [[c, off[0]], [off[0], c]])
        assert state.to_map() == want.to_map()


# ------------------------------------------------------------- dense support


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
SWAP_GATE = np.array([[0.0, 1.0], [1.0, 0.0]])


def _store_step(rng, state):
    """One random primitive on a state; returns the state it leaves (a copy, or one built from entries)."""
    layout = state.layout
    dim = 1 << layout.width
    gate = (HADAMARD, SWAP_GATE, random_unitary(rng))[int(rng.integers(3))]
    kind = rng.choice(["phase", "sign", "mix", "controlled", "map", "register", "qft",
                       "replace", "copy", "entries"])
    if kind == "phase":
        mask = int(rng.integers(1, dim))
        state.apply_phase_where(lambda keys: (keys & mask) == 0, float(rng.uniform(-np.pi, np.pi)))
    elif kind == "sign":
        state.apply_sign_if(lambda b: b % 3 == 0)
    elif kind == "mix":
        flat = rng.permutation(dim)[: 2 * int(rng.integers(1, dim // 2))]
        state.apply_two_level_mix(flat.reshape(-1, 2), gate)
    elif kind == "controlled":
        qubits = rng.choice(layout.width, size=int(rng.integers(1, 4)), replace=False)
        controls = tuple((int(q), int(rng.integers(2))) for q in qubits[1:])
        state.apply_controlled_unitary(controls, int(qubits[0]), gate)
    elif kind == "map":
        table = rng.permutation(dim)
        state.apply_basis_map(lambda keys: table[keys])
    elif kind == "register":
        name = layout.names()[int(rng.integers(len(layout.names())))]
        state.permute_register(name, rng.permutation(1 << layout.register_width(name)))
    elif kind == "qft":
        state.qft_register(layout.names()[int(rng.integers(len(layout.names())))])
    elif kind == "replace":
        # The support moves onto random distinct keys that may overlap it, and
        # one more key (if any is left) is written an exact zero, which must
        # stay off the support.
        keys, amps = state.gather()
        targets = rng.choice(dim, size=min(len(keys) + 1, dim), replace=False)
        zeros = np.zeros(len(targets) - len(keys))
        state._replace(layout.keys(targets), np.concatenate((amps[rng.permutation(len(amps))], zeros)))
    elif kind == "copy":
        state = state.copy()
    else:
        keys, amps = state.gather()
        absent = np.setdiff1d(np.arange(dim), keys)[:3]
        entries = np.concatenate((keys, absent)), np.concatenate((amps, np.zeros(len(absent))))
        state = QuantumState(layout, entries)
    return state, kind


def _assert_store(state):
    """`_keys` strictly ascending, `_vals` aligned and zero-free."""
    keys, vals = state._keys, state._vals
    assert len(keys) == len(vals)
    assert (np.diff(keys) > 0).all()
    assert (vals != 0).all()


class TestDenseSupportKeys:
    def test_both_stores_hold_the_support_bitwise_after_every_primitive(self):
        """The same primitives in validation and in production mode leave bitwise equal, well-formed stores."""
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        rng = np.random.default_rng(4242)
        kinds = set()
        for trial in range(30):
            amps = random_state_map(rng, layout.width, int(rng.integers(1, 12)))
            checked, unchecked = inject_state(layout, amps), inject_state(layout, amps)
            seed = int(rng.integers(1 << 32))
            rng_checked, rng_unchecked = np.random.default_rng(seed), np.random.default_rng(seed)
            for step in range(12):
                with validation_mode():
                    checked, kind = _store_step(rng_checked, checked)
                unchecked, _ = _store_step(rng_unchecked, unchecked)
                kinds.add(kind)
                _assert_store(checked)
                _assert_store(unchecked)
                where = (trial, step, kind)
                assert np.array_equal(checked._keys, unchecked._keys), where
                assert np.array_equal(checked._vals.view(np.int64), unchecked._vals.view(np.int64)), where
        assert len(kinds) == 10

    def test_write_on_a_closed_support_stays_in_place(self, checks):
        state = inject_state(RegisterLayout.of(("q", 3)), {1: 0.6, 4: 0.8})
        keys, vals = state._keys, state._vals
        state.apply_phase_where(lambda k: k == 4, 0.5)
        state.apply_two_level_mix([(1, 4)], random_unitary(np.random.default_rng(3)))
        assert state._keys is keys and state._vals is vals
        state.apply_phase_where(lambda k: k == 4, 0.5)
        state.apply_two_level_mix([(1, 2)], HADAMARD)  # key 2 enters the support
        assert state._vals is not vals
        _assert_store(state)

    @pytest.mark.parametrize("entries, write", [
        # A Hadamard on two equal amplitudes: s*a - s*a is exactly zero at key 4.
        ({1: 0.5, 2: math.sqrt(0.5), 4: 0.5},
         lambda state: state._mix_at(None, state._lookup(state.layout.keys([1, 4])), HADAMARD)),
        # A unit factor never zeroes an amplitude, so key 4's negligible one is scaled by 0.
        ({1: 0.6, 2: 0.8, 4: 1e-9},
         lambda state: state._scale_at(state._lookup(state.layout.keys([2, 4])), np.array([1j, 0.0]))),
    ], ids=["mix", "scale"])
    def test_a_write_at_positions_drops_an_exact_zero(self, checks, entries, write):
        """A write that trusts its positions (keys=None) still takes an exact zero off the support."""
        state = inject_state(RegisterLayout.of(("q", 3)), entries)
        keys = state.support_keys()
        with validation_mode():  # the store check runs after the write
            write(state)
        assert state.support() == [1, 2]
        assert state.support_keys() is not keys
        _assert_store(state)

    def test_support_views_are_read_only(self, checks):
        state = inject_state(RegisterLayout.of(("q", 3)), {1: 0.6, 4: 0.8})
        keys, amps = state.gather()
        for view in (keys, amps, state.support_keys()):
            with pytest.raises(ValueError):
                view[0] = 0
        assert state.to_map() == {1: 0.6, 4: 0.8}

    def test_norm_check_catches_a_non_isometric_write(self, checks):
        state = init_basis_state(RegisterLayout.of(("q", 3)), 0)
        with pytest.raises(InvariantViolation, match="squared norm"):
            state._replace(state.layout.keys([0, 1]), np.array([1.0, 0.5], dtype=complex))

    def test_hadamard_twice_cancels_to_one_string(self, checks):
        state = init_basis_state(RegisterLayout.of(("q", 3)), 0)
        state.apply_controlled_unitary((), 1, HADAMARD)
        assert state.support() == [0, 2]
        state.apply_controlled_unitary((), 1, HADAMARD)
        assert state.support() == [0]  # s*s - s*s is exactly zero

    @pytest.mark.parametrize("corrupt", [lambda keys: keys[::-1], lambda keys: keys[[0, 0]]])
    def test_validation_mode_catches_stale_keys(self, corrupt):
        state = inject_state(RegisterLayout.of(("q", 3)), {1: 0.6, 4: 0.8})
        state._keys = corrupt(state._keys)
        state.apply_phase_where(lambda keys: keys == 4, 0.5)  # production mode does not check
        with validation_mode():
            with pytest.raises(InvariantViolation):
                state.apply_phase_where(lambda keys: keys == 4, 0.5)

    @pytest.mark.parametrize("corrupt", [
        lambda state: state._vals.__setitem__(slice(None), [0.0, 1.0]),  # a zero that no write touches
        lambda state: setattr(state, "_keys", state._keys[:1]),  # an amplitude without its key
        lambda state: setattr(state, "_vals", np.append(state._vals, 0.0)),  # a zero without its key
    ], ids=["zero", "short", "long"])
    def test_validation_mode_catches_a_corrupt_store(self, corrupt):
        state = inject_state(RegisterLayout.of(("q", 3)), {1: 0.6, 4: 0.8})
        corrupt(state)
        state.apply_phase_where(lambda keys: keys == 4, 0.5)  # production mode does not check
        with validation_mode():
            with pytest.raises(InvariantViolation):
                state.apply_phase_where(lambda keys: keys == 4, 0.5)


# ------------------------------------------------------------------ wide keys

WIDE = RegisterLayout.of(("lo", 3), ("mid", 60), ("hi", 7))
HIGH = 1 << 66


def _wide_amps():
    rng = np.random.default_rng(99)
    keys = [5, HIGH | 3, (1 << 69) | 1, HIGH | (1 << 67) | 6, (1 << 64) | 2]
    vals = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    vals /= np.linalg.norm(vals)
    return {k: complex(v) for k, v in zip(keys, vals)}


def _ref_controlled(amps, controls, target, gate):
    out = {}
    tbit = 1 << target
    for b, a in amps.items():
        if any((b >> q) & 1 != v for q, v in controls):
            out[b] = out.get(b, 0) + a
            continue
        col = (b >> target) & 1
        for row in (0, 1):
            t = (b & ~tbit) | (row << target)
            out[t] = out.get(t, 0) + gate[row, col] * a
    return out


def _assert_maps_close(state, want, atol=1e-12):
    got = state.to_map()
    for k in set(got) | set(want):
        assert abs(got.get(k, 0) - want.get(k, 0)) <= atol, k


class TestWideKeys:
    def test_python_ints_past_int64_keep_their_value(self):
        # numpy infers float64 for a list mixing small ints with ints >= 2**63.
        layout = RegisterLayout.of(("q", 64))
        big = (1 << 63) + 1
        assert layout.keys([5, big]).tolist() == [5, big]
        state = inject_state(layout, {5: 0.6, big: 0.8})
        assert state.support() == [5, big]

    def test_keys_are_python_ints(self):
        state = inject_state(WIDE, _wide_amps())
        keys = state.gather()[0]
        assert keys.dtype == object
        assert all(type(k) is int for k in keys)
        assert state.support() == sorted(_wide_amps())

    def test_gates(self):
        rng = np.random.default_rng(5)
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        for controls, target in (((), 66), (((69, 1),), 0), (((66, 1), (1, 1)), 67), (((64, 0),), 68)):
            gate = random_unitary(rng)
            state.apply_controlled_unitary(controls, target, gate)
            amps = _ref_controlled(amps, controls, target, gate)
            _assert_maps_close(state, amps)

    def test_phase_and_sign(self):
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        state.apply_phase_where(lambda keys: (keys >> 66) & 1 == 1, 0.7)
        state.apply_phase_if(lambda b: b & 1 == 1, -0.3)
        state.apply_phase_where(lambda keys: keys > (1 << 68), math.pi)
        state.apply_sign_if(lambda b: b & 2 == 2)
        want = {}
        for b, a in amps.items():
            a *= complex(math.cos(0.7), math.sin(0.7)) if (b >> 66) & 1 else 1
            a *= complex(math.cos(-0.3), math.sin(-0.3)) if b & 1 else 1
            a *= complex(math.cos(math.pi), math.sin(math.pi)) if b > (1 << 68) else 1
            a *= -1 if b & 2 else 1
            want[b] = a
        _assert_maps_close(state, want)

    def test_permutations(self):
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        shift = (1 << 68) | 0b101
        table = [(7 * v + 3) % 128 for v in range(128)]
        state.apply_basis_map(lambda keys: keys ^ shift)
        state.apply_basis_permutation(lambda b: b ^ (1 << 65))
        state.permute_register("hi", table)
        want = {}
        for b, a in amps.items():
            b = b ^ shift ^ (1 << 65)
            want[WIDE.with_field(b, "hi", table[WIDE.field(b, "hi")])] = a
        assert state.to_map() == want

    def test_two_level_mix_and_qft(self):
        rng = np.random.default_rng(8)
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        gate = random_unitary(rng)
        pairs = [(HIGH | 3, (1 << 69) | 1), (5, HIGH | 5)]
        state.apply_two_level_mix(pairs, gate)
        want = dict(amps)
        for b0, b1 in pairs:
            a0, a1 = want.pop(b0, 0), want.pop(b1, 0)
            want[b0] = gate[0, 0] * a0 + gate[0, 1] * a1
            want[b1] = gate[1, 0] * a0 + gate[1, 1] * a1
        _assert_maps_close(state, want)

        state.qft_register("lo")
        dft = np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8) / math.sqrt(8)
        after = {}
        for b, a in want.items():
            x = b & 7
            for k in range(8):
                t = (b & ~7) | k
                after[t] = after.get(t, 0) + dft[k, x] * a
        _assert_maps_close(state, after, 1e-10)

    def test_branch_scatter(self):
        # Each string splits onto itself and itself with bit 63 set, written as
        # one whole-support replace with the new keys first, out of key order.
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        c = 1 / math.sqrt(2)
        keys, vals = state.gather()
        state._replace(np.concatenate((keys | (1 << 63), keys)), np.concatenate((vals, vals)) * c)
        want = {}
        for b, a in amps.items():
            want[b] = a * c
            want[b | (1 << 63)] = a * c
        assert state.support() == sorted(want)
        _assert_maps_close(state, want)

    def test_readout(self):
        amps = _wide_amps()
        state = inject_state(WIDE, amps)
        assert state.amplitude(HIGH | 3) == amps[HIGH | 3]
        assert abs(state.norm() - 1.0) < 1e-12
        assert abs(state.inner_product(state.copy()) - 1.0) < 1e-12
        # Sampling indexes outcomes in ascending key order, so a narrow state
        # holding the same amplitudes at keys 0..4 draws the same stream.
        ordered = sorted(amps)
        narrow = inject_state(
            RegisterLayout.of(("q", 3)), {i: amps[k] for i, k in enumerate(ordered)}
        )
        drawn = state.sample(seed=31, n_trials=4000)
        assert drawn == {ordered[i]: c for i, c in narrow.sample(seed=31, n_trials=4000).items()}


# ------------------------------------------------------------------ sampling

MASK64 = (1 << 64) - 1


def splitmix64_reference(seed, n):
    """The first n SplitMix64 uniforms of state `seed`, one Python-int step at a time."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        out.append((z >> 11) * 2.0**-53)
    return np.array(out)


def reference_counts(keys, amps, seed, n_trials):
    """{key: count} of choice's rule, searchsorted(cdf, u, side="right"), per reference uniform."""
    born = np.abs(np.asarray(amps)) ** 2
    born /= born.sum()
    cdf = born.cumsum()
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, splitmix64_reference(seed, n_trials), side="right")
    counts = np.bincount(draws, minlength=len(keys))
    return {keys[i]: int(counts[i]) for i in np.flatnonzero(counts)}


class TestSamplingStream:
    """Counts of the SplitMix64 stream, computed with `reference_counts`, not with fermisim."""

    def test_counts_pinned_for_fixed_seed(self, checks):
        layout = RegisterLayout.of(("q", 3))
        amps = {0: 0.5, 2: 0.5j, 5: -0.5, 7: 0.5 * (1 + 1j) / math.sqrt(2)}
        counts = inject_state(layout, amps).sample(seed=2026, n_trials=1000)
        assert counts == {0: 251, 2: 264, 5: 238, 7: 247}

    def test_counts_pinned_for_random_state(self, checks):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        amps = random_state_map(np.random.default_rng(17), 5, 12)
        counts = inject_state(layout, amps).sample(seed=123456789, n_trials=5000)
        assert counts == {
            1: 570, 2: 703, 3: 541, 6: 592, 10: 832, 11: 152,
            12: 433, 14: 33, 15: 281, 18: 169, 20: 562, 30: 132,
        }


# A nonzero amplitude whose Born weight |a|**2 underflows to exactly 0.0; a
# zero weight in the entries below stands for it.
TINY = 1e-200
NARROW = RegisterLayout.of(("q", 8))
SAMPLE_CASES = {"narrow": NARROW, "wide": WIDE}


@given(
    case=st.sampled_from(sorted(SAMPLE_CASES)),
    entries=st.dictionaries(
        st.integers(0, 255), st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0), min_size=1, max_size=12
    ).filter(lambda e: any(e.values())),
    seed=st.integers(0, (1 << 64) - 1),
    n_trials=st.integers(1, 3000),
)
@example(case="narrow", entries={37: 1.0}, seed=5, n_trials=1)
@example(case="narrow", entries={200: 0.3}, seed=0, n_trials=2000)
@example(case="narrow", entries={1: 0.0, 4: 0.5, 9: 0.0, 20: 0.2, 255: 0.0}, seed=11, n_trials=3000)
@example(case="wide", entries={0: 0.0, 3: 0.4, 64: 0.0, 130: 0.1, 254: 0.0}, seed=2**64 - 1, n_trials=1)
def test_sample_counts_the_draws_of_choice(case, entries, seed, n_trials):
    """sample(seed, N) counts choice's draw rule over the reference uniforms and the ascending support."""
    layout = SAMPLE_CASES[case]
    # Wide keys put the drawn byte in the low and the high register, past 62 bits.
    to_key = (lambda k: k | (k << 62)) if layout is WIDE else int
    phases = np.exp(0.7j * np.arange(len(entries)))
    total = sum(entries.values())
    amps = {
        to_key(k): (math.sqrt(w / total) if w else TINY) * phase
        for (k, w), phase in zip(sorted(entries.items()), phases)
    }
    drawn = inject_state(layout, amps).sample(seed, n_trials)

    keys = sorted(amps)
    assert drawn == reference_counts(keys, [amps[k] for k in keys], seed, n_trials)


@given(
    weights=st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1.0), min_size=1, max_size=40).filter(any),
    picks=st.lists(st.integers(0, 40) | st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=60),
)
@example(weights=[0.5, 0.0, 0.5], picks=[1, 2, 0.75])  # as many shots as rows, two on one edge
@example(weights=[0.2, 0.0, 0.0, 0.3, 0.5], picks=[1, 3])  # fewer shots than rows, both on edges
@example(weights=[1.0], picks=[0, 0.5, 0.9])
def test_count_shots_counts_each_shot_in_its_cdf_row(weights, picks):
    """count_shots is bincount(searchsorted(cdf, u, side="right")) at its nonzero rows, from either side.

    A zero weight stands for a Born weight that underflowed (TINY), a bin of
    zero width; an int pick is a uniform exactly on a cdf edge.
    """
    cdf = np.cumsum(weights) / sum(weights)
    cdf /= cdf[-1]
    edges = np.concatenate(([0.0], cdf[cdf < 1.0]))  # every edge a uniform in [0, 1) can sit on
    uniforms = np.sort([edges[p % len(edges)] if isinstance(p, int) else p for p in picks])
    want = np.bincount(np.searchsorted(cdf, uniforms, side="right"), minlength=len(cdf))
    counted = count_shots(cdf, uniforms)
    assert counted.dtype == np.int64 and counted.shape == (2, np.count_nonzero(want))
    rows, shots = counted
    assert rows.tolist() == np.flatnonzero(want).tolist()
    assert shots.tolist() == want[rows].tolist()


def test_counts_of_many_seeds_hold_only_the_drawn_rows():
    """20 seeds of 1000 shots on 2**17 strings keep 20 counts in the memo, each of the rows that drew only."""
    layout = RegisterLayout.of(("q", 17))
    state = QuantumState(layout, (np.arange(1 << 17), np.full(1 << 17, 2**-8.5, dtype=complex)))
    state._born()  # the state's own Born weights (1 MB), whatever it samples

    def sample_twenty_seeds():
        for seed in range(20):
            state.sample(seed, 1000)

    _, _, held = traced(sample_twenty_seeds)
    assert len(state._derived) == 21  # the Born weights and every seed's counts
    assert held < 10**6  # a count per support string took 21 MB


def _choice_counts(state, seed, n_trials):
    """{key: count} of choice's draw rule over the state's Born weights and the reference uniforms."""
    keys, amps = state.gather()
    return reference_counts(keys.tolist(), amps, seed, n_trials)


def test_sample_counts_the_draws_of_choice_when_batches_interleave():
    """One cached shot batch serves every state of its (seed, N); a state counts each pair once."""
    rng = np.random.default_rng(5)
    states = [inject_state(NARROW, random_state_map(rng, 8, support)) for support in (3, 12, 40)]
    _sorted_uniforms.cache_clear()
    pairs = [(7, 500), (7, 500), (8, 500), (7, 501), (7, 500), (2**64 - 1, 1), (7, 500)]
    for seed, n_trials in pairs:
        for state in states:
            assert state.sample(seed, n_trials) == _choice_counts(state, seed, n_trials)
    info = _sorted_uniforms.cache_info()
    # One draw per distinct pair, shared by all three states; each state keeps
    # the counts of every pair it has counted, so a repeated (7, 500) asks for
    # no batch.
    distinct = len(set(pairs))
    assert (info.misses, info.hits) == (distinct, 2 * distinct) == (4, 8)


# ------------------------------------------------------------------ derived work memoized per store state


MEMO_LAYOUT = ModeLayout(3)
MEMO_PLAN = SamplingPlan(seed=9, n_trials=4000)


def _readouts(state):
    """Sampled and exact readouts of one state, as plain values."""
    layout = MEMO_LAYOUT
    return (
        state.sample(MEMO_PLAN.seed, MEMO_PLAN.n_trials),
        charge_density(state, layout).tolist(),
        charge_density(state, layout, MEMO_PLAN),
        k_point_correlation(state, layout, (1, 3)),
        k_point_correlation(state, layout, (2, 3), MEMO_PLAN),
    )


def _replayed_mix(state):
    """A mix through `_mix_at` at positions looked up beforehand, as a replayed Trotter step writes."""
    keys = state.support_keys()
    low = keys[:2]
    state._mix_at(None, state._lookup(np.concatenate((low, keys[-2:]))), HADAMARD)


def _replayed_phase(state):
    state._scale_at(np.array([0, 2], dtype=np.int32), -1j)


WRITERS = {
    "phase": lambda state: state.apply_phase_where(lambda keys: (keys & 3) == 1, 0.7),
    "sign": lambda state: state.apply_sign_if(lambda b: b % 3 == 0),
    "mix": lambda state: state.apply_two_level_mix(state.support_keys()[[0, 1]].reshape(1, 2), HADAMARD),
    "basis map": lambda state: state.apply_basis_map(lambda keys: keys ^ 0b100101),
    "qft": lambda state: state.qft_register("modes"),
    "replace": lambda state: state._replace(state.support_keys() ^ 0b11, state.gather()[1][::-1]),
    "replayed mix": _replayed_mix,
    "replayed phase": _replayed_phase,
}


def test_every_write_renews_the_readouts_of_the_state(checks):
    """After each writer, sampled and exact readouts are those of a fresh state with the same entries."""
    state = inject_state(MEMO_LAYOUT.register_layout(),
                       random_state_map(np.random.default_rng(31), MEMO_LAYOUT.n_modes, 20))
    for name, write in WRITERS.items():
        _readouts(state)  # memoize this store state's counts, Born weights and site masks
        counts = state._sample_counts(MEMO_PLAN.seed, MEMO_PLAN.n_trials)
        born = state._born()
        write(state)
        assert state._sample_counts(MEMO_PLAN.seed, MEMO_PLAN.n_trials) is not counts, name
        assert state._born() is not born, name
        fresh = QuantumState(state.layout, tuple(a.copy() for a in state.gather()))
        assert _readouts(state) == _readouts(fresh), name


def test_readouts_of_an_unchanged_state_share_one_count(checks):
    state = inject_state(MEMO_LAYOUT.register_layout(),
                       random_state_map(np.random.default_rng(32), MEMO_LAYOUT.n_modes, 20))
    counts = state._sample_counts(3, 500)
    assert state._sample_counts(3, 500) is counts
    other = state._sample_counts(3, 501)
    assert other is not counts
    assert state._sample_counts(3, 500) is counts  # both batches' counts are kept
    with pytest.raises(ValueError, match="read-only"):
        other[0] = 1
    born = state._born()
    assert state._born() is born
    with pytest.raises(ValueError, match="read-only"):
        born[0] = 1
    copy = state.copy()
    twin = copy._sample_counts(3, 501)
    assert twin is not other and np.array_equal(twin, other)
    assert copy._sample_counts(3, 501) is twin and copy._born() is not born
    assert state._sample_counts(3, 501) is other


def test_a_write_to_a_copy_leaves_the_original_unchanged(checks):
    state = inject_state(MEMO_LAYOUT.register_layout(),
                       random_state_map(np.random.default_rng(33), MEMO_LAYOUT.n_modes, 20))
    counts = state._sample_counts(4, 700).copy()
    keys, vals = state._keys.copy(), state._vals.copy()
    copy = state.copy()
    assert copy._keys is state._keys
    _assert_store(copy)
    for write in WRITERS.values():
        write(copy)
    assert np.array_equal(state._keys, keys)
    assert np.array_equal(state._vals.view(np.int64), vals.view(np.int64))
    assert np.array_equal(state._sample_counts(4, 700), counts)
    _assert_store(state)
    _assert_store(copy)


def test_cached_uniforms_are_read_only():
    uniforms = _sorted_uniforms(3, 10)
    assert _sorted_uniforms(3, 10) is uniforms
    with pytest.raises(ValueError, match="read-only"):
        uniforms[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        uniforms.sort()


def test_uniform_on_a_cdf_boundary_goes_to_the_upper_outcome(checks):
    """choice sends a uniform equal to cdf[i] to outcome i + 1; so must the count."""
    a, b = 0.32610840462522955, 0.9453323798711158
    uniforms = splitmix64_reference(0, 8)
    assert a * a + b * b == 1.0 and uniforms[4] == a * a  # cdf is exactly [a*a, 1]
    counts = reference_counts([4, 9], [a, b], 0, 8)
    assert inject_state(NARROW, {4: a, 9: b}).sample(0, 8) == counts
    assert [counts[4], counts[9]] == [(uniforms < a * a).sum(), (uniforms >= a * a).sum()] == [1, 7]


# ------------------------------------------------------------------ the uniform generator


@given(
    seed=st.integers(0, (1 << 64) - 1),
    n_trials=st.integers(1, 40) | st.integers(UNIFORM_BLOCK - 2, UNIFORM_BLOCK + 2),
)
@example(seed=1, n_trials=UNIFORM_BLOCK - 1)
@example(seed=0, n_trials=UNIFORM_BLOCK + 1)
@example(seed=2**64 - 1, n_trials=UNIFORM_BLOCK)
@example(seed=123456789, n_trials=2 * UNIFORM_BLOCK + 1)
@settings(max_examples=12)
def test_generator_matches_the_reference(seed, n_trials):
    """The blocked array draw is the sequential stream, across block boundaries, before the sort."""
    want = splitmix64_reference(seed, n_trials)
    assert np.array_equal(_splitmix64_uniforms(seed, n_trials), want)
    _sorted_uniforms.cache_clear()
    assert np.array_equal(_sorted_uniforms(seed, n_trials), np.sort(want))


def test_generator_golden_first_values():
    # SplitMix64's first outputs from states 0 and 2**64 - 1 are
    # 0xE220A8397B1DCDAF and 0xE4D971771B652C20.
    assert (0xE220A8397B1DCDAF >> 11) * 2.0**-53 == 0.8833108082136426
    assert (0xE4D971771B652C20 >> 11) * 2.0**-53 == 0.8939429202831845
    assert _splitmix64_uniforms(0, 3).tolist() == [
        0.8833108082136426, 0.43152799704850997, 0.026433771592597743,
    ]
    assert _splitmix64_uniforms(2**64 - 1, 3).tolist() == [
        0.8939429202831845, 0.9125972035944532, 0.21948196289526756,
    ]


def test_generator_raises_no_overflow_warning():
    """The uint64 products wrap; as array operations they do so without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _splitmix64_uniforms(2**64 - 1, UNIFORM_BLOCK + 3)
        _sorted_uniforms.cache_clear()
        _sorted_uniforms(2**64 - 2, 5)


def test_generator_streams_look_uniform_and_independent():
    """Mean, a 64-bin chi-square and the correlation of seeds s and s + 1, within five sigma."""
    n = 1 << 18
    streams = [_splitmix64_uniforms(seed, n) for seed in range(5)]
    for seed in range(4):
        u = streams[seed]
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / n)
        observed = np.bincount((u * 64).astype(np.int64), minlength=64)
        chi2 = ((observed - n / 64) ** 2 / (n / 64)).sum()
        assert abs(chi2 - 63) < 5 * math.sqrt(2 * 63)
        assert abs(np.corrcoef(u, streams[seed + 1])[0, 1]) < 5 / math.sqrt(n)


def test_generator_peak_memory_is_the_output_plus_two_blocks():
    n = 1 << 22
    _sorted_uniforms.cache_clear()
    try:
        _, peak, _ = traced(lambda: _sorted_uniforms(7, n))
    finally:
        _sorted_uniforms.cache_clear()
    assert peak < 8 * n + 2 * 2**20


class TestNaNAmplitudes:
    """NaN fails every norm comparison, so it must fail the norm checks too."""

    @staticmethod
    def _nan_state():
        keys = NARROW.keys([0, 1])
        return QuantumState(NARROW, (keys, np.array([np.nan, 1.0], dtype=complex)))

    def test_inject_state_rejects_nan(self, checks):
        with pytest.raises(ValueError, match="squared norm"):
            inject_state(NARROW, {0: float("nan"), 1: 1.0})

    def test_sample_rejects_nan_state(self, checks):
        with pytest.raises(InvariantViolation):
            self._nan_state().sample(seed=1, n_trials=10)

    def test_mix_rejects_nan_state(self, checks):
        with pytest.raises(InvariantViolation):
            self._nan_state().apply_two_level_mix([(2, 3)], np.eye(2))


class TestSampledDensity:
    def test_cli_reads_density_once_when_sampling(self, monkeypatch):
        calls = []
        original = cli.charge_density

        def counting(state, layout, plan=None):
            calls.append(plan)
            return original(state, layout, plan)

        monkeypatch.setattr(cli, "charge_density", counting)
        config = cli.parse_config({
            "formalism": "second",
            "lattice": {"m": 2, "boundary": "open"},
            "params": {"V0": 4.0, "t0": 1.0},
            "particles": [[1, "up"], [2, "down"]],
            "plan": {"t": 0.5, "r": 4},
            "observables": [{"kind": "charge_density"}],
            "sampling": {"N": 500, "seed": 3},
            "backend": "sparse",
        })
        document = cli.execute_run(config)
        assert len(calls) == 1 and calls[0] is not None  # one sampled call, no exact one
        values = document["observables"][0]["values"]
        assert all(v["sampled"] is not None for v in values)
