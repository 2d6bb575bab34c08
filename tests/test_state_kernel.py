"""The array kernel of the state engine: array entry points, wide keys, sampling streams."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from conftest import make_state, random_state_map, random_unitary

from fermisim import cli
from fermisim.sq import jw_parity
from fermisim.state import (
    BIJECTION_CHECK_LIMIT,
    KEY_BITS,
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    _sorted_uniforms,
    init_basis_state,
    inject_state,
    validation_mode,
)

BACKENDS = ("dense", "sparse")


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
            state.apply_single_qubit_unitary(op[1], op[2])


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
            state.apply_single_qubit_unitary(op[1], op[2])


class TestArrayEntryPoints:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_array_and_per_string_forms_give_identical_states(self, backend):
        layout = RegisterLayout.of(("r0", 2), ("r1", 3), ("r2", 1))
        rng = np.random.default_rng(2718)
        for trial in range(40):
            amps = random_state_map(rng, layout.width, int(rng.integers(1, 24)))
            ops = _random_ops(rng, layout, n_ops=10)
            by_array = make_state(layout, amps, backend)
            by_string = make_state(layout, amps, backend)
            _run_array(by_array, ops)
            _run_per_string(by_string, ops)
            assert by_array.to_map() == by_string.to_map(), f"trial {trial} diverged"

    def test_sparse_drops_exact_zeros_only(self):
        layout = RegisterLayout.of(("q", 2))
        s = 1 / math.sqrt(2)
        state = inject_state(layout, {0: s, 1: s}, "sparse")
        state.apply_single_qubit_unitary(0, np.array([[s, s], [s, -s]]))
        assert state.support() == [0]  # s*s - s*s is exactly zero
        state = inject_state(layout, {0: 1.0, 3: 1e-200}, "sparse")
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
        state = init_basis_state(RegisterLayout.of(("q", 4)), 1, "sparse")
        with pytest.raises(ValueError, match="out of range"):
            state.apply_basis_map(lambda keys: keys.astype(object) + (1 << 64))
        with pytest.raises(ValueError, match="out of range"):
            RegisterLayout.of(("q", 4)).keys([-(1 << 70)])
        assert state.support() == [1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_rejects_keys_out_of_range(self, backend):
        layout = RegisterLayout.of(("q", 3))
        state = inject_state(layout, {2: 0.6, 5: 0.8}, backend)
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
        state = inject_state(layout, {1: 0.6, 10: 0.8j}, "sparse")
        with validation_mode():
            state.permute_register("b", [3, 0, 7, 1, 2, 6, 4, 5])
            state.apply_basis_map(lambda keys: keys ^ 0b10101)
        # b = 0 -> 3 and b = 2 -> 7, then every key is XORed with 0b10101.
        assert state.to_map() == {(1 | (3 << 2)) ^ 0b10101: 0.6, (2 | (7 << 2)) ^ 0b10101: 0.8j}

    def test_whole_domain_check_stops_at_limit(self):
        width = BIJECTION_CHECK_LIMIT + 1
        state = init_basis_state(RegisterLayout.of(("q", width)), 0, "sparse")
        seen = []

        def clamp(keys):
            seen.append(len(keys))
            return np.minimum(keys, 2)

        with validation_mode():
            state.apply_basis_map(clamp)
        assert seen == [1]


# ---------------------------------------------------------- two-level mix checks


class TestMixChecks:
    """The public mix checks every argument; the internal `_mix` does so in validation mode."""

    LAYOUT = RegisterLayout.of(("q", 3))
    START = {2: 0.6, 5: 0.8}

    @staticmethod
    def _hop_gate(signs):
        c, s = math.cos(0.3), math.sin(0.3)
        off = -1j * s * np.asarray(signs, dtype=float)
        return (c, off), (off, c)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("entry", (float("nan"), float("inf")))
    def test_public_mix_rejects_non_finite_gates(self, backend, entry):
        state = inject_state(self.LAYOUT, self.START, backend)
        with pytest.raises(ValueError, match="not unitary"):
            state.apply_two_level_mix([(0, 1)], [[entry, 0], [0, 1]])
        assert state.to_map() == self.START

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "case", ("overlap", "key out of range", "scalar gate", "per-pair gate", "nan per-pair gate")
    )
    def test_internal_mix_checks_its_arguments_in_validation_mode(self, backend, case):
        k0, k1 = self.LAYOUT.keys([2, 4]), self.LAYOUT.keys([3, 5])
        gate = self._hop_gate([1.0, -1.0])
        if case == "overlap":
            k1 = self.LAYOUT.keys([3, 2])
        elif case == "key out of range":
            k1 = self.LAYOUT.keys([3, 8])
        elif case == "scalar gate":
            gate = np.array([[1.0, 0.0], [0.0, 2.0]])
        elif case == "per-pair gate":
            gate = self._hop_gate([1.0, 2.0])
        else:
            gate = self._hop_gate([1.0, float("nan")])
        state = inject_state(self.LAYOUT, self.START, backend)
        with validation_mode():
            with pytest.raises(ValueError):
                state._mix(k0, k1, gate)
        assert state.to_map() == self.START

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_pair_gate_equals_one_public_mix_per_pair(self, backend):
        rng = np.random.default_rng(808)
        amps = random_state_map(rng, self.LAYOUT.width, 6)
        signs = [1.0, -1.0, -1.0]
        pairs = [(1, 0), (2, 7), (4, 6)]
        state = inject_state(self.LAYOUT, amps, backend)
        with validation_mode():
            state._mix(self.LAYOUT.keys([p[0] for p in pairs]), self.LAYOUT.keys([p[1] for p in pairs]),
                       self._hop_gate(signs))
        want = inject_state(self.LAYOUT, amps, backend)
        for pair, sign in zip(pairs, signs):
            (c, off), _ = self._hop_gate([sign])
            want.apply_two_level_mix([pair], [[c, off[0]], [off[0], c]])
        assert state.to_map() == want.to_map()


# ------------------------------------------------------------- dense support


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
SWAP_GATE = np.array([[0.0, 1.0], [1.0, 0.0]])


def _dense_support_step(rng, state):
    """One random primitive on a dense state; returns the state it leaves (copies are new)."""
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
        state = QuantumState(layout, "dense", (np.concatenate((keys, absent)),
                                               np.concatenate((amps, np.zeros(len(absent))))))
    return state, kind


class TestDenseSupportKeys:
    def test_keys_equal_the_nonzero_entries_after_every_primitive(self):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        rng = np.random.default_rng(4242)
        kinds = set()
        for trial in range(30):
            amps = random_state_map(rng, layout.width, int(rng.integers(1, 12)))
            state = make_state(layout, amps, "dense")
            assert np.array_equal(state._keys, np.flatnonzero(state._vec))
            for step in range(12):
                state, kind = _dense_support_step(rng, state)
                kinds.add(kind)
                assert np.array_equal(state._keys, np.flatnonzero(state._vec)), (trial, step, kind)
        assert len(kinds) == 10

    def test_running_norm_tracks_the_vector_after_every_primitive(self):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        rng = np.random.default_rng(4343)
        for trial in range(10):
            state = make_state(layout, random_state_map(rng, layout.width, 8), "dense")
            for step in range(12):
                state, kind = _dense_support_step(rng, state)
                exact = np.vdot(state._vec, state._vec).real
                assert abs(state._norm2 - exact) < 1e-13, (trial, step, kind)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_norm_check_catches_a_non_isometric_write(self, backend):
        state = init_basis_state(RegisterLayout.of(("q", 3)), 0, backend)
        with pytest.raises(InvariantViolation, match="squared norm"):
            state._replace(state.layout.keys([0, 1]), np.array([1.0, 0.5], dtype=complex))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hadamard_twice_cancels_to_one_string(self, backend):
        state = init_basis_state(RegisterLayout.of(("q", 3)), 0, backend)
        state.apply_single_qubit_unitary(1, HADAMARD)
        assert state.support() == [0, 2]
        state.apply_single_qubit_unitary(1, HADAMARD)
        assert state.support() == [0]  # s*s - s*s is exactly zero

    @pytest.mark.parametrize("corrupt", [lambda keys: keys[1:], lambda keys: np.append(keys, 7)])
    def test_validation_mode_catches_stale_keys(self, corrupt):
        state = inject_state(RegisterLayout.of(("q", 3)), {1: 0.6, 4: 0.8}, "dense")
        state._keys = corrupt(state._keys)
        state.apply_phase_where(lambda keys: keys == 4, 0.5)  # production mode does not scan
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
        state = inject_state(layout, {5: 0.6, big: 0.8}, "sparse")
        assert state.support() == [5, big]

    def test_keys_are_python_ints(self):
        state = inject_state(WIDE, _wide_amps(), "sparse")
        keys = state.gather()[0]
        assert keys.dtype == object
        assert all(type(k) is int for k in keys)
        assert state.support() == sorted(_wide_amps())

    def test_gates(self):
        rng = np.random.default_rng(5)
        amps = _wide_amps()
        state = inject_state(WIDE, amps, "sparse")
        for controls, target in (((), 66), (((69, 1),), 0), (((66, 1), (1, 1)), 67), (((64, 0),), 68)):
            gate = random_unitary(rng)
            state.apply_controlled_unitary(controls, target, gate)
            amps = _ref_controlled(amps, controls, target, gate)
            _assert_maps_close(state, amps)

    def test_phase_and_sign(self):
        amps = _wide_amps()
        state = inject_state(WIDE, amps, "sparse")
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
        state = inject_state(WIDE, amps, "sparse")
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
        state = inject_state(WIDE, amps, "sparse")
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
        state = inject_state(WIDE, amps, "sparse")
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
        state = inject_state(WIDE, amps, "sparse")
        assert state.amplitude(HIGH | 3) == amps[HIGH | 3]
        assert abs(state.norm() - 1.0) < 1e-12
        assert abs(state.inner_product(state.copy()) - 1.0) < 1e-12
        # Sampling indexes outcomes in ascending key order, so a narrow state
        # holding the same amplitudes at keys 0..4 draws the same stream.
        ordered = sorted(amps)
        narrow = inject_state(
            RegisterLayout.of(("q", 3)), {i: amps[k] for i, k in enumerate(ordered)}, "sparse"
        )
        drawn = state.sample(seed=31, n_trials=4000)
        assert drawn == {ordered[i]: c for i, c in narrow.sample(seed=31, n_trials=4000).items()}


# ------------------------------------------------------------------ sampling


class TestSamplingStream:
    """Counts captured before sampling moved to np.bincount; the seeded stream is unchanged."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_pinned_for_fixed_seed(self, backend):
        layout = RegisterLayout.of(("q", 3))
        amps = {0: 0.5, 2: 0.5j, 5: -0.5, 7: 0.5 * (1 + 1j) / math.sqrt(2)}
        counts = inject_state(layout, amps, backend).sample(seed=2026, n_trials=1000)
        assert counts == {0: 223, 2: 241, 5: 267, 7: 269}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_pinned_for_random_state(self, backend):
        layout = RegisterLayout.of(("a", 2), ("b", 3))
        amps = random_state_map(np.random.default_rng(17), 5, 12)
        counts = make_state(layout, amps, backend).sample(seed=123456789, n_trials=5000)
        assert counts == {
            1: 534, 2: 709, 3: 566, 6: 522, 10: 832, 11: 153,
            12: 426, 14: 44, 15: 312, 18: 185, 20: 596, 30: 121,
        }


# A nonzero amplitude whose Born weight |a|**2 underflows to exactly 0.0; a
# zero weight in the entries below stands for it.
TINY = 1e-200
NARROW = RegisterLayout.of(("q", 8))
SAMPLE_CASES = {"dense": (NARROW, "dense"), "sparse": (NARROW, "sparse"), "wide": (WIDE, "sparse")}


@given(
    case=st.sampled_from(sorted(SAMPLE_CASES)),
    entries=st.dictionaries(
        st.integers(0, 255), st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1.0), min_size=1, max_size=12
    ).filter(lambda e: any(e.values())),
    seed=st.integers(0, (1 << 64) - 1),
    n_trials=st.integers(1, 3000),
)
@example(case="dense", entries={37: 1.0}, seed=5, n_trials=1)
@example(case="sparse", entries={200: 0.3}, seed=0, n_trials=2000)
@example(case="dense", entries={1: 0.0, 4: 0.5, 9: 0.0, 20: 0.2, 255: 0.0}, seed=11, n_trials=3000)
@example(case="wide", entries={0: 0.0, 3: 0.4, 64: 0.0, 130: 0.1, 254: 0.0}, seed=2**64 - 1, n_trials=1)
def test_sample_counts_the_draws_of_choice(case, entries, seed, n_trials):
    """sample(seed, N) is bincount(choice(len(support), N, p=born)) over the ascending support."""
    layout, backend = SAMPLE_CASES[case]
    # Wide keys put the drawn byte in the low and the high register, past 62 bits.
    to_key = (lambda k: k | (k << 62)) if layout is WIDE else int
    phases = np.exp(0.7j * np.arange(len(entries)))
    total = sum(entries.values())
    amps = {
        to_key(k): (math.sqrt(w / total) if w else TINY) * phase
        for (k, w), phase in zip(sorted(entries.items()), phases)
    }
    drawn = inject_state(layout, amps, backend).sample(seed, n_trials)

    keys = sorted(amps)
    born = np.abs(np.array([amps[k] for k in keys])) ** 2
    born /= born.sum()
    draws = np.random.default_rng(seed).choice(len(keys), n_trials, p=born)
    counts = np.bincount(draws, minlength=len(keys))
    assert drawn == {keys[i]: int(counts[i]) for i in np.flatnonzero(counts)}


def _choice_counts(state, seed, n_trials):
    """{key: count} of np.random.default_rng(seed).choice over the state's Born weights."""
    keys, amps = state.gather()
    born = np.abs(amps) ** 2
    born /= born.sum()
    draws = np.random.default_rng(seed).choice(len(keys), n_trials, p=born)
    counts = np.bincount(draws, minlength=len(keys))
    return {int(keys[i]): int(counts[i]) for i in np.flatnonzero(counts)}


def test_sample_counts_the_draws_of_choice_when_batches_interleave():
    """One cached shot batch serves every state of its (seed, N); any other pair draws afresh."""
    rng = np.random.default_rng(5)
    states = [
        make_state(NARROW, random_state_map(rng, 8, support), backend)
        for support, backend in ((3, "dense"), (12, "sparse"), (40, "dense"))
    ]
    _sorted_uniforms.cache_clear()
    pairs = [(7, 500), (7, 500), (8, 500), (7, 501), (7, 500), (2**64 - 1, 1), (7, 500)]
    for seed, n_trials in pairs:
        for state in states:
            assert state.sample(seed, n_trials) == _choice_counts(state, seed, n_trials)
    info = _sorted_uniforms.cache_info()
    # One draw per run of equal consecutive pairs, shared by all three states.
    assert (info.misses, info.hits) == (6, 3 * len(pairs) - 6)


def test_cached_uniforms_are_read_only():
    uniforms = _sorted_uniforms(3, 10)
    assert _sorted_uniforms(3, 10) is uniforms
    with pytest.raises(ValueError, match="read-only"):
        uniforms[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        uniforms.sort()


@pytest.mark.parametrize("backend", BACKENDS)
def test_uniform_on_a_cdf_boundary_goes_to_the_upper_outcome(backend):
    """choice sends a uniform equal to cdf[i] to outcome i + 1; so must the count."""
    a, b = 0.9018149694922304, 0.4321223909955692
    uniforms = np.random.default_rng(0).random(8)
    assert a * a + b * b == 1.0 and uniforms[4] == a * a  # cdf is exactly [a*a, 1]
    born = np.array([a * a, b * b])
    counts = np.bincount(np.random.default_rng(0).choice(2, 8, p=born), minlength=2)
    assert inject_state(NARROW, {4: a, 9: b}, backend).sample(0, 8) == {4: counts[0], 9: counts[1]}
    assert counts.tolist() == [(uniforms < a * a).sum(), (uniforms >= a * a).sum()]


@pytest.mark.parametrize("backend", BACKENDS)
class TestNaNAmplitudes:
    """NaN fails every norm comparison, so it must fail the norm checks too."""

    def _nan_state(self, backend):
        keys = NARROW.keys([0, 1])
        return QuantumState(NARROW, backend, (keys, np.array([np.nan, 1.0], dtype=complex)))

    def test_inject_state_rejects_nan(self, backend):
        with pytest.raises(ValueError, match="squared norm"):
            inject_state(NARROW, {0: float("nan"), 1: 1.0}, backend)

    def test_sample_rejects_nan_state(self, backend):
        with pytest.raises(InvariantViolation):
            self._nan_state(backend).sample(seed=1, n_trials=10)

    def test_mix_rejects_nan_state(self, backend):
        with pytest.raises(InvariantViolation):
            self._nan_state(backend).apply_two_level_mix([(2, 3)], np.eye(2))


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
