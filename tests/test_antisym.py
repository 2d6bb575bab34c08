"""Antisymmetrization pipeline tests against the determinant-expansion oracle."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fermisim.antisym import (
    MODES,
    OrderedConfiguration,
    QuWordLayout,
    RegisterBank,
    antisymmetrize,
    antisymmetrize_inverse,
    collapse_ancillas,
    decode_rank_tuple,
    encode_labels,
    oblivious_schedule,
    prepare_ordered_input,
    sort_with_record,
    superpose_ranks,
    transposition_test,
    unsuperpose_ranks,
    _decode_table,
    MAX_PARTICLES,
    ranks_to_permutation,
)
from fermisim.fq import FirstQuantizedLayout, prepare_antisymmetric
from fermisim.oracle import slater_antisymmetrize
from fermisim.state import (
    InvariantViolation,
    RegisterLayout,
    init_basis_state,
    inject_state,
    validation_mode,
)


def apply_schedule(values, schedule):
    vals = list(values)
    for i, j in schedule:
        if vals[i] > vals[j]:
            vals[i], vals[j] = vals[j], vals[i]
    return vals


class TestSchedule:
    def test_trivial_sizes(self):
        assert oblivious_schedule(1) == ()
        assert oblivious_schedule(2) == ((0, 1),)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sorts_every_permutation(self, n):
        schedule = oblivious_schedule(n)
        want = list(range(n))
        for perm in permutations(want):
            assert apply_schedule(perm, schedule) == want

    def test_slots_are_in_range_and_ordered(self):
        for n in range(2, 9):
            for i, j in oblivious_schedule(n):
                assert 0 <= i < j < n

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            oblivious_schedule(0)
        with pytest.raises(ValueError):
            oblivious_schedule(2.5)


class TestRankMachinery:
    def test_decode_examples(self):
        assert decode_rank_tuple((1,)) == (1,)
        assert decode_rank_tuple((1, 1, 1)) == (1, 2, 3)
        assert decode_rank_tuple((2, 2, 1)) == (2, 3, 1)
        assert decode_rank_tuple((3, 2, 1)) == (3, 2, 1)

    def test_decode_covers_all_permutations(self):
        for n in range(1, 6):
            seen = set()
            for ranks in _all_rank_tuples(n):
                seen.add(decode_rank_tuple(ranks))
            assert seen == set(permutations(range(1, n + 1)))

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_rank_tuple((4, 1, 1))
        with pytest.raises(ValueError):
            decode_rank_tuple((1, 0, 1))

    def test_rank_block_count(self):
        for n, w in [(1, 1), (2, 1), (2, 3), (3, 2), (4, 3)]:
            bank = RegisterBank(QuWordLayout(n, w))
            blocks = bank.rank_blocks()
            assert len(blocks) == math.factorial(n)
            assert len(set(blocks)) == len(blocks)

    @pytest.mark.parametrize("n,w", [(2, 1), (2, 2), (3, 2), (3, 3)])
    def test_decode_table_is_a_bijection(self, n, w):
        blocks, perms = _decode_table(n, w)
        assert blocks.tolist() == sorted(_rank_block(ranks, w) for ranks in _all_rank_tuples(n))
        assert len(set(perms.tolist())) == len(perms) == math.factorial(n)

    def test_decode_rejects_out_of_range_ranks(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        # B[1] = 2 is out of range: the last rank component is always 1.
        basis = bank.layout.with_field(0, "B", encode_labels([1, 2], 2))
        state = init_basis_state(bank.layout, basis, "sparse")
        with pytest.raises(ValueError, match="out-of-range rank"):
            ranks_to_permutation(state, bank)

    def test_particle_limit(self):
        assert QuWordLayout(MAX_PARTICLES, 4).n == MAX_PARTICLES
        with pytest.raises(ValueError, match="limit"):
            QuWordLayout(MAX_PARTICLES + 1, 4)

    @pytest.mark.parametrize("n,w", [(2, 2), (3, 2)])
    def test_decode_table_matches_reference_decode(self, n, w):
        table = dict(zip(*(column.tolist() for column in _decode_table(n, w))))
        for ranks in _all_rank_tuples(n):
            assert table[_rank_block(ranks, w)] == encode_labels(decode_rank_tuple(ranks), w)


def _all_rank_tuples(n):
    from itertools import product

    for picks in product(*(range(1, n - i + 1) for i in range(n))):
        yield picks


def _rank_block(ranks, w):
    """B register value of a rank tuple: word i holds ranks[i] - 1."""
    return sum((r - 1) << (i * w) for i, r in enumerate(ranks))


class TestPreparation:
    def test_single_configuration(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 3))
        assert state.support() == [encode_labels((1, 3), 2)]
        assert state.amplitude(encode_labels((1, 3), 2)) == pytest.approx(1.0)

    def test_ordered_configuration_object(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, OrderedConfiguration((2, 4)))
        assert state.support() == [encode_labels((2, 4), 2)]

    def test_branch_list(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, [((1, 2), 0.6), ((3, 4), 0.8j)])
        assert state.amplitude(encode_labels((1, 2), 2)) == pytest.approx(0.6)
        assert state.amplitude(encode_labels((3, 4), 2)) == pytest.approx(0.8j)

    def test_rejects_unordered_or_duplicate_labels(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, (3, 1))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, (2, 2))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, [((1, 2), 1.0), ((1, 2), 0.0)])

    def test_rejects_wrong_length_and_range(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, (1, 2, 3))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, (1, 5))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, [])

    def test_unnormalized_branches_rejected(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        with pytest.raises(ValueError):
            prepare_ordered_input(bank, [((1, 2), 1.0), ((3, 4), 1.0)])


class TestStages:
    def test_superpose_ranks_amplitudes(self):
        bank = RegisterBank(QuWordLayout(3, 2))
        state = prepare_ordered_input(bank, (1, 2, 4))
        superpose_ranks(state, bank)
        assert len(state.support()) == 6
        for b in state.support():
            assert state.amplitude(b) == pytest.approx(1 / math.sqrt(6))
            assert bank.get_words(b, "A") == [0, 1, 3]

    def test_superpose_requires_clear_b(self):
        bank = RegisterBank(QuWordLayout(2, 1))
        state = prepare_ordered_input(bank, (1, 2))
        superpose_ranks(state, bank)
        with pytest.raises(ValueError):
            superpose_ranks(state, bank)

    def test_unsuperpose_round_trip(self):
        bank = RegisterBank(QuWordLayout(3, 2))
        state = prepare_ordered_input(bank, (1, 2, 3))
        before = state.to_map()
        superpose_ranks(state, bank)
        unsuperpose_ranks(state, bank)
        after = state.to_map()
        assert set(after) == set(before)
        for b, a in before.items():
            assert after[b] == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize(
        "n, w, backend",
        [(1, 1, "sparse"), (2, 2, "sparse"), (3, 2, "sparse"), (4, 2, "sparse"), (5, 3, "sparse"),
         (5, 4, "sparse"), (1, 1, "dense"), (2, 1, "dense"), (2, 2, "dense")],
    )
    def test_superpose_ranks_matches_per_string_reference(self, n, w, backend):
        bank = RegisterBank(QuWordLayout(n, w))
        assert (bank.layout.key_dtype == object) == ((n, w) == (5, 4))
        rng = np.random.default_rng(31 * n + w)
        branches = _random_branches(rng, n, w, 4)
        state = prepare_ordered_input(bank, branches, backend)
        want = _superpose_ranks_reference(state.to_map(), bank)
        superpose_ranks(state, bank)
        keys, amps = state.gather()
        want_keys = sorted(want)
        assert np.array_equal(keys, bank.layout.keys(want_keys))
        want_amps = np.array([want[k] for k in want_keys], dtype=complex)
        assert np.array_equal(amps.view(np.int64), want_amps.view(np.int64))  # bitwise, signed zeros too

    def test_unsuperpose_rejects_foreign_states(self):
        bank = RegisterBank(QuWordLayout(2, 1))
        state = prepare_ordered_input(bank, (1, 2))
        with pytest.raises(ValueError):
            unsuperpose_ranks(state, bank)


def _random_branches(rng, n, w, count):
    """Up to `count` distinct ordered label tuples in 1..2**w with a random normalized amplitude each."""
    tuples = sorted({tuple(sorted(rng.choice(1 << w, n, replace=False) + 1)) for _ in range(count)})
    amps = rng.normal(size=len(tuples)) + 1j * rng.normal(size=len(tuples))
    amps /= np.linalg.norm(amps)
    return [(labels, complex(a)) for labels, a in zip(tuples, amps)]


def _superpose_ranks_reference(amplitudes, bank):
    """superpose_ranks one basis string and one rank tuple at a time, as {key: amplitude}."""
    off = bank.layout.offset("B")
    blocks = [_rank_block(ranks, bank.word_bits) for ranks in _all_rank_tuples(bank.n)]
    coeff = 1.0 / math.sqrt(len(blocks))
    out = {}
    for b, a in amplitudes.items():
        for blk in blocks:
            out[b | (blk << off)] = a * coeff
    return out


class TestSortRecord:
    @staticmethod
    def run_sort(bank, key_words, co_a=None):
        # Words hold label - 1, so word values v are the labels v + 1.
        basis = bank.layout.with_field(0, "B", encode_labels([v + 1 for v in key_words], bank.word_bits))
        if co_a is not None:
            basis = bank.layout.with_field(basis, "A", encode_labels([v + 1 for v in co_a], bank.word_bits))
        state = init_basis_state(bank.layout, basis, "sparse")
        sort_with_record(state, bank, "B", ("A",) if co_a is not None else ())
        (out,) = state.support()
        return out

    def test_sorted_key_records_no_swaps(self):
        bank = RegisterBank(QuWordLayout(3, 2))
        out = self.run_sort(bank, [0, 1, 2], co_a=[3, 2, 1])
        rec_off, rec_mask = bank.block("rec")
        par_off, _ = bank.block("par")
        assert bank.get_words(out, "B") == [0, 1, 2]
        assert bank.get_words(out, "A") == [3, 2, 1]
        assert (out >> rec_off) & rec_mask == 0
        assert (out >> par_off) & 1 == 0

    def test_single_transposition(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        out = self.run_sort(bank, [1, 0], co_a=[2, 3])
        par_off, _ = bank.block("par")
        assert bank.get_words(out, "B") == [0, 1]
        assert bank.get_words(out, "A") == [3, 2]
        assert (out >> par_off) & 1 == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity_universality(self, n):
        # The accumulated exchange parity must equal the permutation parity of
        # the input key for every key, whatever the fixed schedule looks like.
        bank = RegisterBank(QuWordLayout(n, 2))
        rec_off, rec_mask = bank.block("rec")
        par_off, _ = bank.block("par")
        for perm in permutations(range(n)):
            inversions = sum(
                1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
            )
            out = self.run_sort(bank, list(perm))
            assert bank.get_words(out, "B") == sorted(perm)
            par = (out >> par_off) & 1
            assert par == inversions & 1
            rec = (out >> rec_off) & rec_mask
            assert bin(rec).count("1") & 1 == par


def pipeline_amplitudes(labels, mode, word_bits=None, superposed=None):
    """Run the full pipeline and return {permuted labels: amplitude}."""
    n = len(labels)
    w = word_bits or max(2, max(labels).bit_length())
    bank = RegisterBank(QuWordLayout(n, w))
    state = prepare_ordered_input(bank, superposed if superposed is not None else labels)
    antisymmetrize(state, bank, mode)
    out = {}
    for b in state.support():
        assert bank.ancillas_clear(b), "ancillas must be exactly zero"
        out[tuple(v + 1 for v in bank.get_words(b, "A"))] = state.amplitude(b)
    return out


class TestPipeline:
    def test_single_particle_is_identity(self):
        got = pipeline_amplitudes((3,), "fermi")
        assert got == {(3,): pytest.approx(1.0)}

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "labels",
        [(1, 2), (2, 5), (1, 2, 3), (2, 4, 7), (1, 3, 5, 8)],
    )
    def test_matches_determinant_expansion(self, labels, mode):
        got = pipeline_amplitudes(labels, mode)
        want = slater_antisymmetrize(labels, mode)
        assert set(got) == set(want)
        for perm, amp in want.items():
            assert got[perm] == pytest.approx(amp, abs=1e-12)

    def test_amplitude_magnitude_is_exact(self):
        got = pipeline_amplitudes((1, 2, 3), "fermi")
        for amp in got.values():
            assert abs(abs(amp) - 1 / math.sqrt(6)) < 1e-15

    def test_linearity_over_input_branches(self):
        branches = [((1, 2), 0.6), ((2, 3), 0.8j)]
        got = pipeline_amplitudes((1, 2), "fermi", superposed=branches)
        want = {}
        for labels, coeff in branches:
            for perm, amp in slater_antisymmetrize(labels, "fermi").items():
                want[perm] = want.get(perm, 0) + coeff * amp
        assert set(got) == set(want)
        for perm, amp in want.items():
            assert got[perm] == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_inverse_restores_ordered_input(self, mode):
        bank = RegisterBank(QuWordLayout(3, 2))
        state = prepare_ordered_input(bank, [((1, 2, 3), 0.6), ((1, 3, 4), 0.8)])
        before = state.to_map()
        antisymmetrize(state, bank, mode)
        antisymmetrize_inverse(state, bank, mode)
        after = state.to_map()
        assert set(after) == set(before)
        for b, a in before.items():
            assert after[b] == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("labels", [(1, 2, 3, 4, 5, 9), (1, 3, 4, 6, 8, 11, 16)])
    def test_large_n_matches_determinant_expansion(self, labels):
        # n * w = 24 and 28 bits of B: beyond any total table over B's values.
        want = slater_antisymmetrize(labels, "fermi")
        got = pipeline_amplitudes(labels, "fermi", word_bits=4)  # checks ancillas clear
        assert set(got) == set(want)
        for perm, amp in want.items():
            assert got[perm] == pytest.approx(amp, abs=1e-12)

        layout = FirstQuantizedLayout(n=len(labels), m=8)
        keys, amps = prepare_antisymmetric(layout, labels).gather()
        words = [((keys >> (4 * k)) & 15) + 1 for k in range(len(labels))]
        assert len(keys) == len(want)
        for perm, amp in zip(zip(*(w.tolist() for w in words)), amps):
            assert amp == pytest.approx(want[perm], abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_inverse_restores_ordered_input_on_wide_keys(self, mode):
        bank = RegisterBank(QuWordLayout(5, 4))
        assert bank.layout.key_dtype == object  # 70 qubits
        state = prepare_ordered_input(bank, [((1, 4, 6, 9, 12), 0.6), ((2, 3, 5, 7, 16), 0.8j)])
        before = state.to_map()
        antisymmetrize(state, bank, mode)
        assert len(state.support()) == 2 * 120
        antisymmetrize_inverse(state, bank, mode)
        after = state.to_map()
        assert set(after) == set(before)
        for b, a in before.items():
            assert after[b] == pytest.approx(a, abs=1e-12)

    def test_rejects_unordered_a_register(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 3))
        antisymmetrize(state, bank)
        with pytest.raises(ValueError):
            antisymmetrize(state, bank)  # output holds non-increasing branches

    @pytest.mark.parametrize(
        "branches, message",
        [
            # Word i holds labels[i] - 1, so (3, 1) is unordered; a named
            # register gets its lowest bit set, which puts the string above
            # every string with clean ancillas in key order.
            ([((3, 1), None), ((1, 2), None)], r"strictly increasing labels, got \(3, 1\)"),
            ([((1, 2), None), ((1, 3), "C")], "ancilla registers must be zero"),
            # The first offending string in key order names the error.
            ([((3, 1), None), ((1, 2), "C")], r"strictly increasing labels, got \(3, 1\)"),
            ([((1, 2), "B"), ((4, 1), "C")], "ancilla registers must be zero"),
            ([((2, 1), "B"), ((1, 2), "C")], r"strictly increasing labels, got \(2, 1\)"),
        ],
    )
    def test_entry_check_names_the_first_offending_string(self, branches, message):
        bank = RegisterBank(QuWordLayout(2, 2))
        amplitudes = {}
        for (labels, dirty), amp in zip(branches, (0.6, 0.8)):
            key = encode_labels(labels, 2)
            if dirty is not None:
                key |= 1 << bank.layout.offset(dirty)
            amplitudes[key] = amp
        for backend in ("sparse", "dense"):
            with pytest.raises(ValueError, match=message):
                antisymmetrize(inject_state(bank.layout, amplitudes, backend), bank)

    def test_rejects_bad_mode(self):
        bank = RegisterBank(QuWordLayout(2, 1))
        state = prepare_ordered_input(bank, (1, 2))
        with pytest.raises(ValueError):
            antisymmetrize(state, bank, "anyon")

    def test_full_domain_bijectivity_under_validation(self):
        # Small enough that every basis permutation is checked exhaustively.
        bank = RegisterBank(QuWordLayout(2, 2))
        assert bank.layout.width <= 20
        with validation_mode(True):
            got = pipeline_amplitudes((1, 4), "fermi")
        want = slater_antisymmetrize((1, 4), "fermi")
        for perm, amp in want.items():
            assert got[perm] == pytest.approx(amp, abs=1e-12)


@st.composite
def ordered_superpositions(draw):
    """(n, word bits, branches): distinct ordered label tuples with normalized amplitudes."""
    n = draw(st.integers(1, 6))
    w = draw(st.integers(max(1, (n - 1).bit_length()), 4))
    labels = st.lists(st.integers(1, 1 << w), min_size=n, max_size=n, unique=True)
    tuples = draw(st.lists(labels.map(lambda v: tuple(sorted(v))), min_size=1, max_size=3, unique=True))
    polar = draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-math.pi, math.pi)),
                          min_size=len(tuples), max_size=len(tuples)))
    amps = np.array([r * complex(math.cos(phi), math.sin(phi)) for r, phi in polar])
    amps /= np.linalg.norm(amps)
    return n, w, list(zip(tuples, amps.tolist()))


@given(case=ordered_superpositions(), mode=st.sampled_from(MODES), dense=st.booleans())
# Pinned on both sides of KEY_BITS: 5 particles on 4-bit words are a 70-qubit
# bank with object keys, 4 on 4-bit words a 54-qubit bank with int64 keys.
@example(case=(5, 4, [((1, 4, 6, 9, 12), 0.6), ((2, 3, 5, 7, 16), 0.8j)]), mode="fermi", dense=False)
@example(case=(6, 3, [((1, 2, 3, 5, 7, 8), 1.0)]), mode="bose", dense=False)
@example(case=(4, 4, [((1, 2, 3, 16), 0.8), ((5, 6, 9, 11), -0.6j)]), mode="fermi", dense=False)
@example(case=(2, 2, [((1, 2), 0.6j), ((2, 4), 0.8)]), mode="bose", dense=True)
def test_inverse_undoes_antisymmetrize_on_random_superpositions(case, mode, dense):
    """antisymmetrize_inverse after antisymmetrize is the identity, on int64 and on object keys."""
    n, w, branches = case
    bank = RegisterBank(QuWordLayout(n, w))
    backend = "dense" if dense and bank.layout.width <= 20 else "sparse"
    state = prepare_ordered_input(bank, branches, backend)
    before = state.to_map()
    antisymmetrize(state, bank, mode)
    assert len(state.support()) == len(branches) * math.factorial(n)
    antisymmetrize_inverse(state, bank, mode)
    after = state.to_map()
    assert sorted(after) == sorted(before)
    for b, a in before.items():
        assert abs(after[b] - a) <= 1e-12


class TestTranspositionTest:
    @pytest.mark.parametrize("mode", MODES)
    def test_pipeline_output_passes(self, mode):
        bank = RegisterBank(QuWordLayout(3, 2))
        state = prepare_ordered_input(bank, (1, 2, 4))
        antisymmetrize(state, bank, mode)
        slices = bank.word_slices("A")
        for i, j in combinations(range(3), 2):
            assert transposition_test(state, slices, i, j, mode) < 1e-12

    def test_wrong_statistics_fail(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 2))
        antisymmetrize(state, bank, "fermi")
        slices = bank.word_slices("A")
        assert transposition_test(state, slices, 0, 1, "bose") > 1.0

    def test_validates_arguments(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 2))
        slices = bank.word_slices("A")
        with pytest.raises(ValueError):
            transposition_test(state, slices, 1, 1, "fermi")
        with pytest.raises(ValueError):
            transposition_test(state, slices, 0, 1, "anyon")
        with pytest.raises(ValueError):
            transposition_test(state, [(0, 2), (2, 3)], 0, 1, "fermi")


class TestCollapse:
    def test_default_layout(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 3))
        antisymmetrize(state, bank)
        out = collapse_ancillas(state, bank)
        assert out.layout.names() == ("w0", "w1")
        assert out.amplitude(encode_labels((1, 3), 2)) == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude(encode_labels((3, 1), 2)) == pytest.approx(-1 / math.sqrt(2))

    def test_custom_layout_and_backend(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (2, 3))
        antisymmetrize(state, bank)
        layout = RegisterLayout.of(("s0", 1), ("p0", 1), ("s1", 1), ("p1", 1))
        out = collapse_ancillas(state, bank, layout, backend="dense")
        assert out.backend == "dense"
        assert abs(out.norm() - 1.0) < 1e-12

    def test_rejects_dirty_ancillas(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 2))
        superpose_ranks(state, bank)
        with pytest.raises(ValueError):
            collapse_ancillas(state, bank)

    def test_rejects_wrong_width_layout(self):
        bank = RegisterBank(QuWordLayout(2, 2))
        state = prepare_ordered_input(bank, (1, 2))
        antisymmetrize(state, bank)
        with pytest.raises(ValueError):
            collapse_ancillas(state, bank, RegisterLayout.of(("w", 3)))


class TestOracleSelfChecks:
    """The determinant expansion itself, pinned on hand-computed values."""

    def test_two_particle_signs(self):
        want = {(1, 2): 1 / math.sqrt(2), (2, 1): -1 / math.sqrt(2)}
        got = slater_antisymmetrize((1, 2), "fermi")
        for k, v in want.items():
            assert got[k] == pytest.approx(v)

    def test_three_particle_cycle_signs(self):
        got = slater_antisymmetrize((1, 2, 3), "fermi")
        c = 1 / math.sqrt(6)
        assert got[(2, 3, 1)] == pytest.approx(c)  # even: two transpositions
        assert got[(2, 1, 3)] == pytest.approx(-c)
        assert got[(3, 2, 1)] == pytest.approx(-c)

    def test_bose_is_all_positive(self):
        got = slater_antisymmetrize((1, 5, 7), "bose")
        assert all(v == pytest.approx(1 / math.sqrt(6)) for v in got.values())

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError):
            slater_antisymmetrize((1, 1, 2))
