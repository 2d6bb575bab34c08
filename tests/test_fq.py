"""Per-particle (first-quantized) evolution tested against dense embeddings."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state_map, traced

from fermisim.antisym import transposition_test
from fermisim.fq import (
    FirstQuantizedLayout,
    KineticSplit,
    evolve_kinetic_particle,
    evolve_potential_fq,
    exchange_symmetry_violation,
    op_count_fq,
    prepare_antisymmetric,
    single_particle_plane_wave,
    trotter_evolve_fq,
)
from fermisim.oracle import (
    build_fq_hamiltonian,
    fq_kinetic_matrix,
    pack_words,
    propagator,
)
from fermisim.sq import HubbardParams, TrotterPlan, chain_bonds, trotter_step
from fermisim.state import inject_state, init_basis_state, validation_mode

PARAMS = HubbardParams(v0=4.0, t0=1.0)


def embed_particle(op: np.ndarray, layout: FirstQuantizedLayout, k: int) -> np.ndarray:
    below = 1 << (k * layout.word_bits)
    above = 1 << ((layout.n - 1 - k) * layout.word_bits)
    return np.kron(np.eye(above), np.kron(op, np.eye(below)))


def random_fq_state(rng, layout, support=16):
    reg = layout.register_layout()
    return inject_state(reg, random_state_map(rng, reg.width, support))


def kinetic_step_oracle(layout: FirstQuantizedLayout, k: int, dt: float) -> np.ndarray:
    split = KineticSplit.for_chain(layout.m)
    u1 = propagator(fq_kinetic_matrix(layout.m, PARAMS.t0, split.t1_pairs), dt)
    u = embed_particle(u1, layout, k)
    if layout.m > 2:
        u2 = propagator(fq_kinetic_matrix(layout.m, PARAMS.t0, split.t2_pairs), dt)
        u = embed_particle(u2, layout, k) @ u
    return u


class TestLayout:
    def test_basic_geometry(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        assert layout.position_bits == 2
        assert layout.word_bits == 3
        assert layout.register_layout().width == 6
        assert layout.register_layout().names() == ("spin0", "pos0", "spin1", "pos1")
        assert layout.word_slices() == [(0, 3), (3, 3)]

    def test_labels_round_trip(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        assert layout.label(1, 0) == 1
        assert layout.label(3, 1) == 6
        for word in range(8):
            assert layout.label((word >> 1) + 1, word & 1) == word + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FirstQuantizedLayout(n=1, m=3)
        with pytest.raises(ValueError):
            FirstQuantizedLayout(n=5, m=2)
        with pytest.raises(ValueError):
            FirstQuantizedLayout(n=0, m=4)


class TestKineticSplit:
    def test_chain_partition(self):
        split = KineticSplit.for_chain(4)
        assert split.t1_pairs == ((1, 2), (3, 4))
        assert split.t2_pairs == ((2, 3),)
        assert set(split.t1_pairs) | set(split.t2_pairs) == set(chain_bonds(4))

    def test_two_site_chain_has_no_second_half(self):
        split = KineticSplit.for_chain(2)
        assert split.t1_pairs == ((1, 2),)
        assert split.t2_pairs == ()

    @pytest.mark.parametrize("m", (2, 4, 8, 16))
    def test_union_covers_every_edge(self, m):
        split = KineticSplit.for_chain(m)
        assert set(split.t1_pairs) | set(split.t2_pairs) == set(chain_bonds(m))

    @pytest.mark.parametrize("m", range(2, 10))
    def test_every_bond_once_at_any_length(self, m):
        """T1 and T2 split the chain's bonds, the last one too when m is odd, into disjoint site pairs."""
        split = KineticSplit.for_chain(m)
        assert sorted(split.t1_pairs + split.t2_pairs) == list(chain_bonds(m))
        for half in (split.t1_pairs, split.t2_pairs):
            sites = [site for pair in half for site in pair]
            assert len(set(sites)) == len(sites)


def _coincide(reg, keys, k, l):
    """Particles k and l share a site with opposite spins (a basis string, or a mask over a key array)."""
    same_site = reg.field(keys, f"pos{k}") == reg.field(keys, f"pos{l}")
    return same_site & (reg.field(keys, f"spin{k}") != reg.field(keys, f"spin{l}"))


class TestPotentialFq:
    def test_phase_on_coinciding_opposite_spins(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        dt = 0.3
        coincide = pack_words((0, 1), 2)  # site 1 up, site 1 down
        apart = pack_words((0, 3), 2)  # site 1 up, site 2 down
        state = inject_state(
            layout.register_layout(),
            {coincide: math.sqrt(0.5), apart: math.sqrt(0.5)},
        )
        evolve_potential_fq(state, layout, PARAMS, dt)
        assert state.amplitude(coincide) == pytest.approx(
            math.sqrt(0.5) * np.exp(-1j * PARAMS.v0 * dt), abs=1e-12
        )
        assert state.amplitude(apart) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_same_spin_coincidence_is_unphased(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        both_up = pack_words((0, 0), 2)
        state = init_basis_state(layout.register_layout(), both_up)
        evolve_potential_fq(state, layout, PARAMS, 0.4)
        assert state.amplitude(both_up) == pytest.approx(1.0, abs=1e-12)

    def test_matches_diagonal_oracle_three_particles(self):
        rng = np.random.default_rng(11)
        layout = FirstQuantizedLayout(n=3, m=2)
        h_v = build_fq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0))
        state = random_fq_state(rng, layout, support=30)
        want = propagator(h_v, 0.21) @ state.to_vector()
        evolve_potential_fq(state, layout, PARAMS, 0.21)
        np.testing.assert_allclose(state.to_vector(), want, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(3, 2), (5, 4096)])
    def test_term_counts_the_coinciding_pairs(self, n, m):
        """terms[0] against a per-pair count: every string at n = 3, m = 2, object keys at n = 5, m = 4096."""
        layout = FirstQuantizedLayout(n=n, m=m)
        reg = layout.register_layout()
        rng = np.random.default_rng(n)
        keys = (np.arange(1 << reg.width) if m == 2 else reg.keys(
            [pack_words(rng.integers(6 if i % 2 else 2 * m, size=n), layout.word_bits) for i in range(300)]))
        count = layout.terms[0](keys)
        want = [sum(_coincide(reg, k, a, b) for a, b in combinations(range(n), 2)) for k in keys.tolist()]
        assert count.dtype == np.int64 and count.tolist() == want

    @pytest.mark.parametrize("n, m, checks", [(4, 2, "validation"), (4, 2, "production"), (5, 4096, "production")],
                             indirect=["checks"], ids=["4-2-slot", "4-2-search", "5-4096-search"])
    def test_bitwise_a_phase_per_pair(self, n, m, checks):
        """One count term multiplies each amplitude as a phase per coinciding pair does, pair by pair.

        The words sit on the lowest two sites, so the strings hold 0-4
        coinciding pairs; n = 5, m = 4096 has object keys.
        """
        layout, dt = FirstQuantizedLayout(n=n, m=m), 0.37
        reg = layout.register_layout()
        rng = np.random.default_rng(m)
        strings = sorted({pack_words(rng.integers(4, size=n), layout.word_bits) for _ in range(60)})
        amps = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
        amps /= np.linalg.norm(amps)
        state, looped = (inject_state(reg, dict(zip(strings, amps))) for _ in range(2))
        assert {0, 1, 2, 3} <= {int(c) for c in layout.terms[0](state.support_keys())}
        evolve_potential_fq(state, layout, PARAMS, dt)
        for a, b in combinations(range(n), 2):
            looped.apply_phase_where(lambda keys: _coincide(reg, keys, a, b), -PARAMS.v0 * dt)
        assert np.array_equal(state.support_keys(), looped.support_keys())
        assert np.array_equal(state.gather()[1].view(np.int64), looped.gather()[1].view(np.int64))


class TestKineticFq:
    @pytest.mark.parametrize("m", (2, 4, 8))
    def test_single_particle_matches_dense_halves(self, m):
        rng = np.random.default_rng(m)
        layout = FirstQuantizedLayout(n=1, m=m)
        dt = 0.29
        u = kinetic_step_oracle(layout, 0, dt)
        state = random_fq_state(rng, layout, support=2 * m)
        want = u @ state.to_vector()
        evolve_kinetic_particle(state, layout, 0, PARAMS, dt)
        np.testing.assert_allclose(state.to_vector(), want, atol=1e-12)

    def test_every_basis_word_m4(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        dt = 0.51
        u = kinetic_step_oracle(layout, 0, dt)
        for word in range(8):
            state = init_basis_state(layout.register_layout(), word)
            evolve_kinetic_particle(state, layout, 0, PARAMS, dt)
            np.testing.assert_allclose(state.to_vector(), u[:, word], atol=1e-12)

    def test_acts_on_one_particle_only(self):
        rng = np.random.default_rng(5)
        layout = FirstQuantizedLayout(n=2, m=4)
        dt = 0.13
        state = random_fq_state(rng, layout, support=40)
        want = kinetic_step_oracle(layout, 1, dt) @ state.to_vector()
        evolve_kinetic_particle(state, layout, 1, PARAMS, dt)
        np.testing.assert_allclose(state.to_vector(), want, atol=1e-12)

    def test_spin_is_untouched(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        state = init_basis_state(layout.register_layout(), pack_words((3,), 3))  # site 2 down
        evolve_kinetic_particle(state, layout, 0, PARAMS, 0.7)
        for b in state.support():
            assert b & 1 == 1

    @pytest.mark.parametrize("m", (4, 8, 16))
    def test_every_support_amplitude_is_a_hop_product(self, m):
        # One step leaves only strings reached by hops, none with a rounding-level
        # residue; dt = 1/8 is the step of a t = 1, r = 8 run.
        layout = FirstQuantizedLayout(n=1, m=m)
        for word in range(2 * m):
            state = init_basis_state(layout.register_layout(), word)
            evolve_kinetic_particle(state, layout, 0, PARAMS, 0.125)
            assert np.abs(state.gather()[1]).min() > 1e-12

    @pytest.mark.parametrize("k", (0, 3, 7))
    def test_wide_keys_match_the_one_particle_step(self, k):
        layout = FirstQuantizedLayout(n=8, m=128)  # 64 qubits: object-dtype keys
        words = (3, 254, 17, 128, 0, 1, 77, 255)
        basis = pack_words(words, layout.word_bits)
        state = init_basis_state(layout.register_layout(), basis)
        evolve_kinetic_particle(state, layout, k, PARAMS, 0.29)
        single = FirstQuantizedLayout(n=1, m=128)
        one = init_basis_state(single.register_layout(), words[k])
        evolve_kinetic_particle(one, single, 0, PARAMS, 0.29)
        off = k * layout.word_bits
        want = {(basis & ~(0xFF << off)) | (w << off): a for w, a in one.to_map().items()}
        got = state.to_map()
        assert got.keys() == want.keys()
        for b, a in want.items():
            assert got[b] == pytest.approx(a, abs=1e-15)

    def test_particle_index_range(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        state = init_basis_state(layout.register_layout(), 0)
        with pytest.raises(ValueError):
            evolve_kinetic_particle(state, layout, 2, PARAMS, 0.1)


class TestTrotterFq:
    def test_step_equals_term_propagator_product(self):
        rng = np.random.default_rng(17)
        layout = FirstQuantizedLayout(n=2, m=4)
        dt = 0.23
        state = random_fq_state(rng, layout, support=30)
        vec = state.to_vector()
        h_v = build_fq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0))
        vec = propagator(h_v, dt) @ vec
        for k in range(layout.n):
            vec = kinetic_step_oracle(layout, k, dt) @ vec
        trotter_step(state, layout, PARAMS, dt)
        np.testing.assert_allclose(state.to_vector(), vec, atol=1e-12)

    def test_converges_to_exact_propagator(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        state0 = prepare_antisymmetric(layout, (1, 6))
        h = build_fq_hamiltonian(layout, PARAMS)
        exact = propagator(h, 1.0) @ state0.to_vector()

        def error(r):
            state = state0.copy()
            trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(t=1.0, r=r))
            return np.linalg.norm(state.to_vector() - exact)

        e16, e32 = error(16), error(32)
        assert 1.6 < e16 / e32 < 2.4
        assert error(64) < 2e-2

    def test_antisymmetry_survives_evolution(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        state = prepare_antisymmetric(layout, (2, 5))
        trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(t=0.8, r=12))
        assert exchange_symmetry_violation(state, layout, "fermi") < 1e-10

    def test_fresh_step_keeps_at_most_two_store_versions(self):
        # The fq_prepare benchmark's physics: one fresh step grows the support
        # from 864 to 44 140 strings, rebuilding the store at every kinetic half.
        layout = FirstQuantizedLayout(n=5, m=8)
        state = prepare_antisymmetric(layout, (1, 4, 6, 9, 12), mode="fermi")
        plan = TrotterPlan(t=0.1, r=1)
        _, peak, _ = traced(lambda: trotter_evolve_fq(state, layout, HubbardParams(4.0, 1.0), plan, mode="fermi"))
        keys, vals = state.gather()
        assert len(keys) == 44140
        assert peak < 4 * (keys.nbytes + vals.nbytes)  # 5.5x with three versions alive at once

    def test_validation_mode_rejects_asymmetric_input(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        product = init_basis_state(layout.register_layout(), pack_words((0, 3), 2))
        with validation_mode(True):
            with pytest.raises(ValueError):
                trotter_evolve_fq(product, layout, PARAMS, TrotterPlan(t=0.1, r=1))
        # Production mode applies the step without the exponential-cost check.
        trotter_evolve_fq(product, layout, PARAMS, TrotterPlan(t=0.1, r=1))


@settings(max_examples=30)
@given(st.data())
def test_every_step_keeps_exchange_symmetry(data):
    """Each first-quantized trotter_step commutes with particle exchange, from any prepared state."""
    m = data.draw(st.sampled_from((2, 4, 8)), label="m")
    n = data.draw(st.integers(1, 3), label="n")
    layout = FirstQuantizedLayout(n=n, m=m)
    labels = sorted(data.draw(st.sets(st.integers(1, 2 * m), min_size=n, max_size=n), label="labels"))
    mode = data.draw(st.sampled_from(("fermi", "bose")), label="mode")
    state = prepare_antisymmetric(layout, labels, mode)
    # |t0| >= 0.25 and |dt| >= 0.2, so |t0 * dt| >= 0.05 and every step hops.
    params = HubbardParams(v0=data.draw(st.floats(-8.0, 8.0), label="v0"),
                           t0=data.draw(st.floats(-2.0, -0.25) | st.floats(0.25, 2.0), label="t0"))
    dt = data.draw(st.floats(-3.0, -0.2) | st.floats(0.2, 3.0), label="dt")
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        trotter_step(state, layout, params, dt)
        assert exchange_symmetry_violation(state, layout, mode) <= 1e-10


class TestPrepareAntisymmetric:
    def test_two_particle_amplitudes(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        state = prepare_antisymmetric(layout, (1, 4))
        assert state.layout == layout.register_layout()
        c = 1 / math.sqrt(2)
        assert state.amplitude(pack_words((0, 3), 2)) == pytest.approx(c, abs=1e-12)
        assert state.amplitude(pack_words((3, 0), 2)) == pytest.approx(-c, abs=1e-12)

    def test_bose_mode_is_symmetric(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        state = prepare_antisymmetric(layout, (2, 3), mode="bose")
        assert exchange_symmetry_violation(state, layout, "bose") < 1e-12

    def test_transposition_test_interface(self):
        layout = FirstQuantizedLayout(n=3, m=4)
        state = prepare_antisymmetric(layout, (1, 4, 7))
        slices = layout.word_slices()
        for i in range(3):
            for j in range(i + 1, 3):
                assert transposition_test(state, slices, i, j, "fermi") < 1e-12

    def test_rejects_labels_beyond_capacity(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        with pytest.raises(ValueError):
            prepare_antisymmetric(layout, (1, 5))


class TestPlaneWave:
    def test_amplitudes(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        state = single_particle_plane_wave(layout, k=1, spin=1)
        for x in range(4):
            want = np.exp(-2j * np.pi * x / 4) / 2
            assert state.amplitude((x << 1) | 1) == pytest.approx(want, abs=1e-12)

    def test_zero_momentum_is_uniform(self):
        layout = FirstQuantizedLayout(n=1, m=8)
        state = single_particle_plane_wave(layout, k=0)
        for x in range(8):
            assert state.amplitude(x << 1) == pytest.approx(1 / math.sqrt(8), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            single_particle_plane_wave(FirstQuantizedLayout(n=2, m=4), k=0)
        with pytest.raises(ValueError):
            single_particle_plane_wave(FirstQuantizedLayout(n=1, m=4), k=4)


class TestOpCountFq:
    def test_exact_tally(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        counts = op_count_fq(layout, TrotterPlan(t=1.0, r=3))
        assert counts == {"potential": 12, "kinetic": 108, "total": 120}

    def test_linear_in_r(self):
        layout = FirstQuantizedLayout(n=3, m=8)
        one = op_count_fq(layout, TrotterPlan(t=1.0, r=1))["total"]
        ten = op_count_fq(layout, TrotterPlan(t=1.0, r=10))["total"]
        assert ten == 10 * one

    @pytest.mark.parametrize("m", (4, 16))
    def test_squaring_sites_stays_under_bound(self, m):
        # Doubling the position-register width b squares the site count; the
        # op count must grow by at most 4.5x.
        plan = TrotterPlan(t=1.0, r=2)
        small = op_count_fq(FirstQuantizedLayout(n=3, m=m), plan)["total"]
        large = op_count_fq(FirstQuantizedLayout(n=3, m=m * m), plan)["total"]
        assert large / small <= 4.5
