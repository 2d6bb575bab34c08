"""Observable readouts checked against dense expectation values and hand cases."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BOTH_CHECKS, random_state_map

from fermisim import oracle
from fermisim.fq import (
    FirstQuantizedLayout,
    prepare_antisymmetric,
    single_particle_plane_wave,
    trotter_evolve_fq,
)
from fermisim.observables import (
    ENERGY_SPLIT_TOL,
    EnergyReport,
    Estimate,
    Histogram,
    SamplingPlan,
    charge_density,
    expected_energy,
    k_point_correlation,
    momentum_distribution,
    pair_correlation,
    required_trials,
    _check_energy,
    _energy_split,
    _site_masks,
)
from fermisim.oracle import (
    build_fq_hamiltonian,
    build_sq_hamiltonian,
    fq_to_sq,
    pack_words,
    propagator,
)
from fermisim.sq import (
    DOWN,
    UP,
    HubbardParams,
    ModeLayout,
    TrotterPlan,
    encode_occupation,
    trotter_evolve,
)
from fermisim.state import (
    MAX_TRIALS,
    InvariantViolation,
    init_basis_state,
    inject_state,
    validation_mode,
)

PARAMS = HubbardParams(v0=4.0, t0=1.0)


def random_sq_state(rng, m, support=12):
    layout = ModeLayout(m).register_layout()
    return inject_state(layout, random_state_map(rng, layout.width, support))


def state_from_vector(layout, vec):
    amps = {b: complex(a) for b, a in enumerate(vec) if abs(a) > 0}
    return inject_state(layout, amps)


class TestRequiredTrials:
    def test_tenth_needs_a_hundred(self):
        assert required_trials(0.1) == 100

    def test_general_values(self):
        assert required_trials(0.01) == 10000
        assert required_trials(0.3) == 12  # ceil(11.11)

    def test_halving_epsilon_quadruples_trials(self):
        assert required_trials(0.05) == 4 * required_trials(0.1)

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                required_trials(eps)


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(seed=-1, n_trials=10)
        with pytest.raises(ValueError):
            SamplingPlan(seed=0, n_trials=0)
        with pytest.raises(ValueError):
            SamplingPlan(seed=0, n_trials=MAX_TRIALS + 1)

    def test_defaults(self):
        # A plan is the seed and the shot count, with nothing defaulted beside them.
        assert list(SamplingPlan(seed=3, n_trials=100)._fields) == ["seed", "n_trials"]


class TestHistogram:
    def test_frequency_sum_enforced(self):
        with pytest.raises(InvariantViolation):
            Histogram(frequencies={0: 0.5, 1: 0.4})

    def test_nonnegative_enforced(self):
        with pytest.raises(InvariantViolation):
            Histogram(frequencies={0: -0.1, 1: 1.1})

    @pytest.mark.parametrize("frequencies", [{0: float("nan"), 1: 1.0}, {0: float("nan")}])
    def test_nan_frequency_enforced(self, frequencies):
        with pytest.raises(InvariantViolation):
            Histogram(frequencies=frequencies)

    def test_counts_must_match_trials(self):
        with pytest.raises(InvariantViolation):
            Histogram(frequencies={0: 1.0}, counts={0: 5}, n_trials=6)
        with pytest.raises(ValueError):
            Histogram(frequencies={0: 1.0}, counts={0: 5})


class TestEnergyCheck:
    @pytest.mark.parametrize("value, total", [(float("nan"), 1.0), (1.0, float("nan")),
                                              (float("inf"), float("inf"))])
    def test_non_finite_energy_is_an_invariant_violation(self, value, total):
        with pytest.raises(InvariantViolation, match="drifted"):
            _check_energy(value, total, "energy")

    def test_agreement_within_tolerance_passes(self):
        _check_energy(2.0 + ENERGY_SPLIT_TOL, 2.0, "energy")


class TestChargeDensity:
    def test_sq_basis_state_is_an_indicator(self):
        # Site 1 holds two electrons but its occupancy probability is still 1.
        layout = ModeLayout(3)
        bits = encode_occupation(layout, ((1, UP), (1, DOWN), (3, UP)))
        state = init_basis_state(layout.register_layout(), bits)
        np.testing.assert_allclose(charge_density(state, layout), [1, 0, 1])

    def test_single_particle_superposition(self):
        layout = ModeLayout(2)
        a = encode_occupation(layout, ((1, UP),))
        b = encode_occupation(layout, ((2, UP),))
        amp = 1 / np.sqrt(2)
        state = inject_state(layout.register_layout(), {a: amp, b: amp})
        np.testing.assert_allclose(charge_density(state, layout), [0.5, 0.5], atol=1e-12)

    def test_fq_antisymmetric_state(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        same_site = prepare_antisymmetric(layout, (1, 2))  # both on site 1
        np.testing.assert_allclose(charge_density(same_site, layout), [1, 0], atol=1e-12)
        split = prepare_antisymmetric(layout, (1, 4))
        np.testing.assert_allclose(charge_density(split, layout), [1, 1], atol=1e-12)

    def test_sums_to_n_when_sites_are_singly_occupied(self):
        layout = FirstQuantizedLayout(n=3, m=4)
        state = prepare_antisymmetric(layout, (1, 4, 6))  # sites 1, 2, 3
        assert charge_density(state, layout).sum() == pytest.approx(3.0, abs=1e-12)

    def test_formalisms_agree_after_exact_evolution(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        vec = prepare_antisymmetric(layout, (1, 4)).to_vector()
        evolved = propagator(build_fq_hamiltonian(layout, PARAMS), 0.7) @ vec
        fq_state = state_from_vector(layout.register_layout(), evolved)
        sq_state = state_from_vector(
            ModeLayout(2).register_layout(), fq_to_sq(evolved, layout)
        )
        np.testing.assert_allclose(
            charge_density(fq_state, layout),
            charge_density(sq_state, ModeLayout(2)),
            atol=1e-10,
        )

    def test_layout_mismatch(self):
        layout = ModeLayout(2)
        state = init_basis_state(ModeLayout(3).register_layout(), 0)
        with pytest.raises(ValueError):
            charge_density(state, layout)

    @pytest.mark.parametrize("layout", [FirstQuantizedLayout(n=3, m=4), FirstQuantizedLayout(n=7, m=512)],
                             ids=["narrow", "wide"])
    def test_fq_site_table_counts_each_particle(self, layout):
        """`occupied(site)` marks exactly the strings with at least one particle word on that site."""
        if layout.n == 3:  # all 512 strings, so up to three particles share a site
            keys = np.arange(1 << (layout.n * layout.word_bits), dtype=np.int64)
        else:  # 70-bit object keys, with every particle on one of sites 1..4
            rng = np.random.default_rng(12)
            words = rng.integers(0, 8, size=(60, layout.n))
            keys = np.array([sum(int(w) << (k * layout.word_bits) for k, w in enumerate(row))
                             for row in words], dtype=object)
        mask = (1 << layout.word_bits) - 1

        def on_site(key, site):
            return sum(((key >> (k * layout.word_bits) & mask) >> 1) + 1 == site for k in range(layout.n))

        occupied = _site_masks(keys, layout)
        for site in range(1, layout.m + 1):
            assert occupied(site).tolist() == [on_site(int(key), site) > 0 for key in keys]

    @pytest.mark.parametrize("m", [3, 32], ids=["narrow", "wide"])
    def test_sq_site_masks_read_both_modes_of_a_site(self, m):
        """`occupied(site)` marks exactly the strings with the site's up or down mode set."""
        layout = ModeLayout(m)
        if m == 3:  # all 64 strings, so a site may hold none, either or both spins
            keys = np.arange(1 << layout.n_modes, dtype=np.int64)
        else:  # 64-bit object keys, the top modes set in some of them
            rng = np.random.default_rng(32)
            bits = rng.random((60, layout.n_modes)) < 0.2
            bits[:20, -2:] = rng.random((20, 2)) < 0.5
            keys = np.array([sum(1 << int(mode) for mode in np.flatnonzero(row)) for row in bits],
                            dtype=object)
            assert max(keys) >= 1 << 63

        def on_site(key, site):
            return sum(key >> layout.mode(site, spin) & 1 for spin in (UP, DOWN))

        occupied = _site_masks(keys, layout)
        for site in range(1, layout.m + 1):
            assert occupied(site).tolist() == [on_site(int(key), site) > 0 for key in keys]

    def test_cold_sq_density_builds_no_site_table(self):
        # Every two-particle string on m = 31 sites, the widest chain with
        # int64 keys: a (support x m) table of one byte per entry takes 31
        # bytes per string, more than the support's own 24.
        layout = ModeLayout(31)
        keys = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(layout.n_modes), 2)]
        state = inject_state(layout.register_layout(), dict.fromkeys(keys, 1 / math.sqrt(len(keys))))
        support_bytes = sum(a.nbytes for a in state.gather())
        tracemalloc.start()
        try:
            density = charge_density(state, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A site is empty in the strings whose two particles sit on the other 2m - 2 modes.
        empty = math.comb(layout.n_modes - 2, 2)
        np.testing.assert_allclose(density, 1 - empty / len(keys), atol=1e-12)
        assert peak < 2 * support_bytes

    def test_fq_site_table_is_freed_with_its_state(self):
        # One particle on m = 4096 sites: its (m x support) site table takes
        # 16 MB against the support's 96 KB, and nothing outlives the state.
        layout = FirstQuantizedLayout(n=1, m=4096)
        state = single_particle_plane_wave(layout, k=5)
        tracemalloc.start()
        try:
            density = charge_density(state, layout)
            del state
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(density, 1 / layout.m, atol=1e-12)
        assert held < 2 * density.nbytes


class TestCorrelations:
    def test_fully_occupied_lattice_gives_one(self):
        layout = ModeLayout(2)
        bits = encode_occupation(layout, ((1, UP), (1, DOWN), (2, UP), (2, DOWN)))
        state = init_basis_state(layout.register_layout(), bits)
        assert pair_correlation(state, layout, 1, 2) == pytest.approx(1.0)

    def test_single_particle_never_coincides(self):
        layout = ModeLayout(3)
        a = encode_occupation(layout, ((1, UP),))
        b = encode_occupation(layout, ((3, DOWN),))
        amp = 1 / np.sqrt(2)
        state = inject_state(layout.register_layout(), {a: amp, b: amp})
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert pair_correlation(state, layout, i, j) == pytest.approx(0.0)

    def test_half_filled_superposition_matches_amplitudes(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}
        )
        assert pair_correlation(state, layout, 1, 2) == pytest.approx(0.64, abs=1e-12)
        assert k_point_correlation(state, layout, (1,)) == pytest.approx(1.0, abs=1e-12)
        assert k_point_correlation(state, layout, (2,)) == pytest.approx(0.64, abs=1e-12)

    def test_three_point_fq(self):
        layout = FirstQuantizedLayout(n=3, m=4)
        state = prepare_antisymmetric(layout, (1, 3, 5))  # sites 1, 2, 3
        assert k_point_correlation(state, layout, (1, 2, 3)) == pytest.approx(1.0)
        assert k_point_correlation(state, layout, (1, 2, 4)) == pytest.approx(0.0)

    def test_argument_validation(self):
        layout = ModeLayout(4)
        state = init_basis_state(layout.register_layout(), 0)
        with pytest.raises(ValueError):
            k_point_correlation(state, layout, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            k_point_correlation(state, layout, (1, 1))
        with pytest.raises(ValueError):
            k_point_correlation(state, layout, (5,))
        with pytest.raises(ValueError):
            k_point_correlation(state, layout, ())
        with pytest.raises(ValueError):
            pair_correlation(state, layout, 2, 2)


def occupied_sites(layout, key):
    """1-based sites holding a particle in basis string `key`, decoded bit by bit."""
    if isinstance(layout, ModeLayout):
        return {(mode >> 1) + 1 for mode in range(layout.n_modes) if key >> mode & 1}
    mask = (1 << layout.word_bits) - 1
    return {((key >> (k * layout.word_bits) & mask) >> 1) + 1 for k in range(layout.n)}


class TestSampledEstimates:
    @BOTH_CHECKS
    @pytest.mark.parametrize("layout", [ModeLayout(3), FirstQuantizedLayout(n=2, m=4)],
                             ids=["sq", "fq"])
    def test_estimates_are_the_frequencies_of_the_draws(self, layout, checks):
        rng = np.random.default_rng(31)
        reg = layout.register_layout()
        state = inject_state(reg, random_state_map(rng, reg.width, 40))
        # With 7 shots most of the 40 strings draw none, and the estimates read
        # only the rows that drew.
        for plan in (SamplingPlan(seed=5, n_trials=3000), SamplingPlan(seed=5, n_trials=7)):
            draws = state.sample(plan.seed, plan.n_trials)

            def check(estimate, sites):
                hits = sum(c for key, c in draws.items() if set(sites) <= occupied_sites(layout, key))
                f = hits / plan.n_trials
                assert estimate.sampled == f
                assert abs(estimate.stderr - math.sqrt(max(f * (1 - f), 0.0) / plan.n_trials)) <= 1e-15

            density = charge_density(state, layout, plan)
            assert len(density) == layout.m
            for site, estimate in enumerate(density, start=1):
                check(estimate, (site,))
            for sites in ((1, 3), (1, 2, 3)):
                check(k_point_correlation(state, layout, sites, plan), sites)

    def test_sampled_density_holds_no_float_copy_of_the_site_table(self):
        # The fq_prepare benchmark state: support 44 140 strings on m = 8 sites.
        # A float64 copy of the (support x m) indicator table is 8/3 of the
        # support's own bytes and pushes the peak past the bound.
        layout = FirstQuantizedLayout(n=5, m=8)
        state = prepare_antisymmetric(layout, (1, 4, 6, 9, 12), mode="fermi")
        trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(t=0.1, r=1), mode="fermi")
        keys, vals = state.gather()
        plan = SamplingPlan(seed=0, n_trials=20000)
        charge_density(state, layout, plan)  # draws the run's cached shot batch
        tracemalloc.start()
        try:
            charge_density(state, layout, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys) == 44140
        assert peak < 3 * (keys.nbytes + vals.nbytes)


class TestMomentum:
    def test_plane_wave_concentrates_in_one_bin(self):
        layout = FirstQuantizedLayout(n=1, m=8)
        state = single_particle_plane_wave(layout, k=3)
        hist = momentum_distribution(state, layout, 0)
        assert hist.frequencies[3] == pytest.approx(1.0, abs=1e-10)
        assert sorted(hist.frequencies) == list(range(8))
        assert hist.counts is None

    def test_uniform_position_is_momentum_zero(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        amps = {pack_words((2 * x,), 3): 0.5 for x in range(4)}
        state = inject_state(layout.register_layout(), amps)
        hist = momentum_distribution(state, layout, 0)
        assert hist.frequencies[0] == pytest.approx(1.0, abs=1e-12)

    def test_position_eigenstate_is_flat(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        state = init_basis_state(layout.register_layout(), pack_words((4,), 3))
        hist = momentum_distribution(state, layout, 0)
        for k in range(4):
            assert hist.frequencies[k] == pytest.approx(0.25, abs=1e-12)

    def test_exchange_symmetric_marginals(self):
        # Both particles of an antisymmetrized pair share one momentum profile.
        layout = FirstQuantizedLayout(n=2, m=4)
        state = prepare_antisymmetric(layout, (2, 7))
        h0 = momentum_distribution(state, layout, 0)
        h1 = momentum_distribution(state, layout, 1)
        for k in range(4):
            assert h0.frequencies[k] == pytest.approx(h1.frequencies[k], abs=1e-12)

    def test_original_state_is_untouched(self):
        layout = FirstQuantizedLayout(n=1, m=4)
        state = single_particle_plane_wave(layout, k=1)
        before = state.to_map()
        momentum_distribution(state, layout, 0)
        assert state.to_map() == before

    def test_sampled_counts_add_up(self):
        layout = FirstQuantizedLayout(n=1, m=8)
        state = single_particle_plane_wave(layout, k=3)
        plan = SamplingPlan(seed=7, n_trials=200)
        hist = momentum_distribution(state, layout, 0, plan)
        assert hist.n_trials == 200
        assert sum(hist.counts.values()) == 200
        assert hist.counts[3] == 200  # exact plane wave, single support bin
        assert hist.frequencies[3] == pytest.approx(1.0)

    def test_sampled_histogram_carries_the_exact_frequencies(self, checks):
        layout = FirstQuantizedLayout(n=2, m=4)
        state = prepare_antisymmetric(layout, (2, 7))
        trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(0.7, 3))
        exact = momentum_distribution(state, layout, 1)
        sampled = momentum_distribution(state, layout, 1, SamplingPlan(seed=4, n_trials=300))
        assert exact.exact is None
        assert sampled.exact == exact.frequencies
        assert len(set(exact.frequencies.values())) > 1  # not a flat histogram

    def test_histogram_checks_its_exact_frequencies(self):
        with pytest.raises(InvariantViolation):
            Histogram(frequencies={0: 1.0}, counts={0: 2}, n_trials=2, exact={0: 0.5, 1: 0.4})

    def test_sq_state_rejected(self):
        layout = ModeLayout(2)
        state = init_basis_state(layout.register_layout(), 0)
        with pytest.raises(ValueError):
            momentum_distribution(state, layout, 0)

    def test_particle_index_checked(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        state = prepare_antisymmetric(layout, (1, 4))
        with pytest.raises(ValueError):
            momentum_distribution(state, layout, 2)


class TestEnergy:
    def test_sq_split_matches_dense_partial_hamiltonians(self):
        rng = np.random.default_rng(8)
        layout = ModeLayout(3)
        state = random_sq_state(rng, 3, support=30)
        vec = state.to_vector()
        h_v = build_sq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0))
        h_t = build_sq_hamiltonian(layout, HubbardParams(0.0, PARAMS.t0))
        report = expected_energy(state, layout, PARAMS)
        assert report.potential == pytest.approx(np.real(vec.conj() @ h_v @ vec), abs=1e-12)
        assert report.kinetic == pytest.approx(np.real(vec.conj() @ h_t @ vec), abs=1e-12)
        assert report.total == pytest.approx(report.potential + report.kinetic, abs=1e-10)

    def test_fq_split_matches_dense_partial_hamiltonians(self):
        rng = np.random.default_rng(9)
        layout = FirstQuantizedLayout(n=2, m=4)
        reg = layout.register_layout()
        state = inject_state(reg, random_state_map(rng, reg.width, 40))
        vec = state.to_vector()
        h_v = build_fq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0))
        h_t = build_fq_hamiltonian(layout, HubbardParams(0.0, PARAMS.t0))
        report = expected_energy(state, layout, PARAMS)
        assert report.potential == pytest.approx(np.real(vec.conj() @ h_v @ vec), abs=1e-12)
        assert report.kinetic == pytest.approx(np.real(vec.conj() @ h_t @ vec), abs=1e-12)

    def test_single_particle_has_kinetic_energy_only(self):
        # The uniform state on a 4-site open chain: 3 bonds, each 2 * t0 / 4.
        layout = FirstQuantizedLayout(n=1, m=4)
        state = single_particle_plane_wave(layout, 0)
        vec = state.to_vector()
        h = build_fq_hamiltonian(layout, PARAMS)
        report = expected_energy(state, layout, PARAMS)
        assert report.potential == 0.0
        assert report.kinetic == pytest.approx(1.5 * PARAMS.t0, abs=1e-12)
        assert report.total == pytest.approx(np.real(vec.conj() @ h @ vec), abs=1e-12)

    def test_hopping_eigenstate_gives_plus_minus_t0(self):
        layout = ModeLayout(2)
        free = HubbardParams(0.0, PARAMS.t0)
        a = encode_occupation(layout, ((1, UP),))
        b = encode_occupation(layout, ((2, UP),))
        amp = 1 / np.sqrt(2)
        for sign in (1.0, -1.0):
            state = inject_state(layout.register_layout(), {a: amp, b: sign * amp})
            report = expected_energy(state, layout, free)
            assert report.total == pytest.approx(sign * PARAMS.t0, abs=1e-12)
            assert report.potential == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_limit_counts_double_occupancy(self):
        layout = ModeLayout(3)
        frozen = HubbardParams(PARAMS.v0, 0.0)
        bits = encode_occupation(layout, ((1, UP), (1, DOWN), (2, UP), (3, UP), (3, DOWN)))
        state = init_basis_state(layout.register_layout(), bits)
        report = expected_energy(state, layout, frozen)
        assert report.total == pytest.approx(2 * PARAMS.v0, abs=1e-12)
        assert report.kinetic == pytest.approx(0.0, abs=1e-12)

    def test_energy_conserved_under_exact_evolution(self):
        rng = np.random.default_rng(14)
        layout = ModeLayout(2)
        state = random_sq_state(rng, 2)
        h = build_sq_hamiltonian(layout, PARAMS)
        before = expected_energy(state, layout, PARAMS).total
        evolved = state_from_vector(
            layout.register_layout(), propagator(h, 1.7) @ state.to_vector()
        )
        after = expected_energy(evolved, layout, PARAMS).total
        assert abs(after - before) < 1e-10

    def test_ground_state_energy_recovered(self):
        layout = ModeLayout(2)
        h = build_sq_hamiltonian(layout, PARAMS)
        vals, vecs = np.linalg.eigh(h)
        ground = state_from_vector(layout.register_layout(), vecs[:, 0])
        report = expected_energy(ground, layout, PARAMS)
        assert report.total == pytest.approx(vals[0], abs=1e-10)

    def test_state_of_the_other_encoding_rejected(self):
        # Two particles on two sites fill 4 qubits, as ModeLayout(2) does, in other registers.
        fq_layout = FirstQuantizedLayout(n=2, m=2)
        state = prepare_antisymmetric(fq_layout, (1, 4))
        with pytest.raises(ValueError, match="does not match"):
            expected_energy(state, ModeLayout(2), PARAMS)
        with pytest.raises(ValueError, match="does not match"):
            expected_energy(init_basis_state(ModeLayout(2).register_layout(), 0b0101),
                            fq_layout, PARAMS)

    def test_report_is_a_plain_record(self):
        report = EnergyReport(potential=4.0, kinetic=-2.0, total=2.0)
        assert report.total == 2.0


def _evolved_sq(m=3, seed=21):
    rng = np.random.default_rng(seed)
    layout = ModeLayout(m)
    state = inject_state(layout.register_layout(), random_state_map(rng, 2 * m, 24))
    trotter_evolve(state, layout, PARAMS, TrotterPlan(0.7, 3))
    return state, layout


def _evolved_fq(n=2, m=4, seed=22):
    rng = np.random.default_rng(seed)
    layout = FirstQuantizedLayout(n=n, m=m)
    labels = sorted(int(v) for v in rng.choice(np.arange(1, 2 * m + 1), size=n, replace=False))
    state = prepare_antisymmetric(layout, labels)
    trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(0.7, 3))
    return state, layout


def _evolved_sq_wide(m=40):
    """Two particles on 40 sites: 80 modes, so the keys are Python-int objects."""
    layout = ModeLayout(m)
    bits = encode_occupation(layout, ((1, UP), (2, DOWN)))
    state = init_basis_state(layout.register_layout(), bits)
    trotter_evolve(state, layout, PARAMS, TrotterPlan(0.7, 2))
    return state, layout


class TestMatrixFreeEnergy:
    @BOTH_CHECKS
    @pytest.mark.parametrize("evolved", [_evolved_sq, _evolved_fq], ids=["sq", "fq"])
    def test_total_is_the_dense_rayleigh_quotient(self, checks, evolved):
        state, layout = evolved()
        if isinstance(layout, ModeLayout):
            h = build_sq_hamiltonian(layout, PARAMS)
        else:
            h = build_fq_hamiltonian(layout, PARAMS)
        vec = state.to_vector()
        report = expected_energy(state, layout, PARAMS)
        assert abs(report.total - np.real(vec.conj() @ h @ vec)) <= 1e-12

    @pytest.mark.parametrize(
        "evolved",
        [lambda: _evolved_sq(m=8), lambda: _evolved_fq(n=3, m=16),
         _evolved_sq_wide],
        ids=["sq-m8-dense", "fq-n3-m16-sparse", "sq-m40-sparse"],
    )
    def test_runs_past_the_dense_caps(self, evolved):
        state, layout = evolved()
        report = expected_energy(state, layout, PARAMS)
        assert abs(report.total - (report.potential + report.kinetic)) <= ENERGY_SPLIT_TOL

    def test_production_mode_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense oracle matrix built outside validation mode")

        monkeypatch.setattr(oracle, "build_sq_hamiltonian", refuse)
        monkeypatch.setattr(oracle, "build_fq_hamiltonian", refuse)
        monkeypatch.setattr(oracle, "fq_kinetic_matrix", refuse)
        for state, layout in (_evolved_sq(), _evolved_fq()):
            expected_energy(state, layout, PARAMS)

    @pytest.mark.parametrize("evolved", [_evolved_sq, _evolved_fq], ids=["sq", "fq"])
    def test_validation_mode_catches_a_corrupted_matrix_free_result(self, monkeypatch, evolved):
        state, layout = evolved()
        name = "apply_sq_hamiltonian" if isinstance(layout, ModeLayout) else "apply_fq_hamiltonian"
        exact = getattr(oracle, name)

        def corrupted(*args):
            keys, amps = exact(*args)
            return keys, amps * (1 + 1e-6)

        monkeypatch.setattr(oracle, name, corrupted)
        with validation_mode():
            with pytest.raises(InvariantViolation, match="dense oracle"):
                expected_energy(state, layout, PARAMS)


def _rayleigh(state, layout, params) -> float:
    """<psi|H psi> with H psi from the oracle's matrix-free Hamiltonian."""
    apply = oracle.apply_sq_hamiltonian if isinstance(layout, ModeLayout) else oracle.apply_fq_hamiltonian
    h_keys, h_amps = apply(layout, params, *state.gather())
    return float(np.vdot(state.gather(h_keys)[1], h_amps).real)


def _assert_split_is_the_oracle_energy(state, layout, params):
    """Each part of the split is the Rayleigh quotient of its own part of H."""
    potential, kinetic = _energy_split(state, layout.terms, params)
    for part, alone in ((potential, HubbardParams(params.v0, 0.0)), (kinetic, HubbardParams(0.0, params.t0))):
        want = _rayleigh(state, layout, alone)
        assert abs(part - want) <= ENERGY_SPLIT_TOL * max(1.0, abs(want))


@settings(max_examples=60)
@given(st.data())
def test_energy_split_is_the_oracle_energy_on_random_states(data):
    """Either encoding, any normalized state: the split of the step's terms matches the oracle."""
    if data.draw(st.booleans(), label="first-quantized"):
        layout = FirstQuantizedLayout(n=data.draw(st.integers(1, 3), label="n"),
                                      m=data.draw(st.sampled_from((2, 4)), label="m"))
    else:
        layout = ModeLayout(data.draw(st.integers(1, 4), label="m"))
    width = layout.register_layout().width
    support = data.draw(st.integers(1, min(1 << width, 64)), label="support")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    state = inject_state(layout.register_layout(), random_state_map(rng, width, support))
    coupling = st.floats(0.25, 8.0) | st.floats(-8.0, -0.25)
    params = HubbardParams(v0=data.draw(coupling, label="v0"), t0=data.draw(coupling, label="t0"))
    _assert_split_is_the_oracle_energy(state, layout, params)


@pytest.mark.parametrize("layout", [ModeLayout(32), FirstQuantizedLayout(n=7, m=512)],
                         ids=["sq-64-qubits", "fq-70-qubits"])
def test_energy_split_is_the_oracle_energy_on_object_keys(layout):
    """Past 62 qubits the keys are Python ints; a state on few sites keeps many couplings."""
    rng = np.random.default_rng(31)
    if isinstance(layout, ModeLayout):  # modes of sites 1-4 only
        keys = rng.choice(1 << 8, size=24, replace=False)
    else:  # every particle on sites 1-4, next to each string's T1 partner for every particle
        words = rng.integers(0, 8, size=(6, layout.n))
        base = {sum(int(w) << (k * layout.word_bits) for k, w in enumerate(row)) for row in words}
        keys = base | {b ^ (2 << (k * layout.word_bits)) for b in base for k in range(layout.n)}
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    state = inject_state(layout.register_layout(), {int(b): complex(a) for b, a in zip(keys, amps)})
    assert state.support_keys().dtype == object
    _assert_split_is_the_oracle_energy(state, layout, PARAMS)


class TestSampling:
    def test_deterministic_given_seed(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        state = prepare_antisymmetric(layout, (1, 4))
        plan = SamplingPlan(seed=99, n_trials=500)
        a = charge_density(state, layout, plan)
        b = charge_density(state, layout, plan)
        assert a == b

    def test_basis_state_has_zero_stderr(self):
        layout = ModeLayout(2)
        bits = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = init_basis_state(layout.register_layout(), bits)
        for est in charge_density(state, layout, SamplingPlan(seed=1, n_trials=50)):
            assert est.sampled == est.exact
            assert est.stderr == 0.0

    def test_ten_thousand_shots_land_within_two_percent(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}
        )
        plan = SamplingPlan(seed=12345, n_trials=10_000)
        for est in charge_density(state, layout, plan):
            assert abs(est.sampled - est.exact) < 0.02

    def test_correlation_estimate_lands_near_exact(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}
        )
        corr = k_point_correlation(state, layout, (1, 2), SamplingPlan(seed=12345, n_trials=4000))
        assert 0.0 <= corr.sampled <= 1.0
        assert abs(corr.sampled - corr.exact) < 5 * max(corr.stderr, 1e-3)

    def test_stderr_shrinks_with_shots(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}
        )
        small = k_point_correlation(state, layout, (1, 2), SamplingPlan(seed=4, n_trials=1000))
        large = k_point_correlation(state, layout, (1, 2), SamplingPlan(seed=4, n_trials=16000))
        assert large.stderr < small.stderr
        assert small.stderr / large.stderr == pytest.approx(4.0, rel=0.25)

    def test_rmse_follows_square_root_law(self):
        # Quadrupling the shot count should halve the RMSE over repeat batches.
        # Three sites with interior probabilities keep the ratio estimate
        # concentrated; disjoint seed ranges keep the two levels independent.
        layout = ModeLayout(3)
        a = encode_occupation(layout, ((1, UP), (1, DOWN)))
        b = encode_occupation(layout, ((1, UP), (2, DOWN)))
        c = encode_occupation(layout, ((2, UP), (3, DOWN)))
        state = inject_state(
            layout.register_layout(), {a: 0.5, b: 0.5, c: np.sqrt(0.5)}
        )

        def rmse(n_trials, seed_base):
            errors = []
            for batch in range(20):
                ests = charge_density(
                    state, layout, SamplingPlan(seed=seed_base + batch, n_trials=n_trials)
                )
                errors.extend((e.sampled - e.exact) ** 2 for e in ests)
            return np.sqrt(np.mean(errors))

        ratio = rmse(2500, 1000) / rmse(10000, 5000)
        assert 1.5 <= ratio <= 2.6

    def test_estimate_is_a_plain_record(self):
        est = Estimate(exact=0.5, sampled=0.48, stderr=0.01)
        assert est.exact == 0.5 and est.sampled == 0.48 and est.stderr == 0.01
