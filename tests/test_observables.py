"""Observable readouts checked against dense expectation values and hand cases."""

import numpy as np
import pytest

from conftest import random_state_map

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
    LatticeSpec,
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
    return inject_state(layout, random_state_map(rng, layout.width, support), "dense")


def state_from_vector(layout, vec, backend="dense"):
    amps = {b: complex(a) for b, a in enumerate(vec) if abs(a) > 0}
    return inject_state(layout, amps, backend)


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
        with pytest.raises(ValueError):
            SamplingPlan(seed=0, n_trials=10, epsilon=0.0)

    def test_defaults(self):
        plan = SamplingPlan(seed=3, n_trials=100)
        assert plan.epsilon == 0.1


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
        state = inject_state(layout.register_layout(), {a: amp, b: amp}, "dense")
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
        lattice = LatticeSpec.chain(2)
        vec = prepare_antisymmetric(layout, (1, 4), backend="dense").to_vector()
        evolved = propagator(build_fq_hamiltonian(layout, PARAMS, lattice), 0.7) @ vec
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
        state = inject_state(layout.register_layout(), {a: amp, b: amp}, "dense")
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert pair_correlation(state, layout, i, j) == pytest.approx(0.0)

    def test_half_filled_superposition_matches_amplitudes(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}, "dense"
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
        state = inject_state(layout.register_layout(), amps, "dense")
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

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_sampled_histogram_carries_the_exact_frequencies(self, backend):
        layout = FirstQuantizedLayout(n=2, m=4)
        state = prepare_antisymmetric(layout, (2, 7), backend=backend)
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
        lattice = LatticeSpec.chain(3)
        state = random_sq_state(rng, 3, support=30)
        vec = state.to_vector()
        h_v = build_sq_hamiltonian(lattice, HubbardParams(PARAMS.v0, 0.0))
        h_t = build_sq_hamiltonian(lattice, HubbardParams(0.0, PARAMS.t0))
        report = expected_energy(state, layout, PARAMS)
        assert report.potential == pytest.approx(np.real(vec.conj() @ h_v @ vec), abs=1e-12)
        assert report.kinetic == pytest.approx(np.real(vec.conj() @ h_t @ vec), abs=1e-12)
        assert report.total == pytest.approx(report.potential + report.kinetic, abs=1e-10)

    def test_fq_split_matches_dense_partial_hamiltonians(self):
        rng = np.random.default_rng(9)
        layout = FirstQuantizedLayout(n=2, m=4)
        lattice = LatticeSpec.chain(4)
        reg = layout.register_layout()
        state = inject_state(reg, random_state_map(rng, reg.width, 40), "dense")
        vec = state.to_vector()
        h_v = build_fq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0), lattice)
        h_t = build_fq_hamiltonian(layout, HubbardParams(0.0, PARAMS.t0), lattice)
        report = expected_energy(state, layout, PARAMS)
        assert report.potential == pytest.approx(np.real(vec.conj() @ h_v @ vec), abs=1e-12)
        assert report.kinetic == pytest.approx(np.real(vec.conj() @ h_t @ vec), abs=1e-12)

    def test_hopping_eigenstate_gives_plus_minus_t0(self):
        layout = ModeLayout(2)
        lattice = LatticeSpec.chain(2)
        free = HubbardParams(0.0, PARAMS.t0)
        a = encode_occupation(layout, ((1, UP),))
        b = encode_occupation(layout, ((2, UP),))
        amp = 1 / np.sqrt(2)
        for sign in (1.0, -1.0):
            state = inject_state(layout.register_layout(), {a: amp, b: sign * amp}, "dense")
            report = expected_energy(state, layout, free, lattice)
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
        h = build_sq_hamiltonian(LatticeSpec.chain(2), PARAMS)
        before = expected_energy(state, layout, PARAMS).total
        evolved = state_from_vector(
            layout.register_layout(), propagator(h, 1.7) @ state.to_vector()
        )
        after = expected_energy(evolved, layout, PARAMS).total
        assert abs(after - before) < 1e-10

    def test_ground_state_energy_recovered(self):
        lattice = LatticeSpec.chain(2)
        layout = ModeLayout(2)
        h = build_sq_hamiltonian(lattice, PARAMS)
        vals, vecs = np.linalg.eigh(h)
        ground = state_from_vector(layout.register_layout(), vecs[:, 0])
        report = expected_energy(ground, layout, PARAMS)
        assert report.total == pytest.approx(vals[0], abs=1e-10)

    def test_lattice_mismatch(self):
        layout = ModeLayout(2)
        state = init_basis_state(layout.register_layout(), 0)
        with pytest.raises(ValueError):
            expected_energy(state, layout, PARAMS, LatticeSpec.chain(3))

    def test_report_is_a_plain_record(self):
        report = EnergyReport(potential=4.0, kinetic=-2.0, total=2.0)
        assert report.total == 2.0


def _evolved_sq(backend, m=3, seed=21):
    rng = np.random.default_rng(seed)
    layout = ModeLayout(m)
    state = inject_state(layout.register_layout(), random_state_map(rng, 2 * m, 24), backend)
    trotter_evolve(state, LatticeSpec.chain(m), PARAMS, TrotterPlan(0.7, 3))
    return state, layout


def _evolved_fq(backend, n=2, m=4, seed=22):
    rng = np.random.default_rng(seed)
    layout = FirstQuantizedLayout(n=n, m=m)
    labels = sorted(int(v) for v in rng.choice(np.arange(1, 2 * m + 1), size=n, replace=False))
    state = prepare_antisymmetric(layout, labels, backend=backend)
    trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(0.7, 3))
    return state, layout


class TestMatrixFreeEnergy:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("evolved", [_evolved_sq, _evolved_fq], ids=["sq", "fq"])
    def test_total_is_the_dense_rayleigh_quotient(self, backend, evolved):
        state, layout = evolved(backend)
        if isinstance(layout, ModeLayout):
            h = build_sq_hamiltonian(LatticeSpec.chain(layout.m), PARAMS)
        else:
            h = build_fq_hamiltonian(layout, PARAMS, LatticeSpec.chain(layout.m))
        vec = state.to_vector()
        report = expected_energy(state, layout, PARAMS)
        assert abs(report.total - np.real(vec.conj() @ h @ vec)) <= 1e-12

    @pytest.mark.parametrize(
        "evolved",
        [lambda: _evolved_sq("dense", m=8), lambda: _evolved_fq("sparse", n=3, m=16)],
        ids=["sq-m8-dense", "fq-n3-m16-sparse"],
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
        for state, layout in (_evolved_sq("dense"), _evolved_fq("sparse")):
            expected_energy(state, layout, PARAMS)

    @pytest.mark.parametrize("evolved", [_evolved_sq, _evolved_fq], ids=["sq", "fq"])
    def test_validation_mode_catches_a_corrupted_matrix_free_result(self, monkeypatch, evolved):
        state, layout = evolved("dense")
        name = "apply_sq_hamiltonian" if isinstance(layout, ModeLayout) else "apply_fq_hamiltonian"
        exact = getattr(oracle, name)

        def corrupted(*args):
            keys, amps = exact(*args)
            return keys, amps * (1 + 1e-6)

        monkeypatch.setattr(oracle, name, corrupted)
        with validation_mode():
            with pytest.raises(InvariantViolation, match="dense oracle"):
                expected_energy(state, layout, PARAMS)


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
            layout.register_layout(), {both1: 0.6, split: 0.8}, "dense"
        )
        plan = SamplingPlan(seed=12345, n_trials=10_000, epsilon=0.02)
        for est in charge_density(state, layout, plan):
            assert abs(est.sampled - est.exact) < 0.02

    def test_correlation_estimate_lands_near_exact(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}, "dense"
        )
        corr = k_point_correlation(state, layout, (1, 2), SamplingPlan(seed=12345, n_trials=4000))
        assert 0.0 <= corr.sampled <= 1.0
        assert abs(corr.sampled - corr.exact) < 5 * max(corr.stderr, 1e-3)

    def test_stderr_shrinks_with_shots(self):
        layout = ModeLayout(2)
        both1 = encode_occupation(layout, ((1, UP), (1, DOWN)))
        split = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = inject_state(
            layout.register_layout(), {both1: 0.6, split: 0.8}, "dense"
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
            layout.register_layout(), {a: 0.5, b: 0.5, c: np.sqrt(0.5)}, "dense"
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
