"""Self-checks of the dense reference layer and the cross-encoding equivalences."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fermisim.fq import FirstQuantizedLayout, prepare_antisymmetric
from fermisim.oracle import (
    antisymmetric_basis,
    apply_fq_hamiltonian,
    apply_sq_hamiltonian,
    build_fq_hamiltonian,
    build_sq_hamiltonian,
    expm_propagate,
    fq_kinetic_matrix,
    fq_sector_spectrum,
    fq_to_sq,
    hopping_term,
    lowering_operator,
    number_operator,
    pack_words,
    propagator,
    slater_antisymmetrize,
    sq_sector_spectrum,
)
from fermisim.sq import HubbardParams, ModeLayout, chain_bonds

PARAMS = HubbardParams(v0=4.0, t0=1.0)


def anticommutator(a, b):
    return a @ b + b @ a


class TestJwOperators:
    def test_canonical_anticommutation(self):
        n = 4
        eye = np.eye(1 << n)
        ops = [lowering_operator(n, j) for j in range(n)]
        for i in range(n):
            for j in range(n):
                np.testing.assert_allclose(
                    anticommutator(ops[i], ops[j]), np.zeros_like(eye), atol=1e-14
                )
                want = eye if i == j else np.zeros_like(eye)
                np.testing.assert_allclose(
                    anticommutator(ops[i], ops[j].conj().T), want, atol=1e-14
                )

    def test_number_operator_is_c_dagger_c(self):
        for j in range(3):
            c = lowering_operator(3, j)
            np.testing.assert_allclose(number_operator(3, j), c.conj().T @ c, atol=1e-14)

    def test_hopping_matrix_elements_by_hand(self):
        # Two modes: the hop connects |01> (basis 1) and |10> (basis 2).
        h = hopping_term(2, 0, 1)
        assert h[2, 1] == pytest.approx(1.0)
        assert h[1, 2] == pytest.approx(1.0)
        assert np.count_nonzero(h) == 2

    def test_hopping_sign_string(self):
        # Hop (0, 2) with mode 1 occupied picks up the string sign.
        h = hopping_term(3, 0, 2)
        assert h[0b110, 0b011] == pytest.approx(-1.0)
        assert h[0b100, 0b001] == pytest.approx(1.0)

    def test_mode_range_checked(self):
        with pytest.raises(ValueError):
            lowering_operator(3, 3)


class TestSqHamiltonian:
    def test_single_site_diagonal(self):
        h = build_sq_hamiltonian(ModeLayout(1), PARAMS)
        np.testing.assert_allclose(h, np.diag([0, 0, 0, PARAMS.v0]), atol=1e-14)

    def test_hermitian_and_number_conserving(self):
        h = build_sq_hamiltonian(ModeLayout(3), PARAMS)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
        total_n = sum(number_operator(6, j) for j in range(6))
        assert np.abs(h @ total_n - total_n @ h).max() < 1e-13

    def test_spin_flip_symmetry(self):
        # Relabeling up<->down is a physical symmetry, so the spectrum of the
        # (a up, b down) sector matches the (b up, a down) sector.  A bare
        # qubit-swap permutation is not a matrix identity here because the
        # sign strings cross different intervening modes after the swap.
        h = build_sq_hamiltonian(ModeLayout(2), PARAMS)

        def sector(n_up, n_dn):
            rows = [
                b
                for b in range(16)
                if sum((b >> (2 * s)) & 1 for s in range(2)) == n_up
                and sum((b >> (2 * s + 1)) & 1 for s in range(2)) == n_dn
            ]
            return np.sort(np.linalg.eigvalsh(h[np.ix_(rows, rows)]))

        for n_up in range(3):
            for n_dn in range(3):
                np.testing.assert_allclose(
                    sector(n_up, n_dn), sector(n_dn, n_up), atol=1e-12
                )

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            build_sq_hamiltonian(ModeLayout(7), PARAMS)


class TestPropagator:
    def test_zero_time_is_identity(self):
        h = build_sq_hamiltonian(ModeLayout(2), PARAMS)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(16), atol=1e-14)

    def test_unitary(self):
        h = build_sq_hamiltonian(ModeLayout(2), PARAMS)
        u = propagator(h, 0.83)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)

    def test_matches_power_series(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        t = 0.05
        series = np.zeros_like(h)
        term = np.eye(6, dtype=complex)
        for k in range(1, 25):
            series = series + term
            term = term @ (-1j * h * t) / k
        np.testing.assert_allclose(propagator(h, t), series, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            propagator(np.zeros((2, 3)), 1.0)


class TestExpmPropagate:
    def test_zero_time_leaves_vector(self):
        h = build_sq_hamiltonian(ModeLayout(2), PARAMS)
        rng = np.random.default_rng(11)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(expm_propagate(h, 0.0, v), v, atol=1e-14)

    def test_two_level_closed_form(self):
        t0, t = 1.0, 0.7
        h = t0 * np.array([[0.0, 1.0], [1.0, 0.0]])
        got = expm_propagate(h, t, np.array([1.0, 0.0]))
        want = np.array([math.cos(t0 * t), -1j * math.sin(t0 * t)])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_norm_preserved_on_random_draws(self):
        rng = np.random.default_rng(12)
        for dim in (3, 17, 64):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            out = expm_propagate(h, 1.3, v)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_matches_propagator_matrix(self):
        h = build_sq_hamiltonian(ModeLayout(2), PARAMS)
        rng = np.random.default_rng(13)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            expm_propagate(h, 0.4, v), propagator(h, 0.4) @ v, atol=1e-12
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_propagate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            expm_propagate(np.eye(2), 1.0, np.zeros(3))


class TestSlaterAmplitudes:
    def test_normalized(self):
        amps = slater_antisymmetrize((1, 3, 6), "fermi")
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0)

    def test_antisymmetric_under_swap(self):
        amps = slater_antisymmetrize((2, 5, 7), "fermi")
        for perm, a in amps.items():
            swapped = (perm[1], perm[0], perm[2])
            assert amps[swapped] == pytest.approx(-a)


class TestFqHamiltonian:
    def test_single_particle_is_the_word_matrix(self):
        layout = FirstQuantizedLayout(n=1, m=2)
        h = build_fq_hamiltonian(layout, PARAMS)
        want = fq_kinetic_matrix(2, PARAMS.t0, ((1, 2),))
        np.testing.assert_allclose(h, want, atol=1e-14)

    def test_hermitian(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        h = build_fq_hamiltonian(layout, PARAMS)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_potential_diagonal_by_hand(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        h = build_fq_hamiltonian(layout, HubbardParams(PARAMS.v0, 0.0))
        coincide = pack_words((0, 1), 2)  # same site, opposite spins
        same_spin = pack_words((0, 0), 2)
        apart = pack_words((0, 3), 2)
        assert h[coincide, coincide] == pytest.approx(PARAMS.v0)
        assert h[same_spin, same_spin] == pytest.approx(0.0)
        assert h[apart, apart] == pytest.approx(0.0)

    def test_non_interacting_is_a_kron_sum(self):
        layout = FirstQuantizedLayout(n=2, m=4)
        h = build_fq_hamiltonian(layout, HubbardParams(0.0, PARAMS.t0))
        t = fq_kinetic_matrix(4, PARAMS.t0, chain_bonds(4))
        eye = np.eye(8)
        np.testing.assert_allclose(h, np.kron(t, eye) + np.kron(eye, t), atol=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 4)])
    def test_commutes_with_particle_transpositions(self, n, m):
        layout = FirstQuantizedLayout(n=n, m=m)
        h = build_fq_hamiltonian(layout, PARAMS)
        w = layout.word_bits
        mask = (1 << w) - 1
        dim = h.shape[0]
        for k, l in combinations(range(n), 2):
            perm = np.zeros((dim, dim))
            for b in range(dim):
                wk = (b >> (k * w)) & mask
                wl = (b >> (l * w)) & mask
                swapped = b ^ ((wk ^ wl) << (k * w)) ^ ((wk ^ wl) << (l * w))
                perm[swapped, b] = 1.0
            assert np.abs(h @ perm - perm @ h).max() < 1e-13

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            build_fq_hamiltonian(FirstQuantizedLayout(n=5, m=4), PARAMS)


class TestAntisymmetricBasis:
    def test_orthonormal_and_complete(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        configs, basis = antisymmetric_basis(layout)
        assert len(configs) == math.comb(4, 2)
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(len(configs)), atol=1e-12
        )


class TestFqToSq:
    def test_basis_determinant_maps_to_occupation_string(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        vec = np.zeros(16, dtype=complex)
        for perm, amp in slater_antisymmetrize((1, 4), "fermi").items():
            vec[pack_words([v - 1 for v in perm], 2)] = amp
        out = fq_to_sq(vec, layout)
        mask = (1 << 0) | (1 << 3)
        assert out[mask] == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(out) > 1e-12) == 1

    def test_three_particle_sign_consistency(self):
        layout = FirstQuantizedLayout(n=3, m=2)
        vec = np.zeros(1 << 6, dtype=complex)
        for perm, amp in slater_antisymmetrize((1, 2, 4), "fermi").items():
            vec[pack_words([v - 1 for v in perm], 2)] = amp
        out = fq_to_sq(vec, layout)
        mask = 0b1011
        assert out[mask] == pytest.approx(1.0)

    def test_rejects_symmetric_input(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        vec = np.zeros(16, dtype=complex)
        for perm, amp in slater_antisymmetrize((1, 4), "bose").items():
            vec[pack_words([v - 1 for v in perm], 2)] = amp
        with pytest.raises(ValueError):
            fq_to_sq(vec, layout)

    def test_rejects_repeated_label_weight(self):
        layout = FirstQuantizedLayout(n=2, m=2)
        vec = np.zeros(16, dtype=complex)
        vec[pack_words((1, 1), 2)] = 1.0
        with pytest.raises(ValueError):
            fq_to_sq(vec, layout)

    def test_pack_words_range(self):
        with pytest.raises(ValueError):
            pack_words((4,), 2)


class TestCrossEncoding:
    """The two encodings describe the same physics on the fermionic sector."""

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (2, 4)])
    def test_sector_spectra_match(self, n, m):
        layout = FirstQuantizedLayout(n=n, m=m)
        fq_vals = fq_sector_spectrum(layout, PARAMS)
        sq_vals = sq_sector_spectrum(ModeLayout(m), PARAMS, n)
        np.testing.assert_allclose(fq_vals, sq_vals, atol=1e-10)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (2, 4)])
    def test_exact_evolutions_intertwine(self, n, m):
        layout = FirstQuantizedLayout(n=n, m=m)
        labels = tuple(range(1, n + 1))
        psi0 = prepare_antisymmetric(layout, labels).to_vector()
        t = 0.9
        u_fq = propagator(build_fq_hamiltonian(layout, PARAMS), t)
        u_sq = propagator(build_sq_hamiltonian(ModeLayout(m), PARAMS), t)
        via_fq = fq_to_sq(u_fq @ psi0, layout)
        via_sq = u_sq @ fq_to_sq(psi0, layout)
        assert np.linalg.norm(via_fq - via_sq) < 1e-10

    def test_ground_energy_agrees_with_both_encodings(self):
        # Two opposite-spin fermions on two sites: the textbook two-site case
        # with E0 = (V0 - sqrt(V0**2 + 16 t0**2)) / 2.
        layout = FirstQuantizedLayout(n=2, m=2)
        e0 = (PARAMS.v0 - math.sqrt(PARAMS.v0**2 + 16 * PARAMS.t0**2)) / 2
        assert sq_sector_spectrum(ModeLayout(2), PARAMS, 2)[0] == pytest.approx(e0, abs=1e-10)
        assert fq_sector_spectrum(layout, PARAMS)[0] == pytest.approx(e0, abs=1e-10)


# ------------------------------------------------------- matrix-free Hamiltonian
# t0 != 1 so a dropped or wrapped hop sign cannot hide behind a unit coefficient.
SKEW = HubbardParams(v0=4.0, t0=-1.3)
SQ_SIZES = [1, 2, 3, 4, 5]
FQ_SIZES = [(1, 4), (2, 4), (2, 8), (2, 16), (3, 8)]


def _sq_case(m):
    modes = ModeLayout(m)
    return lambda keys, amps: apply_sq_hamiltonian(modes, SKEW, keys, amps)


def _fq_case(n, m):
    layout = FirstQuantizedLayout(n=n, m=m)
    return lambda keys, amps: apply_fq_hamiltonian(layout, SKEW, keys, amps)


@pytest.fixture(
    scope="module",
    params=[("sq", m) for m in SQ_SIZES] + [("fq", n, m) for n, m in FQ_SIZES],
    ids=lambda case: "-".join(str(v) for v in case),
)
def dense_case(request):
    """(matrix-free H, dense H) for one size, the dense matrix built once per module."""
    if request.param[0] == "sq":
        m = request.param[1]
        return _sq_case(m), build_sq_hamiltonian(ModeLayout(m), SKEW)
    _, n, m = request.param
    layout = FirstQuantizedLayout(n=n, m=m)
    return _fq_case(n, m), build_fq_hamiltonian(layout, SKEW)


def _densify(keys, amps, dim):
    assert np.all(keys[1:] > keys[:-1]), "output keys must be distinct and sorted"
    vec = np.zeros(dim, dtype=complex)
    vec[keys] = amps
    return vec


class TestMatrixFreeHamiltonian:
    def _check(self, dense_case, keys, amps):
        apply_h, h = dense_case
        dim = h.shape[0]
        v = np.zeros(dim, dtype=complex)
        v[keys] = amps
        np.testing.assert_allclose(_densify(*apply_h(keys, amps), dim), h @ v, atol=1e-12)

    def test_matches_dense_on_a_full_random_vector(self, dense_case):
        dim = dense_case[1].shape[0]
        rng = np.random.default_rng(dim)
        self._check(dense_case, np.arange(dim), rng.normal(size=dim) + 1j * rng.normal(size=dim))

    def test_matches_dense_on_a_partial_support(self, dense_case):
        dim = dense_case[1].shape[0]
        rng = np.random.default_rng(dim + 1)
        keys = rng.choice(dim, size=max(1, dim // 5), replace=False)  # unsorted on purpose
        self._check(dense_case, keys, rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys)))

    def test_matches_dense_with_repeated_zero_amplitudes(self, dense_case):
        dim = dense_case[1].shape[0]
        rng = np.random.default_rng(dim + 2)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps[rng.random(dim) < 0.6] = 0
        self._check(dense_case, np.arange(dim), amps)

    def test_empty_input_gives_empty_output(self):
        keys, amps = _sq_case(2)(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
        assert keys.size == 0 and amps.size == 0


# Sizes well past the dense caps, including layouts wider than 62 qubits
# whose keys are Python-int object arrays.
HERMITIAN_CASES = [
    (ModeLayout(m).register_layout(), _sq_case(m)) for m in (2, 5, 8, 32)
] + [
    (FirstQuantizedLayout(n=n, m=m).register_layout(), _fq_case(n, m))
    for n, m in ((2, 4), (3, 16), (8, 128))
]


@given(st.data())
def test_matrix_free_hamiltonian_is_hermitian(data):
    """<u|H v> = conj(<v|H u>) on random sparse vectors u, v."""
    layout, apply_h = data.draw(st.sampled_from(HERMITIAN_CASES))
    amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)

    def draw_vector():
        entries = data.draw(st.dictionaries(
            st.integers(0, (1 << layout.width) - 1), amplitude, min_size=1, max_size=12
        ))
        return entries, layout.keys(list(entries)), np.array(list(entries.values()), dtype=complex)

    def bracket(bra, ket):
        h_keys, h_amps = apply_h(ket[1], ket[2])
        return np.vdot([bra[0].get(k, 0) for k in h_keys.tolist()], h_amps)

    u, v = draw_vector(), draw_vector()
    lhs, rhs = bracket(u, v), bracket(v, u)
    assert abs(lhs - np.conj(rhs)) <= 1e-12 * max(1.0, abs(lhs))
