"""The ten release gates, one test per criterion with pinned tolerances.

Each test prints one `criterion N: PASS/FAIL (measured values)` line and then
asserts on exactly the numbers in that line, so `pytest -v` shows one verdict
row per criterion and a failure reproduces its evidence.  Every reference
value here comes from an independent dense construction (the oracle module or
conftest embeddings), never from the code under test.
"""

import itertools
import math
import time

import numpy as np
from conftest import random_program, random_state_map, run_dense_program, run_program

from fermisim.antisym import (
    RegisterBank,
    antisymmetrize,
    prepare_ordered_input,
    transposition_test,
)
from fermisim.fq import FirstQuantizedLayout, op_count_fq, prepare_antisymmetric, trotter_evolve_fq
from fermisim.observables import SamplingPlan, charge_density, momentum_distribution, required_trials
from fermisim.oracle import (
    antisymmetric_basis,
    build_fq_hamiltonian,
    build_sq_hamiltonian,
    expm_propagate,
    fq_to_sq,
    fq_sector_spectrum,
    hopping_term,
    propagator,
    slater_antisymmetrize,
    sq_sector_spectrum,
)
from fermisim.sq import (
    DOWN,
    UP,
    HubbardParams,
    ModeLayout,
    TrotterPlan,
    encode_occupation,
    evolve_hopping_pair,
    op_count,
    trotter_evolve,
)
from fermisim.state import RegisterLayout, init_basis_state, inject_state

PARAMS = HubbardParams(4.0, 1.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _all_label_tuples():
    """Every strictly increasing tuple, n in 1..3, labels in 1..8: 92 cases."""
    for n in (1, 2, 3):
        yield from itertools.combinations(range(1, 9), n)


def _pipeline(labels, mode):
    """Run the antisymmetrization pipeline on one ordered input."""
    bank = RegisterBank(len(labels), 3)
    state = prepare_ordered_input(bank, labels)
    antisymmetrize(state, bank, mode)
    return bank, state


def test_criterion_01_antisymmetrizer_fidelity_ancillas_norm():
    started = time.perf_counter()
    worst_deficit = 0.0
    worst_norm = 0.0
    dirty_branches = 0
    cases = 0
    for labels in _all_label_tuples():
        cases += 1
        bank, state = _pipeline(labels, "fermi")
        _, a_mask = bank.block("A")
        want = slater_antisymmetrize(labels, "fermi")
        overlap = 0j
        norm_sq = 0.0
        for b in state.support():
            amp = complex(state.amplitude(b))
            norm_sq += abs(amp) ** 2
            if b & ~a_mask:
                dirty_branches += 1
                continue
            perm = tuple(v + 1 for v in bank.get_words(b, "A"))
            overlap += complex(want.get(perm, 0.0)).conjugate() * amp
        worst_deficit = max(worst_deficit, 1.0 - abs(overlap) ** 2)
        worst_norm = max(worst_norm, abs(norm_sq - 1.0))
    elapsed = time.perf_counter() - started
    ok = (
        cases == 92
        and worst_deficit <= 1e-10
        and dirty_branches == 0
        and worst_norm <= 1e-10
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"92 cases, fidelity deficit {worst_deficit:.2e} <= 1e-10, "
        f"{dirty_branches} nonzero-ancilla branches, norm drift {worst_norm:.2e} "
        f"<= 1e-10, {elapsed:.2f} s < 10 s",
    )


def test_criterion_02_exchange_sign_law():
    worst = {"fermi": 0.0, "bose": 0.0}
    for mode in ("fermi", "bose"):
        for labels in _all_label_tuples():
            bank, state = _pipeline(labels, mode)
            words = bank.word_slices("A")
            n = len(labels)
            for i in range(n):
                for j in range(i + 1, n):
                    worst[mode] = max(worst[mode], transposition_test(state, words, i, j, mode))
    ok = worst["fermi"] < 1e-10 and worst["bose"] < 1e-10
    _verdict(
        2,
        ok,
        f"transposition violation fermi {worst['fermi']:.2e}, "
        f"bose {worst['bose']:.2e}, both < 1e-10",
    )


def _sq_trotter_error(layout, bits, r):
    state = init_basis_state(layout.register_layout(), bits)
    trotter_evolve(state, layout, PARAMS, TrotterPlan(1.0, r))
    return state.to_vector()


def test_criterion_03_trotter_convergence_second_quantized():
    started = time.perf_counter()
    layout = ModeLayout(2)
    bits = encode_occupation(layout, ((1, UP), (1, DOWN)))
    v0 = init_basis_state(layout.register_layout(), bits).to_vector()
    exact = expm_propagate(build_sq_hamiltonian(layout, PARAMS), 1.0, v0)
    errors = {
        r: np.linalg.norm(_sq_trotter_error(layout, bits, r) - exact)
        for r in (32, 64, 128, 256)
    }
    ratios = {r: errors[r] / errors[2 * r] for r in (32, 64, 128)}
    elapsed = time.perf_counter() - started
    ok = (
        all(1.8 <= ratios[r] <= 2.2 for r in (32, 64, 128))
        and errors[256] < 2e-3
        and elapsed < 5.0
    )
    _verdict(
        3,
        ok,
        f"e(r)/e(2r) = {ratios[32]:.3f}/{ratios[64]:.3f}/{ratios[128]:.3f} "
        f"in [1.8, 2.2], e(256) = {errors[256]:.2e} < 2e-3, {elapsed:.2f} s < 5 s",
    )


def test_criterion_04_trotter_convergence_first_quantized():
    started = time.perf_counter()
    layout = FirstQuantizedLayout(n=2, m=4)
    labels = (1, 4)
    v0 = prepare_antisymmetric(layout, labels).to_vector()
    exact = expm_propagate(build_fq_hamiltonian(layout, PARAMS), 1.0, v0)
    errors = {}
    for r in (32, 64, 128, 256):
        state = prepare_antisymmetric(layout, labels)
        trotter_evolve_fq(state, layout, PARAMS, TrotterPlan(1.0, r))
        errors[r] = np.linalg.norm(state.to_vector() - exact)
    ratios = {r: errors[r] / errors[2 * r] for r in (32, 64, 128)}
    elapsed = time.perf_counter() - started
    ok = (
        all(1.8 <= ratios[r] <= 2.2 for r in (32, 64, 128))
        and errors[256] < 2e-2
        and elapsed < 30.0
    )
    _verdict(
        4,
        ok,
        f"e(r)/e(2r) = {ratios[32]:.3f}/{ratios[64]:.3f}/{ratios[128]:.3f} "
        f"in [1.8, 2.2], e(256) = {errors[256]:.2e} < 2e-2, {elapsed:.2f} s < 30 s",
    )


def test_criterion_05_cross_formalism_intertwining():
    t = 0.9
    worst_state = 0.0
    worst_spectrum = 0.0
    for m in (2, 4):
        modes = ModeLayout(m)
        u_sq = propagator(build_sq_hamiltonian(modes, PARAMS), t)
        for n in (1, 2, 3):
            layout = FirstQuantizedLayout(n=n, m=m)
            h_fq = build_fq_hamiltonian(layout, PARAMS)
            u_fq = propagator(h_fq, t)
            _, basis = antisymmetric_basis(layout)
            for col in range(basis.shape[1]):
                evolved_then_mapped = fq_to_sq(u_fq @ basis[:, col], layout)
                mapped_then_evolved = u_sq @ fq_to_sq(basis[:, col], layout)
                worst_state = max(
                    worst_state, np.linalg.norm(evolved_then_mapped - mapped_then_evolved)
                )
            gap = np.abs(
                fq_sector_spectrum(layout, PARAMS)
                - sq_sector_spectrum(modes, PARAMS, n)
            ).max()
            worst_spectrum = max(worst_spectrum, gap)
    ok = worst_state <= 1e-10 and worst_spectrum <= 1e-10
    _verdict(
        5,
        ok,
        f"all n <= 3, m <= 4: state mismatch {worst_state:.2e} <= 1e-10, "
        f"spectrum gap {worst_spectrum:.2e} <= 1e-10",
    )


def test_criterion_06_hopping_parity_against_dense_propagators():
    layout = ModeLayout(3)
    reg = layout.register_layout()
    dt = 0.37
    worst = 0.0
    for site_a, site_b in ((1, 2), (2, 3)):
        for spin in (UP, DOWN):
            term = PARAMS.t0 * hopping_term(
                layout.n_modes, layout.mode(site_a, spin), layout.mode(site_b, spin)
            )
            u = propagator(term, dt)
            for bits in range(1 << layout.n_modes):
                state = init_basis_state(reg, bits)
                evolve_hopping_pair(state, layout, site_a, site_b, spin, PARAMS, dt)
                worst = max(worst, np.abs(state.to_vector() - u[:, bits]).max())
    ok = worst <= 1e-12
    _verdict(
        6,
        ok,
        f"64 basis states x 2 pairs x 2 spins, worst amplitude gap {worst:.2e} <= 1e-12",
    )


def test_criterion_07_operation_count_scalings():
    plan = TrotterPlan(1.0, 4)
    sq_ratios = {}
    for m in (4, 8, 16):
        small = op_count(ModeLayout(m), plan)["total"]
        large = op_count(ModeLayout(2 * m), plan)["total"]
        sq_ratios[m] = large / small
    fq_ratios = {}
    for b in (1, 2, 3):
        small = op_count_fq(FirstQuantizedLayout(n=2, m=1 << b), plan)["kinetic"]
        large = op_count_fq(FirstQuantizedLayout(n=2, m=1 << (2 * b)), plan)["kinetic"]
        fq_ratios[b] = large / small
    ok = all(v <= 4.5 for v in sq_ratios.values()) and all(
        v <= 4.5 for v in fq_ratios.values()
    )
    _verdict(
        7,
        ok,
        "site doubling "
        + "/".join(f"{sq_ratios[m]:.3f}" for m in (4, 8, 16))
        + ", position-bit doubling "
        + "/".join(f"{fq_ratios[b]:.3f}" for b in (1, 2, 3))
        + ", all <= 4.5",
    )


def test_criterion_08_sampling_error_law():
    layout = ModeLayout(3)
    occupations = (
        (((1, UP), (1, DOWN)), 0.5),
        (((1, UP), (2, DOWN)), 0.5),
        (((2, UP), (3, DOWN)), math.sqrt(0.5)),
    )
    amplitudes = {
        encode_occupation(layout, modes): amp for modes, amp in occupations
    }
    state = inject_state(layout.register_layout(), amplitudes)
    exact = charge_density(state, layout)

    def rmse(n_trials, seed_base):
        squares = []
        for batch in range(20):
            plan = SamplingPlan(seed=seed_base + batch, n_trials=n_trials)
            estimates = charge_density(state, layout, plan)
            squares.extend(
                (est.sampled - x) ** 2 for est, x in zip(estimates, exact)
            )
        return math.sqrt(sum(squares) / len(squares))

    ratio = rmse(2500, 1000) / rmse(10000, 5000)
    trials = required_trials(0.1)
    ok = 1.5 <= ratio <= 2.6 and trials == 100
    _verdict(
        8,
        ok,
        f"RMSE(2500)/RMSE(10000) = {ratio:.3f} in [1.5, 2.6] over 20 batches, "
        f"required_trials(0.1) = {trials} == 100",
    )


def test_criterion_09_momentum_readout_of_a_plane_wave():
    layout = FirstQuantizedLayout(n=1, m=8)
    k = 3
    # Under the transform convention amplitude'(k) = sum_x e^{+2 pi i k x / m}
    # amplitude(x) / sqrt(m), the bin-k plane wave carries phase -2 pi k x / m.
    amplitudes = {
        x << 1: np.exp(-2j * np.pi * k * x / 8) / np.sqrt(8.0) for x in range(8)
    }
    state = inject_state(layout.register_layout(), amplitudes)
    histogram = momentum_distribution(state, layout, 0)
    weight = histogram.frequencies[k]
    ok = weight >= 0.999
    _verdict(9, ok, f"plane wave m=8 k=3: bin-3 weight {weight:.6f} >= 0.999")


def test_criterion_10_backend_equivalence_on_random_programs():
    """The support store and a dense statevector, one full matrix per op, agree on random programs."""
    rng = np.random.default_rng(20260814)
    layout = RegisterLayout.of(("a", 3), ("b", 3))
    mismatches = 0
    for _ in range(100):
        amplitudes = random_state_map(rng, 6, 12)
        state = inject_state(layout, amplitudes)
        vec = np.zeros(64, dtype=complex)
        vec[list(amplitudes)] = list(amplitudes.values())
        program = random_program(rng, layout, 10)
        run_program(state, program)
        if not np.abs(state.to_vector() - run_dense_program(vec, layout, program)).max() <= 1e-12:
            mismatches += 1
    ok = mismatches == 0
    _verdict(
        10,
        ok,
        f"100 random 10-op programs on 6 qubits, {mismatches} store/dense "
        f"mismatches at 1e-12",
    )
