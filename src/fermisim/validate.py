"""Named self-check suites: oracle equivalences runnable from the command line.

Each suite replays one family of correctness claims against the dense
reference layer and reports measured values next to their bounds, so a failing
build points at the violated quantity instead of a bare assert.  The suites
are deterministic: fixed instances, fixed seeds, no tolerance depends on
timing or platform.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from fermisim.antisym import (
    RegisterBank,
    antisymmetrize,
    exchange_violation,
    prepare_ordered_input,
)
from fermisim.fq import (
    FirstQuantizedLayout,
    op_count_fq,
    prepare_antisymmetric,
    trotter_evolve_fq,
)
from fermisim.oracle import (
    build_fq_hamiltonian,
    build_sq_hamiltonian,
    expm_propagate,
    fq_sector_spectrum,
    fq_to_sq,
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
    op_count,
    trotter_evolve,
)
from fermisim.state import init_basis_state, value_class

BENCH_PARAMS = HubbardParams(v0=4.0, t0=1.0)
ANTISYM_LABEL_RANGE = 8
FIDELITY_BOUND = 1e-10
SYMMETRY_BOUND = 1e-10
TROTTER_RATIO_WINDOW = (1.8, 2.2)
SQ_FINAL_ERROR_BOUND = 2e-3
FQ_FINAL_ERROR_BOUND = 2e-2
CROSSFORM_BOUND = 1e-10
SCALING_BOUND = 4.5


@value_class
class CheckResult:
    """One measured quantity with its bound and verdict."""

    suite: str
    name: str
    passed: bool
    measured: float
    bound: str
    detail: str = ""


def _check(suite, name, passed, measured, bound, detail="") -> CheckResult:
    return CheckResult(
        suite=suite, name=name, passed=bool(passed), measured=float(measured),
        bound=bound, detail=detail,
    )


# --------------------------------------------------------------- suite bodies


def slater_overlap(labels, mode, rows, amps) -> complex:
    """<Slater state of `labels`|psi>, psi given as label tuples and amplitudes, summed in order."""
    want = slater_antisymmetrize(labels, mode)
    overlap = 0j
    for row, amp in zip(rows, amps.tolist()):
        overlap += complex(want.get(row, 0.0)).conjugate() * amp
    return overlap


def _pipeline_case(labels, mode):
    """Run the full pipeline; return (fidelity, dirty branches, norm, violation)."""
    n = len(labels)
    bank = RegisterBank(n, 3)
    state = prepare_ordered_input(bank, labels)
    antisymmetrize(state, bank, mode)
    keys, amps = state.gather()
    norm_sq = sum(abs(amp) ** 2 for amp in amps.tolist())
    clear = bank.ancillas_clear(keys)
    rows = list(zip(*((w + 1).tolist() for w in bank.get_words(keys[clear], "A"))))
    overlap = slater_overlap(labels, mode, rows, amps[clear])
    violation = exchange_violation(state, bank.word_slices("A"), mode)
    return abs(overlap) ** 2, int((~clear).sum()), math.sqrt(norm_sq), violation


def validate_antisym() -> list[CheckResult]:
    """Exhaustive n <= 3 pipeline cases against the determinant oracle."""
    results = []
    for mode in ("fermi", "bose"):
        worst_fid = 1.0
        dirty_total = 0
        worst_norm = 0.0
        worst_violation = 0.0
        cases = 0
        for n in (1, 2, 3):
            for labels in combinations(range(1, ANTISYM_LABEL_RANGE + 1), n):
                fid, dirty, norm, violation = _pipeline_case(labels, mode)
                worst_fid = min(worst_fid, fid)
                dirty_total += dirty
                worst_norm = max(worst_norm, abs(norm - 1.0))
                worst_violation = max(worst_violation, violation)
                cases += 1
        results.extend(
            [
                _check(
                    "antisym", f"{mode}-fidelity", worst_fid >= 1.0 - FIDELITY_BOUND,
                    worst_fid, f">= {1.0 - FIDELITY_BOUND}", f"min over {cases} cases",
                ),
                _check(
                    "antisym", f"{mode}-ancillas", dirty_total == 0,
                    dirty_total, "== 0", "branches with nonzero scratch",
                ),
                _check(
                    "antisym", f"{mode}-norm-drift", worst_norm <= 1e-10,
                    worst_norm, "<= 1e-10",
                ),
                _check(
                    "antisym", f"{mode}-exchange-symmetry", worst_violation < SYMMETRY_BOUND,
                    worst_violation, f"< {SYMMETRY_BOUND}", "max transposition violation",
                ),
            ]
        )
    return results


def _trotter_suite(suite: str, layout, start, evolve, hamiltonian, final_bound: float) -> list[CheckResult]:
    """Halving ratios of e(r) for r = 32..256, and e(256): the L2 distance after r steps over
    t = 1 between `evolve` from `start` and the dense propagator of `hamiltonian`."""
    exact = expm_propagate(hamiltonian(layout, BENCH_PARAMS), 1.0, start.to_vector())

    def error(r):
        state = start.copy()
        evolve(state, layout, BENCH_PARAMS, TrotterPlan(1.0, r))
        return float(np.linalg.norm(state.to_vector() - exact))

    errors = {r: error(r) for r in (32, 64, 128, 256)}
    lo, hi = TROTTER_RATIO_WINDOW
    results = []
    for r in (32, 64, 128):
        ratio = errors[r] / errors[2 * r]
        results.append(
            _check(
                suite, f"halving-ratio-r{r}", lo <= ratio <= hi,
                ratio, f"in [{lo}, {hi}]", f"e({r})/e({2 * r})",
            )
        )
    results.append(
        _check(
            suite, "final-error-r256", errors[256] < final_bound,
            errors[256], f"< {final_bound}", "L2 error vs dense propagator",
        )
    )
    return results


def validate_trotter_sq() -> list[CheckResult]:
    """First-order convergence of the mode-register evolution on two sites."""
    layout = ModeLayout(2)
    start = init_basis_state(layout.register_layout(), encode_occupation(layout, ((1, UP), (1, DOWN))))
    return _trotter_suite("trotter-sq", layout, start, trotter_evolve, build_sq_hamiltonian,
                          SQ_FINAL_ERROR_BOUND)


def validate_trotter_fq() -> list[CheckResult]:
    """First-order convergence of the per-particle evolution on four sites."""
    layout = FirstQuantizedLayout(n=2, m=4)
    start = prepare_antisymmetric(layout, (1, 4))
    return _trotter_suite("trotter-fq", layout, start, trotter_evolve_fq, build_fq_hamiltonian,
                          FQ_FINAL_ERROR_BOUND)


def validate_crossform() -> list[CheckResult]:
    """Intertwining and spectra agreement between the two encodings."""
    results = []
    t = 0.9
    for n in (1, 2, 3):
        for m in (2, 4):
            layout = FirstQuantizedLayout(n=n, m=m)
            modes = ModeLayout(m)
            psi0 = prepare_antisymmetric(layout, tuple(range(1, n + 1))).to_vector()
            h_fq = build_fq_hamiltonian(layout, BENCH_PARAMS)
            h_sq = build_sq_hamiltonian(modes, BENCH_PARAMS)
            via_fq = fq_to_sq(expm_propagate(h_fq, t, psi0), layout)
            via_sq = expm_propagate(h_sq, t, fq_to_sq(psi0, layout))
            drift = float(np.linalg.norm(via_fq - via_sq))
            results.append(
                _check(
                    "crossform", f"intertwine-n{n}-m{m}", drift <= CROSSFORM_BOUND,
                    drift, f"<= {CROSSFORM_BOUND}", "map-then-evolve vs evolve-then-map",
                )
            )
            gap = float(
                np.abs(
                    fq_sector_spectrum(layout, BENCH_PARAMS)
                    - sq_sector_spectrum(modes, BENCH_PARAMS, n)
                ).max()
            )
            results.append(
                _check(
                    "crossform", f"spectra-n{n}-m{m}", gap <= CROSSFORM_BOUND,
                    gap, f"<= {CROSSFORM_BOUND}", "sector eigenvalue gap",
                )
            )
    return results


def validate_scaling() -> list[CheckResult]:
    """Operation tallies grow no faster than the documented quadratic rates."""
    plan = TrotterPlan(1.0, 4)
    results = []
    for m in (4, 8, 16):
        ratio = (
            op_count(ModeLayout(2 * m), plan)["total"]
            / op_count(ModeLayout(m), plan)["total"]
        )
        results.append(
            _check(
                "scaling", f"site-doubling-m{m}", ratio <= SCALING_BOUND,
                ratio, f"<= {SCALING_BOUND}", f"count({2 * m})/count({m})",
            )
        )
    for b in (1, 2, 3):
        small = op_count_fq(FirstQuantizedLayout(n=2, m=1 << b), plan)["kinetic"]
        big = op_count_fq(FirstQuantizedLayout(n=2, m=1 << (2 * b)), plan)["kinetic"]
        ratio = big / small
        results.append(
            _check(
                "scaling", f"posbit-doubling-b{b}", ratio <= SCALING_BOUND,
                ratio, f"<= {SCALING_BOUND}", f"kinetic tally, {b} -> {2 * b} position bits",
            )
        )
    return results


SUITES = {
    "antisym": validate_antisym,
    "trotter-sq": validate_trotter_sq,
    "trotter-fq": validate_trotter_fq,
    "crossform": validate_crossform,
    "scaling": validate_scaling,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; expected one of {known}")
    return SUITES[name]()
