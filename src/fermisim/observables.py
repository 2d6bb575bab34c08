"""Site-resolved observables and seeded sampling estimates.

Every readout accepts either encoding and dispatches on the layout object: a
ModeLayout means one qubit per (site, spin) mode, a FirstQuantizedLayout means
one word per particle.  Exact values are Born-rule expectations over the
support; sampled values count basis strings drawn as QuantumState.sample
draws them, so a (seed, n_trials) pair fully determines every estimate.  Each
readout takes an optional SamplingPlan: omitted means exact mode, present means
one seeded shot batch.  The state module keeps the last batch drawn, so the
readouts of one run, which share one plan, share one batch of uniforms, each
counted against its own state's Born distribution.  Every readout reads the
Born weights, the shot counts and the site masks (`_site_masks`, which ask the
encoding which support strings occupy a site) from the state's memo, so each
is made once per store state and freed with it (see `fermisim.state`).  The
weights and masks align with the support, and a readout holds one event's
mask at a time; the counts hold only the rows that drew.  A sampled momentum
histogram also carries the exact frequencies of the same transformed state,
so one Fourier transform (one array transform on a copy, see
`QuantumState.qft_register`) serves both.

Densities and correlations use the 0/1 indicator that a site is occupied at
all, i.e. the probability a measurement finds at least one particle there.  A
doubly occupied site therefore contributes 1, not 2, and the density only sums
to the particle number when no site can hold two.  The energy estimator is the
exception: its potential part needs the up-count times down-count product, not
the indicator.  Its split reads the layout's term list, the one the Trotter
step applies (`ModeLayout.terms`, `FirstQuantizedLayout.terms`): V0 times the
potential term's count, and each mix term's pairs with the step's sign.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from fermisim import oracle
from fermisim.fq import FirstQuantizedLayout
from fermisim.sq import UP, HubbardParams, ModeLayout
from fermisim.state import (
    InvariantViolation, QuantumState, SamplingPlan, check_layout, validation_enabled, value_class,
)

MAX_CORRELATION_POINTS = 3
FREQUENCY_TOL = 1e-12
ENERGY_SPLIT_TOL = 1e-8


@value_class
class Estimate:
    """Exact expectation next to its sampled estimate and standard error."""

    exact: float
    sampled: float
    stderr: float


@value_class
class Histogram:
    """Distribution over integer-keyed bins, exact or from a finite shot batch.

    frequencies always form a probability distribution.  counts is present
    only for sampled histograms, where the frequencies are counts/n_trials.
    exact, when present on a sampled histogram, holds the exact frequencies of
    the distribution the shots were drawn from.
    """

    frequencies: dict[int, float]
    counts: dict[int, int] | None = None
    n_trials: int | None = None
    exact: dict[int, float] | None = None

    def __post_init__(self):
        # Written `not ... <= tol` / `not f >= 0`, so a NaN frequency fails both checks.
        for freqs in (self.frequencies,) if self.exact is None else (self.frequencies, self.exact):
            total = sum(freqs.values())
            if not abs(total - 1.0) <= FREQUENCY_TOL:
                raise InvariantViolation(f"histogram frequencies sum to {total}, expected 1")
            if not all(f >= 0 for f in freqs.values()):
                raise InvariantViolation("histogram frequencies must be nonnegative")
        if (self.counts is None) != (self.n_trials is None):
            raise ValueError("counts and n_trials must be supplied together")
        if self.counts is not None and sum(self.counts.values()) != self.n_trials:
            raise InvariantViolation("histogram counts do not add up to the trial count")


@value_class
class EnergyReport:
    """Total energy with its potential/kinetic estimator decomposition."""

    potential: float
    kinetic: float
    total: float


def required_trials(epsilon: float) -> int:
    """Shots needed to push the error of a [0, 1] observable below epsilon.

    Planning rule N = ceil(1/epsilon**2), not a statistical guarantee: the
    constant in front is pinned to 1.
    """
    if not (0 < epsilon < 1) or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return math.ceil(1.0 / (epsilon * epsilon))


# ------------------------------------------------------------- basis readouts


def _site_masks(keys: np.ndarray, layout):
    """`occupied(site)`: the bool mask of the strings in `keys` with a particle on that site."""
    if isinstance(layout, ModeLayout):
        # A site's up and down modes are neighbouring bits, so the keys alone answer.
        return lambda site: (keys & (3 << layout.mode(site, UP))) != 0
    # One row per site, scattered once from each particle's position field through
    # the flat view, (site - 1) * len(keys) + row, which is twice as fast as a 2-D index.
    table = np.zeros((layout.m, len(keys)), dtype=bool)
    flat, rows = table.reshape(-1), np.arange(len(keys))
    for k in range(layout.n):
        flat[layout.register_layout().field(keys, f"pos{k}") * len(keys) + rows] = True
    return lambda site: table[site - 1]


def _indicator_estimates(
    state: QuantumState, layout, events, plan: SamplingPlan | None
) -> np.ndarray | list[Estimate]:
    """Born probability of each event, a tuple of sites that are all occupied.

    Each event's mask over the support is built, read and dropped in turn;
    `occupied` is memoized on the state, and the layout needs no key in the
    memo, since `check_layout` ties it to the state's registers.  Without a
    plan, the exact values as an array; with one, an Estimate per event whose
    shot mean and standard error come from one seeded batch.  The mean sums
    the integer counts of the rows that drew, so no float copy of a mask is
    made.
    """
    probs = state._born()
    occupied = state._memo("sites", lambda: _site_masks(state.support_keys(), layout))
    masks = (functools.reduce(np.logical_and, map(occupied, sites)) for sites in events)
    if plan is None:
        return np.array([probs[mask].sum() for mask in masks])
    rows, shots = state._sample_counts(plan.seed, plan.n_trials)
    exact, hits = zip(*[(probs[mask].sum(), shots @ mask[rows]) for mask in masks])
    mean = np.array(hits) / plan.n_trials
    # A 0/1 indicator is its own square, so its second moment is the mean.
    stderr = np.sqrt(np.maximum(mean - mean * mean, 0.0) / plan.n_trials)
    return [Estimate(float(e), float(s), float(se)) for e, s, se in zip(exact, mean, stderr)]


def charge_density(
    state: QuantumState, layout, plan: SamplingPlan | None = None
) -> np.ndarray | list[Estimate]:
    """Per-site occupancy probability: P(at least one particle on the site).

    Without a plan, returns the exact length-m vector.  With one, returns
    per-site Estimates from a single seeded shot batch.
    """
    check_layout(state, layout)
    return _indicator_estimates(state, layout, [(site,) for site in range(1, layout.m + 1)], plan)


def k_point_correlation(
    state: QuantumState, layout, sites, plan: SamplingPlan | None = None
) -> float | Estimate:
    """Probability that every listed site is occupied by at least one particle."""
    check_layout(state, layout)
    sites = tuple(int(s) for s in sites)
    if not 1 <= len(sites) <= MAX_CORRELATION_POINTS:
        raise ValueError(f"correlations support 1..{MAX_CORRELATION_POINTS} sites, got {len(sites)}")
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {sites}")
    for s in sites:
        if not 1 <= s <= layout.m:
            raise ValueError(f"site {s} out of range 1..{layout.m}")
    (value,) = _indicator_estimates(state, layout, (sites,), plan)
    return float(value) if plan is None else value


def pair_correlation(
    state: QuantumState, layout, site_a: int, site_b: int, plan: SamplingPlan | None = None
) -> float | Estimate:
    if site_a == site_b:
        raise ValueError("pair correlation needs two distinct sites")
    return k_point_correlation(state, layout, (site_a, site_b), plan)


def momentum_distribution(
    state: QuantumState, layout, particle: int, plan: SamplingPlan | None = None
) -> Histogram:
    """Momentum histogram of one particle, via a Fourier transform on a copy.

    Bin k of the m bins carries the weight of register value k after the
    transform, i.e. physical momentum 2*pi*k/m.  The input state is left
    untouched.  With a plan, the histogram is sampled and its `exact` field
    holds the exact frequencies of the same transformed copy.  Only
    per-particle encodings are supported; the mode-number encoding has no
    per-particle register to transform.
    """
    check_layout(state, layout)
    if not isinstance(layout, FirstQuantizedLayout):
        raise ValueError("momentum readout needs the per-particle encoding")
    if not 0 <= particle < layout.n:
        raise ValueError(f"particle index {particle} out of range 0..{layout.n - 1}")
    transformed = state.copy()
    register = f"pos{particle}"
    transformed.qft_register(register)

    values = transformed.layout.field(transformed.support_keys(), register)
    freqs = np.bincount(values, weights=transformed._born(), minlength=layout.m)
    # The state norm is only held to 1e-10, looser than the histogram
    # invariant, so renormalize the Born weights explicitly.
    weight = sum(freqs.tolist())
    exact = {k: f / weight for k, f in enumerate(freqs.tolist())}
    if plan is None:
        return Histogram(frequencies=exact)

    rows, shots = transformed._sample_counts(plan.seed, plan.n_trials)
    counts = np.bincount(values[rows], weights=shots, minlength=layout.m)
    counts = {k: int(c) for k, c in enumerate(counts.tolist())}
    freqs = {k: c / plan.n_trials for k, c in counts.items()}
    return Histogram(frequencies=freqs, counts=counts, n_trials=plan.n_trials, exact=exact)


# ------------------------------------------------------------------- energies


def expected_energy(state: QuantumState, layout, params: HubbardParams) -> EnergyReport:
    """<H> from the matrix-free oracle Hamiltonian, with its estimator split.

    The total is the Rayleigh quotient <psi|H psi>, with H psi from the
    oracle's independent matrix-free construction, so it runs at every size
    the state does.  Potential and kinetic come from amplitude-level
    estimators.  The two paths must agree, and a drift beyond rounding is
    reported as an invariant violation rather than silently returned.  In
    validation mode the total is also checked against the dense oracle matrix
    wherever that fits under the oracle's caps.
    """
    check_layout(state, layout)
    keys, amps = state.gather()
    if isinstance(layout, ModeLayout):
        h_keys, h_amps = oracle.apply_sq_hamiltonian(layout, params, keys, amps)
    else:
        h_keys, h_amps = oracle.apply_fq_hamiltonian(layout, params, keys, amps)
    potential, kinetic = _energy_split(state, layout.terms, params)
    total = float(np.vdot(state.gather(h_keys)[1], h_amps).real)
    if validation_enabled():
        dense = _dense_energy(state, layout, params)
        if dense is not None:
            _check_energy(dense, total, "dense oracle energy")
    _check_energy(potential + kinetic, total, f"energy split {potential} + {kinetic}")
    return EnergyReport(potential=potential, kinetic=kinetic, total=total)


def _check_energy(value: float, total: float, what: str) -> None:
    """InvariantViolation unless `value` matches `total`; a NaN on either side fails."""
    if not abs(total - value) <= ENERGY_SPLIT_TOL * max(1.0, abs(total)):
        raise InvariantViolation(f"{what} = {value} drifted from the matrix-free value {total}")


def _dense_energy(state, layout, params) -> float | None:
    """<psi|H|psi> against the dense oracle matrix, or None past the oracle's caps."""
    if isinstance(layout, ModeLayout):
        if layout.n_modes > oracle.MAX_SQ_MODES:
            return None
        h = oracle.build_sq_hamiltonian(layout, params)
    else:
        if 1 << state.layout.width > oracle.MAX_FQ_DIM:
            return None
        h = oracle.build_fq_hamiltonian(layout, params)
    vec = state.to_vector()
    return float(np.real(vec.conj() @ (h @ vec)))


def _energy_split(state: QuantumState, terms, params: HubbardParams) -> tuple[float, float]:
    """(potential, kinetic) summed over a layout's `terms`, the ones its Trotter step applies.

    A string carries V0 times its potential count.  Each mix term couples its
    pairs with the sign its Trotter factor uses: 2 t0 (1 - 2 parity)
    Re(conj(a_low) a_high) per pair.
    """
    keys = state.support_keys()
    on = np.zeros(len(keys))  # each string's potential count
    kinetic = 0.0
    for term in terms:
        found = term(keys)
        if isinstance(found, tuple):
            *_, parity, pos = found
            a_low, a_high = np.split(state._read(pos), 2)
            kinetic += 2.0 * params.t0 * float((1.0 - 2.0 * parity) @ (a_low.conj() * a_high).real)
        else:
            on += found
    return params.v0 * float(state._born() @ on), kinetic
