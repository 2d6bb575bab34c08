"""Site-resolved observables and seeded sampling estimates.

Every readout accepts either encoding and dispatches on the layout object: a
ModeLayout means one qubit per (site, spin) mode, a FirstQuantizedLayout means
one word per particle.  Exact values are Born-rule expectations over the
support; sampled values count basis strings drawn as QuantumState.sample
draws them, so a (seed, n_trials) pair fully determines every estimate.  Each
readout takes an optional SamplingPlan: omitted means exact mode, present means
one seeded shot batch.  The state module keeps the last batch drawn, so the
readouts of one run, which share one plan, share one batch of uniforms, each
counted against its own state's Born distribution.  A sampled momentum
histogram also carries the exact frequencies of the same transformed state, so
one Fourier transform serves both.

Densities and correlations use the 0/1 indicator that a site is occupied at
all, i.e. the probability a measurement finds at least one particle there.  A
doubly occupied site therefore contributes 1, not 2, and the density only sums
to the particle number when no site can hold two.  The energy estimator is the
exception: its potential part needs the up-count times down-count product, not
the indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fermisim import oracle
from fermisim.fq import FirstQuantizedLayout
from fermisim.sq import SPINS, HubbardParams, LatticeSpec, ModeLayout, jw_parity
from fermisim.state import MAX_TRIALS, InvariantViolation, QuantumState, validation_enabled

MAX_CORRELATION_POINTS = 3
FREQUENCY_TOL = 1e-12
ENERGY_SPLIT_TOL = 1e-8


@dataclass(frozen=True)
class SamplingPlan:
    """Seed, shot count, and accuracy targets for a reproducible measurement run.

    epsilon is the accuracy the shot count was planned for (see
    required_trials); it is bookkeeping for planning, and the estimates
    themselves only consume (seed, n_trials).
    """

    seed: int
    n_trials: int
    epsilon: float = 0.1

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not isinstance(self.n_trials, int) or not 1 <= self.n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must be an integer in [1, {MAX_TRIALS}], got {self.n_trials!r}")
        if not (self.epsilon > 0) or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


@dataclass(frozen=True)
class Estimate:
    """Exact expectation next to its sampled estimate and standard error."""

    exact: float
    sampled: float
    stderr: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _site_counts(keys: np.ndarray, layout) -> np.ndarray:
    """(len(keys), m) particles per site for a key array, under either encoding."""
    counts = np.zeros((len(keys), layout.m), dtype=np.uint8)
    if isinstance(layout, ModeLayout):
        for site in range(1, layout.m + 1):
            for spin in SPINS:
                counts[:, site - 1] += ((keys >> layout.mode(site, spin)) & 1).astype(np.uint8)
        return counts
    rows = np.arange(len(keys))
    reg = layout.register_layout()
    for k in range(layout.n):
        counts[rows, reg.field(keys, f"pos{k}")] += 1
    return counts


def _born(state: QuantumState) -> tuple[np.ndarray, np.ndarray]:
    """Support keys and their Born weights, in ascending key order."""
    keys, amps = state.gather()
    return keys, np.abs(amps) ** 2


def _check_layout(state: QuantumState, layout) -> None:
    if not isinstance(layout, (ModeLayout, FirstQuantizedLayout)):
        raise ValueError(f"unsupported layout type {type(layout).__name__}")
    if state.layout != layout.register_layout():
        raise ValueError("state register layout does not match the given encoding")


def charge_density(
    state: QuantumState, layout, plan: SamplingPlan | None = None
) -> np.ndarray | list[Estimate]:
    """Per-site occupancy probability: P(at least one particle on the site).

    Without a plan, returns the exact length-m vector.  With one, returns
    per-site Estimates from a single seeded shot batch.
    """
    _check_layout(state, layout)
    if plan is not None:
        return _sampled_density(state, layout, plan)
    keys, probs = _born(state)
    occupied = _site_counts(keys, layout) > 0
    return np.array([probs[occupied[:, s]].sum() for s in range(layout.m)])


def k_point_correlation(
    state: QuantumState, layout, sites, plan: SamplingPlan | None = None
) -> float | Estimate:
    """Probability that every listed site is occupied by at least one particle."""
    _check_layout(state, layout)
    sites = tuple(int(s) for s in sites)
    if not 1 <= len(sites) <= MAX_CORRELATION_POINTS:
        raise ValueError(f"correlations support 1..{MAX_CORRELATION_POINTS} sites, got {len(sites)}")
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {sites}")
    for s in sites:
        if not 1 <= s <= layout.m:
            raise ValueError(f"site {s} out of range 1..{layout.m}")
    columns = [s - 1 for s in sites]

    def indicator(keys):
        return (_site_counts(keys, layout)[:, columns] > 0).all(axis=1)

    keys, probs = _born(state)
    total = float(probs[indicator(keys)].sum())
    if plan is None:
        return total
    mean, stderr = _sampled_vector(state, plan, indicator)
    return Estimate(total, float(mean), float(stderr))


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
    _check_layout(state, layout)
    if not isinstance(layout, FirstQuantizedLayout):
        raise ValueError("momentum readout needs the per-particle encoding")
    if not 0 <= particle < layout.n:
        raise ValueError(f"particle index {particle} out of range 0..{layout.n - 1}")
    transformed = state.copy()
    register = f"pos{particle}"
    transformed.qft_register(register)

    keys, probs = _born(transformed)
    freqs = np.bincount(transformed.layout.field(keys, register), weights=probs, minlength=layout.m)
    # The state norm is only held to 1e-10, looser than the histogram
    # invariant, so renormalize the Born weights explicitly.
    weight = sum(freqs.tolist())
    exact = {k: f / weight for k, f in enumerate(freqs.tolist())}
    if plan is None:
        return Histogram(frequencies=exact)

    keys, drawn = transformed._sample_counts(plan.seed, plan.n_trials)
    counts = np.bincount(transformed.layout.field(keys, register), weights=drawn, minlength=layout.m)
    counts = {k: int(c) for k, c in enumerate(counts.tolist())}
    freqs = {k: c / plan.n_trials for k, c in counts.items()}
    return Histogram(frequencies=freqs, counts=counts, n_trials=plan.n_trials, exact=exact)


# ------------------------------------------------------------------- energies


def expected_energy(
    state: QuantumState, layout, params: HubbardParams, lattice: LatticeSpec | None = None
) -> EnergyReport:
    """<H> from the matrix-free oracle Hamiltonian, with its estimator split.

    The total is the Rayleigh quotient <psi|H psi>, with H psi from the
    oracle's independent matrix-free construction, so it runs at every size
    the state does.  Potential and kinetic come from amplitude-level
    estimators.  The two paths must agree, and a drift beyond rounding is
    reported as an invariant violation rather than silently returned.  In
    validation mode the total is also checked against the dense oracle matrix
    wherever that fits under the oracle's caps.
    """
    _check_layout(state, layout)
    if lattice is None:
        lattice = LatticeSpec.chain(layout.m)
    if lattice.m != layout.m:
        raise ValueError("lattice and layout disagree on the site count")
    keys, amps = state.gather()
    if isinstance(layout, ModeLayout):
        h_keys, h_amps = oracle.apply_sq_hamiltonian(lattice, params, keys, amps)
        potential, kinetic = _sq_energy(state, layout, params, lattice)
    else:
        h_keys, h_amps = oracle.apply_fq_hamiltonian(layout, params, lattice, keys, amps)
        potential, kinetic = _fq_energy(state, layout, params, lattice)
    total = float(np.vdot(state.gather(h_keys)[1], h_amps).real)
    if validation_enabled():
        dense = _dense_energy(state, layout, params, lattice)
        if dense is not None:
            _check_energy(dense, total, "dense oracle energy")
    _check_energy(potential + kinetic, total, f"energy split {potential} + {kinetic}")
    return EnergyReport(potential=potential, kinetic=kinetic, total=total)


def _check_energy(value: float, total: float, what: str) -> None:
    """InvariantViolation unless `value` matches `total`; a NaN on either side fails."""
    if not abs(total - value) <= ENERGY_SPLIT_TOL * max(1.0, abs(total)):
        raise InvariantViolation(f"{what} = {value} drifted from the matrix-free value {total}")


def _dense_energy(state, layout, params, lattice) -> float | None:
    """<psi|H|psi> against the dense oracle matrix, or None past the oracle's caps."""
    if isinstance(layout, ModeLayout):
        if layout.n_modes > oracle.MAX_SQ_MODES:
            return None
        h = oracle.build_sq_hamiltonian(lattice, params)
    else:
        if 1 << state.layout.width > oracle.MAX_FQ_DIM:
            return None
        h = oracle.build_fq_hamiltonian(layout, params, lattice)
    vec = state.to_vector()
    return float(np.real(vec.conj() @ (h @ vec)))


def _sq_energy(state, layout, params, lattice) -> tuple[float, float]:
    keys, amps = state.gather()
    doubly = (_site_counts(keys, layout) == 2).sum(axis=1)
    potential = params.v0 * float(np.abs(amps) ** 2 @ doubly)

    kinetic = 0.0
    for i, j in lattice.adjacency:
        for spin in SPINS:
            mode_a = layout.mode(min(i, j), spin)
            mode_b = layout.mode(max(i, j), spin)
            mask = (1 << mode_a) | (1 << mode_b)
            # Each unordered pair once, from its member with mode_a occupied.
            low = (keys & mask) == (1 << mode_a)
            sign = 1.0 - 2.0 * jw_parity(keys[low], mode_a, mode_b)
            overlap = amps[low].conj() * state.gather(keys[low] ^ mask)[1]
            kinetic += 2.0 * params.t0 * float(sign @ overlap.real)
    return potential, kinetic


def _fq_energy(state, layout, params, lattice) -> tuple[float, float]:
    reg = state.layout
    keys, amps = state.gather()
    sites = [reg.field(keys, f"pos{k}") for k in range(layout.n)]
    spins = [reg.field(keys, f"spin{k}") for k in range(layout.n)]
    coincidences = sum(
        (sites[k] == sites[l]) & (spins[k] != spins[l])
        for k in range(layout.n)
        for l in range(k + 1, layout.n)
    )
    potential = params.v0 * float(np.abs(amps) ** 2 @ np.asarray(coincidences, dtype=float))

    kinetic = 0j
    for k in range(layout.n):
        offset = reg.offset(f"pos{k}")
        for i, j in lattice.adjacency:
            # A hop between sites i and j flips the position bits (i-1) ^ (j-1).
            flip = ((i - 1) ^ (j - 1)) << offset
            on_edge = (sites[k] == i - 1) | (sites[k] == j - 1)
            kinetic += params.t0 * np.vdot(amps[on_edge], state.gather(keys[on_edge] ^ flip)[1])
    return potential, float(kinetic.real)


# ------------------------------------------------------------------- sampling


def _sampled_vector(state, plan, indicators) -> tuple[np.ndarray, np.ndarray]:
    """Shot mean and standard error of indicators(keys), one row (or value) per key."""
    keys, counts = state._sample_counts(plan.seed, plan.n_trials)
    counts = counts.astype(float)
    vals = np.asarray(indicators(keys), dtype=float)
    total = plan.n_trials
    mean = counts @ vals / total
    variance = np.maximum(counts @ (vals * vals) / total - mean * mean, 0.0)
    stderr = np.sqrt(variance / total)
    return mean, stderr


def _sampled_density(state, layout, plan) -> list[Estimate]:
    exact = charge_density(state, layout)

    def indicators(keys):
        return _site_counts(keys, layout) > 0

    mean, stderr = _sampled_vector(state, plan, indicators)
    return [Estimate(float(e), float(s), float(se)) for e, s, se in zip(exact, mean, stderr)]
