"""Trotterized time evolution of the Hubbard chain in the occupation-number encoding.

One qubit per fermionic mode.  Site s (1-based) and spin sigma (0 = up,
1 = down) map to mode index 2*(s-1) + sigma, so the two spin modes of a site
sit on neighboring qubits and hopping between adjacent sites at fixed spin
always skips exactly one mode.  The Hamiltonian is

    H = V0 * sum_s n(s,up) n(s,down) + t0 * sum_(<s,s'>, sigma) c'(s,sigma) c(s',sigma) + h.c.

on an open chain, with hbar = 1 so angles are energy * time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fermisim.state import QuantumState, RegisterLayout, distinct_keys

UP = 0
DOWN = 1
SPINS = (UP, DOWN)


@dataclass(frozen=True)
class LatticeSpec:
    """Open 1-d chain of m sites with explicit neighbor pairs (1-based sites)."""

    m: int
    adjacency: tuple[tuple[int, int], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"site count must be a positive integer, got {self.m!r}")
        if self.adjacency is None:
            object.__setattr__(
                self, "adjacency", tuple((s, s + 1) for s in range(1, self.m))
            )
        pairs = set()
        for i, j in self.adjacency:
            if not (1 <= i <= self.m and 1 <= j <= self.m and i != j):
                raise ValueError(f"invalid neighbor pair ({i}, {j}) for m={self.m}")
            key = (min(i, j), max(i, j))
            if key in pairs:
                raise ValueError(f"duplicate neighbor pair ({i}, {j})")
            pairs.add(key)

    @classmethod
    def chain(cls, m: int) -> LatticeSpec:
        return cls(m)


@dataclass(frozen=True)
class HubbardParams:
    """On-site repulsion V0 and hopping amplitude t0 (energy units of choice)."""

    v0: float
    t0: float

    def __post_init__(self):
        for label, value in (("v0", self.v0), ("t0", self.t0)):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrotterPlan:
    """Evolve for total time t in r first-order steps of dt = t / r."""

    t: float
    r: int

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"total time must be finite, got {self.t!r}")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"step count must be a positive integer, got {self.r!r}")

    @property
    def dt(self) -> float:
        return self.t / self.r


@dataclass(frozen=True)
class ModeLayout:
    """Mode indexing for m sites: mode(s, sigma) = 2*(s-1) + sigma."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"site count must be a positive integer, got {self.m!r}")

    @property
    def n_modes(self) -> int:
        return 2 * self.m

    def mode(self, site: int, spin: int) -> int:
        if not 1 <= site <= self.m:
            raise ValueError(f"site {site} out of range 1..{self.m}")
        if spin not in SPINS:
            raise ValueError(f"spin must be 0 (up) or 1 (down), got {spin}")
        return 2 * (site - 1) + spin

    def register_layout(self) -> RegisterLayout:
        return RegisterLayout.of(("modes", self.n_modes))


def encode_occupation(layout: ModeLayout, occupied: tuple[tuple[int, int], ...]) -> int:
    """Basis string with the listed (site, spin) modes occupied.

    Rejects duplicates; Pauli exclusion allows one fermion per mode.
    """
    bits = 0
    for site, spin in occupied:
        mask = 1 << layout.mode(site, spin)
        if bits & mask:
            raise ValueError(f"mode (site={site}, spin={spin}) occupied twice")
        bits |= mask
    return bits


def jw_parity(bits, mode_a: int, mode_b: int):
    """Parity of the number of occupied modes strictly between mode_a and mode_b.

    `bits` is one basis string or a key array; an array gives one parity per key.
    """
    if mode_a >= mode_b:
        raise ValueError(f"expected mode_a < mode_b, got {mode_a} >= {mode_b}")
    between = ((1 << mode_b) - 1) & ~((1 << (mode_a + 1)) - 1)
    return np.bitwise_count(bits & between) & 1


def evolve_potential(state: QuantumState, lattice: LatticeSpec, params: HubbardParams, dt: float) -> None:
    """exp(-i*dt*V) where V = V0 * sum_s n(s,up) n(s,down): a phase per doubly occupied site."""
    layout = _mode_layout_for(state, lattice)
    for site in range(1, lattice.m + 1):
        mask = (1 << layout.mode(site, UP)) | (1 << layout.mode(site, DOWN))
        state.apply_phase_where(lambda keys, m=mask: (keys & m) == m, -params.v0 * dt)


def evolve_hopping_pair(
    state: QuantumState, site_a: int, site_b: int, spin: int, params: HubbardParams, dt: float
) -> None:
    """exp(-i*dt*t0*(c'(a)c(b) + c'(b)c(a))) for one adjacent pair at fixed spin.

    Basis strings where exactly one of the two modes is occupied pair up and
    evolve under exp(-i*dt*t0*(-1)**p * sigma_x), with p the occupancy parity
    of the modes strictly between them; doubly occupied and empty pairs are
    eigenstates and stay untouched.
    """
    if state.layout.width % 2:
        raise ValueError("state does not hold an even number of modes")
    m = state.layout.width // 2
    if abs(site_a - site_b) != 1:
        raise ValueError(f"sites ({site_a}, {site_b}) are not adjacent")
    layout = ModeLayout(m)
    mode_a = layout.mode(min(site_a, site_b), spin)
    mode_b = layout.mode(max(site_a, site_b), spin)
    mask = (1 << mode_a) | (1 << mode_b)

    # Each pair is represented by its member with mode_a occupied; the modes
    # between the endpoints agree for both members, so the parity may be read
    # off that representative.
    keys = state.support_keys()
    occ = keys & mask
    single = keys[(occ != 0) & (occ != mask)]
    low = distinct_keys((single & ~mask) | (1 << mode_a))
    parity = jw_parity(low, mode_a, mode_b)

    # One mix of all pairs: the off-diagonal entry -1j*s*(-1)**p is picked per
    # pair from the two parity classes' scalars.  The pairs are disjoint and
    # built from the support, and the gates are unitary closed forms, so the
    # public method's checks are left to validation mode.
    theta = params.t0 * dt
    c, s = math.cos(theta), math.sin(theta)
    off = np.where(parity == 1, -1j * s * -1.0, -1j * s * 1.0)
    state._mix(low, low ^ mask, ((complex(c), off), (off, complex(c))))


def trotter_step(state: QuantumState, lattice: LatticeSpec, params: HubbardParams, dt: float) -> None:
    """One first-order step: potential phase, then every (pair, spin) hop in fixed order."""
    evolve_potential(state, lattice, params, dt)
    for site_a, site_b in sorted((min(p), max(p)) for p in lattice.adjacency):
        for spin in SPINS:
            evolve_hopping_pair(state, site_a, site_b, spin, params, dt)


def trotter_evolve(
    state: QuantumState, lattice: LatticeSpec, params: HubbardParams, plan: TrotterPlan
) -> None:
    """Apply `plan.r` first-order Trotter steps of length plan.dt in place."""
    _mode_layout_for(state, lattice)
    for _ in range(plan.r):
        trotter_step(state, lattice, params, plan.dt)


def op_count(lattice: LatticeSpec, plan: TrotterPlan) -> dict[str, int]:
    """Deterministic tally of elementary operations for a full evolution.

    Each hopping term is charged m parity-scan operations, the generic cost of
    counting the occupied modes between an arbitrary pair; the chain total is
    therefore quadratic in m.
    """
    m = lattice.m
    hops = 2 * len(lattice.adjacency)
    counts = {
        "potential_phase": plan.r * m,
        "parity_scan": plan.r * hops * m,
        "pair_mix": plan.r * hops,
    }
    counts["total"] = sum(counts.values())
    return counts


def _mode_layout_for(state: QuantumState, lattice: LatticeSpec) -> ModeLayout:
    layout = ModeLayout(lattice.m)
    if state.layout.width != layout.n_modes:
        raise ValueError(
            f"state has {state.layout.width} qubits, lattice needs {layout.n_modes}"
        )
    return layout
