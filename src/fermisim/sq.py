"""Trotterized time evolution of the Hubbard chain in the occupation-number encoding.

One qubit per fermionic mode.  Site s (1-based) and spin sigma (0 = up,
1 = down) map to mode index 2*(s-1) + sigma, so the two spin modes of a site
sit on neighboring qubits and hopping between adjacent sites at fixed spin
always skips exactly one mode.  The Hamiltonian is

    H = V0 * sum_s n(s,up) n(s,down) + t0 * sum_(<s,s'>, sigma) c'(s,sigma) c(s',sigma) + h.c.

on an open chain, with hbar = 1 so angles are energy * time.

The encoding's layout is the chain: the evolution and the tally take a
ModeLayout(m), as the first-quantized code takes a FirstQuantizedLayout, and
the bonds (s, s + 1) come from `chain_bonds(m)`.

Each layout, this one and `fq.FirstQuantizedLayout`, lists its Hubbard terms
once, as `terms`, in the order a first-order step applies them.  The first term
maps the support's keys to each string's count c of doubly occupied sites,
which the step turns by exp(-i*dt*V0) c times; the others map them to the pairs
(low, high, parity, pos) they mix by exp(-i*dt*t0*(-1)**parity * sigma_x).  In
both encodings a mix term pairs each string x with x + delta, one particle's
hop, so `state.support_pairs` reads every term's pairs and their store
positions off the sorted support, with no sort and no lookup.
`trotter_step` and `trotter_evolve` run either list; the energy split sums it.

The step conserves particle number, so after a few steps the support often
stops changing.  Each term returns the store positions it wrote (a phase
level's strings, a mix's pairs and their parities), and every step but the last
records them, as int32 positions, while the support it started on stays the
same object; the first term that changes the support drops the records.  So the
first step that starts and ends on one support records, and each later step
that starts on it replays: per write one gather, the arithmetic, one scatter
and the norm check at the recorded positions, with no count, no pair building,
no lookup and no membership mask, until a term changes the support.  The last
step takes no record, so a run's peak holds no records it cannot use.
"""

from __future__ import annotations

import functools
import math
import weakref

import numpy as np

from fermisim.state import QuantumState, RegisterLayout, check_layout, support_pairs, value_class

UP = 0
DOWN = 1
SPINS = (UP, DOWN)


def chain_bonds(m: int) -> tuple[tuple[int, int], ...]:
    """The neighbor pairs (s, s + 1) of the open m-site chain, ascending."""
    return tuple((s, s + 1) for s in range(1, m))


@value_class
class HubbardParams:
    """On-site repulsion V0 and hopping amplitude t0 (energy units of choice)."""

    v0: float
    t0: float

    def __post_init__(self):
        for label, value in (("v0", self.v0), ("t0", self.t0)):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value!r}")


@value_class
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


@value_class
class ModeLayout:
    """Mode indexing for m sites: mode(s, sigma) = 2*(s-1) + sigma."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"site count must be a positive integer, got {self.m!r}")
        # Built once: every hop checks the state's layout against it.
        object.__setattr__(self, "_registers", RegisterLayout.of(("modes", self.n_modes)))

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
        return self._registers

    @functools.cached_property
    def terms(self) -> tuple:
        """The step's terms in the order it applies them: the potential, then a hop per (bond, spin)."""
        up = sum(1 << self.mode(s, UP) for s in range(1, self.m + 1))  # each down mode sits one above
        potential = lambda keys: np.bitwise_count(keys & (keys >> 1) & up).astype(np.int64)
        return (potential,) + tuple(_hop_term(self.mode(a, spin), self.mode(b, spin))
                                    for a, b in chain_bonds(self.m) for spin in SPINS)


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


def _phase_factor(params: HubbardParams, dt: float) -> complex:
    """exp(-i*dt*V0), the phase of one doubly occupied site."""
    theta = -params.v0 * dt
    if not math.isfinite(theta):
        raise ValueError(f"phase angle must be finite, got {theta}")
    return complex(math.cos(theta), math.sin(theta))


def evolve_potential(state: QuantumState, layout: ModeLayout, params: HubbardParams, dt: float) -> None:
    """exp(-i*dt*V), V = V0 * sum_s n(s,up) n(s,down): `terms[0]`, a phase per doubly occupied site."""
    check_layout(state, layout)
    _step(state, layout.terms[:1], params, dt)


def hop_pairs(keys: np.ndarray, mode_a: int, mode_b: int) -> tuple[np.ndarray, ...]:
    """(low, high, parity, pos): the pairs that the hop mode_a < mode_b couples on the sorted support `keys`.

    low holds each pair's member with mode_a occupied and mode_b empty,
    distinct and ascending; high = low + 2**mode_b - 2**mode_a is its partner,
    and parity the Jordan-Wigner parity of the modes between, which both
    members share.  pos holds the members' positions in `keys` (`support_pairs`).
    """
    occ = keys & ((1 << mode_a) | (1 << mode_b))
    low, high, pos = support_pairs(keys, occ == 1 << mode_a, occ == 1 << mode_b, (1 << mode_b) - (1 << mode_a))
    return low, high, jw_parity(low, mode_a, mode_b), pos


def _hop_term(mode_a: int, mode_b: int):
    """A mix term: the pairs the hop mode_a < mode_b couples (`hop_pairs`)."""
    return lambda keys: hop_pairs(keys, mode_a, mode_b)


def _hop_gate(params: HubbardParams, dt: float, parity: np.ndarray):
    """exp(-i*dt*t0*(-1)**p * sigma_x) per pair, in the rows `QuantumState._mix_at` takes.

    The off-diagonal entry -1j*s*(-1)**p is picked per pair from the two
    parity classes' scalars.
    """
    theta = params.t0 * dt
    c, s = math.cos(theta), math.sin(theta)
    off = np.where(parity == 1, -1j * s * -1.0, -1j * s * 1.0)
    return (complex(c), off), (off, complex(c))


def _apply(state: QuantumState, term, record, params: HubbardParams, dt: float):
    """Apply one term; returns what it wrote: positions per potential level, or a mix's pairs and parities.

    The potential's count c turns a string by `_phase_factor` c times, level j
    taking the strings whose count exceeds j, as a phase per doubly occupied
    site would; a unit factor zeroes no amplitude, so the levels share one
    support.  A mix term's pairs are mixed by `_hop_gate` at the positions the
    term read off the support, the low members', then the high ones'.
    `record`, what the term wrote on the current support, skips the term's own
    pair building.  The pairs are disjoint and built from the support, and the
    gates are unitary closed forms, so the public mix's checks are left to
    validation mode.
    """
    if record is None:
        found = term(state.support_keys())
        if isinstance(found, tuple):
            low, high, parity, pos = found
            state._mix_at(np.concatenate((low, high)), pos, _hop_gate(params, dt, parity))
            return pos, parity
        record = [np.flatnonzero(found > j) for j in range(found.max(initial=0))]
    if isinstance(record, tuple):
        pos, parity = record
        state._mix_at(None, pos, _hop_gate(params, dt, parity))
    else:
        factor = _phase_factor(params, dt)  # raises on a non-finite angle, even with no level
        for pos in record:
            state._scale_at(pos, factor)
    return record


def evolve_hopping_pair(
    state: QuantumState, layout: ModeLayout, site_a: int, site_b: int, spin: int,
    params: HubbardParams, dt: float,
) -> None:
    """exp(-i*dt*t0*(c'(a)c(b) + c'(b)c(a))) for one adjacent pair at fixed spin.

    Basis strings where exactly one of the two modes is occupied pair up and
    evolve under exp(-i*dt*t0*(-1)**p * sigma_x), with p the occupancy parity
    of the modes strictly between them; doubly occupied and empty pairs are
    eigenstates and stay untouched.
    """
    check_layout(state, layout)
    if abs(site_a - site_b) != 1:
        raise ValueError(f"sites ({site_a}, {site_b}) are not adjacent")
    a, b = sorted((site_a, site_b))
    _step(state, (_hop_term(layout.mode(a, spin), layout.mode(b, spin)),), params, dt)


def _step(state: QuantumState, terms, params: HubbardParams, dt: float,
          recorded=None, keep: bool = False) -> list | None:
    """Apply `terms` in order with step length dt; a layout's `terms` make one first-order step.

    `recorded` holds one record per term, taken on the current support: each
    term replays its record while the support is still that object, and runs
    afresh once a term has changed it.  With `keep`, each term's record is
    kept while the support is the one the step started on, and the records
    are dropped at the first term that changes it.  Returns the records: None
    without `keep` or once dropped.  A record is int32 positions (`_int32`).
    """
    # A weak reference: holding the keys would keep a replaced store's keys
    # alive through the rest of the step.
    support = weakref.ref(state.support_keys())
    kept = [] if keep else None
    for term, record in zip(terms, recorded or [None] * len(terms)):
        written = _apply(state, term, record if support() is state.support_keys() else None, params, dt)
        if support() is not state.support_keys():
            kept = None
        elif kept is not None:
            kept.append(_int32(written) if written is not record else record)
        del written  # not held through the next term
    return kept


def _int32(written):
    """A term's record: int32 positions per level (the potential), or with the pairs' parities (a mix).

    int32 halves the records' memory against intp.  A mix with a position of
    -1 (a pair member off the support that stayed zero) records None, and a
    replay runs that term afresh: a replayed write trusts its positions.
    """
    if isinstance(written, tuple):
        pos, parity = written
        return None if (pos < 0).any() else (pos.astype(np.int32), parity)
    return [pos.astype(np.int32) for pos in written]


def trotter_step(state: QuantumState, layout, params: HubbardParams, dt: float) -> None:
    """One first-order step of either encoding: the layout's `terms` in order."""
    check_layout(state, layout)
    _step(state, layout.terms, params, dt)


def trotter_evolve(state: QuantumState, layout, params: HubbardParams, plan: TrotterPlan) -> None:
    """Apply `plan.r` first-order steps of length plan.dt in place, under either encoding.

    Every step but the last records its terms (`_step`), so the first step
    that starts and ends on one support object records, and each later step
    that starts on it replays the records, bit for bit what `trotter_step`
    computes.  The records are int32 positions; they are dropped once a term
    changes the support, and the last step takes none, as no step follows.
    """
    check_layout(state, layout)
    recorded = None  # records taken on the support the current step starts on
    for step in range(plan.r):
        recorded = _step(state, layout.terms, params, plan.dt, recorded, keep=step < plan.r - 1)


def op_count(layout: ModeLayout, plan: TrotterPlan) -> dict[str, int]:
    """Deterministic tally of elementary operations for a full evolution.

    Each hopping term is charged m parity-scan operations, the generic cost of
    counting the occupied modes between an arbitrary pair; the chain total is
    therefore quadratic in m.
    """
    m = layout.m
    hops = 2 * len(chain_bonds(m))
    counts = {
        "potential_phase": plan.r * m,
        "parity_scan": plan.r * hops * m,
        "pair_mix": plan.r * hops,
    }
    counts["total"] = sum(counts.values())
    return counts
