"""First-quantized Hubbard dynamics: n distinguishable registers, one per particle.

Each particle occupies one qu-word of 1 + log2(m) qubits: the spin bit sits at
the word's least significant position and the site number x (stored as x-1)
above it, so the word value is the combined label 2*(x-1) + sigma and sorting
words sorts by (site, spin).  Statistics are imposed by the antisymmetrization
pipeline, not by the encoding.

The kinetic term of the chain splits into two block-diagonal halves,
T1 summing the hops (1,2), (3,4), ... and T2 the hops (2,3), (4,5), ...
(`KineticSplit`).  The pairs of one half are disjoint, so one two-level mix
applies every hop of that half at once.  The two boundary sites are unpaired
in T2 and stay untouched.

The layout's `terms` (see `fermisim.sq`) are the potential, each string's
count of same-site, opposite-spin particle pairs (`_coincidences`), then per
particle a mix per half (`kinetic_pairs`, no sign).  Each pair of a half puts
particle k on sites x and x + 1, so its high member is its low one plus one
step of k's position register, and `state.support_pairs` reads the pairs off
the sorted support, as it does for a second-quantized hop.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from fermisim.antisym import (
    RegisterBank,
    antisymmetrize,
    collapse_ancillas,
    exchange_violation,
    prepare_ordered_input,
)
from fermisim.state import (
    QuantumState, RegisterLayout, check_layout, inject_state, support_pairs, validation_enabled, value_class,
)
from fermisim.sq import HubbardParams, TrotterPlan, _step, trotter_evolve

SYMMETRY_TOL = 1e-9


@value_class
class FirstQuantizedLayout:
    """n particles on m = 2**b sites; per-particle word = spin bit + b position bits."""

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"particle count must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"site count must be a power of two >= 2, got {self.m!r}")
        if self.n > 2 * self.m:
            raise ValueError(f"{self.n} fermions exceed the {2 * self.m} available modes")
        # Built once: every step and readout checks the state's layout against it.
        regs = [(f"{kind}{k}", width) for k in range(self.n)
                for kind, width in (("spin", 1), ("pos", self.position_bits))]
        object.__setattr__(self, "_registers", RegisterLayout.of(*regs))

    @property
    def position_bits(self) -> int:
        return self.m.bit_length() - 1

    @property
    def word_bits(self) -> int:
        return self.position_bits + 1

    def register_layout(self) -> RegisterLayout:
        return self._registers

    @functools.cached_property
    def terms(self) -> tuple:
        """The step's terms in its order: the potential, then per particle its T1 and T2 mix."""
        slices = self.word_slices()
        potential = lambda keys: _coincidences(keys, slices)
        return (potential,) + tuple(t for k in range(self.n) for t in _particle_terms(self, k))

    def word_slices(self) -> list[tuple[int, int]]:
        return [(k * self.word_bits, self.word_bits) for k in range(self.n)]

    def label(self, site: int, spin: int) -> int:
        """Combined 1-based single-particle label 2*(site-1) + spin + 1."""
        if not 1 <= site <= self.m:
            raise ValueError(f"site {site} out of range 1..{self.m}")
        if spin not in (0, 1):
            raise ValueError(f"spin must be 0 or 1, got {spin}")
        return 2 * (site - 1) + spin + 1


@value_class
class KineticSplit:
    """The chain's hops split into two sets of disjoint pairs applied back to back."""

    t1_pairs: tuple[tuple[int, int], ...]
    t2_pairs: tuple[tuple[int, int], ...]

    @classmethod
    def for_chain(cls, m: int) -> KineticSplit:
        t1 = tuple((x, x + 1) for x in range(1, m, 2))
        t2 = tuple((x, x + 1) for x in range(2, m, 2))
        return cls(t1, t2)


def prepare_antisymmetric(layout: FirstQuantizedLayout, labels, mode: str = "fermi") -> QuantumState:
    """Antisymmetrized (or symmetrized) n-particle state from ordered labels 1..2m."""
    bank = RegisterBank(layout.n, layout.word_bits)
    staged = prepare_ordered_input(bank, labels)
    antisymmetrize(staged, bank, mode)
    return collapse_ancillas(staged, bank, layout.register_layout())


def single_particle_plane_wave(layout: FirstQuantizedLayout, k: int, spin: int = 0) -> QuantumState:
    """Single-particle state whose momentum histogram is concentrated on bin k.

    Defined as the inverse Fourier image of |k>: amplitude(x) proportional to
    exp(-2*pi*i*k*(x-1)/m) on every site x at fixed spin.
    """
    if layout.n != 1:
        raise ValueError("plane-wave preparation is single-particle only")
    if not 0 <= k < layout.m:
        raise ValueError(f"momentum bin {k} out of range 0..{layout.m - 1}")
    if spin not in (0, 1):
        raise ValueError(f"spin must be 0 or 1, got {spin}")
    m = layout.m
    amps = {}
    for x in range(m):
        word = (x << 1) | spin
        amps[word] = np.exp(-2j * np.pi * k * x / m) / math.sqrt(m)
    return inject_state(layout.register_layout(), amps)


def _coincidences(keys: np.ndarray, slices) -> np.ndarray:
    """Per key (int64), the particle pairs whose words differ in the spin bit alone: one site, opposite spins."""
    words = [((keys >> off) & ((1 << width) - 1)).astype(np.int64, copy=False) for off, width in slices]
    return sum((words[k] ^ words[l] == 1 for k, l in combinations(range(len(words)), 2)),
               np.zeros(len(keys), dtype=np.int64))


def evolve_potential_fq(
    state: QuantumState, layout: FirstQuantizedLayout, params: HubbardParams, dt: float
) -> None:
    """`terms[0]`: phase exp(-i*V0*dt) per unordered particle pair sharing a site with opposite spins."""
    check_layout(state, layout)
    _step(state, layout.terms[:1], params, dt)


@functools.lru_cache(maxsize=4)
def kinetic_partners(m: int) -> tuple[np.ndarray, ...]:
    """Per half of `KineticSplit.for_chain(m)`, each position value's partner (itself if unpaired)."""
    split = KineticSplit.for_chain(m)
    tables = []
    for pairs in (split.t1_pairs, split.t2_pairs):
        if pairs:  # T2 has no pairs on a two-site chain
            partner = np.arange(m)
            for x, y in pairs:
                partner[x - 1], partner[y - 1] = y - 1, x - 1
            partner.setflags(write=False)
            tables.append(partner)
    return tuple(tables)


def kinetic_pairs(keys: np.ndarray, reg: RegisterLayout, k: int,
                  partner: np.ndarray) -> tuple[np.ndarray, ...]:
    """(low, high, parity, pos): the pairs that one kinetic half couples on particle k on the sorted support `keys`.

    low holds each pair's member with k on the lower site x, distinct and
    ascending; high is its partner, with k on site x + 1, so high = low +
    2**offset(pos_k).  parity is all zero: a hop within one particle's word
    passes no other fermion.  pos holds the members' positions in `keys`
    (`support_pairs`).
    """
    name = f"pos{k}"
    site = reg.field(keys, name)
    low, high, pos = support_pairs(keys, partner[site] > site, partner[site] < site, 1 << reg.offset(name))
    return low, high, np.zeros(len(low), dtype=np.uint8), pos


def _particle_terms(layout: FirstQuantizedLayout, k: int) -> tuple:
    """Particle k's kinetic mix terms: T1's pairs, then T2's (`kinetic_pairs`)."""
    reg = layout.register_layout()
    return tuple(lambda keys, partner=partner: kinetic_pairs(keys, reg, k, partner)
                 for partner in kinetic_partners(layout.m))


def evolve_kinetic_particle(
    state: QuantumState, layout: FirstQuantizedLayout, k: int, params: HubbardParams, dt: float
) -> None:
    """exp(-i*dt*T1) then exp(-i*dt*T2) on particle k's position register.

    The site pairs of one half are disjoint, so one two-level mix of the
    closed form exp(-i*dt*t0*sigma_x) over that half's `kinetic_pairs` applies
    all its hops at once.  Sites in no pair of the half (1 and m in T2) stay
    untouched.
    """
    check_layout(state, layout)
    if not 0 <= k < layout.n:
        raise ValueError(f"particle index {k} out of range 0..{layout.n - 1}")
    _step(state, _particle_terms(layout, k), params, dt)


def trotter_evolve_fq(
    state: QuantumState,
    layout: FirstQuantizedLayout,
    params: HubbardParams,
    plan: TrotterPlan,
    mode: str = "fermi",
) -> None:
    """Apply plan.r first-order steps (`sq.trotter_evolve`); every step commutes with particle exchange."""
    check_layout(state, layout)
    if validation_enabled():
        worst = exchange_symmetry_violation(state, layout, mode)
        if worst > SYMMETRY_TOL:
            raise ValueError(f"input breaks {mode} exchange symmetry by {worst:.3g}")
    trotter_evolve(state, layout, params, plan)


def exchange_symmetry_violation(
    state: QuantumState, layout: FirstQuantizedLayout, mode: str = "fermi"
) -> float:
    """Worst transposition-test violation over all particle pairs."""
    return exchange_violation(state, layout.word_slices(), mode)


def op_count_fq(layout: FirstQuantizedLayout, plan: TrotterPlan) -> dict[str, int]:
    """Deterministic tally of elementary operations for a full first-quantized evolution.

    The tally models the paper's circuit, not the simulator's own work: each
    kinetic half is charged b**2 remap + 1 mix + b**2 unremap operations per
    particle (b = log2 m position bits), the arithmetic-circuit cost of
    relabeling sites into (block, position-in-block) so that one qubit rotation
    applies the half; the per-particle kinetic cost is therefore
    polylogarithmic in the site count.  The simulator runs one pair mix per
    half instead.  Each potential pair costs one position comparison (b ops)
    plus a spin check and the phase itself.
    """
    b = layout.position_bits
    n = layout.n
    pairs = n * (n - 1) // 2
    counts = {
        "potential": plan.r * pairs * (b + 2),
        "kinetic": plan.r * n * 2 * (2 * b * b + 1),
    }
    counts["total"] = sum(counts.values())
    return counts
