"""First-quantized Hubbard dynamics: n distinguishable registers, one per particle.

Each particle occupies one qu-word of 1 + log2(m) qubits: the spin bit sits at
the word's least significant position and the site number x (stored as x-1)
above it, so the word value is the combined label 2*(x-1) + sigma and sorting
words sorts by (site, spin).  Statistics are imposed by the antisymmetrization
pipeline, not by the encoding.

The kinetic term of the chain splits into two block-diagonal halves,
T1 summing the hops (1,2), (3,4), ... and T2 the hops (2,3), (4,5), ...
(`KineticSplit`).  The pairs of one half are disjoint, so each half's pairs
are mixed directly: one two-level mix of the shared 2x2 closed form applies
every hop of that half at once.  The two boundary sites are unpaired in T2 and
stay untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fermisim.antisym import (
    QuWordLayout,
    RegisterBank,
    antisymmetrize,
    collapse_ancillas,
    prepare_ordered_input,
    transposition_test,
)
from fermisim.state import QuantumState, RegisterLayout, distinct_keys, inject_state, validation_enabled
from fermisim.sq import HubbardParams, TrotterPlan

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
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

    @property
    def position_bits(self) -> int:
        return self.m.bit_length() - 1

    @property
    def word_bits(self) -> int:
        return self.position_bits + 1

    def register_layout(self) -> RegisterLayout:
        regs = []
        for k in range(self.n):
            regs.append((f"spin{k}", 1))
            regs.append((f"pos{k}", self.position_bits))
        return RegisterLayout.of(*regs)

    def word_slices(self) -> list[tuple[int, int]]:
        return [(k * self.word_bits, self.word_bits) for k in range(self.n)]

    def label(self, site: int, spin: int) -> int:
        """Combined 1-based single-particle label 2*(site-1) + spin + 1."""
        if not 1 <= site <= self.m:
            raise ValueError(f"site {site} out of range 1..{self.m}")
        if spin not in (0, 1):
            raise ValueError(f"spin must be 0 or 1, got {spin}")
        return 2 * (site - 1) + spin + 1

    @staticmethod
    def site_of(word: int) -> int:
        return (word >> 1) + 1

    @staticmethod
    def spin_of(word: int) -> int:
        return word & 1


@dataclass(frozen=True)
class KineticSplit:
    """The chain's hops split into two sets of disjoint pairs applied back to back."""

    t1_pairs: tuple[tuple[int, int], ...]
    t2_pairs: tuple[tuple[int, int], ...]

    @classmethod
    def for_chain(cls, m: int) -> KineticSplit:
        t1 = tuple((x, x + 1) for x in range(1, m, 2))
        t2 = tuple((x, x + 1) for x in range(2, m - 1, 2))
        return cls(t1, t2)

    def all_pairs(self) -> set[tuple[int, int]]:
        return set(self.t1_pairs) | set(self.t2_pairs)


def prepare_antisymmetric(
    layout: FirstQuantizedLayout, labels, mode: str = "fermi", backend: str = "sparse"
) -> QuantumState:
    """Antisymmetrized (or symmetrized) n-particle state from ordered labels 1..2m."""
    bank = RegisterBank(QuWordLayout(layout.n, layout.word_bits))
    staged = prepare_ordered_input(bank, labels, backend="sparse")
    antisymmetrize(staged, bank, mode)
    return collapse_ancillas(staged, bank, layout.register_layout(), backend)


def single_particle_plane_wave(
    layout: FirstQuantizedLayout, k: int, spin: int = 0, backend: str = "dense"
) -> QuantumState:
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
    return inject_state(layout.register_layout(), amps, backend)


def evolve_potential_fq(
    state: QuantumState, layout: FirstQuantizedLayout, params: HubbardParams, dt: float
) -> None:
    """Phase exp(-i*V0*dt) on every unordered particle pair sharing a site with opposite spins."""
    _check_state(state, layout)
    reg = state.layout
    for k in range(layout.n):
        for l in range(k + 1, layout.n):
            def coincide(keys, pk=f"pos{k}", pl=f"pos{l}", sk=f"spin{k}", sl=f"spin{l}"):
                return (reg.field(keys, pk) == reg.field(keys, pl)) & (
                    reg.field(keys, sk) != reg.field(keys, sl)
                )

            state.apply_phase_where(coincide, -params.v0 * dt)


def evolve_kinetic_particle(
    state: QuantumState, layout: FirstQuantizedLayout, k: int, params: HubbardParams, dt: float
) -> None:
    """exp(-i*dt*T1) then exp(-i*dt*T2) on particle k's position register.

    The site pairs of one half are disjoint, so one two-level mix of the
    closed form exp(-i*dt*t0*sigma_x) applies every hop of that half at once:
    each support string with particle k on a paired site is paired with the
    string holding k on the partner site.  Sites in no pair of the half (1 and
    m in T2) stay untouched.
    """
    _check_state(state, layout)
    if not 0 <= k < layout.n:
        raise ValueError(f"particle index {k} out of range 0..{layout.n - 1}")
    reg = state.layout
    pos_name = f"pos{k}"
    theta = params.t0 * dt
    c, s = math.cos(theta), math.sin(theta)
    mix = np.array([[c, -1j * s], [-1j * s, c]])

    split = KineticSplit.for_chain(layout.m)
    for pairs in (split.t1_pairs, split.t2_pairs):
        if not pairs:
            continue  # T2 has no pairs on a two-site chain
        # Position values are sites - 1; an unpaired site is its own partner.
        partner = np.arange(layout.m)
        for x, y in pairs:
            partner[x - 1], partner[y - 1] = y - 1, x - 1
        keys = state.support_keys()
        pos = reg.field(keys, pos_name)
        paired = partner[pos] != pos
        low = distinct_keys(
            reg.with_field(keys[paired], pos_name, np.minimum(pos, partner[pos])[paired])
        )
        high = reg.with_field(low, pos_name, partner[reg.field(low, pos_name)])
        state._mix(low, high, mix)  # disjoint pairs from the support; checked in validation mode


def trotter_step_fq(
    state: QuantumState, layout: FirstQuantizedLayout, params: HubbardParams, dt: float
) -> None:
    """One first-order step: potential phases, then the kinetic sweep per particle."""
    evolve_potential_fq(state, layout, params, dt)
    for k in range(layout.n):
        evolve_kinetic_particle(state, layout, k, params, dt)


def trotter_evolve_fq(
    state: QuantumState,
    layout: FirstQuantizedLayout,
    params: HubbardParams,
    plan: TrotterPlan,
    mode: str = "fermi",
) -> None:
    """Apply plan.r first-order steps; every step commutes with particle exchange."""
    _check_state(state, layout)
    if validation_enabled():
        worst = exchange_symmetry_violation(state, layout, mode)
        if worst > SYMMETRY_TOL:
            raise ValueError(f"input breaks {mode} exchange symmetry by {worst:.3g}")
    for _ in range(plan.r):
        trotter_step_fq(state, layout, params, plan.dt)


def exchange_symmetry_violation(
    state: QuantumState, layout: FirstQuantizedLayout, mode: str = "fermi"
) -> float:
    """Worst transposition-test violation over all particle pairs."""
    slices = layout.word_slices()
    worst = 0.0
    for i in range(layout.n):
        for j in range(i + 1, layout.n):
            worst = max(worst, transposition_test(state, slices, i, j, mode))
    return worst


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


def _check_state(state: QuantumState, layout: FirstQuantizedLayout) -> None:
    if state.layout != layout.register_layout():
        raise ValueError("state register layout does not match the first-quantized layout")
