"""Occupation-number Trotter evolution tested against dense operator oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHECKS, STEP_IDS, random_state_map

from fermisim import fq, sq
from fermisim.fq import FirstQuantizedLayout, prepare_antisymmetric, trotter_evolve_fq
from fermisim.observables import _energy_split, charge_density
from fermisim.oracle import build_sq_hamiltonian, hopping_term, pack_words, propagator
from fermisim.sq import (
    DOWN,
    UP,
    HubbardParams,
    ModeLayout,
    TrotterPlan,
    chain_bonds,
    encode_occupation,
    evolve_hopping_pair,
    evolve_potential,
    jw_parity,
    op_count,
    trotter_evolve,
    trotter_step,
)
from fermisim.state import (
    InvariantViolation, QuantumState, init_basis_state, inject_state, positions, validation_mode,
)

PARAMS = HubbardParams(v0=4.0, t0=1.0)


def dense_state(m, amplitudes):
    return inject_state(ModeLayout(m).register_layout(), amplitudes)


def random_dense_state(rng, m, support=12):
    layout = ModeLayout(m).register_layout()
    return inject_state(layout, random_state_map(rng, layout.width, support))


class TestLatticeSpec:
    def test_chain_adjacency(self):
        assert chain_bonds(4) == ((1, 2), (2, 3), (3, 4))
        assert chain_bonds(1) == ()


class TestModeLayout:
    def test_mode_indices(self):
        layout = ModeLayout(3)
        assert layout.mode(1, UP) == 0
        assert layout.mode(1, DOWN) == 1
        assert layout.mode(3, DOWN) == 5
        assert layout.n_modes == 6

    def test_register_layout(self):
        assert ModeLayout(2).register_layout().width == 4

    def test_encode_occupation(self):
        layout = ModeLayout(2)
        assert encode_occupation(layout, ()) == 0
        assert encode_occupation(layout, ((1, UP), (2, DOWN))) == 0b1001
        with pytest.raises(ValueError):
            encode_occupation(layout, ((1, UP), (1, UP)))


class TestJwParity:
    def test_counts_strictly_between(self):
        assert jw_parity(0b0110, 0, 3) == 0
        assert jw_parity(0b0010, 0, 2) == 1
        assert jw_parity(0b0100, 0, 2) == 0  # endpoint occupancy is ignored
        assert jw_parity(0b1001, 0, 3) == 0
        assert jw_parity(0b111111, 1, 4) == 0
        assert jw_parity(0b111111, 1, 5) == 1

    def test_requires_ordered_modes(self):
        with pytest.raises(ValueError):
            jw_parity(0, 2, 2)


class TestPotential:
    def test_phase_only_on_double_occupancy(self):
        layout = ModeLayout(2)
        both = encode_occupation(layout, ((1, UP), (1, DOWN)))
        single = encode_occupation(layout, ((1, UP), (2, DOWN)))
        state = dense_state(2, {both: np.sqrt(0.5), single: np.sqrt(0.5)})
        evolve_potential(state, layout, PARAMS, dt=0.3)
        expected = np.exp(-1j * PARAMS.v0 * 0.3) * np.sqrt(0.5)
        assert state.amplitude(both) == pytest.approx(expected, abs=1e-12)
        assert state.amplitude(single) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_matches_diagonal_oracle(self):
        rng = np.random.default_rng(7)
        layout = ModeLayout(2)
        h_v = build_sq_hamiltonian(layout, HubbardParams(v0=PARAMS.v0, t0=0.0))
        state = random_dense_state(rng, 2)
        want = propagator(h_v, 0.17) @ state.to_vector()
        evolve_potential(state, layout, PARAMS, dt=0.17)
        np.testing.assert_allclose(state.to_vector(), want, atol=1e-12)

    @pytest.mark.parametrize("m", [3, 40])
    def test_term_counts_the_doubly_occupied_sites(self, m):
        """terms[0] against a per-site count: every key at m = 3, random object keys at m = 40."""
        layout = ModeLayout(m)
        rng = np.random.default_rng(m)
        keys = (np.arange(1 << layout.n_modes) if m == 3 else layout.register_layout().keys(
            [int.from_bytes(rng.bytes(10), "little") for _ in range(300)]))
        count = layout.terms[0](keys)
        want = [sum((k >> layout.mode(s, UP)) & (k >> layout.mode(s, DOWN)) & 1 for s in range(1, m + 1))
                for k in keys.tolist()]
        assert count.dtype == np.int64 and count.tolist() == want

    @pytest.mark.parametrize("m, checks", [(3, "validation"), (3, "production"), (32, "production")],
                             indirect=["checks"], ids=["3-slot", "3-search", "32-search"])
    def test_bitwise_a_phase_per_site(self, m, checks):
        """One count term multiplies each amplitude as a phase per doubly occupied site does, in site order.

        The strings hold 0-3 doubly occupied sites; m = 32 has object keys.
        """
        layout, dt = ModeLayout(m), 0.37
        rng = np.random.default_rng(m)
        strings = set()
        for _ in range(40):
            sites = rng.permutation(m)
            doubles = int(rng.integers(4))
            bits = sum(3 << layout.mode(int(s) + 1, UP) for s in sites[:doubles])
            strings.add(bits | sum(1 << layout.mode(int(s) + 1, int(rng.integers(2)))
                                   for s in sites[doubles:doubles + 3]))
        strings = sorted(strings)
        amps = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
        amps /= np.linalg.norm(amps)
        state, looped = (inject_state(layout.register_layout(), dict(zip(strings, amps))) for _ in range(2))
        assert {int(c) for c in layout.terms[0](state.support_keys())} == {0, 1, 2, 3}
        evolve_potential(state, layout, PARAMS, dt)
        for s in range(1, m + 1):
            both = (1 << layout.mode(s, UP)) | (1 << layout.mode(s, DOWN))
            looped.apply_phase_where(lambda keys: (keys & both) == both, -PARAMS.v0 * dt)
        _assert_bitwise(state, looped)


def parity_class_mixes(state, mode_a, mode_b, theta):
    """The hop as two public mixes, one per Jordan-Wigner parity class of its pairs."""
    mask = (1 << mode_a) | (1 << mode_b)
    keys = state.gather()[0]
    occ = keys & mask
    low = np.unique((keys[(occ != 0) & (occ != mask)] & ~mask) | (1 << mode_a))
    parity = jw_parity(low, mode_a, mode_b)
    c, s = math.cos(theta), math.sin(theta)
    for odd in (0, 1):
        members = low[parity == odd]
        if members.size:
            sign = -1.0 if odd else 1.0
            gate = np.array([[c, -1j * s * sign], [-1j * s * sign, c]])
            state.apply_two_level_mix(np.stack((members, members ^ mask), axis=1), gate)


class TestHoppingPair:
    @pytest.mark.parametrize("spin", (UP, DOWN))
    @pytest.mark.parametrize("sites", ((1, 2), (2, 3)))
    def test_every_basis_string_matches_single_term_propagator(self, sites, spin):
        m, dt = 3, 0.37
        layout = ModeLayout(m)
        a = layout.mode(sites[0], spin)
        b = layout.mode(sites[1], spin)
        u = propagator(PARAMS.t0 * hopping_term(2 * m, a, b), dt)
        for bits in range(1 << (2 * m)):
            state = init_basis_state(layout.register_layout(), bits)
            evolve_hopping_pair(state, layout, sites[0], sites[1], spin, PARAMS, dt)
            np.testing.assert_allclose(state.to_vector(), u[:, bits], atol=1e-12)

    def test_sign_string_changes_the_mix(self):
        # Hop (1, 2) at spin up skips mode (1, down); occupying it flips the
        # sign of the generator, which shows up as a conjugated off-diagonal.
        m, dt = 2, 0.25
        layout = ModeLayout(m)
        empty_between = encode_occupation(layout, ((1, UP),))
        occupied_between = encode_occupation(layout, ((1, UP), (1, DOWN)))
        s0 = init_basis_state(layout.register_layout(), empty_between)
        s1 = init_basis_state(layout.register_layout(), occupied_between)
        evolve_hopping_pair(s0, layout, 1, 2, UP, PARAMS, dt)
        evolve_hopping_pair(s1, layout, 1, 2, UP, PARAMS, dt)
        partner0 = empty_between ^ 0b0101
        partner1 = occupied_between ^ 0b0101
        assert s0.amplitude(partner0) == pytest.approx(-1j * np.sin(dt * PARAMS.t0), abs=1e-12)
        assert s1.amplitude(partner1) == pytest.approx(+1j * np.sin(dt * PARAMS.t0), abs=1e-12)

    def test_superposition_input(self):
        rng = np.random.default_rng(21)
        m, dt = 3, 0.41
        layout = ModeLayout(m)
        u = propagator(
            PARAMS.t0 * hopping_term(2 * m, layout.mode(2, DOWN), layout.mode(3, DOWN)), dt
        )
        state = random_dense_state(rng, m, support=20)
        want = u @ state.to_vector()
        evolve_hopping_pair(state, layout, 2, 3, DOWN, PARAMS, dt)
        np.testing.assert_allclose(state.to_vector(), want, atol=1e-12)

    def test_one_mix_is_bitwise_the_two_parity_class_mixes(self, checks):
        rng = np.random.default_rng(1208)
        m, dt = 4, 0.29
        layout = ModeLayout(m)
        reg = layout.register_layout()
        for _ in range(8):
            amps = random_state_map(rng, reg.width, int(rng.integers(1, 120)))
            site, spin = int(rng.integers(1, m)), int(rng.integers(2))
            state = inject_state(reg, amps)
            evolve_hopping_pair(state, layout, site, site + 1, spin, PARAMS, dt)
            want = inject_state(reg, amps)
            parity_class_mixes(want, layout.mode(site, spin), layout.mode(site + 1, spin), PARAMS.t0 * dt)
            (got_keys, got_amps), (want_keys, want_amps) = state.gather(), want.gather()
            assert np.array_equal(got_keys, want_keys)
            assert np.array_equal(got_amps.view(np.int64), want_amps.view(np.int64))

    def test_rejects_non_adjacent_sites(self):
        state = init_basis_state(ModeLayout(3).register_layout(), 0)
        with pytest.raises(ValueError):
            evolve_hopping_pair(state, ModeLayout(3), 1, 3, UP, PARAMS, 0.1)

    def test_state_of_the_other_encoding_rejected(self):
        # Two particles on two sites fill 4 qubits, as ModeLayout(2) does, in other registers.
        layout = FirstQuantizedLayout(n=2, m=2).register_layout()
        state = init_basis_state(layout, 0b0100)
        with pytest.raises(ValueError, match="does not match"):
            evolve_hopping_pair(state, ModeLayout(2), 1, 2, UP, PARAMS, 0.1)
        assert state.to_map() == {0b0100: 1.0}


class TestTrotterStep:
    def test_equals_product_of_term_propagators(self):
        # A single step is an exact product of the term propagators in the
        # documented order, so it must match to machine precision.
        rng = np.random.default_rng(3)
        m, dt = 2, 0.19
        layout = ModeLayout(m)
        state = random_dense_state(rng, m)
        vec = state.to_vector()
        h_v = build_sq_hamiltonian(layout, HubbardParams(v0=PARAMS.v0, t0=0.0))
        vec = propagator(h_v, dt) @ vec
        for spin in (UP, DOWN):
            term = PARAMS.t0 * hopping_term(2 * m, layout.mode(1, spin), layout.mode(2, spin))
            vec = propagator(term, dt) @ vec
        trotter_step(state, layout, PARAMS, dt)
        np.testing.assert_allclose(state.to_vector(), vec, atol=1e-12)

    def test_number_and_spin_conservation(self):
        layout = ModeLayout(3)
        bits = encode_occupation(layout, ((1, UP), (2, UP), (2, DOWN)))
        state = init_basis_state(layout.register_layout(), bits)
        trotter_evolve(state, layout, PARAMS, TrotterPlan(t=0.9, r=7))
        up_mask = sum(1 << layout.mode(s, UP) for s in range(1, 4))
        for b in state.support():
            assert (b & up_mask).bit_count() == 2
            assert (b & ~up_mask).bit_count() == 1

    def test_layout_mismatch_rejected(self):
        state = init_basis_state(ModeLayout(2).register_layout(), 0)
        with pytest.raises(ValueError):
            trotter_evolve(state, ModeLayout(3), PARAMS, TrotterPlan(t=0.1, r=1))

    def test_state_of_the_other_encoding_rejected(self):
        # Two particles on two sites fill 4 qubits, as ModeLayout(2) does, in other registers.
        layout = FirstQuantizedLayout(n=2, m=2).register_layout()
        assert layout.width == ModeLayout(2).n_modes
        state = init_basis_state(layout, 0b0100)
        with pytest.raises(ValueError, match="does not match"):
            trotter_evolve(state, ModeLayout(2), PARAMS, TrotterPlan(t=0.1, r=1))


def _sector_state(layout):
    """Two up and two down particles on four sites, spread over their whole 36-string sector.

    Every step keeps the support at the sector, so each step is closed.
    """
    up, down = ([sum(1 << layout.mode(s, spin) for s in sites) for sites in
                 ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))] for spin in (UP, DOWN))
    rng = np.random.default_rng(21)
    amps = rng.normal(size=36) + 1j * rng.normal(size=36)
    amps /= np.linalg.norm(amps)
    entries = {u | d: complex(a) for (u, d), a in zip(((u, d) for u in up for d in down), amps)}
    return inject_state(layout.register_layout(), entries)


def _assert_bitwise(a, b):
    assert np.array_equal(a.support_keys(), b.support_keys())
    assert np.array_equal(a.gather()[1].view(np.int64), b.gather()[1].view(np.int64))


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.`name`, still running it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestClosedStepReplay:
    """Closed steps replay on the mode encoding; the subclass below runs the same tests first-quantized."""

    LAYOUT = ModeLayout(4)
    PHASES, MIXES = 1, 2 * len(chain_bonds(4))  # the potential, a hop per (bond, spin)
    PAIR_BUILDER = (sq, "hop_pairs")
    evolve = staticmethod(trotter_evolve)

    def start(self, start="sector"):
        """A state whose every step is closed ("sector"), or one whose support grows, then closes."""
        if start == "sector":
            return _sector_state(self.LAYOUT)
        bits = encode_occupation(self.LAYOUT, ((1, UP), (2, DOWN), (3, UP)))
        return init_basis_state(self.LAYOUT.register_layout(), bits)

    @pytest.mark.parametrize("checks", CHECKS, indirect=True, ids=STEP_IDS.get)
    @pytest.mark.parametrize("start", ["sector", "one string"])
    def test_evolution_is_bitwise_a_loop_of_steps(self, checks, start):
        """Replayed steps, and the steps before the support closes, compute what trotter_step computes."""
        layout, plan = self.LAYOUT, TrotterPlan(t=2.0, r=12)
        evolved, looped = self.start(start), self.start(start)
        self.evolve(evolved, layout, PARAMS, plan)
        for _ in range(plan.r):
            trotter_step(looped, layout, PARAMS, plan.dt)
        _assert_bitwise(evolved, looped)

    @pytest.mark.parametrize("r", [3, 10])
    def test_recorded_step_builds_no_more_pairs(self, monkeypatch, r):
        """Step 1 closes and records; every later step replays without the pair builder."""
        state = self.start()
        calls = _count_calls(monkeypatch, *self.PAIR_BUILDER)
        self.evolve(state, self.LAYOUT, PARAMS, TrotterPlan(t=1.0, r=r))
        assert len(calls) == self.MIXES

    def test_a_term_that_changes_the_support_ends_the_replay(self, monkeypatch):
        """After a term rebuilds the store, the rest of the step and every later step run afresh."""
        layout = self.LAYOUT
        state, looped = self.start(), self.start()
        start = state.support_keys()
        kept = sq._step(state, layout.terms, PARAMS, 0.1, keep=True)
        trotter_step(looped, layout, PARAMS, 0.1)
        assert state.support_keys() is start and len(kept) == self.PHASES + self.MIXES
        original = sq._apply

        def rebuilding(state, *args, **kwargs):
            written = original(state, *args, **kwargs)
            if isinstance(written, tuple) and not rebuilt:  # the first mix
                rebuilt.append(True)
                state._replace(*state.gather())  # same entries, new support object
            return written

        rebuilt = []
        monkeypatch.setattr(sq, "_apply", rebuilding)
        calls = _count_calls(monkeypatch, *self.PAIR_BUILDER)
        sq._step(state, layout.terms, PARAMS, 0.1, kept)
        assert state.support_keys() is not start
        assert len(calls) == self.MIXES - 1  # the first mix replayed, then the support changed
        trotter_step(looped, layout, PARAMS, 0.1)
        _assert_bitwise(state, looped)

    def test_validation_mode_checks_the_store_on_replayed_writes(self, monkeypatch):
        """A store corrupted before a replayed step trips the store check of its first write."""
        layout, plan = self.LAYOUT, TrotterPlan(t=1.0, r=3)
        clean, checked = self.start(), self.start()
        original = sq._step

        def corrupting(state, terms, params, dt, recorded=None, keep=False):
            if recorded is not None:
                # A zero amplitude past the last key, at a position no replayed write touches.
                state._vals = np.append(state._vals, 0.0)
            return original(state, terms, params, dt, recorded, keep)

        monkeypatch.setattr(sq, "_step", corrupting)
        self.evolve(clean, layout, PARAMS, plan)  # production mode: no check
        with validation_mode():
            with pytest.raises(InvariantViolation, match="support store"):
                self.evolve(checked, layout, PARAMS, plan)


class TestClosedStepReplayFirstQuantized(TestClosedStepReplay):
    """Two fermions on m = 4, labels 1 and 4 (site 1 up, site 2 down): their 32-string sector closes."""

    LAYOUT = FirstQuantizedLayout(n=2, m=4)
    PHASES, MIXES = 1, 4  # the potential, a mix per (particle, kinetic half)
    PAIR_BUILDER = (fq, "kinetic_pairs")
    # The shared driver, not `trotter_evolve_fq`: that one refuses the bare
    # product string, which is not antisymmetric, in validation mode.
    evolve = staticmethod(trotter_evolve)

    def start(self, start="sector"):
        """The prepared pair after two steps, which fill the sector ("sector"), or the bare product string."""
        if start != "sector":
            return init_basis_state(self.LAYOUT.register_layout(), pack_words((0, 3), 3))
        state = prepare_antisymmetric(self.LAYOUT, (1, 4))
        for _ in range(2):
            trotter_step(state, self.LAYOUT, PARAMS, 0.5)
        assert len(state.support_keys()) == 32
        return state


def test_a_single_step_takes_no_record(monkeypatch):
    """The last step records nothing, so r = 1 records nothing; r = 2 records its first step."""
    layout = ModeLayout(4)
    for r, recorded in ((1, False), (2, True)):
        calls = _count_calls(monkeypatch, sq, "_int32")
        trotter_evolve(_sector_state(layout), layout, PARAMS, TrotterPlan(t=1.0, r=r))
        assert bool(calls) == recorded, r


@pytest.mark.parametrize("checks", CHECKS, indirect=True, ids=STEP_IDS.get)
def test_a_replayed_write_that_drops_an_entry_ends_the_replay(monkeypatch, checks):
    """A replayed hop that zeroes a string drops the records; the rest of the step runs afresh.

    One up fermion holds (cos(theta), i*sin(theta)) on sites 1 and 2, so the
    up hop exp(-i*theta*sigma_x) sends site 2's amplitude to exactly 0.
    """
    layout, dt = ModeLayout(2), 0.3
    theta = PARAMS.t0 * dt
    up1, up2 = (encode_occupation(layout, ((site, UP),)) for site in (1, 2))
    recorder = inject_state(layout.register_layout(), {up1: 0.6, up2: 0.8})
    state, looped = (inject_state(layout.register_layout(),
                                  {up1: math.cos(theta), up2: 1j * math.sin(theta)}) for _ in range(2))
    start = recorder.support_keys()
    recorded = sq._step(recorder, layout.terms, PARAMS, dt, keep=True)
    assert recorder.support_keys() is start and len(recorded) == len(layout.terms)
    calls = _count_calls(monkeypatch, sq, "hop_pairs")
    start = state.support_keys()
    assert sq._step(state, layout.terms, PARAMS, dt, recorded, keep=True) is None
    assert state.support_keys() is not start
    assert len(calls) == 1  # the up hop replayed and dropped up2; the down hop ran afresh
    assert state.support() == [up1]
    trotter_step(looped, layout, PARAMS, dt)
    _assert_bitwise(state, looped)


@settings(max_examples=40)
@given(st.data())
def test_evolution_from_random_starts_is_bitwise_a_loop_of_steps(data):
    """Recording and replay never change a result: either encoding, any start and r."""
    if data.draw(st.booleans(), label="first quantized"):
        layout = FirstQuantizedLayout(n=data.draw(st.integers(1, 3), label="n"),
                                      m=data.draw(st.sampled_from((2, 4)), label="m"))
        labels = sorted(data.draw(st.lists(st.integers(1, 2 * layout.m), min_size=layout.n,
                                           max_size=layout.n, unique=True), label="labels"))

        def start():
            return prepare_antisymmetric(layout, labels)
    else:
        layout = ModeLayout(data.draw(st.integers(2, 5), label="m"))
        bits = data.draw(st.integers(0, (1 << layout.n_modes) - 1), label="occupation")

        def start():
            return init_basis_state(layout.register_layout(), bits)
    plan = TrotterPlan(t=data.draw(st.floats(0.1, 4.0), label="t"), r=data.draw(st.integers(1, 8), label="r"))
    evolved, looped = start(), start()
    trotter_evolve(evolved, layout, PARAMS, plan)
    for _ in range(plan.r):
        trotter_step(looped, layout, PARAMS, plan.dt)
    _assert_bitwise(evolved, looped)


def _hop_pairs_by_sorting(keys, mode_a, mode_b):
    """Each hop pair's members normalized to the low one and sorted, then searched in the store."""
    mask = (1 << mode_a) | (1 << mode_b)
    occ = keys & mask
    single = keys[(occ != 0) & (occ != mask)]
    low = np.unique((single & ~mask) | (1 << mode_a))
    return low, low ^ mask, positions(keys, np.concatenate((low, low ^ mask)))


def _kinetic_pairs_by_sorting(keys, reg, k, partner):
    """Each kinetic pair's members moved to the lower site and sorted, then searched in the store."""
    name = f"pos{k}"
    site = reg.field(keys, name)
    paired = partner[site] != site
    low = np.unique(reg.with_field(keys[paired], name, np.minimum(site, partner[site])[paired]))
    high = reg.with_field(low, name, partner[reg.field(low, name)])
    return low, high, positions(keys, np.concatenate((low, high)))


@settings(max_examples=80)
@given(st.data())
def test_pair_builders_find_the_pairs_that_sorting_finds(data):
    """hop_pairs and kinetic_pairs read off the support the pairs, order and positions of the sorted construction.

    Each drawn string stands for its pair; `sides` keeps both members, only
    the lows, only the highs, or a random choice per pair (lows with no high
    and highs with no low).  Wide layouts have object keys.
    """
    wide = data.draw(st.booleans(), label="wide")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="first quantized"):
        layout = (FirstQuantizedLayout(n=5, m=4096) if wide else
                  FirstQuantizedLayout(n=data.draw(st.integers(1, 3), label="n"),
                                       m=data.draw(st.sampled_from((2, 4, 8)), label="m")))
        reg = layout.register_layout()
        k = data.draw(st.integers(0, layout.n - 1), label="k")
        partner = data.draw(st.sampled_from(fq.kinetic_partners(layout.m)), label="half")

        def members(key):
            site = reg.field(key, f"pos{k}")
            return [reg.with_field(key, f"pos{k}", s) for s in sorted({site, int(partner[site])})]

        def build(keys):
            return fq.kinetic_pairs(keys, reg, k, partner)

        def reference(keys):
            return _kinetic_pairs_by_sorting(keys, reg, k, partner)
    else:
        layout = ModeLayout(32 if wide else data.draw(st.integers(2, 5), label="m"))
        reg = layout.register_layout()
        a = data.draw(st.integers(0, layout.n_modes - 3), label="mode_a")
        b = a + data.draw(st.sampled_from((1, 2)), label="gap")

        def members(key):
            rest = key & ~((1 << a) | (1 << b))
            return [rest | (1 << a), rest | (1 << b)]

        def build(keys):
            return sq.hop_pairs(keys, a, b)

        def reference(keys):
            return _hop_pairs_by_sorting(keys, a, b)
    sides = data.draw(st.sampled_from(("both", "lows", "highs", "random")), label="sides")
    strings = set()
    for _ in range(int(rng.integers(0, 40))):
        pair = members(int.from_bytes(rng.bytes(16), "little") % (1 << reg.width))
        keep = {"both": pair, "lows": pair[:1], "highs": pair[1:], "random": [pair[int(rng.integers(len(pair)))]]}
        strings.update(keep[sides])
    # Strings in no pair: both hop modes occupied, or both empty.
    strings.update(int.from_bytes(rng.bytes(16), "little") % (1 << reg.width) for _ in range(5))
    keys = reg.keys(sorted(strings))
    low, high, parity, pos = build(keys)
    want_low, want_high, want_pos = reference(keys)
    assert low.dtype == keys.dtype and np.array_equal(low, want_low)
    assert np.array_equal(high, want_high)
    assert np.array_equal(pos, want_pos)
    assert len(parity) == len(low)


@pytest.mark.parametrize("strings", [[], [0, 1]], ids=["empty", "unpaired"])
@pytest.mark.parametrize("layout", [ModeLayout(2), ModeLayout(32), FirstQuantizedLayout(n=1, m=4),
                                    FirstQuantizedLayout(n=5, m=4096)], ids=["sq", "sq-wide", "fq", "fq-wide"])
def test_pair_builders_on_a_support_with_no_pair(layout, strings):
    """No pair gives empty arrays: the support's key dtype for the members, one position per member."""
    keys = layout.register_layout().keys(strings)
    if isinstance(layout, ModeLayout):
        found = sq.hop_pairs(keys, 1, 3)  # modes 1 and 3 are empty in both strings
    else:  # particle 0 on site 1, which T2 leaves unpaired
        found = fq.kinetic_pairs(keys, layout.register_layout(), 0, fq.kinetic_partners(layout.m)[1])
    low, high, parity, pos = found
    assert (len(low), len(high), len(parity), len(pos)) == (0, 0, 0, 0)
    assert low.dtype == high.dtype == keys.dtype


def test_a_trotter_step_looks_up_no_keys(monkeypatch):
    """Every pair a step mixes, and every pair the energy split reads, comes with its store positions."""
    sq_layout, fq_layout = ModeLayout(4), FirstQuantizedLayout(n=2, m=4)
    states = [(init_basis_state(sq_layout.register_layout(), 0b10010110), sq_layout),
              (prepare_antisymmetric(fq_layout, (1, 4)), fq_layout)]
    calls = _count_calls(monkeypatch, QuantumState, "_lookup")
    trotter_evolve(states[0][0], sq_layout, PARAMS, TrotterPlan(t=1.0, r=4))
    trotter_evolve_fq(states[1][0], fq_layout, PARAMS, TrotterPlan(t=1.0, r=4))
    for state, layout in states:
        _energy_split(state, layout.terms, PARAMS)
    assert calls == []


def _spin_sector_weights(state, layout) -> dict[tuple[int, int], float]:
    """Born weight of each (up-count, down-count) pair over the support."""
    up_mask = sum(1 << layout.mode(s, UP) for s in range(1, layout.m + 1))
    weights = {}
    for b, a in state.to_map().items():
        sector = ((b & up_mask).bit_count(), (b & ~up_mask).bit_count())
        weights[sector] = weights.get(sector, 0.0) + abs(a) ** 2
    return weights


@settings(max_examples=30)
@given(st.data())
def test_every_step_keeps_each_strings_up_and_down_counts(data):
    """A step never moves weight between (N_up, N_down) sectors: particle number and S_z."""
    m = data.draw(st.integers(2, 5), label="m")
    layout = ModeLayout(m)
    amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)
    entries = data.draw(st.dictionaries(st.integers(0, (1 << (2 * m)) - 1), amplitude,
                                        min_size=2, max_size=10), label="entries")
    norm = math.sqrt(sum(abs(a) ** 2 for a in entries.values()))
    state = inject_state(layout.register_layout(), {b: a / norm for b, a in entries.items()})
    # |t0| >= 0.25 and |dt| >= 0.2, so |t0 * dt| >= 0.05 and the step hops.
    params = HubbardParams(v0=data.draw(st.floats(-8.0, 8.0), label="v0"),
                           t0=data.draw(st.floats(-2.0, -0.25) | st.floats(0.25, 2.0), label="t0"))
    before = _spin_sector_weights(state, layout)
    trotter_step(state, layout, params, data.draw(st.floats(-3.0, -0.2) | st.floats(0.2, 3.0), label="dt"))
    after = _spin_sector_weights(state, layout)
    assert after.keys() == before.keys()
    for sector, weight in before.items():
        assert after[sector] == pytest.approx(weight, abs=1e-12)


class TestTrotterConvergence:
    def test_first_order_error_halves_with_r(self):
        layout = ModeLayout(2)
        bits = encode_occupation(layout, ((1, UP), (1, DOWN)))
        h = build_sq_hamiltonian(layout, PARAMS)
        exact = propagator(h, 1.0)[:, bits]

        def error(r):
            state = init_basis_state(layout.register_layout(), bits)
            trotter_evolve(state, layout, PARAMS, TrotterPlan(t=1.0, r=r))
            return np.linalg.norm(state.to_vector() - exact)

        e16, e32 = error(16), error(32)
        assert 1.7 < e16 / e32 < 2.3
        assert error(128) < 4e-3


class TestOpCount:
    def test_exact_tally_small_chain(self):
        counts = op_count(ModeLayout(2), TrotterPlan(t=1.0, r=3))
        assert counts == {
            "potential_phase": 6,
            "parity_scan": 12,
            "pair_mix": 6,
            "total": 24,
        }

    def test_single_site_charges_no_hops(self):
        counts = op_count(ModeLayout(1), TrotterPlan(t=1.0, r=3))
        assert counts == {"potential_phase": 3, "parity_scan": 0, "pair_mix": 0, "total": 3}

    def test_linear_in_r(self):
        one = op_count(ModeLayout(5), TrotterPlan(t=1.0, r=1))["total"]
        ten = op_count(ModeLayout(5), TrotterPlan(t=1.0, r=10))["total"]
        assert ten == 10 * one

    @pytest.mark.parametrize("m", (4, 8, 16))
    def test_doubling_sites_stays_under_quadratic_bound(self, m):
        plan = TrotterPlan(t=1.0, r=4)
        small = op_count(ModeLayout(m), plan)["total"]
        large = op_count(ModeLayout(2 * m), plan)["total"]
        assert large / small <= 4.5


class TestParamValidation:
    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            HubbardParams(v0=float("nan"), t0=1.0)
        with pytest.raises(ValueError):
            HubbardParams(v0=0.0, t0=float("inf"))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TrotterPlan(t=1.0, r=0)
        with pytest.raises(ValueError):
            TrotterPlan(t=float("nan"), r=4)
        assert TrotterPlan(t=2.0, r=8).dt == pytest.approx(0.25)

    def test_a_non_layout_is_rejected_naming_its_type(self):
        state = init_basis_state(ModeLayout(2).register_layout(), 0b11)
        plan = TrotterPlan(1.0, 1)
        calls = (
            lambda layout: trotter_evolve(state, layout, PARAMS, plan),
            lambda layout: evolve_potential(state, layout, PARAMS, 0.1),
            lambda layout: trotter_evolve_fq(state, layout, PARAMS, plan),
            lambda layout: charge_density(state, layout),
        )
        # A register layout is the state's own, not an encoding of the chain.
        for call in calls:
            for layout, name in (("junk", "str"), (state.layout, "RegisterLayout")):
                with pytest.raises(ValueError, match=f"unsupported layout type {name}$"):
                    call(layout)
