"""Reversible antisymmetrization of an ordered register of single-particle labels.

The input is a register A of n qu-words holding a strictly increasing label
tuple.  The pipeline turns it into the antisymmetric (or, on request,
symmetric) superposition over all n! orderings while returning every ancilla
to zero exactly:

  1. rank preparation: register B becomes a uniform superposition over
     "falling rank" tuples, B[i] in 1..n-i+1, one component per permutation;
  2. rank decode: each rank tuple is rewritten in place into the permutation
     it indexes (B[i] becomes the B[i]-th natural number not used so far);
  3. identity assignment: register C is set to (1, 2, ..., n);
  4. record-keeping sort: a fixed compare-exchange schedule sorts B while
     co-moving A and C, writing one record bit per schedule slot and
     accumulating the exchange-count parity into a parity bit; the phase
     (-1)**parity is then applied (skipped in bose mode).

Ancilla erasure replays and recomputes rather than measures: the parity bit is
cleared against the record, B is unsorted by replaying the record backwards
and erased against C (B[i] is the position of i in C), the record is erased by
recomputing the sort transcript, C is sorted back (co-moving A) and erased
against the constant 1..n, A is unsorted, and the final record is erased from
the transcript of A itself, which is valid because A's branch content has the
same order pattern as the key it was co-moved with.

Every step is a branch-wise rewrite of basis strings plus one exact sign flip,
so the pipeline runs on the sparse backend at any register width.  Labels are
stored as value-minus-one in binary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fermisim.state import (
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    inject_state,
)

MODES = ("fermi", "bose")


def oblivious_schedule(n: int) -> tuple[tuple[int, int], ...]:
    """Fixed compare-exchange slots that sort any n keys (Batcher merge exchange).

    The schedule is data independent, which is what lets one scratch bit per
    slot record exactly the exchanges taken; O(n log^2 n) slots.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n == 1:
        return ()
    slots: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q = 1 << (t - 1)
        r = 0
        d = p
        while True:
            for i in range(n - d):
                if (i & p) == r:
                    slots.append((i, i + d))
            if q == p:
                break
            d = q - p
            q >>= 1
            r = p
        p >>= 1
    return tuple(slots)


@dataclass(frozen=True)
class QuWordLayout:
    """n qu-words of word_bits bits each; labels 1..2**word_bits stored as label-1."""

    n: int
    word_bits: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"particle count must be a positive integer, got {self.n!r}")
        if not isinstance(self.word_bits, int) or self.word_bits < 1:
            raise ValueError(f"word width must be a positive integer, got {self.word_bits!r}")
        if self.n > self.capacity:
            raise ValueError(
                f"{self.n} distinct labels cannot fit in {self.word_bits}-bit words"
            )

    @property
    def capacity(self) -> int:
        return 1 << self.word_bits


@dataclass(frozen=True)
class OrderedConfiguration:
    """Strictly increasing label tuple, the stipulated input ordering."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError(f"labels must be strictly increasing, got {self.labels}")
        if self.labels and self.labels[0] < 1:
            raise ValueError(f"labels are 1-based, got {self.labels}")


class RegisterBank:
    """Register layout for the pipeline: A, B, C, exchange record, parity bit."""

    def __init__(self, words: QuWordLayout):
        self.words_layout = words
        self.schedule = oblivious_schedule(words.n)
        n, w = words.n, words.word_bits
        self.layout = RegisterLayout.of(
            ("A", n * w), ("B", n * w), ("C", n * w),
            ("rec", len(self.schedule)), ("par", 1),
        )
        self._word_mask = (1 << w) - 1

    @property
    def n(self) -> int:
        return self.words_layout.n

    @property
    def word_bits(self) -> int:
        return self.words_layout.word_bits

    def block(self, name: str) -> tuple[int, int]:
        """(offset, mask) of a whole register within the basis string."""
        return self.layout.offset(name), (1 << self.layout.register_width(name)) - 1

    def get_words(self, basis: int, name: str) -> list[int]:
        off = self.layout.offset(name)
        w = self.word_bits
        return [(basis >> (off + i * w)) & self._word_mask for i in range(self.n)]

    def set_words(self, basis: int, name: str, values) -> int:
        return self.layout.with_field(basis, name, self.pack(values))

    def pack(self, values) -> int:
        w = self.word_bits
        block = 0
        for i, v in enumerate(values):
            if not 0 <= v <= self._word_mask:
                raise ValueError(f"word value {v} does not fit in {w} bits")
            block |= v << (i * w)
        return block

    def word_slices(self, name: str) -> list[tuple[int, int]]:
        off = self.layout.offset(name)
        w = self.word_bits
        return [(off + i * w, w) for i in range(self.n)]

    def ancillas_clear(self, basis: int) -> bool:
        return all(
            self.layout.field(basis, reg) == 0 for reg in ("B", "C", "rec", "par")
        )

    def identity_block(self) -> int:
        """Packed encoding of the constant tuple (1, 2, ..., n)."""
        return self.pack(range(self.n))

    def rank_blocks(self) -> tuple[int, ...]:
        return _rank_blocks(self.n, self.word_bits)


@lru_cache(maxsize=None)
def _rank_blocks(n: int, word_bits: int) -> tuple[int, ...]:
    """Packed encodings of every falling-rank tuple (B[i] in 1..n-i), n! of them."""
    w = word_bits
    blocks = []
    for ranks in itertools.product(*(range(n - i) for i in range(n))):
        block = 0
        for i, r in enumerate(ranks):
            block |= r << (i * w)
        blocks.append(block)
    return tuple(blocks)


@lru_cache(maxsize=None)
def _rank_decode_table(n: int, word_bits: int) -> tuple[int, ...]:
    """Total bijection on the B block extending the rank-tuple -> permutation decode.

    Rank tuples map to the permutation they index; the remaining values are
    matched to the remaining targets in increasing order, which keeps the map
    a genuine basis permutation without affecting decoded branches.
    """
    w = word_bits
    mask = (1 << w) - 1
    dim = 1 << (n * w)
    if dim > (1 << 22):
        raise ValueError("rank decode table too large for this label width")
    table = [-1] * dim
    taken = set()
    for block in range(dim):
        words = [(block >> (i * w)) & mask for i in range(n)]
        ranks = [v + 1 for v in words]
        if not all(1 <= ranks[i] <= n - i for i in range(n)):
            continue
        remaining = list(range(1, n + 1))
        perm = [remaining.pop(r - 1) for r in ranks]
        target = 0
        for i, p in enumerate(perm):
            target |= (p - 1) << (i * w)
        table[block] = target
        taken.add(target)
    spare = iter(t for t in range(dim) if t not in taken)
    for block in range(dim):
        if table[block] < 0:
            table[block] = next(spare)
    return tuple(table)


def decode_rank_tuple(ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation indexed by a falling-rank tuple: element i is the ranks[i]-th unused number."""
    n = len(ranks)
    if not all(1 <= ranks[i] <= n - i for i in range(n)):
        raise ValueError(f"rank component out of range in {ranks}")
    remaining = list(range(1, n + 1))
    return tuple(remaining.pop(r - 1) for r in ranks)


def encode_labels(labels, word_bits: int) -> int:
    """Pack a 1-based label tuple into a basis value, word i = labels[i] - 1."""
    block = 0
    for i, v in enumerate(labels):
        if not 1 <= v <= (1 << word_bits):
            raise ValueError(f"label {v} out of range 1..{1 << word_bits}")
        block |= (v - 1) << (i * word_bits)
    return block


def prepare_ordered_input(bank: RegisterBank, configuration, backend: str = "sparse") -> QuantumState:
    """State with A holding the ordered labels (or a superposition of them), ancillas zero.

    `configuration` is a label tuple, an OrderedConfiguration, or a list of
    (labels, amplitude) branches whose squared amplitudes sum to 1.
    """
    branches = _as_branches(configuration)
    amplitudes: dict[int, complex] = {}
    for labels, amp in branches:
        config = labels if isinstance(labels, OrderedConfiguration) else OrderedConfiguration(tuple(labels))
        if len(config.labels) != bank.n:
            raise ValueError(f"expected {bank.n} labels, got {len(config.labels)}")
        basis = encode_labels(config.labels, bank.word_bits)
        if basis in amplitudes:
            raise ValueError(f"configuration {config.labels} listed twice")
        amplitudes[basis] = amp
    return inject_state(bank.layout, amplitudes, backend)


def _as_branches(configuration) -> list[tuple[tuple[int, ...], complex]]:
    if isinstance(configuration, OrderedConfiguration):
        return [(configuration.labels, 1.0 + 0j)]
    seq = list(configuration)
    if not seq:
        raise ValueError("configuration is empty")
    if isinstance(seq[0], int):
        return [(tuple(int(v) for v in seq), 1.0 + 0j)]
    branches = []
    for labels, amp in seq:
        if isinstance(labels, OrderedConfiguration):
            labels = labels.labels
        branches.append((tuple(int(v) for v in labels), complex(amp)))
    return branches


# --------------------------------------------------------------------- stages


def superpose_ranks(state: QuantumState, bank: RegisterBank) -> None:
    """Split every branch into the uniform rank superposition on B (amplitude n!**-0.5 each)."""
    off, mask = bank.block("B")
    for b in state.support():
        if (b >> off) & mask:
            raise ValueError("register B must be zero before the rank preparation")
    blocks = bank.rank_blocks()
    coeff = 1.0 / math.sqrt(len(blocks))
    state._scatter_support(lambda b: [(b | (blk << off), coeff) for blk in blocks])


def unsuperpose_ranks(state: QuantumState, bank: RegisterBank) -> None:
    """Adjoint of superpose_ranks, defined on states in its image."""
    off, mask = bank.block("B")
    blocks = bank.rank_blocks()
    coeff = 1.0 / math.sqrt(len(blocks))
    grouped: dict[int, dict[int, complex]] = {}
    for b, a in state.to_map().items():
        grouped.setdefault(b & ~(mask << off), {})[(b >> off) & mask] = a
    merged = {}
    for base, parts in grouped.items():
        if set(parts) != set(blocks):
            raise ValueError("state is not in the image of the rank preparation")
        merged[base] = sum(parts.values()) * coeff
    state._set_map(merged)


def ranks_to_permutation(state: QuantumState, bank: RegisterBank) -> None:
    """Rewrite each B rank tuple into the permutation of 1..n it indexes, in place."""
    _apply_block_table(state, bank, _rank_decode_table(bank.n, bank.word_bits), check_ranks=True)


def permutation_to_ranks(state: QuantumState, bank: RegisterBank) -> None:
    table = _rank_decode_table(bank.n, bank.word_bits)
    inverse = [0] * len(table)
    for i, t in enumerate(table):
        inverse[t] = i
    _apply_block_table(state, bank, tuple(inverse), check_ranks=False)


def _apply_block_table(state, bank, table, check_ranks: bool) -> None:
    off, mask = bank.block("B")
    if check_ranks:
        valid = frozenset(bank.rank_blocks())
        for b in state.support():
            if ((b >> off) & mask) not in valid:
                raise ValueError("register B holds an out-of-range rank component")
    state.apply_basis_permutation(
        lambda b: (b & ~(mask << off)) | (table[(b >> off) & mask] << off)
    )


def assign_identity(state: QuantumState, bank: RegisterBank) -> None:
    """Set register C to the constant tuple (1, 2, ..., n); C must be zero."""
    off, mask = bank.block("C")
    for b in state.support():
        if (b >> off) & mask:
            raise ValueError("register C is not zero (identity already assigned?)")
    shift = bank.identity_block() << off
    state.apply_basis_permutation(lambda b: b ^ shift)


def sort_with_record(state: QuantumState, bank: RegisterBank, key: str, co_moved: tuple[str, ...]) -> None:
    """Sort the key register ascending along the fixed schedule, co-moving other registers.

    Each executed exchange sets its record bit and flips the parity bit.  The
    record slots must be zero going in; keys are compared as whole words.
    """
    schedule = bank.schedule
    rec_off, rec_mask = bank.block("rec")
    par_off, _ = bank.block("par")

    def rewrite(b: int) -> int:
        if (b >> rec_off) & rec_mask:
            raise ValueError("exchange record is not zero before sorting")
        keys = bank.get_words(b, key)
        others = {reg: bank.get_words(b, reg) for reg in co_moved}
        rec = 0
        swaps = 0
        for slot, (i, j) in enumerate(schedule):
            if keys[i] > keys[j]:
                keys[i], keys[j] = keys[j], keys[i]
                for vals in others.values():
                    vals[i], vals[j] = vals[j], vals[i]
                rec |= 1 << slot
                swaps += 1
        b = bank.set_words(b, key, keys)
        for reg, vals in others.items():
            b = bank.set_words(b, reg, vals)
        b |= rec << rec_off
        b ^= (swaps & 1) << par_off
        return b

    state._move_support(rewrite)


def unsort_with_record(state: QuantumState, bank: RegisterBank, key: str, co_moved: tuple[str, ...]) -> None:
    """Exact inverse of sort_with_record: replay the record backwards and clear it."""
    schedule = bank.schedule
    rec_off, rec_mask = bank.block("rec")
    par_off, _ = bank.block("par")

    def rewrite(b: int) -> int:
        rec = (b >> rec_off) & rec_mask
        keys = bank.get_words(b, key)
        others = {reg: bank.get_words(b, reg) for reg in co_moved}
        swaps = 0
        for slot in range(len(schedule) - 1, -1, -1):
            if rec & (1 << slot):
                i, j = schedule[slot]
                keys[i], keys[j] = keys[j], keys[i]
                for vals in others.values():
                    vals[i], vals[j] = vals[j], vals[i]
                swaps += 1
        b = bank.set_words(b, key, keys)
        for reg, vals in others.items():
            b = bank.set_words(b, reg, vals)
        b &= ~(rec_mask << rec_off)
        b ^= (swaps & 1) << par_off
        return b

    state._move_support(rewrite)


def parity_phase(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Multiply each branch by (-1)**parity-bit; identity in bose mode."""
    check_mode(mode)
    if mode == "bose":
        return
    par_off, _ = bank.block("par")
    state.apply_sign_if(lambda b: bool((b >> par_off) & 1))


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _clear_parity_bit(state, bank) -> None:
    # The parity bit equals the record's bit parity, so it can be erased
    # against the record while the record is still intact.
    rec_off, rec_mask = bank.block("rec")
    par_off, _ = bank.block("par")
    state.apply_basis_permutation(
        lambda b: b ^ ((((b >> rec_off) & rec_mask).bit_count() & 1) << par_off)
    )


def _replay_record(state, bank, register: str) -> None:
    # Replay the recorded exchanges backwards on a single register, leaving
    # the record in place.
    schedule = bank.schedule
    rec_off, rec_mask = bank.block("rec")

    def mapping(b: int) -> int:
        rec = (b >> rec_off) & rec_mask
        vals = bank.get_words(b, register)
        for slot in range(len(schedule) - 1, -1, -1):
            if rec & (1 << slot):
                i, j = schedule[slot]
                vals[i], vals[j] = vals[j], vals[i]
        return bank.set_words(b, register, vals)

    state.apply_basis_permutation(mapping)


def _redo_record(state, bank, register: str) -> None:
    # Inverse of _replay_record: apply the recorded exchanges forwards.
    schedule = bank.schedule
    rec_off, rec_mask = bank.block("rec")

    def mapping(b: int) -> int:
        rec = (b >> rec_off) & rec_mask
        vals = bank.get_words(b, register)
        for slot, (i, j) in enumerate(schedule):
            if rec & (1 << slot):
                vals[i], vals[j] = vals[j], vals[i]
        return bank.set_words(b, register, vals)

    state.apply_basis_permutation(mapping)


def _transcript(values, schedule) -> int:
    vals = list(values)
    rec = 0
    for slot, (i, j) in enumerate(schedule):
        if vals[i] > vals[j]:
            vals[i], vals[j] = vals[j], vals[i]
            rec |= 1 << slot
    return rec


def _erase_record_from(state, bank, register: str) -> None:
    # XOR the record with the transcript of sorting the named register's
    # current contents; erases it exactly when they coincide.
    schedule = bank.schedule
    rec_off, _ = bank.block("rec")
    state.apply_basis_permutation(
        lambda b: b ^ (_transcript(bank.get_words(b, register), schedule) << rec_off)
    )


def _erase_permutation_against_positions(state, bank) -> None:
    # B[i] currently holds sigma(i) and C[j] holds sigma^-1(j), so sigma(i) is
    # the position of value i in C; XORing that position into B clears it.
    def mapping(b: int) -> int:
        cvals = bank.get_words(b, "C")
        position = {}
        for idx, v in enumerate(cvals):
            position.setdefault(v + 1, idx + 1)
        bvals = bank.get_words(b, "B")
        new_b = [bv ^ (position.get(i + 1, 1) - 1) for i, bv in enumerate(bvals)]
        return bank.set_words(b, "B", new_b)

    state.apply_basis_permutation(mapping)


def _xor_constant_block(state, bank, register: str, expect: int) -> None:
    off, mask = bank.block(register)
    for b in state.support():
        if ((b >> off) & mask) != expect and ((b >> off) & mask) != 0:
            raise InvariantViolation(f"register {register} holds neither 0 nor the expected constant")
    shift = expect << off
    state.apply_basis_permutation(lambda b: b ^ shift)


# ------------------------------------------------------------------- pipeline


def antisymmetrize(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Full pipeline: ordered branches in A become (anti)symmetrized superpositions.

    Post: each input branch |psi> with amplitude a becomes n! branches
    a * s(sigma)/sqrt(n!) |sigma(psi)> with s = sgn in fermi mode and 1 in bose
    mode; registers B, C, record and parity are exactly zero on every branch.
    """
    check_mode(mode)
    for b in state.support():
        words = bank.get_words(b, "A")
        if any(x >= y for x, y in zip(words, words[1:])):
            labels = tuple(v + 1 for v in words)
            raise ValueError(f"A must hold strictly increasing labels, got {labels}")
        if not bank.ancillas_clear(b):
            raise ValueError("ancilla registers must be zero before antisymmetrization")

    superpose_ranks(state, bank)
    ranks_to_permutation(state, bank)
    assign_identity(state, bank)
    sort_with_record(state, bank, "B", ("A", "C"))
    parity_phase(state, bank, mode)
    _clear_parity_bit(state, bank)
    _replay_record(state, bank, "B")
    _erase_record_from(state, bank, "B")
    _erase_permutation_against_positions(state, bank)
    sort_with_record(state, bank, "C", ("A",))
    _clear_parity_bit(state, bank)
    _xor_constant_block(state, bank, "C", bank.identity_block())
    _replay_record(state, bank, "A")
    _erase_record_from(state, bank, "A")

    for b in state.support():
        if not bank.ancillas_clear(b):
            raise InvariantViolation("ancilla registers were not returned to zero")


def antisymmetrize_inverse(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Inverse pipeline; maps antisymmetrize's output back to the ordered input."""
    check_mode(mode)
    _erase_record_from(state, bank, "A")
    _redo_record(state, bank, "A")
    _xor_constant_block(state, bank, "C", bank.identity_block())
    _clear_parity_bit(state, bank)
    unsort_with_record(state, bank, "C", ("A",))
    _erase_permutation_against_positions(state, bank)
    _erase_record_from(state, bank, "B")
    _redo_record(state, bank, "B")
    _clear_parity_bit(state, bank)
    parity_phase(state, bank, mode)
    unsort_with_record(state, bank, "B", ("A", "C"))
    _xor_constant_block(state, bank, "C", bank.identity_block())
    permutation_to_ranks(state, bank)
    unsuperpose_ranks(state, bank)


def collapse_ancillas(
    state: QuantumState,
    bank: RegisterBank,
    target_layout: RegisterLayout | None = None,
    backend: str | None = None,
) -> QuantumState:
    """Project the pipeline output onto its A register (ancillas must be zero).

    The returned state lives on `target_layout` (defaulting to one register
    per qu-word) and shares A's bit positions, so basis values carry over.
    """
    width = bank.n * bank.word_bits
    if target_layout is None:
        target_layout = RegisterLayout.of(*((f"w{i}", bank.word_bits) for i in range(bank.n)))
    if target_layout.width != width:
        raise ValueError(f"target layout needs {width} qubits, has {target_layout.width}")
    amplitudes = {}
    for b, a in state.to_map().items():
        if b >> width:
            raise ValueError("ancilla registers are not zero; run the full pipeline first")
        amplitudes[b] = a
    return inject_state(target_layout, amplitudes, backend or state.backend)


def transposition_test(
    state: QuantumState,
    words: list[tuple[int, int]],
    i: int,
    j: int,
    mode: str = "fermi",
) -> float:
    """Largest violation of the exchange (anti)symmetry between word slots i and j.

    Returns max over basis strings of |amp(swap(b)) + amp(b)| in fermi mode
    (|amp(swap(b)) - amp(b)| in bose mode); 0 for a perfectly (anti)symmetric
    state.
    """
    check_mode(mode)
    if i == j:
        raise ValueError("word indices must differ")
    off_i, w_i = words[i]
    off_j, w_j = words[j]
    if w_i != w_j:
        raise ValueError("word slots have mismatched widths")
    mask = (1 << w_i) - 1
    keys, amps = state.gather()
    swapped = (
        (keys & ~((mask << off_i) | (mask << off_j)))
        | (((keys >> off_j) & mask) << off_i)
        | (((keys >> off_i) & mask) << off_j)
    )
    sign = -1.0 if mode == "fermi" else 1.0
    return float(np.abs(state.gather(swapped)[1] - sign * amps).max(initial=0.0))
