"""Reversible antisymmetrization of an ordered register of single-particle labels.

The input is a register A of n qu-words holding a strictly increasing label
tuple.  The pipeline turns it into the antisymmetric (or, on request,
symmetric) superposition over all n! orderings while returning every ancilla
to zero exactly:

  1. rank preparation: register B becomes a uniform superposition over
     "falling rank" tuples, B[i] in 1..n-i+1, one component per permutation;
  2. rank decode: each rank tuple is rewritten in place into the permutation
     it indexes (B[i] becomes the B[i]-th natural number not used so far),
     through an n!-entry table applied to the support only;
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

Every step is a rewrite of the support's key array (register words are read
as int64 arrays) plus one exact sign flip, so the pipeline runs on the sparse
backend at any register width; its cost is the n! branches per input branch,
which MAX_PARTICLES bounds.  Labels are stored as value-minus-one in binary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fermisim.state import (
    KEY_BITS,
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    distinct_keys,
    inject_state,
)

MODES = ("fermi", "bose")
# Every input branch becomes n! branches carrying all three word registers:
# n = 8 on m = 8 (40320 branches) takes about a minute and 1.6 GB end to end,
# and each further particle multiplies that by n.
MAX_PARTICLES = 8


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
        if self.n > MAX_PARTICLES:
            raise ValueError(f"{self.n} particles exceed the limit of {MAX_PARTICLES}")
        # The stages read words as int64 arrays.
        if not isinstance(self.word_bits, int) or not 1 <= self.word_bits <= KEY_BITS:
            raise ValueError(f"word width must be an integer in 1..{KEY_BITS}, got {self.word_bits!r}")
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

    def get_words(self, basis, name: str) -> list:
        """The register's words: ints for a basis string, int64 arrays for a key array."""
        off = self.layout.offset(name)
        w = self.word_bits
        words = [(basis >> (off + i * w)) & self._word_mask for i in range(self.n)]
        return [v.astype(np.int64) for v in words] if isinstance(basis, np.ndarray) else words

    def with_words(self, keys: np.ndarray, name: str, words) -> np.ndarray:
        """Key array with the register's words replaced by the arrays `words`."""
        off, mask = self.block(name)
        keys = keys & ~(mask << off)
        for i, v in enumerate(words):
            keys = keys | (v.astype(keys.dtype) << (off + i * self.word_bits))
        return keys

    def word_slices(self, name: str) -> list[tuple[int, int]]:
        off = self.layout.offset(name)
        w = self.word_bits
        return [(off + i * w, w) for i in range(self.n)]

    def ancillas_clear(self, basis):
        """B, C, record and parity all zero (elementwise on a key array)."""
        return (basis >> self.layout.offset("B")) == 0

    def identity_block(self) -> int:
        """Packed encoding of the constant tuple (1, 2, ..., n)."""
        return encode_labels(range(1, self.n + 1), self.word_bits)

    def rank_blocks(self) -> np.ndarray:
        """Packed encodings of every falling-rank tuple, ascending (shared; do not modify)."""
        return _decode_table(self.n, self.word_bits)[0]


def _rows(tuples, n: int) -> np.ndarray:
    """An iterable of n-tuples of ints as an int64 array with one row per tuple."""
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.int64).reshape(-1, n)


def _rank_tuples(n: int) -> np.ndarray:
    """Every falling-rank tuple (B[i] in 1..n-i), n! rows in lexicographic order."""
    return _rows(itertools.product(*(range(1, n - i + 1) for i in range(n))), n)


def _pack_rows(rows: np.ndarray, word_bits: int) -> np.ndarray:
    """encode_labels of every row of 1-based labels, as int64 keys up to KEY_BITS bits, Python ints above."""
    dtype = np.int64 if rows.shape[1] * word_bits <= KEY_BITS else object
    packed = np.zeros(len(rows), dtype=dtype)
    for i, column in enumerate((rows - 1).astype(dtype).T):
        packed |= column << (i * word_bits)
    return packed


@lru_cache(maxsize=None)
def _decode_table(n: int, word_bits: int, inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rank decode (or its inverse) on the n! rank blocks: (sources ascending, targets).

    decode_rank_tuple is a Lehmer decode: it sends the rank tuples, in
    lexicographic order, to the permutations of 1..n in lexicographic order,
    so the targets come from itertools.permutations row for row.  The n!
    targets are checked distinct once, here, which makes the decode a
    bijection between rank blocks and permutations.
    """
    blocks = _pack_rows(_rank_tuples(n), word_bits)
    perms = _pack_rows(_rows(itertools.permutations(range(1, n + 1)), n), word_bits)
    if distinct_keys(perms).size != perms.size:
        raise InvariantViolation("rank decode sends two rank tuples to one permutation")
    sources, targets = (perms, blocks) if inverse else (blocks, perms)
    order = np.argsort(sources, kind="stable")
    return sources[order], targets[order]


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
    keys, amps = state.gather()
    if bank.layout.field(keys, "B").any():
        raise ValueError("register B must be zero before the rank preparation")
    blocks = bank.rank_blocks().astype(keys.dtype) << bank.layout.offset("B")
    coeff = 1.0 / math.sqrt(len(blocks))
    # B is zero on every key, so the n! targets of each key are distinct from all others.
    state._replace((keys[:, None] | blocks).ravel(), np.repeat(amps, len(blocks)) * coeff)


def unsuperpose_ranks(state: QuantumState, bank: RegisterBank) -> None:
    """Adjoint of superpose_ranks, defined on states in its image."""
    # Group the support by its bits outside B.  In the image every group holds
    # each rank block once; keys are distinct, so a group of n! entries whose
    # B values are all rank blocks holds each of them.
    off, mask = bank.block("B")
    keys, amps = state.gather()
    values = bank.layout.field(keys, "B")
    blocks = bank.rank_blocks().astype(values.dtype)
    at = np.minimum(np.searchsorted(blocks, values), len(blocks) - 1)
    base = keys & ~(mask << off)
    order = np.argsort(base, kind="stable")
    base = base[order]
    starts = np.flatnonzero(np.concatenate(([True], base[1:] != base[:-1])))
    if (blocks[at] != values).any() or (np.diff(starts, append=len(base)) != len(blocks)).any():
        raise ValueError("state is not in the image of the rank preparation")
    coeff = 1.0 / math.sqrt(len(blocks))
    state._replace(base[starts], np.add.reduceat(amps[order], starts) * coeff)


def ranks_to_permutation(state: QuantumState, bank: RegisterBank) -> None:
    """Rewrite each B rank tuple into the permutation of 1..n it indexes, in place."""
    _relabel_b(state, bank, _decode_table(bank.n, bank.word_bits),
               "register B holds an out-of-range rank component")


def permutation_to_ranks(state: QuantumState, bank: RegisterBank) -> None:
    _relabel_b(state, bank, _decode_table(bank.n, bank.word_bits, inverse=True),
               "register B does not hold a permutation")


def _relabel_b(state, bank, table, error: str) -> None:
    # B moves from sources[k] to targets[k]; the table covers the support only,
    # so _move_keys checks injectivity there instead of on the full domain.
    sources, targets = table
    layout = bank.layout

    def mapping(keys):
        values = layout.field(keys, "B")
        at = np.minimum(np.searchsorted(sources, values), len(sources) - 1)
        if (sources[at] != values).any():
            raise ValueError(error)
        return layout.with_field(keys, "B", targets[at])

    state._move_keys(mapping)


def assign_identity(state: QuantumState, bank: RegisterBank) -> None:
    """Set register C to the constant tuple (1, 2, ..., n); C must be zero."""
    if bank.layout.field(state.support_keys(), "C").any():
        raise ValueError("register C is not zero (identity already assigned?)")
    _xor_constant_block(state, bank, "C", bank.identity_block())


def sort_with_record(state: QuantumState, bank: RegisterBank, key: str, co_moved: tuple[str, ...]) -> None:
    """Sort the key register ascending along the fixed schedule, co-moving other registers.

    Each executed exchange sets its record bit and flips the parity bit.  The
    record slots must be zero going in; keys are compared as whole words.
    """
    if bank.layout.field(state.support_keys(), "rec").any():
        raise ValueError("exchange record is not zero before sorting")
    _erase_record_from(state, bank, key)  # the zero record becomes the key's transcript
    _walk_record(state, bank, (key, *co_moved), forwards=True)
    _clear_parity_bit(state, bank)


def unsort_with_record(state: QuantumState, bank: RegisterBank, key: str, co_moved: tuple[str, ...]) -> None:
    """Exact inverse of sort_with_record: its steps undone in reverse order."""
    _clear_parity_bit(state, bank)
    _walk_record(state, bank, (key, *co_moved), forwards=False)
    _erase_record_from(state, bank, key)


def parity_phase(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Multiply each branch by (-1)**parity-bit; identity in bose mode."""
    check_mode(mode)
    if mode == "bose":
        return
    state._scale_where(lambda keys: bank.layout.field(keys, "par") == 1, -1.0)


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _clear_parity_bit(state, bank) -> None:
    # XOR the record's bit parity into the parity bit.  After a sort the two
    # are equal, so this erases the parity bit while the record is intact.
    par_off = bank.layout.offset("par")
    state.apply_basis_map(
        lambda keys: keys ^ (
            (np.bitwise_count(bank.layout.field(keys, "rec")) & 1).astype(keys.dtype) << par_off
        )
    )


def _walk_record(state, bank, registers: tuple[str, ...], forwards: bool) -> None:
    # Exchange the registers' words at every schedule slot whose record bit is
    # set: forwards redoes a sort's exchanges, backwards undoes them.  The
    # record itself is left in place.
    slots = list(enumerate(bank.schedule))
    if not forwards:
        slots.reverse()

    def mapping(keys):
        rec = bank.layout.field(keys, "rec")
        words = [bank.get_words(keys, reg) for reg in registers]
        for slot, (i, j) in slots:
            hit = ((rec >> slot) & 1).astype(bool)
            for vals in words:
                vals[i], vals[j] = np.where(hit, vals[j], vals[i]), np.where(hit, vals[i], vals[j])
        for reg, vals in zip(registers, words):
            keys = bank.with_words(keys, reg, vals)
        return keys

    state.apply_basis_map(mapping)


def _transcript(values, schedule) -> np.ndarray:
    # Record bits of sorting the word arrays `values` along the schedule.
    vals = list(values)
    rec = np.zeros(len(vals[0]), dtype=np.int64)
    for slot, (i, j) in enumerate(schedule):
        rec |= (vals[i] > vals[j]).astype(np.int64) << slot
        vals[i], vals[j] = np.minimum(vals[i], vals[j]), np.maximum(vals[i], vals[j])
    return rec


def _erase_record_from(state, bank, register: str) -> None:
    # XOR the record with the transcript of sorting the named register's
    # current contents; erases it exactly when they coincide.
    rec_off = bank.layout.offset("rec")
    state.apply_basis_map(
        lambda keys: keys ^ (
            _transcript(bank.get_words(keys, register), bank.schedule).astype(keys.dtype) << rec_off
        )
    )


def _erase_permutation_against_positions(state, bank) -> None:
    # B[i] currently holds sigma(i) and C[j] holds sigma^-1(j), so sigma(i) is
    # the position of value i in C; XORing that position into B clears it.
    # Where i occurs more than once its first position counts, and 0 where it
    # does not occur.
    def mapping(keys):
        cvals = bank.get_words(keys, "C")
        bvals = bank.get_words(keys, "B")
        for i in range(bank.n):
            position = np.zeros(len(keys), dtype=np.int64)
            for j in reversed(range(bank.n)):
                position = np.where(cvals[j] == i, j, position)
            bvals[i] = bvals[i] ^ position
        return bank.with_words(keys, "B", bvals)

    state.apply_basis_map(mapping)


def _xor_constant_block(state, bank, register: str, expect: int) -> None:
    field = bank.layout.field(state.support_keys(), register)
    if ((field != expect) & (field != 0)).any():
        raise InvariantViolation(f"register {register} holds neither 0 nor the expected constant")
    shift = expect << bank.layout.offset(register)
    state.apply_basis_map(lambda keys: keys ^ shift)


# ------------------------------------------------------------------- pipeline


def antisymmetrize(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Full pipeline: ordered branches in A become (anti)symmetrized superpositions.

    Post: each input branch |psi> with amplitude a becomes n! branches
    a * s(sigma)/sqrt(n!) |sigma(psi)> with s = sgn in fermi mode and 1 in bose
    mode; registers B, C, record and parity are exactly zero on every branch.
    """
    check_mode(mode)
    # The first offending string in key order names the error, A before ancillas.
    keys = state.support_keys()
    words = np.array(bank.get_words(keys, "A"))  # one row per word
    unordered = (words[:-1] >= words[1:]).any(axis=0)
    bad = np.flatnonzero(unordered | ~bank.ancillas_clear(keys))
    if bad.size and unordered[bad[0]]:
        labels = tuple((words[:, bad[0]] + 1).tolist())
        raise ValueError(f"A must hold strictly increasing labels, got {labels}")
    if bad.size:
        raise ValueError("ancilla registers must be zero before antisymmetrization")

    superpose_ranks(state, bank)
    ranks_to_permutation(state, bank)
    assign_identity(state, bank)
    sort_with_record(state, bank, "B", ("A", "C"))
    parity_phase(state, bank, mode)
    _clear_parity_bit(state, bank)
    _walk_record(state, bank, ("B",), forwards=False)
    _erase_record_from(state, bank, "B")
    _erase_permutation_against_positions(state, bank)
    sort_with_record(state, bank, "C", ("A",))
    _clear_parity_bit(state, bank)
    _xor_constant_block(state, bank, "C", bank.identity_block())
    _walk_record(state, bank, ("A",), forwards=False)
    _erase_record_from(state, bank, "A")

    if not bank.ancillas_clear(state.support_keys()).all():
        raise InvariantViolation("ancilla registers were not returned to zero")


def antisymmetrize_inverse(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Inverse pipeline; maps antisymmetrize's output back to the ordered input."""
    check_mode(mode)
    _erase_record_from(state, bank, "A")
    _walk_record(state, bank, ("A",), forwards=True)
    _xor_constant_block(state, bank, "C", bank.identity_block())
    _clear_parity_bit(state, bank)
    unsort_with_record(state, bank, "C", ("A",))
    _erase_permutation_against_positions(state, bank)
    _erase_record_from(state, bank, "B")
    _walk_record(state, bank, ("B",), forwards=True)
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
    keys, amps = state.gather()
    if (keys >> width).any():
        raise ValueError("ancilla registers are not zero; run the full pipeline first")
    return QuantumState(target_layout, backend or state.backend, (target_layout.keys(keys), amps))


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
