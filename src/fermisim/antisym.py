"""Reversible antisymmetrization of an ordered register of single-particle labels.

The input is a register A of n qu-words holding a strictly increasing label
tuple.  The pipeline turns it into the antisymmetric (or, on request,
symmetric) superposition over all n! orderings while returning every ancilla
to zero exactly:

  1. rank preparation: register B becomes a uniform superposition over
     "falling rank" tuples, B[i] in 1..n-i+1, one component per permutation;
  2. rank decode: each rank tuple is rewritten in place into the permutation
     beta it indexes (B[i] becomes the B[i]-th natural number not used so
     far), through an n!-entry table applied to the support only;
  3. record-keeping sort: a fixed compare-exchange schedule sorts B alone,
     writing one record bit per schedule slot (the transcript of beta) and
     the exchange-count parity into a parity bit; the phase (-1)**parity is
     then applied (skipped in bose mode).

Ancilla erasure replays and recomputes rather than measures: the parity bit is
cleared against the record, and the sorted B, now the constant (1, 2, ..., n),
is cleared by XORing that constant into it.  Replaying the record backwards on
the sorted A then permutes A into beta's order pattern, so the transcript of
sorting A is the record itself, and recomputing that transcript erases it.

Every step is a rewrite of the support's key array (register words are read
as int64 arrays) plus one exact sign flip, so the pipeline runs at any
register width; its cost is the n! branches per input branch,
which MAX_PARTICLES bounds.  Labels are stored as value-minus-one in binary.
`RegisterBank(n, word_bits)` lays the registers out: A and B of n words of
word_bits bits each, one record bit per schedule slot, then the parity bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from fermisim.state import (
    KEY_BITS,
    InvariantViolation,
    QuantumState,
    RegisterLayout,
    inject_state,
    positions,
    value_class,
)

MODES = ("fermi", "bose")
# Every input branch becomes n! branches carrying both word registers:
# n = 8 on m = 8 (40320 branches) prepares in about 0.45 s, and one Trotter step
# then takes 8.3-9.7 s at a 995 MB peak (labels 1,3,...,15, no readout, in a child
# process with FERMISIM_THREADS=1; 2-core Xeon, Python 3.11.7, numpy 2.4.6);
# each further particle multiplies that by n.
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


@value_class
class OrderedConfiguration:
    """Strictly increasing label tuple, the stipulated input ordering."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError(f"labels must be strictly increasing, got {self.labels}")
        if self.labels and self.labels[0] < 1:
            raise ValueError(f"labels are 1-based, got {self.labels}")


@value_class
class RegisterBank:
    """Register layout for the pipeline: A, B, exchange record, parity bit.

    A and B hold n qu-words of word_bits bits each; labels 1..2**word_bits are stored as label-1.
    """

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
        if self.n > 1 << self.word_bits:
            raise ValueError(f"{self.n} distinct labels cannot fit in {self.word_bits}-bit words")
        schedule = oblivious_schedule(self.n)
        width = self.n * self.word_bits
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "layout", RegisterLayout.of(
            ("A", width), ("B", width), ("rec", len(schedule)), ("par", 1),
        ))
        object.__setattr__(self, "_word_mask", (1 << self.word_bits) - 1)

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
        """B, record and parity all zero (elementwise on a key array)."""
        return (basis >> self.layout.offset("B")) == 0

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
    """encode_labels of every row of 1-based labels, as keys of the key dtype of that many bits."""
    dtype = RegisterLayout.of(("A", rows.shape[1] * word_bits)).key_dtype
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
    if not np.diff(np.sort(perms)).all():
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
        block |= (operator.index(v) - 1) << (i * word_bits)  # a numpy int would wrap past bit 63
    return block


def prepare_ordered_input(bank: RegisterBank, configuration) -> QuantumState:
    """State with A holding the ordered labels (or a superposition of them), ancillas zero.

    `configuration` is a label tuple, an OrderedConfiguration, or a list of
    (labels, amplitude) branches whose squared amplitudes sum to 1.
    """
    branches = _as_branches(configuration)
    amplitudes: dict[int, complex] = {}
    for labels, amp in branches:
        config = OrderedConfiguration(labels)
        if len(config.labels) != bank.n:
            raise ValueError(f"expected {bank.n} labels, got {len(config.labels)}")
        basis = encode_labels(config.labels, bank.word_bits)
        if basis in amplitudes:
            raise ValueError(f"configuration {config.labels} listed twice")
        amplitudes[basis] = amp
    return inject_state(bank.layout, amplitudes)


def _as_branches(configuration) -> list[tuple[tuple[int, ...], complex]]:
    if isinstance(configuration, OrderedConfiguration):
        return [(configuration.labels, 1.0 + 0j)]
    seq = list(configuration)
    if not seq:
        raise ValueError("configuration is empty")
    if isinstance(seq[0], (int, np.integer)):
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
    base = keys & ~(mask << off)
    order = np.argsort(base, kind="stable")
    base = base[order]
    starts = np.flatnonzero(np.concatenate(([True], base[1:] != base[:-1])))
    if (positions(blocks, values) < 0).any() or (np.diff(starts, append=len(base)) != len(blocks)).any():
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
        at = positions(sources, values)
        if (at < 0).any():
            raise ValueError(error)
        return layout.with_field(keys, "B", targets[at])

    state._move_keys(mapping)


def assign_identity(state: QuantumState, bank: RegisterBank) -> None:
    """XOR the constant tuple (1, 2, ..., n) into B: sets a zero B, clears a sorted one."""
    expect = encode_labels(range(1, bank.n + 1), bank.word_bits)
    field = bank.layout.field(state.support_keys(), "B")
    if ((field != expect) & (field != 0)).any():
        raise InvariantViolation("register B holds neither 0 nor the identity tuple")
    shift = expect << bank.layout.offset("B")
    state.apply_basis_map(lambda keys: keys ^ shift)


def sort_with_record(state: QuantumState, bank: RegisterBank) -> None:
    """Sort register B ascending along the fixed schedule.

    Each executed exchange sets its record bit and flips the parity bit.  The
    record slots must be zero going in; words are compared whole.
    """
    if bank.layout.field(state.support_keys(), "rec").any():
        raise ValueError("exchange record is not zero before sorting")
    _erase_record_from(state, bank, "B")  # the zero record becomes B's transcript
    _walk_record(state, bank, "B", forwards=True)
    _clear_parity_bit(state, bank)


def unsort_with_record(state: QuantumState, bank: RegisterBank) -> None:
    """Exact inverse of sort_with_record: its steps undone in reverse order."""
    _clear_parity_bit(state, bank)
    _walk_record(state, bank, "B", forwards=False)
    _erase_record_from(state, bank, "B")


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


def _walk_record(state, bank, register: str, forwards: bool) -> None:
    # Exchange the register's words at every schedule slot whose record bit is
    # set: forwards redoes a sort's exchanges, backwards undoes them.  The
    # record itself is left in place.
    slots = list(enumerate(bank.schedule))
    if not forwards:
        slots.reverse()

    def mapping(keys):
        rec = bank.layout.field(keys, "rec")
        vals = bank.get_words(keys, register)
        for slot, (i, j) in slots:
            hit = ((rec >> slot) & 1).astype(bool)
            vals[i], vals[j] = np.where(hit, vals[j], vals[i]), np.where(hit, vals[i], vals[j])
        return bank.with_words(keys, register, vals)

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


# ------------------------------------------------------------------- pipeline


def antisymmetrize(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Full pipeline: ordered branches in A become (anti)symmetrized superpositions.

    Post: each input branch |psi> with amplitude a becomes n! branches
    a * s(sigma)/sqrt(n!) |sigma(psi)> with s = sgn in fermi mode and 1 in bose
    mode; registers B, record and parity are exactly zero on every branch.
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
    ranks_to_permutation(state, bank)  # B = beta
    sort_with_record(state, bank)  # record = transcript(beta), B = (1..n)
    parity_phase(state, bank, mode)
    _clear_parity_bit(state, bank)
    assign_identity(state, bank)  # B = 0
    # Undoing beta's sort on the sorted A gives A beta's order pattern, so the
    # transcript of A is the record.
    _walk_record(state, bank, "A", forwards=False)
    _erase_record_from(state, bank, "A")

    if not bank.ancillas_clear(state.support_keys()).all():
        raise InvariantViolation("ancilla registers were not returned to zero")


def antisymmetrize_inverse(state: QuantumState, bank: RegisterBank, mode: str = "fermi") -> None:
    """Inverse pipeline; maps antisymmetrize's output back to the ordered input."""
    check_mode(mode)
    _erase_record_from(state, bank, "A")
    _walk_record(state, bank, "A", forwards=True)
    assign_identity(state, bank)
    _clear_parity_bit(state, bank)
    parity_phase(state, bank, mode)
    unsort_with_record(state, bank)
    permutation_to_ranks(state, bank)
    unsuperpose_ranks(state, bank)


def collapse_ancillas(
    state: QuantumState,
    bank: RegisterBank,
    target_layout: RegisterLayout | None = None,
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
    return QuantumState(target_layout, (keys, amps))


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


def exchange_violation(state: QuantumState, words: list[tuple[int, int]], mode: str = "fermi") -> float:
    """Largest `transposition_test` violation over every pair of the word slots `words`; 0 for one slot."""
    pairs = itertools.combinations(range(len(words)), 2)
    return max((transposition_test(state, words, i, j, mode) for i, j in pairs), default=0.0)
