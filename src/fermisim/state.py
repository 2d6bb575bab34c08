"""The quantum state store and the elementary operations shared by every simulator module.

Basis strings are plain ints; bit 0 is the least significant bit and belongs to
the first register of the layout.

Storage model.  A state is a set of (key, amplitude) entries, where a key is a
basis string.  The store is the support as a sorted key array `_keys` and its
nonzero amplitudes `_vals`, in the same order, and its one index is a binary
search of `_keys`: `_lookup` finds the store positions of an array of keys,
and `_read` takes the amplitudes at positions.  `_write` stores amplitudes at
positions, in place while no entry enters or leaves the support, and
otherwise rebuilds `_keys`/`_vals` once: entering keys are merged in with one
sort of the new keys and one search of the store, and exact zeros are
dropped.  A write given keys=None promises that every position is on the
support, so it is one scatter into `_vals` plus one test for an exact zero,
and the store is rebuilt only when an entry left.  Every primitive (phase and
sign, controlled gate, two-level mix, basis permutation, register QFT,
sampling) is written once on top of these.  The phase and the two-level mix
also have a form at given positions (`_scale_at`, `_mix_at`), so a caller
that knows the positions skips the lookup: a replayed Trotter step, and any
mix whose pairs `support_pairs` reads off the sorted support, as the
controlled gate's and every Trotter step's are.  `_replace`, which swaps the
whole support, and the constructor sort the new entries once, reject a
repeated key before the store is touched, and make the nonzero entries the
store, with no search or insert.  `copy` shares the read-only `_keys` and
copies `_vals`.  The norm check after every primitive is one dot product
over `_vals`, so no primitive touches all 2**Q strings.

Memo.  Work derived from one store state is kept on the state, in one dict
that `_write`, `_fill` and `copy` empty: `_memo(key, build)` runs `build()`
once per store state.  It holds the Born weights |a|**2 (`_born`), the shot
counts of each (seed, n_trials), and the readouts' site masks, so each lives
exactly as long as the store state it describes.

Register QFT.  `qft_register` is one array transform, not a gate cascade: one
`gather`, the support grouped by its key with the register cleared, the
amplitudes scattered into a (2**w x groups) block, the circuit's Hadamards and
controlled phases applied to the whole block stage by stage (`_register_qft`),
and one `_replace` that leaves the exact zeros out.  The stages make the
circuit's own products and sums in its own order, so the amplitudes are
bitwise those of the Hadamard-and-phase circuit, and the circuit's closing
bit-reversal only relabels the output keys.

Key dtype.  Keys are int64 arrays while the layout is at most KEY_BITS (62)
qubits wide; wider layouts use object arrays of Python ints, under the same
code.

Exact zeros.  An entry leaves the support only when its amplitude is exactly
zero; small amplitudes are never thresholded away.  In validation mode every
write checks the store: keys ascending, one amplitude per key, and no zero
amplitude.

The array entry points `apply_phase_where`, `apply_basis_map` and
`permute_register` take a function of the key array (or a value table) and make
no Python call per basis string.  `apply_phase_if`, `apply_sign_if` and
`apply_basis_permutation` keep their per-string callables: they evaluate the
callable over the support and call the same kernel.

Sampling.  A shot batch is the first `n_trials` SplitMix64 uniforms of the
seed, sorted; numpy.random is never imported.  `_sorted_uniforms` keeps the
last batch drawn, so every readout of one run, on any state, that uses the
same (seed, n_trials) counts against one batch instead of drawing and sorting
it again.  The shot counts are memoized, so readouts of an unchanged state
count the batch once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager

import numpy as np

# Squared-norm drift tolerated after any public mutating operation; every check
# is written `not abs(total - 1.0) <= NORM_TOL`, so a NaN norm fails it.
NORM_TOL = 1e-10
# Max deviation of U'U from the identity for accepted 2x2 gate matrices.
UNITARY_TOL = 1e-12
# `to_vector` densifies at most this many qubits: 16 bytes per basis string,
# 1 GB at 26 qubits.
DENSE_QUBIT_LIMIT = 26
# Exhaustive bijection checks in validation mode are capped at this width.
BIJECTION_CHECK_LIMIT = 20
# Layouts up to this many qubits keep their keys in int64 arrays.
KEY_BITS = 62
# Shots per `sample` call.  The one cached shot batch per (seed, N) holds one
# float64 uniform per shot (800 MB at the cap).
MAX_TRIALS = 10**8
# SplitMix64's state increment (the 64-bit golden ratio) and the two
# multipliers of its output mix; see `_splitmix64_uniforms`.
GAMMA = 0x9E3779B97F4A7C15
MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
# Shots the uniform draw computes at a time.
UNIFORM_BLOCK = 1 << 14


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee broke: a simulator bug, not a user error."""


_validation_enabled = False


def set_validation_mode(enabled: bool) -> None:
    """Toggle the global validation mode (exhaustive, exponential-cost checks)."""
    global _validation_enabled
    _validation_enabled = bool(enabled)


def validation_enabled() -> bool:
    return _validation_enabled


@contextmanager
def validation_mode(enabled: bool = True):
    """Temporarily force validation mode on (or off) within a block."""
    previous = _validation_enabled
    set_validation_mode(enabled)
    try:
        yield
    finally:
        set_validation_mode(previous)


def value_class(cls):
    """`cls` as `dataclass(frozen=True)` makes it, with no code compiled.

    The fields, `_fields`, are the annotated names in order, passed by position
    or keyword (a class attribute is the default); `__post_init__` runs after
    them.  `==` and the hash use the field tuple within one class, the repr is
    `Name(field=value, ...)`, and assignment or deletion raises AttributeError.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or len(given) < len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} by position "
                            f"and {sorted(kwargs)} by keyword")
        self.__dict__.update(given)
        post_init(self)

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {cls.__name__}")

    cls._fields, cls.__init__, cls.__eq__ = names, __init__, __eq__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__repr__ = lambda self: f"{cls.__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


def replace(obj, **changes):
    """A new value-class instance: `obj` with `changes` to its fields, built (and checked) anew."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


@value_class
class RegisterLayout:
    """Named contiguous qubit registers, listed in order of increasing qubit index.

    The first register occupies the least significant bits of the basis string,
    the next register the bits directly above it, and so on.
    """

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        spans = {}
        offset = 0
        for name, width in self.registers:
            if not name or not isinstance(name, str):
                raise ValueError(f"register name {name!r} must be a non-empty string")
            if not isinstance(width, int) or width < 0:
                raise ValueError(f"register {name!r} has invalid width {width!r}")
            if name in spans:
                raise ValueError(f"duplicate register name {name!r}")
            spans[name] = (offset, width)
            offset += width
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_width", offset)

    @classmethod
    def of(cls, *registers: tuple[str, int]) -> RegisterLayout:
        return cls(tuple((str(n), int(w)) for n, w in registers))

    @property
    def width(self) -> int:
        """Total number of qubits."""
        return self._width

    @property
    def key_dtype(self):
        """int64 up to KEY_BITS qubits, Python-int objects above."""
        return np.int64 if self._width <= KEY_BITS else object

    def keys(self, values) -> np.ndarray:
        """Basis strings as a key array of this layout's key dtype."""
        keys = np.asarray(values)
        if keys.dtype.kind in "uf" and not isinstance(values, np.ndarray):
            keys = np.asarray(values, dtype=object)  # Python ints past int64 infer as uint64 or float64
        if keys.dtype == object:
            if (np.frompyfunc(type, 1, 1)(keys) == int).all():  # plain Python ints: one range test
                out = (keys < 0) | (keys >= (1 << self.width))
                if out.any():
                    self.check_basis(keys[out][0])  # raises the out-of-range error
            else:
                keys = np.frompyfunc(self.check_basis, 1, 1)(keys)  # np.integer elements, or rejects
        elif keys.size and keys.dtype.kind not in "iu":
            raise ValueError(f"basis strings must be ints, got {keys.dtype}")
        return keys.astype(self.key_dtype, copy=False)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def _span(self, name: str) -> tuple[int, int]:
        try:
            return self._spans[name]
        except KeyError:
            raise KeyError(f"no register named {name!r}") from None

    def offset(self, name: str) -> int:
        return self._span(name)[0]

    def register_width(self, name: str) -> int:
        return self._span(name)[1]

    def qubits(self, name: str) -> range:
        off, width = self._span(name)
        return range(off, off + width)

    def field(self, basis, name: str):
        """Value held by the named register within a basis string or a key array."""
        off, width = self._span(name)
        value = (basis >> off) & ((1 << width) - 1)
        if isinstance(value, np.ndarray) and value.dtype == object and width <= KEY_BITS:
            value = value.astype(np.int64)
        return value

    def with_field(self, basis, name: str, value):
        """Basis string (or key array) with the named register set to `value`."""
        off, width = self._span(name)
        if isinstance(value, np.ndarray):
            bad = value[(value < 0) | (value >= (1 << width))]
            if bad.size:
                raise ValueError(f"value {bad[0]} does not fit register {name!r} ({width} bits)")
            if getattr(basis, "dtype", None) == object:
                value = value.astype(object)
        elif not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit register {name!r} ({width} bits)")
        mask = ((1 << width) - 1) << off
        return (basis & ~mask) | (value << off)

    def check_basis(self, basis: int) -> int:
        """`basis` as a Python int; ValueError unless it is an int within the layout."""
        if not isinstance(basis, (int, np.integer)):
            raise ValueError(f"basis string must be an int, got {type(basis).__name__}")
        if not 0 <= basis < (1 << self.width):
            raise ValueError(f"basis string {basis} out of range for {self.width} qubits")
        return int(basis)


def positions(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each of `keys` in the sorted distinct array `table`, -1 where a key is absent."""
    pos = np.searchsorted(table, keys)
    if len(table):
        pos[table[np.minimum(pos, len(table) - 1)] != keys] = -1
    else:
        pos[:] = -1
    return pos


def support_pairs(keys: np.ndarray, is_low: np.ndarray, is_high: np.ndarray, delta) -> tuple[np.ndarray, ...]:
    """(low, high, pos): the pairs (x, x + delta) with a member among the sorted distinct `keys`.

    keys[is_low] are pairs' low members and keys[is_high] high ones.  low is
    distinct and ascending and high = low + delta; pos holds the positions in
    `keys` of the lows, then of the highs, -1 for a member not in `keys`.
    x -> x + delta is increasing, so each high member's low is found by one
    search among the ascending lows, and the lows not in `keys` merge in order.
    """
    at_low, at_high = np.flatnonzero(is_low), np.flatnonzero(is_high)
    lows, partners = keys[at_low], keys[at_high] - delta  # each high member's low
    found = np.searchsorted(lows, partners)
    lone = np.append(lows, -1)[found] != partners  # a high member whose low is not in `keys` (-1 is no key)
    # Lone low j lands at its insertion point among the lows, plus j.
    dest = found[lone] + np.arange(np.count_nonzero(lone))
    held = np.ones(len(lows) + len(dest), dtype=bool)
    held[dest] = False
    rows = np.flatnonzero(held)  # where each low in `keys` lands
    pos = np.full((2, len(held)), -1)
    pos[0, rows], pos[1, dest], pos[1, rows[found[~lone]]] = at_low, at_high[lone], at_high[~lone]
    low = np.empty(len(held), dtype=keys.dtype)
    low[rows], low[dest] = lows, partners[lone]
    return low, low + delta, pos.reshape(-1)


def _splitmix64_uniforms(seed: int, n_trials: int) -> np.ndarray:
    """The first `n_trials` uniforms of SplitMix64 started from state `seed`, in stream order.

    SplitMix64 is the generator of Steele, Lea & Flood (OOPSLA 2014):
    u_i = (mix64(seed + (i+1)*GAMMA mod 2**64) >> 11) * 2**-53 for
    i = 0 .. n_trials-1, where mix64(z) is `z ^= z >> 30; z *= MIX[0];
    z ^= z >> 27; z *= MIX[1]; z ^= z >> 31` mod 2**64.  The `>> 11` and
    `2**-53` make the 53-bit float in [0, 1) that `Generator.random` makes.
    Seed 0 starts 0xE220A8397B1DCDAF, so u_0 = 0.8833108082136426.

    The generator is counter-based: each block of UNIFORM_BLOCK shots is
    computed from its own indices straight into the output, so the draw holds
    one float64 per shot plus two uint64 blocks (256 KB).  The smallest
    |k*GAMMA mod 2**64| over 1 <= k <= 10**8 is 1.30e11 (a brute-force search),
    so within MAX_TRIALS shots two seeds less than 1.3e11 apart never pass
    through the same generator state, and since mix64 is a bijection they share
    no 64-bit output.
    """
    uniforms = np.empty(n_trials)
    # Each block is mixed as uint64 words in its own slice of the output, then
    # turned into floats in place.  Array arithmetic only: uint64 arrays wrap
    # mod 2**64 silently, where numpy scalar products warn on overflow.
    words = uniforms.view(np.uint64)
    size = min(n_trials, UNIFORM_BLOCK)
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= np.uint64(GAMMA)
    shifted = np.empty(size, dtype=np.uint64)
    for start in range(0, n_trials, size):
        z = words[start : start + size]
        t = shifted[: len(z)]
        np.add(steps[: len(z)], np.uint64((seed + start * GAMMA) % (1 << 64)), out=z)
        for shift, mix in zip((30, 27), MIX):
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= np.uint64(mix)
        np.right_shift(z, 31, out=t)
        z ^= t
        z >>= 11
        # Below 2**53 after the shift, so the signed view converts exactly (and faster).
        np.multiply(z.view(np.int64), 2.0**-53, out=uniforms[start : start + size])
    return uniforms


@functools.lru_cache(maxsize=1)
def _sorted_uniforms(seed: int, n_trials: int) -> np.ndarray:
    """`_splitmix64_uniforms(seed, n_trials)` sorted in place, read-only.

    A pure function of its arguments, cached for the last pair: the readouts of
    one run share one batch, and at most one batch is held.
    """
    uniforms = _splitmix64_uniforms(seed, n_trials)
    uniforms.sort()
    uniforms.setflags(write=False)
    return uniforms


def _register_qft(layout: RegisterLayout, name: str, keys: np.ndarray, amps: np.ndarray):
    """QFT of register `name` over the entries (keys, amps): (keys, amplitudes) of every output string.

    The entries are grouped by their key with the register cleared, and the
    amplitudes fill a (2**w, groups) block: row x holds register value x of
    every group.  The block then runs through the QFT circuit.  Stage j, from
    the top bit down, is the circuit's Hadamard on bit j followed by its phases
    exp(2*pi*i / 2**(j-l+1)) on the rows with bits j and l set, for l = j-1
    down to 0.  A stage is a few array operations over the whole block, making
    the same products and sums in the same order as the gates make them one
    string pair at a time.  The circuit leaves row c holding register value
    reverse(c), so the output keys are labelled that way, not permuted.  Exact
    zeros are returned too; `_write` keeps them off the support.
    """
    width = layout.register_width(name)
    groups, column = np.unique(layout.with_field(keys, name, 0), return_inverse=True)
    block = np.zeros((1 << width, len(groups)), dtype=complex)
    block[layout.field(keys, name), column] = amps
    half = 1.0 / math.sqrt(2.0)
    for j in range(width - 1, -1, -1):
        pair = block.reshape(-1, 2, len(groups) << j)
        low, high = pair[:, 0], pair[:, 1]
        low *= half
        scaled = half * high
        np.subtract(low, scaled, out=high)
        low += scaled
        for l in range(j - 1, -1, -1):
            angle = 2.0 * math.pi / (1 << (j - l + 1))
            both = block.reshape(-1, 2, 1 << (j - l - 1), 2, len(groups) << l)[:, 1, :, 1]
            # The phase goes first, as the gate's entry does in the gate's
            # product: numpy's complex product can round differently with its
            # operands swapped.
            np.multiply(np.complex128(complex(math.cos(angle), math.sin(angle))), both, out=both)
    row = np.arange(1 << width)
    reverse = np.zeros_like(row)
    for bit in range(width):
        reverse |= ((row >> bit) & 1) << (width - 1 - bit)
    return layout.with_field(groups, name, reverse[:, None]).reshape(-1), block.reshape(-1)


def _per_string(fn: Callable[[int], object], dtype=None) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a per-basis-string callable to a function of the key array."""
    return lambda keys: np.array([fn(b) for b in keys.tolist()], dtype=dtype)


def _as_gate(matrix) -> np.ndarray:
    gate = np.asarray(matrix, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    _check_unitary(gate)
    return gate


def _check_unitary(mats: np.ndarray) -> None:
    """ValueError unless every 2x2 matrix in `mats`, of shape (..., 2, 2), is unitary.

    Written `not dev <= UNITARY_TOL`, so a NaN entry fails it.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry gives dev = nan or inf
        dev = np.abs(np.swapaxes(mats.conj(), -1, -2) @ mats - np.eye(2)).max(initial=0.0)
    if not dev <= UNITARY_TOL:
        raise ValueError("gate matrix is not unitary within 1e-12")


class QuantumState:
    """Normalized amplitudes over fixed-width basis strings.

    All mutating operations preserve the norm and verify it afterwards; a
    failed check raises InvariantViolation because it can only come from a
    simulator defect.
    """

    __slots__ = ("layout", "_keys", "_vals", "_derived")

    def __init__(self, layout: RegisterLayout, entries=None):
        """|0...0>, or the (keys, amplitudes) arrays of `entries` (keys distinct)."""
        self.layout = layout
        self._keys = layout.keys([])
        keys, amps = (layout.keys([0]), np.ones(1, dtype=complex)) if entries is None else entries
        self._fill(keys, amps)

    # ------------------------------------------------------------------ storage

    def gather(self, keys: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(keys, amplitudes at those keys); without keys, the support in ascending order.

        Without keys the arrays are read-only views of the store, valid until
        the state's next write.
        """
        if keys is None:
            vals = self._vals.view()
            vals.flags.writeable = False
            return self._keys, vals
        self._check_keys(keys, "basis string")
        return keys, self._read(self._lookup(keys))

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Store positions of in-range `keys`, -1 where a key is off the support: a binary search of `_keys`."""
        return positions(self._keys, keys)

    def _read(self, pos: np.ndarray) -> np.ndarray:
        """Amplitudes at store positions `pos`, zero where a position is -1."""
        hit = pos >= 0
        if hit.all():
            return self._vals[pos]
        amps = np.zeros(len(pos), dtype=complex)
        amps[hit] = self._vals[pos[hit]]
        return amps

    def _write(self, keys: np.ndarray | None, amps, pos: np.ndarray) -> None:
        """Store `amps` at distinct `keys`, whose store positions `_lookup(keys)` returned.

        In place unless an entry enters or leaves the support (an exact zero
        leaves); then the store is rebuilt once.  `keys` is read only for the
        entries that enter (position -1).  None promises that every position
        is on the support: the write is then one scatter and one zero test.
        """
        self._derived = {}
        amps = np.asarray(amps, dtype=complex)
        if keys is None:
            self._vals[pos] = amps
            if not amps.all():
                self._drop_zeros(self._keys, self._vals)
            self._check_store()
            return
        hit, now = pos >= 0, amps != 0
        at = slice(None) if hit.all() else hit  # every key stored: skip the mask
        self._vals[pos[at]] = amps[at]
        if (hit != now).any():
            stored, vals = self._keys, self._vals
            fresh = np.flatnonzero(now & ~hit)
            if len(fresh):
                # Merge the sorted new keys into the store: new key j lands at
                # its insertion point among the stored keys plus j.
                fresh = fresh[np.argsort(keys[fresh], kind="stable")]
                dest = np.searchsorted(stored, keys[fresh]) + np.arange(len(fresh))
                size = len(stored) + len(fresh)
                old = np.ones(size, dtype=bool)
                old[dest] = False
                merged_keys, merged_vals = np.empty(size, dtype=stored.dtype), np.empty(size, dtype=complex)
                merged_keys[dest], merged_keys[old] = keys[fresh], stored
                merged_vals[dest], merged_vals[old] = amps[fresh], vals
                stored, vals = merged_keys, merged_vals
            if (hit & ~now).any():
                self._drop_zeros(stored, vals)
            else:
                self._store(stored, vals)
        self._check_store()

    def _drop_zeros(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Make the nonzero entries of sorted (keys, vals) the whole store."""
        keep = vals != 0
        self._store(keys[keep], vals[keep])

    def _fill(self, keys: np.ndarray, amps) -> None:
        """Make the entries (keys, amps) the whole store: one sort, then the nonzero entries.

        A repeated key raises ValueError before the store is touched.
        """
        self._derived = {}
        order = np.argsort(keys, kind="stable")
        keys = keys[order].astype(self.layout.key_dtype, copy=False)
        amps = np.asarray(amps, dtype=complex)[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("the new support repeats a basis string (a map not injective on the support)")
        keep = amps != 0
        self._store(keys[keep], amps[keep])
        self._check_store()

    def _store(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Make sorted (keys, vals) the whole store, keys read-only."""
        keys.flags.writeable = False
        self._keys, self._vals = keys, vals

    def _check_store(self) -> None:
        """In validation mode, check the store: keys ascending, one amplitude per key, no zero amplitude."""
        keys, vals = self._keys, self._vals
        if validation_enabled() and not (len(keys) == len(vals) and (keys[1:] > keys[:-1]).all() and vals.all()):
            raise InvariantViolation("support store is unsorted, misaligned, or holds a zero")

    # ------------------------------------------------------------------ access

    def amplitude(self, basis: int) -> complex:
        self.layout.check_basis(basis)
        return complex(self.gather(self.layout.keys([basis]))[1][0])

    def support_keys(self) -> np.ndarray:
        """The support as a key array in ascending order, without reading amplitudes.

        The store's own read-only array, valid until the state's next write.
        """
        return self._keys

    def support(self) -> list[int]:
        """Basis strings with nonzero amplitude, in increasing order."""
        return self._keys.tolist()

    def to_map(self) -> dict[int, complex]:
        return dict(zip(self._keys.tolist(), self._vals.tolist()))

    def to_vector(self) -> np.ndarray:
        if self.layout.width > DENSE_QUBIT_LIMIT:
            raise ValueError("state too wide to densify")
        vec = np.zeros(1 << self.layout.width, dtype=complex)
        vec[self._keys] = self._vals
        return vec

    def norm(self) -> float:
        return float(np.linalg.norm(self._vals))

    def copy(self) -> QuantumState:
        """An independent state with the same entries and an empty memo of its own.

        The read-only `_keys` is shared; `_vals` is copied.
        """
        twin = QuantumState.__new__(QuantumState)
        twin.layout, twin._keys, twin._vals = self.layout, self._keys, self._vals.copy()
        twin._derived = {}
        return twin

    def _memo(self, key, build: Callable[[], object]):
        """`build()`, run once per store state and kept under `key` until the next write; an array is made read-only."""
        if key not in self._derived:
            value = self._derived[key] = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self._derived[key]

    def _born(self) -> np.ndarray:
        """The Born weight |a|**2 of each support string, aligned with `gather()`: read-only, memoized."""
        return self._memo("born", lambda: np.abs(self._vals) ** 2)

    def __repr__(self) -> str:
        keys, amps = self.gather()
        terms = [
            f"({a:.3g})|{b:0{max(self.layout.width, 1)}b}>"
            for b, a in zip(keys[:4].tolist(), amps[:4].tolist())
        ]
        if len(keys) > 4:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"QuantumState({self.layout.width} qubits, {body})"

    # ------------------------------------------------------------------ gates

    def apply_controlled_unitary(self, controls, target: int, matrix) -> None:
        """Apply a 2x2 unitary to `target` where every (qubit, value) control matches."""
        gate = _as_gate(matrix)
        controls = tuple((int(q), int(v)) for q, v in controls)
        qubits = [q for q, _ in controls] + [target]
        if len(set(qubits)) != len(qubits):
            raise ValueError("control and target qubits must be distinct")
        for q, v in controls:
            self._check_qubit(q)
            if v not in (0, 1):
                raise ValueError(f"control value must be 0 or 1, got {v}")
        self._check_qubit(target)
        keys, tbit = self._keys, 1 << target
        match = np.ones(len(keys), dtype=bool)
        for q, v in controls:
            match &= ((keys >> q) & 1) == v
        on = (keys & tbit) != 0
        low, high, pos = support_pairs(keys, match & ~on, match & on, tbit)
        self._mix_at(np.concatenate((low, high)), pos, gate)

    def apply_phase_where(self, mask_fn: Callable[[np.ndarray], np.ndarray], theta: float) -> None:
        """Multiply amplitudes by exp(i*theta) where mask_fn(keys) is true."""
        if not math.isfinite(theta):
            raise ValueError(f"phase angle must be finite, got {theta}")
        self._scale_where(mask_fn, complex(math.cos(theta), math.sin(theta)))

    def apply_phase_if(self, predicate: Callable[[int], bool], theta: float) -> None:
        """Multiply amplitudes of basis strings satisfying `predicate` by exp(i*theta)."""
        self.apply_phase_where(_per_string(predicate, bool), theta)

    def apply_sign_if(self, predicate: Callable[[int], bool]) -> None:
        """Multiply amplitudes of matching basis strings by exactly -1.

        Dedicated sign flip so reversible pipelines stay exact; exp(i*pi)
        carries a stray 1e-16 imaginary part.
        """
        self._scale_where(_per_string(predicate, bool), -1.0)

    def _scale_where(self, mask_fn, factor) -> None:
        # The keys are the whole store in order, so their positions are their indices.
        self._scale_at(np.flatnonzero(np.asarray(mask_fn(self._keys), dtype=bool)), factor)

    def _scale_at(self, pos: np.ndarray, factor) -> None:
        """Multiply the amplitudes at store positions `pos` (all on the support) by a unit `factor`."""
        self._write(None, self._vals.take(pos) * factor, pos)
        self._check_norm()

    def apply_basis_map(self, map_fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """Relabel basis strings: the amplitude at each key moves to map_fn(keys).

        The map must be a bijection on the full basis; production mode checks
        injectivity on the support, validation mode checks the whole domain
        (up to BIJECTION_CHECK_LIMIT qubits).
        """
        width = self.layout.width
        if validation_enabled() and width <= BIJECTION_CHECK_LIMIT:
            domain = np.arange(1 << width)
            if not np.array_equal(np.sort(np.asarray(map_fn(domain))), domain):
                raise ValueError("mapping is not a bijection on the basis")
        self._move_keys(map_fn)

    def apply_basis_permutation(self, mapping: Callable[[int], int]) -> None:
        """Per-string form of apply_basis_map: amplitude at b moves to mapping(b)."""
        self.apply_basis_map(_per_string(mapping))

    def permute_register(self, name: str, table: Sequence[int]) -> None:
        """Relabel one register's values through `table`, a permutation of 0..2**w-1."""
        table = np.asarray(table, dtype=np.int64)
        layout = self.layout
        self.apply_basis_map(lambda keys: layout.with_field(keys, name, table[layout.field(keys, name)]))

    def apply_two_level_mix(self, pairs: Iterable[tuple[int, int]], matrix) -> None:
        """Mix the amplitudes of each pair of basis strings by a 2x2 unitary.

        `pairs` is an iterable of (b0, b1) or an (N, 2) key array.  Pairs must
        not overlap; basis strings outside every pair are untouched.
        """
        gate = _as_gate(matrix)
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        k0, k1 = self.layout.keys(pairs).reshape(-1, 2).T
        self._check_pairs(k0, k1)
        keys = np.concatenate((k0, k1))
        self._mix_at(keys, self._lookup(keys), gate)

    def qft_register(self, name: str) -> None:
        """Quantum Fourier transform of one register, other registers untouched.

        Convention: amplitude'(k) = 2**(-w/2) * sum_x exp(2*pi*i*k*x/2**w) * amplitude(x)
        per fixed setting of the remaining registers.  Built as one array
        transform over the support (`_register_qft`) and one `_replace`; no
        gate primitive and no basis permutation runs.
        """
        if self.layout.register_width(name):
            self._replace(*_register_qft(self.layout, name, *self.gather()))

    # ------------------------------------------------------------------ readout

    def sample(self, seed: int, n_trials: int) -> dict[int, int]:
        """Draw `n_trials` basis strings from the Born distribution: {basis: count}.

        Draw j is outcome `searchsorted(cdf, u_j, side="right")` over the
        support in ascending key order, the rule `Generator.choice` applies,
        with the cdf built as choice builds it and u_j the j-th uniform of
        SplitMix64 started from state `seed` (specified on
        `_splitmix64_uniforms`).  So the stream is fully determined by the 64
        bit seed.  The draws are counted rather than indexed: outcome i gets
        the sorted uniforms of `_sorted_uniforms(seed, n_trials)` that fall in
        [cdf[i-1], cdf[i]).  The batch holds one float64 per shot, hence at
        most MAX_TRIALS shots.
        """
        counts = self._sample_counts(seed, n_trials)
        drawn = np.flatnonzero(counts)
        return dict(zip(self._keys[drawn].tolist(), counts[drawn].tolist()))

    def _sample_counts(self, seed: int, n_trials: int) -> np.ndarray:
        """`sample` as a read-only array: the shot count of each support string, aligned with `gather()`.

        Memoized under (seed, n_trials), so another readout of the same store
        state and batch returns the same array.
        """
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not isinstance(n_trials, (int, np.integer)) or not 1 <= n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must be an integer in [1, {MAX_TRIALS}], got {n_trials!r}")
        batch = (int(seed), int(n_trials))

        def count():
            born = self._born()
            total = born.sum()
            if not abs(total - 1.0) <= NORM_TOL:
                raise InvariantViolation(f"sampling a state with squared norm {total}")
            # The cdf is built exactly as Generator.choice builds it.
            cdf = (born / total).cumsum()
            cdf /= cdf[-1]
            return np.diff(np.searchsorted(_sorted_uniforms(*batch), cdf, side="left"), prepend=0)

        return self._memo(batch, count)

    def inner_product(self, other: QuantumState) -> complex:
        """<self|other>; both states must share the same register layout."""
        if self.layout != other.layout:
            raise ValueError("inner product requires identical register layouts")
        return complex(np.vdot(self._vals, other.gather(self._keys)[1]))

    # ------------------------------------------------------------------ plumbing

    def _check_qubit(self, q: int) -> None:
        if not isinstance(q, (int, np.integer)) or not 0 <= q < self.layout.width:
            raise ValueError(f"qubit index {q} out of range for {self.layout.width} qubits")

    def _check_keys(self, keys: np.ndarray, what: str) -> None:
        bad = keys[(keys < 0) | (keys >= (1 << self.layout.width))]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} out of range for {self.layout.width} qubits")

    def _check_pairs(self, k0: np.ndarray, k1: np.ndarray) -> None:
        """ValueError unless the pairs (k0[i], k1[i]) are disjoint and every key is in range."""
        flat = np.sort(np.concatenate((k0, k1)))
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("two-level pairs overlap")
        self._check_keys(k0, "basis string")
        self._check_keys(k1, "basis string")

    def _check_norm(self) -> None:
        total = float(np.vdot(self._vals, self._vals).real)
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"squared norm drifted to {total!r}")

    def _mix_at(self, keys: np.ndarray | None, pos: np.ndarray, gate) -> None:
        """Apply `gate` to the amplitude pairs at store positions (pos[i], pos[n + i]), n = len(pos) / 2.

        `keys` are the keys at `pos`, as `_write` takes them: None promises
        that every position is on the support, and the amplitudes are read
        with one `take`.  `gate` is a 2x2 array, or rows ((g00, g01), (g10,
        g11)) whose entries are scalars or arrays with one entry per pair, so
        pair i is mixed by its own matrix.  The caller guarantees what
        `apply_two_level_mix` checks: a unitary gate, keys of this layout in
        range, disjoint pairs.  Internal callers build these by construction
        and skip the checks; in validation mode they run here on given keys,
        as the public method runs them.
        """
        (g00, g01), (g10, g11) = gate
        half = len(pos) // 2
        if keys is not None and validation_enabled():
            _check_unitary(np.stack(np.broadcast_arrays(g00, g01, g10, g11), axis=-1).reshape(-1, 2, 2))
            self._check_pairs(keys[:half], keys[half:])
        amps = self._read(pos) if keys is not None else self._vals.take(pos)
        a0, a1 = amps[:half], amps[half:]
        # g00*a0 + g01*a1, then g10*a0 + g11*a1, each summed into its half of the output.
        out = np.empty_like(amps)
        np.multiply(g00, a0, out=out[:half])
        out[:half] += g01 * a1
        np.multiply(g10, a0, out=out[half:])
        out[half:] += g11 * a1
        self._write(keys, out, pos)
        self._check_norm()

    def _replace(self, keys: np.ndarray, amps: np.ndarray) -> None:
        """Swap the whole support for distinct (keys, amps) (`_fill`), then check the norm."""
        self._fill(keys, amps)
        self._check_norm()

    def _move_keys(self, map_fn) -> None:
        """Relocate amplitudes along map_fn; `_replace` rejects a map not injective on the support."""
        keys, amps = self.gather()
        targets = self.layout.keys(map_fn(keys))
        self._check_keys(targets, "mapping sent a basis string to")
        self._replace(targets, amps)


def init_basis_state(layout: RegisterLayout, bits: int) -> QuantumState:
    """State with amplitude 1 on the given basis string and 0 elsewhere."""
    layout.check_basis(bits)
    return QuantumState(layout, (layout.keys([bits]), np.ones(1, dtype=complex)))


def inject_state(layout: RegisterLayout, amplitudes: Mapping[int, complex]) -> QuantumState:
    """Build a state from an explicit amplitude map, which must be normalized."""
    total = 0.0
    for b, a in amplitudes.items():
        layout.check_basis(b)
        total += abs(a) ** 2
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"amplitude map has squared norm {total}, expected 1 within 1e-10")
    keys = layout.keys(list(amplitudes))
    return QuantumState(layout, (keys, np.array(list(amplitudes.values()), dtype=complex)))


def check_layout(state: QuantumState, encoding) -> None:
    """ValueError unless `encoding` is a layout and `state` holds exactly its registers."""
    register_layout = getattr(encoding, "register_layout", None)
    if register_layout is None:
        raise ValueError(f"unsupported layout type {type(encoding).__name__}")
    if state.layout != register_layout():
        raise ValueError("state register layout does not match the given encoding")
