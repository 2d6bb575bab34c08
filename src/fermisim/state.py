"""Quantum state backends and the elementary operations shared by every simulator module.

Basis strings are plain ints; bit 0 is the least significant bit and belongs to
the first register of the layout.

Storage model.  A state is a set of (key, amplitude) entries, where a key is a
basis string.  Both backends keep the support as a sorted key array `_keys`.
The dense backend stores the amplitudes in a complex vector `_vec` of length
2**Q, and `_keys` equals the indices of its nonzero entries; the sparse backend
keeps `_vals`, the amplitudes of `_keys` in the same order.  On both backends
`_vals` is the amplitude store (the dense one aliases `_vec`).  The norm check
after every primitive never scans all 2**Q entries: the sparse backend takes
one dot product over `_vals`, and the dense one reads a running squared norm
`_norm2` that every write updates from the entries it overwrites.  Each backend
implements one storage step in two halves: `_lookup` reads the amplitudes at
an array of keys and says where they sit (the dense vector index itself, or
the sparse insertion positions), and `_write` stores new amplitudes at those
keys from that location and updates `_keys` where an entry turns zero or
nonzero, without scanning the dense vector.  `gather` (read the amplitudes at
keys, by default the whole support in ascending key order) and `_scatter`
(write them) are each built from the two halves, and every primitive (phase
and sign, controlled gate, basis permutation, sampling) is written once on top
of `gather` and `_scatter`.  `_replace`, which swaps the whole support, clears
the store and makes one `_scatter`.  The two-level mix `_mix`, the step of
every hop, calls `_lookup` once on its 2N keys and hands the read amplitudes
and locations to `_write`.  No primitive touches all 2**Q strings.

Key dtype.  Keys are int64 arrays while the layout is at most KEY_BITS (62)
qubits wide; wider layouts use object arrays of Python ints, under the same
code.

Exact zeros.  An entry leaves the support, on either backend, only when its
amplitude is exactly zero; small amplitudes are never thresholded away.  In
validation mode the dense `_scatter` checks `_keys` against a full scan of
`_vec`.

The array entry points `apply_phase_where`, `apply_basis_map` and
`permute_register` take a function of the key array (or a value table) and make
no Python call per basis string.  `apply_phase_if`, `apply_sign_if` and
`apply_basis_permutation` keep their per-string callables: they evaluate the
callable over the support and call the same kernel.

Sampling.  A shot batch is the `n_trials` uniforms `Generator.choice` would
draw from the seed, sorted.  `_sorted_uniforms` keeps the last batch drawn, so
every readout of one run, on any state, that uses the same (seed, n_trials)
counts against one batch instead of drawing and sorting it again.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Squared-norm drift tolerated after any public mutating operation; every check
# is written `not abs(total - 1.0) <= NORM_TOL`, so a NaN norm fails it.
NORM_TOL = 1e-10
# Max deviation of U'U from the identity for accepted 2x2 gate matrices.
UNITARY_TOL = 1e-12
# Dense statevectors refuse to allocate beyond this many qubits.
DENSE_QUBIT_LIMIT = 26
# Exhaustive bijection checks in validation mode are capped at this width.
BIJECTION_CHECK_LIMIT = 20
# Layouts up to this many qubits keep their keys in int64 arrays.
KEY_BITS = 62
# Shots per `sample` call.  The one cached shot batch per (seed, N) holds one
# float64 uniform per shot (800 MB at the cap).
MAX_TRIALS = 10**8

BACKENDS = ("dense", "sparse")


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


@dataclass(frozen=True)
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


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted keys with duplicates removed (sort plus adjacent differences)."""
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


@functools.lru_cache(maxsize=1)
def _sorted_uniforms(seed: int, n_trials: int) -> np.ndarray:
    """The `n_trials` uniforms `default_rng(seed)` hands `Generator.choice`, sorted, read-only.

    A pure function of its arguments, cached for the last pair: the readouts of
    one run share one batch, and at most one batch is held.
    """
    uniforms = np.random.default_rng(seed).random(n_trials)
    uniforms.sort()
    uniforms.setflags(write=False)
    return uniforms


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
    """Normalized amplitudes over fixed-width basis strings, dense or sparse.

    All mutating operations preserve the norm and verify it afterwards; a
    failed check raises InvariantViolation because it can only come from a
    simulator defect.
    """

    __slots__ = ("layout", "_vec", "_keys", "_vals", "_norm2")

    def __init__(self, layout: RegisterLayout, backend: str = "dense", entries=None):
        """|0...0>, or the (keys, amplitudes) arrays of `entries` (keys distinct)."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
        if backend == "dense" and layout.width > DENSE_QUBIT_LIMIT:
            raise ValueError(
                f"dense backend limited to {DENSE_QUBIT_LIMIT} qubits, layout has {layout.width}"
            )
        self.layout = layout
        self._keys = layout.keys([])
        self._norm2 = 0.0
        if backend == "dense":
            self._vec = self._vals = np.zeros(1 << layout.width, dtype=complex)
        else:
            self._vec, self._vals = None, np.zeros(0, dtype=complex)
        if entries is None:
            entries = (layout.keys([0]), np.ones(1, dtype=complex))
        self._scatter(*entries)

    @property
    def backend(self) -> str:
        return "dense" if self._vec is not None else "sparse"

    @property
    def num_qubits(self) -> int:
        return self.layout.width

    # ------------------------------------------------------------------ storage

    def gather(self, keys: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(keys, amplitudes at those keys); without keys, the support in ascending order.

        The returned arrays may share memory with the state; do not modify them.
        """
        if keys is None:
            if self._vec is None:
                return self._keys, self._vals
            keys = self._keys
        else:
            self._check_keys(keys, "basis string")
        return keys, self._lookup(keys)[0]

    def _scatter(self, keys: np.ndarray, amps) -> None:
        """Write the amplitudes `amps` at distinct `keys`; other entries are untouched."""
        self._write(keys, amps, *self._lookup(keys))

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, object]:
        """Amplitudes at in-range `keys` (zero off the support), and where the keys sit.

        The location is what `_write` needs to store at the same keys: None on
        the dense backend, whose keys index `_vec` directly, and on the sparse
        one the insertion positions of `keys` in `_keys` with whether each is
        stored.
        """
        if self._vec is not None:
            return self._vec[keys], None
        pos = np.searchsorted(self._keys, keys)
        if len(self._keys):
            hit = self._keys[np.minimum(pos, len(self._keys) - 1)] == keys
        else:
            hit = np.zeros(len(pos), dtype=bool)
        amps = np.zeros(len(keys), dtype=complex)
        amps[hit] = self._vals[pos[hit]]
        return amps, (pos, hit)

    def _write(self, keys: np.ndarray, amps, old: np.ndarray, where) -> None:
        """Store `amps` at distinct `keys`; `old, where` is what `_lookup(keys)` returned."""
        amps = np.asarray(amps, dtype=complex)
        if self._vec is not None:
            # Dense: the support keys change only where a written entry turns
            # zero or nonzero, so only then is `_keys` rebuilt, from itself.
            # The running squared norm moves by what the write changed.
            self._vec[keys] = amps
            self._norm2 += float(np.vdot(amps, amps).real - np.vdot(old, old).real)
            was, now = old != 0, amps != 0
            if (was != now).any():
                stored = self._keys
                if (was & ~now).any():
                    stored = stored[self._vec[stored] != 0]
                fresh = np.sort(keys[now & ~was])
                self._keys = np.insert(stored, np.searchsorted(stored, fresh), fresh)
            if validation_enabled() and not np.array_equal(self._keys, np.flatnonzero(self._vec)):
                raise InvariantViolation("dense support keys disagree with the amplitude vector")
            return
        # Sparse: update the keys already stored, insert the new nonzero ones
        # in key order, then drop entries that became exactly zero.  The old
        # arrays are never modified in place, since gather() hands them out.
        pos, hit = where
        vals = self._vals.copy()
        vals[pos[hit]] = amps[hit]
        stored = self._keys
        fresh = ~hit & (amps != 0)
        if fresh.any():
            order = np.argsort(keys[fresh], kind="stable")
            at = pos[fresh][order]
            stored = np.insert(stored, at, keys[fresh][order])
            vals = np.insert(vals, at, amps[fresh][order])
        keep = vals != 0
        if not keep.all():
            stored, vals = stored[keep], vals[keep]
        self._keys, self._vals = stored, vals

    # ------------------------------------------------------------------ access

    def amplitude(self, basis: int) -> complex:
        self.layout.check_basis(basis)
        return complex(self.gather(self.layout.keys([basis]))[1][0])

    def support_keys(self) -> np.ndarray:
        """The support as a key array in ascending order, without reading amplitudes.

        The array is the state's own; do not modify it.
        """
        return self._keys

    def support(self) -> list[int]:
        """Basis strings with nonzero amplitude, in increasing order."""
        return self._keys.tolist()

    def to_map(self) -> dict[int, complex]:
        keys, amps = self.gather()
        return dict(zip(keys.tolist(), amps.tolist()))

    def to_vector(self) -> np.ndarray:
        if self.layout.width > DENSE_QUBIT_LIMIT:
            raise ValueError("state too wide to densify")
        keys, amps = self.gather()
        vec = np.zeros(1 << self.layout.width, dtype=complex)
        vec[keys] = amps
        return vec

    def norm(self) -> float:
        return float(np.linalg.norm(self._vals))

    def copy(self) -> QuantumState:
        return QuantumState(self.layout, self.backend, self.gather())

    def __repr__(self) -> str:
        keys, amps = self.gather()
        terms = [
            f"({a:.3g})|{b:0{max(self.layout.width, 1)}b}>"
            for b, a in zip(keys[:4].tolist(), amps[:4].tolist())
        ]
        if len(keys) > 4:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"QuantumState({self.backend}, {self.layout.width} qubits, {body})"

    # ------------------------------------------------------------------ gates

    def apply_single_qubit_unitary(self, qubit: int, matrix) -> None:
        """Apply a 2x2 unitary to one qubit."""
        self.apply_controlled_unitary((), qubit, matrix)

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
        tbit = 1 << target
        keys = self._keys
        for q, v in controls:
            keys = keys[((keys >> q) & 1) == v]
        low = distinct_keys(keys & ~tbit)
        self._mix(low, low | tbit, gate)

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
        keys, amps = self.gather()
        selected = np.asarray(mask_fn(keys), dtype=bool)
        self._scatter(keys[selected], amps[selected] * factor)
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
        self._mix(k0, k1, gate)

    def qft_register(self, name: str) -> None:
        """Quantum Fourier transform of one register, other registers untouched.

        Convention: amplitude'(k) = 2**(-w/2) * sum_x exp(2*pi*i*k*x/2**w) * amplitude(x)
        per fixed setting of the remaining registers.
        """
        width = self.layout.register_width(name)
        offset = self.layout.offset(name)
        if width == 0:
            return
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        hadamard = np.array([[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]])
        for j in range(width - 1, -1, -1):
            self.apply_single_qubit_unitary(offset + j, hadamard)
            for l in range(j - 1, -1, -1):
                angle = 2.0 * math.pi / (1 << (j - l + 1))
                phase = np.array([[1.0, 0.0], [0.0, complex(math.cos(angle), math.sin(angle))]])
                self.apply_controlled_unitary(((offset + l, 1),), offset + j, phase)
        # The cascade leaves the output bits in reversed significance order.
        self.permute_register(name, [int(f"{x:0{width}b}"[::-1], 2) for x in range(1 << width)])

    # ------------------------------------------------------------------ readout

    def sample(self, seed: int, n_trials: int) -> dict[int, int]:
        """Draw `n_trials` basis strings from the Born distribution: {basis: count}.

        The draws are those of `np.random.default_rng(seed).choice(len(support),
        n_trials, p=born)` over the support in ascending key order, so the
        stream is fully determined by the 64 bit seed and equal on both
        backends.  They are counted rather than indexed: outcome i gets the
        sorted uniforms of `_sorted_uniforms(seed, n_trials)` that fall in
        [cdf[i-1], cdf[i]).  The batch holds one float64 per shot, hence at
        most MAX_TRIALS shots.
        """
        keys, counts = self._sample_counts(seed, n_trials)
        return dict(zip(keys.tolist(), counts.tolist()))

    def _sample_counts(self, seed: int, n_trials: int) -> tuple[np.ndarray, np.ndarray]:
        """`sample` as arrays: the drawn keys in ascending order and their nonzero counts."""
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not isinstance(n_trials, (int, np.integer)) or not 1 <= n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must be an integer in [1, {MAX_TRIALS}], got {n_trials!r}")
        keys, amps = self.gather()
        probs = np.abs(amps) ** 2
        total = probs.sum()
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"sampling a state with squared norm {total}")
        probs /= total
        # The cdf and the uniforms are built exactly as Generator.choice builds them.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        uniforms = _sorted_uniforms(int(seed), int(n_trials))
        counts = np.diff(np.searchsorted(uniforms, cdf, side="left"), prepend=0)
        drawn = np.flatnonzero(counts)
        return keys[drawn], counts[drawn]

    def inner_product(self, other: QuantumState) -> complex:
        """<self|other>; both states must share the same register layout."""
        if self.layout != other.layout:
            raise ValueError("inner product requires identical register layouts")
        keys, amps = self.gather()
        return complex(np.vdot(amps, other.gather(keys)[1]))

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
        if self._vec is not None:
            total = self._norm2
        else:
            total = float(np.vdot(self._vals, self._vals).real)
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"squared norm drifted to {total!r}")

    def _mix(self, k0: np.ndarray, k1: np.ndarray, gate) -> None:
        """Apply `gate` to each amplitude pair (k0[i], k1[i]): one lookup, one write.

        `gate` is a 2x2 array, or rows ((g00, g01), (g10, g11)) whose entries
        are scalars or arrays with one entry per pair, so pair i is mixed by
        its own matrix.  The caller guarantees what `apply_two_level_mix`
        checks: a unitary gate, keys of this layout in range, disjoint pairs.
        Internal callers build these by construction and skip the checks; in
        validation mode they run here, as the public method runs them.
        """
        (g00, g01), (g10, g11) = gate
        if validation_enabled():
            _check_unitary(np.stack(np.broadcast_arrays(g00, g01, g10, g11), axis=-1).reshape(-1, 2, 2))
            self._check_pairs(k0, k1)
        keys = np.concatenate((k0, k1))
        amps, where = self._lookup(keys)
        a0, a1 = amps[: len(k0)], amps[len(k0):]
        self._write(keys, np.concatenate((g00 * a0 + g01 * a1, g10 * a0 + g11 * a1)), amps, where)
        self._check_norm()

    def _replace(self, keys: np.ndarray, amps: np.ndarray) -> None:
        """Swap the whole support for distinct (keys, amps): clear the store, then one write."""
        if self._vec is not None:
            self._vec[self._keys] = 0
        else:
            self._vals = np.zeros(0, dtype=complex)
        self._keys, self._norm2 = self.layout.keys([]), 0.0
        self._scatter(keys, amps)
        self._check_norm()

    def _move_keys(self, map_fn) -> None:
        """Relocate amplitudes along map_fn, requiring injectivity on the support."""
        keys, amps = self.gather()
        targets = self.layout.keys(map_fn(keys))
        self._check_keys(targets, "mapping sent a basis string to")
        if distinct_keys(targets).size != targets.size:
            raise ValueError("mapping is not injective on the support")
        self._replace(targets, amps)


def init_basis_state(layout: RegisterLayout, bits: int, backend: str = "dense") -> QuantumState:
    """State with amplitude 1 on the given basis string and 0 elsewhere."""
    layout.check_basis(bits)
    return QuantumState(layout, backend, (layout.keys([bits]), np.ones(1, dtype=complex)))


def inject_state(
    layout: RegisterLayout, amplitudes: Mapping[int, complex], backend: str = "dense"
) -> QuantumState:
    """Build a state from an explicit amplitude map, which must be normalized."""
    total = 0.0
    for b, a in amplitudes.items():
        layout.check_basis(b)
        total += abs(a) ** 2
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"amplitude map has squared norm {total}, expected 1 within 1e-10")
    keys = layout.keys(list(amplitudes))
    return QuantumState(layout, backend, (keys, np.array(list(amplitudes.values()), dtype=complex)))


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    return a.inner_product(b)
