"""Reference constructions for cross-checking the circuit evolutions.

Everything here is built the brute-force way: explicit operator matrices over
the full register space, matrix exponentials through eigendecomposition,
determinant-style antisymmetrization by summing over permutations, and the
Hamiltonians applied term by term to a sparse vector.  None of it
shares code paths with the circuit implementations, so agreement between the
two is meaningful.  The dense builders are capped at MAX_SQ_MODES modes and
MAX_FQ_DIM register states.

`apply_sq_hamiltonian` and `apply_fq_hamiltonian` apply the same two
Hamiltonians to a sparse (keys, amplitudes) vector without a size cap.  They
are written term by term from the operator definitions (the Jordan-Wigner
sign string of `lowering_operator`, the one-site chain hop at fixed spin and
the same-site opposite-spin coincidence rule), at a cost of O(terms x
support): 4(m - 1) hop terms in second quantization, 2n kinetic terms per
first-quantized state.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from fermisim.fq import FirstQuantizedLayout
from fermisim.sq import HubbardParams, ModeLayout, chain_bonds

MAX_SQ_MODES = 12
MAX_FQ_DIM = 4096
HERMITIAN_TOL = 1e-12

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_PAULI_Z = np.diag([1.0, -1.0])
_ID2 = np.eye(2)


def _chain(factors: list[np.ndarray]) -> np.ndarray:
    """Kron the per-qubit factors with qubit 0 as the least significant index."""
    out = np.array([[1.0]])
    for f in factors:
        out = np.kron(f, out)
    return out


def lowering_operator(n_modes: int, mode: int) -> np.ndarray:
    """Fermionic annihilator on `mode` with the sign string over lower modes."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range 0..{n_modes - 1}")
    factors = [_PAULI_Z] * mode + [_SIGMA_MINUS] + [_ID2] * (n_modes - mode - 1)
    return _chain(factors)


def number_operator(n_modes: int, mode: int) -> np.ndarray:
    dim = 1 << n_modes
    diag = np.array([(b >> mode) & 1 for b in range(dim)], dtype=float)
    return np.diag(diag)


def hopping_term(n_modes: int, mode_a: int, mode_b: int) -> np.ndarray:
    """Dense c+_a c_b + c+_b c_a with unit coefficient."""
    ca = lowering_operator(n_modes, mode_a)
    cb = lowering_operator(n_modes, mode_b)
    return ca.conj().T @ cb + cb.conj().T @ ca


def build_sq_hamiltonian(modes: ModeLayout, params: HubbardParams) -> np.ndarray:
    """Full occupation-number Hamiltonian over all 4**m basis states."""
    if modes.n_modes > MAX_SQ_MODES:
        raise ValueError(f"{modes.n_modes} modes exceed the dense cap of {MAX_SQ_MODES}")
    dim = 1 << modes.n_modes
    h = np.zeros((dim, dim), dtype=complex)
    for site in range(1, modes.m + 1):
        n_up = number_operator(modes.n_modes, modes.mode(site, 0))
        n_dn = number_operator(modes.n_modes, modes.mode(site, 1))
        h += params.v0 * (n_up @ n_dn)
    for i, j in chain_bonds(modes.m):
        for spin in (0, 1):
            h += params.t0 * hopping_term(modes.n_modes, modes.mode(i, spin), modes.mode(j, spin))
    return h


def fq_kinetic_matrix(m: int, t0: float, pairs) -> np.ndarray:
    """Single-particle hop matrix over the 2m word values, restricted to `pairs`."""
    dim = 2 * m
    t = np.zeros((dim, dim), dtype=complex)
    for x, y in pairs:
        if not (1 <= x <= m and 1 <= y <= m):
            raise ValueError(f"hop ({x}, {y}) leaves the chain 1..{m}")
        for spin in (0, 1):
            a = 2 * (x - 1) + spin
            b = 2 * (y - 1) + spin
            t[a, b] += t0
            t[b, a] += t0
    return t


def build_fq_hamiltonian(layout: FirstQuantizedLayout, params: HubbardParams) -> np.ndarray:
    """Distinguishable-particle Hamiltonian over the full 2**(n*word) register space."""
    w = layout.word_bits
    dim = 1 << (layout.n * w)
    if dim > MAX_FQ_DIM:
        raise ValueError(f"register dimension {dim} exceeds the dense cap of {MAX_FQ_DIM}")
    mask = (1 << w) - 1
    h = np.zeros((dim, dim), dtype=complex)
    hop = fq_kinetic_matrix(layout.m, params.t0, chain_bonds(layout.m))
    for basis in range(dim):
        words = [(basis >> (k * w)) & mask for k in range(layout.n)]
        for k in range(layout.n):
            for target in range(2 * layout.m):
                amp = hop[target, words[k]]
                if amp == 0:
                    continue
                flipped = basis ^ ((words[k] ^ target) << (k * w))
                h[flipped, basis] += amp
        for k, l in combinations(range(layout.n), 2):
            same_site = words[k] >> 1 == words[l] >> 1
            opposite_spin = (words[k] ^ words[l]) & 1
            if same_site and opposite_spin:
                h[basis, basis] += params.v0
    return h


def _sum_by_key(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted keys, each with the sum of the amplitudes that landed on it."""
    order = np.argsort(keys, kind="stable")
    keys, amps = keys[order], amps[order]
    if not keys.size:
        return keys, amps
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(amps, starts)


def _string_sign(keys: np.ndarray, mode: int) -> np.ndarray:
    """(-1)**(occupied modes below `mode`): the Z string of lowering_operator, per key."""
    # bitwise_count returns uint8, where 1 - 2 * parity would wrap to 255.
    parity = np.bitwise_count(keys & ((1 << mode) - 1)).astype(np.int64) & 1
    return 1 - 2 * parity


def apply_sq_hamiltonian(
    modes: ModeLayout, params: HubbardParams, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H v for the occupation-number Hamiltonian and v given by distinct (keys, amps).

    Returns distinct sorted keys and the amplitudes of H v on them.  The term
    c+_p c_q acts on the strings x with mode q occupied and mode p empty, with
    sign (-1)**(occupied below q in x) * (-1)**(occupied below p in x, q cleared).
    """
    keys = np.asarray(keys)
    amps = np.asarray(amps, dtype=complex)
    doubly = sum(
        ((keys >> modes.mode(site, 0)) & (keys >> modes.mode(site, 1)) & 1).astype(float)
        for site in range(1, modes.m + 1)
    )
    out_keys, out_amps = [keys], [params.v0 * doubly * amps]
    for i, j in chain_bonds(modes.m):
        for spin in (0, 1):
            a, b = modes.mode(i, spin), modes.mode(j, spin)
            for p, q in ((a, b), (b, a)):
                hit = ((keys & (1 << q)) != 0) & ((keys & (1 << p)) == 0)
                x = keys[hit]
                cleared = x ^ (1 << q)
                sign = _string_sign(x, q) * _string_sign(cleared, p)
                out_keys.append(cleared ^ (1 << p))
                out_amps.append(params.t0 * sign * amps[hit])
    return _sum_by_key(np.concatenate(out_keys), np.concatenate(out_amps))


def apply_fq_hamiltonian(
    layout: FirstQuantizedLayout,
    params: HubbardParams,
    keys: np.ndarray,
    amps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """H v for the distinguishable-particle Hamiltonian and v given by distinct (keys, amps).

    Returns distinct sorted keys and the amplitudes of H v on them: each
    particle's word hops one site either way along the chain with amplitude
    t0, and each same-site, opposite-spin pair of words adds V0 on the
    diagonal.
    """
    w = layout.word_bits
    mask = (1 << w) - 1
    keys = np.asarray(keys)
    amps = np.asarray(amps, dtype=complex)
    words = [((keys >> (k * w)) & mask).astype(np.int64) for k in range(layout.n)]
    coincidences = np.zeros(len(keys))
    for k, l in combinations(range(layout.n), 2):
        coincidences += ((words[k] >> 1) == (words[l] >> 1)) & (((words[k] ^ words[l]) & 1) == 1)
    out_keys, out_amps = [keys], [params.v0 * coincidences * amps]
    for k, word in enumerate(words):
        # One site along the chain at fixed spin: the word moves by 2 within 0..2m-1.
        for step in (2, -2):
            hit = (word + step >= 0) & (word + step < 2 * layout.m)
            out_keys.append(keys[hit] + (step << (k * w)))
            out_amps.append(params.t0 * amps[hit])
    return _sum_by_key(np.concatenate(out_keys), np.concatenate(out_amps))


def _hermitian_eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a square matrix checked Hermitian to working precision."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(h - h.conj().T).max() > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian to working precision")
    return np.linalg.eigh(h)


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, via eigendecomposition."""
    vals, vecs = _hermitian_eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def expm_propagate(h: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(-i*h*t) @ v for Hermitian h, without materializing the propagator."""
    vals, vecs = _hermitian_eigh(h)
    v = np.asarray(v, dtype=complex)
    if v.shape != vals.shape:
        raise ValueError(f"vector shape {v.shape} does not match dimension {len(vals)}")
    return (vecs * np.exp(-1j * vals * t)) @ (vecs.conj().T @ v)


def slater_antisymmetrize(labels, mode: str = "fermi") -> dict[tuple[int, ...], complex]:
    """Permutation expansion of distinct 1-based labels with 1/sqrt(n!) weights.

    fermi weights carry the permutation sign; bose weights are all positive.
    Keys are full label tuples in register order (particle 0 first).
    """
    labels = tuple(int(v) for v in labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {labels}")
    if mode not in ("fermi", "bose"):
        raise ValueError(f"unknown statistics mode {mode!r}")
    n = len(labels)
    coeff = 1.0 / math.sqrt(math.factorial(n))
    out: dict[tuple[int, ...], complex] = {}
    for perm in permutations(range(n)):
        sign = _permutation_sign(perm) if mode == "fermi" else 1.0
        out[tuple(labels[p] for p in perm)] = sign * coeff
    return out


def pack_words(words, word_bits: int) -> int:
    """Register basis integer holding the given 0-based word values in order."""
    basis = 0
    for k, wv in enumerate(words):
        if not 0 <= wv < (1 << word_bits):
            raise ValueError(f"word value {wv} does not fit in {word_bits} bits")
        basis |= wv << (k * word_bits)
    return basis


def fq_to_sq(vector: np.ndarray, layout: FirstQuantizedLayout, atol: float = 1e-9) -> np.ndarray:
    """Map an antisymmetric per-particle vector onto the occupation-number basis.

    The occupation amplitude of a mode set is sqrt(n!) times the per-particle
    amplitude on the increasingly ordered word tuple; the sign bookkeeping of
    both encodings lines up so no extra phase appears.  Rejects input that is
    not antisymmetric (repeated-word amplitudes or asymmetry above atol).
    """
    vector = np.asarray(vector, dtype=complex)
    w = layout.word_bits
    n = layout.n
    dim = 1 << (n * w)
    if vector.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got shape {vector.shape}")
    mask = (1 << w) - 1
    scale = math.sqrt(math.factorial(n))
    out = np.zeros(1 << (2 * layout.m), dtype=complex)
    for basis in np.flatnonzero(np.abs(vector) > 0):
        words = tuple(int(basis >> (k * w)) & mask for k in range(n))
        if any(v >= 2 * layout.m for v in words):
            raise ValueError(f"word value outside the {2 * layout.m} physical labels")
        if len(set(words)) != n:
            if abs(vector[basis]) > atol:
                raise ValueError("repeated-label amplitude too large for a fermionic state")
            continue
        ordered = tuple(sorted(words))
        ref = vector[pack_words(ordered, w)]
        sign = _permutation_sign([ordered.index(v) for v in words])
        if abs(vector[basis] - sign * ref) > atol:
            raise ValueError("input vector is not antisymmetric under label exchange")
        if words == ordered:
            out[sum(1 << v for v in words)] = scale * ref
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"mapped vector has norm {norm}, expected 1")
    return out


def _permutation_sign(order) -> float:
    """(-1)**inversions of a sequence of distinct values."""
    inversions = sum(
        1 for a in range(len(order)) for b in range(a + 1, len(order)) if order[a] > order[b]
    )
    return -1.0 if inversions & 1 else 1.0


def antisymmetric_basis(layout: FirstQuantizedLayout) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Orthonormal antisymmetric-sector basis of the per-particle register space.

    Returns the increasing label tuples (1-based) and a matrix whose columns
    are the corresponding normalized determinant states.
    """
    w = layout.word_bits
    dim = 1 << (layout.n * w)
    configs = list(combinations(range(1, 2 * layout.m + 1), layout.n))
    basis = np.zeros((dim, len(configs)), dtype=complex)
    for col, labels in enumerate(configs):
        for perm, amp in slater_antisymmetrize(labels, "fermi").items():
            basis[pack_words([v - 1 for v in perm], w), col] = amp
    return configs, basis


def sq_sector_spectrum(modes: ModeLayout, params: HubbardParams, n: int) -> np.ndarray:
    """Sorted eigenvalues of the occupation-number Hamiltonian at particle number n."""
    h = build_sq_hamiltonian(modes, params)
    masks = [b for b in range(h.shape[0]) if bin(b).count("1") == n]
    block = h[np.ix_(masks, masks)]
    return np.sort(np.linalg.eigvalsh(block))


def fq_sector_spectrum(layout: FirstQuantizedLayout, params: HubbardParams) -> np.ndarray:
    """Sorted eigenvalues of the per-particle Hamiltonian on the antisymmetric sector."""
    h = build_fq_hamiltonian(layout, params)
    _, basis = antisymmetric_basis(layout)
    block = basis.conj().T @ h @ basis
    return np.sort(np.linalg.eigvalsh(block))
