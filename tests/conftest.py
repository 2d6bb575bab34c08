"""Shared oracle helpers: independent dense constructions the tests compare against."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from fermisim import state as state_module
from fermisim.state import QuantumState, RegisterLayout, inject_state


# Property tests draw the same examples on every run, so Tier-1 stays
# reproducible, and write no example database into the tree.
settings.register_profile("fermisim", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("fermisim")


# A state indexes its store by a 2**Q slot array up to SLOT_INDEX_QUBITS qubits
# and binary-searches its keys above.  Tests force either index by moving that
# limit: "slot" up to 20 qubits (an 8 MB array at most), "search" at every
# width.  The test ids keep "dense" and "sparse", the names these two indexes
# had as backends, so test ids carry over.
INDEXES = ("slot", "search")
INDEX_IDS = {"slot": "dense", "search": "sparse"}
_SLOT_LIMIT = {"slot": 20, "search": -1}


@contextmanager
def forced_index(index: str):
    """States built inside the block use `index` ("slot" or "search")."""
    saved = state_module.SLOT_INDEX_QUBITS
    state_module.SLOT_INDEX_QUBITS = _SLOT_LIMIT[index]
    try:
        yield
    finally:
        state_module.SLOT_INDEX_QUBITS = saved


@pytest.fixture(params=INDEXES, ids=INDEX_IDS.get)
def index(request, monkeypatch):
    """Run the test once with each store index."""
    monkeypatch.setattr(state_module, "SLOT_INDEX_QUBITS", _SLOT_LIMIT[request.param])
    return request.param


# The same two runs as an explicit mark, for tests whose ids name the index
# after their other parameters.
BOTH_INDEXES = pytest.mark.parametrize("index", INDEXES, indirect=True, ids=INDEX_IDS.get)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_map(rng: np.random.Generator, width: int, support: int) -> dict[int, complex]:
    keys = rng.choice(1 << width, size=min(support, 1 << width), replace=False)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return {int(k): complex(a) for k, a in zip(keys, amps)}


def embed_single(width: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Full 2**width matrix for a one-qubit gate, built by Kronecker products."""
    mat = np.eye(1)
    for q in range(width):
        factor = gate if q == qubit else np.eye(2)
        mat = np.kron(factor, mat)
    return mat


def embed_controlled(width, controls, target, gate) -> np.ndarray:
    dim = 1 << width
    mat = np.zeros((dim, dim), dtype=complex)
    tbit = 1 << target
    for b in range(dim):
        if all(((b >> q) & 1) == v for q, v in controls):
            b0 = b & ~tbit
            b1 = b0 | tbit
            col = 0 if b == b0 else 1
            mat[b0, b] = gate[0, col]
            mat[b1, b] = gate[1, col]
        else:
            mat[b, b] = 1.0
    return mat


def dft_matrix(width: int) -> np.ndarray:
    """amplitude'(k) = 2**(-w/2) sum_x exp(2 pi i k x / 2**w) amplitude(x)."""
    dim = 1 << width
    k, x = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * k * x / dim) / np.sqrt(dim)


def embed_register(layout: RegisterLayout, name: str, block: np.ndarray) -> np.ndarray:
    mat = np.eye(1)
    consumed = 0
    for reg, w in layout.registers:
        factor = block if reg == name else np.eye(1 << w)
        mat = np.kron(factor, mat)
        consumed += w
    assert consumed == layout.width
    return mat


# ----------------------------------------------------------------- op programs
# A "program" is a list of plain-data op descriptions that can be replayed on
# either index, used by the index equivalence tests.


def random_program(rng: np.random.Generator, layout: RegisterLayout, n_ops: int) -> list:
    width = layout.width
    dim = 1 << width
    program = []
    for _ in range(n_ops):
        kind = rng.choice(["unitary", "controlled", "phase", "perm", "mix", "qft"])
        if kind == "unitary":
            program.append(("unitary", int(rng.integers(width)), random_unitary(rng)))
        elif kind == "controlled":
            qubits = rng.choice(width, size=int(rng.integers(2, min(4, width) + 1)), replace=False)
            controls = tuple((int(q), int(rng.integers(2))) for q in qubits[1:])
            program.append(("controlled", controls, int(qubits[0]), random_unitary(rng)))
        elif kind == "phase":
            mask = int(rng.integers(1, dim))
            value = int(rng.integers(dim)) & mask
            program.append(("phase", mask, value, float(rng.uniform(-np.pi, np.pi))))
        elif kind == "perm":
            program.append(("perm", [int(t) for t in rng.permutation(dim)]))
        elif kind == "mix":
            flat = [int(b) for b in rng.permutation(dim)[: 2 * int(rng.integers(1, dim // 2))]]
            pairs = list(zip(flat[0::2], flat[1::2]))
            program.append(("mix", pairs, random_unitary(rng)))
        else:
            name = layout.names()[int(rng.integers(len(layout.names())))]
            program.append(("qft", name))
    return program


def run_program(state: QuantumState, program: list) -> None:
    for op in program:
        kind = op[0]
        if kind == "unitary":
            state.apply_controlled_unitary((), op[1], op[2])
        elif kind == "controlled":
            state.apply_controlled_unitary(op[1], op[2], op[3])
        elif kind == "phase":
            _, mask, value, theta = op
            state.apply_phase_if(lambda b, m=mask, v=value: (b & m) == v, theta)
        elif kind == "perm":
            table = op[1]
            state.apply_basis_permutation(lambda b, t=table: t[b])
        elif kind == "mix":
            state.apply_two_level_mix(op[1], op[2])
        elif kind == "qft":
            state.qft_register(op[1])
        else:
            raise AssertionError(kind)


def states_agree(a: QuantumState, b: QuantumState, atol: float = 1e-12) -> bool:
    keys = set(a.support()) | set(b.support())
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= atol for k in keys)


def make_state(layout: RegisterLayout, amplitudes, index: str | None = None) -> QuantumState:
    """`inject_state`, on the given index if one is named."""
    if index is None:
        return inject_state(layout, amplitudes)
    with forced_index(index):
        return inject_state(layout, amplitudes)
