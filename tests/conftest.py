"""Shared oracle helpers: independent dense constructions the tests compare against."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fermisim.state import QuantumState, RegisterLayout, validation_mode


# Property tests draw the same examples on every run, so Tier-1 stays
# reproducible, and write no example database into the tree.
settings.register_profile("fermisim", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("fermisim")


# Store and step tests run twice: in validation mode, where every write checks
# the store and the exhaustive checks over all 2**Q strings run where they fit,
# and in production mode, which runs none of them.  The two runs keep the test
# ids they had when they chose between two store indexes: "dense" (or "slot")
# is validation mode and "sparse" (or "search") production mode.
CHECKS = ("validation", "production")
CHECK_IDS = {"validation": "dense", "production": "sparse"}
STEP_IDS = {"validation": "slot", "production": "search"}


@pytest.fixture(params=CHECKS, ids=CHECK_IDS.get)
def checks(request):
    """Run the test once in each mode."""
    with validation_mode(request.param == "validation"):
        yield request.param


# The same two runs as an explicit mark, for tests whose ids name the mode
# after their other parameters.
BOTH_CHECKS = pytest.mark.parametrize("checks", CHECKS, indirect=True, ids=CHECK_IDS.get)


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
# A "program" is a list of plain-data op descriptions, run on a state by
# `run_program` and on a dense vector by `run_dense_program`.


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


def run_dense_program(vec: np.ndarray, layout: RegisterLayout, program: list) -> np.ndarray:
    """`program` applied to the statevector `vec` of `layout`, one full matrix per op; no store code runs."""
    width = layout.width
    dim = 1 << width
    basis = np.arange(dim)
    for op in program:
        kind = op[0]
        if kind == "unitary":
            mat = embed_single(width, op[1], op[2])
        elif kind == "controlled":
            mat = embed_controlled(width, op[1], op[2], op[3])
        elif kind == "phase":
            _, mask, value, theta = op
            mat = np.diag(np.where((basis & mask) == value, np.exp(1j * theta), 1.0))
        elif kind == "perm":
            mat = np.zeros((dim, dim))
            mat[op[1], basis] = 1.0  # the amplitude at b moves to table[b]
        elif kind == "mix":
            mat = np.eye(dim, dtype=complex)
            for b0, b1 in op[1]:
                mat[np.ix_([b0, b1], [b0, b1])] = op[2]
        elif kind == "qft":
            mat = embed_register(layout, op[1], dft_matrix(layout.register_width(op[1])))
        else:
            raise AssertionError(kind)
        vec = mat @ vec
    return vec
