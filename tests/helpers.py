"""Shared random generators and comparison utilities for the tests."""

from __future__ import annotations

import numpy as np

from affstab import Circuit, Gate, GateKind, gate

CLIFFORD_CORE = (GateKind.H, GateKind.P, GateKind.CNOT,
                 GateKind.X, GateKind.Z, GateKind.CZ)
ONE_QUBIT = {GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
             GateKind.ZROT}
CLASSICAL = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)
DIAGONAL = (GateKind.P, GateKind.PDG, GateKind.Z, GateKind.CZ,
            GateKind.ZROT, GateKind.CZROT)


# A file that is both Clifford and HT, and queries that both exact
# routes (strong_prob and ht_strong_count) must refuse: an outcome bit
# that is not 0/1, a negative, repeated or out-of-range qubit, and an
# outcome of the wrong length.
BELL_X = "qubits 2\nh 0\ncnot 0 1\nx 1"
BAD_QUERIES = [([0, 1], [2, 1]), ([0], [-1]), ([-1], [1]), ([2, 2], [1, 0]),
               ([7], [1]), ([0, 1], [1]), ([0], [0, 1]), ([0], [0.5])]


def random_gate(rng: np.random.Generator, n: int, kinds) -> Gate:
    """One random gate of an eligible kind (arity must fit n)."""
    eligible = [k for k in kinds
                if (1 if k in ONE_QUBIT else (3 if k is GateKind.TOFFOLI else 2)) <= n]
    kind = eligible[rng.integers(0, len(eligible))]
    arity = 1 if kind in ONE_QUBIT else (3 if kind is GateKind.TOFFOLI else 2)
    qubits = rng.choice(n, size=arity, replace=False)
    angle = None
    if kind in (GateKind.ZROT, GateKind.CZROT):
        angle = (int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
    return Gate(kind, tuple(int(q) for q in qubits), angle)


def random_clifford_circuit(rng: np.random.Generator, n: int, n_gates: int,
                            kinds=CLIFFORD_CORE) -> Circuit:
    gates = tuple(random_gate(rng, n, kinds) for _ in range(n_gates))
    return Circuit(n, gates)


def random_ht_circuit(rng: np.random.Generator, n: int, max_h: int,
                      max_classical: int) -> Circuit:
    """Hadamard prefix on a random subset, then random classical gates."""
    n_h = int(rng.integers(1, min(max_h, n) + 1))
    h_qubits = rng.choice(n, size=n_h, replace=False)
    gates = [gate(GateKind.H, int(q)) for q in h_qubits]
    for _ in range(int(rng.integers(0, max_classical + 1))):
        gates.append(random_gate(rng, n, CLASSICAL))
    n_meas = int(rng.integers(1, min(n, 3) + 1))
    measured = tuple(int(q) for q in rng.choice(n, size=n_meas, replace=False))
    return Circuit(n, tuple(gates), None, measured)


def random_prep(rng: np.random.Generator, n: int):
    """n normalized random complex amplitude pairs."""
    raw = rng.normal(size=(n, 4))
    pairs = []
    for re_a, im_a, re_b, im_b in raw:
        a, b = complex(re_a, im_a), complex(re_b, im_b)
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        pairs.append((a / norm, b / norm))
    return tuple(pairs)


def random_product_front_circuit(rng: np.random.Generator, n: int,
                                 n_gates: int, max_measured: int = 4) -> Circuit:
    gates = tuple(random_gate(rng, n, CLASSICAL + DIAGONAL)
                  for _ in range(n_gates))
    n_meas = int(rng.integers(1, min(n, max_measured) + 1))
    measured = tuple(int(q) for q in rng.choice(n, size=n_meas, replace=False))
    return Circuit(n, gates, random_prep(rng, n), measured)


def random_text_circuit(rng: np.random.Generator) -> Circuit:
    """Arbitrary swap-free circuit for parse/emit round trips."""
    n = int(rng.integers(1, 10))
    kinds = [k for k in GateKind if k is not GateKind.SWAP]
    gates = tuple(random_gate(rng, n, kinds)
                  for _ in range(int(rng.integers(0, 20))))
    prep = random_prep(rng, n) if rng.random() < 0.4 else None
    n_meas = int(rng.integers(1, n + 1))
    measured = tuple(int(q) for q in rng.choice(n, size=n_meas, replace=False))
    return Circuit(n, gates, prep, measured)


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random invertible GF(2) matrix, by rejection."""
    from affstab import gf2
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if gf2.rank(m) == n:
            return m


def all_subsets(n: int, max_size: int):
    """Every nonempty qubit subset up to the given size, as tuples."""
    from itertools import combinations
    for size in range(1, max_size + 1):
        yield from combinations(range(n), size)


def histogram(rows) -> dict[str, int]:
    """Counts of the distinct rows of a (shots, k) bit matrix.

    Keys are the rows as bit strings, e.g. "011"; each row is packed
    into one integer so that a single ``np.unique`` does the counting.
    """
    rows = np.asarray(rows, dtype=np.int64)
    k = rows.shape[1]
    if k > 62:
        raise ValueError(f"rows of {k} bits do not pack into one int64")
    packed = rows @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    values, counts = np.unique(packed, return_counts=True)
    return {format(int(v), "b").zfill(k) if k else "": int(n)
            for v, n in zip(values, counts)}
