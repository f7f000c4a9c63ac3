"""Shared random generators and comparison utilities for the tests."""

from __future__ import annotations

import numpy as np

from affstab import Circuit, Gate, GateKind, LinForm, QuadForm, gate, gf2

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
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if len(gf2.row_echelon(m)[1]) == n:
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


# ---------------------------------------------------------------------------
# Numpy references for the bit-row code: the per-gate Pauli rules, the
# eliminations as they were on uint8 arrays, one numpy step per column,
# and the solves, kernels and substitutions built on them.


def reference_conjugate_rows(x: np.ndarray, z: np.ndarray, e: np.ndarray, g: Gate) -> None:
    """Map every row i^e * X(x) * Z(z) of a stack to g row g^dagger, in place.

    x and z are (k, n) uint8 bit matrices, e the (k,) uint8 i-exponents
    mod 4.
    """
    kind, qs = g.kind, g.qubits
    a = qs[0]
    if kind is GateKind.H:
        e += 2 * (x[:, a] & z[:, a])
        x[:, [a]], z[:, [a]] = z[:, [a]], x[:, [a]]
    elif kind is GateKind.P:
        e += x[:, a]
        z[:, a] ^= x[:, a]
    elif kind is GateKind.X:
        e += 2 * z[:, a]
    elif kind is GateKind.Z:
        e += 2 * x[:, a]
    elif kind is GateKind.CNOT:
        c, t = qs
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif kind is GateKind.CZ:
        b = qs[1]
        e += 2 * (x[:, a] & x[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    else:
        raise ValueError(f"cannot conjugate through {kind.value}")
    e %= 4


def reference_generator_stack(c: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, e) of the rows C X_i C^dagger, row i for qubit i."""
    from affstab.circuit import basic_clifford_gates
    n = c.n_qubits
    x, z = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
    e = np.zeros(n, dtype=np.uint8)
    for g in basic_clifford_gates(c.gates):
        reference_conjugate_rows(x, z, e, g)
    return x, z, e


def reference_row_echelon(m) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form by column-by-column Gauss-Jordan."""
    r = np.asarray(m, dtype=np.uint8) % 2
    n_rows, n_cols = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + int(hits[0])
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        others = r[:, col].astype(bool)
        others[row] = False
        r[others] ^= r[row]
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols


def reference_decompose_invertible(e) -> list[tuple[int, int]]:
    """(target, source) row additions that build e from the identity."""
    work = np.asarray(e, dtype=np.uint8) % 2
    n = work.shape[0]
    ops: list[tuple[int, int]] = []

    def add(target: int, source: int) -> None:
        work[target] ^= work[source]
        ops.append((target, source))

    for col in range(n):
        hits = np.nonzero(work[col:, col])[0]
        if hits.size == 0:
            raise ValueError("matrix is singular over GF(2)")
        pivot = col + int(hits[0])
        if pivot != col:
            add(col, pivot)
            add(pivot, col)
            add(col, pivot)
        for row in np.nonzero(work[:, col])[0]:
            if row != col:
                add(int(row), col)
    return ops[::-1]


def replay_additions(ops: list[tuple[int, int]], n: int) -> np.ndarray:
    """Apply (target, source) row additions to the n x n identity."""
    m = np.eye(n, dtype=np.uint8)
    for target, source in ops:
        m[target] ^= m[source]
    return m


def _kernel_from_rref(rref: np.ndarray, pivots: list[int], n_cols: int) -> np.ndarray:
    """Null-space basis of a matrix whose first n_cols columns reduce to
    ``rref`` with column pivots ``pivots``; one row per free column."""
    free = np.ones(n_cols, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    basis = np.zeros((free_cols.size, n_cols), dtype=np.uint8)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = rref[:len(pivots), free_cols].T
    return basis


def kernel_basis(m) -> np.ndarray:
    """Basis of the null space {v : Mv = 0}, as rows of a (k, cols) array."""
    rref, pivots = reference_row_echelon(m)
    return _kernel_from_rref(rref, pivots, rref.shape[1])


def solve_affine(m, b) -> tuple[np.ndarray | None, np.ndarray]:
    """Solve M x = b over GF(2) with one elimination of [M | b].

    Returns (particular, kernel): a solution with the free variables
    set to 0, or None if there is none, and a basis of the null space
    of M as rows.

    Raises:
        ValueError: if len(b) != rows.
    """
    m, b = gf2.bits(m), gf2.bits(b)
    n_rows, n_cols = m.shape
    if b.shape != (n_rows,):
        raise ValueError(f"right-hand side has length {b.shape}, expected {n_rows}")
    rref, pivots = reference_row_echelon(np.concatenate([m, b.reshape(-1, 1)], axis=1))
    # A pivot in the b column (always the last pivot) is the row 0 = 1.
    if pivots and pivots[-1] == n_cols:
        return None, _kernel_from_rref(rref, pivots[:-1], n_cols)
    particular = np.zeros(n_cols, dtype=np.uint8)
    particular[pivots] = rref[:len(pivots), n_cols]
    return particular, _kernel_from_rref(rref, pivots, n_cols)


def compose_lin(f: LinForm, k: np.ndarray, shift: np.ndarray) -> LinForm:
    """The function s -> f(k s + shift)."""
    return LinForm(gf2.mat_mul(k.T, f.coeffs), (f.const + gf2.dot(f.coeffs, shift)) % 2)


def compose_quad(q: QuadForm, k: np.ndarray, shift: np.ndarray) -> QuadForm:
    """The function s -> q(k s + shift)."""
    shift = np.asarray(shift, dtype=np.uint8)
    m = gf2.mat_mul(gf2.mat_mul(k.T, q.cross), k)
    cross = np.triu(m ^ m.T, 1)
    sym = q.cross ^ q.cross.T
    lin = (np.diagonal(m).copy()
           ^ gf2.mat_mul(k.T, gf2.mat_mul(sym, shift))
           ^ gf2.mat_mul(k.T, q.lin))
    const = (int(shift @ (q.cross @ shift)) + gf2.dot(q.lin, shift) + q.const) % 2
    return QuadForm(cross, lin, const)


def reference_state_prep(s) -> tuple[tuple, tuple, tuple]:
    """(hadamard_set, linear_layer, phase_layer) of the three-round form,
    computed on numpy arrays with the references above."""
    n, m, r, t = s.n, s.m, s.R, s.t
    pivot_rows = set(reference_row_echelon(r.T)[1])
    extra = [np.eye(n, dtype=np.uint8)[:, [j]] for j in range(n) if j not in pivot_rows]
    e = np.concatenate([r] + extra, axis=1)
    linear = [gate(GateKind.CNOT, src, tgt) for tgt, src in reference_decompose_invertible(e)]
    linear += [gate(GateKind.X, int(k)) for k in np.nonzero(t)[0]]
    aug = np.concatenate([r, np.eye(n, dtype=np.uint8)], axis=1)
    left = reference_row_echelon(aug)[0][:m, m:]
    shift = left @ t % 2
    lin_i, quad = compose_lin(s.l, left, shift), compose_quad(s.q, left, shift)
    if lin_i.const:
        quad = QuadForm(quad.cross, quad.lin ^ lin_i.coeffs, quad.const)
    d = lin_i.coeffs
    cz_pairs = quad.cross ^ np.triu(np.outer(d, d), 1)
    phases = [gate(GateKind.P, int(k)) for k in np.nonzero(d)[0]]
    phases += [gate(GateKind.CZ, int(i), int(j)) for i, j in zip(*np.nonzero(cz_pairs))]
    phases += [gate(GateKind.Z, int(k)) for k in np.nonzero(quad.lin)[0]]
    return tuple(range(m)), tuple(linear), tuple(phases)


def reference_decompose_operator(c: Circuit) -> tuple[tuple, tuple, tuple]:
    """(m1, hadamard_set, m2) of the operator form, on numpy arrays."""
    from affstab import run_clifford
    hadamards, linear, phases = reference_state_prep(run_clifford(c))
    m2 = linear + phases
    x, z, e = reference_generator_stack(c)
    for g in reversed(m2):
        for _ in range(3 if g.kind is GateKind.P else 1):
            reference_conjugate_rows(x, z, e, g)
    for k in hadamards:
        reference_conjugate_rows(x, z, e, gate(GateKind.H, k))
    ket_map = x.T
    m1 = [gate(GateKind.P, int(i)) for i in np.nonzero(e % 2)[0]]
    m1 += [gate(GateKind.Z, int(i)) for i in np.nonzero(e // 2)[0]]
    cz_pairs = np.triu(z @ ket_map % 2, 1)
    m1 += [gate(GateKind.CZ, int(i), int(j)) for i, j in zip(*np.nonzero(cz_pairs))]
    m1 += [gate(GateKind.CNOT, src, tgt)
           for tgt, src in reference_decompose_invertible(ket_map)]
    return tuple(m1), hadamards, m2


def reference_enumerate_support(s, subset, cap: int) -> list:
    """The (Outcome, DyadicProb) listing of ``measure.enumerate_support``,
    from a numpy RREF of R_S^T: the route it replaced."""
    from affstab import CapacityError
    from affstab.measure import DyadicProb, Outcome
    subset = tuple(map(int, subset))
    r_s, t_s = s.R[list(subset)], s.t[list(subset)]
    # Basis of the column space: independent rows of R_S^T.
    rref, pivots = gf2.row_echelon(r_s.T)
    rank = len(pivots)
    if 2 ** rank > cap:
        raise CapacityError(
            f"support has {2 ** rank} outcomes, which exceeds the cap {cap}")
    prob = DyadicProb.power(rank)
    # RREF row i is the only one set at pivot i and is 0 left of it, so
    # an outcome's bits up to pivot i depend on codes 0..i alone, with
    # t + code i at pivot i: counting up through t + codes sorts them.
    ups = (np.arange(2 ** rank)[:, None] >> np.arange(rank - 1, -1, -1)) & 1
    outs = gf2.mat_mul(ups ^ t_s[pivots], rref[:rank]) ^ t_s
    return [(Outcome(subset, tuple(bits)), prob) for bits in outs.tolist()]
