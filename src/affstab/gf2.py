"""Dense linear algebra over GF(2).

Vectors and matrices are numpy uint8 arrays with entries in {0, 1}.
``ints`` and ``bit_matrix`` convert them to and from bit rows (one
Python int per row, column j at bit j), the format the affine form and
every batch path compute on.  Everything here is exact: rank, affine
solves, kernels, left inverses, and the decomposition of invertible
matrices into elementary row additions (what a CNOT circuit realizes).

All functions are pure; inputs are never mutated.  Pivoting is
first-nonzero with lowest-index ties, so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bits(seq) -> np.ndarray:
    """Coerce a sequence (or array) to a uint8 array over {0, 1}."""
    return np.asarray(seq, dtype=np.uint8) % 2


def ints(a: np.ndarray) -> list[int]:
    """The rows of a 2-D bit array as Python ints, column j at bit j."""
    packed = np.packbits(a, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(packed.shape[0])]


def bit_matrix(rows: list[int], width: int) -> np.ndarray:
    """Inverse of ``ints``: a (len(rows), width) uint8 array."""
    nbytes = (width + 7) >> 3
    raw = b"".join([x.to_bytes(nbytes, "little") for x in rows])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix (or matrix-vector) product over GF(2)."""
    # uint8 matmul wraps mod 256, which preserves parity (256 is even).
    return (np.asarray(a, dtype=np.uint8) @ np.asarray(b, dtype=np.uint8)) % 2


def dot(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product of two bit vectors, mod 2."""
    return int(np.bitwise_and(a, b).sum() % 2)


def row_echelon(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Args:
        m: Binary matrix (rows x cols).

    Returns:
        (rref, pivot_cols): the reduced matrix and the list of pivot
        column indices (its length is the GF(2) rank).
    """
    r = bits(m).copy()
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
        # Eliminate everywhere else in this column (full reduction).
        others = r[:, col].astype(bool)
        others[row] = False
        r[others] ^= r[row]
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols


def rank(m: np.ndarray) -> int:
    """GF(2) rank of a binary matrix."""
    m = np.asarray(m, dtype=np.uint8)
    if m.size == 0:
        return 0
    return len(row_echelon(m)[1])


@dataclass
class AffineSolveResult:
    """Solution of M x = b over GF(2).

    When ``consistent``, the full solution set is
    ``particular + span(kernel_basis)``; ``kernel_basis`` rows are a
    linearly independent basis of the null space of M.
    """

    consistent: bool
    particular: np.ndarray | None
    kernel_basis: np.ndarray  # shape (dim_null, cols)


def _kernel_from_rref(rref: np.ndarray, pivots: list[int],
                      n_cols: int) -> np.ndarray:
    """Null-space basis of a matrix whose first n_cols columns reduce to
    ``rref`` with column pivots ``pivots``; one row per free column."""
    free = np.ones(n_cols, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    basis = np.zeros((free_cols.size, n_cols), dtype=np.uint8)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = rref[:len(pivots), free_cols].T
    return basis


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Basis of the null space {v : Mv = 0}, as rows of a (k, cols) array.

    Returns an empty (0, cols) array iff M has full column rank.
    """
    m = bits(m)
    rref, pivots = row_echelon(m)
    return _kernel_from_rref(rref, pivots, m.shape[1])


def solve_affine(m: np.ndarray, b: np.ndarray) -> AffineSolveResult:
    """Solve M x = b over GF(2).

    One elimination of [M | b] gives the particular solution, the
    kernel and so the rank (cols - dim kernel).

    Args:
        m: Binary matrix (rows x cols).
        b: Binary vector of length rows.

    Returns:
        AffineSolveResult; ``particular`` has free variables set to 0.

    Raises:
        ValueError: if len(b) != rows.
    """
    m = bits(m)
    b = bits(b)
    n_rows, n_cols = m.shape
    if b.shape != (n_rows,):
        raise ValueError(f"right-hand side has length {b.shape}, expected {n_rows}")
    aug = np.concatenate([m, b.reshape(-1, 1)], axis=1)
    rref, pivots = row_echelon(aug)
    # Reducing [M | b] reduces M the same way; a pivot in the b column
    # (always the last pivot) is the row 0 = 1.
    if pivots and pivots[-1] == n_cols:
        return AffineSolveResult(False, None,
                                 _kernel_from_rref(rref, pivots[:-1], n_cols))
    kernel = _kernel_from_rref(rref, pivots, n_cols)
    particular = np.zeros(n_cols, dtype=np.uint8)
    particular[pivots] = rref[:len(pivots), n_cols]
    return AffineSolveResult(True, particular, kernel)


def row_reducer(m: np.ndarray) -> np.ndarray:
    """An invertible E with E m = [I; 0] over GF(2).

    E is the product of the row operations that reduce m; its first
    cols rows are a left inverse of m, the rest vanish exactly on the
    column space of m.  Requires full column rank.

    Raises:
        ValueError: if m is column-rank deficient.
    """
    m = bits(m)
    n_rows, n_cols = m.shape
    aug = np.concatenate([m, np.eye(n_rows, dtype=np.uint8)], axis=1)
    rref, pivots = row_echelon(aug)
    if pivots[:n_cols] != list(range(n_cols)):
        raise ValueError("matrix is column-rank deficient; no left inverse")
    return np.ascontiguousarray(rref[:, n_cols:])


def left_inverse(m: np.ndarray) -> np.ndarray:
    """A left inverse L with L m = I over GF(2).

    Requires full column rank; any valid left inverse may be returned
    (it is not unique when rows > cols).

    Raises:
        ValueError: if m is column-rank deficient.
    """
    m = bits(m)
    return row_reducer(m)[:m.shape[1]].copy()


def decompose_invertible(e: np.ndarray) -> list[tuple[int, int]]:
    """Decompose an invertible matrix into elementary row additions.

    Returns a list of (target, source) pairs such that applying
    ``row[target] ^= row[source]`` to the identity, in order,
    reproduces ``e``.  Row swaps are emulated by three additions.

    Raises:
        ValueError: if e is not square or singular.
    """
    e = bits(e)
    n_rows, n_cols = e.shape
    if n_rows != n_cols:
        raise ValueError("matrix is not square")
    work = e.copy()
    ops: list[tuple[int, int]] = []

    def add(target: int, source: int) -> None:
        work[target] ^= work[source]
        ops.append((target, source))

    for col in range(n_cols):
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
    # work is now the identity: e = (recorded ops applied in reverse).
    return ops[::-1]


def replay_additions(ops: list[tuple[int, int]], n: int) -> np.ndarray:
    """Apply (target, source) row additions to the n x n identity."""
    m = np.eye(n, dtype=np.uint8)
    for target, source in ops:
        m[target] ^= m[source]
    return m
