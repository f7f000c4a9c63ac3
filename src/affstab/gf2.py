"""Linear algebra over GF(2).

The eliminations run on bit rows: one Python int per row, column j at
bit j, the format the affine form, the normal forms and every batch
path compute on.  ``rref_rows`` (reduced row-echelon form),
``independent_rows``, ``reducer_rows`` (an invertible E with
E m = [I; 0]) and ``decompose_rows`` (an invertible matrix as
elementary row additions, what a CNOT circuit realizes) are the one
implementation of each elimination, a few word operations per row
step.

The numpy functions take and return uint8 arrays with entries in
{0, 1}; ``ints`` and ``bit_matrix`` convert to and from bit rows, and
the eliminations among them (rank, affine solves, kernels, row
reducers, left inverses, decompositions) convert and call the int-row
core.  Everything here is exact.

All functions are pure; inputs are never mutated.  Pivots are the
lowest-index columns and rows, so outputs are deterministic.
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


def _echelon(rows: list[int]) -> tuple[dict[int, int], int, list[int]]:
    """Insert the int rows one at a time into pivot rows keyed by their
    lowest set bit, each row first reduced against the pivots so far.

    Returns (pivots, mask, kept): lowest bit -> pivot row, the OR of
    the keys, and the indices of the rows that were independent of the
    rows before them.
    """
    pivots: dict[int, int] = {}
    mask = 0
    kept = []
    for i, x in enumerate(rows):
        hit = x & mask
        while hit:
            x ^= pivots[hit & -hit]
            hit = x & mask
        if x:
            low = x & -x
            pivots[low] = x
            mask |= low
            kept.append(i)
    return pivots, mask, kept


def rref_rows(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form of int rows (column j at bit j).

    The rows go into an echelon form keyed by lowest set bits; one pass
    of back substitution then clears every pivot column above its
    pivot.  The reduced form of a matrix is unique, so this equals
    column-by-column Gauss-Jordan with lowest-index pivots.

    Returns:
        (rref, pivot_cols): the nonzero rows of the reduced form, in
        pivot order, and their pivot columns (ascending; the count is
        the rank).
    """
    pivots, mask, _ = _echelon(rows)
    keys = sorted(pivots)
    for low in reversed(keys):
        x = pivots[low]
        hit = x & mask & ~low
        while hit:
            # Pivot rows above this one are already reduced, so each
            # XOR clears one pivot column and sets no other.
            high = hit & -hit
            x ^= pivots[high]
            hit ^= high
        pivots[low] = x
    return [pivots[low] for low in keys], [low.bit_length() - 1 for low in keys]


def independent_rows(rows: list[int]) -> list[int]:
    """Indices of the int rows that are independent of the rows before
    them (the pivot columns of the transpose's reduced form)."""
    return _echelon(rows)[2]


def reducer_rows(rows: list[int], width: int) -> list[int]:
    """``row_reducer`` on int rows: the rows (column j at bit j) of the
    invertible E with E m = [I; 0], for the len(rows) x width matrix m.

    E is read off the reduced form of [m | I].

    Raises:
        ValueError: if m is column-rank deficient.
    """
    rref, pivots = rref_rows([x | 1 << (width + i) for i, x in enumerate(rows)])
    if pivots[:width] != list(range(width)):
        raise ValueError("matrix is column-rank deficient; no left inverse")
    return [x >> width for x in rref]


def decompose_rows(rows: list[int]) -> list[tuple[int, int]]:
    """``decompose_invertible`` on the int rows of an n x n matrix.

    Column by column, the first row at or below the diagonal that has
    the column's bit becomes the pivot (swapped up by three additions),
    then every other row with that bit adds it, in ascending order.

    Raises:
        ValueError: if the matrix is singular.
    """
    work = list(rows)
    n = len(work)
    ops: list[tuple[int, int]] = []
    for col in range(n):
        bit = 1 << col
        for pivot in range(col, n):
            if work[pivot] & bit:
                break
        else:
            raise ValueError("matrix is singular over GF(2)")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            ops += ((col, pivot), (pivot, col), (col, pivot))
        x = work[col]
        for row in range(n):
            if work[row] & bit and row != col:
                work[row] ^= x
                ops.append((row, col))
    # work is now the identity: e = (recorded ops applied in reverse).
    ops.reverse()
    return ops


def row_echelon(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2) (``rref_rows`` on the rows).

    Args:
        m: Binary matrix (rows x cols).

    Returns:
        (rref, pivot_cols): the reduced matrix and the list of pivot
        column indices (its length is the GF(2) rank).
    """
    m = bits(m)
    n_rows, n_cols = m.shape
    rref, pivots = rref_rows(ints(m))
    return bit_matrix(rref + [0] * (n_rows - len(rref)), n_cols), pivots


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
    return bit_matrix(reducer_rows(ints(m), m.shape[1]), m.shape[0])


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
    reproduces ``e``.  Row swaps are emulated by three additions
    (``decompose_rows`` on the rows).

    Raises:
        ValueError: if e is not square or singular.
    """
    e = bits(e)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError("matrix is not square")
    return decompose_rows(ints(e))


def replay_additions(ops: list[tuple[int, int]], n: int) -> np.ndarray:
    """Apply (target, source) row additions to the n x n identity."""
    m = np.eye(n, dtype=np.uint8)
    for target, source in ops:
        m[target] ^= m[source]
    return m
