"""Linear algebra over GF(2).

The eliminations run on bit rows: one Python int per row, column j at
bit j, the format the affine form, the normal forms and every batch
path compute on.  ``rref_rows`` (reduced row-echelon form),
``independent_rows``, ``reducer_rows`` (an invertible E with
E m = [I; 0]) and ``decompose_rows`` (an invertible matrix as
elementary row additions, what a CNOT circuit realizes) are the one
implementation of each elimination, a few word operations per row
step.  ``measure._readout`` alone keeps its own top-bit elimination,
because R's newest parameter sits at the top bit: on ``_echelon``'s
lowest-bit pivots a first query on a new subset took 1.5-3x as long
at n = 50-1000.  ``counting_columns`` alone builds the columns of
counting through m bits, for HT counting and the support listing;
``combine`` is the one product M x (M by its columns), for
``measure``, ``amplitude`` and the state-preparation form;
``transpose`` turns rows into columns (frame, stack) by ``bit_matrix``.

The numpy functions take and return uint8 arrays with entries in
{0, 1}; ``ints`` and ``bit_matrix`` convert to and from bit rows.  Of
the rest, ``row_echelon`` and ``decompose_invertible`` convert and call
the int-row core; they, ``mat_mul``, ``bits`` and ``dot`` are kept as
numpy functions because the benchmark traces them by name and the
tests compare against them.  No module outside this one calls ``bits``
(only ``row_echelon`` and ``decompose_invertible`` do), and ``dot``'s
only callers are ``affine.LinForm`` and ``affine.QuadForm``.
Everything here is exact.

All functions are pure; inputs are never mutated.  Pivots are the
lowest-index columns and rows, so outputs are deterministic.
"""

from __future__ import annotations

import numpy as np


def bits(seq) -> np.ndarray:
    """Coerce a sequence (or array) to a uint8 array over {0, 1}."""
    return np.asarray(seq, dtype=np.uint8) % 2


def ints(a: np.ndarray) -> list[int]:
    """The rows of a 2-D bit array as Python ints, column j at bit j.

    A transposed view is copied to row order first: ``packbits`` on one
    took 3-7x as long as the copy and the packing together."""
    packed = np.packbits(np.ascontiguousarray(a), axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(packed.shape[0])]


def bit_matrix(rows: list[int], width: int) -> np.ndarray:
    """Inverse of ``ints``: a (len(rows), width) uint8 array."""
    nbytes = (width + 7) >> 3
    raw = b"".join([x.to_bytes(nbytes, "little") for x in rows])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def transpose(rows: list[int], k: int) -> list[int]:
    """The k columns of bit rows below 2^k: column j holds bit j of row i at bit i."""
    return ints(bit_matrix(rows, k).T)


def combine(cols: list[int], x: int) -> int:
    """M x over GF(2), M by its columns: the XOR of ``cols[i]`` over set bits i of x."""
    out = 0
    while x:
        low = x & -x
        out ^= cols[low.bit_length() - 1]
        x ^= low
    return out


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
    """The rows (column j at bit j) of an invertible E with
    E m = [I; 0], for the len(rows) x width matrix m given as int rows.

    E is read off the reduced form of [m | I]: its first width rows
    are a left inverse of m, the rest vanish exactly on the column
    space of m.

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


def counting_columns(m: int) -> list[int]:
    """The m columns of counting through m bits: bit i of column j is
    bit j of i, for i < 2^m.  Column m-1 is the top half of the 2^m
    bits; column j is c ^ (c >> 2^j) for c column j+1, since adding 2^j
    to i flips bit j+1 exactly where bit j is set.  Each column is one
    shift and one XOR of the next (a closed form is a big-integer
    division, a repeated byte pattern an ``int.from_bytes`` per
    column, both slower)."""
    if m == 0:
        return []
    cols = [(1 << (1 << m)) - (1 << (1 << (m - 1)))]
    for j in range(m - 2, -1, -1):
        cols.append(cols[-1] ^ (cols[-1] >> (1 << j)))
    cols.reverse()
    return cols


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
