import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import gf2
from helpers import (random_invertible, reference_decompose_invertible,
                     reference_row_echelon)


def brute_rank(m: np.ndarray) -> int:
    """Independent oracle: rank = log2 of the row-span size."""
    rows = [tuple(r) for r in np.asarray(m, dtype=np.uint8)]
    span = {tuple(np.zeros(m.shape[1], dtype=np.uint8))}
    for r in rows:
        r = np.array(r, dtype=np.uint8)
        span |= {tuple(np.array(v, dtype=np.uint8) ^ r) for v in span}
    size = len(span)
    return size.bit_length() - 1


def test_rank_examples():
    assert gf2.rank(np.eye(2, dtype=np.uint8)) == 2
    assert gf2.rank([[1, 1], [1, 1]]) == 1
    assert gf2.rank([[1], [1]]) == 1


def test_rank_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        m = rng.integers(0, 2, size=shape, dtype=np.uint8)
        assert gf2.rank(m) == brute_rank(m)


def test_solve_affine_invertible():
    res = gf2.solve_affine([[1, 0], [1, 1]], [1, 0])
    assert res.consistent
    assert res.particular.tolist() == [1, 1]
    assert res.kernel_basis.shape == (0, 2)


def test_solve_affine_inconsistent():
    res = gf2.solve_affine([[1], [1]], [0, 1])
    assert not res.consistent


def test_solve_affine_free_variable():
    res = gf2.solve_affine([[1, 1]], [0])
    assert res.consistent
    assert res.particular.tolist() == [0, 0]
    assert res.kernel_basis.tolist() == [[1, 1]]


def test_solve_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.solve_affine([[1, 0]], [1, 0])


def test_kernel_basis_cases():
    assert gf2.kernel_basis([[1, 0], [0, 1]]).shape == (0, 2)
    assert gf2.kernel_basis([[1, 1], [0, 0]]).tolist() == [[1, 1]]
    zero = gf2.kernel_basis(np.zeros((2, 2), dtype=np.uint8))
    assert zero.shape == (2, 2) and gf2.rank(zero) == 2


def test_solve_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        b = rng.integers(0, 2, size=rows, dtype=np.uint8)
        res = gf2.solve_affine(m, b)
        assert res.kernel_basis.shape[0] == cols - gf2.rank(m)
        for v in res.kernel_basis:
            assert not gf2.mat_mul(m, v).any()
        if res.kernel_basis.shape[0]:
            assert gf2.rank(res.kernel_basis) == res.kernel_basis.shape[0]
        if res.consistent:
            assert np.array_equal(gf2.mat_mul(m, res.particular), b)
        else:
            assert gf2.rank(np.concatenate([m, b.reshape(-1, 1)], axis=1)) \
                == gf2.rank(m) + 1


def test_left_inverse_examples():
    assert gf2.left_inverse(np.eye(3, dtype=np.uint8)).tolist() == \
        np.eye(3, dtype=np.uint8).tolist()
    m = np.array([[1], [1]], dtype=np.uint8)
    left = gf2.left_inverse(m)
    assert np.array_equal(gf2.mat_mul(left, m), np.eye(1, dtype=np.uint8))
    m = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    left = gf2.left_inverse(m)
    assert np.array_equal(gf2.mat_mul(left, m), np.eye(2, dtype=np.uint8))


def test_left_inverse_rejects_rank_deficient():
    with pytest.raises(ValueError):
        gf2.left_inverse([[1, 1], [1, 1]])


def test_left_inverse_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        cols = int(rng.integers(1, 9))
        rows = cols + int(rng.integers(0, 5))
        while True:
            m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if gf2.rank(m) == cols:
                break
        left = gf2.left_inverse(m)
        assert np.array_equal(gf2.mat_mul(left, m), np.eye(cols, dtype=np.uint8))


def test_row_reducer_random():
    rng = np.random.default_rng(18)
    for _ in range(100):
        cols = int(rng.integers(0, 9))
        rows = max(cols, 1) + int(rng.integers(0, 5))
        while True:
            m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if gf2.rank(m) == cols:
                break
        e = gf2.row_reducer(m)
        assert gf2.rank(e) == rows
        want = np.zeros((rows, cols), dtype=np.uint8)
        want[:cols] = np.eye(cols, dtype=np.uint8)
        assert np.array_equal(gf2.mat_mul(e, m), want)
    with pytest.raises(ValueError):
        gf2.row_reducer([[1, 1], [0, 0], [1, 1]])


def test_decompose_invertible_examples():
    assert gf2.decompose_invertible(np.eye(4, dtype=np.uint8)) == []
    ops = gf2.decompose_invertible([[1, 1], [0, 1]])
    assert ops == [(0, 1)]


def test_decompose_invertible_rejects_singular():
    with pytest.raises(ValueError):
        gf2.decompose_invertible([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        gf2.decompose_invertible([[1, 0, 1], [0, 1, 0]])


def test_decompose_invertible_replay_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        e = random_invertible(rng, n)
        ops = gf2.decompose_invertible(e)
        assert len(ops) <= 3 * n * n
        assert np.array_equal(gf2.replay_additions(ops, n), e)


def test_ints_and_bit_matrix_round_trip():
    rng = np.random.default_rng(12)
    for rows, width in ((0, 5), (3, 0), (1, 1), (4, 7), (5, 8), (6, 65), (2, 200)):
        a = rng.integers(0, 2, (rows, width), dtype=np.uint8)
        ints = gf2.ints(a)
        assert ints == [sum(int(b) << j for j, b in enumerate(row)) for row in a]
        assert np.array_equal(gf2.bit_matrix(ints, width), a)
        # A transposed view packs its columns.
        assert gf2.ints(a.T) == gf2.ints(np.ascontiguousarray(a.T))


@st.composite
def bit_matrices(draw, square=False):
    """A random bit matrix, sparse or dense, up to 70 columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = draw(st.integers(0, 30))
    cols = rows if square else draw(st.sampled_from([0, 1, 5, 30, 64, 70]))
    density = draw(st.sampled_from([0.05, 0.5, 0.9]))
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_int_eliminations_match_numpy_rref(m):
    want, want_pivots = reference_row_echelon(m)
    rank = len(want_pivots)
    rref, pivots = gf2.rref_rows(gf2.ints(m))
    assert pivots == want_pivots
    assert rref == gf2.ints(want[:rank])
    got, got_pivots = gf2.row_echelon(m)
    assert np.array_equal(got, want) and got_pivots == want_pivots
    # The rows independent of the rows before them are the pivot
    # columns of the transpose's reduced form.
    assert gf2.independent_rows(gf2.ints(m)) == reference_row_echelon(m.T)[1]
    if rank == m.shape[1]:
        e = reference_row_echelon(np.concatenate([m, np.eye(len(m), dtype=np.uint8)],
                                                 axis=1))[0][:, m.shape[1]:]
        assert gf2.reducer_rows(gf2.ints(m), m.shape[1]) == gf2.ints(e)
    elif m.shape[1]:
        with pytest.raises(ValueError):
            gf2.reducer_rows(gf2.ints(m), m.shape[1])


@settings(max_examples=200, deadline=None)
@given(bit_matrices(square=True))
def test_decompose_rows_matches_numpy_reference(m):
    n = len(m)
    if len(reference_row_echelon(m)[1]) < n:
        with pytest.raises(ValueError):
            gf2.decompose_rows(gf2.ints(m))
        return
    ops = gf2.decompose_rows(gf2.ints(m))
    assert ops == reference_decompose_invertible(m)
    assert np.array_equal(gf2.replay_additions(ops, n), m)
