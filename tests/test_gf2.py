import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import gf2
from helpers import (kernel_basis, random_invertible, reference_decompose_invertible,
                     reference_row_echelon, replay_additions, solve_affine)
from test_bench_names import traced_names


def brute_rank(m: np.ndarray) -> int:
    """Independent oracle: rank = log2 of the row-span size."""
    rows = [tuple(r) for r in np.asarray(m, dtype=np.uint8)]
    span = {tuple(np.zeros(m.shape[1], dtype=np.uint8))}
    for r in rows:
        r = np.array(r, dtype=np.uint8)
        span |= {tuple(np.array(v, dtype=np.uint8) ^ r) for v in span}
    size = len(span)
    return size.bit_length() - 1


def rank(m) -> int:
    """GF(2) rank as the pivot count of ``row_echelon``."""
    return len(gf2.row_echelon(m)[1])


def reducer(m) -> np.ndarray:
    """``reducer_rows`` as a bit matrix: an invertible E with E m = [I; 0]."""
    m = np.asarray(m, dtype=np.uint8)
    return gf2.bit_matrix(gf2.reducer_rows(gf2.ints(m), m.shape[1]), m.shape[0])


def test_rank_examples():
    assert rank(np.eye(2, dtype=np.uint8)) == 2
    assert rank([[1, 1], [1, 1]]) == 1
    assert rank([[1], [1]]) == 1


def test_rank_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        m = rng.integers(0, 2, size=shape, dtype=np.uint8)
        assert rank(m) == brute_rank(m)


# The affine solve and kernel are test references (helpers.py); these
# check them against the definitions.


def test_solve_affine_invertible():
    particular, kernel = solve_affine([[1, 0], [1, 1]], [1, 0])
    assert particular.tolist() == [1, 1]
    assert kernel.shape == (0, 2)


def test_solve_affine_inconsistent():
    particular, _ = solve_affine([[1], [1]], [0, 1])
    assert particular is None


def test_solve_affine_free_variable():
    particular, kernel = solve_affine([[1, 1]], [0])
    assert particular.tolist() == [0, 0]
    assert kernel.tolist() == [[1, 1]]


def test_solve_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine([[1, 0]], [1, 0])


def test_kernel_basis_cases():
    assert kernel_basis([[1, 0], [0, 1]]).shape == (0, 2)
    assert kernel_basis([[1, 1], [0, 0]]).tolist() == [[1, 1]]
    zero = kernel_basis(np.zeros((2, 2), dtype=np.uint8))
    assert zero.shape == (2, 2) and rank(zero) == 2


def test_solve_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        b = rng.integers(0, 2, size=rows, dtype=np.uint8)
        particular, kernel = solve_affine(m, b)
        assert kernel.shape[0] == cols - rank(m)
        for v in kernel:
            assert not gf2.mat_mul(m, v).any()
        if kernel.shape[0]:
            assert rank(kernel) == kernel.shape[0]
        if particular is not None:
            assert np.array_equal(gf2.mat_mul(m, particular), b)
        else:
            assert rank(np.concatenate([m, b.reshape(-1, 1)], axis=1)) == rank(m) + 1


# The first cols rows of ``reducer_rows`` are a left inverse.


def test_left_inverse_examples():
    assert reducer(np.eye(3, dtype=np.uint8)).tolist() == \
        np.eye(3, dtype=np.uint8).tolist()
    m = np.array([[1], [1]], dtype=np.uint8)
    left = reducer(m)[:1]
    assert np.array_equal(gf2.mat_mul(left, m), np.eye(1, dtype=np.uint8))
    m = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    left = reducer(m)[:2]
    assert np.array_equal(gf2.mat_mul(left, m), np.eye(2, dtype=np.uint8))


def test_left_inverse_rejects_rank_deficient():
    with pytest.raises(ValueError):
        reducer([[1, 1], [1, 1]])


def test_left_inverse_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        cols = int(rng.integers(1, 9))
        rows = cols + int(rng.integers(0, 5))
        while True:
            m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if rank(m) == cols:
                break
        left = reducer(m)[:cols]
        assert np.array_equal(gf2.mat_mul(left, m), np.eye(cols, dtype=np.uint8))


def test_row_reducer_random():
    rng = np.random.default_rng(18)
    for _ in range(100):
        cols = int(rng.integers(0, 9))
        rows = max(cols, 1) + int(rng.integers(0, 5))
        while True:
            m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            if rank(m) == cols:
                break
        e = reducer(m)
        assert rank(e) == rows
        want = np.zeros((rows, cols), dtype=np.uint8)
        want[:cols] = np.eye(cols, dtype=np.uint8)
        assert np.array_equal(gf2.mat_mul(e, m), want)
    with pytest.raises(ValueError):
        reducer([[1, 1], [0, 0], [1, 1]])


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
        assert np.array_equal(replay_additions(ops, n), e)


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
    assert np.array_equal(replay_additions(ops, n), m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 2, 63, 64, 65, 130]),
       st.sampled_from([0, 1, 7, 63, 64, 65, 130]), st.sampled_from([0.05, 0.5, 0.95]))
def test_transpose_matches_numpy(seed, k, count, density):
    # Widths on both sides of a 64-bit word, and k = 0 and 1.
    a = (np.random.default_rng(seed).random((count, k)) < density).astype(np.uint8)
    rows = gf2.ints(a)
    assert gf2.transpose(rows, k) == gf2.ints(gf2.bit_matrix(rows, k).T)
    assert gf2.transpose(gf2.transpose(rows, k), count) == rows


def package_gf2_uses() -> set[str]:
    """Names of gf2 the package refers to: ``gf2.<name>`` outside gf2,
    and names loaded inside gf2 other than by the function's own def."""
    used = set()
    for path in Path(gf2.__file__).parent.glob("*.py"):
        inside = path.name == "gf2.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if inside and isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif (not inside and isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "gf2"):
                    used.add(node.attr)
    return used


def test_every_gf2_function_is_used_by_the_package_or_the_benchmark():
    # A numpy front end that only tests call belongs in tests/helpers.py.
    public = {name for name, fn in vars(gf2).items()
              if inspect.isfunction(fn) and fn.__module__ == gf2.__name__
              and not name.startswith("_")}
    bench = {attr for module, attr in traced_names() if module == "gf2"}
    assert {"rref_rows", "reducer_rows", "row_echelon"} <= public
    assert public - package_gf2_uses() - bench == set()
