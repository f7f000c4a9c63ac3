import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (CapacityError, apply_h, enumerate_support, gf2, init_zero,
                     measure, parse, run_clifford, strong_prob, weak_sample_many)
from affstab.affine import AffineForm, LinForm, QuadForm, amplitude, to_statevector
from affstab.errors import InvariantError
from affstab.measure import DyadicProb, Outcome, check_query, format_rows
from affstab.statevector import distribution, run_statevector
from helpers import (BAD_QUERIES, BELL_X, all_subsets, random_clifford_circuit,
                     reference_enumerate_support, replay_additions, solve_affine)


def ghz():
    return run_clifford(parse("qubits 2\nh 0\ncnot 0 1"))


def test_strong_prob_examples():
    s = ghz()
    assert str(strong_prob(s, [0], [0])) == "2^-1"
    assert strong_prob(s, [0, 1], [0, 1]).zero
    assert str(strong_prob(init_zero(1), [0], [0])) == "1"


def test_strong_prob_validates_input():
    s = ghz()
    with pytest.raises(ValueError):
        strong_prob(s, [0, 0], [0, 0])
    with pytest.raises(ValueError):
        strong_prob(s, [0], [0, 1])
    with pytest.raises(ValueError):
        strong_prob(s, [5], [0])


def test_subset_refusals_name_the_measured_qubit():
    s = ghz()
    readers = (lambda q: strong_prob(s, q, [0] * len(q)),
               lambda q: weak_sample_many(s, q, 1, np.random.default_rng(0)),
               lambda q: check_query(s.n, q, [0] * len(q)))
    for read in readers:
        for qubits, message in (([0, 7], "measured qubit 7 out of range"),
                                ([-1], "measured qubit -1 out of range"),
                                ([1, 1], "measured qubits must be distinct")):
            with pytest.raises(ValueError) as exc:
                read(qubits)
            assert str(exc.value) == message
        with pytest.raises(TypeError):
            read([1.0])


def test_readers_refuse_a_form_that_is_not_a_state():
    # R = [1 1] has rank 1 < m = 2, so this "form" sums to the zero
    # vector.  Every reader must refuse it, not answer, also under -O.
    s = AffineForm(1, [[1, 1]], [0], LinForm.zero(2),
                   QuadForm(np.zeros((2, 2), dtype=np.uint8), [1, 0], 0))
    readers = (lambda: strong_prob(s, [0], [0]),
               lambda: enumerate_support(s, [0], 8),
               lambda: weak_sample_many(s, [0], 3, np.random.default_rng(0)),
               lambda: to_statevector(s),
               lambda: amplitude(s, [0]))
    for read in readers:
        with pytest.raises(InvariantError, match="^R does not have full column rank$"):
            read()


def test_dyadic_formatting():
    assert str(DyadicProb.impossible()) == "0"
    assert str(DyadicProb.power(0)) == "1"
    assert str(DyadicProb.power(3)) == "2^-3"
    assert DyadicProb.power(2).as_fraction() == Fraction(1, 4)


def test_weak_sample_support_constraint():
    rng = np.random.default_rng(0)
    s = ghz()
    rows = weak_sample_many(s, [0, 1], 500, rng)
    for row in rows:
        assert tuple(row) in {(0, 0), (1, 1)}


def test_weak_sample_zero_state_deterministic():
    rng = np.random.default_rng(1)
    rows = weak_sample_many(init_zero(3), [0, 1, 2], 100, rng)
    assert not rows.any()


def test_weak_sample_frequency_five_sigma():
    rng = np.random.default_rng(2)
    shots = 100_000
    rows = weak_sample_many(ghz(), [0], shots, rng)
    ones = int(rows.sum())
    sigma = np.sqrt(shots * 0.5 * 0.5)
    assert abs(ones - shots * 0.5) <= 5 * sigma


def test_format_rows_matches_per_row_join():
    rng = np.random.default_rng(6)
    for shape in ((0, 3), (1, 1), (5, 0), (40, 7)):
        rows = rng.integers(0, 2, shape, dtype=np.uint8)
        want = "".join("".join(str(int(b)) for b in row) + "\n" for row in rows)
        assert format_rows(rows) == want
    assert str(Outcome((2, 0, 1), (1, 0, 0))) == "100"


def test_enumerate_support_examples():
    table = enumerate_support(ghz(), [0, 1], cap=8)
    assert [(o.bits, str(p)) for o, p in table] == [
        ((0, 0), "2^-1"), ((1, 1), "2^-1")]
    table = enumerate_support(init_zero(2), [0, 1], cap=8)
    assert [(o.bits, str(p)) for o, p in table] == [((0, 0), "1")]


def test_enumerate_support_capacity():
    s = init_zero(20)
    for k in range(20):
        s = apply_h(s, k)
    assert s.m == 20
    with pytest.raises(CapacityError) as exc:
        enumerate_support(s, list(range(20)), cap=1024)
    assert str(2 ** 20) in str(exc.value)


def test_enumerated_probabilities_sum_to_one_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = run_clifford(random_clifford_circuit(rng, n, int(rng.integers(0, 40))))
        subset = [int(q) for q in
                  rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        table = enumerate_support(s, subset, cap=4096)
        assert sum((p.as_fraction() for _, p in table), Fraction(0)) == 1
        outcomes = [o.bits for o, _ in table]
        assert outcomes == sorted(set(outcomes))
        assert all(not strong_prob(s, subset, bits).zero for bits in outcomes)


def test_strong_prob_matches_oracle_marginals():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 40)))
        s = run_clifford(c)
        vec = run_statevector(c)
        for subset in all_subsets(n, 2):
            oracle = distribution(vec, subset)
            for key, p in oracle.items():
                alpha = [int(ch) for ch in key]
                fast = strong_prob(s, subset, alpha).as_float()
                assert abs(fast - p) < 1e-9


def test_probabilities_ignore_phases():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        s = run_clifford(random_clifford_circuit(rng, n, int(rng.integers(0, 30))))
        m = s.m
        scrambled = AffineForm(
            s.n, s.R, s.t,
            LinForm(rng.integers(0, 2, m, dtype=np.uint8), int(rng.integers(0, 2))),
            QuadForm(np.triu(rng.integers(0, 2, (m, m), dtype=np.uint8), 1),
                     rng.integers(0, 2, m, dtype=np.uint8), int(rng.integers(0, 2))))
        for subset in all_subsets(n, 2):
            for _ in range(3):
                alpha = rng.integers(0, 2, len(subset), dtype=np.uint8)
                assert strong_prob(s, subset, alpha) == \
                    strong_prob(scrambled, subset, alpha)


@pytest.mark.parametrize("shots", [0, 1, 63, 64, 65, 1000])
def test_weak_sample_many_matches_uint8_product(shots):
    # The bit-sliced sampler against the mod-2 product it replaced, on
    # the same draw: m = 0, m > 64, all qubits, and qubits reversed.
    rng = np.random.default_rng(7)
    states = [init_zero(3), run_clifford(parse("qubits 3\nx 1\ncnot 1 2"))]
    for n in (5, 12, 130):
        states.append(run_clifford(random_clifford_circuit(rng, n, 10 * n)))
    assert states[-1].m > 64 and states[0].m == states[1].m == 0
    for s in states:
        for subset in (range(s.n), range(s.n - 1, -1, -1), [s.n - 1]):
            r_s, t_s = s.R[list(subset)], s.t[list(subset)]
            us = np.random.default_rng(shots).integers(0, 2, (shots, s.m), dtype=np.uint8)
            got = weak_sample_many(s, subset, shots, np.random.default_rng(shots))
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert np.array_equal(got, (us @ r_s.T % 2) ^ t_s)


def test_sampling_consumes_m_bits_per_shot():
    # same seed, same number of shots: the draw is a (shots, m) block,
    # so outcomes are reproducible shot by shot
    s = ghz()
    a = weak_sample_many(s, [0, 1], 10, np.random.default_rng(42))
    b = weak_sample_many(s, [0, 1], 10, np.random.default_rng(42))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("subset, alpha", BAD_QUERIES)
def test_strong_prob_rejects_bad_queries(subset, alpha):
    s = run_clifford(parse(BELL_X))
    with pytest.raises(ValueError):
        strong_prob(s, subset, alpha)


def wide_form() -> AffineForm:
    """A Clifford form on n = 90 qubits with m > 64 parameters."""
    s = run_clifford(random_clifford_circuit(np.random.default_rng(34), 90, 900))
    assert s.m > 64
    return s


def test_numpy_indices_past_63_match_int_indices():
    # np.int64 qubits past bit 63 of t and of the row list: a shift by
    # a numpy index would overflow or wrap.
    rng = np.random.default_rng(34)
    s = wide_form()
    wide, narrow = np.arange(60, 90), np.arange(80, 90)
    x = weak_sample_many(s, range(s.n), 1, rng)[0]
    for alpha in (x[60:], rng.integers(0, 2, 30, dtype=np.uint8)):
        assert strong_prob(s, wide, alpha) == strong_prob(s, list(map(int, wide)), alpha)
    assert str(strong_prob(s, wide, x[60:])) != "0"
    for shots in (1, 100):
        assert np.array_equal(
            weak_sample_many(s, wide, shots, np.random.default_rng(shots)),
            weak_sample_many(s, list(map(int, wide)), shots, np.random.default_rng(shots)))
    assert (enumerate_support(s, narrow, 4096)
            == enumerate_support(s, list(map(int, narrow)), 4096))


def reference_prob(s: AffineForm, subset, alpha) -> str:
    """The route strong_prob replaced: an RREF of [R_S | alpha + t_S]."""
    subset = list(subset)
    particular, kernel = solve_affine(s.R[subset], gf2.bits(alpha) ^ s.t[subset])
    if particular is None:
        return str(DyadicProb.impossible())
    return str(DyadicProb.power(s.m - kernel.shape[0]))


def hand_built(rng: np.random.Generator, n: int, m: int) -> AffineForm:
    """A form from the constructor, so with no frame: R is the first m
    columns of a random invertible matrix."""
    ops = [tuple(int(q) for q in rng.choice(n, 2, replace=False))
           for _ in range(3 * n)] if n > 1 else []
    r = replay_additions(ops, n)[:, :m]
    return AffineForm(n, r, rng.integers(0, 2, n, dtype=np.uint8), LinForm.zero(m),
                      QuadForm.zero(m))


def check_against_reference(s: AffineForm, subset, rng: np.random.Generator) -> None:
    subset = list(subset)
    sampled = weak_sample_many(s, subset, 2, rng)
    uniform = rng.integers(0, 2, (2, len(subset)), dtype=np.uint8)
    for alpha in (*sampled, *uniform):
        assert str(strong_prob(s, subset, alpha)) == reference_prob(s, subset, alpha)
    for alpha in sampled:
        assert str(strong_prob(s, subset, alpha)) != "0"


@st.composite
def queried_forms(draw):
    """A random form (n <= 12) and a subset, empty and full included."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        s = run_clifford(random_clifford_circuit(rng, n, draw(st.integers(0, 10 * n))))
    else:
        s = hand_built(rng, n, draw(st.integers(0, n)))
    size = draw(st.sampled_from([0, n, draw(st.integers(0, n))]))
    subset = draw(st.permutations(range(n)))[:size]
    return s, subset, rng


@settings(max_examples=200, deadline=None)
@given(queried_forms())
def test_strong_prob_matches_rref_reference(case):
    s, subset, rng = case
    check_against_reference(s, subset, rng)


def test_strong_prob_matches_rref_reference_on_fixed_forms():
    # m = 0, a form with no frame, and one wider than a 64-bit word.
    rng = np.random.default_rng(35)
    forms = [init_zero(5), run_clifford(parse("qubits 3\nx 1\ncnot 1 2")),
             hand_built(rng, 8, 5), hand_built(rng, 6, 0), wide_form()]
    for s in forms:
        for subset in ([], range(s.n), range(s.n - 1, -1, -1),
                       rng.permutation(s.n)[:s.n // 2]):
            check_against_reference(s, subset, rng)


def bad_queries(s: AffineForm, subset: list[int]) -> list[tuple[object, object]]:
    """Queries next to a valid (subset, outcome) on ``s`` that must be
    refused: a float index, an out-of-range index, a duplicate, a wrong
    length, a bit of 2, and the outcome as a string of 0/1 characters.
    The last three keep ``subset`` unless it is empty."""
    k = len(subset)
    zeros, text = [0] * k, ("01" * k)[:k]
    return [([float(q) for q in subset] or [0.0], zeros or [0]),
            (subset + [s.n], zeros + [0]),
            (subset + subset[:1] or [0, 0], zeros + zeros[:1] or [0, 0]),
            (subset, zeros + [0]),
            (subset or [0], [2] + zeros[1:]),
            (subset or [0], text or "0")]


def assert_refused_alike(s: AffineForm, subset, alpha) -> None:
    """strong_prob refuses the query exactly as check_query does."""
    with pytest.raises(Exception) as want:
        check_query(s.n, subset, alpha)
    with pytest.raises(Exception) as got:
        strong_prob(s, subset, alpha)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@st.composite
def interleaved_queries(draw):
    """A random form and a sequence of (subset, outcome) queries on it,
    the subsets drawn from one pool: empty, full, permuted, a numpy int
    array and a ``range``."""
    s, subset, rng = draw(queried_forms())
    n = s.n
    pool = [[], list(range(n)), range(n), np.array(subset, dtype=np.int64),
            list(subset), [int(q) for q in rng.permutation(n)]]
    steps = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                          min_size=1, max_size=12))
    return s, [(pool[i], sampled) for i, sampled in steps], rng


@settings(max_examples=150, deadline=None)
@given(interleaved_queries())
def test_memoised_subsets_answer_and_refuse_like_the_reference(case):
    s, steps, rng = case
    for subset, sampled in steps:
        qubits = [int(q) for q in subset]
        if sampled:
            alpha = weak_sample_many(s, qubits, 1, rng)[0]
        else:
            alpha = rng.integers(0, 2, len(qubits), dtype=np.uint8)
        want = reference_prob(s, qubits, alpha)
        assert str(strong_prob(s, subset, alpha)) == want
        assert s._readout.qubits == tuple(qubits)
        # The outcome as ints, bools, floats and numpy scalars alike.
        for bits in (alpha.tolist(), [bool(b) for b in alpha],
                     [float(b) for b in alpha], list(alpha)):
            assert str(strong_prob(s, subset, bits)) == want
        for bad_subset, bad_alpha in bad_queries(s, qubits):
            assert_refused_alike(s, bad_subset, bad_alpha)
        if qubits:
            assert s._readout.qubits == tuple(qubits)


def assert_support_matches_reference(s: AffineForm, subset, cap: int) -> None:
    try:
        want = reference_enumerate_support(s, subset, cap)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as got:
            enumerate_support(s, subset, cap)
        assert str(got.value) == str(exc)
        return
    assert enumerate_support(s, subset, cap) == want


@settings(max_examples=200, deadline=None)
@given(queried_forms())
def test_enumerate_support_matches_numpy_reference(case):
    s, subset, rng = case
    assert_support_matches_reference(s, subset, 256)
    # Again on the memoised subset, and after a query on another.
    assert_support_matches_reference(s, subset, 256)
    strong_prob(s, range(s.n), [0] * s.n)
    assert_support_matches_reference(s, subset, 256)


def test_enumerate_support_matches_numpy_reference_on_fixed_forms():
    # m = 0, forms with no frame, and one wider than a 64-bit word.
    rng = np.random.default_rng(36)
    forms = [init_zero(5), run_clifford(parse("qubits 3\nx 1\ncnot 1 2")),
             hand_built(rng, 8, 5), hand_built(rng, 6, 0), wide_form()]
    for s in forms:
        for subset in ([], range(s.n), range(s.n - 1, -1, -1),
                       rng.permutation(s.n)[:s.n // 2], rng.permutation(s.n)[:8]):
            assert_support_matches_reference(s, subset, 4096)


def test_enumerate_support_at_the_cap():
    rng = np.random.default_rng(37)
    s = wide_form()
    for size in (1, 6, 12):
        subset = [int(q) for q in rng.permutation(s.n)[:size]]
        rank = len(gf2.row_echelon(s.R[subset].T)[1])
        table = enumerate_support(s, subset, 2 ** rank)
        assert len(table) == 2 ** rank
        assert table == reference_enumerate_support(s, subset, 2 ** rank)
        with pytest.raises(CapacityError) as exc:
            enumerate_support(s, subset, 2 ** rank - 1)
        assert str(exc.value) == (f"support has {2 ** rank} outcomes, "
                                  f"which exceeds the cap {2 ** rank - 1}")


def test_one_shot_iterators_are_read_once():
    # A memo hit compares lists and tuples packed; an iterator must reach
    # the tuple path whole, whatever subset the memo holds.
    s = wide_form()
    rng = np.random.default_rng(38)
    queries = []
    for size in (40, 40, 12):
        qubits = [int(q) for q in rng.permutation(s.n)[:size]]
        alpha = [int(b) for b in weak_sample_many(s, qubits, 1, rng)[0]]
        queries.append((qubits, alpha, reference_prob(s, qubits, alpha)))
    for _ in range(2):
        for qubits, alpha, want in queries:
            assert str(strong_prob(s, iter(qubits), iter(alpha))) == want
            assert s._readout.qubits == tuple(qubits)
            assert str(strong_prob(s, (q for q in qubits), (b for b in alpha))) == want
            assert str(strong_prob(s, qubits, iter(alpha))) == want
            bad = [2] + alpha[1:]
            with pytest.raises(ValueError, match="outcome bits must be 0 or 1"):
                strong_prob(s, qubits, iter(bad))


def test_outcome_arrays_are_read_as_items_not_bytes():
    # ``bytes`` of an array is its buffer: eight bytes per int64 entry,
    # and any shape at all.
    s = wide_form()
    rng = np.random.default_rng(41)
    qubits = [int(q) for q in rng.permutation(s.n)[:8]]
    alpha = weak_sample_many(s, qubits, 1, rng)[0]
    want = reference_prob(s, qubits, alpha)
    for dtype in (np.uint8, np.int64, np.bool_, np.float64):
        assert str(strong_prob(s, qubits, alpha.astype(dtype))) == want
    assert_refused_alike(s, qubits, alpha[:, None])
    assert_refused_alike(s, qubits[:1], alpha.astype(np.uint16)[:1].view(np.uint8))


def test_an_int_subset_or_outcome_is_refused():
    # ``bytes(5)`` is five zero bytes: an int must not pack as a subset
    # or outcome of five zeros, memoised or not.
    s = ghz()
    for _ in range(2):
        strong_prob(s, [0, 1], [0, 0])
        for subset, alpha in ((2, [0, 0]), ([0, 1], 2), ([0, 1], 0), ([], 0)):
            assert_refused_alike(s, subset, alpha)
            with pytest.raises(TypeError):
                strong_prob(s, subset, alpha)


def test_lists_changed_in_place_are_read_again():
    s = wide_form()
    rng = np.random.default_rng(39)
    qubits = [int(q) for q in rng.permutation(s.n)[:30]]
    alpha = [int(b) for b in weak_sample_many(s, qubits, 1, rng)[0]]
    assert str(strong_prob(s, qubits, alpha)) == reference_prob(s, qubits, alpha)
    first = s._readout
    qubits[0], qubits[1] = qubits[1], qubits[0]
    alpha[0] ^= 1
    assert str(strong_prob(s, qubits, alpha)) == reference_prob(s, qubits, alpha)
    assert s._readout is not first and s._readout.qubits == tuple(qubits)
    second = s._readout
    # Equal as numbers is not enough: a float index or bit is refused.
    for bad in (float(qubits[0]), -1, s.n, 2 ** 16 + qubits[0]):
        qubits[0], kept = bad, qubits[0]
        assert_refused_alike(s, qubits, alpha)
        qubits[0] = kept
    for bad in (0.5, 2, 256, -1, "1"):
        alpha[0], kept = bad, alpha[0]
        assert_refused_alike(s, qubits, alpha)
        alpha[0] = kept
    # A bit equal to 0 or 1 is taken, whatever its type.
    want = reference_prob(s, qubits, alpha)
    for same in (float(alpha[0]), bool(alpha[0]), np.uint8(alpha[0]), np.bool_(alpha[0])):
        alpha[0], kept = same, alpha[0]
        assert str(strong_prob(s, qubits, alpha)) == want
        alpha[0] = kept
    assert s._readout is second
    # Items that act as ints through ``operator.index`` still hit.
    same = [np.int64(q) for q in qubits]
    assert str(strong_prob(s, tuple(same), [bool(b) for b in alpha])) == \
        reference_prob(s, qubits, alpha)
    assert s._readout is second


def test_subsets_the_packing_refuses_still_hit_the_memo(monkeypatch):
    # A subset with no packed key is found by its tuple of qubits, not
    # eliminated again.  Two-byte keys stop at 65,535, past the width of
    # any ``run_clifford`` form; packed one byte per index, keys stop at
    # 255 and take the same path.
    one_byte = SimpleNamespace(error=struct.error,
                               Struct=lambda fmt: struct.Struct(fmt.replace("H", "B")))
    monkeypatch.setattr(measure, "struct", one_byte)
    s = wide_form()
    s3 = run_clifford(random_clifford_circuit(np.random.default_rng(40), 300, 600))
    rng = np.random.default_rng(40)
    for form, subset in ((s3, [299, 0, 256, 7]), (s, range(0, 90, 3)),
                         (s, np.arange(40, 80)), (s, [2, 11, 5])):
        qubits = [int(q) for q in subset]
        alphas = [[int(b) for b in weak_sample_many(form, qubits, 1, rng)[0]],
                  [int(b) for b in rng.integers(0, 2, len(qubits))]]
        strong_prob(form, subset, alphas[0])
        first = form._readout
        assert (first.key is None) == (max(qubits) > 255)
        for alpha in alphas:
            want = reference_prob(form, qubits, alpha)
            for same in (subset, qubits, tuple(qubits), iter(qubits), np.array(qubits)):
                assert str(strong_prob(form, same, alpha)) == want
                assert form._readout is first
        if len(qubits) <= 4:
            assert enumerate_support(form, subset, 16)[0][1] == first.prob
            assert form._readout is first
