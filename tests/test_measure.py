from fractions import Fraction

import numpy as np
import pytest

from affstab import (CapacityError, apply_h, enumerate_support, init_zero,
                     parse, run_clifford, strong_prob, weak_sample_many)
from affstab.affine import AffineForm, LinForm, QuadForm
from affstab.measure import DyadicProb, Outcome, format_rows
from affstab.statevector import distribution, run_statevector
from helpers import all_subsets, random_clifford_circuit


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
