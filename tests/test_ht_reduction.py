"""The paper's reduction as an exact cross-check past the oracle's width.

Van den Nest's state-preparation normal form writes C|0^n> as a
diagonal round after a CNOT/X round after one layer of Hadamards.  A
computational-basis measurement does not see the diagonal round, so
C's outcome distribution is that of the circuit made of rounds 1 and 2
alone: Hadamards on qubits 0..m-1, then classical gates.  That circuit
is in HT form, so Clifford simulation is classical computation on
uniform random bits.

In this code the two routes agree exactly, not only in distribution:
``strong_prob`` on C equals ``ht_strong_count`` on rounds 1-2 as a
``Fraction``, the support listing is the outcomes with a nonzero count,
and under one seed ``weak_sample_many`` and ``ht_sample_batch`` return
equal arrays (both draw (shots, m) bits, and Hadamard qubit i of round
1 reads parameter i).  This checks ``run_clifford``, rounds 1-2 of the
state-preparation form, both samplers, the support listing and HT
counting against one another, with no oracle, at widths it cannot
reach.

Rounds 1-2 are Clifford-only by ``classify``; the HT routes take them
because ``_split_ht`` checks the structure (a Hadamard prefix, then
classical gates), not the class.  The identity holds for the library's
forms only: the CLI re-simulates a printed normal form, whose basis
differs, so no CLI byte test follows from it.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (Circuit, CircuitClass, classify, enumerate_support, run_clifford,
                     strong_prob, weak_sample_many)
from affstab.nearclifford import _split_ht, ht_sample_batch, ht_strong_count
from affstab.normalform import _h_layer, synthesize_state_prep
from helpers import random_clifford_circuit


def rounds_1_2(c: Circuit, measured) -> tuple:
    """(C's form, the circuit of rounds 1-2 of its state-preparation form
    measuring ``measured``), with the HT structure checked."""
    s = run_clifford(c)
    nf = synthesize_state_prep(s)
    ht = Circuit(c.n_qubits, _h_layer(nf.hadamard_set) + nf.linear_layer, None,
                 tuple(measured))
    assert classify(ht) is CircuitClass.CLIFFORD_ONLY
    assert _split_ht(ht)[0] == list(range(s.m))   # accepted structurally
    return s, ht


def test_strong_prob_and_support_equal_ht_counting():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 30:
        n = int(rng.integers(15, 40))
        c = random_clifford_circuit(rng, n, int(rng.integers(n, 5 * n)))
        size = int(rng.integers(1, 6))
        subset = [int(q) for q in rng.choice(n, size, replace=False)]
        s, ht = rounds_1_2(c, subset)
        if s.m > 20:
            continue
        checked += 1
        hits = []
        for alpha in itertools.product((0, 1), repeat=size):
            count = ht_strong_count(ht, subset, alpha).as_fraction()
            assert count == strong_prob(s, subset, alpha).as_fraction(), (n, subset, alpha)
            if count:
                hits.append((alpha, count))
        support = enumerate_support(s, subset, 2 ** size)
        assert [(o.bits, p.as_fraction()) for o, p in support] == hits
        assert sum(count for _, count in hits) == Fraction(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_weak_samples_equal_ht_samples(n, seed, everything):
    rng = np.random.default_rng(seed)
    c = random_clifford_circuit(rng, n, int(rng.integers(0, 4 * n + 1)))
    if everything:
        subset = list(range(n))
    else:
        subset = [int(q) for q in rng.choice(n, int(rng.integers(1, min(n, 8) + 1)),
                                             replace=False)]
    s, ht = rounds_1_2(c, subset)
    shots = int(rng.integers(1, 300))
    want = weak_sample_many(s, subset, shots, np.random.default_rng(seed))
    got = ht_sample_batch(ht, shots, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def test_weak_samples_equal_ht_samples_at_n_1000():
    rng = np.random.default_rng(1000)
    n = 1000
    c = random_clifford_circuit(rng, n, 3 * n)
    s, ht = rounds_1_2(c, range(n))
    assert s.m > 64   # parameters past one machine word
    want = weak_sample_many(s, range(n), 200, np.random.default_rng(7))
    got = ht_sample_batch(ht, 200, np.random.default_rng(7))
    assert np.array_equal(got, want)
