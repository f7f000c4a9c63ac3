"""``run_clifford``, ``strong_prob`` and ``enumerate_support`` against
the stabilizer rows of the Pauli stack, at widths past the dense oracle
(``helpers.stack_check`` and ``helpers.z_constraints``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (Circuit, DyadicProb, GateKind, enumerate_support, gate, run_clifford,
                     strong_prob, weak_sample_many)
from affstab.affine import _make, bit_rows
from helpers import random_clifford_circuit, random_gate, stack_check, z_constraints

ALL_CLIFFORD = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
                GateKind.CNOT, GateKind.CZ, GateKind.SWAP)


def faulty_forms(s):
    """Copies of s with one fault each, where the form allows it: a bit
    of l, a bit of q's linear part, and t on a qubit whose row of R is 0."""
    rows, t, l, l0, sym, lin = bit_rows(s)

    def form(t=t, l=l, lin=lin):
        return _make(s.n, s.m, list(rows), t, l, l0, list(sym), lin, s._q0, list(s._cols))

    faults = {}
    if s.m:
        faults["l"] = form(l=l ^ 1 << (s.m // 2))
        faults["q.lin"] = form(lin=lin ^ 1 << (s.m - 1))
    fixed = [k for k, r in enumerate(rows) if not r]
    if fixed:
        faults["t"] = form(t=t ^ 1 << fixed[len(fixed) // 2])
    return faults


def check_with_faults(c):
    s = run_clifford(c)
    assert stack_check(c, s) is None
    faults = faulty_forms(s)
    for name, bad in faults.items():
        assert stack_check(c, bad) is not None, name
    return set(faults)


@st.composite
def wide_clifford_circuits(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(15, 300))
    return random_clifford_circuit(rng, n, draw(st.integers(n, 12 * n)), kinds=ALL_CLIFFORD)


@settings(max_examples=40, deadline=None)
@given(wide_clifford_circuits())
def test_run_clifford_fixed_by_every_stabilizer_row(c):
    check_with_faults(c)


def test_stack_check_at_word_boundaries_and_n_1000():
    # Ints one bit either side of 64-bit word edges, then one wide
    # circuit; together they exercise all three faults.
    rng = np.random.default_rng(29)
    seen = set()
    for n in (63, 64, 65, 127, 128, 129, 1000):
        seen |= check_with_faults(random_clifford_circuit(rng, n, 10 * n, kinds=ALL_CLIFFORD))
    assert seen == {"l", "q.lin", "t"}


# ---------------------------------------------------------------------------
# The readers: the support of C|0...0> on S is cut out by the Z-only
# stabilizer elements supported in S, signs included.

NO_H = tuple(k for k in ALL_CLIFFORD if k is not GateKind.H)


def few_hadamards(rng, n: int, n_gates: int, n_h: int) -> Circuit:
    """A random Clifford circuit of every kind whose n_gates gates hold
    n_h Hadamards at random places, so that m <= n_h and a subset wider
    than n_h has Z-only stabilizers."""
    gates = [random_gate(rng, n, NO_H) for _ in range(n_gates - n_h)]
    for _ in range(n_h):
        gates.insert(int(rng.integers(0, len(gates) + 1)), gate(GateKind.H, int(rng.integers(0, n))))
    return Circuit(n, tuple(gates))


def _packed(bits) -> int:
    """Outcome bits as an int, position k at bit k (the constraints' order)."""
    return sum(int(b) << k for k, b in enumerate(bits))


def _satisfies(a: int, constraints) -> bool:
    return all((a & mask).bit_count() & 1 == parity for mask, parity in constraints)


def check_readers(c: Circuit, subset, rng, list_cap: int = 1 << 12) -> int:
    """Check strong_prob, and enumerate_support when the support is at
    most ``list_cap``, on ``subset`` against ``z_constraints``; return
    the number of constraints."""
    s = run_clifford(c)
    constraints = z_constraints(c, subset)
    free = len(subset) - len(constraints)
    prob = DyadicProb.power(free)
    if 1 << free <= list_cap:
        support = enumerate_support(s, subset, list_cap)
        assert len(support) == 1 << free
        patterns = [o.bits for o, _ in support]
        assert patterns == sorted(set(patterns))
        for o, p in support:
            assert o.qubits == tuple(subset) and p == prob
            assert _satisfies(_packed(o.bits), constraints)
        seen = patterns
    else:
        seen = [tuple(row) for row in weak_sample_many(s, subset, 64, rng).tolist()]
        assert all(_satisfies(_packed(bits), constraints) for bits in seen)
    for bits in seen[:64]:
        assert strong_prob(s, subset, list(bits)) == prob
    # Flipping the lowest position of a constraint breaks it.
    base = list(seen[0])
    for mask, _ in constraints:
        bad = list(base)
        bad[(mask & -mask).bit_length() - 1] ^= 1
        assert strong_prob(s, subset, bad).zero
    # Random outcomes: possible iff they satisfy every constraint.
    for _ in range(32):
        bits = [int(b) for b in rng.integers(0, 2, len(subset))]
        want = prob if _satisfies(_packed(bits), constraints) else DyadicProb.impossible()
        assert strong_prob(s, subset, bits) == want
    return len(constraints)


@st.composite
def wide_readouts(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(15, 300))
    size = draw(st.integers(1, 12))
    c = few_hadamards(rng, n, draw(st.integers(n, 12 * n)), draw(st.integers(0, 2 * size)))
    subset = [int(q) for q in rng.permutation(n)[:size]]
    return c, subset, rng


@settings(max_examples=40, deadline=None)
@given(wide_readouts())
def test_strong_prob_and_support_cut_out_by_z_stabilizers(case):
    check_readers(*case)


def test_readers_at_word_boundaries_and_n_1000():
    # Subsets below and past 64 qubits, read by listing or by sampling,
    # on circuits with few Hadamards and with every kind uniform.
    rng = np.random.default_rng(31)
    constrained = 0
    for n in (15, 63, 64, 65, 129, 300, 1000):
        for c in (few_hadamards(rng, n, 10 * n, 8),
                  random_clifford_circuit(rng, n, 10 * n, kinds=ALL_CLIFFORD)):
            for size in (1, 12, 15, 70):
                if size <= n:
                    subset = [int(q) for q in rng.permutation(n)[:size]]
                    constrained += check_readers(c, subset, rng) > 0
    assert constrained >= 10
