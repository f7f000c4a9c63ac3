"""``run_clifford`` against the stabilizer rows of the Pauli stack, at
widths past the dense oracle (``helpers.stack_check``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import GateKind, run_clifford
from affstab.affine import _make, bit_rows
from helpers import random_clifford_circuit, stack_check

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
