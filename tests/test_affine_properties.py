"""Property tests of the per-gate invariants of the affine form.

Gates are applied one at a time.  After each one R must keep full
column rank, the frame F must still satisfy F R = [I; 0], and the
state must match the dense oracle; every Hadamard must also agree
exactly with the rule it replaced, which found the widened kernel by
elimination (a pivot count and ``helpers.kernel_basis``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (AffineForm, GateKind, LinForm, QuadForm, apply_gate,
                     apply_h, gate, init_zero, sum_out_var, to_statevector)
from affstab import gf2
from affstab.statevector import _apply_gate_tensor, equal_up_to_phase
from helpers import compose_lin, compose_quad, kernel_basis, solve_affine

ARITY = {GateKind.H: 1, GateKind.P: 1, GateKind.PDG: 1, GateKind.X: 1,
         GateKind.Z: 1, GateKind.CZ: 2, GateKind.CNOT: 2, GateKind.SWAP: 2}


def eliminating_h(s: AffineForm, k: int) -> AffineForm:
    """Hadamard by elimination: rank test and kernel of the widened map."""
    n, m = s.n, s.m
    r = s.R[k].copy()
    R = np.zeros((n, m + 1), dtype=np.uint8)
    R[:, 1:] = s.R
    R[k, :] = 0
    R[k, 0] = 1
    t = s.t.copy()
    t[k] = 0
    l = LinForm(np.concatenate([[0], s.l.coeffs]).astype(np.uint8), s.l.const)
    cross = np.zeros((m + 1, m + 1), dtype=np.uint8)
    cross[1:, 1:] = s.q.cross
    cross[0, 1:] = r
    lin = np.concatenate([[int(s.t[k])], s.q.lin]).astype(np.uint8)
    q = QuadForm(cross, lin, s.q.const)
    widened = AffineForm(n, R, t, l, q)
    if len(gf2.row_echelon(R)[1]) == m + 1:
        return widened
    kernel = kernel_basis(R)
    assert kernel.shape[0] == 1 and kernel[0, 0] == 0
    z = kernel[0]
    pivot = int(np.nonzero(z)[0][0])
    qmat = np.eye(m + 1, dtype=np.uint8)
    qmat[:, pivot] = z
    shift = np.zeros(m + 1, dtype=np.uint8)
    widened = AffineForm(n, gf2.mat_mul(R, qmat), t, compose_lin(l, qmat, shift),
                         compose_quad(q, qmat, shift))
    return sum_out_var(widened, pivot)


@st.composite
def gate_sequences(draw):
    n = draw(st.integers(1, 10))
    kinds = [k for k, a in ARITY.items() if a <= n]
    steps = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        order = draw(st.permutations(range(n)))
        # Now and then drop the tracked frame, as a hand-built form has none.
        bare = draw(st.integers(0, 9)) == 0
        steps.append((gate(kind, *order[:ARITY[kind]]), bare))
    return n, steps


@settings(max_examples=150, deadline=None)
@given(gate_sequences())
def test_gates_keep_rank_and_match_oracle(case):
    n, steps = case
    s = init_zero(n)
    tensor = np.zeros(2 ** n, dtype=complex)
    tensor[0] = 1.0
    tensor = tensor.reshape([2] * n)
    for g, bare in steps:
        if bare:
            s = AffineForm(s.n, s.R, s.t, s.l, s.q)
        before = s
        s = apply_gate(s, g)
        _apply_gate_tensor(tensor, g)
        assert len(gf2.row_echelon(s.R)[1]) == s.m
        if s.frame is not None:
            assert len(gf2.row_echelon(s.frame)[1]) == n
            assert np.array_equal(gf2.mat_mul(s.frame, s.R),
                                  np.eye(n, s.m, dtype=np.uint8))
        assert equal_up_to_phase(tensor.reshape(-1), to_statevector(s), 1e-9)
        if g.kind is GateKind.H:
            assert s.dump() == eliminating_h(before, g.qubits[0]).dump()


@settings(max_examples=150, deadline=None)
@given(gate_sequences(), st.data())
def test_hadamard_on_rank_deficient_widening(case, data):
    # Drive the state to one where e_k lies in col(R), so the widened
    # map loses rank, then compare with the elimination rule.
    n, steps = case
    s = init_zero(n)
    for g, _ in steps:
        s = apply_gate(s, g)
    inside = [k for k in range(n)
              if solve_affine(s.R, np.eye(n, dtype=np.uint8)[k])[0] is not None]
    if not inside:
        s = apply_gate(s, gate(GateKind.H, 0))
        inside = [0]
    k = data.draw(st.sampled_from(inside))
    want = eliminating_h(s, k)
    assert want.m <= s.m
    assert apply_h(s, k).dump() == want.dump()
