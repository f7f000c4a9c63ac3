"""``run_clifford`` folds gates into one form in place; the public
updates run the same rules on copies and leave their input alone."""

import numpy as np
import pytest

from affstab import (AffineForm, Gate, GateKind, affine, apply_gate, apply_h,
                     apply_phase_family, init_zero, run_clifford)
from affstab.affine import bit_rows
from affstab.circuit import CLIFFORD_KINDS, basic_clifford_gates
from helpers import random_clifford_circuit

ALL_CLIFFORD = sorted(CLIFFORD_KINDS, key=lambda k: k.value)
PHASE_FAMILY = (GateKind.P, GateKind.X, GateKind.Z, GateKind.CZ, GateKind.CNOT)


def fold_apply_gate(c):
    s = init_zero(c.n_qubits)
    for g in c.gates:
        s = apply_gate(s, g)
    return s


def snapshot(s: AffineForm):
    """Every stored piece of ``s``, with its lists copied."""
    rows, t, l, l0, sym, lin = bit_rows(s)
    cols = None if s._cols is None else list(s._cols)
    return list(rows), t, l, l0, list(sym), lin, s._q0, s.m, cols


def some_forms(seed: int):
    """Seeded forms of every size up to 30 qubits, each as ``run_clifford``
    builds it and as a hand-built copy without a frame."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        n = int(rng.integers(1, 31))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 10 * n + 1)),
                                    kinds=ALL_CLIFFORD)
        s = run_clifford(c)
        yield rng, s
        yield rng, AffineForm(s.n, s.R, s.t, s.l, s.q)


@pytest.mark.parametrize("seed", range(4))
def test_run_clifford_equals_folding_apply_gate(seed):
    rng = np.random.default_rng([1500, seed])
    for n in [1, 2, 3, *rng.integers(4, 31, 9)]:
        n = int(n)
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 30 * n + 1)),
                                    kinds=ALL_CLIFFORD)
        fast, ref = run_clifford(c), fold_apply_gate(c)
        assert fast.m == ref.m
        assert fast.dump() == ref.dump()
        assert np.array_equal(fast.frame, ref.frame)
        assert snapshot(fast) == snapshot(ref)


def test_public_updates_leave_their_input_unchanged():
    for rng, s in some_forms(1501):
        n = s.n
        for kind in ALL_CLIFFORD:
            if n < 2 and kind in (GateKind.CNOT, GateKind.CZ, GateKind.SWAP):
                continue
            qubits = tuple(int(q) for q in rng.choice(n, 2 if kind in (
                GateKind.CNOT, GateKind.CZ, GateKind.SWAP) else 1, replace=False))
            g = Gate(kind, qubits)
            before = snapshot(s)
            out = apply_gate(s, g)
            assert snapshot(s)[:8] == before[:8], g
            if kind in PHASE_FAMILY:
                assert snapshot(apply_phase_family(s, g)) == snapshot(out)
                assert snapshot(s)[:8] == before[:8], g
            if kind is GateKind.H:
                assert snapshot(apply_h(s, qubits[0])) == snapshot(out)
                assert snapshot(s)[:8] == before[:8], g
            if before[8] is not None:  # a frame, once there, is never changed
                assert snapshot(s) == before


def test_apply_phase_family_refuses_other_kinds():
    s = init_zero(2)
    for kind in (GateKind.H, GateKind.PDG, GateKind.SWAP):
        g = Gate(kind, (0, 1) if kind is GateKind.SWAP else (0,))
        with pytest.raises(ValueError, match=f"not a phase-family gate: {kind.value}"):
            apply_phase_family(s, g)


def test_run_clifford_calls_apply_h_once_per_hadamard(monkeypatch):
    # The benchmark's tracer wraps this binding and reads m around it.
    real, seen = affine.apply_h, []

    def counting(s, k):
        out = real(s, k)
        seen.append(out.m - s.m)
        return out

    monkeypatch.setattr(affine, "apply_h", counting)
    rng = np.random.default_rng(1502)
    for n in (1, 2, 5, 20, 30):
        c = random_clifford_circuit(rng, n, 10 * n, kinds=ALL_CLIFFORD)
        seen.clear()
        s = run_clifford(c)
        assert len(seen) == sum(g.kind is GateKind.H for g in basic_clifford_gates(c.gates))
        assert set(seen) <= {-1, 0, 1} and sum(seen) == s.m
