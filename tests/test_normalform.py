import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (Circuit, GateKind, amplitude, gate, gf2, init_zero, parse,
                     run_clifford, synthesize_state_prep)
from affstab.affine import MAX_CLIFFORD_QUBITS
from affstab.errors import CapacityError, ClassificationError
from affstab.normalform import (PauliTerm, _generator_stack, conjugate_pauli,
                                conjugated_generators, decompose_operator)
from affstab.statevector import (circuit_unitary, equal_up_to_phase,
                                 proportional_as_operators, run_statevector)
from helpers import (random_clifford_circuit, reference_decompose_operator,
                     reference_generator_stack, reference_state_prep)

LINEAR_KINDS = {GateKind.CNOT, GateKind.X}
PHASE_KINDS = {GateKind.P, GateKind.CZ, GateKind.Z}


# ---------------------------------------------------------------------------
# Pauli terms


def test_pauli_multiplication_signs():
    x = PauliTerm.x_gen(1, 0)
    z = PauliTerm.z_gen(1, 0)
    xz = x * z
    zx = z * x
    assert np.allclose(xz.to_matrix(), x.to_matrix() @ z.to_matrix())
    assert np.allclose(zx.to_matrix(), z.to_matrix() @ x.to_matrix())
    assert zx.phase_exp == (xz.phase_exp + 2) % 4


def test_conjugation_textbook_relations():
    x = PauliTerm.x_gen(1, 0)
    assert conjugate_pauli(x, gate(GateKind.H, 0)) == PauliTerm.z_gen(1, 0)
    y = conjugate_pauli(x, gate(GateKind.P, 0))
    assert y.phase_exp == 1 and y.xpart.tolist() == [1] and y.zpart.tolist() == [1]
    x0 = PauliTerm.x_gen(2, 0)
    spread = conjugate_pauli(x0, gate(GateKind.CNOT, 0, 1))
    assert spread.xpart.tolist() == [1, 1] and not spread.zpart.any()
    assert spread.phase_exp == 0


def test_conjugation_matches_dense_matrices():
    rng = np.random.default_rng(21)
    kinds = [GateKind.H, GateKind.P, GateKind.X, GateKind.Z,
             GateKind.CNOT, GateKind.CZ]
    for _ in range(300):
        n = int(rng.integers(1, 4))
        term = PauliTerm.make(n, int(rng.integers(0, 4)),
                              rng.integers(0, 2, n, dtype=np.uint8),
                              rng.integers(0, 2, n, dtype=np.uint8))
        kind = kinds[rng.integers(0, len(kinds))]
        arity = 2 if kind in (GateKind.CNOT, GateKind.CZ) else 1
        if arity > n:
            continue
        g = gate(kind, *(int(q) for q in rng.choice(n, arity, replace=False)))
        got = conjugate_pauli(term, g)
        u = circuit_unitary(Circuit(n, (g,)))
        want = u @ term.to_matrix() @ u.conj().T
        assert np.allclose(got.to_matrix(), want, atol=1e-12)


def test_conjugation_round_trip_and_pauli_closure():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        term = PauliTerm.make(n, int(rng.integers(0, 4)),
                              rng.integers(0, 2, n, dtype=np.uint8),
                              rng.integers(0, 2, n, dtype=np.uint8))
        for kind, inverse_reps in ((GateKind.H, 1), (GateKind.P, 3),
                                   (GateKind.X, 1), (GateKind.Z, 1)):
            g = gate(kind, int(rng.integers(0, n)))
            out = conjugate_pauli(term, g)
            # squares to +/- identity: still in the Pauli group
            square = out * out
            assert not square.xpart.any() and not square.zpart.any()
            assert square.phase_exp in (0, 2)
            back = out
            for _ in range(inverse_reps):
                back = conjugate_pauli(back, g)
            assert back == term


def test_conjugate_pauli_rejects_non_clifford():
    with pytest.raises(ValueError):
        conjugate_pauli(PauliTerm.x_gen(3, 0), gate(GateKind.TOFFOLI, 0, 1, 2))


def test_conjugated_generators_examples():
    c = parse("qubits 2\nmeasure 0")
    assert conjugated_generators(c) == [PauliTerm.x_gen(2, 0),
                                        PauliTerm.x_gen(2, 1)]
    c = parse("qubits 1\nh 0")
    assert conjugated_generators(c) == [PauliTerm.z_gen(1, 0)]


def test_conjugated_generators_match_dense():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 25)))
        u = circuit_unitary(c)
        for i, sigma in enumerate(conjugated_generators(c)):
            want = u @ PauliTerm.x_gen(n, i).to_matrix() @ u.conj().T
            assert np.allclose(sigma.to_matrix(), want, atol=1e-9)
            assert sigma.is_hermitian()


# ---------------------------------------------------------------------------
# State-preparation normal form


def test_state_prep_ghz():
    nf = synthesize_state_prep(run_clifford(parse("qubits 2\nh 0\ncnot 0 1")))
    assert nf.hadamard_set == (0,)
    assert [(g.kind, g.qubits) for g in nf.linear_layer] == [(GateKind.CNOT, (0, 1))]
    assert nf.phase_layer == ()


def test_state_prep_identity():
    nf = synthesize_state_prep(init_zero(3))
    assert nf.hadamard_set == ()
    assert nf.linear_layer == () and nf.phase_layer == ()


def test_state_prep_layer_discipline_and_replay():
    rng = np.random.default_rng(24)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 50)))
        s = run_clifford(c)
        nf = synthesize_state_prep(s)
        assert all(g.kind in LINEAR_KINDS for g in nf.linear_layer)
        assert all(g.kind in PHASE_KINDS for g in nf.phase_layer)
        assert len(nf.hadamard_set) == s.m
        replay = run_statevector(nf.to_circuit(n))
        assert equal_up_to_phase(run_statevector(c), replay, 1e-9)


def test_hph_footnote_state_equal_operator_not():
    c = parse("qubits 1\nh 0\np 0\nh 0")
    nf = synthesize_state_prep(run_clifford(c))
    nfc = nf.to_circuit(1)
    assert equal_up_to_phase(run_statevector(c), run_statevector(nfc), 1e-9)
    u1, u2 = circuit_unitary(c), circuit_unitary(nfc)
    assert not np.allclose(u1, u2, atol=1e-9)
    assert not proportional_as_operators(c, nfc, 1e-9)


# ---------------------------------------------------------------------------
# Operator normal form


def test_decompose_single_hadamard():
    onf = decompose_operator(parse("qubits 1\nh 0"))
    assert onf.m1 == () and onf.m2 == () and onf.hadamard_set == (0,)


def test_decompose_x_gate():
    c = parse("qubits 1\nx 0")
    onf = decompose_operator(c)
    assert onf.hadamard_set == ()
    kinds = {g.kind for g in onf.m1 + onf.m2}
    assert GateKind.X in kinds
    assert proportional_as_operators(c, onf.to_circuit(1), 1e-9)


def test_decompose_requires_clifford():
    with pytest.raises(ClassificationError):
        decompose_operator(parse("qubits 3\ntoffoli 0 1 2"))


def test_decompose_random_proportionality():
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 40)))
        onf = decompose_operator(c)
        # single Hadamard layer: the basis-preserving layers carry no H
        assert all(g.kind is not GateKind.H for g in onf.m1 + onf.m2)
        assert len(set(onf.hadamard_set)) == len(onf.hadamard_set)
        assert proportional_as_operators(c, onf.to_circuit(n), 1e-9)


def test_decompose_beyond_oracle_width():
    # n=40 is past the dense oracle: compare C and M2*H*M1 on inputs
    # through the affine simulator.  Each input is a basis state with H
    # on a random half of the qubits, so that a wrong phase in M1 is a
    # relative phase, not a global one the comparison cannot see.
    rng = np.random.default_rng(26)
    n = 40
    c = random_clifford_circuit(rng, n, 400)
    onf = decompose_operator(c).to_circuit(n)
    for _ in range(3):
        prefix = tuple(gate(GateKind.X, int(k))
                       for k in np.nonzero(rng.integers(0, 2, n))[0])
        prefix += tuple(gate(GateKind.H, int(k))
                        for k in np.nonzero(rng.integers(0, 2, n))[0])
        s1 = run_clifford(Circuit(n, prefix + c.gates))
        s2 = run_clifford(Circuit(n, prefix + onf.gates))
        # same affine support: equal dimension, spans and shifts agree
        joint = np.concatenate([s1.R, s2.R, (s1.t ^ s2.t)[:, None]], axis=1)
        assert s1.m == s2.m == len(gf2.row_echelon(joint)[1])
        us = rng.integers(0, 2, (64, s1.m), dtype=np.uint8)
        points = gf2.mat_mul(us, s1.R.T) ^ s1.t
        ratios = [amplitude(s2, x) / amplitude(s1, x) for x in points]
        assert np.allclose(ratios, ratios[0], atol=1e-12)


def test_generator_stack_width_cap():
    n = MAX_CLIFFORD_QUBITS + 1
    with pytest.raises(CapacityError):
        conjugated_generators(Circuit(n, (gate(GateKind.H, n - 1),)))


# ---------------------------------------------------------------------------
# The bit-sliced stack and the int-row synthesis against numpy references

ALL_CLIFFORD = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
                GateKind.CNOT, GateKind.CZ, GateKind.SWAP)


@st.composite
def clifford_circuits(draw, widths=st.integers(1, 12)):
    """A seeded random Clifford circuit, PDG and SWAP included."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(widths)
    kinds = ALL_CLIFFORD if n > 1 else ALL_CLIFFORD[:5]
    return random_clifford_circuit(rng, n, draw(st.integers(0, 12 * n)), kinds=kinds)


def stack_arrays(stack, n):
    """(x, z, e) of a bit-sliced stack as (rows, qubits) arrays."""
    x, z = gf2.bit_matrix(stack.x, n).T, gf2.bit_matrix(stack.z, n).T
    lo, hi = gf2.bit_matrix([stack.lo, stack.hi], n)
    return x, z, lo + 2 * hi


@settings(max_examples=150, deadline=None)
@given(clifford_circuits())
def test_generator_stack_matches_numpy_reference(c):
    got = stack_arrays(_generator_stack(c), c.n_qubits)
    for a, b in zip(got, reference_generator_stack(c)):
        assert np.array_equal(a, b)


@settings(max_examples=10, deadline=None)
@given(clifford_circuits(widths=st.just(70)))
def test_generator_stack_wider_than_a_word(c):
    got = stack_arrays(_generator_stack(c), 70)
    for a, b in zip(got, reference_generator_stack(c)):
        assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(clifford_circuits())
def test_normal_forms_match_numpy_reference(c):
    nf = synthesize_state_prep(run_clifford(c))
    assert (nf.hadamard_set, nf.linear_layer, nf.phase_layer) == \
        reference_state_prep(run_clifford(c))
    onf = decompose_operator(c)
    assert (onf.m1, onf.hadamard_set, onf.m2) == reference_decompose_operator(c)


def test_stack_squares_check_raises_under_dash_o():
    # A row that no longer squares to +I (e_0 = 1 with X on qubit 0)
    # must raise InvariantError also when asserts are compiled out.
    code = (
        "from affstab import normalform, parse\n"
        "from affstab.errors import InvariantError\n"
        "real = normalform._PauliStack.apply\n"
        "def skewed(self, kind, qs):\n"
        "    real(self, kind, qs)\n"
        "    self.lo |= 1\n"
        "normalform._PauliStack.apply = skewed\n"
        "try:\n"
        "    normalform.decompose_operator(parse('qubits 2\\nx 0\\n'))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "conjugate of X_i must square to +I\n", done.stderr
