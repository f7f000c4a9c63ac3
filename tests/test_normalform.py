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
from affstab.circuit import basic_clifford_gates
from affstab.normalform import (_generator_stack, _PauliStack, conjugate_pauli,
                                conjugated_generators, decompose_operator)
from affstab.statevector import (circuit_unitary, equal_up_to_phase,
                                 proportional_as_operators, run_statevector)
from helpers import (pauli_matrix, random_clifford_circuit, reference_decompose_operator,
                     reference_generator_stack, reference_state_prep)

LINEAR_KINDS = {GateKind.CNOT, GateKind.X}
PHASE_KINDS = {GateKind.P, GateKind.CZ, GateKind.Z}


# ---------------------------------------------------------------------------
# Signed Paulis (e, x, z): i^e X(x) Z(z), qubit a at bit a


def random_pauli(rng, n):
    """A random signed Pauli (e, x, z) on n qubits."""
    return (int(rng.integers(0, 4)), int(rng.integers(0, 2 ** n)),
            int(rng.integers(0, 2 ** n)))


def test_conjugation_textbook_relations():
    x = (0, 0b1, 0)
    assert conjugate_pauli(x, gate(GateKind.H, 0)) == (0, 0, 0b1)
    assert conjugate_pauli(x, gate(GateKind.P, 0)) == (1, 0b1, 0b1)
    assert conjugate_pauli(x, gate(GateKind.CNOT, 0, 1)) == (0, 0b11, 0)


def test_conjugation_matches_dense_matrices():
    rng = np.random.default_rng(21)
    kinds = [GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
             GateKind.CNOT, GateKind.CZ, GateKind.SWAP]
    for _ in range(400):
        n = int(rng.integers(1, 4))
        term = random_pauli(rng, n)
        kind = kinds[rng.integers(0, len(kinds))]
        arity = 2 if kind in (GateKind.CNOT, GateKind.CZ, GateKind.SWAP) else 1
        if arity > n:
            continue
        g = gate(kind, *(int(q) for q in rng.choice(n, arity, replace=False)))
        got = conjugate_pauli(term, g)
        assert 0 <= got[0] < 4 and got[1] >> n == got[2] >> n == 0
        u = circuit_unitary(Circuit(n, (g,)))
        want = u @ pauli_matrix(n, *term) @ u.conj().T
        assert np.allclose(pauli_matrix(n, *got), want, atol=1e-12)


def test_conjugation_round_trip_and_pauli_closure():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        term = random_pauli(rng, n)
        for kind, inverse_reps in ((GateKind.H, 1), (GateKind.P, 3),
                                   (GateKind.X, 1), (GateKind.Z, 1)):
            g = gate(kind, int(rng.integers(0, n)))
            out = conjugate_pauli(term, g)
            # squares to +/- identity: still in the Pauli group
            square = pauli_matrix(n, *out) @ pauli_matrix(n, *out)
            assert any(np.allclose(square, sign * np.eye(2 ** n), atol=1e-12)
                       for sign in (1, -1))
            back = out
            for _ in range(inverse_reps):
                back = conjugate_pauli(back, g)
            assert back == term


def test_conjugate_pauli_rejects_non_clifford():
    with pytest.raises(ValueError):
        conjugate_pauli((0, 0b1, 0), gate(GateKind.TOFFOLI, 0, 1, 2))
    with pytest.raises(ClassificationError, match="^circuit is not Clifford-only$"):
        conjugated_generators(parse("qubits 3\ntoffoli 0 1 2"))


def test_conjugate_pauli_refuses_negative_x_and_z():
    h = gate(GateKind.H, 0)
    # Before, -1 was read as X on every qubit and -2 as Z on qubit 1 up.
    for p in ((0, -1, 0), (0, 1, -2), (2, -4, 1)):
        with pytest.raises(ValueError, match="non-negative"):
            conjugate_pauli(p, h)
    # The exponent is read mod 4, negative or not.
    assert conjugate_pauli((5, 1, 0), h) == conjugate_pauli((1, 1, 0), h) == (1, 0, 1)
    assert conjugate_pauli((-1, 1, 0), h) == conjugate_pauli((3, 1, 0), h) == (3, 0, 1)


def test_conjugated_generators_examples():
    c = parse("qubits 2\nmeasure 0")
    assert conjugated_generators(c) == [(0, 0b01, 0), (0, 0b10, 0)]
    c = parse("qubits 1\nh 0")
    assert conjugated_generators(c) == [(0, 0, 0b1)]


def test_conjugated_generators_match_dense():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 25)))
        u = circuit_unitary(c)
        for i, (e, x, z) in enumerate(conjugated_generators(c)):
            want = u @ pauli_matrix(n, 0, 1 << i, 0) @ u.conj().T
            assert np.allclose(pauli_matrix(n, e, x, z), want, atol=1e-9)
            # Hermitian: squares to +I
            assert (e + (x & z).bit_count()) % 2 == 0


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


def random_stack(rng, rows, n):
    """A _PauliStack of ``rows`` random rows on n qubits."""
    def word():
        return int.from_bytes(rng.bytes((rows + 7) // 8), "little") & ((1 << rows) - 1)
    return _PauliStack([word() for _ in range(n)], [word() for _ in range(n)],
                       word(), word())


def stack_state(st):
    return list(st.x), list(st.z), st.lo, st.hi


def test_stack_pdg_and_swap_match_their_expansions():
    # PDG is P applied three times and SWAP three CNOTs, on stacks whose
    # rows span more than one 64-bit word.
    rng = np.random.default_rng(27)
    for _ in range(40):
        rows, n = int(rng.integers(65, 200)), int(rng.integers(2, 7))
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        cnot = GateKind.CNOT
        for kind, qs, expansion in (
                (GateKind.PDG, (a,), [(GateKind.P, (a,))] * 3),
                (GateKind.SWAP, (a, b), [(cnot, (a, b)), (cnot, (b, a)), (cnot, (a, b))])):
            st = random_stack(rng, rows, n)
            want = _PauliStack(*stack_state(st))
            for k, ks in expansion:
                want.apply(k, ks)
            st.apply(kind, qs)
            assert stack_state(st) == stack_state(want)


def test_pdg_and_swap_are_conjugated_as_they_stand():
    # Circuits that hold PDG and SWAP gates (no parser, so SWAP is not
    # expanded) give the expanded circuit's stack and operator form, the
    # numpy reference's, and a factorization proportional to C.
    rng = np.random.default_rng(28)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        c = random_clifford_circuit(rng, n, int(rng.integers(1, 8 * n)), kinds=ALL_CLIFFORD)
        c = Circuit(n, c.gates + (gate(GateKind.PDG, n - 1), gate(GateKind.SWAP, 0, n - 1)))
        expanded = Circuit(n, tuple(basic_clifford_gates(c.gates)))
        assert stack_state(_generator_stack(c)) == stack_state(_generator_stack(expanded))
        for a, b in zip(stack_arrays(_generator_stack(c), n), reference_generator_stack(c)):
            assert np.array_equal(a, b)
        onf = decompose_operator(c)
        assert onf == decompose_operator(expanded)
        assert (onf.m1, onf.hadamard_set, onf.m2) == reference_decompose_operator(c)
        assert proportional_as_operators(c, onf.to_circuit(n), 1e-9)


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
