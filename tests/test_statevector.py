import numpy as np
import pytest

from affstab import (CapacityError, Circuit, GateKind, gate, parse,
                     run_statevector)
from affstab.statevector import (circuit_unitary, distribution,
                                 equal_up_to_phase,
                                 proportional_as_operators, total_variation)
from helpers import random_clifford_circuit, random_text_circuit


def test_single_hadamard():
    vec = run_statevector(parse("qubits 1\nh 0"))
    assert np.allclose(vec, [2 ** -0.5, 2 ** -0.5])


def test_hph_amplitudes():
    vec = run_statevector(parse("qubits 1\nh 0\np 0\nh 0"))
    assert np.allclose(vec, np.array([1, -1j]) * (1 + 1j) / 2)


def test_bell_pair():
    vec = run_statevector(parse("qubits 2\nh 0\ncnot 0 1"))
    assert np.allclose(vec, [2 ** -0.5, 0, 0, 2 ** -0.5])


def test_prep_and_rotations():
    text = ("qubits 2\nprep 0 0.6 0.0 0.0 0.8\n"
            "zrot 0 1 4\nczrot 0 1 1 2\ncnot 0 1\nmeasure 0 1\n")
    vec = run_statevector(parse(text))
    # 0.6|00> + 0.8i|10>; zrot phases the |1x> branch; the czrot is a
    # no-op (qubit 1 still 0 at that point); cnot copies bit 0
    want = np.zeros(4, dtype=complex)
    want[0b00] = 0.6
    want[0b11] = 0.8j * np.exp(1j * np.pi / 4)
    assert np.allclose(vec, want)


def test_width_cap():
    with pytest.raises(CapacityError):
        run_statevector(Circuit(15))


def test_distribution_examples():
    vec = run_statevector(parse("qubits 2\nh 0\ncnot 0 1"))
    assert distribution(vec, [0, 1]) == pytest.approx({"00": 0.5, "01": 0.0,
                                                       "10": 0.0, "11": 0.5})
    assert distribution(run_statevector(parse("qubits 1\nmeasure 0")), [0]) \
        == pytest.approx({"0": 1.0, "1": 0.0})


def test_distribution_subset_order():
    vec = run_statevector(parse("qubits 2\nx 0"))
    assert distribution(vec, [0, 1])["10"] == pytest.approx(1.0)
    assert distribution(vec, [1, 0])["01"] == pytest.approx(1.0)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(6)
    for _ in range(30):
        c = random_text_circuit(rng)
        vec = run_statevector(c)
        total = sum(distribution(vec, c.measured).values())
        assert abs(total - 1.0) < 1e-9


def test_equal_up_to_phase():
    v = np.array([0.6, 0.8j])
    assert equal_up_to_phase(v, 1j * v, 1e-12)
    zero, one = np.array([1.0, 0j]), np.array([0j, 1.0])
    assert not equal_up_to_phase(zero, one, 1e-9)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert not equal_up_to_phase(plus, minus, 1e-9)


def test_proportional_as_operators():
    c = parse("qubits 1\nh 0")
    assert proportional_as_operators(c, c, 1e-9)
    padded = parse("qubits 1\nx 0\nx 0\nh 0")
    assert proportional_as_operators(c, padded, 1e-9)
    hph = parse("qubits 1\nh 0\np 0\nh 0")
    hpz = parse("qubits 1\nh 0\np 0\nz 0")  # its state-prep normal form
    assert equal_up_to_phase(run_statevector(hph), run_statevector(hpz), 1e-9)
    assert not proportional_as_operators(hph, hpz, 1e-9)


def test_gate_involutions_and_p4():
    rng = np.random.default_rng(7)
    base = random_clifford_circuit(rng, 3, 10)
    vec = run_statevector(base)
    doubles = {
        GateKind.H: 2, GateKind.X: 2, GateKind.Z: 2, GateKind.CZ: 2,
        GateKind.CNOT: 2, GateKind.SWAP: 2, GateKind.P: 4,
    }
    for kind, times in doubles.items():
        qubits = (0,) if kind in (GateKind.H, GateKind.X, GateKind.Z,
                                  GateKind.P) else (0, 1)
        gates = base.gates + tuple([gate(kind, *qubits)] * times)
        vec2 = run_statevector(Circuit(3, gates))
        assert np.max(np.abs(vec2 - vec)) < 1e-12


def test_unitary_columns_are_basis_outputs():
    c = parse("qubits 2\nh 0\ncnot 0 1\np 1")
    u = circuit_unitary(c)
    assert np.allclose(u[:, 0], run_statevector(c))
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_total_variation():
    assert total_variation({"0": 1.0}, {"0": 1.0}) == 0
    assert total_variation({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)


def test_rotation_angles_past_float_range_are_exact():
    # exp(i*pi*num/den) has period 2 in num/den: an even huge numerator
    # is the identity and an odd one is Z; a huge denominator is ~0.
    big = 10 ** 400
    for num, den, want in ((big, 1, 1), (big + 1, 1, -1), (-big - 1, 1, -1),
                           (3 * big, big, -1), (1, big, 1)):
        for text in (f"qubits 1\nx 0\nzrot 0 {num} {den}",
                     f"qubits 2\nx 0\nx 1\nczrot 0 1 {num} {den}"):
            vec = run_statevector(parse(text))
            assert abs(vec[-1] - want) < 1e-12 and not vec[:-1].any()


def test_rotation_angles_past_two_to_the_53_are_exact():
    # 2^53 + 1 rounds to an even float; the exact odd numerator makes
    # czrot a CZ, so H on both qubits leaves -1/2 on |11>.
    for num, den, want in ((2 ** 53 + 1, 1, -0.5), (-(2 ** 53) - 1, 1, -0.5),
                           (2 ** 54 + 2, 2, -0.5), (2 ** 53 + 2, 2 ** 53 + 2, -0.5),
                           (2 ** 54, 1, 0.5)):
        vec = run_statevector(parse(f"qubits 2\nh 0\nh 1\nczrot 0 1 {num} {den}"))
        assert np.allclose(vec, [0.5, 0.5, 0.5, want], atol=1e-12)
