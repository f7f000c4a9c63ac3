"""Gates the package builds without ``Gate``'s checks are valid gates,
and ``normalize`` and ``decompose`` classify their circuit once."""

import dataclasses
import io

import numpy as np
import pytest

from affstab import (Gate, GateKind, NormalFormState, OperatorNormalForm, affine, circuit,
                     cli, emit, normalform, parse, run_clifford, synthesize_state_prep)
from affstab.circuit import CLIFFORD_KINDS, basic_clifford_gates
from helpers import random_clifford_circuit

ALL_CLIFFORD = sorted(CLIFFORD_KINDS, key=lambda k: k.value)


def assert_checked(gates):
    gates = list(gates)
    for g in gates:
        assert g == Gate(g.kind, g.qubits, g.angle)
        assert all(type(q) is int for q in g.qubits), g
    return gates


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_derived_gates_pass_the_public_checks(n):
    rng = np.random.default_rng(1400 + n)
    source = random_clifford_circuit(rng, n, 10 * n, kinds=ALL_CLIFFORD)
    c = parse(emit(source))  # SWAPs expanded; every gate built by the parser
    assert_checked(c.gates)
    basic = assert_checked(basic_clifford_gates(source.gates))
    assert basic == list(basic_clifford_gates(c.gates))
    assert not {GateKind.SWAP, GateKind.PDG} & {g.kind for g in basic}
    nf = synthesize_state_prep(run_clifford(c))
    assert_checked(nf.to_circuit(n).gates)
    onf = normalform.decompose_operator(c)
    assert_checked(onf.to_circuit(n).gates)


def test_to_circuit_checks_a_hand_built_hadamard_set():
    for form in (NormalFormState((np.int64(1),), (), ()),
                 OperatorNormalForm((), (np.int64(1),), ())):
        (h,) = assert_checked(form.to_circuit(2).gates)
        assert h.qubits == (1,)
        with pytest.raises(TypeError):
            dataclasses.replace(form, hadamard_set=(1.0,)).to_circuit(2)


def test_normalize_and_decompose_classify_once(tmp_path, monkeypatch):
    calls = []
    original = circuit.classify

    def counting(c):
        calls.append(c)
        return original(c)

    for mod in (circuit, affine, normalform, cli):
        monkeypatch.setattr(mod, "classify", counting)
    rng = np.random.default_rng(1401)
    path = tmp_path / "c.cq"
    path.write_text(emit(random_clifford_circuit(rng, 6, 60, kinds=ALL_CLIFFORD)))
    for verb in ("normalize", "decompose"):
        calls.clear()
        assert cli.run_command([verb, str(path)], io.StringIO(), io.StringIO()) == 0
        assert len(calls) == 1, verb
