"""Compiling Clifford circuits into normal forms.

Any Clifford output state is preparable by three rounds: Hadamards on
the first m qubits, a CNOT/X routing layer, and a diagonal P/CZ/Z
layer.  That is a state-level statement: the classic counterexample
HPH has a normal form that prepares the same state but differs from it
as a matrix.  Lifting to operators, every Clifford circuit factors as
M2 * H * M1 (up to a global constant) with basis-preserving M1, M2 and
a single Hadamard layer.
"""

import numpy as np

from affstab import (emit, parse, run_clifford, run_statevector,
                     synthesize_state_prep)
from affstab.normalform import conjugated_generators, decompose_operator
from affstab.statevector import (circuit_unitary, equal_up_to_phase,
                                 proportional_as_operators)


def describe(gates):
    return " ".join(f"{g.kind.value}{list(g.qubits)}" for g in gates) or "(none)"


print("A tangled 3-qubit Clifford circuit:")
c = parse("qubits 3\nh 0\np 0\ncnot 0 1\nh 1\ncz 1 2\nh 2\ncnot 2 0\np 2")
print(emit(c))

nf = synthesize_state_prep(run_clifford(c))
print("Its three-round preparation:")
print("    round 1 (H):     ", sorted(nf.hadamard_set))
print("    round 2 (route): ", describe(nf.linear_layer))
print("    round 3 (phase): ", describe(nf.phase_layer))
same = equal_up_to_phase(run_statevector(c),
                         run_statevector(nf.to_circuit(3)), 1e-9)
print("    same output state:", same)
print()

print("The HPH story: equal states, unequal matrices.")
hph = parse("qubits 1\nh 0\np 0\nh 0")
nfc = synthesize_state_prep(run_clifford(hph)).to_circuit(1)
print("    normal form gates:", describe(nfc.gates))
print("    states equal:     ",
      equal_up_to_phase(run_statevector(hph), run_statevector(nfc), 1e-9))
print("    operators equal:  ",
      bool(np.allclose(circuit_unitary(hph), circuit_unitary(nfc), atol=1e-9)))
print()

print("Heisenberg view: conjugating each X generator through the circuit")
print("gives signed Pauli terms (the data the operator form is built from):")
for i, (e, x, z) in enumerate(conjugated_generators(c)):
    print(f"    C X{i} C+ = i^{e} "
          f"X{[a for a in range(c.n_qubits) if x >> a & 1]} "
          f"Z{[a for a in range(c.n_qubits) if z >> a & 1]}")
print()

print("Operator factorization C ~ M2 * H * M1:")
onf = decompose_operator(c)
print("    M1:", describe(onf.m1))
print("    H: ", sorted(onf.hadamard_set))
print("    M2:", describe(onf.m2))
print("    proportional as operators:",
      proportional_as_operators(c, onf.to_circuit(3), 1e-9))
print()
print("Even HPH, which defeats the state-level form as a matrix, factors:")
onf = decompose_operator(hph)
print("    M1:", describe(onf.m1), "| H:", sorted(onf.hadamard_set),
      "| M2:", describe(onf.m2))
print("    proportional as operators:",
      proportional_as_operators(hph, onf.to_circuit(1), 1e-9))
