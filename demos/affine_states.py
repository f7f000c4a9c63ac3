"""Walk through the affine-subspace picture of stabilizer states.

Every state reachable from |0...0> with H, P and CNOT gates is a
uniform superposition over an affine subspace {Ru + t} of bit strings,
dressed with i^l(u) and (-1)^q(u) phases.  This script builds a few
states gate by gate and prints the (R, t, l, q) data next to the dense
amplitudes so the correspondence is visible.
"""

from affstab import (GateKind, amplitude, apply_gate, gate, init_zero, parse,
                     run_clifford, to_statevector)


def show(label, state):
    print(f"--- {label}")
    print("   ", state.dump())
    print("    m =", state.m, " support =", 2 ** state.m,
          "basis states")
    vec = to_statevector(state)
    for idx, amp in enumerate(vec):
        if abs(amp) > 1e-12:
            bits = format(idx, f"0{state.n}b")
            print(f"    |{bits}>  {amp:+.3f}")
    print()


print("Start in |00>: zero-dimensional subspace, no phases.")
s = init_zero(2)
show("init_zero(2)", s)

print("A Hadamard adds one free parameter: the subspace doubles.")
s = apply_gate(s, gate(GateKind.H, 0))
show("after H(0)", s)

print("CNOT is linear algebra inside the ket: row 1 of R picks up row 0.")
s = apply_gate(s, gate(GateKind.CNOT, 0, 1))
show("after CNOT(0,1) - a Bell pair", s)

print("PHASE decorates the subspace with i^l(u); the ket is untouched.")
s = apply_gate(s, gate(GateKind.P, 0))
show("after P(0)", s)

print("A second Hadamard on qubit 0 hits the rank-deficient case: the")
print("fresh parameter collides with an old one, which is summed out.")
s = apply_gate(s, gate(GateKind.H, 0))
show("after H(0) again", s)

print("Support size along a longer circuit (one line per gate):")
c = parse("qubits 4\nh 0\nh 1\ncnot 0 2\ncz 1 2\nh 2\np 3\nh 3\nh 3\ncnot 3 0")
s = init_zero(4)
for g in c.gates:
    s = apply_gate(s, g)
    print(f"    {g.kind.value:5s} {str(g.qubits):10s} -> m = {s.m}")

print()
print("Amplitudes are read off by solving R u = x + t over GF(2):")
s = run_clifford(parse("qubits 3\nh 0\ncnot 0 1\ncnot 1 2\np 0"))
for x in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
    print(f"    amplitude{tuple(x)} = {amplitude(s, x):+.3f}")
