"""Hadamard-then-classical circuits: easy to sample, hard to count.

A Hadamard layer followed by reversible classical gates (NOT, CNOT,
Toffoli) is exactly probabilistic classical computation: sampling it
is trivial (draw the Hadamard bits, run the gates), yet computing its
outcome probabilities exactly is a counting problem, so the strong
simulator enumerates all 2^m Hadamard assignments and refuses past a
width limit.  The same sampling trick covers arbitrary product-state
fronts followed by classical and diagonal gates; the diagonal gates
never influence the outcome statistics.
"""

import numpy as np

from affstab import Circuit, GateKind, gate, parse
from affstab.errors import CapacityError
from affstab.nearclifford import (eval_classical_batch, ht_sample_batch,
                                  ht_strong_count, product_front_batch)
from affstab.affine import run_clifford
from affstab.measure import weak_sample_many
from affstab.statevector import distribution, run_statevector

print("An AND gate computed in superposition:")
c = parse("qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2")
print("    circuit: H(0) H(1) TOFFOLI(0,1,2), measure qubit 2")
res = ht_strong_count(c, [2], [1])
print(f"    exact P(1) = {res.numerator}/2^{res.m} = {res.as_fraction()}")
rows = ht_sample_batch(c, 100_000, np.random.default_rng(0))
print(f"    sampled P(1) over 100000 shots = {rows.mean():.4f}")
print()

print("Exact counting walks straight into the wall:")
wide = Circuit(30, tuple(gate(GateKind.H, k) for k in range(30)))
try:
    ht_strong_count(wide, [0], [0])
except CapacityError as exc:
    print("    CapacityError:", exc)
print("    (sampling the same circuit is instant)")
rows = ht_sample_batch(wide, 5, np.random.default_rng(1))
for row in rows:
    print("   ", "".join(str(int(b)) for b in row[:1]), "...")
print()

print("Product-state front: a biased bit copied through a CNOT.")
text = """qubits 2
prep 0 0.5773502691896258 0.0 0.816496580927726 0.0
cnot 0 1
zrot 1 3 7
measure 1
"""
c = parse(text)
rows = product_front_batch(c, 100_000, np.random.default_rng(2))
oracle = distribution(run_statevector(c), [1])
print(f"    sampler P(1) = {rows.mean():.4f}   oracle P(1) = {oracle['1']:.4f}")
print("    (the zrot in the circuit was ignored by the sampler, and the")
print("     oracle confirms it never mattered)")
print()

print("Any weakly samplable front can drive a classical suffix;")
print("here a stabilizer state feeds a Toffoli:")
prefix = run_clifford(parse("qubits 3\nh 0\ncnot 0 1"))
suffix = Circuit(3, (gate(GateKind.TOFFOLI, 0, 1, 2),), None, (2,))
rows = eval_classical_batch(
    suffix, weak_sample_many(prefix, range(3), 100_000, np.random.default_rng(3)))
full = parse("qubits 3\nh 0\ncnot 0 1\ntoffoli 0 1 2\nmeasure 2")
oracle = distribution(run_statevector(full), [2])
print(f"    chained sampler P(1) = {rows.mean():.4f}   "
      f"oracle P(1) = {oracle['1']:.4f}")
