"""Weak versus strong simulation of Clifford measurements.

Strong simulation computes outcome probabilities exactly; for
stabilizer states they are always 0 or a power of 1/2, obtained by one
GF(2) solve.  Weak simulation only draws samples, which here is a
single matrix-vector product per shot.  This script does both on the
same states and lets the sample frequencies converge onto the exact
dyadics.
"""

import numpy as np

from affstab import (enumerate_support, parse, run_clifford, strong_prob,
                     weak_sample_many)
from affstab.measure import format_rows

state = run_clifford(parse("qubits 4\nh 0\ncnot 0 1\ncnot 1 2\nh 3\ncz 3 0"))

print("Exact distribution over qubits (0, 1, 2, 3):")
table = enumerate_support(state, [0, 1, 2, 3], cap=64)
for outcome, prob in table:
    print(f"    {outcome}  {prob}   (= {prob.as_float():.4f})")
print("    sum =", sum(p.as_fraction() for _, p in table))
print()

print("Pointwise queries, including impossible outcomes:")
for alpha in ([0, 0, 0, 0], [1, 1, 1, 0], [1, 0, 1, 0]):
    print(f"    P{tuple(alpha)} = {strong_prob(state, [0, 1, 2, 3], alpha)}")
print()

print("Sampling the same state (seeded, reproducible):")
rows = weak_sample_many(state, [0, 1, 2, 3], 6, np.random.default_rng(7))
for line in format_rows(rows).splitlines():
    print("   ", line)
print()

print("Frequencies vs exact probabilities, 100000 shots:")
shots = 100_000
rows = weak_sample_many(state, [0, 1, 2, 3], shots, np.random.default_rng(1))
keys, counts = np.unique(rows, axis=0, return_counts=True)
freq = {tuple(int(b) for b in k): c / shots for k, c in zip(keys, counts)}
for outcome, prob in table:
    observed = freq.get(outcome.bits, 0.0)
    print(f"    {outcome}  exact {prob.as_float():.4f}   observed {observed:.4f}")
print()

print("Phases never reach the Born rule: the i^l and (-1)^q decorations")
print("of a state can be anything and every probability stays the same;")
print("probabilities depend on (R, t) alone.")
