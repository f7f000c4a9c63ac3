"""affstab: stabilizer simulation on affine GF(2) subspaces.

Clifford circuits are simulated exactly by tracking a state as a
phase-decorated affine subspace; measurement probabilities come out as
exact powers of 1/2 and sampling is a matrix-vector product.  Clifford
circuits compile into normal forms (a three-round state-preparation
circuit and an operator factorization with a single Hadamard layer),
and two near-Clifford circuit families are weakly simulated by
classical sampling.  A dense statevector oracle cross-checks it all at
small width.
"""

from .affine import (AffineForm, LinForm, QuadForm, amplitude, apply_gate,
                     apply_h, apply_phase_family, init_zero, run_clifford,
                     sum_out_var, to_statevector)
from .circuit import (Circuit, CircuitClass, Gate, GateKind, classify, emit,
                      gate, parse)
from .errors import CapacityError, ClassificationError, ParseError
from .measure import (DyadicProb, Outcome, enumerate_support, strong_prob,
                      weak_sample_many)
from .nearclifford import CountResult, ht_strong_count
from .normalform import (NormalFormState, OperatorNormalForm, conjugate_pauli,
                         conjugated_generators, decompose_operator,
                         synthesize_state_prep)
from .statevector import (distribution, equal_up_to_phase,
                          proportional_as_operators, run_statevector)

__all__ = [
    "AffineForm", "LinForm", "QuadForm", "amplitude", "apply_gate", "apply_h",
    "apply_phase_family", "init_zero", "run_clifford", "sum_out_var",
    "to_statevector",
    "Circuit", "CircuitClass", "Gate", "GateKind", "classify", "emit", "gate",
    "parse",
    "CapacityError", "ClassificationError", "ParseError",
    "DyadicProb", "Outcome", "enumerate_support", "strong_prob",
    "weak_sample_many",
    "CountResult", "ht_strong_count",
    "NormalFormState", "OperatorNormalForm", "conjugate_pauli",
    "conjugated_generators", "decompose_operator", "synthesize_state_prep",
    "distribution", "equal_up_to_phase", "proportional_as_operators",
    "run_statevector",
]
