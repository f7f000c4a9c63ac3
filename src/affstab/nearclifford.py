"""Weak simulation of two circuit families outside the Clifford set.

Two families are handled.  HT circuits (a Hadamard layer, then
reversible classical gates) are sampled by drawing the Hadamard bits
uniformly and pushing them through the classical function; their exact
output probabilities are #P-hard in general, so strong simulation is a
capped brute-force count over the 2^m Hadamard assignments.

Product-front circuits (an arbitrary product-state preparation, then
classical and diagonal gates) are sampled the same way with the input
bits drawn from the per-qubit |1>-probabilities; the diagonal gates
contribute only phases and never touch the outcome distribution, so
the sampler ignores them outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2, measure
from .circuit import (CLASSICAL_KINDS, DIAGONAL_KINDS, Circuit, Gate,
                      GateKind, expand_swap)
from .errors import CapacityError, ClassificationError
from .statevector import normalized_prep

# The widest Hadamard layer ht_strong_count enumerates: the default and
# the hard maximum of ``width_limit`` (each qubit's mask has 2^m bits).
DEFAULT_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class ClassicalFunction:
    """An invertible function {0,1}^n -> {0,1}^n as a reversible gate list."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if g.kind not in (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI):
                raise ValueError(f"not a classical gate: {g.kind.value}")
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range")

    @staticmethod
    def from_gates(n: int, gates) -> "ClassicalFunction":
        """Build from a gate list, expanding SWAP and dropping nothing."""
        out = []
        for g in gates:
            out.extend(expand_swap(g))
        return ClassicalFunction(n, tuple(out))


@dataclass(frozen=True)
class CountResult:
    """Exact probability numerator / 2^m from brute-force counting."""

    numerator: int
    m: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 2 ** self.m)

    def as_float(self) -> float:
        return self.numerator / 2 ** self.m


def eval_classical_batch(f: ClassicalFunction, xs: np.ndarray) -> np.ndarray:
    """Apply the gate list to every row of a (shots, n) bit matrix."""
    cols, ones = gf2.ints(xs.T), (1 << len(xs)) - 1
    for g in f.gates:
        _apply_classical(cols, g, ones)
    return np.ascontiguousarray(gf2.bit_matrix(cols, len(xs)).T)


def _apply_classical(cols: list[int], g: Gate, ones: int) -> None:
    # One int per qubit, bit j its value in column j (a shot of the
    # batch or an assignment of the count); ``ones`` sets every column.
    if g.kind is GateKind.X:
        cols[g.qubits[0]] ^= ones
    elif g.kind is GateKind.CNOT:
        c, t = g.qubits
        cols[t] ^= cols[c]
    else:
        c1, c2, t = g.qubits
        cols[t] ^= cols[c1] & cols[c2]


# ---------------------------------------------------------------------------
# Circuit splitting


def _split_ht(c: Circuit) -> tuple[list[int], ClassicalFunction]:
    """Hadamard positions (odd-count prefix qubits) and the classical suffix.

    Checked structurally, so Clifford circuits that happen to be a
    Hadamard prefix plus CNOT/X gates qualify too.
    """
    if c.prep is not None:
        raise ClassificationError("HT circuits take the all-zeros input")
    counts = np.zeros(c.n_qubits, dtype=np.int64)
    i = 0
    while i < len(c.gates) and c.gates[i].kind is GateKind.H:
        counts[c.gates[i].qubits[0]] += 1
        i += 1
    for g in c.gates[i:]:
        if g.kind not in CLASSICAL_KINDS:
            raise ClassificationError(
                "circuit is not in HT form: found "
                f"{g.kind.value} after the Hadamard prefix")
    positions = [int(k) for k in np.nonzero(counts % 2)[0]]
    return positions, ClassicalFunction.from_gates(c.n_qubits, c.gates[i:])


def classical_part(c: Circuit) -> ClassicalFunction:
    """The classical (X/CNOT/TOFFOLI/SWAP) gates of a circuit, as a function."""
    gates = [g for g in c.gates if g.kind in CLASSICAL_KINDS]
    return ClassicalFunction.from_gates(c.n_qubits, gates)


# ---------------------------------------------------------------------------
# HT circuits


def ht_sample_batch(c: Circuit, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """(shots, |measured|) outcome bits of an HT circuit.

    The Hadamard bits are drawn uniformly, every other input bit is 0.
    """
    positions, f = _split_ht(c)
    xs = np.zeros((shots, c.n_qubits), dtype=np.uint8)
    if positions:
        xs[:, positions] = rng.integers(0, 2, size=(shots, len(positions)),
                                        dtype=np.uint8)
    return eval_classical_batch(f, xs)[:, list(c.measured)]


def ht_strong_count(c: Circuit, subset, alpha,
                    width_limit: int = DEFAULT_WIDTH_LIMIT) -> CountResult:
    """Exact outcome probability of an HT circuit by exhaustive counting.

    Counts the Hadamard assignments whose image matches ``alpha`` on
    ``subset``; the answer is numerator / 2^m with m the Hadamard
    count.  Each qubit is one int, assignment i at bit i: the samplers'
    bit rows with assignments for shots, run through the same rules.

    Raises:
        ValueError: if ``width_limit`` is negative, or the query fails
        ``measure.check_query`` (checked before any mask is built).
        CapacityError: if ``width_limit`` exceeds DEFAULT_WIDTH_LIMIT
        (it may only lower the cap), or m exceeds ``width_limit``;
        exact probabilities for wide Hadamard layers are #P-hard, so
        the wall is enforced rather than crossed.
    """
    if width_limit < 0:
        raise ValueError(f"width limit {width_limit} is negative")
    if width_limit > DEFAULT_WIDTH_LIMIT:
        raise CapacityError(
            f"width limit {width_limit} is above the maximum "
            f"{DEFAULT_WIDTH_LIMIT}")
    positions, f = _split_ht(c)
    subset, alpha = measure.check_query(c.n_qubits, subset, alpha)
    m = len(positions)
    if m > width_limit:
        raise CapacityError(
            f"strong HT simulation needs 2^{m} enumerations; "
            f"limit is 2^{width_limit}")
    full = (1 << (1 << m)) - 1
    values = [0] * c.n_qubits
    for j, q in enumerate(positions):
        values[q] = _assignment_mask(m, j)
    for g in f.gates:
        _apply_classical(values, g, full)
    match = full
    for q, bit in zip(subset, alpha):
        match &= values[q] if bit else values[q] ^ full
    return CountResult(match.bit_count(), m)


def _assignment_mask(m: int, j: int) -> int:
    """Bit i of the result is bit j of i, for i < 2^m.

    The mask repeats with period 2^(j+1) bits, so it is built from one
    repeated byte pattern in linear time (a big-integer division, the
    closed form, is super-linear).
    """
    if j < 3:
        pattern = bytes([(0xAA, 0xCC, 0xF0)[j]])
    else:
        half = 1 << (j - 3)
        pattern = bytes(half) + b"\xff" * half
    size = 1 << m
    if size < 8:
        return pattern[0] & ((1 << size) - 1)
    return int.from_bytes(pattern * (size // 8 // len(pattern)), "little")


# ---------------------------------------------------------------------------
# Product-front circuits


def product_front_batch(c: Circuit, shots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(shots, |measured|) outcome bits of a product-front circuit.

    Input bits are independent with P(1) = |b|^2 per qubit, drawn by
    thresholding one 53-bit uniform variate per qubit per shot.
    Diagonal gates only dress basis states with phases, so they are
    ignored; the classical gates act on the drawn bits.
    """
    for g in c.gates:
        if g.kind not in CLASSICAL_KINDS and g.kind not in DIAGONAL_KINDS:
            raise ClassificationError(
                f"gate {g.kind.value} is neither classical nor diagonal")
    p_one = np.array([abs(b) ** 2 for _, b in normalized_prep(c)])
    xs = (rng.random((shots, len(p_one))) < p_one).astype(np.uint8)
    return eval_classical_batch(classical_part(c), xs)[:, list(c.measured)]
