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

Both families hold one entry per qubit, so a width past the index range
is refused with ``CapacityError`` (``circuit._check_width``) before
anything is allocated, and so is a sampling batch whose shots times
width is past it (``circuit._check_batch``, which the Clifford sampler
shares).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2, measure
from .circuit import (CLASSICAL_KINDS, Circuit, Gate, _CLASSICAL_OR_DIAGONAL, _CNOT, _TOFFOLI,
                      _X, _check_batch, _check_width, _first_outside, _h_prefix)
from .errors import CapacityError, ClassificationError
from .statevector import normalized_prep

# The widest Hadamard layer ht_strong_count enumerates: the default and
# the hard maximum of ``width_limit`` (each qubit's mask has 2^m bits).
DEFAULT_WIDTH_LIMIT = 24


@dataclass(frozen=True)
class ClassicalFunction:
    """An invertible function {0,1}^n -> {0,1}^n as X/CNOT/TOFFOLI/SWAP gates."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if g.kind not in CLASSICAL_KINDS:
                raise ValueError(f"not a classical gate: {g.kind.value}")
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range")


def _classical_function(n: int, gates: tuple[Gate, ...]) -> ClassicalFunction:
    """A ClassicalFunction built unchecked: the caller has proven what
    ``ClassicalFunction`` checks (classical gates, in range)."""
    f = object.__new__(ClassicalFunction)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "gates", gates)
    return f


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
    kind = g.kind
    if kind is _X:
        cols[g.qubits[0]] ^= ones
    elif kind is _CNOT:
        c, t = g.qubits
        cols[t] ^= cols[c]
    elif kind is _TOFFOLI:
        c1, c2, t = g.qubits
        cols[t] ^= cols[c1] & cols[c2]
    else:
        a, b = g.qubits
        cols[a], cols[b] = cols[b], cols[a]


# ---------------------------------------------------------------------------
# Circuit splitting


def _split_ht(c: Circuit) -> tuple[list[int], ClassicalFunction]:
    """Hadamard positions (odd-count prefix qubits) and the classical suffix.

    Checked structurally, so Clifford circuits that happen to be a
    Hadamard prefix plus CNOT/X gates qualify too.
    """
    if c.prep is not None:
        raise ClassificationError("HT circuits take the all-zeros input")
    _check_width(c.n_qubits)
    i = _h_prefix(c.gates)
    suffix = c.gates[i:]
    bad = _first_outside(suffix, CLASSICAL_KINDS)
    if bad is not None:
        raise ClassificationError(
            f"circuit is not in HT form: found {bad.kind.value} after the Hadamard prefix")
    odd: set[int] = set()
    for g in c.gates[:i]:
        odd.symmetric_difference_update(g.qubits)
    return sorted(odd), _classical_function(c.n_qubits, suffix)


def classical_part(c: Circuit) -> ClassicalFunction:
    """The classical (X/CNOT/TOFFOLI/SWAP) gates of a circuit, as a function."""
    return _classical_function(
        c.n_qubits, tuple(g for g in c.gates if g.kind in CLASSICAL_KINDS))


# ---------------------------------------------------------------------------
# HT circuits


def ht_sample_batch(c: Circuit, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """(shots, |measured|) outcome bits of an HT circuit.

    The Hadamard bits are drawn uniformly, every other input bit is 0.

    Raises:
        CapacityError: if the width, or shots times the width, is past
        the index range.
    """
    positions, f = _split_ht(c)
    _check_batch(shots, c.n_qubits)
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
        (it may only lower the cap), the width is past the index range,
        or m exceeds ``width_limit``;
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
    for q, col in zip(positions, gf2.counting_columns(m)):
        values[q] = col
    for g in f.gates:
        _apply_classical(values, g, full)
    match = full
    for q, bit in zip(subset, alpha):
        match &= values[q] if bit else values[q] ^ full
    return CountResult(match.bit_count(), m)


# ---------------------------------------------------------------------------
# Product-front circuits


def product_front_batch(c: Circuit, shots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(shots, |measured|) outcome bits of a product-front circuit.

    Input bits are independent with P(1) = |b|^2 per qubit, drawn by
    thresholding one 53-bit uniform variate per qubit per shot.
    Diagonal gates only dress basis states with phases, so they are
    ignored; the classical gates act on the drawn bits.

    Raises:
        CapacityError: if the width, or shots times the width's draws,
        is past the index range.
    """
    bad = _first_outside(c.gates, _CLASSICAL_OR_DIAGONAL)
    if bad is not None:
        raise ClassificationError(
            f"gate {bad.kind.value} is neither classical nor diagonal")
    _check_width(c.n_qubits)
    _check_batch(shots, c.n_qubits, itemsize=8)  # one float64 draw per qubit per shot
    p_one = _p_one(c)
    xs = (rng.random((shots, len(p_one))) < p_one).astype(np.uint8)
    return eval_classical_batch(classical_part(c), xs)[:, list(c.measured)]


def _p_one(c: Circuit) -> np.ndarray:
    """The product-front input law: each qubit's P(1) = |b|^2 after its
    prep pair is renormalized."""
    return np.array([abs(b) ** 2 for _, b in normalized_prep(c)])
