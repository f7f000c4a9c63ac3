"""Weak (sampling) and strong (exact probability) measurement simulation.

Computational-basis measurement of a subset S of qubits on an affine
form.  Both read R_S and t_S straight off the form's bit rows
(``affine.subset_rows``), never through the numpy ``R`` view.
Probabilities are exact dyadics (0 or a power of 1/2) computed with no
floating point, by one GF(2) elimination over the |S| row ints per
query; sampling draws the m free parameters uniformly and reads the
measured bits off the ket map, bit-sliced over the shots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import affine, gf2
from .affine import AffineForm
from .errors import CapacityError


@dataclass(frozen=True)
class DyadicProb:
    """Probability 0 or exactly 2^(-gamma)."""

    zero: bool
    gamma: int | None = None

    @staticmethod
    def impossible() -> "DyadicProb":
        return DyadicProb(True, None)

    @staticmethod
    def power(gamma: int) -> "DyadicProb":
        return DyadicProb(False, gamma)

    def as_fraction(self) -> Fraction:
        return Fraction(0) if self.zero else Fraction(1, 2 ** self.gamma)

    def as_float(self) -> float:
        return 0.0 if self.zero else 2.0 ** (-self.gamma)

    def __str__(self) -> str:
        if self.zero:
            return "0"
        return "1" if self.gamma == 0 else f"2^-{self.gamma}"


@dataclass(frozen=True)
class Outcome:
    """Measured qubit indices and the observed bits, in matching order."""

    qubits: tuple[int, ...]
    bits: tuple[int, ...]

    def __str__(self) -> str:
        return format_rows([self.bits])[:-1]


def format_rows(rows) -> str:
    """The rows of a (shots, k) bit matrix as 0/1 text, one line per row."""
    rows = np.asarray(rows, dtype=np.uint8)
    text = np.full((rows.shape[0], rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = rows + ord("0")
    return text.tobytes().decode("ascii")


def _subset(n: int, subset) -> list[int]:
    """The measured qubits as Python ints, checked distinct and in range."""
    qubits = list(map(operator.index, subset))
    if len(set(qubits)) != len(qubits):
        raise ValueError("measured qubits must be distinct")
    if qubits and (min(qubits) < 0 or max(qubits) >= n):
        bad = next(q for q in qubits if not 0 <= q < n)
        raise ValueError(f"qubit {bad} out of range")
    return qubits


def check_query(n: int, subset, alpha) -> tuple[list[int], list[int]]:
    """The qubits and outcome bits of an exact-probability query.

    Both exact paths (``strong_prob`` and HT counting) take their input
    through here, so they accept and refuse the same queries.

    Raises:
        ValueError: if the qubits are not distinct and in range, or the
        outcome is not one bit of exactly 0 or 1 per qubit.
    """
    qubits = _subset(n, subset)
    bits = list(alpha)
    if len(bits) != len(qubits):
        raise ValueError("outcome length does not match subset size")
    if not {0, 1}.issuperset(bits):
        raise ValueError("outcome bits must be 0 or 1")
    return qubits, list(map(int, bits))


def strong_prob(s: AffineForm, subset, alpha) -> DyadicProb:
    """Exact probability that measuring ``subset`` yields bits ``alpha``.

    Phases never enter: the count of parameter assignments hitting
    alpha is 2^(m - rank) out of 2^m, or zero if the restricted system
    R_S u = alpha + t_S is inconsistent.  One elimination over the
    form's bit rows: each row of R_S, with alpha_k + t_k appended at
    bit 0, is reduced by the pivot rows found so far (keyed by their
    top bit); a row that reduces to the lone appended bit is the
    equation 0 = 1, and otherwise the pivots count the rank.
    """
    qubits, bits = check_query(s.n, subset, alpha)
    rows, t_s = affine.subset_rows(s, qubits)
    pivots: dict[int, int] = {}
    for row, tk, a in zip(rows, t_s, bits):
        x = row << 1 | (a ^ tk)
        while x > 1:
            top = x.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = x
                break
            x ^= pivot
        else:
            if x:
                return DyadicProb.impossible()
    return DyadicProb.power(len(pivots))


def weak_sample_many(s: AffineForm, subset, shots: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` independent outcomes; returns a (shots, |S|) bit array.

    Each shot consumes exactly m fair bits from ``rng``.  Bit-sliced: a
    measured bit, over all shots, is the XOR of the parameter columns
    its row of R selects (shot j at bit j), complemented where t is 1.
    """
    rows, t_s = affine.subset_rows(s, _subset(s.n, subset))
    us = rng.integers(0, 2, size=(shots, s.m), dtype=np.uint8)
    # A row keeps parameter i at bit m-1-i: reversed, bit b reads params[b].
    params, ones = gf2.ints(us.T)[::-1], (1 << shots) - 1
    out = [ones if flip else 0 for flip in t_s]
    for k, sel in enumerate(rows):
        while sel:
            low = sel & -sel
            out[k] ^= params[low.bit_length() - 1]
            sel ^= low
    return np.ascontiguousarray(gf2.bit_matrix(out, shots).T)


def enumerate_support(s: AffineForm, subset, cap: int) -> list[tuple[Outcome, DyadicProb]]:
    """All outcomes with nonzero probability, with exact probabilities.

    There are 2^rank(R_S) of them, each of probability 2^(-rank); the
    list is sorted by bit pattern and its probabilities sum to 1
    exactly.

    Raises:
        CapacityError: if the support exceeds ``cap`` outcomes.
    """
    subset = tuple(_subset(s.n, subset))
    rows, t_s = affine.subset_rows(s, subset)
    r_s, t_s = gf2.bit_matrix(rows, s.m)[:, ::-1], np.array(t_s, dtype=np.uint8)
    # Basis of the column space: independent rows of R_S^T.
    rref, pivots = gf2.row_echelon(r_s.T)
    rank = len(pivots)
    if 2 ** rank > cap:
        raise CapacityError(
            f"support has {2 ** rank} outcomes, which exceeds the cap {cap}")
    prob = DyadicProb.power(rank)
    # RREF row i is the only one set at pivot i and is 0 left of it, so
    # an outcome's bits up to pivot i depend on codes 0..i alone, with
    # t + code i at pivot i: counting up through t + codes sorts them.
    ups = (np.arange(2 ** rank)[:, None] >> np.arange(rank - 1, -1, -1)) & 1
    outs = gf2.mat_mul(ups ^ t_s[pivots], rref[:rank]) ^ t_s
    return [(Outcome(subset, tuple(bits)), prob) for bits in outs.tolist()]
