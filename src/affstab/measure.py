"""Weak (sampling) and strong (exact probability) measurement simulation.

Computational-basis measurement of a subset S of qubits on an affine
form.  Probabilities are exact dyadics (0 or a power of 1/2) computed
with no floating point; sampling draws the m free parameters uniformly
and reads the measured bits off the ket map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
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


def _subset(s: AffineForm, subset) -> tuple[np.ndarray, np.ndarray]:
    subset = list(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("measured qubits must be distinct")
    for q in subset:
        if not 0 <= q < s.n:
            raise ValueError(f"qubit {q} out of range")
    return s.R[subset, :], s.t[subset]


def strong_prob(s: AffineForm, subset, alpha) -> DyadicProb:
    """Exact probability that measuring ``subset`` yields bits ``alpha``.

    Phases never enter: the count of parameter assignments hitting
    alpha is 2^(m - rank) out of 2^m, or zero if the restricted system
    is inconsistent.
    """
    r_s, t_s = _subset(s, subset)
    alpha = gf2.bits(alpha)
    if alpha.shape != (r_s.shape[0],):
        raise ValueError("outcome length does not match subset size")
    sol = gf2.solve_affine(r_s, alpha ^ t_s)
    if not sol.consistent:
        return DyadicProb.impossible()
    return DyadicProb.power(r_s.shape[1] - sol.kernel_basis.shape[0])


def weak_sample_many(s: AffineForm, subset, shots: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` independent outcomes; returns a (shots, |S|) bit array.

    Each shot consumes exactly m fair bits from ``rng``.  Bit-sliced: a
    measured bit, over all shots, is the XOR of the parameter columns
    its row of R selects (shot j at bit j), complemented where t is 1.
    """
    r_s, t_s = _subset(s, subset)
    us = rng.integers(0, 2, size=(shots, s.m), dtype=np.uint8)
    params, ones = gf2.ints(us.T), (1 << shots) - 1
    rows = [ones if flip else 0 for flip in t_s]
    for k, sel in enumerate(gf2.ints(r_s)):
        while sel:
            low = sel & -sel
            rows[k] ^= params[low.bit_length() - 1]
            sel ^= low
    return np.ascontiguousarray(gf2.bit_matrix(rows, shots).T)


def enumerate_support(s: AffineForm, subset, cap: int) -> list[tuple[Outcome, DyadicProb]]:
    """All outcomes with nonzero probability, with exact probabilities.

    There are 2^rank(R_S) of them, each of probability 2^(-rank); the
    list is sorted by bit pattern and its probabilities sum to 1
    exactly.

    Raises:
        CapacityError: if the support exceeds ``cap`` outcomes.
    """
    r_s, t_s = _subset(s, subset)
    subset = tuple(subset)
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
