"""Weak (sampling) and strong (exact probability) measurement simulation.

Computational-basis measurement of a subset S of qubits on an affine
form.  Both read R_S and t_S straight off the form's bit rows
(``affine.subset_rows``), never through the numpy ``R`` view.
Probabilities are exact dyadics (0 or a power of 1/2) computed with no
floating point.  Strong simulation runs one GF(2) elimination of R_S
per subset, memoised on the form: it gives the rank, and one parity
check on the outcome bits per row of R_S that the rows before it span
(the left kernel).  A query then costs |S| - rank parities, and the
support's listing reads the same elimination.  On a memo hit a list or
tuple subset is matched packed two bytes per qubit, and a list or tuple
outcome is checked and read as one ``bytes`` object: a few C-level byte
operations, no Python step per qubit.  Any other subset or outcome (an
array, a range, an iterator) and any input a packing refuses (floats,
negatives, indices past 65,535) takes the per-qubit checks that
``check_query`` also runs, which hold every acceptance rule and error
message.  Sampling draws the m free parameters uniformly and reads the
measured bits off the ket map, bit-sliced over the shots.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import affine, gf2
from .affine import AffineForm
from .circuit import _check_batch, _check_measured
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


def _outcome(size: int, alpha) -> list:
    """The outcome bits as given, checked one bit equal to 0 or 1 per qubit."""
    bits = list(alpha)
    if len(bits) != size:
        raise ValueError("outcome length does not match subset size")
    if not {0, 1}.issuperset(bits):
        raise ValueError("outcome bits must be 0 or 1")
    return bits


def check_query(n: int, subset, alpha) -> tuple[list[int], list[int]]:
    """The qubits and outcome bits of an exact-probability query.

    Both exact paths (``strong_prob`` and HT counting) check their input
    with the same functions, in the same order, so they accept and
    refuse the same queries with the same messages.

    Raises:
        TypeError: if a qubit is not an integer.
        ValueError: if the qubits are not distinct and in range, or the
        outcome is not one bit of exactly 0 or 1 per qubit.
    """
    qubits = _check_measured(n, subset)
    return list(qubits), list(map(int, _outcome(len(qubits), alpha)))


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(bits: list) -> int:
    """Bits equal to 0 or 1 as one int, ``bits[k]`` at bit len(bits)-1-k."""
    try:
        raw = bytes(bits)
    except TypeError:
        # Floats and other non-integers: ``bytes`` takes only integers.
        raw = bytes(map(int, bits))
    return int(b"0" + raw.translate(_DIGITS), 2)


class _Readout:
    """One elimination of R_S, shared by every query on (state, S).

    Outcome position k (qubit ``qubits[k]``) is at bit |S|-1-k of
    ``t`` (t_S) and of each check.  A check is the mask of the rows of
    R_S that sum to zero, one per row the rows before it span, and its
    lowest bit is that row; an outcome alpha is possible iff alpha + t_S
    has even parity on every check.  ``key`` is ``qubits`` packed two
    bytes each by ``packer``, or None past 65,535 (it then equals no
    packing).
    """

    __slots__ = ("qubits", "packer", "key", "rank", "t", "checks", "prob")

    def __init__(self, qubits: tuple[int, ...], rank: int, t: int,
                 checks: tuple[int, ...]):
        self.qubits, self.rank, self.t, self.checks = qubits, rank, t, checks
        self.packer = struct.Struct(f"<{len(qubits)}H")
        try:
            self.key = self.packer.pack(*qubits)
        except struct.error:
            self.key = None
        self.prob = DyadicProb.power(rank)


# The exact types whose items the packings read without using them up.
_PACKABLE = (list, tuple)


def _readout(s: AffineForm, subset) -> _Readout:
    """The readout of ``subset`` on ``s``, memoised on the form.

    The form keeps the last subset's readout (``AffineForm._readout``),
    keyed by its qubits after ``operator.index``; a key is stored only
    once ``_check_measured`` has accepted it, so a hit needs no check.
    A list or tuple is first compared packed: ``struct`` takes its items
    by ``operator.index`` too, and only in 0..65535, so equal packings
    are equal qubits.  Any other subset, and one the packing refuses,
    is compared as a tuple.  The slot always holds a whole readout, so
    threads that race here at worst each run the elimination.
    """
    last = getattr(s, "_readout", None)
    if last is not None and type(subset) in _PACKABLE:
        try:
            if last.packer.pack(*subset) == last.key:
                return last
        except struct.error:
            pass  # refused, or another length: the tuple below decides
    qubits = tuple(map(operator.index, subset))
    if last is not None and last.qubits == qubits:
        return last
    rows, t_s = affine.subset_rows(s, _check_measured(s.n, qubits))
    # Each row of R_S is reduced by the pivot rows so far, keyed by
    # their top bit; c tracks which rows of R_S the result sums.
    size = len(rows)
    pivots: dict[int, tuple[int, int]] = {}
    checks = []
    for k, x in enumerate(rows):
        c = 1 << size - 1 - k
        while x:
            top = x.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = x, c
                break
            x ^= pivot[0]
            c ^= pivot[1]
        else:
            checks.append(c)
    s._readout = last = _Readout(qubits, len(pivots), _pack(t_s), tuple(checks))
    return last


def _outcome_int(size: int, alpha) -> int:
    """``_pack(_outcome(size, alpha))``; a list or tuple of ints is packed
    by ``bytes`` and checked as bytes, anything else by ``_outcome``."""
    if type(alpha) in _PACKABLE:
        try:
            raw = bytes(alpha)
        except (TypeError, ValueError):
            pass  # not all ints in 0..255: ``_outcome`` decides
        else:
            if len(raw) == size and not raw.translate(None, b"\0\1"):
                return int(b"0" + raw.translate(_DIGITS), 2)
    return _pack(_outcome(size, alpha))


_IMPOSSIBLE = DyadicProb.impossible()


def strong_prob(s: AffineForm, subset, alpha) -> DyadicProb:
    """Exact probability that measuring ``subset`` yields bits ``alpha``.

    Phases never enter: the count of parameter assignments hitting
    alpha is 2^(m - rank) out of 2^m, or zero if the restricted system
    R_S u = alpha + t_S is inconsistent.  The system's left side is
    eliminated once per subset and memoised on the form (the module
    docstring); the system is consistent iff alpha + t_S has even
    parity on each of the |S| - rank left-kernel checks it yields.
    """
    readout = _readout(s, subset)
    a = _outcome_int(len(readout.qubits), alpha) ^ readout.t
    for check in readout.checks:
        if (a & check).bit_count() & 1:
            return _IMPOSSIBLE
    return readout.prob


def weak_sample_many(s: AffineForm, subset, shots: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` independent outcomes; returns a (shots, |S|) bit array.

    Each shot consumes exactly m fair bits from ``rng``.  Bit-sliced: a
    measured bit, over all shots, is the XOR of the parameter columns
    its row of R selects (shot j at bit j), complemented where t is 1.

    Raises:
        CapacityError: if shots times m or |S| is past the index range
        (checked before anything is drawn).
    """
    qubits = _check_measured(s.n, subset)
    _check_batch(shots, max(s.m, len(qubits)))
    rows, t_s = affine.subset_rows(s, qubits)
    us = rng.integers(0, 2, size=(shots, s.m), dtype=np.uint8)
    # A row keeps parameter i at bit m-1-i: reversed, bit b reads params[b].
    params, ones = gf2.ints(us.T)[::-1], (1 << shots) - 1
    out = [gf2.combine(params, row) ^ (ones if flip else 0) for row, flip in zip(rows, t_s)]
    return np.ascontiguousarray(gf2.bit_matrix(out, shots).T)


def enumerate_support(s: AffineForm, subset, cap: int) -> list[tuple[Outcome, DyadicProb]]:
    """All outcomes with nonzero probability, with exact probabilities.

    There are 2^rank(R_S) of them, each of probability 2^(-rank); the
    list is sorted by bit pattern and its probabilities sum to 1
    exactly.  It reads the subset's memoised elimination (the module
    docstring), as ``strong_prob`` does.

    Raises:
        CapacityError: if the support exceeds ``cap`` outcomes.
    """
    readout = _readout(s, subset)
    rank, size, t = readout.rank, len(readout.qubits), readout.t
    if 2 ** rank > cap:
        raise CapacityError(
            f"support has {2 ** rank} outcomes, which exceeds the cap {cap}")
    # cols[b] is position b's column (outcome j at bit j).  The positions
    # of the pivot rows are free, and take the bits of j from the
    # highest down; every other position is fixed by its check, which
    # reads only positions before it.  So the first position where two
    # outcomes differ is free, and counting up lists them sorted.
    count = 1 << rank
    codes = reversed(gf2.counting_columns(rank))
    fixed = {check & -check: check for check in readout.checks}
    cols, ones = [0] * size, (1 << count) - 1
    for b in range(size - 1, -1, -1):
        check = fixed.get(1 << b)
        cols[b] = next(codes) if check is None else (
            gf2.combine(cols, check ^ 1 << b) ^ (ones if (t & check).bit_count() & 1 else 0))
    outs = gf2.bit_matrix(cols[::-1], count).T
    return [(Outcome(readout.qubits, tuple(bits)), readout.prob)
            for bits in outs.tolist()]
