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

Every route runs only the measured qubits' backward light cone
(``_cone``).  A classical gate changes only the qubit it writes (its
target; either qubit of a SWAP), so walking back from the end, a gate
is kept iff it writes a live qubit, and a kept gate's qubits become
live.  The count enumerates only the m' Hadamard qubits inside the cone
and shifts its numerator left by m - m', since each of their
assignments extends to 2^(m-m') of all m; ``CountResult.m``, the width
cap and the check order stay on the full m.

A batch through a classical suffix is evaluated in one place
(``_read_batch``): the HT and product-front samplers,
``eval_classical_batch`` and the CLI's product-front check call it.
It and the count share one copy of the X/CNOT/TOFFOLI/SWAP rules
(``_run_classical``), over one int per live qubit (``_columns``: a
list of n when every qubit is live, else a dict over the live qubits).
An X is a per-qubit complement bit rather than a pass over the int: a
CNOT XORs the control's bit into the target's, a SWAP swaps them, a
Toffoli applies and clears a set bit on each control first, and the
count's match and the reader apply the bits to the qubits they read.

So the HT routes hold nothing per declared qubit: their time and memory
follow the Hadamard count, the measured qubits and the cone.  A
product front still draws one variate per qubit per shot, because its
output stream depends on that draw.  A width past the index range is
refused with ``CapacityError`` (``circuit._check_width``) before
anything is allocated, and so is a sampling batch past it
(``circuit._check_batch``, which the Clifford sampler shares): shots
times max(m, |S|) bits for HT, shots times n float64 draws for a
product front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import gf2, measure
from .circuit import (CLASSICAL_KINDS, Circuit, Gate, _CLASSICAL_OR_DIAGONAL, _CNOT, _TOFFOLI,
                      _SWAP, _X, _check_batch, _check_width, _first_outside, _h_prefix)
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
    """Apply the gate list to every row of a (shots, n) bit matrix
    (``_read_batch`` with every qubit measured)."""
    return _read_batch(f.n, f.gates, range(f.n), range(f.n), xs)


def _run_classical(cols, gates, ones: int) -> set[int]:
    """Run X/CNOT/TOFFOLI/SWAP gates on ``cols`` in place; return the
    qubits whose value is the complement of their int (see the module
    docstring), for the caller to apply to the ints it reads.

    ``cols`` holds one int per live qubit (``_columns``), bit j its
    value in column j (a shot of a batch or an assignment of the
    count); ``ones`` sets every column.  A Toffoli applies its
    controls' complement bits first because its AND needs their true
    values.
    """
    flips: set[int] = set()
    for kind, qubits, _ in gates:
        if kind is _CNOT:
            c, t = qubits
            cols[t] ^= cols[c]
            if c in flips:
                flips ^= {t}
        elif kind is _X:
            flips ^= {qubits[0]}
        elif kind is _TOFFOLI:
            c1, c2, t = qubits
            if c1 in flips:
                cols[c1] ^= ones
                flips.discard(c1)
            if c2 in flips:
                cols[c2] ^= ones
                flips.discard(c2)
            cols[t] ^= cols[c1] & cols[c2]
        else:
            a, b = qubits
            cols[a], cols[b] = cols[b], cols[a]
            if (a in flips) != (b in flips):
                flips ^= {a, b}
    return flips


def _cone(gates: tuple[Gate, ...], n: int, measured) -> tuple[Sequence[Gate], set[int]]:
    """The gates that can change the ``measured`` qubits, and the qubits
    they read: the backward light cone of a classical suffix.

    Walking back from the end, a gate is kept iff it writes a live qubit
    (its target; either qubit of a SWAP), and a kept gate's qubits become
    live.  A classical gate changes only what it writes, so the dropped
    gates leave the live qubits' final values as they are.  Once every
    qubit is live, every earlier gate is kept; with every qubit measured
    there is no walk.  Nothing here is O(n): the live set holds only the
    measured qubits and those of the kept gates.
    """
    live = set(measured)
    if len(live) == n:
        return gates, live
    kept, i = [], len(gates)
    for kind, qubits, _ in reversed(gates):
        i -= 1
        if qubits[-1] in live or kind is _SWAP and qubits[0] in live:
            kept.append(gates[i])
            live.update(qubits)
            if len(live) == n:
                kept.extend(reversed(gates[:i]))
                break
    kept.reverse()
    return kept, live


def _columns(n: int, live: set[int]) -> list[int] | dict[int, int]:
    """One zero int per live qubit, for ``_run_classical``: a list of n
    when every qubit is live, since it then holds exactly the live
    qubits and indexes faster than a dict, and else a dict over the
    live qubits, so that nothing is held per declared qubit."""
    return [0] * n if len(live) == n else dict.fromkeys(live, 0)


def _read_batch(n: int, gates: Sequence[Gate], measured, qubits: Sequence[int],
                bits: np.ndarray) -> np.ndarray:
    """(shots, |measured|) outcome bits of classical ``gates`` on a batch.

    Column i of the (shots, k) bit matrix ``bits`` is the input of qubit
    ``qubits[i]``; every other qubit's input is 0.  Only the measured
    qubits' cone (``_cone``) runs, and only its qubits' columns are
    packed, one int each with shot j at bit j.  The measured qubits'
    ints are read with their complement bits applied.
    """
    gates, live = _cone(gates, n, measured)
    cols = _columns(n, live)
    picked = [i for i, q in enumerate(qubits) if q in live]
    for i, x in zip(picked, gf2.ints(bits.T[picked])):
        cols[qubits[i]] = x
    shots = len(bits)
    ones = (1 << shots) - 1
    flips = _run_classical(cols, gates, ones)
    out = [cols[q] ^ ones if q in flips else cols[q] for q in measured]
    return np.ascontiguousarray(gf2.bit_matrix(out, shots).T)


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

    The Hadamard bits are drawn uniformly, one (shots, m) uint8 draw,
    and every other qubit's input is 0.  Only the measured qubits' cone
    runs (``_read_batch``), on the draw's columns inside it, so time and
    memory follow the draw and the cone, not the declared width.

    Raises:
        CapacityError: if the width, or shots times max(m, |measured|),
        is past the index range (checked before anything is drawn).
    """
    positions, f = _split_ht(c)
    _check_batch(shots, max(len(positions), len(c.measured)))
    draw = rng.integers(0, 2, size=(shots, len(positions)), dtype=np.uint8)
    return _read_batch(c.n_qubits, f.gates, c.measured, positions, draw)


def ht_strong_count(c: Circuit, subset, alpha,
                    width_limit: int = DEFAULT_WIDTH_LIMIT) -> CountResult:
    """Exact outcome probability of an HT circuit by exhaustive counting.

    Counts the Hadamard assignments whose image matches ``alpha`` on
    ``subset``; the answer is numerator / 2^m with m the Hadamard
    count.  Only the subset's cone (``_cone``) runs: it reads m' <= m
    Hadamard qubits, and each assignment of those extends to 2^(m-m')
    of all m, so the count over the m' is shifted left by m - m'.  Each
    cone qubit is one int, assignment i at bit i, in the samplers'
    container (``_columns``): their bit rows with assignments for
    shots, run through the same rules.  Nothing is held per declared
    qubit unless every qubit is in the cone.

    Raises:
        ValueError: if ``width_limit`` is negative, or the query fails
        ``measure.check_query`` (checked before any mask is built).
        CapacityError: if ``width_limit`` exceeds DEFAULT_WIDTH_LIMIT
        (it may only lower the cap), the width is past the index range,
        or m exceeds ``width_limit``;
        exact probabilities for wide Hadamard layers are #P-hard, so
        the wall is enforced on the full m rather than crossed.
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
    gates, live = _cone(f.gates, c.n_qubits, subset)
    inside = [q for q in positions if q in live]
    full = (1 << (1 << len(inside))) - 1
    values = _columns(c.n_qubits, live)
    for q, col in zip(inside, gf2.counting_columns(len(inside))):
        values[q] = col
    flips = _run_classical(values, gates, full)
    match = full
    for q, bit in zip(subset, alpha):
        match &= values[q] if bit ^ (q in flips) else values[q] ^ full
    return CountResult(match.bit_count() << (m - len(inside)), m)


# ---------------------------------------------------------------------------
# Product-front circuits


def product_front_batch(c: Circuit, shots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(shots, |measured|) outcome bits of a product-front circuit.

    Input bits are independent with P(1) = |b|^2 per qubit, drawn by
    thresholding one 53-bit uniform variate per qubit per shot.
    Diagonal gates only dress basis states with phases, so they are
    ignored; the measured qubits' cone of the classical gates runs on
    the drawn bits of its qubits (``_read_batch``).

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
    xs = rng.random((shots, len(p_one))) < p_one
    return _read_batch(c.n_qubits, classical_part(c).gates, c.measured,
                       range(c.n_qubits), xs)


def _p_one(c: Circuit) -> np.ndarray:
    """The product-front input law: each qubit's P(1) = |b|^2 after its
    prep pair is renormalized."""
    return np.array([abs(b) ** 2 for _, b in normalized_prep(c)])
