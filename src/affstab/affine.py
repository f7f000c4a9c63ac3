"""Stabilizer states as phase-decorated affine subspaces over GF(2).

An n-qubit stabilizer state is stored as

    2^(-m/2) * sum_u  i^l(u) * (-1)^q(u) * |R u + t>,   u in {0,1}^m

where R is an n x m full-column-rank matrix over GF(2), t is an n-bit
shift, l is an affine (mod-2) function of u and q a quadratic (mod-2)
function of u.  Global phase is not tracked: all equality is up to one
unit constant.

Each Clifford gate updates (R, t, l, q) exactly.  PHASE, X, Z, CZ and
CNOT never change m; Hadamard introduces a fresh parameter v and, when
the new column system becomes rank deficient, sums one parameter out
in closed form (the rule of ``sum_out_var``): either v stays and the
phase absorbs the sum, or the sum fixes v and m drops by one.

Storage.  Every bit vector is one Python int.  A vector over the
parameters keeps parameter i (the i-th column of ``R``) at bit m-1-i,
so the parameter a Hadamard puts in front takes the next free bit and
no other bit moves.  R is n such ints (row k: the parameters bit k of
the ket reads), t one int over the qubits (bit k is t_k), l and the
linear part of q are parameter ints plus a constant bit, and the cross
terms of q are the m rows of the symmetric matrix B = cross + cross^T,
indexed by bit.  The frame (below) is n ints, column c of F holding
F[i, c] at bit m-1-i for the m parameter rows and at bit i for the
other rows.  The attributes ``R``, ``t``, ``l``, ``q`` and ``frame``
are numpy views, built on first read, cached and read-only; the lists
behind them are never changed after a form is returned.  Measurement reads
the rows themselves: ``subset_rows`` gives R_S as the row ints of the
measured qubits (same bit order) and t_S as one 0/1 int per qubit;
the normal forms read all of them through ``bit_rows``.  One more
slot, ``_readout``, is ``measure``'s memo: the elimination of R_S for
the last measured subset, set on first query, which depends only on
the form and the subset, so nothing ever invalidates it.

Cost per gate, in operations on ints of at most n bits (one machine
word per 64 bits): X, Z and CNOT, O(1); P and CZ, one XOR of a row of
B per set bit of the two affine functions multiplied, O(m).  A
Hadamard runs no elimination: the frame, an invertible F with
F R = [I_m; 0] kept in step with R by every update, tells from one
column whether the widened system loses rank and, if so, gives its
kernel vector.  Updating F is one pass of a few operations over its n
columns; a rank-deficient Hadamard also renumbers the n rows of R and
the m rows of B, one pass each.

``run_clifford`` folds every gate but H into one form in place, so
those costs are all it pays.  The public updates (``apply_gate``,
``apply_phase_family``, ``apply_h``, ``sum_out_var``) return a new form
sharing every list the gate leaves unchanged; the lists a gate does
change are copied first (O(n) for CNOT, O(m) for P and CZ), and a
Hadamard builds all of its lists anew.

Full column rank of R is checked where it costs nothing extra: each
rank-deficient Hadamard checks R u = e_k in row k, ``run_clifford``
ends with one ``gf2.independent_rows`` pass over R's rows, and a form
without a frame (hand-built) gets one from an elimination that checks
the rank in ``apply_h`` and ``amplitude``, or runs that O(n m) pass in
``subset_rows`` and ``to_statevector``, which need no frame.  All
checks raise ``errors.InvariantError``, so they hold under ``python -O``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import (Circuit, CircuitClass, Gate, GateKind, _CNOT, _CZ, _H, _P, _PDG, _SWAP,
                      _X, _Z, classify)
from .errors import CapacityError, ClassificationError, InvariantError
from .statevector import MAX_QUBITS


@dataclass(frozen=True)
class LinForm:
    """Affine function u -> coeffs.u + const over GF(2)."""

    coeffs: np.ndarray  # (m,) uint8
    const: int = 0

    @staticmethod
    def zero(m: int) -> "LinForm":
        return LinForm(np.zeros(m, dtype=np.uint8), 0)

    def __call__(self, u: np.ndarray) -> int:
        return (gf2.dot(self.coeffs, u) + self.const) % 2


@dataclass(frozen=True)
class QuadForm:
    """Quadratic function over GF(2).

    q(u) = sum_{i<j} cross[i,j] u_i u_j + lin.u + const, with ``cross``
    strictly upper triangular; diagonal terms are always folded into
    ``lin`` since u_i^2 = u_i.
    """

    cross: np.ndarray  # (m, m) uint8, strictly upper triangular
    lin: np.ndarray    # (m,) uint8
    const: int = 0

    @staticmethod
    def zero(m: int) -> "QuadForm":
        return QuadForm(np.zeros((m, m), dtype=np.uint8),
                        np.zeros(m, dtype=np.uint8), 0)

    def __call__(self, u: np.ndarray) -> int:
        u = np.asarray(u, dtype=np.uint8)
        quad = int(u @ (self.cross @ u))
        return (quad + gf2.dot(self.lin, u) + self.const) % 2


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _param_vector(x: int, m: int) -> np.ndarray:
    return _frozen(gf2.bit_matrix([x], m)[0, ::-1])


def _bit_array(name: str, a) -> np.ndarray:
    """``a`` as a uint8 array; ``ValueError`` unless every entry is 0 or 1."""
    a = np.asarray(a)
    if not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return a.astype(np.uint8)


class AffineForm:
    """The (R, t, l, q) representation of a stabilizer state.

    Built from numpy pieces of matching shapes whose entries are 0 or 1
    (``ValueError`` otherwise), ``AffineForm(n, R, t, l, q)``;
    ``q.cross`` may be any square 0/1 matrix and is read as the
    function it denotes.
    Forms built by the gate updates also carry a frame, an invertible
    n x n matrix F with F R = [I_m; 0]: its first m rows read the
    parameters off a ket offset, u = F[:m] (x + t), and its other rows
    vanish exactly on the column space of R.  The updates keep it in
    step with R, so no update needs an elimination; a hand-built form
    has none until its first Hadamard (or ``amplitude``) computes one
    from R and keeps it.  It plays no part in the state the form
    denotes.  Forms are immutable; see the module docstring for the
    storage.
    """

    __slots__ = ("n", "_m", "_rows", "_t", "_l", "_l0", "_sym", "_lin", "_q0",
                 "_cols", "_R_view", "_t_view", "_l_view", "_q_view",
                 "_frame_view", "_readout")

    def __init__(self, n: int, R, t, l: LinForm, q: QuadForm):
        n = int(n)
        R, t = _bit_array("R", R), _bit_array("t", t)
        coeffs = _bit_array("l.coeffs", l.coeffs)
        cross, lin = _bit_array("q.cross", q.cross), _bit_array("q.lin", q.lin)
        if n < 1:
            raise ValueError("need at least one qubit")
        if R.ndim != 2 or R.shape[0] != n:
            raise ValueError(f"R must have shape ({n}, m), not {R.shape}")
        m = R.shape[1]
        for name, a, shape in (("t", t, (n,)), ("l.coeffs", coeffs, (m,)),
                               ("q.cross", cross, (m, m)), ("q.lin", lin, (m,))):
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, not {a.shape}")
        self.n, self._m = n, m
        self._rows = gf2.ints(R[:, ::-1])
        (self._t,) = gf2.ints(t[None, :])
        (self._l,) = gf2.ints(coeffs[None, ::-1])
        self._l0 = int(l.const) & 1
        self._sym = gf2.ints((cross ^ cross.T)[::-1, ::-1])
        (self._lin,) = gf2.ints((lin ^ np.diagonal(cross))[None, ::-1])
        self._q0 = int(q.const) & 1
        self._cols = None

    @property
    def m(self) -> int:
        """The number of parameters; 2^m basis states carry the state."""
        return self._m

    @property
    def R(self) -> np.ndarray:
        """(n, m) uint8, full column rank."""
        try:
            return self._R_view
        except AttributeError:
            self._R_view = _frozen(gf2.bit_matrix(self._rows, self._m)[:, ::-1])
            return self._R_view

    @property
    def t(self) -> np.ndarray:
        """(n,) uint8."""
        try:
            return self._t_view
        except AttributeError:
            self._t_view = _frozen(gf2.bit_matrix([self._t], self.n)[0])
            return self._t_view

    @property
    def l(self) -> LinForm:
        """Over the m parameters."""
        try:
            return self._l_view
        except AttributeError:
            self._l_view = LinForm(_param_vector(self._l, self._m), self._l0)
            return self._l_view

    @property
    def q(self) -> QuadForm:
        """Over the m parameters."""
        try:
            return self._q_view
        except AttributeError:
            sym = gf2.bit_matrix(self._sym, self._m)[::-1, ::-1]
            self._q_view = QuadForm(_frozen(np.triu(sym, 1)),
                                    _param_vector(self._lin, self._m), self._q0)
            return self._q_view

    @property
    def frame(self) -> np.ndarray | None:
        """(n, n) uint8 with frame @ R = [I_m; 0], or None."""
        try:
            return self._frame_view
        except AttributeError:
            if self._cols is None:
                return None   # not cached: amplitude or apply_h may store one
            f = gf2.bit_matrix(self._cols, self.n).T
            self._frame_view = _frozen(np.concatenate((f[:self._m][::-1], f[self._m:])))
            return self._frame_view

    def dump(self) -> str:
        """Debug view of (R, t, l, q); format carries no compatibility promise."""
        return (f"R={self.R.tolist()}, t={self.t.tolist()}, "
                f"l=({self.l.coeffs.tolist()}, {self.l.const}), "
                f"q=(cross={self.q.cross.tolist()}, "
                f"lin={self.q.lin.tolist()}, const={self.q.const})")

    def __repr__(self) -> str:
        return f"AffineForm(n={self.n}, m={self._m}, {self.dump()})"


def _make(n: int, m: int, rows: list[int], t: int, l: int, l0: int,
          sym: list[int], lin: int, q0: int, cols: list[int] | None) -> AffineForm:
    s = object.__new__(AffineForm)
    s.n, s._m, s._rows, s._t, s._l, s._l0 = n, m, rows, t, l, l0
    s._sym, s._lin, s._q0, s._cols = sym, lin, q0, cols
    return s


# The Clifford width cap.  It was sized for the dense n x n uint8 arrays
# the normal forms once held; every Clifford path now keeps n x n bits as
# n Python ints (the frame, the generator stack, the eliminations), about
# n^2/8 bytes each, so the cap is kept for time, not memory: the
# eliminations of ``normalize`` and ``decompose`` are O(n^2) interpreted
# row steps (ROADMAP item 9 has the times at n = 2000 and 4000).
MAX_CLIFFORD_QUBITS = 4096


def check_clifford_width(n: int) -> None:
    """Raise ``CapacityError`` before any allocation past the cap."""
    if n > MAX_CLIFFORD_QUBITS:
        raise CapacityError(f"Clifford simulation limited to {MAX_CLIFFORD_QUBITS} "
                            f"qubits, circuit has {n}")


def init_zero(n: int) -> AffineForm:
    """The all-zeros state |0...0> on n qubits (m = 0).

    Raises:
        CapacityError: if n exceeds ``MAX_CLIFFORD_QUBITS``.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    check_clifford_width(n)
    return _make(n, 0, [0] * n, 0, 0, 0, [], 0, 0, [1 << c for c in range(n)])


def bit_rows(s: AffineForm) -> tuple[list[int], int, int, int, list[int], int]:
    """(R, t, l, l0, B, lin): the form's stored bit rows and ints, in the
    bit order of the module docstring (q's constant is left out).  The
    lists are the form's own; callers must not change them."""
    return s._rows, s._t, s._l, s._l0, s._sym, s._lin


def subset_rows(s: AffineForm, qubits) -> tuple[list[int], list[int]]:
    """R_S and t_S on the bit rows: for each qubit k of ``qubits`` (Python
    ints, checked by the caller), row k of R and the bit t_k.  A form that
    is not a state (R lacks full column rank) raises ``InvariantError``."""
    _check_rank(s)
    rows, t = s._rows, s._t
    return [rows[k] for k in qubits], [t >> k & 1 for k in qubits]


# ---------------------------------------------------------------------------
# Gate updates on the bit rows


def _times(sym: list[int], lin: int, q0: int, a: int, a0: int, b: int,
           b0: int) -> tuple[int, int]:
    """q + (a.u + a0)(b.u + b0), q given as (B rows, lin, const).

    The cross terms add a b^T + b a^T to B, in place in ``sym``; its
    diagonal cancels, and the squares a_i b_i u_i go to the linear
    part.  Returns the new (lin, const).
    """
    if a and b:
        x = a
        while x:
            low = x & -x
            sym[low.bit_length() - 1] ^= b
            x ^= low
        x = b
        while x:
            low = x & -x
            sym[low.bit_length() - 1] ^= a
            x ^= low
    lin ^= a & b
    if a0:
        lin ^= b
    if b0:
        lin ^= a
    return lin, q0 ^ (a0 & b0)


_PHASE_FAMILY = frozenset((_P, _X, _Z, _CZ, _CNOT))


def _fold(s: AffineForm, kind: GateKind, qubits: tuple[int, ...]) -> None:
    """Apply a Clifford gate other than H to ``s`` in place; m never
    changes.  PDG is three P gates and SWAP three CNOTs.

    The phase-family rules, kept once: ``run_clifford`` runs them on
    the form it owns, the public updates on a copy (``_folded``).
    CNOT and SWAP change the rows of R and the frame, P, PDG and CZ the
    rows of B; every other piece is an int.
    """
    if kind is _CNOT:
        c, d = qubits
        rows = s._rows
        rows[d] ^= rows[c]
        t = s._t
        s._t = t ^ ((t >> c & 1) << d)
        cols = s._cols
        if cols is not None:
            # R -> E R with E = E^-1 adding row c to row d, so F -> F E.
            cols[c] ^= cols[d]
    elif kind is _P:
        (k,) = qubits
        x, x0 = s._rows[k], s._t >> k & 1
        # i^l * i^xk = (-1)^(l*xk) * i^(l+xk)
        s._lin, s._q0 = _times(s._sym, s._lin, s._q0, s._l, s._l0, x, x0)
        s._l ^= x
        s._l0 ^= x0
    elif kind is _CZ:
        a, b = qubits
        rows, t = s._rows, s._t
        s._lin, s._q0 = _times(s._sym, s._lin, s._q0, rows[a], t >> a & 1,
                               rows[b], t >> b & 1)
    elif kind is _Z:
        (k,) = qubits
        s._lin ^= s._rows[k]
        s._q0 ^= s._t >> k & 1
    elif kind is _X:
        (k,) = qubits
        s._t ^= 1 << k
    elif kind is _PDG:
        for _ in range(3):
            _fold(s, _P, qubits)
    elif kind is _SWAP:
        for pair in (qubits, qubits[::-1], qubits):
            _fold(s, _CNOT, pair)
    else:
        raise ValueError(f"not a phase-family gate: {kind.value}")


def _folded(s: AffineForm, g: Gate) -> AffineForm:
    """``s`` with ``g`` (not H) applied, as a new form: the lists ``g``
    changes are copied first, and the others are shared with ``s``."""
    for q in g.qubits:
        if not 0 <= q < s.n:
            raise ValueError(f"qubit {q} out of range for {s.n} qubits")
    kind, rows, sym, cols = g.kind, s._rows, s._sym, s._cols
    if kind is _CNOT or kind is _SWAP:
        rows = rows.copy()
        cols = None if cols is None else cols.copy()
    elif kind is _P or kind is _PDG or kind is _CZ:
        sym = sym.copy()
    out = _make(s.n, s._m, rows, s._t, s._l, s._l0, sym, s._lin, s._q0, cols)
    _fold(out, kind, g.qubits)
    return out


def apply_phase_family(s: AffineForm, g: Gate) -> AffineForm:
    """Apply one of P, X, Z, CZ, CNOT; the parameter count never changes.

    The result shares every list the gate leaves unchanged with ``s``.
    """
    if g.kind not in _PHASE_FAMILY:
        raise ValueError(f"not a phase-family gate: {g.kind.value}")
    return _folded(s, g)


def _frame_cols(s: AffineForm) -> list[int]:
    """The frame's columns; a form without one gets one from R and keeps it."""
    cols = s._cols
    if cols is None:
        # Row j of E, E R = [I; 0] on R's bit columns, is the frame's row at bit j.
        try:
            e = gf2.reducer_rows(s._rows, s._m)
        except ValueError:
            raise InvariantError("R does not have full column rank") from None
        cols = s._cols = gf2.transpose(e, s.n)
    return cols


def _check_rank(s: AffineForm) -> None:
    """R's full column rank, checked in O(n m) on its rows unless a frame vouches."""
    if s._cols is None and len(gf2.independent_rows(s._rows)) != s._m:
        raise InvariantError("R does not have full column rank")


def apply_h(s: AffineForm, k: int) -> AffineForm:
    """Apply a Hadamard on qubit k.

    A fresh parameter v becomes bit k of the ket and the phase picks up
    (-1)^(v * x_k(u)): the widened ket map is [e_k | R with row k
    cleared].  It is rank deficient exactly when e_k = R u for some u,
    and then its kernel is spanned by z = (0, u).  The frame answers
    both questions in one column read: e_k is outside col(R) iff
    F[m:, k] is nonzero, and otherwise u = F[:m, k].  In the deficient
    case the change of basis u = Q u' (Q = I with column p, the first
    nonzero of z, replaced by z) clears column p of the ket map, and
    that parameter is summed out by ``sum_out_var``'s rule, written
    out for this case so R and B are renumbered once.  No elimination.

    Raises:
        ValueError: if k is not a qubit of ``s``.
    """
    n, m = s.n, s._m
    k = operator.index(k)
    if not 0 <= k < n:
        raise ValueError(f"qubit {k} out of range for {n} qubits")
    cols = _frame_cols(s)
    col = cols[k]
    rows, t = s._rows, s._t
    r = rows[k]
    tk = t >> k & 1
    if col >> m:
        # The fresh parameter v takes bit m: row k of the ket map becomes
        # e_v, and q gains v * (r.u + t_k).
        top = 1 << m
        rows = rows.copy()
        rows[k] = top
        sym = s._sym + [0]
        lin, q0 = _times(sym, s._lin, s._q0, top, 0, r, tk)
        return _make(n, m + 1, rows, t & ~(1 << k), s._l, s._l0, sym, lin, q0,
                     _grown_frame(cols, col, r, m))

    u = col
    if not (r & u).bit_count() & 1:
        raise InvariantError("frame out of step with R: R u != e_k")
    # The dead parameter is the first one u uses, its top bit p.  After
    # the change of basis it enters as i^(lam w) (-1)^(w g) with,
    # writing B = cross + cross^T,
    #   lam = l.u,   g = v + (B u).u' + q(u) - q(0)   (u' the others),
    # and everything else restricted to the live parameters.
    p = u.bit_length() - 1
    bu, pairs = _cross(s._sym, u)
    g0 = ((pairs >> 1) + (s._lin & u).bit_count()) & 1
    lam = (s._l & u).bit_count() & 1

    cols = _shrunk_frame(cols, u, r, bu, p, m, lam)
    # Drop bit p, C(x) = (x & low) | (x >> 1 & high), from every piece.
    low, high = (1 << p) - 1, -(1 << p)
    rows = [(x & low) | (x >> 1 & high) for x in rows]
    sym = [(x & low) | (x >> 1 & high) for x in s._sym]
    del sym[p]
    lin, l = (s._lin & low) | (s._lin >> 1 & high), (s._l & low) | (s._l >> 1 & high)
    r, bu, t = (r & low) | (r >> 1 & high), (bu & low) | (bu >> 1 & high), t & ~(1 << k)
    if lam:
        # v keeps the top bit, m-1: the ket map [e_k | R_{-k}] and
        # q + v * (r.u + t_k); summing w out then makes g = v + (B u).u'
        # the linear phase and adds g * (1 + l) to q (``sum_out_var``).
        top = 1 << (m - 1)
        rows[k] = top
        sym.append(0)
        lin, q0 = _times(sym, lin, s._q0, top, 0, r, tk)
        lin, q0 = _times(sym, lin, q0, top | bu, g0, l, s._l0 ^ 1)
        return _make(n, m, rows, t, top | bu, g0, sym, lin, q0, cols)
    # The sum over w forces v = (B u).u' + g0: bit k of the ket reads
    # that, and v * (r.u + t_k) becomes ((B u).u' + g0)(r.u + t_k).
    rows[k] = bu
    lin, q0 = _times(sym, lin, s._q0, bu, g0, r, tk)
    return _make(n, m - 1, rows, t | g0 << k, l, s._l0, sym, lin, q0, cols)


def _cross(sym: list[int], u: int) -> tuple[int, int]:
    """(B u, pairs) for B given by its rows ``sym``: B u is the XOR of
    the rows u selects, and pairs, the sum of |B[i] & u| over the set
    bits i of u, counts each cross term of q that u sets twice."""
    bu = pairs = 0
    x = u
    while x:
        bit = x & -x
        row = sym[bit.bit_length() - 1]
        bu ^= row
        pairs += (row & u).bit_count()
        x ^= bit
    return bu, pairs


def _grown_frame(cols: list[int], col: int, r: int, m: int) -> list[int]:
    """The frame for [e_k | R_{-k}] when e_k is outside col(R).

    Make the check row at bit m meet e_k (adding another check row j
    that does, if it does not), clear column k with it, and add the
    parameter rows r selects: with R_{-k} = R + e_k r^T that row then
    reads 1 on e_k and 0 on R_{-k}, so it is the row of v.  Per column
    x of F, the first step adds bit m where x has bit j, clearing adds
    ``hit`` where the result has bit m, and the last step adds the
    parity of (x & r) to bit m; all three are linear in x, so they fold
    into one pass.
    """
    top = 1 << m
    j = 0 if col & top else (col >> m & -(col >> m)) << m
    hit = col & ~top
    flip = hit ^ (top if (hit & r).bit_count() & 1 else 0)
    return [x ^ (flip if x & top else 0) ^ (flip ^ top if x & j else 0)
            ^ (top if (x & r).bit_count() & 1 else 0) for x in cols]


def _shrunk_frame(cols: list[int], u: int, r: int, bu: int, p: int, m: int,
                  lam: int) -> list[int]:
    """The frame after a rank-deficient Hadamard that dropped bit p.

    In the basis [e_k | R_{-k} without the dead column], the live
    coordinates are w_i = y_i + y_p u_i and v = y_p + r.w (y the old
    ones).  When lam = 1, v keeps bit m-1; otherwise the constraint
    v = (B u).w eliminated it, and v + (B u).w becomes a check row at
    bit m-1.  Per column x of F the row y_p adds ``spread`` where x has
    bit p; as the rest is linear in x, the new column is compact(x),
    plus the parity of (x & reads) at bit m-1, plus ``shift`` where x
    has bit p.
    """
    pbit = 1 << p
    spread = u ^ pbit
    reads = (r if lam else r ^ bu) & ~pbit
    top = 1 << (m - 1)
    keep = (pbit - 1) | -(top << 1)   # bits below p, and the checks
    mid = (top - 1) & -pbit           # parameter bits above p, moved down
    shift = (((spread & keep) | (spread >> 1 & mid))
             ^ (0 if (spread & reads).bit_count() & 1 else top))
    return [((x & keep) | (x >> 1 & mid)) ^ (shift if x & pbit else 0)
            ^ (top if (x & reads).bit_count() & 1 else 0) for x in cols]


def sum_out_var(s: AffineForm, dead: int) -> AffineForm:
    """Eliminate a parameter the ket does not depend on.

    With w the dead parameter, write l = lam*w + lt and
    q = w*g + h (g, h over the remaining parameters; w^2 = w folds w's
    own linear coefficient into g).  Summing w over {0,1}:

      lam = 0:  factor 2*delta(g, 0): the live parameters are
                constrained to g = 0 (one fewer parameter unless g is
                identically zero; identically one would annihilate the
                state, which unitary evolution forbids).
      lam = 1:  1 + i(-1)^a = (1+i)(-i)^a gives, after dropping the
                global (1+i):  l' = g,  q' = h + g*(1 + lt).

    Raises:
        ValueError: if ``dead`` is not in 0..m-1.
        InvariantError: if the ket still depends on ``dead``, or the
        constraint is 1 = 0.
    """
    m, dead = s._m, operator.index(dead)
    if not 0 <= dead < m:
        raise ValueError(f"parameter {dead} out of range for m = {m}")
    p = m - 1 - dead
    pbit = 1 << p
    if any(x & pbit for x in s._rows):
        raise InvariantError("dead parameter still appears in the ket")
    low, high = pbit - 1, -pbit
    rows = [(x & low) | (x >> 1 & high) for x in s._rows]
    sym = [(x & low) | (x >> 1 & high) for x in s._sym]
    g, g0 = sym.pop(p), s._lin >> p & 1
    l, lin = (s._l & low) | (s._l >> 1 & high), (s._lin & low) | (s._lin >> 1 & high)
    if s._l >> p & 1:
        lin, q0 = _times(sym, lin, s._q0, g, g0, l, s._l0 ^ 1)
        return _make(s.n, m - 1, rows, s._t, g, g0, sym, lin, q0, None)
    if not g:
        if g0:
            raise InvariantError("constraint 1 = 0 would annihilate the state")
        return _make(s.n, m - 1, rows, s._t, l, s._l0, sym, lin, s._q0, None)
    # g = 0 fixes u_f = a(others), f the first parameter g depends on
    # (its top bit); q = h_rest + u_f * (B[f].u + lin_f).
    f = g.bit_length() - 1
    fbit = 1 << f
    low, high = fbit - 1, -fbit
    a = (g & low) | (g >> 1 & high)
    t = s._t ^ (sum(1 << i for i, x in enumerate(rows) if x & fbit) if g0 else 0)
    rows = [((x & low) | (x >> 1 & high)) ^ (a if x & fbit else 0) for x in rows]
    lf, hf = l >> f & 1, sym[f]
    sym = [(x & low) | (x >> 1 & high) for x in sym]
    del sym[f]
    lin2, q0 = _times(sym, (lin & low) | (lin >> 1 & high), s._q0, a, g0,
                      (hf & low) | (hf >> 1 & high), lin >> f & 1)
    return _make(s.n, m - 2, rows, t,
                 ((l & low) | (l >> 1 & high)) ^ (a if lf else 0), s._l0 ^ (lf & g0),
                 sym, lin2, q0, None)


def apply_gate(s: AffineForm, g: Gate) -> AffineForm:
    """Apply any Clifford gate, PDG and SWAP included."""
    if g.kind is _H:
        return apply_h(s, g.qubits[0])
    return _folded(s, g)


def run_clifford(c: Circuit) -> AffineForm:
    """Fold the gate updates over |0...0> for a Clifford-only circuit.

    One form takes every gate but H in place (``_fold``).  Each
    Hadamard goes through ``apply_h``, whose result is built from new
    lists, so the fold then owns that form.

    Raises:
        ClassificationError: if the circuit is not Clifford-only.
        InvariantError: if the final R lost full column rank.
    """
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    s = init_zero(c.n_qubits)
    for g in c.gates:
        kind = g.kind
        if kind is _H:
            s = apply_h(s, g.qubits[0])
        else:
            _fold(s, kind, g.qubits)
    if len(gf2.independent_rows(s._rows)) != s._m:
        raise InvariantError("update broke full column rank")
    return s


def amplitude(s: AffineForm, x) -> complex:
    """Amplitude of basis state |x>, up to the state's global phase.

    The frame gives u = F[:m](x + t) (``gf2.combine``), and x is in the
    support iff the check rows (bits m and up) read 0.  The phase is
    i^(l.u + l0) (-1)^q(u); q's cross terms are half the sum over set
    bits i of u of |B[i] & u|, as ``_cross`` counts them for ``apply_h``.

    Raises:
        ValueError: if x is not one bit equal to 0 or 1 per qubit.
        InvariantError: if a hand-built form's R lacks full column rank.
    """
    bits = list(x)
    if len(bits) != s.n or not {0, 1}.issuperset(bits):
        raise ValueError(f"basis state must be {s.n} bits, each 0 or 1")
    u = gf2.combine(_frame_cols(s), s._t ^ sum(1 << k for k, b in enumerate(bits) if b))
    m = s._m
    if u >> m:
        return 0j
    pairs = _cross(s._sym, u)[1]
    i_exp = ((s._l & u).bit_count() + s._l0) & 1
    sign = ((pairs >> 1) + (s._lin & u).bit_count() + s._q0) & 1
    return (1j ** i_exp) * ((-1.0) ** sign) * 2.0 ** (-m / 2)


def to_statevector(s: AffineForm) -> np.ndarray:
    """Dense 2^n statevector (qubit 0 is the most significant bit); a form
    that is not a state (R lacks full column rank) raises ``InvariantError``."""
    if s.n > MAX_QUBITS:
        raise CapacityError(f"statevector limited to {MAX_QUBITS} qubits, state has {s.n}")
    _check_rank(s)
    m = s.m
    # All parameter assignments as rows of a (2^m, m) bit matrix.
    us = ((np.arange(2 ** m)[:, None] >> np.arange(m)[None, :]) & 1).astype(np.uint8)
    kets = (us @ s.R.T % 2) ^ s.t
    idx = kets @ (1 << np.arange(s.n - 1, -1, -1))
    lvals = (us @ s.l.coeffs + s.l.const) % 2
    qvals = (np.einsum("ui,ij,uj->u", us, s.q.cross, us)
             + us @ s.q.lin + s.q.const) % 2
    vec = np.zeros(2 ** s.n, dtype=complex)
    vec[idx] = (1j ** lvals) * ((-1.0) ** qvals) * 2.0 ** (-m / 2)
    return vec
