"""Stabilizer states as phase-decorated affine subspaces over GF(2).

An n-qubit stabilizer state is stored as

    2^(-m/2) * sum_u  i^l(u) * (-1)^q(u) * |R u + t>,   u in {0,1}^m

where R is an n x m full-column-rank matrix over GF(2), t is an n-bit
shift, l is an affine (mod-2) function of u and q a quadratic (mod-2)
function of u.  Global phase is not tracked: all equality is up to one
unit constant.

Each Clifford gate updates (R, t, l, q) exactly.  PHASE, X, Z, CZ and
CNOT never change m; Hadamard introduces a fresh parameter and, when
the new column system becomes rank deficient, eliminates one parameter
by summing it out (``sum_out_var``), which either imposes a linear
constraint on the remaining parameters or leaves a pure phase update.

Cost per gate, with a constant number of vectorised array operations
each: X copies t, O(n); Z rewrites q's linear part, O(m); P and CZ add
an outer product to q, O(m^2); CNOT adds one row of R and one column
of the frame (below), copying R, O(n m), and the frame, O(n^2) bytes.
A Hadamard costs O(n^2 + m^2) and runs no elimination: the frame, an
invertible F with F R = [I_m; 0] kept in step with R by every update,
tells from one column read whether the widened system loses rank and,
if so, gives its kernel vector.  Updates return a new form that shares
every array the gate leaves unchanged.

Full column rank of R is checked where it costs nothing extra: each
rank-deficient Hadamard checks R u = e_k in row k, a hand-built form
gets its frame from an elimination that checks the rank, and
``run_clifford`` checks gf2.rank(R) == m once at the end.  All checks
raise ``errors.InvariantError``, so they hold under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .circuit import Circuit, CircuitClass, Gate, GateKind, basic_clifford_gates, classify
from .errors import CapacityError, ClassificationError, InvariantError
from .statevector import MAX_QUBITS


@dataclass
class LinForm:
    """Affine function u -> coeffs.u + const over GF(2)."""

    coeffs: np.ndarray  # (m,) uint8
    const: int = 0

    @staticmethod
    def zero(m: int) -> "LinForm":
        return LinForm(np.zeros(m, dtype=np.uint8), 0)

    def __call__(self, u: np.ndarray) -> int:
        return (gf2.dot(self.coeffs, u) + self.const) % 2

    def __xor__(self, other: "LinForm") -> "LinForm":
        return LinForm(self.coeffs ^ other.coeffs, self.const ^ other.const)

    def compose(self, k: np.ndarray, shift: np.ndarray) -> "LinForm":
        """The function s -> self(k s + shift)."""
        return LinForm(gf2.mat_mul(k.T, self.coeffs),
                       (self.const + gf2.dot(self.coeffs, shift)) % 2)

    def copy(self) -> "LinForm":
        return LinForm(self.coeffs.copy(), self.const)


@dataclass
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

    def __xor__(self, other) -> "QuadForm":
        if isinstance(other, LinForm):
            return QuadForm(self.cross.copy(), self.lin ^ other.coeffs,
                            self.const ^ other.const)
        return QuadForm(self.cross ^ other.cross, self.lin ^ other.lin,
                        self.const ^ other.const)

    def compose(self, k: np.ndarray, shift: np.ndarray) -> "QuadForm":
        """The function s -> self(k s + shift)."""
        shift = np.asarray(shift, dtype=np.uint8)
        m = gf2.mat_mul(gf2.mat_mul(k.T, self.cross), k)
        cross = np.triu(m ^ m.T, 1)
        sym = (self.cross ^ self.cross.T)
        lin = (np.diagonal(m).copy()
               ^ gf2.mat_mul(k.T, gf2.mat_mul(sym, shift))
               ^ gf2.mat_mul(k.T, self.lin))
        const = (int(shift @ (self.cross @ shift))
                 + gf2.dot(self.lin, shift) + self.const) % 2
        return QuadForm(cross, lin, const)

    def copy(self) -> "QuadForm":
        return QuadForm(self.cross.copy(), self.lin.copy(), self.const)


def linform_product(a: LinForm, b: LinForm) -> QuadForm:
    """The product of two affine functions, as a quadratic function.

    Diagonal terms a_i b_i u_i^2 are folded into the linear part.
    """
    x, y = a.coeffs, b.coeffs
    outer = x[:, None] & y
    idx = np.arange(x.shape[0])
    cross = (outer ^ outer.T) & (idx[:, None] < idx)
    lin = (x & y) ^ (a.const * y) ^ (b.const * x)
    return QuadForm(cross, lin.astype(np.uint8, copy=False), a.const & b.const)


@dataclass
class AffineForm:
    """The (R, t, l, q) representation of a stabilizer state.

    ``frame`` is an optional invertible n x n matrix F with
    F R = [I_m; 0]: its first m rows read the parameters off a ket
    offset, u = F[:m] (x + t), and its other rows vanish exactly on the
    column space of R.  The gate updates keep it in step with R, so no
    update needs an elimination; when it is None (a hand-built form),
    the next Hadamard computes it once.  It plays no part in the state
    the form denotes.
    """

    n: int
    R: np.ndarray  # (n, m) uint8, full column rank
    t: np.ndarray  # (n,) uint8
    l: LinForm     # over the m parameters
    q: QuadForm    # over the m parameters
    frame: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.R.shape[1]

    def copy(self) -> "AffineForm":
        return AffineForm(self.n, self.R.copy(), self.t.copy(),
                          self.l.copy(), self.q.copy(),
                          None if self.frame is None else self.frame.copy())

    def ket_row(self, k: int) -> LinForm:
        """Bit k of the ket, x_k(u) = R[k].u + t_k, as an affine function."""
        return LinForm(self.R[k].copy(), int(self.t[k]))

    def dump(self) -> str:
        """Debug view of (R, t, l, q); format carries no compatibility promise."""
        return (f"R={self.R.tolist()}, t={self.t.tolist()}, "
                f"l=({self.l.coeffs.tolist()}, {self.l.const}), "
                f"q=(cross={self.q.cross.tolist()}, "
                f"lin={self.q.lin.tolist()}, const={self.q.const})")


def init_zero(n: int) -> AffineForm:
    """The all-zeros state |0...0> on n qubits (m = 0)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return AffineForm(n, np.zeros((n, 0), dtype=np.uint8),
                      np.zeros(n, dtype=np.uint8),
                      LinForm.zero(0), QuadForm.zero(0),
                      np.eye(n, dtype=np.uint8))


def support_size(s: AffineForm) -> int:
    """log2 of the number of basis states in the support."""
    return s.m


def apply_phase_family(s: AffineForm, g: Gate) -> AffineForm:
    """Apply one of P, X, Z, CZ, CNOT; the parameter count never changes.

    The result shares every array the gate leaves unchanged with ``s``.
    """
    R, t, l, q, frame = s.R, s.t, s.l, s.q, s.frame
    kind = g.kind
    if kind is GateKind.P:
        (k,) = g.qubits
        xk = s.ket_row(k)
        # i^l * i^xk = (-1)^(l*xk) * i^(l+xk)
        q = q ^ linform_product(l, xk)
        l = l ^ xk
    elif kind is GateKind.CNOT:
        c, d = g.qubits
        R = R.copy()
        R[d] ^= R[c]
        t = t.copy()
        t[d] ^= t[c]
        if frame is not None:
            # R -> E R with E = E^-1 adding row c to row d, so F -> F E.
            frame = frame.copy()
            frame[:, c] ^= frame[:, d]
    elif kind is GateKind.X:
        (k,) = g.qubits
        t = t.copy()
        t[k] ^= 1
    elif kind is GateKind.Z:
        (k,) = g.qubits
        q = QuadForm(q.cross, q.lin ^ R[k], q.const ^ int(t[k]))
    elif kind is GateKind.CZ:
        a, b = g.qubits
        q = q ^ linform_product(s.ket_row(a), s.ket_row(b))
    else:
        raise ValueError(f"not a phase-family gate: {kind.value}")
    return AffineForm(s.n, R, t, l, q, frame)


def _frame(s: AffineForm) -> np.ndarray:
    if s.frame is not None:
        return s.frame
    try:
        return gf2.row_reducer(s.R)
    except ValueError:
        raise InvariantError("R does not have full column rank") from None


def _prepend(bit: int, v: np.ndarray) -> np.ndarray:
    out = np.empty(v.shape[0] + 1, dtype=np.uint8)
    out[0] = bit
    out[1:] = v
    return out


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
    that parameter is summed out (``sum_out_var``).  The whole update
    is O(n^2 + m^2), with no elimination.
    """
    n, m = s.n, s.m
    frame = _frame(s)
    col = frame[:, k]
    r = s.R[k]
    if col[m:].any():
        R, t, l, q = _widen(s, k, slice(None))
        return AffineForm(n, R, t, l, q, _grown_frame(frame, col, r, m))

    u = col[:m]
    if gf2.dot(r, u) != 1:
        raise InvariantError("frame out of step with R: R u != e_k")
    # Index the fresh parameter 0 and old parameter i as i + 1; then
    # p = dead + 1.  After the change of basis the dead parameter w
    # enters as i^(lam w) (-1)^(w g) with, writing B = cross + cross^T,
    #   lam = l.u,   g = v + (B u).u' + q(u) - q(0)   (u' the others),
    # and everything else restricted to the live parameters.
    dead = int(np.argmax(u))
    keep = np.arange(m) != dead
    # uint8 products wrap mod 256, which keeps their parity.
    xu = s.q.cross @ u
    bu = (xu + u @ s.q.cross) & 1
    g = LinForm(_prepend(1, bu[keep]),
                (int(u @ xu) + int(s.q.lin @ u)) & 1)
    R, t, lt, h = _widen(s, k, keep)
    out = _sum_out(n, R, t, gf2.dot(s.l.coeffs, u), lt, g, h)

    # The widened column space is col(R) again.  Coordinates in the
    # new basis [e_k | R_{-k} minus the dead column]: w_i = y_i + y_dead u_i
    # and v = y_dead + r.w (y the old coordinates).
    lw = frame[:m][keep] ^ np.outer(u[keep], frame[dead])
    lv = frame[dead] ^ gf2.mat_mul(r[keep], lw)
    if out.m == m:
        out.frame = np.concatenate((lv[None, :], lw, frame[m:]))
    else:
        # The constraint g = 0 eliminated v = g(u'): its row becomes a
        # parity check of the smaller column space.
        check = lv ^ gf2.mat_mul(g.coeffs[1:], lw)
        out.frame = np.concatenate((lw, check[None, :], frame[m:]))
    return out


def _widen(s: AffineForm, k: int, keep) -> tuple[np.ndarray, np.ndarray,
                                                  LinForm, QuadForm]:
    """Hadamard on k before any elimination, over the fresh parameter
    and the old parameters ``keep`` selects: ket map [e_k | R_{-k}]
    (R with row k cleared), x_k's shift cleared, l unchanged and
    q + v * x_k(u)."""
    cols = s.R[:, keep]
    R = np.zeros((s.n, cols.shape[1] + 1), dtype=np.uint8)
    R[:, 1:] = cols
    R[k] = 0
    R[k, 0] = 1
    t = s.t.copy()
    t[k] = 0
    cross = np.zeros((R.shape[1], R.shape[1]), dtype=np.uint8)
    cross[1:, 1:] = s.q.cross[keep][:, keep]
    cross[0, 1:] = s.R[k, keep]
    return (R, t, LinForm(_prepend(0, s.l.coeffs[keep]), s.l.const),
            QuadForm(cross, _prepend(int(s.t[k]), s.q.lin[keep]), s.q.const))


def _grown_frame(frame: np.ndarray, col: np.ndarray, r: np.ndarray,
                 m: int) -> np.ndarray:
    """The frame for [e_k | R_{-k}] when e_k is outside col(R).

    F [e_k | R] = [col | I_m; 0].  Clearing col with a parity row j
    (col_j = 1, j >= m) and moving row j to the top gives a frame for
    [e_k | R]; [e_k | R_{-k}] = [e_k | R] T with T = [[1, r], [0, I]]
    = T^-1, so the top row then picks up r times the next m rows.
    """
    j = m + int(np.argmax(col[m:]))
    hit = col.copy()
    hit[j] = 0
    cleared = frame ^ np.outer(hit, frame[j])
    out = np.concatenate((cleared[j:j + 1], cleared[:j], cleared[j + 1:]))
    out[0] ^= gf2.mat_mul(r, out[1:m + 1])
    return out


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
        InvariantError: if the ket still depends on ``dead``, or the
        constraint is 1 = 0.
    """
    if s.R[:, dead].any():
        raise InvariantError("dead parameter still appears in the ket")
    live = np.arange(s.m) != dead
    lt = LinForm(s.l.coeffs[live], s.l.const)
    g = LinForm((s.q.cross[dead, :] ^ s.q.cross[:, dead])[live],
                int(s.q.lin[dead]))
    h = QuadForm(s.q.cross[live][:, live], s.q.lin[live], s.q.const)
    return _sum_out(s.n, s.R[:, live], s.t, int(s.l.coeffs[dead]), lt, g, h)


def _sum_out(n: int, R: np.ndarray, t: np.ndarray, lam: int, lt: LinForm,
             g: LinForm, h: QuadForm) -> AffineForm:
    """The case table of ``sum_out_var``, given its pieces."""
    if lam == 1:
        one_plus_lt = LinForm(lt.coeffs, lt.const ^ 1)
        return AffineForm(n, R, t, g, h ^ linform_product(g, one_plus_lt))
    if not g.coeffs.any():
        if g.const:
            raise InvariantError("constraint 1 = 0 would annihilate the state")
        return AffineForm(n, R, t, lt, h)
    # g = 0 fixes u_f = a(others), f the first parameter g depends on.
    f = int(np.argmax(g.coeffs))
    rest = np.arange(g.coeffs.shape[0]) != f
    a = LinForm(g.coeffs[rest], g.const)
    col = R[:, f]
    lf = int(lt.coeffs[f])
    # q = h_rest + u_f * (B[f].u + lin_f), B = cross + cross^T.
    h_f = LinForm((h.cross[f] ^ h.cross[:, f])[rest], int(h.lin[f]))
    h_rest = QuadForm(h.cross[rest][:, rest], h.lin[rest], h.const)
    return AffineForm(n, R[:, rest] ^ np.outer(col, a.coeffs),
                      t ^ (col * a.const),
                      LinForm(lt.coeffs[rest] ^ (lf * a.coeffs),
                              lt.const ^ (lf & a.const)),
                      h_rest ^ linform_product(a, h_f))


_EXPANDED = (GateKind.PDG, GateKind.SWAP)


def apply_gate(s: AffineForm, g: Gate) -> AffineForm:
    """Apply any Clifford gate (PDG and SWAP are expanded first)."""
    for basic in basic_clifford_gates([g]) if g.kind in _EXPANDED else (g,):
        if basic.kind is GateKind.H:
            s = apply_h(s, basic.qubits[0])
        else:
            s = apply_phase_family(s, basic)
    return s


def run_clifford(c: Circuit) -> AffineForm:
    """Fold the gate updates over |0...0> for a Clifford-only circuit.

    Raises:
        ClassificationError: if the circuit is not Clifford-only.
        InvariantError: if the final R lost full column rank.
    """
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    s = init_zero(c.n_qubits)
    for g in c.gates:
        s = apply_gate(s, g)
    if gf2.rank(s.R) != s.m:
        raise InvariantError("update broke full column rank")
    return s


def amplitude(s: AffineForm, x) -> complex:
    """Amplitude of basis state |x>, up to the state's global phase."""
    x = gf2.bits(x)
    if x.shape != (s.n,):
        raise ValueError(f"basis state must have {s.n} bits")
    sol = gf2.solve_affine(s.R, x ^ s.t)
    if not sol.consistent:
        return 0j
    u = sol.particular
    phase = (1j ** s.l(u)) * ((-1.0) ** s.q(u))
    return phase * 2.0 ** (-s.m / 2)


def to_statevector(s: AffineForm) -> np.ndarray:
    """Dense 2^n statevector (qubit 0 is the most significant bit)."""
    if s.n > MAX_QUBITS:
        raise CapacityError(f"statevector limited to {MAX_QUBITS} qubits, state has {s.n}")
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
