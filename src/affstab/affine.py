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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import Circuit, CircuitClass, Gate, GateKind, basic_clifford_gates, classify
from .errors import CapacityError, ClassificationError
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
    outer = np.outer(a.coeffs, b.coeffs)
    cross = np.triu(outer ^ outer.T, 1)
    lin = (np.diagonal(outer).copy()
           ^ (a.const * b.coeffs)
           ^ (b.const * a.coeffs))
    return QuadForm(cross, lin.astype(np.uint8), a.const & b.const)


@dataclass
class AffineForm:
    """The (R, t, l, q) representation of a stabilizer state."""

    n: int
    R: np.ndarray  # (n, m) uint8, full column rank
    t: np.ndarray  # (n,) uint8
    l: LinForm     # over the m parameters
    q: QuadForm    # over the m parameters

    @property
    def m(self) -> int:
        return self.R.shape[1]

    def copy(self) -> "AffineForm":
        return AffineForm(self.n, self.R.copy(), self.t.copy(),
                          self.l.copy(), self.q.copy())

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
                      LinForm.zero(0), QuadForm.zero(0))


def support_size(s: AffineForm) -> int:
    """log2 of the number of basis states in the support."""
    return s.m


def apply_phase_family(s: AffineForm, g: Gate) -> AffineForm:
    """Apply one of P, X, Z, CZ, CNOT; the parameter count never changes."""
    out = s.copy()
    kind = g.kind
    if kind is GateKind.P:
        (k,) = g.qubits
        xk = out.ket_row(k)
        # i^l * i^xk = (-1)^(l*xk) * i^(l+xk)
        out.q = out.q ^ linform_product(out.l, xk)
        out.l = out.l ^ xk
    elif kind is GateKind.CNOT:
        c, d = g.qubits
        out.R[d] ^= out.R[c]
        out.t[d] ^= out.t[c]
    elif kind is GateKind.X:
        (k,) = g.qubits
        out.t[k] ^= 1
    elif kind is GateKind.Z:
        (k,) = g.qubits
        out.q = out.q ^ out.ket_row(k)
    elif kind is GateKind.CZ:
        a, b = g.qubits
        out.q = out.q ^ linform_product(out.ket_row(a), out.ket_row(b))
    else:
        raise ValueError(f"not a phase-family gate: {kind.value}")
    return out


def apply_h(s: AffineForm, k: int) -> AffineForm:
    """Apply a Hadamard on qubit k.

    A fresh parameter v becomes bit k of the ket and the phase picks up
    (-1)^(v * x_k(u)).  If the widened column system is rank deficient,
    a change of basis isolates one parameter outside the ket and that
    parameter is summed out.
    """
    n, m = s.n, s.m
    r = s.R[k].copy()
    tk = int(s.t[k])

    R = np.zeros((n, m + 1), dtype=np.uint8)
    R[:, 1:] = s.R
    R[k, :] = 0
    R[k, 0] = 1
    t = s.t.copy()
    t[k] = 0

    l = LinForm(np.concatenate([[0], s.l.coeffs]).astype(np.uint8), s.l.const)
    cross = np.zeros((m + 1, m + 1), dtype=np.uint8)
    cross[1:, 1:] = s.q.cross
    cross[0, 1:] = r
    lin = np.concatenate([[tk], s.q.lin]).astype(np.uint8)
    q = QuadForm(cross, lin, s.q.const)

    widened = AffineForm(n, R, t, l, q)
    if gf2.rank(R) == m + 1:
        return widened

    kernel = gf2.kernel_basis(R)
    assert kernel.shape[0] == 1, "widened system can lose at most one rank"
    z = kernel[0]
    assert z[0] == 0, "the fresh parameter is always independent"
    pivot = int(np.nonzero(z)[0][0])

    # Change of basis u = Q u' zeroing column `pivot` of R (Q = I with
    # column pivot replaced by the kernel vector; unit diagonal, so
    # invertible).
    qmat = np.eye(m + 1, dtype=np.uint8)
    qmat[:, pivot] = z
    widened.R = gf2.mat_mul(R, qmat)
    shift = np.zeros(m + 1, dtype=np.uint8)
    widened.l = l.compose(qmat, shift)
    widened.q = q.compose(qmat, shift)
    return sum_out_var(widened, pivot)


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
    """
    assert not s.R[:, dead].any(), "dead parameter still appears in the ket"
    n = s.n
    live = np.arange(s.m) != dead

    lam = int(s.l.coeffs[dead])
    lt = LinForm(s.l.coeffs[live].copy(), s.l.const)
    g = LinForm((s.q.cross[dead, :] ^ s.q.cross[:, dead])[live],
                int(s.q.lin[dead]))
    h = QuadForm(s.q.cross[np.ix_(live, live)].copy(),
                 s.q.lin[live].copy(), s.q.const)
    R = s.R[:, live].copy()
    t = s.t.copy()

    if lam == 1:
        one_plus_lt = LinForm(lt.coeffs, lt.const ^ 1)
        return AffineForm(n, R, t, g, h ^ linform_product(g, one_plus_lt))

    if not g.coeffs.any():
        assert g.const == 0, "constraint 1 = 0 would annihilate the state"
        return AffineForm(n, R, t, lt, h)

    sol = gf2.solve_affine(g.coeffs.reshape(1, -1), np.array([g.const]))
    assert sol.consistent
    basis = sol.kernel_basis.T  # (m_live, m_live - 1)
    shift = sol.particular
    return AffineForm(n, gf2.mat_mul(R, basis), t ^ gf2.mat_mul(R, shift),
                      lt.compose(basis, shift), h.compose(basis, shift))


def apply_gate(s: AffineForm, g: Gate) -> AffineForm:
    """Apply any Clifford gate (PDG and SWAP are expanded first)."""
    for basic in basic_clifford_gates([g]):
        if basic.kind is GateKind.H:
            s = apply_h(s, basic.qubits[0])
        else:
            s = apply_phase_family(s, basic)
        assert gf2.rank(s.R) == s.m, "update broke full column rank"
    return s


def run_clifford(c: Circuit) -> AffineForm:
    """Fold the gate updates over |0...0> for a Clifford-only circuit."""
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    s = init_zero(c.n_qubits)
    for g in c.gates:
        s = apply_gate(s, g)
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
