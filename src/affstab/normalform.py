"""Clifford circuit synthesis into normal forms.

Two compilers live here.  ``synthesize_state_prep`` turns an affine
form into a three-round circuit (Hadamards; CNOT/NOT routing; diagonal
phase gates) that prepares the same state from |0...0>.  It is
state-level only: the output need not equal the source circuit as a
matrix.  ``decompose_operator`` lifts this to the full operator: every
Clifford circuit C factors as M2 * H * M1 up to one global constant,
where M1 and M2 are basis preserving and H is a single layer of
Hadamards.  The lift conjugates the X generators through C and reads
the required phase and routing layers off the resulting Pauli terms.

Signed Pauli terms i^e * X(x) * Z(z) are conjugated through gates as a
stack: the x and z parts of all rows are bit matrices and e is a
vector of i-exponents, and each gate updates a few columns of every
row at once (the tableau update of Aaronson and Gottesman,
quant-ph/0406196).  ``_conjugate_rows`` holds the only copy of the
per-gate rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .affine import AffineForm, LinForm, check_clifford_width, run_clifford
from .circuit import Circuit, CircuitClass, Gate, GateKind, basic_clifford_gates, classify, gate
from .errors import ClassificationError, InvariantError


# ---------------------------------------------------------------------------
# Signed Pauli terms


@dataclass
class PauliTerm:
    """(-1)^u_sign * i^v_sign * X(xpart) * Z(zpart) on n qubits.

    The sign pair is kept canonical: u_sign in {0, 1} and v_sign in
    {0, 1}, i.e. the total i-exponent is 2*u_sign + v_sign (mod 4).
    """

    n: int
    u_sign: int
    v_sign: int
    xpart: np.ndarray  # (n,) uint8
    zpart: np.ndarray  # (n,) uint8

    @property
    def phase_exp(self) -> int:
        """Exponent e of the overall i^e factor, mod 4."""
        return (2 * self.u_sign + self.v_sign) % 4

    @staticmethod
    def make(n: int, phase_exp: int, xpart, zpart) -> "PauliTerm":
        e = phase_exp % 4
        return PauliTerm(n, e // 2, e % 2, gf2.bits(xpart), gf2.bits(zpart))

    @staticmethod
    def x_gen(n: int, k: int) -> "PauliTerm":
        x = np.zeros(n, dtype=np.uint8)
        x[k] = 1
        return PauliTerm.make(n, 0, x, np.zeros(n, dtype=np.uint8))

    @staticmethod
    def z_gen(n: int, k: int) -> "PauliTerm":
        z = np.zeros(n, dtype=np.uint8)
        z[k] = 1
        return PauliTerm.make(n, 0, np.zeros(n, dtype=np.uint8), z)

    def __mul__(self, other: "PauliTerm") -> "PauliTerm":
        # X(x)Z(z) X(x')Z(z') = (-1)^(z.x') X(x+x') Z(z+z')
        swap = gf2.dot(self.zpart, other.xpart)
        e = (self.phase_exp + other.phase_exp + 2 * swap) % 4
        return PauliTerm.make(self.n, e, self.xpart ^ other.xpart,
                              self.zpart ^ other.zpart)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliTerm) and self.n == other.n
                and self.phase_exp == other.phase_exp
                and np.array_equal(self.xpart, other.xpart)
                and np.array_equal(self.zpart, other.zpart))

    def is_hermitian(self) -> bool:
        """True iff the term squares to +identity."""
        return (self.phase_exp + gf2.dot(self.xpart, self.zpart)) % 2 == 0

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (intended for small-n verification only)."""
        single = {
            (0, 0): np.eye(2, dtype=complex),
            (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
            (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
            (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
        }
        out = np.array([[1j ** self.phase_exp]], dtype=complex)
        for x, z in zip(self.xpart, self.zpart):
            out = np.kron(out, single[(int(x), int(z))])
        return out


def _conjugate_rows(x: np.ndarray, z: np.ndarray, e: np.ndarray, g: Gate) -> None:
    """Map every row i^e * X(x) * Z(z) of a stack to g row g^dagger, in place.

    x and z are (k, n) uint8 bit matrices, e the (k,) uint8 i-exponents
    mod 4.  Each rule updates a few columns of all k rows at once; the
    sign terms come from reordering each image back to X-before-Z form.
    """
    kind, qs = g.kind, g.qubits
    a = qs[0]
    if kind is GateKind.H:
        e += 2 * (x[:, a] & z[:, a])
        x[:, [a]], z[:, [a]] = z[:, [a]], x[:, [a]]
    elif kind is GateKind.P:
        e += x[:, a]
        z[:, a] ^= x[:, a]
    elif kind is GateKind.X:
        e += 2 * z[:, a]
    elif kind is GateKind.Z:
        e += 2 * x[:, a]
    elif kind is GateKind.CNOT:
        c, t = qs
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif kind is GateKind.CZ:
        b = qs[1]
        e += 2 * (x[:, a] & x[:, b])
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    else:
        raise ValueError(f"cannot conjugate through {kind.value}")
    e %= 4


def conjugate_pauli(p: PauliTerm, g: Gate) -> PauliTerm:
    """g p g^dagger, exact sign included."""
    x, z = p.xpart[None, :].copy(), p.zpart[None, :].copy()
    e = np.array([p.phase_exp], dtype=np.uint8)
    _conjugate_rows(x, z, e, g)
    return PauliTerm.make(p.n, int(e[0]), x[0], z[0])


def _generator_stack(c: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows sigma_i = C X_i C^dagger of a Clifford circuit, as (x, z, e)."""
    n = c.n_qubits
    check_clifford_width(n)
    x, z = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
    e = np.zeros(n, dtype=np.uint8)
    for g in basic_clifford_gates(c.gates):
        _conjugate_rows(x, z, e, g)
    if ((e + (x & z).sum(axis=1)) % 2).any():
        raise InvariantError("conjugate of X_i must square to +I")
    return x, z, e


def conjugated_generators(c: Circuit) -> list[PauliTerm]:
    """sigma_i = C X_i C^dagger for each qubit i, folded gate by gate."""
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    x, z, e = _generator_stack(c)
    return [PauliTerm.make(c.n_qubits, int(e[i]), x[i], z[i])
            for i in range(c.n_qubits)]


# ---------------------------------------------------------------------------
# State-preparation normal form (three rounds)


@dataclass(frozen=True)
class NormalFormState:
    """Three-round preparation: H layer, CNOT/X routing, diagonal phases."""

    hadamard_set: tuple[int, ...]
    linear_layer: tuple[Gate, ...]   # CNOT and X only
    phase_layer: tuple[Gate, ...]    # P, CZ and Z only

    def to_circuit(self, n: int, measured: tuple[int, ...] = (0,)) -> Circuit:
        gates = tuple(gate(GateKind.H, k) for k in self.hadamard_set)
        return Circuit(n, gates + self.linear_layer + self.phase_layer,
                       None, measured)


def _complete_to_invertible(r: np.ndarray) -> np.ndarray:
    """Extend the full-column-rank matrix r to an invertible square one.

    Standard basis vectors for the rows that carry no pivot of r are
    appended (ascending); the result's first columns are r itself.
    """
    n = r.shape[0]
    pivot_rows = set(gf2.row_echelon(r.T)[1])
    extra = [j for j in range(n) if j not in pivot_rows]
    cols = [r] + [np.eye(n, dtype=np.uint8)[:, [j]] for j in extra]
    e = np.concatenate(cols, axis=1)
    if e.shape != (n, n):
        raise InvariantError("r must have full column rank")
    return e


def _cnot_synthesis(e: np.ndarray) -> list[Gate]:
    """CNOT gates realizing the ket map |z> -> |e z|."""
    return [gate(GateKind.CNOT, src, tgt)
            for tgt, src in gf2.decompose_invertible(e)]


def _diagonal_gates(lin_i: LinForm, quad: "np.ndarray", lin_z: np.ndarray) -> list[Gate]:
    """P/CZ/Z gates imprinting i^(lin_i(x)) * (-1)^(x.quad.x + lin_z.x).

    ``lin_i`` must have zero constant.  P gates accumulate integer i
    exponents, so CZ corrections cancel the (-1) carries between pairs
    of P'd qubits: i^a i^b = (-1)^(ab) i^(a XOR b).
    """
    if lin_i.const:
        raise InvariantError("lin_i must have zero constant")
    d = lin_i.coeffs
    carries = np.triu(np.outer(d, d), 1)
    cz_pairs = quad ^ carries
    gates = [gate(GateKind.P, int(k)) for k in np.nonzero(d)[0]]
    for i, j in zip(*np.nonzero(cz_pairs)):
        gates.append(gate(GateKind.CZ, int(i), int(j)))
    gates += [gate(GateKind.Z, int(k)) for k in np.nonzero(lin_z)[0]]
    return gates


def synthesize_state_prep(s: AffineForm) -> NormalFormState:
    """Compile an affine form into the three-round preparation circuit.

    Round 1 puts Hadamards on qubits 0..m-1; round 2 routes the
    uniform cube through an invertible extension of R (CNOTs) and
    applies X for the shift t; round 3 re-expresses the phase
    functions over the ket bits (valid on the support, via a left
    inverse of R) and emits P/CZ/Z gates.
    """
    n, m = s.n, s.m
    hadamards = tuple(range(m))

    e = _complete_to_invertible(s.R)
    linear = _cnot_synthesis(e)
    linear += [gate(GateKind.X, k) for k in np.nonzero(s.t)[0]]

    left = gf2.left_inverse(s.R)          # u = left (x + t) on the support
    shift = gf2.mat_mul(left, s.t)
    lin_i = s.l.compose(left, shift)
    quad = s.q.compose(left, shift)
    if lin_i.const:
        # i^(1+a) = i * (-1)^a * i^a: fold the constant into the
        # (-1) part and drop the global i.
        quad = quad ^ LinForm(lin_i.coeffs.copy(), 0)
        lin_i = LinForm(lin_i.coeffs, 0)
    phases = _diagonal_gates(lin_i, quad.cross, quad.lin)

    return NormalFormState(hadamards, tuple(linear), tuple(phases))


# ---------------------------------------------------------------------------
# Operator normal form C ~ M2 * H * M1


@dataclass(frozen=True)
class OperatorNormalForm:
    """Basis-preserving layers around a single Hadamard layer."""

    m1: tuple[Gate, ...]
    hadamard_set: tuple[int, ...]
    m2: tuple[Gate, ...]

    def to_circuit(self, n: int, measured: tuple[int, ...] = (0,)) -> Circuit:
        hs = tuple(gate(GateKind.H, k) for k in self.hadamard_set)
        return Circuit(n, self.m1 + hs + self.m2, None, measured)


def _inverse_sequence(gates: tuple[Gate, ...]) -> list[Gate]:
    """Gate list realizing the inverse circuit (P inverts as P^3)."""
    out: list[Gate] = []
    for g in reversed(gates):
        if g.kind is GateKind.P:
            out += [g, g, g]
        else:
            out.append(g)  # CNOT, X, Z, CZ are involutions
    return out


def decompose_operator(c: Circuit) -> OperatorNormalForm:
    """Factor a Clifford circuit as M2 * H * M1 up to a global constant.

    M2 and the Hadamard layer come from the state-preparation form of
    C|0...0>.  Conjugating each sigma_i = C X_i C^dagger back through
    M2^dagger and H yields Pauli terms tau_i whose X parts assemble an
    invertible matrix; M1 imprints the tau phase data (P for i factors,
    Z for signs, CZ for the reordering carries) and routes through that
    matrix with CNOTs.
    """
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    nf = synthesize_state_prep(run_clifford(c))
    m2 = nf.linear_layer + nf.phase_layer

    x, z, e = _generator_stack(c)
    for g in _inverse_sequence(m2):
        _conjugate_rows(x, z, e, g)
    for k in nf.hadamard_set:
        _conjugate_rows(x, z, e, gate(GateKind.H, k))

    rmat = x.T
    try:
        cnots = _cnot_synthesis(rmat)
    except ValueError:
        raise InvariantError("extracted ket map must be invertible") from None

    m1: list[Gate] = []
    m1 += [gate(GateKind.P, int(i)) for i in np.nonzero(e % 2)[0]]
    m1 += [gate(GateKind.Z, int(i)) for i in np.nonzero(e // 2)[0]]
    cz_pairs = np.triu(gf2.mat_mul(z, rmat), 1)  # (i, j): zpart_i . xpart_j
    m1 += [gate(GateKind.CZ, int(i), int(j)) for i, j in zip(*np.nonzero(cz_pairs))]
    m1 += cnots

    return OperatorNormalForm(tuple(m1), nf.hadamard_set, m2)
