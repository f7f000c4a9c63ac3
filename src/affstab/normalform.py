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
bit-sliced stack (the tableau update of Aaronson and Gottesman,
quant-ph/0406196, laid out as in Gidney's Stim): the x and z parts are
one Python int per qubit column, bit i holding row i, and the
i-exponents e = lo + 2 hi are two ints over the rows.  Each gate of
all eight Clifford kinds is one or two XORs, ANDs or swaps of whole
columns, so no circuit is expanded, and M2^dagger is M2 reversed with
each P applied as PDG.  ``_PauliStack.apply`` holds the only copy of
the per-gate rules.  The public signed Pauli is one row of that stack
read out as a tuple (e, x, z) of ints, meaning i^e * X(x) * Z(z) with
e in 0..3 and qubit a at bit a of x and of z: ``conjugate_pauli``
takes and returns one, ``conjugated_generators`` returns the n rows
C X_i C^dagger.  Everything here computes on bit rows; nothing imports
numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import gf2
from .affine import AffineForm, bit_rows, check_clifford_width, run_clifford
from .circuit import (Circuit, CircuitClass, Gate, GateKind, _CNOT, _CZ, _H, _P, _PDG, _SWAP,
                      _X, _Z, _gate, classify)
from .errors import ClassificationError, InvariantError


# ---------------------------------------------------------------------------
# Signed Pauli terms


def _set_bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _PauliStack:
    """Rows i^e * X(x) * Z(z), bit-sliced over the rows.

    ``x[a]`` and ``z[a]`` hold qubit a's x and z bits of every row (row
    i at bit i); the i-exponents mod 4 are e = lo + 2 hi, row i at bit i
    of ``lo`` and ``hi``.
    """

    __slots__ = ("x", "z", "lo", "hi")

    def __init__(self, x: list[int], z: list[int], lo: int, hi: int):
        self.x, self.z, self.lo, self.hi = x, z, lo, hi

    def apply(self, kind: GateKind, qs: tuple[int, ...]) -> None:
        """Map every row to g row g^dagger, for the gate g = kind(qs).

        The sign terms come from reordering each image back to
        X-before-Z form.
        """
        x, z = self.x, self.z
        a = qs[0]
        if kind is _H:
            self.hi ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif kind is _P:
            # e += x_a: the carry out of lo goes to hi.
            xa = x[a]
            self.hi ^= self.lo & xa
            self.lo ^= xa
            z[a] ^= xa
        elif kind is _PDG:
            # e -= x_a: the borrow out of lo goes to hi.
            xa = x[a]
            self.hi ^= xa & ~self.lo
            self.lo ^= xa
            z[a] ^= xa
        elif kind is _X:
            self.hi ^= z[a]
        elif kind is _Z:
            self.hi ^= x[a]
        elif kind is _CNOT:
            t = qs[1]
            x[t] ^= x[a]
            z[a] ^= z[t]
        elif kind is _CZ:
            b = qs[1]
            self.hi ^= x[a] & x[b]
            z[a] ^= x[b]
            z[b] ^= x[a]
        elif kind is _SWAP:
            b = qs[1]
            x[a], x[b] = x[b], x[a]
            z[a], z[b] = z[b], z[a]
        else:
            raise ValueError(f"cannot conjugate through {kind.value}")


def _rows(st: _PauliStack, k: int) -> list[tuple[int, int, int]]:
    """The first k rows of a stack as signed Paulis (e, x, z), qubit a at
    bit a of x and of z."""
    return [((st.lo >> i & 1) + 2 * (st.hi >> i & 1), x, z)
            for i, (x, z) in enumerate(zip(gf2.transpose(st.x, k), gf2.transpose(st.z, k)))]


def conjugate_pauli(p: tuple[int, int, int], g: Gate) -> tuple[int, int, int]:
    """g p g^dagger for the signed Pauli p = (e, x, z), exact sign included.

    Raises:
        ValueError: if x or z is negative, or g is not a Clifford gate.
    """
    e, x, z = p
    if x < 0 or z < 0:
        raise ValueError(f"a Pauli's x and z must be non-negative, got x={x}, z={z}")
    n = max(x.bit_length(), z.bit_length(), max(g.qubits) + 1)
    st = _PauliStack([x >> a & 1 for a in range(n)], [z >> a & 1 for a in range(n)],
                     e & 1, e >> 1 & 1)
    st.apply(g.kind, g.qubits)
    return _rows(st, 1)[0]


def _generator_stack(c: Circuit) -> _PauliStack:
    """Rows sigma_i = C X_i C^dagger of a Clifford circuit."""
    n = c.n_qubits
    check_clifford_width(n)
    st = _PauliStack([1 << a for a in range(n)], [0] * n, 0, 0)
    for g in c.gates:
        st.apply(g.kind, g.qubits)
    # Row i squares to +I iff e_i + x_i.z_i is even.
    odd = st.lo
    for xa, za in zip(st.x, st.z):
        odd ^= xa & za
    if odd:
        raise InvariantError("conjugate of X_i must square to +I")
    return st


def conjugated_generators(c: Circuit) -> list[tuple[int, int, int]]:
    """sigma_i = C X_i C^dagger for each qubit i, as signed Paulis (e, x, z).

    Raises:
        ClassificationError: if the circuit is not Clifford-only.
        CapacityError: past ``MAX_CLIFFORD_QUBITS``.
    """
    if classify(c) is not CircuitClass.CLIFFORD_ONLY:
        raise ClassificationError("circuit is not Clifford-only")
    return _rows(_generator_stack(c), c.n_qubits)


# ---------------------------------------------------------------------------
# State-preparation normal form (three rounds)


@dataclass(frozen=True)
class NormalFormState:
    """Three-round preparation: H layer, CNOT/X routing, diagonal phases."""

    hadamard_set: tuple[int, ...]
    linear_layer: tuple[Gate, ...]   # CNOT and X only
    phase_layer: tuple[Gate, ...]    # P, CZ and Z only

    def to_circuit(self, n: int, measured: tuple[int, ...] = (0,)) -> Circuit:
        return Circuit(n, _h_layer(self.hadamard_set) + self.linear_layer + self.phase_layer,
                       None, measured)


def _h_layer(hadamard_set) -> tuple[Gate, ...]:
    """H gates on ``hadamard_set``; ``operator.index`` keeps ``gate()``'s check."""
    return tuple(_gate(_H, (operator.index(k),)) for k in hadamard_set)


def _complete_to_invertible(r: list[int], m: int) -> list[int]:
    """Extend the full-column-rank n x m matrix r (int rows, column j at
    bit j) to an invertible square one.

    Standard basis vectors for the rows that carry no pivot of r^T (the
    rows of r dependent on the rows before them) are appended
    (ascending); the result's first columns are r itself.
    """
    pivot_rows = set(gf2.independent_rows(r))
    if len(pivot_rows) != m:
        raise InvariantError("r must have full column rank")
    e, col = list(r), m
    for j in range(len(r)):
        if j not in pivot_rows:
            e[j] |= 1 << col
            col += 1
    return e


def _cnot_synthesis(e: list[int]) -> list[Gate]:
    """CNOT gates realizing the ket map |z> -> |e z>, e given by its int rows."""
    return [_gate(_CNOT, (src, tgt))
            for tgt, src in gf2.decompose_rows(e)]


def _diagonal_gates(d: int, cross: list[int], lin_z: int) -> list[Gate]:
    """P/CZ/Z gates imprinting i^(d.x) * (-1)^(x.cross.x + lin_z.x).

    ``cross`` holds one int row per qubit; only its bits above the
    diagonal are read.  P gates accumulate integer i exponents, so CZ
    corrections cancel the (-1) carries between pairs of P'd qubits:
    i^a i^b = (-1)^(ab) i^(a XOR b).
    """
    gates = [_gate(_P, (k,)) for k in _set_bits(d)]
    gates += _upper_cz([row ^ d if d >> i & 1 else row for i, row in enumerate(cross)])
    gates += [_gate(_Z, (k,)) for k in _set_bits(lin_z)]
    return gates


def _upper_cz(rows: list[int]) -> list[Gate]:
    """CZ(i, j) for each bit j > i of row i, in row-major order."""
    return [_gate(_CZ, (i, j)) for i, row in enumerate(rows)
            for j in _set_bits(row >> (i + 1) << (i + 1))]


def _param_order(rows: list[int], m: int) -> list[int]:
    """R's rows with parameter i moved from bit m-1-i (the affine form's
    order) to bit i."""
    if not m:
        return list(rows)
    return [int(f"{x:0{m}b}"[::-1], 2) for x in rows]


def synthesize_state_prep(s: AffineForm) -> NormalFormState:
    """Compile an affine form into the three-round preparation circuit.

    Round 1 puts Hadamards on qubits 0..m-1; round 2 routes the
    uniform cube through an invertible extension of R (CNOTs) and
    applies X for the shift t; round 3 re-expresses the phase
    functions over the ket bits (valid on the support, via a left
    inverse of R) and emits P/CZ/Z gates.

    Everything runs on the form's bit rows.  With K the left inverse,
    u = K (x + t) on the support, so l and q become functions of the
    ket bits x: l(K x + shift) and q(K x + shift), shift = K t.
    """
    n, m = s.n, s.m
    hadamards = tuple(range(m))
    rows, t, l, l0, sym, lin = bit_rows(s)
    r = _param_order(rows, m)

    linear = _cnot_synthesis(_complete_to_invertible(r, m))
    linear += [_gate(_X, (k,)) for k in _set_bits(t)]

    # K's rows over the ket bits, indexed like the form's parameter bits.
    left = gf2.reducer_rows(r, m)[:m][::-1]
    shift = 0
    for p, row in enumerate(left):
        if (row & t).bit_count() & 1:
            shift |= 1 << p
    # l: coefficients K^T l, constant l0 + l.shift.
    d = gf2.combine(left, l)
    d0 = l0 ^ ((l & shift).bit_count() & 1)
    # q with B = cross + cross^T: cross terms K^T B K; the squares of
    # each cross term u_p u_r (p < r) give the linear terms K_p & K_r;
    # the shift adds K^T (B shift), and q's own linear part K^T lin.
    cross, lin_z = [0] * n, 0
    for p, row in enumerate(left):
        upper = gf2.combine(left, sym[p] >> p + 1 << p + 1)
        bk = upper ^ gf2.combine(left, sym[p] & (1 << p) - 1)   # B's diagonal is 0
        lin_z ^= row & upper
        if ((sym[p] & shift).bit_count() ^ (lin >> p)) & 1:
            lin_z ^= row
        for a in _set_bits(row):
            cross[a] ^= bk
    if d0:
        # i^(1+a) = i * (-1)^a * i^a: fold the constant into the
        # (-1) part and drop the global i.
        lin_z ^= d
    phases = _diagonal_gates(d, cross, lin_z)

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
        return Circuit(n, self.m1 + _h_layer(self.hadamard_set) + self.m2, None, measured)


def decompose_operator(c: Circuit) -> OperatorNormalForm:
    """Factor a Clifford circuit as M2 * H * M1 up to a global constant.

    M2 and the Hadamard layer come from the state-preparation form of
    C|0...0>.  Conjugating each sigma_i = C X_i C^dagger back through
    M2^dagger and H yields Pauli terms tau_i whose X parts assemble an
    invertible matrix; M1 imprints the tau phase data (P for i factors,
    Z for signs, CZ for the reordering carries) and routes through that
    matrix with CNOTs.

    Raises:
        ClassificationError: if the circuit is not Clifford-only.
    """
    nf = synthesize_state_prep(run_clifford(c))
    m2 = nf.linear_layer + nf.phase_layer

    st = _generator_stack(c)
    # M2^dagger: CNOT, X, Z and CZ are involutions, and P inverts as PDG.
    for g in reversed(m2):
        st.apply(_PDG if g.kind is _P else g.kind, g.qubits)
    for k in nf.hadamard_set:
        st.apply(_H, (k,))

    # The ket map's row a is qubit a's x column.
    try:
        cnots = _cnot_synthesis(st.x)
    except ValueError:
        raise InvariantError("extracted ket map must be invertible") from None

    m1: list[Gate] = []
    m1 += [_gate(_P, (i,)) for i in _set_bits(st.lo)]
    m1 += [_gate(_Z, (i,)) for i in _set_bits(st.hi)]
    # CZ (i, j), i < j, where zpart_i . xpart_j = 1: row i of Z X^T is the
    # XOR of the x columns of the qubits in zpart_i.
    zx = [0] * c.n_qubits
    for a, za in enumerate(st.z):
        for i in _set_bits(za):
            zx[i] ^= st.x[a]
    m1 += _upper_cz(zx)
    m1 += cnots

    return OperatorNormalForm(tuple(m1), nf.hadamard_set, m2)
