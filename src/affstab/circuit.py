"""Circuit intermediate representation, text format, and classification.

The text format is line oriented (UTF-8, ``#`` starts a comment):

    qubits N                        required, first statement
    prep q a_re a_im b_re b_im      optional, at most once per qubit,
                                    before any gate
    h q | p q | pdg q | x q | z q | cnot c t | cz a b | swap a b
    toffoli c1 c2 t | zrot q num den | czrot a b num den
    measure q1 q2 ...               optional, at most once, last statement
                                    (default: measure 0)

Every simulator and the Pauli stack take all eight Clifford kinds as
they stand, so ``parse`` keeps each line as one gate and
``parse(emit(c)) == c``; ``basic_clifford_gates`` expands SWAP and PDG
for code that wants the six basic kinds.  Diagonal rotation angles are
exact rationals (num, den): the phase exp(i*pi*num/den) on the
all-ones branch.

A ``Gate`` is an immutable ``NamedTuple`` ``(kind, qubits, angle)``.
Each gate is checked once.  ``gate`` and ``Gate(...)`` check kind,
qubits and angle; the gates the package derives (parsed statements,
expanded SWAP and PDG, the normal forms' layers) come from one
unchecked constructor, ``_gate``, after their callers' own checks
(``Gate._make`` and ``_replace`` skip the checks too).  Likewise
``_circuit`` builds the circuits of ``parse`` and of the CLI's
``--qubits``, whose gates are already checked.

``parse`` interns repeated gate lines: within one call, every body line
with the same raw text shares one ``Gate``.  A gate line not seen
before is checked on one straight-line path for its shape (one, two or
three qubits, or ZROT/CZROT's qubits and two angle ints): ``int`` on
each token, chained comparisons for the range, ``!=`` for distinct
qubits, and the ``Gate`` built by ``tuple.__new__``; it is split at a
``#`` only when it holds one.  Every error is raised in a branch of its
own, in rule order (argument count, integers, range, distinct qubits,
denominator), naming the first token that breaks the rule, with its
line number.  A measure line gets the one
measured-subset check, ``_check_measured``, with its line number, and
``prep`` lines the per-qubit width check, ``_check_width``.

One writer, ``_emit``, writes ``emit``'s text and the CLI's normal
forms.  Each gate line is one ``%`` of its kind's format string in
``_FMT`` (``"h %d"``, ``"cnot %d %d"``, ``"toffoli %d %d %d"``,
``"zrot %d %d %d"``, ``"czrot %d %d %d %d"``) with the qubits, then the
angle's num and den.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import CapacityError, InvariantError, ParseError


class GateKind(enum.Enum):
    H = "h"
    P = "p"
    PDG = "pdg"
    X = "x"
    Z = "z"
    CNOT = "cnot"
    CZ = "cz"
    SWAP = "swap"
    TOFFOLI = "toffoli"
    ZROT = "zrot"
    CZROT = "czrot"

    # Members are singletons compared by identity, so they can hash by
    # identity too, in C; ``Enum.__hash__`` is a Python call per lookup.
    __hash__ = object.__hash__


# The kinds as module names, for per-gate dispatch: ``GateKind.H`` is a
# lookup through the ``EnumType`` metaclass that the interpreter does not
# specialise (about 100 ns), a module global one load (about 8 ns).
_H, _P, _PDG, _X, _Z = GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z
_CNOT, _CZ, _SWAP, _TOFFOLI = GateKind.CNOT, GateKind.CZ, GateKind.SWAP, GateKind.TOFFOLI
_ZROT, _CZROT = GateKind.ZROT, GateKind.CZROT

ARITY = {
    GateKind.H: 1,
    GateKind.P: 1,
    GateKind.PDG: 1,
    GateKind.X: 1,
    GateKind.Z: 1,
    GateKind.ZROT: 1,
    GateKind.CNOT: 2,
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
    GateKind.CZROT: 2,
    GateKind.TOFFOLI: 3,
}

ANGLED = {GateKind.ZROT, GateKind.CZROT}

CLIFFORD_KINDS = {
    GateKind.H, GateKind.P, GateKind.PDG, GateKind.CNOT,
    GateKind.X, GateKind.Z, GateKind.CZ, GateKind.SWAP,
}
CLASSICAL_KINDS = {GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP}
DIAGONAL_KINDS = {
    GateKind.P, GateKind.PDG, GateKind.Z, GateKind.CZ,
    GateKind.ZROT, GateKind.CZROT,
}
_CLASSICAL_OR_DIAGONAL = CLASSICAL_KINDS | DIAGONAL_KINDS

PREP_NORM_TOL = 1e-12

_new, _setattr = object.__new__, object.__setattr__
_tuple_new = tuple.__new__


# ``typing.NamedTuple`` refuses a class body that defines ``__new__``, so
# the checked constructor lives in the subclass ``Gate``.
class _GateFields(NamedTuple):
    kind: GateKind
    qubits: tuple[int, ...]
    angle: tuple[int, int] | None = None


class Gate(_GateFields):
    """A single gate: kind, ordered distinct qubit indices, optional angle.

    Indices are stored as a tuple of Python ints (numpy integers are
    converted), since the simulators use them as shift counts; an angle
    likewise, as a (num, den) tuple of Python ints with den > 0.

    Raises:
        TypeError: if a qubit or an angle entry is not an integer.
        ValueError: on a wrong qubit count, a duplicate qubit, an angle
        on an unangled kind (or none on an angled one), an angle that is
        not two entries, or a denominator that is not positive.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, qubits: Iterable[int],
                angle: tuple[int, int] | None = None) -> Gate:
        if type(qubits) is not tuple or any(type(q) is not int for q in qubits):
            qubits = tuple(map(operator.index, qubits))
        if len(qubits) != ARITY[kind]:
            raise ValueError(
                f"{kind.value} takes {ARITY[kind]} qubit(s), got {len(qubits)}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {kind.value} gate")
        if (angle is not None) != (kind in ANGLED):
            raise ValueError(f"angle mismatch for {kind.value}")
        if angle is not None:
            angle = tuple(map(operator.index, angle))
            if len(angle) != 2:
                raise ValueError(f"angle must be (num, den), got {len(angle)} entries")
            if angle[1] <= 0:
                raise ValueError("angle denominator must be positive")
        return _tuple_new(cls, (kind, qubits, angle))


def gate(kind: GateKind, *qubits: int, angle: tuple[int, int] | None = None) -> Gate:
    return Gate(kind, qubits, angle)


def _gate(kind: GateKind, qubits: tuple[int, ...], angle: tuple[int, int] | None = None) -> Gate:
    """A Gate built unchecked: the caller has proven what ``Gate`` checks,
    with ``qubits`` a tuple of Python ints."""
    return _tuple_new(Gate, (kind, qubits, angle))


@dataclass(frozen=True)
class Circuit:
    """An n-qubit circuit with optional product-state preparation.

    ``prep`` is either None (all qubits start in |0>) or a tuple of
    per-qubit amplitude pairs (a, b) meaning a|0> + b|1>, each pair
    normalized within 1e-12.  ``measured`` is the default measurement
    subset (distinct indices, in order, stored as Python ints).
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    prep: tuple[tuple[complex, complex], ...] | None = None
    measured: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit must have at least one qubit")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit index {q} out of range")
        if self.prep is not None:
            if len(self.prep) != self.n_qubits:
                raise ValueError("prep must give one amplitude pair per qubit")
            for a, b in self.prep:
                norm2 = _bad_norm2(a, b)
                if norm2 is not None:
                    raise ValueError(f"prep pair not normalized: |a|^2+|b|^2 = {norm2!r}")
        _setattr(self, "measured", _check_measured(self.n_qubits, self.measured))


def _check_measured(n_qubits: int, measured) -> tuple[int, ...]:
    """The measured qubits as Python ints (``operator.index``), checked distinct
    and in range: the check of ``Circuit``, ``--qubits`` and every ``measure`` query."""
    qubits = tuple(map(operator.index, measured))
    if len(set(qubits)) != len(qubits):
        raise ValueError("measured qubits must be distinct")
    if qubits and (min(qubits) < 0 or max(qubits) >= n_qubits):
        bad = next(q for q in qubits if not 0 <= q < n_qubits)
        raise ValueError(f"measured qubit {bad} out of range")
    return qubits


def _check_width(n: int) -> None:
    """Raise ``CapacityError`` for a width past the index range, before
    anything is allocated: no list or array can hold one entry per qubit."""
    if n > sys.maxsize:
        raise CapacityError(f"near-Clifford simulation cannot index {n} qubits; "
                            f"the limit is {sys.maxsize}")


def _check_batch(shots: int, n: int, itemsize: int = 1) -> None:
    """Raise ``CapacityError`` for a (shots, n) batch of ``itemsize``-byte
    entries past the index range, before it is allocated: numpy refuses
    such a shape as a bad size (and a shot count past it even at n = 0)."""
    if shots * max(n, 1) * itemsize > sys.maxsize:
        raise CapacityError(f"{shots} shots of {n} qubits need {shots * n} bits; "
                            f"the limit is {sys.maxsize // itemsize}")


def _bad_norm2(a: complex, b: complex) -> float | None:
    """|a|^2 + |b|^2 of a prep pair off 1 by more than ``PREP_NORM_TOL``, else None."""
    norm2 = abs(a) * abs(a) + abs(b) * abs(b)  # inf, not OverflowError
    return None if abs(norm2 - 1.0) <= PREP_NORM_TOL else norm2  # nan fails <=


def normalized_prep(c: Circuit) -> list[tuple[complex, complex]]:
    """Per-qubit amplitude pairs, each renormalized exactly once."""
    if c.prep is None:
        return [(1.0 + 0j, 0j)] * c.n_qubits
    norms = [math.sqrt(abs(a) ** 2 + abs(b) ** 2) for a, b in c.prep]
    return [(a / norm, b / norm) for (a, b), norm in zip(c.prep, norms)]


def _circuit(n_qubits: int, gates: tuple[Gate, ...], prep,
             measured: tuple[int, ...]) -> Circuit:
    """A Circuit built unchecked: the caller has proven what ``Circuit``
    checks."""
    c = _new(Circuit)
    _setattr(c, "n_qubits", n_qubits)
    _setattr(c, "gates", gates)
    _setattr(c, "prep", prep)
    _setattr(c, "measured", measured)
    return c


class CircuitClass(enum.Enum):
    """Which simulation strategy a circuit admits (most specific first)."""

    CLIFFORD_ONLY = "CliffordOnly"
    HT_FORM = "HTForm"
    PRODUCT_FRONT_CLASSICAL_DIAGONAL = "ProductFrontClassicalDiagonal"
    ORACLE_ONLY = "OracleOnly"


def classify(c: Circuit) -> CircuitClass:
    """Route a circuit to the most specific simulation strategy.

    CliffordOnly: no prep, all gates Clifford.
    HTForm: no prep, a prefix of H gates followed by classical gates only.
    ProductFrontClassicalDiagonal: classical + diagonal gates only
    (prep allowed; absent prep is the all-|0> product state).
    OracleOnly: anything else.
    """
    if c.prep is None:
        if _first_outside(c.gates, CLIFFORD_KINDS) is None:
            return CircuitClass.CLIFFORD_ONLY
        if _first_outside(c.gates[_h_prefix(c.gates):], CLASSICAL_KINDS) is None:
            return CircuitClass.HT_FORM
    if _first_outside(c.gates, _CLASSICAL_OR_DIAGONAL) is None:
        return CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL
    return CircuitClass.ORACLE_ONLY


def _h_prefix(gates: tuple[Gate, ...]) -> int:
    """How many H gates ``gates`` starts with: an HT circuit's Hadamard layer."""
    return next((i for i, g in enumerate(gates) if g.kind is not _H), len(gates))


def _first_outside(gates: tuple[Gate, ...], kinds) -> Gate | None:
    """The first gate whose kind is not in ``kinds``, or None."""
    return next((g for g in gates if g.kind not in kinds), None)


def basic_clifford_gates(gates: Iterable[Gate]) -> Iterator[Gate]:
    """Yield gates with SWAP -> 3 CNOTs and PDG -> 3 PHASEs expanded."""
    for g in gates:
        if g.kind is _SWAP:
            ab = _gate(_CNOT, g.qubits)
            yield from (ab, _gate(_CNOT, g.qubits[::-1]), ab)
        elif g.kind is _PDG:
            yield from [_gate(_P, g.qubits)] * 3
        else:
            yield g


# ---------------------------------------------------------------------------
# Text format


def parse(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    Raises:
        ParseError: with the offending line number, on unknown
        mnemonics, arity mismatches, out-of-range or duplicate
        indices, or a missing header.
    """
    n_qubits = None
    prep_pairs: dict[int, tuple[complex, complex]] = {}
    gates: list[Gate] = []
    append = gates.append
    measured: tuple[int, ...] | None = None
    in_body = False  # after the header and before 'measure'

    # Each statement is checked once, as it is read, so the frozen Gate
    # and Circuit are built without running their checks.  A body line
    # seen before is the same gate again: the checks depend only on its
    # text and n_qubits, which the body does not change.
    specs = _GATE_SPECS
    seen: dict[str, Gate] = {}  # raw body line -> its gate
    for ln, raw in enumerate(text.splitlines(), start=1):
        if in_body:
            hit = seen.get(raw)
            if hit is not None:
                append(hit)
                continue
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        verb = tokens[0]
        spec = specs.get(verb)
        if spec is None:
            verb = verb.lower()
            spec = specs.get(verb)
        if spec is not None and in_body:
            # A gate line, checked straight through for its shape with
            # the rules in the order the messages promise: argument
            # count, integers, range, distinct qubits, denominator.
            kind, arity, size = spec
            if len(tokens) != size:
                raise ParseError(ln, f"'{verb}' takes {size - 1} argument(s)")
            if size == 2:  # h, p, pdg, x, z
                try:
                    a = int(tokens[1])
                except ValueError:
                    raise _bad_int(ln, verb, tokens[1:]) from None
                if not 0 <= a < n_qubits:
                    raise _out_of_range(ln, (a,), n_qubits)
                g = _tuple_new(Gate, (kind, (a,), None))
            elif size == 3:  # cnot, cz, swap
                try:
                    a = int(tokens[1])
                    b = int(tokens[2])
                except ValueError:
                    raise _bad_int(ln, verb, tokens[1:]) from None
                if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                    raise _out_of_range(ln, (a, b), n_qubits)
                if a == b:
                    raise ParseError(ln, f"duplicate qubit in '{verb}'")
                g = _tuple_new(Gate, (kind, (a, b), None))
            elif arity == 3:  # toffoli
                try:
                    a = int(tokens[1])
                    b = int(tokens[2])
                    c = int(tokens[3])
                except ValueError:
                    raise _bad_int(ln, verb, tokens[1:]) from None
                if not (0 <= a < n_qubits and 0 <= b < n_qubits and 0 <= c < n_qubits):
                    raise _out_of_range(ln, (a, b, c), n_qubits)
                if not (a != b and a != c and b != c):
                    raise ParseError(ln, f"duplicate qubit in '{verb}'")
                g = _tuple_new(Gate, (kind, (a, b, c), None))
            elif arity == 1:  # zrot
                try:
                    a = int(tokens[1])
                    num = int(tokens[2])
                    den = int(tokens[3])
                except ValueError:
                    raise _bad_int(ln, verb, tokens[1:]) from None
                if not 0 <= a < n_qubits:
                    raise _out_of_range(ln, (a,), n_qubits)
                if den <= 0:
                    raise ParseError(ln, "angle denominator must be positive")
                g = _tuple_new(Gate, (kind, (a,), (num, den)))
            else:  # czrot
                try:
                    a = int(tokens[1])
                    b = int(tokens[2])
                    num = int(tokens[3])
                    den = int(tokens[4])
                except ValueError:
                    raise _bad_int(ln, verb, tokens[1:]) from None
                if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                    raise _out_of_range(ln, (a, b), n_qubits)
                if a == b:
                    raise ParseError(ln, f"duplicate qubit in '{verb}'")
                if den <= 0:
                    raise ParseError(ln, "angle denominator must be positive")
                g = _tuple_new(Gate, (kind, (a, b), (num, den)))
            seen[raw] = g
            append(g)
            continue
        args = tokens[1:]

        if n_qubits is None:
            if verb != "qubits":
                raise ParseError(ln, "first statement must be 'qubits N'")
            n_qubits = _parse_int(ln, args, "qubits", count=1)[0]
            if n_qubits < 1:
                raise ParseError(ln, "qubit count must be positive")
            in_body = True
            continue
        if measured is not None:
            raise ParseError(ln, "no statements allowed after 'measure'")

        if verb == "qubits":
            raise ParseError(ln, "duplicate 'qubits' header")
        elif verb == "prep":
            if gates:
                raise ParseError(ln, "prep must precede all gates")
            if len(args) != 5:
                raise ParseError(ln, "prep takes: qubit a_re a_im b_re b_im")
            q = _parse_int(ln, args[:1], "prep", count=1)[0]
            if not 0 <= q < n_qubits:
                raise _out_of_range(ln, (q,), n_qubits)
            if q in prep_pairs:
                raise ParseError(ln, f"duplicate prep for qubit {q}")
            try:
                vals = [float(tok) for tok in args[1:]]
            except ValueError:
                raise ParseError(ln, "prep amplitudes must be decimal floats")
            a, b = complex(vals[0], vals[1]), complex(vals[2], vals[3])
            norm2 = _bad_norm2(a, b)
            if norm2 is not None:
                raise ParseError(ln, f"prep pair not normalized: {norm2!r}")
            prep_pairs[q] = (a, b)
        elif verb == "measure":
            qubits = _parse_int(ln, args, "measure")
            if not qubits:
                raise ParseError(ln, "measure needs at least one qubit")
            try:
                measured = _check_measured(n_qubits, qubits)
            except ValueError as exc:
                raise ParseError(ln, str(exc)) from None
            in_body = False
        else:
            raise ParseError(ln, f"unknown mnemonic '{verb}'")

    if n_qubits is None:
        raise ParseError(0, "empty input: missing 'qubits N' header")
    prep = None
    if prep_pairs:
        _check_width(n_qubits)
        prep = tuple(prep_pairs.get(q, (complex(1.0), complex(0.0)))
                     for q in range(n_qubits))
    return _circuit(n_qubits, tuple(gates), prep, measured if measured is not None else (0,))


# mnemonic -> (kind, qubit count, token count with the mnemonic)
_GATE_SPECS = {kind.value: (kind, ARITY[kind], 1 + ARITY[kind] + 2 * (kind in ANGLED))
               for kind in GateKind}


def _parse_int(ln: int, toks: list[str], verb: str, count: int | None = None) -> list[int]:
    if count is not None and len(toks) != count:
        raise ParseError(ln, f"'{verb}' takes {count} argument(s)")
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise _bad_int(ln, verb, toks) from None


def _bad_int(ln: int, verb: str, toks: list[str]) -> ParseError:
    """The error for the first of ``toks`` that ``int`` refuses (one does)."""
    for tok in toks:
        try:
            int(tok)
        except ValueError:
            return ParseError(ln, f"'{verb}': expected integer, got '{tok}'")
    raise InvariantError(f"int refuses none of {toks}")


def _out_of_range(ln: int, qubits: tuple[int, ...], n_qubits: int) -> ParseError:
    """The error for the first of ``qubits`` outside 0..n_qubits-1 (one is)."""
    q = next(q for q in qubits if not 0 <= q < n_qubits)
    return ParseError(ln, f"qubit index {q} out of range for {n_qubits} qubits")


def emit(c: Circuit) -> str:
    """Emit canonical text; parse(emit(c)) == c."""
    return _emit(c.n_qubits, c.prep, ((None, c.gates),), c.measured)


def _emit(n: int, prep, sections, measured) -> str:
    """The one circuit-text writer: each (label, gates) section follows a
    ``# label`` line unless the label is None."""
    lines = [f"qubits {n}"]
    if prep is not None:
        lines += [f"prep {q} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}"
                  for q, (a, b) in enumerate(prep)]
    fmt = _FMT
    for label, gates in sections:
        if label is not None:
            lines.append(f"# {label}")
        lines += [fmt[kind] % (qubits if angle is None else qubits + angle)
                  for kind, qubits, angle in gates]
    lines.append(f"measure {' '.join(map(str, measured))}\n")
    return "\n".join(lines)


# kind -> its line with a %d per qubit and angle entry, e.g. "cnot %d %d"
_FMT = {kind: " ".join([kind.value] + ["%d"] * (ARITY[kind] + 2 * (kind in ANGLED)))
        for kind in GateKind}
