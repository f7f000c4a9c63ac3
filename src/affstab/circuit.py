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
with the same raw text shares one ``Gate``.  A measure line gets the
one measured-subset check, ``_check_measured``, with its line number,
and ``prep`` lines the per-qubit width check, ``_check_width``.  One
writer, ``_emit``, writes ``emit``'s text and the CLI's normal forms.
"""

from __future__ import annotations

import enum
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import CapacityError, ParseError


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
    converted), since the simulators use them as shift counts.
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
        if angle is not None and angle[1] <= 0:
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


def _bad_norm2(a: complex, b: complex) -> float | None:
    """|a|^2 + |b|^2 of a prep pair off 1 by more than ``PREP_NORM_TOL``, else None."""
    norm2 = abs(a) * abs(a) + abs(b) * abs(b)  # inf, not OverflowError
    return None if abs(norm2 - 1.0) <= PREP_NORM_TOL else norm2  # nan fails <=


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
    return next((i for i, g in enumerate(gates) if g.kind is not GateKind.H), len(gates))


def _first_outside(gates: tuple[Gate, ...], kinds) -> Gate | None:
    """The first gate whose kind is not in ``kinds``, or None."""
    return next((g for g in gates if g.kind not in kinds), None)


def basic_clifford_gates(gates: Iterable[Gate]) -> Iterator[Gate]:
    """Yield gates with SWAP -> 3 CNOTs and PDG -> 3 PHASEs expanded."""
    for g in gates:
        if g.kind is GateKind.SWAP:
            ab = _gate(GateKind.CNOT, g.qubits)
            yield from (ab, _gate(GateKind.CNOT, g.qubits[::-1]), ab)
        elif g.kind is GateKind.PDG:
            yield from [_gate(GateKind.P, g.qubits)] * 3
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
                gates.append(hit)
                continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        verb = tokens[0]
        spec = specs.get(verb)
        if spec is None:
            verb = verb.lower()
            spec = specs.get(verb)
        if spec is not None and in_body:
            # A gate: the checks of ``Gate``, in the order the messages
            # promise.
            kind, arity, want = spec
            if len(tokens) != want + 1:
                raise ParseError(ln, f"'{verb}' takes {want} argument(s)")
            try:
                # tuple() of a list reuses freed small tuples; tuple(map())
                # allocates fresh ones, which runs the cyclic garbage
                # collector more often.
                nums = tuple([int(tok) for tok in tokens[1:]])
            except ValueError:
                nums = tuple(_parse_int(ln, tokens[1:], verb))  # raises: a bad token
            qubits = nums if want == arity else nums[:arity]
            for q in qubits:
                if not 0 <= q < n_qubits:
                    raise ParseError(ln, f"qubit index {q} out of range for {n_qubits} qubits")
            if arity > 1 and len(set(qubits)) != arity:
                raise ParseError(ln, f"duplicate qubit in '{verb}'")
            angle = None
            if want != arity:
                if nums[arity + 1] <= 0:
                    raise ParseError(ln, "angle denominator must be positive")
                angle = nums[arity:]
            g = seen[raw] = _gate(kind, qubits, angle)
            gates.append(g)
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
                raise ParseError(ln, f"qubit index {q} out of range for {n_qubits} qubits")
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


# mnemonic -> (kind, qubit count, argument count)
_GATE_SPECS = {kind.value: (kind, ARITY[kind], ARITY[kind] + 2 * (kind in ANGLED))
               for kind in GateKind}


def _parse_int(ln: int, toks: list[str], verb: str, count: int | None = None) -> list[int]:
    if count is not None and len(toks) != count:
        raise ParseError(ln, f"'{verb}' takes {count} argument(s)")
    out = []
    for tok in toks:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(ln, f"'{verb}': expected integer, got '{tok}'")
    return out


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
    append = lines.append
    for label, gates in sections:
        if label is not None:
            append(f"# {label}")
        for kind, qubits, angle in gates:
            # ``_value_``: ``.value`` is a Python property call.
            line = f"{kind._value_} {' '.join(map(str, qubits))}"
            append(line if angle is None else f"{line} {angle[0]} {angle[1]}")
    append(f"measure {' '.join(map(str, measured))}\n")
    return "\n".join(lines)
