"""Fuzzing of the circuit parser and every CLI verb.

Random circuit text (well-formed circuits of each simulated family, a
quarter of them with one malformed or misplaced statement) must give
a circuit or a ``ParseError`` from ``parse``, and random argv on it
must end in one of the documented exit codes from ``run_command``:
0 success, 1 bad input, 2 capacity, 3 mismatch.  No exception may
escape.  Gates stay on n <= 6 qubits and shots at <= 64, so every
example is cheap; now and then a Clifford circuit declares a header
past the Clifford width cap, which must end in exit 1 or 2 before
anything of that width is allocated.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affstab import Circuit, ParseError, parse
from affstab.affine import MAX_CLIFFORD_QUBITS
from affstab.circuit import (ANGLED, ARITY, CLASSICAL_KINDS, CLIFFORD_KINDS,
                             DIAGONAL_KINDS, GateKind)
from affstab.cli import run_command

MAX_N = 6
# Headers past the Clifford width cap (Clifford circuits only: the other
# families have no such cap, and a prep line makes parse O(header)).
LARGE_N = (MAX_CLIFFORD_QUBITS + 1, 10 ** 12)
AMPLITUDES = ("0", "1", "-1", "0.6", "0.8", "0.7071067811865476", "nan",
              "1e200", "x")


# The gate kinds each circuit family draws from (HT circuits also get
# a Hadamard prefix, product-front circuits prep lines).
FAMILIES = {
    "clifford": [k for k in GateKind if k in CLIFFORD_KINDS],
    "ht": [k for k in GateKind if k in CLASSICAL_KINDS],
    "product": [k for k in GateKind
                if k in CLASSICAL_KINDS or k in DIAGONAL_KINDS],
    "any": list(GateKind),
}


@st.composite
def gate_lines(draw, n: int, kinds) -> str:
    kind = draw(st.sampled_from([k for k in kinds if ARITY[k] <= n]))
    args = draw(st.permutations(range(n)))[:ARITY[kind]]
    if kind in ANGLED:
        args += [draw(st.integers(-9, 9)), draw(st.integers(1, 9))]
    return " ".join([kind.value] + [str(a) for a in args])


@st.composite
def junk_lines(draw, n: int) -> str:
    """A statement that is likely malformed or misplaced."""
    qubit = st.integers(-1, n)
    kind = draw(st.sampled_from(["gate", "prep", "measure", "qubits", "text"]))
    if kind == "gate":
        verb = draw(st.sampled_from([k.value for k in GateKind] + ["frob"]))
        args = draw(st.lists(qubit, max_size=5))
        return " ".join([verb] + [str(a) for a in args])
    if kind == "prep":
        amps = draw(st.lists(st.sampled_from(AMPLITUDES), min_size=3,
                             max_size=5))
        return " ".join(["prep", str(draw(qubit))] + amps)
    if kind == "measure":
        return " ".join(["measure"] + [str(q) for q in
                                       draw(st.lists(qubit, max_size=4))])
    if kind == "qubits":
        return f"qubits {draw(st.integers(-1, MAX_N))}"
    return draw(st.text(alphabet="abcxyz0123456789 #-.", max_size=12))


@st.composite
def circuit_texts(draw) -> tuple[int, str]:
    """A circuit of one of the simulated families, maybe with junk in it."""
    n = draw(st.integers(1, MAX_N))
    family = draw(st.sampled_from(list(FAMILIES)))
    header = n
    if family == "clifford" and draw(st.sampled_from([False] * 7 + [True])):
        header = draw(st.sampled_from(LARGE_N))
    lines = [f"qubits {header}"]
    if family in ("product", "any"):
        for q in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
            a, b = draw(st.sampled_from([("1", "0"), ("0", "1"), ("0.6", "0.8"),
                                         ("0.7071067811865476",) * 2]))
            lines.append(f"prep {q} {a} 0 {b} 0")
    if family == "ht":
        lines += [f"h {q}" for q in draw(st.lists(st.integers(0, n - 1),
                                                  max_size=n))]
    lines += draw(st.lists(gate_lines(n, FAMILIES[family]), max_size=12))
    if draw(st.booleans()):
        subset = draw(st.permutations(range(n)))
        lines.append("measure " + " ".join(
            str(q) for q in subset[:draw(st.integers(1, n))]))
    if draw(st.sampled_from([False] * 3 + [True])):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(junk_lines(n))]
    return n, "\n".join(lines) + "\n"


@st.composite
def argvs(draw, path: str, n: int) -> list[str]:
    verb = draw(st.sampled_from(
        ["normalize", "decompose", "sample", "prob", "verify"]))
    argv = [verb, path]
    if verb in ("normalize", "decompose") and draw(st.booleans()):
        argv.append("--check")
    if verb == "sample":
        argv += ["--shots", str(draw(st.integers(-1, 64))),
                 "--seed", str(draw(st.integers(0, 2 ** 32)))]
    if verb in ("sample", "prob") and draw(st.booleans()):
        qubits = draw(st.lists(st.integers(-1, n), min_size=1, max_size=4))
        argv += ["--qubits"] + [str(q) for q in qubits]
    if verb == "prob" and draw(st.booleans()):
        argv += ["--outcome", draw(st.text(alphabet="01 2", max_size=5))]
    if verb in ("prob", "verify") and draw(st.booleans()):
        argv += ["--limit", str(draw(st.integers(-2, 26)))]
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--bogus")
    return argv


@settings(max_examples=150, deadline=None)
@given(circuit_texts())
def test_parse_returns_circuit_or_parse_error(sized_text):
    _, text = sized_text
    try:
        c = parse(text)
    except ParseError:
        return
    assert isinstance(c, Circuit)
    assert 1 <= c.n_qubits <= MAX_N or c.n_qubits in LARGE_N


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_verb_ends_in_a_documented_exit_code(tmp_path, data):
    n, text = data.draw(circuit_texts())
    path = tmp_path / "fuzz.cq"
    path.write_text(text)
    argv = data.draw(argvs(str(path), n))
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, out, err)
    assert status in (0, 1, 2, 3), (argv, status)
    if status:
        assert out.getvalue() == "" or argv[0] == "verify", argv
    if f"qubits {MAX_CLIFFORD_QUBITS + 1}" in text or "qubits 1000000000000" in text:
        assert status in (1, 2), argv
