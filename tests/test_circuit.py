import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affstab import (Circuit, CircuitClass, Gate, GateKind, ParseError, classify,
                     emit, gate, parse)
from affstab.circuit import ANGLED, ARITY, basic_clifford_gates
from affstab.statevector import run_statevector
from helpers import random_text_circuit


def test_parse_basic():
    c = parse("qubits 2\nh 0\ncnot 0 1")
    assert c.n_qubits == 2
    assert [(g.kind, g.qubits) for g in c.gates] == [
        (GateKind.H, (0,)), (GateKind.CNOT, (0, 1))]
    assert c.measured == (0,)
    assert c.prep is None


def test_parse_hph():
    c = parse("qubits 1\nh 0\np 0\nh 0\nmeasure 0")
    assert [g.kind for g in c.gates] == [GateKind.H, GateKind.P, GateKind.H]


def test_parse_rejects_duplicate_qubit():
    with pytest.raises(ParseError) as exc:
        parse("qubits 2\ncnot 0 0")
    assert exc.value.line == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("qubits 2\nfrob 0\n", 2, "unknown"),
        ("qubits 2\nh 0 1\n", 2, "argument"),
        ("qubits 2\nh 5\n", 2, "out of range"),
        ("h 0\n", 1, "first statement"),
        ("qubits 2\nmeasure 0\nh 1\n", 3, "after"),
        ("qubits 2\nh 0\nprep 1 1 0 0 0\n", 3, "precede"),
        ("qubits 2\nprep 0 1 0 0 0\nprep 0 1 0 0 0\n", 3, "duplicate"),
        ("qubits 2\nprep 0 1 0 1 0\n", 2, "normalized"),
        ("qubits 1\nprep 0 nan 0 0 0\n", 2, "normalized"),
        ("qubits 1\nprep 0 1e200 0 0 0\n", 2, "normalized"),
        ("qubits 2\nzrot 0 1 0\n", 2, "denominator"),
        ("qubits 2\nmeasure 0 0\n", 2, "measured qubits must be distinct"),
        ("qubits 2\nmeasure 0 5\n", 2, "measured qubit 5 out of range"),
        ("qubits 2\nmeasure -1\n", 2, "measured qubit -1 out of range"),
        ("qubits 0\n", 1, "positive"),
        ("qubits 2 3\n", 1, "'qubits' takes 1 argument(s)"),
        ("qubits 2\nh x\n", 2, "'h': expected integer, got 'x'"),
        ("qubits 1\nprep 0 1 0 0\n", 2, "prep takes: qubit a_re a_im b_re b_im"),
        ("qubits 1\nprep 0 a 0 0 0\n", 2, "prep amplitudes must be decimal floats"),
        ("qubits 1\nmeasure\n", 2, "measure needs at least one qubit"),
        ("# nothing\n\n", 0, "empty input: missing 'qubits N' header"),
        # A line the parser has seen is checked again where the state differs.
        ("qubits 2\nh 0\nmeasure 0\nh 0\n", 4, "no statements allowed after 'measure'"),
        ("qubits 2\nswap 0 1\nmeasure 0\nswap 0 1\n", 4,
         "no statements allowed after 'measure'"),
        ("qubits 2\nH 0\nh 0\nprep 1 1 0 0 0\n", 4, "prep must precede all gates"),
        ("qubits 2\nh 0\nh 0\nqubits 2\n", 4, "duplicate 'qubits' header"),
        ("qubits 2\nFROB 0\n", 2, "unknown mnemonic 'frob'"),
        ("qubits 2\nCNOT 1 1\n", 2, "duplicate qubit in 'cnot'"),
        ("qubits 2\nZRot 0 1 0\n", 2, "angle denominator must be positive"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line, text
        assert needle in str(exc.value), text


def _reference_parse(text: str) -> Circuit:
    """A valid file parsed line by line, each gate built by the checked
    ``Gate(...)`` and the circuit by the checked ``Circuit(...)``."""
    n, prep, gates, measured = None, {}, [], (0,)
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        verb, args = tokens[0].lower(), tokens[1:]
        if verb == "qubits":
            n = int(args[0])
        elif verb == "prep":
            re_a, im_a, re_b, im_b = map(float, args[1:])
            prep[int(args[0])] = (complex(re_a, im_a), complex(re_b, im_b))
        elif verb == "measure":
            measured = tuple(map(int, args))
        else:
            kind = GateKind(verb)
            nums = tuple(map(int, args))
            qubits, angle = nums[:ARITY[kind]], nums[ARITY[kind]:] or None
            gates.append(Gate(kind, qubits, angle))
    pairs = None
    if prep:
        pairs = tuple(prep.get(q, (1, 0)) for q in range(n))
    return Circuit(n, tuple(gates), pairs, measured)


@st.composite
def _gate_lines(draw, n):
    """A gate line: any kind that fits n, any mnemonic case, spaces or
    tabs between tokens, and maybe a trailing comment."""
    kind = draw(st.sampled_from([k for k in GateKind if ARITY[k] <= n]))
    qubits = draw(st.permutations(range(n)))[:ARITY[kind]]
    nums = list(qubits)
    if kind in ANGLED:
        nums += [draw(st.integers(-9, 9)), draw(st.integers(1, 9))]
    mnemonic = "".join(draw(st.sampled_from([ch, ch.upper()])) for ch in kind.value)
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    comment = draw(st.sampled_from(["", "# note", "\t#h 0", " #"]))
    return sep.join([mnemonic] + [str(q) for q in nums]) + comment


@st.composite
def _text_circuits(draw):
    n = draw(st.integers(1, 5))
    lines = ["# header comment", f"QUBITS\t{n}" if draw(st.booleans()) else f"qubits {n}"]
    if n >= 2 and draw(st.booleans()):
        lines.append(f"prep {n - 1} 0.6 0.0 0.0 -0.8  # not |0>")
    pool = draw(st.lists(_gate_lines(n), min_size=1, max_size=6))
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=40)):
        lines.append(pool[i])  # repeats, by construction
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# between", "\t"])))
    if draw(st.booleans()):
        measured = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        lines += ["Measure " + " ".join(map(str, measured)), "# after measure", ""]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_text_circuits())
def test_parse_equals_a_checked_reference(text):
    c = parse(text)
    assert c == _reference_parse(text)
    assert all(type(g) is Gate and all(type(q) is int for q in g.qubits) for g in c.gates)


def test_parse_shares_one_gate_per_repeated_line():
    c = parse("qubits 3\nh 0\ncnot 0 1\nh 0\nswap 1 2\ncnot 0 1\nswap 1 2\n")
    h, cnot, h2, swap, cnot2, swap2 = c.gates
    assert h is h2 and cnot is cnot2 and swap is swap2
    assert swap == Gate(GateKind.SWAP, (1, 2))
    # The same gate on other text is built again, but equal.
    assert parse("qubits 1\nh 0\nh 0 # again").gates[0] == Gate(GateKind.H, (0,))


def test_parse_comments_and_blanks():
    c = parse("# a comment\n\nqubits 2  # trailing\n\nh 0\n")
    assert c.n_qubits == 2 and len(c.gates) == 1


def test_swap_is_one_gate_at_parse():
    c = parse("qubits 3\nswap 0 1\nSWAP 2 0")
    assert c.gates == (Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.SWAP, (2, 0)))
    assert emit(c) == "qubits 3\nswap 0 1\nswap 2 0\nmeasure 0\n"


def test_emit_empty_circuit():
    assert emit(Circuit(3)) == "qubits 3\nmeasure 0\n"


def test_emit_zrot_line():
    c = Circuit(1, (gate(GateKind.ZROT, 0, angle=(1, 4)),))
    assert "zrot 0 1 4" in emit(c).splitlines()


def test_parse_emit_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        c = random_text_circuit(rng)
        assert parse(emit(c)) == c


def test_prep_round_trip_keeps_exact_floats():
    text = "qubits 2\nprep 1 0.6 0.0 0.0 -0.8\ncnot 0 1\nmeasure 1\n"
    c = parse(text)
    assert c.prep[1] == (0.6 + 0j, -0.8j)
    assert c.prep[0] == (1.0 + 0j, 0j)
    assert parse(emit(c)) == c


def test_classify_examples():
    assert classify(parse("qubits 2\nh 0\ncnot 0 1")) is CircuitClass.CLIFFORD_ONLY
    assert classify(parse("qubits 3\nh 0\nh 1\ntoffoli 0 1 2")) is CircuitClass.HT_FORM
    c = parse("qubits 2\nprep 0 0.6 0.0 0.8 0.0\ncnot 0 1\nzrot 1 1 8")
    assert classify(c) is CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL


def test_classify_order_sensitivity():
    # A Toffoli before an H breaks the Hadamard-prefix shape.
    bad = parse("qubits 3\ntoffoli 0 1 2\nh 0")
    assert classify(bad) is CircuitClass.ORACLE_ONLY
    # Without the H it is a (deterministic) HT circuit.
    ok = parse("qubits 3\ntoffoli 0 1 2")
    assert classify(ok) is CircuitClass.HT_FORM
    # Diagonal gates break HT but keep product-front eligibility.
    diag = parse("qubits 3\ntoffoli 0 1 2\np 0")
    assert classify(diag) is CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL


def test_classify_prep_blocks_clifford():
    c = parse("qubits 1\nprep 0 0.6 0.0 0.8 0.0\nh 0")
    assert classify(c) is CircuitClass.ORACLE_ONLY


def test_gate_is_a_checked_named_tuple():
    g = Gate(GateKind.CZROT, (0, 2), (1, 4))
    assert Gate(kind=GateKind.CZROT, qubits=(0, 2), angle=(1, 4)) == g
    assert g == (GateKind.CZROT, (0, 2), (1, 4)) and hash(g) == hash(tuple(g))
    kind, qubits, angle = g
    assert (kind, qubits, angle) == (g.kind, g.qubits, g.angle)
    assert Gate._fields == ("kind", "qubits", "angle")
    assert Gate(GateKind.H, [0]).angle is None
    # numpy integers become Python ints: the simulators shift by them.
    h = Gate(GateKind.CNOT, np.array([3, 1]))
    assert h.qubits == (3, 1) and all(type(q) is int for q in h.qubits)
    for x in (g, h):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and type(back) is Gate
    with pytest.raises(AttributeError):
        g.kind = GateKind.CZ


@pytest.mark.parametrize("args, kwargs, message", [
    ((GateKind.H, (0, 1)), {}, "h takes 1 qubit(s), got 2"),
    ((GateKind.TOFFOLI,), {"qubits": (0, 1)}, "toffoli takes 3 qubit(s), got 2"),
    ((GateKind.CNOT, (1, 1)), {}, "duplicate qubit in cnot gate"),
    ((GateKind.ZROT, (0,)), {}, "angle mismatch for zrot"),
    ((GateKind.H,), {"qubits": (0,), "angle": (1, 2)}, "angle mismatch for h"),
    ((GateKind.CZROT, (0, 1), (1, 0)), {}, "angle denominator must be positive"),
    ((), {"kind": GateKind.ZROT, "qubits": (0,), "angle": (1, -4)},
     "angle denominator must be positive"),
])
def test_gate_refusals_keep_their_messages(args, kwargs, message):
    with pytest.raises(ValueError) as exc:
        Gate(*args, **kwargs)
    assert str(exc.value) == message


def test_gate_validation():
    with pytest.raises(ValueError):
        gate(GateKind.CNOT, 1, 1)
    with pytest.raises(ValueError):
        gate(GateKind.H, 0, 1)
    with pytest.raises(ValueError):
        gate(GateKind.ZROT, 0)  # missing angle
    with pytest.raises(ValueError):
        gate(GateKind.ZROT, 0, angle=(1, 0))


@pytest.mark.parametrize("kind, qubits, angle, error", [
    (GateKind.ZROT, (0,), (1.5, 2), TypeError),
    (GateKind.ZROT, (0,), (1, 2.0), TypeError),
    (GateKind.ZROT, (0,), ("1", 2), TypeError),
    (GateKind.ZROT, (0,), 5, TypeError),
    (GateKind.CZROT, (0, 1), (1, 2, 3), ValueError),
    (GateKind.ZROT, (0,), (1,), ValueError),
    (GateKind.ZROT, (0,), (), ValueError),
    (GateKind.CZROT, (0, 1), (1, 0), ValueError),
    (GateKind.ZROT, (0,), (3, -1), ValueError),
])
def test_gate_refuses_malformed_angles(kind, qubits, angle, error):
    # Before, each of these was stored as given: emit then wrote text
    # that parse refused, or read back as another angle.
    with pytest.raises(error):
        Gate(kind, qubits, angle)


@pytest.mark.parametrize("angle, want", [
    ((True, 2), (1, 2)),
    ([1, 4], (1, 4)),
    ((np.int64(-3), np.uint8(8)), (-3, 8)),
    (np.array([5, 16]), (5, 16)),
    ((2 ** 70, 3), (2 ** 70, 3)),
])
def test_gate_angles_are_python_int_pairs_that_round_trip(angle, want):
    for kind, qubits in ((GateKind.ZROT, (1,)), (GateKind.CZROT, (2, 0))):
        g = Gate(kind, qubits, angle)
        assert g.angle == want and type(g.angle) is tuple
        assert all(type(v) is int for v in g.angle)
        assert hash(g) == hash(Gate(kind, qubits, want))
        c = Circuit(3, (g,), None, (0, 1, 2))
        assert parse(emit(c)) == c
        assert run_statevector(c).shape == (8,)


@pytest.mark.parametrize("args, message", [
    ((0,), "circuit must have at least one qubit"),
    ((2, (gate(GateKind.H, 2),)), "qubit index 2 out of range"),
    ((2, (), ((1, 0),)), "prep must give one amplitude pair per qubit"),
])
def test_circuit_refuses_malformed_input(args, message):
    with pytest.raises(ValueError) as exc:
        Circuit(*args)
    assert str(exc.value) == message


def test_circuit_measured_qubits_are_integers():
    # The sampler indexes its rows with them: a float or a bool once
    # passed the check and failed there with a numpy IndexError.
    from affstab.nearclifford import ht_sample_batch
    gates = (gate(GateKind.H, 0), gate(GateKind.CNOT, 0, 1))
    with pytest.raises(TypeError):
        Circuit(2, gates, None, (1.0,))
    want = ht_sample_batch(Circuit(2, gates, None, (1,)), 50, np.random.default_rng(4))
    for q in (np.int64(1), True):
        c = Circuit(2, gates, None, (q,))
        assert c.measured == (1,) and type(c.measured[0]) is int
        assert np.array_equal(ht_sample_batch(c, 50, np.random.default_rng(4)), want)


def test_circuit_rejects_unnormalized_prep():
    for pair in ((1, 1), (complex(float("nan")), 0), (1e200, 0)):
        with pytest.raises(ValueError, match="normalized"):
            Circuit(1, (), (pair,))


def test_basic_clifford_gates_expansion():
    gs = list(basic_clifford_gates([gate(GateKind.PDG, 0),
                                    gate(GateKind.SWAP, 0, 1)]))
    assert [g.kind for g in gs] == [GateKind.P] * 3 + [GateKind.CNOT] * 3
