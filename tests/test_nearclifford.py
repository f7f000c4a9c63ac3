import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affstab import (CapacityError, Circuit, GateKind, gate, parse,
                     run_clifford, strong_prob, weak_sample_many)
from affstab.errors import ClassificationError
from affstab.circuit import ARITY, CLASSICAL_KINDS
from affstab.nearclifford import (ClassicalFunction, _cone, _split_ht, classical_part,
                                  eval_classical_batch, ht_sample_batch,
                                  ht_strong_count, product_front_batch)
from affstab.statevector import distribution, run_statevector, total_variation
from helpers import (BAD_QUERIES, BELL_X, CLASSICAL, DIAGONAL, random_gate,
                     random_ht_circuit, random_prep, random_product_front_circuit,
                     reference_ht_count, reference_ht_sample,
                     reference_product_front_sample)


def test_eval_classical_examples():
    f = ClassicalFunction(3, ())
    xs = np.array([[1, 0, 1]], dtype=np.uint8)
    assert eval_classical_batch(f, xs).tolist() == [[1, 0, 1]]
    f = ClassicalFunction(3, (gate(GateKind.TOFFOLI, 0, 1, 2),))
    xs = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.uint8)
    assert eval_classical_batch(f, xs).tolist() == [[1, 1, 1], [1, 0, 0]]
    assert xs.tolist() == [[1, 1, 0], [1, 0, 0]]  # the input is not touched


def test_eval_classical_invertibility():
    rng = np.random.default_rng(1)
    kinds = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        gates = []
        for _ in range(int(rng.integers(0, 30))):
            kind = kinds[rng.integers(0, 3)]
            arity = {GateKind.X: 1, GateKind.CNOT: 2, GateKind.TOFFOLI: 3}[kind]
            gates.append(gate(kind, *(int(q) for q in
                                      rng.choice(n, arity, replace=False))))
        f = ClassicalFunction(n, tuple(gates))
        inverse = ClassicalFunction(n, tuple(reversed(gates)))
        xs = rng.integers(0, 2, (4, n), dtype=np.uint8)
        back = eval_classical_batch(inverse, eval_classical_batch(f, xs))
        assert np.array_equal(back, xs)


def test_swap_is_a_classical_rule():
    # A hand-built SWAP (parse expands it) must act as its three CNOTs
    # on every classical route.
    assert ClassicalFunction(2, (gate(GateKind.SWAP, 0, 1),)).gates[0].kind is GateKind.SWAP
    swap = (gate(GateKind.SWAP, 1, 2),)
    cnots = (gate(GateKind.CNOT, 1, 2), gate(GateKind.CNOT, 2, 1), gate(GateKind.CNOT, 1, 2))
    head = (gate(GateKind.H, 0), gate(GateKind.H, 3), gate(GateKind.CNOT, 0, 1))
    tail = (gate(GateKind.TOFFOLI, 3, 1, 2), gate(GateKind.X, 0))
    measured = (2, 1, 0)
    prep = ((1.0 + 0j, 0j), (0.6 + 0j, 0.8 + 0j), (0.8 + 0j, 0.6j), (1.0 + 0j, 0j))
    ht = [Circuit(4, head + mid + tail, None, measured) for mid in (swap, cnots)]
    pf = [Circuit(4, head[2:] + mid + tail, prep, measured) for mid in (swap, cnots)]
    for a, b in (ht, pf):
        sampler = ht_sample_batch if a.prep is None else product_front_batch
        assert np.array_equal(sampler(a, 200, np.random.default_rng(6)),
                              sampler(b, 200, np.random.default_rng(6)))
    for k in range(8):
        alpha = [k >> 2 & 1, k >> 1 & 1, k & 1]
        assert ht_strong_count(ht[0], measured, alpha) == ht_strong_count(ht[1], measured, alpha)


def test_classical_function_rejects_non_classical():
    with pytest.raises(ValueError):
        ClassicalFunction(2, (gate(GateKind.H, 0),))
    with pytest.raises(ValueError, match="^qubit 2 out of range$"):
        ClassicalFunction(2, (gate(GateKind.CNOT, 0, 2),))


def test_derived_classical_functions_equal_checked_ones():
    # _split_ht and classical_part build theirs unchecked, from gates the
    # circuit has checked; the public constructor still checks.
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        ht = random_ht_circuit(rng, n, 3, 12)
        f = _split_ht(ht)[1]
        assert f == ClassicalFunction(n, f.gates)
        front = random_product_front_circuit(rng, n, 15)
        f = classical_part(front)
        assert f == ClassicalFunction(
            n, tuple(g for g in front.gates if g.kind in CLASSICAL_KINDS))
        if f.gates:
            with pytest.raises(ValueError, match="out of range"):
                ClassicalFunction(max(f.gates[0].qubits), f.gates)
        with pytest.raises(ValueError, match="not a classical gate: h"):
            ClassicalFunction(n, ht.gates)


def test_ht_sample_and_of_two_fair_bits():
    c = parse("qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2")
    rng = np.random.default_rng(2)
    shots = 100_000
    rows = ht_sample_batch(c, shots, rng)
    ones = int(rows.sum())
    sigma = np.sqrt(shots * 0.25 * 0.75)
    assert abs(ones - shots * 0.25) <= 5 * sigma


def test_ht_sample_deterministic_without_hadamards():
    c = parse("qubits 3\nx 0\ncnot 0 1\nmeasure 0 1 2")
    rng = np.random.default_rng(3)
    rows = ht_sample_batch(c, 50, rng)
    assert (rows == np.array([1, 1, 0])).all()


def test_ht_sample_support_constraint():
    c = parse("qubits 2\nh 0\ncnot 0 1\nmeasure 0 1")
    rng = np.random.default_rng(4)
    for row in ht_sample_batch(c, 200, rng):
        assert tuple(row) in {(0, 0), (1, 1)}


def test_ht_strong_count_examples():
    c = parse("qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2")
    res = ht_strong_count(c, [2], [1])
    assert (res.numerator, res.m) == (1, 2)
    assert res.as_fraction() == Fraction(1, 4)
    # identity classical part: measuring a Hadamard qubit is a fair coin
    m = 5
    c = Circuit(m, tuple(gate(GateKind.H, k) for k in range(m)))
    res = ht_strong_count(c, [0], [0])
    assert (res.numerator, res.m) == (2 ** (m - 1), m)


def test_ht_strong_count_rejects_wide_layers():
    n = 26
    c = Circuit(n, tuple(gate(GateKind.H, k) for k in range(n)))
    with pytest.raises(CapacityError):
        ht_strong_count(c, [0], [0])
    # explicit limit
    with pytest.raises(CapacityError):
        ht_strong_count(parse("qubits 2\nh 0\nh 1\ncnot 0 1"), [0], [0],
                        width_limit=1)
    # the default is also the maximum: a limit can only lower it
    with pytest.raises(CapacityError):
        ht_strong_count(parse("qubits 2\nh 0\ncnot 0 1"), [1], [1],
                        width_limit=25)
    # a negative limit is bad input, not a capacity wall
    with pytest.raises(ValueError):
        ht_strong_count(parse("qubits 2\nh 0\ncnot 0 1"), [1], [1],
                        width_limit=-1)


@pytest.mark.parametrize("subset, alpha", BAD_QUERIES)
def test_ht_strong_count_rejects_bad_queries(subset, alpha):
    # The same queries strong_prob refuses, on the same file.
    with pytest.raises(ValueError):
        ht_strong_count(parse(BELL_X), subset, alpha)


def test_ht_strong_count_checks_query_before_counting(monkeypatch):
    import affstab.nearclifford as nc
    c = parse("qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2")
    # A negative qubit once indexed from the end: qubit 2 here.
    with pytest.raises(ValueError):
        ht_strong_count(c, [-1], [1])

    def no_masks(*args):
        raise AssertionError("mask built before the query was checked")

    monkeypatch.setattr(nc.gf2, "counting_columns", no_masks)
    for subset, alpha in ([2], [1, 0]), ([2, 2], [1, 0]), ([3], [1]), ([2], [2]):
        with pytest.raises(ValueError):
            ht_strong_count(c, subset, alpha)


def test_ht_strong_count_rejects_non_ht():
    with pytest.raises(ClassificationError):
        ht_strong_count(parse("qubits 2\ncnot 0 1\nh 0"), [0], [0])


def test_ht_sample_batch_refuses_prep():
    c = parse("qubits 1\nprep 0 0.6 0.0 0.8 0.0\nx 0")
    with pytest.raises(ClassificationError, match="^HT circuits take the all-zeros input$"):
        ht_sample_batch(c, 1, np.random.default_rng(0))


def test_ht_double_hadamard_prefix_is_exact():
    # H twice on the same qubit in the prefix cancels; the sampler and
    # counter must both honor that.
    c = parse("qubits 2\nh 0\nh 0\ncnot 0 1\nmeasure 1")
    assert ht_strong_count(c, [1], [0]).as_fraction() == 1
    rng = np.random.default_rng(5)
    assert not ht_sample_batch(c, 100, rng).any()


def test_ht_count_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        c = random_ht_circuit(rng, n, max_h=5, max_classical=25)
        dist = distribution(run_statevector(c), c.measured)
        for key, p in dist.items():
            alpha = [int(ch) for ch in key]
            got = ht_strong_count(c, c.measured, alpha).as_float()
            assert abs(got - p) < 1e-12


def test_ht_count_sums_to_full_space():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = random_ht_circuit(rng, n, max_h=6, max_classical=20)
        subset = list(c.measured)
        total = 0
        m = None
        for code in range(2 ** len(subset)):
            alpha = [(code >> i) & 1 for i in range(len(subset))]
            res = ht_strong_count(c, subset, alpha)
            total += res.numerator
            m = res.m
        assert total == 2 ** m


def test_clifford_ht_overlap_agreement():
    # H prefix + CNOT/X only: both strong routes exist and must agree.
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        n_h = int(rng.integers(1, n + 1))
        gates = [gate(GateKind.H, int(q))
                 for q in rng.choice(n, n_h, replace=False)]
        for _ in range(int(rng.integers(0, 20))):
            if rng.random() < 0.3:
                gates.append(gate(GateKind.X, int(rng.integers(0, n))))
            else:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(gate(GateKind.CNOT, int(a), int(b)))
        c = Circuit(n, tuple(gates))
        s = run_clifford(c)
        for q in range(n):
            for bit in (0, 1):
                assert strong_prob(s, [q], [bit]).as_fraction() == \
                    ht_strong_count(c, [q], [bit]).as_fraction()


def test_product_front_biased_copy():
    b2 = 2.0 / 3.0
    a = np.sqrt(1 - b2)
    b = np.sqrt(b2)
    c = Circuit(2, (gate(GateKind.CNOT, 0, 1),),
                ((complex(a), complex(b)), (1.0 + 0j, 0j)), (1,))
    rng = np.random.default_rng(9)
    shots = 100_000
    rows = product_front_batch(c, shots, rng)
    ones = int(rows.sum())
    sigma = np.sqrt(shots * b2 * (1 - b2))
    assert abs(ones - shots * b2) <= 5 * sigma


def test_product_front_default_prep_deterministic():
    c = parse("qubits 4\ntoffoli 0 1 2\ntoffoli 1 2 3\nmeasure 0 1 2 3")
    rng = np.random.default_rng(10)
    assert not product_front_batch(c, 100, rng).any()


def test_product_front_rejects_hadamard():
    with pytest.raises(ClassificationError):
        product_front_batch(parse("qubits 1\nh 0"), 1, np.random.default_rng(0))


def test_product_front_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        c = random_product_front_circuit(rng, n, int(rng.integers(0, 20)))
        rows = product_front_batch(c, 40_000, rng)
        keys, counts = np.unique(
            ["".join(str(int(b)) for b in row) for row in rows],
            return_counts=True)
        empirical = dict(zip(keys, counts / rows.shape[0]))
        oracle = distribution(run_statevector(c), c.measured)
        assert total_variation(empirical, oracle) < 0.03


def test_diagonal_gates_do_not_change_samples():
    rng = np.random.default_rng(12)
    c = random_product_front_circuit(rng, 5, 12)
    with_diag = Circuit(
        c.n_qubits,
        c.gates + (gate(GateKind.ZROT, 0, angle=(3, 7)),
                   gate(GateKind.CZROT, 1, 2, angle=(-1, 3)),
                   gate(GateKind.P, 3)),
        c.prep, c.measured)
    a = product_front_batch(c, 5000, np.random.default_rng(99))
    b = product_front_batch(with_diag, 5000, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_ht_circuit_as_product_front():
    # moving the Hadamards into |+> preps must preserve the distribution
    rng = np.random.default_rng(13)
    c = random_ht_circuit(rng, 5, max_h=4, max_classical=15)
    positions = {g.qubits[0] for g in c.gates if g.kind is GateKind.H}
    classical = tuple(g for g in c.gates if g.kind is not GateKind.H)
    amp = 2 ** -0.5
    prep = tuple((complex(amp), complex(amp)) if q in positions
                 else (1.0 + 0j, 0j) for q in range(c.n_qubits))
    c2 = Circuit(c.n_qubits, classical, prep, c.measured)
    shots = 50_000
    rows = product_front_batch(c2, shots, np.random.default_rng(14))
    keys, counts = np.unique(
        ["".join(str(int(b)) for b in row) for row in rows],
        return_counts=True)
    empirical = dict(zip(keys, counts / shots))
    for code in range(2 ** len(c.measured)):
        alpha = [(code >> i) & 1 for i in range(len(c.measured))]
        key = "".join(str(b) for b in alpha)
        p = ht_strong_count(c, c.measured, alpha).as_float()
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(empirical.get(key, 0.0) - p) <= 5 * sigma + 1e-9


def test_stabilizer_front_drives_classical_suffix():
    prefix = run_clifford(parse("qubits 3\nh 0\ncnot 0 1"))
    suffix = ClassicalFunction(3, (gate(GateKind.TOFFOLI, 0, 1, 2),))
    rng = np.random.default_rng(15)
    rows = eval_classical_batch(suffix, weak_sample_many(prefix, range(3), 50_000,
                                                         rng))[:, [2]]
    # qubit 2 = AND of two perfectly correlated fair bits = fair bit
    ones = int(rows.sum())
    sigma = np.sqrt(50_000 * 0.25)
    assert abs(ones - 25_000) <= 5 * sigma
    # oracle cross-check of the chained construction
    full = parse("qubits 3\nh 0\ncnot 0 1\ntoffoli 0 1 2\nmeasure 2")
    dist = distribution(run_statevector(full), [2])
    assert dist["1"] == pytest.approx(0.5)


def test_classical_part_extraction():
    c = parse("qubits 3\nprep 0 0.6 0.0 0.8 0.0\ncnot 0 1\np 1\nzrot 2 1 3\n"
              "toffoli 0 1 2\nmeasure 2")
    f = classical_part(c)
    assert [g.kind for g in f.gates] == [GateKind.CNOT, GateKind.TOFFOLI]


def test_eval_classical_batch_matches_oracle():
    # Each basis input, prepared with X gates, must run to the basis
    # state the batch evaluator computes for it.
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        f = ClassicalFunction(n, tuple(random_gate(rng, n, CLASSICAL)
                                       for _ in range(25)))
        xs = ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
              ).astype(np.uint8)
        batch = eval_classical_batch(f, xs)
        for row_in, row_out in zip(xs, batch):
            prep = tuple(gate(GateKind.X, int(q)) for q in np.nonzero(row_in)[0])
            vec = run_statevector(Circuit(n, prep + f.gates))
            key = "".join(str(int(b)) for b in row_out)
            assert distribution(vec, range(n))[key] == pytest.approx(1.0)
        # Batches whose shot count is not a whole number of bytes.
        for shots in (0, 1, 7, 9, 63, 65):
            picks = rng.integers(0, 2 ** n, shots)
            out = eval_classical_batch(f, xs[picks])
            assert out.dtype == np.uint8 and out.flags.c_contiguous
            assert np.array_equal(out, batch[picks])


def test_assignment_masks_match_division_formula():
    # HT counting's assignment masks are gf2's counting columns.
    from affstab.gf2 import counting_columns
    for m in range(13):
        full = (1 << (1 << m)) - 1
        cols = counting_columns(m)
        assert len(cols) == m
        for j in range(m):
            block = 1 << (1 << j)
            assert cols[j] == (full // (block + 1)) << (1 << j)


def test_ht_strong_count_at_default_width_is_fast():
    # 24 Hadamards: each mask has 2^24 bits.  x0 x1 x2 lands on qubit 25.
    import time
    gates = [gate(GateKind.H, k) for k in range(24)]
    gates += [gate(GateKind.CNOT, k, k + 1) for k in range(3, 23)]
    gates += [gate(GateKind.TOFFOLI, 0, 1, 24), gate(GateKind.TOFFOLI, 2, 24, 25)]
    # Measuring 25 alone, the cone holds the Hadamards of 0, 1 and 2;
    # with 23 too, the CNOT chain brings in all 24, so the 2^24-bit
    # count runs (x3 + ... + x23 is a fair bit independent of 25).
    for measured, alpha, inside, want in (([25], [1], 3, Fraction(1, 8)),
                                          ([25, 23], [1, 1], 24, Fraction(1, 16))):
        c = Circuit(26, tuple(gates), None, tuple(measured))
        positions, f = _split_ht(c)
        assert sum(q in _cone(f.gates, 26, measured)[1] for q in positions) == inside
        start = time.perf_counter()
        res = ht_strong_count(c, measured, alpha)
        assert time.perf_counter() - start < 10
        assert res.m == 24 and res.as_fraction() == want


HT_KINDS = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP)


@st.composite
def ht_queries(draw):
    """An HT circuit (repeated Hadamards allowed, every classical kind)
    measuring a subset of any size, and an outcome for it."""
    n = draw(st.integers(1, 7))
    gates = [gate(GateKind.H, q) for q in draw(st.lists(st.integers(0, n - 1), max_size=2 * n))]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from([k for k in HT_KINDS if ARITY[k] <= n]))
        gates.append(gate(kind, *draw(st.permutations(range(n)))[:ARITY[kind]]))
    measured = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    alpha = draw(st.lists(st.integers(0, 1), min_size=len(measured), max_size=len(measured)))
    return Circuit(n, tuple(gates), None, tuple(measured)), alpha


def _query(text: str, alpha: list[int]):
    return parse(text), alpha


@settings(max_examples=300, deadline=None)
@given(ht_queries(), st.integers(0, 2 ** 32 - 1))
# The Hadamard of 2 is outside the cone of 1: the count scales by 2.
@example(_query("qubits 3\nh 0\nh 1\nh 2\ncnot 0 1\nmeasure 1", [1]), 0)
# The kept Toffoli's controls carry the Hadamards; 3 stays outside.
@example(_query("qubits 4\nh 0\nh 1\nh 3\ntoffoli 0 1 2\nx 2\nmeasure 2", [0]), 1)
# SWAPs that write the measured qubit as their first and second qubit.
@example(_query("qubits 3\nh 0\nx 0\ncnot 0 1\nswap 2 1\nmeasure 2", [0]), 2)
@example(_query("qubits 3\nh 0\nx 0\ncnot 0 1\nswap 1 2\nmeasure 2", [1]), 2)
# Every qubit measured: no walk; X on a Toffoli control and a swapped complement.
@example(_query("qubits 3\nh 0\nh 1\nx 0\nswap 0 2\ntoffoli 2 1 0\nx 1\ncnot 1 2\n"
                "measure 0 1 2", [1, 0, 1]), 3)
def test_cone_and_complement_bits_match_the_full_pass(query, seed):
    # ht_strong_count and ht_sample_batch run only the cone, with X as a
    # complement bit; the references run every gate on every qubit.
    c, alpha = query
    res = ht_strong_count(c, c.measured, alpha)
    assert res.m == len(_split_ht(c)[0])
    assert res.as_fraction() == reference_ht_count(c, c.measured, alpha)
    got = ht_sample_batch(c, 40, np.random.default_rng(seed))
    want = reference_ht_sample(c, 40, np.random.default_rng(seed))
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def product_fronts(draw):
    """A product-front circuit (a random prep, every classical and
    diagonal kind) measuring a subset of any size."""
    n = draw(st.integers(1, 7))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from([k for k in HT_KINDS + DIAGONAL if ARITY[k] <= n]))
        qubits = draw(st.permutations(range(n)))[:ARITY[kind]]
        angle = (draw(st.integers(-8, 8)), draw(st.integers(1, 8))) if kind in (
            GateKind.ZROT, GateKind.CZROT) else None
        gates.append(gate(kind, *qubits, angle=angle))
    prep = random_prep(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n)
    measured = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return Circuit(n, tuple(gates), prep, tuple(measured))


@settings(max_examples=200, deadline=None)
@given(product_fronts(), st.integers(0, 2 ** 32 - 1))
# Qubit 2's input is outside the cone of 1; the CZ and the rotation on
# cone qubits are dropped.
@example(parse("qubits 3\nprep 0 0.6 0 0.8 0\nprep 2 0.6 0 0 0.8\ncz 0 1\ncnot 0 1\n"
               "zrot 1 1 4\nmeasure 1"), 0)
# SWAPs that write the measured qubit as their first and second qubit.
@example(parse("qubits 3\nprep 0 0.6 0 0.8 0\nx 0\ncnot 0 1\nswap 2 1\nmeasure 2"), 1)
@example(parse("qubits 3\nprep 0 0.6 0 0.8 0\nx 0\ncnot 0 1\nswap 1 2\nmeasure 2"), 1)
# Every qubit measured: no walk; X on a Toffoli control.
@example(parse("qubits 3\nprep 0 0.6 0 0.8 0\nprep 1 0.8 0 0 0.6\nx 0\nswap 0 2\n"
               "toffoli 2 1 0\np 2\nx 1\ncnot 1 2\nmeasure 0 1 2"), 2)
def test_product_front_cone_matches_the_full_pass(c, seed):
    # product_front_batch keeps the full (shots, n) draw but packs and
    # runs only the measured qubits' cone; the reference runs every
    # classical gate on every qubit, shot by shot, from the same draw.
    got = product_front_batch(c, 40, np.random.default_rng(seed))
    want = reference_product_front_sample(c, 40, np.random.default_rng(seed))
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()



def test_import_does_not_load_numpy_random():
    # normalize, decompose and prob draw no random numbers, so the
    # package leaves numpy.random (and what it pulls in) unloaded.
    code = ("import sys, numpy\n"
            "assert 'numpy.random' not in sys.modules\n"
            "import affstab, affstab.cli\n"
            "raise SystemExit('numpy.random' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
