"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as
they complete.  Every tolerance is pinned here, not configurable.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from affstab import (CapacityError, Circuit, GateKind, emit, gate, parse,
                     run_clifford, strong_prob, sum_out_var,
                     synthesize_state_prep, to_statevector)
from affstab import gf2
from affstab.affine import apply_gate, init_zero
from affstab.cli import run_command
from affstab.errors import InvariantError
from affstab.measure import enumerate_support, weak_sample_many
from affstab.nearclifford import (ht_sample_batch, ht_strong_count,
                                  product_front_batch)
from affstab.normalform import decompose_operator
from affstab.statevector import (distribution, equal_up_to_phase,
                                 proportional_as_operators, run_statevector,
                                 total_variation)
from helpers import (all_subsets, histogram, random_clifford_circuit,
                     random_ht_circuit, random_invertible,
                     random_product_front_circuit, random_text_circuit,
                     replay_additions)
from test_affine import (_annihilates, _elimination_instance,
                         _elimination_reference)


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}  ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    """500 random Clifford circuits, n in [1,8], up to 100 core gates."""
    rng = np.random.default_rng(20240)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 9))
        out.append(random_clifford_circuit(rng, n, int(rng.integers(1, 101))))
    return out


def test_criterion_01_representation_soundness(corpus):
    with criterion(1, "affine-form amplitudes match the oracle"):
        start = time.time()
        rng = np.random.default_rng(1)
        for c in corpus:
            state = run_clifford(c)
            fast = to_statevector(state)
            ref = run_statevector(c)
            assert equal_up_to_phase(ref, fast, 1e-9)
            # spot-check the scalar amplitude entry point too
            from affstab import amplitude
            x = rng.integers(0, 2, c.n_qubits, dtype=np.uint8)
            idx = int(x @ (1 << np.arange(c.n_qubits - 1, -1, -1)))
            assert abs(amplitude(state, x) - fast[idx]) < 1e-12
        assert time.time() - start < 60


def test_criterion_02_variable_elimination_case_table():
    with criterion(2, "two-term elimination sum matches brute force"):
        rng = np.random.default_rng(2)
        done = 0
        saw_constraint = saw_phase = 0
        while done < 1000:
            s, dead = _elimination_instance(rng, int(rng.integers(0, 7)))
            if _annihilates(s, dead):
                with pytest.raises(InvariantError):
                    sum_out_var(s, dead)
                continue
            lam = int(s.l.coeffs[dead])
            ref = _elimination_reference(s, dead)
            res = sum_out_var(s, dead)
            assert len(gf2.row_echelon(res.R)[1]) == res.m
            if lam == 1:
                assert res.m == s.m - 1  # dead variable dropped, no constraint
                saw_phase += 1
            else:
                assert res.m in (s.m - 1, s.m - 2)  # constraint may bind
                saw_constraint += 1
            assert equal_up_to_phase(ref / np.linalg.norm(ref),
                                     to_statevector(res), 1e-12)
            done += 1
        assert saw_constraint > 100 and saw_phase > 100


def test_criterion_03_support_dynamics(corpus):
    with criterion(3, "Hadamard steps change m by -1/0/+1 and track support"):
        from affstab.statevector import _apply_gate_tensor
        for c in corpus:
            n = c.n_qubits
            state = init_zero(n)
            tensor = np.zeros(2 ** n, dtype=complex)
            tensor[0] = 1.0
            tensor = tensor.reshape([2] * n)
            for g in c.gates:
                before = state.m
                state = apply_gate(state, g)
                _apply_gate_tensor(tensor, g)
                if g.kind is GateKind.H:
                    assert state.m - before in (-1, 0, 1)
                else:
                    assert state.m == before
                support = int((np.abs(tensor.reshape(-1)) > 1e-9).sum())
                assert support == 2 ** state.m


def test_criterion_04_strong_simulation(corpus):
    with criterion(4, "exact dyadic probabilities match oracle marginals"):
        for c in corpus:
            state = run_clifford(c)
            vec = run_statevector(c)
            for subset in all_subsets(c.n_qubits, 3):
                oracle = distribution(vec, subset)
                for key, p in oracle.items():
                    alpha = [int(ch) for ch in key]
                    dyadic = strong_prob(state, subset, alpha)
                    assert dyadic.zero or dyadic.gamma >= 0
                    assert abs(dyadic.as_float() - p) < 1e-9
                table = enumerate_support(state, subset, cap=4096)
                assert sum((pr.as_fraction() for _, pr in table),
                           Fraction(0)) == 1


def test_criterion_05_weak_simulation():
    with criterion(5, "sampling frequencies match exact probabilities"):
        rng = np.random.default_rng(5)
        shots = 100_000
        for index in range(20):
            n = int(rng.integers(2, 9))
            c = random_clifford_circuit(rng, n, int(rng.integers(5, 80)))
            state = run_clifford(c)
            size = int(rng.integers(1, min(n, 3) + 1))
            subset = [int(q) for q in rng.choice(n, size, replace=False)]
            table = enumerate_support(state, subset, cap=4096)
            expected = {str(o): pr.as_float() for o, pr in table}
            sample_rng = np.random.default_rng(1000 + index)
            observed = histogram(weak_sample_many(state, subset, shots, sample_rng))
            assert set(observed) <= set(expected)
            chi2 = 0.0
            for key, p in expected.items():
                obs = observed.get(key, 0)
                sigma = np.sqrt(shots * p * (1 - p))
                assert abs(obs - shots * p) <= 5 * sigma
                chi2 += (obs - shots * p) ** 2 / (shots * p)
            df = len(expected) - 1
            if df > 0:
                assert chi2 <= scipy.stats.chi2.isf(1e-6, df)


def test_criterion_06_state_preparation_normal_form(corpus):
    with criterion(6, "three-round preparation reproduces every state"):
        for c in corpus:
            state = run_clifford(c)
            nf = synthesize_state_prep(state)
            assert all(g.kind in (GateKind.CNOT, GateKind.X)
                       for g in nf.linear_layer)
            assert all(g.kind in (GateKind.P, GateKind.CZ, GateKind.Z)
                       for g in nf.phase_layer)
            assert len(nf.hadamard_set) == state.m
            replay = run_statevector(nf.to_circuit(c.n_qubits))
            assert equal_up_to_phase(run_statevector(c), replay, 1e-9)
        # the footnote case: states equal, matrices provably not
        hph = parse("qubits 1\nh 0\np 0\nh 0")
        nfc = synthesize_state_prep(run_clifford(hph)).to_circuit(1)
        assert equal_up_to_phase(run_statevector(hph),
                                 run_statevector(nfc), 1e-9)
        assert not proportional_as_operators(hph, nfc, 1e-9)


def test_criterion_07_operator_normal_form():
    with criterion(7, "C factors as M2 H M1 with one Hadamard layer"):
        start = time.time()
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            c = random_clifford_circuit(rng, n, int(rng.integers(0, 61)))
            onf = decompose_operator(c)
            assert all(g.kind is not GateKind.H for g in onf.m1 + onf.m2)
            assert proportional_as_operators(c, onf.to_circuit(n), 1e-9)
        assert time.time() - start < 120


def test_criterion_08_ht_circuits():
    with criterion(8, "HT counting matches oracle; sampling agrees; wall holds"):
        rng = np.random.default_rng(8)
        shots = 100_000
        for index in range(100):
            n = int(rng.integers(3, 14))
            c = random_ht_circuit(rng, n, max_h=12, max_classical=50)
            dist = distribution(run_statevector(c), c.measured)
            counts = {}
            for key, p in dist.items():
                alpha = [int(ch) for ch in key]
                res = ht_strong_count(c, c.measured, alpha)
                counts[key] = res
                assert abs(res.as_float() - p) < 1e-12
            rows = ht_sample_batch(c, shots, np.random.default_rng(2000 + index))
            observed = histogram(rows)
            for key, res in counts.items():
                p = res.as_float()
                sigma = np.sqrt(shots * p * (1 - p))
                assert abs(observed.get(key, 0) - shots * p) <= 5 * sigma
        wide = Circuit(26, tuple(gate(GateKind.H, k) for k in range(26)))
        with pytest.raises(CapacityError):
            ht_strong_count(wide, [0], [0])


def test_criterion_09_product_front_extension():
    with criterion(9, "product-front sampling matches oracle; diagonals inert"):
        rng = np.random.default_rng(9)
        shots = 100_000
        for index in range(100):
            n = int(rng.integers(2, 9))
            c = random_product_front_circuit(rng, n, int(rng.integers(0, 40)))
            oracle = distribution(run_statevector(c), c.measured)
            rows = product_front_batch(c, shots, np.random.default_rng(3000 + index))
            empirical = {key: count / shots
                         for key, count in histogram(rows).items()}
            assert total_variation(empirical, oracle) <= 0.02
            # ten random diagonal rotations anywhere in the gate list
            gates = list(c.gates)
            for _ in range(10):
                pos = int(rng.integers(0, len(gates) + 1))
                angle = (int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
                if rng.random() < 0.5:
                    extra = gate(GateKind.ZROT, int(rng.integers(0, n)),
                                 angle=angle)
                else:
                    a, b = rng.choice(n, 2, replace=False)
                    extra = gate(GateKind.CZROT, int(a), int(b), angle=angle)
                gates.insert(pos, extra)
            dressed = Circuit(n, tuple(gates), c.prep, c.measured)
            oracle2 = distribution(run_statevector(dressed), c.measured)
            assert total_variation(oracle, oracle2) <= 1e-9
            seed = 4000 + index
            a = product_front_batch(c, 2000, np.random.default_rng(seed))
            b = product_front_batch(dressed, 2000, np.random.default_rng(seed))
            assert np.array_equal(a, b)


def test_criterion_10_infrastructure(tmp_path):
    with criterion(10, "round trips, synthesis replay, reproducible CLI"):
        rng = np.random.default_rng(10)
        for _ in range(500):
            c = random_text_circuit(rng)
            assert parse(emit(c)) == c
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            e = random_invertible(rng, n)
            ops = gf2.decompose_invertible(e)
            assert np.array_equal(replay_additions(ops, n), e)
        import io
        path = tmp_path / "ghz.cq"
        path.write_text("qubits 2\nh 0\ncnot 0 1\nmeasure 0\n")
        for argv in (["sample", str(path), "--shots", "64", "--seed", "3",
                      "--qubits", "0", "1"],
                     ["prob", str(path), "--qubits", "0", "--outcome", "0"],
                     ["normalize", str(path)],
                     ["decompose", str(path)],
                     ["verify", str(path)]):
            runs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                status = run_command(argv, out, err)
                runs.append((status, out.getvalue(), err.getvalue()))
            assert runs[0] == runs[1]
            assert runs[0][0] == 0
