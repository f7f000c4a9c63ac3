import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from affstab import (AffineForm, Circuit, GateKind, amplitude, apply_gate, apply_h,
                     apply_phase_family, gate, init_zero, parse, run_clifford,
                     sum_out_var, to_statevector)
from affstab import gf2
from affstab.affine import LinForm, QuadForm, _make, _times
from affstab.errors import ClassificationError, InvariantError
from affstab.statevector import equal_up_to_phase, run_statevector
from helpers import BAD_QUERIES, compose_quad, random_clifford_circuit

CLIFFORD_ALL = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.CNOT,
                GateKind.X, GateKind.Z, GateKind.CZ, GateKind.SWAP)

GHZ_TEXT = "qubits 2\nh 0\ncnot 0 1"


def ghz() -> AffineForm:
    return run_clifford(parse(GHZ_TEXT))


def test_init_zero():
    s = init_zero(2)
    assert amplitude(s, [0, 0]) == 1
    for x in ([0, 1], [1, 0], [1, 1]):
        assert amplitude(s, x) == 0
    assert init_zero(1).m == 0
    s5 = init_zero(5)
    assert s5.m == 0 and not s5.t.any()
    with pytest.raises(ValueError):
        init_zero(0)


def test_linform_product_brute_force():
    # q + a*b on the bit rows (``_times``), read back through the q view.
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(0, 6))
        n = max(m, 1)
        r, t = np.eye(n, m, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
        a = LinForm(rng.integers(0, 2, m, dtype=np.uint8), int(rng.integers(0, 2)))
        b = LinForm(rng.integers(0, 2, m, dtype=np.uint8), int(rng.integers(0, 2)))
        q = QuadForm(np.triu(rng.integers(0, 2, (m, m), dtype=np.uint8), 1),
                     rng.integers(0, 2, m, dtype=np.uint8), int(rng.integers(0, 2)))
        sa, sb = AffineForm(n, r, t, a, q), AffineForm(n, r, t, b, q)
        sym, lin, q0 = _times(sa._sym, sa._lin, sa._q0, sa._l, sa._l0, sb._l, sb._l0)
        prod = _make(n, m, sa._rows, sa._t, 0, 0, sym, lin, q0, None).q
        assert np.array_equal(sa.q.cross, q.cross)  # the input rows are unchanged
        for code in range(2 ** m):
            u = np.array([(code >> i) & 1 for i in range(m)], dtype=np.uint8)
            assert prod(u) == (q(u) + a(u) * b(u)) % 2


def test_quadform_compose_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m_old = int(rng.integers(0, 5))
        m_new = int(rng.integers(0, 5))
        q = QuadForm(np.triu(rng.integers(0, 2, (m_old, m_old), dtype=np.uint8), 1),
                     rng.integers(0, 2, m_old, dtype=np.uint8),
                     int(rng.integers(0, 2)))
        k = rng.integers(0, 2, (m_old, m_new), dtype=np.uint8)
        shift = rng.integers(0, 2, m_old, dtype=np.uint8)
        comp = compose_quad(q, k, shift)
        for code in range(2 ** m_new):
            s = np.array([(code >> i) & 1 for i in range(m_new)], dtype=np.uint8)
            assert comp(s) == q((k @ s % 2) ^ shift)


def test_phase_gate_on_bell_pair():
    s = apply_phase_family(ghz(), gate(GateKind.P, 0))
    vec = to_statevector(s)
    want = np.zeros(4, dtype=complex)
    want[0b00], want[0b11] = 1, 1j
    assert equal_up_to_phase(want / np.sqrt(2), vec, 1e-12)


def test_cnot_copies_superposition():
    s = apply_h(init_zero(2), 0)
    s = apply_phase_family(s, gate(GateKind.CNOT, 0, 1))
    assert abs(amplitude(s, [0, 0])) > 0 and abs(amplitude(s, [1, 1])) > 0
    assert amplitude(s, [0, 1]) == 0 and amplitude(s, [1, 0]) == 0


def test_z_on_bell_pair_vs_oracle():
    c = parse("qubits 2\nh 0\ncnot 0 1\nz 1")
    assert equal_up_to_phase(run_statevector(c),
                             to_statevector(run_clifford(c)), 1e-9)


def test_apply_h_cases():
    # fresh parameter
    s = apply_h(init_zero(1), 0)
    assert s.m == 1 and s.R.tolist() == [[1]]
    # involution: second H returns to |0> through the constrained case
    s2 = apply_h(s, 0)
    assert s2.m == 0
    assert amplitude(s2, [1]) == 0 and abs(amplitude(s2, [0])) == 1
    # H on half a Bell pair spreads support to the full square
    s3 = apply_h(ghz(), 0)
    assert s3.m == 2
    want = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert equal_up_to_phase(want, to_statevector(s3), 1e-12)


def test_hph_state():
    c = parse("qubits 1\nh 0\np 0\nh 0")
    s = run_clifford(c)
    assert s.m == 1
    want = np.array([1, -1j]) / np.sqrt(2)
    assert equal_up_to_phase(want, to_statevector(s), 1e-12)
    # amplitude ratio is -i regardless of global phase
    a0, a1 = amplitude(s, [0]), amplitude(s, [1])
    assert abs(a1 / a0 - (-1j)) < 1e-12


def _elimination_instance(rng, m_live):
    """Random pre-state whose ket ignores one parameter."""
    total = m_live + 1
    dead = int(rng.integers(0, total))
    live = [i for i in range(total) if i != dead]
    n = max(m_live, 1)
    r = np.zeros((n, total), dtype=np.uint8)
    for row, col in enumerate(live):
        r[row, col] = 1
    lin = LinForm(rng.integers(0, 2, total, dtype=np.uint8),
                  int(rng.integers(0, 2)))
    quad = QuadForm(np.triu(rng.integers(0, 2, (total, total), dtype=np.uint8), 1),
                    rng.integers(0, 2, total, dtype=np.uint8),
                    int(rng.integers(0, 2)))
    return AffineForm(n, r, np.zeros(n, dtype=np.uint8), lin, quad), dead


def _elimination_reference(s: AffineForm, dead: int) -> np.ndarray:
    """Direct two-term sum over the dead parameter, as a statevector."""
    vec = np.zeros(2 ** s.n, dtype=complex)
    powers = 1 << np.arange(s.n - 1, -1, -1)
    for code in range(2 ** s.m):
        u = np.array([(code >> i) & 1 for i in range(s.m)], dtype=np.uint8)
        ket = (s.R @ u % 2) ^ s.t
        vec[int(ket @ powers)] += (1j ** s.l(u)) * ((-1) ** s.q(u))
    return vec


def _annihilates(s: AffineForm, dead: int) -> bool:
    lam = int(s.l.coeffs[dead])
    g_coeffs = (s.q.cross[dead, :] ^ s.q.cross[:, dead])
    g_coeffs = np.delete(g_coeffs, dead)
    return lam == 0 and not g_coeffs.any() and int(s.q.lin[dead]) == 1


def test_sum_out_var_hh_constraint():
    # two Hadamards: the fresh variable is summed out under a constraint
    s = apply_h(apply_h(init_zero(1), 0), 0)
    assert s.m == 0 and abs(amplitude(s, [0])) == 1


def test_sum_out_var_requires_dead_column():
    s = apply_h(init_zero(1), 0)  # R = [[1]]
    with pytest.raises(InvariantError):
        sum_out_var(s, 0)


def test_sum_out_var_annihilation_asserts():
    lin = LinForm(np.zeros(2, dtype=np.uint8), 0)
    quad = QuadForm(np.zeros((2, 2), dtype=np.uint8),
                    np.array([0, 1], dtype=np.uint8), 0)
    r = np.array([[1, 0]], dtype=np.uint8)
    s = AffineForm(1, r, np.zeros(1, dtype=np.uint8), lin, quad)
    with pytest.raises(InvariantError):
        sum_out_var(s, 1)


def test_sum_out_var_random_brute_force():
    rng = np.random.default_rng(31)
    done = 0
    while done < 300:
        s, dead = _elimination_instance(rng, int(rng.integers(0, 6)))
        if _annihilates(s, dead):
            with pytest.raises(InvariantError):
                sum_out_var(s, dead)
            continue
        ref = _elimination_reference(s, dead)
        res = sum_out_var(s, dead)
        assert len(gf2.row_echelon(res.R)[1]) == res.m
        got = to_statevector(res)
        assert equal_up_to_phase(ref / np.linalg.norm(ref), got, 1e-12)
        done += 1


def test_amplitude_examples():
    s = ghz()
    assert amplitude(s, [0, 1]) == 0
    assert amplitude(s, [1, 1]) == pytest.approx(2 ** -0.5)
    assert s.m == 1


def test_amplitude_refuses_other_than_one_bit_per_qubit():
    # Reduced mod 2, [2, 0] and [0.5, 0] would answer for |00> and
    # [3, 1] for |11>.  The shared bad queries whose outcome is at fault
    # are asked of a state with one qubit per measured qubit.
    cases = [(2, x) for x in ([2, 0], [0.5, 0], [3, 1])]
    cases += [(len(subset), alpha) for subset, alpha in BAD_QUERIES
              if len(alpha) != len(subset) or not {0, 1}.issuperset(alpha)]
    assert len(cases) == 8
    states = {1: run_clifford(parse("qubits 1\nh 0")), 2: ghz()}
    for n, x in cases:
        with pytest.raises(ValueError):
            amplitude(states[n], x)


def test_amplitude_matches_statevector_on_every_basis_state():
    # Forms with a tracked frame, and frameless copies that build one
    # from R; qubit 0 is the most significant bit of the index.
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        s = run_clifford(random_clifford_circuit(rng, n, int(rng.integers(0, 10 * n)),
                                                 kinds=CLIFFORD_ALL))
        vec = to_statevector(s)
        for form in (s, AffineForm(s.n, s.R, s.t, s.l, s.q)):
            for idx in range(2 ** n):
                x = [idx >> (n - 1 - k) & 1 for k in range(n)]
                assert abs(amplitude(form, x) - vec[idx]) <= 1e-12


def _small_form(n=2, r=((1,), (0,)), t=(0, 0), l=(0,), cross=((0,),), lin=(0,)):
    """A two-qubit, one-parameter form; any piece can be replaced."""
    return AffineForm(n, r, t, LinForm(l), QuadForm(cross, lin))


@pytest.mark.parametrize("bad, match", [
    (dict(n=0, r=np.zeros((0, 1)), t=()), "at least one qubit"),
    (dict(r=(1, 0)), "R must"),
    (dict(n=3, t=(0, 0, 0)), "R must"),
    (dict(t=(0, 0, 0)), "t must"),
    (dict(l=(0, 0, 0)), "l.coeffs must"),
    (dict(cross=((0, 0), (0, 0))), "q.cross must"),
    (dict(lin=()), "q.lin must"),
], ids=["no-qubits", "R-not-2d", "R-rows", "t-length", "l-length", "cross-shape",
        "lin-length"])
def test_affine_form_checks_shapes(bad, match):
    _small_form()  # the defaults are consistent
    with pytest.raises(ValueError, match=match):
        _small_form(**bad)


def test_run_clifford_requires_clifford():
    c = parse("qubits 3\nh 0\ntoffoli 0 1 2")
    with pytest.raises(ClassificationError):
        run_clifford(c)


def test_apply_phase_family_rejects_other_kinds():
    with pytest.raises(ValueError):
        apply_phase_family(init_zero(1), gate(GateKind.H, 0))


def test_run_clifford_empty_circuit():
    c = parse("qubits 3\nmeasure 0")
    s = run_clifford(c)
    assert s.m == 0 and amplitude(s, [0, 0, 0]) == 1


def test_run_clifford_accepts_all_clifford_kinds():
    c = parse("qubits 2\nh 0\npdg 0\nswap 0 1\ncz 0 1\nx 0\nz 1\np 1\ncnot 1 0")
    assert equal_up_to_phase(run_statevector(c),
                             to_statevector(run_clifford(c)), 1e-9)


def test_random_circuits_match_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 60)))
        assert equal_up_to_phase(run_statevector(c),
                                 to_statevector(run_clifford(c)), 1e-9)


def test_gate_involutions_at_representation_level():
    rng = np.random.default_rng(13)
    reps = {
        GateKind.P: 4, GateKind.H: 2, GateKind.X: 2, GateKind.Z: 2,
        GateKind.CZ: 2, GateKind.CNOT: 2,
    }
    for kind, times in reps.items():
        for _ in range(20):
            n = int(rng.integers(2, 6))
            c = random_clifford_circuit(rng, n, int(rng.integers(0, 25)))
            s = run_clifford(c)
            qubits = tuple(int(q) for q in rng.choice(
                n, size=2 if kind in (GateKind.CZ, GateKind.CNOT) else 1,
                replace=False))
            stepped = s
            for _ in range(times):
                stepped = apply_gate(stepped, gate(kind, *qubits))
            assert equal_up_to_phase(to_statevector(s),
                                     to_statevector(stepped), 1e-12)


def test_nonzero_amplitudes_have_uniform_modulus_and_quarter_phases():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 40)))
        s = run_clifford(c)
        vec = to_statevector(s)
        nz = vec[np.abs(vec) > 1e-12]
        assert len(nz) == 2 ** s.m
        assert np.allclose(np.abs(nz), 2 ** (-s.m / 2), atol=1e-12)
        rel = nz / nz[0]
        units = np.array([1, 1j, -1, -1j])
        for r in rel:
            assert np.min(np.abs(units - r)) < 1e-12


def test_sum_out_var_raises_under_optimize():
    # The invariant is a typed error, not an assert: it holds under -O.
    code = ("from affstab import apply_h, init_zero, sum_out_var\n"
            "from affstab.errors import InvariantError\n"
            "s = apply_h(init_zero(1), 0)\n"
            "try:\n"
            "    sum_out_var(s, 0)\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_apply_h_rejects_rank_deficient_form():
    # A hand-built form without a frame gets one from R, which must
    # have full column rank.
    r = np.array([[1, 1], [0, 0]], dtype=np.uint8)
    s = AffineForm(2, r, np.zeros(2, dtype=np.uint8), LinForm.zero(2),
                   QuadForm.zero(2))
    with pytest.raises(InvariantError):
        apply_h(s, 0)



RANK_DEFICIENT_RUN = (
    "import numpy as np\n"
    "from affstab import AffineForm, LinForm, QuadForm, affine, parse\n"
    "from affstab.errors import InvariantError\n"
    "def broken(s, g):\n"
    "    # Two equal columns: m = 2, rank 1.\n"
    "    r = np.array([[1, 1], [1, 1], [0, 0]], dtype=np.uint8)\n"
    "    return AffineForm(3, r, np.zeros(3, dtype=np.uint8), LinForm.zero(2),\n"
    "                      QuadForm.zero(2))\n"
    "affine.apply_gate = broken\n"
    "try:\n"
    "    affine.run_clifford(parse('qubits 3\\nx 2\\n'))\n"
    "except InvariantError as exc:\n"
    "    print(exc)\n"
    "try:\n"
    "    affine.amplitude(broken(None, None), [0, 0, 0])\n"
    "except InvariantError as exc:\n"
    "    print(exc)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_run_clifford_rejects_rank_deficient_final_form(flags):
    # The closing rank check, and the rank check of the frame amplitude
    # builds for a hand-built form, are typed errors: they hold under -O.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *flags, "-c", RANK_DEFICIENT_RUN], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == ("update broke full column rank\n"
                           "R does not have full column rank\n"), done.stderr

# sha256 of dump() after run_clifford, frozen from the numpy engine the
# bit rows replaced (seeded circuits of 10n gates of every Clifford kind).
GOLDEN_DUMPS = {
    20: "08cff3a8accc98715d720ee734a97bfde433d13db5dae500dcce12ce00b990c1",
    50: "95278f9f2fd8944e4caeca6626f501c3dde26ddcb01365b339b7adeae5d0949c",
    100: "d9a358f9fd09816a57ca39a387decd39041fcbb667ce4c8ac6143c1ecd3a5f40",
    200: "53a4b5d55077ffda048a726ffa0d1c0232039e62b4e60001344ffc93f0510bd4",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_DUMPS))
def test_dump_matches_golden_hash(n):
    c = random_clifford_circuit(np.random.default_rng([n, 6]), n, 10 * n,
                                kinds=CLIFFORD_ALL)
    dump = run_clifford(c).dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_DUMPS[n]


def test_views_are_read_only():
    # The arrays are built once from the bit rows; writing into them
    # (or replacing them) must fail rather than drift from the rows.
    s = apply_h(ghz(), 1)
    for view in (s.R, s.t, s.frame, s.l.coeffs, s.q.cross, s.q.lin):
        with pytest.raises(ValueError):
            view[0] = 1
    assert s.R is s.R and s.q is s.q
    for name in ("R", "t", "l", "q", "frame"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    assert np.array_equal(gf2.mat_mul(s.frame, s.R), np.eye(2, s.m, dtype=np.uint8))


def test_numpy_indices_match_int_indices():
    # Qubit indices from numpy (past 63, where a numpy shift would wrap)
    # give the same state as Python ints.
    rng = np.random.default_rng(33)
    n = 90
    c = random_clifford_circuit(rng, n, 10 * n, kinds=CLIFFORD_ALL)
    wide = [g for g in c.gates if min(g.qubits) >= 64]
    assert wide
    numpy_gates = tuple(type(g)(g.kind, tuple(np.int64(q) for q in g.qubits))
                        for g in c.gates)
    assert all(type(q) is int for g in numpy_gates for q in g.qubits)
    assert run_clifford(Circuit(n, numpy_gates)).dump() == run_clifford(c).dump()
