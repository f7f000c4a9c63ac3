import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from affstab import CapacityError, Circuit, CircuitClass, Gate, GateKind, classify, emit, parse
from affstab.affine import MAX_CLIFFORD_QUBITS
from affstab.cli import run_command
from helpers import (random_clifford_circuit, random_gate, random_ht_circuit,
                     random_prep, random_product_front_circuit)

GHZ = "qubits 2\nh 0\ncnot 0 1\nmeasure 0\n"
HPH = "qubits 1\nh 0\np 0\nh 0\nmeasure 0\n"
HT = "qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2\n"
PRODUCT = ("qubits 2\nprep 0 0.6 0.0 0.8 0.0\ncnot 0 1\nzrot 1 1 8\n"
           "measure 1\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, out, err)
    return status, out.getvalue(), err.getvalue()


def circuit_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_prob_ghz(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, _ = run(["prob", path, "--qubits", "0", "--outcome", "0"])
    assert status == 0 and out == "2^-1\n"


def test_prob_distribution_listing(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, _ = run(["prob", path, "--qubits", "0", "1"])
    assert status == 0
    assert out == "00 2^-1\n11 2^-1\n"


def test_prob_impossible_outcome(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, _ = run(["prob", path, "--qubits", "0", "1",
                          "--outcome", "01"])
    assert status == 0 and out == "0\n"


def test_prob_ht_fraction(tmp_path):
    path = circuit_file(tmp_path, "ht.cq", HT)
    status, out, _ = run(["prob", path, "--outcome", "1"])
    assert status == 0 and out == "1/4\n"


def test_prob_ht_capacity(tmp_path):
    path = circuit_file(tmp_path, "ht.cq", HT)
    status, _, err = run(["prob", path, "--outcome", "1", "--limit", "1"])
    assert status == 2 and "capacity" in err


def test_prob_ht_limit_stays_on_the_full_hadamard_count(tmp_path):
    # The cone of qubit 4 reads 2 of the 4 Hadamards; the cap is on all 4.
    path = circuit_file(tmp_path, "ht4.cq",
                        "qubits 5\nh 0\nh 1\nh 2\nh 3\ntoffoli 0 1 4\nmeasure 4\n")
    for limit in ("2", "3"):
        status, out, err = run(["prob", path, "--outcome", "1", "--limit", limit])
        assert (status, out) == (2, "") and err == (
            f"capacity exceeded: strong HT simulation needs 2^4 enumerations; limit is 2^{limit}\n")
    assert run(["prob", path, "--outcome", "1", "--limit", "4"]) == (0, "1/4\n", "")


def test_prob_refuses_product_front(tmp_path):
    path = circuit_file(tmp_path, "pf.cq", PRODUCT)
    status, _, err = run(["prob", path, "--outcome", "1"])
    assert status == 1 and "#P" in err


def test_sample_ghz_support(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, _ = run(["sample", path, "--shots", "4", "--seed", "7",
                          "--qubits", "0", "1"])
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 4 and all(line in ("00", "11") for line in lines)


def test_sample_routes_by_class(tmp_path):
    for name, text in (("ht.cq", HT), ("pf.cq", PRODUCT)):
        path = circuit_file(tmp_path, name, text)
        status, out, _ = run(["sample", path, "--shots", "3", "--seed", "1"])
        assert status == 0
        assert [len(line) for line in out.splitlines()] == [1, 1, 1]


def test_sample_rejects_general_circuits(tmp_path):
    # prep followed by H is outside every weak-simulation route
    path = circuit_file(tmp_path, "oracle_only.cq",
                        "qubits 2\nprep 0 0.6 0.0 0.8 0.0\nh 0\n")
    status, _, err = run(["sample", path])
    assert status == 1 and "route" in err


def test_nan_prep_is_bad_input(tmp_path):
    path = circuit_file(tmp_path, "nan.cq", "qubits 1\nprep 0 nan 0 0 0\n")
    status, out, err = run(["sample", path])
    assert status == 1 and out == "" and "line 2" in err


def test_verify_clifford(tmp_path):
    path = circuit_file(tmp_path, "hph.cq", HPH)
    status, out, _ = run(["verify", path])
    assert status == 0
    assert "class: CliffordOnly" in out
    assert "verdict: PASS" in out


def test_verify_ht_and_product(tmp_path):
    for name, text in (("ht.cq", HT), ("pf.cq", PRODUCT)):
        path = circuit_file(tmp_path, name, text)
        status, out, _ = run(["verify", path])
        assert status == 0 and "verdict: PASS" in out


def test_verify_width_capacity(tmp_path):
    text = "qubits 15\nh 0\nmeasure 0\n"
    path = circuit_file(tmp_path, "wide.cq", text)
    status, _, err = run(["verify", path])
    assert status == 2


def test_normalize_output_reparses_and_checks(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, err = run(["normalize", path, "--check"])
    assert status == 0
    reparsed = parse(out)
    assert reparsed.n_qubits == 2
    assert "round 1" in out and "round 2" in out and "round 3" in out
    assert "reproduced" in err


ORACLE_ONLY = "qubits 3\nh 0\ntoffoli 0 1 2\nh 2\nmeasure 2\n"
WIDE_HT = f"qubits {MAX_CLIFFORD_QUBITS + 1}\nh 0\nh 1\ntoffoli 0 1 2\n"


def test_normalize_requires_clifford(tmp_path):
    # Both verbs refuse with exit 1 before any work, whatever the width:
    # the Clifford check comes before the width cap.
    for name, text in [("ht", HT), ("product", PRODUCT), ("oracle", ORACLE_ONLY),
                       ("wide-ht", WIDE_HT)]:
        path = circuit_file(tmp_path, name + ".cq", text)
        for verb in ("normalize", "decompose"):
            want = (1, "", f"{verb} requires a Clifford-only circuit\n")
            assert run([verb, path]) == want, (verb, name)


def test_decompose_sections_and_check(tmp_path):
    path = circuit_file(tmp_path, "hph.cq", HPH)
    status, out, err = run(["decompose", path, "--check"])
    assert status == 0
    assert "# M1" in out and "# H" in out and "# M2" in out
    assert "proportional" in err
    parse(out)  # sections form a valid circuit file


def test_parse_error_exit_code(tmp_path):
    path = circuit_file(tmp_path, "bad.cq", "qubits 2\nfrobnicate 0\n")
    status, _, err = run(["prob", path, "--outcome", "0"])
    assert status == 1 and "line 2" in err


def test_missing_file_exit_code(tmp_path):
    status, _, err = run(["prob", str(tmp_path / "nope.cq"), "--outcome", "0"])
    assert status == 1


def test_byte_identical_reproducibility(tmp_path):
    ghz = circuit_file(tmp_path, "ghz2.cq", GHZ)
    ht = circuit_file(tmp_path, "ht.cq", HT)
    pf = circuit_file(tmp_path, "pf.cq", PRODUCT)
    invocations = [
        ["sample", ghz, "--shots", "32", "--seed", "5", "--qubits", "0", "1"],
        ["sample", ht, "--shots", "32", "--seed", "5"],
        ["sample", pf, "--shots", "32", "--seed", "5"],
        ["prob", ghz, "--qubits", "0", "--outcome", "1"],
        ["normalize", ghz],
        ["decompose", ghz],
        ["verify", ht],
    ]
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first == second, argv


def test_sample_seed_changes_stream(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    argv = ["sample", path, "--shots", "64", "--qubits", "0", "1"]
    _, a, _ = run(argv + ["--seed", "1"])
    _, b, _ = run(argv + ["--seed", "2"])
    assert a != b


def test_normalize_random_circuits_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    for i in range(10):
        n = int(rng.integers(1, 6))
        c = random_clifford_circuit(rng, n, int(rng.integers(0, 30)))
        path = circuit_file(tmp_path, f"c{i}.cq", emit(c))
        status, out, err = run(["normalize", path, "--check"])
        assert status == 0, err
        status, out, err = run(["decompose", path, "--check"])
        assert status == 0, err


def test_prob_limit_above_maximum_is_capacity(tmp_path):
    path = circuit_file(tmp_path, "ht.cq", HT)
    status, out, err = run(["prob", path, "--outcome", "1", "--limit", "26"])
    assert status == 2 and out == "" and "capacity" in err


def test_invariant_error_is_exit_3_without_traceback(tmp_path, monkeypatch):
    from affstab import affine
    from affstab.errors import InvariantError

    def broken(c):
        raise InvariantError("update broke full column rank")

    monkeypatch.setattr(affine, "run_clifford", broken)
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, err = run(["sample", path, "--shots", "4"])
    assert status == 3 and out == ""
    assert err == "internal error: update broke full column rank\n"


def test_singular_ket_map_in_decompose_is_exit_3(tmp_path, monkeypatch):
    # decompose synthesizes CNOTs twice: the state preparation's ket map,
    # then the extracted one, whose singularity is an invariant failure.
    from affstab import gf2
    real, calls = gf2.decompose_rows, []

    def second_call_singular(e):
        calls.append(e)
        if len(calls) == 2:
            raise ValueError("matrix is singular over GF(2)")
        return real(e)

    monkeypatch.setattr(gf2, "decompose_rows", second_call_singular)
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, err = run(["decompose", path])
    assert (status, out, len(calls)) == (3, "", 2)
    assert err == "internal error: extracted ket map must be invertible\n"


def test_sample_out_of_memory_is_capacity(tmp_path):
    # 10^15 shots is past a 47-bit address space, so the first array
    # allocation fails at once and nothing is allocated.
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, err = run(["sample", path, "--shots", str(10 ** 15)])
    assert status == 2 and out == ""
    assert err.startswith("capacity exceeded: ") and "Traceback" not in err


def test_bare_memory_error_names_the_capacity(tmp_path, monkeypatch):
    # A bare MemoryError has an empty message; no real allocation here.
    from affstab import nearclifford

    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(nearclifford, "product_front_batch", out_of_memory)
    path = circuit_file(tmp_path, "pf.cq", PRODUCT)
    assert run(["sample", path]) == (2, "", "capacity exceeded: out of memory\n")


# Widths past the index range: ``nearclifford`` refuses them before
# anything is allocated.
HUGE_HT = f"qubits {10 ** 30}\ntoffoli 0 1 2\nmeasure 2\n"
HUGE_PRODUCT = f"qubits {10 ** 30}\ntoffoli 0 1 2\nzrot 0 1 4\nmeasure 2\n"


def test_width_past_the_index_range_is_capacity(tmp_path):
    runs = [["prob", circuit_file(tmp_path, "ht.cq", HUGE_HT), "--outcome", "0"],
            ["sample", circuit_file(tmp_path, "pf.cq", HUGE_PRODUCT)]]
    for argv in runs:
        status, out, err = run(argv)
        assert (status, out) == (2, ""), err
        assert err.startswith("capacity exceeded: ") and "Traceback" not in err
    code = ("import sys\n"
            "from affstab.cli import run_command\n"
            f"print([run_command(argv) for argv in {runs!r}])\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "[2, 2]\n"
    assert done.stderr.count("capacity exceeded: ") == 2
    assert "Traceback" not in done.stderr


def test_near_clifford_width_past_the_index_range_names_the_width(tmp_path):
    # The product-front input law needs n entries.  The HT routes hold
    # only the cone's qubits, but keep the same width bound, so both
    # families refuse a width no index can reach with one message.
    ht = circuit_file(tmp_path, "ht.cq", f"qubits {10 ** 30}\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2\n")
    pf = circuit_file(tmp_path, "pf.cq", f"qubits {10 ** 30}\nzrot 0 1 4\ntoffoli 0 1 2\nmeasure 2\n")
    want = (f"capacity exceeded: near-Clifford simulation cannot index {10 ** 30} "
            f"qubits; the limit is {sys.maxsize}\n")
    for argv in (["sample", ht], ["prob", ht, "--outcome", "1"], ["sample", pf]):
        assert run(argv) == (2, "", want), argv


def test_prep_line_past_the_index_range_is_capacity(tmp_path):
    # ``parse`` checks the width before it builds the n-tuple of prep
    # pairs, so every verb exits at once instead of running until killed.
    path = circuit_file(tmp_path, "prep.cq",
                        f"qubits {10 ** 30}\nprep 0 1 0 0 0\nzrot 0 1 4\nmeasure 0\n")
    want = (f"capacity exceeded: near-Clifford simulation cannot index {10 ** 30} "
            f"qubits; the limit is {sys.maxsize}\n")
    for argv in (["sample", path], ["prob", path, "--outcome", "1"], ["verify", path],
                 ["normalize", path]):
        assert run(argv) == (2, "", want), argv
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   os.pardir, "src"))
    done = subprocess.run([sys.executable, "-m", "affstab", "sample", path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want)


CLIFFORD_ALL = (GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
                GateKind.CNOT, GateKind.CZ, GateKind.SWAP)


def _three_cnots(line):
    if not line.startswith("swap "):
        return line
    _, a, b = line.split()
    return f"cnot {a} {b}\ncnot {b} {a}\ncnot {a} {b}"


def _with_swaps(rng, n, kinds, prefix=(), prep=None):
    """A circuit text with ``swap`` lines, and its twin with each
    ``swap a b`` written as ``cnot a b``, ``cnot b a``, ``cnot a b``."""
    gates = list(prefix) + [random_gate(rng, n, kinds) for _ in range(8 * n)]
    gates += [Gate(GateKind.SWAP, (0, n - 1)), Gate(GateKind.SWAP, (n - 1, 1))]
    measured = tuple(int(q) for q in rng.permutation(n)[:3])
    text = emit(Circuit(n, tuple(gates), prep, measured))
    return n, text, "\n".join(map(_three_cnots, text.split("\n")))


def test_swap_line_answers_like_its_three_cnots(tmp_path):
    # SWAP stays one gate from ``parse`` on; every verb prints what the
    # three-CNOT expansion printed, on Clifford, HT and product-front files.
    rng = np.random.default_rng(31)
    ht = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP)
    front = (GateKind.X, GateKind.CNOT, GateKind.SWAP, GateKind.CZ, GateKind.ZROT,
             GateKind.PDG)
    files = []
    for n in (3, 6, 9, 24):
        files.append(_with_swaps(rng, n, CLIFFORD_ALL))
        files.append(_with_swaps(rng, n, ht, prefix=[Gate(GateKind.H, (q,))
                                                     for q in range(0, n, 2)]))
        files.append(_with_swaps(rng, n, front, prep=random_prep(rng, n)))
    for i, (n, text, twin) in enumerate(files):
        assert text.count("\nswap ") >= 2 and "swap" not in twin
        a = circuit_file(tmp_path, f"swap{i}.cq", text)
        b = circuit_file(tmp_path, f"cnot{i}.cq", twin)
        tails = [["normalize"], ["decompose"], ["prob"], ["prob", "--outcome", "101"],
                 ["sample", "--shots", "30", "--seed", "2"],
                 ["sample", "--shots", "30", "--seed", "2", "--qubits", "2", "0"]]
        if n <= 9:
            tails += [["verify"], ["normalize", "--check"], ["decompose", "--check"]]
        for tail in tails:
            assert run([tail[0], a, *tail[1:]]) == run([tail[0], b, *tail[1:]]), (i, tail)


def test_ht_sample_past_the_index_range_is_capacity(tmp_path):
    # 10^18 qubits fit the index range, and the HT routes hold nothing
    # per declared qubit, so they print what the 3-qubit twin prints.
    # A batch is shots times max(m, |S|) bits: past the index range it
    # still exits 2 before anything is drawn.
    ht = circuit_file(tmp_path, "ht.cq", f"qubits {10 ** 18}\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2\n")
    narrow = circuit_file(tmp_path, "narrow.cq", HT)
    for tail in (["sample"], ["sample", "--shots", "10"], ["prob", "--outcome", "1"]):
        got = run([tail[0], ht, *tail[1:]])
        assert got[0] == 0 and got == run([tail[0], narrow, *tail[1:]]), (tail, got)
    assert run(["sample", ht, "--shots", str(2 ** 62)]) == (
        2, "", f"capacity exceeded: {2 ** 62} shots of 2 qubits need {2 ** 63} bits; "
               f"the limit is {sys.maxsize}\n")


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 7])
def test_ht_sample_memory_follows_the_cone_not_the_width(tmp_path, n):
    # A Toffoli of two Hadamard qubits onto the last of n qubits.  Only
    # the cone's three qubits are held, by the sampler and by the count,
    # so both runs fit in 64 MB of address space above what the child
    # holds after its imports; packing all n columns as ints, or a list
    # of n ints for the count (80 MB at 10^7), needed more.  The limit
    # is set in the child only.
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to read the child's address space")
    wide = circuit_file(tmp_path, "wide.cq", f"qubits {n}\nh 0\nh 1\ntoffoli 0 1 {n - 1}\n"
                                             f"measure {n - 1}\n")
    narrow = circuit_file(tmp_path, "narrow.cq", HT)
    code = ("import resource, sys\n"
            "from affstab.cli import run_command\n"
            "with open('/proc/self/statm') as fh:\n"
            "    vm = int(fh.read().split()[0]) * resource.getpagesize()\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = vm + (64 << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY"
            " else min(soft, hard), hard))\n"
            f"sys.exit(run_command(['sample', {wide!r}, '--shots', '2', '--seed', '5'])\n"
            f"         or run_command(['prob', {wide!r}, '--outcome', '1']))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    # The same draws (Hadamards on 0 and 1) give the same rows at n = 3,
    # and the same count.
    assert done.stdout == (run(["sample", narrow, "--shots", "2", "--seed", "5"])[1]
                           + run(["prob", narrow, "--outcome", "1"])[1])


def test_sample_batch_past_the_index_range_is_capacity(tmp_path):
    # Every sampler checks its (shots, width) arrays before it draws:
    # numpy refused the Clifford and product-front shapes as bad sizes,
    # which read as bad input (exit 1).  The product-front draws are
    # float64, so 2^60 shots of 4 qubits are past it too.
    files = {"bell.cq": ("qubits 2\nh 0\ncnot 0 1\nmeasure 0 1\n", CircuitClass.CLIFFORD_ONLY),
             "h4.cq": ("qubits 4\nh 0\nh 1\nh 2\nh 3\nmeasure 0 1 2 3\n",
                       CircuitClass.CLIFFORD_ONLY),
             "prep.cq": ("qubits 4\nprep 0 0.6 0 0.8 0\nprep 3 0 0 1 0\ncnot 0 1\nzrot 2 1 4\n"
                         "measure 0 1 2 3\n", CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL),
             "ht.cq": ("qubits 4\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 0 1 2 3\n",
                       CircuitClass.HT_FORM)}
    for name, (text, tag) in files.items():
        assert classify(parse(text)) is tag, name
        path = circuit_file(tmp_path, name, text)
        shot_counts = [10 ** 20, 2 ** 62] + [2 ** 60] * (name == "prep.cq")
        for shots in shot_counts:
            status, out, err = run(["sample", path, "--shots", str(shots)])
            assert (status, out) == (2, ""), (name, shots, err)
            assert err.startswith(f"capacity exceeded: {shots} shots of "), err
    assert run(["sample", circuit_file(tmp_path, "bell.cq", files["bell.cq"][0]),
                "--shots", str(2 ** 62)])[2] == (
        f"capacity exceeded: {2 ** 62} shots of 2 qubits need {2 ** 63} bits; "
        f"the limit is {sys.maxsize}\n")
    # A form with no parameters, sampled on no qubits, still has one
    # row per shot.
    from affstab import affine, measure
    with pytest.raises(CapacityError):
        measure.weak_sample_many(affine.run_clifford(parse("qubits 1\nx 0\n")), [], 10 ** 20,
                                 np.random.default_rng(0))


def test_verify_reduces_angles_past_float_range(tmp_path):
    for name, text in (("zrot.cq", f"qubits 1\nzrot 0 {10 ** 400} 1\n"),
                       ("czrot.cq", f"qubits 2\nczrot 0 1 1 {10 ** 399}\n")):
        status, out, err = run(["verify", circuit_file(tmp_path, name, text)])
        assert (status, err) == (0, ""), err
        assert out.endswith("verdict: PASS\n")


def test_negative_shots_is_bad_input(tmp_path):
    # Refused before the file is read, on every sampling route.
    for name, text in (("ghz2.cq", GHZ), ("ht.cq", HT), ("pf.cq", PRODUCT)):
        path = circuit_file(tmp_path, name, text)
        status, out, err = run(["sample", path, "--shots", "-1"])
        assert (status, out) == (1, ""), name
        assert err == "error: --shots must be at least 0, got -1\n", name


def test_verify_asks_strong_prob_once_per_oracle_outcome(tmp_path, monkeypatch):
    # The benchmark's trace cross-checks measure.strong_prob.calls
    # against this count, through the module attribute its tracer wraps.
    from affstab import measure, statevector
    c = random_clifford_circuit(np.random.default_rng(8), 6, 60)
    c = dataclasses.replace(c, measured=(4, 1, 3, 0))
    path = circuit_file(tmp_path, "clifford.cq", emit(c))
    calls = []
    real = measure.strong_prob

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "strong_prob", counted)
    status, out, _ = run(["verify", path])
    assert status == 0 and "verdict: PASS" in out
    oracle = statevector.distribution(statevector.run_statevector(c), c.measured)
    assert len(calls) == len(oracle) > 1


def test_negative_limit_is_bad_input(tmp_path):
    path = circuit_file(tmp_path, "ht.cq", HT)
    for verb in (["prob", path, "--outcome", "1"], ["verify", path]):
        status, _, err = run(verb + ["--limit", "-1"])
        assert status == 1 and "negative" in err, verb


def test_bad_outcome_is_bad_input_without_line_number(tmp_path):
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    status, out, err = run(["prob", path, "--outcome", "2"])
    assert status == 1 and out == ""
    assert err == "error: --outcome must be 1 bits of 0/1\n"


def test_verify_accepts_limit(tmp_path):
    path = circuit_file(tmp_path, "ht.cq", HT)
    status, out, _ = run(["verify", path, "--limit", "2"])
    assert status == 0 and "verdict: PASS" in out
    status, _, err = run(["verify", path, "--limit", "1"])
    assert status == 2 and "capacity" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    # ``python -m affstab`` from a checkout: the same stdout, stderr and
    # exit code as run_command, for a good and a bad --outcome.
    path = circuit_file(tmp_path, "ghz2.cq", GHZ)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   os.pardir, "src"))
    for argv, want in ((["prob", path, "--qubits", "0", "1", "--outcome", "11"], 0),
                       (["prob", path, "--outcome", "2"], 1)):
        done = subprocess.run([sys.executable, "-m", "affstab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == run(argv)
        assert done.returncode == want


def wide_clifford(tmp_path, n):
    return circuit_file(tmp_path, f"wide{n}.cq", f"qubits {n}\nh 0\ncnot 0 1\n")


def test_clifford_width_just_below_cap(tmp_path):
    path = wide_clifford(tmp_path, MAX_CLIFFORD_QUBITS)
    status, out, _ = run(["sample", path, "--shots", "3", "--qubits", "0", "1"])
    assert status == 0 and len(out.split()) == 3 and set(out.split()) <= {"00", "11"}
    assert run(["prob", path, "--qubits", "1", "--outcome", "1"])[:2] == (0, "2^-1\n")


def test_clifford_width_just_above_cap(tmp_path):
    path = wide_clifford(tmp_path, MAX_CLIFFORD_QUBITS + 1)
    for argv in (["sample", path], ["prob", path], ["normalize", path],
                 ["decompose", path]):
        status, out, err = run(argv)
        assert status == 2 and out == "", argv
        assert err.startswith("capacity exceeded:"), argv


def golden_circuits():
    """One circuit per class, plus a Clifford state with m = 0 and one
    wider than a 64-bit word."""
    rng = np.random.default_rng(88)
    no_h = (GateKind.P, GateKind.CNOT, GateKind.X, GateKind.Z, GateKind.CZ)
    return {
        "clifford": random_clifford_circuit(rng, 12, 120),
        "clifford-m0": random_clifford_circuit(rng, 10, 60, kinds=no_h),
        "clifford-wide": random_clifford_circuit(rng, 90, 900),
        "ht": random_ht_circuit(rng, 10, 8, 60),
        "product-front": random_product_front_circuit(rng, 10, 60),
    }


# sha256 of the argv tails, exit codes and stdout of ``golden_runs``,
# computed on the uint8 sampler and per-outcome support listing that the
# bit-sliced sampler and the ordered listing replaced.
GOLDEN_OUTPUTS = {
    "clifford":
        "223014bc27811157ada7f1bad8dccb304ba3f22d84ffec2918615e1f6fd21b19",
    "clifford-m0":
        "31efebe07843af2ea7f5a59138c1fdcc7bdf582fca9337af84ee74e058ac7275",
    "clifford-wide":
        "2b45897d100b33031d51595abce4b91a1beb69ff9cac05f52625a2e8aa6b4b8a",
    "ht":
        "109e88715b5b0b056c93e9de7de5d9f37803570404590cbb31b42a5f427a25c3",
    "product-front":
        "1521b82f408a46fec811104fde1c39bbb0e9f3ce545a63202c4507d9da69a33f",
}


def golden_runs(path, c):
    everything = [str(q) for q in reversed(range(c.n_qubits))]
    few = [str(q) for q in reversed(range(min(c.n_qubits, 10)))]
    for shots in (0, 1, 63, 64, 65, 1000):
        yield ["sample", path, "--shots", str(shots), "--seed", "5"]
        yield ["sample", path, "--shots", str(shots), "--seed", "5", "--qubits", *everything]
    yield ["prob", path]
    yield ["prob", path, "--qubits", *few]
    for outcome in range(8):
        yield ["prob", path, "--qubits", *few[:3], "--outcome", f"{outcome:03b}"]


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_sample_and_prob_match_golden_hashes(tmp_path, name):
    c = golden_circuits()[name]
    path = circuit_file(tmp_path, f"{name}.cq", emit(c))
    digest = hashlib.sha256()
    for argv in golden_runs(path, c):
        status, out, _ = run(argv)
        digest.update(f"{argv[2:]} {status}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_OUTPUTS[name]


def normal_form_circuits():
    """The golden circuits (the normal forms refuse the HT and
    product-front ones with exit 1, so those two hash alike), plus one
    with PDG and SWAP gates and one whose measure line lists several
    qubits out of order (the normal forms echo it)."""
    rng = np.random.default_rng(89)
    circuits = dict(golden_circuits())
    circuits["clifford-pdg-swap"] = random_clifford_circuit(
        rng, 9, 150, kinds=(GateKind.H, GateKind.P, GateKind.PDG, GateKind.CNOT,
                            GateKind.SWAP, GateKind.CZ, GateKind.X, GateKind.Z))
    measured = random_clifford_circuit(rng, 11, 110)
    circuits["clifford-measured"] = dataclasses.replace(measured, measured=(7, 2, 10, 0))
    return circuits


# sha256 of the argv tails, exit codes and stdout of ``normal_form_runs``,
# computed on the numpy generator stack and eliminations that the
# bit-sliced stack and the int-row eliminations replaced.
GOLDEN_NORMAL_FORMS = {
    "clifford":
        "e34092b2b588f541d993e9b31c4de3028a6699404bd76d19945800d74984a527",
    "clifford-m0":
        "54606f10ecd9fff662fc6f52f89b2a39b42c2f8f3984b9183f3076b8042f2ca7",
    "clifford-measured":
        "aa19694d0bfc69960e9a1454287591d66569d3ac554b3e560e9f40a12445525f",
    "clifford-pdg-swap":
        "13cb0df57bd4b9b19194abbdab87b437600a04f3972c0dd412bd86f5bddb4813",
    "clifford-wide":
        "b96b4d8f0ab4dad1b6c80a3f0553f6ddd99244d632d0652ec359c5bd465c9f1e",
    "ht":
        "a3d7a63987a9e05f445adb237b418193d0d6f4de960d7342b28e1cb4983f4ea1",
    "product-front":
        "a3d7a63987a9e05f445adb237b418193d0d6f4de960d7342b28e1cb4983f4ea1",
}


def normal_form_runs(path, c):
    # --check replays through the oracle, which compares states up to
    # 14 qubits and operators up to 10.
    for verb, oracle_cap in (("normalize", 14), ("decompose", 10)):
        yield [verb, path]
        if c.n_qubits <= oracle_cap:
            yield [verb, path, "--check"]


@pytest.mark.parametrize("name", sorted(GOLDEN_NORMAL_FORMS))
def test_normal_forms_match_golden_hashes(tmp_path, name):
    c = normal_form_circuits()[name]
    path = circuit_file(tmp_path, f"{name}.cq", emit(c))
    digest = hashlib.sha256()
    for argv in normal_form_runs(path, c):
        status, out, _ = run(argv)
        digest.update(f"{argv[2:]} {status}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_NORMAL_FORMS[name]


@pytest.mark.parametrize("verb", ["sample", "prob"])
def test_qubits_option_is_checked_like_a_measure_line(tmp_path, verb):
    # --qubits is checked on its own, with Circuit's messages, and
    # otherwise acts as the file's measure line.
    path = circuit_file(tmp_path, "ghz3.cq", "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\n")
    for qubits, message in ((["1", "1"], "measured qubits must be distinct"),
                            (["3", "3"], "measured qubits must be distinct"),
                            (["0", "3"], "measured qubit 3 out of range"),
                            (["-1"], "measured qubit -1 out of range")):
        assert run([verb, path, "--qubits", *qubits]) == (1, "", f"error: {message}\n")
    measured = circuit_file(tmp_path, "ghz3m.cq",
                            "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\nmeasure 2 0\n")
    for extra in ([], ["--shots", "20", "--seed", "3"] if verb == "sample" else
                  ["--outcome", "11"]):
        want = run([verb, measured, *extra])
        assert want[0] == 0 and want[1]
        assert run([verb, path, "--qubits", "2", "0", *extra]) == want
        assert run([verb, measured, "--qubits", "2", "0", *extra]) == want


def in_process(argv):
    """``run_command`` writing to the process streams, as ``main`` does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(argv)
    return status, out.getvalue(), err.getvalue()


def test_one_parser_answers_like_fresh_processes(tmp_path, monkeypatch):
    # One process reuses one argparse parser; every call, argparse errors
    # and --help included, must print what a fresh process prints.
    monkeypatch.setenv("COLUMNS", "80")
    ghz = circuit_file(tmp_path, "ghz2.cq", GHZ)
    ht = circuit_file(tmp_path, "ht.cq", HT)
    pf = circuit_file(tmp_path, "pf.cq", PRODUCT)
    sequence = [
        ["sample", ghz, "--shots", "5", "--seed", "2", "--qubits", "1", "0"],
        ["sample", ghz, "--shots", "5", "--seed", "2"],
        ["prob", ghz, "--qubits", "0", "1", "--outcome", "11"],
        ["prob", ghz],
        ["prob", ghz, "--outcome", "012"],
        ["sample", ghz, "--bogus"],
        [],
        ["normalize", ghz, "--check"],
        ["decompose", ghz],
        ["normalize", ghz],
        ["verify", ht, "--limit", "2"],
        ["prob", ht, "--outcome", "1"],
        ["sample", pf, "--shots", "3"],
        ["verify", str(tmp_path / "missing.cq")],
        ["prob", "--help"],
        ["prob", ghz, "--qubits", "0", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   os.pardir, "src"))
    for argv in sequence:
        done = subprocess.run([sys.executable, "-m", "affstab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert in_process(argv) == (done.returncode, done.stdout, done.stderr), argv
    assert {status for status, _, _ in map(in_process, sequence)} == {0, 1}


HASH_SEED_SCRIPT = """
import hashlib, io, sys
from affstab.cli import run_command
digest = hashlib.sha256()
for argv in [line.split("\\t") for line in sys.stdin.read().splitlines()]:
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, out, err)
    digest.update(f"{argv} {status}\\n{out.getvalue()}\\n{err.getvalue()}".encode())
print(digest.hexdigest())
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # GateKind hashes by identity, and strings by a per-process seed;
    # no output may depend on either through set or dict order.
    rng = np.random.default_rng(89)
    files = {name: circuit_file(tmp_path, f"{name}.cq", emit(c)) for name, c in (
        ("clifford", random_clifford_circuit(rng, 8, 80)),
        ("ht", random_ht_circuit(rng, 8, 6, 40)),
        ("pf", random_product_front_circuit(rng, 6, 40)))}
    argvs = []
    for name, path in files.items():
        argvs += [["sample", path, "--shots", "50", "--seed", "4"], ["verify", path],
                  ["prob", path], ["prob", path, "--outcome", "1"],
                  ["normalize", path], ["decompose", path, "--check"]]
    script = "\n".join("\t".join(argv) for argv in argvs)
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], input=script,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1
