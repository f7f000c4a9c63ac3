"""Seeded inputs, operations and output checks of the three workloads.

Every input is generated from the run's seed and written as a circuit
file during set-up; the program sees only those files and argv (plus,
for the ``strong_prob`` queries of ``readout``, a state it built from
one of them).  Each operation carries its own output check, which runs
outside the timed region.  The checks use their own GF(2) and
classical-gate code wherever that is cheap, so a broken layer in the
package cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from affstab import affine, cli, measure, statevector
from affstab.circuit import (Circuit, Gate, GateKind, basic_clifford_gates,
                             emit, gate, parse)

CLIFFORD_CORE = (GateKind.H, GateKind.P, GateKind.CNOT,
                 GateKind.X, GateKind.Z, GateKind.CZ)
ONE_QUBIT = {GateKind.H, GateKind.P, GateKind.PDG, GateKind.X, GateKind.Z,
             GateKind.ZROT}
CLASSICAL = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)
DIAGONAL = (GateKind.P, GateKind.PDG, GateKind.Z, GateKind.CZ,
            GateKind.ZROT, GateKind.CZROT)

SIGMAS = 5.0        # tolerance of every frequency check
# Pooled inputs per kind in the fixed list of a traced run (readout: half
# as many cycles); small enough to keep every span in memory.
PASS_INPUTS = 4
HT_CHECK_SHOTS = 20_000
AMPLITUDE_POINTS = 16


@dataclass(frozen=True)
class Sizes:
    """Widths and counts of one benchmark size.

    Circuits have 10n gates, except the clifford-deep ones (deep_depth * n,
    deep enough that m spends most of the circuit near its equilibrium)
    and the readout states (n/2 Hadamards, then read_depth * n gates).
    """

    deep_n: int = 20
    deep_depth: int = 30
    deep_circuits: int = 24
    deep_shots: int = 1000
    read_n: int = 50
    read_depth: int = 2
    read_states: int = 4
    read_ht_n: int = 24
    read_ht_m: int = 20
    read_shots: int = 20_000
    read_queries: int = 96
    read_batches: int = 2
    exact_n: int = 10
    exact_circuits: int = 48
    exact_ht_circuits: int = 3
    exact_ht_n: int = 24
    exact_ht_m: int = 18
    exact_measured: int = 3
    canary_n: int = 8


FULL = Sizes()
# Self-test size: every code path of the full size, in about a second.
TINY = Sizes(deep_n=16, deep_depth=10, deep_circuits=2, deep_shots=200, read_n=12,
             read_states=2, read_ht_n=10, read_ht_m=6, read_shots=2000,
             read_queries=8, read_batches=1, exact_n=8, exact_circuits=2,
             exact_ht_circuits=2, exact_ht_n=10, exact_ht_m=6, canary_n=6)


# ---------------------------------------------------------------------------
# Generators (the distributions of tests/helpers.py, copied so that the
# benchmark does not depend on the test tree)


def random_gate(rng: np.random.Generator, n: int, kinds) -> Gate:
    eligible = [k for k in kinds
                if (1 if k in ONE_QUBIT else (3 if k is GateKind.TOFFOLI else 2)) <= n]
    kind = eligible[rng.integers(0, len(eligible))]
    arity = 1 if kind in ONE_QUBIT else (3 if kind is GateKind.TOFFOLI else 2)
    qubits = rng.choice(n, size=arity, replace=False)
    angle = None
    if kind in (GateKind.ZROT, GateKind.CZROT):
        angle = (int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
    return Gate(kind, tuple(int(q) for q in qubits), angle)


def clifford_circuit(rng, n: int, measured, depth: int = 10) -> Circuit:
    """depth * n gates drawn uniformly from H/P/CNOT/X/Z/CZ."""
    gates = tuple(random_gate(rng, n, CLIFFORD_CORE) for _ in range(depth * n))
    return Circuit(n, gates, None, tuple(measured))


def half_support_circuit(rng, n: int, depth: int) -> Circuit:
    """H on a random half of the qubits, then depth * n gates drawn
    uniformly from P/CNOT/X/Z/CZ: a state with m = n // 2 exactly."""
    hs = [gate(GateKind.H, q) for q in subset(rng, n, n // 2)]
    gates = hs + [random_gate(rng, n, CLIFFORD_CORE[1:]) for _ in range(depth * n)]
    return Circuit(n, tuple(gates), None, tuple(range(n)))


def ht_circuit(rng, n: int, m: int, measured) -> Circuit:
    """m Hadamards on distinct qubits, then 10n classical gates."""
    hs = [gate(GateKind.H, int(q)) for q in rng.choice(n, size=m, replace=False)]
    gates = hs + [random_gate(rng, n, CLASSICAL) for _ in range(10 * n)]
    return Circuit(n, tuple(gates), None, tuple(measured))


def product_front_circuit(rng, n: int, measured) -> Circuit:
    raw = rng.normal(size=(n, 4))
    prep = []
    for re_a, im_a, re_b, im_b in raw:
        a, b = complex(re_a, im_a), complex(re_b, im_b)
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        prep.append((a / norm, b / norm))
    gates = tuple(random_gate(rng, n, CLASSICAL + DIAGONAL) for _ in range(10 * n))
    return Circuit(n, gates, tuple(prep), tuple(measured))


def subset(rng, n: int, k: int) -> tuple[int, ...]:
    return tuple(int(q) for q in rng.choice(n, size=k, replace=False))


def h_count(c: Circuit) -> int:
    return sum(g.kind is GateKind.H for g in basic_clifford_gates(c.gates))


def basic_gate_count(c: Circuit) -> int:
    return sum(1 for _ in basic_clifford_gates(c.gates))


# ---------------------------------------------------------------------------
# Independent GF(2) and classical-gate helpers for the checks


def _rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    r = (np.asarray(a, dtype=np.uint8) & 1).copy()
    pivots, row = [], 0
    for col in range(r.shape[1]):
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        p = row + int(hits[0])
        r[[row, p]] = r[[p, row]]
        mask = r[:, col].astype(bool)
        mask[row] = False
        r[mask] ^= r[row]
        pivots.append(col)
        row += 1
        if row == r.shape[0]:
            break
    return r, pivots


def parity_checks(r: np.ndarray) -> np.ndarray:
    """Rows h with h R = 0 (mod 2): a basis of the annihilator of col(R)."""
    rt = r.T
    n = rt.shape[1]
    red, pivots = _rref(rt)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=np.uint8)
    for i, fc in enumerate(free):
        out[i, fc] = 1
        for row, pc in enumerate(pivots):
            out[i, pc] = red[row, fc]
    return out


def in_support(rows: np.ndarray, checks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which rows x satisfy x + t in col(R), given R's parity checks."""
    if checks.shape[0] == 0:
        return np.ones(rows.shape[0], dtype=bool)
    # float32 sums of at most n ones are exact; BLAS makes this cheap.
    syn = ((rows ^ t).astype(np.float32) @ checks.T.astype(np.float32)) % 2
    return ~syn.any(axis=1)


def apply_classical(cols: np.ndarray, gates) -> None:
    """X/CNOT/TOFFOLI on a (n, shots) bit array, in place."""
    for g in gates:
        if g.kind is GateKind.X:
            cols[g.qubits[0]] ^= 1
        elif g.kind is GateKind.CNOT:
            c, t = g.qubits
            cols[t] ^= cols[c]
        elif g.kind is GateKind.TOFFOLI:
            c1, c2, t = g.qubits
            cols[t] ^= cols[c1] & cols[c2]


def classical_gates(c: Circuit) -> list[Gate]:
    return [g for g in c.gates
            if g.kind in (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)]


def invert_classical(rows: np.ndarray, gates) -> np.ndarray:
    """Inputs that the (self-inverse) gates map to ``rows``."""
    cols = rows.T.copy()
    apply_classical(cols, list(reversed(gates)))
    return cols.T


def parse_rows(text: str, width: int, shots: int) -> np.ndarray | None:
    """The (shots, width) bit rows of ``sample`` output, or None if malformed."""
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    if raw.size != shots * (width + 1):
        return None
    rows = raw.reshape(shots, width + 1)
    bits = rows[:, :width]
    if (rows[:, width] != 10).any() or ((bits != 48) & (bits != 49)).any():
        return None
    return bits - 48


def frequencies_ok(freq: np.ndarray, p: np.ndarray, shots: int) -> bool:
    sigma = np.sqrt(p * (1.0 - p) / shots)
    return bool(np.all(np.abs(freq - p) <= SIGMAS * sigma + 1e-12))


def sample_support(state, rng, count: int) -> np.ndarray:
    us = rng.integers(0, 2, size=(count, state.m), dtype=np.uint8)
    return ((us.astype(np.int64) @ state.R.T.astype(np.int64)) % 2).astype(np.uint8) ^ state.t


def same_state(ref, other, rng) -> bool:
    """Equal support, and equal amplitudes up to one global phase on
    sampled support points."""
    if other.n != ref.n or other.m != ref.m:
        return False
    checks = parity_checks(ref.R)
    if (checks.astype(np.int64) @ other.R.astype(np.int64) % 2).any():
        return False
    if not in_support(other.t[None, :], checks, ref.t)[0]:
        return False
    points = sample_support(ref, rng, AMPLITUDE_POINTS)
    a = np.array([affine.amplitude(ref, x) for x in points])
    b = np.array([affine.amplitude(other, x) for x in points])
    lam = b[0] / a[0]
    return bool(abs(abs(lam) - 1.0) < 1e-9 and np.all(np.abs(b - lam * a) < 1e-9))


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One closed-loop operation: one or more CLI calls, or a query."""

    slot: str                       # "op1", "op2", "other" (work only) or "canary"
    label: str
    argvs: list[list[str]] = field(default_factory=list)
    query: Callable[[], str] | None = None
    check: Callable[[list[str]], bool] = lambda texts: True
    work: int = 0                   # work units, see Workload.work_unit
    runs: tuple[str, ...] = ()      # circuit files simulated by run_clifford, once each
    queries: int = 0                # strong_prob calls made
    key: str = ""                   # names the input; repeats of one key cost the same


def execute(op: Op) -> tuple[float, int, list[str], str]:
    """Run an operation; returns (seconds, worst exit code, stdouts, error)."""
    outs = [io.StringIO() for _ in op.argvs] or [io.StringIO()]
    err = io.StringIO()
    status, error = 0, ""
    start = time.perf_counter()
    try:
        if op.query is not None:
            outs[0].write(op.query())
        for argv, out in zip(op.argvs, outs):
            # Through the module attribute, so that a traced run sees the call.
            status = max(status, cli.run_command(argv, out, err))
    except Exception as exc:  # an exception is a failed operation, not a crash
        status, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, status, [o.getvalue() for o in outs], error or err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A seeded pool of inputs and the operations cycled over it."""

    name = ""
    slots: dict[str, str] = {}
    work_unit = ""
    slot_names: dict[str, str] = {}  # slot -> per-workload name of its latency
    kernels: dict[str, str] = {}     # slot -> host-speed kernel, if not "interp"
    work_name = ""                   # per-workload name of work_per_s
    execute = staticmethod(execute)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.circuits: dict[str, Circuit] = {}
        self._refs: dict[str, affine.AffineForm] = {}
        self._verdicts: dict[tuple[str, str], bool] = {}

    # set-up ---------------------------------------------------------

    def write(self, name: str, c: Circuit) -> str:
        path = str(self.workdir / f"{name}.cq")
        Path(path).write_text(emit(c), encoding="utf-8")
        self.circuits[path] = c
        return path

    def setup(self) -> None:
        """Generate and write every input; subclasses add their pools."""
        self.circuits.clear()
        self._refs.clear()
        self._verdicts.clear()
        rng = np.random.default_rng([self.seed, 0xC0FFEE])
        self.canaries = self._canaries(rng)

    def ref(self, path: str) -> affine.AffineForm:
        """The program's own state for a Clifford file (computed untimed)."""
        if path not in self._refs:
            self._refs[path] = affine.run_clifford(self.circuits[path])
        return self._refs[path]

    def metadata(self) -> dict:
        return {"sizes": vars(self.sizes), "slots": self.slots,
                "work_unit": self.work_unit}

    # operations -----------------------------------------------------

    @property
    def cycle(self) -> int:
        """Operations before ``op(i)`` repeats its input."""
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def pass_ops(self) -> list[Op]:
        """A fixed list: the first pooled inputs once per slot, then the canaries."""
        raise NotImplementedError

    def verdict(self, key: str, text: str, fn: Callable[[], bool]) -> bool:
        """Memoised check: identical output bytes get the same verdict."""
        k = (key, sha256(text))
        if k not in self._verdicts:
            try:
                self._verdicts[k] = bool(fn())
            except Exception:
                self._verdicts[k] = False
        return self._verdicts[k]

    # shared checks ----------------------------------------------------

    def check_clifford_rows(self, path: str, text: str, shots: int) -> bool:
        state = self.ref(path)
        c = self.circuits[path]
        rows = parse_rows(text, len(c.measured), shots)
        if rows is None or len(c.measured) != c.n_qubits:
            return False
        return bool(in_support(rows, parity_checks(state.R), state.t).all())

    def check_replay(self, path: str, text: str, index: int) -> bool:
        replay = affine.run_clifford(parse(text))
        rng = np.random.default_rng([self.seed, index, 0xA11])
        return same_state(self.ref(path), replay, rng)

    # canaries (n <= 12, checked against the statevector oracle) -------

    def _canaries(self, rng) -> list[Op]:
        n = self.sizes.canary_n
        cl = self.write("canary-clifford", clifford_circuit(rng, n, subset(rng, n, 4)))
        ht = self.write("canary-ht", ht_circuit(rng, n + 2, (n + 2) // 2, subset(rng, n + 2, 3)))
        pf = self.write("canary-pf", product_front_circuit(rng, n, subset(rng, n, 3)))
        oracle = {p: statevector.distribution(
            statevector.run_statevector(self.circuits[p]), self.circuits[p].measured)
            for p in (cl, ht, pf)}

        def passed(texts):
            return "verdict: PASS" in texts[0]

        def in_oracle_support(path):
            def check(texts):
                c = self.circuits[path]
                rows = parse_rows(texts[0], len(c.measured), 256)
                return rows is not None and all(
                    oracle[path]["".join(map(str, r))] > 1e-12 for r in rows)
            return check

        ops = [
            Op("canary", "verify clifford", [["verify", cl]], check=passed,
               runs=(cl,), queries=len(oracle[cl])),
            Op("canary", "normalize --check", [["normalize", cl, "--check"]], runs=(cl,)),
            Op("canary", "decompose --check", [["decompose", cl, "--check"]], runs=(cl,)),
            Op("canary", "verify ht", [["verify", ht]], check=passed),
            Op("canary", "verify product-front", [["verify", pf]], check=passed),
        ]
        for path, runs in ((cl, (cl,)), (ht, ()), (pf, ())):
            ops.append(Op("canary", "sample", [["sample", path, "--shots", "256",
                                                "--seed", str(self.seed)]],
                          check=in_oracle_support(path), runs=runs))
        return ops


class CliffordDeep(Workload):
    """Write path: every verb re-simulates a wide, deep Clifford circuit."""

    name = "clifford-deep"
    slots = {"op1": "sample FILE --shots 1000", "op2": "normalize FILE"}
    work_unit = "basic Clifford gates simulated"
    slot_names = {"op1": "sample_s", "op2": "normalize_s"}
    work_name = "gates_per_s"

    def setup(self) -> None:
        super().setup()
        s = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        self.pool = [self.write(f"deep-{j}", clifford_circuit(rng, s.deep_n, range(s.deep_n),
                                                                 s.deep_depth))
                     for j in range(s.deep_circuits)]
        self.gates = {p: basic_gate_count(self.circuits[p]) for p in self.pool}

    @property
    def cycle(self) -> int:
        return 2 * len(self.pool)

    def op(self, i: int) -> Op:
        j = (i // 2) % len(self.pool)
        path = self.pool[j]
        if i % 2 == 0:
            shots = self.sizes.deep_shots
            return Op("op1", "sample", [["sample", path, "--shots", str(shots),
                                         "--seed", str(self.seed * 100_003 + i)]],
                      check=lambda t: self.check_clifford_rows(path, t[0], shots),
                      work=self.gates[path], runs=(path,), key=f"sample {j}")
        return Op("op2", "normalize", [["normalize", path]], key=f"normalize {j}",
                  check=lambda t: self.verdict(path, t[0], lambda: self.check_replay(path, t[0], i)),
                  work=self.gates[path], runs=(path,))

    def pass_ops(self) -> list[Op]:
        count = min(PASS_INPUTS, len(self.pool))
        return [self.op(i) for i in range(2 * count)] + self.canaries


class Readout(Workload):
    """Read path: many shots and exact queries off already-built forms."""

    name = "readout"
    slots = {"op1": "sample --shots read_shots on a full-width Clifford file; samples of "
                    "an HT and a product-front file follow in turn (their shots count "
                    "in work_per_s, their latency is no metric)",
             "op2": "batch of read_queries strong_prob queries over every built state "
                    "(half sampled, half uniform outcomes); read_batches of them follow "
                    "each sample call"}
    work_unit = "shots emitted"
    slot_names = {"op1": "sample_s", "op2": "query_batch_s"}
    work_name = "shots_per_s"

    def setup(self) -> None:
        super().setup()
        s = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        self.cliffords, self.hts, self.pfs = [], [], []
        for j in range(s.read_states):
            self.cliffords.append(self.write(
                f"read-clifford-{j}", half_support_circuit(rng, s.read_n, s.read_depth)))
            self.hts.append(self.write(
                f"read-ht-{j}", ht_circuit(rng, s.read_ht_n, s.read_ht_m, range(s.read_ht_n))))
            self.pfs.append(self.write(
                f"read-pf-{j}", product_front_circuit(rng, s.read_ht_n, range(s.read_ht_n))))
        # The built states the queries read (part of set-up).
        self.states = [self.ref(p) for p in self.cliffords]
        self.checks = [parity_checks(st.R) for st in self.states]

    def _cycle(self) -> int:
        return 3 * (1 + self.sizes.read_batches)

    @property
    def cycle(self) -> int:
        return self._cycle() * len(self.cliffords)

    def op(self, i: int) -> Op:
        # Query batches sit between the sample calls, so that both kinds
        # are spread over the whole run rather than bunched in time.
        j = (i // self._cycle()) % len(self.cliffords)
        kind, pos = divmod(i % self._cycle(), 1 + self.sizes.read_batches)
        if pos:
            return self._queries(f"{j}.{kind}.{pos}")
        shots = self.sizes.read_shots
        path = (self.cliffords, self.hts, self.pfs)[kind][j]
        argv = [["sample", path, "--shots", str(shots), "--seed", str(self.seed * 100_003 + i)]]
        if kind == 0:
            return Op("op1", "sample", argv, work=shots, runs=(path,), key=f"sample {j}",
                      check=lambda t: self.check_clifford_rows(path, t[0], shots))
        check = self._check_ht_rows if kind == 1 else self._check_pf_rows
        label = f"sample {('ht', 'pf')[kind - 1]}"
        return Op("other", label, argv, work=shots, key=f"{label} {j}",
                  check=lambda t: check(path, t[0], shots))

    def _check_ht_rows(self, path: str, text: str, shots: int) -> bool:
        c = self.circuits[path]
        rows = parse_rows(text, c.n_qubits, shots)
        if rows is None:
            return False
        xs = invert_classical(rows, classical_gates(c))
        hq = [g.qubits[0] for g in c.gates if g.kind is GateKind.H]
        rest = np.setdiff1d(np.arange(c.n_qubits), hq)
        return (not xs[:, rest].any()
                and frequencies_ok(xs[:, hq].mean(axis=0), np.full(len(hq), 0.5), shots))

    def _check_pf_rows(self, path: str, text: str, shots: int) -> bool:
        c = self.circuits[path]
        rows = parse_rows(text, c.n_qubits, shots)
        if rows is None:
            return False
        xs = invert_classical(rows, classical_gates(c))
        p_one = np.array([abs(b) ** 2 for _, b in c.prep])
        return frequencies_ok(xs.mean(axis=0), p_one, shots)

    def _queries(self, batch: str) -> Op:
        """Pairs of (sampled, uniform) outcomes, cycling over every built state."""
        rng = np.random.default_rng([self.seed, 3, *map(int, batch.split("."))])
        qubits = list(range(self.sizes.read_n))
        calls, expected = [], []
        for k in range(self.sizes.read_queries):
            j = (k // 2) % len(self.states)
            state = self.states[j]
            if k % 2 == 0:
                x = sample_support(state, rng, 1)[0]
            else:
                x = rng.integers(0, 2, size=len(qubits), dtype=np.uint8)
            hit = in_support(x[None, :], self.checks[j], state.t)[0]
            calls.append((state, list(map(int, x))))
            expected.append(("1" if state.m == 0 else f"2^-{state.m}") if hit else "0")
        want = "".join(e + "\n" for e in expected)

        def query():
            return "".join(str(measure.strong_prob(st, qubits, a)) + "\n" for st, a in calls)

        return Op("op2", "strong_prob batch", query=query, key=f"queries {batch}",
                  check=lambda t: t[0] == want, queries=len(calls))

    def pass_ops(self) -> list[Op]:
        count = min(PASS_INPUTS // 2, len(self.cliffords))
        return [self.op(i) for i in range(self._cycle() * count)] + self.canaries


class Exact(Workload):
    """The two super-linear exact paths: operator normal form and HT counting."""

    name = "exact"
    slots = {"op1": "decompose FILE", "op2": "prob FILE --outcome BITS on an HT file"}
    work_unit = "exact answers (decompose and prob calls)"
    slot_names = {"op1": "decompose_s", "op2": "ht_prob_s"}
    kernels = {"op2": "bigint"}     # the count is big-integer word operations
    work_name = "answers_per_s"

    def setup(self) -> None:
        super().setup()
        s = self.sizes
        rng = np.random.default_rng([self.seed, 4])
        self.decomp = [self.write(f"exact-clifford-{j}",
                                  clifford_circuit(rng, s.exact_n, range(s.exact_n)))
                       for j in range(s.exact_circuits)]
        self.hts, self.outcomes = [], []
        for j in range(s.exact_ht_circuits):
            c = ht_circuit(rng, s.exact_ht_n, s.exact_ht_m,
                           subset(rng, s.exact_ht_n, s.exact_measured))
            self.hts.append(self.write(f"exact-ht-{j}", c))
            # Outcome of one sampled run, so its probability is nonzero.
            x = np.zeros((c.n_qubits, 1), dtype=np.uint8)
            for g in c.gates:
                if g.kind is GateKind.H:
                    x[g.qubits[0]] = rng.integers(0, 2)
            apply_classical(x, classical_gates(c))
            self.outcomes.append("".join(str(int(x[q, 0])) for q in c.measured))

    @property
    def cycle(self) -> int:
        return 2 * len(self.decomp)

    def op(self, i: int) -> Op:
        j = (i // 2) % len(self.decomp)
        if i % 2 == 0:
            path = self.decomp[j]
            return Op("op1", "decompose", [["decompose", path]], key=f"decompose {j}",
                      check=lambda t: self.verdict(path, t[0],
                                                   lambda: self.check_replay(path, t[0], i)),
                      work=1, runs=(path,))
        j %= len(self.hts)
        path, bits = self.hts[j], self.outcomes[j]
        return Op("op2", "ht prob", [["prob", path, "--outcome", bits]], key=f"ht prob {j}",
                  check=lambda t: self.verdict(path + bits, t[0],
                                               lambda: self._check_count(path, bits, t[0])),
                  work=1)

    def _check_count(self, path: str, bits: str, text: str) -> bool:
        c = self.circuits[path]
        p = Fraction(text.strip())
        m = sum(g.kind is GateKind.H for g in c.gates)
        if not 0 < p <= 1 or (p * 2 ** m).denominator != 1:
            return False
        rng = np.random.default_rng([self.seed, 5])
        xs = np.zeros((c.n_qubits, HT_CHECK_SHOTS), dtype=np.uint8)
        for g in c.gates:
            if g.kind is GateKind.H:
                xs[g.qubits[0]] = rng.integers(0, 2, size=HT_CHECK_SHOTS, dtype=np.uint8)
        apply_classical(xs, classical_gates(c))
        want = np.array([int(b) for b in bits], dtype=np.uint8)
        freq = float(np.all(xs[list(c.measured)].T == want, axis=1).mean())
        return frequencies_ok(np.array([freq]), np.array([float(p)]), HT_CHECK_SHOTS)

    def pass_ops(self) -> list[Op]:
        count = min(PASS_INPUTS, len(self.decomp))
        return [self.op(i) for i in range(2 * count)] + self.canaries


WORKLOADS = {w.name: w for w in (CliffordDeep, Readout, Exact)}


def flip_detectable_bit(wl: Workload):
    """Self-test corrupter: in the first Clifford sample output, flip one
    bit whose flip leaves the state's support."""
    done = []

    def corrupt(op: Op, texts: list[str]) -> list[str]:
        if done or op.label != "sample":
            return texts
        cols = np.nonzero(parity_checks(wl.ref(op.runs[0]).R).any(axis=0))[0]
        if cols.size == 0:
            return texts
        k, text = int(cols[0]), texts[0]
        done.append(op.label)
        return [text[:k] + ("1" if text[k] == "0" else "0") + text[k + 1:]] + texts[1:]

    return corrupt
