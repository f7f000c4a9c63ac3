"""Seeded closed-loop benchmark of affstab.

    python3 bench/run.py --workload clifford-deep --seed 1 --seconds 20 --trace 0

One client in one process issues each operation only after the
previous one returned.  Operations call ``affstab.cli.run_command``
in-process with ``StringIO`` streams (plus ``measure.strong_prob`` for
the readout queries) on circuit files generated from ``--seed`` during
set-up.  Every output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics, with latencies rescaled to
a reference host speed (bench/hostspeed.py); ``--trace 1`` runs a fixed
list of operations untraced (repeated for half of ``--seconds``), then
once under outside wrappers (bench/tracer.py), and prints the per-layer
metrics.  The last line of
stdout is the result object; the line before it is a report with the
run's metadata.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere, before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_PASSES = 1


def _import_package():
    """Import the package from this checkout's src/ and time it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    start = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import affstab
        import hostspeed
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import affstab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    seconds = time.perf_counter() - start
    if Path(affstab.__file__).resolve().parent != (ROOT / "src" / "affstab").resolve():
        print(f"bench: affstab imported from {affstab.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)
    return affstab, hostspeed, workloads, seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; with fewer than 20 samples, the upper
    median, which has fewer beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n >= 2 * TAIL_BEYOND else (n - 1) // 2
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Ledger:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict = {}

    def record(self, op, ok: bool, texts: list[str], why: str = "") -> None:
        self.attempted += 1
        digest = self.hashes.setdefault(op.label, hashlib.sha256())
        for text in texts:
            digest.update(hashlib.sha256(text.encode()).digest())
        if not ok:
            self.fail(f"{op.label}: {why or 'output check failed'}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message[:300])


def run_checked(wl, op, ledger: Ledger, tracer=None, corrupt=None, speed=None):
    """Execute one operation (timed), probe the host speed if asked, then
    check the operation's output (untimed)."""
    if tracer is not None:
        tracer.on = True
    try:
        seconds, status, texts, error = wl.execute(op)
    finally:
        if tracer is not None:
            tracer.on = False
    if speed is not None:
        speed.probe()
    if corrupt is not None:
        texts = corrupt(op, texts)
    if status != 0:
        ok, why = False, f"exit {status}: {error.strip()}"
    else:
        try:
            ok, why = bool(op.check(texts)), ""
        except Exception as exc:  # a check that cannot run is a failed check
            ok, why = False, f"check raised {type(exc).__name__}: {exc}"
    ledger.record(op, ok, texts, why)
    return seconds, texts


def setup(wl, ledger: Ledger, speed) -> tuple[list[float], float]:
    """Generate the inputs and run the canaries, several times; returns
    each repeat's seconds and the median interp kernel time of set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = time.perf_counter()
        wl.setup()
        for op in wl.canaries:
            run_checked(wl, op, ledger)
        times.append(time.perf_counter() - start)
        speed.probe()
    return times, statistics.median(speed.samples["interp"])


def measure_loop(wl, seconds: float, ledger: Ledger, speed,
                 corrupt=None) -> tuple[list, dict]:
    """Cycle over the workload's inputs until ``seconds`` of operation time
    are spent and every input has run at least MIN_PASSES times; returns
    (operation, seconds, kernel times around it) per operation."""
    timed, measured, i = [], 0.0, 0
    while measured < seconds or i < MIN_PASSES * wl.cycle:
        op = wl.op(i)
        dt, _ = run_checked(wl, op, ledger, corrupt=corrupt, speed=speed)
        timed.append((op, dt, speed.around))
        measured += dt
        i += 1
    return timed, {"measured_s": measured, "passes": i / wl.cycle}


def end_to_end(wl, timed: list, setups: tuple, speed, import_s: float) -> tuple[dict, dict]:
    """The bounded metrics, rescaled to the reference host speed
    (hostspeed.py); the raw figures go to the report."""
    at_ref = speed.rescale
    metrics, detail = {}, {"host_speed": speed.summary()}
    per_key: dict[str, list[float]] = {}
    work_of, queries_of = {}, {}
    for slot in ("op1", "op2"):
        kernel = wl.kernels.get(slot, "interp")
        raw = [dt for op, dt, _ in timed if op.slot == slot]
        ref = [at_ref(dt, around, kernel) for op, dt, around in timed if op.slot == slot]
        value, pct, beyond = tail(ref)
        metrics[f"{slot}_ref_s.p50"] = (statistics.median(ref), "s")
        metrics[f"{slot}_ref_s.tail"] = (value, "s")
        raw_tail = tail(raw)[0]
        detail[slot] = {"what": wl.slots[slot], "kernel": kernel, "samples": len(raw),
                        "tail_percentile": round(pct, 2), "tail_beyond": beyond,
                        "p50_s": statistics.median(raw), "mean_s": statistics.fmean(raw),
                        "tail_s": raw_tail, "best_s": min(raw),
                        "latencies_s": raw}
    for op, dt, around in timed:
        per_key.setdefault(op.key, []).append(
            at_ref(dt, around, wl.kernels.get(op.slot, "interp")))
        work_of[op.key], queries_of[op.key] = op.work, op.queries
    key_p50 = {k: statistics.median(v) for k, v in per_key.items()}
    worked = [k for k in key_p50 if work_of[k]]
    metrics["work_per_s"] = (sum(work_of[k] for k in worked)
                             / sum(key_p50[k] for k in worked), "1/s")
    asked = [k for k in key_p50 if queries_of[k]]
    if asked:
        detail["probs_per_s"] = (sum(queries_of[k] for k in asked)
                                 / sum(key_p50[k] for k in asked))
    raw_work = sum(op.work for op, _, _ in timed)
    raw_seconds = sum(dt for op, dt, _ in timed if op.work)
    detail["work"] = {"unit": wl.work_unit, "total": raw_work, "seconds": raw_seconds,
                      "per_wall_s": raw_work / raw_seconds}
    # Set-up (import, generation, file writing, canaries) is mostly
    # interpreter-bound; one operation of about 0.3 s is too few for a
    # per-operation ratio, so it is rescaled by the median kernel time of
    # the whole set-up phase.
    times, kernel = setups
    raw = import_s + statistics.median(times)
    metrics["setup_s"] = (at_ref(raw, {"interp": kernel}, "interp"), "s")
    detail["setup"] = {"import_s": import_s, "repeats_s": times, "interp_kernel_s": kernel,
                       "raw_s": raw}
    return metrics, detail


def traced_run(wl, seconds: float, ledger: Ledger, affstab) -> tuple[dict, dict]:
    import tracer as tracing

    ops = wl.pass_ops()
    first_texts, untraced = [], []
    while not untraced or sum(untraced) < seconds / 2:
        total = 0.0
        for op in ops:
            dt, texts = run_checked(wl, op, ledger)
            total += dt
            if len(first_texts) < len(ops):
                first_texts.append(texts)
        untraced.append(total)

    tr = tracing.Tracer(affstab)
    traced = 0.0
    with tr:
        for op, before in zip(ops, first_texts):
            dt, texts = run_checked(wl, op, ledger, tracer=tr)
            traced += dt
            if texts != before:
                ledger.fail(f"{op.label}: output changed under tracing")
    tr.write(wl.workdir / "spans.npz")
    problems = cross_check(wl, ops, tr)
    for msg in problems:
        ledger.fail("trace: " + msg)
    return layer_metrics(tr, traced, statistics.median(untraced)), {
        "spans": len(tr.fid), "untraced_pass_s": untraced, "traced_pass_s": traced,
        "ops_per_pass": len(ops), "trace_problems": problems}


def cross_check(wl, ops, tr) -> list[str]:
    """Span counts against counts derived from the generated inputs."""
    from workloads import h_count

    fn = tr.per_function()
    problems = []
    runs = [p for op in ops for p in op.runs]
    want_h = sum(h_count(wl.circuits[p]) for p in runs)
    if fn["affine.apply_h"][0] != want_h:
        problems.append(f"affine.apply_h.calls {fn['affine.apply_h'][0]} != {want_h} H gates")
    if len(tr.clifford_runs) != len(runs):
        problems.append(f"{len(tr.clifford_runs)} run_clifford spans for {len(runs)} runs")
    for (h_calls, net, m), path in zip(tr.clifford_runs, runs):
        if net != m or m != wl.ref(path).m or h_calls != h_count(wl.circuits[path]):
            problems.append(f"{path}: h_grow-h_shrink {net}, final m {m}, "
                            f"expected m {wl.ref(path).m}")
    want_cli = sum(len(op.argvs) for op in ops)
    if fn["cli.run_command"][0] != want_cli:
        problems.append(f"cli.run_command.calls {fn['cli.run_command'][0]} "
                        f"!= {want_cli} CLI calls issued")
    want_q = sum(op.queries for op in ops)
    if fn["measure.strong_prob"][0] != want_q:
        problems.append(f"measure.strong_prob.calls {fn['measure.strong_prob'][0]} "
                        f"!= {want_q} queries issued")
    return problems


def layer_metrics(tr, traced: float, untraced: float) -> dict:
    from tracer import LAYERS

    fn = tr.per_function()

    def self_s(name):
        return fn[name][1]

    def calls(name):
        return fn[name][0]

    module_self = {mod: sum(s for name, (_, s) in fn.items() if name.startswith(mod + "."))
                   for mod in LAYERS}
    runs = tr.clifford_runs
    prob_calls = calls("measure.strong_prob")
    m = {
        "gf2.row_echelon.calls": (calls("gf2.row_echelon"), "count"),
        "gf2.row_echelon.self_s": (self_s("gf2.row_echelon"), "s"),
        "gf2.mat_mul.self_s": (self_s("gf2.mat_mul"), "s"),
        "gf2.decompose_invertible.self_s": (self_s("gf2.decompose_invertible"), "s"),
        "gf2.bits.self_s": (self_s("gf2.bits"), "s"),
        "gf2.dot.self_s": (self_s("gf2.dot"), "s"),
        "affine.apply_h.calls": (calls("affine.apply_h"), "count"),
        "affine.apply_h.self_s": (self_s("affine.apply_h"), "s"),
        "affine.apply_phase_family.calls": (calls("affine.apply_phase_family"), "count"),
        "affine.apply_phase_family.self_s": (self_s("affine.apply_phase_family"), "s"),
        "affine.sum_out_var.self_s": (self_s("affine.sum_out_var"), "s"),
        "affine.apply_gate.self_s": (self_s("affine.apply_gate"), "s"),
        "affine.h_grow": (tr.h_cases["grow"], "count"),
        "affine.h_keep": (tr.h_cases["keep"], "count"),
        "affine.h_shrink": (tr.h_cases["shrink"], "count"),
        "affine.m_peak": (tr.m_peak, "count"),
        "affine.m_final_mean": (statistics.fmean(r[2] for r in runs) if runs else 0.0, "count"),
        "measure.strong_prob.calls": (prob_calls, "count"),
        "measure.strong_prob.self_s": (self_s("measure.strong_prob"), "s"),
        "measure.strong_prob.zero_ratio": (tr.prob_zero / prob_calls if prob_calls else 0.0,
                                           "ratio"),
        "measure.weak_sample_many.self_s": (self_s("measure.weak_sample_many"), "s"),
        "measure.shots": (tr.shots, "count"),
        "circuit.parse.self_s": (self_s("circuit.parse"), "s"),
        "circuit.classify.self_s": (self_s("circuit.classify"), "s"),
        "cli.run_command.self_s": (self_s("cli.run_command"), "s"),
        "cli.cmd_sample.self_s": (self_s("cli.cmd_sample"), "s"),
        "cli.bytes_out": (tr.bytes_out, "bytes"),
        "normalform.conjugate_pauli.calls": (calls("normalform.conjugate_pauli"), "count"),
        "normalform.conjugate_pauli.self_s": (self_s("normalform.conjugate_pauli"), "s"),
        "normalform.conjugated_generators.self_s": (
            self_s("normalform.conjugated_generators"), "s"),
        "normalform.synthesize_state_prep.self_s": (
            self_s("normalform.synthesize_state_prep"), "s"),
        "normalform.decompose_operator.self_s": (self_s("normalform.decompose_operator"), "s"),
        "nearclifford.ht_strong_count.self_s": (self_s("nearclifford.ht_strong_count"), "s"),
        "nearclifford.ht_hadamards": (tr.ht_hadamards, "count"),
        "nearclifford.ht_enum_size": (tr.ht_enum, "count"),
        "nearclifford.ht_sample_batch.self_s": (self_s("nearclifford.ht_sample_batch"), "s"),
        "nearclifford.product_front_batch.self_s": (
            self_s("nearclifford.product_front_batch"), "s"),
        "nearclifford.eval_classical_batch.self_s": (
            self_s("nearclifford.eval_classical_batch"), "s"),
    }
    for mod in LAYERS:
        m[f"{mod}.self_s"] = (module_self[mod], "s")
        m[f"{mod}.self_share"] = (module_self[mod] / traced, "ratio")
    m["trace.overhead_ratio"] = (traced / untraced, "ratio")
    m["trace.spans"] = (len(tr.fid), "count")
    return m


def metadata(args, wl, import_s: float) -> dict:
    import numpy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "git_revision": git_revision(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loop": "closed, one client, one process",
        "import_s": import_s,
        **wl.metadata(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (bench/selftest.py)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one sample bit of the first Clifford sample "
                             "(bench/selftest.py)")
    args = parser.parse_args(argv)

    affstab, hostspeed, workloads, import_s = _import_package()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

    ledger = Ledger()
    speed = hostspeed.HostSpeed()
    setups = setup(wl, ledger, speed)
    corrupt = workloads.flip_detectable_bit(wl) if args.inject_fault else None
    named = {}
    if args.trace:
        metrics, detail = traced_run(wl, args.seconds, ledger, affstab)
    else:
        timed, detail = measure_loop(wl, args.seconds, ledger, speed, corrupt)
        metrics, more = end_to_end(wl, timed, setups, speed, import_s)
        detail.update(more)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        named[wl.work_name] = {"value": metrics["work_per_s"][0], "unit": "1/s"}
        for slot, alias in wl.slot_names.items():
            for stat in ("p50", "tail"):
                named[f"{alias}.ref_{stat}"] = {
                    "value": metrics[f"{slot}_ref_s.{stat}"][0], "unit": "s"}
            for stat in ("p50", "mean", "tail", "best"):
                named[f"{alias}.{stat}"] = {"value": detail[slot][f"{stat}_s"], "unit": "s"}
        if "probs_per_s" in detail:
            named["probs_per_s"] = {"value": detail["probs_per_s"], "unit": "1/s"}
    named["failed_ratio"] = {"value": ledger.failed / max(ledger.attempted, 1), "unit": "ratio"}
    report = {
        "metadata": metadata(args, wl, import_s),
        "detail": detail,
        "named": named,
        "failures": ledger.failures,
        "stdout_sha256": {k: h.hexdigest() for k, h in sorted(ledger.hashes.items())},
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"report": report, "result": result},
                                                    indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
