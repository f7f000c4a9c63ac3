"""Self-test of the benchmark at tiny size (about half a minute).

    python3 bench/selftest.py

Checks that
  * every workload prints exactly the end-to-end metrics of
    BENCHMARK.json with their units (``--trace 0``) and exactly the
    per-layer metrics (``--trace 1``), with every output check passing;
  * the exact counts of the traced run repeat for a repeated seed;
  * one flipped sample bit is counted as a failed operation and makes
    the run incorrect, instead of passing silently;
  * without the package (only BENCHMARK.json and bench/ present) the
    benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = ("affine.h_grow", "affine.h_keep", "affine.h_shrink", "affine.m_peak",
                "affine.apply_h.calls", "measure.strong_prob.calls",
                "normalform.conjugate_pauli.calls", "nearclifford.ht_enum_size")


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, result, proc = run(wl, trace)
            if result is None:
                expect(False, f"{wl} trace {trace}: no result (stderr: {proc.stderr[-500:]})")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{wl} trace {trace}: result keys")
            expect(got == want, f"{wl} trace {trace}: every {key} metric, with its unit"
                   + ("" if got == want else f" (missing {set(want) - set(got)}, "
                                             f"extra {set(got) - set(want)})"))
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{wl} trace {trace}: all {result['attempted']} operations correct")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{wl}: exact counts repeat for one seed")

    code, result, _ = run("clifford-deep", 0, "--inject-fault")
    expect(result is not None and result["failed"] == 1 and not result["correct"]
           and code != 0, "a flipped sample bit is counted in failed_ratio")

    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, proc = run("clifford-deep", 0, cwd=bare)
    expect(code != 0 and not proc.stdout.strip(),
           "without the package: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
