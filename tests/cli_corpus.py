"""The CLI contract as a record corpus: seeded circuit files, the verbs
run on them, and one record per call.

A record is the file, the argv after the file, the exit code, the
sha256 of stdout and stderr in full, taken in-process through
``run_command``.  ``cli_corpus.json`` holds the records, the sha256 of
each file's text and the numpy version they were taken with: ``sample``
rows follow numpy's ``Generator`` stream and ``verify`` prints float
digits, so a different numpy can move records without a code change.
``tests/test_cli_corpus.py`` replays the records and names every one
that moved.

The files are written by this module's own seeded generator (it imports
nothing from the package): Clifford files with all eight Clifford kinds
(``pdg`` and ``swap`` in the text, repeated lines, comments and upper
case), HT files, product-front files, and hand-written files for the
error paths.  An intended change to the CLI output regenerates the
corpus, and its change log lists the records that moved:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("cli_corpus.json")
SEED = 2024

ARITY = {"h": 1, "p": 1, "pdg": 1, "x": 1, "z": 1, "zrot": 1,
         "cnot": 2, "cz": 2, "swap": 2, "czrot": 2, "toffoli": 3}
CLIFFORD = ("h", "p", "pdg", "x", "z", "cnot", "cz", "swap")
CLASSICAL = ("x", "cnot", "swap", "toffoli")
DIAGONAL = ("p", "pdg", "z", "cz", "zrot", "czrot")

# Hand-written files: every parse error the format names, bad measure
# lines, widths past the index range that exit at once, angles past
# float range and past 2^53, and upper-case and interned lines.
HUGE = 10 ** 30
HANDWRITTEN = {
    "err-unknown.cq": "qubits 2\nfrob 0\n",
    "err-arity.cq": "qubits 2\nh 0 1\n",
    "err-range.cq": "qubits 2\nh 5\n",
    "err-header.cq": "h 0\n",
    "err-after-measure.cq": "qubits 2\nmeasure 0\nh 1\n",
    "err-prep-late.cq": "qubits 2\nh 0\nprep 1 1 0 0 0\n",
    "err-prep-twice.cq": "qubits 2\nprep 0 1 0 0 0\nprep 0 1 0 0 0\n",
    "err-prep-norm.cq": "qubits 2\nprep 0 1 0 1 0\n",
    "err-prep-nan.cq": "qubits 1\nprep 0 nan 0 0 0\n",
    "err-prep-huge.cq": "qubits 1\nprep 0 1e200 0 0 0\n",
    "err-denominator.cq": "qubits 2\nzrot 0 1 0\n",
    "err-measure-twice.cq": "qubits 2\nmeasure 0 0\n",
    "err-measure-range.cq": "qubits 2\nmeasure 0 5\n",
    "err-measure-negative.cq": "qubits 2\nmeasure -1\n",
    "err-measure-empty.cq": "qubits 1\nmeasure\n",
    "err-qubits-zero.cq": "qubits 0\n",
    "err-qubits-args.cq": "qubits 2 3\n",
    "err-integer.cq": "qubits 2\nh x\n",
    "err-prep-args.cq": "qubits 1\nprep 0 1 0 0\n",
    "err-prep-float.cq": "qubits 1\nprep 0 a 0 0 0\n",
    "err-empty.cq": "# nothing\n\n",
    "err-swap-after-measure.cq": "qubits 2\nswap 0 1\nmeasure 0\nswap 0 1\n",
    "err-upper-prep.cq": "qubits 2\nH 0\nh 0\nprep 1 1 0 0 0\n",
    "err-qubits-twice.cq": "qubits 2\nh 0\nh 0\nqubits 2\n",
    "err-cnot-same.cq": "qubits 2\nCNOT 1 1\n",
    "err-swap-same.cq": "qubits 3\nswap 2 2\n",
    "upper-case.cq": "qubits 3\nH 0\nSWAP 0 2\nPdg 2\nswap 0 2\nCnot 2 1\nSWAP 0 2\n"
                     "measure 2 1 0\n",
    "huge-ht.cq": f"qubits {HUGE}\ntoffoli 0 1 2\nmeasure 2\n",
    "huge-ht-h.cq": f"qubits {HUGE}\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2\n",
    "huge-product.cq": f"qubits {HUGE}\ntoffoli 0 1 2\nzrot 0 1 4\nmeasure 2\n",
    "huge-product-zrot.cq": f"qubits {HUGE}\nzrot 0 1 4\ntoffoli 0 1 2\nmeasure 2\n",
    "huge-prep.cq": f"qubits {HUGE}\nprep 0 1 0 0 0\nzrot 0 1 4\nmeasure 0\n",
    "wide-ht-shots.cq": f"qubits {10 ** 18}\nh 0\nh 1\ntoffoli 0 1 2\nmeasure 2\n",
    "angle-float.cq": f"qubits 1\nzrot 0 {10 ** 400} 1\n",
    "angle-den.cq": f"qubits 2\nprep 0 0.6 0 0.8 0\nczrot 0 1 1 {10 ** 399}\ncnot 0 1\n"
                    "measure 0 1\n",
    "angle-2-53.cq": "qubits 2\nprep 0 0.6 0 0 0.8\nczrot 0 1 9007199254740993 1\n"
                     "measure 1 0\n",
    "angle-oracle.cq": "qubits 2\nh 0\nh 1\nczrot 0 1 9007199254740993 1\nmeasure 0 1\n",
}


def _gate_line(rng: np.random.Generator, n: int, kinds) -> str:
    kinds = [k for k in kinds if ARITY[k] <= n]
    kind = kinds[rng.integers(0, len(kinds))]
    qubits = [int(q) for q in rng.choice(n, size=ARITY[kind], replace=False)]
    nums = qubits
    if kind in ("zrot", "czrot"):
        nums = qubits + [int(rng.integers(-8, 9)), int(rng.integers(1, 9))]
    return " ".join([kind] + [str(x) for x in nums])


def _body(rng: np.random.Generator, n: int, count: int, kinds) -> list[str]:
    """``count`` gate lines; about one in five repeats an earlier line
    (the parser interns repeats) and one in twenty is a comment."""
    lines: list[str] = []
    for _ in range(count):
        draw = rng.random()
        gates = [ln for ln in lines if not ln.startswith("#")]
        if draw < 0.2 and gates:
            lines.append(gates[rng.integers(0, len(gates))])
        elif draw < 0.25:
            lines.append("# a comment line")
        else:
            lines.append(_gate_line(rng, n, kinds))
    return lines


def _measure(rng: np.random.Generator, n: int) -> str:
    k = int(rng.integers(1, min(n, 6) + 1))
    return "measure " + " ".join(str(int(q)) for q in rng.choice(n, size=k, replace=False))


def corpus_files() -> dict[str, str]:
    """File name -> text, the same on every call."""
    rng = np.random.default_rng(SEED)
    files: dict[str, str] = {}
    for i in range(36):
        n = int(rng.integers(1, 13) if i < 22 else rng.integers(13, 40))
        lines = [f"qubits {n}"] + _body(rng, n, int(rng.integers(0, 5 * n + 2)), CLIFFORD)
        if rng.random() < 0.8:
            lines.append(_measure(rng, n))
        files[f"clifford-{i:02d}.cq"] = "\n".join(lines) + "\n"
    for i in range(12):
        n = int(rng.integers(3, 14))
        hs = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)
        lines = [f"qubits {n}"] + [f"h {int(q)}" for q in hs]
        lines += _body(rng, n, int(rng.integers(1, 6 * n)), CLASSICAL)
        files[f"ht-{i:02d}.cq"] = "\n".join(lines + [_measure(rng, n)]) + "\n"
    for i in range(12):
        n = int(rng.integers(2, 11))
        lines = [f"qubits {n}"]
        for q in range(n):
            if rng.random() < 0.7:
                a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
                norm = float(np.sqrt(abs(a) ** 2 + abs(b) ** 2))
                a, b = a / norm, b / norm
                lines.append(f"prep {q} {a.real!r} {a.imag!r} {b.real!r} {b.imag!r}")
        if len(lines) == 1:
            lines.append("prep 0 0.6 0.0 0.0 -0.8")
        lines += _body(rng, n, int(rng.integers(1, 6 * n)), CLASSICAL + DIAGONAL)
        files[f"product-{i:02d}.cq"] = "\n".join(lines + [_measure(rng, n)]) + "\n"
    files.update(HANDWRITTEN)
    return files


def _width(text: str) -> int | None:
    first = text.split("\n", 1)[0].split()
    if len(first) == 2 and first[0].lower() == "qubits" and first[1].isdigit():
        return int(first[1])
    return None


def corpus_calls(files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(file, argv after the file) of every call, verb first."""
    calls: list[tuple[str, list[str]]] = []
    for name, text in files.items():
        n = _width(text)
        if name.startswith("err-"):
            calls += [(name, ["normalize"]), (name, ["sample"]), (name, ["prob"])]
            continue
        if name.startswith(("huge-", "wide-")):
            calls += [(name, ["sample"]), (name, ["sample", "--shots", "10"]),
                      (name, ["prob", "--outcome", "1"]), (name, ["normalize"])]
            continue
        lines = [ln.split() for ln in text.splitlines()]
        k = next((len(ln) - 1 for ln in lines if ln and ln[0].lower() == "measure"), 1)
        small = n <= 10
        calls.append((name, ["normalize"]))
        calls.append((name, ["decompose"]))
        if small:
            calls.append((name, ["normalize", "--check"]))
            calls.append((name, ["decompose", "--check"]))
            calls.append((name, ["verify"]))
        calls.append((name, ["sample", "--shots", "40", "--seed", "7"]))
        calls.append((name, ["sample", "--shots", "40", "--seed", "7",
                             "--qubits", str(n - 1), "0"]))
        calls.append((name, ["prob"]))
        calls.append((name, ["prob", "--outcome", "0" * k]))
        calls.append((name, ["prob", "--outcome", "1" * k]))
        calls.append((name, ["prob", "--qubits", str(n - 1), "0", "--outcome", "10"]))
    return calls


def run_call(path: str, args: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout sha256, stderr) of one in-process CLI call."""
    from affstab.cli import run_command
    out, err = io.StringIO(), io.StringIO()
    status = run_command([args[0], path, *args[1:]], out, err)
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def write_files(directory: Path) -> dict[str, str]:
    """Write the corpus files into ``directory``; name -> text sha256."""
    digests = {}
    for name, text in corpus_files().items():
        (directory / name).write_text(text, encoding="utf-8")
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def record(directory: Path) -> dict:
    digests = write_files(directory)
    records = []
    for name, args in corpus_calls(corpus_files()):
        status, digest, err = run_call(str(directory / name), args)
        records.append({"file": name, "argv": args, "exit": status,
                        "stdout_sha256": digest, "stderr": err})
    return {"numpy": np.__version__, "files": digests, "records": records}


def main() -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        corpus = record(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=0) + "\n", encoding="utf-8")
    print(f"{len(corpus['records'])} records -> {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
