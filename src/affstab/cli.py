"""Command-line front end.

    affstab normalize  FILE [--check]
    affstab decompose  FILE [--check]
    affstab sample     FILE [--shots K] [--seed S] [--qubits q...]
    affstab prob       FILE [--qubits q...] [--outcome BITS] [--limit W]
    affstab verify     FILE [--limit W]

Exit codes: 0 success, 1 bad input or unsupported request, 2 capacity
exceeded, 3 verification mismatch or a failed internal invariant.
Identical argv (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import affine, measure, nearclifford, normalform, statevector
from .circuit import Circuit, CircuitClass, _check_measured, _circuit, _emit, classify, parse
from .errors import (CapacityError, ClassificationError, InvariantError,
                     ParseError)

ENUMERATE_CAP = 4096


def _load(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _with_measured(c: Circuit, qubits) -> Circuit:
    """``c`` measuring ``qubits``; only they need checking, as ``parse``
    checked the rest."""
    if qubits is None:
        return c
    return _circuit(c.n_qubits, c.gates, c.prep, _check_measured(c.n_qubits, qubits))


def cmd_normalize(args, out, err) -> int:
    c = _load(args.circuit)
    try:
        nf = normalform.synthesize_state_prep(affine.run_clifford(c))
    except ClassificationError:
        print("normalize requires a Clifford-only circuit", file=err)
        return 1
    out.write(_emit(c.n_qubits, None, (("round 1", normalform._h_layer(nf.hadamard_set)),
                                       ("round 2", nf.linear_layer),
                                       ("round 3", nf.phase_layer)), c.measured))
    if args.check:
        replay = statevector.run_statevector(nf.to_circuit(c.n_qubits, c.measured))
        original = statevector.run_statevector(c)
        if not statevector.equal_up_to_phase(original, replay, 1e-9):
            print("normal form does not reproduce the output state", file=err)
            return 3
        print("check: output state reproduced up to global phase", file=err)
    return 0


def cmd_decompose(args, out, err) -> int:
    c = _load(args.circuit)
    try:
        onf = normalform.decompose_operator(c)
    except ClassificationError:
        print("decompose requires a Clifford-only circuit", file=err)
        return 1
    out.write(_emit(c.n_qubits, None, (("M1", onf.m1),
                                       ("H", normalform._h_layer(onf.hadamard_set)),
                                       ("M2", onf.m2)), c.measured))
    if args.check:
        if not statevector.proportional_as_operators(
                c, onf.to_circuit(c.n_qubits, c.measured), 1e-9):
            print("operator form is not proportional to the circuit", file=err)
            return 3
        print("check: proportional as operators", file=err)
    return 0


def cmd_sample(args, out, err) -> int:
    if args.shots < 0:
        raise ValueError(f"--shots must be at least 0, got {args.shots}")
    c = _with_measured(_load(args.circuit), args.qubits)
    rng = np.random.default_rng(args.seed)
    tag = classify(c)
    if tag is CircuitClass.CLIFFORD_ONLY:
        state = affine.run_clifford(c)
        rows = measure.weak_sample_many(state, c.measured, args.shots, rng)
    elif tag is CircuitClass.HT_FORM:
        rows = nearclifford.ht_sample_batch(c, args.shots, rng)
    elif tag is CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL:
        rows = nearclifford.product_front_batch(c, args.shots, rng)
    else:
        print("no weak-simulation route for this circuit class", file=err)
        return 1
    for row in rows:
        out.write("".join(str(int(b)) for b in row) + "\n")
    return 0


def cmd_prob(args, out, err) -> int:
    c = _with_measured(_load(args.circuit), args.qubits)
    tag = classify(c)
    if tag is CircuitClass.CLIFFORD_ONLY:
        state = affine.run_clifford(c)
        if args.outcome is None:
            for outcome, prob in measure.enumerate_support(
                    state, c.measured, ENUMERATE_CAP):
                out.write(f"{outcome} {prob}\n")
        else:
            alpha = _parse_bits(args.outcome, len(c.measured))
            out.write(str(measure.strong_prob(state, c.measured, alpha)) + "\n")
        return 0
    if tag is CircuitClass.HT_FORM:
        if args.outcome is None:
            print("HT probabilities need --outcome", file=err)
            return 1
        alpha = _parse_bits(args.outcome, len(c.measured))
        count = nearclifford.ht_strong_count(c, c.measured, alpha,
                                             width_limit=args.limit)
        out.write(str(count.as_fraction()) + "\n")
        return 0
    print("strong simulation is unsupported for this circuit class: "
          "computing exact probabilities of classical+diagonal circuits "
          "is a #P-hard counting problem", file=err)
    return 1


def cmd_verify(args, out, err) -> int:
    c = _load(args.circuit)
    tag = classify(c)
    out.write(f"class: {tag.value}\n")
    oracle_vec = statevector.run_statevector(c)
    oracle_dist = statevector.distribution(oracle_vec, c.measured)
    status = 0

    if tag is CircuitClass.CLIFFORD_ONLY:
        state = affine.run_clifford(c)
        fast_vec = affine.to_statevector(state)
        ok = statevector.equal_up_to_phase(oracle_vec, fast_vec, 1e-9)
        out.write(f"state match (up to global phase): {'OK' if ok else 'MISMATCH'}\n")
        status = status or (0 if ok else 3)
        dev = _dist_deviation(oracle_dist, lambda alpha: measure.strong_prob(
            state, c.measured, alpha).as_float())
    elif tag is CircuitClass.HT_FORM:
        dev = _dist_deviation(oracle_dist, lambda alpha: nearclifford.ht_strong_count(
            c, c.measured, alpha, width_limit=args.limit).as_float())
    elif tag is CircuitClass.PRODUCT_FRONT_CLASSICAL_DIAGONAL:
        dev = _product_dist_deviation(c, oracle_dist)
    else:
        print("no fast route to verify against", file=err)
        return 1
    ok = dev <= 1e-9
    out.write(f"distribution match on qubits {list(c.measured)}: "
              f"{'OK' if ok else 'MISMATCH'} (max deviation {dev:.3e})\n")
    status = status or (0 if ok else 3)
    out.write("verdict: " + ("PASS" if status == 0 else "FAIL") + "\n")
    return status


def _dist_deviation(oracle_dist, prob) -> float:
    """Largest |prob(alpha) - p| over the oracle's outcomes alpha."""
    dev = 0.0
    for key, p in oracle_dist.items():
        dev = max(dev, abs(prob([int(ch) for ch in key]) - p))
    return dev


def _product_dist_deviation(c, oracle_dist) -> float:
    # The sampler's implied distribution, by exact enumeration of the
    # product inputs (width is already oracle-capped).
    n = c.n_qubits
    p_one = nearclifford._p_one(c)
    xs = ((np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
          ).astype(np.uint8)
    weights = np.prod(np.where(xs == 1, p_one, 1.0 - p_one), axis=1)
    outs = nearclifford._read_batch(n, nearclifford.classical_part(c).gates,
                                    c.measured, range(n), xs)
    implied: dict[str, float] = {}
    for key, w in zip(measure.format_rows(outs).splitlines(), weights):
        implied[key] = implied.get(key, 0.0) + float(w)
    keys = set(implied) | set(oracle_dist)
    return max(abs(implied.get(k, 0.0) - oracle_dist.get(k, 0.0)) for k in keys)


def _parse_bits(text: str, want: int) -> list[int]:
    cleaned = text.replace(" ", "")
    if len(cleaned) != want or any(ch not in "01" for ch in cleaned):
        raise ValueError(f"--outcome must be {want} bits of 0/1")
    return [int(ch) for ch in cleaned]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="affstab")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, seed=False, qubits=False):
        p.add_argument("circuit", help="circuit text file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if qubits:
            p.add_argument("--qubits", type=int, nargs="+", default=None,
                           help="measured qubits (default: circuit's measure)")

    p = sub.add_parser("normalize", help="state-preparation normal form")
    common(p)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("decompose", help="operator normal form M2 * H * M1")
    common(p)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sample", help="weak simulation (one line per shot)")
    common(p, seed=True, qubits=True)
    p.add_argument("--shots", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("prob", help="exact outcome probability")
    common(p, qubits=True)
    p.add_argument("--outcome", default=None, help="outcome bits, e.g. 01")
    p.add_argument("--limit", type=int, default=nearclifford.DEFAULT_WIDTH_LIMIT,
                   help="HT brute-force width cap (at most the default)")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("verify", help="cross-check fast route against oracle")
    common(p)
    p.add_argument("--limit", type=int, default=nearclifford.DEFAULT_WIDTH_LIMIT,
                   help="HT brute-force width cap (at most the default)")
    p.set_defaults(func=cmd_verify)

    return top


# One parser per process: ``parse_args`` keeps no state in the parser
# (each call fills a fresh Namespace), and building one takes about a
# millisecond and leaves some 220 objects in reference cycles.
_shared_parser = functools.cache(build_parser)


def run_command(argv, out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args, out, err)
    except (ParseError, ClassificationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (CapacityError, MemoryError, OverflowError) as exc:
        print(f"capacity exceeded: {str(exc) or 'out of memory'}", file=err)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
