"""Brute-force dense statevector simulation (ground truth for tests).

Amplitudes are indexed with qubit 0 as the most significant bit, so
basis state |x_0 x_1 ... x_{n-1}> sits at integer index
sum_k x_k 2^(n-1-k).  Width is capped at 14 qubits.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import (Circuit, Gate, _CNOT, _CZ, _CZROT, _H, _P, _PDG, _SWAP, _TOFFOLI, _X, _Z,
                      _ZROT)
from .errors import CapacityError, InvariantError

MAX_QUBITS = 14
MAX_OPERATOR_QUBITS = 10


def normalized_prep(c: Circuit) -> list[tuple[complex, complex]]:
    """Per-qubit amplitude pairs, each renormalized exactly once."""
    if c.prep is None:
        return [(1.0 + 0j, 0j)] * c.n_qubits
    out = []
    for a, b in c.prep:
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        out.append((a / norm, b / norm))
    return out


def _slices(ndim: int, axes: tuple[int, ...], values: tuple[int, ...]):
    idx: list = [slice(None)] * ndim
    for ax, v in zip(axes, values):
        idx[ax] = v
    return tuple(idx)


def _apply_gate_tensor(state: np.ndarray, g: Gate) -> None:
    """Apply one gate in place; ``state`` has one axis per qubit.

    Extra trailing axes (e.g. an input-column axis when building a full
    unitary) broadcast through untouched.
    """
    nd = state.ndim
    k = g.qubits
    kind = g.kind
    if kind is _H:
        s0 = state[_slices(nd, k, (0,))].copy()
        s1 = state[_slices(nd, k, (1,))].copy()
        inv = 1.0 / math.sqrt(2.0)
        state[_slices(nd, k, (0,))] = (s0 + s1) * inv
        state[_slices(nd, k, (1,))] = (s0 - s1) * inv
    elif kind is _P:
        state[_slices(nd, k, (1,))] *= 1j
    elif kind is _PDG:
        state[_slices(nd, k, (1,))] *= -1j
    elif kind is _X:
        i0, i1 = _slices(nd, k, (0,)), _slices(nd, k, (1,))
        state[i0], state[i1] = state[i1].copy(), state[i0].copy()
    elif kind is _Z:
        state[_slices(nd, k, (1,))] *= -1.0
    elif kind is _CNOT:
        i0, i1 = _slices(nd, k, (1, 0)), _slices(nd, k, (1, 1))
        state[i0], state[i1] = state[i1].copy(), state[i0].copy()
    elif kind is _CZ:
        state[_slices(nd, k, (1, 1))] *= -1.0
    elif kind is _SWAP:
        i0, i1 = _slices(nd, k, (0, 1)), _slices(nd, k, (1, 0))
        state[i0], state[i1] = state[i1].copy(), state[i0].copy()
    elif kind is _TOFFOLI:
        i0, i1 = _slices(nd, k, (1, 1, 0)), _slices(nd, k, (1, 1, 1))
        state[i0], state[i1] = state[i1].copy(), state[i0].copy()
    elif kind is _ZROT or kind is _CZROT:
        state[_slices(nd, k, (1,) * len(k))] *= _phase(*g.angle)
    else:  # pragma: no cover
        raise ValueError(f"unsupported gate kind {kind}")


# Past 2^53 an int no longer converts to a float exactly.
_EXACT_FLOAT_INT = 1 << 53


def _phase(num: int, den: int) -> complex:
    """exp(i*pi*num/den); when |num| or den is past 2^53, num/den is first
    reduced mod 2 (the phase's period) by exact integer division."""
    if abs(num) > _EXACT_FLOAT_INT or den > _EXACT_FLOAT_INT:
        return np.exp(1j * math.pi * (num % (2 * den) / den))
    return np.exp(1j * math.pi * num / den)


def run_statevector(c: Circuit) -> np.ndarray:
    """State after applying prep and every gate to |0...0>.

    Raises:
        CapacityError: for circuits wider than 14 qubits.
    """
    n = c.n_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"statevector limited to {MAX_QUBITS} qubits, got {n}")
    state = np.ones((), dtype=complex)
    for a, b in normalized_prep(c):
        state = np.tensordot(state, np.array([a, b]), axes=0)
    state = state.reshape([2] * n)
    for g in c.gates:
        _apply_gate_tensor(state, g)
    vec = state.reshape(-1)
    if not abs(np.linalg.norm(vec) - 1.0) < 1e-9:
        raise InvariantError("norm drifted")
    return vec


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit (prep not allowed)."""
    n = c.n_qubits
    if n > MAX_OPERATOR_QUBITS:
        raise CapacityError(
            f"operator comparison limited to {MAX_OPERATOR_QUBITS} qubits, got {n}")
    if c.prep is not None:
        raise ValueError("circuit with prep has no unitary")
    dim = 2 ** n
    # Axis layout: n qubit axes, then the input-column axis.
    u = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    for g in c.gates:
        _apply_gate_tensor(u, g)
    return u.reshape(dim, dim)


def distribution(v: np.ndarray, subset) -> dict[str, float]:
    """Marginal outcome probabilities over the given qubit subset.

    Keys are bit strings in subset order; values sum to 1 within 1e-9.
    """
    n = int(round(math.log2(v.size)))
    subset = list(subset)
    probs = (np.abs(v) ** 2).reshape([2] * n)
    keep = set(subset)
    trace_out = tuple(ax for ax in range(n) if ax not in keep)
    if trace_out:
        probs = probs.sum(axis=trace_out)
    # Remaining axes are the kept qubits in increasing index order.
    order = [sorted(subset).index(q) for q in subset]
    probs = probs.transpose(order).reshape(-1)
    width = len(subset)
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(probs)}


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    """Total variation distance between two outcome distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether a == lambda * b for one unit scalar, within tol.

    lambda is read off at b's largest-magnitude amplitude to avoid
    dividing by near-zeros.
    """
    if a.shape != b.shape:
        return False
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) == 0.0:
        return bool(np.max(np.abs(a)) <= tol)
    lam = a[k] / b[k]
    if abs(abs(lam) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - lam * b)) <= tol)


def proportional_as_operators(c1: Circuit, c2: Circuit, tol: float) -> bool:
    """Whether the circuits agree as operators up to ONE global constant.

    Both circuits are applied to every basis state and a single
    proportionality constant must work across all 2^n columns.
    """
    if c1.n_qubits != c2.n_qubits:
        raise ValueError("circuits act on different widths")
    u1 = circuit_unitary(c1).reshape(-1)
    u2 = circuit_unitary(c2).reshape(-1)
    return equal_up_to_phase(u1, u2, tol)
