"""Outside tracing: wrap the public functions of each affstab module.

Nothing in the package is edited.  Every public module-level function
of the traced modules is replaced by a wrapper at *every* module
attribute that binds it (``affine.run_clifford`` and
``normalform.run_clifford`` are the same function, bound twice), so a
call through any import path is seen.  Each call while tracing is on
becomes a span (function id, start, end, parent span), kept in compact
arrays in memory and written out when the run ends.  A function's self
time is its span's duration minus the durations of its child spans.

A few wrappers also read counters off arguments and results from the
outside: the parameter count m before and after each Hadamard (which
gives the three Hadamard cases), the final m of each ``run_clifford``,
zero results of ``strong_prob``, shots drawn, HT Hadamard counts and
bytes written by the CLI.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array

import numpy as np

# The layers.  statevector is traced only so that oracle time inside a
# canary is not charged to its caller; it has no metric of its own.
LAYERS = ("gf2", "circuit", "affine", "measure", "normalform",
          "nearclifford", "cli")
TRACED_MODULES = LAYERS + ("statevector",)


class TraceError(RuntimeError):
    """A binding was missed or a counter disagrees with the inputs."""


class Tracer:
    """Span recorder installed over the affstab modules."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.on = False
        self.names: list[str] = []          # function id -> "module.func"
        self.fid = array("i")               # per span
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []
        # Counters read from outside.
        self.h_cases = {"grow": 0, "keep": 0, "shrink": 0}
        self.m_peak = 0
        self.clifford_runs: list[tuple[int, int, int]] = []  # (h calls, grow-shrink, final m)
        self._run_acc: list[list[int]] = []
        self.prob_zero = 0
        self.shots = 0
        self.ht_hadamards = 0
        self.ht_enum = 0
        self.bytes_out = 0

    # -- installation -------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        pkg = self.package.__name__
        targets = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    # Generator functions return before their body
                    # runs, so a span around them would measure nothing.
                    continue
                targets[fn] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        left = [f"{mod.__name__}.{attr}" for mod in self._modules()
                for attr, val in vars(mod).items()
                if inspect.isfunction(val) and val in wrappers]
        if left:
            raise TraceError(f"bindings left unwrapped: {left}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        before, after = _HOOKS.get(name, (None, None))
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            state = before(tracer, args, kwargs) if before else None
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                after(tracer, state, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------

    def span_arrays(self):
        return (np.array(self.fid, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end))

    def per_function(self) -> dict[str, tuple[int, float]]:
        """Function id -> (calls, self seconds)."""
        fid, parent, start, end = self.span_arrays()
        n_fn = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(fid, minlength=n_fn)
        self_s = np.bincount(fid, weights=self_t, minlength=n_fn)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        fid, parent, start, end = self.span_arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), fid=fid,
                            parent=parent, start=start - t0, end=end - t0)


# -- counters read off arguments and results -----------------------------


def _h_before(tr, args, kwargs):
    return args[0].m


def _h_after(tr, m_before, args, kwargs, result):
    delta = result.m - m_before
    tr.h_cases[{1: "grow", 0: "keep", -1: "shrink"}[delta]] += 1
    tr.m_peak = max(tr.m_peak, result.m)
    if tr._run_acc:
        acc = tr._run_acc[-1]
        acc[0] += 1
        acc[1] += delta


def _run_before(tr, args, kwargs):
    tr._run_acc.append([0, 0])


def _run_after(tr, state, args, kwargs, result):
    h_calls, net = tr._run_acc.pop()
    tr.clifford_runs.append((h_calls, net, result.m))


def _prob_after(tr, state, args, kwargs, result):
    tr.prob_zero += int(result.zero)


def _shots_before(tr, args, kwargs):
    tr.shots += int(args[2] if len(args) > 2 else kwargs["shots"])


def _ht_after(tr, state, args, kwargs, result):
    tr.ht_hadamards += result.m
    tr.ht_enum += 1 << result.m


def _cli_before(tr, args, kwargs):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    return out, out.tell()


def _cli_after(tr, state, args, kwargs, result):
    out, pos = state
    tr.bytes_out += out.tell() - pos


_HOOKS = {
    "affine.apply_h": (_h_before, _h_after),
    "affine.run_clifford": (_run_before, _run_after),
    "measure.strong_prob": (None, _prob_after),
    "measure.weak_sample_many": (_shots_before, None),
    "nearclifford.ht_strong_count": (None, _ht_after),
    "cli.run_command": (_cli_before, _cli_after),
}
