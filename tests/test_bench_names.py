"""The benchmark's per-layer metrics read traced functions by name.

``bench/run.py`` looks up spans as ``"module.function"`` (for example
``self_s("gf2.row_echelon")``); a name that is no longer a public
function of its module ends ``--trace 1`` with a ``KeyError``.  This
test reads ``bench/run.py`` and checks every such name.
"""

import importlib
import inspect
import re
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
NAME = re.compile(r'(?:self_s|calls)\("(\w+)\.(\w+)"\)|fn\["(\w+)\.(\w+)"\]')


def traced_names() -> set[tuple[str, str]]:
    names = set()
    for match in NAME.finditer(RUN_PY.read_text(encoding="utf-8")):
        groups = [g for g in match.groups() if g is not None]
        names.add((groups[0], groups[1]))
    return names


def test_bench_reads_names_it_can_find():
    names = traced_names()
    assert ("gf2", "row_echelon") in names and ("cli", "run_command") in names
    for module, attr in sorted(names):
        mod = importlib.import_module(f"affstab.{module}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, \
            f"bench/run.py reads {module}.{attr}, which is not a public function"
        assert not attr.startswith("_") and not inspect.isgeneratorfunction(fn)
