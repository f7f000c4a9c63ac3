"""Replay the committed CLI record corpus (``tests/cli_corpus.py``)."""

import json

import numpy as np

from cli_corpus import CORPUS, corpus_calls, corpus_files, run_call, write_files


def test_cli_corpus_replays_byte_identically(tmp_path):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    digests = write_files(tmp_path)
    assert digests == corpus["files"], (
        "the generator's files differ from the recorded ones; regenerate the corpus")
    records = corpus["records"]
    assert [(r["file"], r["argv"]) for r in records] == corpus_calls(corpus_files())
    moved = []
    for r in records:
        got = run_call(str(tmp_path / r["file"]), r["argv"])
        want = (r["exit"], r["stdout_sha256"], r["stderr"])
        if got != want:
            moved.append(f"{r['file']} {' '.join(r['argv'])}: exit {want[0]} -> {got[0]}"
                         f"{', stdout moved' if got[1] != want[1] else ''}"
                         f"{f', stderr {want[2]!r} -> {got[2]!r}' if got[2] != want[2] else ''}")
    if moved and corpus["numpy"] != np.__version__:
        raise AssertionError(
            f"numpy version mismatch: the corpus was recorded with numpy "
            f"{corpus['numpy']} and this run has {np.__version__}; "
            f"{len(moved)} record(s) moved:\n" + "\n".join(moved))
    assert not moved, f"{len(moved)} of {len(records)} record(s) moved:\n" + "\n".join(moved)
