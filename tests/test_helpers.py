import numpy as np

from helpers import histogram


def row_loop_histogram(rows) -> dict[str, int]:
    """The per-row reference the vectorised helper replaces."""
    out: dict[str, int] = {}
    for row in rows:
        key = "".join(str(int(b)) for b in row)
        out[key] = out.get(key, 0) + 1
    return out


def test_histogram_matches_row_loop():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(0, 14))
        shots = int(rng.integers(0, 300))
        rows = (rng.random((shots, k)) < rng.random(k)).astype(np.uint8)
        assert histogram(rows) == row_loop_histogram(rows)
