"""Recompute and store the frozen output digests: ``python3 bench/freeze_golden.py``.

Run from the root of a checkout. Refreshing a digest changes the benchmark,
and only a change to the benchmark may do it.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from workloads import CLASSES, GOLDEN_PATH, GOLDEN_SEEDS, ROOT, golden_digests


def main() -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=out))
    try:
        golden = {w: {str(s): golden_digests(w, s, workdir / f"{w}-{s}") for s in GOLDEN_SEEDS} for w in CLASSES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
