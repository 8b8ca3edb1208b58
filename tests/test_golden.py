"""Determinism contract: every workload of the benchmark reproduces its frozen digests.

Runs one operation of the ``paper``, ``scaled`` and ``online`` workloads in
``bench/workloads.py`` at each golden seed and compares the output digests
with ``bench/golden.json``. The benchmark directory is only read.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", workloads.GOLDEN_SEEDS)
@pytest.mark.parametrize("workload", ["paper", "scaled", "online"])
def test_outputs_match_golden_digests(workload, seed, tmp_path):
    digests = workloads.golden_digests(workload, seed, tmp_path)
    assert workloads.golden_mismatches(workload, seed, digests, workloads.load_golden()) == []
