"""One benchmark process: set up a workload, then time or trace its operations.

Usage: ``python3 bench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR GOLDEN``,
where MODE is ``measure`` (untraced timing) or ``trace`` (untraced and traced
operations in turn) and GOLDEN is 1 to check the golden seeds afterwards.
The last line of standard output is one JSON object; ``ready`` in it is
``time.monotonic()`` at the end of set-up, which the parent subtracts from
its own launch time, and ``scale`` maps that time to the nominal host speed
by the host slowness measured just after set-up. Each operation is likewise
followed by a slowness measurement, and every time reported is scaled by
the measurements around it (see ``workloads.REFERENCE_S``).

Every operation's output digests must equal those of the launch's first
operation; with GOLDEN set, one operation per golden seed must then
reproduce the frozen digests. Any mismatch or exception is a failed
operation. In ``trace`` mode the exact work counts of every traced
operation must also agree.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

from spans import TARGETS, Tracer, self_times
from workloads import CLASSES, GOLDEN_SEEDS, golden_mismatches, load_golden

MIN_TRACED_OPS = 2
# Past the deadline, keep trying to reach the minimum operation counts for
# at most this long, so a failing operation cannot keep the run going.
GRACE_S = 30.0
COUNT_METRICS = ("world.traversals", "rng.draws", "stdp.synapse_updates", "inference.pairs_scored",
                 "experiments.score_calls")
EXACT_COUNTS = COUNT_METRICS + ("encoding.spikes", "encoding.packets")
SPAN_NAMES = ("cli.main",) + tuple(dict.fromkeys(target[2] for target in TARGETS))


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"operation failed: {reason}", file=sys.stderr)


def _attempt(tally: Tally, run, reference: dict | None):
    """Run one operation; returns it, or None when it failed."""
    tally.attempted += 1
    try:
        op = run()
    except Exception as exc:  # noqa: BLE001 - an operation's failure is counted, not fatal
        traceback.print_exc()
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    if reference is not None and op.digests != reference:
        tally.fail("outputs differ from the first operation of this launch")
        return None
    return op


def _check_golden(workload: str, workdir: Path, tally: Tally) -> None:
    golden = load_golden()
    for seed in GOLDEN_SEEDS:
        op = _attempt(tally, lambda: CLASSES[workload](seed, workdir / f"golden-{seed}").op(), None)
        if op is not None:
            mismatched = golden_mismatches(workload, seed, op.digests, golden)
            if mismatched:
                tally.fail(f"golden seed {seed}: {', '.join(mismatched)} differ from the frozen digests")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles`` inclusive of the sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "paper" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summary(op) -> dict:
    """An untraced operation's scaled times and work, as sent to the parent."""
    return {
        "wall_s": op.wall_s * op.scale,
        "scale": op.scale,
        "work": op.work,
        "latencies": {name: [t * op.scale for t in times] for name, times in op.latencies.items()},
    }


def measure(workload, ops: list[dict]) -> tuple[dict, dict, dict]:
    """Latency and throughput metrics, the workload's own figures and sample counts.

    ``ops`` are :func:`summary` records, pooled over every launch of a run.
    """
    walls = [op["wall_s"] for op in ops]
    throughput = sum(op["work"] for op in ops) / sum(walls)
    samples = {"ops": len(ops)}
    extra = {f"{workload.work_unit}_per_s": throughput, "scale": statistics.median(op["scale"] for op in ops)}
    if workload.name == "online":
        steps = [t for op in ops for t in op["latencies"]["step"]]
        p50 = statistics.median(steps) * 1e3
        extra.update(step_p50_ms=p50, step_p99_ms=percentile(steps, 99) * 1e3)
        samples.update(step_p50_ms=len(steps), step_p99_ms=len(steps))
    else:
        p50 = statistics.median(walls) * 1e3
    samples["latency_p50_ms"] = samples.get("step_p50_ms", len(ops))
    for experiment in ops[0]["latencies"] if workload.name == "paper" else ():
        runs = [t for op in ops for t in op["latencies"][experiment]]
        extra[f"{experiment.replace('-', '_')}_s"] = statistics.median(runs)
        samples[f"{experiment.replace('-', '_')}_s"] = len(runs)
    return {"latency_p50_ms": p50, "throughput_per_s": throughput}, extra, samples


def per_layer(traced: list, untraced: list) -> dict:
    """Per-operation self time of every layer, work counts and trace checks."""
    n = len(traced)
    totals: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    unattributed = 0.0
    for op in traced:
        selfs = self_times(op.spans)
        for name, value in selfs.items():
            totals[name] = totals.get(name, 0.0) + value * op.scale
        unattributed += (op.wall_s - sum(selfs.values()) - sum(op.import_s)) * op.scale
    import_s = [t * op.scale for op in traced for t in op.import_s]
    metrics = {f"{name}.self_s": total / n for name, total in totals.items()}
    counts = traced[0].counts
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    packets = counts.get("encoding.packets", 0)
    metrics["encoding.spikes"] = counts.get("encoding.spikes", 0) / packets if packets else 0.0
    metrics["cli.import_s"] = statistics.mean(import_s) if import_s else 0.0
    metrics["trace.overhead_s"] = statistics.mean(op.wall_s * op.scale for op in traced) - statistics.mean(
        op.wall_s * op.scale for op in untraced)
    metrics["trace.unattributed_s"] = unattributed / n
    return metrics


def main() -> int:
    name, seed, seconds, mode, workdir = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4], Path(sys.argv[5])
    golden = sys.argv[6] == "1"
    workload = CLASSES[name](seed, workdir / "run")
    ready = monotonic()
    last_slowness = workload.slowness()
    setup_scale = 1.0 / last_slowness

    def rescale(op):
        """Scale ``op`` by the host slowness measured just before and just after it."""
        nonlocal last_slowness
        slowness = workload.slowness()
        op.scale = 2.0 / (last_slowness + slowness)
        last_slowness = slowness

    tally = Tally()
    reference = None
    ops, traced, untraced = [], [], []
    first_counts = None
    deadline = perf_counter() + seconds
    while True:
        now = perf_counter()
        enough = len(traced) >= MIN_TRACED_OPS if mode == "trace" else len(ops) >= 1
        if now >= deadline + GRACE_S or (now >= deadline and enough):
            break
        op = _attempt(tally, workload.op, reference)
        if op is None:
            continue
        rescale(op)
        reference = op.digests
        ops.append(op)
        if mode != "trace":
            continue
        untraced.append(op)
        op = _attempt(tally, lambda: workload.op(Tracer()), reference)
        if op is None:
            continue
        counts = {key: op.counts.get(key, 0) for key in EXACT_COUNTS}
        if first_counts is not None and counts != first_counts:
            tally.fail(f"work counts differ between traced operations: {first_counts} != {counts}")
            continue
        rescale(op)
        first_counts = counts
        traced.append(op)

    result = {"ready": ready, "scale": setup_scale, "digests": reference, "peak_rss_mb": _peak_rss_mb(name)}
    if mode == "measure":
        result["ops"] = [summary(op) for op in ops]
    if mode == "trace" and traced:
        result["metrics"] = per_layer(traced, untraced)
        result["samples"] = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
        result["last_trace"] = traced[-1].spans
    if golden:
        _check_golden(name, workdir, tally)
    result["attempted"], result["failures"] = tally.attempted, tally.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
