"""tempocode benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout. Workloads are ``paper``, ``scaled`` and
``online`` (see ``bench/README.md``). The benchmark imports tempocode only
from the checkout's ``src`` and exits with code 2, printing no result, when
those sources are missing.

``--trace 0`` launches the workload's worker ``launches`` times in turn,
each timing operations for its share of ``--seconds``, and reports every
end-to-end metric of ``BENCHMARK.json`` over the pooled operations, with
``setup_s`` the median launch-to-ready time. Pooling over processes averages
out what differs between them, such as memory layout and hash seeds. Every time is scaled to a nominal
host speed by a reference timed next to it (see ``workloads.REFERENCE_S``).
``--trace 1`` launches one worker, which runs untraced and traced operations
in turn, and reports every per-layer metric. Either way the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
provenance and the workload's own figures, and the same record, with the
traced spans, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import monotonic

from worker import measure
from workloads import CLASSES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
TIME_LIMIT_S = 170.0


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="tempocode benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(CLASSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over every tempocode source file, path and content."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tempocode").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(args: argparse.Namespace) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "source_sha256": source_digest(),
    }


class WorkerError(RuntimeError):
    """A worker process failed as a whole, so the run has no result."""


def launch(args: argparse.Namespace, mode: str, seconds: float, workdir: Path, golden: bool,
           deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (its scaled launch-to-ready seconds, its result record)."""
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), repr(seconds), mode, str(workdir),
           "1" if golden else "0"]
    start = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish within the time limit") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    return (record["ready"] - start) * record["scale"], record


def run(args: argparse.Namespace) -> dict:
    """Launch the workers and assemble the full result record."""
    deadline = monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = CLASSES[args.workload]
    launches = 1 if args.trace else workload.launches
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    setups, records = [], []
    try:
        for i in range(launches):
            setup_s, record = launch(args, "trace" if args.trace else "measure", args.seconds / launches,
                                     workdir / f"launch-{i}", i == launches - 1, deadline)
            setups.append(setup_s)
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    outputs = {json.dumps(r["digests"], sort_keys=True) for r in records if r["digests"] is not None}
    if len(outputs) > 1:
        failures.append("launches of one run disagree on the outputs of the same inputs")
    if args.trace:
        found, extra, samples = dict(records[0].get("metrics", {})), {}, dict(records[0].get("samples", {}))
    else:
        ops = [op for r in records for op in r["ops"]]
        if not ops:
            raise WorkerError("no operation succeeded")
        found, extra, samples = measure(workload, ops)
        found["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
        found["setup_s"] = statistics.median(setups)
        samples.update(setup_s=len(setups), launches=launches)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        raise WorkerError(f"no measurement for {', '.join(missing)}")
    return {
        "provenance": provenance(args),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted},
        "extra": extra,
        "samples": samples,
        "setup_samples_s": setups,
        "last_trace": records[0].get("last_trace"),
    }


def write_outputs(args: argparse.Namespace, result: dict) -> Path:
    """Store the result record and, when traced, its spans (one JSON line each)."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    spans = result.pop("last_trace")
    path = OUT / "results" / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    if spans:
        (OUT / "traces").mkdir(exist_ok=True)
        with open(OUT / "traces" / f"{stem}.jsonl", "w") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tempocode" / "__init__.py").is_file():
        print(f"benchmark: no tempocode sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    path = write_outputs(args, result)
    print(f"provenance {json.dumps(result['provenance'])}")
    for name, metric in {**result["metrics"]}.items():
        print(f"  {name:<48} {metric['value']:>16.6f} {metric['unit']:<6} n={result['samples'].get(name, '-')}")
    for name, value in result["extra"].items():
        print(f"  {name:<48} {value:>16.6f}        n={result['samples'].get(name, '-')}")
    print(f"  error_rate {result['error_rate']:g} ({result['failed']} of {result['attempted']} operations failed)")
    print(f"  record written to {path.relative_to(ROOT)}")
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
