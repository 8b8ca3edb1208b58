"""Benchmark workloads: inputs made from a seed, timed operations, output digests.

Every input is generated here from the workload seed with the benchmark's
own generator (``random.Random.random``, whose stream Python keeps stable
across versions); tempocode receives only the finished inputs. No workload
uses ``parallel=True``: nothing outside the tests calls it.

* ``paper``  -- one operation is a round of the three CLI experiments
  (``discriminate``, ``noise-sweep``, ``lambda-converge``) on the default
  config, each in a fresh interpreter, as a user of the paper's 3-neuron
  setup runs them. Start-up dominates.
* ``scaled`` -- one operation is ``run_discrimination`` on 4 objects of 20
  contacts over 64 neurons at sigma 0.1. The objects are permutations of
  one shared set of sparse contacts (16 of 64 neurons driven), so every
  object has the same summed features: the dense baseline sits at chance
  and the temporal classifier does the work. World generation with its
  counter-based noise and STDP training dominate; nothing calls
  ``alignment_score``.
* ``online`` -- one operation is an episode of a closed loop of
  ``exploration_step`` with one caller: 160 noisy contacts (every one of 8
  objects traversed once), 8 frozen models trained at set-up, and online
  STDP on. Readings are made beforehand, so the loop draws no noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from spans import merge_spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

GOLDEN_SEEDS = (42, 7)

PAPER_EXPERIMENTS = ("discriminate", "noise-sweep", "lambda-converge")
REPORT_FILES = ("report.txt", "report.csv", "report.json")
CLI_TIMEOUT_S = 120

N_NEURONS = 64
N_CONTACTS = 20
N_DRIVEN = 16
SIGMA = 0.1
INTER_CONTACT_S = 0.020
SCALED_OBJECTS = 4
SCALED_N_TRAIN = 10
SCALED_N_TEST = 20
ONLINE_OBJECTS = 8
ONLINE_N_TRAIN = 10


# Reported times are scaled to a nominal host speed: each operation's times
# are divided by the workload's host slowness (a reference time over its
# nominal value), averaged over the measurements just before and just after
# the operation. The host is shared and its speed swings by tens of percent
# within minutes; a reference doing the same kind of work, timed next to
# each operation, moves with it, so the scaled times keep the program's own
# changes and shed most of the host's. No reference calls tempocode, so the
# factor does not depend on the code under test.
REFERENCE_S = 0.010
STARTUP_REFERENCE_S = 0.150
REFERENCE_REPEATS = 3
_MASK64 = (1 << 64) - 1


def reference_loop(weights) -> float:
    """Fixed work in the same mix as tempocode's inner loops, about 10 ms.

    Small-int and float arithmetic, 64-bit integer mixing, ``math``
    transcendentals, scalar reads and writes of a numpy matrix and a dict.
    """
    s, x = 0, 1.0
    for i in range(30000):
        s = (s * 31 + i) & 0xFFFFFFFF
        x = x * 1.0000001 + 0.5
    z, acc, last = 12345, 0.0, {}
    for i in range(3000):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        y = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        y = ((y ^ (y >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = (y >> 11) * 2.0**-53
        acc += math.exp(-u) * math.cos(u)
        a, b = i & 63, (i >> 6) & 63
        weights[a, b] = weights[a, b] + acc * 1e-9
        last[a] = b
    return x + acc + len(last)


def _median_time(run) -> float:
    """Median wall time of REFERENCE_REPEATS calls of ``run``, measured now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        run()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


def loop_slowness() -> float:
    """Host slowness for interpreter-bound work: the loop's time over REFERENCE_S."""
    import numpy as np

    weights = np.zeros((64, 64))
    return _median_time(lambda: reference_loop(weights)) / REFERENCE_S


def cli_slowness() -> float:
    """Host slowness for CLI runs, about half start-up and half computation.

    Averages the slowness of a fresh interpreter importing numpy (process
    creation, start-up and a large import, as in one CLI run before its
    experiment) with the loop's; either alone tracked CLI run times about
    half as well as the two together.
    """
    startup = _median_time(
        lambda: subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=CLI_TIMEOUT_S))
    return (startup / STARTUP_REFERENCE_S + loop_slowness()) / 2.0


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def import_tempocode():
    """Import tempocode from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tempocode" / "__init__.py").is_file():
        raise RuntimeError(f"no tempocode sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempocode

    if Path(tempocode.__file__).resolve().parent != (SRC / "tempocode").resolve():
        raise RuntimeError(f"tempocode imported from {tempocode.__file__}, not from {SRC}")
    return tempocode


def _stream(seed: int, stream: int) -> random.Random:
    return random.Random((seed << 8) | stream)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _gauss(rng: random.Random) -> float:
    u1 = 1.0 - rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * rng.random())


def object_contacts(seed: int, n_objects: int) -> list[list[list[float]]]:
    """``n_objects`` orderings of one shared set of sparse contact vectors.

    Uniform-random dense contacts would drive about 51 of 64 neurons, which
    potentiates every synapse and leaves temporal accuracy at chance; that
    would be an STDP stress test, not the paper's setting.
    """
    rng = _stream(seed, 1)
    shared = []
    for _ in range(N_CONTACTS):
        vec = [0.0] * N_NEURONS
        for nid in _shuffled(rng, range(N_NEURONS))[:N_DRIVEN]:
            vec[nid] = 0.3 + 0.7 * rng.random()
        shared.append(vec)
    order_rng = _stream(seed, 2)
    return [[shared[k] for k in _shuffled(order_rng, range(N_CONTACTS))] for _ in range(n_objects)]


def noisy(rng: random.Random, contacts: list[list[float]]) -> list[list[float]]:
    """One sensor sweep: every component plus gaussian noise of std SIGMA."""
    return [[v + SIGMA * _gauss(rng) for v in vec] for vec in contacts]


@dataclass
class Op:
    """One operation's outcome: wall time, output digests and work done."""

    wall_s: float
    digests: dict[str, str]
    work: int
    latencies: dict[str, list[float]] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    import_s: list[float] = field(default_factory=list)
    scale: float = 1.0  # maps this operation's times to the nominal host speed


class Paper:
    """A round of the three CLI experiments at one seed."""

    name = "paper"
    launches = 8
    work_unit = "invocations"
    slowness = staticmethod(cli_slowness)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self._runs = 0

    def op(self, tracer=None) -> Op:
        result = Op(wall_s=0.0, digests={}, work=len(PAPER_EXPERIMENTS))
        counts: dict[str, int] = {}
        for experiment in PAPER_EXPERIMENTS:
            self._runs += 1
            out = self.workdir / f"cli-{self._runs}"
            argv = [experiment, "--seed", str(self.seed), "--out", str(out)]
            trace_file = out.with_suffix(".trace.json")
            if tracer is None:
                cmd = [sys.executable, "-m", "tempocode.cli", *argv]
            else:
                cmd = [sys.executable, str(TRACED_CLI), str(trace_file), *argv]
            start = perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
            elapsed = perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"{experiment} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
            result.wall_s += elapsed
            result.latencies.setdefault(experiment, []).append(elapsed)
            (report_dir,) = (out / experiment).iterdir()
            for name in REPORT_FILES:
                result.digests[f"{experiment}/{name}"] = sha256((report_dir / name).read_bytes())
            if tracer is not None:
                trace = json.loads(trace_file.read_text())
                merge_spans(result.spans, trace["spans"])
                for key, value in trace["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                result.import_s.append(trace["import_s"])
        result.counts = counts
        return result


class Scaled:
    """``run_discrimination`` at 64 neurons, 4 objects, 20 contacts, sigma 0.1."""

    name = "scaled"
    launches = 6
    work_unit = "traversals"
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed: int, workdir: Path | None = None):
        tc = import_tempocode()
        self.tc = tc
        self.seed = seed
        self.objects = [
            tc.SyntheticObject(f"p{o}", tuple(tc.as_features(v) for v in contacts))
            for o, contacts in enumerate(object_contacts(seed, SCALED_OBJECTS))
        ]
        base = tc.Config()
        self.config = replace(base, experiment=replace(base.experiment, n_train=SCALED_N_TRAIN, n_test=SCALED_N_TEST))

    def op(self, tracer=None) -> Op:
        start = perf_counter()
        with tracer or nullcontext():
            report = self.tc.run_discrimination(self.config, seed=self.seed, sigma=SIGMA, objects=self.objects)
        elapsed = perf_counter() - start
        if not report.temporal_acc > report.dense_acc:
            raise RuntimeError(
                f"temporal accuracy {report.temporal_acc} does not beat dense {report.dense_acc} on order-only objects"
            )
        digests = {name: sha256(render()) for name, render in
                   zip(REPORT_FILES, (report.to_text, report.to_csv, report.to_json))}
        work = len(self.objects) * (SCALED_N_TRAIN + SCALED_N_TEST)
        return Op(wall_s=elapsed, digests=digests, work=work, spans=tracer.spans if tracer else [],
                  counts=dict(tracer.counts) if tracer else {})


class Online:
    """Episodes of ``exploration_step`` against 8 models trained at set-up."""

    name = "online"
    launches = 6
    work_unit = "steps"
    slowness = staticmethod(loop_slowness)

    def __init__(self, seed: int, workdir: Path | None = None):
        tc = import_tempocode()
        self.tc = tc
        objects = object_contacts(seed, ONLINE_OBJECTS)
        train_rng = _stream(seed, 3)
        self.models = []
        for o, contacts in enumerate(objects):
            weights = tc.WeightMatrix.zeros(N_NEURONS)
            for _ in range(ONLINE_N_TRAIN):
                sweep = noisy(train_rng, contacts)
                trav = tc.Traversal(tuple((tc.as_features(v), k * INTER_CONTACT_S) for k, v in enumerate(sweep)))
                weights = tc.train_on_traversal(weights, tc.encode_traversal(trav))
            self.models.append(tc.ObjectModel(f"p{o}", weights))
        reading_rng = _stream(seed, 4)
        self.readings = [
            tc.as_features(v)
            for o in _shuffled(reading_rng, range(ONLINE_OBJECTS))
            for v in noisy(reading_rng, objects[o])
        ]

    def op(self, tracer=None) -> Op:
        tc = self.tc
        latencies = []
        best = []
        start = perf_counter()
        with tracer or nullcontext():
            step = tc.exploration_step
            state = tc.LoopState(models=self.models, evidence=tc.EvidenceState(len(self.models)))
            for reading in self.readings:
                t0 = perf_counter()
                hypothesis, _ = step(state, reading)
                latencies.append(perf_counter() - t0)
                best.append(hypothesis)
        elapsed = perf_counter() - start
        outcome = {
            "best": best,
            "evidence": [repr(float(x)) for x in state.evidence.evidence],
            "lambdas": [repr(float(x)) for x in state.evidence.lambdas],
        }
        return Op(wall_s=elapsed, digests={"episode": sha256(json.dumps(outcome))}, work=len(latencies),
                  latencies={"step": latencies}, spans=tracer.spans if tracer else [],
                  counts=dict(tracer.counts) if tracer else {})


CLASSES = {cls.name: cls for cls in (Paper, Scaled, Online)}


def golden_digests(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    """Output digests of one operation on the inputs of ``seed``."""
    return CLASSES[workload](seed, workdir).op().digests


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(Path(path).read_text())


def golden_mismatches(workload: str, seed: int, digests: dict[str, str], golden: dict) -> list[str]:
    """Output names whose digest differs from the frozen one (all, if none is frozen)."""
    frozen = golden.get(workload, {}).get(str(seed))
    if frozen is None:
        return sorted(digests) or ["<no outputs>"]
    return sorted(name for name in frozen.keys() | digests.keys() if frozen.get(name) != digests.get(name))
