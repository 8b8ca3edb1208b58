"""The three synthetic validation experiments, with reports and statistics.

* traversal discrimination: can each classifier tell a left-to-right sweep
  of object A from the right-to-left sweep of object B when the two share
  identical features? Trains one STDP weight matrix per object and dense
  centroids on the same noisy traversals, then classifies fresh trials by
  the causal-pathway score (summed leading-pathway weights) and by nearest
  centroid.
* noise sweep: the same task across a grid of sensor noise levels, with an
  independently seeded run per level.
* memory-coefficient convergence: drives per-object lambda adaptation with
  a calibrated prediction-error schedule and reports the final-50-step
  means per object.

Every experiment is deterministic given (config, seed): all randomness goes
through the counter-based streams in :mod:`tempocode.rng`, trials own
disjoint substreams, and the dense and temporal classifiers consume the
identical noisy traversals. Reports serialize to aligned text, CSV, and
JSON (with the full effective config echoed for provenance); identical
inputs produce byte-identical report files, whether trials are classified
serially or in parallel.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .baseline import dense_classify, dense_train
from .config import Config
from .encoding import encode_traversal
from .evidence import EvidenceState
from .inference import ObjectModel, leading_pair_weight, left_sum
from .rng import NoiseStream, derive_seed
from .stdp import train_on_traversal
from .types import Traversal, WeightMatrix
from .world import (
    SyntheticObject,
    WorldParams,
    discrimination_pair,
    generate_traversal,
    load_objects,
    require_unique_labels,
)

_TRAIN_PHASE = 0
_TEST_PHASE = 1
_LAMBDA_DOMAIN = 2
_SWEEP_DOMAIN = 3

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _pathway_score(leading: list[int | None], model: ObjectModel) -> float:
    """Summed model weights along consecutive leading neurons (None: empty packet)."""
    pairs = zip(leading, leading[1:])
    return left_sum([leading_pair_weight(i, j, model) for i, j in pairs if i is not None and j is not None])


def traversal_pathway_score(packets, model: ObjectModel) -> float:
    """Traversal-level causal alignment: summed leading-pathway weights.

    For each consecutive packet pair the model contributes its weight on
    the (leading pre, leading post) synapse, as
    :func:`tempocode.inference.leading_pathway_score` gives it; a pair with
    an empty packet contributes nothing. The contributions are summed left
    to right from 0.0. The all-pairs sum
    (:func:`tempocode.inference.alignment_score`) is deliberately not used
    here: with threshold flicker the two objects' active sets coincide and
    the all-pairs statistic carries no direction signal, while the leading
    pathway stays discriminative until noise corrupts packet rank order.
    """
    return _pathway_score([packet.first_neuron() for packet in packets], model)


def classify_temporal(packets, models: list[ObjectModel]) -> int:
    """Index of the best-aligned model; ties break to the lowest index.

    Each packet's leading neuron is found once, then every model is scored
    along the same leading pathway.
    """
    leading = [packet.first_neuron() for packet in packets]
    best_idx = 0
    best_score = -math.inf
    for idx, model in enumerate(models):
        score = _pathway_score(leading, model)
        if score > best_score:
            best_idx = idx
            best_score = score
    return best_idx


@dataclass(frozen=True)
class ObjectResult:
    """Per-object test outcome of one discrimination run."""

    label: str
    n_test: int
    dense_correct: int
    temporal_correct: int

    @property
    def dense_acc(self) -> float:
        return self.dense_correct / self.n_test

    @property
    def temporal_acc(self) -> float:
        return self.temporal_correct / self.n_test

    def dense_ci(self) -> tuple[float, float]:
        return wilson_interval(self.dense_correct, self.n_test)

    def temporal_ci(self) -> tuple[float, float]:
        return wilson_interval(self.temporal_correct, self.n_test)


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def _ci_str(ci: tuple[float, float]) -> str:
    return f"[{_pct(ci[0])}, {_pct(ci[1])}]"


@dataclass(frozen=True)
class DiscriminationReport:
    """Accuracies, confidence intervals, and provenance of one run.

    CSV rows carry the temporal classifier's Wilson interval in
    ci_low/ci_high (the headline metric); dense intervals appear in the
    text and JSON renderings.
    """

    sigma: float
    n_train: int
    n_test: int
    seed: int
    per_object: tuple[ObjectResult, ...]
    config: dict

    @property
    def total_tests(self) -> int:
        return sum(r.n_test for r in self.per_object)

    @property
    def dense_correct(self) -> int:
        return sum(r.dense_correct for r in self.per_object)

    @property
    def temporal_correct(self) -> int:
        return sum(r.temporal_correct for r in self.per_object)

    @property
    def dense_acc(self) -> float:
        return self.dense_correct / self.total_tests

    @property
    def temporal_acc(self) -> float:
        return self.temporal_correct / self.total_tests

    @property
    def gap_pp(self) -> float:
        return 100.0 * (self.temporal_acc - self.dense_acc)

    def dense_ci(self) -> tuple[float, float]:
        return wilson_interval(self.dense_correct, self.total_tests)

    def temporal_ci(self) -> tuple[float, float]:
        return wilson_interval(self.temporal_correct, self.total_tests)

    def to_text(self) -> str:
        lines = [
            f"traversal discrimination  sigma={self.sigma:g}  "
            f"n_train={self.n_train}  n_test={self.n_test} per object  seed={self.seed}",
            "",
            f"{'object':<10} {'dense acc':>10} {'dense 95% CI':>18} {'temporal acc':>13} {'temporal 95% CI':>18}",
        ]
        rows = list(self.per_object) + [
            ObjectResult("overall", self.total_tests, self.dense_correct, self.temporal_correct)
        ]
        for r in rows:
            lines.append(
                f"{r.label:<10} {_pct(r.dense_acc):>10} {_ci_str(r.dense_ci()):>18} "
                f"{_pct(r.temporal_acc):>13} {_ci_str(r.temporal_ci()):>18}"
            )
        lines.append("")
        lines.append(f"gap (temporal - dense): {self.gap_pp:+.1f} pp")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["experiment,param,dense_acc,temporal_acc,gap_pp,ci_low,ci_high"]
        for r in self.per_object:
            ci = r.temporal_ci()
            gap = 100.0 * (r.temporal_acc - r.dense_acc)
            lines.append(
                f"discrimination,{r.label},{r.dense_acc:.6f},{r.temporal_acc:.6f},"
                f"{gap:.6f},{ci[0]:.6f},{ci[1]:.6f}"
            )
        ci = self.temporal_ci()
        lines.append(
            f"discrimination,overall,{self.dense_acc:.6f},{self.temporal_acc:.6f},"
            f"{self.gap_pp:.6f},{ci[0]:.6f},{ci[1]:.6f}"
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "discrimination",
            "seed": self.seed,
            "config": self.config,
            "results": {
                "per_object": [
                    {
                        "label": r.label,
                        "n_test": r.n_test,
                        "dense_acc": r.dense_acc,
                        "dense_ci": list(r.dense_ci()),
                        "temporal_acc": r.temporal_acc,
                        "temporal_ci": list(r.temporal_ci()),
                    }
                    for r in self.per_object
                ],
                "overall": {
                    "n_test": self.total_tests,
                    "dense_acc": self.dense_acc,
                    "dense_ci": list(self.dense_ci()),
                    "temporal_acc": self.temporal_acc,
                    "temporal_ci": list(self.temporal_ci()),
                    "gap_pp": self.gap_pp,
                },
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class NoiseSweepReport:
    """One discrimination run per noise level, each independently seeded."""

    seed: int
    rows: tuple[DiscriminationReport, ...]
    config: dict

    def to_text(self) -> str:
        lines = [
            f"noise sweep  n_train={self.rows[0].n_train}  "
            f"n_test={self.rows[0].n_test} per object  seed={self.seed}",
            "",
            f"{'sigma':<7} {'dense acc':>10} {'temporal acc':>13} {'gap':>10} {'temporal 95% CI':>18}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.sigma:<7g} {_pct(row.dense_acc):>10} {_pct(row.temporal_acc):>13} "
                f"{row.gap_pp:>+7.1f} pp {_ci_str(row.temporal_ci()):>18}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["experiment,param,dense_acc,temporal_acc,gap_pp,ci_low,ci_high"]
        for row in self.rows:
            ci = row.temporal_ci()
            lines.append(
                f"noise-sweep,{row.sigma:g},{row.dense_acc:.6f},{row.temporal_acc:.6f},"
                f"{row.gap_pp:.6f},{ci[0]:.6f},{ci[1]:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "noise-sweep",
            "seed": self.seed,
            "config": self.config,
            "results": [
                {
                    "sigma": row.sigma,
                    "seed": row.seed,
                    "dense_acc": row.dense_acc,
                    "dense_ci": list(row.dense_ci()),
                    "temporal_acc": row.temporal_acc,
                    "temporal_ci": list(row.temporal_ci()),
                    "gap_pp": row.gap_pp,
                }
                for row in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class LambdaReport:
    """Per-object lambda trajectories and their final-50-step means."""

    seed: int
    steps: int
    object_names: tuple[str, ...]
    trajectories: dict[str, tuple[float, ...]]
    converged: dict[str, float]
    config: dict

    def to_text(self) -> str:
        lines = [
            f"memory-coefficient convergence  steps={self.steps}  seed={self.seed}",
            "",
            f"{'object':<10} {'final-50 mean lambda':>21}",
        ]
        for name in self.object_names:
            lines.append(f"{name:<10} {self.converged[name]:>21.3f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Full lambda trajectory as rows step,object_type,lambda."""
        lines = ["step,object_type,lambda"]
        for name in self.object_names:
            for step, lam in enumerate(self.trajectories[name], start=1):
                lines.append(f"{step},{name},{lam!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "lambda-converge",
            "seed": self.seed,
            "config": self.config,
            "results": {
                "steps": self.steps,
                "converged": {name: self.converged[name] for name in self.object_names},
                "trajectories": {name: list(self.trajectories[name]) for name in self.object_names},
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _effective_config_dict(cfg: Config, seed: int, sigma: float | None = None) -> dict:
    echo = cfg.to_dict()
    echo["world"]["seed"] = seed
    if sigma is not None:
        echo["experiment"]["sigma"] = sigma
    return echo


def _resolve_objects(cfg: Config, objects) -> list[SyntheticObject]:
    if objects is not None:
        objects = list(objects)
        if not objects:
            raise ValueError("need at least one object")
        require_unique_labels(objects)
        return objects
    if cfg.world.objects is not None:
        return load_objects(cfg.world.objects)
    return discrimination_pair()


def run_discrimination(
    config: Config | None = None,
    *,
    seed: int | None = None,
    sigma: float | None = None,
    objects: list[SyntheticObject] | None = None,
    parallel: bool = False,
) -> DiscriminationReport:
    """Train per-object weight matrices and dense centroids, then classify.

    ``sigma`` overrides the config's experiment.sigma; ``objects`` overrides
    the built-in discrimination pair. With ``parallel=True`` test trials are
    classified on a thread pool; results are identical to the serial path.
    """
    cfg = config if config is not None else Config()
    seed = cfg.resolved_seed(seed)
    sigma = cfg.experiment.sigma if sigma is None else float(sigma)
    if sigma < 0.0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")
    if cfg.experiment.n_train < 1:
        raise ValueError("n_train must be >= 1: untrained matrices score 0 against everything")
    objs = _resolve_objects(cfg, objects)
    world = WorldParams(
        noise_sigma=sigma,
        inter_contact_interval=cfg.world.inter_contact_interval,
        velocity=cfg.world.velocity,
        seed=seed,
    )
    n = objs[0].n_neurons

    train_traversals: list[Traversal] = []
    models: list[ObjectModel] = []
    for o, obj in enumerate(objs):
        class_traversals = [
            generate_traversal(obj, world, NoiseStream(seed, _TRAIN_PHASE, o, t))
            for t in range(cfg.experiment.n_train)
        ]
        weights = WeightMatrix.zeros(n)
        for trav in class_traversals:
            weights = train_on_traversal(weights, encode_traversal(trav, cfg.encoder), cfg.stdp)
        models.append(ObjectModel(obj.label, weights))
        train_traversals.extend(class_traversals)
    centroids = dense_train(train_traversals)

    def classify(trav: Traversal) -> tuple[str, str]:
        packets = encode_traversal(trav, cfg.encoder)
        temporal_label = models[classify_temporal(packets, models)].label
        dense_label = dense_classify(trav, centroids)
        return temporal_label, dense_label

    results = []
    for o, obj in enumerate(objs):
        trials = [
            generate_traversal(obj, world, NoiseStream(seed, _TEST_PHASE, o, t))
            for t in range(cfg.experiment.n_test)
        ]
        if parallel:
            with ThreadPoolExecutor() as pool:
                labels = list(pool.map(classify, trials))
        else:
            labels = [classify(trav) for trav in trials]
        temporal_correct = sum(1 for temporal_label, _ in labels if temporal_label == obj.label)
        dense_correct = sum(1 for _, dense_label in labels if dense_label == obj.label)
        results.append(ObjectResult(obj.label, cfg.experiment.n_test, dense_correct, temporal_correct))

    return DiscriminationReport(
        sigma=sigma,
        n_train=cfg.experiment.n_train,
        n_test=cfg.experiment.n_test,
        seed=seed,
        per_object=tuple(results),
        config=_effective_config_dict(cfg, seed, sigma),
    )


def run_noise_sweep(
    config: Config | None = None,
    *,
    seed: int | None = None,
    objects: list[SyntheticObject] | None = None,
    parallel: bool = False,
) -> NoiseSweepReport:
    """Run the discrimination task at every configured noise level.

    Each level gets an independent seed derived from the master seed, so
    adding or reordering levels never perturbs the others.
    """
    cfg = config if config is not None else Config()
    master = cfg.resolved_seed(seed)
    rows = []
    for i, sigma in enumerate(cfg.experiment.sigmas):
        row_seed = derive_seed(master, _SWEEP_DOMAIN, i)
        rows.append(run_discrimination(cfg, seed=row_seed, sigma=sigma, objects=objects, parallel=parallel))
    return NoiseSweepReport(seed=master, rows=tuple(rows), config=_effective_config_dict(cfg, master))


def run_lambda_convergence(config: Config | None = None, *, seed: int | None = None) -> LambdaReport:
    """Adapt per-object lambdas under the calibrated error schedule.

    Object c's step-t prediction error is clamp(base_c + noise_std * z, 0, 1)
    with z drawn from the object's own substream; each object's lambda is
    recorded after every adaptation and summarized as the mean over the
    final 50 steps.
    """
    cfg = config if config is not None else Config()
    seed = cfg.resolved_seed(seed)
    sched = cfg.experiment.error_schedule
    steps = cfg.experiment.steps
    names = ("uniform", "moderate", "complex")
    bases = (sched.uniform, sched.moderate, sched.complex)
    state = EvidenceState(len(names), cfg.accumulator.initial_lambda, sched.alpha)
    streams = [NoiseStream(seed, _LAMBDA_DOMAIN, c) for c in range(len(names))]
    trajectories: dict[str, list[float]] = {name: [] for name in names}
    for t in range(steps):
        for c, name in enumerate(names):
            error = bases[c] + sched.noise_std * streams[c].normal(t)
            error = min(max(error, 0.0), 1.0)
            state.adapt_lambda(c, error)
            trajectories[name].append(float(state.lambdas[c]))
    window = min(50, steps)
    converged = {name: left_sum(traj[-window:]) / window for name, traj in trajectories.items()}
    return LambdaReport(
        seed=seed,
        steps=steps,
        object_names=names,
        trajectories={name: tuple(traj) for name, traj in trajectories.items()},
        converged=converged,
        config=_effective_config_dict(cfg, seed),
    )
