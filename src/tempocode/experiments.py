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
inputs produce byte-identical report files.

The transcendental functions of the noise and of STDP give the C
library's bits, not numpy's per-CPU float64 kernels: ``log`` and ``cos``
(Box-Muller) and ``exp`` (STDP) take one route, ``rng._libm``, which runs
in place in its caller's padded buffer. Box-Muller reuses two such buffers
across its chunks, and STDP divides each fold block's windows straight
into one. See :mod:`tempocode.rng` and :mod:`tempocode.stdp`.

A discrimination test phase runs as arrays. The trials of one object are
drawn as one (trials, contacts, neurons) block
(:func:`~tempocode.world.generate_feature_block`: one noise array for
every trial, scaled, shifted and checked at once), with the bits of
stacking their traversals; no per-trial stream, traversal or spike packet
is built. Each rule classifies the block in one pass, and its one-trial
classifier runs the same pass on a traversal's features. The leading-pair
rule, :func:`_temporal_picks`, needs only each contact's leading neuron:
the first ``argmax`` of its activations, silent when that maximum does not
exceed the threshold. :func:`~tempocode.encoding.encode` fires the same
neuron at offset 0, since its stable descending sort, like ``argmax``,
puts the first of equal maxima first. Every model is scored along the
leading chains of all trials at once (:func:`_pathway_scores`), with
``+0.0`` for a pair with a silent contact, which leaves a left fold from
0.0 unchanged; :func:`classify_temporal` is its one-trial case, on a
traversal of the models' neuron count. The order-blind rule is
:func:`~tempocode.baseline._nearest`; a run whose dense baseline
overflows, so that no nearest centroid can be picked, fails with an error
that names its noise level, before any report is made. The inference
loop, which scores contacts against frozen models and learns nothing, has
the all-causal-pairs rule, :func:`tempocode.inference._causal_index` and
:func:`tempocode.inference._pair_scores`.

A training phase runs as arrays too, and builds no packet either. Each
object's traversals are stacked once, and the block feeds both learners:
:func:`~tempocode.baseline.dense_train`, and the STDP fold
(:func:`~tempocode.encoding._encode_block`, then
:func:`~tempocode.stdp._fold_traversals` in place into the object's matrix
of one (objects, N, N) stack), with the bits of training a fresh matrix
per traversal on its packets. A weight that overflows fails the phase
once it is folded, with an error that names the object, so no report is
scored from it. Every traversal of one object has the same contact times,
so their gaps are checked once, before the fold
(:func:`~tempocode.encoding._check_gaps`), and fail all or none; the test
phase shares those times. Nothing else rejects a contact, since
:class:`~tempocode.encoding.EncoderParams` keeps every rank's offset distinct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .baseline import _DenseOverflow, _nearest, dense_train
from .config import Config
from .encoding import EncoderParams, _check_gaps, _encode_block
from .evidence import EvidenceState
from .inference import ObjectModel, left_sum
from .rng import NoiseStream, derive_seed
from .stdp import _fold_traversals, _WeightOverflow
from .types import Traversal, _one_trial
from .world import (
    SyntheticObject,
    WorldParams,
    _contact_times,
    discrimination_pair,
    generate_feature_block,
    generate_traversal,
    load_objects,
    require_one_dimensionality,
    require_unique_labels,
)

_TRAIN_PHASE = 0
_TEST_PHASE = 1
_LAMBDA_DOMAIN = 2
_SWEEP_DOMAIN = 3

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _pathway_scores(leading: np.ndarray, active: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every model's summed weights along every row's leading chain.

    ``leading`` and ``active`` are (rows, contacts): each contact's leading
    neuron, and whether it fired at all. Consecutive contacts that both
    fired add each model's weight on their (leading pre, leading post)
    synapse, gathered from the (models, n, n) ``weights`` stack in one
    pass; a pair with a silent contact adds +0.0. Each row's terms are
    summed left to right from 0.0 (:func:`left_sum`), into a (rows, models)
    array. Every leading neuron must lie in [0, n), as an ``argmax`` over n neurons does.

    Why the leading pair: a packet's first spike names its most strongly
    driven neuron, its most noise-robust feature, and training potentiates
    the leading chain of an object's sweep. So this weight signals
    direction even where threshold flicker makes two objects' active sets,
    and so their all-pairs sums, identical; it holds until noise corrupts
    packet rank order.
    """
    pairs = active[:, :-1] & active[:, 1:]
    n = weights.shape[-1]
    synapses = leading[:, :-1] * n + leading[:, 1:]
    terms = np.where(pairs, weights.reshape(len(weights), -1)[:, synapses], 0.0)
    return left_sum(terms.transpose(1, 0, 2))


def _best_models(scores: np.ndarray) -> np.ndarray:
    """Each row's index of its highest score; ties go to the lowest index.

    A NaN score never wins, and a row without a winner picks model 0, as a
    scan keeping the first score strictly above the best so far does.
    """
    return np.where(np.isnan(scores), -np.inf, scores).argmax(axis=-1)


def _leading_neurons(block: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Each contact's leading neuron, its first ``argmax``, and whether it fires, from a (..., neurons) block."""
    return block.argmax(axis=-1), block.max(axis=-1) > threshold


def _temporal_picks(block: np.ndarray, weights: np.ndarray, threshold: float) -> np.ndarray:
    """Each trial's best model by leading-pair score, from a (trials, contacts, N) block and (models, N, N) weights."""
    return _best_models(_pathway_scores(*_leading_neurons(block, threshold), weights))


def classify_temporal(traversal: Traversal, models: list[ObjectModel], params: EncoderParams = EncoderParams()) -> int:
    """Index of the model whose leading pairs score the traversal highest; ties break to the lowest index.

    :func:`_temporal_picks` on the traversal as a one-trial block, over the
    stack of the models' weights; of ``params`` only the firing threshold is
    read. The traversal and every model must share one neuron count
    (:func:`~tempocode.types._one_trial`).
    """
    block = _one_trial(traversal, [model.weights.n for model in models], "object model")
    weights = np.stack([model.weights.w for model in models])
    return int(_temporal_picks(block, weights, params.sparsity_threshold)[0])


@dataclass(frozen=True)
class ObjectResult:
    """One accuracy row, per object or summed: every report row renders from here."""

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

    @property
    def gap_pp(self) -> float:
        """Temporal minus dense accuracy, in percentage points."""
        return 100.0 * (self.temporal_acc - self.dense_acc)

    def dense_ci(self) -> tuple[float, float]:
        return wilson_interval(self.dense_correct, self.n_test)

    def temporal_ci(self) -> tuple[float, float]:
        return wilson_interval(self.temporal_correct, self.n_test)

    def csv_line(self, experiment: str, param: str) -> str:
        """One row under :data:`_CSV_HEADER`; ci_low/ci_high are the temporal interval."""
        ci = self.temporal_ci()
        return (
            f"{experiment},{param},{self.dense_acc:.6f},{self.temporal_acc:.6f},"
            f"{self.gap_pp:.6f},{ci[0]:.6f},{ci[1]:.6f}"
        )

    def accuracy_fields(self) -> dict:
        """The JSON fields every accuracy row carries, in report order."""
        return {
            "dense_acc": self.dense_acc,
            "dense_ci": list(self.dense_ci()),
            "temporal_acc": self.temporal_acc,
            "temporal_ci": list(self.temporal_ci()),
        }


_CSV_HEADER = "experiment,param,dense_acc,temporal_acc,gap_pp,ci_low,ci_high"


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def _ci_str(ci: tuple[float, float]) -> str:
    return f"[{_pct(ci[0])}, {_pct(ci[1])}]"


@dataclass(frozen=True)
class DiscriminationReport:
    """Accuracies, confidence intervals, and provenance of one run.

    CSV rows carry the temporal classifier's Wilson interval in
    ci_low/ci_high (the headline metric); dense intervals appear in the
    text and JSON renderings. The aggregate properties read :attr:`overall`.
    """

    sigma: float
    n_train: int
    n_test: int
    seed: int
    per_object: tuple[ObjectResult, ...]
    config: dict

    @property
    def overall(self) -> ObjectResult:
        """The per-object counts summed into one row labelled ``overall``."""
        return ObjectResult(
            "overall",
            sum(r.n_test for r in self.per_object),
            sum(r.dense_correct for r in self.per_object),
            sum(r.temporal_correct for r in self.per_object),
        )

    @property
    def dense_acc(self) -> float:
        return self.overall.dense_acc

    @property
    def temporal_acc(self) -> float:
        return self.overall.temporal_acc

    @property
    def gap_pp(self) -> float:
        return self.overall.gap_pp

    def temporal_ci(self) -> tuple[float, float]:
        return self.overall.temporal_ci()

    def to_text(self) -> str:
        overall = self.overall
        lines = [
            f"traversal discrimination  sigma={self.sigma:g}  "
            f"n_train={self.n_train}  n_test={self.n_test} per object  seed={self.seed}",
            "",
            f"{'object':<10} {'dense acc':>10} {'dense 95% CI':>18} {'temporal acc':>13} {'temporal 95% CI':>18}",
        ]
        for r in (*self.per_object, overall):
            lines.append(
                f"{r.label:<10} {_pct(r.dense_acc):>10} {_ci_str(r.dense_ci()):>18} "
                f"{_pct(r.temporal_acc):>13} {_ci_str(r.temporal_ci()):>18}"
            )
        lines.append("")
        lines.append(f"gap (temporal - dense): {overall.gap_pp:+.1f} pp")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = [r.csv_line("discrimination", r.label) for r in (*self.per_object, self.overall)]
        return "\n".join([_CSV_HEADER] + rows) + "\n"

    def to_json(self) -> str:
        overall = self.overall
        document = {
            "experiment": "discrimination",
            "seed": self.seed,
            "config": self.config,
            "results": {
                "per_object": [
                    {"label": r.label, "n_test": r.n_test, **r.accuracy_fields()} for r in self.per_object
                ],
                "overall": {"n_test": overall.n_test, **overall.accuracy_fields(), "gap_pp": overall.gap_pp},
            },
        }
        return json.dumps(document, indent=2) + "\n"


@dataclass(frozen=True)
class NoiseSweepReport:
    """One independently seeded discrimination run per noise level, rendered from its ``overall``."""

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
        rows = [row.overall.csv_line("noise-sweep", f"{row.sigma:g}") for row in self.rows]
        return "\n".join([_CSV_HEADER] + rows) + "\n"

    def to_json(self) -> str:
        document = {
            "experiment": "noise-sweep",
            "seed": self.seed,
            "config": self.config,
            "results": [
                {"sigma": row.sigma, "seed": row.seed, **row.overall.accuracy_fields(), "gap_pp": row.gap_pp}
                for row in self.rows
            ],
        }
        return json.dumps(document, indent=2) + "\n"


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

    def to_json(self) -> str:
        document = {
            "experiment": "lambda-converge",
            "seed": self.seed,
            "config": self.config,
            "results": {
                "steps": self.steps,
                "converged": {name: self.converged[name] for name in self.object_names},
                "trajectories": {name: list(self.trajectories[name]) for name in self.object_names},
            },
        }
        return json.dumps(document, indent=2) + "\n"


def _effective_config_dict(cfg: Config, seed: int, sigma: float | None = None) -> dict:
    echo = cfg.to_dict()
    echo["world"]["seed"] = seed
    if sigma is not None:
        echo["experiment"]["sigma"] = sigma
    return echo


def _resolve_objects(cfg: Config, objects) -> list[SyntheticObject]:
    """The objects to discriminate: ``objects``, else the ``world.objects`` file, else the default pair.

    Fewer than two objects are rejected: one object has nothing to be
    confused with, so every trial would be right and the report would
    claim 100% for a task that tests nothing. So is an object of one
    contact: it has no packet pair, so its model never trains, its trials
    score +0.0 against every model, and the tie would go to whichever
    object comes first.
    """
    if objects is not None:
        objects = list(objects)
        if objects:
            require_one_dimensionality(objects)
            require_unique_labels(objects)
    elif cfg.world.objects is not None:
        objects = load_objects(cfg.world.objects)
    else:
        return discrimination_pair()
    if len(objects) < 2:
        raise ValueError(
            f"discrimination needs at least two objects, got {len(objects)}: "
            "a lone object has nothing to be confused with and would always score 100%"
        )
    for obj in objects:
        if len(obj.contacts) < 2:
            raise ValueError(
                f"object {obj.label!r} has {len(obj.contacts)} contact: discrimination needs at least two per object, "
                "since one contact gives no packet pair to train or score"
            )
    return objects


def _train(
    cfg: Config, seed: int, world: WorldParams, objs: list[SyntheticObject]
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    """The (objects, N, N) stack of STDP weights and the dense centroids, from one block per object.

    See the module docstring. Each trial is drawn by one
    :func:`~tempocode.world.generate_traversal` call, by which
    ``bench/spans.py`` counts a run's noise draws.
    """
    n = objs[0].n_neurons
    weights = np.zeros((len(objs), n, n))
    classes = []
    for o, obj in enumerate(objs):
        streams = NoiseStream(seed, _TRAIN_PHASE, o).children(cfg.experiment.n_train)
        block = np.stack([generate_traversal(obj, world, stream).features for stream in streams])
        times = _contact_times(obj, world)
        _check_gaps(times, cfg.encoder)
        try:
            _fold_traversals(weights[o], *_encode_block(block, times, cfg.encoder), cfg.stdp)
        except _WeightOverflow as exc:
            raise ValueError(f"object {obj.label!r}: {exc}") from None
        classes.append((obj.label, block))
    return weights, dense_train(classes)


def _run_phases(cfg: Config, seed: int, world: WorldParams, objs: list[SyntheticObject]) -> list[ObjectResult]:
    """The training phase, then each object's test trials classified by what it trained: one row per object."""
    weights, centroids = _train(cfg, seed, world, objs)
    # Model o and centroid o belong to object o: dense_train keeps class order.
    results = []
    for o, obj in enumerate(objs):
        block = generate_feature_block(obj, world, NoiseStream(seed, _TEST_PHASE, o), cfg.experiment.n_test)
        temporal = _temporal_picks(block, weights, cfg.encoder.sparsity_threshold)
        dense = _nearest(block, centroids)
        temporal_correct = int(np.count_nonzero(temporal == o))
        dense_correct = int(np.count_nonzero(dense == o))
        results.append(ObjectResult(obj.label, cfg.experiment.n_test, dense_correct, temporal_correct))
    return results


def run_discrimination(
    config: Config | None = None,
    *,
    seed: int | None = None,
    sigma: float | None = None,
    objects: list[SyntheticObject] | None = None,
) -> DiscriminationReport:
    """Train per-object weight matrices and dense centroids, then classify.

    ``sigma`` overrides the config's experiment.sigma; ``objects`` overrides
    the built-in discrimination pair.
    """
    cfg = config if config is not None else Config()
    seed = cfg.resolved_seed(seed)
    sigma = cfg.experiment.sigma if sigma is None else float(sigma)
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    if cfg.experiment.n_train < 1:
        raise ValueError("n_train must be >= 1: untrained matrices score 0 against everything")
    if cfg.experiment.n_test < 1:
        raise ValueError("n_test must be >= 1: accuracy over no trials is undefined")
    objs = _resolve_objects(cfg, objects)
    try:
        results = _run_phases(cfg, seed, world, objs)
    except _DenseOverflow as exc:
        raise ValueError(f"noise sigma {sigma:g}: {exc}") from None

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
) -> NoiseSweepReport:
    """Run the discrimination task at every configured noise level.

    Each level gets an independent seed derived from the master seed, so
    adding or reordering levels never perturbs the others. The objects are
    resolved once and shared by every level.
    """
    cfg = config if config is not None else Config()
    master = cfg.resolved_seed(seed)
    if not cfg.experiment.sigmas:
        raise ValueError("sigmas must hold at least one noise level: a sweep over none reports nothing")
    objs = _resolve_objects(cfg, objects)
    rows = []
    for i, sigma in enumerate(cfg.experiment.sigmas):
        row_seed = derive_seed(master, _SWEEP_DOMAIN, i)
        rows.append(run_discrimination(cfg, seed=row_seed, sigma=sigma, objects=objs))
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
    if steps < 1:
        raise ValueError("steps must be >= 1: a mean over no steps is undefined")
    names = ("uniform", "moderate", "complex")
    bases = (sched.uniform, sched.moderate, sched.complex)
    state = EvidenceState(len(names), cfg.accumulator.initial_lambda, sched.alpha)
    # Row c, step t is the stream (seed, _LAMBDA_DOMAIN, c)'s normal t, all drawn as one array.
    draws = NoiseStream(seed, _LAMBDA_DOMAIN).normal_grids(len(names), steps).tolist()
    trajectories: dict[str, list[float]] = {name: [] for name in names}
    for t in range(steps):
        for c, name in enumerate(names):
            error = bases[c] + sched.noise_std * draws[c][t]
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
