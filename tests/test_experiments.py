"""Experiment runners: correctness, determinism, fairness, statistics."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import oracle
from tempocode import experiments, stdp
from tempocode.config import Config, config_from_dict
from tempocode.encoding import EncoderParams
from tempocode.experiments import (
    _pathway_scores,
    _temporal_picks,
    _train,
    classify_temporal,
    run_discrimination,
    run_lambda_convergence,
    run_noise_sweep,
    wilson_interval,
)
from tempocode.inference import ObjectModel, left_sum
from tempocode.types import Traversal, WeightMatrix
from tempocode.world import F_CURVED, F_EDGE, F_SMOOTH, SyntheticObject, WorldParams, discrimination_pair, load_objects


def _small_config(**experiment_overrides) -> Config:
    base = Config()
    experiment = dataclasses.replace(base.experiment, **experiment_overrides)
    return dataclasses.replace(base, experiment=experiment)


def _leading_pair_scores(rows, models, params) -> list[float]:
    """The oracle's scores: each model's weights on the leading pairs of the contacts ``rows``, folded left from 0.0."""
    packets = [oracle.encode(row, 0.020 * k, params) for k, row in enumerate(rows)]
    return [oracle.leading_score(model.weights.w.tolist(), packets) for model in models]


def _traversal(rows) -> Traversal:
    """A traversal of the contact ``rows``, 20 ms apart."""
    return Traversal(tuple((row, 0.020 * k) for k, row in enumerate(rows)))


@pytest.fixture(scope="module")
def small_report():
    """One small discrimination run, shared by the tests of its report's shape."""
    return run_discrimination(_small_config(n_train=5, n_test=8), seed=11)


class TestWilsonInterval:
    def test_against_quadratic_oracle(self):
        # independent oracle: the interval endpoints solve
        # (p_hat - p)^2 = z^2 p (1 - p) / n
        z = 1.959963984540054
        for successes, n in [(50, 100), (0, 20), (20, 20), (199, 200), (3, 7)]:
            p_hat = successes / n
            coeffs = [1 + z * z / n, -(2 * p_hat + z * z / n), p_hat * p_hat]
            roots = sorted(np.roots(coeffs).real)
            lo, hi = wilson_interval(successes, n)
            assert lo == pytest.approx(max(roots[0], 0.0), abs=1e-12)
            assert hi == pytest.approx(min(roots[1], 1.0), abs=1e-12)

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestLeftToRightSums:
    """Sums that reach a report are a plain left fold, whatever the interpreter's ``sum``."""

    VALUES = [1e16, 1.0, -1e16]  # a left fold gives 0.0; compensated summation gives 1.0

    def test_left_sum(self):
        assert left_sum(self.VALUES) == 0.0
        assert left_sum([]) == 0.0
        assert str(left_sum([-0.0])) == "0.0"

    def test_left_sum_matches_a_fold_from_zero_row_by_row(self):
        # Runs of -0.0 at the start, in the middle and filling a row, where a fold from 0.0 holds 0.0.
        rows = [[-0.0, -0.0, -0.0], [-0.0, 1e16, -1e16], [-0.0, 2.5, -2.5], [1e-300, -0.0, -1e-300]]
        expected = []
        for row in rows:
            total = 0.0
            for x in row:
                total += x
            expected.append(total)
        assert left_sum(np.array(rows)).tobytes() == np.array(expected).tobytes()
        assert left_sum(np.empty((3, 0))).tobytes() == np.zeros(3).tobytes()

    def test_pathway_scores_fold_left(self):
        w = WeightMatrix.zeros(4)
        w.w[0, 1], w.w[1, 2], w.w[2, 3] = self.VALUES
        leading, active = np.array([[0, 1, 2, 3]]), np.ones((1, 4), dtype=bool)
        assert _pathway_scores(leading, active, w.w[None])[0, 0] == 0.0
        # Folded left, "m" scores 0.0 and loses to 0.5; a compensated sum would give it 1.0.
        other = WeightMatrix.zeros(4)
        other.w[0, 1] = 0.5
        assert classify_temporal(_traversal(0.9 * np.eye(4)), [ObjectModel("other", other), ObjectModel("m", w)]) == 0

    @pytest.mark.parametrize("threshold", [0.1, 0.65])
    def test_classify_temporal_scores_the_leading_pairs(self, threshold):
        # Contact k leads with neuron k % 3 at 0.4 + 0.1 k and fires neuron 3 second; contact 2 is silent,
        # and at threshold 0.65 so are contacts 0 and 1.
        rows = [[0.0] * 4 if k == 2 else [(0.4 + 0.1 * k) * (j == k % 3) + 0.3 * (j == 3) for j in range(4)]
                for k in range(6)]
        models = [ObjectModel(str(s), WeightMatrix(np.random.default_rng(s).normal(size=(4, 4)))) for s in range(6)]
        params = EncoderParams(sparsity_threshold=threshold)
        scores = _leading_pair_scores(rows, models, params)
        assert classify_temporal(_traversal(rows), models, params) == scores.index(max(scores))

    def test_classify_temporal_never_picks_a_nan_score(self):
        nan_model = WeightMatrix.zeros(3)
        nan_model.w[0, 1], nan_model.w[1, 2] = np.inf, -np.inf  # inf + -inf: the score is NaN
        low, high = WeightMatrix.zeros(3), WeightMatrix.zeros(3)
        low.w[0, 1], high.w[0, 1] = -1.0, 1.0
        models = [ObjectModel(label, w) for label, w in (("nan", nan_model), ("low", low), ("high", high))]
        leading, active = np.array([[0, 1, 2]]), np.ones((1, 3), dtype=bool)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(_pathway_scores(leading, active, nan_model.w[None])[0, 0])
            assert classify_temporal(_traversal(0.9 * np.eye(3)), models) == 2
            assert classify_temporal(_traversal(0.9 * np.eye(3)), models[:1]) == 0  # no score beats -inf: model 0


class TestLeadingPairRule:
    """The experiments' score of a contact pair is w[leading neuron of the first, leading neuron of the second]."""

    def test_uses_first_firing_pair_only(self):
        rows = [[0.9, 0.0, 0.5], [0.0, 0.9, 0.5]]
        leading = WeightMatrix.zeros(3)
        leading.w[0, 1] = 1.0
        rest = WeightMatrix(np.full((3, 3), 5.0))
        rest.w[0, 1] = 0.0  # every other synapse of the pair favours "rest"
        assert classify_temporal(_traversal(rows), [ObjectModel("rest", rest), ObjectModel("leading", leading)]) == 1

    def test_silent_contacts_score_nothing(self):
        ones = ObjectModel("ones", WeightMatrix(np.ones((3, 3))))
        minus = ObjectModel("minus", WeightMatrix(-np.ones((3, 3))))
        leading, active = np.array([[0, 1, 2]]), np.array([[True, False, True]])
        assert _pathway_scores(leading, active, np.stack([ones.weights.w, minus.weights.w])).tolist() == [[0.0, 0.0]]
        rows = [[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [0.1, 0.1, 0.1]]  # 0.1 does not exceed the threshold
        assert classify_temporal(_traversal(rows), [minus, ones]) == 0  # a tie goes to the first model

    @pytest.mark.parametrize(
        "rows, sizes, message",
        [
            ([[0.9, 0.0, 0.0]] * 2, (4, 4), "the traversal has 3 neurons, but the object models have 4"),
            ([[0.9, 0.0, 0.0]] * 2, (2,), "the traversal has 3 neurons, but the object models have 2"),
            ([[0.9, 0.0, 0.0]] * 2, (3, 4), r"object models disagree on neuron count, got \[3, 4\]"),
            ([], (3,), "cannot classify an empty traversal"),
            ([[0.9, 0.0, 0.0]] * 2, (), "need at least one object model"),
        ],
        ids=["fewer-neurons", "more-neurons", "models-disagree", "empty-traversal", "no-models"],
    )
    def test_classify_temporal_rejects_a_trial_its_models_cannot_score(self, rows, sizes, message):
        # Once, a 3-neuron traversal's leading pairs silently scored 4-neuron models.
        models = [ObjectModel(str(n), WeightMatrix(np.ones((n, n)))) for n in sizes]
        with pytest.raises(ValueError, match=message):
            classify_temporal(_traversal(rows), models)

    def test_is_the_test_phase_pick_on_each_trial(self, monkeypatch):
        cfg = _small_config(n_train=5, n_test=40)
        seen = []

        def spy(block, weights, threshold):
            picks = _temporal_picks(block, weights, threshold)
            seen.append((block, weights, picks))
            return picks

        monkeypatch.setattr(experiments, "_temporal_picks", spy)
        run_discrimination(cfg, seed=3, sigma=0.5)
        monkeypatch.undo()
        assert len(seen) == 2
        assert {int(pick) for *_, picks in seen for pick in picks} == {0, 1}  # a wrong pick can show
        for block, weights, picks in seen:
            models = [ObjectModel(str(o), WeightMatrix(w)) for o, w in enumerate(weights)]
            for trial, pick in zip(block, picks):
                assert classify_temporal(_traversal(trial), models, cfg.encoder) == pick


class TestDiscrimination:
    def test_rejects_duplicate_labels(self):
        obj_a, obj_b = discrimination_pair()
        twin = SyntheticObject("A", obj_b.contacts)
        with pytest.raises(ValueError, match="'A'"):
            run_discrimination(_small_config(n_train=2, n_test=2), objects=[obj_a, twin])

    def test_rejects_mixed_dimensionality_in_either_order(self):
        three = discrimination_pair()[0]
        two = SyntheticObject("b", (np.array([0.9, 0.1]), np.array([0.1, 0.9])))
        cfg = _small_config(n_train=2, n_test=2)
        with pytest.raises(ValueError, match="object 'b' has 2 neurons but 'A' has 3"):
            run_discrimination(cfg, objects=[three, two])
        with pytest.raises(ValueError, match="object 'A' has 3 neurons but 'b' has 2"):
            run_discrimination(cfg, objects=[two, three])

    @pytest.mark.parametrize(
        "overrides, sigma, message",
        [({"n_test": 0}, 0.05, "n_test must be >= 1"), ({"n_train": 0}, 0.05, "n_train must be >= 1"),
         ({}, -0.1, "noise_sigma: must be >= 0"),
         ({}, math.inf, r"^noise_sigma: must be finite, got inf$"),
         ({}, math.nan, r"^noise_sigma: must be finite, got nan$"),
         # The noise level is checked first, as it was when run_discrimination checked it itself.
         ({"n_train": 0}, -0.1, r"^noise_sigma: must be >= 0, got -0.1$"),
         # The override reaches WorldParams as given: float() once ran "0.1" at 0.1 and True at 1.0.
         ({}, "0.1", r"^noise_sigma: expected a number, got '0.1'$"),
         ({}, True, r"^noise_sigma: expected a number, got True$")],
    )
    def test_rejects_an_empty_phase_or_a_negative_sigma(self, overrides, sigma, message):
        with pytest.raises(ValueError, match=message):
            run_discrimination(_small_config(**overrides), sigma=sigma)

    @pytest.mark.parametrize("count", [0, 1])
    def test_rejects_fewer_than_two_objects(self, count):
        # One object has nothing to be confused with: it scored 100%/100% with a [98.1%, 100%] interval.
        cfg = _small_config(n_train=2, n_test=2)
        objects = discrimination_pair()[:count]
        for run in (run_discrimination, run_noise_sweep):
            with pytest.raises(ValueError, match=f"at least two objects, got {count}: a lone object"):
                run(cfg, seed=1, objects=objects)

    @pytest.mark.parametrize("order", ["one first", "three first"])
    def test_rejects_a_one_contact_object_in_either_order(self, order):
        # A one-contact object never trains: its trials scored +0.0 against every model and the
        # tie went to model 0, so [one, three] reported 100% / 100% and [three, one] 100% / 0%.
        one, three = SyntheticObject("one", (F_SMOOTH,)), SyntheticObject("three", (F_SMOOTH, F_CURVED, F_EDGE))
        objects = [one, three] if order == "one first" else [three, one]
        cfg = _small_config(n_train=10, n_test=50)
        for run in (run_discrimination, run_noise_sweep):
            with pytest.raises(ValueError, match="object 'one' has 1 contact: discrimination needs at least two"):
                run(cfg, seed=1, objects=objects)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_rejects_a_one_object_file_that_load_objects_reads(self, tmp_path, as_list):
        obj = discrimination_pair()[0]
        entry = {"label": obj.label, "contacts": [c.tolist() for c in obj.contacts]}
        path = tmp_path / "objects.json"
        path.write_text(json.dumps([entry] if as_list else entry))
        assert [o.label for o in load_objects(path)] == ["A"]
        cfg = _small_config(n_train=2, n_test=2)
        cfg = dataclasses.replace(cfg, world=dataclasses.replace(cfg.world, objects=str(path)))
        for run in (run_discrimination, run_noise_sweep):
            with pytest.raises(ValueError, match="at least two objects, got 1"):
                run(cfg, seed=1)

    @pytest.mark.parametrize("n_test", [1, 50])
    def test_noiseless_dense_at_chance_temporal_perfect(self, n_test):
        report = run_discrimination(_small_config(n_test=n_test), sigma=0.0)
        assert (report.temporal_acc, report.dense_acc) == (1.0, 0.5)  # identical centroids; ties go to object A

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_noise_raises_without_a_warning(self):
        with pytest.raises(ValueError, match="feature vector contains non-finite activations"):
            run_discrimination(_small_config(n_train=2, n_test=2), seed=1, sigma=1e308)

    @pytest.mark.parametrize("cfg, seed, sigma, overflowing", [
        (Config(), 42, 1e200, "a distance to a centroid is not finite"),
        *((Config(), seed, 3e307, "the centroid of 'A' is not finite") for seed in (1, 2, 3)),
        # The one training sweep per object sums finitely; a test trial's sum does not.
        (_small_config(n_train=1, n_test=20), 1, 4e307, "a distance to a centroid is not finite"),
    ])
    def test_a_dense_baseline_that_overflows_gives_no_report(self, cfg, seed, sigma, overflowing):
        # Every distance used to be inf, with two warnings, and argmin gave every trial to
        # object A: dense 50%. A RuntimeWarning fails this test (pyproject's filter).
        with pytest.raises(ValueError) as info:
            run_discrimination(cfg, seed=seed, sigma=sigma)
        assert str(info.value) == f"noise sigma {sigma:g}: the dense baseline overflows: {overflowing}"

    def test_weights_that_overflow_give_no_report(self):
        # Every pair of the first object's one traversal adds about 1e308: scored, the
        # inf weights used to report A at 100% and B at 0%.
        cfg = _small_config(n_train=1)
        cfg = dataclasses.replace(cfg, stdp=dataclasses.replace(cfg.stdp, a_plus=1e308, tau_plus=1e6))
        with pytest.raises(ValueError) as info:
            run_discrimination(cfg, seed=1)
        assert str(info.value) == f"object 'A': {stdp._OVERFLOW}"

    def test_seed_changes_results(self):
        cfg = _small_config(n_train=10, n_test=30)
        a = run_discrimination(cfg, seed=7, sigma=0.5)
        b = run_discrimination(cfg, seed=8, sigma=0.5)
        assert a.to_csv() != b.to_csv()

    def test_config_echo_round_trips(self, small_report):
        echoed = config_from_dict(small_report.config)
        assert echoed.world.seed == 11
        assert echoed.to_dict() == small_report.config

    def test_csv_schema(self, small_report):
        lines = small_report.to_csv().strip().split("\n")
        assert lines[0] == "experiment,param,dense_acc,temporal_acc,gap_pp,ci_low,ci_high"
        assert len(lines) == 1 + 2 + 1  # header, per object, overall
        assert lines[-1].startswith("discrimination,overall,")

    def test_per_object_counts(self, small_report):
        assert [r.label for r in small_report.per_object] == ["A", "B"]
        assert all(r.n_test == 8 for r in small_report.per_object)
        assert small_report.overall.n_test == 16


def _sparse_objects(seed, n_objects, n_neurons=64, n_contacts=20, driven=24):
    rnd = random.Random(seed)
    shared = []
    for _ in range(n_contacts):
        vec = np.zeros(n_neurons)
        vec[rnd.sample(range(n_neurons), driven)] = [0.3 + 0.7 * rnd.random() for _ in range(driven)]
        shared.append(vec)
    return [SyntheticObject(f"p{o}", tuple(rnd.sample(shared, n_contacts))) for o in range(n_objects)]


@pytest.mark.parametrize("driven", [24, 64])
def test_the_training_working_set_stays_bounded(driven):
    # A dense (traversals, pairs, N, N) increment block of this phase alone takes 6.2 MB.
    cfg = _small_config(n_train=10)
    world = WorldParams(noise_sigma=0.1, inter_contact_interval=cfg.world.inter_contact_interval)
    objs = _sparse_objects(5, 1, driven=driven)
    _train(cfg, 1, world, objs)
    tracemalloc.start()
    try:
        _train(cfg, 1, world, objs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


class TestNoiseSweep:
    def test_loads_the_objects_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps(
            [{"label": o.label, "contacts": [c.tolist() for c in o.contacts]} for o in discrimination_pair()]
        ))
        cfg = _small_config(n_train=3, n_test=3)
        cfg = dataclasses.replace(cfg, world=dataclasses.replace(cfg.world, objects=str(path)))
        calls = []

        def counting_load(source):
            calls.append(source)
            return load_objects(source)

        monkeypatch.setattr("tempocode.experiments.load_objects", counting_load)
        report = run_noise_sweep(cfg, seed=3)
        assert len(report.rows) == 6
        assert len(calls) == 1
        explicit = run_noise_sweep(cfg, seed=3, objects=load_objects(path))
        assert len(calls) == 1
        for render in ("to_text", "to_csv", "to_json"):
            assert getattr(report, render)() == getattr(explicit, render)()

    def test_grid_and_gap_signs(self):
        cfg = _small_config(n_train=20, n_test=50)
        report = run_noise_sweep(cfg, seed=42)
        assert [row.sigma for row in report.rows] == [0.00, 0.05, 0.10, 0.20, 0.35, 0.50]
        for row in report.rows:
            assert row.temporal_acc >= row.dense_acc

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="sigmas must hold at least one noise level"):
            run_noise_sweep(_small_config(sigmas=()), seed=1)

    def test_rows_use_independent_seeds(self):
        report = run_noise_sweep(_small_config(n_train=5, n_test=5), seed=1)
        seeds = [row.seed for row in report.rows]
        assert len(set(seeds)) == len(seeds)

    def test_temporal_accuracy_trend_over_seeds(self):
        # means over 5 independent sweeps: accuracy does not increase with
        # noise beyond sampling wobble
        cfg = _small_config(n_train=20, n_test=50)
        sums = None
        n_seeds = 5
        for seed in range(n_seeds):
            accs = [row.temporal_acc for row in run_noise_sweep(cfg, seed=seed).rows]
            sums = accs if sums is None else [a + b for a, b in zip(sums, accs)]
        means = [s / n_seeds for s in sums]
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier + 0.03


class TestLambdaConvergence:
    def test_reports_trajectories_and_window_means(self):
        report = run_lambda_convergence(seed=0)
        assert report.steps == 300
        for name in ("uniform", "moderate", "complex"):
            assert len(report.trajectories[name]) == 300
            window = report.trajectories[name][-50:]
            assert report.converged[name] == pytest.approx(sum(window) / 50, abs=1e-15)

    def test_neutral_schedule_is_a_fixed_point(self):
        cfg = Config()
        schedule = dataclasses.replace(
            cfg.experiment.error_schedule, uniform=0.5, moderate=0.5, complex=0.5, noise_std=0.0
        )
        cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, error_schedule=schedule))
        report = run_lambda_convergence(cfg, seed=4)
        for name in ("uniform", "moderate", "complex"):
            assert report.converged[name] == 0.5

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_fewer_than_one_step(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            run_lambda_convergence(_small_config(steps=steps), seed=1)

    def test_trajectory_csv_schema(self):
        report = run_lambda_convergence(_small_config(steps=10), seed=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "step,object_type,lambda"
        assert len(lines) == 1 + 3 * 10
        step, name, lam = lines[1].split(",")
        assert (step, name) == ("1", "uniform")
        float(lam)


@pytest.mark.parametrize(
    "run",
    [lambda: run_discrimination(_small_config(n_train=10, n_test=30), seed=7),
     # Both classifiers' columns come from the same noisy trials, so a rerun reproduces both.
     lambda: run_discrimination(_small_config(n_train=10, n_test=25), seed=6, sigma=0.4),
     lambda: run_noise_sweep(_small_config(n_train=5, n_test=10), seed=2),
     lambda: run_lambda_convergence(seed=5)],
    ids=["discrimination", "discrimination-sigma0.4", "noise-sweep", "lambda-convergence"],
)
def test_a_rerun_renders_the_same_bytes(run):
    first, second = run(), run()
    assert [first.to_text(), first.to_csv(), first.to_json()] == [second.to_text(), second.to_csv(), second.to_json()]


class TestFairness:
    def test_json_report_carries_both_cis(self, small_report):
        data = json.loads(small_report.to_json())
        overall = data["results"]["overall"]
        assert len(overall["dense_ci"]) == 2
        assert len(overall["temporal_ci"]) == 2
        assert overall["dense_ci"][0] <= overall["dense_acc"] <= overall["dense_ci"][1]
