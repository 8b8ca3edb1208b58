"""Experiment runners: correctness, determinism, fairness, statistics."""

import dataclasses
import json

import numpy as np
import pytest

from tempocode.config import Config, config_from_dict
from tempocode.experiments import (
    classify_temporal,
    run_discrimination,
    run_lambda_convergence,
    run_noise_sweep,
    traversal_pathway_score,
    wilson_interval,
)
from tempocode.inference import ObjectModel, left_sum
from tempocode.types import SpikePacket, WeightMatrix
from tempocode.world import SyntheticObject, discrimination_pair


def _small_config(**experiment_overrides) -> Config:
    base = Config()
    experiment = dataclasses.replace(base.experiment, **experiment_overrides)
    return dataclasses.replace(base, experiment=experiment)


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

    def test_traversal_pathway_score_folds_left(self):
        packets = [SpikePacket({k: 0.0}, arrival=0.020 * k) for k in range(4)]
        w = WeightMatrix.zeros(4)
        w.w[0, 1], w.w[1, 2], w.w[2, 3] = self.VALUES
        model = ObjectModel("m", w)
        assert traversal_pathway_score(packets, model) == 0.0

    def test_classify_temporal_scores_like_traversal_pathway_score(self):
        packets = [SpikePacket({k % 3: 0.0, 3: 0.004}, arrival=0.020 * k) for k in range(5)]
        packets.insert(2, SpikePacket({}, arrival=0.030))
        models = [ObjectModel(str(s), WeightMatrix(np.random.default_rng(s).normal(size=(4, 4)))) for s in range(6)]
        scores = [traversal_pathway_score(packets, m) for m in models]
        assert classify_temporal(packets, models) == scores.index(max(scores))
        with pytest.raises(ValueError, match="out of range"):
            classify_temporal(packets, [ObjectModel("small", WeightMatrix.zeros(2))])


class TestDiscrimination:
    def test_rejects_duplicate_labels(self):
        obj_a, obj_b = discrimination_pair()
        twin = SyntheticObject("A", obj_b.contacts)
        with pytest.raises(ValueError, match="'A'"):
            run_discrimination(_small_config(n_train=2, n_test=2), objects=[obj_a, twin])

    def test_noiseless_single_trial(self):
        report = run_discrimination(_small_config(n_test=1), sigma=0.0)
        assert report.temporal_acc == 1.0
        assert report.dense_acc == 0.5  # identical centroids; ties go to object A

    def test_noiseless_dense_at_chance_temporal_perfect(self):
        report = run_discrimination(_small_config(n_test=50), sigma=0.0)
        assert report.temporal_acc == 1.0
        assert report.dense_acc == 0.5

    def test_rejects_untrained_config(self):
        with pytest.raises(ValueError):
            run_discrimination(_small_config(n_train=0))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            run_discrimination(sigma=-0.1)

    def test_reports_are_deterministic_bytes(self):
        cfg = _small_config(n_train=10, n_test=30)
        a = run_discrimination(cfg, seed=7)
        b = run_discrimination(cfg, seed=7)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_seed_changes_results(self):
        cfg = _small_config(n_train=10, n_test=30)
        a = run_discrimination(cfg, seed=7, sigma=0.5)
        b = run_discrimination(cfg, seed=8, sigma=0.5)
        assert a.to_csv() != b.to_csv()

    def test_parallel_equals_serial(self):
        cfg = _small_config(n_train=10, n_test=40)
        serial = run_discrimination(cfg, seed=3, sigma=0.3)
        parallel = run_discrimination(cfg, seed=3, sigma=0.3, parallel=True)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.to_json() == parallel.to_json()

    def test_config_echo_round_trips(self):
        report = run_discrimination(_small_config(n_train=5, n_test=5), seed=11)
        echoed = config_from_dict(report.config)
        assert echoed.world.seed == 11
        assert echoed.to_dict() == report.config

    def test_csv_schema(self):
        report = run_discrimination(_small_config(n_train=5, n_test=5))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "experiment,param,dense_acc,temporal_acc,gap_pp,ci_low,ci_high"
        assert len(lines) == 1 + 2 + 1  # header, per object, overall
        assert lines[-1].startswith("discrimination,overall,")

    def test_per_object_counts(self):
        report = run_discrimination(_small_config(n_train=5, n_test=8))
        assert [r.label for r in report.per_object] == ["A", "B"]
        assert all(r.n_test == 8 for r in report.per_object)
        assert report.total_tests == 16


class TestNoiseSweep:
    def test_grid_and_gap_signs(self):
        cfg = _small_config(n_train=20, n_test=50)
        report = run_noise_sweep(cfg, seed=42)
        assert [row.sigma for row in report.rows] == [0.00, 0.05, 0.10, 0.20, 0.35, 0.50]
        for row in report.rows:
            assert row.temporal_acc >= row.dense_acc

    def test_rows_use_independent_seeds(self):
        report = run_noise_sweep(_small_config(n_train=5, n_test=5), seed=1)
        seeds = [row.seed for row in report.rows]
        assert len(set(seeds)) == len(seeds)

    def test_deterministic(self):
        cfg = _small_config(n_train=5, n_test=10)
        assert run_noise_sweep(cfg, seed=2).to_json() == run_noise_sweep(cfg, seed=2).to_json()
        assert run_noise_sweep(cfg, seed=2).to_csv() == run_noise_sweep(cfg, seed=2).to_csv()

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

    def test_ordering_and_sides_over_ten_seeds(self):
        for seed in range(10):
            c = run_lambda_convergence(seed=seed).converged
            assert c["uniform"] < c["moderate"] < c["complex"]
            assert c["uniform"] < 0.5 < c["complex"]

    def test_trajectory_csv_schema(self):
        report = run_lambda_convergence(_small_config(steps=10), seed=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "step,object_type,lambda"
        assert len(lines) == 1 + 3 * 10
        step, name, lam = lines[1].split(",")
        assert (step, name) == ("1", "uniform")
        float(lam)

    def test_deterministic(self):
        assert run_lambda_convergence(seed=5).to_csv() == run_lambda_convergence(seed=5).to_csv()
        assert run_lambda_convergence(seed=5).to_json() == run_lambda_convergence(seed=5).to_json()


class TestFairness:
    def test_both_classifiers_see_identical_trials(self):
        # dense and temporal disagreement patterns must come from the same
        # noisy data: rerunning with the same seed reproduces both columns
        cfg = _small_config(n_train=10, n_test=25)
        r1 = run_discrimination(cfg, seed=6, sigma=0.4)
        r2 = run_discrimination(cfg, seed=6, sigma=0.4)
        for a, b in zip(r1.per_object, r2.per_object):
            assert (a.dense_correct, a.temporal_correct) == (b.dense_correct, b.temporal_correct)

    def test_json_report_carries_both_cis(self):
        data = json.loads(run_discrimination(_small_config(n_train=5, n_test=5)).to_json())
        overall = data["results"]["overall"]
        assert len(overall["dense_ci"]) == 2
        assert len(overall["temporal_ci"]) == 2
        assert overall["dense_ci"][0] <= overall["dense_acc"] <= overall["dense_ci"][1]
