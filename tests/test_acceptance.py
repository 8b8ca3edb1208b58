"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them all): the two headline experiment tables, the lambda convergence
targets, the worked-example oracles, the STDP window, the evidence
invariants, the latency round trip, determinism, and code capacity.
"""

import math
import time
from dataclasses import astuple

import numpy as np
import pytest

from tempocode.baseline import dense_train
from tempocode.config import Config
from tempocode.encoding import code_capacity_bits, encode
from tempocode.evidence import EvidenceState
from tempocode.experiments import run_discrimination, run_lambda_convergence, run_noise_sweep
from tempocode.latency import decode_displacement
from tempocode.rng import NoiseStream
from tempocode.stdp import train_on_traversal
from tempocode.types import LatencyParams, SpikePacket, WeightMatrix
from tempocode.world import WorldParams, discrimination_pair, generate_traversal
from tempocode.encoding import encode_traversal


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def default_discrimination():
    t0 = time.monotonic()
    report = run_discrimination()
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def default_sweep():
    return run_noise_sweep()


def test_criterion_1_discrimination_table(default_discrimination):
    report, elapsed = default_discrimination
    assert report.n_train == 50 and report.n_test == 200 and report.sigma == 0.05
    ok = report.temporal_acc >= 0.99 and 0.44 <= report.dense_acc <= 0.58 and elapsed < 60.0
    _criterion(
        1,
        ok,
        f"temporal={report.temporal_acc:.1%} (>=99%), dense={report.dense_acc:.1%} (44..58%), "
        f"runtime={elapsed:.2f}s (<60s)",
    )


def test_criterion_2_noise_sweep_bands(default_sweep):
    report = default_sweep
    details = []
    ok = True
    for row in report.rows:
        if row.sigma <= 0.20:
            band_ok = row.temporal_acc >= 0.97
            band = ">=97%"
        elif row.sigma == 0.35:
            band_ok = 0.82 <= row.temporal_acc <= 0.97
            band = "82..97%"
        else:
            band_ok = 0.70 <= row.temporal_acc <= 0.90
            band = "70..90%"
        dense_ok = 0.42 <= row.dense_acc <= 0.58
        gap_ok = row.gap_pp >= 25.0
        ok = ok and band_ok and dense_ok and gap_ok
        ci = row.temporal_ci()
        details.append(
            f"s={row.sigma:g}: T={row.temporal_acc:.1%} ({band}) CI=[{ci[0]:.3f},{ci[1]:.3f}] "
            f"D={row.dense_acc:.1%} gap={row.gap_pp:+.1f}pp"
        )
    _criterion(2, ok, "; ".join(details))


def test_criterion_3_lambda_convergence():
    targets = {"uniform": 0.30, "moderate": 0.60, "complex": 0.87}
    report = run_lambda_convergence()
    ok = all(abs(report.converged[name] - target) <= 0.10 for name, target in targets.items())
    detail = ", ".join(f"{n}={report.converged[n]:.3f} (target {t}+-0.10)" for n, t in targets.items())
    for seed in range(10):
        c = run_lambda_convergence(seed=seed).converged
        ok = ok and c["uniform"] < c["moderate"] < c["complex"] and c["uniform"] < 0.5 < c["complex"]
    _criterion(3, ok, detail + "; ordering over 10 seeds")


def test_criterion_4_worked_example_oracle():
    obj_a, obj_b = discrimination_pair()

    centroids = dict(dense_train([(obj.label, obj.features[None]) for obj in (obj_a, obj_b)]))
    sums_equal = np.array_equal(centroids["A"], centroids["B"])
    sums_valued = np.allclose(centroids["A"], [1.2, 1.2, 1.2], atol=1e-12)
    first_a = encode(obj_a.contacts[0]).by_time()[0][0]
    first_b = encode(obj_b.contacts[0]).by_time()[0][0]
    ok = sums_equal and sums_valued and first_a == 0 and first_b == 2
    _criterion(
        4,
        ok,
        f"dense sums identical ({centroids['A'].tolist()}), first-firing neurons {first_a} vs {first_b}",
    )


def test_criterion_5_encoder_unit_vector():
    tau = 0.010
    packet = encode([0.2, 0.9, 0.1, 0.7])
    ok = (
        set(packet.spikes) == {1, 3, 0}
        and abs(packet.spikes[1] - 0.0) <= 1e-12
        and abs(packet.spikes[3] - tau / 3) <= 1e-12
        and abs(packet.spikes[0] - 2 * tau / 3) <= 1e-12
        and 2 not in packet.spikes
    )
    _criterion(5, ok, f"spikes={packet.by_time()}, neuron 2 silent")


def _weight_change(pre_time, post_time):
    """Synapse 0 -> 1 after one pair of one-spike packets at these times, from a zero matrix."""
    packets = [SpikePacket({0: 0.0}, arrival=pre_time), SpikePacket({1: 0.0}, arrival=post_time)]
    return float(train_on_traversal(WeightMatrix.zeros(2), packets).w[0, 1])


def test_criterion_6_stdp_window():
    a, tau = 0.01, 0.020
    at_tau = _weight_change(0.0, tau)
    value_ok = abs(at_tau - a * math.exp(-1.0)) <= 1e-12
    anti_ok = True
    decay_ok = True
    prev_mag = None
    for i in range(1, 51):
        dt = i * 0.1 * tau
        up = _weight_change(0.0, dt)
        down = _weight_change(dt, 0.0)
        anti_ok = anti_ok and up == -down
        if prev_mag is not None:
            decay_ok = decay_ok and abs(up) < prev_mag
        prev_mag = abs(up)
    decay_ok = decay_ok and abs(_weight_change(0.0, 100 * tau)) < 1e-40
    ok = value_ok and anti_ok and decay_ok
    _criterion(6, ok, f"dw(tau)={at_tau:.12f} vs A/e={a / math.e:.12f}; antisymmetry+decay on dt grid")


def test_criterion_7_evidence_invariants():
    rng = np.random.default_rng(123)
    state = EvidenceState(5, initial_lambda=0.5, alpha=0.02)
    ok = True
    for _ in range(100_000):
        if rng.random() < 0.5:
            state.update(rng.uniform(-15, 2, size=5))
        else:
            state.adapt_lambda(int(rng.integers(0, 5)), float(rng.random()))
        if not (
            np.all(state.evidence >= 0.0)
            and abs(state.evidence.sum() - 1.0) < 1e-12
            and np.all((state.lambdas >= 0.0) & (state.lambdas <= 1.0))
        ):
            ok = False
            break
    lam = 0.7
    lik = np.array([0.6, 0.3, 0.1])
    target = lik / lik.sum()
    conv = EvidenceState(3, initial_lambda=lam)
    conv.evidence[:] = [0.01, 0.01, 0.98]
    gap0 = np.abs(conv.evidence - target).max()
    for _ in range(100):
        conv.update(np.log(lik))
    geometric_ok = np.abs(conv.evidence - target).max() <= gap0 * lam**100 + 1e-13
    ok = ok and geometric_ok
    _criterion(7, ok, "simplex+lambda bounds over 1e5 ops; fixed-lambda geometric convergence")


def test_criterion_8_latency_round_trip():
    v_true, interval, theta = 1.5, 0.025, 0.7
    obj = discrimination_pair()[0]
    params = WorldParams(noise_sigma=0.0, inter_contact_interval=interval)
    trav = generate_traversal(obj, params, NoiseStream(3, 0, 0, 0))
    arrivals = [p.arrival for p in encode_traversal(trav)]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    truth = np.array([v_true * interval * math.cos(theta), v_true * interval * math.sin(theta), 0.0])
    exact_ok = all(
        np.allclose(astuple(decode_displacement(g, theta, LatencyParams(v_true))), truth, atol=1e-9)
        for g in gaps
    )
    mismatch_ok = True
    for c in (0.5, 2.0):
        for g in gaps:
            d = decode_displacement(g, theta, LatencyParams(c * v_true))
            mag = math.hypot(d.dx, d.dy, d.dz)
            mismatch_ok = mismatch_ok and abs(mag - c * v_true * interval) <= 1e-9 * c * v_true * interval
    ok = exact_ok and mismatch_ok
    _criterion(8, ok, "ground-truth recovery at exact velocity; linear scaling at c in {0.5, 2.0}")


def test_criterion_9_determinism():
    import dataclasses

    cfg = dataclasses.replace(
        Config(),
        experiment=dataclasses.replace(Config().experiment, n_train=10, n_test=25, sigmas=(0.0, 0.2), steps=60),
    )
    d1, d2 = run_discrimination(cfg, seed=5), run_discrimination(cfg, seed=5)
    s1, s2 = run_noise_sweep(cfg, seed=5), run_noise_sweep(cfg, seed=5)
    l1, l2 = run_lambda_convergence(cfg, seed=5), run_lambda_convergence(cfg, seed=5)
    rerun_ok = (
        d1.to_csv() == d2.to_csv()
        and d1.to_json() == d2.to_json()
        and s1.to_csv() == s2.to_csv()
        and s1.to_json() == s2.to_json()
        and l1.to_csv() == l2.to_csv()
        and l1.to_json() == l2.to_json()
    )
    _criterion(9, rerun_ok, "byte-identical CSV/JSON on rerun for all experiments")


def test_criterion_10_capacity_dominance():
    spot = code_capacity_bits(3, "ordered")
    spot_ok = abs(spot - 2.584962500721156) <= 1e-9
    # C(N,k) = N!/(k!(N-k)!) <= N!, with equality for 1 <= k < N only at
    # N=2, k=1, where both codes hold exactly 1 bit. Dominance is strict
    # everywhere else, by at least 1 bit (at N=3).
    tie_ordered = code_capacity_bits(2, "ordered")
    tie_unordered = code_capacity_bits(1, "unordered", n_total=2)
    tie_ok = abs(tie_ordered - tie_unordered) <= 1e-12
    violations = []
    for n in range(3, 17):
        ordered = code_capacity_bits(n, "ordered")
        for k in range(1, n):
            unordered = code_capacity_bits(k, "unordered", n_total=n)
            if not ordered > unordered:
                violations.append((n, k, ordered, unordered))
    ok = spot_ok and tie_ok and not violations
    detail = f"log2(3!)={spot:.9f}"
    if not tie_ok:
        detail += f"; N=2, k=1 should tie: {tie_ordered:.12f} vs {tie_unordered:.12f}"
    if violations:
        detail += "; dominance violations " + ", ".join(
            f"(N={n}, k={k}: {o:.6f} vs {u:.6f})" for n, k, o, u in violations
        )
    else:
        detail += "; strict dominance holds for 3<=N<=16, equality at N=2, k=1"
    _criterion(10, ok, detail)
