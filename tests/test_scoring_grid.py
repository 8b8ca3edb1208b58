"""Today's 3-neuron scoring grid at seed 42, pinned so that a change of scoring rule shows what it moves.

Two rules score the same test trials against the same STDP models
(``_train``, default config, 100 test trials per object):

* leading pair: each packet pair adds the model's weight on its (leading
  pre, leading post) synapse, as ``run_discrimination`` scores;
* all causal pairs: each packet pair adds the model's weights over every
  causally ordered (pre, post) synapse (``alignment_scores``), as the
  online loop scores.

Each trial picks the model of its highest summed score, ties to the lowest
index. The pinned counts are the trials per object that pick their own
model; the dense centroid's counts come from the same report. These are
today's values, defects included: ``short`` is never picked by either
temporal rule, while the dense baseline gets every ``short`` trial right at
sigma 0.05 (a length bias: training potentiates more packet pairs per
sweep of the 4-contact ``long``). The pins do not say the rules are right.
``PYTHONPATH=src python tests/test_scoring_grid.py`` prints the table.
"""

import dataclasses

import numpy as np
import pytest

from test_phase_reference import _long_short_pair
from tempocode.config import Config
from tempocode.encoding import encode_traversal
from tempocode.experiments import _TEST_PHASE, _best_models, _train, run_discrimination
from tempocode.inference import alignment_scores, left_sum
from tempocode.rng import NoiseStream
from tempocode.world import WorldParams, complexity_triple, discrimination_pair, generate_traversal

SEED = 42
N_TEST = 100
OBJECT_SETS = {"A/B": discrimination_pair, "long/short": _long_short_pair, "triple": complexity_triple}

#: (object set, sigma) -> own-model picks per object out of N_TEST: (all causal pairs, leading pair, dense).
PINNED = {
    ("A/B", 0.05): ((78, 98), (100, 100), (54, 47)),
    ("A/B", 0.35): ((34, 100), (82, 96), (54, 47)),
    ("long/short", 0.05): ((100, 0), (100, 0), (100, 100)),
    ("long/short", 0.35): ((100, 0), (100, 0), (75, 81)),
    ("triple", 0.05): ((14, 98, 47), (100, 0, 100), (100, 100, 100)),
    ("triple", 0.35): ((60, 56, 57), (92, 68, 88), (75, 57, 80)),
}


def _config():
    base = Config()
    return dataclasses.replace(base, experiment=dataclasses.replace(base.experiment, n_test=N_TEST))


def _all_pairs_correct(cfg, world, objs):
    models, _ = _train(cfg, SEED, world, objs)
    correct = []
    for o, obj in enumerate(objs):
        scores = []
        for stream in NoiseStream(SEED, _TEST_PHASE, o).children(N_TEST):
            packets = encode_traversal(generate_traversal(obj, world, stream), cfg.encoder)
            per_pair = [alignment_scores(prev, cur, models) for prev, cur in zip(packets, packets[1:])]
            scores.append(left_sum(np.array(per_pair).T))
        correct.append(int(np.count_nonzero(_best_models(np.array(scores)) == o)))
    return tuple(correct)


def grid_row(name, sigma):
    """(all causal pairs, leading pair, dense) own-model picks per object."""
    cfg, objs = _config(), OBJECT_SETS[name]()
    world = WorldParams(noise_sigma=sigma, inter_contact_interval=cfg.world.inter_contact_interval)
    report = run_discrimination(cfg, seed=SEED, sigma=sigma, objects=objs)
    leading = tuple(r.temporal_correct for r in report.per_object)
    dense = tuple(r.dense_correct for r in report.per_object)
    return _all_pairs_correct(cfg, world, objs), leading, dense


@pytest.mark.parametrize("name, sigma", sorted(PINNED))
def test_todays_scores(name, sigma):
    assert grid_row(name, sigma) == PINNED[(name, sigma)]


if __name__ == "__main__":
    print(f"{'object set, sigma':<20} {'all causal pairs':<18} {'leading pair':<18} {'dense':<18}")
    for name, sigma in PINNED:
        cells = (" / ".join(map(str, counts)) for counts in grid_row(name, sigma))
        print(f"{f'{name}, {sigma}':<20} " + " ".join(f"{cell:<18}" for cell in cells))
