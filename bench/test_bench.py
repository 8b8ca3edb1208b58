"""Self-tests of the benchmark's own code: span arithmetic, golden check, inputs."""

import json
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads
from spans import Tracer, merge_spans, self_times
from workloads import Op, load_golden

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["a", 20.0, 22.0, -1],
    ]
    assert self_times(recorded) == {"a": 5.0, "b": 2.0, "c": 1.0, "d": 4.0}
    assert sum(self_times(recorded).values()) == 12.0  # total of the root spans


def test_merged_spans_keep_their_own_parents():
    merged = [["x", 0.0, 1.0, -1]]
    merge_spans(merged, [["a", 0.0, 4.0, -1], ["b", 1.0, 2.0, 0]])
    assert merged[2][3] == 1
    assert self_times(merged) == {"x": 1.0, "a": 3.0, "b": 1.0}


def test_tracer_nests_spans_at_caller_bindings_and_restores_them():
    tc = workloads.import_tempocode()
    original = tc.encoding.encode
    bindings = [(m, k) for m in sys.modules.values() if m.__name__.startswith("tempocode")
                for k, v in vars(m).items() if v is original]
    assert len(bindings) > 1
    trav = tc.Traversal(((tc.as_features([0.9, 0.2, 0.5]), 0.0), (tc.as_features([0.1, 0.8, 0.3]), 0.02)))
    with Tracer() as tracer:
        assert all(getattr(m, k) is not original for m, k in bindings)
        tc.encode_traversal(trav)
    assert all(getattr(m, k) is original for m, k in bindings)
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("encoding.encode_traversal", -1), ("encoding.encode", 0), ("encoding.encode", 0)]
    assert tracer.counts["encoding.spikes"] == 5 and tracer.counts["encoding.packets"] == 2


def test_corrupted_golden_file_raises_error_rate(tmp_path, monkeypatch):
    golden = load_golden()

    class Frozen:
        """Replays the frozen digests, as an unchanged program would."""

        def __init__(self, seed, workdir):
            self.seed = seed

        def op(self):
            return Op(0.0, dict(golden["scaled"][str(self.seed)]), 1)

    monkeypatch.setitem(worker.CLASSES, "scaled", Frozen)
    tally = worker.Tally()
    worker._check_golden("scaled", tmp_path, tally)
    assert tally.attempted == len(workloads.GOLDEN_SEEDS) and tally.failures == []

    corrupted = json.loads(json.dumps(golden))
    entry = corrupted["scaled"][str(workloads.GOLDEN_SEEDS[0])]
    entry["report.csv"] = ("0" if entry["report.csv"][0] != "0" else "1") + entry["report.csv"][1:]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(corrupted))
    monkeypatch.setattr(worker, "load_golden", lambda: load_golden(path))
    tally = worker.Tally()
    worker._check_golden("scaled", tmp_path, tally)
    assert len(tally.failures) == 1 and "report.csv" in tally.failures[0]
    assert len(tally.failures) / tally.attempted > 0


def test_missing_golden_seed_is_a_mismatch():
    assert workloads.golden_mismatches("scaled", 12345, {"report.txt": "x"}, {"scaled": {}}) == ["report.txt"]


@pytest.fixture
def small_scaled(monkeypatch):
    monkeypatch.setattr(workloads, "SCALED_N_TRAIN", 2)
    monkeypatch.setattr(workloads, "SCALED_N_TEST", 3)


def _metrics_for(seed):
    workload = workloads.Scaled(seed)
    untraced = workload.op()
    traced = [workload.op(Tracer()), workload.op(Tracer())]
    assert traced[0].counts == traced[1].counts  # exact counts repeat
    assert traced[0].digests == untraced.digests
    end_to_end = worker.measure(workload, [worker.summary(untraced)])[0]
    layers = worker.per_layer(traced, [untraced])
    return workload, end_to_end, layers


def test_seed_changes_inputs_but_not_metric_names(small_scaled):
    assert workloads.object_contacts(1, 4) == workloads.object_contacts(1, 4)
    assert workloads.object_contacts(1, 4) != workloads.object_contacts(2, 4)
    first, e2e_1, layers_1 = _metrics_for(1)
    second, e2e_2, layers_2 = _metrics_for(2)
    assert [o.contacts[0].tolist() for o in first.objects] != [o.contacts[0].tolist() for o in second.objects]
    assert e2e_1.keys() == e2e_2.keys() and layers_1.keys() == layers_2.keys()
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"} <= e2e_1.keys()
    assert {m["name"] for m in SPEC["per_layer"]} <= layers_1.keys()
    assert layers_1["inference.pairs_scored"] == 0 and layers_1["rng.draws"] > 0


def test_every_traced_span_name_is_reported():
    reported = {m["name"] for m in SPEC["per_layer"]}
    assert {f"{target[2]}.self_s" for target in spans.TARGETS} <= reported
