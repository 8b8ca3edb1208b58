"""In-memory span tracing of tempocode's public functions, applied from outside.

A :class:`Tracer` wraps functions and methods at every name a tempocode
module binds them to (``from .stdp import apply_packet_pair`` gives
``tempocode.inference`` its own binding), so callers hit the wrapper without
any change to the package. Each call records one span ``[name, start, end,
parent]``, where ``parent`` is the index of the enclosing span or -1. Work
counts are recorded at the same boundaries, before the span's clock starts,
so counting cost lands in the caller's self time and in the measured
tracing overhead, never in the layer being counted.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so children never
overlap and their durations simply add.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)


def merge_spans(into: list, spans) -> None:
    """Append another process's span list, re-basing its parent indices."""
    offset = len(into)
    for name, start, end, parent in spans:
        into.append([name, start, end, parent + offset if parent >= 0 else -1])


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_traversal(counts, args, kwargs) -> None:
    obj, params = _arg(args, kwargs, 0, "obj"), _arg(args, kwargs, 1, "params")
    counts["world.traversals"] += 1
    if params.noise_sigma > 0.0:
        counts["rng.draws"] += len(obj.contacts) * obj.n_neurons


def _count_lambda_draws(counts, args, kwargs) -> None:
    config = args[0] if args else kwargs.get("config")
    if config is None:
        import tempocode

        config = tempocode.Config()
    # One draw per object per step; the experiment adapts three objects.
    counts["rng.draws"] += 3 * config.experiment.steps


def _count_synapses(counts, args, kwargs) -> None:
    prev, cur = _arg(args, kwargs, 1, "prev_packet"), _arg(args, kwargs, 2, "cur_packet")
    include_self = args[4] if len(args) > 4 else kwargs.get("include_self_pairs", True)
    updates = len(prev) * len(cur)
    if not include_self:
        updates -= len(prev.spikes.keys() & cur.spikes.keys())
    counts["stdp.synapse_updates"] += updates


def _count_pairs_scored(counts, args, kwargs) -> None:
    prev, cur = _arg(args, kwargs, 0, "prev_packet"), _arg(args, kwargs, 1, "cur_packet")
    if prev is not None and cur is not None:
        counts["inference.pairs_scored"] += len(prev) * len(cur)


def _count_score_calls(counts, args, kwargs) -> None:
    counts["experiments.score_calls"] += len(_arg(args, kwargs, 1, "models"))


def _count_packets(counts, args, kwargs) -> None:
    counts["encoding.packets"] += 1


def _count_spikes(counts, result) -> None:
    counts["encoding.spikes"] += len(result)


# (module, attribute, span name, count before the call, count from the result).
# A dotted attribute names a method on a class of that module.
TARGETS = (
    ("tempocode.config", "load_config", "config.load_config", None, None),
    ("tempocode.experiments", "run_discrimination", "experiments.run_discrimination", None, None),
    ("tempocode.experiments", "run_lambda_convergence", "experiments.run_lambda_convergence", _count_lambda_draws, None),
    ("tempocode.experiments", "classify_temporal", "experiments.classify_temporal", _count_score_calls, None),
    ("tempocode.experiments", "DiscriminationReport.to_text", "experiments.render", None, None),
    ("tempocode.experiments", "DiscriminationReport.to_csv", "experiments.render", None, None),
    ("tempocode.experiments", "DiscriminationReport.to_json", "experiments.render", None, None),
    ("tempocode.experiments", "NoiseSweepReport.to_text", "experiments.render", None, None),
    ("tempocode.experiments", "NoiseSweepReport.to_csv", "experiments.render", None, None),
    ("tempocode.experiments", "NoiseSweepReport.to_json", "experiments.render", None, None),
    ("tempocode.experiments", "LambdaReport.to_text", "experiments.render", None, None),
    ("tempocode.experiments", "LambdaReport.to_csv", "experiments.render", None, None),
    ("tempocode.experiments", "LambdaReport.to_json", "experiments.render", None, None),
    ("tempocode.world", "generate_traversal", "world.generate_traversal", _count_traversal, None),
    ("tempocode.encoding", "encode_traversal", "encoding.encode_traversal", None, None),
    ("tempocode.encoding", "encode", "encoding.encode", _count_packets, _count_spikes),
    ("tempocode.stdp", "train_on_traversal", "stdp.train_on_traversal", None, None),
    ("tempocode.stdp", "apply_packet_pair", "stdp.apply_packet_pair", _count_synapses, None),
    ("tempocode.baseline", "dense_train", "baseline.dense_train", None, None),
    ("tempocode.baseline", "dense_classify", "baseline.dense_classify", None, None),
    ("tempocode.inference", "exploration_step", "inference.exploration_step", None, None),
    ("tempocode.inference", "alignment_score", "inference.alignment_score", _count_pairs_scored, None),
    ("tempocode.inference", "log_likelihoods_from_scores", "inference.log_likelihoods_from_scores", None, None),
    ("tempocode.evidence", "EvidenceState.update", "evidence.update", None, None),
    ("tempocode.evidence", "EvidenceState.adapt_lambda", "evidence.adapt_lambda", None, None),
    ("tempocode.latency", "decode_displacement", "latency.decode_displacement", None, None),
)


class Tracer:
    """Records spans and counts for wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper around ``fn`` that records a span named ``name``."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every tempocode binding of each target with a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "tempocode" or n.startswith("tempocode.")]
        for module_name, attr, span_name, before, after in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self.wrap(span_name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
