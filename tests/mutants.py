"""Mutation gate: every fault in the table below must fail a test.

Run ``python tests/mutants.py``; it takes no arguments. It copies ``src/``,
``tests/`` and ``pyproject.toml`` (for pytest's settings) into a temporary
directory and first checks that the unmutated copy passes every test module
the table names. Then, for each entry, it applies the entry's exact text
replacement to its source file, runs the entry's test modules with
``python -m pytest -x -q`` and restores the file; a second copy lets two
entries run at once. It prints one line per mutant, in table order, and
exits 1 if any mutant survives, or if an entry's text is not found exactly
once, so that a refactor cannot quietly retire a mutant. A mutant counts as
killed only when a test fails: text that does not compile, a pytest error
and a run past the timeout each fail the gate too.

This is mutation analysis over a fixed list (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978): each entry is a fault that a past
change guarded against. It is a development script, not a test module, so
pytest does not collect it.
"""

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

#: (source file under src/tempocode, what the mutant does, exact text, its replacement, test modules that kill it)
MUTANTS = [
    ("stdp.py", "fancy-index += for np.add.at",
     "np.add.at(flat, index, increments)", "flat[index] += increments", "test_stdp"),
    ("stdp.py", "no finiteness check after a phase", "if not np.isfinite(weights).all():", "if False:", "test_stdp"),
    ("stdp.py", "no errstate on the w_max add",
     'with np.errstate(over="ignore"):  # the clip', "if True:  # the clip", "test_stdp"),
    ("stdp.py", "the scatter route taken under w_max", "if params.w_max is None:", "if True:", "test_stdp"),
    ("stdp.py", "no -0.0 fix-up in _increments", "window[dt == 0.0] = -0.0", "pass", "test_stdp"),
    ("stdp.py", "a fold block cut one slot short", "width = sizes.max()", "width = sizes.max() - 1", "test_stdp"),
    ("stdp.py", "a scaled dt on the scalar route",
     "np.divide(dt, np.where(potentiate, -params.tau_plus, params.tau_minus), out=",
     "(np.divide if mixed else np.multiply)(dt, np.where(potentiate, -params.tau_plus, params.tau_minus)"
     " if mixed else -1 / params.tau_plus, out=",
     "test_stdp"),
    ("stdp.py", "-tau_minus in the exponent",
     "-params.tau_plus, params.tau_minus)", "-params.tau_plus, -params.tau_minus)", "test_stdp"),
    ("stdp.py", "only a packet's first id checked",
     "(next(iter(packet.spikes)), next(reversed(packet.spikes)))", "(next(iter(packet.spikes)),)", "test_stdp"),
    ("stdp.py", "one clip per block, not per pair",
     "bounds = list(accumulate(sizes.ravel().tolist(), initial=0))", "bounds = [0, index.size]", "test_stdp"),
    ("stdp.py", "no errstate on the fold's dt",
     'with np.errstate(over="ignore", invalid="ignore"):  # the check below tells', "if True:  # the check below tells",
     "test_stdp"),
    ("stdp.py", "spike times of unpaired slots checked",
     "np.broadcast_to(t, valid.shape)[valid] for t in (pre, post)", "t for t in (pre, post)", "test_stdp"),
    ("stdp.py", "only a packet's last id checked",
     "(next(iter(packet.spikes)), next(reversed(packet.spikes)))", "(next(reversed(packet.spikes)),)", "test_stdp"),
    ("rng.py", "contiguous np.exp/np.log/np.cos in _libm",
     "return _in_place(ufunc, buf, n)", "return ufunc(buf[1 : n + 1])", "test_rng"),
    ("rng.py", "no pad slot in _in_place's call",
     "ufunc(buf[1 : n + 2], out=buf[: n + 1])", "ufunc(buf[1 : n + 1], out=buf[:n])", "test_rng"),
    ("rng.py", "the pad slot left as the buffer held it", "    buf[n + 1] = 1.0\n", "", "test_rng"),
    ("rng.py", "child keys from t, not t + 1",
     "np.arange(1, n + 1, dtype=np.uint64)", "np.arange(0, n, dtype=np.uint64)", "test_rng"),
    ("rng.py", "a family cache not keyed by shape",
     "if cache is None or cache[0] != shape:", "if cache is None:", "test_rng"),
    ("rng.py", "normal_grid returning a view", "[self._member].copy()", "[self._member]", "test_rng"),
    ("rng.py", "every child reading member 0", "child_seed, family, t", "child_seed, family, 0", "test_rng"),
    ("rng.py", "a wrong zero-u1 substitute",
     "np.copyto(log_inputs[:n], _TWO_POW_NEG53, where=", "np.copyto(log_inputs[:n], 2.0**-52, where=", "test_rng"),
    ("rng.py", "_normals' chain started without mixing the seeds",
     "h = _mix64_u64(seeds.copy())", "h = seeds.copy()", "test_rng"),
    ("rng.py", "the first chunk's cosines for every chunk",
     "np.multiply(u2, _TWO_PI, out=", "np.multiply(flat2[:n], _TWO_PI, out=", "test_rng"),
    ("rng.py", "the zero-u1 substitution in the first chunk only",
     "where=np.equal(u1, 0.0, out=zero[:n]))", "where=np.equal(u1, 0.0, out=zero[:n]) & (start == 0))", "test_rng"),
    ("rng.py", "normal_grids handing back a family's cached array that a sibling still reads",
     "    return _box_muller(*_unit_floats(states))",
     "    return _normals.__dict__.setdefault((seeds.tobytes(), *shape), _box_muller(*_unit_floats(states)))",
     "test_rng"),
    ("rng.py", "u1 and u2 swapped", "_box_muller(*_unit_floats(states))", "_box_muller(*_unit_floats(states)[::-1])",
     "test_rng"),
    ("encoding.py", "block-encoder ids re-sorted ascending",
     'return ranked.argsort(axis=-1, kind="stable" if tied else None)[..., :m]',
     'return np.sort(ranked.argsort(axis=-1, kind="stable" if tied else None)[..., :m], axis=-1)',
     "test_oracle"),
    ("encoding.py", "no stable fallback for fired ties",
     "tied = ((top[..., 1:] == top[..., :-1]) & (np.arange(1, m) < counts[..., None])).any()", "tied = False",
     "test_encoding"),
    ("encoding.py", "a span floor of > 0.0",
     "self.tau_base >= sys.float_info.min", "self.tau_base > 0.0", "test_encoding"),
    ("encoding.py", "a gap of exactly the span accepted",
     "if t - prev <= params.tau_base:", "if t - prev < params.tau_base:", "test_oracle"),
    ("encoding.py", "no errstate on the block encoder's times",
     'with np.errstate(over="ignore"):\n        spike_times', "if True:\n        spike_times", "test_oracle"),
    ("encoding.py", "a >= threshold in encode", "if x > threshold]", "if x >= threshold]", "test_encoding"),
    ("encoding.py", "ties in descending id in encode",
     "sorted(active, key=", "sorted(active[::-1], key=", "test_encoding"),
    ("encoding.py", "an offset table of (tau_base * r) / n",
     "tuple(tau_base * (r / n) for r in range(n))", "tuple(tau_base * r / n for r in range(n))", "test_encoding"),
    ("encoding.py", "no arrival check in encode", "if not math.isfinite(arrival):", "if False:", "test_encoding"),
    ("encoding.py", "an unstable sort in the block encoder", 'kind="stable"', 'kind="quicksort"', "test_oracle"),
    ("encoding.py", "a count that is not an integer truncated",
     "or not isinstance(count, numbers.Integral | None):", "or False:", "test_encoding"),
    ("encoding.py", "True counted as one neuron", "isinstance(count, bool) or ", "", "test_encoding"),
    ("encoding.py", "N = 2, k = 1 no longer ties",
     'log_comb = _log_factorial("n_total", n_total)', "log_comb = math.lgamma(n_total + 1.5)", "test_encoding"),
    ("experiments.py", "no gap check in training", "        _check_gaps(times, cfg.encoder)\n", "", "test_oracle"),
    ("experiments.py", "one-contact objects accepted again",
     "if len(obj.contacts) < 2:", "if len(obj.contacts) < 1:", "test_experiments"),
    ("experiments.py", "the last argmax leads a contact",
     "return block.argmax(axis=-1),", "return block.shape[-1] - 1 - block[..., ::-1].argmax(axis=-1),", "test_oracle"),
    ("experiments.py", "a >= threshold for the leading neuron",
     "block.max(axis=-1) > threshold", "block.max(axis=-1) >= threshold", "test_oracle"),
    ("experiments.py", "score ties go to the last model",
     "return np.where(np.isnan(scores), -np.inf, scores).argmax(",
     "return scores.shape[-1] - 1 - np.where(np.isnan(scores), -np.inf, scores)[..., ::-1].argmax(",
     "test_experiments"),
    ("experiments.py", "no NaN guard on the scores",
     "np.where(np.isnan(scores), -np.inf, scores).argmax(", "scores.argmax(", "test_experiments"),
    ("experiments.py", "classify_temporal checking the traversal against its own neuron count",
     "[model.weights.n for model in models]", "[traversal.features.shape[1]] * len(models)", "test_experiments"),
    ("experiments.py", "classify_temporal scoring a stack of its first model only",
     "np.stack([model.weights.w for model in models])", "np.stack([model.weights.w for model in models[:1]])",
     "test_experiments"),
    ("experiments.py", "pairs with a silent contact scored",
     "pairs = active[:, :-1] & active[:, 1:]", "pairs = np.ones_like(active[:, 1:])", "test_experiments"),
    ("world.py", "the feature block skipping its finiteness check",
     "if not np.isfinite(noisy).all():", "if False:", "test_world"),
    ("world.py", "the feature block's error path checking only its first trial",
     "for trial in noisy:", "for trial in noisy[:1]:", "test_world"),
    ("world.py", "the sigma-0 feature block adding noise", "if params.noise_sigma == 0.0:", "if False:", "test_world"),
    ("world.py", "SyntheticObject.contacts left as the caller's arrays",
     'object.__setattr__(self, "contacts", tuple(block))', 'object.__setattr__(self, "contacts", arrs)', "test_world"),
    ("world.py", "no read-only flag on an object's block", "block.flags.writeable = False", "pass", "test_world"),
    ("world.py", "zero-neuron contacts accepted", "if arrs[0].size == 0:", "if False:", "test_world"),
    ("world.py", "no read-only flag on a traversal's block", "noise.flags.writeable = False", "pass", "test_world"),
    ("world.py", "an objects file's label that is not a string stringified",
     "if not isinstance(label, str):", "if False:", "test_world"),
    ("world.py", "an objects file's true read as activation 1.0",
     "<= {int, float}", "<= {int, float, bool}", "test_world"),
    ("world.py", "generate_traversal skipping its block check",
     "if not (np.isfinite(values).all() and", "if False and (np.isfinite(values).all() and", "test_world"),
    ("types.py", "the public Traversal aliasing its caller's arrays",
     "tuple(zip(block, times))", "tuple(zip(rows, times))", "test_types"),
    ("types.py", "no read-only flag on a public Traversal's block",
     "block.flags.writeable = False", "pass", "test_types"),
    ("types.py", "a traversal of fewer neurons than its models accepted",
     "if traversal.features.shape[1] != n:", "if traversal.features.shape[1] > n:", "test_experiments"),
    ("types.py", "models that disagree on neuron count accepted",
     "if len(set(counts)) > 1:", "if False:", "test_experiments test_inference"),
    ("types.py", "an integer past the largest double left unmapped in as_features",
     "except OverflowError:", "except ZeroDivisionError:", "test_types test_encoding test_inference"),
    ("types.py", "writeable packet arrays",
     "ids.flags.writeable = times.flags.writeable = False", "pass", "test_types"),
    ("types.py", "no finiteness check in WeightMatrix", "if not np.all(np.isfinite(arr)):", "if False:", "test_stdp"),
    ("baseline.py", "dense_classify checking the traversal against its own neuron count",
     "[len(centroid) for _, centroid in centroids]", "[traversal.features.shape[1]] * len(centroids)", "test_baseline"),
    ("baseline.py", "a trial's contacts summed in reverse",
     "np.sum(block, axis=-2)", "np.sum(block[..., ::-1, :], axis=-2)", "test_oracle"),
    ("baseline.py", "contacts summed by an explicit left fold",
     "np.sum(block, axis=-2)", "np.add.accumulate(block, axis=-2)[..., -1, :]", "test_oracle"),
    ("baseline.py", "np.linalg.norm(...) ** 2 distances",
     "distances = ((np.asarray(totals)[..., None, :] - np.stack(centroids)) ** 2).sum(axis=-1)",
     "distances = np.linalg.norm(np.asarray(totals)[..., None, :] - np.stack(centroids), axis=-1) ** 2", "test_oracle"),
    ("baseline.py", "dense ties to the last centroid",
     "for _, centroid in centroids]).argmin(axis=-1)",
     "for _, centroid in centroids])[..., ::-1].argmin(axis=-1) * -1 + len(centroids) - 1",
     "test_oracle test_baseline"),
    ("baseline.py", "no dense-overflow check on the distances",
     "if not np.isfinite(distances).all():", "if False:", "test_experiments test_cli"),
    ("baseline.py", "no dense-overflow check on the centroids",
     "if not np.isfinite(centroid).all():", "if False:", "test_baseline"),
    ("baseline.py", "no errstate on the block sums",
     'with np.errstate(over="ignore", invalid="ignore"):  # a caller', "if True:  # a caller",
     "test_experiments test_baseline"),
    ("baseline.py", "no errstate on the class means",
     'with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects an overflow\n        centroids',
     "if True:\n        centroids", "test_baseline"),
    ("baseline.py", "no errstate on the distances",
     'with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects an overflow\n        dist',
     "if True:\n        dist", "test_experiments"),
    ("inference.py", "the loop scoring the models' live matrices",
     "_pair_scores(state.weight_stack,", "_pair_scores(np.stack([m.weights.w.reshape(-1) for m in state.models], 1),",
     "test_oracle"),
    ("inference.py", "a writable weight stack", "self.weight_stack.flags.writeable = False", "pass", "test_inference"),
    ("inference.py", "no reading-length check", "if reading.size != n:", "if False:", "test_inference"),
    ("inference.py", "no causal mask",
     "return index[(pre_times[:, None] < post_times).ravel()]", "return index", "test_inference"),
    ("inference.py", "no 0.0 added to left_sum's fold", "[..., -1] + 0.0", "[..., -1]", "test_experiments"),
    ("inference.py", "einsum folding a single model's column", "if stack.shape[1] == 1:", "if False:", "test_oracle"),
    ("inference.py", "alignment_score checking a missing packet's partner",
     "    if not (prev_packet and cur_packet):\n        return 0.0\n", "", "test_inference"),
    ("inference.py", "alignment_score checking no ids",
     "    _check_packet_ids(prev_packet, n)\n    _check_packet_ids(cur_packet, n)\n", "", "test_inference"),
    ("inference.py", "no contact-time check before the interval",
     "if t < state.prev_arrival:", "if False:", "test_inference"),
    ("inference.py", "no finiteness check of the contact time", "if not math.isfinite(t):", "if False:",
     "test_inference"),
    ("inference.py", "a pairwise sum for left_sum",
     "np.add.accumulate(terms, axis=-1)[..., -1]", "terms.sum(axis=-1)", "test_oracle"),
    ("inference.py", "scoring without the causal mask",
     "_causal_index(state.prev_active, active, n, times)", "_causal_index(state.prev_active, active, n)",
     "test_oracle"),
    ("inference.py", "touching packets left unmasked", "None if last_pre < arrival", "None if last_pre <= arrival",
     "test_oracle"),
    ("inference.py", "the mask bound from the first pre spike",
     "_offsets(encoder.tau_base, state.prev_values.size)[-1]", "_offsets(encoder.tau_base, state.prev_values.size)[0]",
     "test_oracle"),
    ("inference.py", "an all-active reading kept as the caller's array",
     "values = reading[active]", "values = reading if active.size == n else reading[active]", "test_oracle"),
    ("inference.py", "every step decoding at velocity 1",
     "_latency_params(float(velocity))", "_latency_params(1.0)", "test_inference"),
    ("inference.py", "no finite check in the log softmax",
     "if not np.logical_and.reduce(finite):", "if False:", "test_inference"),
    ("inference.py", "no class-count check of the step's evidence",
     "if state.evidence.n_classes != totals.size:", "if False:", "test_inference"),
    ("inference.py", "a >= threshold in the step's active set",
     "(reading > encoder.sparsity_threshold)", "(reading >= encoder.sparsity_threshold)", "test_oracle"),
    ("evidence.py", "no normalisation of the evidence", "if total > 0.0:", "if False:", "test_evidence"),
    ("evidence.py", "the old evidence mixed with 1 - lambda and the likelihood with lambda",
     "evidence *= 1.0 - self.lambdas\n        evidence += self.lambdas * self.evidence",
     "evidence *= self.lambdas\n        evidence += (1.0 - self.lambdas) * self.evidence", "test_evidence"),
    ("evidence.py", "the step's lambda nudged at class 0", "self._adapt(best, error)", "self._adapt(0, error)",
     "test_oracle"),
    ("evidence.py", "lambda nudged with the wrong sign", "(0.5 - error)", "(error - 0.5)", "test_evidence"),
    ("types.py", "a generated __eq__ and __hash__ on Traversal",
     "@dataclass(frozen=True, eq=False)\nclass Traversal:", "@dataclass(frozen=True)\nclass Traversal:", "test_types"),
    ("latency.py", "the trusted Displacement taken for an overflowing distance",
     "if math.isfinite(distance):", "if True:", "test_latency"),
    ("cli.py", "the text report printed for every --format",
     "sys.stdout.write(rendered[args.format])", 'sys.stdout.write(rendered["text"])', "test_cli"),
    ("cli.py", "a ValueError mapped to exit 2",
     "except ConfigError as exc:", "except (ConfigError, ValueError) as exc:", "test_cli"),
    ("cli.py", "the objects file not loaded before the run",
     "objects = _config_objects(config, command)", "objects = None", "test_cli"),
    ("cli.py", "an empty --features field dropped",
     'args.features.split(",")]', 'args.features.split(",") if part.strip()]', "test_cli"),
    ("cli.py", "a thread pool imported at start-up",
     "import argparse\n", "import argparse\nimport concurrent.futures\n", "test_cli"),
    ("config.py", "n_train may be 0",
     '("n_train", "n_train", partial(_as_int, minimum=1))',
     '("n_train", "n_train", partial(_as_int, minimum=0))', "test_config"),
    ("config.py", "an integer past the largest double left unmapped",
     "except OverflowError:\n        raise ConfigError", "except ZeroDivisionError:\n        raise ConfigError", "test_cli"),
]


#: Seconds one pytest run may take; the slowest entry took 12, run alone on 2 vCPUs.
_TIMEOUT_S = 300

#: What pytest's exit code says of a mutant: 0 all passed, 1 a test failed.
_VERDICTS = {0: "SURVIVED", 1: "killed", None: f"TIMED OUT after {_TIMEOUT_S} s"}


def _pytest(root: Path, modules) -> int | None:
    """pytest's exit code over ``modules`` in the copy at ``root``, stopping at the first failure; None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{m}.py" for m in modules)]
    try:
        return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _verdict(copies: queue.SimpleQueue, entry: tuple) -> str:
    """Whether the entry's mutant is killed, judged in a copy taken from ``copies`` and then given back."""
    path, _, old, new, named = entry
    root = copies.get()
    source = root / "src" / "tempocode" / path
    original = source.read_text()
    try:
        if original.count(old) != 1:
            return f"MISSING: its text occurs {original.count(old)} times"
        mutated = original.replace(old, new)
        try:
            compile(mutated, str(source), "exec")
        except SyntaxError as exc:
            return f"INVALID: the mutated text does not compile ({exc.msg})"
        source.write_text(mutated)
        code = _pytest(root, named.split())
        return _VERDICTS.get(code, f"ERROR: pytest exited {code}")
    finally:
        source.write_text(original)
        copies.put(root)


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        # Two copies, so that two mutants run at once.
        copies = queue.SimpleQueue()
        for k in range(2):
            root = Path(tmp) / str(k)
            for name in ("src", "tests"):
                shutil.copytree(repo / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(repo / "pyproject.toml", root)
            copies.put(root)
        if _pytest(root, sorted({m for *_, named in MUTANTS for m in named.split()})) != 0:
            print("the unmutated copy fails its tests: no mutant can be judged")
            return 1
        failures = 0
        with ThreadPoolExecutor(2) as pool:
            verdicts = pool.map(partial(_verdict, copies), MUTANTS)
            for (path, what, *_), verdict in zip(MUTANTS, verdicts):
                print(f"{path}: {what}: {verdict}", flush=True)
                failures += verdict != "killed"
        print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
