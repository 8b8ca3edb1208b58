"""CLI behaviour: subcommands, exit codes, output files."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tempocode
from tempocode.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeCommand:
    @pytest.mark.parametrize(
        "argv, expected",
        [(["--features", "0.2,0.9,0.1,0.7"], [("1", 0.0), ("3", 0.003333), ("0", 0.006667)]),
         (["--features", "0.4,0.9", "--tau-base", "0.02", "--threshold", "0.5"], [("1", 0.0)]),
         (["--features", "0.0,0.05"], [])],
        ids=["docstring-example", "custom-params", "silent-packet"],
    )
    def test_examples(self, capsys, argv, expected):
        code, out, _ = _run(capsys, ["encode", *argv])
        assert (code, list(json.loads(out).items())) == (0, expected)

    def test_defaults_are_the_encoder_defaults(self, capsys):
        values = [0.05, 0.15, 0.3, 0.1, 0.12]
        code, out, _ = _run(capsys, ["encode", "--features", ",".join(map(str, values))])
        assert code == 0
        packet = tempocode.encode(values, tempocode.EncoderParams())
        assert out == json.dumps({str(nid): round(t, 6) for nid, t in packet.by_time()}) + "\n"

    # An empty field once was dropped, so each value after it went to the neuron before its own.
    @pytest.mark.parametrize(
        "features", ["0.2,abc", "0.9,,0.5", "0.9,0.5,"], ids=["word", "empty-field", "trailing-comma"]
    )
    def test_bad_features_exit_2(self, capsys, features):
        code, out, err = _run(capsys, ["encode", "--features", features])
        assert (code, out) == (2, "")
        assert err == f"config error: --features must be comma-separated numbers, got {features!r}\n"


class TestCapacityCommand:
    @pytest.mark.parametrize(
        "argv, expected",
        [(["--n", "3"], "ordered: 2.585 bits\n"), (["--n", "10", "--k", "3"], "ordered: 21.791 bits\nunordered: 6.907 bits\n")],
        ids=["ordered", "with-unordered"],
    )
    def test_examples(self, capsys, argv, expected):
        assert _run(capsys, ["capacity", *argv])[:2] == (0, expected)

    def test_invalid_n_exit_2(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--n", "0"])
        assert (code, err) == (2, "config error: n_active: must be >= 1, got 0\n")

    def test_invalid_k_prints_no_partial_answer(self, capsys):
        code, out, err = _run(capsys, ["capacity", "--n", "3", "--k", "5"])
        assert (code, out) == (2, "")
        assert err == "config error: n_total=3 must be >= n_active=5\n"


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, code, stream, needle",
        [(["discriminate", "--bogus"], 2, "err", "usage"), (["transmogrify"], 2, "err", "invalid choice"),
         (["--help"], 0, "out", "discriminate")],
        ids=["unknown-flag", "unknown-command", "help"],
    )
    def test_exit_codes(self, capsys, argv, code, stream, needle):
        got, out, err = _run(capsys, argv)
        assert got == code
        assert needle in {"out": out, "err": err}[stream]


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "experiment": {
            "n_train": 5,
            "n_test": 10,
            "sigmas": [0.0, 0.1],
            "steps": 40,
        }
    }))
    return path


class TestExperimentCommands:
    def test_discriminate_text(self, capsys, tmp_path, small_config):
        code, out, err = _run(
            capsys,
            ["discriminate", "--config", str(small_config), "--seed", "42", "--out", str(tmp_path / "out")],
        )
        assert code == 0
        assert "traversal discrimination" in out
        assert "seed=42" in out
        run_dirs = list((tmp_path / "out" / "discriminate").iterdir())
        assert len(run_dirs) == 1
        names = {p.name for p in run_dirs[0].iterdir()}
        assert names == {"report.txt", "report.csv", "report.json"}

    def test_json_format_echoes_effective_config(self, capsys, tmp_path, small_config):
        code, out, _ = _run(
            capsys,
            ["discriminate", "--config", str(small_config), "--seed", "5",
             "--out", str(tmp_path / "out"), "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["seed"] == 5
        assert data["config"]["experiment"]["n_train"] == 5
        assert data["config"]["world"]["seed"] == 5
        from tempocode.config import config_from_dict

        echoed = config_from_dict(data["config"])
        assert echoed.to_dict() == data["config"]

    def test_byte_identical_reruns(self, capsys, tmp_path, small_config):
        outs = []
        for sub in ("a", "b"):
            code, _, _ = _run(
                capsys,
                ["noise-sweep", "--config", str(small_config), "--seed", "1", "--out", str(tmp_path / sub)],
            )
            assert code == 0
            run_dir = next((tmp_path / sub / "noise-sweep").iterdir())
            outs.append({p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()})
        assert outs[0] == outs[1]

    def test_lambda_converge_csv_format(self, capsys, tmp_path, small_config):
        code, out, _ = _run(
            capsys,
            ["lambda-converge", "--config", str(small_config), "--seed", "3",
             "--out", str(tmp_path / "out"), "--format", "csv", "--plot"],
        )
        assert code == 0
        assert out.splitlines()[0] == "step,object_type,lambda"
        run_dir = next((tmp_path / "out" / "lambda-converge").iterdir())
        curves = {p.name for p in (run_dir / "curves").iterdir()}
        assert curves == {"lambda_uniform.dat", "lambda_moderate.dat", "lambda_complex.dat"}

# sha256 of every curve file that --plot writes at seed 42 with the default config.
_CURVE_DIGESTS = {
    "discriminate": {
        "dense_accuracy.dat": "f2c4b00ed5c6fddbd3777d16299aabeeb2bacddf4575f311fbef4bba3d79a9d9",
        "temporal_accuracy.dat": "a638b767957b735d15cd3804a37c55e99f1b0bd52ab66d7663e062936859ad9b",
    },
    "noise-sweep": {
        "dense_accuracy.dat": "e052cf28e52eabddeaa546ac948261f12fb20b72e73e0f274a8b3b48a11ab9c9",
        "temporal_accuracy.dat": "266bc08beb5230a2cdb09cc570e138d48a82381560e57b2b6329a0abddf3ecba",
        "gap_pp.dat": "d5fb346737cb9e2c618c10e78a17bce31b4007c7a1ad3988e073907e5cf27b54",
    },
    "lambda-converge": {
        "lambda_uniform.dat": "1c15c7d00fd52498cb041385a2ec8c4dbd2ae3d34c1e47cb2e7d410a7c7baf04",
        "lambda_moderate.dat": "4ca91691da57f4a5d48723e980de14de148acd52a5f47de754a5e4bf02b3c80c",
        "lambda_complex.dat": "c091f4704573d8716f0eacdd44770c41e75ff19206bae4c1812e9411c53a7f16",
    },
}


class TestCurveBytes:
    """The curve files are pinned byte for byte, as the golden digests pin the reports."""

    @pytest.mark.parametrize("command", sorted(_CURVE_DIGESTS))
    def test_curves_match_pinned_digests(self, capsys, tmp_path, command):
        code, _, _ = _run(capsys, [command, "--seed", "42", "--out", str(tmp_path / "out"), "--plot"])
        assert code == 0
        curves = next((tmp_path / "out" / command).iterdir()) / "curves"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in curves.iterdir()}
        assert digests == _CURVE_DIGESTS[command]


class TestSeedResolution:
    @pytest.mark.parametrize(
        "sections, flag, expected",
        [({}, [], 99), ({}, ["--seed", "7"], 7), ({"world": {"seed": 31}}, [], 31)],
        ids=["env-var-fallback", "flag-beats-env", "config-seed-beats-env"],
    )
    def test_precedence(self, capsys, tmp_path, monkeypatch, sections, flag, expected):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**sections, "experiment": {"n_train": 3, "n_test": 4}}))
        monkeypatch.setenv("TEMPOCODE_SEED", "99")
        argv = ["discriminate", "--config", str(cfg_path), *flag, "--out", str(tmp_path / "out"), "--format", "json"]
        code, out, _ = _run(capsys, argv)
        assert (code, json.loads(out)["seed"]) == (0, expected)

    def test_bad_env_seed_exit_2(self, capsys, tmp_path, small_config, monkeypatch):
        monkeypatch.setenv("TEMPOCODE_SEED", "not-a-number")
        code, _, err = _run(capsys, ["discriminate", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "TEMPOCODE_SEED" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_exit_2(self, capsys, tmp_path, small_config, monkeypatch, seed):
        out_dir = tmp_path / "out"
        code, out, err = _run(capsys, ["lambda-converge", "--config", str(small_config), "--seed", seed,
                                       "--out", str(out_dir)])
        assert (code, out) == (2, "")
        assert "config error: seed override (--seed)" in err
        monkeypatch.setenv("TEMPOCODE_SEED", seed)
        code, out, err = _run(capsys, ["lambda-converge", "--config", str(small_config), "--out", str(out_dir)])
        assert (code, out) == (2, "")
        assert "config error: TEMPOCODE_SEED" in err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"world": {"seed": int(seed)}}))
        code, out, err = _run(capsys, ["lambda-converge", "--config", str(cfg_path), "--out", str(out_dir)])
        assert (code, out) == (2, "")
        assert "config error: world.seed" in err
        assert not out_dir.exists()


_A = {"label": "A", "contacts": [[0.9, 0.2, 0.1], [0.1, 0.2, 0.9]]}
_TOO_LARGE = 10**400  # a JSON integer of 401 digits, past the largest double


class TestExitCodesMeanWhatTheySay:
    @pytest.mark.parametrize(
        "objects, message, lambda_code",
        [
            ([_A, {"label": "A", "contacts": [[0.1, 0.2, 0.9], [0.9, 0.2, 0.1]]}],
             "object label 'A' is used by more than one object", 2),
            ([_A], "discrimination needs at least two objects, got 1", 0),
            ([_A, {"label": "B", "contacts": [[0.1, 0.2, 0.9]]}], "object 'B' has 1 contact", 0),
            ([{"label": "a", "contacts": [[], []]}, {"label": "b", "contacts": [[], []]}],
             "object 'a' has contacts of zero neurons", 2),
            ([_A, {"label": None, "contacts": [[0.1, 0.2, 0.9], [0.9, True, 0.1]]}],
             "object 1 of the file has label None; a label must be a string", 2),
            ([_A, {"label": "B", "contacts": [[0.1, 0.2, 0.9], [0.9, True, 0.1]]}],
             "object 'B' has contacts [[0.1, 0.2, 0.9], [0.9, True, 0.1]]; each contact must be a list of numbers", 2),
        ],
        ids=["duplicate-label", "one-object", "one-contact-object", "zero-neuron-contacts", "null-label",
             "boolean-activation"],
    )
    def test_a_bad_objects_file_exits_2(self, capsys, tmp_path, objects, message, lambda_code):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps(objects))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"world": {"objects": str(path)}, "experiment": {"n_train": 2, "n_test": 2}}))
        for command in ("discriminate", "noise-sweep"):
            code, out, err = _run(capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert (code, out) == (2, "")
            assert err.startswith(f"config error: world.objects: {message}")
        assert not (tmp_path / "out").exists()
        # lambda-converge reads the file's labels but runs no discrimination.
        code, _, _ = _run(capsys, ["lambda-converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == lambda_code

    @pytest.mark.parametrize(
        "text, needle",
        [('{"experiment": {"n_train": 0}}', "experiment.n_train"), ('{"stdp": {"tau_plus": -1}}', "stdp.tau_plus"),
         ('{"encoder": {"tau_base": 5e-324}}', "encoder.tau_base"), (None, "cannot read config file")],
        ids=["zero-n-train", "config-error", "subnormal-tau-base", "missing-config"],
    )
    def test_a_bad_config_exits_2(self, capsys, tmp_path, text, needle):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = _run(capsys, ["discriminate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert (code, out) == (2, "")
        assert err.startswith("config error") and needle in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "files, argv, message",
        [({"cfg.json": {"stdp": {"a_plus": _TOO_LARGE}}}, ["discriminate", "--config", "cfg.json"],
          "stdp.a_plus: must be finite"),
         ({"cfg.json": {"experiment": {"sigmas": [0.1, _TOO_LARGE]}}}, ["noise-sweep", "--config", "cfg.json"],
          "experiment.sigmas[1]: must be finite"),
         ({"cfg.json": {"world": {"objects": "objects.json"}},
           "objects.json": [_A, {"label": "B", "contacts": [[0.1, 0.2, _TOO_LARGE], [0.9, 0.2, 0.1]]}]},
          ["discriminate", "--config", "cfg.json"], "world.objects: contact vectors must be finite"),
         ({}, ["capacity", "--n", str(_TOO_LARGE)], "n_active is too large")],
        ids=["stdp-a-plus", "experiment-sigmas", "objects-contact", "capacity-n"],
    )
    def test_a_number_too_large_for_a_double_exits_2(self, capsys, tmp_path, monkeypatch, files, argv, message):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            Path(name).write_text(json.dumps(content))
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")
        assert not Path("out").exists()

    def test_weights_that_overflow_exit_1_with_no_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stdp": {"a_plus": 1e308, "tau_plus": 1e6}, "experiment": {"n_train": 1}}))
        code, out, err = _run(capsys, ["discriminate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err.startswith("error: object 'A': STDP weights overflowed")
        assert "stdp.a_plus" in err and "stdp.w_max" in err
        assert not (tmp_path / "out").exists()

    def test_a_dense_baseline_that_overflows_exits_1_with_no_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"sigma": 1e200}}))
        code, out, err = _run(capsys, ["discriminate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err.startswith("error: noise sigma 1e+200: the dense baseline overflows")
        assert not (tmp_path / "out").exists()

    def test_value_error_during_run_exit_1(self, capsys, tmp_path, small_config, monkeypatch):
        import tempocode.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "run_discrimination", broken)
        code, _, err = _run(
            capsys, ["discriminate", "--config", str(small_config), "--seed", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert err.startswith("error: internal failure")
        assert "config error" not in err


class TestRenderingAndStartup:
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("csv", "csv"), ("json", "json")])
    def test_stdout_is_the_written_report(self, capsys, tmp_path, small_config, fmt, suffix):
        code, out, _ = _run(
            capsys,
            ["discriminate", "--config", str(small_config), "--seed", "4",
             "--out", str(tmp_path / "out"), "--format", fmt],
        )
        assert code == 0
        run_dir = next((tmp_path / "out" / "discriminate").iterdir())
        assert out == (run_dir / f"report.{suffix}").read_text()

    @pytest.mark.parametrize(
        "argv, module",
        # Starting the CLI does not import the thread pool (``concurrent.futures`` and ``logging``),
        # and a discriminate run does not import ``numpy.ma``, as ``np.unique`` would.
        [(None, "concurrent.futures"), (["discriminate", "--seed", "42"], "numpy.ma")],
        ids=["import-leaves-thread-pool-unloaded", "discriminate-leaves-masked-arrays-unloaded"],
    )
    def test_startup_leaves_a_module_unloaded(self, tmp_path, argv, module):
        src = str(Path(tempocode.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = f"code = tempocode.cli.main({argv + ['--out', str(tmp_path)]!r})" if argv else "code = 0"
        probe = f"import sys, tempocode.cli\n{run}\nprint(code, {module!r} in sys.modules, file=sys.stderr)\n"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert result.stderr.splitlines()[-1] == "0 False"
