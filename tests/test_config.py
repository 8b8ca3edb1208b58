"""Config parsing: defaults, strict keys, named diagnostics."""

import json
from dataclasses import fields

import pytest

from tempocode import run_discrimination, run_lambda_convergence
from tempocode.config import (
    _SECTIONS,
    Config,
    ConfigError,
    ExperimentConfig,
    WorldConfig,
    config_from_dict,
    load_config,
)

# One bad value per table key, plus the malformed objects, each with the
# start of the message it must raise.
SINGLE_BAD_KEY = [
    ({"encoder": {"threshold": "0.1"}}, r"encoder\.threshold: expected a number"),
    ({"encoder": {"tau_base": True}}, r"encoder\.tau_base: expected a number"),
    ({"stdp": {"a_plus": None}}, r"stdp\.a_plus: expected a number, got None"),
    ({"stdp": {"a_minus": float("inf")}}, r"stdp\.a_minus: must be finite"),
    ({"stdp": {"tau_plus": 0}}, r"stdp\.tau_plus: must be > 0"),
    ({"stdp": {"tau_minus": -0.02}}, r"stdp\.tau_minus: must be > 0"),
    ({"stdp": {"clip": 0.0}}, r"stdp\.clip: must be > 0"),
    ({"stdp": {"w_max": 1.0}}, r"stdp\.w_max: unknown key"),
    ({"accumulator": {"alpha": -1}}, r"accumulator\.alpha: must be > 0"),
    ({"accumulator": {"initial_lambda": "half"}}, r"accumulator\.initial_lambda: expected a number"),
    ({"world": {"inter_contact_interval": [0.02]}}, r"world\.inter_contact_interval: expected a number"),
    ({"world": {"velocity": 0}}, r"world\.velocity: must be > 0"),
    ({"world": {"seed": -1}}, r"world\.seed: must be >= 0"),
    ({"world": {"seed": 4.0}}, r"world\.seed: expected an integer"),
    ({"world": {"objects": 5}}, r"world\.objects: expected a file path string"),
    ({"world": {"noise": 0.1}}, r"world\.noise: unknown key"),
    ({"experiment": {"n_train": 0}}, r"experiment\.n_train: must be >= 1"),
    ({"experiment": {"n_test": False}}, r"experiment\.n_test: expected an integer"),
    ({"experiment": {"sigma": -0.05}}, r"experiment\.sigma: must be >= 0"),
    ({"experiment": {"sigmas": 0.1}}, r"experiment\.sigmas: expected a non-empty list"),
    ({"experiment": {"sigmas": [0.1, None]}}, r"experiment\.sigmas\[1\]: expected a number"),
    ({"experiment": {"steps": 2.5}}, r"experiment\.steps: expected an integer"),
    ({"experiment": {"error_schedule": {"alpha": 0}}}, r"experiment\.error_schedule\.alpha: must be > 0"),
    ({"experiment": {"error_schedule": {"moderate": -0.1}}}, r"experiment\.error_schedule\.moderate: must lie"),
    ({"experiment": {"error_schedule": {"complex": 1.01}}}, r"experiment\.error_schedule\.complex: must lie"),
    ({"experiment": {"error_schedule": {"noise_std": -1}}}, r"experiment\.error_schedule\.noise_std: must be >= 0"),
    ({"experiment": {"error_schedule": [0.01]}}, r"experiment\.error_schedule: expected an object"),
    ({"stdp": [1.0]}, r"stdp: expected an object"),
    ({"encoder": None}, r"encoder: expected an object"),
    ([{"stdp": {}}], r"config root must be a JSON object"),
]


class TestDefaults:
    def test_empty_object_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg == Config()
        assert cfg.experiment.sigma == 0.05
        assert cfg.experiment.n_train == 50
        assert cfg.experiment.n_test == 200
        assert cfg.experiment.sigmas == (0.00, 0.05, 0.10, 0.20, 0.35, 0.50)
        assert cfg.experiment.steps == 300
        assert cfg.encoder.tau_base == 0.010
        assert cfg.encoder.sparsity_threshold == 0.1
        assert cfg.stdp.tau_plus == 0.020
        assert cfg.accumulator.alpha == 0.001
        assert cfg.world.inter_contact_interval == 0.020
        assert cfg.world.seed is None

    def test_none_path_gives_defaults(self):
        assert load_config(None) == Config()

    def test_partial_sections_merge_with_defaults(self):
        cfg = config_from_dict({"stdp": {"a_plus": 0.02}, "world": {"seed": 9}})
        assert cfg.stdp.a_plus == 0.02
        assert cfg.stdp.a_minus == 0.01
        assert cfg.world.seed == 9


class TestValidation:
    @pytest.mark.parametrize(
        "data,key",
        [
            ({"encoder": {"tau_base": 0}}, r"encoder\.tau_base"),
            ({"accumulator": {"initial_lambda": 1.5}}, r"accumulator\.initial_lambda"),
            ({"world": {"seed": "abc"}}, r"world\.seed"),
            ({"experiment": {"n_test": 0}}, r"experiment\.n_test"),
            ({"experiment": {"sigmas": []}}, r"experiment\.sigmas"),
            ({"experiment": {"sigmas": [0.1, -0.2]}}, r"experiment\.sigmas\[1\]"),
            ({"experiment": {"error_schedule": {"uniform": 2.0}}}, r"error_schedule\.uniform"),
            ({"experiment": {"error_schedule": {"bogus": 1.0}}}, r"error_schedule\.bogus"),
        ]
        + SINGLE_BAD_KEY
        + [
            ({"worl": {}}, "worl"),
            ({"stdp": {"tau_minuss": 1.0}}, r"stdp\.tau_minuss"),
            ({"stdp": {"tau_plus": -1}}, r"stdp\.tau_plus"),
            ({"world": {"inter_contact_interval": 0.005}}, r"world\.inter_contact_interval: must exceed"),
            ({"encoder": {"tau_base": 5e-324}}, r"encoder\.tau_base: must be >= 2\.2250738585072014e-308"),
            ({"encoder": {"tau_base": 2.225073858507201e-308}}, r"encoder\.tau_base: must be >= "),
        ],
    )
    def test_key_paths_in_errors(self, data, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)

    @pytest.mark.parametrize("text", ["{not json", None], ids=["bad-json", "missing"])
    def test_an_unreadable_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


class TestRoundTrip:
    def test_to_dict_reparses_identically(self):
        cfg = config_from_dict(
            {
                "encoder": {"tau_base": 0.008, "threshold": 0.15},
                "stdp": {"clip": 2.5},
                "world": {"seed": 123, "inter_contact_interval": 0.03},
                "experiment": {"n_train": 9, "sigmas": [0.0, 0.1], "error_schedule": {"alpha": 0.02}},
            }
        )
        again = config_from_dict(cfg.to_dict())
        assert again == cfg
        assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())

    def test_resolved_seed_chain(self):
        assert Config().resolved_seed() == 42
        assert Config().resolved_seed(7) == 7
        cfg = config_from_dict({"world": {"seed": 5}})
        assert cfg.resolved_seed() == 5
        assert cfg.resolved_seed(9) == 9


class TestSchemaTable:
    def test_table_fields_match_dataclass_fields(self):
        specs = [(Config, _SECTIONS)]
        while specs:
            cls, entries = specs.pop()
            assert [f.name for f in fields(cls)] == [name for _, name, _ in entries], cls.__name__
            specs.extend(check for _, _, check in entries if isinstance(check, tuple))

    def test_echo_keys_and_order(self):
        def leaves(obj, prefix=""):
            for key, value in obj.items():
                yield from leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]

        assert list(leaves(Config().to_dict())) == [
            "encoder.tau_base", "encoder.threshold",
            "stdp.a_plus", "stdp.a_minus", "stdp.tau_plus", "stdp.tau_minus", "stdp.clip",
            "accumulator.initial_lambda", "accumulator.alpha",
            "world.inter_contact_interval", "world.velocity", "world.seed", "world.objects",
            "experiment.n_train", "experiment.n_test", "experiment.sigma", "experiment.sigmas", "experiment.steps",
            "experiment.error_schedule.alpha", "experiment.error_schedule.uniform",
            "experiment.error_schedule.moderate", "experiment.error_schedule.complex",
            "experiment.error_schedule.noise_std",
        ]


class TestSeedRange:
    """Every seed source takes an integer in [0, 2**64), and an error names the source."""

    def test_bounds_accepted_from_every_source(self, monkeypatch):
        for seed in (0, 2**64 - 1):
            assert Config().resolved_seed(seed) == seed
            assert Config(world=WorldConfig(seed=seed)).resolved_seed() == seed
            assert config_from_dict({"world": {"seed": seed}}).resolved_seed() == seed
            monkeypatch.setenv("TEMPOCODE_SEED", str(seed))
            assert Config().resolved_seed() == seed

    @pytest.mark.parametrize(
        "seed,message",
        [(-1, "must be >= 0, got -1"), (2**64, r"must be < 2\*\*64"), (7.0, "expected an integer"),
         (True, "expected an integer")],
    )
    def test_override(self, seed, message):
        with pytest.raises(ConfigError, match=r"seed override \(--seed\): " + message):
            Config().resolved_seed(seed)

    @pytest.mark.parametrize("seed,message", [(-1, "must be >= 0"), (2**64 + 41, r"must be < 2\*\*64")])
    def test_world_seed(self, seed, message):
        with pytest.raises(ConfigError, match=r"world\.seed: " + message):
            Config(world=WorldConfig(seed=seed)).resolved_seed()
        with pytest.raises(ConfigError, match=r"world\.seed: " + message):
            config_from_dict({"world": {"seed": seed}})

    @pytest.mark.parametrize(
        "value,message",
        [("-1", "must be >= 0"), (str(2**64), r"must be < 2\*\*64"), ("seven", "expected an integer")],
    )
    def test_environment(self, monkeypatch, value, message):
        monkeypatch.setenv("TEMPOCODE_SEED", value)
        with pytest.raises(ConfigError, match=r"TEMPOCODE_SEED: " + message):
            Config().resolved_seed()

    def test_precedence(self, monkeypatch):
        monkeypatch.setenv("TEMPOCODE_SEED", "99")
        cfg = Config(world=WorldConfig(seed=5))
        assert cfg.resolved_seed(7) == 7
        assert cfg.resolved_seed() == 5
        assert Config().resolved_seed() == 99
        monkeypatch.setenv("TEMPOCODE_SEED", "-1")
        assert cfg.resolved_seed() == 5  # a source below the first one set is never read

    def test_library_honours_environment(self, monkeypatch):
        monkeypatch.setenv("TEMPOCODE_SEED", "99")
        cfg = Config(experiment=ExperimentConfig(steps=3))
        assert run_lambda_convergence(cfg).seed == 99
        assert run_lambda_convergence(cfg).to_csv() == run_lambda_convergence(cfg, seed=99).to_csv()

    def test_masked_aliases_rejected(self):
        # -1 and 2**64 - 1 used to give one run under two echoed seeds.
        with pytest.raises(ConfigError, match="--seed"):
            run_discrimination(seed=-1)
