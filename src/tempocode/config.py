"""Configuration: defaults, JSON loading, and strict validation.

Configs are plain JSON with five sections (encoder, stdp, accumulator,
world, experiment). The table ``_SECTIONS`` is the schema: it maps each
JSON key, in echo order, to a dataclass field and the :mod:`tempocode.types`
rule that checks it, and drives both parsing and :meth:`Config.to_dict`.
Defaults live only in the dataclass fields. Unknown keys are hard errors
so typos cannot silently fall back to defaults. :func:`_parse` raises a
rule's ``ValueError`` as a :class:`ConfigError` naming the key, e.g.
``stdp.tau_plus``. :meth:`Config.resolved_seed` is the one seed rule for
the library and the CLI alike.

The experiment section's ``error_schedule`` holds the calibrated per-object
base prediction errors, noise level, and learning rate for the memory-
coefficient convergence run (found once by grid search against the target
converged values 0.30 / 0.60 / 0.87 and frozen here).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .encoding import EncoderParams
from .types import StdpParams, _count, _non_negative, _number, _positive, _span, _unit_interval

DEFAULT_SEED = 42
DEFAULT_SIGMAS = (0.00, 0.05, 0.10, 0.20, 0.35, 0.50)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class AccumulatorConfig:
    initial_lambda: float = 0.5
    alpha: float = 0.001


@dataclass(frozen=True)
class WorldConfig:
    inter_contact_interval: float = 0.020
    velocity: float = 1.0
    seed: int | None = None
    objects: str | None = None


@dataclass(frozen=True)
class LambdaSchedule:
    """Calibrated drive for the memory-coefficient convergence experiment."""

    alpha: float = 0.01
    uniform: float = 0.573
    moderate: float = 0.464
    complex: float = 0.366
    noise_std: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    n_train: int = 50
    n_test: int = 200
    sigma: float = 0.05
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS
    steps: int = 300
    error_schedule: LambdaSchedule = field(default_factory=LambdaSchedule)


@dataclass(frozen=True)
class Config:
    encoder: EncoderParams = field(default_factory=EncoderParams)
    stdp: StdpParams = field(default_factory=StdpParams)
    accumulator: AccumulatorConfig = field(default_factory=AccumulatorConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def resolved_seed(self, override: int | None = None) -> int:
        """``override``, else ``world.seed``, else ``TEMPOCODE_SEED``, else
        :data:`DEFAULT_SEED`; the one used must be an integer in [0, 2**64)."""
        if override is not None:
            return _seed("seed override (--seed)", override)
        if self.world.seed is not None:
            return _seed("world.seed", self.world.seed)
        env = os.environ.get("TEMPOCODE_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"TEMPOCODE_SEED: expected an integer, got {env!r}") from None
        return _seed("TEMPOCODE_SEED", value)

    def to_dict(self) -> dict:
        """The effective config in the exact on-disk JSON schema."""
        return _echo(self, _SECTIONS)


def _checked(check, path: str, value, *args):
    """``check(path, value, *args)``, with its ``ValueError`` raised as a :class:`ConfigError`."""
    try:
        return check(path, value, *args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _seed(source: str, value) -> int:
    """SplitMix64 keys on 64 bits, so any other seed would alias one of them."""
    value = _checked(_count, source, value, 0)
    if value >= 2**64:
        raise ConfigError(f"{source}: must be < 2**64, got {value}")
    return value


def _noise_levels(path: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{path}: expected a non-empty list of noise levels")
    return tuple(_non_negative(f"{path}[{i}]", s) for i, s in enumerate(value))


def _file_path(path: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path}: expected a file path string, got {value!r}")
    return value


def _optional(check):
    """``check``, except that null stays None (the field's default)."""
    return lambda path, value: None if value is None else check(path, value)


# The JSON schema. A spec is ``(dataclass, entries)``; each entry is
# ``(JSON key, dataclass field, check)`` in echo order, where the check is a
# nested spec or ``check(path, value)``, which returns the field's value.
# ``world.velocity`` and ``accumulator.alpha`` are read by nothing, but every
# report echoes them.
_SECTIONS = (
    ("encoder", "encoder", (EncoderParams, (
        ("tau_base", "tau_base", _span),
        ("threshold", "sparsity_threshold", _number),
    ))),
    ("stdp", "stdp", (StdpParams, (
        ("a_plus", "a_plus", _positive),
        ("a_minus", "a_minus", _positive),
        ("tau_plus", "tau_plus", _positive),
        ("tau_minus", "tau_minus", _positive),
        ("clip", "w_max", _optional(_positive)),
    ))),
    ("accumulator", "accumulator", (AccumulatorConfig, (
        ("initial_lambda", "initial_lambda", _unit_interval),
        ("alpha", "alpha", _positive),
    ))),
    ("world", "world", (WorldConfig, (
        ("inter_contact_interval", "inter_contact_interval", _positive),
        ("velocity", "velocity", _positive),
        ("seed", "seed", _optional(_seed)),
        ("objects", "objects", _optional(_file_path)),
    ))),
    ("experiment", "experiment", (ExperimentConfig, (
        ("n_train", "n_train", partial(_count, minimum=1)),
        ("n_test", "n_test", partial(_count, minimum=1)),
        ("sigma", "sigma", _non_negative),
        ("sigmas", "sigmas", _noise_levels),
        ("steps", "steps", partial(_count, minimum=1)),
        ("error_schedule", "error_schedule", (LambdaSchedule, (
            ("alpha", "alpha", _positive),
            ("uniform", "uniform", _unit_interval),
            ("moderate", "moderate", _unit_interval),
            ("complex", "complex", _unit_interval),
            ("noise_std", "noise_std", _non_negative),
        ))),
    ))),
)


def _parse(path: str, data, spec):
    """Validate the JSON object ``data`` at ``path`` and build its dataclass."""
    cls, entries = spec
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    values = {}
    for key, name, check in entries:
        if key in data:
            args = (f"{path}.{key}", data[key])
            values[name] = _parse(*args, check) if isinstance(check, tuple) else _checked(check, *args)
    unknown = sorted(set(data).difference(key for key, _, _ in entries))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")
    return cls(**values)


def _echo(obj, entries) -> dict:
    """The JSON object of a dataclass built by :func:`_parse`."""
    out = {}
    for key, name, check in entries:
        value = getattr(obj, name)
        if isinstance(check, tuple):
            value = _echo(value, check[1])
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(data: dict) -> Config:
    """Build a validated Config from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {key for key, _, _ in _SECTIONS}
    for key in data:
        if key not in sections:
            raise ConfigError(f"{key}: unknown section")
    config = Config(**{name: _parse(key, data[key], spec) for key, name, spec in _SECTIONS if key in data})
    if config.world.inter_contact_interval <= config.encoder.tau_base:
        raise ConfigError(
            "world.inter_contact_interval: must exceed encoder.tau_base "
            f"({config.world.inter_contact_interval} <= {config.encoder.tau_base})"
        )
    return config


def load_config(path: str | Path | None) -> Config:
    """Load a config file; None gives all defaults."""
    if path is None:
        return Config()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
