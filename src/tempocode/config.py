"""Configuration: defaults, JSON loading, and strict validation.

Configs are plain JSON with five sections (encoder, stdp, accumulator,
world, experiment). Missing fields take the library defaults; unknown keys
are hard errors so typos cannot silently fall back to defaults. Every
validation failure names the offending key, e.g. ``stdp.tau_plus``.

The experiment section's ``error_schedule`` holds the calibrated per-object
base prediction errors, noise level, and learning rate for the memory-
coefficient convergence run (found once by grid search against the target
converged values 0.30 / 0.60 / 0.87 and frozen here).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .encoding import EncoderParams
from .types import StdpParams
from .world import DEFAULT_SEED

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
        if override is not None:
            return int(override)
        if self.world.seed is not None:
            return int(self.world.seed)
        return DEFAULT_SEED

    def to_dict(self) -> dict:
        """The effective config in the exact on-disk JSON schema."""
        return {
            "encoder": {
                "tau_base": self.encoder.tau_base,
                "threshold": self.encoder.sparsity_threshold,
            },
            "stdp": {
                "a_plus": self.stdp.a_plus,
                "a_minus": self.stdp.a_minus,
                "tau_plus": self.stdp.tau_plus,
                "tau_minus": self.stdp.tau_minus,
                "clip": self.stdp.w_max,
            },
            "accumulator": {
                "initial_lambda": self.accumulator.initial_lambda,
                "alpha": self.accumulator.alpha,
            },
            "world": {
                "inter_contact_interval": self.world.inter_contact_interval,
                "velocity": self.world.velocity,
                "seed": self.world.seed,
                "objects": self.world.objects,
            },
            "experiment": {
                "n_train": self.experiment.n_train,
                "n_test": self.experiment.n_test,
                "sigma": self.experiment.sigma,
                "sigmas": list(self.experiment.sigmas),
                "steps": self.experiment.steps,
                "error_schedule": {
                    "alpha": self.experiment.error_schedule.alpha,
                    "uniform": self.experiment.error_schedule.uniform,
                    "moderate": self.experiment.error_schedule.moderate,
                    "complex": self.experiment.error_schedule.complex,
                    "noise_std": self.experiment.error_schedule.noise_std,
                },
            },
        }


def _as_number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return value


def _positive(path: str, value) -> float:
    value = _as_number(path, value)
    if value <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {value}")
    return value


def _non_negative(path: str, value) -> float:
    value = _as_number(path, value)
    if value < 0.0:
        raise ConfigError(f"{path}: must be >= 0, got {value}")
    return value


def _as_int(path: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _unit_interval(path: str, value) -> float:
    value = _as_number(path, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{path}: must lie in [0, 1], got {value}")
    return value


def _section(data: dict, name: str) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    return dict(section)


def _reject_unknown(section: dict, name: str) -> None:
    if section:
        key = sorted(section)[0]
        raise ConfigError(f"{name}.{key}: unknown key")


def config_from_dict(data: dict) -> Config:
    """Build a validated Config from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"encoder", "stdp", "accumulator", "world", "experiment"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown section")

    enc = _section(data, "encoder")
    encoder = EncoderParams(
        tau_base=_positive("encoder.tau_base", enc.pop("tau_base", 0.010)),
        sparsity_threshold=_as_number("encoder.threshold", enc.pop("threshold", 0.1)),
    )
    _reject_unknown(enc, "encoder")

    st = _section(data, "stdp")
    clip = st.pop("clip", None)
    stdp = StdpParams(
        a_plus=_positive("stdp.a_plus", st.pop("a_plus", 0.01)),
        a_minus=_positive("stdp.a_minus", st.pop("a_minus", 0.01)),
        tau_plus=_positive("stdp.tau_plus", st.pop("tau_plus", 0.020)),
        tau_minus=_positive("stdp.tau_minus", st.pop("tau_minus", 0.020)),
        w_max=None if clip is None else _positive("stdp.clip", clip),
    )
    _reject_unknown(st, "stdp")

    acc = _section(data, "accumulator")
    accumulator = AccumulatorConfig(
        initial_lambda=_unit_interval("accumulator.initial_lambda", acc.pop("initial_lambda", 0.5)),
        alpha=_positive("accumulator.alpha", acc.pop("alpha", 0.001)),
    )
    _reject_unknown(acc, "accumulator")

    wd = _section(data, "world")
    seed = wd.pop("seed", None)
    if seed is not None:
        seed = _as_int("world.seed", seed, minimum=0)
    objects = wd.pop("objects", None)
    if objects is not None and not isinstance(objects, str):
        raise ConfigError(f"world.objects: expected a file path string, got {objects!r}")
    world = WorldConfig(
        inter_contact_interval=_positive("world.inter_contact_interval", wd.pop("inter_contact_interval", 0.020)),
        velocity=_positive("world.velocity", wd.pop("velocity", 1.0)),
        seed=seed,
        objects=objects,
    )
    _reject_unknown(wd, "world")

    exp = _section(data, "experiment")
    sigmas_raw = exp.pop("sigmas", list(DEFAULT_SIGMAS))
    if not isinstance(sigmas_raw, (list, tuple)) or not sigmas_raw:
        raise ConfigError("experiment.sigmas: expected a non-empty list of noise levels")
    sigmas = tuple(_non_negative(f"experiment.sigmas[{i}]", s) for i, s in enumerate(sigmas_raw))
    sched_raw = exp.pop("error_schedule", {})
    if not isinstance(sched_raw, dict):
        raise ConfigError("experiment.error_schedule: expected an object")
    sched_raw = dict(sched_raw)
    schedule = LambdaSchedule(
        alpha=_positive("experiment.error_schedule.alpha", sched_raw.pop("alpha", 0.01)),
        uniform=_unit_interval("experiment.error_schedule.uniform", sched_raw.pop("uniform", 0.573)),
        moderate=_unit_interval("experiment.error_schedule.moderate", sched_raw.pop("moderate", 0.464)),
        complex=_unit_interval("experiment.error_schedule.complex", sched_raw.pop("complex", 0.366)),
        noise_std=_non_negative("experiment.error_schedule.noise_std", sched_raw.pop("noise_std", 0.1)),
    )
    _reject_unknown(sched_raw, "experiment.error_schedule")
    experiment = ExperimentConfig(
        n_train=_as_int("experiment.n_train", exp.pop("n_train", 50), minimum=1),
        n_test=_as_int("experiment.n_test", exp.pop("n_test", 200), minimum=1),
        sigma=_non_negative("experiment.sigma", exp.pop("sigma", 0.05)),
        sigmas=sigmas,
        steps=_as_int("experiment.steps", exp.pop("steps", 300), minimum=1),
        error_schedule=schedule,
    )
    _reject_unknown(exp, "experiment")

    if world.inter_contact_interval <= encoder.tau_base:
        raise ConfigError(
            "world.inter_contact_interval: must exceed encoder.tau_base "
            f"({world.inter_contact_interval} <= {encoder.tau_base})"
        )

    return Config(encoder=encoder, stdp=stdp, accumulator=accumulator, world=world, experiment=experiment)


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
