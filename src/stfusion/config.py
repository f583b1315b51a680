"""Run configuration: one JSON file per run, validated with field-path errors."""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace

from .data import SynthSpec
from .errors import ConfigurationError
from .lab import TrainSchedule
from .model import TemplateConfig


@dataclass(frozen=True)
class DataConfig:
    spec: SynthSpec
    seed: int = 0
    train_frac: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigurationError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.spec.clips_per_class < 2:  # the stratified split puts one clip of each class on each side
            raise ConfigurationError(f"clips_per_class must be >= 2, got {self.spec.clips_per_class}")


@dataclass(frozen=True)
class SamplingConfig:
    count: int = 100
    seed: int = 0
    recalibrate_bn: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError(f"sampling count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class RunConfig:
    template: TemplateConfig
    schedule: TrainSchedule
    objective_k: float
    data: DataConfig
    sampling: SamplingConfig

    def __post_init__(self):
        if self.objective_k <= 0:
            raise ConfigurationError(f"objective.k must be positive, got {self.objective_k}")


def _get(obj: dict, key: str, path: str, default=MISSING):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config section {path.rstrip('.')} must be a JSON object")
    if key not in obj:
        if default is not MISSING:
            return default
        raise ConfigurationError(f"missing config field: {path}{key}")
    return obj[key]


def _build(cls, obj: dict, path: str, **given):
    """Build dataclass `cls` from `obj`: `given` fields as passed, the rest read
    from `obj` by field name (absent keys take the field's default)."""
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        value = _get(obj, f.name, path, f.default)
        kwargs[f.name] = tuple(value) if f.type in ("tuple", tuple) else value
    return cls(**kwargs)


def parse_run_config(obj: dict) -> RunConfig:
    names = lambda *classes: {f.name for cls in classes for f in fields(cls)}
    sections = {  # the keys each section may set
        "template": names(TemplateConfig), "schedule": names(TrainSchedule), "objective": {"k"},
        "data": names(DataConfig, SynthSpec) - {"spec"}, "sampling": names(SamplingConfig),
    }
    try:
        template = _build(TemplateConfig, _get(obj, "template", ""), "template.")
        schedule = _build(TrainSchedule, _get(obj, "schedule", ""), "schedule.")
        objective_k = _get(_get(obj, "objective", "", {}), "k", "objective.", 1.0)
        data_obj = _get(obj, "data", "")
        data = _build(DataConfig, data_obj, "data.", spec=_build(SynthSpec, data_obj, "data."))
        sampling = _build(SamplingConfig, _get(obj, "sampling", "", {}), "sampling.")
        cfg = RunConfig(template, schedule, objective_k, data, sampling)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(str(exc)) from exc
    # every present section is a JSON object by now; read as absent, a misspelt key would take its default
    unknown = [key for key in obj if key not in sections] + [
        f"{key}.{name}" for key, known in sections.items() for name in obj.get(key, {}) if name not in known]
    if unknown:
        raise ConfigurationError(f"unknown config field: {unknown[0]}")
    if tuple(cfg.data.spec.clip_shape) != tuple(cfg.template.clip_shape):
        raise ConfigurationError(
            f"data.clip_shape {cfg.data.spec.clip_shape} differs from template.clip_shape {cfg.template.clip_shape}"
        )
    if cfg.data.spec.classes != cfg.template.num_classes:
        raise ConfigurationError(
            f"data.classes {cfg.data.spec.classes} differs from template.num_classes {cfg.template.num_classes}"
        )
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config file {path} must contain a JSON object")
    return parse_run_config(obj)


def override_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Apply a --seed override to the schedule, data, and sampling seeds."""
    return replace(
        cfg,
        schedule=replace(cfg.schedule, seed=seed),
        data=replace(cfg.data, seed=seed),
        sampling=replace(cfg.sampling, seed=seed),
    )
