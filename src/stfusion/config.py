"""Run configuration: one JSON file per run, validated with field-path errors."""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .data import SynthSpec
from .errors import ConfigurationError
from .lab import TrainSchedule
from .model import TemplateConfig


@dataclass(frozen=True)
class DataConfig:
    spec: SynthSpec
    seed: int
    train_frac: float

    def __post_init__(self):
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigurationError(f"train_frac must lie in (0, 1), got {self.train_frac}")


@dataclass(frozen=True)
class SamplingConfig:
    count: int = 100
    seed: int = 0
    recalibrate_bn: bool = False

    def __post_init__(self):
        if self.count < 0:
            raise ConfigurationError(f"sampling count must be >= 0, got {self.count}")


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


_REQUIRED = object()


def _get(obj: dict, key: str, path: str, default=_REQUIRED):
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise ConfigurationError(f"missing config field: {path}{key}")
    return obj[key]


def _parse_template(obj: dict, path="template.") -> TemplateConfig:
    return TemplateConfig(
        num_blocks=_get(obj, "num_blocks", path),
        layers_per_block=_get(obj, "layers_per_block", path),
        growth_channels=_get(obj, "growth_channels", path),
        stem_channels=_get(obj, "stem_channels", path),
        clip_shape=tuple(_get(obj, "clip_shape", path)),
        num_classes=_get(obj, "num_classes", path),
        kernel_sizes=tuple(_get(obj, "kernel_sizes", path, [3, 3, 3])),
    )


def _parse_schedule(obj: dict, path="schedule.") -> TrainSchedule:
    return TrainSchedule(
        warmup_epochs=_get(obj, "warmup_epochs", path, 10),
        main_epochs=_get(obj, "main_epochs", path, 30),
        batch_size=_get(obj, "batch_size", path, 16),
        lr=_get(obj, "lr", path, 0.05),
        lr_decay_epochs=tuple(_get(obj, "lr_decay_epochs", path, [20])),
        lr_decay_factor=_get(obj, "lr_decay_factor", path, 0.1),
        seed=_get(obj, "seed", path, 0),
    )


def _parse_data(obj: dict, path="data.") -> DataConfig:
    spec = SynthSpec(
        mode=_get(obj, "mode", path),
        classes=_get(obj, "classes", path),
        clips_per_class=_get(obj, "clips_per_class", path),
        clip_shape=tuple(_get(obj, "clip_shape", path)),
        noise_sigma=_get(obj, "noise_sigma", path, 0.0),
    )
    return DataConfig(
        spec=spec,
        seed=_get(obj, "seed", path, 0),
        train_frac=_get(obj, "train_frac", path, 0.75),
    )


def parse_run_config(obj: dict) -> RunConfig:
    try:
        template = _parse_template(_get(obj, "template", ""))
        schedule = _parse_schedule(_get(obj, "schedule", ""))
        objective_obj = _get(obj, "objective", "", {})
        data = _parse_data(_get(obj, "data", ""))
        sampling_obj = _get(obj, "sampling", "", {})
        sampling = SamplingConfig(
            count=_get(sampling_obj, "count", "sampling.", 100),
            seed=_get(sampling_obj, "seed", "sampling.", 0),
            recalibrate_bn=_get(sampling_obj, "recalibrate_bn", "sampling.", False),
        )
        cfg = RunConfig(
            template=template,
            schedule=schedule,
            objective_k=_get(objective_obj, "k", "objective.", 1.0),
            data=data,
            sampling=sampling,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(str(exc)) from exc
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
