"""Declarative run configuration: INI-style file with one section per
module, strict key checking, and command-line overrides. The effective
(post-override) values are echoed into artifact metadata and repositories."""

from __future__ import annotations

import configparser
import copy
import os
from pathlib import Path

from .distill import DistillConfig
from .errors import UsageError
from .merge import CoeffOptimConfig
from .model import TrainConfig

DEFAULTS: dict[str, dict] = {
    "adapter": {"rank": 16, "alpha": 16.0, "dropout": 0.1},
    "train": {"epochs": 100, "learning_rate": 0.01, "momentum": 0.9,
              "weight_decay": 5e-4, "batch_size": 64, "temperature": 0.07},
    "distill": {"iterations": 5000, "ipc": 20, "syn_lr": 1.0, "syn_lr_final": 0.1,
                "dsa": True, "eval_iterations": 1000, "init_from_real": False},
    "merge": {"max_iterations": 40, "init_value": 0.5, "l1_lambda": 0.05,
              "box_min": 0.0, "box_max": 2.0, "allow_negative": False},
    "run": {"seed": 0, "author": "anon"},
}

SEED_ENV_VAR = "FORGE_SEED"


def _coerce(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    if isinstance(default, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise UsageError(f"[{section}] {key}: expected a number, got {raw!r}") from exc
    return raw


class RunConfig:
    """All tunables, resolved from defaults, file, environment, and flags."""

    def __init__(self, values: dict[str, dict] | None = None):
        self.values = copy.deepcopy(DEFAULTS)
        if values:
            for section, entries in values.items():
                for key, value in entries.items():
                    self.set(section, key, value)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        parser = configparser.ConfigParser()
        config = cls()
        try:
            if not parser.read(path, encoding="utf-8"):
                raise UsageError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in DEFAULTS:
                    raise UsageError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    if key not in DEFAULTS[section]:
                        raise UsageError(f"unknown config key [{section}] {key}")
                    config.values[section][key] = _coerce(section, key, raw)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # no section header, a repeated key or section, a line without
            # "=", a bad "%" interpolation, or bytes that are not UTF-8
            raise UsageError(f"config file {path}: {exc}") from exc
        return config

    def set(self, section: str, key: str, value) -> None:
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise UsageError(f"unknown config key [{section}] {key}")
        self.values[section][key] = value

    def get(self, section: str, key: str):
        return self.values[section][key]

    def apply_env(self, env: dict | None = None) -> None:
        env = os.environ if env is None else env
        if SEED_ENV_VAR in env:
            try:
                self.values["run"]["seed"] = int(env[SEED_ENV_VAR])
            except ValueError as exc:
                raise UsageError(f"{SEED_ENV_VAR} must be an integer") from exc

    def effective(self) -> dict:
        return copy.deepcopy(self.values)

    # -- bridges to module configs ------------------------------------------

    def train_config(self, **overrides) -> TrainConfig:
        t, a = self.values["train"], self.values["adapter"]
        kwargs = dict(epochs=t["epochs"], learning_rate=t["learning_rate"],
                      momentum=t["momentum"], weight_decay=t["weight_decay"],
                      batch_size=t["batch_size"], rank=a["rank"], alpha=a["alpha"],
                      dropout_p=a["dropout"], temperature=t["temperature"])
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def distill_config(self, **overrides) -> DistillConfig:
        d, a, t = self.values["distill"], self.values["adapter"], self.values["train"]
        kwargs = dict(iterations=d["iterations"], ipc=d["ipc"], syn_lr=d["syn_lr"],
                      syn_lr_final=d["syn_lr_final"], dsa_enabled=d["dsa"],
                      eval_iterations=d["eval_iterations"],
                      init_from_real=d["init_from_real"],
                      rank=a["rank"], alpha=a["alpha"],
                      inner_lr=t["learning_rate"], inner_momentum=t["momentum"],
                      inner_weight_decay=t["weight_decay"],
                      temperature=t["temperature"])
        kwargs.update(overrides)
        return DistillConfig(**kwargs)

    def coeff_config(self, **overrides) -> CoeffOptimConfig:
        # the [merge] keys are CoeffOptimConfig's fields
        return CoeffOptimConfig(**{**self.values["merge"], **overrides})

    @property
    def seed(self) -> int:
        return int(self.values["run"]["seed"])

    @property
    def author(self) -> str:
        return str(self.values["run"]["author"])
