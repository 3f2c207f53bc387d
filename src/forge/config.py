"""Declarative run configuration: INI-style file with one section per
module, strict key checking, and command-line overrides. Each key sets one
field of a module's config dataclass and defaults to that field's default.
The effective (post-override) values are echoed into artifact metadata and
repositories."""

from __future__ import annotations

import configparser
import copy
import dataclasses
import os
from pathlib import Path

from .distill import DistillConfig
from .errors import UsageError
from .merge import CoeffOptimConfig
from .model import TrainConfig

# section: (the dataclass whose fields its keys set, its keys). A key sets
# the field of its own name, or the one _RENAMED gives, and its default is
# that field's default. [merge] has a key for each CoeffOptimConfig field.
_SECTIONS = {
    "adapter": (TrainConfig, ("rank", "alpha", "dropout")),
    "train": (TrainConfig, ("epochs", "learning_rate", "momentum", "weight_decay",
                            "batch_size", "temperature")),
    "distill": (DistillConfig, ("iterations", "ipc", "syn_lr", "syn_lr_final", "dsa",
                                "eval_iterations", "init_from_real")),
    "merge": (CoeffOptimConfig, tuple(f.name for f in dataclasses.fields(CoeffOptimConfig))),
}
_RENAMED = {"dropout": "dropout_p", "dsa": "dsa_enabled"}
DEFAULTS: dict[str, dict] = {
    **{section: {key: getattr(cls, _RENAMED.get(key, key)) for key in keys}
       for section, (cls, keys) in _SECTIONS.items()},
    "run": {"seed": 0, "author": "anon"},
}

SEED_ENV_VAR = "FORGE_SEED"


# the configparser getter that reads a non-text key, by the type of the
# key's default, and what its error message says the value should be
_GETTERS = {bool: ("getboolean", "a boolean"), int: ("getint", "an integer"),
            float: ("getfloat", "a number")}


class RunConfig:
    """All tunables, resolved from defaults, file, environment, and flags."""

    def __init__(self):
        self.values = copy.deepcopy(DEFAULTS)
        self.given: set[tuple[str, str]] = set()  # (section, key) a file or flag set

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        # configparser would read a [DEFAULT] section into every other
        # section, or accept it alone and set nothing; a header line cannot
        # hold a newline, so under this name [DEFAULT] is an unknown section
        parser = configparser.ConfigParser(default_section="\n")
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
                    if isinstance(DEFAULTS[section][key], str):
                        config.set(section, key, raw)
                        continue
                    getter, expected = _GETTERS[type(DEFAULTS[section][key])]
                    try:
                        config.set(section, key, getattr(parser, getter)(section, key))
                    except ValueError as exc:
                        raise UsageError(f"[{section}] {key}: expected {expected}, "
                                         f"got {raw!r}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            # no section header, a repeated key or section, a line without
            # "=", a bad "%" interpolation, or bytes that are not UTF-8
            raise UsageError(f"config file {path}: {exc}") from exc
        return config

    def set(self, section: str, key: str, value) -> None:
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise UsageError(f"unknown config key [{section}] {key}")
        self.values[section][key] = value
        self.given.add((section, key))

    def get(self, section: str, key: str):
        return self.values[section][key]

    def apply_env(self) -> None:
        if SEED_ENV_VAR in os.environ:
            try:
                self.values["run"]["seed"] = int(os.environ[SEED_ENV_VAR])
            except ValueError as exc:
                raise UsageError(f"{SEED_ENV_VAR} must be an integer") from exc

    def effective(self) -> dict:
        return copy.deepcopy(self.values)

    # -- bridges to module configs ------------------------------------------

    def _build(self, cls, sections: tuple[str, ...]):
        # cls from the keys of sections that set one of its fields
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{name: value for section in sections
                      for key, value in self.values[section].items()
                      if (name := _RENAMED.get(key, key)) in names})

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, ("adapter", "train"))

    def distill_config(self) -> DistillConfig:
        # [adapter] rank and alpha also shape distill's random feature extractor
        return self._build(DistillConfig, ("adapter", "distill"))

    def coeff_config(self) -> CoeffOptimConfig:
        return self._build(CoeffOptimConfig, ("merge",))

    @property
    def seed(self) -> int:
        return int(self.values["run"]["seed"])

    @property
    def author(self) -> str:
        return str(self.values["run"]["author"])
