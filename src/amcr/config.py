"""Run configuration: flat INI-style files, strict key validation, and the
architecture hash stored in checkpoints.

A config file uses sections [data], [model], [train], [meta], [pipeline].
Every key has a typed default; unknown sections or keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from typing import Tuple

from .errors import ConfigError

_ON = {"on", "true", "yes", "1"}
_OFF = {"off", "false", "no", "0"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _ON:
        return True
    if low in _OFF:
        return False
    raise ConfigError(f"expected on/off value, got {raw!r}")


def _parse_int_tuple(raw: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}") from exc


# section -> key -> (type tag, default). The type tag drives parsing and the
# canonical rendering used by config_hash.
_SCHEMA = {
    "data": {
        "data_dir": ("str", "data"),
        "dataset_size": ("int", 2000),
        "image_height": ("int", 32),
        "image_width": ("int", 32),
        "corrupt_fraction": ("float", 0.0),
        "corrupt_kind": ("str", "score-shift"),
    },
    "model": {
        "in_channels": ("int", 3),
        "stem_channels": ("int", 24),
        "stage_channels": ("ints", (48, 96, 128)),
        "head_width": ("int", 448),
        "eca": ("bool", True),
        "prep": ("str", "crop"),
        "crop_side": ("int", 32),
        "square_side": ("int", 64),
        "pool_target": ("int", 0),
    },
    "train": {
        "seed": ("int", 0),
        "epochs": ("int", 4),
        "class_batch": ("int", 32),
        "reg_batch": ("int", 64),
        "batch_scale": ("float", 1.0),
        "lr": ("float", 1e-4),
        "weight_decay": ("float", 1e-4),
        "beta1": ("float", 0.98),
        "beta2": ("float", 0.999),
        "plateau_patience": ("int", 2),
        "plateau_factor": ("float", 0.5),
    },
    "meta": {
        "mrn": ("bool", False),
        "mrn_lr": ("float", 1e-4),
        "mrn_hidden": ("int", 100),
        "meta_batch": ("int", 32),
        "meta_quota": ("int", 20),
    },
    "pipeline": {
        "variant": ("str", "pcr"),
    },
}

_CHOICES = {
    ("data", "corrupt_kind"): ("score-shift", "label-flip"),
    # gen-data writes PNM images, which hold 1 or 3 channels
    ("model", "in_channels"): (1, 3),
    ("model", "prep"): ("crop", "resize", "aab"),
    ("pipeline", "variant"): ("r", "cr", "pcr"),
}

# Keys that determine the shapes and forward graph of what a checkpoint holds
# (the nets, never the reweighting network); their canonical rendering feeds
# config_hash so checkpoints refuse to load into a different architecture.
_HASH_KEYS = (
    ("data", "image_height"),
    ("data", "image_width"),
    ("model", "in_channels"),
    ("model", "stem_channels"),
    ("model", "stage_channels"),
    ("model", "head_width"),
    ("model", "eca"),
    ("model", "prep"),
    ("model", "crop_side"),
    ("model", "square_side"),
    ("model", "pool_target"),
)


def _parse_value(tag: str, raw: str):
    try:
        if tag == "int":
            return int(raw.strip())
        if tag == "float":
            return float(raw.strip())
        if tag == "bool":
            return _parse_bool(raw)
        if tag == "ints":
            return _parse_int_tuple(raw)
        return raw.strip()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {tag} value {raw!r}") from exc


def _render(tag: str, value) -> str:
    if tag == "ints":
        return ",".join(str(v) for v in value)
    if tag == "bool":
        return "on" if value else "off"
    if tag == "float":
        return repr(float(value))
    return str(value)


@dataclasses.dataclass
class RunConfig:
    """Validated bag of every tunable, keyed as ``section_key`` attributes."""

    values: dict

    def __getattr__(self, name: str):
        try:
            return self.__dict__["values"][name]
        except KeyError:
            raise AttributeError(name) from None

    def get(self, section: str, key: str):
        return self.values[f"{section}_{key}"]

    def replace(self, section: str, key: str, value) -> "RunConfig":
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        tag = _SCHEMA[section][key][0]
        if isinstance(value, str) and tag != "str":
            value = _parse_value(tag, value)
        choices = _CHOICES.get((section, key))
        if choices is not None and value not in choices:
            raise ConfigError(
                f"[{section}] {key} must be one of {choices}, got {value!r}"
            )
        fresh = dict(self.values)
        fresh[f"{section}_{key}"] = value
        return RunConfig(fresh)


def default_config() -> RunConfig:
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (_tag, default) in keys.items():
            values[f"{section}_{key}"] = default
    return RunConfig(values)


def load_config(path: str) -> RunConfig:
    """Parse an INI file against the schema.

    Unknown sections or keys raise ConfigError; missing ones keep defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = default_config()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            cfg = cfg.replace(section, key, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.data_image_height < 1 or cfg.data_image_width < 1:
        raise ConfigError("image dimensions must be positive")
    if cfg.train_lr <= 0 or cfg.meta_mrn_lr <= 0:
        raise ConfigError("learning rates must be positive")
    if not 0.0 <= cfg.data_corrupt_fraction <= 1.0:
        raise ConfigError("corrupt_fraction must lie in [0, 1]")
    if cfg.train_batch_scale <= 0:
        raise ConfigError("batch_scale must be positive")


def effective_batch(base: int, scale: float) -> int:
    """Apply the desk-scale batch multiplier, never dropping below 1."""
    return max(1, int(round(base * scale)))


def config_hash(cfg: RunConfig) -> bytes:
    """SHA-256 over the canonical rendering of architecture-shaping keys."""
    pieces = []
    for section, key in _HASH_KEYS:
        tag = _SCHEMA[section][key][0]
        pieces.append(f"{section}.{key}={_render(tag, cfg.get(section, key))}")
    blob = "\n".join(pieces).encode("utf-8")
    return hashlib.sha256(blob).digest()
