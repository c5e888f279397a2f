"""Config parsing, strict key validation, batch scaling, and the
architecture hash."""

import glob
import os
import re

import pytest

import amcr
from amcr.config import (_SCHEMA, RunConfig, config_hash, default_config,
                         effective_batch, load_config)
from amcr.errors import ConfigError


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_present_and_typed():
    cfg = default_config()
    assert cfg.data_dataset_size == 2000
    assert cfg.model_stage_channels == (48, 96, 128)
    assert cfg.model_eca is True
    assert cfg.train_lr == 1e-4
    assert cfg.meta_mrn_lr == 1e-4
    assert cfg.pipeline_variant == "pcr"
    assert cfg.get("model", "prep") == "crop"


def test_load_overrides_listed_keys_only(tmp_path):
    path = write(tmp_path, """
[train]
epochs = 9
lr = 0.003

[model]
stage_channels = 8, 16
eca = off
""")
    cfg = load_config(path)
    assert cfg.train_epochs == 9
    assert cfg.train_lr == 0.003
    assert cfg.model_stage_channels == (8, 16)
    assert cfg.model_eca is False
    # untouched keys keep their defaults
    assert cfg.train_class_batch == 32


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[training]\nepochs = 3\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[train]\nepoch = 3\n"))


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[train]\nepochs = three\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[model]\neca = maybe\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[model]\nstage_channels = ,\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[pipeline]\nvariant = qcr\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[model]\nprep = stretch\n"))
    # gen-data writes PNM images, which hold 1 or 3 channels
    with pytest.raises(ConfigError, match="in_channels"):
        load_config(write(tmp_path, "[model]\nin_channels = 2\n"))


def test_semantic_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[train]\nlr = 0\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[data]\ncorrupt_fraction = 1.5\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[train]\nbatch_scale = -1\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


def test_malformed_ini_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "epochs = 3\nno section header"))


def test_replace_returns_new_config():
    cfg = default_config()
    out = cfg.replace("pipeline", "variant", "r")
    assert out.pipeline_variant == "r"
    assert cfg.pipeline_variant == "pcr"  # original untouched


def test_replace_parses_strings_and_validates():
    cfg = default_config()
    assert cfg.replace("train", "epochs", "7").train_epochs == 7
    assert cfg.replace("model", "eca", "off").model_eca is False
    with pytest.raises(ConfigError):
        cfg.replace("pipeline", "variant", "xyz")
    with pytest.raises(ConfigError):
        cfg.replace("train", "warmup", 3)


def test_effective_batch_scaling():
    assert effective_batch(32, 1.0) == 32
    assert effective_batch(32, 0.5) == 16
    assert effective_batch(64, 0.25) == 16
    assert effective_batch(32, 0.01) == 1   # floor at one
    assert effective_batch(32, 2.0) == 64
    assert effective_batch(10, 0.33) == 3


def test_config_hash_stable_and_arch_sensitive():
    a = default_config()
    b = default_config()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 32
    # architecture-shaping keys change the hash
    assert config_hash(a.replace("model", "stem_channels", 16)) != config_hash(a)
    assert config_hash(a.replace("model", "eca", False)) != config_hash(a)
    assert config_hash(a.replace("data", "image_height", 64)) != config_hash(a)
    # no checkpoint holds the reweighting network, so its width is not hashed
    assert config_hash(a.replace("meta", "mrn_hidden", 50)) == config_hash(a)
    assert config_hash(a.replace("model", "prep", "aab")) != config_hash(a)


def test_config_hash_ignores_training_knobs():
    a = default_config()
    same = (a.replace("train", "epochs", 99)
             .replace("train", "lr", 0.5)
             .replace("train", "seed", 123)
             .replace("meta", "mrn", True)
             .replace("data", "dataset_size", 50)
             .replace("pipeline", "variant", "r"))
    assert config_hash(same) == config_hash(a)


def test_getattr_raises_for_unknown():
    cfg = default_config()
    with pytest.raises(AttributeError):
        cfg.no_such_key


def test_every_config_key_is_read_outside_config():
    # a key that no module reads is a knob that does nothing
    package = os.path.dirname(amcr.__file__)
    source = ""
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) != "config.py":
            with open(path, encoding="utf-8") as fh:
                source += fh.read()
    unread = [f"{section}.{key}" for section, keys in _SCHEMA.items()
              for key in keys
              if not re.search(rf"\bcfg\.{section}_{key}\b", source)]
    assert unread == []
