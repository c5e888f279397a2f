"""End-to-end command-line workflow on a miniature dataset, plus the
documented exit-code contract."""

import csv
import os
import warnings

import numpy as np
import pytest

from amcr.checkpoint import load_checkpoint, save_checkpoint
from amcr.cli import main

CONFIG = """\
[data]
dataset_size = 60
image_height = 10
image_width = 10

[model]
stem_channels = 4
stage_channels = 4
head_width = 8
prep = crop
crop_side = 8

[train]
epochs = 1
class_batch = 8
reg_batch = 8
lr = 0.003

[meta]
meta_quota = 2

[pipeline]
variant = r
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One gen-data + train(r) + train-binary flow shared by the read-only
    tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(CONFIG)
    out = root / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train-binary", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_data_writes_manifest_and_images(workdir, capsys):
    cfg, out = workdir
    manifest = out / "data" / "manifest.csv"
    assert manifest.exists()
    rows = read_rows(manifest)
    assert rows[0] == ["id", "path", "score", "binary_label", "corrupted",
                      "split"]
    assert len(rows) == 61
    first_image = out / "data" / rows[1][1]
    assert first_image.exists()


def test_gen_data_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "data" / "manifest.csv"
    image = out / "data" / read_rows(manifest)[1][1]
    before = manifest.read_bytes(), image.read_bytes()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert (manifest.read_bytes(), image.read_bytes()) == before

    # a different seed produces different data
    assert main(["gen-data", "--config", str(cfg), "--out", str(out),
                 "--seed", "1"]) == 0
    assert manifest.read_bytes() != before[0]


def test_train_saves_regressor_checkpoint(workdir):
    cfg, out = workdir
    assert (out / "models" / "r_all.ckpt").exists()


def test_evaluate_writes_metrics_and_scatter(workdir, capsys):
    cfg, out = workdir
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "srocc=" in printed and "mse=" in printed
    metrics = read_rows(out / "metrics.csv")
    assert metrics[0] == ["mse", "mae", "srocc", "accuracy",
                         "accuracy_within_1", "n"]
    assert len(metrics) == 2
    scatter = read_rows(out / "scatter.csv")
    assert scatter[0] == ["prediction", "truth"]
    assert len(scatter) == 1 + int(metrics[1][5])
    for pred, truth in scatter[1:]:
        assert 0.0 <= float(pred) <= 10.0
        assert 0.0 <= float(truth) <= 10.0


def test_predict_scores_one_image(workdir, capsys):
    cfg, out = workdir
    manifest = read_rows(out / "data" / "manifest.csv")
    image_path = out / "data" / manifest[1][1]
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 str(image_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 10.0


def test_pseudo_split_writes_assignment(workdir, capsys):
    cfg, out = workdir
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pseudo-split", "--config", str(cfg), "--out",
                     str(out)]) == 0
    printed = capsys.readouterr().out
    assert "train0=" in printed
    rows = read_rows(out / "split.csv")
    assert rows[0] == ["id", "pseudo_label"]
    manifest = read_rows(out / "data" / "manifest.csv")
    expected = sum(1 for r in manifest[1:] if r[5] in ("train", "valid"))
    assert len(rows) - 1 == expected
    assert all(label in ("0", "1") for _, label in rows[1:])
    # the empty-branch warning fires exactly for the labels no train row got
    train_ids = {r[0] for r in manifest[1:] if r[5] == "train"}
    train_labels = {label for sid, label in rows[1:] if sid in train_ids}
    messages = {str(w.message) for w in caught}
    for k in ("0", "1"):
        warned = f"pseudo split left train{k} empty" in messages
        assert warned == (k not in train_labels), k


def test_report_segments_writes_ten_rows(workdir, capsys):
    cfg, out = workdir
    assert main(["report-segments", "--config", str(cfg), "--out",
                 str(out)]) == 0
    printed = capsys.readouterr().out
    assert "error_rate=" in printed
    rows = read_rows(out / "segments.csv")
    assert rows[0] == ["segment", "count", "correct_rate", "error_rate"]
    assert len(rows) == 11
    assert rows[1][0] == "0.0-1.0" and rows[10][0] == "9.0-10.0"


def test_ablate_single_cell(workdir, capsys):
    cfg, out = workdir
    assert main(["ablate", "--config", str(cfg), "--out", str(out),
                 "--variant", "r", "--mrn", "off"]) == 0
    printed = capsys.readouterr().out
    assert "srocc=" in printed
    rows = read_rows(out / "ablation.csv")
    assert rows[0][:4] == ["variant", "prep", "eca", "mrn"]
    assert len(rows) == 2
    assert rows[1][0] == "r" and rows[1][3] == "off"


def test_train_with_reweighting_enabled(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--mrn", "on"]) == 0
    assert (out / "models" / "r_all.ckpt").exists()


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_dependency_missing_manifest(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 5
    assert "gen-data first" in capsys.readouterr().err


def test_exit_code_dependency_missing_model(workdir, tmp_path, capsys):
    cfg, out = workdir
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(fresh)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--out", str(fresh)]) == 5
    assert "train first" in capsys.readouterr().err


def test_exit_code_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG + "\n[data]\ntypo_key = 1\n")
    # configparser rejects the duplicate section before our validation runs,
    # so use a clean file with one bad key instead
    cfg.write_text("[data]\ntypo_key = 1\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_exit_code_config_dataset_too_small(tmp_path, capsys):
    # dataset_size is a configuration value, so the failure is a config error
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\ndataset_size = 5\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2


def test_exit_code_data_empty_test_split(workdir, tmp_path, capsys):
    cfg, out = workdir
    fresh = tmp_path / "noTest"
    fresh.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(fresh)]) == 0
    manifest = fresh / "data" / "manifest.csv"
    rows = read_rows(manifest)
    rewritten = [rows[0]] + [r[:5] + ["train" if r[5] == "test" else r[5]]
                             for r in rows[1:]]
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rewritten)
    assert main(["evaluate", "--config", str(cfg), "--out", str(fresh)]) == 3
    assert "test split" in capsys.readouterr().err


def test_exit_code_config_hash_mismatch(workdir, tmp_path, capsys):
    cfg, out = workdir
    other = tmp_path / "other.ini"
    other.write_text(CONFIG.replace("head_width = 8", "head_width = 16"))
    assert main(["evaluate", "--config", str(other), "--out", str(out)]) == 2


def test_exit_code_format_truncated_checkpoint(workdir, tmp_path, capsys):
    cfg, out = workdir
    ckpt = out / "models" / "r_all.ckpt"
    blob = ckpt.read_bytes()
    try:
        ckpt.write_bytes(blob[: len(blob) // 2])
        assert main(["evaluate", "--config", str(cfg), "--out",
                     str(out)]) == 4
    finally:
        ckpt.write_bytes(blob)


def test_exit_code_config_incomplete_checkpoint(workdir, capsys):
    cfg, out = workdir
    ckpt = out / "models" / "r_all.ckpt"
    blob = ckpt.read_bytes()
    arrays, iteration, stored_hash = load_checkpoint(str(ckpt))
    dropped = sorted(k for k in arrays if k.startswith("p."))[0]
    del arrays[dropped]
    try:
        save_checkpoint(str(ckpt), arrays, iteration, stored_hash)
        assert main(["evaluate", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert "does not fit the configured architecture" in \
            capsys.readouterr().err
    finally:
        ckpt.write_bytes(blob)


def test_exit_code_unexpected_os_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 str(tmp_path / "missing.ppm")]) == 1
