"""End-to-end command-line workflow on a miniature dataset, plus the
documented exit-code contract."""

import argparse
import csv
import os
import shutil
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import amcr
from amcr.checkpoint import load_checkpoint, save_checkpoint
from amcr.cli import (_load_model, _load_run_config, _parse_args, build_parser,
                      main)
from amcr.errors import warn
from amcr.metrics import collapse_warnings
from amcr.pnm import load_pnm, save_pnm

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


def test_gen_data_writes_the_manifest_once(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    calls = []
    save = amcr.data.save_manifest

    def recording(path, samples):
        calls.append([s.split for s in samples])
        save(path, samples)

    monkeypatch.setattr(amcr.data, "save_manifest", recording)
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert sorted(set(calls[0])) == ["test", "train", "valid"]


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


def test_evaluate_warns_on_collapse_outside_metrics(workdir, tmp_path, capsys):
    cfg, out = workdir
    run = tmp_path / "out"
    for sub in ("data", "models"):
        shutil.copytree(out / sub, run / sub)
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 0
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning: ")]
    scatter = read_rows(run / "scatter.csv")[1:]
    expected = collapse_warnings([float(p) for p, _ in scatter],
                                 [float(t) for _, t in scatter])
    assert warned == ["warning: " + m for m in expected]

    # the router is judged once, when it splits: a lopsided split.csv
    # changes neither what evaluate prints nor what it writes
    pcr = ["evaluate", "--config", str(cfg), "--out", str(run),
           "--variant", "pcr"]
    assert main(pcr) == 0
    before = (run / "metrics.csv").read_bytes(), capsys.readouterr().err
    manifest = read_rows(run / "data" / "manifest.csv")
    rows = [[r[0], "1"] for r in manifest[1:] if r[5] == "train"]
    with open(run / "split.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["id", "pseudo_label"]] + rows)
    assert main(pcr) == 0
    assert ((run / "metrics.csv").read_bytes(),
            capsys.readouterr().err) == before
    assert "router sent" not in before[1]


def test_predict_scores_one_image(workdir, capsys):
    cfg, out = workdir
    manifest = read_rows(out / "data" / "manifest.csv")
    image_path = out / "data" / manifest[1][1]
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 str(image_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 10.0


def test_predict_scores_several_images_in_one_call(workdir, tmp_path, capsys):
    cfg, out = workdir
    run = ["predict", "--config", str(cfg), "--out", str(out)]
    manifest = read_rows(out / "data" / "manifest.csv")
    paths = [str(out / "data" / row[1]) for row in manifest[1:3]]
    singles = ""
    for path in paths:
        assert main(run + [path]) == 0
        singles += capsys.readouterr().out
    assert main(run + paths) == 0
    assert capsys.readouterr().out == singles
    # every image is checked before anything is scored or printed
    gray = str(write_gray(tmp_path / "gray.pgm"))
    assert main(run + [paths[0], gray]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {gray}: a 1-channel image" in captured.err


def test_predict_prints_what_evaluate_scored(tmp_path, capsys):
    # both commands score through PipelineArtifacts.predict
    cfg, out = fresh_data(tmp_path)
    run = ["--config", str(cfg), "--out", str(out), "--variant", "pcr"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small branches may fall back
        assert main(["train"] + run) == 0
    assert main(["evaluate"] + run) == 0
    capsys.readouterr()
    manifest = read_rows(out / "data" / "manifest.csv")
    test_paths = [r[1] for r in manifest[1:] if r[5] == "test"]
    scatter = read_rows(out / "scatter.csv")[1:]
    assert len(scatter) == len(test_paths) > 0
    for path, (pred, _truth) in zip(test_paths, scatter):
        assert main(["predict"] + run + [str(out / "data" / path)]) == 0
        assert capsys.readouterr().out == f"{float(pred):.4f}\n"


def test_pcr_predict_loads_only_the_branch_it_routes_to(tmp_path, capsys,
                                                      monkeypatch):
    cfg, out = fresh_data(tmp_path)
    run = ["--config", str(cfg), "--out", str(out), "--variant", "pcr"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small branches may fall back
        assert main(["train"] + run) == 0
    models = out / "models"
    branches = [models / "r0.ckpt", models / "r1.ckpt"]
    trained = [path for path in branches if path.exists()]
    assert trained
    for path in branches:  # both branches on disk, whichever trained
        if not path.exists():
            shutil.copyfile(trained[0], path)
    loaded = []

    def recording(path, *args, **kwargs):
        loaded.append(os.path.basename(path))
        return load_checkpoint(path, *args, **kwargs)

    monkeypatch.setattr(amcr.cli, "load_checkpoint", recording)
    image = next((out / "data").rglob("*.ppm"))
    capsys.readouterr()
    assert main(["predict"] + run + [str(image)]) == 0
    assert len(loaded) == 3
    assert loaded[:2] == ["r_all.ckpt", "c2.ckpt"]
    assert loaded[2] in ("r0.ckpt", "r1.ckpt")


GRAY_CONFIG = CONFIG.replace("[model]\n", "[model]\nin_channels = 1\n")


def test_one_channel_config_runs_end_to_end(tmp_path):
    for name in ("gray", "color"):
        (tmp_path / name).mkdir()
    cfg, out = fresh_data(tmp_path / "gray", GRAY_CONFIG)
    _, color = fresh_data(tmp_path / "color")
    # the first, untinted channel of the same renders, with the same
    # scores, labels and splits
    rows = read_rows(out / "data" / "manifest.csv")
    color_rows = read_rows(color / "data" / "manifest.csv")
    assert [r[:1] + r[2:] for r in rows] == [r[:1] + r[2:] for r in color_rows]
    image = out / "data" / rows[1][1]
    assert image.suffix == ".pgm"
    gray_pixels = load_pnm(image)
    assert gray_pixels.shape[0] == 1
    np.testing.assert_array_equal(
        gray_pixels[0], load_pnm(color / "data" / color_rows[1][1])[0])
    run = ["--config", str(cfg), "--out", str(out)]
    assert main(["train"] + run) == 0
    assert main(["evaluate"] + run) == 0
    assert main(["predict"] + run + [str(image)]) == 0


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports this amcr, with the
    default warning filters: pytest records warnings in process, where no
    formatter runs and nothing prints."""
    src = os.path.dirname(os.path.dirname(amcr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=path))


def test_warnings_print_without_source_location(workdir):
    cfg, out = workdir
    proc = run_python("import sys; from amcr.cli import main; sys.exit(main())",
                      "pseudo-split", "--config", cfg, "--out", out)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("warning: router sent ")
            and line.endswith(" train samples to one branch")]
    assert not [line for line in lines if ".py:" in line]


def test_a_repeated_run_state_warning_prints_each_time(tmp_path):
    # at the quick start's seed 3 the router sends every train sample to
    # branch 1; a second identical train in the same process must say so
    # again, and again name the branch that fell back
    cfg = tmp_path / "run.ini"
    cfg.write_text(readme_quick_start_config())
    code = ("import sys; from amcr.cli import main\n"
            "run = sys.argv[1:]\n"
            "assert main(['gen-data'] + run) == 0\n"
            "assert main(['train'] + run) == 0\n"
            "assert main(['train'] + run) == 0\n")
    proc = run_python(code, "--config", cfg, "--out", tmp_path / "out",
                      "--seed", 3)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == 2 * [
        "warning: router sent 320 of 320 train samples to one branch",
        "warning: branch r0 has 0 samples, falling back to the all-data "
        "regressor"]


def test_run_state_warning_passes_the_filters_but_no_registry():
    # the same text from the same line is shown again under the default
    # filter, and a caller's ignore filter, by module too, still drops it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            warn("lopsided")
        warnings.filterwarnings("ignore", module=__name__)
        warn("lopsided")
    assert [(w.category, str(w.message), w.filename) for w in caught] == \
        2 * [(UserWarning, "lopsided", __file__)]


def test_overlapping_main_calls_restore_the_warning_format(monkeypatch):
    # two overlapping calls, the first one ending first: afterwards the
    # format must be what it was before either began
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    formats, codes = [], []

    def first(args):
        formats.append(warnings.formatwarning)
        first_in.set()
        second_in.wait(10)
        return 0

    def second(args):
        formats.append(warnings.formatwarning)
        second_in.set()
        first_out.wait(10)
        return 0

    commands = iter([first, second])
    monkeypatch.setattr(amcr.cli, "_parse_args",
                        lambda argv: argparse.Namespace(fn=next(commands)))
    original = warnings.formatwarning

    def run_first():
        codes.append(main([]))
        first_out.set()

    threads = [threading.Thread(target=run_first),
               threading.Thread(target=lambda: codes.append(main([])))]
    threads[0].start()
    assert first_in.wait(10)
    threads[1].start()
    for thread in threads:
        thread.join(10)
    assert codes == [0, 0]
    assert formats == [amcr.cli._format_warning] * 2
    assert warnings.formatwarning is original


def write_gray(path):
    save_pnm(path, np.full((1, 10, 10), 0.5))
    return path


def test_predict_rejects_image_of_other_channel_count(workdir, tmp_path,
                                                      capsys):
    cfg, out = workdir
    image = write_gray(tmp_path / "gray.pgm")
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 str(image)]) == 3
    assert (f"error: {image}: a 1-channel image, but the model takes 3 channels"
            in capsys.readouterr().err)


def test_evaluate_rejects_manifest_image_of_other_channel_count(
        workdir, tmp_path, capsys):
    cfg, out = workdir
    run = tmp_path / "out"
    for sub in ("data", "models"):
        shutil.copytree(out / sub, run / sub)
    manifest = run / "data" / "manifest.csv"
    rows = read_rows(manifest)
    row = next(r for r in rows[1:] if r[5] == "test")
    row[1] = "images/gray.pgm"
    write_gray(run / "data" / row[1])
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["evaluate", "--config", str(cfg), "--out", str(run)]) == 3
    path = os.path.join(run / "data", row[1])
    assert (f"error: {path}: a 1-channel image, but the model takes 3 channels"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command,unread", [
    ("train", "test"), ("train-binary", "test"), ("pseudo-split", "test"),
    ("evaluate", "train"), ("evaluate", "valid"), ("report-segments", "train"),
    ("report-segments", "test")])
def test_command_reads_only_the_splits_it_uses(workdir, tmp_path, command,
                                               unread):
    # an image of a split the command does not use may be missing
    cfg, out = workdir
    run = tmp_path / "out"
    for sub in ("data", "models"):
        shutil.copytree(out / sub, run / sub)
    row = next(r for r in read_rows(run / "data" / "manifest.csv")[1:]
               if r[5] == unread)
    os.remove(run / "data" / row[1])
    with warnings.catch_warnings(record=True):  # the tiny router collapses
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 0


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
    # the share warning fires exactly when one branch holds over 95% of
    # the train rows
    train_ids = {r[0] for r in manifest[1:] if r[5] == "train"}
    train_labels = [label for sid, label in rows[1:] if sid in train_ids]
    larger = max(train_labels.count("0"), train_labels.count("1"))
    expected = [f"router sent {larger} of {len(train_ids)} train samples to "
                "one branch"] if larger > 0.95 * len(train_ids) else []
    assert [str(w.message) for w in caught] == expected


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


def fresh_data(tmp_path, config=CONFIG):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def test_evaluate_ignores_the_mrn_width(tmp_path):
    # no checkpoint holds the reweighting network, so its width is not
    # part of the architecture a checkpoint is checked against
    cfg, out = fresh_data(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--variant", "cr", "--mrn", "on"]) == 0
    wider = tmp_path / "wider.ini"
    wider.write_text(CONFIG.replace("meta_quota = 2", "meta_quota = 2\nmrn_hidden = 50"))
    assert main(["evaluate", "--config", str(wider), "--out", str(out),
                 "--variant", "cr"]) == 0


def test_train_binary_keeps_validation_of_mid_scores(tmp_path, capsys):
    # every validation score sits in the (4, 6) band the router leaves
    # out; like train, train-binary then validates on the whole split
    cfg, out = fresh_data(tmp_path)
    manifest = out / "data" / "manifest.csv"
    rows = read_rows(manifest)
    for r in rows[1:]:
        if r[5] == "valid":
            r[2], r[3] = "5.0", "1"
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train-binary", "--config", str(cfg), "--out",
                 str(out)]) == 0
    assert (out / "models" / "c2.ckpt").exists()


def test_train_binary_trains_on_the_sets_train_uses(tmp_path, monkeypatch):
    import amcr.cli
    import amcr.pipeline

    cfg, out = fresh_data(tmp_path)
    seen = []
    original = amcr.pipeline.train_binary

    def recording(model, train, valid, *args, **kwargs):
        seen.append(([s.id for s in train], [s.id for s in valid]))
        return original(model, train, valid, *args, **kwargs)

    monkeypatch.setattr(amcr.pipeline, "train_binary", recording)
    monkeypatch.setattr(amcr.cli, "train_binary", recording)
    # a seed other than the router's fixed downsampling seed 0; the train
    # split's two-sided subset has unequal classes, so it is downsampled
    run = ["--config", str(cfg), "--out", str(out), "--seed", "1"]
    assert main(["train-binary"] + run) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small branches may fall back
        assert main(["train", "--variant", "pcr"] + run) == 0
    assert len(seen) == 2
    assert seen[0] == seen[1]


def test_train_removes_checkpoints_of_branches_it_did_not_train(tmp_path):
    # a batch of 48 is the whole train split, so at least one router
    # branch is too small to train and falls back
    cfg, out = fresh_data(tmp_path, CONFIG.replace(
        "class_batch = 8\nreg_batch = 8", "class_batch = 48\nreg_batch = 48"))
    models = out / "models"
    models.mkdir()
    for name in ("r0", "r1"):
        (models / f"{name}.ckpt").write_bytes(b"stale checkpoint")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--variant", "pcr"]) == 0
    warned = {name for name in ("r0", "r1")
              if any(str(w.message).startswith(f"branch {name} has ")
                     for w in caught)}
    assert warned
    for name in ("r0", "r1"):
        assert (models / f"{name}.ckpt").exists() == (name not in warned)
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--variant", "pcr"]) == 0


def test_train_binary_removes_what_the_previous_router_split(tmp_path, capsys):
    cfg, out = fresh_data(tmp_path)
    run = ["--config", str(cfg), "--out", str(out), "--variant", "pcr"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small branches may fall back
        assert main(["train"] + run) == 0
    stale = [path for path in (out / "models" / "r0.ckpt",
                               out / "models" / "r1.ckpt", out / "split.csv")
             if path.exists()]
    assert out / "split.csv" in stale
    capsys.readouterr()
    assert main(["train-binary"] + run) == 0
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:")]
    assert len(warned) == 1
    for path in stale:
        assert not path.exists()
        assert str(path) in warned[0]
    assert main(["evaluate"] + run) == 0


def out_tree(out):
    """Relative path -> bytes of every file under `out`."""
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("mrn", ["off", "on"])
@pytest.mark.parametrize("variant", ["r", "cr", "pcr"])
def test_train_with_reweighting_reruns_byte_identical(tmp_path, variant, mrn):
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        cfg, out = fresh_data(root)
        run = ["--config", str(cfg), "--out", str(out), "--variant", variant,
               "--mrn", mrn]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small branches may fall back
            assert main(["train"] + run) == 0
        assert main(["evaluate"] + run) == 0
        trees.append(out_tree(out))
    assert any(path.startswith("models") for path in trees[0])
    assert "metrics.csv" in trees[0]
    assert trees[0] == trees[1]


def readme_quick_start_config():
    """The run.ini of the README's quick start, as written there."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("cat > run.ini <<'EOF'\n") + len("cat > run.ini <<'EOF'\n")
    return text[start:text.index("\nEOF\n", start) + 1]


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    return fresh_data(tmp_path_factory.mktemp("quick_start"),
                      readme_quick_start_config())


@pytest.mark.parametrize("variant", ["cr", "pcr"])
def test_quick_start_predictions_spread(quick_start, variant, capsys):
    # the README's own run must not end in a collapsed predictor
    cfg, out = quick_start
    run = ["--config", str(cfg), "--out", str(out), "--variant", variant]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pcr's router may be lopsided
        assert main(["train"] + run) == 0
    assert main(["evaluate"] + run) == 0
    warned = [line for line in capsys.readouterr().err.splitlines()
              if "barely spread" in line]
    assert warned == []


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


@pytest.mark.parametrize("old, new", [
    ("epochs = 1", "epochs = 0"),
    ("lr = 0.003", "lr = 0.003\nbeta1 = 1.0"),
    ("stem_channels = 4", "stem_channels = 1"),
], ids=["epochs", "beta1", "stem_channels"])
def test_exit_code_config_value_rejected(tmp_path, capsys, old, new):
    # a value the config file accepts but a constructor rejects is still
    # a config error
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace(old, new))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_impossible_aab_pool_target(tmp_path, capsys):
    # the stem halves an 8x8 canvas to 4x4, which cannot pool up to 6x6
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("prep = crop",
                                  "prep = aab\nsquare_side = 8\npool_target = 6"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "pool_target" in capsys.readouterr().err
    assert not (out / "models").exists()


@pytest.mark.parametrize("prep, flags", [("crop", []), ("resize", []),
                                         ("aab", ["--prep", "crop"])])
def test_exit_code_pool_target_without_aab(tmp_path, capsys, prep, flags):
    # pool_target pools the aab canvas only; under any other prep, from
    # the file or from --prep, the key would do nothing
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("prep = crop",
                                  f"prep = {prep}\npool_target = 2"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err == (
        "error: pool_target 2 needs prep = aab, not prep = "
        f"{flags[-1] if flags else prep}\n")
    assert not (out / "models").exists()


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


def test_exit_code_format_empty_manifest_score(workdir, tmp_path, capsys):
    cfg, out = workdir
    fresh = tmp_path / "noScore"
    fresh.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(fresh)]) == 0
    manifest = fresh / "data" / "manifest.csv"
    rows = read_rows(manifest)
    rows[1][2] = ""
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train", "--config", str(cfg), "--out", str(fresh)]) == 4
    assert "manifest.csv:2: score, binary_label and corrupted must be " \
        "numbers, got ''" in capsys.readouterr().err


def test_exit_code_format_manifest_score_out_of_range(workdir, tmp_path,
                                                     capsys):
    cfg, out = workdir
    fresh = tmp_path / "highScore"
    fresh.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(fresh)]) == 0
    manifest = fresh / "data" / "manifest.csv"
    rows = read_rows(manifest)
    line = next(i for i, r in enumerate(rows) if r[5] == "train") + 1
    rows[line - 1][2] = "12.5"
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train", "--config", str(cfg), "--out", str(fresh)]) == 4
    assert f"manifest.csv:{line}: score '12.5' outside [0, 10]" \
        in capsys.readouterr().err


def test_exit_code_format_manifest_repeated_id(workdir, tmp_path, capsys):
    # images are keyed by id, so a train row repeating a test row's id
    # would train on the test image
    cfg, out = workdir
    fresh = tmp_path / "twinId"
    fresh.mkdir()
    assert main(["gen-data", "--config", str(cfg), "--out", str(fresh)]) == 0
    manifest = fresh / "data" / "manifest.csv"
    rows = read_rows(manifest)
    test_row = next(i for i, r in enumerate(rows) if r[5] == "test")
    twin = next(i for i, r in enumerate(rows)
                if r[5] == "train" and i > test_row)
    rows[twin][0] = rows[test_row][0]
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train", "--config", str(cfg), "--out", str(fresh)]) == 4
    assert (f"manifest.csv:{twin + 1}: id '{rows[test_row][0]}' repeats "
            f"line {test_row + 1}") in capsys.readouterr().err


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


def test_exit_code_format_huge_extent_checkpoint(workdir, capsys):
    # a corrupted extent must be refused as a format error, not surface as
    # an allocation failure
    cfg, out = workdir
    ckpt = out / "models" / "r_all.ckpt"
    blob = ckpt.read_bytes()
    (name_len,) = struct.unpack_from("<H", blob, 52)
    raw = bytearray(blob)
    struct.pack_into("<I", raw, 52 + 2 + name_len + 1, 0xFFFFFFFF)
    try:
        ckpt.write_bytes(bytes(raw))
        assert main(["evaluate", "--config", str(cfg), "--out",
                     str(out)]) == 4
        assert capsys.readouterr().err.startswith("error: ")
    finally:
        ckpt.write_bytes(blob)


def test_exit_code_format_non_finite_checkpoint_value(workdir, capsys):
    # a NaN record under a valid hash is refused at load, before any
    # forward pass could meet it
    cfg, out = workdir
    ckpt = out / "models" / "r_all.ckpt"
    blob = ckpt.read_bytes()
    arrays, iteration, stored_hash = load_checkpoint(str(ckpt))
    record = sorted(k for k in arrays if k.startswith("p."))[0]
    arrays[record].flat[0] = np.nan
    image = out / "data" / read_rows(out / "data" / "manifest.csv")[1][1]
    try:
        save_checkpoint(str(ckpt), arrays, iteration, stored_hash)
        for argv in (["evaluate"], ["predict", str(image)]):
            capsys.readouterr()
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and record in err
    finally:
        ckpt.write_bytes(blob)


def test_loaded_parameters_are_aligned_native_and_unshared(workdir):
    # forward passes hand these arrays to BLAS; an unaligned, byte-swapped
    # or shared view would silently take them off it
    cfg, out = workdir
    args = build_parser().parse_args(
        ["evaluate", "--config", str(cfg), "--out", str(out)])
    params = _load_model(args, "r_all", _load_run_config(args), 10).params
    arrays = [p.data for p in params.values()]
    for name, arr in zip(params, arrays):
        assert arr.dtype == np.float64, name
        assert arr.dtype.isnative, name
        assert arr.flags.aligned, name
        assert arr.flags.c_contiguous, name
        assert arr.flags.writeable, name
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


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


@pytest.mark.parametrize("misfit", ["misshapen", "extra"])
def test_exit_code_config_misfit_checkpoint(workdir, capsys, misfit):
    cfg, out = workdir
    ckpt = out / "models" / "r_all.ckpt"
    blob = ckpt.read_bytes()
    arrays, iteration, stored_hash = load_checkpoint(str(ckpt))
    record = sorted(k for k in arrays if k.startswith("p."))[0]
    if misfit == "misshapen":
        arrays[record] = arrays[record].ravel()[1:]
    else:
        arrays["p.extra.w"] = np.zeros(3)
    try:
        save_checkpoint(str(ckpt), arrays, iteration, stored_hash)
        assert main(["evaluate", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert "does not fit the configured architecture" in \
            capsys.readouterr().err
    finally:
        ckpt.write_bytes(blob)


def load_r_all(workdir):
    cfg, out = workdir
    args = build_parser().parse_args(
        ["evaluate", "--config", str(cfg), "--out", str(out)])
    return _load_model(args, "r_all", _load_run_config(args), 10)


def test_load_model_checks_each_record_for_finiteness_once(workdir,
                                                            monkeypatch):
    arrays = load_checkpoint(str(workdir[1] / "models" / "r_all.ckpt"))[0]
    records = [k for k in arrays if k.startswith("p.")]
    calls = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        calls.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    load_r_all(workdir)
    assert len(calls) == len(records)


def test_loaded_parameters_are_the_read_arrays(workdir, monkeypatch):
    # each parameter is built on the array the checkpoint reader made,
    # with no copy on the way
    read = {}

    def recording_load(path, *args, **kwargs):
        arrays, iteration, stored_hash = load_checkpoint(path, *args, **kwargs)
        read.update(arrays)
        return arrays, iteration, stored_hash

    monkeypatch.setattr(amcr.cli, "load_checkpoint", recording_load)
    params = load_r_all(workdir).params
    assert set(read) == {"p." + name for name in params}
    for name, p in params.items():
        assert p.data is read["p." + name], name


def test_parser_builds_a_fresh_namespace_per_call():
    first = _parse_args(["predict", "--seed", "3", "a.ppm"])
    second = _parse_args(["predict", "b.ppm"])
    assert first is not second
    assert (first.seed, first.image) == (3, ["a.ppm"])
    assert (second.seed, second.image) == (None, ["b.ppm"])


def test_exit_code_unexpected_os_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["predict", "--config", str(cfg), "--out", str(out),
                 str(tmp_path / "missing.ppm")]) == 1


_TOP_USAGE = """\
usage: amcr [-h]
            {gen-data,train-binary,pseudo-split,train,evaluate,predict,ablate,report-segments}
            ...
"""

_PREDICT_USAGE = """\
usage: amcr predict [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                    [--variant {r,cr,pcr}] [--prep {crop,resize,aab}]
                    [--mrn {on,off}] [--eca {on,off}]
                    image [image ...]
"""

_TOP_HELP = _TOP_USAGE + """
Meta-reweighted aesthetic score training laboratory

positional arguments:
  {gen-data,train-binary,pseudo-split,train,evaluate,predict,ablate,report-segments}
    gen-data            generate the synthetic dataset
    train-binary        train the binary router
    pseudo-split        split the dataset by router predictions
    train               train a pipeline variant
    evaluate            score the test split
    predict             score image files
    ablate              run the variant comparison
    report-segments     per-segment router correctness

options:
  -h, --help            show this help message and exit
"""

_PREDICT_HELP = _PREDICT_USAGE + """
positional arguments:
  image                 PPM/PGM image files

options:
  -h, --help            show this help message and exit
  --config CONFIG       INI config file
  --seed SEED           override [train] seed
  --out OUT             artifact directory
  --variant {r,cr,pcr}
  --prep {crop,resize,aab}
  --mrn {on,off}
  --eca {on,off}
"""


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, _TOP_HELP, ""),
    (["bogus"], 2, "", _TOP_USAGE + (
        "amcr: error: argument command: invalid choice: 'bogus' (choose from "
        "'gen-data', 'train-binary', 'pseudo-split', 'train', 'evaluate', "
        "'predict', 'ablate', 'report-segments')\n")),
    ([], 2, "", _TOP_USAGE
     + "amcr: error: the following arguments are required: command\n"),
    (["predict", "--help"], 0, _PREDICT_HELP, ""),
    (["predict"], 2, "", _PREDICT_USAGE
     + "amcr predict: error: the following arguments are required: image\n"),
    (["predict", "img.ppm", "--bogus"], 2, "", _TOP_USAGE
     + "amcr: error: unrecognized arguments: --bogus\n"),
], ids=["help", "unknown-command", "no-command", "predict-help",
        "predict-no-image", "unrecognized-argument"])
def test_parser_help_and_errors_are_pinned(argv, code, out, err, capsys,
                                           monkeypatch):
    # argparse wraps usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)
