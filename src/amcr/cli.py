"""Command-line entry point.

Commands cover the full staged workflow: synthetic data generation, the
binary routing stage, pseudo-label splitting, variant training, scoring,
ablation, and the per-segment report. Every command is deterministic
given the same config, seed, and input files, and artifacts carry no
timestamps, so reruns are byte-identical.

Exit codes: 0 success, 2 config, 3 data, 4 format/version, 5 missing
dependency artifact, 6 state, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import data as D
from . import pnm
from . import training as TR
from .blocks import AestheticNet
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, default_config, effective_batch, load_config
from .errors import (AmcrError, ConfigError, DataError, DependencyError,
                     FormatError, StateError)
from .image import aab_prepare, preprocess_crop, preprocess_resize
from .meta import build_meta_set
from .metrics import evaluate_scores, segment_report
from .pipeline import (PipelineArtifacts, prepare_images, pseudo_split,
                       run_ablation, run_pipeline, train_binary)

_EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (FormatError, 4),
    (DependencyError, 5),
    (StateError, 6),
)


# ---------------------------------------------------------------------------
# config plumbing


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = (
        ("variant", "pipeline", "variant"),
        ("prep", "model", "prep"),
        ("mrn", "meta", "mrn"),
        ("eca", "model", "eca"),
    )
    for attr, section, key in overrides:
        value = getattr(args, attr, None)
        if value is not None:
            cfg = cfg.replace(section, key, value)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace("train", "seed", str(args.seed))
    return cfg


def _build_model(cfg: RunConfig, rng, num_classes: int, *, eca=None,
                 prep=None) -> AestheticNet:
    prep = cfg.model_prep if prep is None else prep
    eca = cfg.model_eca if eca is None else eca
    pool_target = None
    if prep == "aab" and cfg.model_pool_target > 0:
        pool_target = cfg.model_pool_target
    return AestheticNet(
        rng,
        in_channels=cfg.model_in_channels,
        stem_channels=cfg.model_stem_channels,
        stage_channels=cfg.model_stage_channels,
        head_width=cfg.model_head_width,
        num_classes=num_classes,
        eca=eca,
        eca_mode=cfg.model_eca_mode,
        pool_target=pool_target,
    )


def _settings(cfg: RunConfig, batch: int) -> TR.TrainSettings:
    return TR.TrainSettings(
        epochs=cfg.train_epochs,
        batch_size=batch,
        lr=cfg.train_lr,
        weight_decay=cfg.train_weight_decay,
        betas=(cfg.train_beta1, cfg.train_beta2),
        mrn_lr=cfg.meta_mrn_lr,
        mrn_hidden=cfg.meta_mrn_hidden,
        meta_batch=effective_batch(cfg.meta_meta_batch, cfg.train_batch_scale),
        normalize_weights=cfg.meta_normalize_weights,
        plateau_patience=cfg.train_plateau_patience,
        plateau_factor=cfg.train_plateau_factor,
    )


def _class_settings(cfg: RunConfig) -> TR.TrainSettings:
    return _settings(cfg, effective_batch(cfg.train_class_batch,
                                          cfg.train_batch_scale))


def _reg_settings(cfg: RunConfig) -> TR.TrainSettings:
    return _settings(cfg, effective_batch(cfg.train_reg_batch,
                                          cfg.train_batch_scale))


# ---------------------------------------------------------------------------
# artifact paths and shared loading


def _data_dir(cfg, args) -> str:
    root = cfg.data_data_dir
    if not os.path.isabs(root):
        root = os.path.join(args.out, root)
    return root


def _manifest_path(cfg, args) -> str:
    return os.path.join(_data_dir(cfg, args), "manifest.csv")


def _model_path(args, name: str) -> str:
    return os.path.join(args.out, "models", name + ".ckpt")


def _require_manifest(cfg, args):
    path = _manifest_path(cfg, args)
    if not os.path.exists(path):
        raise DependencyError(f"no manifest at {path}; run gen-data first")
    return D.load_manifest(path)


def _load_split_images(cfg, args):
    samples = _require_manifest(cfg, args)
    images = prepare_images(samples, _data_dir(cfg, args), cfg.model_prep,
                            crop_side=cfg.model_crop_side,
                            square_side=cfg.model_square_side)
    return samples, images


def _prepare_one(cfg, image):
    if cfg.model_prep == "crop":
        return preprocess_crop(image, cfg.model_crop_side).data
    if cfg.model_prep == "resize":
        return preprocess_resize(image, cfg.model_crop_side).data
    return aab_prepare(image, cfg.model_square_side).data


def _save_model(args, name: str, model, cfg, iteration: int) -> None:
    arrays = {"p." + k: v.data for k, v in model.parameters().items()}
    path = _model_path(args, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_checkpoint(path, arrays, iteration, config_hash(cfg))


def _load_model(args, name: str, cfg, num_classes: int) -> AestheticNet:
    path = _model_path(args, name)
    if not os.path.exists(path):
        raise DependencyError(f"missing checkpoint {path}; train first")
    arrays, _iteration, _hash = load_checkpoint(path,
                                                expect_hash=config_hash(cfg))
    model = _build_model(cfg, None, num_classes)
    params = model.parameters()
    loaded = {k[2:]: v for k, v in arrays.items() if k.startswith("p.")}
    if loaded.keys() != params.keys() or any(
            params[name].data.shape != value.shape
            for name, value in loaded.items()):
        raise ConfigError(
            f"checkpoint {path} does not fit the configured architecture")
    for name, value in loaded.items():
        params[name].data = value.astype(np.float64)
    return model


def _write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _meta_set_for(cfg, train, rng):
    return build_meta_set(train, cfg.meta_meta_quota, rng)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    spec = D.SynthSpec(
        image_height=cfg.data_image_height,
        image_width=cfg.data_image_width,
        corrupt_fraction=cfg.data_corrupt_fraction,
        corrupt_kind=cfg.data_corrupt_kind,
    )
    out = _data_dir(cfg, args)
    samples = D.generate_dataset(spec, cfg.data_dataset_size,
                                 cfg.train_seed, out)
    samples = D.split_811(samples, np.random.default_rng(cfg.train_seed))
    D.save_manifest(os.path.join(out, "manifest.csv"), samples)
    counts = {name: len(D.split_of(samples, name))
              for name in ("train", "valid", "test")}
    print(f"wrote {len(samples)} samples to {out} "
          f"(train {counts['train']}, valid {counts['valid']}, "
          f"test {counts['test']})")
    return 0


def cmd_train_binary(args) -> int:
    cfg = _load_run_config(args)
    samples, images = _load_split_images(cfg, args)
    rng = np.random.default_rng(cfg.train_seed)
    train = D.make_amdc(D.split_of(samples, "train"), rng)
    valid = [s for s in D.split_of(samples, "valid")
             if not 4.0 < s.score < 6.0]
    model = _build_model(cfg, rng, 2)
    meta = _meta_set_for(cfg, D.split_of(samples, "train"), rng) \
        if cfg.meta_mrn else None
    result = train_binary(model, train, valid, images, _class_settings(cfg),
                          rng, use_mrn=cfg.meta_mrn, meta_samples=meta)
    _save_model(args, "c2", model, cfg, result.iterations)
    print(f"binary stage done: best validation accuracy "
          f"{result.best_metric:.4f} over {result.iterations} iterations")
    return 0


def cmd_pseudo_split(args) -> int:
    cfg = _load_run_config(args)
    samples, images = _load_split_images(cfg, args)
    model = _load_model(args, "c2", cfg, 2)
    split = pseudo_split(model, D.split_of(samples, "train"),
                         D.split_of(samples, "valid"), images)
    rows = [(sid, label) for sid, label in sorted(split.pseudo.items())]
    _write_csv(os.path.join(args.out, "split.csv"),
               ["id", "pseudo_label"], rows)
    print("pseudo split:", " ".join(f"{k}={v}"
                                    for k, v in sorted(split.counts().items())))
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    samples, images = _load_split_images(cfg, args)
    rng = np.random.default_rng(cfg.train_seed)
    train = D.split_of(samples, "train")
    valid = D.split_of(samples, "valid")
    meta = _meta_set_for(cfg, train, rng) if cfg.meta_mrn else None
    factory = lambda r, k: _build_model(cfg, r, k)
    art = run_pipeline(cfg.pipeline_variant, train, valid, images, factory,
                       _class_settings(cfg), _reg_settings(cfg), rng,
                       use_mrn=cfg.meta_mrn, meta_samples=meta)
    iterations = sum(
        res.iterations
        for stage in art.history.values()
        for res in (stage.values() if isinstance(stage, dict) else [stage]))
    _save_model(args, "r_all", art.r_all, cfg, iterations)
    for name in ("c2", "r0", "r1"):
        model = getattr(art, name)
        if model is not None:
            _save_model(args, name, model, cfg, iterations)
    if art.split is not None:
        rows = [(sid, label) for sid, label in sorted(art.split.pseudo.items())]
        _write_csv(os.path.join(args.out, "split.csv"),
                   ["id", "pseudo_label"], rows)
    print(f"trained variant {cfg.pipeline_variant} "
          f"({iterations} iterations); models under "
          f"{os.path.join(args.out, 'models')}")
    return 0


def _load_artifacts(cfg, args) -> PipelineArtifacts:
    variant = cfg.pipeline_variant
    art = PipelineArtifacts(variant=variant,
                            r_all=_load_model(args, "r_all", cfg, 10))
    if variant != "pcr":
        return art
    art.c2 = _load_model(args, "c2", cfg, 2)
    for name in ("r0", "r1"):
        if os.path.exists(_model_path(args, name)):
            setattr(art, name, _load_model(args, name, cfg, 10))
    return art


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    samples, images = _load_split_images(cfg, args)
    test = D.split_of(samples, "test")
    if not test:
        raise DataError("manifest has no test split")
    preds = _load_artifacts(cfg, args).predict_samples(test, images)
    truth = [s.score for s in test]
    report = evaluate_scores(preds, truth)
    _write_csv(os.path.join(args.out, "metrics.csv"),
               ["mse", "mae", "srocc", "accuracy", "accuracy_within_1", "n"],
               [[repr(report.mse), repr(report.mae), repr(report.srocc),
                 repr(report.accuracy), repr(report.accuracy_err_le_1),
                 report.n]])
    _write_csv(os.path.join(args.out, "scatter.csv"),
               ["prediction", "truth"],
               [(repr(float(p)), repr(float(t))) for p, t in zip(preds, truth)])
    print(f"test n={report.n} mse={report.mse:.4f} mae={report.mae:.4f} "
          f"srocc={report.srocc:.4f} acc={report.accuracy:.4f} "
          f"acc<=1={report.accuracy_err_le_1:.4f}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_run_config(args)
    image = pnm.load_pnm(args.image)
    prepared = _prepare_one(cfg, image)
    print(f"{_load_artifacts(cfg, args).predict(prepared):.4f}")
    return 0


def cmd_report_segments(args) -> int:
    cfg = _load_run_config(args)
    samples, images = _load_split_images(cfg, args)
    valid = D.split_of(samples, "valid")
    if not valid:
        raise DataError("manifest has no validation split")
    model = _load_model(args, "c2", cfg, 2)
    preds = [TR.predict_class(model, images[s.id]) for s in valid]
    rows = segment_report(preds, [s.score for s in valid])
    csv_rows = [(r.segment, r.count,
                 "" if r.correct_rate is None else repr(r.correct_rate),
                 "" if r.error_rate is None else repr(r.error_rate))
                for r in rows]
    _write_csv(os.path.join(args.out, "segments.csv"),
               ["segment", "count", "correct_rate", "error_rate"], csv_rows)
    for r in rows:
        rate = "-" if r.error_rate is None else f"{r.error_rate:.4f}"
        print(f"{r.segment}: n={r.count} error_rate={rate}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    samples = _require_manifest(cfg, args)
    train = D.split_of(samples, "train")
    valid = D.split_of(samples, "valid")
    test = D.split_of(samples, "test")
    if not (train and valid and test):
        raise DataError("ablation needs train, valid, and test splits")

    variants = [cfg.pipeline_variant] if args.variant else ["r", "cr", "pcr"]
    mrns = [cfg.meta_mrn] if args.mrn else [False, True]
    requests = [{"variant": v, "prep": cfg.model_prep, "eca": cfg.model_eca,
                 "mrn": m} for v in variants for m in mrns]
    images_by_prep = {
        cfg.model_prep: prepare_images(samples, _data_dir(cfg, args),
                                       cfg.model_prep,
                                       crop_side=cfg.model_crop_side,
                                       square_side=cfg.model_square_side)}
    rng = np.random.default_rng(cfg.train_seed)
    meta = _meta_set_for(cfg, train, rng) if any(
        r["mrn"] for r in requests) else None
    factory = lambda r, k, eca, prep: _build_model(cfg, r, k, eca=eca,
                                                   prep=prep)
    results = run_ablation(requests, train, valid, test, images_by_prep,
                           factory, _class_settings(cfg), _reg_settings(cfg),
                           meta_samples=meta, base_seed=cfg.train_seed)
    rows = []
    for cell in results:
        rep = cell["report"]
        rows.append([cell["variant"], cell["prep"],
                     "on" if cell["eca"] else "off",
                     "on" if cell["mrn"] else "off",
                     repr(rep.srocc), repr(rep.mse), repr(rep.mae),
                     repr(rep.accuracy), repr(rep.accuracy_err_le_1)])
        print(f"{cell['variant']:>3} prep={cell['prep']} "
              f"eca={'on' if cell['eca'] else 'off'} "
              f"mrn={'on' if cell['mrn'] else 'off'} "
              f"srocc={rep.srocc:.4f} mse={rep.mse:.4f}")
    _write_csv(os.path.join(args.out, "ablation.csv"),
               ["variant", "prep", "eca", "mrn", "srocc", "mse", "mae",
                "accuracy", "accuracy_within_1"], rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", default=None, help="INI config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override [train] seed")
    sub.add_argument("--out", default=".", help="artifact directory")


def _add_variant_flags(sub):
    sub.add_argument("--variant", choices=("r", "cr", "pcr"), default=None)
    sub.add_argument("--prep", choices=("crop", "resize", "aab"), default=None)
    sub.add_argument("--mrn", choices=("on", "off"), default=None)
    sub.add_argument("--eca", choices=("on", "off"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcr",
        description="Meta-reweighted aesthetic score training laboratory")
    subs = parser.add_subparsers(dest="command", required=True)

    specs = (
        ("gen-data", cmd_gen_data, "generate the synthetic dataset", False),
        ("train-binary", cmd_train_binary, "train the binary router", True),
        ("pseudo-split", cmd_pseudo_split,
         "split the dataset by router predictions", True),
        ("train", cmd_train, "train a pipeline variant", True),
        ("evaluate", cmd_evaluate, "score the test split", True),
        ("predict", cmd_predict, "score one image file", True),
        ("ablate", cmd_ablate, "run the variant comparison", True),
        ("report-segments", cmd_report_segments,
         "per-segment router correctness", True),
    )
    for name, fn, help_text, variant_flags in specs:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if variant_flags:
            _add_variant_flags(sub)
        if name == "predict":
            sub.add_argument("image", help="PPM/PGM image file")
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AmcrError as exc:
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
