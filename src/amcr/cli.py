"""Command-line entry point.

Commands cover the full staged workflow: synthetic data generation, the
binary routing stage, pseudo-label splitting, variant training, scoring,
ablation, and the per-segment report. Every command is deterministic
given the same config, seed, and input files, and artifacts carry no
timestamps, so reruns are byte-identical.

Exit codes: 0 success, 2 config (a malformed file or a value a constructor
rejects), 3 data, 4 format/version, 5 missing dependency artifact, 6 state,
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import threading
import warnings

import numpy as np

from . import data as D
from . import training as TR
from .blocks import AestheticNet
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, default_config, effective_batch, load_config
from .errors import (AmcrError, ConfigError, DataError, DependencyError,
                     FormatError, ParameterError, ShapeError, StateError)
# not called here: perfbench/tracing.py patches these names on this module
from .image import aab_prepare, preprocess_crop, preprocess_resize
from .meta import build_meta_set
from .metrics import collapse_warnings, evaluate_scores, segment_report
from .pipeline import (PipelineArtifacts, load_image, prepare_image,
                       prepare_images, pseudo_split, router_sets, run_ablation,
                       run_pipeline, train_binary)
from .tensor import Tensor

# every ParameterError a command can raise comes from a config value
_EXIT_CODES = (
    (ConfigError, 2),
    (ParameterError, 2),
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


def _build_model(cfg: RunConfig, rng, num_classes: int,
                 params: dict = None) -> AestheticNet:
    pool_target = None
    if cfg.model_pool_target > 0:
        if cfg.model_prep != "aab":
            raise ParameterError(f"pool_target {cfg.model_pool_target} needs "
                                 f"prep = aab, not prep = {cfg.model_prep}")
        pool_target = cfg.model_pool_target
        stem_side = (cfg.model_square_side - 1) // AestheticNet.STEM_STRIDE + 1
        if pool_target > stem_side:
            raise ParameterError(
                f"pool_target {pool_target} exceeds the {stem_side}x{stem_side} "
                f"stem output of square_side {cfg.model_square_side}")
    return AestheticNet(
        rng,
        in_channels=cfg.model_in_channels,
        stem_channels=cfg.model_stem_channels,
        stage_channels=cfg.model_stage_channels,
        head_width=cfg.model_head_width,
        num_classes=num_classes,
        eca=cfg.model_eca,
        pool_target=pool_target,
        params=params,
    )


def _settings(cfg: RunConfig, base_batch: int) -> TR.TrainSettings:
    """A stage's settings; its batch is `base_batch` (`[train] class_batch`
    or `reg_batch`) times `batch_scale`."""
    return TR.TrainSettings(
        epochs=cfg.train_epochs,
        batch_size=effective_batch(base_batch, cfg.train_batch_scale),
        lr=cfg.train_lr,
        weight_decay=cfg.train_weight_decay,
        betas=(cfg.train_beta1, cfg.train_beta2),
        mrn_lr=cfg.meta_mrn_lr,
        mrn_hidden=cfg.meta_mrn_hidden,
        meta_batch=effective_batch(cfg.meta_meta_batch, cfg.train_batch_scale),
        plateau_patience=cfg.train_plateau_patience,
        plateau_factor=cfg.train_plateau_factor,
    )


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


def _load_splits(cfg, args, *splits):
    """The prepared images of the manifest's samples in the named
    `splits`, then each split's samples in that order; no other image is
    read."""
    samples = _require_manifest(cfg, args)
    images = prepare_images([s for s in samples if s.split in splits],
                            _data_dir(cfg, args), cfg.model_prep,
                            crop_side=cfg.model_crop_side,
                            square_side=cfg.model_square_side,
                            in_channels=cfg.model_in_channels)
    return (images, *(D.split_of(samples, name) for name in splits))


def _save_model(args, name: str, model, cfg, iteration: int) -> None:
    arrays = {"p." + k: v.data for k, v in model.params.items()}
    path = _model_path(args, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_checkpoint(path, arrays, iteration, config_hash(cfg))


def _load_model(args, name: str, cfg, num_classes: int,
                expect_hash: bytes = None) -> AestheticNet:
    """The model whose parameters are the checkpoint's `p.` records, each
    array taken as it was read and checked for finiteness once, by its
    Tensor. `expect_hash` is config_hash(cfg), when the caller has it."""
    path = _model_path(args, name)
    if not os.path.exists(path):
        raise DependencyError(f"missing checkpoint {path}; train first")
    if expect_hash is None:
        expect_hash = config_hash(cfg)
    arrays, _iteration, _hash = load_checkpoint(path, expect_hash=expect_hash)
    params = {}
    for key, value in arrays.items():
        if key.startswith("p."):
            try:
                params[key[2:]] = Tensor(value, requires_grad=True)
            except DataError:
                raise FormatError(f"checkpoint {path}: record {key} holds "
                                  f"a non-finite value") from None
    try:
        return _build_model(cfg, None, num_classes, params)
    except ShapeError:
        raise ConfigError(f"checkpoint {path} does not fit the configured "
                          f"architecture") from None


def _write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_split(args, split: dict) -> None:
    """split.csv: every routed sample's pseudo label (its branch), by id."""
    _write_csv(os.path.join(args.out, "split.csv"), ["id", "pseudo_label"],
               sorted(split.items()))


def _meta_set(cfg, train, rng, reweighted: bool):
    """The run's meta set, drawn from `rng` only when some stage is
    reweighted; None otherwise."""
    return build_meta_set(train, cfg.meta_meta_quota, rng) if reweighted else None


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    spec = D.SynthSpec(
        image_height=cfg.data_image_height,
        image_width=cfg.data_image_width,
        corrupt_fraction=cfg.data_corrupt_fraction,
        corrupt_kind=cfg.data_corrupt_kind,
        channels=cfg.model_in_channels,
    )
    out = _data_dir(cfg, args)
    samples = D.generate_dataset(spec, cfg.data_dataset_size,
                                 cfg.train_seed, out)
    counts = ", ".join(f"{name} {len(D.split_of(samples, name))}"
                       for name in ("train", "valid", "test"))
    print(f"wrote {len(samples)} samples to {out} ({counts})")
    return 0


def cmd_train_binary(args) -> int:
    cfg = _load_run_config(args)
    images, train, valid = _load_splits(cfg, args, "train", "valid")
    rng = np.random.default_rng(cfg.train_seed)
    meta = _meta_set(cfg, train, rng, cfg.meta_mrn)
    model = _build_model(cfg, rng, 2)
    result = train_binary(model, *router_sets(train, valid), images,
                          _settings(cfg, cfg.train_class_batch), rng,
                          meta_samples=meta)
    _save_model(args, "c2", model, cfg, result.iterations)
    # branches split by an earlier router must not be scored through this one
    stale = [path for path in (_model_path(args, "r0"), _model_path(args, "r1"),
                               os.path.join(args.out, "split.csv"))
             if os.path.exists(path)]
    for path in stale:
        os.remove(path)
    if stale:
        print(f"warning: removed {', '.join(stale)}: they belong to the "
              f"previous router", file=sys.stderr)
    print(f"binary stage done: best validation accuracy "
          f"{result.best_metric:.4f} over {result.iterations} iterations")
    return 0


def cmd_pseudo_split(args) -> int:
    cfg = _load_run_config(args)
    images, train, valid = _load_splits(cfg, args, "train", "valid")
    split = pseudo_split(_load_model(args, "c2", cfg, 2), train, valid, images)
    _write_split(args, split)
    print("pseudo split:", " ".join(
        f"{name}{b}={sum(split[s.id] == b for s in group)}"
        for name, group in (("train", train), ("valid", valid))
        for b in (0, 1)))
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    images, train, valid = _load_splits(cfg, args, "train", "valid")
    rng = np.random.default_rng(cfg.train_seed)
    meta = _meta_set(cfg, train, rng, cfg.meta_mrn)
    factory = lambda r, k: _build_model(cfg, r, k)
    art = run_pipeline(cfg.pipeline_variant, train, valid, images, factory,
                       _settings(cfg, cfg.train_class_batch),
                       _settings(cfg, cfg.train_reg_batch), rng,
                       meta_samples=meta)
    iterations = sum(
        res.iterations
        for stage in art.history.values()
        for res in (stage.values() if isinstance(stage, dict) else [stage]))
    _save_model(args, "r_all", art.r_all, cfg, iterations)
    for name in ("c2", "r0", "r1"):
        model = getattr(art, name)
        if model is not None:
            _save_model(args, name, model, cfg, iterations)
        elif name != "c2" and os.path.exists(_model_path(args, name)):
            # a branch this run did not train must not be scored from an
            # earlier run's checkpoint
            os.remove(_model_path(args, name))
    if art.split is not None:
        _write_split(args, art.split)
    print(f"trained variant {cfg.pipeline_variant} "
          f"({iterations} iterations); models under "
          f"{os.path.join(args.out, 'models')}")
    return 0


def _load_artifacts(cfg, args) -> PipelineArtifacts:
    """The run's models; a pcr branch is a loader, called only when some
    input is routed to it."""
    variant = cfg.pipeline_variant
    expected = config_hash(cfg)
    art = PipelineArtifacts(variant=variant,
                            r_all=_load_model(args, "r_all", cfg, 10, expected))
    if variant != "pcr":
        return art
    art.c2 = _load_model(args, "c2", cfg, 2, expected)
    for name in ("r0", "r1"):
        if os.path.exists(_model_path(args, name)):
            setattr(art, name, functools.partial(_load_model, args, name, cfg,
                                                 10, expected))
    return art


def _warn_collapse(found, label=""):
    for message in found:
        print(f"warning: {label}{message}", file=sys.stderr)


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    images, test = _load_splits(cfg, args, "test")
    if not test:
        raise DataError("manifest has no test split")
    preds = _load_artifacts(cfg, args).predict([images[s.id] for s in test])
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
    _warn_collapse(collapse_warnings(preds, truth))
    return 0


def cmd_predict(args) -> int:
    """Print the score of each image path, one line each, in argument
    order; every image is loaded and checked before any checkpoint."""
    cfg = _load_run_config(args)
    prepared = []
    for path in args.image:
        image = load_image(path, cfg.model_in_channels)
        prepared.append(prepare_image(image, cfg.model_prep,
                                      cfg.model_crop_side,
                                      cfg.model_square_side))
    scores = _load_artifacts(cfg, args).predict(prepared)
    print("\n".join(f"{score:.4f}" for score in scores))
    return 0


def cmd_report_segments(args) -> int:
    cfg = _load_run_config(args)
    images, valid = _load_splits(cfg, args, "valid")
    if not valid:
        raise DataError("manifest has no validation split")
    model = _load_model(args, "c2", cfg, 2)
    preds = TR.predict_class(model, [images[s.id] for s in valid])
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
    images, train, valid, test = _load_splits(cfg, args, "train", "valid",
                                              "test")
    if not (train and valid and test):
        raise DataError("ablation needs train, valid, and test splits")

    variants = [cfg.pipeline_variant] if args.variant else ["r", "cr", "pcr"]
    mrns = [cfg.meta_mrn] if args.mrn else [False, True]
    requests = [{"variant": v, "mrn": m} for v in variants for m in mrns]
    rng = np.random.default_rng(cfg.train_seed)
    meta = _meta_set(cfg, train, rng, any(mrns))
    factory = lambda r, k: _build_model(cfg, r, k)
    results = run_ablation(requests, train, valid, test, images, factory,
                           _settings(cfg, cfg.train_class_batch),
                           _settings(cfg, cfg.train_reg_batch),
                           meta_samples=meta, base_seed=cfg.train_seed)
    eca = "on" if cfg.model_eca else "off"
    rows = []
    for cell in results:
        rep = cell["report"]
        rows.append([cell["variant"], cfg.model_prep, eca,
                     "on" if cell["mrn"] else "off",
                     repr(rep.srocc), repr(rep.mse), repr(rep.mae),
                     repr(rep.accuracy), repr(rep.accuracy_err_le_1)])
        print(f"{cell['variant']:>3} prep={cfg.model_prep} eca={eca} "
              f"mrn={'on' if cell['mrn'] else 'off'} "
              f"srocc={rep.srocc:.4f} mse={rep.mse:.4f}")
        _warn_collapse(collapse_warnings(cell["predictions"],
                                         [s.score for s in test]),
                       label=f"{cell['variant']} mrn="
                             f"{'on' if cell['mrn'] else 'off'}: ")
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


_COMMANDS = {
    "gen-data": (cmd_gen_data, "generate the synthetic dataset"),
    "train-binary": (cmd_train_binary, "train the binary router"),
    "pseudo-split": (cmd_pseudo_split,
                     "split the dataset by router predictions"),
    "train": (cmd_train, "train a pipeline variant"),
    "evaluate": (cmd_evaluate, "score the test split"),
    "predict": (cmd_predict, "score image files"),
    "ablate": (cmd_ablate, "run the variant comparison"),
    "report-segments": (cmd_report_segments,
                        "per-segment router correctness"),
}


def _add_command_args(sub, name: str) -> None:
    _add_common(sub)
    if name != "gen-data":
        _add_variant_flags(sub)
    if name == "predict":
        sub.add_argument("image", nargs="+", help="PPM/PGM image files")
    sub.set_defaults(fn=_COMMANDS[name][0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcr",
        description="Meta-reweighted aesthetic score training laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_text) in _COMMANDS.items():
        _add_command_args(subs.add_parser(name, help=help_text), name)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone, built as `build_parser`
    builds it, once per process: it depends on nothing else, and each
    parse fills a fresh Namespace."""
    sub = argparse.ArgumentParser(prog="amcr " + name)
    _add_command_args(sub, name)
    return sub


def _parse_args(argv) -> argparse.Namespace:
    """Parse `argv` with only the named subcommand's parser. Whatever that
    parser cannot settle alone (top level help, an unknown or missing
    subcommand, unrecognized arguments) goes through `build_parser`, so
    every message stays the same."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


# the warning format each running main call found, the first call's first
_found_formats, _format_lock = [], threading.Lock()


def main(argv=None) -> int:
    args = _parse_args(argv)
    # a warning reads like the collapse warnings, without a source location,
    # until the last of any overlapping calls restores the format it found
    with _format_lock:
        _found_formats.append(warnings.formatwarning)
        warnings.formatwarning = _format_warning
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
    finally:
        with _format_lock:
            found = _found_formats.pop()
            if not _found_formats:
                warnings.formatwarning = found


if __name__ == "__main__":
    sys.exit(main())
