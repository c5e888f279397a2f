"""Desk-scale training laboratory for meta-reweighted aesthetic scoring.

The package stacks a small reverse-mode tensor engine (`tensor`), numpy
convolution, pooling and resize kernels (`kernels`), network blocks with
channel attention and adaptive input handling (`blocks`, `image`), the
bilevel loss-reweighting loop (`meta`), staged classification-then-regression
training (`pipeline`, `training`), metrics, synthetic data tooling (`data`,
`pnm`), checkpointing, and a CLI.
"""

from .blocks import AestheticNet, EcaBlock, Mrn, eca_kernel_size, mrn_forward
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, default_config, load_config
from .data import Sample, SynthSpec, generate_dataset, load_manifest, save_manifest
from .errors import (AmcrError, ConfigError, DataError, DependencyError,
                     FormatError, ParameterError, ShapeError, StateError,
                     TapeError, VersionError)
from .meta import MetaConfig, MetaState, build_meta_set, weighted_loss
from .metrics import evaluate_scores, mae, mse, segment_report, srocc
from .optim import Adam, PlateauScheduler
from .pipeline import (PipelineArtifacts, binarize_label, fuse_score,
                       pseudo_split, run_ablation, run_pipeline,
                       ten_class_label, train_binary, train_branch)
from .tensor import Tensor, grad_enabled, no_grad, per_sample_gradients
from .training import TrainResult, TrainSettings, train_model

__version__ = "0.1.0"

__all__ = [
    "AestheticNet", "Adam", "AmcrError", "ConfigError", "DataError",
    "DependencyError", "EcaBlock", "FormatError", "MetaConfig", "MetaState",
    "Mrn", "ParameterError", "PipelineArtifacts", "PlateauScheduler",
    "RunConfig", "Sample", "ShapeError", "StateError", "SynthSpec",
    "TapeError", "Tensor", "TrainResult", "TrainSettings", "VersionError",
    "binarize_label",
    "build_meta_set", "config_hash", "default_config", "eca_kernel_size",
    "evaluate_scores", "fuse_score", "generate_dataset", "grad_enabled",
    "load_checkpoint", "load_config", "load_manifest",
    "mae", "mrn_forward", "mse", "no_grad", "per_sample_gradients",
    "pseudo_split", "run_ablation", "run_pipeline", "save_checkpoint",
    "save_manifest", "segment_report", "srocc", "ten_class_label",
    "train_binary", "train_branch", "train_model", "weighted_loss",
]
