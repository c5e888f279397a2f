"""In-memory span tracer that instruments the public functions of `amcr`
from outside the package.

Every wrapped call records a span (id, parent id, request id, name, start,
end) and may add counters computed from its arguments and result. Spans
nest by call order: the parent of a span is the innermost span open when
it started, and the request id is the outermost one, which the harness
opens around each `amcr.cli.main` call. Nothing under `src/` is modified;
each function is patched at the place the caller looks it up.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

F64 = 8  # bytes per float64 element


class Tracer:
    """Collects spans and counters for one process; single-threaded."""

    def __init__(self):
        self.spans = []          # [id, parent, request, name, start, end]
        self.counts = defaultdict(float)
        self.conv_rows = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), None if parent is None else parent[0],
                len(self.spans) if parent is None else parent[2],
                name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace `owner.attr` with a function that records a span named
        `name`; `on_call(tracer, args, kwargs, result, seconds)` may add
        counters after each call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if on_call is not None:
                on_call(self, args, kwargs, result, span[5] - span[4])
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Patch `owner.attr` to bump `counter` per call, without a span
        (for calls too frequent to record one by one)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child_time = defaultdict(float)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, _req, name, start, end in self.spans:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        return table

    def nesting_errors(self) -> list:
        """Spans that are not closed, not inside their parent's interval,
        or not rooted in a `cli.*` request span."""
        errors = []
        for sid, parent, req, name, start, end in self.spans:
            if end is None:
                errors.append(f"{name}#{sid} never closed")
                continue
            if parent is not None:
                p = self.spans[parent]
                if not (p[4] <= start and end <= p[5]):
                    errors.append(f"{name}#{sid} escapes parent {p[3]}")
            if not self.spans[req][3].startswith("cli."):
                errors.append(f"{name}#{sid} has no cli request")
        return errors

    def conv_table(self) -> list:
        """Per-op, per-shape conv rows; FLOPs and bytes are computed from
        the shapes, not measured."""
        rows = []
        for (op, cin, cout, h, w, stride, k), v in sorted(self.conv_rows.items()):
            rows.append({"op": op, "cin": cin, "cout": cout, "h": h, "w": w,
                         "stride": stride, "kernel": k, "calls": v[0],
                         "s": v[1], "computed_gflop": v[2] / 1e9,
                         "computed_mb": v[3] / 1e6})
        return rows

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (lists keep it compact)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name",
                                  "start", "end"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# counters computed from arguments and results


def _conv_out(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _record_conv(tracer, op, cin, cout, h, w, stride, k, ho, wo, seconds):
    """One GEMM of the im2col form: 2*cout*cin*k*k*ho*wo FLOPs; bytes are
    the input, kernel and output operands once each (the backward ops touch
    the same three arrays in other roles)."""
    flop = 2.0 * cout * cin * k * k * ho * wo
    moved = F64 * (cin * h * w + cout * cin * k * k + cout * ho * wo)
    row = tracer.conv_rows[(op, cin, cout, h, w, stride, k)]
    row[0] += 1
    row[1] += seconds
    row[2] += flop
    row[3] += moved
    tracer.counts[f"kernels.{op}.flop"] += flop


def _on_conv_forward(tracer, args, kwargs, result, seconds):
    x, k, stride, pad = args
    cin, h, w = x.shape
    cout, _, kh, _ = k.shape
    ho, wo = _conv_out(h, w, kh, stride, pad)
    _record_conv(tracer, "conv2d_forward", cin, cout, h, w, stride, kh,
                 ho, wo, seconds)


def _on_conv_backward_input(tracer, args, kwargs, result, seconds):
    dy, k, stride, pad, h, w = args
    cout, ho, wo = dy.shape
    _, cin, kh, _ = k.shape
    _record_conv(tracer, "conv2d_backward_input", cin, cout, h, w, stride,
                 kh, ho, wo, seconds)


def _on_conv_backward_kernel(tracer, args, kwargs, result, seconds):
    dy, x, stride, pad, kh, kw = args
    cout, ho, wo = dy.shape
    cin, h, w = x.shape
    _record_conv(tracer, "conv2d_backward_kernel", cin, cout, h, w, stride,
                 kh, ho, wo, seconds)


def _on_per_sample_gradients(tracer, args, kwargs, result, seconds):
    tracer.counts["tensor.per_sample_gradients.bytes"] += sum(
        g.nbytes for grads in result for g in grads.values())


def _on_train_model(tracer, args, kwargs, result, seconds):
    tracer.counts["training.iterations"] += result.iterations


def _file_bytes(counter):
    """Count the size of the file named by the call's first argument."""
    def on_call(tracer, args, kwargs, result, seconds):
        tracer.counts[counter] += os.path.getsize(args[0])
    return on_call


def instrument(tracer: Tracer, amcr_modules: dict) -> None:
    """Patch every traced entry point of the given `amcr` modules, keyed by
    short name (`cli`, `tensor`, ...). `tracer.restore()` undoes it."""
    m = amcr_modules
    kernels, tensor, blocks = m["kernels"], m["tensor"], m["blocks"]
    meta, optim, training = m["meta"], m["optim"], m["training"]
    pipeline, cli, data, pnm = m["pipeline"], m["cli"], m["data"], m["pnm"]

    # tensor: reads kernels.* by attribute, so patch the kernels module
    tracer.wrap(kernels, "conv2d_forward", "kernels.conv2d_forward",
                _on_conv_forward)
    tracer.wrap(kernels, "conv2d_backward_input",
                "kernels.conv2d_backward_input", _on_conv_backward_input)
    tracer.wrap(kernels, "conv2d_backward_kernel",
                "kernels.conv2d_backward_kernel", _on_conv_backward_kernel)
    tracer.wrap(kernels, "adaptive_avg_pool_forward",
                "kernels.adaptive_avg_pool")
    tracer.wrap(kernels, "adaptive_avg_pool_backward",
                "kernels.adaptive_avg_pool")
    tracer.count_calls(tensor.Tensor, "__init__", "tensor.nodes")
    tracer.wrap(tensor.Tensor, "backward", "tensor.backward")
    tracer.wrap(tensor, "per_sample_gradients", "tensor.per_sample_gradients",
                _on_per_sample_gradients)

    tracer.wrap(blocks.AestheticNet, "forward", "blocks.forward")
    tracer.wrap(meta, "mrn_forward", "blocks.mrn_forward")

    tracer.wrap(meta.MetaState, "meta_iteration", "meta.iteration")
    tracer.wrap(meta.MetaState, "lookahead_update", "meta.lookahead_update")
    tracer.wrap(meta.MetaState, "meta_step", "meta.meta_step")
    tracer.wrap(meta.MetaState, "main_step", "meta.main_step")
    tracer.wrap(optim.Adam, "step", "optim.adam_step")

    tracer.wrap(pipeline, "train_model", "training.train_model",
                _on_train_model)
    for name in ("eval_class_accuracy", "eval_reg_mse",
                 "eval_reg_feature_mse"):
        tracer.wrap(training, name, "training.validate")
    tracer.wrap(training, "cache_features", "training.cache_features")
    tracer.wrap(training, "predict_class", "training.predict")
    tracer.wrap(training, "predict_score", "training.predict")

    tracer.wrap(cli, "prepare_images", "pipeline.prepare_images")
    tracer.wrap(pipeline, "train_branch", "pipeline.train_branch")
    tracer.wrap(pipeline, "train_binary", "pipeline.train_binary")
    tracer.wrap(pipeline, "pseudo_split", "pipeline.pseudo_split")
    tracer.wrap(pipeline, "fuse_score", "pipeline.fuse_score")

    tracer.wrap(data, "generate_dataset", "data.generate_dataset")
    tracer.wrap(pnm, "load_pnm", "pnm.load")
    for owner in (cli, pipeline):
        for name in ("preprocess_crop", "preprocess_resize", "aab_prepare"):
            tracer.wrap(owner, name, "image.preprocess")

    tracer.wrap(cli, "save_checkpoint", "checkpoint.save",
                _file_bytes("checkpoint.save.bytes"))
    tracer.wrap(cli, "load_checkpoint", "checkpoint.load",
                _file_bytes("checkpoint.load.bytes"))


def layer_metrics(tracer: Tracer, branch_fallbacks: int) -> dict:
    """Per-layer metric name -> value, from the recorded spans and counts."""
    t = tracer.by_name()
    c = tracer.counts

    def calls(name):
        return float(t[name][0]) if name in t else 0.0

    def secs(name):
        return t[name][1] if name in t else 0.0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    out = {
        "tensor.nodes": c["tensor.nodes"],
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.backward.self_s": self_s("tensor.backward"),
        "tensor.per_sample_gradients.s": secs("tensor.per_sample_gradients"),
        "tensor.per_sample_gradients.bytes":
            c["tensor.per_sample_gradients.bytes"],
    }
    conv_s = conv_flop = 0.0
    for op in ("conv2d_forward", "conv2d_backward_input",
               "conv2d_backward_kernel"):
        name = "kernels." + op
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = secs(name)
        out[name + ".gflop"] = c[name + ".flop"] / 1e9
        conv_s += secs(name)
        conv_flop += c[name + ".flop"]
    out["kernels.conv2d.gflop_per_s"] = conv_flop / 1e9 / conv_s if conv_s else 0.0
    out["kernels.adaptive_avg_pool.s"] = secs("kernels.adaptive_avg_pool")

    out["blocks.forward.calls"] = calls("blocks.forward")
    out["blocks.forward.self_s"] = self_s("blocks.forward")
    out["blocks.mrn_forward.calls"] = calls("blocks.mrn_forward")
    out["blocks.mrn_forward.s"] = secs("blocks.mrn_forward")

    out["meta.iterations"] = calls("meta.iteration")
    out["meta.lookahead_update.self_s"] = self_s("meta.lookahead_update")
    out["meta.meta_step.self_s"] = self_s("meta.meta_step")
    out["meta.main_step.s"] = secs("meta.main_step")

    out["optim.adam_step.calls"] = calls("optim.adam_step")
    out["optim.adam_step.s"] = secs("optim.adam_step")

    iterations = c["training.iterations"]
    out["training.iterations"] = iterations
    out["training.train_model.s"] = secs("training.train_model")
    out["training.iteration_mean_ms"] = (
        1e3 * (secs("training.train_model") - secs("training.validate"))
        / iterations if iterations else 0.0)
    out["training.validate.s"] = secs("training.validate")
    out["training.cache_features.s"] = secs("training.cache_features")
    out["training.predict.calls"] = calls("training.predict")
    out["training.predict.s"] = secs("training.predict")

    out["pipeline.prepare_images.calls"] = calls("pipeline.prepare_images")
    out["pipeline.prepare_images.s"] = secs("pipeline.prepare_images")
    out["pipeline.train_branch.s"] = secs("pipeline.train_branch")
    out["pipeline.train_binary.s"] = secs("pipeline.train_binary")
    out["pipeline.pseudo_split.s"] = secs("pipeline.pseudo_split")
    out["pipeline.fuse_score.calls"] = calls("pipeline.fuse_score")
    out["pipeline.fuse_score.s"] = secs("pipeline.fuse_score")
    out["pipeline.branch_fallbacks"] = float(branch_fallbacks)

    out["data.generate_dataset.s"] = secs("data.generate_dataset")
    out["pnm.load.calls"] = calls("pnm.load")
    out["pnm.load.s"] = secs("pnm.load")
    out["image.preprocess.calls"] = calls("image.preprocess")
    out["image.preprocess.s"] = secs("image.preprocess")

    for op in ("save", "load"):
        name = "checkpoint." + op
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = secs(name)
        out[name + ".bytes"] = c[name + ".bytes"]

    out["cli.train.s"] = secs("cli.train")
    out["cli.evaluate.s"] = secs("cli.evaluate")
    out["cli.predict.s"] = secs("cli.predict")
    return out
