"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

``instrument`` patches the module functions the workloads reach (as
``harness`` looks them up) and every model that ``models.build_model``
returns; ``instrument_model`` wraps one model's layer instances. The
metric names match the ``per_layer`` list in BENCHMARK.json. A layer that
a workload never reaches reads 0 there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from respdl import dsp, harness, ingest, models
from respdl.nn import optim
from workloads import MODEL_NAMES, RATES

_FAMILIES = {"Conv2d", "BatchNorm2d", "BiGRU", "MoELayer", "Dense"}


def _train_flag(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("train", False)


def _forward_label(family):
    fwd, infer = f"{family}.fwd", f"{family}.infer"
    return lambda args, kwargs: fwd if _train_flag(args, kwargs) else infer


def _model_info(name):
    return lambda args, kwargs, result: {"m": name}


def _conv_info(conv, name, block1, grad):
    """im2col bytes from the call's shapes: forward gathers kh*kw*in_ch
    values per output position, the input gradient kh*kw*out_ch."""
    width = conv.kh * conv.kw * (conv.out_ch if grad else conv.in_ch)

    def info(args, kwargs, result):
        b, h, w, _ = args[0].shape
        return {"m": name, "block1": block1, "bytes": b * h * w * width * args[0].itemsize}

    return info


def model_layers(model):
    """Every layer instance of a model: its conv blocks plus each attribute
    with a backward pass (MoE head, GRU, pools, dense layers, dropouts)."""
    for block in model.blocks:
        yield from block
    for value in vars(model).values():
        if hasattr(value, "backward"):
            yield value


def instrument_model(tracer, model):
    name = model.name
    first_conv = next(layer for layer in model.blocks[0] if type(layer).__name__ == "Conv2d")
    for layer in model_layers(model):
        cls = type(layer).__name__
        family = cls if cls in _FAMILIES else "elementwise"
        if cls == "Conv2d":
            block1 = layer is first_conv
            fwd_info = _conv_info(layer, name, block1, grad=False)
            bwd_info = _conv_info(layer, name, block1, grad=True)
        else:
            fwd_info = bwd_info = _model_info(name)
        tracer.patch_method(layer, "forward", _forward_label(family), fwd_info)
        tracer.patch_method(layer, "backward", f"{family}.bwd", bwd_info)
    tracer.patch_method(model, "forward", _forward_label("model"), _model_info(name))
    tracer.patch_method(model, "backward", "model.bwd", _model_info(name))


def instrument(tracer):
    """Patch the program's public functions as the harness calls them."""
    first_arg_model = lambda args, kwargs, result: {"m": args[0].name}  # noqa: E731
    tracer.patch(harness, "train_loop", "train_loop", first_arg_model)
    tracer.patch(harness, "evaluate_entities", "evaluate_entities", first_arg_model)
    for fn in ("run_fold", "run_cv", "build_features", "duplicate_to_min"):
        tracer.patch(harness, fn, fn)
    tracer.patch(harness, "mixup_batch", "mixup")
    tracer.patch(harness, "loss_ce_l2", "loss")
    tracer.patch(harness, "add_l2_grads", "l2_grads")
    tracer.patch(optim.Adam, "step", "Adam.step")
    tracer.patch(ingest, "load_wav", "load_wav",
                 lambda args, kwargs, result: {"path": str(args[0])})
    tracer.patch(ingest, "extract_cycles", "extract_cycles")
    tracer.patch(dsp, "resample", "resample",
                 lambda args, kwargs, result: {"rate": args[1], "audio_s": len(args[0]) / args[1]})
    tracer.patch(dsp, "gammatone_spectrogram", "gammatone_spectrogram",
                 lambda args, kwargs, result: {"frames": result.values.shape[1]})
    tracer.patch(dsp, "fit_norm_stats", "fit_norm_stats")

    build = models.build_model

    def build_instrumented(*args, **kwargs):
        model = build(*args, **kwargs)
        instrument_model(tracer, model)
        return model

    tracer.swap(models, "build_model", tracer.wrap(build_instrumented, "build_model"))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, n_rounds, rounds_wall_s, span_cost_s):
    """Per-layer metrics from one traced run.

    nn figures are ms per training step of that model (a step is one
    ``model.backward``) or ms per inference forward call; front-end figures
    are ms per call, per entity or per second of input audio; harness
    figures are seconds per round.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    total = defaultdict(float)  # (name, model) -> seconds
    calls = defaultdict(int)
    self_total = defaultdict(float)
    folds = []
    block1_bwd = defaultdict(float)
    im2col = defaultdict(int)
    resample_s = defaultdict(float)
    resample_audio = defaultdict(float)
    frames = []
    paths = set()
    owner = [None] * len(spans)  # model a span works for, inherited from ancestors
    for i, span in enumerate(spans):
        info = span.info or {}
        m = info.get("m") or (owner[span.parent] if span.parent >= 0 else None)
        owner[i] = m
        key = (span.name, m)
        total[key] += span.duration
        calls[key] += 1
        self_total[key] += self_s[i]
        if span.name == "run_fold":
            folds.append(span.duration)
        elif span.name in ("Conv2d.fwd", "Conv2d.bwd"):
            im2col[m] += info["bytes"]
            if span.name == "Conv2d.bwd" and info["block1"]:
                block1_bwd[m] += span.duration
        elif span.name == "resample":
            resample_s[info["rate"]] += span.duration
            resample_audio[info["rate"]] += info["audio_s"]
        elif span.name == "gammatone_spectrogram":
            frames.append(info["frames"])
        elif span.name == "load_wav":
            paths.add(info["path"])

    def all_models(table, name):
        return sum(v for (n, _), v in table.items() if n == name)

    def mean_ms(name):
        return 1000 * _ratio(all_models(total, name), all_models(calls, name))

    out = {}
    for m in MODEL_NAMES:
        steps = calls[("model.bwd", m)]
        infers = calls[("model.infer", m)]
        per_step = lambda *names: 1000 * _ratio(sum(total[(n, m)] for n in names), steps)  # noqa: E731
        per_infer = lambda name: 1000 * _ratio(total[(name, m)], infers)  # noqa: E731
        for family in ("Conv2d", "BatchNorm2d"):
            out[f"{family}.fwd_ms.{m}"] = per_step(f"{family}.fwd")
            out[f"{family}.bwd_ms.{m}"] = per_step(f"{family}.bwd")
            out[f"{family}.infer_ms.{m}"] = per_infer(f"{family}.infer")
        out[f"Conv2d.block1.bwd_ms.{m}"] = 1000 * _ratio(block1_bwd[m], steps)
        out[f"Conv2d.im2col_bytes.{m}"] = _ratio(im2col[m], steps)
        out[f"elementwise.fwd_ms.{m}"] = per_step("elementwise.fwd")
        out[f"elementwise.bwd_ms.{m}"] = per_step("elementwise.bwd")
        out[f"loss_ms.{m}"] = per_step("loss", "l2_grads")
        out[f"Adam.step_ms.{m}"] = per_step("Adam.step")
        out[f"mixup_ms.{m}"] = per_step("mixup")
        out[f"train_step.self_ms.{m}"] = 1000 * _ratio(self_total[("train_loop", m)], steps)
        if m == "crnn":
            out["BiGRU.fwd_ms.crnn"] = per_step("BiGRU.fwd")
            out["BiGRU.bwd_ms.crnn"] = per_step("BiGRU.bwd")
            out["BiGRU.infer_ms.crnn"] = per_infer("BiGRU.infer")
            out["Dense.fwd_ms"] = per_step("Dense.fwd")
            out["Dense.bwd_ms"] = per_step("Dense.bwd")
        else:
            out["MoELayer.fwd_ms"] = per_step("MoELayer.fwd")
            out["MoELayer.bwd_ms"] = per_step("MoELayer.bwd")

    out["load_wav.ms_per_rec"] = mean_ms("load_wav")
    for rate in RATES:
        out[f"resample.ms_per_audio_s.{rate}"] = 1000 * _ratio(resample_s[rate], resample_audio[rate])
    out["extract_cycles.ms_per_rec"] = mean_ms("extract_cycles")
    out["duplicate_to_min.ms_per_entity"] = mean_ms("duplicate_to_min")
    out["gammatone_spectrogram.ms_per_entity"] = mean_ms("gammatone_spectrogram")
    out["gammatone_spectrogram.frames"] = _ratio(sum(frames), len(frames))
    out["build_features.self_ms"] = 1000 * _ratio(
        all_models(self_total, "build_features"), all_models(calls, "build_features"))
    out["load_wav.calls_per_recording"] = _ratio(all_models(calls, "load_wav"), len(paths))
    out["fit_norm_stats_ms"] = mean_ms("fit_norm_stats")

    for name in ("build_features", "train_loop", "evaluate_entities"):
        out[f"{name}_s"] = _ratio(all_models(total, name), n_rounds)
    out["evaluate_entities.share"] = _ratio(all_models(total, "evaluate_entities"), rounds_wall_s)
    out["run_fold.self_s"] = _ratio(all_models(self_total, "run_fold"), n_rounds)
    out["run_fold.s.p50"] = statistics.median(folds) if folds else 0.0

    out["trace.spans_per_round"] = _ratio(len(spans), n_rounds)
    out["trace.overhead_ms"] = 1000 * _ratio(span_cost_s * len(spans), n_rounds)
    out["trace.overhead_share"] = _ratio(span_cost_s * len(spans), rounds_wall_s)
    return out
