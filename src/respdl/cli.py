"""Command-line entry point.

Subcommands wire the pipeline end to end: ``synth`` (fixture generator),
``ingest`` (manifest + folds), ``features`` (spectrogram cache), ``train``
(cross-validated training), ``eval`` (score a checkpoint), ``sweep-cycle``
and ``sweep-timeres`` (the two analyses), ``predict`` (score one WAV) and
``gradcheck`` (finite-difference verification).

Configuration precedence: command-line flag beats config-file value beats
built-in default. Config files are flat ``key=value`` lines with ``#``
comments; unknown keys are rejected. Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import dsp, harness, ingest, models, synth
from .errors import NumericalError, ParameterError, ParseError, RespdlError
from .harness import CONFIG_KEYS
from .nn.gradcheck import standard_suite

CACHE_ENV = "RESPDL_CACHE"

CONFIG_HELP = {
    "task": "sub-task: Task1_4class, Task1_2class, Task2_3class or Task2_2class",
    "model": "classifier: cnn_moe, crnn or ensemble",
    "min_cycle_seconds": "minimum cycle length; short cycles are duplicated (Task 1 only)",
    "patch_width": "spectrogram patch width in frames (32/64/96/128/160)",
    "k": "number of cross-validation folds",
    "fold_seed": "seed for the fold assignment",
    "patient_independent": "assign whole patients to folds (true/false)",
    "mixup": "enable mixup augmentation (true/false)",
    "mixup_alpha": "Beta distribution parameter for mixup",
    "gru_hidden": "bi-GRU hidden size per direction",
    "moe_experts": "number of experts in the MoE layer",
    "select": "checkpoint selection: best held-out epoch or final",
    "early_stop_acc": "stop once train accuracy holds at this level (0 disables)",
    "early_stop_patience": "consecutive epochs above early_stop_acc before stopping",
    "audio_dir": "directory of WAV + annotation files",
    "diagnosis_file": "patient_id,diagnosis text file",
    "out_dir": "root directory for run outputs",
    "jobs": "worker processes for independent folds/sweep points",
    "epochs": "training epochs",
    "batch_size": "mini-batch size",
    "lr": "Adam learning rate",
    "beta1": "Adam first-moment decay",
    "beta2": "Adam second-moment decay",
    "eps": "Adam epsilon",
    "l2_lambda": "L2 penalty weight",
    "seed": "training seed (init, shuffling, dropout, mixup)",
}

# Data paths: eval takes them from the command line when given, since a
# checkpoint may be scored where its training data lives elsewhere.
DEPLOYMENT_KEYS = ("audio_dir", "diagnosis_file")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _add_config_flags(parser):
    for key in CONFIG_KEYS:
        parser.add_argument(
            f"--{key.replace('_', '-')}",
            dest=f"cfg_{key}",
            default=None,
            metavar="V",
            help=CONFIG_HELP[key],
        )
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file (flags override it)")


def parse_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(args, base: harness.ExperimentConfig | None = None) -> harness.ExperimentConfig:
    """``base`` (default: the built-in defaults), then the config file, then flags."""
    try:
        values = parse_config_file(args.config) if getattr(args, "config", None) else {}
        values.update({
            key: getattr(args, f"cfg_{key}")
            for key in CONFIG_KEYS
            if getattr(args, f"cfg_{key}", None) is not None
        })
        return harness.config_from_dict(values, base)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="respdl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic desk-scale dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=4, choices=(2, 4))
    p.add_argument("--n", type=int, default=40, help="number of recordings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles-per-rec", type=int, default=1)
    p.add_argument("--cycle-seconds", type=float, default=0.56)
    p.add_argument("--sr", type=int, default=16000)

    p = sub.add_parser("ingest", help="build the dataset manifest and folds")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--diagnosis", required=True)
    p.add_argument("--task", default="Task1_4class", choices=ingest.TASKS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--fold-seed", type=int, default=7)
    p.add_argument("--patient-independent", action="store_true")

    p = sub.add_parser("features", help="compute and cache gammatone features")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--diagnosis", required=True)
    p.add_argument("--task", default="Task1_4class", choices=ingest.TASKS)
    p.add_argument("--min-cycle-seconds", type=float, default=6.0)
    p.add_argument("--out", default=None,
                   help=f"cache directory (default ${CACHE_ENV} or ./feature_cache)")

    p = sub.add_parser("train", help="train with k-fold cross-validation")
    _add_config_flags(p)
    p.add_argument("--fold", type=int, default=None, help="train a single fold")

    p = sub.add_parser("eval", help="evaluate a checkpoint on its held-out fold")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="must match the checkpoint's fold")

    p = sub.add_parser("sweep-cycle", help="minimum-cycle-length sweep (Task 1)")
    _add_config_flags(p)
    p.add_argument("--lengths", default="2,3,4,5,6,7,8",
                   help="comma-separated seconds")
    p.add_argument("--full-cv", action="store_true",
                   help="average all folds instead of fold 0")

    p = sub.add_parser("sweep-timeres", help="patch-width sweep (Task 2)")
    _add_config_flags(p)
    p.add_argument("--widths", default="32,64,96,128,160",
                   help="comma-separated frame counts")
    p.add_argument("--full-cv", action="store_true")

    p = sub.add_parser("predict", help="score one WAV against a checkpoint")
    p.add_argument("--model", required=True, dest="checkpoint", metavar="CKPT")
    p.add_argument("--wav", required=True)

    sub.add_parser("gradcheck", help="finite-difference gradient verification")
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _prepare(cfg: harness.ExperimentConfig):
    if not cfg.audio_dir:
        raise UsageError("audio_dir is required (flag --audio-dir or config file)")
    manifest = ingest.build_manifest(cfg.audio_dir, cfg.diagnosis_file or None, cfg.task)
    if not manifest.records:
        raise ParameterError(f"no usable recordings under {cfg.audio_dir}")
    features = harness.build_features(manifest, cfg.task, cfg.min_cycle_seconds)
    folds = ingest.make_folds(manifest, cfg.k, cfg.fold_seed, cfg.task,
                              cfg.patient_independent)
    missing = [e for e in folds.assignment if e not in features]
    for eid in missing:
        del folds.assignment[eid]
    return manifest, features, folds


def _run_dir(cfg: harness.ExperimentConfig) -> Path:
    run_dir = Path(cfg.out_dir) / f"run_{harness.config_hash(cfg)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(harness.config_text(cfg))
    return run_dir


def _save_fold_outputs(run_dir: Path, cfg, result: harness.FoldResult):
    for name, history in result.histories.items():
        path = run_dir / f"history_{name}_fold{result.fold_id}.csv"
        path.write_text(harness.history_csv(history))
    for name, snap in result.checkpoints.items():
        ckpt = run_dir / f"ckpt_{name}_fold{result.fold_id}.rsdl"
        harness.save_fold_checkpoint(ckpt, cfg, name, result.fold_id, result.stats, snap)
        card = run_dir / f"ckpt_{name}_fold{result.fold_id}.card.txt"
        card.write_text(harness.model_card(cfg, name, result.fold_id))


def _print_metrics(prefix: str, m: harness.Metrics):
    print(f"{prefix} spec={m.specificity:.4f} sen={m.sensitivity:.4f} "
          f"score={m.icbhi_score:.4f}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    stems = synth.generate(
        args.out,
        n_recordings=args.n,
        n_classes=args.classes,
        seed=args.seed,
        sample_rate=args.sr,
        cycle_seconds=args.cycle_seconds,
        cycles_per_recording=args.cycles_per_rec,
    )
    print(f"wrote {len(stems)} recordings under {args.out}")
    return 0


def cmd_ingest(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ingest.build_manifest(args.audio_dir, args.diagnosis, args.task)
    ingest.save_manifest(manifest, out / "manifest.txt")
    ingest.save_rejects(manifest, out / "rejects.csv")
    counts = manifest.class_counts()
    print(f"recordings={len(manifest.records)} cycles={manifest.total_cycles} "
          f"counts={counts} rejects={len(manifest.rejects)}")
    if manifest.records:
        folds = ingest.make_folds(manifest, args.k, args.fold_seed, args.task,
                                  args.patient_independent)
        ingest.save_folds(folds, out / "folds.csv")
        print(f"fold sizes: {folds.fold_sizes()}")
    return 0


def cmd_features(args) -> int:
    out = Path(args.out or os.environ.get(CACHE_ENV) or "feature_cache")
    out.mkdir(parents=True, exist_ok=True)
    manifest = ingest.build_manifest(args.audio_dir, args.diagnosis, args.task)
    features = harness.build_features(manifest, args.task, args.min_cycle_seconds)
    index_rows = []
    for eid in sorted(features):
        feat = features[eid]
        path = out / f"{eid}.gspc"
        dsp.write_feature(path, feat.spec)
        index_rows.append((eid, str(path), feat.spec.shape[0], feat.spec.shape[1],
                           feat.label))
    dsp.write_feature_index(out / "index.csv", index_rows)
    print(f"cached {len(index_rows)} feature files under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    manifest, features, folds = _prepare(cfg)
    run_dir = _run_dir(cfg)
    ingest.save_manifest(manifest, run_dir / "manifest.txt")
    if manifest.rejects:
        ingest.save_rejects(manifest, run_dir / "rejects.csv")
    ingest.save_folds(folds, run_dir / "folds.csv")

    fold_ids = [args.fold] if args.fold is not None else None
    try:
        result = harness.run_cv(cfg, features, folds, fold_ids=fold_ids)
    except NumericalError as exc:
        if hasattr(exc, "last_good"):
            path = run_dir / f"ckpt_{exc.model_name}_fold{exc.fold_id}.aborted.rsdl"
            harness.save_fold_checkpoint(path, cfg, exc.model_name, exc.fold_id, exc.stats,
                                         exc.last_good)
            print(f"NaN abort; last good checkpoint saved to {path}", file=sys.stderr)
        raise
    (run_dir / "report.csv").write_text(harness.report_csv(result))
    for fold_result in result.fold_results:
        _save_fold_outputs(run_dir, cfg, fold_result)
        _print_metrics(f"fold {fold_result.fold_id}:", fold_result.metrics)
    _print_metrics("mean:", result.mean)
    print(f"run directory: {run_dir}")
    return 0


def cmd_eval(args) -> int:
    ckpt = harness.load_fold_checkpoint(args.checkpoint)
    cfg = build_config(args, base=ckpt.config)
    trained, asked = harness.config_to_dict(ckpt.config), harness.config_to_dict(cfg)
    for key in CONFIG_KEYS:
        if key not in DEPLOYMENT_KEYS and asked[key] != trained[key]:
            raise UsageError(f"--{key.replace('_', '-')} {asked[key]} differs from "
                             f"the checkpoint's {trained[key]}")
    if args.fold is not None and args.fold != ckpt.fold_id:
        raise UsageError(f"--fold {args.fold} differs from the checkpoint's {ckpt.fold_id}")

    _, features, folds = _prepare(cfg)
    heldout = sorted(e for e in features if folds.assignment[e] == ckpt.fold_id)
    groups = {eid: harness.normalized_patches(features[eid].spec, ckpt.stats, cfg.patch_width)
              for eid in heldout}
    probs = harness.evaluate_entities(ckpt.model, groups)
    preds = {eid: int(np.argmax(p)) for eid, p in probs.items()}
    truths = {eid: features[eid].label for eid in heldout}
    metrics = harness.compute_metrics(preds, truths, cfg.task)
    _print_metrics(f"fold {ckpt.fold_id}:", metrics)
    return 0


def cmd_sweep_cycle(args) -> int:
    cfg = build_config(args)
    if not cfg.audio_dir:
        raise UsageError("audio_dir is required")
    lengths = tuple(float(v) for v in args.lengths.split(","))
    manifest = ingest.build_manifest(cfg.audio_dir, cfg.diagnosis_file or None,
                                     "Task1_4class")
    report = harness.sweep_cycle_length(cfg, manifest, lengths=lengths,
                                        full_cv=args.full_cv)
    run_dir = _run_dir(cfg)
    (run_dir / "sweep_cycle.csv").write_text(report.to_csv())
    print(report.to_csv())
    return 0


def cmd_sweep_timeres(args) -> int:
    cfg = build_config(args)
    if not cfg.audio_dir:
        raise UsageError("audio_dir is required")
    widths = tuple(int(v) for v in args.widths.split(","))
    manifest = ingest.build_manifest(cfg.audio_dir, cfg.diagnosis_file or None,
                                     "Task2_3class")
    report = harness.sweep_time_resolution(cfg, manifest, widths=widths,
                                           full_cv=args.full_cv)
    run_dir = _run_dir(cfg)
    (run_dir / "sweep_timeres.csv").write_text(report.to_csv())
    print(report.to_csv())
    return 0


def cmd_predict(args) -> int:
    ckpt = harness.load_fold_checkpoint(args.checkpoint)
    cfg = ckpt.config
    wav = Path(args.wav)
    # the checkpoint's minimum cycle length; whole recordings get one window
    by_cycle = ingest.task_entity_level(cfg.task) == "cycle"
    spec = harness.entity_spectrogram(harness.load_recording(wav).samples,
                                      cfg.min_cycle_seconds if by_cycle else 0.0,
                                      dsp.build_gammatone_bank(), wav.name)
    patches = harness.normalized_patches(spec, ckpt.stats, cfg.patch_width)
    probs = models.aggregate_patches(ckpt.model.forward(patches, train=False))
    print(",".join(ingest.TASK_CLASS_NAMES[cfg.task]))
    print(",".join(f"{p:.6f}" for p in probs))
    return 0


def cmd_gradcheck(args) -> int:
    rows = standard_suite()
    failed = 0
    for name, err, tol in rows:
        ok = err < tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:20s} max_rel_err={err:.3e}  tol={tol:.0e}")
    if failed:
        print(f"{failed} gradient check(s) exceeded tolerance", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "features": cmd_features,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-cycle": cmd_sweep_cycle,
    "sweep-timeres": cmd_sweep_timeres,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return dispatch(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (RespdlError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
