"""Command-line entry point.

Subcommands wire the pipeline end to end: ``synth`` (fixture generator),
``ingest`` (a run's manifest, rejects and folds, as ``train`` writes them),
``train`` (cross-validated training), ``eval`` (score a checkpoint),
``sweep-cycle`` and ``sweep-timeres`` (the cycle-length and
time-resolution analyses: one sweep, over the minimum cycle length or the
patch width), ``predict`` (score one WAV) and ``gradcheck``
(finite-difference verification). Features are computed from the WAV
files on every run; nothing is cached on disk.

Configuration precedence: command-line flag beats config-file value beats
built-in default; ``eval`` takes its configuration from the checkpoint,
and only the data paths can be overridden. Config files are flat
``key=value`` lines with ``#`` comments; unknown keys are rejected. Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import dsp, harness, ingest, synth
from .errors import NumericalError, ParameterError, ParseError, RespdlError
from .harness import CONFIG_KEYS
from .nn.gradcheck import standard_suite

CONFIG_HELP = {
    "task": "sub-task: Task1_4class, Task1_2class, Task2_3class or Task2_2class",
    "model": "classifier: cnn_moe, crnn or ensemble",
    "min_cycle_seconds": "minimum cycle length; short cycles are duplicated (Task 1 only)",
    "patch_width": "spectrogram patch width in frames (32/64/96/128/160)",
    "k": "number of cross-validation folds",
    "fold_seed": "seed for the fold assignment",
    "patient_independent": "assign whole patients to folds (true/false)",
    "mixup": "enable mixup augmentation (true/false)",
    "gru_hidden": "bi-GRU hidden size per direction",
    "select": "checkpoint selection: best held-out epoch or final",
    "early_stop_acc": "stop once train accuracy holds at this level (0 disables)",
    "early_stop_patience": "consecutive epochs above early_stop_acc before stopping",
    "audio_dir": "directory of WAV + annotation files",
    "diagnosis_file": "patient_id,diagnosis text file",
    "out_dir": "root directory for run outputs",
    "jobs": "worker processes training (fold, member) pairs side by side, one BLAS "
            "thread each; default every usable core, lowered to what memory allows; "
            "1 trains in this process",
    "epochs": "training epochs",
    "batch_size": "mini-batch size",
    "lr": "Adam learning rate",
    "l2_lambda": "L2 penalty weight",
    "seed": "training seed (init, shuffling, dropout, mixup)",
}

# Data paths: stored absolute, so a checkpoint can be scored from any
# directory; eval's only options besides the checkpoint, since a checkpoint
# may be scored where its training data lives elsewhere.
DEPLOYMENT_KEYS = ("audio_dir", "diagnosis_file")

# sweep command -> (config key that harness.sweep sweeps, values option,
# default values, command help, values help); cmd_sweep serves both
SWEEPS = {
    "sweep-cycle": ("min_cycle_seconds", "--lengths", harness.CYCLE_SWEEP_LENGTHS,
                    "minimum-cycle-length sweep (Task 1)", "comma-separated seconds"),
    "sweep-timeres": ("patch_width", "--widths", harness.TIMERES_SWEEP_WIDTHS,
                      "patch-width sweep (Task 2)", "comma-separated frame counts"),
}


class UsageError(Exception):
    pass


def _values_of(kind):
    """An argparse type: comma-separated finite positive values, each
    converted with ``kind``."""
    def parse(text):
        try:
            values = [kind(value) for value in text.split(",")]
            if all(0 < value < math.inf for value in values):
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite positive {kind.__name__} values, got {text!r}")
    return parse


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    for lineno, raw in enumerate(ingest.read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", line=lineno, path=path)
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _absolute_data_paths(cfg: harness.ExperimentConfig) -> harness.ExperimentConfig:
    return replace(cfg, **{key: os.path.abspath(getattr(cfg, key))
                           for key in DEPLOYMENT_KEYS if getattr(cfg, key)})


def build_config(args) -> harness.ExperimentConfig:
    """The built-in defaults, then the config file, then flags; data paths
    are made absolute."""
    try:
        values = parse_config_file(args.config) if args.config else {}
        values.update({
            key: getattr(args, f"cfg_{key}")
            for key in CONFIG_KEYS
            if getattr(args, f"cfg_{key}") is not None
        })
        cfg = harness.config_from_dict(values)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    return _absolute_data_paths(cfg)


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

    p = sub.add_parser("ingest", help="write the manifest, rejects and folds of a run")
    _add_config_flags(p)

    p = sub.add_parser("train", help="train with k-fold cross-validation")
    _add_config_flags(p)
    p.add_argument("--fold", type=int, default=None, help="train a single fold")

    p = sub.add_parser("eval", help="evaluate a checkpoint on its held-out fold")
    p.add_argument("--checkpoint", required=True)
    for key in DEPLOYMENT_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       help=f"{CONFIG_HELP[key]} (default: the checkpoint's)")

    for command, (key, option, defaults, help_text, values_help) in SWEEPS.items():
        p = sub.add_parser(command, help=help_text)
        _add_config_flags(p)
        p.add_argument(option, dest="values", type=_values_of(harness.SWEEP_KEYS[key][0]),
                       default=defaults, metavar=option[2:].upper(), help=values_help)
        p.add_argument("--full-cv", action="store_true",
                       help="average all folds instead of fold 0")

    p = sub.add_parser("predict", help="score one WAV against a checkpoint")
    p.add_argument("--model", required=True, dest="checkpoint", metavar="CKPT")
    p.add_argument("--wav", required=True)

    sub.add_parser("gradcheck", help="finite-difference gradient verification")
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _load_manifest(cfg: harness.ExperimentConfig) -> ingest.DatasetManifest:
    if not cfg.audio_dir:
        raise UsageError("audio_dir is required (flag --audio-dir or config file)")
    manifest = ingest.build_manifest(cfg.audio_dir, cfg.diagnosis_file or None, cfg.task)
    if not manifest.records:
        raise ParameterError(f"no usable recordings under {cfg.audio_dir}")
    return manifest


def _run_dir(cfg: harness.ExperimentConfig) -> Path:
    run_dir = Path(cfg.out_dir) / f"run_{harness.config_hash(cfg)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(harness.config_text(cfg))
    return run_dir


def _save_dataset(cfg: harness.ExperimentConfig, manifest: ingest.DatasetManifest,
                  folds: ingest.FoldAssignment) -> Path:
    """The run directory, with the manifest, rejects and fold assignment in it."""
    run_dir = _run_dir(cfg)
    ingest.save_manifest(manifest, run_dir / "manifest.txt")
    ingest.save_rejects(manifest, run_dir / "rejects.csv")
    ingest.save_folds(folds, run_dir / "folds.csv")
    return run_dir


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
    cfg = build_config(args)
    manifest = _load_manifest(cfg)
    folds = harness.config_folds(cfg, manifest)
    run_dir = _save_dataset(cfg, manifest, folds)
    print(f"recordings={len(manifest.records)} cycles={manifest.total_cycles} "
          f"counts={manifest.class_counts()} rejects={len(manifest.rejects)}")
    print(f"fold sizes: {folds.fold_sizes()}")
    print(f"run directory: {run_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    if args.fold is not None and not 0 <= args.fold < cfg.k:
        raise UsageError(f"--fold {args.fold} is outside the k={cfg.k} folds 0..{cfg.k - 1}")
    manifest = _load_manifest(cfg)
    features = harness.build_features(manifest, cfg.task, cfg.min_cycle_seconds)
    folds = harness.config_folds(cfg, manifest)
    run_dir = _save_dataset(cfg, manifest, folds)

    fold_ids = [args.fold] if args.fold is not None else None
    try:
        result = harness.run_cv(cfg, features, folds, fold_ids=fold_ids, run_dir=run_dir)
    except NumericalError as exc:  # the member job saved its last good state
        path = run_dir / f"ckpt_{exc.model_name}_fold{exc.fold_id}.aborted.rsdl"
        print(f"NaN abort; last good checkpoint saved to {path}", file=sys.stderr)
        raise
    (run_dir / "report.csv").write_text(harness.report_csv(result))
    for fold_result in result.fold_results:
        _print_metrics(f"fold {fold_result.fold_id}:", fold_result.metrics)
    _print_metrics("mean:", result.mean)
    print(f"run directory: {run_dir}")
    return 0


def cmd_eval(args) -> int:
    ckpt = harness.load_fold_checkpoint(args.checkpoint)
    paths = {key: getattr(args, key) for key in DEPLOYMENT_KEYS if getattr(args, key) is not None}
    cfg = _absolute_data_paths(replace(ckpt.config, **paths))
    manifest = _load_manifest(cfg)
    folds = harness.config_folds(cfg, manifest)
    features = harness.build_features(
        manifest, cfg.task, cfg.min_cycle_seconds,
        entity_ids=[eid for eid, fold in folds.assignment.items() if fold == ckpt.fold_id])
    if not features:
        raise ParameterError(f"fold {ckpt.fold_id}: no held-out entities")
    groups, truths = harness.heldout_set(features, sorted(features), ckpt.stats,
                                         cfg.patch_width)
    probs = harness.evaluate_entities(ckpt.model, groups)
    _print_metrics(f"fold {ckpt.fold_id}:", harness.score(probs, truths, cfg.task))
    return 0


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    manifest = _load_manifest(cfg)
    report = harness.sweep(cfg, manifest, SWEEPS[args.command][0], args.values,
                           full_cv=args.full_cv)
    run_dir = _run_dir(cfg)
    (run_dir / f"{args.command.replace('-', '_')}.csv").write_text(report.to_csv())
    print(report.to_csv())
    return 0


def cmd_predict(args) -> int:
    ckpt = harness.load_fold_checkpoint(args.checkpoint)
    cfg = ckpt.config
    wav = Path(args.wav)
    spec = harness.entity_spectrogram(harness.load_recording(wav).samples,
                                      harness.min_entity_seconds(cfg.task, cfg.min_cycle_seconds),
                                      dsp.build_gammatone_bank(), wav.name)
    patches = harness.normalized_patches(spec, ckpt.stats, cfg.patch_width)
    probs = harness.evaluate_entities(ckpt.model, {wav.name: patches})[wav.name]
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
    "train": cmd_train,
    "eval": cmd_eval,
    **dict.fromkeys(SWEEPS, cmd_sweep),
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
    except (RespdlError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
