"""Experiment orchestration: feature preparation, per-fold training and
entity-level evaluation, cross-validation, challenge metrics, fold
checkpoints, and the cycle-length / time-resolution sweeps.

Evaluation is always at entity level (cycles for Task 1, recordings for
Task 2): patch probabilities are averaged per entity, the argmax is the
prediction. Specificity is accuracy over the baseline class (Normal or
Healthy), sensitivity is exact-class accuracy over everything else, and the
headline score is their arithmetic mean.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dsp, ingest, models
from .augment import LabeledBatch, MixupConfig, duplicate_to_min, mixup_batch
from .errors import FormatError, NumericalError, ParameterError
from .nn import (
    Adam,
    TrainConfig,
    add_l2_grads,
    assign_params,
    load_checkpoint,
    loss_ce_l2,
    save_checkpoint,
)

log = logging.getLogger(__name__)

MODEL_CHOICES = ("cnn_moe", "crnn", "ensemble")
SELECT_CHOICES = ("best", "final")
CYCLE_SWEEP_LENGTHS = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
TIMERES_SWEEP_WIDTHS = (32, 64, 96, 128, 160)


@dataclass
class ExperimentConfig:
    """Everything a run needs; flat key=value serializable.

    Task 2 ignores ``min_cycle_seconds`` (entire recordings are used).
    """

    task: str = "Task1_4class"
    model: str = "cnn_moe"
    min_cycle_seconds: float = 6.0
    patch_width: int = 128
    k: int = 5
    fold_seed: int = 7
    patient_independent: bool = False
    mixup: bool = True
    mixup_alpha: float = 0.2
    gru_hidden: int = 512
    moe_experts: int = 10
    select: str = "best"
    early_stop_acc: float = 0.0
    early_stop_patience: int = 3
    audio_dir: str = ""
    diagnosis_file: str = ""
    out_dir: str = "runs"
    jobs: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if self.task not in ingest.TASKS:
            raise ParameterError(f"task must be one of {ingest.TASKS}, got {self.task!r}")
        if self.model not in MODEL_CHOICES:
            raise ParameterError(f"model must be one of {MODEL_CHOICES}, got {self.model!r}")
        if self.patch_width not in dsp.PATCH_WIDTHS:
            raise ParameterError(
                f"patch_width must be one of {dsp.PATCH_WIDTHS}, got {self.patch_width}"
            )
        if self.select not in SELECT_CHOICES:
            raise ParameterError(f"select must be one of {SELECT_CHOICES}")
        if self.k < 2:
            raise ParameterError("k must be >= 2")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        return self

    @property
    def n_classes(self) -> int:
        return len(ingest.TASK_CLASS_NAMES[self.task])


_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "train") + _TRAIN_KEYS


def config_to_dict(cfg: ExperimentConfig) -> dict[str, str]:
    """Flatten to string key=value pairs (TrainConfig fields at top level)."""
    return {key: str(getattr(cfg.train if key in _TRAIN_KEYS else cfg, key))
            for key in CONFIG_KEYS}


def _parse_value(key: str, text: str, target_type):
    if target_type is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"{key}: expected a boolean, got {text!r}")
    try:
        return target_type(text)
    except ValueError:
        raise ParameterError(f"{key}: expected {target_type.__name__}, got {text!r}") from None


def config_from_dict(values: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a validated config from flat string values; unknown keys fail."""
    cfg = base if base is not None else ExperimentConfig()
    exp_fields = {f.name: f for f in fields(ExperimentConfig) if f.name != "train"}
    train_fields = {f.name: f for f in fields(TrainConfig)}
    exp_kwargs, train_kwargs = {}, {}
    for key, text in values.items():
        if key in exp_fields:
            exp_kwargs[key] = _parse_value(key, str(text), type(getattr(cfg, key)))
        elif key in train_fields:
            train_kwargs[key] = _parse_value(key, str(text), type(getattr(cfg.train, key)))
        else:
            raise ParameterError(f"unknown config key {key!r}")
    new_train = replace(cfg.train, **train_kwargs)
    new_cfg = replace(cfg, train=new_train, **exp_kwargs)
    return new_cfg.validate()


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical echoed form: sorted key=value lines."""
    d = config_to_dict(cfg)
    return "\n".join(f"{k}={d[k]}" for k in sorted(d)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MEMBER_KEYS = ("member", "fold", "norm_mean", "norm_std")


def build_member(config: ExperimentConfig, name: str, seed=0, dtype=np.float32):
    """An untrained ``name`` model ("cnn_moe" or "crnn") sized by ``config``."""
    return models.build_model(name, config.n_classes, patch_width=config.patch_width,
                              seed=seed, gru_hidden=config.gru_hidden,
                              n_experts=config.moe_experts, dtype=dtype)


@dataclass
class FoldCheckpoint:
    """One trained member of one fold, rebuilt from its checkpoint file."""

    config: ExperimentConfig
    fold_id: int
    stats: dsp.NormStats
    model: models.Sequential


def save_fold_checkpoint(path, config: ExperimentConfig, model_name: str, fold_id: int,
                         stats: dsp.NormStats, arrays: dict) -> None:
    """Write one member's parameters and buffers under a header holding the
    run's ``config_text``, the member, the fold and the norm statistics
    (``repr`` floats, so they round-trip exactly)."""
    header = config_text(config) + (
        f"member={model_name}\nfold={fold_id}\n"
        f"norm_mean={stats.mean!r}\nnorm_std={stats.std!r}\n"
    )
    save_checkpoint(path, header, arrays)


def load_fold_checkpoint(path) -> FoldCheckpoint:
    """Read a checkpoint written by ``save_fold_checkpoint`` and rebuild its
    model. A header field that is missing, unknown or unparsable is a
    FormatError."""
    header, arrays = load_checkpoint(path)
    values = dict(line.partition("=")[::2] for line in header.splitlines())
    missing = [key for key in CONFIG_KEYS + _MEMBER_KEYS if key not in values]
    if missing:
        raise FormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    member = {key: values.pop(key) for key in _MEMBER_KEYS}
    try:
        config = config_from_dict(values)
        stats = dsp.NormStats(mean=float(member["norm_mean"]), std=float(member["norm_std"]))
        fold_id = int(member["fold"])
        model = build_member(config, member["member"])
        model.set_buffers(arrays)
    except (KeyError, ValueError, ParameterError) as exc:
        raise FormatError(f"{path}: bad checkpoint header or entries: {exc}") from None
    assign_params(model.params(), arrays)
    return FoldCheckpoint(config, fold_id, stats, model)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class Metrics:
    """Challenge metrics for one task/fold; score is exactly the mean."""

    specificity: float
    sensitivity: float
    icbhi_score: float
    confusion: list  # N x N counts, confusion[true][pred]
    n_entities: int


def compute_metrics(predictions: dict, truths: dict, task: str) -> Metrics:
    """Specificity over the baseline class (index 0), exact-class
    sensitivity over all other classes, and their arithmetic mean."""
    if set(predictions) != set(truths):
        raise ParameterError("prediction and truth entity sets differ")
    if not truths:
        raise ParameterError("no entities to score")
    n = len(ingest.TASK_CLASS_NAMES[task])
    conf = np.zeros((n, n), dtype=int)
    for eid, true_cls in truths.items():
        conf[true_cls, predictions[eid]] += 1
    baseline_total = conf[0].sum()
    other_total = conf[1:].sum()
    if baseline_total == 0 or other_total == 0:
        raise ParameterError("need entities in both the baseline and the other classes")
    specificity = conf[0, 0] / baseline_total
    sensitivity = np.trace(conf[1:, 1:]) / other_total
    return Metrics(
        specificity=float(specificity),
        sensitivity=float(sensitivity),
        icbhi_score=(float(specificity) + float(sensitivity)) / 2.0,
        confusion=conf.tolist(),
        n_entities=int(conf.sum()),
    )


# ---------------------------------------------------------------------------
# Feature preparation
# ---------------------------------------------------------------------------


@dataclass
class EntityFeatures:
    """Per-entity unnormalized log-spectrogram plus its label and patient."""

    spec: np.ndarray
    label: int
    patient_id: str


def load_recording(path) -> ingest.AudioRecording:
    """Decode a WAV and resample it to 16 kHz."""
    recording = ingest.load_wav(path)
    recording.samples = dsp.resample(recording.samples, recording.sample_rate)
    recording.sample_rate = ingest.TARGET_RATE
    return recording


def entity_spectrogram(
    samples: np.ndarray, min_seconds: float, bank: dsp.GammatoneBank, source: str
) -> np.ndarray:
    """One entity's unnormalized (64, T) log-gammatone spectrogram.

    The 16 kHz waveform is repeated whole up to max(min_seconds, one
    analysis window). An empty waveform (a 1-sample 44.1 kHz file
    resamples to none) is a FormatError naming ``source``.
    """
    if len(samples) == 0:
        raise FormatError(f"{source}: no samples at {ingest.TARGET_RATE} Hz")
    samples = duplicate_to_min(samples, max(min_seconds, dsp.WINDOW / ingest.TARGET_RATE))
    return dsp.gammatone_spectrogram(samples, bank).values


def normalized_patches(
    spec: np.ndarray, stats: dsp.NormStats, width: int, dtype=np.float32
) -> np.ndarray:
    """z-normalize a spectrogram with training statistics and cut it into
    an (n, 64, width) array of patches."""
    return dsp.patchify((spec - stats.mean) / stats.std, width).astype(dtype)


def build_features(
    manifest: ingest.DatasetManifest,
    task: str,
    min_cycle_seconds: float,
    bank: dsp.GammatoneBank | None = None,
) -> dict[str, EntityFeatures]:
    """Decode, resample, (Task 1) slice + duplicate cycles, and compute
    unnormalized log-spectrograms per entity.

    Task 2 entities are whole recordings, duplicated only up to one
    analysis window. Normalization is deliberately left to the fold loop so
    statistics never see held-out entities.
    """
    bank = bank or dsp.build_gammatone_bank()
    by_cycle = ingest.task_entity_level(task) == "cycle"
    min_seconds = min_cycle_seconds if by_cycle else 0.0
    labels_by_entity = {eid: (cls, pid) for eid, cls, pid in manifest.entities(task)}

    out: dict[str, EntityFeatures] = {}
    for rec in manifest.records:
        path = Path(manifest.root) / f"{rec.recording_id}.wav"
        recording = load_recording(path)
        if by_cycle:
            cycles = ingest.extract_cycles(recording, rec.labels)
            entities = [(c.cycle_id, c.samples, c.cycle_id) for c in cycles]
        else:
            entities = [(rec.recording_id, recording.samples, path.name)]
        for eid, samples, source in entities:
            spec = entity_spectrogram(samples, min_seconds, bank, source)
            out[eid] = EntityFeatures(spec, *labels_by_entity[eid])
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train_loop(
    model,
    x,
    y,
    cfg: TrainConfig,
    mixup_cfg: MixupConfig | None = None,
    seed=0,
    score_fn=None,
    early_stop_acc: float = 0.0,
    early_stop_patience: int = 3,
):
    """Mini-batch Adam training with optional in-batch mixup.

    ``score_fn(model, epoch)`` is called after every epoch and its value is
    recorded in the history next to the mean train loss. Training accuracy
    is measured against the un-mixed batch labels. With ``early_stop_acc``
    set, training stops once accuracy holds at or above it for
    ``early_stop_patience`` consecutive epochs.

    Returns (history, train_accs): history rows are (epoch, train_loss,
    score). Raises NumericalError if predictions go non-finite.
    """
    params = model.params()
    adam = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    shuffle_ss, mix_ss = np.random.SeedSequence(seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    mix_rng = np.random.default_rng(mix_ss)

    n = x.shape[0]
    history = []
    train_accs = []
    streak = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            if mixup_cfg is not None and mixup_cfg.enabled:
                batch = mixup_batch(LabeledBatch(xb, yb), mixup_cfg, mix_rng)
                xb_in, yb_in = batch.patches, batch.targets
            else:
                xb_in, yb_in = xb, yb
            probs = model.forward(xb_in, train=True)
            loss, dlogits = loss_ce_l2(probs, yb_in, params, cfg.l2_lambda)
            adam.zero_grad()
            model.backward(dlogits.astype(probs.dtype))
            add_l2_grads(params, cfg.l2_lambda)
            adam.step()
            losses.append(loss)
            correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        train_loss = float(np.mean(losses))
        train_acc = correct / n
        score = float(score_fn(model, epoch)) if score_fn is not None else float("nan")
        history.append((epoch, train_loss, score))
        train_accs.append(train_acc)
        if early_stop_acc > 0.0 and train_acc >= early_stop_acc:
            streak += 1
            if streak >= early_stop_patience:
                break
        else:
            streak = 0
    return history, train_accs


def _snapshot(model):
    """Copy of all parameters plus batch-norm running statistics."""
    snap = {p.name: p.data.copy() for p in model.params()}
    snap.update(model.get_buffers())
    return snap


def _restore(model, snap):
    for p in model.params():
        p.data[...] = snap[p.name]
    model.set_buffers(snap)


def evaluate_entities(model, groups: dict, batch_size: int = 64) -> dict:
    """Entity-level probabilities: run all patches through the model in
    inference mode, then average per entity. The chunk size bounds the
    im2col working set at full patch width."""
    order = sorted(groups)
    stacked = np.concatenate([groups[eid] for eid in order], axis=0)
    sizes = [groups[eid].shape[0] for eid in order]
    chunks = [
        model.forward(stacked[i : i + batch_size], train=False)
        for i in range(0, stacked.shape[0], batch_size)
    ]
    probs = np.concatenate(chunks, axis=0)
    out = {}
    pos = 0
    for eid, size in zip(order, sizes):
        out[eid] = models.aggregate_patches(probs[pos : pos + size])
        pos += size
    return out


# ---------------------------------------------------------------------------
# Folds and cross-validation
# ---------------------------------------------------------------------------


@dataclass
class FoldResult:
    fold_id: int
    metrics: Metrics
    histories: dict  # model name -> list of (epoch, train_loss, heldout_score)
    train_ids: list
    heldout_ids: list
    stats: dsp.NormStats
    stats_ids: list
    component_metrics: dict  # model name -> Metrics (ensemble runs)
    checkpoints: dict  # model name -> {param name: array}
    train_accs: dict  # model name -> list of per-epoch train accuracy


def _model_names(config: ExperimentConfig):
    return ("cnn_moe", "crnn") if config.model == "ensemble" else (config.model,)


def _fold_seed(config: ExperimentConfig, fold_id: int, model_index: int) -> list[int]:
    return [config.train.seed, fold_id, model_index]


def run_fold(
    config: ExperimentConfig,
    fold_id: int,
    features: dict[str, EntityFeatures],
    folds: ingest.FoldAssignment,
) -> FoldResult:
    """Train on the k-1 other folds, evaluate on this one at entity level.

    Normalization statistics are fit on the training folds only. For the
    ensemble the two members are trained independently and fused at
    inference. The history records one row per epoch; the checkpoint kept
    is the best held-out-score epoch (or the final one under
    ``select=final``). A NaN abort retains the last good snapshot.
    """
    heldout_ids = sorted(e for e in features if folds.assignment[e] == fold_id)
    train_ids = sorted(e for e in features if folds.assignment[e] != fold_id)
    if not heldout_ids or not train_ids:
        raise ParameterError(f"fold {fold_id}: empty train or held-out split")

    stats = dsp.fit_norm_stats([features[e].spec for e in train_ids])
    dtype = np.float32
    n_classes = config.n_classes

    def patches(eid):
        return normalized_patches(features[eid].spec, stats, config.patch_width, dtype)

    train_groups = [patches(eid) for eid in train_ids]
    x = np.concatenate(train_groups)
    labels = [features[eid].label for eid in train_ids]
    y = np.repeat(np.eye(n_classes, dtype=dtype)[labels], [len(g) for g in train_groups], axis=0)
    del train_groups

    heldout_groups = {eid: patches(eid) for eid in heldout_ids}
    truths = {eid: features[eid].label for eid in heldout_ids}

    mixup_cfg = MixupConfig(alpha=config.mixup_alpha, enabled=config.mixup)
    histories = {}
    checkpoints = {}
    accs = {}
    entity_probs = {}
    for model_index, name in enumerate(_model_names(config)):
        seed_seq = np.random.SeedSequence(_fold_seed(config, fold_id, model_index))
        init_seed, loop_seed = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(2))
        model = build_member(config, name, seed=init_seed, dtype=dtype)
        best = {"score": -1.0, "snap": _snapshot(model)}

        def score_fn(m, epoch, _best=best):
            probs = evaluate_entities(m, heldout_groups)
            preds = {eid: int(np.argmax(p)) for eid, p in probs.items()}
            score = compute_metrics(preds, truths, config.task).icbhi_score
            if score > _best["score"]:
                _best["score"] = score
                _best["snap"] = _snapshot(m)
            return score

        try:
            history, train_accs = train_loop(
                model,
                x,
                y,
                config.train,
                mixup_cfg=mixup_cfg,
                seed=loop_seed,
                score_fn=score_fn,
                early_stop_acc=config.early_stop_acc,
                early_stop_patience=config.early_stop_patience,
            )
        except NumericalError as exc:
            _restore(model, best["snap"])
            exc.last_good = _snapshot(model)
            exc.model_name = name
            exc.fold_id = fold_id
            exc.stats = stats
            log.error("fold %d %s: NaN abort, retaining last good snapshot", fold_id, name)
            raise
        if config.select == "best":
            _restore(model, best["snap"])
        histories[name] = history
        accs[name] = train_accs
        checkpoints[name] = _snapshot(model)
        entity_probs[name] = evaluate_entities(model, heldout_groups)

    component_metrics = {}
    for name, probs in entity_probs.items():
        preds = {eid: int(np.argmax(p)) for eid, p in probs.items()}
        component_metrics[name] = compute_metrics(preds, truths, config.task)

    if config.model == "ensemble":
        fused = {
            eid: models.ensemble_fuse(entity_probs["cnn_moe"][eid], entity_probs["crnn"][eid])
            for eid in heldout_ids
        }
        preds = {eid: int(np.argmax(p)) for eid, p in fused.items()}
        metrics = compute_metrics(preds, truths, config.task)
    else:
        metrics = component_metrics[config.model]

    return FoldResult(
        fold_id=fold_id,
        metrics=metrics,
        histories=histories,
        train_ids=train_ids,
        heldout_ids=heldout_ids,
        stats=stats,
        stats_ids=list(train_ids),
        component_metrics=component_metrics,
        checkpoints=checkpoints,
        train_accs=accs,
    )


@dataclass
class CVResult:
    config: ExperimentConfig
    fold_results: list
    mean: Metrics


def _mean_metrics(per_fold: list[Metrics]) -> Metrics:
    spec = float(np.mean([m.specificity for m in per_fold]))
    sen = float(np.mean([m.sensitivity for m in per_fold]))
    conf = np.sum([np.asarray(m.confusion) for m in per_fold], axis=0)
    return Metrics(
        specificity=spec,
        sensitivity=sen,
        icbhi_score=(spec + sen) / 2.0,
        confusion=conf.tolist(),
        n_entities=int(conf.sum()),
    )


def _run_fold_job(args):
    config, fold_id, features, folds = args
    return run_fold(config, fold_id, features, folds)


def run_cv(
    config: ExperimentConfig,
    features: dict[str, EntityFeatures],
    folds: ingest.FoldAssignment,
    fold_ids=None,
) -> CVResult:
    """Run every fold (optionally in parallel processes) and average."""
    fold_ids = list(fold_ids) if fold_ids is not None else list(range(folds.k))
    if config.jobs > 1 and len(fold_ids) > 1:
        jobs = [(config, f, features, folds) for f in fold_ids]
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_fold_job, jobs))
    else:
        results = [run_fold(config, f, features, folds) for f in fold_ids]
    mean = _mean_metrics([r.metrics for r in results])
    return CVResult(config=config, fold_results=results, mean=mean)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    """Full-precision float text (round-trips bit-exactly)."""
    return repr(float(v))


def run_setting_label(config: ExperimentConfig) -> str:
    if config.task.startswith("Task1"):
        return f"{config.min_cycle_seconds:g}s"
    return f"{config.patch_width}f"


def report_csv(result: CVResult) -> str:
    """Fold rows plus the unweighted mean row."""
    cfg = result.config
    setting = run_setting_label(cfg)
    lines = ["task,setting,fold,specificity,sensitivity,icbhi_score"]
    for r in result.fold_results:
        m = r.metrics
        lines.append(
            f"{cfg.task},{setting},{r.fold_id},"
            f"{_fmt(m.specificity)},{_fmt(m.sensitivity)},{_fmt(m.icbhi_score)}"
        )
    m = result.mean
    lines.append(
        f"{cfg.task},{setting},mean,"
        f"{_fmt(m.specificity)},{_fmt(m.sensitivity)},{_fmt(m.icbhi_score)}"
    )
    return "\n".join(lines) + "\n"


def history_csv(history) -> str:
    lines = ["epoch,train_loss,heldout_score"]
    for epoch, loss, score in history:
        lines.append(f"{epoch},{_fmt(loss)},{_fmt(score)}")
    return "\n".join(lines) + "\n"


def model_card(config: ExperimentConfig, model_name: str, fold_id: int) -> str:
    return (
        f"model: {model_name}\n"
        f"task: {config.task}\n"
        f"patch_width: {config.patch_width}\n"
        f"min_cycle_seconds: {config.min_cycle_seconds}\n"
        f"seed: {config.train.seed}\n"
        f"fold: {fold_id}\n"
        f"config_hash: {config_hash(config)}\n"
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    task: str
    setting: str
    seconds: float
    frames: int | None
    specificity: float
    sensitivity: float
    icbhi_score: float
    best: bool = False


@dataclass
class SweepReport:
    rows: list

    def to_csv(self) -> str:
        lines = ["task,setting,seconds,frames,specificity,sensitivity,icbhi_score,best"]
        for r in self.rows:
            frames = "" if r.frames is None else str(r.frames)
            lines.append(
                f"{r.task},{r.setting},{r.seconds:g},{frames},"
                f"{_fmt(r.specificity)},{_fmt(r.sensitivity)},{_fmt(r.icbhi_score)},"
                f"{int(r.best)}"
            )
        return "\n".join(lines) + "\n"


def _flag_best(rows):
    """Mark the argmax score per task; ties go to the smaller setting."""
    by_task: dict[str, SweepRow] = {}
    for row in rows:  # rows arrive in ascending setting order
        cur = by_task.get(row.task)
        if cur is None or row.icbhi_score > cur.icbhi_score:
            by_task[row.task] = row
    for row in by_task.values():
        row.best = True


def _sweep_point_metrics(config: ExperimentConfig, manifest, features, full_cv: bool) -> Metrics:
    folds = ingest.make_folds(
        manifest, config.k, config.fold_seed, config.task, config.patient_independent
    )
    if full_cv:
        return run_cv(config, features, folds).mean
    return run_fold(config, 0, features, folds).metrics


def sweep_cycle_length(
    config: ExperimentConfig,
    manifest: ingest.DatasetManifest,
    lengths=CYCLE_SWEEP_LENGTHS,
    full_cv: bool = False,
) -> SweepReport:
    """Retrain at each minimum cycle length over both Task 1 sub-tasks.

    Runs on the first fold by default; features are rebuilt per length
    because duplication changes the waveforms.
    """
    rows = []
    for task in ("Task1_4class", "Task1_2class"):
        for length in lengths:
            point = replace(config, task=task, min_cycle_seconds=float(length))
            features = build_features(manifest, task, point.min_cycle_seconds)
            m = _sweep_point_metrics(point, manifest, features, full_cv)
            rows.append(
                SweepRow(
                    task=task,
                    setting=f"{length:g}s",
                    seconds=float(length),
                    frames=None,
                    specificity=m.specificity,
                    sensitivity=m.sensitivity,
                    icbhi_score=m.icbhi_score,
                )
            )
    _flag_best(rows)
    return SweepReport(rows=rows)


def sweep_time_resolution(
    config: ExperimentConfig,
    manifest: ingest.DatasetManifest,
    widths=TIMERES_SWEEP_WIDTHS,
    full_cv: bool = False,
) -> SweepReport:
    """Retrain at each patch width over both Task 2 sub-tasks.

    Each row reports the frame count and the actual seconds it spans
    (width * hop / 16 kHz). Widths outside the standard set (e.g. 192) are
    permitted here for extended sweeps.
    """
    rows = []
    for task in ("Task2_3class", "Task2_2class"):
        features = build_features(manifest, task, config.min_cycle_seconds)
        for width in widths:
            point = replace(config, task=task, patch_width=int(width))
            seconds = width * dsp.HOP / ingest.TARGET_RATE
            m = _sweep_point_metrics(point, manifest, features, full_cv)
            rows.append(
                SweepRow(
                    task=task,
                    setting=f"{width}f",
                    seconds=seconds,
                    frames=int(width),
                    specificity=m.specificity,
                    sensitivity=m.sensitivity,
                    icbhi_score=m.icbhi_score,
                )
            )
    _flag_best(rows)
    return SweepReport(rows=rows)
