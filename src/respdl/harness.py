"""Experiment orchestration: feature preparation, per-fold training and
entity-level evaluation, cross-validation, challenge metrics, fold
checkpoints, and the sweep behind the cycle-length and time-resolution
analyses.

Cross-validation trains each (fold, member) pair as an independent job,
``_member_job``: in a pool of worker processes that each run BLAS on one
thread, or, with one worker, in the calling process; either way the folds
are scored and fused in the calling process. A member trains through one
epoch loop: ``run_epoch`` advances its ``TrainState`` (model, ``Adam``,
shuffle, mixup and dropout generators, history and train accuracies, and
the selection's best score and state) by an epoch, and ``train_loop``
repeats it up to the epoch count or the early stop. A trained member is one
``MemberResult``: its history, its held-out probabilities and the fold's
norm statistics; its model state stays in the job, which writes the
member's checkpoint and history into the run's directory, if it has one. A
``FoldResult`` is the fold's score and its members.

Evaluation is always at entity level (cycles for Task 1, recordings for
Task 2): patch probabilities are averaged per entity, the argmax is the
prediction. Specificity is accuracy over the baseline class (Normal or
Healthy), sensitivity is exact-class accuracy over everything else, and the
headline score is their arithmetic mean.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import multiprocessing
import os
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dsp, ingest, models
from .augment import MixupConfig, duplicate_to_min, mixup_batch
from .errors import FormatError, NumericalError, ParameterError, ShapeError
from .nn import (
    Adam,
    TrainConfig,
    add_l2_grads,
    load_checkpoint,
    loss_ce_l2,
    save_checkpoint,
)

log = logging.getLogger(__name__)

MODEL_CHOICES = ("cnn_moe", "crnn", "ensemble")
SELECT_CHOICES = ("best", "final")
CYCLE_SWEEP_LENGTHS = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
TIMERES_SWEEP_WIDTHS = (32, 64, 96, 128, 160)


def usable_cores() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    """Everything a run needs; flat key=value serializable.

    Task 2 ignores ``min_cycle_seconds`` (entire recordings are used).
    ``jobs`` and ``out_dir`` say how and where a run executes, not what it
    computes, so they are not part of its identity (``config_text``).
    """

    task: str = "Task1_4class"
    model: str = "cnn_moe"
    min_cycle_seconds: float = 6.0
    patch_width: int = 128
    k: int = 5
    fold_seed: int = 7
    patient_independent: bool = False
    mixup: bool = True
    gru_hidden: int = 512
    select: str = "best"
    early_stop_acc: float = 0.0
    early_stop_patience: int = 3
    audio_dir: str = ""
    diagnosis_file: str = ""
    out_dir: str = "runs"
    jobs: int = field(default_factory=usable_cores)
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
        if self.min_cycle_seconds <= 0:
            raise ParameterError("min_cycle_seconds must be > 0")
        if self.k < 2:
            raise ParameterError("k must be >= 2")
        if self.fold_seed < 0:
            raise ParameterError("fold_seed must be >= 0")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        if self.early_stop_patience < 1:
            raise ParameterError("early_stop_patience must be >= 1")
        if self.gru_hidden < 1:
            raise ParameterError("gru_hidden must be >= 1")
        return self

    @property
    def n_classes(self) -> int:
        return len(ingest.TASK_CLASS_NAMES[self.task])


_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "train") + _TRAIN_KEYS
EXECUTION_KEYS = ("jobs", "out_dir")
# constants that were once config keys; older checkpoint headers hold them
RETIRED_KEYS = ("beta1", "beta2", "eps", "mixup_alpha", "moe_experts")
IDENTITY_KEYS = tuple(key for key in CONFIG_KEYS if key not in EXECUTION_KEYS)


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
        value = target_type(text)
    except ValueError:
        raise ParameterError(f"{key}: expected {target_type.__name__}, got {text!r}") from None
    if target_type is float and not math.isfinite(value):
        raise ParameterError(f"{key}: expected a finite number, got {text!r}")
    return value


def config_from_dict(values: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from flat string values over the defaults;
    unknown keys fail."""
    cfg = ExperimentConfig()
    exp_kwargs, train_kwargs = {}, {}
    for key, text in values.items():
        if key not in CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}")
        owner, kwargs = (cfg.train, train_kwargs) if key in _TRAIN_KEYS else (cfg, exp_kwargs)
        kwargs[key] = _parse_value(key, str(text), type(getattr(owner, key)))
    new_train = replace(cfg.train, **train_kwargs)
    return replace(cfg, train=new_train, **exp_kwargs).validate()


def config_text(cfg: ExperimentConfig) -> str:
    """The run's identity: sorted key=value lines of every key except the
    execution keys, so the same run hashes the same on any machine."""
    d = config_to_dict(cfg)
    return "\n".join(f"{k}={d[k]}" for k in sorted(IDENTITY_KEYS)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MEMBER_KEYS = ("member", "fold", "norm_mean", "norm_std")


def build_member(config: ExperimentConfig, name: str, seed=0, dtype=np.float32):
    """An untrained ``name`` model ("cnn_moe" or "crnn") sized by ``config``."""
    return models.build_model(name, config.n_classes, patch_width=config.patch_width,
                              seed=seed, gru_hidden=config.gru_hidden, dtype=dtype)


@dataclass
class FoldCheckpoint:
    """One trained member of one fold, rebuilt from its checkpoint file."""

    config: ExperimentConfig
    fold_id: int
    stats: dsp.NormStats
    model: models.Sequential


def save_fold_checkpoint(path, config: ExperimentConfig, model_name: str, fold_id: int,
                         stats: dsp.NormStats, state: dict) -> None:
    """Write one member's model ``state`` under a header holding the run's
    ``config_text``, the member, the fold and the norm statistics (``repr``
    floats, so they round-trip exactly)."""
    header = config_text(config) + (
        f"member={model_name}\nfold={fold_id}\n"
        f"norm_mean={stats.mean!r}\nnorm_std={stats.std!r}\n"
    )
    save_checkpoint(path, header, state)


def load_fold_checkpoint(path) -> FoldCheckpoint:
    """Read a checkpoint written by ``save_fold_checkpoint`` and rebuild its
    model. A header field that is missing, unknown or unparsable, or a
    parameter or buffer that is missing or mis-shaped, is a FormatError.
    Execution and retired keys, which headers written before they left the
    run identity still hold, are ignored."""
    header, arrays = load_checkpoint(path)
    values = dict(line.partition("=")[::2] for line in header.splitlines())
    missing = [key for key in IDENTITY_KEYS + _MEMBER_KEYS if key not in values]
    if missing:
        raise FormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    member = {key: values.pop(key) for key in _MEMBER_KEYS}
    for key in EXECUTION_KEYS + RETIRED_KEYS:
        values.pop(key, None)
    try:
        config = config_from_dict(values)
        stats = dsp.NormStats(mean=float(member["norm_mean"]), std=float(member["norm_std"]))
        fold_id = int(member["fold"])
        model = build_member(config, member["member"])
        model.load_state(arrays)
    except (ValueError, ParameterError, FormatError) as exc:
        raise FormatError(f"{path}: bad checkpoint header or entries: {exc}") from None
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

    @classmethod
    def of(cls, specificity, sensitivity, confusion: np.ndarray) -> Metrics:
        spec, sen = float(specificity), float(sensitivity)
        return cls(spec, sen, (spec + sen) / 2.0, confusion.tolist(), int(confusion.sum()))


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
    return Metrics.of(conf[0, 0] / baseline_total, np.trace(conf[1:, 1:]) / other_total, conf)


def score(probs: dict, truths: dict, task: str) -> Metrics:
    """Challenge metrics of entity probabilities; each entity is predicted
    as its most probable class."""
    return compute_metrics({eid: int(np.argmax(p)) for eid, p in probs.items()}, truths, task)


# ---------------------------------------------------------------------------
# Feature preparation
# ---------------------------------------------------------------------------


@dataclass
class EntityFeatures:
    """Per-entity unnormalized log-spectrogram plus its label."""

    spec: np.ndarray
    label: int


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


def min_entity_seconds(task: str, min_cycle_seconds: float) -> float:
    """The length an entity of ``task`` is repeated up to before its
    spectrogram: the minimum cycle length for Task 1 cycles, none for Task 2
    recordings, which ``entity_spectrogram`` repeats up to one window only."""
    return min_cycle_seconds if ingest.task_entity_level(task) == "cycle" else 0.0


def build_features(
    manifest: ingest.DatasetManifest,
    task: str,
    min_cycle_seconds: float,
    bank: dsp.GammatoneBank | None = None,
    entity_ids=None,
) -> dict[str, EntityFeatures]:
    """Decode, resample, (Task 1) slice + duplicate cycles, and compute
    unnormalized log-spectrograms per entity.

    Task 2 entities are whole recordings, duplicated only up to one
    analysis window. Normalization is deliberately left to the fold loop so
    statistics never see held-out entities. Given ``entity_ids``, only those
    entities are built, and a recording holding none of them is not decoded.
    """
    bank = bank or dsp.build_gammatone_bank()
    by_cycle = ingest.task_entity_level(task) == "cycle"
    min_seconds = min_entity_seconds(task, min_cycle_seconds)
    labels = {eid: cls for eid, cls, _ in manifest.entities(task)}
    wanted = labels.keys() if entity_ids is None else set(entity_ids)

    out: dict[str, EntityFeatures] = {}
    for rec in manifest.records:
        ids = ([ingest.cycle_id(rec.recording_id, i) for i in range(len(rec.labels))]
               if by_cycle else [rec.recording_id])
        if wanted.isdisjoint(ids):
            continue
        path = Path(manifest.root) / f"{rec.recording_id}.wav"
        recording = load_recording(path)
        if by_cycle:
            cycles = ingest.extract_cycles(recording, rec.labels)
            entities = [(cycle_id, samples, cycle_id) for cycle_id, samples in cycles]
        else:
            entities = [(rec.recording_id, recording.samples, path.name)]
        for eid, samples, source in entities:
            if eid in wanted:
                spec = entity_spectrogram(samples, min_seconds, bank, source)
                out[eid] = EntityFeatures(spec, labels[eid])
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """One member's training, everything ``run_epoch`` reads and advances,
    so a copy taken after any epoch continues the run exactly. History rows
    are (epoch, train_loss, score); ``score_fn(model)`` scores each epoch,
    and the best score and a copy of the model state that reached it are
    the selection. The dropout generator is the model's ``drop_rng``.
    """

    model: models.Sequential
    adam: Adam
    shuffle_rng: np.random.Generator
    mix_rng: np.random.Generator
    drop_rng: np.random.Generator
    score_fn: Callable | None = None
    history: list = field(default_factory=list)
    train_accs: list = field(default_factory=list)
    best_score: float = -1.0
    best_state: dict | None = None

    @classmethod
    def start(cls, model, cfg: TrainConfig, seed=0, score_fn=None) -> TrainState:
        """A fresh record, its shuffle and mixup generators seeded from
        ``seed``; with a ``score_fn``, the untrained state is the best
        until an epoch scores."""
        adam = Adam(model.params(), lr=cfg.lr)
        rngs = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        return cls(model, adam, *rngs, model.drop_rng, score_fn,
                   best_state=model.state() if score_fn is not None else None)


def run_epoch(state: TrainState, x, y, cfg: TrainConfig,
              mixup_cfg: MixupConfig | None = None) -> None:
    """Advance ``state`` by one epoch of mini-batch Adam with optional
    in-batch mixup. Training accuracy is measured against the un-mixed
    batch labels. Raises NumericalError if predictions go non-finite."""
    model, params = state.model, state.adam.params
    perm = state.shuffle_rng.permutation(len(x))
    losses, correct = [], 0
    for start in range(0, len(x), cfg.batch_size):
        idx = perm[start : start + cfg.batch_size]
        xb, yb = x[idx], y[idx]
        xb_in, yb_in = xb, yb
        if mixup_cfg is not None and mixup_cfg.enabled:
            xb_in, yb_in = mixup_batch(xb, yb, mixup_cfg, state.mix_rng)
        probs = model.forward(xb_in, train=True)
        loss, dlogits = loss_ce_l2(probs, yb_in, params, cfg.l2_lambda)
        state.adam.zero_grad()
        model.backward(dlogits.astype(probs.dtype))
        add_l2_grads(params, cfg.l2_lambda)
        state.adam.step()
        losses.append(loss)
        correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
    score = float(state.score_fn(model)) if state.score_fn is not None else float("nan")
    if score > state.best_score:
        state.best_score, state.best_state = score, model.state()
    state.history.append((len(state.history) + 1, float(np.mean(losses)), score))
    state.train_accs.append(correct / len(x))


def early_stopped(train_accs, acc: float, patience: int) -> bool:
    """Whether the last ``patience`` train accuracies all reach ``acc``;
    never while ``acc`` is 0."""
    tail = train_accs[-max(patience, 1):]
    return acc > 0.0 and len(tail) == max(patience, 1) and min(tail) >= acc


def train_loop(model, x, y, cfg: TrainConfig, mixup_cfg: MixupConfig | None = None, seed=0,
               early_stop_acc: float = 0.0, early_stop_patience: int = 3,
               state: TrainState | None = None):
    """``run_epoch`` over ``state`` (default: a fresh record of ``model``
    from ``seed``) up to ``cfg.epochs``, or until ``early_stopped``.
    Returns (history, train_accs)."""
    state = state if state is not None else TrainState.start(model, cfg, seed)
    while len(state.history) < cfg.epochs and not early_stopped(
            state.train_accs, early_stop_acc, early_stop_patience):
        run_epoch(state, x, y, cfg, mixup_cfg)
    return state.history, state.train_accs


def evaluate_entities(model, groups: dict, batch_size: int = 64) -> dict:
    """Entity-level probabilities: run all patches through the model in
    inference mode, then average per entity. The chunk size bounds the
    activations of one inference forward."""
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
class MemberResult:
    """One member model trained on one fold, without its model state."""

    name: str
    history: list  # (epoch, train_loss, heldout_score) per epoch
    heldout_probs: dict  # entity id -> class probabilities
    stats: dsp.NormStats  # the fold's training normalization


@dataclass
class FoldResult:
    """One fold's score (the fused members' for an ensemble) and its
    members, in ``_model_names`` order."""

    fold_id: int
    metrics: Metrics
    members: list[MemberResult]


@dataclass
class FoldInputs:
    """A fold's normalized training patches and held-out entities."""

    stats: dsp.NormStats
    x: np.ndarray
    y: np.ndarray
    heldout_groups: dict  # entity id -> (n, 64, width) patches
    truths: dict  # entity id -> class index


def _model_names(config: ExperimentConfig):
    return ("cnn_moe", "crnn") if config.model == "ensemble" else (config.model,)


def config_folds(config: ExperimentConfig,
                 manifest: ingest.DatasetManifest) -> ingest.FoldAssignment:
    """``config``'s fold assignment of the entities of its task."""
    return ingest.make_folds(manifest, config.k, config.fold_seed, config.task,
                             config.patient_independent)


def fold_split(features: dict, folds: ingest.FoldAssignment, fold_id: int):
    """Sorted (train ids, held-out ids) of the entities in ``features``."""
    heldout_ids = sorted(e for e in features if folds.assignment[e] == fold_id)
    train_ids = sorted(e for e in features if folds.assignment[e] != fold_id)
    if not heldout_ids or not train_ids:
        raise ParameterError(f"fold {fold_id}: empty train or held-out split")
    return train_ids, heldout_ids


def fold_inputs(
    config: ExperimentConfig,
    fold_id: int,
    features: dict[str, EntityFeatures],
    folds: ingest.FoldAssignment,
) -> FoldInputs:
    """Normalize with statistics fit on the training folds only, then cut
    the training set and the held-out entities into patches."""
    train_ids, heldout_ids = fold_split(features, folds, fold_id)
    stats = dsp.fit_norm_stats([features[e].spec for e in train_ids])
    train_groups = [normalized_patches(features[eid].spec, stats, config.patch_width)
                    for eid in train_ids]
    x = np.concatenate(train_groups)
    labels = [features[eid].label for eid in train_ids]
    y = np.repeat(np.eye(config.n_classes, dtype=np.float32)[labels],
                  [len(g) for g in train_groups], axis=0)
    del train_groups
    return FoldInputs(stats, x, y, *heldout_set(features, heldout_ids, stats, config.patch_width))


def heldout_set(features: dict[str, EntityFeatures], heldout_ids, stats: dsp.NormStats,
                width: int) -> tuple[dict, dict]:
    """The held-out entities' normalized patches and true classes, as
    ``evaluate_entities`` and ``score`` take them."""
    return ({eid: normalized_patches(features[eid].spec, stats, width) for eid in heldout_ids},
            {eid: features[eid].label for eid in heldout_ids})


def fold_result(config: ExperimentConfig, fold_id: int, features: dict[str, EntityFeatures],
                members: list[MemberResult]) -> FoldResult:
    """Score a fold's trained members on the entities they were held out
    on; an ensemble is scored on its two members' fused probabilities."""
    if config.model == "ensemble":
        cnn_moe, crnn = (m.heldout_probs for m in members)
        probs = {eid: models.ensemble_fuse(cnn_moe[eid], crnn[eid]) for eid in cnn_moe}
    else:
        (member,) = members
        probs = member.heldout_probs
    truths = {eid: features[eid].label for eid in probs}
    return FoldResult(fold_id, score(probs, truths, config.task), members)


@dataclass
class CVResult:
    config: ExperimentConfig
    fold_results: list
    mean: Metrics


def _mean_metrics(per_fold: list[Metrics]) -> Metrics:
    spec = float(np.mean([m.specificity for m in per_fold]))
    sen = float(np.mean([m.sensitivity for m in per_fold]))
    return Metrics.of(spec, sen, np.sum([np.asarray(m.confusion) for m in per_fold], axis=0))


# Peak resident memory of one training worker, an upper bound: fit ~5% above
# the single-model peaks of tests/test_harness.py's WORKER_PEAK_PROTOCOL when
# convs kept their padded input, 0.82 GB (CNN-MoE) and 1.13 GB (C-RNN) at
# batch 50 x width 128 and 0.26 GB at the desk batch 8 x width 32. Since conv
# backward also builds no whole im2col matrix, the protocol peaks at 0.57,
# 0.96 and 0.16 GB (2 BLAS threads; 0.56, 0.95 and 0.15 GB at 1). The
# worker's fold patches (float32, 64 bands) come on top.
_WORKER_BASE_MB = 245.0
_WORKER_MB_PER_BATCH_FRAME = {"cnn_moe": 0.096, "crnn": 0.147}


def worker_mb(config: ExperimentConfig, features: dict[str, EntityFeatures]) -> float:
    """Estimated peak MB of one worker training ``config``'s members."""
    frames = config.train.batch_size * config.patch_width
    per_frame = max(_WORKER_MB_PER_BATCH_FRAME[name] for name in _model_names(config))
    patch_frames = sum(max(f.spec.shape[1], config.patch_width) for f in features.values())
    return _WORKER_BASE_MB + per_frame * frames + patch_frames * dsp.N_CHANNELS * 4 / 2**20


def _mem_available_mb() -> float | None:
    """``MemAvailable`` from /proc/meminfo, or None where there is none."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def worker_count(config: ExperimentConfig, n_jobs: int,
                 features: dict[str, EntityFeatures]) -> int:
    """min(jobs, n_jobs), lowered (and logged) to the workers whose
    estimated peak fits in the memory available now."""
    workers = min(config.jobs, n_jobs)
    available = _mem_available_mb()
    if workers < 2 or available is None:
        return workers
    need = worker_mb(config, features)
    fit = max(1, int(available // need))
    if fit < workers:
        log.warning("%d workers of ~%.0f MB each do not fit in %.0f MB available; using %d",
                    workers, need, available, fit)
        return fit
    return workers


def _openblas():
    """numpy's bundled OpenBLAS library, or None when it has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


_RUN: dict = {}  # the running run_cv's jobs, data and run directory; pool workers fork with it


def _start_worker():
    """Pool initializer: pin BLAS to one thread (best effort), so workers
    do not contend for the cores."""
    set_threads = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _member_job(i: int) -> tuple[int, MemberResult]:
    """Train job ``i`` of the running ``run_cv``: one member on one fold,
    scored on the held-out entities.

    The state kept is the best held-out-score epoch's (or the final one
    under ``select=final``). Given the run's directory, the job writes the
    member's checkpoint and history there as it finishes, or on a NaN abort
    the last good state as ``ckpt_<member>_fold<k>.aborted.rsdl``; the
    NumericalError names the member and fold. The state never leaves the job.
    """
    config, fold_id, name = _RUN["jobs"][i]
    inputs = fold_inputs(config, fold_id, _RUN["features"], _RUN["folds"])
    run_dir, stem = _RUN["run_dir"], f"{name}_fold{fold_id}"
    model_index = _model_names(config).index(name)
    seed_seq = np.random.SeedSequence([config.train.seed, fold_id, model_index])
    init_seed, loop_seed = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(2))
    model = build_member(config, name, seed=init_seed, dtype=inputs.x.dtype)

    def heldout_score(m):
        return score(evaluate_entities(m, inputs.heldout_groups), inputs.truths,
                     config.task).icbhi_score

    def save(state, suffix=""):
        save_fold_checkpoint(run_dir / f"ckpt_{stem}{suffix}.rsdl", config, name, fold_id,
                             inputs.stats, state)

    state = TrainState.start(model, config.train, loop_seed, heldout_score)
    try:
        history, _ = train_loop(
            model, inputs.x, inputs.y, config.train,
            mixup_cfg=MixupConfig(enabled=config.mixup),
            early_stop_acc=config.early_stop_acc,
            early_stop_patience=config.early_stop_patience, state=state)
    except NumericalError as exc:
        exc.model_name, exc.fold_id = name, fold_id
        log.error("fold %d %s: NaN abort", fold_id, name)
        if run_dir:
            save(state.best_state, ".aborted")
        raise
    if config.select == "best":
        model.load_state(state.best_state)
    if run_dir:
        save(model.state())
        (run_dir / f"history_{stem}.csv").write_text(history_csv(history))
    return i, MemberResult(name, history, evaluate_entities(model, inputs.heldout_groups),
                           inputs.stats)


def member_pool(workers: int):
    """Worker processes with one BLAS thread each. The workers are forked
    while ``run_cv`` holds its run in ``_RUN``, so they share the parent's
    feature arrays copy-on-write instead of each holding a pickled copy;
    OpenBLAS shuts its threads down around a fork, and the pool forks every
    worker before it starts its own threads. Leaving the pool's ``with``
    block terminates the workers, jobs still running included."""
    return multiprocessing.get_context("fork").Pool(workers, initializer=_start_worker)


def run_cv(
    config: ExperimentConfig,
    features: dict[str, EntityFeatures],
    folds: ingest.FoldAssignment,
    fold_ids=None,
    run_dir: Path | None = None,
) -> CVResult:
    """Run every fold (or ``fold_ids``) and average.

    Each (fold, member) pair is one ``_member_job``; given ``run_dir``, each
    job writes its member's checkpoint and history there as it finishes, so
    a failure keeps the members finished before it. With more than one
    worker (``worker_count``) the jobs run side by side in a process pool,
    and the first member to fail (in time, not in job order) is raised at
    once while the members still training are stopped; otherwise the same
    jobs run here one after another. Either way each fold is scored in this
    process, in fold order.
    """
    fold_ids = list(fold_ids) if fold_ids is not None else list(range(folds.k))
    names = _model_names(config)
    jobs = [(config, f, name) for f in fold_ids for name in names]
    workers = worker_count(config, len(jobs), features)
    _RUN.update(jobs=jobs, features=features, folds=folds, run_dir=run_dir)
    try:
        with member_pool(workers) if workers > 1 else nullcontext() as pool:
            run = map if pool is None else pool.imap_unordered
            members = [member for _, member in sorted(run(_member_job, range(len(jobs))))]
    finally:
        _RUN.clear()
    results = [
        fold_result(config, f, features, members[i * len(names):(i + 1) * len(names)])
        for i, f in enumerate(fold_ids)
    ]
    return CVResult(config, results, _mean_metrics([r.metrics for r in results]))


def run_fold(
    config: ExperimentConfig,
    fold_id: int,
    features: dict[str, EntityFeatures],
    folds: ingest.FoldAssignment,
) -> FoldResult:
    """``run_cv`` over fold ``fold_id`` alone: train on the k-1 other folds
    and evaluate on this one at entity level."""
    return run_cv(config, features, folds, [fold_id]).fold_results[0]


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
    rows = [(r.fold_id, r.metrics) for r in result.fold_results] + [("mean", result.mean)]
    lines = ["task,setting,fold,specificity,sensitivity,icbhi_score"] + [
        f"{cfg.task},{setting},{fold},"
        f"{_fmt(m.specificity)},{_fmt(m.sensitivity)},{_fmt(m.icbhi_score)}"
        for fold, m in rows]
    return "\n".join(lines) + "\n"


def history_csv(history) -> str:
    lines = ["epoch,train_loss,heldout_score"]
    for epoch, loss, score in history:
        lines.append(f"{epoch},{_fmt(loss)},{_fmt(score)}")
    return "\n".join(lines) + "\n"


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
    """Mark the argmax score per task; ties go to the smaller setting,
    whatever order the rows come in."""
    for task in {row.task for row in rows}:
        best = max((row for row in rows if row.task == task),
                   key=lambda row: (row.icbhi_score, -row.seconds))
        best.best = True


def _relabel(features: dict[str, EntityFeatures], manifest: ingest.DatasetManifest,
             task: str) -> dict[str, EntityFeatures]:
    """``features`` under ``task``'s class labels, sharing the spectrograms.

    The two sub-tasks of Task 1, and the two of Task 2, score the same
    entities from the same spectrograms; only the class index differs.
    """
    labels = {eid: cls for eid, cls, _ in manifest.entities(task)}
    return {eid: replace(feat, label=labels[eid]) for eid, feat in features.items()}


# swept config key -> (its value type, the two sub-tasks it is swept over)
SWEEP_KEYS = {
    "min_cycle_seconds": (float, ("Task1_4class", "Task1_2class")),
    "patch_width": (int, ("Task2_3class", "Task2_2class")),
}


def _probe_width(config: ExperimentConfig) -> None:
    """One batch-1 training forward of each member at ``config.patch_width``;
    a ShapeError names the width and the member."""
    x = np.zeros((1, 64, config.patch_width), dtype=np.float32)
    for name in _model_names(config):
        try:
            build_member(config, name).forward(x, train=True)
        except ShapeError as exc:
            raise ShapeError(f"patch_width {config.patch_width}: {name}: {exc}") from exc


def sweep(config: ExperimentConfig, manifest: ingest.DatasetManifest, key: str, values,
          full_cv: bool = False) -> SweepReport:
    """Retrain at each of ``values`` of config ``key`` over both sub-tasks
    in ``SWEEP_KEYS[key]``, on the first fold unless ``full_cv``.

    Features are built again only when a value changes
    ``min_entity_seconds`` (once per cycle length, once in all for the
    patch widths); one build is held at a time and both sub-tasks share it.
    Rows are task-major, each task's in the order of ``values``; a
    patch-width row also reports its frame count and the seconds the patch
    spans (width * hop / 16 kHz). Widths outside the standard set (e.g.
    192) are permitted here for extended sweeps; each member runs one
    forward at every width first, so a width its pooling does not divide
    is a ShapeError before anything trains.
    """
    kind, tasks = SWEEP_KEYS[key]
    settings = [replace(config, **{key: kind(value)}) for value in values]  # bad values fail first
    if key == "patch_width":
        for setting in settings:
            _probe_width(setting)
    rows = {task: [] for task in tasks}
    features, built_for = None, None
    for setting in settings:
        min_seconds = min_entity_seconds(tasks[0], setting.min_cycle_seconds)
        if min_seconds != built_for:
            features = None  # free the last build's spectrograms before the next
            features = build_features(manifest, tasks[0], setting.min_cycle_seconds)
            built_for = min_seconds
        for task in tasks:
            point = replace(setting, task=task)
            m = run_cv(point, _relabel(features, manifest, task), config_folds(point, manifest),
                       fold_ids=None if full_cv else [0]).mean
            frames = point.patch_width if key == "patch_width" else None
            seconds = frames * dsp.HOP / ingest.TARGET_RATE if frames else point.min_cycle_seconds
            rows[task].append(SweepRow(task, run_setting_label(point), seconds, frames,
                                       m.specificity, m.sensitivity, m.icbhi_score))
    report = SweepReport([row for task in tasks for row in rows[task]])
    _flag_best(report.rows)
    return report


def sweep_cycle_length(config: ExperimentConfig, manifest: ingest.DatasetManifest,
                       lengths=CYCLE_SWEEP_LENGTHS, full_cv: bool = False) -> SweepReport:
    """``sweep`` over minimum cycle lengths, both Task 1 sub-tasks."""
    return sweep(config, manifest, "min_cycle_seconds", lengths, full_cv)
