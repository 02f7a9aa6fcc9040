"""The three benchmark workloads: their inputs, operations and checks.

Each workload makes its inputs from the seed (``prepare``), may warm up,
and then runs rounds of operations (``ops``) that call the program's public
functions. Each operation returns the verdicts of the workload's checks on
its output, so a failed check is counted, never raised.

- paper_step: both models at the paper shape, one Adam step per
  ``harness.train_loop`` call and ``harness.evaluate_entities`` over a fixed
  patch set. No front end.
- featurize: ``harness.build_features`` (Task1_4class, 6 s minimum cycle)
  over ~20 s recordings at 44.1, 10 and 4 kHz, each recording once. No nn.
- desk_cv: ``harness.sweep_cycle_length`` at one length with full CV over
  both Task 1 sub-tasks, ensemble model, desk config at a fixed 3 epochs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from respdl import dsp, harness, ingest, models, synth
from respdl.augment import MixupConfig
from respdl.nn import TrainConfig

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

N_CLASSES = 4
RATES = (44100, 10000, 4000)
MIN_CYCLE_S = 6.0
CYCLE_S = 2.5
PAD_S = 0.3
DESK_LENGTH_S = 0.5
DIGEST_RTOL = 1e-6
PROB_TOL = 1e-5


@dataclass(frozen=True)
class Size:
    """Everything that scales a workload; FULL is the benchmark, TINY the
    self-test."""

    label: str
    batch: int
    width: int
    gru_hidden: int
    n_experts: int
    infer_patches: int
    cycles_per_rec: int
    family: int
    desk_recordings: int
    desk_epochs: int
    desk_k: int


FULL = Size("full", batch=50, width=128, gru_hidden=512, n_experts=10, infer_patches=64,
            cycles_per_rec=7, family=32, desk_recordings=40, desk_epochs=3, desk_k=5)
TINY = Size("tiny", batch=4, width=32, gru_hidden=16, n_experts=2, infer_patches=8,
            cycles_per_rec=2, family=2, desk_recordings=10, desk_epochs=1, desk_k=2)
SIZES = {s.label: s for s in (FULL, TINY)}


def _derived_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Checks (pure functions of an output, so the self-test can feed bad ones)
# ---------------------------------------------------------------------------


def check_history(history) -> bool:
    """One epoch was trained and its loss is finite."""
    return len(history) == 1 and math.isfinite(history[0][1])


def check_probs(probs: dict, n_entities: int) -> bool:
    """Every entity has a finite, non-negative row summing to 1 within 1e-5."""
    if len(probs) != n_entities:
        return False
    rows = np.stack([np.asarray(p, dtype=np.float64) for p in probs.values()])
    return bool(
        rows.shape[1] == N_CLASSES
        and np.all(np.isfinite(rows))
        and np.all(rows >= 0)
        and np.all(np.abs(rows.sum(axis=1) - 1.0) <= PROB_TOL)
    )


def spectrogram_digest(values: np.ndarray) -> list:
    v = np.asarray(values, dtype=np.float64)
    return [v.shape[0], v.shape[1], float(v.mean()), float(np.sqrt((v * v).sum()))]


def expected_frames(annotation: str, n_samples_16k: int) -> list[int]:
    """Frame count of each cycle after slicing at 16 kHz and whole-cycle
    duplication to the minimum length, by the dsp.n_frames law."""
    out = []
    min_samples = math.ceil(max(MIN_CYCLE_S, dsp.WINDOW / ingest.TARGET_RATE) * ingest.TARGET_RATE)
    for line in annotation.split("\n"):
        if not line.strip():
            continue
        onset, offset = (float(v) for v in line.split()[:2])
        start = int(round(onset * ingest.TARGET_RATE))
        n = min(int(round(offset * ingest.TARGET_RATE)), n_samples_16k) - start
        out.append(dsp.n_frames(n * max(1, math.ceil(min_samples / n))))
    return out


def check_features(features: dict, frames: list[int], digests: list) -> bool:
    """Entities in order, frame counts by law, values by stored digest."""
    if len(features) != len(digests) or len(frames) != len(digests):
        return False
    for (eid, feat), want_frames, (want_id, rows, cols, mean, l2) in zip(
        sorted(features.items()), frames, digests
    ):
        got = spectrogram_digest(feat.spec)
        if eid != want_id or got[:2] != [rows, cols] or cols != want_frames:
            return False
        if not (np.isclose(got[2], mean, rtol=DIGEST_RTOL, atol=1e-9)
                and np.isclose(got[3], l2, rtol=DIGEST_RTOL, atol=1e-9)):
            return False
    return True


def check_report(report, length_s: float) -> list[bool]:
    """One verdict per expected sweep row: present, finite and scoring
    above 0.5, the score of a constant predictor."""
    rows = {(r.task, r.setting): r for r in report.rows}
    verdicts = []
    for task in ("Task1_4class", "Task1_2class"):
        row = rows.get((task, f"{length_s:g}s"))
        verdicts.append(row is not None and math.isfinite(row.icbhi_score) and row.icbhi_score > 0.5)
    return verdicts


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class _Workload:
    """Defaults: no warm-up, the workload is its own single part with no
    model to trace, and every round's inputs are made by ``prepare``.

    A part is a sequence of rounds; parts run one after another and are
    released in between (``PaperStep`` has one part per model)."""

    def parts(self):
        return [self]

    def warm_up(self):
        """Verdicts of the warm-up's own checks; none when there is none."""
        return []

    def traced_models(self):
        return []

    def ensure_round(self, r):
        pass

    def release(self):
        pass


MODEL_NAMES = ("cnn_moe", "crnn")


class PaperStep(_Workload):
    name = "paper_step"

    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size

    def prepare(self, workdir: Path):
        s = self.size
        rng = np.random.default_rng(_derived_seed(self.seed, 1))
        eye = np.eye(N_CLASSES, dtype=np.float32)

        def batch(n):
            x = rng.standard_normal((n, 64, s.width), dtype=np.float32)
            return x, eye[rng.integers(0, N_CLASSES, n)]

        self.batches = [batch(s.batch) for _ in range(4)]
        x_inf, _ = batch(s.infer_patches)
        self.groups = {f"e{i:02d}": x_inf[i : i + 4] for i in range(0, s.infer_patches, 4)}
        self.models = {
            name: models.build_model(
                name, N_CLASSES, patch_width=s.width, seed=_derived_seed(self.seed, 2, i),
                gru_hidden=s.gru_hidden, n_experts=s.n_experts,
            )
            for i, name in enumerate(MODEL_NAMES)
        }
        self.cfg = TrainConfig(epochs=1, batch_size=s.batch, lr=1e-4, l2_lambda=1e-4)
        self.mixup = MixupConfig(alpha=0.2, enabled=True)

    def parts(self):
        return [_ModelSteps(self, name) for name in MODEL_NAMES]

    def summary(self, med):
        """Per-model throughputs from per-operation median seconds."""
        out = {}
        for name in MODEL_NAMES:
            out[f"train_patches_per_s.{name}"] = self.size.batch / med[f"train.{name}"]
            out[f"infer_patches_per_s.{name}"] = self.size.infer_patches / med[f"infer.{name}"]
        return out


class _ModelSteps(_Workload):
    """One model's rounds of a training step and an inference pass. The
    model is dropped after its rounds: layers keep their last activations,
    and with both paper-shape models alive peak RSS is 5.7 GB, not 3.5."""

    min_rounds = 2
    max_rounds = 1000

    def __init__(self, owner: PaperStep, name: str):
        self.owner, self.name = owner, name

    def traced_models(self):
        return [self.owner.models[self.name]]

    def _train(self, r):
        x, y = self.owner.batches[r % len(self.owner.batches)]
        history, _ = harness.train_loop(
            self.owner.models[self.name], x, y, self.owner.cfg, mixup_cfg=self.owner.mixup,
            seed=_derived_seed(self.owner.seed, 3, r),
        )
        return check_history(history)

    def _infer(self):
        probs = harness.evaluate_entities(self.owner.models[self.name], self.owner.groups)
        return check_probs(probs, len(self.owner.groups))

    def ops(self, r):
        yield f"train.{self.name}", lambda: self._train(r)
        yield f"infer.{self.name}", self._infer

    def release(self):
        del self.owner.models[self.name]


def featurize_member(out_dir: Path, rate: int, index: int, size: Size) -> Path:
    """Write member ``index`` of the fixed recording family at ``rate``:
    ~20 s of 2.5 s cycles (two at the tiny size) as one 16-bit WAV."""
    member = out_dir / f"{rate}-{index:02d}"
    synth.generate(
        member, n_recordings=1, n_classes=N_CLASSES, seed=1000 * RATES.index(rate) + index,
        sample_rate=rate, cycle_seconds=CYCLE_S, pad_seconds=PAD_S,
        cycles_per_recording=size.cycles_per_rec,
    )
    return member


def featurize_expectations(member: Path, rate: int):
    """(manifest, expected frame counts) for one written family member."""
    manifest = ingest.build_manifest(member, member / "diagnosis.csv", "Task1_4class")
    (rec,) = manifest.records
    wav = member / f"{rec.recording_id}.wav"
    n_src = (wav.stat().st_size - 44) // 2  # mono 16-bit PCM after a 44-byte header
    annotation = (member / f"{rec.recording_id}.txt").read_text()
    frames = expected_frames(annotation, int(round(n_src * ingest.TARGET_RATE / rate)))
    return manifest, frames


class Featurize(_Workload):
    """Family members are fixed so their spectrogram digests can be stored;
    the seed picks which members a run featurizes, none of them twice."""

    name = "featurize"
    min_rounds = 2

    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size
        self.max_rounds = size.family
        rng = np.random.default_rng(_derived_seed(self.seed, 4))
        self.order = {rate: rng.permutation(size.family) for rate in RATES}
        self.digests = json.loads(DIGESTS.read_text())[size.label]

    def _add_round(self, r):
        for rate in RATES:
            index = int(self.order[rate][r])
            member = featurize_member(self.workdir, rate, index, self.size)
            manifest, frames = featurize_expectations(member, rate)
            self.inputs.append((rate, manifest, frames, self.digests[f"{rate}/{index}"]))

    def prepare(self, workdir: Path):
        self.workdir = workdir
        self.inputs = []
        for r in range(self.min_rounds):
            self._add_round(r)
        self.bank = dsp.build_gammatone_bank()

    def warm_up(self):
        """Featurize one short recording per rate outside the family."""
        ok = True
        for rate in RATES:
            member = self.workdir / f"warm-{rate}"
            synth.generate(member, n_recordings=1, seed=999, sample_rate=rate, cycle_seconds=0.5)
            manifest = ingest.build_manifest(member, member / "diagnosis.csv", "Task1_4class")
            ok &= len(harness.build_features(manifest, "Task1_4class", MIN_CYCLE_S, self.bank)) == 1
        return ok

    def ensure_round(self, r):
        """Inputs beyond the prepared rounds are written between rounds,
        outside every timed operation."""
        while len(self.inputs) < 3 * (r + 1):
            self._add_round(len(self.inputs) // 3)

    def _featurize(self, rate, manifest, frames, digests):
        feats = harness.build_features(manifest, "Task1_4class", MIN_CYCLE_S, self.bank)
        return check_features(feats, frames, digests)

    def ops(self, r):
        for rate, manifest, frames, digests in self.inputs[3 * r : 3 * r + 3]:
            yield f"featurize.{rate}", lambda a=(rate, manifest, frames, digests): self._featurize(*a)

    def summary(self, med):
        audio = self.size.cycles_per_rec * (CYCLE_S + PAD_S) + PAD_S
        return {"featurize_audio_s_per_s": len(RATES) * audio / sum(med.values())}


class DeskCV(_Workload):
    name = "desk_cv"
    min_rounds = 1
    max_rounds = 1000

    def __init__(self, seed: int, size: Size):
        self.seed, self.size = seed, size
        self.config = harness.ExperimentConfig(
            model="ensemble", min_cycle_seconds=DESK_LENGTH_S, patch_width=32, gru_hidden=64,
            mixup=False, early_stop_acc=0.0, k=size.desk_k,
            train=TrainConfig(epochs=size.desk_epochs, batch_size=8, lr=1e-3),
        )

    def _dataset(self, r):
        """A fresh synthetic desk dataset per sweep, so no sweep reuses
        another's recordings."""
        out = self.workdir / f"desk-{r}"
        synth.generate(out, n_recordings=self.size.desk_recordings, n_classes=N_CLASSES,
                       seed=_derived_seed(self.seed, 5, r), sample_rate=44100)
        return ingest.build_manifest(out, out / "diagnosis.csv", "Task1_4class")

    def prepare(self, workdir: Path):
        self.workdir = workdir
        self.manifests = [self._dataset(0)]

    def ensure_round(self, r):
        while len(self.manifests) <= r:
            self.manifests.append(self._dataset(len(self.manifests)))

    def _sweep(self, manifest):
        report = harness.sweep_cycle_length(
            self.config, manifest, lengths=(DESK_LENGTH_S,), full_cv=True)
        return check_report(report, DESK_LENGTH_S)

    def ops(self, r):
        yield "sweep", lambda: self._sweep(self.manifests[r])

    def summary(self, med):
        return {"sweep_wall_s": med["sweep"]}


WORKLOADS = {w.name: w for w in (PaperStep, Featurize, DeskCV)}
