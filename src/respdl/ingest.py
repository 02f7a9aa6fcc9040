"""Dataset ingestion: WAV decoding, annotation parsing, manifest construction,
cycle extraction and cross-validation fold assignment.

The on-disk conventions follow the ICBHI distribution: every recording is a
PCM WAV with a same-stem ``.txt`` annotation (four whitespace-separated
columns: onset, offset, crackle flag, wheeze flag), the filename's first
underscore-delimited token is the patient id, and a diagnosis file maps
patient ids to disease names.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    ParameterError,
    ParseError,
    StratificationError,
    UnsupportedError,
)

log = logging.getLogger(__name__)

TARGET_RATE = 16000
MIN_SAMPLE_RATE = 1000  # below ICBHI's lowest (4 kHz); a lower header rate is corrupt

DIAGNOSES = (
    "Healthy",
    "COPD",
    "Bronchiectasis",
    "Asthma",
    "URTI",
    "LRTI",
    "Pneumonia",
    "Bronchiolitis",
)
CHRONIC = frozenset({"COPD", "Bronchiectasis", "Asthma"})
NON_CHRONIC = frozenset({"URTI", "LRTI", "Pneumonia", "Bronchiolitis"})

CLASS4_NAMES = ("Normal", "Crackle", "Wheeze", "Both")
CLASS2_NAMES = ("Normal", "Anomaly")
DISEASE3_NAMES = ("Healthy", "Chronic", "NonChronic")
DISEASE2_NAMES = ("Healthy", "Unhealthy")

TASKS = ("Task1_4class", "Task1_2class", "Task2_3class", "Task2_2class")

TASK_CLASS_NAMES = {
    "Task1_4class": CLASS4_NAMES,
    "Task1_2class": CLASS2_NAMES,
    "Task2_3class": DISEASE3_NAMES,
    "Task2_2class": DISEASE2_NAMES,
}


def task_entity_level(task: str) -> str:
    """Task 1 scores respiratory cycles, Task 2 entire recordings."""
    if task not in TASKS:
        raise ParameterError(f"unknown task {task!r}")
    return "cycle" if task.startswith("Task1") else "recording"


def cycle_id(recording_id: str, index: int) -> str:
    """The entity id of a recording's ``index``-th annotated cycle."""
    return f"{recording_id}_c{index:02d}"


def class4_index(crackle: bool, wheeze: bool) -> int:
    """Map the two annotation flags to the 4-way class index."""
    if crackle and wheeze:
        return 3
    if wheeze:
        return 2
    if crackle:
        return 1
    return 0


def disease_group3(diagnosis: str) -> int:
    """Index into DISEASE3_NAMES for a raw diagnosis name."""
    if diagnosis == "Healthy":
        return 0
    if diagnosis in CHRONIC:
        return 1
    if diagnosis in NON_CHRONIC:
        return 2
    raise ParameterError(f"unknown diagnosis {diagnosis!r}")


@dataclass
class AudioRecording:
    """Decoded mono waveform plus recording metadata."""

    samples: np.ndarray
    sample_rate: int
    recording_id: str


@dataclass(frozen=True)
class CycleLabel:
    """One annotated respiratory cycle: [onset, offset) seconds plus flags."""

    onset: float
    offset: float
    crackle: bool
    wheeze: bool

    @property
    def class4(self) -> int:
        return class4_index(self.crackle, self.wheeze)


@dataclass
class ManifestRecord:
    recording_id: str
    patient_id: str
    diagnosis: str
    labels: list[CycleLabel]


@dataclass
class DatasetManifest:
    """Recording references with cycle labels and a task tag.

    ``rejects`` lists (recording_id, reason) pairs for inputs that could not
    be admitted; they are reported, never silently dropped.
    """

    root: str
    task: str
    records: list[ManifestRecord] = field(default_factory=list)
    rejects: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(len(r.labels) for r in self.records)

    def class_counts(self) -> dict[str, int]:
        """4-way cycle counts keyed by class name."""
        counts = dict.fromkeys(CLASS4_NAMES, 0)
        for rec in self.records:
            for lab in rec.labels:
                counts[CLASS4_NAMES[lab.class4]] += 1
        return counts

    def entities(self, task: str | None = None) -> list[tuple[str, int, str]]:
        """(entity_id, class_index, patient_id) triples for a task.

        Cycle ids are ``cycle_id`` of the annotation order.
        """
        task = task or self.task
        level = task_entity_level(task)
        out = []
        for rec in self.records:
            if level == "recording":
                g3 = disease_group3(rec.diagnosis)
                cls = g3 if task == "Task2_3class" else (0 if g3 == 0 else 1)
                out.append((rec.recording_id, cls, rec.patient_id))
            else:
                for i, lab in enumerate(rec.labels):
                    cls = lab.class4 if task == "Task1_4class" else (0 if lab.class4 == 0 else 1)
                    out.append((cycle_id(rec.recording_id, i), cls, rec.patient_id))
        return out


@dataclass
class FoldAssignment:
    """Disjoint total mapping entity_id -> fold index in [0, k)."""

    k: int
    assignment: dict[str, int]

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.assignment.values():
            sizes[f] += 1
        return sizes


# ---------------------------------------------------------------------------
# WAV decoding
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# (format tag, bits per sample) -> (little-endian dtype, value mapped to 1.0)
_CODECS = {
    (_WAVE_FORMAT_PCM, 16): ("<i2", 32768.0),
    (_WAVE_FORMAT_PCM, 32): ("<i4", 2147483648.0),
    (_WAVE_FORMAT_IEEE_FLOAT, 32): ("<f4", 1.0),
}


def load_wav(path) -> AudioRecording:
    """Decode a PCM WAV file to a mono waveform in [-1, 1].

    Supports 16/32-bit integer and 32-bit float samples, any channel count
    (channels are averaged). The original sample rate is preserved.

    Raises FormatError for a malformed RIFF container, a sample rate below
    ``MIN_SAMPLE_RATE`` (which would resample to many times the input), a
    data chunk that is not a whole number of samples or holds none, and
    non-finite float samples; UnsupportedError for codecs outside the
    supported set.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path.name}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if pos + size > len(data):
            raise FormatError(f"{path.name}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"{path.name}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, pos)
        elif cid == b"data":
            payload = data[pos : pos + size]
        pos += size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise FormatError(f"{path.name}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format == _WAVE_FORMAT_EXTENSIBLE:
        raise UnsupportedError(f"{path.name}: WAVE_FORMAT_EXTENSIBLE not supported")
    if n_channels < 1:
        raise FormatError(f"{path.name}: invalid fmt fields")
    if sample_rate < MIN_SAMPLE_RATE:
        raise FormatError(f"{path.name}: sample rate {sample_rate} Hz is below "
                          f"{MIN_SAMPLE_RATE} Hz")

    codec = _CODECS.get((audio_format, bits))
    if codec is None:
        raise UnsupportedError(
            f"{path.name}: unsupported codec (format={audio_format}, bits={bits})"
        )
    dtype, full_scale = codec
    if len(payload) % (bits // 8):
        raise FormatError(
            f"{path.name}: data chunk of {len(payload)} bytes is not a whole "
            f"number of {bits}-bit samples"
        )
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) / full_scale
    if audio_format == _WAVE_FORMAT_IEEE_FLOAT and not np.all(np.isfinite(samples)):
        raise FormatError(f"{path.name}: non-finite float samples")

    if n_channels > 1:
        usable = (len(samples) // n_channels) * n_channels
        samples = samples[:usable].reshape(-1, n_channels).mean(axis=1)
    if samples.size == 0:
        raise FormatError(f"{path.name}: data chunk holds no samples")

    return AudioRecording(samples=samples, sample_rate=sample_rate, recording_id=path.stem)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write a mono 16-bit PCM WAV (used by the synthetic generator)."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, sample_rate, sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# Annotations and manifest
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """A UTF-8 text file's contents. A byte that is not UTF-8 is a
    ParseError naming the file and the line the byte is on."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line=line,
                         path=path) from None


def parse_annotation(text: str) -> list[CycleLabel]:
    """Parse an ICBHI annotation body into labels ordered by onset.

    Each non-blank line must hold four whitespace-separated columns:
    onset seconds, offset seconds, crackle flag, wheeze flag (flags 0/1).
    """
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cols = line.split()
        if len(cols) != 4:
            raise ParseError(f"expected 4 columns, got {len(cols)}", line=lineno)
        try:
            onset, offset = float(cols[0]), float(cols[1])
        except ValueError:
            raise ParseError(f"non-numeric time field in {line!r}", line=lineno) from None
        if not (math.isfinite(onset) and math.isfinite(offset)):
            raise ParseError("non-finite time field", line=lineno)
        if onset < 0:
            raise ParseError(f"negative onset {onset}", line=lineno)
        if offset <= onset:
            raise ParseError(f"offset {offset} <= onset {onset}", line=lineno)
        if cols[2] not in ("0", "1") or cols[3] not in ("0", "1"):
            raise ParseError(f"flags must be 0 or 1, got {cols[2]!r} {cols[3]!r}", line=lineno)
        labels.append(CycleLabel(onset, offset, cols[2] == "1", cols[3] == "1"))
    labels.sort(key=lambda lab: lab.onset)
    return labels


def parse_diagnosis_file(path) -> dict[str, str]:
    """Read patient_id -> diagnosis lines (comma- or whitespace-separated)."""
    table = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split(",") if "," in line else line.split())]
        if len(parts) != 2:
            raise ParseError(f"expected 'patient_id,diagnosis', got {line!r}", line=lineno,
                             path=path)
        pid, diag = parts
        if diag not in DIAGNOSES:
            raise ParseError(f"unknown diagnosis {diag!r}", line=lineno, path=path)
        table[pid] = diag
    return table


def build_manifest(audio_dir, diagnosis_file, task: str) -> DatasetManifest:
    """Scan a directory of WAV + annotation pairs into a manifest.

    Recordings lacking an annotation file or a diagnosis entry are recorded
    in ``manifest.rejects`` rather than dropped silently. The scan order is
    sorted by filename, so the result is independent of directory order.
    """
    if task not in TASKS:
        raise ParameterError(f"unknown task {task!r}")
    audio_dir = Path(audio_dir)
    diagnosis = parse_diagnosis_file(diagnosis_file) if diagnosis_file else {}
    manifest = DatasetManifest(root=str(audio_dir), task=task)

    for wav_path in sorted(audio_dir.glob("*.wav")):
        stem = wav_path.stem
        ann_path = wav_path.with_suffix(".txt")
        if not ann_path.exists():
            manifest.rejects.append((stem, "missing annotation file"))
            continue
        patient_id = stem.split("_")[0]
        if patient_id not in diagnosis:
            manifest.rejects.append((stem, f"patient {patient_id} missing from diagnosis file"))
            continue
        try:
            labels = parse_annotation(read_text(ann_path))
        except ParseError as exc:
            manifest.rejects.append((stem, f"annotation parse error: {exc}"))
            continue
        manifest.records.append(
            ManifestRecord(stem, patient_id, diagnosis[patient_id], labels)
        )
    return manifest


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write the line-oriented manifest: one record per line with columns
    recording_id, patient_id, diagnosis, cycle count."""
    lines = [f"#root {manifest.root}", f"#task {manifest.task}"]
    for rec in manifest.records:
        lines.append(f"{rec.recording_id},{rec.patient_id},{rec.diagnosis},{len(rec.labels)}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_rejects(manifest: DatasetManifest, path) -> None:
    """Machine-readable rejects sidecar: recording_id,reason per line."""
    lines = ["recording_id,reason"]
    lines += [f"{rid},{reason}" for rid, reason in manifest.rejects]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Cycle extraction
# ---------------------------------------------------------------------------


def extract_cycles(
    recording: AudioRecording, labels: list[CycleLabel]
) -> list[tuple[str, np.ndarray]]:
    """Slice a 16 kHz recording into (cycle id, samples) pairs.

    Cycle i, ``cycle_id(recording_id, i)`` as in ``DatasetManifest.entities``
    (which holds its class), covers samples [round(onset*16000),
    round(offset*16000)); labels running past the end of the audio are
    clipped, and labels starting at or beyond the end are skipped with a
    warning.
    """
    if recording.sample_rate != TARGET_RATE:
        raise ParameterError(
            f"recording must be resampled to {TARGET_RATE} Hz first "
            f"(got {recording.sample_rate})"
        )
    n = len(recording.samples)
    cycles = []
    for i, lab in enumerate(labels):
        start = int(round(lab.onset * TARGET_RATE))
        end = int(round(lab.offset * TARGET_RATE))
        eid = cycle_id(recording.recording_id, i)
        if start >= n:
            log.warning("%s: onset %.2fs beyond end of audio, skipped", eid, lab.onset)
            continue
        cycles.append((eid, recording.samples[start:min(end, n)]))
    return cycles


# ---------------------------------------------------------------------------
# Fold assignment
# ---------------------------------------------------------------------------


def make_folds(
    manifest: DatasetManifest,
    k: int = 5,
    seed: int = 0,
    task: str | None = None,
    patient_independent: bool = False,
) -> FoldAssignment:
    """Stratified k-fold assignment over the task's entities.

    Within each class the (seeded, shuffled) entities are dealt round-robin;
    the starting fold rotates between classes so overall fold sizes stay
    within one entity of each other. With ``patient_independent`` set, whole
    patients are assigned to the smallest fold instead (class balance is
    then best effort only).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    task = task or manifest.task
    entities = manifest.entities(task)
    if not entities:
        raise ParameterError("manifest has no entities to fold")
    rng = np.random.default_rng(seed)

    if patient_independent:
        by_patient: dict[str, list[str]] = {}
        for eid, _, pid in entities:
            by_patient.setdefault(pid, []).append(eid)
        patients = sorted(by_patient)
        rng.shuffle(patients)
        sizes = [0] * k
        assignment = {}
        for pid in patients:
            fold = min(range(k), key=lambda f: (sizes[f], f))
            for eid in by_patient[pid]:
                assignment[eid] = fold
            sizes[fold] += len(by_patient[pid])
        return FoldAssignment(k=k, assignment=assignment)

    by_class: dict[int, list[str]] = {}
    for eid, cls, _ in entities:
        by_class.setdefault(cls, []).append(eid)
    for cls, ids in sorted(by_class.items()):
        if len(ids) < k:
            raise StratificationError(
                f"class {cls} has {len(ids)} entities, fewer than k={k}"
            )

    assignment = {}
    start = 0
    for cls in sorted(by_class):
        ids = sorted(by_class[cls])
        rng.shuffle(ids)
        for i, eid in enumerate(ids):
            assignment[eid] = (start + i) % k
        start = (start + len(ids)) % k
    return FoldAssignment(k=k, assignment=assignment)


def save_folds(folds: FoldAssignment, path) -> None:
    """Write the fold assignment as 'entity_id,fold_index' CSV."""
    lines = [f"{eid},{fold}" for eid, fold in sorted(folds.assignment.items())]
    Path(path).write_text("\n".join(lines) + "\n")

