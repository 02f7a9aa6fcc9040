"""WAV decoding, annotation parsing, manifest construction and folds."""

import numpy as np
import pytest
from scipy.io import wavfile

from respdl import ingest
from respdl.errors import (
    FormatError,
    ParameterError,
    ParseError,
    StratificationError,
    UnsupportedError,
)

from conftest import write_raw_wav


class TestLoadWav:
    def test_silence_16bit(self, tmp_path):
        p = tmp_path / "silent.wav"
        write_raw_wav(p, 1, 16, 1, 44100, np.zeros(44100, dtype="<i2").tobytes())
        rec = ingest.load_wav(p)
        assert len(rec.samples) == 44100
        assert rec.sample_rate == 44100
        assert np.all(rec.samples == 0.0)

    def test_stereo_averages_to_mono(self, tmp_path):
        p = tmp_path / "stereo.wav"
        left = np.full(1000, 16384, dtype="<i2")   # +0.5
        right = np.full(1000, -16384, dtype="<i2")  # -0.5
        inter = np.empty(2000, dtype="<i2")
        inter[0::2], inter[1::2] = left, right
        write_raw_wav(p, 1, 16, 2, 8000, inter.tobytes())
        rec = ingest.load_wav(p)
        assert len(rec.samples) == 1000
        np.testing.assert_allclose(rec.samples, 0.0, atol=1e-12)

    def test_int16_min_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "minval.wav"
        write_raw_wav(p, 1, 16, 1, 16000, np.array([-32768, 0, 32767], dtype="<i2").tobytes())
        rec = ingest.load_wav(p)
        assert rec.samples[0] == -1.0
        assert rec.samples[1] == 0.0
        assert rec.samples[2] == pytest.approx(32767 / 32768)

    @pytest.mark.parametrize("kind", ["int16", "int32", "float32"])
    def test_against_reference_decoder(self, tmp_path, kind, rng):
        # scipy.io.wavfile is the independent reference for the scaling rule
        p = tmp_path / f"ref_{kind}.wav"
        x = rng.uniform(-1, 1, 500)
        if kind == "int16":
            data = (x * 32767).astype("<i2")
            write_raw_wav(p, 1, 16, 1, 16000, data.tobytes())
            expected = data.astype(np.float64) / 32768.0
        elif kind == "int32":
            data = (x * (2**31 - 1)).astype("<i4")
            write_raw_wav(p, 1, 32, 1, 16000, data.tobytes())
            expected = data.astype(np.float64) / 2147483648.0
        else:
            data = x.astype("<f4")
            write_raw_wav(p, 3, 32, 1, 16000, data.tobytes())
            expected = data.astype(np.float64)
        rate, ref = wavfile.read(p)
        rec = ingest.load_wav(p)
        assert rate == rec.sample_rate
        np.testing.assert_allclose(rec.samples, expected, atol=0)
        if kind == "int16":
            np.testing.assert_allclose(rec.samples, ref / 32768.0, atol=0)
        elif kind == "int32":
            np.testing.assert_allclose(rec.samples, ref / 2147483648.0, atol=0)
        else:
            np.testing.assert_allclose(rec.samples, ref, atol=1e-7)

    def test_malformed_riff_raises_format_error(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"NOTRIFFdata")
        with pytest.raises(FormatError):
            ingest.load_wav(p)

    def test_truncated_chunk_raises_format_error(self, tmp_path):
        p = tmp_path / "trunc.wav"
        write_raw_wav(p, 1, 16, 1, 8000, np.zeros(100, dtype="<i2").tobytes())
        data = p.read_bytes()
        p.write_bytes(data[:-50])
        with pytest.raises(FormatError):
            ingest.load_wav(p)

    def test_sample_rate_below_floor_rejected(self, tmp_path):
        # 44.1 kHz with one zeroed header byte (0xAC44 -> 0x44) claims 68 Hz
        p = tmp_path / "68hz.wav"
        write_raw_wav(p, 1, 16, 1, 68, np.zeros(4, dtype="<i2").tobytes())
        with pytest.raises(FormatError, match="68hz.wav: sample rate 68 Hz"):
            ingest.load_wav(p)

    def test_unsupported_codec(self, tmp_path):
        p = tmp_path / "ulaw.wav"
        write_raw_wav(p, 7, 8, 1, 8000, b"\x00" * 100)  # mu-law
        with pytest.raises(UnsupportedError):
            ingest.load_wav(p)

    def test_non_finite_float_samples_rejected(self, tmp_path):
        p = tmp_path / "nan.wav"
        data = np.array([0.0, np.nan, 0.5], dtype="<f4")
        write_raw_wav(p, 3, 32, 1, 8000, data.tobytes())
        with pytest.raises(FormatError):
            ingest.load_wav(p)

    @pytest.mark.parametrize("fmt_code,bits,n_bytes", [
        (1, 16, 201),  # odd byte count for 16-bit PCM
        (1, 32, 202),  # not divisible by 4 for 32-bit PCM
        (3, 32, 203),  # not divisible by 4 for 32-bit float
    ])
    def test_partial_sample_in_data_chunk_rejected(self, tmp_path, fmt_code, bits, n_bytes):
        p = tmp_path / "partial.wav"
        write_raw_wav(p, fmt_code, bits, 1, 8000, b"\x00" * n_bytes)
        with pytest.raises(FormatError, match="whole number"):
            ingest.load_wav(p)

    @pytest.mark.parametrize("channels,n_bytes", [(1, 0), (2, 2)])
    def test_data_chunk_without_samples_rejected(self, tmp_path, channels, n_bytes):
        # (2, 2): one 16-bit value is less than one stereo frame
        p = tmp_path / "empty.wav"
        write_raw_wav(p, 1, 16, channels, 8000, b"\x00" * n_bytes)
        with pytest.raises(FormatError, match="no samples"):
            ingest.load_wav(p)

    def test_wav_writer_roundtrip(self, tmp_path, rng):
        p = tmp_path / "rt.wav"
        x = rng.uniform(-0.9, 0.9, 777)
        ingest.write_wav(p, x, 16000)
        rec = ingest.load_wav(p)
        assert rec.sample_rate == 16000
        np.testing.assert_allclose(rec.samples, x, atol=1.0 / 32768)

    def test_patient_id_from_stem(self, tmp_path):
        p = tmp_path / "101_1b1_Al_sc.wav"
        write_raw_wav(p, 1, 16, 1, 8000, np.zeros(10, dtype="<i2").tobytes())
        (tmp_path / "101_1b1_Al_sc.txt").write_text("0.0 0.001 0 0\n")
        (tmp_path / "diag.csv").write_text("101,Healthy\n")
        assert ingest.load_wav(p).recording_id == "101_1b1_Al_sc"
        rec, = ingest.build_manifest(tmp_path, tmp_path / "diag.csv", "Task1_4class").records
        assert (rec.recording_id, rec.patient_id) == ("101_1b1_Al_sc", "101")


class TestParseAnnotation:
    def test_normal_flags(self):
        labels = ingest.parse_annotation("0.0 2.5 0 0")
        assert len(labels) == 1
        assert labels[0].class4 == 0

    def test_both_flags(self):
        labels = ingest.parse_annotation("0.0 2.5 1 1")
        assert labels[0].class4 == 3

    def test_four_line_fixture_counts(self):
        text = "0.0 1.0 0 0\n1.0 2.0 1 0\n2.0 3.0 0 1\n3.0 4.0 1 1\n"
        labels = ingest.parse_annotation(text)
        counts = [0] * 4
        for lab in labels:
            counts[lab.class4] += 1
        assert counts == [1, 1, 1, 1]

    def test_sorted_by_onset(self):
        labels = ingest.parse_annotation("2.0 3.0 0 0\n0.0 1.0 1 0")
        assert [lab.onset for lab in labels] == [0.0, 2.0]

    def test_tab_separated(self):
        labels = ingest.parse_annotation("0.036\t0.579\t0\t1")
        assert labels[0].class4 == 2

    @pytest.mark.parametrize(
        "line",
        ["abc 2.0 0 0", "1.0 0.5 0 0", "0.0 1.0 2 0", "0.0 1.0 0 x", "0.0 1.0 0", "-1.0 1.0 0 0"],
    )
    def test_bad_lines_raise_with_line_number(self, line):
        with pytest.raises(ParseError) as exc:
            ingest.parse_annotation("0.0 1.0 0 0\n" + line)
        assert exc.value.line == 2


class TestManifest:
    def test_synth_counts(self, synth_manifest):
        assert len(synth_manifest.records) == 40
        assert synth_manifest.total_cycles == 40
        assert synth_manifest.class_counts() == {
            "Normal": 10, "Crackle": 10, "Wheeze": 10, "Both": 10,
        }

    def test_empty_directory_is_empty_manifest(self, tmp_path):
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        manifest = ingest.build_manifest(tmp_path, diag, "Task1_4class")
        assert manifest.records == []
        assert manifest.total_cycles == 0

    def test_copd_maps_to_chronic(self):
        assert ingest.disease_group3("COPD") == 1
        assert ingest.disease_group3("Bronchiectasis") == 1
        assert ingest.disease_group3("Asthma") == 1
        assert ingest.disease_group3("Healthy") == 0
        for d in ("URTI", "LRTI", "Pneumonia", "Bronchiolitis"):
            assert ingest.disease_group3(d) == 2

    def test_missing_annotation_goes_to_rejects(self, tmp_path):
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        ingest.write_wav(tmp_path / "101_x.wav", np.zeros(100), 16000)
        manifest = ingest.build_manifest(tmp_path, diag, "Task1_4class")
        assert manifest.records == []
        assert manifest.rejects == [("101_x", "missing annotation file")]

    def test_missing_patient_goes_to_rejects(self, tmp_path):
        diag = tmp_path / "diag.csv"
        diag.write_text("999,Healthy\n")
        ingest.write_wav(tmp_path / "101_x.wav", np.zeros(100), 16000)
        (tmp_path / "101_x.txt").write_text("0.0 0.005 0 0\n")
        manifest = ingest.build_manifest(tmp_path, diag, "Task1_4class")
        assert manifest.records == []
        assert len(manifest.rejects) == 1
        assert "missing from diagnosis" in manifest.rejects[0][1]

    def test_non_utf8_annotation_goes_to_rejects(self, tmp_path):
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n102,Healthy\n")
        for stem in ("101_x", "102_x"):
            ingest.write_wav(tmp_path / f"{stem}.wav", np.zeros(100), 16000)
        (tmp_path / "101_x.txt").write_bytes(b"0.0 0.005 0 0 \xff\n")
        (tmp_path / "102_x.txt").write_text("0.0 0.005 0 0\n")
        manifest = ingest.build_manifest(tmp_path, diag, "Task1_4class")
        assert [rec.recording_id for rec in manifest.records] == ["102_x"]
        assert [stem for stem, _ in manifest.rejects] == ["101_x"]
        assert manifest.rejects[0][1].startswith("annotation parse error:")

    def test_task2_entities_are_recordings(self, synth_manifest):
        ents = synth_manifest.entities("Task2_3class")
        assert len(ents) == 40
        classes = {cls for _, cls, _ in ents}
        assert classes == {0, 1, 2}

    def test_class2_derivation(self, synth_manifest):
        for eid, cls, _ in synth_manifest.entities("Task1_2class"):
            cls4 = dict(
                (e, c) for e, c, _ in synth_manifest.entities("Task1_4class")
            )[eid]
            assert cls == (0 if cls4 == 0 else 1)


class TestExtractCycles:
    def _recording(self, seconds=10.0):
        n = int(seconds * 16000)
        return ingest.AudioRecording(
            samples=np.arange(n, dtype=np.float64), sample_rate=16000,
            recording_id="r",
        )

    def test_simple_slice(self):
        rec = self._recording(10.0)
        (cycle_id, samples), = ingest.extract_cycles(
            rec, [ingest.CycleLabel(2.0, 4.5, False, False)])
        assert cycle_id == "r_c00"
        assert len(samples) == 40000
        assert samples[0] == 2.0 * 16000

    def test_clipped_to_audio_end(self):
        rec = self._recording(10.0)
        (_, samples), = ingest.extract_cycles(rec, [ingest.CycleLabel(9.5, 12.0, False, False)])
        assert len(samples) == 8000

    def test_onset_beyond_end_skipped(self, caplog):
        rec = self._recording(1.0)
        labels = [ingest.CycleLabel(0.0, 0.5, False, False),
                  ingest.CycleLabel(2.0, 3.0, False, False)]
        with caplog.at_level("WARNING", logger="respdl.ingest"):
            cycles = ingest.extract_cycles(rec, labels)
        assert [cycle_id for cycle_id, _ in cycles] == ["r_c00"]
        assert "r_c01: onset 2.00s beyond end of audio, skipped" in caplog.text

    def test_fixture_preserves_classes_in_order(self, tmp_path):
        annotation = "0.0 1.0 0 0\n1.0 2.0 1 0\n2.0 3.0 0 1\n3.0 4.0 1 1\n"
        ingest.write_wav(tmp_path / "101_a.wav", np.zeros(5 * 16000), 16000)
        (tmp_path / "101_a.txt").write_text(annotation)
        (tmp_path / "diag.csv").write_text("101,COPD\n")
        manifest = ingest.build_manifest(tmp_path, tmp_path / "diag.csv", "Task1_4class")
        cycles = ingest.extract_cycles(ingest.load_wav(tmp_path / "101_a.wav"),
                                       manifest.records[0].labels)
        ids = [cycle_id for cycle_id, _ in cycles]
        assert ids == ["101_a_c00", "101_a_c01", "101_a_c02", "101_a_c03"]
        for task, classes in (("Task1_4class", [0, 1, 2, 3]), ("Task1_2class", [0, 1, 1, 1])):
            assert [(eid, cls) for eid, cls, _ in manifest.entities(task)] == \
                list(zip(ids, classes))

    def test_durations_match_labels(self):
        rec = self._recording(8.0)
        labels = [ingest.CycleLabel(0.35, 1.6181, False, False),
                  ingest.CycleLabel(2.0, 3.3333, True, False)]
        cycles = ingest.extract_cycles(rec, labels)
        assert len(cycles) == len(labels)
        for lab, (_, samples) in zip(labels, cycles):
            expected = (lab.offset - lab.onset) * 16000
            assert abs(len(samples) - expected) <= 1.0

    def test_requires_16k(self):
        rec = ingest.AudioRecording(np.zeros(100), 8000, "r")
        with pytest.raises(ParameterError):
            ingest.extract_cycles(rec, [])


class TestMakeFolds:
    def _manifest(self, per_class, classes=2):
        manifest = ingest.DatasetManifest(root="", task="Task1_4class")
        flags = [(False, False), (True, False), (False, True), (True, True)]
        idx = 0
        for c in range(classes):
            for _ in range(per_class):
                cr, wh = flags[c]
                manifest.records.append(
                    ingest.ManifestRecord(
                        f"p{idx}_r{idx}", f"p{idx}", "Healthy",
                        [ingest.CycleLabel(0.0, 1.0, cr, wh)],
                    )
                )
                idx += 1
        return manifest

    def test_exact_stratification(self):
        folds = ingest.make_folds(self._manifest(5, classes=2), k=5, seed=3)
        ents = self._manifest(5, classes=2).entities("Task1_4class")
        by_class = {0: [], 1: []}
        for eid, cls, _ in ents:
            by_class[cls].append(eid)
        for f in range(5):
            for cls, ids in by_class.items():
                assert sum(1 for e in ids if folds.assignment[e] == f) == 1

    def test_determinism(self):
        m = self._manifest(7, classes=4)
        a = ingest.make_folds(m, k=5, seed=42)
        b = ingest.make_folds(m, k=5, seed=42)
        assert a.assignment == b.assignment
        c = ingest.make_folds(m, k=5, seed=43)
        assert c.assignment != a.assignment

    def test_partition_and_balance(self, synth_manifest, synth_folds):
        ents = synth_manifest.entities("Task1_4class")
        assert set(synth_folds.assignment) == {e for e, _, _ in ents}
        sizes = synth_folds.fold_sizes()
        assert sum(sizes) == len(ents)
        assert max(sizes) - min(sizes) <= 1
        # every class appears in every fold
        cls_of = {e: c for e, c, _ in ents}
        for f in range(5):
            present = {cls_of[e] for e, fold in synth_folds.assignment.items() if fold == f}
            assert present == {0, 1, 2, 3}

    def test_too_few_entities_raises(self):
        with pytest.raises(StratificationError):
            ingest.make_folds(self._manifest(3, classes=2), k=5, seed=0)

    def test_patient_independent_keeps_patients_whole(self, synth_manifest):
        folds = ingest.make_folds(synth_manifest, 5, 7, "Task1_4class",
                                  patient_independent=True)
        patient_of = {e: p for e, _, p in synth_manifest.entities("Task1_4class")}
        fold_of_patient = {}
        for eid, fold in folds.assignment.items():
            pid = patient_of[eid]
            assert fold_of_patient.setdefault(pid, fold) == fold
