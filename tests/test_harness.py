"""Metrics, experiment config, fold training, CV reports and sweeps."""

import numpy as np
import pytest

from respdl import dsp, harness, ingest, synth
from respdl.errors import FormatError, NumericalError, ParameterError
from respdl.harness import (
    CYCLE_SWEEP_LENGTHS,
    TIMERES_SWEEP_WIDTHS,
    ExperimentConfig,
    SweepRow,
    compute_metrics,
)
from respdl.nn import TrainConfig, load_checkpoint, save_checkpoint

from conftest import desk_config, write_raw_wav


class TestComputeMetrics:
    def test_formula_row(self):
        # 10 baseline entities, 9 correct -> spec 0.9; 10 others, 7 correct
        truths = {f"n{i}": 0 for i in range(10)}
        truths.update({f"a{i}": 1 for i in range(10)})
        preds = {f"n{i}": 0 for i in range(9)}
        preds["n9"] = 1
        preds.update({f"a{i}": 1 for i in range(7)})
        preds.update({f"a{i}": 0 for i in range(7, 10)})
        m = compute_metrics(preds, truths, "Task1_2class")
        assert m.specificity == pytest.approx(0.90)
        assert m.sensitivity == pytest.approx(0.70)
        assert m.icbhi_score == pytest.approx(0.80)
        assert m.icbhi_score == (m.specificity + m.sensitivity) / 2.0

    def test_all_correct(self):
        truths = {"a": 0, "b": 1, "c": 2, "d": 3}
        m = compute_metrics(dict(truths), truths, "Task1_4class")
        assert (m.specificity, m.sensitivity, m.icbhi_score) == (1.0, 1.0, 1.0)

    def test_hand_counted_fixture(self):
        # 4 Normal, 3 Crackle, 2 Wheeze, 1 Both; hand-tallied predictions
        truths = {"e0": 0, "e1": 0, "e2": 0, "e3": 0,
                  "e4": 1, "e5": 1, "e6": 1, "e7": 2, "e8": 2, "e9": 3}
        preds = {"e0": 0, "e1": 0, "e2": 1, "e3": 3,
                 "e4": 1, "e5": 2, "e6": 1, "e7": 2, "e8": 0, "e9": 3}
        m = compute_metrics(preds, truths, "Task1_4class")
        assert m.specificity == pytest.approx(2 / 4)
        assert m.sensitivity == pytest.approx(4 / 6)
        assert m.icbhi_score == pytest.approx((2 / 4 + 4 / 6) / 2)
        assert m.confusion == [
            [2, 1, 0, 1],
            [0, 2, 1, 0],
            [1, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        # exact-class sensitivity: the e5 cross-anomaly miss is not credited
        assert m.confusion[1][2] == 1

    def test_multiclass_sensitivity_needs_exact_class(self):
        truths = {"a": 1, "b": 2, "n": 0}
        preds = {"a": 2, "b": 1, "n": 0}  # anomalies confused with each other
        m = compute_metrics(preds, truths, "Task1_4class")
        assert m.sensitivity == 0.0

    def test_relabeling_invariance(self, rng):
        truths = {f"e{i}": int(c) for i, c in enumerate(rng.integers(0, 4, 40))}
        truths["e0"] = 0
        truths["e1"] = 1
        preds = {e: int(rng.integers(0, 4)) for e in truths}
        m1 = compute_metrics(preds, truths, "Task1_4class")
        mapping = {e: f"x{i}" for i, e in enumerate(sorted(truths, reverse=True))}
        m2 = compute_metrics(
            {mapping[e]: p for e, p in preds.items()},
            {mapping[e]: t for e, t in truths.items()},
            "Task1_4class",
        )
        assert m1 == m2

    def test_entity_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            compute_metrics({"a": 0}, {"b": 0}, "Task1_2class")


class TestExperimentConfig:
    def test_roundtrip_through_dict(self):
        cfg = desk_config()
        again = harness.config_from_dict(harness.config_to_dict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            harness.config_from_dict({"no_such_key": "1"})

    def test_bad_values_rejected(self):
        with pytest.raises(ParameterError):
            harness.config_from_dict({"task": "Task3"})
        with pytest.raises(ParameterError):
            harness.config_from_dict({"patch_width": "100"})
        with pytest.raises(ParameterError):
            harness.config_from_dict({"mixup": "maybe"})

    def test_train_keys_flattened(self):
        cfg = harness.config_from_dict({"epochs": "7", "lr": "0.01"})
        assert cfg.train.epochs == 7
        assert cfg.train.lr == 0.01

    def test_hash_stable_and_sensitive(self):
        a, b = desk_config(), desk_config()
        assert harness.config_hash(a) == harness.config_hash(b)
        c = desk_config(train=TrainConfig(epochs=61, batch_size=8, lr=1e-3, seed=11))
        assert harness.config_hash(c) != harness.config_hash(a)


def _saved_member(path, model_name="crnn"):
    cfg = desk_config(model=model_name, k=4, fold_seed=3)
    model = harness.build_member(cfg, model_name, seed=9)
    for p in model.params():
        p.data[...] = np.random.default_rng(len(p.name)).standard_normal(p.data.shape)
    stats = dsp.NormStats(mean=0.1 + 0.2, std=1 / 3)
    arrays = {p.name: p.data for p in model.params()} | model.get_buffers()
    harness.save_fold_checkpoint(path, cfg, model_name, 2, stats, arrays)
    return cfg, model, stats


class TestFoldCheckpoint:
    @pytest.mark.parametrize("model_name", ["cnn_moe", "crnn"])
    def test_roundtrip_rebuilds_config_fold_stats_and_model(self, tmp_path, model_name):
        cfg, model, stats = _saved_member(tmp_path / "m.rsdl", model_name)
        ckpt = harness.load_fold_checkpoint(tmp_path / "m.rsdl")
        assert ckpt.config == cfg
        assert ckpt.fold_id == 2
        assert ckpt.stats == stats  # repr floats, not float32
        assert ckpt.model.name == model_name
        for a, b in zip(ckpt.model.params(), model.params(), strict=True):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)
        got = ckpt.model.get_buffers()
        for key, value in model.get_buffers().items():
            np.testing.assert_array_equal(got[key], value)

    @pytest.mark.parametrize("line,replacement", [
        ("member=crnn\n", ""),
        ("fold=2\n", ""),
        ("norm_std=0.3333333333333333\n", ""),
        ("k=4\n", ""),
        ("member=crnn\n", "member=resnet\n"),
        ("fold=2\n", "fold=two\n"),
        ("patch_width=32\n", "patch_width=33\n"),
        ("k=4\n", "k=4\nno_such_key=1\n"),
    ])
    def test_bad_header_is_format_error(self, tmp_path, line, replacement):
        path = tmp_path / "m.rsdl"
        _saved_member(path)
        header, arrays = load_checkpoint(path)
        assert line in header
        save_checkpoint(path, header.replace(line, replacement), arrays)
        with pytest.raises(FormatError):
            harness.load_fold_checkpoint(path)

    def test_missing_buffer_is_format_error(self, tmp_path):
        path = tmp_path / "m.rsdl"
        _saved_member(path)
        header, arrays = load_checkpoint(path)
        del arrays["block1.bn_in.running_var"]
        save_checkpoint(path, header, arrays)
        with pytest.raises(FormatError, match="running_var"):
            harness.load_fold_checkpoint(path)


@pytest.fixture(scope="module")
def quick_result(synth_features, synth_folds):
    cfg = desk_config(train=TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=11),
                      early_stop_acc=0.0)
    return cfg, harness.run_fold(cfg, 0, synth_features, synth_folds)


@pytest.fixture(scope="module")
def cv_result(synth_features, synth_folds):
    cfg = desk_config(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=31),
                      early_stop_acc=0.0)
    return harness.run_cv(cfg, synth_features, synth_folds)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweepdata")
    synth.generate(d, n_recordings=16, n_classes=4, seed=2)
    return ingest.build_manifest(d, d / "diagnosis.csv", "Task1_4class")


class TestBuildFeatures:
    def test_empty_recording_in_task2_is_format_error(self, tmp_path):
        # a data chunk with no samples once reached np.tile(x, ceil(1024/0))
        write_raw_wav(tmp_path / "102_a.wav", 1, 16, 1, 4000, b"")
        (tmp_path / "102_a.txt").write_text("0.0 1.0 0 0\n")
        (tmp_path / "diag.csv").write_text("102,COPD\n")
        manifest = ingest.build_manifest(tmp_path, tmp_path / "diag.csv", "Task2_3class")
        assert len(manifest.records) == 1
        with pytest.raises(FormatError, match="102_a.wav"):
            harness.build_features(manifest, "Task2_3class", 0.0)

    @staticmethod
    def _one_sample_manifest(tmp_path, task):
        # one 44.1 kHz sample resamples to round(16000/44100) = 0 samples
        write_raw_wav(tmp_path / "102_a.wav", 1, 16, 1, 44100, b"\x10\x00")
        (tmp_path / "102_a.txt").write_text("0.0 1.0 0 0\n")
        (tmp_path / "diag.csv").write_text("102,COPD\n")
        return ingest.build_manifest(tmp_path, tmp_path / "diag.csv", task)

    def test_recording_resampled_to_nothing_in_task2_is_format_error(self, tmp_path):
        manifest = self._one_sample_manifest(tmp_path, "Task2_3class")
        with pytest.raises(FormatError, match="102_a.wav"):
            harness.build_features(manifest, "Task2_3class", 0.0)

    def test_recording_resampled_to_nothing_in_task1_yields_no_cycle(self, tmp_path):
        # its only cycle starts at or beyond the end of the audio and is skipped
        manifest = self._one_sample_manifest(tmp_path, "Task1_4class")
        assert harness.build_features(manifest, "Task1_4class", 6.0) == {}


class TestFrontEnd:
    def test_short_waveform_repeated_to_one_window(self, rng):
        bank = dsp.build_gammatone_bank()
        x = rng.standard_normal(500)
        spec = harness.entity_spectrogram(x, 0.0, bank, "x.wav")
        expected = dsp.gammatone_spectrogram(np.tile(x, 3), bank).values
        np.testing.assert_array_equal(spec, expected)

    def test_short_waveform_repeated_to_min_seconds(self, rng):
        bank = dsp.build_gammatone_bank()
        x = rng.standard_normal(3000)
        spec = harness.entity_spectrogram(x, 0.5, bank, "x.wav")
        expected = dsp.gammatone_spectrogram(np.tile(x, 3), bank).values  # 9000 >= 8000
        np.testing.assert_array_equal(spec, expected)

    def test_empty_waveform_names_its_source(self):
        with pytest.raises(FormatError, match="x.wav"):
            harness.entity_spectrogram(np.zeros(0), 6.0, dsp.build_gammatone_bank(), "x.wav")

    def test_normalization_applied(self, rng):
        spec = rng.standard_normal((64, 100)) * 3.0 + 1.0
        stats = dsp.NormStats(mean=2.0, std=4.0)
        patches = harness.normalized_patches(spec, stats, 32)
        assert patches.dtype == np.float32
        assert patches.shape == (4, 64, 32)
        np.testing.assert_array_equal(patches[0], ((spec[:, :32] - 2.0) / 4.0).astype(np.float32))
        np.testing.assert_array_equal(patches[3], ((spec[:, 68:] - 2.0) / 4.0).astype(np.float32))


class TestRunFold:
    def test_history_length_equals_epochs(self, quick_result):
        cfg, result = quick_result
        assert len(result.histories["cnn_moe"]) == cfg.train.epochs
        epochs = [row[0] for row in result.histories["cnn_moe"]]
        assert epochs == [1, 2, 3]

    def test_no_leakage_id_tracking(self, quick_result, synth_folds):
        _, result = quick_result
        assert set(result.train_ids).isdisjoint(result.heldout_ids)
        assert set(result.stats_ids) == set(result.train_ids)
        held = {e for e, f in synth_folds.assignment.items() if f == 0}
        assert set(result.heldout_ids) == held

    def test_determinism(self, synth_features, synth_folds):
        cfg = desk_config(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=21),
                          early_stop_acc=0.0)
        a = harness.run_fold(cfg, 1, synth_features, synth_folds)
        b = harness.run_fold(cfg, 1, synth_features, synth_folds)
        assert a.metrics == b.metrics
        assert a.histories == b.histories
        for name in a.checkpoints:
            for key in a.checkpoints[name]:
                np.testing.assert_array_equal(a.checkpoints[name][key],
                                              b.checkpoints[name][key])

    def test_nan_abort_keeps_last_good(self, synth_features, synth_folds, monkeypatch):
        cfg = desk_config(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3))

        def explode(*args, **kwargs):
            raise NumericalError("non-finite values in predictions")

        monkeypatch.setattr(harness, "train_loop", explode)
        with pytest.raises(NumericalError) as excinfo:
            harness.run_fold(cfg, 0, synth_features, synth_folds)
        assert hasattr(excinfo.value, "last_good")
        assert excinfo.value.model_name == "cnn_moe"
        assert isinstance(excinfo.value.stats, dsp.NormStats)
        assert any(k.endswith(".W") for k in excinfo.value.last_good)

    def test_ensemble_trains_both_members(self, synth_features, synth_folds):
        cfg = desk_config(model="ensemble",
                          train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5),
                          early_stop_acc=0.0)
        result = harness.run_fold(cfg, 0, synth_features, synth_folds)
        assert set(result.histories) == {"cnn_moe", "crnn"}
        assert set(result.component_metrics) == {"cnn_moe", "crnn"}
        assert 0.0 <= result.metrics.icbhi_score <= 1.0


class TestRunCV:
    def test_mean_is_arithmetic_mean(self, cv_result):
        per_fold = [r.metrics for r in cv_result.fold_results]
        assert cv_result.mean.specificity == pytest.approx(
            np.mean([m.specificity for m in per_fold]), abs=0
        )
        assert cv_result.mean.icbhi_score == (
            cv_result.mean.specificity + cv_result.mean.sensitivity
        ) / 2.0

    def test_report_has_k_plus_one_rows(self, cv_result):
        lines = harness.report_csv(cv_result).strip().splitlines()
        assert len(lines) == 1 + 5 + 1  # header + folds + mean
        assert lines[-1].split(",")[2] == "mean"

    def test_report_score_identity_exact(self, cv_result):
        for line in harness.report_csv(cv_result).strip().splitlines()[1:]:
            cols = line.split(",")
            spec, sen, score = float(cols[3]), float(cols[4]), float(cols[5])
            assert score == (spec + sen) / 2.0  # exact, not approximate

    def test_two_jobs_bit_identical_to_one(self, synth_features, synth_folds):
        results = {}
        for jobs in (1, 2):
            cfg = desk_config(train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13),
                              early_stop_acc=0.0, jobs=jobs)
            results[jobs] = harness.run_cv(cfg, synth_features, synth_folds, fold_ids=[0, 1])
        assert harness.report_csv(results[2]) == harness.report_csv(results[1])
        for one, two in zip(results[1].fold_results, results[2].fold_results):
            assert one.fold_id == two.fold_id
            snap_one, snap_two = one.checkpoints["cnn_moe"], two.checkpoints["cnn_moe"]
            assert snap_one.keys() == snap_two.keys()
            for key in snap_one:
                np.testing.assert_array_equal(snap_one[key], snap_two[key])

    def test_duplicated_fold_mean_equals_each(self, synth_features, synth_folds):
        m = harness._mean_metrics([
            harness.Metrics(0.8, 0.9, 0.85, [[1, 0], [0, 1]], 2),
            harness.Metrics(0.8, 0.9, 0.85, [[1, 0], [0, 1]], 2),
        ])
        assert m.icbhi_score == pytest.approx(0.85)
        m2 = harness._mean_metrics([
            harness.Metrics(0.8, 0.8, 0.8, [[1, 0], [0, 1]], 2),
            harness.Metrics(0.9, 0.9, 0.9, [[1, 0], [0, 1]], 2),
        ])
        assert m2.icbhi_score == pytest.approx(0.85)


class TestSweeps:
    def test_default_grids_match_protocol(self):
        assert CYCLE_SWEEP_LENGTHS == (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        assert TIMERES_SWEEP_WIDTHS == (32, 64, 96, 128, 160)

    def test_cycle_sweep_structure(self, tiny_manifest):
        cfg = desk_config(k=2, train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=1),
                          early_stop_acc=0.0)
        report = harness.sweep_cycle_length(cfg, tiny_manifest, lengths=(0.5, 0.7))
        rows4 = [r for r in report.rows if r.task == "Task1_4class"]
        rows2 = [r for r in report.rows if r.task == "Task1_2class"]
        assert len(rows4) == 2 and len(rows2) == 2
        assert sum(r.best for r in rows4) == 1
        assert sum(r.best for r in rows2) == 1
        for r in report.rows:
            assert r.icbhi_score == (r.specificity + r.sensitivity) / 2.0
        csv = report.to_csv()
        assert csv.splitlines()[0] == (
            "task,setting,seconds,frames,specificity,sensitivity,icbhi_score,best"
        )

    def test_timeres_sweep_structure(self, tiny_manifest):
        cfg = desk_config(task="Task2_3class", k=2,
                          train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=1),
                          early_stop_acc=0.0)
        report = harness.sweep_time_resolution(cfg, tiny_manifest, widths=(32, 64))
        rows3 = [r for r in report.rows if r.task == "Task2_3class"]
        rows2 = [r for r in report.rows if r.task == "Task2_2class"]
        assert len(rows3) == 2 and len(rows2) == 2
        for r in report.rows:
            assert r.frames in (32, 64)
            assert r.seconds == pytest.approx(r.frames * 256 / 16000)

    def test_best_flag_tie_goes_to_smaller_setting(self):
        rows = [
            SweepRow("t", "2s", 2.0, None, 0.8, 0.8, 0.8),
            SweepRow("t", "3s", 3.0, None, 0.8, 0.8, 0.8),
            SweepRow("t", "4s", 4.0, None, 0.7, 0.7, 0.7),
        ]
        harness._flag_best(rows)
        assert [r.best for r in rows] == [True, False, False]


class TestEvaluateEntities:
    def test_multi_patch_entities_batched(self, rng):
        from respdl import models

        model = models.CNNMoE(4, patch_width=32, seed=1)
        model.forward(rng.standard_normal((4, 64, 32)).astype(np.float32), train=True)
        groups = {
            f"e{i}": rng.standard_normal((i + 1, 64, 32)).astype(np.float32)
            for i in range(4)
        }
        probs = harness.evaluate_entities(model, groups, batch_size=3)
        assert set(probs) == set(groups)
        for p in probs.values():
            assert p.shape == (4,)
            assert p.sum() == pytest.approx(1.0, abs=1e-5)


class TestArtifacts:
    def test_history_csv_format(self):
        text = harness.history_csv([(1, 0.5, 0.25), (2, 0.25, 0.5)])
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,heldout_score"
        assert lines[1].startswith("1,0.5,")

    def test_model_card_fields(self):
        cfg = desk_config()
        card = harness.model_card(cfg, "cnn_moe", 2)
        for needle in ("task: Task1_4class", "patch_width: 32",
                       "min_cycle_seconds: 0.5", "seed: 11", "fold: 2",
                       "config_hash:"):
            assert needle in card
