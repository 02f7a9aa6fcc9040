"""Metrics, experiment config, fold training, CV reports and sweeps."""

import ctypes
import logging
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from respdl import dsp, harness, ingest, models, synth
from respdl.augment import MixupConfig
from respdl.errors import FormatError, NumericalError, ParameterError
from respdl.harness import (
    CYCLE_SWEEP_LENGTHS,
    TIMERES_SWEEP_WIDTHS,
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

    def test_hash_ignores_execution_keys(self):
        base = harness.config_hash(desk_config(jobs=1))
        assert harness.config_hash(desk_config(jobs=4)) == base
        assert harness.config_hash(desk_config(out_dir="/elsewhere/runs")) == base
        text = harness.config_text(desk_config())
        assert "jobs=" not in text and "out_dir=" not in text

    def test_jobs_default_to_usable_cores(self):
        assert desk_config().jobs == harness.usable_cores() >= 1


def _saved_member(path, model_name="crnn"):
    cfg = desk_config(model=model_name, k=4, fold_seed=3)
    model = harness.build_member(cfg, model_name, seed=9)
    for p in model.params():
        p.data[...] = np.random.default_rng(len(p.name)).standard_normal(p.data.shape)
    stats = dsp.NormStats(mean=0.1 + 0.2, std=1 / 3)
    harness.save_fold_checkpoint(path, cfg, model_name, 2, stats, model.state())
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
        got, want = ckpt.model.state(), model.state()
        assert got.keys() == want.keys()
        assert {"block1.bn_in.running_mean", "block1.bn_in.running_var"} <= got.keys()
        for key, value in want.items():
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

    def test_header_with_execution_keys_still_loads(self, tmp_path):
        # headers written while jobs and out_dir were part of config_text
        path = tmp_path / "m.rsdl"
        cfg, _, _ = _saved_member(path)
        header, arrays = load_checkpoint(path)
        save_checkpoint(path, "jobs=3\nout_dir=elsewhere\n" + header, arrays)
        ckpt = harness.load_fold_checkpoint(path)
        assert ckpt.config == cfg
        assert ckpt.config.jobs == harness.usable_cores()

    def test_header_with_retired_keys_still_loads(self, tmp_path):
        # headers written while these constants were config keys
        path = tmp_path / "m.rsdl"
        cfg, model, _ = _saved_member(path, "cnn_moe")
        header, arrays = load_checkpoint(path)
        retired = "beta1=0.9\nbeta2=0.999\neps=1e-08\nmixup_alpha=0.2\nmoe_experts=10\n"
        save_checkpoint(path, retired + header, arrays)
        ckpt = harness.load_fold_checkpoint(path)
        assert ckpt.config == cfg
        for name, data in model.state().items():
            np.testing.assert_array_equal(ckpt.model.state()[name], data)

    def test_header_with_other_expert_count_is_format_error(self, tmp_path):
        # the expert count is read from the constant, not the header, so a
        # 4-expert state fails the 10-expert model's shape check
        path = tmp_path / "m.rsdl"
        cfg = desk_config(k=4, fold_seed=3)
        model = models.build_model("cnn_moe", cfg.n_classes, patch_width=cfg.patch_width,
                                   n_experts=4)
        harness.save_fold_checkpoint(path, cfg, "cnn_moe", 2, dsp.NormStats(0.0, 1.0),
                                     model.state())
        header, arrays = load_checkpoint(path)
        save_checkpoint(path, "moe_experts=4\n" + header, arrays)
        with pytest.raises(FormatError, match=re.escape("moe.experts.W: state shape")):
            harness.load_fold_checkpoint(path)

    @pytest.mark.parametrize("name,shape", [
        ("block1.bn_in.running_var", None),
        ("block2.bn_in.running_mean", (7,)),  # C-RNN expects (64,)
        ("fc3.W", None),
        ("fc3.W", (3, 4)),
    ], ids=["missing-buffer", "misshaped-buffer", "missing-param", "misshaped-param"])
    def test_bad_entry_is_format_error(self, tmp_path, name, shape):
        path = tmp_path / "m.rsdl"
        _saved_member(path)
        header, arrays = load_checkpoint(path)
        if shape is None:
            del arrays[name]
        else:
            arrays[name] = np.zeros(shape, dtype=np.float32)
        save_checkpoint(path, header, arrays)
        with pytest.raises(FormatError, match=re.escape(name)):
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


def assert_same_members(a, b, dir_a, dir_b):
    """Two results of one fold: the same member names, histories and
    held-out probabilities, bit for bit, and the same checkpoint and
    history files, as the member jobs wrote them under ``dir_a`` and
    ``dir_b``, byte for byte; equal probabilities give equal member
    metrics."""
    assert a.fold_id == b.fold_id
    assert [m.name for m in a.members] == [m.name for m in b.members]
    for one, two in zip(a.members, b.members, strict=True):
        assert one.history == two.history
        assert one.stats == two.stats
        assert one.heldout_probs.keys() == two.heldout_probs.keys()
        for eid in one.heldout_probs:
            np.testing.assert_array_equal(one.heldout_probs[eid], two.heldout_probs[eid])
        stem = f"{one.name}_fold{a.fold_id}"
        assert (dir_a / f"history_{stem}.csv").read_text() == harness.history_csv(one.history)
        for name in (f"ckpt_{stem}.rsdl", f"history_{stem}.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestRunFold:
    def test_history_length_equals_epochs(self, quick_result):
        cfg, result = quick_result
        member, = result.members
        assert member.name == "cnn_moe"
        assert len(member.history) == cfg.train.epochs
        epochs = [row[0] for row in member.history]
        assert epochs == [1, 2, 3]

    def test_no_leakage_id_tracking(self, quick_result, synth_features, synth_folds):
        _, result = quick_result
        member, = result.members
        held = {e for e, f in synth_folds.assignment.items() if f == 0}
        train_ids = sorted(e for e in synth_features if e not in held)
        assert held and train_ids and set(synth_features) == held | set(train_ids)
        assert member.stats == dsp.fit_norm_stats([synth_features[e].spec for e in train_ids])
        assert set(member.heldout_probs) == held

    def test_determinism(self, synth_features, synth_folds, tmp_path):
        cfg = desk_config(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=21),
                          early_stop_acc=0.0)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            d.mkdir()
        a, b = (harness.run_cv(cfg, synth_features, synth_folds, [1], run_dir=d).fold_results[0]
                for d in dirs)
        assert a.metrics == b.metrics
        assert_same_members(a, b, *dirs)

    @pytest.mark.parametrize("select", ["best", "final"])
    def test_select_keeps_that_epochs_state(self, select, synth_features, synth_folds):
        cfg = desk_config(train=TrainConfig(epochs=4, batch_size=8, lr=1e-3, seed=31),
                          early_stop_acc=0.0, select=select)
        member, = harness.run_fold(cfg, 0, synth_features, synth_folds).members
        scores = [row[2] for row in member.history]
        assert max(scores) > scores[-1]  # the best epoch is not the last one
        truths = {eid: synth_features[eid].label for eid in member.heldout_probs}
        kept = scores[-1] if select == "final" else max(scores)
        assert harness.score(member.heldout_probs, truths, cfg.task).icbhi_score == kept

    def test_nan_abort_keeps_last_good(self, synth_features, synth_folds, monkeypatch,
                                       tmp_path):
        cfg = desk_config(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3))

        def explode(*args, **kwargs):
            raise NumericalError("non-finite values in predictions")

        monkeypatch.setattr(harness, "train_loop", explode)
        with pytest.raises(NumericalError) as excinfo:
            harness.run_cv(cfg, synth_features, synth_folds, [0], run_dir=tmp_path)
        assert (excinfo.value.model_name, excinfo.value.fold_id) == ("cnn_moe", 0)
        assert not hasattr(excinfo.value, "last_good")  # the state stays in the job
        aborted, = tmp_path.iterdir()
        assert aborted.name == "ckpt_cnn_moe_fold0.aborted.rsdl"
        ckpt = harness.load_fold_checkpoint(aborted)
        assert (ckpt.fold_id, ckpt.model.name) == (0, "cnn_moe")
        assert any(k.endswith(".W") for k in ckpt.model.state())

    def test_ensemble_trains_both_members(self, synth_features, synth_folds):
        cfg = desk_config(model="ensemble",
                          train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5),
                          early_stop_acc=0.0)
        result = harness.run_fold(cfg, 0, synth_features, synth_folds)
        assert [m.name for m in result.members] == ["cnn_moe", "crnn"]
        held = {e for e, f in synth_folds.assignment.items() if f == 0}
        for member in result.members:
            assert len(member.history) == cfg.train.epochs
            assert set(member.heldout_probs) == held
        assert 0.0 <= result.metrics.icbhi_score <= 1.0


class TestTrainState:
    @pytest.mark.parametrize("accs,patience,stops_after", [
        ([0.99, 0.99, 0.99], 2, 2),
        ([0.99, 0.5, 0.99, 0.99], 2, 4),  # the dip resets the count
        ([0.5, 0.99, 0.98, 0.97, 0.99, 0.99, 0.99], 3, 7),
        ([0.98, 0.5], 1, 1),  # at the threshold counts
        ([0.99, 0.97, 0.99, 0.97], 2, None),
        ([0.99, 0.99], 0, 1),  # a patience below one acts as one
    ])
    def test_early_stop_rule(self, accs, patience, stops_after):
        stops = [n for n in range(len(accs) + 1)
                 if harness.early_stopped(accs[:n], 0.98, patience)]
        assert (stops[0] if stops else None) == stops_after
        assert not harness.early_stopped(accs, 0.0, patience)  # 0 disables the stop

    def test_train_loop_stops_by_the_rule(self, monkeypatch):
        accs = [0.99, 0.5, 0.99, 0.99, 0.99, 0.99]

        def epoch(state, *args):
            state.history.append((len(state.history) + 1, 0.0, 0.0))
            state.train_accs.append(accs[len(state.train_accs)])

        monkeypatch.setattr(harness, "run_epoch", epoch)
        model = models.CNNMoE(4, patch_width=32, n_experts=2)
        history, train_accs = harness.train_loop(model, None, None, TrainConfig(epochs=6),
                                                 early_stop_acc=0.98, early_stop_patience=2)
        assert train_accs == accs[:4] and len(history) == 4

    @pytest.mark.parametrize("name", ["cnn_moe", "crnn"])
    def test_resumed_record_continues_bit_identically(self, name, rng):
        x = rng.standard_normal((12, 64, 32)).astype(np.float32)
        y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 12)]
        cfg = TrainConfig(epochs=4, batch_size=5, lr=1e-3, seed=0)
        mixup = MixupConfig(alpha=0.2)
        groups = {"a": x[:3], "b": x[3:6]}

        def fresh():
            model = models.build_model(name, 4, patch_width=32, seed=5, gru_hidden=16,
                                       n_experts=3)
            return harness.TrainState.start(
                model, cfg, seed=9,
                score_fn=lambda m: harness.evaluate_entities(m, groups)["a"][0])

        def generators(state):
            return state.shuffle_rng, state.mix_rng, state.drop_rng

        whole = fresh()
        harness.train_loop(whole.model, x, y, cfg, mixup, state=whole)

        first = fresh()
        for _ in range(2):
            harness.run_epoch(first, x, y, cfg, mixup)
        saved = (first.model.state(), first.adam.state(),
                 [g.bit_generator.state for g in generators(first)],
                 list(first.history), list(first.train_accs), first.best_score,
                 first.best_state)
        del first

        resumed = fresh()
        model_state, adam_state, rng_states, history, accs, best_score, best_state = saved
        resumed.model.load_state(model_state)
        resumed.adam.load_state(adam_state)
        for generator, rng_state in zip(generators(resumed), rng_states, strict=True):
            generator.bit_generator.state = rng_state
        resumed.history, resumed.train_accs = history, accs
        resumed.best_score, resumed.best_state = best_score, best_state
        for _ in range(2):
            harness.run_epoch(resumed, x, y, cfg, mixup)

        assert len(whole.history) == 4
        assert resumed.history == whole.history
        assert resumed.train_accs == whole.train_accs
        assert resumed.best_score == whole.best_score
        for kept, expected in ((resumed.model.state(), whole.model.state()),
                               (resumed.best_state, whole.best_state),
                               (resumed.adam.state(), whole.adam.state())):
            assert kept.keys() == expected.keys()
            for key in kept:
                np.testing.assert_array_equal(kept[key], expected[key])


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

    def test_two_jobs_bit_identical_to_one(self, synth_features, synth_folds, tmp_path):
        # the ensemble also covers the split into member jobs and the fuse
        for model in ("cnn_moe", "ensemble"):
            results, dirs = {}, {jobs: tmp_path / f"{model}-jobs{jobs}" for jobs in (1, 2)}
            for jobs in (1, 2):
                dirs[jobs].mkdir()
                cfg = desk_config(model=model, early_stop_acc=0.0, jobs=jobs,
                                  train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13))
                results[jobs] = harness.run_cv(cfg, synth_features, synth_folds,
                                               fold_ids=[0, 1], run_dir=dirs[jobs])
            assert harness.report_csv(results[2]) == harness.report_csv(results[1])
            for one, two in zip(results[1].fold_results, results[2].fold_results, strict=True):
                assert one.metrics == two.metrics
                assert_same_members(one, two, dirs[1], dirs[2])

    def test_only_scores_cross_the_pool(self, synth_features, synth_folds):
        # a member's state (18 MB for the desk CNN-MoE) stays in its job
        cfg = desk_config(model="ensemble", early_stop_acc=0.0, jobs=2,
                          train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13))
        result = harness.run_cv(cfg, synth_features, synth_folds, fold_ids=[0, 1])
        members = [m for r in result.fold_results for m in r.members]
        assert [m.name for m in members] == ["cnn_moe", "crnn"] * 2
        for member in members:
            assert len(pickle.dumps(member)) < 64 * 1024

    def test_abort_keeps_the_members_finished_before_it(self, synth_manifest, synth_features,
                                                        monkeypatch, tmp_path):
        train_loop, calls = harness.train_loop, []

        def fold1_explodes(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # one job at a time: fold 0, then fold 1
                raise NumericalError("non-finite values in predictions")
            return train_loop(*args, **kwargs)

        monkeypatch.setattr(harness, "train_loop", fold1_explodes)
        cfg = desk_config(k=2, jobs=1, early_stop_acc=0.0,
                          train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13))
        folds = ingest.make_folds(synth_manifest, 2, 7, cfg.task)
        with pytest.raises(NumericalError):
            harness.run_cv(cfg, synth_features, folds, run_dir=tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "ckpt_cnn_moe_fold0.rsdl", "ckpt_cnn_moe_fold1.aborted.rsdl",
            "history_cnn_moe_fold0.csv"]
        assert harness.load_fold_checkpoint(tmp_path / "ckpt_cnn_moe_fold0.rsdl").fold_id == 0
        rows = (tmp_path / "history_cnn_moe_fold0.csv").read_text().splitlines()
        assert rows[0] == "epoch,train_loss,heldout_score" and rows[1].startswith("1,")
        assert len(rows) == 2
        aborted = harness.load_fold_checkpoint(tmp_path / "ckpt_cnn_moe_fold1.aborted.rsdl")
        assert aborted.fold_id == 1

    @pytest.mark.parametrize("aborting", ["cnn_moe", "crnn"])
    def test_pooled_nan_abort_stops_running_members(self, synth_manifest, synth_features,
                                                    monkeypatch, tmp_path, aborting):
        def stub(model, *args, **kwargs):
            if model.name == aborting:
                raise NumericalError("non-finite values in predictions")
            time.sleep(30)
            return [(1, 1.0, 0.5)], [0.5]

        monkeypatch.setattr(harness, "train_loop", stub)
        cfg = desk_config(model="ensemble", k=2, jobs=2)
        folds = ingest.make_folds(synth_manifest, 2, 7, cfg.task)
        start = time.perf_counter()
        with pytest.raises(NumericalError) as excinfo:
            harness.run_cv(cfg, synth_features, folds, run_dir=tmp_path)
        assert time.perf_counter() - start < 5
        assert not multiprocessing.active_children()  # the sleeping member was stopped
        exc = excinfo.value
        assert (exc.model_name, exc.fold_id) == (aborting, 0)
        assert not hasattr(exc, "last_good")
        sleeping, = {"cnn_moe", "crnn"} - {aborting}
        assert not list(tmp_path.glob(f"*{sleeping}*"))  # and wrote nothing
        ckpt = harness.load_fold_checkpoint(tmp_path / f"ckpt_{aborting}_fold0.aborted.rsdl")
        assert isinstance(ckpt.stats, dsp.NormStats)
        assert any(k.endswith(".W") for k in ckpt.model.state())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_record_is_empty_after_run_cv(self, synth_features, synth_folds, monkeypatch,
                                              jobs):
        cfg = desk_config(model="ensemble", jobs=jobs,
                          train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=13))
        harness.run_cv(cfg, synth_features, synth_folds, fold_ids=[0])
        assert harness._RUN == {}

        def explode(*args, **kwargs):
            raise NumericalError("non-finite values in predictions")

        monkeypatch.setattr(harness, "train_loop", explode)
        with pytest.raises(NumericalError):
            harness.run_cv(cfg, synth_features, synth_folds, fold_ids=[0])
        assert harness._RUN == {}

    def test_workers_run_one_blas_thread(self):
        if getattr(harness._openblas(), "scipy_openblas_get_num_threads64_", None) is None:
            pytest.skip("numpy's OpenBLAS has no thread-count symbol")
        with harness.member_pool(2) as pool:
            assert list(pool.map(_blas_threads, range(2))) == [1, 1]

    def test_memory_cap_lowers_worker_count(self, synth_features, monkeypatch, caplog):
        cfg = desk_config(model="ensemble", jobs=4)
        need = harness.worker_mb(cfg, synth_features)
        monkeypatch.setattr(harness, "_mem_available_mb", lambda: 100 * need)
        assert harness.worker_count(cfg, 10, synth_features) == 4
        assert harness.worker_count(cfg, 3, synth_features) == 3
        monkeypatch.setattr(harness, "_mem_available_mb", lambda: 2.5 * need)
        with caplog.at_level(logging.WARNING, logger="respdl.harness"):
            assert harness.worker_count(cfg, 10, synth_features) == 2
        assert "using 2" in caplog.text
        monkeypatch.setattr(harness, "_mem_available_mb", lambda: 0.5 * need)
        assert harness.worker_count(cfg, 10, synth_features) == 1

    def test_worker_estimate_fits_measured_peaks(self):
        paper = dict(patch_width=128, train=TrainConfig(batch_size=50))
        cnn_moe = harness.worker_mb(desk_config(model="cnn_moe", **paper), {})
        crnn = harness.worker_mb(desk_config(model="crnn", gru_hidden=512, **paper), {})
        desk = harness.worker_mb(desk_config(model="ensemble"), {})
        assert 817 <= cnn_moe <= 1.1 * 817
        assert 1127 <= crnn <= 1.1 * 1127
        assert 263 <= desk <= 1.1 * 263

    def test_worker_peak_stays_within_its_estimate(self):
        # one-sided: a layer that caches more, or an estimate below the real
        # peak, fails it; a machine whose peak is lower does not
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # as in a pool worker
        run = subprocess.run([sys.executable, "-c", WORKER_PEAK_PROTOCOL, "crnn", "50", "128", "512"],
                             capture_output=True, text=True, check=True, timeout=600, env=env)
        peak = float(run.stdout.split()[-1])
        paper = desk_config(model="crnn", patch_width=128, gru_hidden=512,
                            train=TrainConfig(batch_size=50))
        assert peak <= harness.worker_mb(paper, {})

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


# The protocol harness.worker_mb is fit to, for one member in a fresh
# process: two epochs of two mixup training steps, each epoch followed by a
# 64-patch evaluate_entities. argv: model, batch, patch width, GRU hidden.
# Prints the process's peak RSS in MB.
WORKER_PEAK_PROTOCOL = """
import resource, sys
import numpy as np
from respdl import harness
from respdl.augment import MixupConfig
from respdl.nn import TrainConfig
name, batch, width, gru = sys.argv[1], *map(int, sys.argv[2:5])
config = harness.ExperimentConfig(model=name, patch_width=width, gru_hidden=gru,
                                  train=TrainConfig(epochs=2, batch_size=batch))
rng = np.random.default_rng(0)
x = rng.standard_normal((2 * batch, 64, width), dtype=np.float32)
y = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 2 * batch)]
groups = {i: rng.standard_normal((4, 64, width), dtype=np.float32) for i in range(16)}
state = harness.TrainState.start(harness.build_member(config, name), config.train)
for _ in range(2):
    harness.run_epoch(state, x, y, config.train, MixupConfig(alpha=0.2, enabled=True))
    harness.evaluate_entities(state.model, groups)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _blas_threads(_):
    get_threads = harness._openblas().scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


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
        report = harness.sweep(cfg, tiny_manifest, "patch_width", (32, 64))
        rows3 = [r for r in report.rows if r.task == "Task2_3class"]
        rows2 = [r for r in report.rows if r.task == "Task2_2class"]
        assert len(rows3) == 2 and len(rows2) == 2
        assert [(r.task, r.setting) for r in report.rows] == [
            ("Task2_3class", "32f"), ("Task2_3class", "64f"),
            ("Task2_2class", "32f"), ("Task2_2class", "64f"),
        ]
        for r in report.rows:
            assert r.frames in (32, 64)
            assert r.seconds == pytest.approx(r.frames * 256 / 16000)

    def test_each_sweep_point_builds_features_once(self, tiny_manifest, monkeypatch):
        build, calls, built, relabeled = harness.build_features, [], [], {}

        def spy(manifest, task, min_cycle_seconds, bank=None):
            calls.append((task, min_cycle_seconds))
            built.append(build(manifest, task, min_cycle_seconds, bank))
            return built[-1]

        def record_point(config, features, folds, fold_ids=None):
            relabeled[config.task, config.min_cycle_seconds, config.patch_width] = features
            return harness.CVResult(config, [], harness.Metrics(0.5, 0.5, 0.5, [], 0))

        monkeypatch.setattr(harness, "build_features", spy)
        monkeypatch.setattr(harness, "run_cv", record_point)
        monkeypatch.setattr(harness, "config_folds", lambda config, manifest: None)
        harness.sweep_cycle_length(desk_config(), tiny_manifest, lengths=(0.5, 0.7))
        assert calls == [("Task1_4class", 0.5), ("Task1_4class", 0.7)]
        for length, shared in zip((0.5, 0.7), built):
            expected = build(tiny_manifest, "Task1_2class", length)
            got = relabeled["Task1_2class", length, 32]
            assert got.keys() == expected.keys()
            for eid, feat in expected.items():
                assert got[eid].spec is shared[eid].spec
                np.testing.assert_array_equal(got[eid].spec, feat.spec)
                assert got[eid].label == feat.label
            assert {f.label for f in got.values()} == {0, 1}

        calls.clear()
        built.clear()
        harness.sweep(desk_config(task="Task2_3class"), tiny_manifest, "patch_width", (32, 64))
        assert len(calls) == 1
        for task in ("Task2_3class", "Task2_2class"):
            for width in (32, 64):
                got = relabeled[task, 0.5, width]
                assert got.keys() == built[0].keys()
                assert all(got[eid].spec is built[0][eid].spec for eid in got)

    def test_best_flag_tie_goes_to_smaller_setting(self):
        rows = [
            SweepRow("t", "2s", 2.0, None, 0.8, 0.8, 0.8),
            SweepRow("t", "3s", 3.0, None, 0.8, 0.8, 0.8),
            SweepRow("t", "4s", 4.0, None, 0.7, 0.7, 0.7),
        ]
        harness._flag_best(rows)
        assert [r.best for r in rows] == [True, False, False]
        descending = [
            SweepRow("t", "7s", 7.0, None, 0.8, 0.8, 0.8),
            SweepRow("t", "2s", 2.0, None, 0.8, 0.8, 0.8),
        ]
        harness._flag_best(descending)
        assert [r.best for r in descending] == [False, True]


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
