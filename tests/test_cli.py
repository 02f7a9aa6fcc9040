"""End-to-end command-line behavior: exit codes, artifacts, precedence."""

import os
import shutil

import numpy as np
import pytest

from respdl import harness, ingest
from respdl.cli import CONFIG_KEYS, build_parser, main
from respdl.errors import NumericalError

from conftest import write_raw_wav


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("clidata")
    assert run_cli("synth", "--out", str(d), "--classes", "4", "--n", "40") == 0
    return d


def train_run(cli_dataset, out, *flags):
    code = run_cli(
        "train",
        "--audio-dir", str(cli_dataset),
        "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
        "--task", "Task1_4class", "--model", "cnn_moe",
        "--min-cycle-seconds", "0.5", "--patch-width", "32",
        "--mixup", "false", "--gru-hidden", "64",
        "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--seed", "11",
        "--early-stop-acc", "0",
        "--out-dir", str(out), *flags,
    )
    assert code == 0
    runs = list(out.glob("run_*"))
    assert len(runs) == 1
    return runs[0]


@pytest.fixture(scope="module")
def trained_run(cli_dataset, tmp_path_factory):
    return train_run(cli_dataset, tmp_path_factory.mktemp("clirun"), "--fold", "0")


class TestSynth:
    def test_fixtures_on_disk(self, cli_dataset):
        wavs = sorted(cli_dataset.glob("*.wav"))
        texts = sorted(cli_dataset.glob("*.txt"))
        assert len(wavs) == 40
        assert len(texts) == 40
        assert (cli_dataset / "diagnosis.csv").exists()

    def test_reingestion_counts(self, cli_dataset):
        manifest = ingest.build_manifest(
            cli_dataset, cli_dataset / "diagnosis.csv", "Task1_4class"
        )
        assert len(manifest.records) == 40
        assert manifest.total_cycles == 40
        assert manifest.class_counts() == {
            "Normal": 10, "Crackle": 10, "Wheeze": 10, "Both": 10,
        }
        assert manifest.rejects == []

    def test_two_class_mode(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "d2"), "--classes", "2",
                       "--n", "8") == 0
        manifest = ingest.build_manifest(
            tmp_path / "d2", tmp_path / "d2" / "diagnosis.csv", "Task1_2class"
        )
        counts = manifest.class_counts()
        assert counts["Normal"] == 4 and counts["Crackle"] == 4


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_args_is_usage_error(self):
        assert run_cli() == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        assert run_cli("train", "--config", str(cfg)) == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_missing_audio_dir_is_usage_error(self):
        assert run_cli("train", "--epochs", "1") == 1

    def test_nonexistent_data_is_data_error(self, tmp_path):
        missing = tmp_path / "nothere"
        assert run_cli(
            "train", "--audio-dir", str(missing), "--epochs", "1"
        ) == 2

    def test_too_few_entities_is_data_error(self, tmp_path):
        ingest.write_wav(tmp_path / "101_x.wav", np.zeros(2000), 16000)
        (tmp_path / "101_x.txt").write_text("0.0 0.1 0 0\n")
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        code = run_cli("ingest", "--audio-dir", str(tmp_path),
                       "--diagnosis", str(diag), "--out", str(tmp_path / "out"))
        assert code == 2  # stratification over 1 entity cannot fill 5 folds

    def test_bad_wav_body_is_data_error_at_feature_time(self, tmp_path):
        (tmp_path / "101_x.wav").write_bytes(b"not a wav at all")
        (tmp_path / "101_x.txt").write_text("0.0 1.0 0 0\n")
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        code = run_cli("features", "--audio-dir", str(tmp_path),
                       "--diagnosis", str(diag), "--out", str(tmp_path / "cache"))
        assert code == 2

    def test_empty_wav_in_task2_features_is_data_error(self, tmp_path):
        write_raw_wav(tmp_path / "101_x.wav", 1, 16, 1, 8000, b"")
        (tmp_path / "101_x.txt").write_text("0.0 1.0 0 0\n")
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        code = run_cli("features", "--audio-dir", str(tmp_path), "--diagnosis", str(diag),
                       "--task", "Task2_3class", "--out", str(tmp_path / "cache"))
        assert code == 2

    def test_predict_on_garbage_checkpoint_is_data_error(self, tmp_path):
        ckpt = tmp_path / "fake.rsdl"
        ckpt.write_bytes(b"garbage")
        wav = tmp_path / "x.wav"
        ingest.write_wav(wav, np.zeros(2000), 16000)
        assert run_cli("predict", "--model", str(ckpt), "--wav", str(wav)) == 2


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path, cli_dataset):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            f"audio_dir={cli_dataset}\n"
            f"diagnosis_file={cli_dataset / 'diagnosis.csv'}\n"
            "epochs=2\n"
            "batch_size=8\n"
            "lr=1e-3\n"
            "patch_width=32\n"
            "min_cycle_seconds=0.5\n"
            "mixup=false\n"
            "gru_hidden=64\n"
            "early_stop_acc=0\n"
            f"out_dir={tmp_path / 'runs'}\n"
        )
        code = run_cli("train", "--config", str(cfg), "--epochs", "1", "--fold", "0")
        assert code == 0
        run_dirs = list((tmp_path / "runs").glob("run_*"))
        assert len(run_dirs) == 1
        echoed = (run_dirs[0] / "config.txt").read_text()
        assert "epochs=1" in echoed       # flag wins
        assert "batch_size=8" in echoed   # file wins over default 50
        assert "k=5" in echoed            # default survives

    def test_help_lists_every_config_key(self):
        parser = build_parser()
        # grab the train subparser help text via the subparsers action
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        help_text = sub.choices["train"].format_help()
        for key in CONFIG_KEYS:
            assert f"--{key.replace('_', '-')}" in help_text, key

    def test_no_undocumented_train_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        allowed = {f"--{k.replace('_', '-')}" for k in CONFIG_KEYS}
        allowed |= {"--config", "--fold", "--help", "-h"}
        for action in sub.choices["train"]._actions:
            for opt in action.option_strings:
                assert opt in allowed, opt


class TestGradcheckCommand:
    def test_pass_exit_zero(self, monkeypatch, capsys):
        import respdl.cli as cli

        monkeypatch.setattr(cli, "standard_suite",
                            lambda: [("dense", 1e-10, 1e-8), ("conv", 1e-6, 1e-4)])
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_failure_exit_three(self, monkeypatch, capsys):
        import respdl.cli as cli

        monkeypatch.setattr(cli, "standard_suite",
                            lambda: [("dense", 1e-10, 1e-8), ("gru", 0.5, 1e-4)])
        assert run_cli("gradcheck") == 3
        assert "FAIL" in capsys.readouterr().out


class TestTrainArtifacts:
    def test_run_directory_contents(self, trained_run):
        names = {p.name for p in trained_run.iterdir()}
        assert "config.txt" in names
        assert "report.csv" in names
        assert "manifest.txt" in names
        assert "folds.csv" in names
        assert "history_cnn_moe_fold0.csv" in names
        assert "ckpt_cnn_moe_fold0.rsdl" in names
        assert "ckpt_cnn_moe_fold0.card.txt" in names

    def test_report_structure_single_fold(self, trained_run):
        lines = (trained_run / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "task,setting,fold,specificity,sensitivity,icbhi_score"
        assert len(lines) == 3  # header + fold 0 + mean
        assert lines[1].split(",")[2] == "0"
        assert lines[2].split(",")[2] == "mean"

    def test_history_rows_match_epochs(self, trained_run):
        lines = (trained_run / "history_cnn_moe_fold0.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    def test_echoed_config_reproduces_run(self, trained_run, tmp_path):
        code = run_cli("train", "--config", str(trained_run / "config.txt"),
                       "--out-dir", str(tmp_path / "rerun"), "--fold", "0")
        assert code == 0
        rerun = next((tmp_path / "rerun").glob("run_*"))
        assert (rerun / "report.csv").read_bytes() == \
            (trained_run / "report.csv").read_bytes()


class TestEvalAndPredict:
    def test_eval_checkpoint(self, trained_run, cli_dataset, capsys):
        code = run_cli(
            "eval", "--checkpoint", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
            "--audio-dir", str(cli_dataset),
            "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
            "--min-cycle-seconds", "0.5", "--fold", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def _eval(self, trained_run, cli_dataset, *flags):
        return run_cli(
            "eval", "--checkpoint", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
            "--audio-dir", str(cli_dataset),
            "--diagnosis-file", str(cli_dataset / "diagnosis.csv"), "--fold", "0", *flags,
        )

    def test_eval_takes_min_cycle_seconds_from_checkpoint(self, trained_run, cli_dataset,
                                                          capsys, monkeypatch):
        assert self._eval(trained_run, cli_dataset, "--min-cycle-seconds", "0.5") == 0
        with_flag = capsys.readouterr().out
        build, lengths = harness.build_features, []

        def spy(manifest, task, min_cycle_seconds, bank=None):
            lengths.append(min_cycle_seconds)
            return build(manifest, task, min_cycle_seconds, bank)

        monkeypatch.setattr(harness, "build_features", spy)
        assert self._eval(trained_run, cli_dataset) == 0
        assert capsys.readouterr().out == with_flag
        assert lengths == [0.5]

    @pytest.mark.parametrize("flag,value", [("--min-cycle-seconds", "6"),
                                            ("--patch-width", "64"),
                                            ("--task", "Task1_2class"),
                                            ("--k", "4"),
                                            ("--fold-seed", "8"),
                                            ("--epochs", "3"),
                                            ("--fold", "1")])
    def test_eval_flag_conflicting_with_checkpoint_is_usage_error(self, trained_run,
                                                                  cli_dataset, flag, value,
                                                                  capsys):
        assert self._eval(trained_run, cli_dataset, flag, value) == 1
        assert flag in capsys.readouterr().err

    def test_eval_data_paths_override_checkpoint(self, trained_run, cli_dataset, tmp_path,
                                                 capsys):
        assert self._eval(trained_run, cli_dataset) == 0
        expected = capsys.readouterr().out
        moved = tmp_path / "moved"
        shutil.copytree(cli_dataset, moved)
        assert self._eval(trained_run, moved) == 0
        assert capsys.readouterr().out == expected
        assert self._eval(trained_run, tmp_path / "nothere") == 2

    def test_eval_uses_checkpoint_fold_split(self, cli_dataset, tmp_path, capsys):
        run = train_run(cli_dataset, tmp_path, "--k", "4", "--fold-seed", "3", "--fold", "2")
        row = (run / "report.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "2"
        spec, sen, score = (float(v) for v in row[3:6])
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(run / "ckpt_cnn_moe_fold2.rsdl")) == 0
        assert capsys.readouterr().out == \
            f"fold 2: spec={spec:.4f} sen={sen:.4f} score={score:.4f}\n"

    def test_corrupt_checkpoint_is_data_error(self, trained_run, cli_dataset, tmp_path,
                                              capsys):
        data = (trained_run / "ckpt_cnn_moe_fold0.rsdl").read_bytes()
        rng = np.random.default_rng(17)
        blobs = [data[:n] for n in (9, 40, len(data) - 3, *rng.integers(0, len(data), 3))]
        for i in rng.integers(0, len(data), 6):
            flipped = bytearray(data)
            flipped[i] ^= 1 << int(rng.integers(8))
            blobs.append(bytes(flipped))
        bad = tmp_path / "bad.rsdl"
        wav = sorted(cli_dataset.glob("*.wav"))[0]
        for blob in blobs:
            bad.write_bytes(blob)
            assert run_cli("predict", "--model", str(bad), "--wav", str(wav)) == 2
            assert run_cli("eval", "--checkpoint", str(bad)) == 2
            err = capsys.readouterr().err
            assert err.count("data error:") == 2 and "Traceback" not in err

    def test_predict_matches_training_front_end(self, trained_run, tmp_path, capsys):
        # one 16 kHz recording whose single cycle spans the whole file; at
        # 0.3 s it is also duplicated up to the checkpoint's 0.5 s minimum
        wav = tmp_path / "103_a.wav"
        samples = 0.1 * np.random.default_rng(5).standard_normal(4800)
        ingest.write_wav(wav, samples, 16000)
        (tmp_path / "103_a.txt").write_text("0.0 0.3 1 0\n")
        (tmp_path / "diag.csv").write_text("103,COPD\n")
        ckpt = trained_run / "ckpt_cnn_moe_fold0.rsdl"
        assert run_cli("predict", "--model", str(ckpt), "--wav", str(wav)) == 0
        printed = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]

        manifest = ingest.build_manifest(tmp_path, tmp_path / "diag.csv", "Task1_4class")
        (eid, feat), = harness.build_features(manifest, "Task1_4class", 0.5).items()
        loaded = harness.load_fold_checkpoint(ckpt)
        probs = harness.evaluate_entities(
            loaded.model, {eid: harness.normalized_patches(feat.spec, loaded.stats, 32)})[eid]
        np.testing.assert_allclose(printed, probs, rtol=0, atol=1e-6)

    def test_predict_on_recording_resampled_to_nothing_is_data_error(self, trained_run,
                                                                     tmp_path, capsys):
        wav = tmp_path / "x.wav"
        write_raw_wav(wav, 1, 16, 1, 44100, b"\x10\x00")  # resamples to 0 samples
        code = run_cli("predict", "--model", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
                       "--wav", str(wav))
        assert code == 2
        assert "x.wav" in capsys.readouterr().err

    def test_predict_prints_simplex_csv(self, trained_run, cli_dataset, capsys):
        wav = sorted(cli_dataset.glob("*.wav"))[0]
        code = run_cli("predict", "--model",
                       str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
                       "--wav", str(wav))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "Normal,Crackle,Wheeze,Both"
        probs = [float(v) for v in lines[1].split(",")]
        assert len(probs) == 4
        assert sum(probs) == pytest.approx(1.0, abs=1e-4)
        assert all(p >= 0 for p in probs)


    # a data chunk with half a sample, and one with none
    @pytest.mark.parametrize("payload", [b"\x00" * 2001, b""], ids=["odd", "empty"])
    def test_predict_on_bad_data_chunk_is_data_error(self, trained_run, tmp_path,
                                                      payload, capsys):
        wav = tmp_path / "x.wav"
        write_raw_wav(wav, 1, 16, 1, 8000, payload)
        code = run_cli("predict", "--model", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
                       "--wav", str(wav))
        assert code == 2
        assert "x.wav" in capsys.readouterr().err


    def test_nan_abort_checkpoint_is_readable(self, cli_dataset, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("non-finite values in predictions")

        monkeypatch.setattr(harness, "train_loop", explode)
        code = run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--min-cycle-seconds", "0.5", "--patch-width", "32",
                       "--out-dir", str(tmp_path), "--fold", "1")
        assert code == 3
        aborted = next(tmp_path.glob("run_*/ckpt_cnn_moe_fold1.aborted.rsdl"))
        ckpt = harness.load_fold_checkpoint(aborted)
        assert (ckpt.fold_id, ckpt.config.patch_width) == (1, 32)


class TestFeaturesCommand:
    def test_cache_written_with_index(self, cli_dataset, tmp_path):
        out = tmp_path / "cache"
        code = run_cli("features", "--audio-dir", str(cli_dataset),
                       "--diagnosis", str(cli_dataset / "diagnosis.csv"),
                       "--min-cycle-seconds", "0.5", "--out", str(out))
        assert code == 0
        from respdl import dsp

        rows = dsp.read_feature_index(out / "index.csv")
        assert len(rows) == 40
        eid, path, r, c, label = rows[0]
        values = dsp.read_feature(path)
        assert values.shape == (r, c) == (64, 32)

    def test_env_var_cache_root(self, cli_dataset, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("RESPDL_CACHE", str(cache))
        monkeypatch.chdir(tmp_path)
        code = run_cli("features", "--audio-dir", str(cli_dataset),
                       "--diagnosis", str(cli_dataset / "diagnosis.csv"),
                       "--min-cycle-seconds", "0.5")
        assert code == 0
        assert (cache / "index.csv").exists()


class TestIngestCommand:
    def test_outputs(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "ing"
        code = run_cli("ingest", "--audio-dir", str(cli_dataset),
                       "--diagnosis", str(cli_dataset / "diagnosis.csv"),
                       "--out", str(out))
        assert code == 0
        assert (out / "manifest.txt").exists()
        assert (out / "rejects.csv").exists()
        folds = ingest.load_folds(out / "folds.csv")
        assert folds.k == 5
        assert len(folds.assignment) == 40
        assert "cycles=40" in capsys.readouterr().out
