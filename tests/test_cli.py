"""End-to-end command-line behavior: exit codes, artifacts, precedence."""

import shutil

import numpy as np
import pytest

from respdl import dsp, harness, ingest
from respdl.cli import CONFIG_KEYS, build_parser, main
from respdl.errors import NumericalError
from respdl.nn import load_checkpoint, save_checkpoint

from conftest import write_raw_wav


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("clidata")
    assert run_cli("synth", "--out", str(d), "--classes", "4", "--n", "40") == 0
    return d


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


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

    @pytest.mark.parametrize("argv", [["train", "--epoch", "0"],
                                      ["eval", "--checkpoint", "C", "--diag", "X"]])
    def test_prefix_of_an_option_is_usage_error(self, argv, capsys):
        # no option is taken by a prefix of its name (--epochs, --diagnosis-file)
        assert run_cli(*argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_missing_audio_dir_is_usage_error(self):
        assert run_cli("train", "--epochs", "1") == 1

    def test_nonexistent_data_is_data_error(self, tmp_path):
        missing = tmp_path / "nothere"
        assert run_cli(
            "train", "--audio-dir", str(missing), "--epochs", "1"
        ) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--k", "1"),
        ("--gru-hidden", "0"),
    ])
    def test_bad_config_value_is_usage_error_before_any_run(self, cli_dataset, tmp_path,
                                                            capsys, flag, value):
        code = run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--early-stop-acc", "0.1",
                       "--out-dir", str(tmp_path), "--fold", "0", flag, value)
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    def test_retired_key_is_unknown_before_any_run(self, cli_dataset, tmp_path, capsys):
        # Adam's betas and eps, the mixup alpha, the expert count and the
        # early-stop patience are constants, not config keys
        data = ["--audio-dir", str(cli_dataset),
                "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                "--out-dir", str(tmp_path), "--fold", "0"]
        assert run_cli("train", *data, "--beta1", "0.5") == 1
        assert run_cli("train", *data, "--early-stop-patience", "4") == 1
        assert not list(tmp_path.glob("run_*"))
        cfg = tmp_path / "old.cfg"
        cfg.write_text("epochs=1\nmoe_experts=4\n")
        capsys.readouterr()
        assert run_cli("train", *data, "--config", str(cfg)) == 1
        assert "moe_experts" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--min-cycle-seconds", "nan"),
        ("train", "--min-cycle-seconds", "inf"),
        ("train", "--min-cycle-seconds", "0"),
        ("ingest", "--fold-seed", "-1"),
        ("train", "--seed", "-1"),
        ("train", "--lr", "nan"),
        ("train", "--l2-lambda", "nan"),
        ("train", "--early-stop-acc", "nan"),
    ])
    def test_bad_number_is_usage_error(self, cli_dataset, tmp_path, capsys,
                                       command, flag, value):
        code = run_cli(command, "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--out-dir", str(tmp_path), flag, value)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert flag[2:].replace("-", "_") in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("flags", [("--k", "2", "--fold", "5"), ("--fold", "5"),
                                       ("--fold", "-1")], ids=["k2-fold5", "fold5", "fold-1"])
    def test_fold_outside_k_is_usage_error_before_any_run(self, cli_dataset, tmp_path, capsys,
                                                          flags):
        code = run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--out-dir", str(tmp_path), *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --fold") and "Traceback" not in err
        assert not list(tmp_path.glob("run_*"))

    # each makes its bad input under tmp_path and returns the command's arguments
    UNREADABLE = {
        "config-dir": lambda data, tmp: ["train", "--config", str(tmp)],
        "config-non-utf8": lambda data, tmp: [
            "train", "--config", str(_write_bytes(tmp / "bad.cfg", b"epochs=1 # \xff\n"))],
        "diagnosis-dir": lambda data, tmp: [
            "train", "--audio-dir", str(data), "--diagnosis-file", str(tmp)],
        "diagnosis-non-utf8": lambda data, tmp: [
            "train", "--audio-dir", str(data),
            "--diagnosis-file", str(_write_bytes(tmp / "diag.csv", b"101,Healthy\xff\n"))],
        "eval-checkpoint-dir": lambda data, tmp: ["eval", "--checkpoint", str(tmp)],
    }

    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_unreadable_input_is_data_error(self, cli_dataset, tmp_path, capsys, case):
        argv = self.UNREADABLE[case](cli_dataset, tmp_path)
        if argv[0] == "train":  # eval takes no --out-dir: it writes no run directory
            argv += ["--out-dir", str(tmp_path / "runs")]
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and "Traceback" not in err
        assert not list(tmp_path.glob("runs/run_*"))

    @pytest.mark.parametrize("flag,name,body,problem", [
        ("--config", "bad.cfg", b"epochs=1\nlr=1e-3 # \xff\n", "byte 0xff is not UTF-8"),
        ("--diagnosis-file", "diag.csv", b"101,Healthy\n102,Healthy\xff\n",
         "byte 0xff is not UTF-8"),
        ("--config", "bad.cfg", b"epochs=1\nlr\n", "expected key=value"),
        ("--diagnosis-file", "diag.csv", b"101,Healthy\n102,Flu\n", "unknown diagnosis"),
    ], ids=["config-non-utf8", "diagnosis-non-utf8", "config-syntax", "diagnosis-unknown"])
    def test_bad_text_file_is_named_with_its_line(self, cli_dataset, tmp_path, capsys,
                                                  flag, name, body, problem):
        bad = _write_bytes(tmp_path / name, body)
        code = run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--out-dir", str(tmp_path / "runs"), flag, str(bad))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {bad}: line 2: {problem}")

    def test_too_few_entities_is_data_error(self, tmp_path):
        ingest.write_wav(tmp_path / "101_x.wav", np.zeros(2000), 16000)
        (tmp_path / "101_x.txt").write_text("0.0 0.1 0 0\n")
        diag = tmp_path / "diag.csv"
        diag.write_text("101,Healthy\n")
        code = run_cli("ingest", "--audio-dir", str(tmp_path),
                       "--diagnosis-file", str(diag), "--out-dir", str(tmp_path / "out"))
        assert code == 2  # stratification over 1 entity cannot fill 5 folds

    @staticmethod
    def _train_one_recording(data_dir, *flags):
        (data_dir / "101_x.txt").write_text("0.0 1.0 0 0\n")
        diag = data_dir / "diag.csv"
        diag.write_text("101,Healthy\n")
        return run_cli("train", "--audio-dir", str(data_dir), "--diagnosis-file", str(diag),
                       "--out-dir", str(data_dir / "runs"), *flags)

    # train decodes every WAV in build_features before make_folds, whose
    # stratification error (one entity, five folds) would also exit 2; the
    # WAV's name in the message shows the decode error came first
    def test_bad_wav_body_is_data_error_at_feature_time(self, tmp_path, capsys):
        (tmp_path / "101_x.wav").write_bytes(b"not a wav at all")
        assert self._train_one_recording(tmp_path) == 2
        assert "101_x.wav" in capsys.readouterr().err

    def test_empty_wav_in_task2_features_is_data_error(self, tmp_path, capsys):
        write_raw_wav(tmp_path / "101_x.wav", 1, 16, 1, 8000, b"")
        assert self._train_one_recording(tmp_path, "--task", "Task2_3class") == 2
        assert "101_x.wav" in capsys.readouterr().err

    def test_features_subcommand_is_gone(self, tmp_path, capsys):
        assert run_cli("features", "--audio-dir", str(tmp_path),
                       "--diagnosis", str(tmp_path / "diag.csv")) == 1
        assert "invalid choice: 'features'" in capsys.readouterr().err

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

    def test_no_undocumented_eval_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        options = {opt for action in sub.choices["eval"]._actions
                   for opt in action.option_strings}
        assert options == {"--checkpoint", "--audio-dir", "--diagnosis-file", "-h", "--help"}


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


    def test_patient_independent_folds_keep_each_patient_whole(self, cli_dataset,
                                                               trained_run, tmp_path):
        manifest = ingest.build_manifest(cli_dataset, cli_dataset / "diagnosis.csv",
                                         "Task1_4class")
        patient = {eid: pid for eid, _, pid in manifest.entities("Task1_4class")}

        def folds_per_patient(run):
            folds = {}
            for eid, fold in (line.split(",") for line in (run / "folds.csv").read_text().split()):
                folds.setdefault(patient[eid], set()).add(fold)
            return folds

        run = train_run(cli_dataset, tmp_path, "--patient-independent", "true",
                        "--fold", "0", "--epochs", "1")
        assert all(len(folds) == 1 for folds in folds_per_patient(run).values())
        # the default, class-stratified split does divide patients
        assert any(len(folds) > 1 for folds in folds_per_patient(trained_run).values())


class TestEvalAndPredict:
    def test_eval_checkpoint(self, trained_run, cli_dataset, capsys):
        code = run_cli(
            "eval", "--checkpoint", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
            "--audio-dir", str(cli_dataset),
            "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score=" in out

    def _eval(self, trained_run, cli_dataset, *flags):
        return run_cli(
            "eval", "--checkpoint", str(trained_run / "ckpt_cnn_moe_fold0.rsdl"),
            "--audio-dir", str(cli_dataset),
            "--diagnosis-file", str(cli_dataset / "diagnosis.csv"), *flags,
        )

    def test_eval_takes_min_cycle_seconds_from_checkpoint(self, trained_run, cli_dataset,
                                                          capsys, monkeypatch):
        # trained at 0.5 s, not the 6 s default
        row = (trained_run / "report.csv").read_text().splitlines()[1].split(",")
        spec, sen, score = (float(v) for v in row[3:6])
        build, lengths = harness.build_features, []

        def spy(manifest, task, min_cycle_seconds, bank=None, entity_ids=None):
            lengths.append(min_cycle_seconds)
            return build(manifest, task, min_cycle_seconds, bank, entity_ids)

        monkeypatch.setattr(harness, "build_features", spy)
        capsys.readouterr()
        assert self._eval(trained_run, cli_dataset) == 0
        assert capsys.readouterr().out == \
            f"fold 0: spec={spec:.4f} sen={sen:.4f} score={score:.4f}\n"
        assert lengths == [0.5]

    # eval takes no config flag, not even one that matches the checkpoint
    @pytest.mark.parametrize("flag,value", [("--min-cycle-seconds", "6"),
                                            ("--patch-width", "64"),
                                            ("--task", "Task1_2class"),
                                            ("--k", "4"),
                                            ("--fold-seed", "8"),
                                            ("--epochs", "3"),
                                            ("--fold", "1"),
                                            ("--min-cycle-seconds", "0.5"),
                                            ("--fold", "0"),
                                            ("--config", "RUN/config.txt")])
    def test_eval_flag_conflicting_with_checkpoint_is_usage_error(self, trained_run,
                                                                  cli_dataset, flag, value,
                                                                  capsys):
        value = value.replace("RUN", str(trained_run))
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

    def test_eval_execution_flags_are_usage_errors(self, trained_run, cli_dataset, tmp_path,
                                                   capsys):
        for flags in (["--jobs", "3"], ["--out-dir", str(tmp_path / "other")]):
            assert self._eval(trained_run, cli_dataset, *flags) == 1
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "other").exists()

    def test_eval_from_another_directory(self, cli_dataset, tmp_path, monkeypatch, capsys):
        # trained with relative data paths; the checkpoint stores them resolved
        shutil.copytree(cli_dataset, tmp_path / "data")
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--audio-dir", "data", "--diagnosis-file", "data/diagnosis.csv",
                       "--min-cycle-seconds", "0.5", "--patch-width", "32", "--mixup", "false",
                       "--epochs", "1", "--batch-size", "8", "--lr", "1e-3",
                       "--out-dir", "runs", "--fold", "0") == 0
        run = next((tmp_path / "runs").glob("run_*"))
        assert f"audio_dir={tmp_path / 'data'}\n" in (run / "config.txt").read_text()
        row = (run / "report.csv").read_text().splitlines()[1].split(",")
        spec, sen, score = (float(v) for v in row[3:6])
        capsys.readouterr()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run_cli("eval", "--checkpoint", str(run / "ckpt_cnn_moe_fold0.rsdl")) == 0
        assert capsys.readouterr().out == \
            f"fold 0: spec={spec:.4f} sen={sen:.4f} score={score:.4f}\n"

    def test_eval_featurizes_only_the_heldout_fold(self, trained_run, capsys, monkeypatch):
        row = (trained_run / "report.csv").read_text().splitlines()[1].split(",")
        spec, sen, score = (float(v) for v in row[3:6])
        heldout = {eid for eid, fold in (line.split(",") for line in
                   (trained_run / "folds.csv").read_text().split()) if fold == "0"}
        counts = {"load_recording": [], "entity_spectrogram": []}
        for name, calls in counts.items():
            def counted(*args, _fn=getattr(harness, name), _calls=calls):
                _calls.append(args[-1])
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(trained_run / "ckpt_cnn_moe_fold0.rsdl")) == 0
        assert capsys.readouterr().out == \
            f"fold 0: spec={spec:.4f} sen={sen:.4f} score={score:.4f}\n"
        # one cycle per recording: one decode and one spectrogram per held-out entity
        assert len(heldout) == 8
        assert sorted(counts["entity_spectrogram"]) == sorted(heldout)
        assert len(counts["load_recording"]) == len(heldout)

    def test_eval_of_fold_outside_the_split_is_data_error(self, trained_run, tmp_path, capsys):
        header, arrays = load_checkpoint(trained_run / "ckpt_cnn_moe_fold0.rsdl")
        bad = tmp_path / "fold9.rsdl"
        save_checkpoint(bad, header.replace("\nfold=0\n", "\nfold=9\n"), arrays)
        assert run_cli("eval", "--checkpoint", str(bad)) == 2
        err = capsys.readouterr().err
        assert "fold 9" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("name,shape", [
        ("block2.bn_in.running_mean", (7,)),  # the model expects (64,)
        ("moe.gate.W", None),
        ("moe.gate.W", (3, 4)),
    ], ids=["misshaped-buffer", "missing-param", "misshaped-param"])
    def test_predict_on_bad_checkpoint_entry_is_data_error(self, trained_run, cli_dataset,
                                                           tmp_path, name, shape, capsys):
        header, arrays = load_checkpoint(trained_run / "ckpt_cnn_moe_fold0.rsdl")
        if shape is None:
            del arrays[name]
        else:
            arrays[name] = np.zeros(shape, dtype=np.float32)
        bad = tmp_path / "bad.rsdl"
        save_checkpoint(bad, header, arrays)
        wav = sorted(cli_dataset.glob("*.wav"))[0]
        assert run_cli("predict", "--model", str(bad), "--wav", str(wav)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err and "Traceback" not in err

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

    def test_clean_rerun_deletes_the_aborted_checkpoint(self, cli_dataset, tmp_path,
                                                        monkeypatch, capsys):
        argv = ("train", "--audio-dir", str(cli_dataset),
                "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                "--min-cycle-seconds", "0.5", "--patch-width", "32", "--mixup", "false",
                "--epochs", "1", "--batch-size", "8", "--lr", "1e-3",
                "--out-dir", str(tmp_path), "--fold", "1")

        def explode(*args, **kwargs):
            raise NumericalError("non-finite values in predictions")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "train_loop", explode)
            assert run_cli(*argv) == 3
        aborted, = tmp_path.glob("run_*/ckpt_*.aborted.rsdl")
        assert f"saved to {aborted}\n" in capsys.readouterr().err
        assert run_cli(*argv) == 0
        assert not aborted.exists()
        assert (aborted.parent / "ckpt_cnn_moe_fold1.rsdl").exists()

    def test_nan_abort_in_pooled_member_checkpoint_is_readable(self, cli_dataset, tmp_path,
                                                               monkeypatch, capsys):
        def explode(model, *args, **kwargs):
            if model.name == "crnn":
                raise NumericalError("non-finite values in predictions")
            return [(1, 1.0, 0.5)], [0.5]

        monkeypatch.setattr(harness, "train_loop", explode)
        code = run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--model", "ensemble", "--k", "2", "--jobs", "2",
                       "--min-cycle-seconds", "0.5", "--patch-width", "32", "--gru-hidden", "64",
                       "--out-dir", str(tmp_path))
        assert code == 3
        assert "NaN abort; last good checkpoint saved to" in capsys.readouterr().err
        aborted, = tmp_path.glob("run_*/ckpt_*.aborted.rsdl")
        assert aborted.name == "ckpt_crnn_fold0.aborted.rsdl"
        ckpt = harness.load_fold_checkpoint(aborted)
        assert (ckpt.fold_id, ckpt.model.name, ckpt.config.model) == (0, "crnn", "ensemble")
        features = harness.build_features(
            ingest.build_manifest(cli_dataset, cli_dataset / "diagnosis.csv", "Task1_4class"),
            "Task1_4class", 0.5)
        folds = dict(line.split(",") for line in
                     (aborted.parent / "folds.csv").read_text().split())
        train_ids = sorted(eid for eid, fold in folds.items() if fold != "0")
        assert ckpt.stats == dsp.fit_norm_stats([features[e].spec for e in train_ids])


class TestSweepCommands:
    DESK_FLAGS = ("--min-cycle-seconds", "0.5", "--patch-width", "32", "--gru-hidden", "64",
                  "--mixup", "false", "--epochs", "1", "--batch-size", "8", "--lr", "1e-3")

    @pytest.mark.parametrize("command,values,csv,tasks", [
        ("sweep-cycle", ("--lengths", "0.5,0.7"), "sweep_cycle.csv",
         ("Task1_4class", "Task1_2class")),
        ("sweep-timeres", ("--widths", "32,64"), "sweep_timeres.csv",
         ("Task2_3class", "Task2_2class")),
    ], ids=["sweep-cycle", "sweep-timeres"])
    def test_writes_sweep_csv(self, cli_dataset, tmp_path, command, values, csv, tasks, capsys):
        assert run_cli(command, "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       *self.DESK_FLAGS, "--out-dir", str(tmp_path), *values) == 0
        run, = tmp_path.glob("run_*")
        lines = (run / csv).read_text().splitlines()
        assert lines[0] == "task,setting,seconds,frames,specificity,sensitivity,icbhi_score,best"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [tasks[0]] * 2 + [tasks[1]] * 2
        for task in tasks:
            assert sum(row[7] == "1" for row in rows if row[0] == task) == 1
        assert capsys.readouterr().out == "\n".join(lines) + "\n\n"
        # train reproduces a sweep row: the first sub-task at the first value
        # (the desk flags' own), on the fold a sweep scores
        assert run_cli("train", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       *self.DESK_FLAGS, "--out-dir", str(tmp_path / "train"),
                       "--fold", "0", "--task", tasks[0]) == 0
        trained, = (tmp_path / "train").glob("run_*")
        fold0 = (trained / "report.csv").read_text().splitlines()[1].split(",")
        assert fold0[:3] == [tasks[0], rows[0][1], "0"]
        assert fold0[3:6] == rows[0][4:7]

    @pytest.mark.parametrize("command,values", [
        ("sweep-cycle", ("--lengths", "0.5,abc")),
        ("sweep-timeres", ("--widths", "32.5")),
        ("sweep-cycle", ("--lengths", "nan")),
        ("sweep-cycle", ("--lengths", "0.5,inf")),
        ("sweep-cycle", ("--lengths", "0")),
        ("sweep-cycle", ("--lengths", "-2.0")),
        ("sweep-timeres", ("--widths", "-32")),
        ("sweep-timeres", ("--widths", "32,0")),
        ("sweep-timeres", ("--widths", "32,50")),
        ("sweep-timeres", ("--widths", "48")),
    ], ids=["sweep-cycle", "sweep-timeres", "sweep-cycle-nan", "sweep-cycle-inf",
            "sweep-cycle-zero", "sweep-cycle-negative", "sweep-timeres-negative",
            "sweep-timeres-zero", "sweep-timeres-50", "sweep-timeres-48"])
    def test_bad_value_is_usage_error(self, tmp_path, command, values, capsys):
        # the audio directory does not exist: reading it would be a data error (2)
        assert run_cli(command, "--audio-dir", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "runs"), *values) == 1
        err = capsys.readouterr().err
        assert values[1] in err and "usage:" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["sweep-cycle", "sweep-timeres"])
    def test_empty_audio_dir_is_data_error(self, tmp_path, command, capsys):
        (tmp_path / "audio").mkdir()
        assert run_cli(command, "--audio-dir", str(tmp_path / "audio"),
                       "--out-dir", str(tmp_path / "runs")) == 2
        assert "no usable recordings" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestIngestCommand:
    def test_outputs(self, cli_dataset, tmp_path, capsys):
        code = run_cli("ingest", "--audio-dir", str(cli_dataset),
                       "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                       "--out-dir", str(tmp_path / "ing"))
        assert code == 0
        out, = (tmp_path / "ing").glob("run_*")
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[:2] == [f"#root {cli_dataset}", "#task Task1_4class"]
        assert len(manifest) == 2 + 40
        assert (out / "rejects.csv").exists()
        folds = [line.rpartition(",") for line in (out / "folds.csv").read_text().splitlines()]
        assert len(folds) == 40
        assert {fold for _, _, fold in folds} == {"0", "1", "2", "3", "4"}
        assert "cycles=40" in capsys.readouterr().out

    def test_ingest_and_train_write_the_same_manifest_and_folds(self, cli_dataset, tmp_path):
        flags = ("--audio-dir", str(cli_dataset),
                 "--diagnosis-file", str(cli_dataset / "diagnosis.csv"),
                 "--min-cycle-seconds", "0.5", "--patch-width", "32", "--mixup", "false",
                 "--epochs", "1", "--batch-size", "8", "--lr", "1e-3",
                 "--patient-independent", "true", "--k", "4", "--fold-seed", "3")
        assert run_cli("ingest", *flags, "--out-dir", str(tmp_path / "ingest")) == 0
        assert run_cli("train", *flags, "--out-dir", str(tmp_path / "train"), "--fold", "0") == 0
        ingested, = (tmp_path / "ingest").glob("run_*")
        trained = tmp_path / "train" / ingested.name  # out_dir is not part of the run hash
        for name in ("manifest.txt", "folds.csv", "config.txt"):
            assert (ingested / name).read_bytes() == (trained / name).read_bytes()

    def test_a_cycle_beyond_the_audio_stays_in_both_folds_files(self, cli_dataset, tmp_path,
                                                                 caplog):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        with open(data / "100_syn000.txt", "a") as f:
            f.write("9.0 9.5 0 0\n")  # onset past the end of the recording
        flags = ("--audio-dir", str(data), "--diagnosis-file", str(data / "diagnosis.csv"),
                 "--min-cycle-seconds", "0.5", "--patch-width", "32", "--mixup", "false",
                 "--epochs", "1", "--batch-size", "8", "--lr", "1e-3")
        assert run_cli("ingest", *flags, "--out-dir", str(tmp_path / "ingest")) == 0
        assert run_cli("train", *flags, "--out-dir", str(tmp_path / "train"), "--fold", "0") == 0
        assert "100_syn000_c01: onset 9.00s beyond end of audio, skipped" in caplog.text
        ingested, = (tmp_path / "ingest").glob("run_*")
        folds = (ingested / "folds.csv").read_bytes()
        assert b"100_syn000_c01," in folds
        assert (tmp_path / "train" / ingested.name / "folds.csv").read_bytes() == folds
