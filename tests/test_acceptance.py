"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The final criterion (full ICBHI reproduction) needs
the real dataset and hours of compute; it is skipped unless RESPDL_ICBHI_DIR
points at the extracted archive.
"""

import os
import time

import numpy as np
import pytest

from respdl import dsp, harness, ingest, models
from respdl.augment import MixupConfig, duplicate_to_min
from respdl.cli import main as cli_main
from respdl.harness import compute_metrics
from respdl.nn import TrainConfig, cross_entropy, l2_penalty, softmax, Param
from respdl.nn.gradcheck import standard_suite

from conftest import desk_config, forward_shapes


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


class TestAcceptance:
    def test_gradient_correctness(self):
        t0 = time.perf_counter()
        rows = standard_suite()
        elapsed = time.perf_counter() - t0
        worst = {name: (err, tol) for name, err, tol in rows}
        ok = all(err < tol for err, tol in worst.values()) and elapsed < 120
        detail = f"{len(rows)} checks, worst={max(e for e, _ in worst.values()):.2e}, {elapsed:.0f}s"
        report("gradient correctness", ok, detail)

    def test_shape_conformance(self):
        cnn = models.CNNMoE(n_classes=4, patch_width=128, seed=0)
        crnn = models.CRNN(n_classes=4, patch_width=128, gru_hidden=512, seed=0)
        ok_cnn = forward_shapes(cnn) == (
            (32, 64, 64), (16, 32, 128), (16, 32, 256),
            (8, 16, 256), (8, 16, 512), (512,), (4,),
        )
        ok_crnn = forward_shapes(crnn) == (
            (32, 128, 64), (16, 128, 128), (4, 128, 256),
            (128, 512), (256, 512), (256,), (1024,), (1024,), (4,),
        )
        report("shape conformance", ok_cnn and ok_crnn)

    def test_moe_output_semantics(self, rng):
        tol = 1e-9
        # single expert: gate weight is 1, output = softmax(expert)
        layer = models.MoELayer(6, 3, 1, rng, dtype=np.float64)
        x = rng.standard_normal((5, 6))
        probs = softmax(layer.forward(x))
        e = np.maximum(
            np.einsum("bi,jin->bjn", x, layer.expert_w.data) + layer.expert_b.data, 0.0
        )[:, 0, :]
        ok1 = np.allclose(probs, softmax(e), atol=tol)

        # equal experts collapse regardless of the gate
        layer = models.MoELayer(6, 3, 5, rng, dtype=np.float64)
        layer.expert_w.data[:] = layer.expert_w.data[0]
        layer.expert_b.data[:] = layer.expert_b.data[0]
        probs = softmax(layer.forward(x))
        e0 = np.maximum(x @ layer.expert_w.data[0] + layer.expert_b.data[0], 0.0)
        ok2 = np.allclose(probs, softmax(e0), atol=tol)

        # symmetric two-expert fixture: experts (1,0) and (0,1), uniform gate
        layer = models.MoELayer(3, 2, 2, rng, dtype=np.float64)
        layer.expert_w.data[:] = 0.0
        layer.expert_b.data[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer.gate.w.data[:] = 0.0
        layer.gate.b.data[:] = 0.0
        logits = layer.forward(np.zeros((1, 3)))
        probs = softmax(logits)
        ok3 = np.allclose(logits, [[0.5, 0.5]], atol=tol) and np.allclose(
            probs, [[0.5, 0.5]], atol=tol
        )
        report("mixture-of-experts output semantics", ok1 and ok2 and ok3)

    def test_loss_semantics(self):
        n = 4
        uniform = np.full((8, n), 1.0 / n)
        targets = np.eye(n)[np.arange(8) % n]
        ce = cross_entropy(uniform, targets)
        ok_ce = abs(ce - np.log(n)) < 1e-9

        theta = Param("w", np.ones(100, dtype=np.float64))
        lam = 1e-4
        l2 = l2_penalty([theta], lam)
        ok_l2 = l2 == 0.5 * lam * 100.0 and abs(l2 - 0.005) < 1e-15
        report("cross-entropy + L2 loss semantics", ok_ce and ok_l2,
               f"CE={ce:.12f} vs ln4={np.log(4):.12f}, L2={l2}")

    def test_fusion_semantics(self, rng):
        a = softmax(rng.standard_normal((10, 4)))
        b = softmax(rng.standard_normal((10, 4)))
        fused = models.mean_probs([a, b])
        ok_mean = np.allclose(fused, (a + b) / 2.0, atol=1e-12)
        ok_idem = np.allclose(models.mean_probs([a, a]), a, atol=1e-12)
        ok_sym = np.allclose(models.mean_probs([b, a]), fused, atol=1e-12)
        report("ensemble fusion semantics", ok_mean and ok_idem and ok_sym)

    def test_metric_oracle(self):
        truths = {"e0": 0, "e1": 0, "e2": 0, "e3": 0,
                  "e4": 1, "e5": 1, "e6": 1, "e7": 2, "e8": 2, "e9": 3}
        preds = {"e0": 0, "e1": 0, "e2": 1, "e3": 3,
                 "e4": 1, "e5": 2, "e6": 1, "e7": 2, "e8": 0, "e9": 3}
        m = compute_metrics(preds, truths, "Task1_4class")
        ok_fixture = (
            m.specificity == 0.5
            and m.sensitivity == 4 / 6
            and m.icbhi_score == (0.5 + 4 / 6) / 2.0
        )
        # worked row: spec 0.90, sen 0.70 -> score 0.80
        ok_row = (0.90 + 0.70) / 2.0 == pytest.approx(0.80, abs=1e-12)
        ok_exact = m.icbhi_score == (m.specificity + m.sensitivity) / 2.0
        report("metric oracle", ok_fixture and ok_row and ok_exact)

    def test_dsp_laws(self, rng):
        t0 = time.perf_counter()
        # frame-count law over 1000 random lengths
        bank_small = dsp.build_gammatone_bank(n_channels=2)
        ok_frames = True
        for _ in range(1000):
            n = int(rng.integers(1024, 200000))
            frames = dsp.n_frames(n)
            ok_frames &= frames == (n - 1024) // 256 + 1
        # spot-check the law against real spectrogram output
        for n in (1024, 5000, 16000, 44100):
            spec = dsp.gammatone_spectrogram(rng.standard_normal(n), bank_small)
            ok_frames &= spec.values.shape[1] == (n - 1024) // 256 + 1

        # 440 Hz sine survives 44.1 kHz -> 16 kHz within 2 Hz
        t = np.arange(44100) / 44100.0
        y = dsp.resample(np.sin(2 * np.pi * 440.0 * t), 44100, 16000)
        freqs = np.fft.rfftfreq(len(y), d=1 / 16000.0)
        peak = freqs[np.argmax(np.abs(np.fft.rfft(y * np.hanning(len(y)))))]
        ok_peak = abs(peak - 440.0) <= 2.0

        # ERB-uniform strictly increasing centers
        bank = dsp.build_gammatone_bank()
        rates = 21.4 * np.log10(0.00437 * bank.center_freqs + 1.0)
        diffs = np.diff(rates)
        ok_erb = np.all(np.diff(bank.center_freqs) > 0) and np.max(
            np.abs(diffs - diffs[0])
        ) < 1e-6
        elapsed = time.perf_counter() - t0
        report("dsp laws", ok_frames and ok_peak and ok_erb and elapsed < 60,
               f"peak={peak:.2f}Hz, {elapsed:.1f}s")

    def test_augmentation_laws(self, rng):
        once = duplicate_to_min(rng.standard_normal(20000), 6.0)
        ok_dup = len(once) >= 6.0 * 16000
        ok_idem = duplicate_to_min(once, 6.0) is once

        x = rng.standard_normal((6, 64, 32))
        y = np.eye(4)[rng.integers(0, 4, 6)]
        cfg = MixupConfig(alpha=0.2)
        perm = np.random.default_rng(9).permutation(6)
        out1, _ = harness.mixup_batch(x, y, cfg, rng, lam=1.0)
        out0, _ = harness.mixup_batch(x, y, cfg, np.random.default_rng(9), lam=0.0)
        ok_ends = np.array_equal(out1, x) and np.array_equal(out0, x[perm])
        _, mixed_y = harness.mixup_batch(x, y, cfg, rng)
        ok_simplex = (np.allclose(mixed_y.sum(axis=1), 1.0, atol=1e-6)
                      and bool(np.all(mixed_y >= 0)))
        report("augmentation laws", ok_dup and ok_idem and ok_ends and ok_simplex)

    def test_end_to_end_overfit_and_cv(self, synth_features, synth_folds):
        t0 = time.perf_counter()
        results = {}
        # training-accuracy criterion: fit each model on all 40 cycles
        stats = dsp.fit_norm_stats([f.spec for f in synth_features.values()])
        xs, ys = [], []
        eye = np.eye(4, dtype=np.float32)
        for eid in sorted(synth_features):
            feat = synth_features[eid]
            patches = harness.normalized_patches(feat.spec, stats, 32, np.float32)
            xs.append(patches)
            ys.append(np.repeat(eye[feat.label][None], len(patches), axis=0))
        x, y = np.concatenate(xs), np.concatenate(ys)
        for name in ("cnn_moe", "crnn"):
            model = models.build_model(name, 4, patch_width=32, seed=17, gru_hidden=64)
            cfg = TrainConfig(epochs=200, batch_size=8, lr=1e-3, seed=17)
            _, accs = harness.train_loop(model, x, y, cfg, early_stop_acc=0.999)
            results[f"{name}_acc"] = max(accs)
            results[f"{name}_epochs"] = len(accs)

        # 5-fold cross-validation criterion
        for name in ("cnn_moe", "crnn"):
            cv = harness.run_cv(desk_config(model=name), synth_features, synth_folds)
            results[f"{name}_cv"] = cv.mean.icbhi_score
        elapsed = time.perf_counter() - t0

        ok = (
            results["cnn_moe_acc"] >= 0.95
            and results["crnn_acc"] >= 0.95
            and results["cnn_moe_epochs"] <= 200
            and results["crnn_epochs"] <= 200
            and results["cnn_moe_cv"] >= 0.90
            and results["crnn_cv"] >= 0.90
            and elapsed < 900
        )
        detail = (
            f"acc cnn={results['cnn_moe_acc']:.2f}@{results['cnn_moe_epochs']}ep "
            f"crnn={results['crnn_acc']:.2f}@{results['crnn_epochs']}ep, "
            f"cv cnn={results['cnn_moe_cv']:.3f} crnn={results['crnn_cv']:.3f}, "
            f"{elapsed:.0f}s"
        )
        report("end-to-end overfit + cross-validation", ok, detail)

    def test_determinism_bit_identical_reports(self, synth_dir, tmp_path):
        def run(out):
            code = cli_main([
                "train",
                "--audio-dir", str(synth_dir),
                "--diagnosis-file", str(synth_dir / "diagnosis.csv"),
                "--task", "Task1_4class", "--model", "cnn_moe",
                "--min-cycle-seconds", "0.5", "--patch-width", "32",
                "--mixup", "true", "--gru-hidden", "64",
                "--epochs", "2", "--batch-size", "8", "--lr", "1e-3",
                "--seed", "29", "--early-stop-acc", "0",
                "--out-dir", str(out), "--fold", "0",
            ])
            assert code == 0
            run_dir = next(out.glob("run_*"))
            return (
                (run_dir / "report.csv").read_bytes(),
                (run_dir / "history_cnn_moe_fold0.csv").read_bytes(),
            )

        rep_a, hist_a = run(tmp_path / "a")
        rep_b, hist_b = run(tmp_path / "b")
        report("determinism (bit-identical report CSVs)",
               rep_a == rep_b and hist_a == hist_b)


ICBHI_DIR = os.environ.get("RESPDL_ICBHI_DIR", "")


@pytest.mark.skipif(not ICBHI_DIR, reason="extended run needs RESPDL_ICBHI_DIR")
class TestExtendedICBHI:
    """Full-dataset reproduction; takes hours. Expects the standard ICBHI
    layout: WAV + annotation files in one directory plus a diagnosis file
    (set RESPDL_DIAGNOSIS, default <dir>/patient_diagnosis.csv)."""

    def _diagnosis(self):
        return os.environ.get(
            "RESPDL_DIAGNOSIS", os.path.join(ICBHI_DIR, "patient_diagnosis.csv")
        )

    def test_dataset_statistics(self):
        manifest = ingest.build_manifest(ICBHI_DIR, self._diagnosis(), "Task1_4class")
        counts = manifest.class_counts()
        ok = (
            len(manifest.records) == 920
            and manifest.total_cycles == 6898
            and counts
            == {"Normal": 3642, "Crackle": 1864, "Wheeze": 886, "Both": 506}
        )
        report("ICBHI dataset statistics", ok, str(counts))

    @pytest.mark.parametrize(
        "task,model,target",
        [
            ("Task1_4class", "ensemble", 0.80),
            ("Task1_2class", "ensemble", 0.855),
            ("Task2_3class", "cnn_moe", 0.91),
            ("Task2_2class", "cnn_moe", 0.92),
        ],
    )
    def test_headline_scores(self, task, model, target):
        manifest = ingest.build_manifest(ICBHI_DIR, self._diagnosis(), task)
        cfg = harness.ExperimentConfig(
            task=task, model=model, min_cycle_seconds=6.0, patch_width=128,
            audio_dir=ICBHI_DIR, diagnosis_file=self._diagnosis(),
            train=TrainConfig(),
        )
        features = harness.build_features(manifest, task, cfg.min_cycle_seconds)
        folds = ingest.make_folds(manifest, cfg.k, cfg.fold_seed, task)
        cv = harness.run_cv(cfg, features, folds)
        ok = abs(cv.mean.icbhi_score - target) <= 0.05
        report(f"ICBHI {task} {model}", ok,
               f"score={cv.mean.icbhi_score:.3f} target={target}±0.05")
