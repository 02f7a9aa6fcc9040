"""Resampler, gammatone bank, spectrogram and patching."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import resample_poly

from respdl import dsp
from respdl.errors import ParameterError


def erb_rate_reference(f):
    # independent oracle for the ERB-rate scale
    return 21.4 * np.log10(0.00437 * f + 1.0)


class TestResample:
    def test_identity_when_rates_equal(self, rng):
        x = rng.standard_normal(1000)
        out = dsp.resample(x, 16000, 16000)
        np.testing.assert_array_equal(out, x)

    def test_output_length(self, rng):
        x = rng.standard_normal(44100)
        assert len(dsp.resample(x, 44100, 16000)) == 16000

    def test_empty_input(self):
        assert len(dsp.resample(np.array([]), 44100, 16000)) == 0

    def test_sine_peak_survives(self):
        t = np.arange(44100) / 44100.0
        x = np.sin(2 * np.pi * 440.0 * t)
        y = dsp.resample(x, 44100, 16000)
        spectrum = np.abs(np.fft.rfft(y * np.hanning(len(y))))
        freqs = np.fft.rfftfreq(len(y), d=1 / 16000.0)
        peak = freqs[np.argmax(spectrum)]
        assert abs(peak - 440.0) <= 2.0

    def test_linearity(self, rng):
        x = rng.standard_normal(2000)
        a = 3.7
        ya = dsp.resample(a * x, 44100, 16000)
        y = dsp.resample(x, 44100, 16000)
        np.testing.assert_allclose(ya, a * y, rtol=1e-9, atol=1e-12)

    def test_upsampling_length(self, rng):
        x = rng.standard_normal(4000)
        assert len(dsp.resample(x, 4000, 16000)) == 16000

    def test_antialias_kills_high_band(self):
        # 7 kHz tone at 44.1 kHz lies above the 16 kHz target passband edge
        # once downsampled it must not alias into a strong component
        t = np.arange(44100) / 44100.0
        x = np.sin(2 * np.pi * 10000.0 * t)
        y = dsp.resample(x, 44100, 16000)
        assert np.sqrt(np.mean(y**2)) < 0.05

    def test_bad_rates(self):
        with pytest.raises(ParameterError):
            dsp.resample(np.zeros(10), 0, 16000)


def resample_reference(x, src_rate, dst_rate=16000):
    """Direct form of the resampler: one windowed-sinc kernel per output sample.

    Output n is centred on input position n*src/dst; taps outside the input
    count as zero. This is the per-sample formula the polyphase
    implementation must reproduce.
    """
    x = np.asarray(x, dtype=np.float64)
    n_out = int(round(x.size * dst_rate / src_rate))
    ratio = dst_rate / src_rate
    fc = min(1.0, ratio)
    half = int(np.ceil(32 / fc))
    centers = np.arange(n_out, dtype=np.float64) / ratio
    idx = np.floor(centers).astype(np.int64)[:, None] + np.arange(-half, half + 1)[None, :]
    t = idx - centers[:, None]
    u = t / half
    window = (0.42 + 0.5 * np.cos(np.pi * u) + 0.08 * np.cos(2 * np.pi * u)) * (np.abs(u) <= 1.0)
    kernel = fc * np.sinc(fc * t) * window
    valid = (idx >= 0) & (idx < x.size)
    return np.einsum("ij,ij->i", x[np.clip(idx, 0, x.size - 1)] * valid, kernel)


# 48000 Hz has L = 1 (one phase); 44101 Hz is coprime with 16000 (L = 16000)
EQUIVALENCE_RATES = (44100, 22050, 10000, 8000, 4000, 48000, 44101)


def _past_end_length(src_rate, dst_rate=16000):
    """Shortest input whose last output is centred past its last sample, or None.

    Rounding the output length up can do this only when dst/src > 1/2.
    """
    for n in range(2, 1000):
        n_out = round(n * dst_rate / src_rate)
        if (n_out - 1) * src_rate / dst_rate > n - 1:
            return n
    return None


def _equivalence_cases():
    for rate in EQUIVALENCE_RATES:
        past_end = _past_end_length(rate)
        # 40 samples is shorter than every kernel (the shortest has 65 taps)
        for n in [1, 3, 40, 4999] + ([past_end] if past_end else []):
            yield pytest.param(rate, n, id=f"{rate}Hz-{n}")


class TestPolyphaseResample:
    @pytest.mark.parametrize("rate,n", list(_equivalence_cases()))
    def test_matches_direct_formula(self, rate, n, rng):
        x = rng.standard_normal(n)
        got = dsp.resample(x, rate)
        want = resample_reference(x, rate)
        assert got.shape == want.shape
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("rate", EQUIVALENCE_RATES)
    def test_passband_tones_match_scipy(self, rate):
        # independent oracle: scipy's polyphase FIR (Kaiser window) at L/M
        g = math.gcd(rate, 16000)
        up, down = 16000 // g, rate // g
        t = np.arange(rate) / rate
        for freq in (250.0, 1000.0, 3000.0):
            if freq >= 0.4 * min(rate, 16000):
                continue
            x = np.sin(2 * np.pi * freq * t)
            got = dsp.resample(x, rate)
            want = resample_poly(x, up, down)
            assert got.shape == want.shape
            edge = 300  # both filters see the zero padding near the ends
            assert np.max(np.abs(got[edge:-edge] - want[edge:-edge])) <= 5e-3

    def test_coprime_table_bounded_by_output_length(self):
        # L = 16000 phases at 44101 Hz; a 3-sample input has 1 output, so the
        # kernel table must be one row, not 16000 x 179 (23 MB)
        tracemalloc.start()
        try:
            out = dsp.resample(np.ones(3), 44101)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1,)
        assert peak < 1_000_000

    def test_coprime_long_input(self, rng):
        # long enough that the first phases each produce two outputs
        x = rng.standard_normal(46000)
        got = dsp.resample(x, 44101)
        assert np.max(np.abs(got - resample_reference(x, 44101))) <= 1e-9

    @pytest.mark.parametrize("src,dst", [(44100.5, 16000), (44100.0, 16000),
                                         (44100, 16000.0), ("44100", 16000)])
    def test_non_integer_rate_rejected(self, src, dst):
        with pytest.raises(ParameterError):
            dsp.resample(np.zeros(10), src, dst)

    def test_numpy_integer_rate_accepted(self, rng):
        x = rng.standard_normal(500)
        np.testing.assert_array_equal(dsp.resample(x, np.int32(44100)),
                                      dsp.resample(x, 44100))

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            dsp.resample(np.zeros(10), 44100, -16000)


class TestGammatoneBank:
    def test_single_channel_degenerate(self):
        bank = dsp.build_gammatone_bank(n_channels=1)
        assert bank.center_freqs.shape == (1,)
        assert 50.0 < bank.center_freqs[0] < 8000.0

    def test_center_bounds_and_monotone(self):
        bank = dsp.build_gammatone_bank()
        cf = bank.center_freqs
        assert cf.shape == (64,)
        assert np.all(np.diff(cf) > 0)
        assert cf[0] >= 50.0
        assert cf[-1] < 8000.0

    def test_erb_uniform_spacing(self):
        bank = dsp.build_gammatone_bank()
        rates = erb_rate_reference(bank.center_freqs)
        diffs = np.diff(rates)
        assert np.max(np.abs(diffs - diffs[0])) < 1e-6

    def test_rows_nonnegative_with_positive_mass(self):
        bank = dsp.build_gammatone_bank()
        assert np.all(bank.weights >= 0)
        assert np.all(bank.weights.sum(axis=1) > 0)
        assert bank.weights.shape == (64, 1025)

    def test_fmin_above_nyquist_rejected(self):
        with pytest.raises(ParameterError):
            dsp.build_gammatone_bank(f_min=9000.0)


class TestSpectrogram:
    def test_frame_count_16000(self):
        bank = dsp.build_gammatone_bank()
        spec = dsp.gammatone_spectrogram(np.random.default_rng(0).standard_normal(16000), bank)
        assert spec.values.shape == (64, 59)

    def test_frame_count_law_random_lengths(self, rng):
        bank = dsp.build_gammatone_bank(n_channels=4, fft_len=2048)
        for _ in range(50):
            n = int(rng.integers(1024, 60000))
            spec = dsp.gammatone_spectrogram(rng.standard_normal(n), bank)
            assert spec.values.shape[1] == (n - 1024) // 256 + 1

    def test_zero_input_is_constant_log_eps(self):
        bank = dsp.build_gammatone_bank()
        spec = dsp.gammatone_spectrogram(np.zeros(4096), bank)
        np.testing.assert_array_equal(spec.values, np.log(1e-10))

    def test_white_noise_lights_all_channels(self):
        bank = dsp.build_gammatone_bank()
        floor = np.log(1e-10)
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(8000)
            spec = dsp.gammatone_spectrogram(x, bank)
            assert np.all(spec.values.max(axis=1) > floor + 1.0)

    def test_tone_maximizes_matching_channel(self):
        bank = dsp.build_gammatone_bank()
        t = np.arange(16000) / 16000.0
        for k in (10, 30, 50):
            tone = np.sin(2 * np.pi * bank.center_freqs[k] * t)
            spec = dsp.gammatone_spectrogram(tone, bank)
            energy = spec.values.mean(axis=1)
            assert np.argmax(energy) == k

    def test_too_short_raises(self):
        bank = dsp.build_gammatone_bank()
        with pytest.raises(ParameterError):
            dsp.gammatone_spectrogram(np.zeros(1023), bank)


class TestNormStats:
    def test_constant_matrix_floors_std(self):
        stats = dsp.fit_norm_stats([np.full((4, 5), 3.25)])
        assert stats.mean == pytest.approx(3.25)
        assert stats.std == 1e-6

    def test_two_matrices_mean(self):
        stats = dsp.fit_norm_stats([np.zeros((3, 3)), np.full((3, 3), 2.0)])
        assert stats.mean == pytest.approx(1.0)

    def test_self_consistency_after_normalizing(self, rng):
        specs = [rng.standard_normal((8, 20)) * 3 + 5 for _ in range(4)]
        stats = dsp.fit_norm_stats(specs)
        normed = [(s - stats.mean) / stats.std for s in specs]
        again = dsp.fit_norm_stats(normed)
        assert abs(again.mean) < 1e-6
        assert abs(again.std - 1.0) < 1e-6

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            dsp.fit_norm_stats([])


class TestPatchify:
    def _spec(self, t):
        return np.arange(64 * t, dtype=np.float64).reshape(64, t)

    def test_exact_division(self):
        patches = dsp.patchify(self._spec(256), 128)
        assert patches.shape == (2, 64, 128)
        np.testing.assert_array_equal(patches[0], self._spec(256)[:, :128])
        np.testing.assert_array_equal(patches[1], self._spec(256)[:, 128:])

    def test_right_aligned_remainder(self):
        patches = dsp.patchify(self._spec(300), 128)
        assert patches.shape == (3, 64, 128)
        np.testing.assert_array_equal(patches[2], self._spec(300)[:, 172:300])

    def test_cyclic_tiling_short_input(self):
        spec = self._spec(50)
        patches = dsp.patchify(spec, 128)
        assert patches.shape == (1, 64, 128)
        np.testing.assert_array_equal(patches[0, :, :50], spec)
        np.testing.assert_array_equal(patches[0, :, 50:100], spec)
        np.testing.assert_array_equal(patches[0, :, 100:128], spec[:, :28])

    def test_every_frame_covered_and_width_exact(self, rng):
        for _ in range(25):
            t = int(rng.integers(1, 400))
            width = int(rng.choice([32, 64, 96, 128, 160]))
            spec = self._spec(t)
            patches = dsp.patchify(spec, width)
            assert patches.shape[1:] == (64, width)
            if t >= width:
                covered = np.zeros(t, dtype=bool)
                starts = list(range(0, t - width + 1, width))
                if t % width:
                    starts.append(t - width)
                assert patches.shape[0] == len(starts)
                for patch, s in zip(patches, starts):
                    np.testing.assert_array_equal(patch, spec[:, s : s + width])
                    covered[s : s + width] = True
                assert covered.all()

    def test_exact_division_is_a_view(self):
        spec = self._spec(256)
        patches = dsp.patchify(spec, 64)
        assert np.shares_memory(patches, spec)
