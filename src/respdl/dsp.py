"""Signal-processing building blocks of the front end.

Polyphase windowed-sinc resampling to 16 kHz, a 64-channel gammatone
spectrogram (1024-sample Hann window, hop 256, FFT length 2048) with log
compression, global z-normalization statistics fit on training data only,
and the split of a spectrogram into an (n, 64, width) array of fixed-width
patches. ``harness.entity_spectrogram`` and ``harness.normalized_patches``
chain these into the one front end that training, ``eval`` and ``predict``
share. Spectrograms live in memory only: every run computes them from the
WAV files.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

WINDOW = 1024
HOP = 256
FFT_LEN = 2048
N_CHANNELS = 64
LOG_EPS = 1e-10

PATCH_WIDTHS = (32, 64, 96, 128, 160)

_SINC_ZEROS = 32  # kernel half-width in zero crossings of the low-pass


def n_frames(n_samples: int, window: int = WINDOW, hop: int = HOP) -> int:
    """Frame-count law: floor((L - window)/hop) + 1 for L >= window."""
    if n_samples < window:
        raise ParameterError(f"need at least {window} samples, got {n_samples}")
    return (n_samples - window) // hop + 1


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def resample(samples: np.ndarray, src_rate: int, dst_rate: int = 16000) -> np.ndarray:
    """Band-limited windowed-sinc resampling in polyphase form.

    Anti-alias low-pass sits at min(src, dst)/2; the output holds exactly
    round(len * dst / src) samples. Empty input yields empty output.

    Output sample n is centred on input position n*M/L, where
    g = gcd(src, dst), M = src/g and L = dst/g, so its Blackman-windowed
    sinc kernel depends only on the phase n mod L. The kernels are built
    once per call as a table of min(L, n_out) rows; the outputs
    n = r + L*j of phase r are one matrix-vector product over windows of
    the zero-padded input that start M samples apart. A coprime ratio such
    as 44101 -> 16000 Hz (L = 16000) takes the same path; for a short input
    its table still has only min(L, n_out) rows.

    Rates must be positive integers (``int`` or a numpy integer), as read
    from a WAV header: the phase table needs their gcd. Anything else
    raises ParameterError.
    """
    try:
        src_rate, dst_rate = operator.index(src_rate), operator.index(dst_rate)
    except TypeError:
        raise ParameterError("sample rates must be integers") from None
    if src_rate <= 0 or dst_rate <= 0:
        raise ParameterError("sample rates must be positive")
    x = np.asarray(samples, dtype=np.float64)
    if src_rate == dst_rate:
        return x.copy()
    n_out = round(x.size * dst_rate / src_rate)
    if n_out == 0:
        return np.empty(0)

    g = math.gcd(src_rate, dst_rate)
    up, down = dst_rate // g, src_rate // g  # L and M
    fc = min(1.0, dst_rate / src_rate)  # cutoff as a fraction of the input Nyquist
    half = int(np.ceil(_SINC_ZEROS / fc))

    phases = np.arange(min(up, n_out)) * down
    base = phases // up  # input index under the centre tap of output r
    t = np.arange(-half, half + 1)[None, :] - ((phases % up) / up)[:, None]
    u = t / half
    window = (0.42 + 0.5 * np.cos(np.pi * u) + 0.08 * np.cos(2 * np.pi * u)) * (np.abs(u) <= 1.0)
    table = fc * np.sinc(fc * t) * window

    # window s of the padded input covers input indices s - half .. s + half;
    # n_out <= len*L/M + 1/2 puts the last centre below len, so its base fits
    padded = np.zeros(x.size + 2 * half)
    padded[half : half + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)

    out = np.empty(n_out, dtype=np.float64)
    for r, kernel in enumerate(table):
        count = len(range(r, n_out, up))
        out[r::up] = windows[base[r] :: down][:count] @ kernel
    return out


# ---------------------------------------------------------------------------
# Gammatone filterbank
# ---------------------------------------------------------------------------


def erb_rate(freq_hz):
    """ERB-rate scale value for a frequency in Hz."""
    return 21.4 * np.log10(0.00437 * np.asarray(freq_hz, dtype=np.float64) + 1.0)


def erb_rate_inverse(erb):
    return (np.power(10.0, np.asarray(erb, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def erb_bandwidth(freq_hz):
    """Equivalent rectangular bandwidth (Glasberg & Moore) in Hz."""
    return 24.7 * (0.00437 * np.asarray(freq_hz, dtype=np.float64) + 1.0)


@dataclass
class GammatoneBank:
    """FFT-bin weighting matrix implementing a 4th-order gammatone bank."""

    n_channels: int
    fft_len: int
    sample_rate: int
    f_min: float
    center_freqs: np.ndarray  # (n_channels,), strictly increasing
    weights: np.ndarray  # (n_channels, fft_len//2 + 1), nonnegative


def build_gammatone_bank(
    n_channels: int = N_CHANNELS,
    fft_len: int = FFT_LEN,
    sample_rate: int = 16000,
    f_min: float = 50.0,
) -> GammatoneBank:
    """Construct the bank with ERB-uniform center frequencies.

    Centers are the interior points of an (n+2)-point grid on the ERB-rate
    scale between f_min and Nyquist, so the first lies strictly above f_min
    and the last strictly below Nyquist. Each row is the unit-peak 4th-order
    gammatone magnitude response sampled at the FFT bin frequencies.
    """
    if n_channels < 1:
        raise ParameterError("n_channels must be >= 1")
    nyquist = sample_rate / 2.0
    if f_min >= nyquist:
        raise ParameterError(f"f_min {f_min} must be below Nyquist {nyquist}")

    grid = np.linspace(erb_rate(f_min), erb_rate(nyquist), n_channels + 2)
    centers = erb_rate_inverse(grid[1:-1])

    bin_freqs = np.arange(fft_len // 2 + 1) * (sample_rate / fft_len)
    bw = 1.019 * erb_bandwidth(centers)
    detune = (bin_freqs[None, :] - centers[:, None]) / bw[:, None]
    weights = np.power(1.0 + detune**2, -2.0)
    weights /= weights.max(axis=1, keepdims=True)
    return GammatoneBank(
        n_channels=n_channels,
        fft_len=fft_len,
        sample_rate=sample_rate,
        f_min=f_min,
        center_freqs=centers,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Spectrograms and patches
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Global mean/std of training-fold log-spectrogram values."""

    mean: float
    std: float


@dataclass
class Spectrogram:
    """Log-compressed gammatone spectrogram."""

    values: np.ndarray  # (n_channels, T)


def gammatone_spectrogram(samples: np.ndarray, bank: GammatoneBank) -> Spectrogram:
    """Hann-windowed power STFT mapped through the gammatone bank.

    Frames of 1024 samples (hop 256) are zero-padded to the bank's FFT
    length; channel energies are log(x + 1e-10) compressed.
    """
    x = np.asarray(samples, dtype=np.float64)
    frames = n_frames(x.size)
    strided = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP][:frames]
    windowed = strided * np.hanning(WINDOW)
    spectrum = np.fft.rfft(windowed, n=bank.fft_len, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    return Spectrogram(values=np.log(bank.weights @ power.T + LOG_EPS))


def fit_norm_stats(spectrograms) -> NormStats:
    """Global mean/std over all cells of the given (n_channels, T) arrays.

    The std is floored at 1e-6. Fit this on the training fold only.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in spectrograms]
    if not arrays:
        raise ParameterError("fit_norm_stats needs at least one spectrogram")
    total = sum(a.size for a in arrays)
    mean = sum(a.sum() for a in arrays) / total
    var = sum(((a - mean) ** 2).sum() for a in arrays) / total
    return NormStats(mean=float(mean), std=max(float(np.sqrt(var)), 1e-6))


def patchify(values: np.ndarray, width: int) -> np.ndarray:
    """Split an (n_channels, T) spectrogram into an (n, n_channels, width) array.

    Non-overlapping windows start at frame 0; a remainder produces one final
    right-aligned patch overlapping its neighbour. Spectrograms shorter than
    `width` yield a single patch tiled cyclically to full width. Without a
    remainder the result is a strided view of `values`.
    """
    if width < 1:
        raise ParameterError("patch width must be >= 1")
    t = values.shape[1]
    if t < 1:
        raise ParameterError("spectrogram has no frames")
    if t < width:
        return values[None, :, np.arange(width) % t]

    windows = np.lib.stride_tricks.sliding_window_view(values, width, axis=1)
    if t % width == 0:
        starts = slice(None, None, width)
    else:
        starts = np.append(np.arange(0, t - width + 1, width), t - width)
    return windows[:, starts].transpose(1, 0, 2)
