"""The fused layer implementations against straightforward references.

The references are the plain formulations the layers are derived from: a
per-step GRU that keeps a list of step tuples and does every GEMM inside
the recurrence, and the convolution input gradient as a full correlation
of the padded output gradient with the flipped kernel (an im2col of the
output gradient). They live here only as oracles.
"""

import numpy as np
import pytest

from respdl.nn import BatchNorm2d, BiGRU, Conv2d

F64 = np.float64


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gru_direction_reference(wx, wh, bias, x, dout):
    """One GRU direction, step by step: (outputs, dx, dWx, dWh, db)."""
    b, t, _ = x.shape
    h = wh.shape[0]
    xp = x @ wx + bias
    state = np.zeros((b, h))
    outputs = np.empty((b, t, h))
    steps = []
    for i in range(t):
        z = _sigmoid(xp[:, i, :h] + state @ wh[:, :h])
        r = _sigmoid(xp[:, i, h : 2 * h] + state @ wh[:, h : 2 * h])
        rh = r * state
        c = np.tanh(xp[:, i, 2 * h :] + rh @ wh[:, 2 * h :])
        new_state = (1.0 - z) * state + z * c
        steps.append((state, z, r, rh, c))
        outputs[:, i] = new_state
        state = new_state

    dwx, dwh, db = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(bias)
    dx = np.empty_like(x)
    dstate = np.zeros((b, h))
    for i in range(t - 1, -1, -1):
        h_prev, z, r, rh, c = steps[i]
        dh = dstate + dout[:, i]
        dz = dh * (c - h_prev)
        dc = dh * z
        dprev = dh * (1.0 - z)
        dac = dc * (1.0 - c * c)
        dwh[:, 2 * h :] += rh.T @ dac
        drh = dac @ wh[:, 2 * h :].T
        dr = drh * h_prev
        dprev += drh * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        dwh[:, :h] += h_prev.T @ daz
        dwh[:, h : 2 * h] += h_prev.T @ dar
        dprev += daz @ wh[:, :h].T + dar @ wh[:, h : 2 * h].T
        da = np.concatenate([daz, dar, dac], axis=1)
        dwx += x[:, i].T @ da
        db += da.sum(axis=0)
        dx[:, i] = da @ wx.T
        dstate = dprev
    return outputs, dx, dwx, dwh, db


def _bigru_reference(gru, x, dout):
    """A BiGRU's output, dx and {param name: grad}, computed step by step."""
    def direction(d, xs, ds):
        return _gru_direction_reference(d.wx.data, d.wh.data, d.b.data, xs, ds)

    t = x.shape[1]
    out_f, dx_f, *grads_f = direction(gru.fwd, x, dout[:, :t])
    out_b, dx_b, *grads_b = direction(gru.bwd, x[:, ::-1], dout[:, t:][:, ::-1])
    names = [p.name for p in gru.params()]
    return (np.concatenate([out_f, out_b[:, ::-1]], axis=1),
            dx_f + dx_b[:, ::-1],
            dict(zip(names, grads_f + grads_b)))


def _im2col_input_grad_reference(conv, dout):
    """Full correlation of dout with the flipped, channel-swapped kernel;
    the padding mirrors the forward same-padding."""
    b, h, w, _ = dout.shape
    dpad = np.pad(dout, ((0, 0), conv.pad_h[::-1], conv.pad_w[::-1], (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(dpad, (conv.kh, conv.kw), axis=(1, 2))
    dcols = view.transpose(0, 1, 2, 4, 5, 3).reshape(b * h * w, -1)
    wf = conv.w.data.transpose(1, 2, 3, 0)[:, ::-1, ::-1, :].reshape(conv.in_ch, -1)
    return (dcols @ wf.T).reshape(b, h, w, conv.in_ch)


class TestBiGRUReference:
    @pytest.mark.parametrize("t", [1, 5])
    @pytest.mark.parametrize("b", [1, 3])
    def test_matches_per_step_reference(self, rng, t, b):
        gru = BiGRU(4, 3, rng, dtype=F64)
        for p in gru.params():  # nonzero biases exercise every gate path
            p.data[...] = rng.standard_normal(p.shape) * 0.5
        x = rng.standard_normal((b, t, 4))
        dout = rng.standard_normal((b, 2 * t, 3))

        out = gru.forward(x, train=True)
        dx = gru.backward(dout)
        ref_out, ref_dx, ref_grads = _bigru_reference(gru, x, dout)

        assert np.abs(out - ref_out).max() <= 1e-10
        assert np.abs(dx - ref_dx).max() <= 1e-10
        assert len(ref_grads) == 6
        for p in gru.params():
            assert np.abs(p.grad - ref_grads[p.name]).max() <= 1e-10, p.name


class TestConvInputGradReference:
    @pytest.mark.parametrize("in_ch, out_ch, kh, kw", [
        (1, 64, 3, 3),
        (1, 64, 4, 1),
        (64, 128, 4, 1),
    ])
    def test_col2im_matches_im2col(self, rng, in_ch, out_ch, kh, kw):
        conv = Conv2d(in_ch, out_ch, kh, kw, rng, dtype=F64)
        x = rng.standard_normal((2, 8, 6, in_ch))
        dout = rng.standard_normal((2, 8, 6, out_ch))
        conv.forward(x, train=True)
        dx = conv.backward(dout)
        assert dx.shape == x.shape
        assert np.abs(dx - _im2col_input_grad_reference(conv, dout)).max() <= 1e-10


class TestBatchNormShiftStability:
    @pytest.mark.parametrize("mean_in_stds", [0, 20, 100])
    def test_float32_matches_float64(self, rng, mean_in_stds):
        std = 0.7
        x32 = (rng.standard_normal((50, 64, 128, 4)) * std + mean_in_stds * std).astype(np.float32)
        d32 = rng.standard_normal(x32.shape).astype(np.float32)
        results = {}
        for dtype in (np.float32, F64):
            bn = BatchNorm2d(4, dtype=dtype)
            bn.gamma.data[:] = [0.5, 1.0, 2.0, 3.0]
            bn.beta.data[:] = [0.0, 1.0, -1.0, 2.0]
            out = bn.forward(x32.astype(dtype), train=True)
            dx = bn.backward(d32.astype(dtype))
            results[dtype] = (out, dx, bn.gamma.grad.copy())
        for got, ref in zip(results[np.float32], results[F64]):
            rel = np.abs(got.astype(F64) - ref).max() / np.abs(ref).max()
            assert rel <= 1e-3
