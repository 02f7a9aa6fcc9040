"""Bidirectional GRU layer with full backpropagation through time.

The two directions run independently over the input sequence (the backward
direction consumes it reversed). Their output sequences are concatenated
along the TIME axis, forward outputs first and the re-reversed backward
outputs after them, so T input frames become 2T output frames of H dims.

Each direction follows the fused-gate layout of Appleyard et al. 2016
(arXiv:1604.01946): everything that does not depend on the recurrent
state (the input projection forward; the weight, bias and input gradients
backward) is one GEMM over all time steps, so the sequential loop keeps
only the recurrent GEMMs, two per step.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Layer, Param, orthogonal, take_cache, xavier_uniform


def sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no overflow and no
    sign-split indexing. ``out`` may be ``x`` for an in-place update."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class _GRUDirection(Layer):
    """One GRU direction: update/reset gates, tanh candidate.

    Gate layout inside Wx/Wh/b is [update z | reset r | candidate c]; the
    candidate's recurrent term uses the reset-scaled state (r * h_prev).

    The input projection for all steps is one GEMM before the recurrence,
    time-major so each step reads a contiguous (B, 3H) slab. Each step then
    takes one GEMM for the z and r gates together and one for the
    candidate, against contiguous copies of the two recurrent weight blocks
    made once per call. Training keeps (T, B, .) step caches; inference
    reuses one (1, B, .) slab of each. The backward pass fills a
    (T, B, 3H) gate-gradient array and computes the weight, bias and input
    gradients from it with one GEMM (or sum) each after the recurrence.
    """

    def __init__(self, in_dim, hidden, rng, name, dtype):
        h = hidden
        wh = np.concatenate([orthogonal(rng, (h, h), dtype) for _ in range(3)], axis=1)
        self.wx = Param(f"{name}.Wx", xavier_uniform(rng, (in_dim, 3 * h), dtype))
        self.wh = Param(f"{name}.Wh", wh)
        self.b = Param(f"{name}.b", np.zeros(3 * h, dtype=dtype), decay=False)
        self.hidden = h
        self.name = name

    def _blocks(self):
        h = self.hidden
        wh = self.wh.data
        return np.ascontiguousarray(wh[:, : 2 * h]), np.ascontiguousarray(wh[:, 2 * h :])

    def forward(self, x, train=False):
        """(B, T, D) -> (B, T, H)."""
        b, t, d = x.shape
        h = self.hidden
        w_zr, w_c = self._blocks()
        xt = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t * b, d)
        xp = (xt @ self.wx.data).reshape(t, b, 3 * h)
        xp += self.b.data
        states = np.zeros((t + 1, b, h), dtype=x.dtype)  # states[i] feeds step i
        # backward reads every step's gates; inference reuses one step's slabs
        slabs = t if train else 1
        zr = np.empty((slabs, b, 2 * h), dtype=x.dtype)
        rh = np.empty((slabs, b, h), dtype=x.dtype)
        cand = np.empty((slabs, b, h), dtype=x.dtype)
        for i in range(t):
            state, k = states[i], i % slabs
            gates = zr[k]
            np.matmul(state, w_zr, out=gates)
            gates += xp[i, :, : 2 * h]
            sigmoid(gates, out=gates)
            z, r = gates[:, :h], gates[:, h:]
            np.multiply(r, state, out=rh[k])
            c = cand[k]
            np.matmul(rh[k], w_c, out=c)
            c += xp[i, :, 2 * h :]
            np.tanh(c, out=c)
            # h_new = (1 - z) * h_prev + z * c
            new_state = states[i + 1]
            np.subtract(c, state, out=new_state)
            new_state *= z
            new_state += state
        self._cache = (xt, states, zr, rh, cand) if train else None
        return states[1:].transpose(1, 0, 2)

    def backward(self, dout):
        """(B, T, H) output gradient -> (B, T, D) input gradient."""
        xt, states, zr, rh, cand = take_cache(self)
        t, b, h = cand.shape
        w_zr, w_c = self._blocks()
        dout_t = dout.transpose(1, 0, 2)
        da = np.empty((t, b, 3 * h), dtype=cand.dtype)  # gradients of the gate pre-activations
        dstate = np.zeros((b, h), dtype=cand.dtype)
        for i in range(t - 1, -1, -1):
            h_prev, c = states[i], cand[i]
            z, r = zr[i, :, :h], zr[i, :, h:]
            dh = dstate + dout_t[i]
            daz, dar, dac = da[i, :, :h], da[i, :, h : 2 * h], da[i, :, 2 * h :]
            # candidate: dac = dh * z * (1 - c^2)
            np.multiply(dh, z, out=dac)
            dac *= 1.0 - c * c
            drh = dac @ w_c.T
            # update gate: daz = dh * (c - h_prev) * z * (1 - z)
            np.subtract(c, h_prev, out=daz)
            daz *= dh
            daz *= z * (1.0 - z)
            # reset gate: dar = drh * h_prev * r * (1 - r)
            np.multiply(drh, h_prev, out=dar)
            dar *= r * (1.0 - r)
            dstate = dh * (1.0 - z)
            dstate += drh * r
            dstate += da[i, :, : 2 * h] @ w_zr.T
        flat = da.reshape(t * b, 3 * h)
        self.wx.grad += xt.T @ flat
        self.wh.grad[:, : 2 * h] += states[:t].reshape(t * b, h).T @ flat[:, : 2 * h]
        self.wh.grad[:, 2 * h :] += rh.reshape(t * b, h).T @ flat[:, 2 * h :]
        self.b.grad += flat.sum(axis=0)
        return (flat @ self.wx.data.T).reshape(t, b, -1).transpose(1, 0, 2)

    def params(self):
        return [self.wx, self.wh, self.b]


class BiGRU(Layer):
    """(B, T, D) -> (B, 2T, H) bidirectional GRU."""

    def __init__(self, in_dim, hidden, rng, name="bigru", dtype=np.float32):
        self.in_dim = in_dim
        self.fwd = _GRUDirection(in_dim, hidden, rng, f"{name}.fwd", dtype)
        self.bwd = _GRUDirection(in_dim, hidden, rng, f"{name}.bwd", dtype)
        self.layers = (self.fwd, self.bwd)

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"bigru: expected (B,T,{self.in_dim}), got {x.shape}")
        out_f = self.fwd.forward(x, train)
        out_b = self.bwd.forward(x[:, ::-1], train)
        return np.concatenate([out_f, out_b[:, ::-1]], axis=1)

    def backward(self, dout):
        t = dout.shape[1] // 2
        dx_f = self.fwd.backward(dout[:, :t])
        dx_b = self.bwd.backward(dout[:, t:][:, ::-1])
        return dx_f + dx_b[:, ::-1]
