"""Differentiable layers with explicit forward/backward passes.

Every layer is a ``Layer``: it exposes ``forward(x, train=False)``,
``backward(dout) -> dx``, ``params() -> list[Param]`` and ``buffers() ->
{name: array}``, its non-trainable state (batch normalization's running
statistics), both empty unless the layer has some. Gradients accumulate
into ``Param.grad``; the training loop zeroes them between steps.
Convolutions use stride 1 and same-padding (extra padding on the trailing
side for even kernels), so spatial dims change only at pooling layers.

A layer built from other layers lists them in ``layers``; its parameters
and buffers are its own plus its members', in member order. A ``Chain``
runs its members forward in order and backward in reverse; a
``Classifier`` is a chain ending in one softmax. A ``ConvBlock``, a
model's conv block, is a chain of Bn - Cv - Relu - Bn - [pool] - Dr that
runs them as one fused pass each way.

The two costly layers keep their passes over full activation tensors few:
a convolution's forward builds its im2col columns and runs their GEMM one
block of samples (about 4 MB of columns) at a time, into rows of an output
made first; backward never builds the whole matrix: it takes the weight
gradient one group of kernel taps at a time (about 64 MB of columns, one
GEMM over every position each) and the input gradient as col2im one block
of samples at a time (about 16 MB of per-tap columns from one GEMM, then
one shifted add per tap); batch normalization is one per-channel affine
map forward, and backward two per-channel reductions plus one per-channel
affine combination of the output gradient and the re-centered input,
built in place; it caches its input rather than a normalized copy, from
which ``replay`` rebuilds its output. Both can write into an array the
caller gives: batch normalization its output, and the convolution reads a
padded input the caller filled, which then stays the caller's to hand
back to backward.

What a layer's ``backward`` reads lives in one attribute, ``_cache``: a
``forward(x, train=True)`` stores it there, an inference forward stores
``None``, and ``backward`` takes it with ``take_cache``, which clears it.
So inference keeps nothing, and after a training step a layer holds only
its parameters, their gradients and (batch normalization) its running
statistics. A ``backward`` with no training forward before it raises
``ParameterError`` naming the layer. There are two exceptions: dropout
that drops nothing (inference, or rate 0) keeps nothing and is the
identity both ways, and non-overlapping average pooling keeps nothing,
as its backward needs only the gradient. A ``ConvBlock`` keeps no cache
of its own: its members' caches hold everything, its ReLU's cache is the
rectified convolution output that its second batch normalization also
caches as its input, and its convolution keeps only its shapes: backward
rebuilds the padded input from the first batch normalization's cache.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import ParameterError, ShapeError

log = logging.getLogger(__name__)


class Param:
    """A trainable tensor with a gradient slot.

    ``decay`` marks parameters subject to the L2 penalty (weight matrices
    yes; biases and batch-norm scale/shift no).
    """

    def __init__(self, name: str, data: np.ndarray, decay: bool = True):
        self.name = name
        self.data = data
        self.grad = np.zeros_like(data)
        self.decay = decay

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad[...] = 0


def xavier_uniform(rng, shape, dtype):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def he_uniform(rng, shape, fan_in, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(rng, shape, dtype):
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # fix the sign ambiguity for determinism
    return q.astype(dtype)


def take_cache(layer):
    """Return the cache a training forward left in ``layer._cache`` and
    clear it, so it lives only until the backward that reads it."""
    cache, layer._cache = layer._cache, None
    if cache is None:
        name = getattr(layer, "name", type(layer).__name__)
        raise ParameterError(f"{name}: backward needs a forward(x, train=True) before it")
    return cache


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (invariant to adding a constant)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class Layer:
    """The protocol every layer shares besides ``forward`` and ``backward``:
    its members, its parameters and its buffers by name (by default its
    members'), and the ``_cache`` a training forward leaves for backward."""

    _cache = None
    layers = ()

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: data for layer in self.layers for name, data in layer.buffers().items()}


class Chain(Layer):
    """Its member layers, applied in order; backward runs them in reverse."""

    def __init__(self, *layers):
        self.layers = layers

    def __iter__(self):
        return iter(self.layers)

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout


class Classifier(Chain):
    """A chain whose logits pass through one softmax. Its backward takes
    the logit gradient: the softmax backward is fused into ``loss_ce_l2``."""

    def forward(self, x, train=False):
        return softmax(super().forward(x, train))


class Dense(Layer):
    """Affine map x @ W + b with Xavier-uniform init."""

    def __init__(self, in_dim, out_dim, rng, name="dense", dtype=np.float32):
        self.w = Param(f"{name}.W", xavier_uniform(rng, (in_dim, out_dim), dtype))
        self.b = Param(f"{name}.b", np.zeros(out_dim, dtype=dtype), decay=False)
        self.name = name

    def forward(self, x, train=False):
        if x.shape[-1] != self.w.shape[0]:
            raise ShapeError(
                f"{self.w.name}: expected {self.w.shape[0]} inputs, got {x.shape[-1]}"
            )
        self._cache = x if train else None
        return x @ self.w.data + self.b.data

    def backward(self, dout):
        self.w.grad += take_cache(self).T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.data.T

    def params(self):
        return [self.w, self.b]


def _spans(n, step, least=1):
    """Slices of ``range(n)``, ``step`` long (at least ``least``), a ragged
    last one shorter than ``least`` joined to the one before."""
    step = max(step, least)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < least:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _cache_sized(a):
    """Slices of ``a``'s leading axis, each about 1 MB: a chain of
    elementwise operations run slice by slice passes over memory once
    rather than once per operation, with the same values."""
    return _spans(len(a), (1 << 20) // max(a[:1].nbytes, 1))


def _affine_map(source, scale, shift, out, center=None):
    """``out = (source - center) * scale + shift`` per channel (``source *
    scale + shift`` without ``center``), over slices of about 1 MB: the one
    map batch normalization applies, and rebuilds from its cache."""
    for rows in _cache_sized(source):
        if center is None:
            chunk = np.multiply(source[rows], scale, out=out[rows])
        else:
            chunk = np.subtract(source[rows], center, out=out[rows])
            chunk *= scale
        chunk += shift


# The im2col columns a convolution builds at once: its forward runs the
# columns and their GEMM one block of samples at a time, its backward the
# weight gradient one group of kernel taps (every position) and the input
# gradient one block of samples (every tap) at a time.
_COLUMN_BLOCK_BYTES = 4 << 20
_TAP_GROUP_BYTES = 64 << 20
_DX_BLOCK_BYTES = 16 << 20


def _tap_slices(offset, size):
    """(output positions, input positions) of a kernel tap that reads the
    input ``offset`` places away, over the outputs whose input lies inside
    [0, size)."""
    lo, hi = max(0, -offset), min(size, size - offset)
    return slice(lo, hi), slice(lo + offset, hi + offset)


class Conv2d(Layer):
    """Stride-1 same-padded 2-D convolution via im2col.

    Activations are channels-last (B, H, W, C) so the im2col copy moves
    contiguous channel runs and the GEMM output needs no transpose. Weights
    are stored (out_ch, in_ch, kh, kw) with He-uniform init. Even kernel
    dims get the extra padding on the trailing side. The input gradient is
    col2im (Caffe, Jia et al. 2014, arXiv:1408.5093): its GEMM is
    kh*kw*in_ch wide, where an im2col of the output gradient would be
    kh*kw*out_ch wide.

    Forward builds the im2col matrix and runs its GEMM one block of
    samples at a time, each block's rows written into one output: an
    output row is the product of its own columns, so blocking changes no
    bit. A training forward keeps the padded input (only the shapes, when
    the caller gave the padded input), not the im2col matrix, and backward
    never builds the whole matrix from it. The weight-gradient GEMM
    reduces over every position, and splitting that reduction would change
    its rounding, so backward splits the columns instead: one group of
    kernel taps at a time, each group's columns one copy of the window
    view and one GEMM over every position into its own columns of the
    gradient. The input-gradient GEMM is row-wise, so it runs one block of
    samples at a time, over every tap, each block's col2im adding into
    that block's rows of the input gradient. Both give the bits of the
    whole-matrix GEMMs.
    """

    def __init__(self, in_ch, out_ch, kh, kw, rng, name="conv", dtype=np.float32):
        fan_in = in_ch * kh * kw
        self.w = Param(f"{name}.W", he_uniform(rng, (out_ch, in_ch, kh, kw), fan_in, dtype))
        self.b = Param(f"{name}.b", np.zeros(out_ch, dtype=dtype), decay=False)
        self.kh, self.kw = kh, kw
        self.in_ch, self.out_ch = in_ch, out_ch
        self.pad_h = ((kh - 1) // 2, kh - 1 - (kh - 1) // 2)
        self.pad_w = ((kw - 1) // 2, kw - 1 - (kw - 1) // 2)
        self.name = name

    def _im2col(self, xp, h, w, taps=(slice(None), slice(None))):
        """A new im2col matrix: rows are spatial positions, columns flatten
        (kh, kw, channels), of the kernel taps ``taps`` (rows, cols) only."""
        view = np.lib.stride_tricks.sliding_window_view(xp, (self.kh, self.kw), axis=(1, 2))
        view = view[..., taps[0], taps[1]].transpose(0, 1, 2, 4, 5, 3)
        cols = np.empty(view.shape, dtype=xp.dtype)
        np.copyto(cols, view)
        return cols.reshape(xp.shape[0] * h * w, -1)

    def _tap_groups(self, tap_bytes):
        """The (kernel rows, kernel cols) slices whose weight-gradient columns
        backward builds at once, in column order: whole kernel rows while a
        row's columns fit in ``_TAP_GROUP_BYTES``, else runs of one row's
        taps. None is one column wide, as numpy sends a one-column product
        to gemv, which rounds otherwise than the GEMM."""
        fit = max(1, _TAP_GROUP_BYTES // tap_bytes)
        if fit >= self.kw:
            least = 2 if self.kw * self.in_ch == 1 else 1
            return [(rows, slice(0, self.kw)) for rows in _spans(self.kh, fit // self.kw, least)]
        least = 2 if self.in_ch == 1 else 1
        return [(slice(i, i + 1), taps) for i in range(self.kh)
                for taps in _spans(self.kw, fit, least)]

    def _wmat(self):
        return np.ascontiguousarray(
            self.w.data.transpose(0, 2, 3, 1).reshape(self.out_ch, -1)
        )

    def zero_bordered(self, shape, dtype):
        """A new padded input for inputs of ``shape`` (B, H, W, in_ch), its
        same-padding border zeroed, and the view of its interior, which the
        caller fills with the input."""
        b, h, w, c = shape
        (top, bottom), (left, right) = self.pad_h, self.pad_w
        xp = np.empty((b, top + h + bottom, left + w + right, c), dtype=dtype)
        xp[:, :top] = 0
        xp[:, top + h:] = 0
        xp[:, :, :left] = 0
        xp[:, :, left + w:] = 0
        return xp, xp[:, top:top + h, left:left + w]

    def forward(self, x, train=False, padded=None):
        """``padded``, if given, is the array from ``zero_bordered`` whose
        interior is ``x``: it is read in place rather than copied, and it
        stays the caller's, so a training forward keeps only the shapes and
        the caller hands the same values to ``backward``."""
        if x.ndim != 4 or x.shape[3] != self.in_ch:
            raise ShapeError(
                f"{self.w.name}: expected (B,H,W,{self.in_ch}) input, got {x.shape}"
            )
        b, h, w, _ = x.shape
        own = padded is None
        if own:
            padded, inside = self.zero_bordered(x.shape, x.dtype)
            inside[...] = x
        # the output is made before the columns, so that freeing them
        # leaves no hole below an array that outlives them
        out = np.empty((b * h * w, self.out_ch), dtype=padded.dtype)
        wmat_t = self._wmat().T
        sample_bytes = h * w * self.kh * self.kw * self.in_ch * padded.itemsize
        for s in _spans(b, _COLUMN_BLOCK_BYTES // sample_bytes):
            rows = out[s.start * h * w:s.stop * h * w]
            np.matmul(self._im2col(padded[s], h, w), wmat_t, out=rows)
            rows += self.b.data
        self._cache = (padded if own else None, (b, h, w)) if train else None
        return out.reshape(b, h, w, self.out_ch)

    def backward(self, dout, padded=None):
        """``padded``: the padded input, given again where the training
        forward was given it; the caller should hold no other reference,
        as it is freed once the weight gradient is taken."""
        kept, (b, h, w) = take_cache(self)
        padded = padded if kept is None else kept
        del kept
        positions, width = b * h * w, self.kh * self.kw * self.in_ch
        dmat = dout.reshape(positions, self.out_ch)
        # the weight gradient: per tap group, its columns at every position
        # and one GEMM into its columns of dw
        dw = np.empty((self.out_ch, width), dtype=dout.dtype)
        for rows, cols in self._tap_groups(positions * self.in_ch * dout.itemsize):
            first = (rows.start * self.kw + cols.start) * self.in_ch
            stop = ((rows.stop - 1) * self.kw + cols.stop) * self.in_ch
            np.matmul(dmat.T, self._im2col(padded, h, w, (rows, cols)), out=dw[:, first:stop])
        del padded  # only dmat is read from here on
        self.w.grad += dw.reshape(self.out_ch, self.kh, self.kw, self.in_ch).transpose(0, 3, 1, 2)
        self.b.grad += dmat.sum(axis=0)

        # col2im per block of samples: a GEMM gives each input position's
        # share of every kernel tap, then each tap is added back at its
        # offset (taps that fall into the padding are dropped)
        wmat = self._wmat()
        dx = np.zeros((b, h, w, self.in_ch), dtype=dout.dtype)
        for s in _spans(b, _DX_BLOCK_BYTES // (h * w * width * dout.itemsize)):
            block = dx[s]
            dcols = (dmat[s.start * h * w:s.stop * h * w] @ wmat).reshape(
                len(block), h, w, self.kh, self.kw, self.in_ch)
            for i in range(self.kh):
                rows_out, rows_in = _tap_slices(i - self.pad_h[0], h)
                for j in range(self.kw):
                    cols_out, cols_in = _tap_slices(j - self.pad_w[0], w)
                    block[:, rows_in, cols_in] += dcols[:, rows_out, cols_out, i, j]
        return dx

    def params(self):
        return [self.w, self.b]


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (B, H, W) of channels-last input.

    Both modes apply one per-channel affine map, ``x * scale + shift``,
    written into a single output array. Train mode takes two-pass moments
    (the mean, then the variance of the centered input), so float32 stays
    accurate when |mean| is many times the std, and updates running
    statistics with momentum 0.9; inference uses the running statistics.
    Only train mode has a backward pass. Its cache holds the input itself,
    not a normalized copy: the backward pass re-centers it, takes two
    per-channel reductions and turns the centered copy in place into dx,
    a per-channel affine combination of it and the output gradient. The
    affine map and that combination run over slices of about 1 MB, so each
    chain of elementwise operations passes over memory once.
    Running stats are buffers, not trainable parameters, updated in place;
    inference warns while they still hold their initial zero mean and unit
    variance.
    """

    def __init__(self, channels, name="bn", eps=1e-5, momentum=0.9, dtype=np.float32):
        self.name = name
        self.gamma = Param(f"{name}.gamma", np.ones(channels, dtype=dtype), decay=False)
        self.beta = Param(f"{name}.beta", np.zeros(channels, dtype=dtype), decay=False)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.eps = eps
        self.momentum = momentum

    def forward(self, x, train=False, out=None):
        """``out``, if given, is where the output is written: an array of
        ``x``'s shape, or ``x`` itself in inference."""
        c = self.gamma.data.size
        if x.shape[-1] != c:
            raise ShapeError(
                f"{self.gamma.name}: expected {c} channels, got {x.shape[-1]}"
            )
        n = x.size // c
        if train:
            # per-sample partial sums first: float32 error grows with the
            # length of each sum, not with the whole batch
            mean = x.reshape(x.shape[0], -1, c).sum(axis=1).sum(axis=0) / n
            centered = np.subtract(x, mean)
            flat = centered.reshape(n, c)
            var = np.einsum("nc,nc->c", flat, flat) / n
            inv_std = 1.0 / np.sqrt(var + self.eps)
            scale, shift = self.gamma.data * inv_std, self.beta.data
            source, out = centered, centered if out is None else out
            m = self.momentum
            self.running_mean[...] = m * self.running_mean + (1 - m) * mean
            self.running_var[...] = m * self.running_var + (1 - m) * var
        else:
            if not self.running_mean.any() and (self.running_var == 1).all():
                log.warning("%s: inference before any training step, using init stats",
                            self.gamma.name)
            mean = self.running_mean
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            scale = self.gamma.data * inv_std
            shift = self.beta.data - mean * scale
            source, out = x, np.empty_like(x) if out is None else out
        _affine_map(source, scale, shift, out)
        self._cache = (x, mean, inv_std) if train else None
        return out

    def replay(self, out):
        """Write the output of the training forward whose cache the layer
        holds into ``out``, bit for bit, and keep the cache for backward."""
        x, mean, inv_std = self._cache
        _affine_map(x, self.gamma.data * inv_std, self.beta.data, out, center=mean)

    def backward(self, dout):
        x, mean, inv_std = take_cache(self)
        c = x.shape[-1]
        n = x.size // c
        dx = np.subtract(x, mean)  # centered input, reused as the output buffer
        dflat = dout.reshape(n, c)
        sum_d = dflat.sum(axis=0)
        sum_dx = np.einsum("nc,nc->c", dflat, dx.reshape(n, c))
        self.gamma.grad += sum_dx * inv_std
        self.beta.grad += sum_d
        k = self.gamma.data * inv_std
        # dx = k * (dout - mean(dout) - xhat * mean(dout * xhat))
        coef, mean_d = -(inv_std * inv_std * sum_dx / n), sum_d / n
        for rows in _cache_sized(dx):
            chunk = dx[rows]
            chunk *= coef
            chunk += dout[rows]
            chunk -= mean_d
            chunk *= k
        return dx

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        """The running statistics by name, as the arrays the layer updates in
        place; a model's state holds them next to its parameters."""
        return {
            f"{self.name}.running_mean": self.running_mean,
            f"{self.name}.running_var": self.running_var,
        }


class ReLU(Layer):
    def __init__(self, name="relu"):
        self.name = name

    def forward(self, x, train=False):
        out = np.maximum(x, 0.0)
        self._cache = out if train else None
        return out

    def backward(self, dout):
        return dout * (take_cache(self) > 0)


class AvgPool2d(Layer):
    """Non-overlapping average pooling over channels-last input; spatial
    dims must divide the kernel.

    Forward adds the kernel's taps as strided views in (row, column) order,
    then divides once by their count; backward writes the scaled gradient
    once through a broadcast view. Both give ``mean`` over the window axes
    and its ``np.repeat`` gradient bit for bit."""

    def __init__(self, kh, kw):
        self.kh, self.kw = kh, kw

    def forward(self, x, train=False):
        b, h, w, c = x.shape
        if h % self.kh or w % self.kw:
            raise ShapeError(
                f"avgpool {self.kh}x{self.kw}: input {h}x{w} not divisible"
            )
        windows = x.reshape(b, h // self.kh, self.kh, w // self.kw, self.kw, c)
        taps = [windows[:, :, i, :, j] for i in range(self.kh) for j in range(self.kw)]
        out = np.add(taps[0], taps[1]) if len(taps) > 1 else taps[0].copy()
        for tap in taps[2:]:
            out += tap
        out /= len(taps)
        return out

    def backward(self, dout):
        b, h, w, c = dout.shape
        dx = np.empty((b, h, self.kh, w, self.kw, c), dtype=dout.dtype)
        np.multiply(dout[:, :, None, :, None], 1.0 / (self.kh * self.kw), out=dx)
        return dx.reshape(b, h * self.kh, w * self.kw, c)


class Mean(Layer):
    """Mean over ``axes``, which the output drops: ``Mean((1, 2))`` pools
    (B, H, W, C) globally to (B, C), ``Mean(2)`` averages each frame's
    features, (B, T, F) -> (B, T), and ``Mean(1)`` drops a size-1 axis.
    Over size-1 axes the mean is the input itself, so both passes return a
    view of their argument rather than a copy."""

    def __init__(self, axes):
        self.axes = tuple(np.atleast_1d(axes).tolist())

    def forward(self, x, train=False):
        # a Python int count: a numpy integer divisor would promote float32 to float64
        n = math.prod(x.shape[a] for a in self.axes)
        self._cache = (x.shape, n) if train else None
        return x.squeeze(self.axes) if n == 1 else x.mean(axis=self.axes)

    def backward(self, dout):
        shape, n = take_cache(self)
        d = np.expand_dims(dout, self.axes)
        return d if n == 1 else np.broadcast_to(d, shape) / n


class Dropout(Layer):
    """Inverted dropout: active only in train mode, scaled by 1/(1-p).

    A training pass at p > 0 caches a boolean keep-mask and the scale
    ``dtype(1) / dtype(1 - p)``; an output is the input times the mask,
    times the scale. Otherwise it caches nothing, and the layer, and its
    backward, is the identity.
    """

    def __init__(self, p, rng):
        if not 0.0 <= p < 1.0:
            raise ParameterError(f"dropout rate must be in [0,1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, train=False):
        self._cache = None
        if not train or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        rdtype = np.float32 if x.dtype == np.float32 else np.float64
        draws = self.rng.random(x.shape, dtype=rdtype)  # freed on return: see augment.mixup_batch
        mask = draws < keep
        scale = x.dtype.type(1) / x.dtype.type(keep)
        self._cache = (mask, scale)
        out = x * mask
        out *= scale
        return out

    def backward(self, dout):
        if self._cache is None:
            return dout
        mask, scale = take_cache(self)
        dx = dout * mask
        dx *= scale
        return dx


class ConvBlock(Chain):
    """One batch-normalized convolution block, Bn - Cv - Relu - Bn -
    [pool] - Dr, run as one fused pass each way; iterating it yields those
    members.

    Each member that does its own work is called to do it, so the block
    re-implements no batch normalization or convolution; it fuses only the
    steps between them:

    - ``bn_in`` writes its output straight into the interior of the
      convolution's zero-bordered input, so no padded copy is made;
    - that input is not kept: backward rebuilds it from ``bn_in``'s cache
      through the same affine map (``BatchNorm2d.replay``) and hands it to
      the convolution as its only reference, so it lives only until the
      convolution's weight gradient (Chen et al. 2016, arXiv:1604.06174,
      trade a recomputation for memory);
    - the convolution's output, which nothing else holds, is rectified in
      place; in training that one array is the cache of both ``relu`` (its
      mask) and ``bn_out`` (its input);
    - backward applies the ReLU mask in place to ``bn_out``'s returned
      gradient.

    Training gives the members' outputs and gradients bit for bit.
    Inference applies ``bn_out``'s affine map after pooling rather than
    before it: pooling is linear, so the map is the same up to float
    rounding, on a tensor the pool has made smaller.

    Between steps the block holds nothing but its members' parameters,
    gradients and running statistics; each pass allocates what it needs.
    """

    def __init__(self, in_ch, out_ch, kernel, pool, p, init_rng, drop_rng, name,
                 dtype=np.float32):
        """``pool``: an ``AvgPool2d``, a ``Mean`` or None; ``p``: the dropout
        rate, drawn from ``drop_rng``."""
        self.bn_in = BatchNorm2d(in_ch, name=f"{name}.bn_in", dtype=dtype)
        self.conv = Conv2d(in_ch, out_ch, *kernel, init_rng, name=f"{name}.conv", dtype=dtype)
        self.relu = ReLU(name=f"{name}.relu")
        self.bn_out = BatchNorm2d(out_ch, name=f"{name}.bn_out", dtype=dtype)
        self.pool = pool
        self.drop = Dropout(p, drop_rng)
        members = (self.bn_in, self.conv, self.relu, self.bn_out, pool, self.drop)
        super().__init__(*(layer for layer in members if layer is not None))

    def forward(self, x, train=False):
        padded, inside = self.conv.zero_bordered(x.shape, x.dtype)
        self.bn_in.forward(x, train, out=inside)
        y = self.conv.forward(inside, train, padded=padded)
        del padded, inside  # freed before bn_out's arrays: backward rebuilds it
        np.maximum(y, 0.0, out=y)
        self.relu._cache = y if train else None
        if train:
            out = self.bn_out.forward(y, train)
            if self.pool is not None:
                out = self.pool.forward(out, train)
        else:
            out = y if self.pool is None else self.pool.forward(y)
            self.bn_out.forward(out, out=out)
        return self.drop.forward(out, train)

    def backward(self, dout):
        d = self.drop.backward(dout)
        if self.pool is not None:
            d = self.pool.backward(d)
        d = self.bn_out.backward(d)  # a new array: the mask applies in place
        np.multiply(d, take_cache(self.relu) > 0, out=d)
        # the rebuilt input is passed as the conv's only reference to it
        return self.bn_in.backward(self.conv.backward(d, padded=self._conv_input(d)))

    def _conv_input(self, dout):
        """The conv's zero-bordered input for the output gradient ``dout``,
        rebuilt from ``bn_in``'s cache as the training forward built it."""
        padded, inside = self.conv.zero_bordered((*dout.shape[:3], self.conv.in_ch), dout.dtype)
        self.bn_in.replay(inside)
        return padded
