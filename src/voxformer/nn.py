"""Neural operators: 3D convolution and pooling, normalization layers, dropout,
linear/attention/encoder blocks, and the cross-entropy loss.

Layers are small ``Module`` objects holding parameter Tensors.  The heavy
kernels are single recorded graph nodes rather than per-voxel graphs:
conv3d is tiled im2col + BLAS, maxpool3d a separable max over W, H and D,
adaptive pooling three averaging-matrix products, and the instance, batch
and layer norms share one fused ``normalize`` node.  One tap iterator,
``_windows``, yields every strided kernel window that conv3d and both
max-pool passes read.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from scipy import special as _special

from .tensor import (Tensor, ShapeError, _node, add, div, gelu, matmul, mul,
                     reshape, softmax, sub, transpose)

# Fixed layer settings: every model in this package uses these values.
CONV_KERNEL = 3         # Conv3d: cubic kernel extent
CONV_PADDING = 1        # Conv3d: zero padding, which keeps stride-1 extents
INIT_SLOPE = 0.2        # Conv3d init: Kaiming gain for the LeakyReLU(0.2) after it
NORM_EPS = 1e-5         # variance floor of every normalization
BN_MOMENTUM = 0.1       # BatchNorm3d: weight of the newest batch in the running stats


# ---------------------------------------------------------------------------
# parameter initialization

# Values per draw block: each block is drawn in float64 and written straight
# into the output, so no full-size float64 temporary exists.  A generator
# yields the same stream in blocks as in one call.  For a 24M-value float32
# trunc_normal on a 2-vCPU Xeon VM (9 interleaved runs, median) 2**12 took
# 497 ms, 2**14 481, 2**16 458, 2**18 503, 2**20 563, and one whole-size
# draw 810.
_INIT_BLOCK = 1 << 16


def _blocks(shape, dtype):
    """A new array of ``shape`` and its flat slices of at most ``_INIT_BLOCK``."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    return out, (flat[s:s + _INIT_BLOCK] for s in range(0, flat.size, _INIT_BLOCK))


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02,
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, std) truncated at +-2 std, sampled by inverse-CDF (no rejection loop)."""
    lo, hi = _special.ndtr(-2.0), _special.ndtr(2.0)
    out, blocks = _blocks(shape, dtype)
    for block in blocks:
        u = rng.uniform(lo, hi, size=block.size)
        np.multiply(_special.ndtri(u, out=u), std, out=block)
    return out


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int,
                   dtype=np.float32) -> np.ndarray:
    gain = math.sqrt(2.0 / (1.0 + INIT_SLOPE * INIT_SLOPE))
    std = gain / math.sqrt(fan_in)
    out, blocks = _blocks(shape, dtype)
    for block in blocks:
        np.multiply(rng.standard_normal(size=block.size), std, out=block)
    return out


def _default_rng(rng):
    return rng if rng is not None else np.random.default_rng(0)


# ---------------------------------------------------------------------------
# module base

class Module:
    """Minimal layer base: tracks Tensor attributes and submodules by name."""

    def __init__(self):
        self.training = True

    def named_tensors(self, prefix: str = ""):
        """All Tensor state (parameters and buffers), in attribute order."""
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_tensors(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(f"{prefix}{name}.{i}.")

    def named_parameters(self, prefix: str = ""):
        for name, t in self.named_tensors(prefix):
            if t.requires_grad:
                yield name, t

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(t.size for t in self.parameters())

    def modules(self):
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy arrays into this module's tensors, matched by name."""
        own = dict(self.named_tensors())
        missing = sorted(set(own) - set(arrays))
        extra = sorted(set(arrays) - set(own))
        if missing or extra:
            raise KeyError(f"state mismatch: missing={missing} unexpected={extra}")
        for name, t in own.items():
            arr = arrays[name]
            if tuple(arr.shape) != t.shape:
                raise ShapeError(f"state {name!r}: shape {arr.shape} != {t.shape}")
            t.data = np.ascontiguousarray(arr, dtype=t.dtype)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


# ---------------------------------------------------------------------------
# linear

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ W^T + b over the trailing axis; W is [out, in]."""
    n_in = weight.shape[1]
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear input extent {x.shape} does not match weight {weight.shape}")
    out = np.matmul(x.data, weight.data.T) + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data))
        if weight.requires_grad:
            g2 = g.reshape(-1, weight.shape[0])
            x2 = x.data.reshape(-1, n_in)
            weight._accumulate(g2.T @ x2)
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, weight.shape[0]).sum(axis=0))

    return _node(out, (x, weight, bias), backward, "linear")


class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        rng = _default_rng(rng)
        self.weight = Tensor(trunc_normal(rng, (out_features, in_features), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# 3D convolution (tiled im2col + GEMM)

def conv3d_output_extents(extents: Sequence[int], kernel: Sequence[int],
                          stride: int, padding: int) -> tuple[int, ...]:
    out = tuple((e + 2 * padding - k) // stride + 1 for e, k in zip(extents, kernel))
    if any(o < 1 for o in out):
        raise ShapeError(f"conv3d output extent not positive: input {tuple(extents)}, "
                         f"kernel {tuple(kernel)}, stride {stride}, padding {padding} -> {out}")
    return out


def _windows(a: np.ndarray, kernel: Sequence[int], strides: Sequence[int],
             out_sp: Sequence[int]):
    """For each kernel tap in (d, h, w) row-major order, the strided view of the
    [..., D, H, W] array ``a`` that the tap reads at every output position.
    The one tap iterator of this module: conv3d, the max-pool forward and
    the max-pool winner search all read their windows through it."""
    for offs in itertools.product(*(range(k) for k in kernel)):
        yield a[(Ellipsis,) + tuple(slice(o, o + s * n, s)
                                    for o, s, n in zip(offs, strides, out_sp))]


# Elements of one tile of the im2col matrix: a tile holds as many output depth
# planes of one sample as fit, and at least one.  On a 2-vCPU Xeon VM (numpy
# 2.4, OpenBLAS), the five CVVT-tiny stage convs of one 169x208x179 scan took
# (best of 3) 425 ms at 2**18, 384 at 2**20, 358 at 2**21, 410 at 2**22,
# 424 at 2**23 and 459 at 2**24; the whole matrix at once took 591 ms.
_TILE = 1 << 21


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [N,Cin,D,H,W] with [Cout,Cin,kd,kh,kw], zero padding.

    Tiled im2col: the [Cin*k3, P] column matrix of one sample is built a few
    output depth planes at a time in one reused ``_TILE``-sized buffer and
    multiplied by the weight matrix there.  The backward pass keeps no
    columns: it refills each tile from the padded input, adds the tile's
    weight gradient, and scatters the tile's input gradient back through the
    same tap windows.
    """
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(f"conv3d needs 5-D input and weight, got {x.shape} and {weight.shape}")
    n, cin, d, h, w = x.shape
    cout, cw, kd, kh, kw = weight.shape
    if cin != cw:
        raise ShapeError(f"conv3d channel mismatch: input has {cin}, weight expects {cw}")
    kernel = (kd, kh, kw)
    do, ho, wo = conv3d_output_extents((d, h, w), kernel, stride, padding)
    pd = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (pd, pd), (pd, pd))) if pd else x.data
    rows, plane = cin * kd * kh * kw, ho * wo
    planes = max(1, min(do, _TILE // (rows * plane)))
    spans = [(i, z0, min(z0 + planes, do)) for i in range(n) for z0 in range(0, do, planes)]

    def windows(a: np.ndarray, i: int, z0: int, z1: int):
        return _windows(a[i, :, z0 * stride:], kernel, (stride,) * 3, (z1 - z0, ho, wo))

    def fill(buf: np.ndarray, i: int, z0: int, z1: int) -> np.ndarray:
        """Sample i's columns for output planes z0..z1 in ``buf``: row (ci, tap)
        is tap's window of channel ci."""
        taps = buf[:rows * (z1 - z0) * plane].reshape(cin, -1, z1 - z0, ho, wo)
        for t, window in enumerate(windows(xp, i, z0, z1)):
            taps[:, t] = window
        return taps.reshape(rows, -1)

    wm = weight.data.reshape(cout, -1)
    tile = np.empty(rows * planes * plane, xp.dtype)
    out = np.empty((n, cout, do * plane), np.result_type(wm, xp))
    for i, z0, z1 in spans:
        np.matmul(wm, fill(tile, i, z0, z1), out=out[i, :, z0 * plane:z1 * plane])
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(n, cout, do, ho, wo)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        gm = g.reshape(n, cout, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gm.sum(axis=(0, 2)))
        gw = np.zeros(wm.shape, np.result_type(gm, xp)) if weight.requires_grad else None
        dxp = np.zeros(xp.shape, g.dtype) if x.requires_grad else None
        cols = np.empty(rows * planes * plane, xp.dtype)
        dcols = np.empty(rows * planes * plane, np.result_type(wm, gm))
        for i, z0, z1 in spans:
            gt = gm[i, :, z0 * plane:z1 * plane]
            if gw is not None:
                gw += gt @ fill(cols, i, z0, z1).T
            if dxp is not None:
                dt = np.matmul(wm.T, gt, out=dcols[:rows * gt.shape[1]].reshape(rows, -1))
                dtaps = dt.reshape(cin, -1, z1 - z0, ho, wo)
                for t, window in enumerate(windows(dxp, i, z0, z1)):
                    window += dtaps[:, t]
        if gw is not None:
            weight._accumulate(gw.reshape(weight.shape))
        if dxp is not None:
            x._accumulate(dxp[:, :, pd:pd + d, pd:pd + h, pd:pd + w] if pd else dxp)

    return _node(out, parents, backward, "conv3d")


class Conv3d(Module):
    """3D convolution layer with a CONV_KERNEL^3 kernel and CONV_PADDING zero padding."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 bias: bool = True, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        rng = _default_rng(rng)
        self.stride = int(stride)
        k = (CONV_KERNEL,) * 3
        self.weight = Tensor(kaiming_normal(rng, (out_channels, in_channels) + k,
                                            in_channels * CONV_KERNEL ** 3, dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv3d(x, self.weight, self.bias, stride=self.stride, padding=CONV_PADDING)


# ---------------------------------------------------------------------------
# pooling

def maxpool3d_output_extents(extents: Sequence[int], kernel: int, stride: int) -> tuple[int, ...]:
    if any(e < kernel for e in extents):
        raise ShapeError(f"maxpool3d window {kernel} larger than input extents {tuple(extents)}")
    return tuple((e - kernel) // stride + 1 for e in extents)


def _pool_winners(x: np.ndarray, out: np.ndarray, k: int, s: int) -> np.ndarray:
    """Flat (d,h,w) index of each window's first voxel equal to its max, in
    row-major order; a window with no such voxel (a NaN max) gets its first."""
    d, h, w = x.shape[2:]
    do, ho, wo = out.shape[2:]
    found = np.zeros(out.shape, bool)
    rel = np.zeros(out.shape, np.int32)
    offsets = itertools.product(range(k), repeat=3)
    for (td, th, tw), tap in zip(offsets, _windows(x, (k,) * 3, (s,) * 3, (do, ho, wo))):
        first = (tap == out) > found                       # equal here, not before
        found |= first
        rel += first * np.int32((td * h + th) * w + tw)
    origin = ((np.arange(do)[:, None, None] * h + np.arange(ho)[:, None]) * w
              + np.arange(wo)) * s
    return origin + rel


def maxpool3d(x: Tensor, kernel: int = 3, stride: int | None = None) -> Tensor:
    """Per-window max over [N,C,D,H,W]; stride defaults to the kernel size.

    The forward takes the max over W, then H, then D through the tap
    iterator, with kernels (1,1,k), (1,k,1) and (k,1,1), and keeps nothing
    but its output.  The backward scans the k^3 taps once for the winners:
    gradient goes to the argmax voxel, and ties go to the first element of
    the window in (d,h,w) row-major order.  A window holding a NaN outputs
    NaN, and its gradient goes to the window's first voxel.
    """
    k = int(kernel)
    s = k if stride is None else int(stride)
    if k < 1:
        raise ValueError(f"kernel must be >= 1, got {k}")
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    n, c, d, h, w = x.shape
    do, ho, wo = maxpool3d_output_extents((d, h, w), k, s)
    out = x.data
    for kern, strides, out_sp in (((1, 1, k), (1, 1, s), (d, h, wo)),
                                  ((1, k, 1), (1, s, 1), (d, ho, wo)),
                                  ((k, 1, 1), (s, 1, 1), (do, ho, wo))):
        taps = _windows(out, kern, strides, out_sp)       # views of the previous stage
        out = next(taps).copy()
        for tap in taps:
            np.maximum(tap, out, out=out)   # on a tie (+0 vs -0) numpy keeps out, the earlier tap

    def backward(g: np.ndarray) -> None:
        base = (np.arange(n * c) * (d * h * w)).reshape(n, c, 1, 1, 1)
        lin = (base + _pool_winners(x.data, out, k, s)).reshape(-1)
        if s >= k:      # windows do not overlap: each voxel wins at most once
            dx = np.zeros(x.shape, x.dtype)
            dx.reshape(-1)[lin] = g.reshape(-1) + g.dtype.type(0)   # -0 + 0 is +0, as in bincount
        else:
            dx = np.bincount(lin, weights=g.reshape(-1).astype(np.float64),
                             minlength=x.size).reshape(x.shape).astype(x.dtype)
        x._accumulate(dx)

    return _node(out, (x,), backward, "maxpool3d")


def _averaging_matrix(length: int, out: int, dtype) -> np.ndarray:
    """[out, length] matrix whose row i averages bin i: [i*L//out, ceil((i+1)*L/out))."""
    i = np.arange(out)[:, None]
    j = np.arange(length)
    inside = (j >= i * length // out) & (j < -(-(i + 1) * length // out))
    return (inside / inside.sum(axis=1, keepdims=True)).astype(dtype)


def adaptive_avg_pool3d(x: Tensor, output: tuple[int, int, int]) -> Tensor:
    """Average-pool each spatial axis down to a fixed extent (input >= output).

    Each axis is one [out, in] averaging matrix; the forward contracts D, H
    and W with them in turn, and the backward with their transposes.
    """
    for ext, o in zip(x.shape[2:], output):
        if ext < o:
            raise ShapeError(f"adaptive_avg_pool3d cannot expand extent {ext} to {o}")
    mats = [_averaging_matrix(ext, o, x.dtype) for ext, o in zip(x.shape[2:], output)]

    def contract(a: np.ndarray, side: int) -> np.ndarray:
        # each tensordot moves the contracted axis 2 to the end: D, H, W come back in order
        for m in mats:
            a = np.tensordot(a, m, axes=([2], [side]))
        return a

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(contract(g, 0))

    return _node(contract(x.data, 1), (x,), backward, "adaptive_avg_pool3d")


# ---------------------------------------------------------------------------
# normalization

def normalize(x: Tensor, gamma: Tensor, beta: Tensor,
              axes: tuple[int, ...], channel_axis: int) -> Tensor:
    """x̂ = (x - mean) / sqrt(var + NORM_EPS) over ``axes`` (biased variance),
    then gamma * x̂ + beta along ``channel_axis``.

    One graph node that keeps only x̂ and 1/σ; its backward is the closed
    form dx = (ĝ - mean(ĝ) - x̂·mean(ĝ·x̂)) / σ with ĝ = g·gamma,
    dgamma = Σ g·x̂ and dbeta = Σ g.
    """
    xd = x.data
    xc = xd - xd.mean(axis=axes, keepdims=True)
    sd = np.sqrt((xc * xc).mean(axis=axes, keepdims=True) + xd.dtype.type(NORM_EPS))
    xhat = np.divide(xc, sd, out=xc)
    inv = 1 / sd
    shape = [1] * x.ndim
    shape[channel_axis] = x.shape[channel_axis]
    others = tuple(ax for ax in range(x.ndim) if ax != channel_axis)
    scale = gamma.data.reshape(shape)
    out = xhat * scale + beta.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=others))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=others))
        g = g * scale
        if x.requires_grad:
            dx = g - g.mean(axis=axes, keepdims=True)
            dx -= xhat * (g * xhat).mean(axis=axes, keepdims=True)
            dx *= inv
            x._accumulate(dx)

    return _node(out, (x, gamma, beta), backward, "normalize")


class InstanceNorm3d(Module):
    """Per (sample, channel) normalization over (D,H,W); identical train/eval."""

    def __init__(self, num_features: int, dtype=np.float32):
        super().__init__()
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.num_features:
            raise ShapeError(f"expected {self.num_features} channels, got shape {x.shape}")
        return normalize(x, self.gamma, self.beta, (2, 3, 4), 1)


class BatchNorm3d(Module):
    """Per-channel normalization over (N,D,H,W) with running statistics.

    Training uses batch statistics (biased variance) and updates the running
    estimates; eval normalizes with the running estimates.
    """

    def __init__(self, num_features: int, dtype=np.float32):
        super().__init__()
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = Tensor(np.zeros(num_features, dtype=dtype))
        self.running_var = Tensor(np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.num_features:
            raise ShapeError(f"expected {self.num_features} channels, got shape {x.shape}")
        if self.training:
            out = normalize(x, self.gamma, self.beta, (0, 2, 3, 4), 1)
            n, _, d, h, w = x.shape
            count = n * d * h * w
            mean = x.data.mean(axis=(0, 2, 3, 4))
            var = x.data.var(axis=(0, 2, 3, 4))
            if count > 1:
                var = var * count / (count - 1)
            m = BN_MOMENTUM
            self.running_mean.data = ((1 - m) * self.running_mean.data + m * mean).astype(x.dtype)
            self.running_var.data = ((1 - m) * self.running_var.data + m * var).astype(x.dtype)
        else:
            shape = (1, self.num_features, 1, 1, 1)
            mu = Tensor(self.running_mean.data.reshape(shape))
            sd = Tensor(np.sqrt(self.running_var.data.reshape(shape) + x.dtype.type(NORM_EPS)))
            out = div(sub(x, mu), sd)
            out = add(mul(out, reshape(self.gamma, shape)), reshape(self.beta, shape))
        return out


class LayerNorm(Module):
    """Normalization over the trailing (embedding) axis with affine params."""

    def __init__(self, normalized_dim: int, dtype=np.float32):
        super().__init__()
        self.normalized_dim = normalized_dim
        self.gamma = Tensor(np.ones(normalized_dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(normalized_dim, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_dim:
            raise ShapeError(f"expected trailing extent {self.normalized_dim}, got {x.shape}")
        return normalize(x, self.gamma, self.beta, (x.ndim - 1,), x.ndim - 1)


# ---------------------------------------------------------------------------
# dropout

def dropout3d(x: Tensor, p: float = 0.4, training: bool = True,
              rng: np.random.Generator | None = None) -> Tensor:
    """Zero whole channels with probability p; survivors scale by 1/(1-p).

    Inverted convention: eval mode is the identity.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = _default_rng(rng)
    n, c = x.shape[:2]
    keep = (rng.random((n, c)) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    mask = keep.reshape((n, c) + (1,) * (x.ndim - 2))
    return mul(x, Tensor(mask))


class Dropout3d(Module):
    def __init__(self, p: float = 0.4, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return dropout3d(x, self.p, self.training, self.rng)


# ---------------------------------------------------------------------------
# attention / encoder

class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over [N,T,E] with separate Q/K/V/out projections."""

    def __init__(self, embed_dim: int, num_heads: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        if embed_dim % num_heads:
            raise ShapeError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        rng = _default_rng(rng)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.k = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.v = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.out = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)

    def _split_heads(self, t: Tensor) -> Tensor:
        n, tok, _ = t.shape
        return transpose(reshape(t, (n, tok, self.num_heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, tokens: Tensor) -> Tensor:
        if tokens.shape[-1] != self.embed_dim:
            raise ShapeError(f"expected embed dim {self.embed_dim}, got {tokens.shape}")
        n, tok, e = tokens.shape
        q = self._split_heads(self.q(tokens))
        k = self._split_heads(self.k(tokens))
        v = self._split_heads(self.v(tokens))
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale)
        attn = softmax(scores)
        ctx = matmul(attn, v)                                  # [N, heads, T, hd]
        merged = reshape(transpose(ctx, (0, 2, 1, 3)), (n, tok, e))
        return self.out(merged)


class Mlp(Module):
    def __init__(self, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        rng = _default_rng(rng)
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng, dtype=dtype)
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class EncoderBlock(Module):
    """Pre-norm transformer block: attention and MLP sublayers with residuals."""

    def __init__(self, embed_dim: int, num_heads: int, mlp_ratio: int = 4,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__()
        rng = _default_rng(rng)
        self.norm1 = LayerNorm(embed_dim, dtype=dtype)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng, dtype=dtype)
        self.norm2 = LayerNorm(embed_dim, dtype=dtype)
        self.mlp = Mlp(embed_dim, embed_dim * mlp_ratio, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        x = add(x, self.attn(self.norm1(x)))
        return add(x, self.mlp(self.norm2(x)))


class TransformerEncoder(Module):
    """Stack of pre-norm blocks followed by a final LayerNorm; depth 0 is norm only."""

    def __init__(self, embed_dim: int, num_heads: int, depth: int,
                 mlp_ratio: int = 4, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        if depth < 0:
            raise ValueError("depth must be >= 0")
        rng = _default_rng(rng)
        self.blocks = [EncoderBlock(embed_dim, num_heads, mlp_ratio, rng=rng, dtype=dtype)
                       for _ in range(depth)]
        self.norm = LayerNorm(embed_dim, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of [K,N] logits against integer labels.

    Computed through log-sum-exp; the gradient is (softmax - onehot) / K.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or logits.ndim != 2 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"logits {logits.shape} and labels {y.shape} do not align")
    n_classes = logits.shape[1]
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes}): {y}")
    y = y.astype(np.int64)
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    k = z.shape[0]
    loss = float((lse[:, 0] - z[np.arange(k), y]).mean())

    def backward(g: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        gs = float(np.asarray(g).reshape(-1)[0])
        p = np.exp(z - lse)
        p[np.arange(k), y] -= 1.0
        logits._accumulate((p * (gs / k)).astype(logits.dtype))

    return _node(np.asarray(loss, dtype=logits.dtype), (logits,), backward, "cross_entropy")

