"""Kernels and copy paths against the routines they replaced.

``oracle_conv3d`` is the earlier whole-matrix im2col kernel with its col2im
backward, ``oracle_maxpool3d`` the earlier sliding-window argmax kernel,
``oracle_adaptive_avg_pool3d`` the earlier prefix-sum pooling with its
per-bin gradient scatter, and ``oracle_norm`` the earlier composite graph
(mean, sub, mul, mean, add, sqrt, div, then reshape, mul, add for the affine
part), kept here verbatim in substance; ``_sqrt``, ``_sub``, ``_div`` and
``_mean`` are the nodes of that graph that no model records, so the tensor
engine does not have them.  ``_leaky_relu`` is the activation node that
the conv3d and conv-norm-pool nodes took in; every oracle below that stands
for one of them ends in it.  ``oracle_bn_eval`` is BatchNorm's earlier eval
graph (sub, div, mul, add) over its running statistics.  ``oracle_norm_max_pool``
is the earlier norm-and-max-pool node, which read a whole conv output, and
``oracle_norm_pool`` the norm layers' forward that fed it; with
``oracle_conv3d`` before them they are the unfused ConvNet3D-4 block that
the conv-norm-pool node replaced; ``oracle_conv3d``, ``oracle_norm`` and
``oracle_maxpool3d`` are the block before that.  The tiled conv, fused with
its leaky ReLU, must match the oracle under ``_leaky_relu`` to rounding, and
the averaging-matrix pooling its oracle.  The node's window max
(``nn._window_max``) and winner search (``nn._pool_winners``) must match
``oracle_maxpool3d`` bit for bit.  Layer norm's fused node's forward must too;
its closed-form gradients must match to rounding.  The conv-norm-pool node
must match normalize-then-pool under ``_leaky_relu`` through a delta weight
(the conv returns x), forward bit for bit where one tile holds the
statistics, and the unfused block to rounding (its tiled statistics change
low bits), forward included.

``oracle_trunc_normal`` and ``oracle_kaiming_normal`` draw a whole
parameter in one float64 call, ``oracle_patchify`` pads the volume and
transposes it into tokens, and ``oracle_save_checkpoint`` joins every
tensor's bytes in one ``bytearray``.  Their blocked and one-copy successors
must give the same bits, the same generator state and the same file bytes.
"""

import ast
import contextlib
import itertools
import json
import math
import multiprocessing
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from voxformer import data as D
from voxformer import models as M
from voxformer import nn
from voxformer import train as TR
from voxformer.gradcheck import gradcheck
from voxformer.optim import TrainConfig
from voxformer.tensor import (AutodiffError, ShapeError, Tensor, _binary, _node, _unary, add,
                              gelu, mul, no_grad, reshape)
from voxformer.verify import delta_weight


# ---------------------------------------------------------------------------
# oracles

def _oracle_windows(a, kernel, stride, out_sp):
    for offs in itertools.product(*(range(k) for k in kernel)):
        yield a[(slice(None), slice(None))
                + tuple(slice(o, o + stride * n, stride) for o, n in zip(offs, out_sp))]


def oracle_conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                  stride: int = 1, padding: int = 0) -> Tensor:
    n, cin, d, h, w = x.shape
    cout, cw, kd, kh, kw = weight.shape
    kernel = (kd, kh, kw)
    out_sp = nn.conv3d_output_extents((d, h, w), kernel, stride, padding)
    pd = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (pd, pd), (pd, pd))) if pd else x.data
    # im2col: row (ci, tap) of the [N, Cin*k3, P] columns is tap's window of channel ci
    cols = np.empty((n, cin * kd * kh * kw, math.prod(out_sp)), dtype=xp.dtype)
    taps = cols.reshape(n, cin, kd * kh * kw, *out_sp)
    for i, window in enumerate(_oracle_windows(xp, kernel, stride, out_sp)):
        taps[:, :, i] = window
    wm = weight.data.reshape(cout, -1)
    out = np.matmul(wm, cols)                          # [N, Cout, P]
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(n, cout, *out_sp)
    parents = (x, weight) if bias is None else (x, weight, bias)
    padded_sp = xp.shape[2:]

    def backward(g: np.ndarray) -> None:
        gm = g.reshape(n, cout, -1)
        if weight.requires_grad:
            gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gm.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(wm.T, gm)                # [N, Cin*k3, P]
            dtaps = dcols.reshape(n, cin, kd * kh * kw, *out_sp)
            dxp = np.zeros((n, cin) + padded_sp, dtype=g.dtype)
            # col2im: each tap's columns add back into the window they came from
            for i, window in enumerate(_oracle_windows(dxp, kernel, stride, out_sp)):
                window += dtaps[:, :, i]
            if pd:
                dxp = dxp[:, :, pd:pd + d, pd:pd + h, pd:pd + w]
            x._accumulate(dxp)

    return _node(out, parents, backward, "conv3d")


def oracle_maxpool3d(x: Tensor, kernel: int = 3, stride: int | None = None,
                     return_indices: bool = False):
    k = int(kernel)
    s = k if stride is None else int(stride)
    n, c, d, h, w = x.shape
    do, ho, wo = nn.maxpool3d_output_extents((d, h, w), k, s)
    win = sliding_window_view(x.data, (k, k, k), axis=(2, 3, 4))[:, :, ::s, ::s, ::s]
    wf = win.reshape(n, c, do, ho, wo, k * k * k)
    arg = wf.argmax(axis=-1)
    out = np.take_along_axis(wf, arg[..., None], axis=-1)[..., 0]
    off_d = arg // (k * k)
    off_h = (arg // k) % k
    off_w = arg % k
    dd = np.arange(do)[:, None, None] * s + off_d
    hh = np.arange(ho)[None, :, None] * s + off_h
    ww = np.arange(wo)[None, None, :] * s + off_w
    spatial_idx = (dd * h + hh) * w + ww

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        base = (np.arange(n)[:, None, None, None, None] * c
                + np.arange(c)[None, :, None, None, None]) * (d * h * w)
        lin = (base + spatial_idx).reshape(-1)
        dx = np.bincount(lin, weights=g.reshape(-1).astype(np.float64), minlength=x.size)
        x._accumulate(dx.reshape(x.shape).astype(x.dtype))

    out_t = _node(np.ascontiguousarray(out), (x,), backward, "maxpool3d")
    if return_indices:
        return out_t, spatial_idx
    return out_t


def _adaptive_bounds(length: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(out)
    starts = (i * length) // out
    ends = -((-(i + 1) * length) // out)                   # ceil
    return starts, ends


def oracle_adaptive_avg_pool3d(x: Tensor, output: tuple[int, int, int]) -> Tensor:
    n, c, d, h, w = x.shape
    od, oh, ow = output
    for ext, o in zip((d, h, w), output):
        if ext < o:
            raise ShapeError(f"adaptive_avg_pool3d cannot expand extent {ext} to {o}")
    bounds = [_adaptive_bounds(d, od), _adaptive_bounds(h, oh), _adaptive_bounds(w, ow)]

    def pool_axis(arr: np.ndarray, axis: int, starts, ends) -> np.ndarray:
        ps = np.concatenate([np.zeros_like(arr.take([0], axis=axis)),
                             np.cumsum(arr, axis=axis)], axis=axis)
        sums = ps.take(ends, axis=axis) - ps.take(starts, axis=axis)
        shape = [1] * arr.ndim
        shape[axis] = len(starts)
        return sums / (ends - starts).reshape(shape)

    out = x.data
    for axis, (starts, ends) in zip((2, 3, 4), bounds):
        out = pool_axis(out, axis, starts, ends)

    def unpool_axis(g: np.ndarray, axis: int, starts, ends, full: int) -> np.ndarray:
        shape = list(g.shape)
        shape[axis] = full
        buf = np.zeros(shape, dtype=g.dtype)
        idx_out = [slice(None)] * g.ndim
        idx_in = [slice(None)] * g.ndim
        for i, (s0, e0) in enumerate(zip(starts, ends)):
            idx_out[axis] = slice(s0, e0)
            idx_in[axis] = slice(i, i + 1)
            buf[tuple(idx_out)] += g[tuple(idx_in)] / (e0 - s0)
        return buf

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        for axis, (starts, ends), full in zip((4, 3, 2), bounds[::-1], (w, h, d)):
            g = unpool_axis(g, axis, starts, ends, full)
        x._accumulate(g)

    return _node(np.ascontiguousarray(out.astype(x.dtype)), (x,), backward, "adaptive_avg_pool3d")


def _leaky_relu(a: Tensor) -> Tensor:
    """max(LEAKY_SLOPE*x, x), subgradient 1 at x == 0."""
    one, kk = a.dtype.type(1), a.dtype.type(nn.LEAKY_SLOPE)
    out = a.data * kk
    return _unary(a, "leaky_relu", np.maximum(a.data, out, out=out),
                  lambda g: g * np.where(a.data >= 0, one, kk))


def _sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _unary(a, "sqrt", out, lambda g: g * 0.5 / out)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def _div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "div", np.divide,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _mean(a: Tensor, axes) -> Tensor:
    """The mean over ``axes``, which stay as extent-1 axes."""
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out = np.asarray(a.data.mean(axis=axes, keepdims=True), dtype=a.dtype)
    return _unary(a, "mean", out, lambda g: np.broadcast_to(g, a.shape) / count)


def oracle_norm(x: Tensor, gamma, beta, axes, channel_axis):
    mu = _mean(x, axes)
    xc = _sub(x, mu)
    var = _mean(mul(xc, xc), axes)
    xhat = _div(xc, _sqrt(add(var, nn.NORM_EPS)))
    shape = [1] * xhat.ndim
    shape[channel_axis] = gamma.size
    return add(mul(xhat, reshape(gamma, shape)), reshape(beta, shape))


def oracle_bn_eval(x: Tensor, gamma, beta, running_mean, running_var):
    shape = (1, gamma.size, 1, 1, 1)
    mu = Tensor(running_mean.reshape(shape))
    sd = Tensor(np.sqrt(running_var.reshape(shape) + x.dtype.type(nn.NORM_EPS)))
    return add(mul(_div(_sub(x, mu), sd), reshape(gamma, shape)), reshape(beta, shape))


def oracle_norm_max_pool(x: Tensor, k: int, s: int, gamma: Tensor, beta: Tensor,
                         mean: np.ndarray, var: np.ndarray, axes) -> Tensor:
    """max-pool(gamma * x̂ + beta), x̂ = (x - mean) / sd, over a whole x:
    pools sign(gamma) * x a few channels at a time, keeps x, and writes dx
    in one full-size pass."""
    xd, dt = x.data, x.dtype
    n, c, d, h, w = x.shape
    out_sp = nn.maxpool3d_output_extents((d, h, w), k, s)
    shape = (1, c, 1, 1, 1)
    scale, shift = gamma.data.reshape(shape), beta.data.reshape(shape)
    sign = np.sign(scale)
    sd = np.sqrt(var + dt.type(nn.NORM_EPS))
    z = np.empty((n, c) + out_sp, dt)
    base = (np.arange(n * c) * (d * h * w)).reshape(n, c, 1, 1, 1)
    lin = np.empty(z.shape, np.int64)
    for ch in nn._channel_chunks(xd):
        xs = xd[:, ch] * sign[:, ch]
        z[:, ch] = nn._window_max(xs, k, s)
        lin[:, ch] = base[:, ch] + nn._pool_winners(xs, z[:, ch], k, s)
    z *= sign
    xhat = np.divide(np.subtract(z, mean, out=z), sd, out=z)
    out = xhat * scale + shift
    if not sign.all():
        zero = sign.reshape(-1) == 0
        first = (xd.reshape(-1)[lin[:, zero]] - mean[:, zero]) / sd[:, zero]
        xhat[:, zero] = np.where(np.isnan(xhat[:, zero]), xhat[:, zero], first)
    inv = 1 / sd
    others = (0, 2, 3, 4)

    def backward(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=others))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=others))
        if not x.requires_grad:
            return
        gs = g * scale * inv
        if axes is None:
            dx = np.zeros(x.shape, dt)
        else:
            count = math.prod(x.shape[ax] for ax in axes)
            m1 = gs.sum(axis=axes, keepdims=True) / count
            m2 = (gs * xhat).sum(axis=axes, keepdims=True) / count
            dx = np.subtract(xd, mean)
            dx *= -m2 * inv
            dx -= m1
        np.add.at(dx.reshape(-1), lin.reshape(-1), gs.reshape(-1))
        x._accumulate(dx)

    return _node(out, (x, gamma, beta), backward, "maxpool3d")


def oracle_norm_pool(layer, y: Tensor, k: int, s: int) -> Tensor:
    """An ``InstanceNorm3d`` or ``BatchNorm3d`` layer's pooled forward on a
    whole input y: ``nn.moments`` of y, the node above, and BatchNorm's
    running update."""
    if isinstance(layer, nn.BatchNorm3d) and not layer.training:
        shape = (1, layer.num_features, 1, 1, 1)
        return oracle_norm_max_pool(y, k, s, layer.gamma, layer.beta,
                                    layer.running_mean.data.reshape(shape),
                                    layer.running_var.data.reshape(shape), None)
    axes = (0, 2, 3, 4) if isinstance(layer, nn.BatchNorm3d) else (2, 3, 4)
    mean, var = nn.moments(y.data, axes)
    out = oracle_norm_max_pool(y, k, s, layer.gamma, layer.beta, mean, var, axes)
    if 0 in axes:
        count = y.size // layer.num_features
        var = var.reshape(-1) * count / (count - 1)
        m = nn.BN_MOMENTUM
        layer.running_mean.data = ((1 - m) * layer.running_mean.data
                                   + m * mean.reshape(-1)).astype(y.dtype)
        layer.running_var.data = ((1 - m) * layer.running_var.data + m * var).astype(y.dtype)
    return out


# ---------------------------------------------------------------------------
# tiled conv3d against whole-matrix im2col

def _fused_both(x, w, b, stride, padding):
    """Every output of _leaky_relu(oracle_conv3d(...)) and of the fused
    conv3d(...): y and the x, weight and bias gradients."""
    results = []
    for fused in (False, True):
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        if fused:
            out = nn.conv3d(xt, wt, bt, stride=stride, padding=padding)
        else:
            out = _leaky_relu(oracle_conv3d(xt, wt, bt, stride=stride, padding=padding))
        g = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(g)).sum().backward()
        results.append([out.data, xt.grad, wt.grad, bt.grad])
    return results


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [(3, 3, 3), (3, 2, 1)])
def test_tiled_conv3d_matches_im2col_oracle(kernel, stride, padding, batch, dtype,
                                            monkeypatch):
    rng = np.random.default_rng(stride * 10 + padding)
    cin, cout, extents = 3, 4, (11 if stride == 1 else 15, 6, 7)
    x = rng.standard_normal((batch, cin) + extents).astype(dtype)
    w = rng.standard_normal((cout, cin) + kernel).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    do, ho, wo = nn.conv3d_output_extents(extents, kernel, stride, padding)
    # 2 or 3 output planes per tile: at least three tiles per sample, a
    # partial last one, and neighbouring tiles whose input slabs overlap,
    # since kd > stride
    planes = 2 if do % 2 else 3
    assert do % planes and do > 2 * planes
    monkeypatch.setattr(nn, "_TILE", planes * cin * math.prod(kernel) * ho * wo + 1)
    oracle, fused = _fused_both(x, w, b, stride, padding)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, ref in zip(fused, oracle):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


def _column_bytes(x, w, stride, padding):
    out_sp = nn.conv3d_output_extents(x.shape[2:], w.shape[2:], stride, padding)
    return x.shape[0] * w[0].size * math.prod(out_sp) * x.itemsize


def test_no_grad_conv3d_peak_is_below_its_column_matrix():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 16, 40, 36, 36)).astype(np.float32)
    w = rng.standard_normal((4, 16, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    cols = _column_bytes(x, w, 1, 1)
    assert cols >= 8 * nn._TILE * x.itemsize
    tracemalloc.start()
    try:
        with no_grad():
            out = nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 4, 40, 36, 36)
    assert peak < cols, (peak / 1e6, cols / 1e6)


def test_no_grad_padded_conv3d_peak_is_its_output_and_tiles(monkeypatch):
    """No padded copy of the input: with padding 1, a no-grad conv allocates
    its output, its column tile and the leaky ReLU's output tile, and less than
    a quarter of the input beside (the padded input is 1.3x the input)."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    rows, plane = 4 * 27, 16 * 16
    monkeypatch.setattr(nn, "_TILE", 2 * rows * plane)       # two output planes per tile
    tiles = (2 * rows * plane + 4 * 2 * plane) * x.itemsize
    tracemalloc.start()
    try:
        with no_grad():
            out = nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 4, 64, 16, 16)
    assert peak < out.data.nbytes + tiles + x.nbytes / 4, (peak, out.data.nbytes, x.nbytes)


def _reachable_arrays(fn) -> list[np.ndarray]:
    """Every array the closure of ``fn`` and of the closures it holds can reach."""
    pending, seen, arrays = [fn], set(), []
    while pending:
        f = pending.pop()
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif callable(v) and getattr(v, "__closure__", None) and id(v) not in seen:
                seen.add(id(v))
                pending.append(v)
    return arrays


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_computes_its_density_in_the_backward(dtype):
    """gelu's node holds its input and the normal CDF, no third
    input-sized array; the backward computes the density and gives the
    bytes of the closed form g * (cdf + x * pdf)."""
    rng = np.random.default_rng(3)
    x = Tensor((rng.standard_normal((3, 5, 7)) * 3).astype(dtype), requires_grad=True)
    out = gelu(x)
    held = [a for a in _reachable_arrays(out._backward_fn) if a.size == x.size]
    assert len(held) == 2 and any(a is x.data for a in held)
    g = rng.standard_normal(x.shape).astype(dtype)
    (out * Tensor(g)).sum().backward()
    xd = x.data
    cdf = 0.5 * (1.0 + special.erf(xd * dtype(1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * xd * xd) * dtype(1.0 / np.sqrt(2.0 * np.pi))
    assert x.grad.dtype == dtype and x.grad.tobytes() == (g * (cdf + xd * pdf)).tobytes()


def test_recorded_conv3d_node_holds_no_column_sized_array(monkeypatch):
    monkeypatch.setattr(nn, "_TILE", 4096)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 8, 9, 10, 11)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 8, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    out = nn.conv3d(x, w, b, stride=1, padding=1)
    cols = _column_bytes(x.data, w.data, 1, 1)
    largest = max((a.nbytes for a in _reachable_arrays(out._backward_fn)), default=0)
    assert 0 < largest < cols / 8, (largest, cols)


def test_recorded_fused_conv3d_node_holds_output_mask_and_input(monkeypatch):
    """The node keeps y (its data), x (a parent) and a bool mask of
    pre-activation >= 0: no float array the size of the pre-activation or
    of the padded input.  The mask is checked against the oracle's
    pre-activation, not against y >= 0, which differs where the
    pre-activation underflows (see the test below)."""
    monkeypatch.setattr(nn, "_TILE", 4096)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 8, 9, 10, 11)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 8, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    out = nn.conv3d(x, w, b, stride=1, padding=1)
    assert out._parents == (x, w, b)
    arrays = _reachable_arrays(out._backward_fn)
    masks = [a for a in arrays if a.dtype == bool]
    floats = [a for a in arrays if a.dtype.kind == "f"]
    with no_grad():
        pre = oracle_conv3d(Tensor(x.data), Tensor(w.data), Tensor(b.data), 1, 1).data
    assert len(masks) == 1 and np.array_equal(masks[0].reshape(out.shape), pre >= 0)
    padded = x.shape[0] * x.shape[1] * math.prod(e + 2 for e in x.shape[2:])
    assert floats and max(a.size for a in floats) < min(out.size, padded)


def test_conv3d_mask_is_not_read_from_an_underflowing_output():
    """A float32 pre-activation of -1.4e-45 (the one nonzero product) is
    below 0, so its gradient factor is LEAKY_SLOPE; but LEAKY_SLOPE times it
    underflows to -0.0, so y there is -0.0 and y >= 0 holds.  The mask
    cannot be read back from y."""
    x = np.zeros((1, 1, 3, 3, 3), np.float32)
    x[0, 0, 1, 1, 1] = -np.float32(1.4e-45)
    xt = Tensor(x, requires_grad=True)
    out = nn.conv3d(xt, delta_weight(1), Tensor(np.zeros(1, np.float32)), stride=1, padding=1)
    y = out.data[0, 0, 1, 1, 1]
    assert y == 0 and np.signbit(y) and (out.data >= 0).all()
    (out * 9.0).sum().backward()
    want = np.full(x.shape, 9.0, np.float32)
    want[0, 0, 1, 1, 1] = np.float32(9.0) * np.float32(nn.LEAKY_SLOPE)      # 1.8000001
    assert xt.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("extents", [(15, 6, 7), (16, 7, 6)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_fused_conv3d_leaky_relu_matches_composite(extents, stride, padding, batch, dtype,
                                                   monkeypatch):
    """conv3d(...) matches the whole-matrix oracle under _leaky_relu
    to rounding, forward and gradients (a GEMM's bits depend on how its
    columns are split, and the weight gradient sums tile by tile).  Odd
    extents make a stride-2 last window end in the padding, even ones
    before it.  Output channel 1 has zero weights and bias (pre-activation
    +0), channel 2 has -0 weights and bias (a GEMM sum of -0 products is
    +0 or -0 by the library), and one NaN voxel makes NaN pre-activations."""
    rng = np.random.default_rng(stride * 10 + padding)
    cin, cout = 3, 4
    x = rng.standard_normal((batch, cin) + extents).astype(dtype)
    x[0, 0, 4, 2, 3] = np.nan
    w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    w[1], b[1], w[2], b[2] = 0.0, 0.0, -0.0, -0.0
    do, ho, wo = nn.conv3d_output_extents(extents, (3, 3, 3), stride, padding)
    planes = 2 if do % 2 else 3
    assert do % planes and do > 2 * planes
    monkeypatch.setattr(nn, "_TILE", planes * cin * 27 * ho * wo + 1)
    oracle, fused = _fused_both(x, w, b, stride, padding)
    with no_grad():
        pre = oracle_conv3d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
    assert (pre == 0).any() and np.isnan(pre).any() and (pre > 0).any() and (pre < 0).any()
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, ref in zip(fused, oracle):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.nanmax(np.abs(ref)))


# ---------------------------------------------------------------------------
# conv3d's forward lanes

two_lanes = pytest.mark.skipif(nn._lanes() < 2, reason="two lanes need OpenBLAS's thread-count "
                                                       "setter and two usable cores")


def _lane_conv(x, w, b, stride, padding, record, lanes, monkeypatch):
    """conv3d in ``lanes`` lanes: the bytes of its output, its mask and,
    when ``record``, the input, weight and bias gradients."""
    monkeypatch.setattr(nn, "_lanes", lambda: lanes)
    xt, wt, bt = (Tensor(a.copy(), requires_grad=record) for a in (x, w, b))
    with contextlib.nullcontext() if record else no_grad():
        out = nn.conv3d(xt, wt, bt, stride=stride, padding=padding)
    got = [out.data]
    if record:
        got += [a for a in _reachable_arrays(out._backward_fn) if a.dtype == bool]
        g = np.random.default_rng(2).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(g)).sum().backward()
        got += [xt.grad, wt.grad, bt.grad]
    return [a.tobytes() for a in got]


@two_lanes
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("padding", [1, 0], ids=["0.2", "0.2-unpadded"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("record", [False, True], ids=["no_grad", "recorded"])
def test_conv3d_bytes_do_not_depend_on_the_lane_count(record, cin, stride, padding, batch,
                                                      dtype, monkeypatch):
    """One lane and two give the same bytes: output, mask and every
    gradient, with and without padding.  Each sample's 9 output planes
    make 3 spans, an odd count."""
    rng = np.random.default_rng(cin * 10 + stride)
    extents = tuple(e + 2 - 2 * padding for e in ((9, 5, 6) if stride == 1 else (17, 9, 11)))
    do, ho, wo = nn.conv3d_output_extents(extents, (3, 3, 3), stride, padding)
    assert do == 9
    x = rng.standard_normal((batch, cin) + extents).astype(dtype)
    w = rng.standard_normal((4, cin, 3, 3, 3)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    monkeypatch.setattr(nn, "_TILE", 2 * 3 * cin * 27 * ho * wo)
    ran, in_lanes = [], nn._in_lanes

    def spy(lane, spans):
        made = []
        in_lanes(lambda: made.append(1) or lane(), spans)
        ran.append((len(made), len(spans)))

    monkeypatch.setattr(nn, "_in_lanes", spy)
    one = _lane_conv(x, w, b, stride, padding, record, 1, monkeypatch)
    two = _lane_conv(x, w, b, stride, padding, record, 2, monkeypatch)
    assert ran == [(1, 3 * batch), (2, 3 * batch)]
    assert len(one) == 1 + 4 * record
    assert one == two


@contextlib.contextmanager
def _blas_threads_set_to(count):
    get, put = nn._BLAS_THREADS
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


@two_lanes
def test_conv3d_lanes_pin_blas_and_leave_no_thread(monkeypatch):
    """Inside the lanes OpenBLAS runs one thread; afterwards its count is
    the one before and the lanes' thread is gone, also when the second
    lane's fill raises, which conv3d then raises again as itself."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((1, 2, 12, 6, 6)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
    b = Tensor(rng.standard_normal(3).astype(np.float32))
    monkeypatch.setattr(nn, "_TILE", 2 * 2 * 27 * 36)       # one plane per span: 12 spans
    get = nn._BLAS_THREADS[0]
    caller, boom, raised = threading.get_ident(), RuntimeError("second lane"), threading.Event()
    counts, failing = [], []
    im2col = nn._im2col

    def spied_im2col(*args):
        out_sp, rows, fill, scatter = im2col(*args)

        def spy(buf, i, z0, z1):
            counts.append(get())
            if failing and threading.get_ident() != caller:
                raised.set()
                raise boom
            if failing:                 # the second lane takes a span before this one ends
                assert raised.wait(timeout=60)
            return fill(buf, i, z0, z1)

        return out_sp, rows, spy, scatter

    monkeypatch.setattr(nn, "_im2col", spied_im2col)
    with _blas_threads_set_to(2):
        threads = threading.active_count()
        nn.conv3d(x, w, b, stride=1, padding=1)
        assert len(counts) == 12 and set(counts) == {1}
        assert get() == 2 and threading.active_count() == threads
        failing.append(True)
        with pytest.raises(RuntimeError) as info:
            nn.conv3d(x, w, b, stride=1, padding=1)
        assert info.value is boom and raised.is_set()
        assert get() == 2 and threading.active_count() == threads


@two_lanes
def test_blas_at_one_thread_runs_one_lane(tmp_path, monkeypatch):
    """With OpenBLAS at one thread (a user's ``OPENBLAS_NUM_THREADS=1``, or
    a call made inside another lanes region) conv3d and synth start no
    thread and give the bytes they give in two lanes."""
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((1, 2, 12, 6, 6)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
    b = Tensor(rng.standard_normal(3).astype(np.float32))
    monkeypatch.setattr(nn, "_TILE", 2 * 2 * 27 * 36)       # one plane per span: 12 spans
    cfg = D.SynthConfig(n_subjects=3, sessions_per_subject=1, extents=(9, 10, 11))
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))

    def run(name):
        D.synth_generate(tmp_path / name, cfg)
        files = [f.read_bytes() for f in sorted((tmp_path / name).iterdir())]
        return nn.conv3d(x, w, b, stride=1, padding=1).data.tobytes(), files

    with _blas_threads_set_to(2):
        two = run("two")
        assert len(started) == 2                # synth's first pair and the conv
        nested = []                             # each lane's synth and conv3d run inline
        nn._in_lanes(lambda: lambda todo: nested.extend(run(f"in{i}") for i in todo), [0, 1])
        assert len(started) == 3 and nested == [two, two]
    with _blas_threads_set_to(1):
        assert run("one") == two and len(started) == 3


def _cvvt_logits(batch: int) -> bytes:
    model = M.build_model(M.build_config("cvvt", extents=(24, 24, 24)), seed=0).eval()
    x = np.random.default_rng(0).standard_normal((batch, 1, 24, 24, 24)).astype(np.float32)
    with no_grad():
        return model(Tensor(x)).data.tobytes()


@two_lanes
def test_cvvt_forward_bytes_do_not_depend_on_the_blas_count():
    """CVVT's forward runs OpenBLAS at one thread from end to end, so its
    logits at the process's thread count are those at one thread; outside
    that scope, ``token_embed``'s GEMM gives other bytes at two threads."""
    assert nn._BLAS_THREADS[0]() >= 2
    default = _cvvt_logits(2)
    with _blas_threads_set_to(1):
        assert _cvvt_logits(2) == default


@two_lanes
def test_cvvt_forward_pins_blas_and_keeps_two_lanes(monkeypatch):
    """Inside CVVT's forward OpenBLAS runs one thread, while each conv stage
    still runs two lanes, decided from the caller's count; a forward
    entered at one thread runs one lane.  Afterwards the caller's count is
    back, also when a stage raises."""
    monkeypatch.setattr(nn, "_TILE", 1 << 12)          # several spans per stage
    model = M.build_model(M.build_config("cvvt", extents=(24, 24, 24)), seed=0).eval()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 24, 24, 24)).astype(np.float32))
    get = nn._BLAS_THREADS[0]
    seen, started, conv3d, start = [], [], nn.conv3d, threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))

    def spy(*args, **kwargs):
        before = len(started)
        out = conv3d(*args, **kwargs)
        seen.append((nn._lanes(), get(), len(started) - before))
        return out

    monkeypatch.setattr(nn, "conv3d", spy)
    with _blas_threads_set_to(2):
        model(x)
        assert seen == [(2, 1, 1)] * len(model.stages) and get() == 2
    seen.clear()
    with _blas_threads_set_to(1):
        model(x)
        assert seen == [(1, 1, 0)] * len(model.stages) and get() == 1
    boom = RuntimeError("last stage")

    def fail(h):
        raise boom

    model.stages[-1].forward = fail
    with _blas_threads_set_to(2):
        with pytest.raises(RuntimeError) as info:
            model(x)
        assert info.value is boom and get() == 2
    with _blas_threads_set_to(1):      # no count is left recorded from the failed forward
        assert nn._lanes() == 1


def _conv_in_child(conn, x, w, b):
    conn.send_bytes(nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data.tobytes())
    conn.close()


@two_lanes
def test_forked_child_runs_conv3d_after_two_lanes(monkeypatch):
    """A child forked after the parent ran two lanes (as ``grid --threads``
    forks its workers) runs the same conv, in two lanes of its own, to the
    parent's bytes."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 1, 12, 10, 10)).astype(np.float32)
    w = rng.standard_normal((4, 1, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    monkeypatch.setattr(nn, "_TILE", 2 * 2 * 27 * 100)      # two planes per span
    parent = nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data.tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_conv_in_child, args=(send, x, w, b))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child's conv3d did not finish within 60 s"
        got = recv.recv_bytes()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert got == parent


_THREAD_MAKERS = ("Thread", "Timer", "ThreadPoolExecutor", "ThreadPool", "start_new_thread",
                  "start_new")


def _thread_starts(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each call in ``source`` that makes a
    thread (a ``Thread``, a ``Timer``, a thread pool or ``_thread``'s
    starts), and of each executor, pool, thread or timer made at module
    level, where the function reads ``<module>``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                made_at_import = where == "<module>" and name.endswith(
                    ("Executor", "Pool") + _THREAD_MAKERS)
                if name in _THREAD_MAKERS or made_at_import:
                    found.append((child.lineno, where))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, "<lambda>" if isinstance(child, ast.Lambda) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_threads_start_only_in_the_lanes_helper():
    """No module of the package makes a thread outside ``nn._in_lanes``,
    and none holds an executor, pool or thread made at import: a forked
    ``grid --threads`` worker would inherit it without its threads."""
    assert _thread_starts(
        "import threading\n"
        "def _in_lanes():\n    threading.Thread(target=f).start()\n"
        "POOL = ThreadPoolExecutor(2)\n"
        "class C:\n    pool = multiprocessing.Pool(2)\n"
        "def grid():\n    ProcessPoolExecutor(2)\n    _thread.start_new_thread(g, ())\n"
        "late = lambda: threading.Timer(1, g)\n"
        "EXEC = concurrent.futures.ProcessPoolExecutor()\n") == [
        (3, "_in_lanes"), (4, "<module>"), (6, "<module>"), (9, "grid"), (10, "<lambda>"),
        (11, "<module>")]
    src = Path(nn.__file__).parent
    found = {m.name: _thread_starts(m.read_text()) for m in sorted(src.glob("*.py"))}
    assert len(found) > 5
    assert {name: [w for _, w in f] for name, f in found.items() if f} == {"nn.py": ["_in_lanes"]}


def _blas_setter_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each call in ``source`` of OpenBLAS's
    thread-count setter: ``_BLAS_THREADS[1]``, a name bound to it (``put =
    _BLAS_THREADS[1]``, or the second of ``get, put = _BLAS_THREADS``), or
    a function whose name holds ``set_num_threads``."""
    tree = ast.parse(source)

    def table(n):
        return getattr(n, "id", getattr(n, "attr", None)) == "_BLAS_THREADS"

    def setter(n):
        return (isinstance(n, ast.Subscript) and table(n.value)
                and isinstance(n.slice, ast.Constant) and n.slice.value == 1)

    aliases = set()
    for a in (n for n in ast.walk(tree) if isinstance(n, ast.Assign)):
        for t in a.targets:
            if isinstance(t, ast.Name) and setter(a.value):
                aliases.add(t.id)
            elif isinstance(t, ast.Tuple) and table(a.value) and isinstance(t.elts[1], ast.Name):
                aliases.add(t.elts[1].id)
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", getattr(f, "attr", ""))
                if setter(f) or name in aliases or "set_num_threads" in name:
                    found.append((child.lineno, where))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, "<lambda>" if isinstance(child, ast.Lambda) else where)

    visit(tree, "<module>")
    return found


def test_blas_count_is_set_only_in_the_scope():
    """Only ``nn.one_blas_thread`` sets OpenBLAS's thread count, so no
    region can leave it changed or change it under a running scope."""
    assert _blas_setter_calls(
        "def scope():\n    get, put = _BLAS_THREADS\n    put(1)\n"
        "def reader():\n    return _BLAS_THREADS[0]()\n"
        "def other():\n    nn._BLAS_THREADS[1](2)\n"
        "def alias():\n    setter = _BLAS_THREADS[1]\n    setter(4)\n"
        "late = lambda: _BLAS_THREADS[1](1)\n"
        "lib.scipy_openblas_set_num_threads64_(1)\n") == [
        (3, "scope"), (7, "other"), (10, "alias"), (11, "<lambda>"), (12, "<module>")]
    src = Path(nn.__file__).parent
    found = {m.name: _blas_setter_calls(m.read_text()) for m in sorted(src.glob("*.py"))}
    assert len(found) > 5
    assert {name: {w for _, w in f} for name, f in found.items() if f} == {
        "nn.py": {"one_blas_thread"}}


# ---------------------------------------------------------------------------
# max-pool: bit-exact

def _pool_input(shape, dtype, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":                       # integer values: most windows tie
        return rng.integers(0, 3, size=shape).astype(dtype)
    if kind == "zeros":                      # +0 and -0 compare equal
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


def _max_pooled(x: Tensor, k: int, s: int) -> Tensor:
    """The conv-norm-pool node as a max-pool of finite x scaled by 1/sd: a
    delta conv weight, and BatchNorm in eval at running mean 0 and var 1."""
    bn = nn.BatchNorm3d(x.shape[1], x.dtype).eval()
    return bn(x, delta_weight(x.shape[1], x.dtype), (k, s))


@pytest.mark.parametrize("kind", ["normal", "ties", "zeros"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 7, 8, 9), (1, 2, 9, 5, 11)])
@pytest.mark.parametrize("k,s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_maxpool_matches_oracle_bit_for_bit(k, s, shape, dtype, kind):
    """The node's window max and winner search against the sliding-window
    argmax; the node's gradient routing is checked against it through a
    delta weight in ``test_norm_max_pool_matches_normalize_then_pool``."""
    x = _pool_input(shape, dtype, kind, seed=k * 10 + s)
    o_out, o_idx = oracle_maxpool3d(Tensor(x), k, s, return_indices=True)
    out = nn._window_max(x, k, s)
    assert out.dtype == o_out.dtype
    np.testing.assert_array_equal(out.view(np.uint8), o_out.data.view(np.uint8))
    np.testing.assert_array_equal(nn._pool_winners(x, out, k, s), o_idx)


def test_maxpool_no_grad_matches_oracle():
    x = _pool_input((1, 4, 10, 10, 10), np.float32, "ties", seed=5)
    with no_grad():
        out = _max_pooled(Tensor(x, requires_grad=True), 3, 2)
        ref = oracle_maxpool3d(Tensor(x), 3, 2)
    assert not out.requires_grad and out._backward_fn is None
    sd = np.sqrt(np.float32(1) + np.float32(nn.NORM_EPS))     # the node's sd at var 1
    np.testing.assert_array_equal(out.data, ref.data / sd)


def test_maxpool_kernel_out_of_range():
    for kernel, stride in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            _max_pooled(Tensor(np.zeros((1, 1, 3, 3, 3))), kernel, stride)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_nan_window_outputs_nan_and_routes_to_its_first_voxel(dtype):
    """At kernel level: a delta weight spreads a NaN voxel to its 3^3
    neighbourhood, so the node's NaN routing is checked with a conv in
    ``test_conv_norm_pool_matches_unfused_block``."""
    x = _pool_input((1, 2, 6, 6, 6), dtype, "normal", seed=9)
    x[0, 1, 4, 3, 5] = np.nan               # window (1, 1, 1) of channel 1 at k = s = 3
    out = nn._window_max(x, 3, 3)
    nan = np.isnan(out)
    assert nan.sum() == 1 and nan[0, 1, 1, 1, 1]
    win = nn._pool_winners(x, out, 3, 3)
    assert win[0, 1, 1, 1, 1] == (3 * 6 + 3) * 6 + 3      # the window's first voxel
    # every other window still routes to its max
    _, ref = oracle_maxpool3d(Tensor(np.nan_to_num(x, nan=-np.inf)), 3, 3, return_indices=True)
    np.testing.assert_array_equal(win[~nan], ref[~nan])


def test_pool_winners_peak_is_a_fraction_of_the_input():
    """The winner search holds output-sized arrays only: at 1x32x45^3 and
    stride 3 the three-stage search peaked at 0.90x the input bytes."""
    x = np.random.default_rng(12).standard_normal((1, 32, 45, 45, 45)).astype(np.float32)
    out = nn._window_max(x, 3, 3)
    tracemalloc.start()
    try:
        nn._pool_winners(x, out, 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * x.nbytes, peak / x.nbytes


# ---------------------------------------------------------------------------
# adaptive pooling: averaging matrices against prefix sums

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,output", [
    ((1, 3, 11, 13, 12), (10, 10, 10)),
    ((2, 3, 16, 16, 16), (10, 10, 10)),
    ((1, 2, 5, 6, 7), (2, 3, 2)),
    ((1, 2, 4, 5, 6), (4, 5, 6)),
    ((1, 2, 4, 5, 6), (1, 1, 1)),
], ids=["11x13x12_to_10", "16_to_10_batch2", "5x6x7_to_2x3x2", "identity", "to_1"])
def test_adaptive_pool_matches_prefix_sum_oracle(shape, output, dtype):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal(shape[:2] + output).astype(dtype)
    results = []
    for pool in (oracle_adaptive_avg_pool3d, nn.adaptive_avg_pool3d):
        t = Tensor(x.copy(), requires_grad=True)
        out = pool(t, output)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, t.grad))
    (ref_out, ref_grad), (out, grad) = results
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for a, ref in ((out, ref_out), (grad, ref_grad)):
        assert a.dtype == ref.dtype and a.shape == ref.shape
        np.testing.assert_allclose(a, ref, rtol=tol, atol=tol * np.abs(ref).max())


# ---------------------------------------------------------------------------
# fused layer normalization against the composite graph

def _norm_case(dtype):
    rng = np.random.default_rng(7)
    shape = (3, 5, 16)
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    params = [rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2)]
    proj = rng.standard_normal(shape).astype(dtype)
    return x, params, proj


def _run_norm(fn, x, params, proj):
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in [x] + params)
    out = fn(xt, gt, bt)
    (out * Tensor(proj)).sum().backward()
    return out.data, [xt.grad, gt.grad, bt.grad]


@pytest.mark.parametrize("affine", [True])      # every norm layer is affine
@pytest.mark.parametrize("kind", ["ln"])        # in and bn: the "unpooled" cases below
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_matches_composite_oracle(kind, affine, dtype):
    case = _norm_case(dtype)
    ref_out, ref_grads = _run_norm(lambda x, g, b: oracle_norm(x, g, b, (2,), 2), *case)
    out, grads = _run_norm(nn.normalize, *case)
    # the forward is the composite's arithmetic in the composite's order
    np.testing.assert_array_equal(out.view(np.uint8), ref_out.view(np.uint8))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == ref.dtype and g.shape == ref.shape
        np.testing.assert_allclose(g, ref, rtol=tol, atol=tol * np.abs(ref).max())


@pytest.mark.parametrize("layer", ["in", "bn", "ln"])
def test_norm_layers_use_the_fused_node(layer):
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4, 4, 4)).astype(np.float32),
               requires_grad=True)
    if layer == "ln":
        out = nn.LayerNorm(4)(x)
        assert out.op == "normalize" and out._parents[0] is x
    else:
        norm = nn.InstanceNorm3d(3) if layer == "in" else nn.BatchNorm3d(3)
        w = Tensor(np.ones((3, 3, 3, 3, 3), np.float32), requires_grad=True)
        out = norm(x, w, (3, 2))
        assert out.op == "maxpool3d" and out._parents == (x, w, norm.gamma, norm.beta)


# ---------------------------------------------------------------------------
# the conv-norm-pool node, through a delta weight, against normalize-then-pool

def _norm_pool_case(batch, extents, dtype):
    """Five channels: gamma < 0 in channel 1, +0 in 2, -0 in 3."""
    rng = np.random.default_rng(batch * 100 + extents[0])
    c = 5
    x = (rng.standard_normal((batch, c) + extents) * 2.0 + 0.5).astype(dtype)
    gamma, beta, running_mean = (rng.standard_normal(c).astype(dtype) for _ in range(3))
    gamma[1], gamma[2], gamma[3] = -abs(gamma[1]), 0.0, -0.0
    running_var = rng.uniform(0.5, 2.0, c).astype(dtype)
    return x, gamma, beta, running_mean, running_var


def _norm_pool_both(kind, x, gamma, beta, running_mean, running_var, k, s):
    """[output, dx, dgamma, dbeta] of the node, through the layer and a
    delta weight, and of the unfused graph on x, with the same projection
    of the output."""
    results = []
    for fused in (True, False):
        xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta))
        if kind == "in":
            layer = nn.InstanceNorm3d(x.shape[1], x.dtype)
        else:
            layer = nn.BatchNorm3d(x.shape[1], x.dtype)
            layer.running_mean.data[:], layer.running_var.data[:] = running_mean, running_var
            layer.train(kind == "bn")
        layer.gamma, layer.beta = gt, bt
        if fused:
            out = layer(xt, delta_weight(x.shape[1], x.dtype), (k, s))
        else:
            if kind == "bn_eval":
                y = oracle_bn_eval(xt, gt, bt, running_mean, running_var)
            else:
                y = oracle_norm(xt, gt, bt, (2, 3, 4) if kind == "in" else (0, 2, 3, 4), 1)
            out = _leaky_relu(oracle_maxpool3d(y, k, s))
        proj = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(proj)).sum().backward()
        results.append([out.data, xt.grad, gt.grad, bt.grad])
    return results


@pytest.mark.parametrize("extents", [(9, 10, 11)])     # neither stride divides them all
@pytest.mark.parametrize("kernel,stride", [(3, 2), (3, 3), (1, 1)],
                         ids=["2", "3", "unpooled"])    # unpooled: a 1^3 pool
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["in", "bn", "bn_eval"])
def test_norm_max_pool_matches_normalize_then_pool(kind, dtype, batch, kernel, stride, extents):
    """Through a delta weight the conv-norm-pool node normalizes and pools
    x itself.  Its forward has the bytes of normalize-then-pool where one
    tile holds the statistics; BatchNorm's batch of two merges the moments
    of two per-sample tiles, so there it matches to rounding."""
    x, gamma, beta, running_mean, running_var = _norm_pool_case(batch, extents, dtype)
    (out, *grads), (ref, *ref_grads) = _norm_pool_both(kind, x, gamma, beta, running_mean,
                                                       running_var, kernel, stride)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    tol = 1e-5 if dtype == np.float32 else 1e-12
    if kind == "bn" and batch == 2:
        np.testing.assert_allclose(out, ref, rtol=tol, atol=tol * np.abs(ref).max())
    else:
        np.testing.assert_array_equal(out.view(np.uint8), ref.view(np.uint8))
    for g, want in zip(grads, ref_grads):
        assert g.dtype == want.dtype and g.shape == want.shape
        np.testing.assert_allclose(g, want, rtol=tol, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("pool", [None, (3, 2)])       # None: a 1^3 pool
def test_batchnorm_running_stats_are_the_batch_moments(pool, batch):
    """The running update reads the mean and variance the node normalizes
    with: through a delta weight, numpy's mean and var of x over the batch,
    with their bytes for one sample (one tile) and to rounding for two,
    whose per-sample moments merge in float64."""
    rng = np.random.default_rng(batch)
    x = (rng.standard_normal((batch, 5, 9, 8, 7)) * 2.0 + 0.5).astype(np.float32)
    bn = nn.BatchNorm3d(5)
    bn(Tensor(x, requires_grad=True), delta_weight(5), pool or (1, 1))
    count = x.size // 5
    mean = x.mean(axis=(0, 2, 3, 4))
    var = x.var(axis=(0, 2, 3, 4)) * count / (count - 1)
    want_mean = (0.9 * np.zeros(5, np.float32) + 0.1 * mean).astype(np.float32)
    want_var = (0.9 * np.ones(5, np.float32) + 0.1 * var).astype(np.float32)
    rtol = 0 if batch == 1 else 1e-6
    np.testing.assert_allclose(bn.running_mean.data, want_mean, rtol=rtol, atol=0)
    np.testing.assert_allclose(bn.running_var.data, want_var, rtol=rtol, atol=0)


# ---------------------------------------------------------------------------
# the conv-norm-pool node against oracle_conv3d, then the norm-and-max-pool node

def _conv_norm_pool_case(batch, dtype, nan):
    """A 3 -> 5 channel conv on 11x6x7 (a stride-3 pool reads no window
    from the last two planes), gamma < 0 in channel 1, +0 in 2 and -0 in 3.
    With ``nan``, one NaN voxel in the last sample makes its 3^3
    neighbourhood of conv outputs NaN in every channel."""
    rng = np.random.default_rng(batch * 7 + np.dtype(dtype).itemsize)
    x = (rng.standard_normal((batch, 3, 11, 6, 7)) * 2.0 + 0.5).astype(dtype)
    if nan:
        x[-1, 2, 4, 3, 3] = np.nan
    w = (rng.standard_normal((5, 3, 3, 3, 3)) * 0.3).astype(dtype)
    gamma, beta, running_mean = (rng.standard_normal(5).astype(dtype) for _ in range(3))
    gamma[1], gamma[2], gamma[3] = -abs(gamma[1]), 0.0, -0.0
    running_var = rng.uniform(0.5, 2.0, 5).astype(dtype)
    return x, w, gamma, beta, running_mean, running_var


def _conv_norm_pool_both(kind, x, w, gamma, beta, running_mean, running_var, k, s):
    """[output, dx, dw, dgamma, dbeta, running mean, running var] of the
    node and of the unfused block, with the same projection of the output."""
    results = []
    for fused in (True, False):
        xt, wt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, gamma, beta))
        if kind == "in":
            layer = nn.InstanceNorm3d(w.shape[0], x.dtype)
        else:
            layer = nn.BatchNorm3d(w.shape[0], x.dtype)
            layer.running_mean.data[:], layer.running_var.data[:] = running_mean, running_var
            layer.train(kind == "bn")
        layer.gamma, layer.beta = gt, bt
        if fused:
            out = layer(xt, wt, (k, s))
        else:
            y = oracle_conv3d(xt, wt, padding=nn.CONV_PADDING)
            out = _leaky_relu(oracle_norm_pool(layer, y, k, s))
        proj = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(proj)).sum().backward()
        running = [] if kind == "in" else [layer.running_mean.data, layer.running_var.data]
        results.append([out.data, xt.grad, wt.grad, gt.grad, bt.grad] + running)
    return results


@pytest.mark.parametrize("planes", [3, 7])     # conv output planes per tile
@pytest.mark.parametrize("kernel,stride", [(3, 2), (3, 3)], ids=["2", "3"])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["in", "bn", "bn_eval"])
def test_conv_norm_pool_matches_unfused_block(kind, dtype, batch, kernel, stride, planes,
                                              monkeypatch):
    """With ``_TILE`` cut to a few output planes, every sample runs in
    several tiles (overlapping by one plane at stride 2) and the backward
    in one-plane tiles, below one column plane (Cin*27*Ho*Wo = 3402).  A
    second input holds a NaN voxel: a window reading a NaN conv output
    outputs NaN and routes its gradient to its first voxel, and statistics
    that read one are NaN."""
    monkeypatch.setattr(nn, "_TILE", planes * 5 * 6 * 7)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for nan in (False, True):
        case = _conv_norm_pool_case(batch, dtype, nan)
        (out, *grads), (ref, *ref_grads) = _conv_norm_pool_both(kind, *case, kernel, stride)
        assert np.isnan(out).any() == nan
        if nan and kind != "bn" and batch == 2:      # the first sample stays finite
            assert np.isfinite(out[0]).all()
        for a, want in [(out, ref)] + list(zip(grads, ref_grads)):
            assert a.dtype == want.dtype and a.shape == want.shape
            np.testing.assert_allclose(a, want, rtol=tol,
                                       atol=tol * np.nanmax(np.abs(want), initial=0))


@pytest.mark.parametrize("kind", ["in", "bn", "bn_eval"])
def test_conv_norm_pool_gradcheck_with_small_tiles(kind, monkeypatch):
    """Finite differences over x, the conv weight, gamma and beta, with
    three conv output planes per tile (three tiles per sample, overlapping
    by one plane) and one per backward tile.  The central difference's
    error falls as eps^2 here (1.3e-6 of the worst coordinate at eps 1e-3,
    1.3e-8 at 1e-4), so the step is 1e-5.  BatchNorm's eval statistics are
    fixed, so its dy needs no GEMM, and between changes of winner the loss
    is linear in each input: the difference's error is rounding alone and
    falls as 1/eps (1.0e-5 of the worst coordinate at eps 1e-5, 2.1e-6 at
    1e-4, 2.2e-7 at 1e-3), so there the step is 1e-3."""
    monkeypatch.setattr(nn, "_TILE", 3 * 3 * 4 * 5)
    rng = np.random.default_rng(31)
    layer = nn.InstanceNorm3d(3, np.float64) if kind == "in" else nn.BatchNorm3d(3, np.float64)
    if kind == "bn_eval":
        layer.running_mean.data[:] = rng.standard_normal(3)
        layer.running_var.data[:] = rng.uniform(0.5, 2.0, 3)
        layer.eval()
    x = Tensor(rng.standard_normal((2, 1, 7, 4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 1, 3, 3, 3)) * 0.3, requires_grad=True)
    gamma, beta = (Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
    layer.gamma, layer.beta = gamma, beta
    proj = Tensor(rng.standard_normal((2, 3, 3, 1, 2)))
    report = gradcheck(lambda xx, ww, g, b: (layer(xx, ww, (3, 2)) * proj).sum(),
                       [x, w, gamma, beta], eps=1e-3 if kind == "bn_eval" else 1e-5, tol=1e-5)
    assert report.passed, report


# ---------------------------------------------------------------------------
# the conv-norm-pool node's leaky ReLU

def _bn_eval_delta(x: Tensor, gamma, beta) -> Tensor:
    """The node through a delta weight and a 1^3 pool, BatchNorm in eval at
    running mean 0 and var 1: its pre-activation is gamma * x / sd + beta."""
    bn = nn.BatchNorm3d(x.shape[1], x.dtype).eval()
    bn.gamma.data[:], bn.beta.data[:] = gamma, beta
    return bn(x, delta_weight(x.shape[1], x.dtype), (1, 1))


def test_conv_norm_pool_activation_has_the_oracle_bytes():
    """The node's output has the bytes of ``_leaky_relu`` of
    normalize-then-pool at pre-activations of +0 and -0 (gamma -0, beta
    -0), at negative subnormals whose product with LEAKY_SLOPE underflows,
    and at values of either sign up to 1e30."""
    vals = np.float32([0.0, -1.4e-45, -1e-40, 1e-40, -3.0, 2.5, -1e30, 1e30])
    x = np.stack([vals, vals, vals]).reshape(1, 3, 2, 2, 2)
    gamma, beta = np.float32([1.0, -1.0, -0.0]), np.float32([-0.0, 0.0, -0.0])
    out = _bn_eval_delta(Tensor(x), gamma, beta).data
    zeros, ones = np.zeros(3, np.float32), np.ones(3, np.float32)
    pre = oracle_bn_eval(Tensor(x), Tensor(gamma), Tensor(beta), zeros, ones)
    want = _leaky_relu(oracle_maxpool3d(pre, 1, 1)).data
    assert (pre.data == 0).any() and np.signbit(pre.data[pre.data == 0]).any()
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def _activation_at(value) -> tuple[np.ndarray, np.ndarray]:
    """Output and x gradient, for an output gradient of 9, of the node of
    ``_bn_eval_delta`` at a float32 voxel ``value`` beside a voxel of 1."""
    x = Tensor(np.float32([value, 1.0]).reshape(1, 1, 1, 1, 2), requires_grad=True)
    out = _bn_eval_delta(x, 1.0, 0.0)
    (out * 9.0).sum().backward()
    return out.data.reshape(-1), x.grad.reshape(-1)


_INV_SD32 = 1 / np.sqrt(np.float32(1) + np.float32(nn.NORM_EPS))     # the float32 node's 1/sd


def test_conv_norm_pool_subgradient_at_zero_is_one():
    """A pre-activation of exactly 0 takes the identity branch: its
    gradient is the positive voxel's, 9/sd."""
    out, grad = _activation_at(0.0)
    assert out[0] == 0 and not np.signbit(out[0])
    assert grad[0] == grad[1] == np.float32(9) * _INV_SD32


def test_conv_norm_pool_mask_is_not_read_from_an_underflowing_output():
    """A pre-activation of -1.4e-45 is below 0, so its gradient factor is
    LEAKY_SLOPE; but LEAKY_SLOPE times it underflows to -0.0, so the output
    there is -0.0 and output >= 0 holds.  The mask cannot be read back from
    the output."""
    out, grad = _activation_at(-np.float32(1.4e-45))
    assert out[0] == 0 and np.signbit(out[0]) and (out >= 0).all()
    assert grad[0] == np.float32(9) * np.float32(nn.LEAKY_SLOPE) * _INV_SD32
    assert grad[1] == np.float32(9) * _INV_SD32


def test_no_grad_conv_norm_pool_activates_in_place(monkeypatch):
    """Under no_grad the leaky ReLU writes the node's output: beside it the
    node holds a bool sign mask and its tiles, no second pooled-size float
    array.  Through a 1^3 pool (pooled size is conv output size) and 2^14-
    value tiles the peak was 1.28x the output; the node followed by
    ``_leaky_relu``, which allocates its output, peaked at 2.00x."""
    monkeypatch.setattr(nn, "_TILE", 1 << 14)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 2, 40, 40, 40)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32))
    layer = nn.InstanceNorm3d(4)
    tracemalloc.start()
    try:
        with no_grad():
            out = layer(x, w, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.data < 0).any()
    assert peak < 1.5 * out.data.nbytes, peak / out.data.nbytes


@pytest.mark.parametrize("kind", ["in", "bn", "bn_eval"])
def test_recorded_conv_norm_pool_node_holds_no_conv_output_sized_array(kind, monkeypatch):
    """Beside its parents, the node keeps pooled-size arrays and statistics:
    nothing the size of the conv output or of one conv output tile, and, in
    float32 too, nothing with more bytes than its output (the winner
    indices are int32)."""
    monkeypatch.setattr(nn, "_TILE", 4 * 6 * 12 * 10)
    rng = np.random.default_rng(8)
    xs, ws = rng.standard_normal((2, 3, 12, 12, 10)), rng.standard_normal((6, 3, 3, 3, 3))
    for dtype in (np.float64, np.float32):
        x = Tensor(xs.astype(dtype), requires_grad=True)
        w = Tensor(ws.astype(dtype), requires_grad=True)
        layer = nn.InstanceNorm3d(6, dtype) if kind == "in" else nn.BatchNorm3d(6, dtype)
        if kind == "bn_eval":
            layer.eval()
        layer.gamma.data[1] = 0.0
        out = layer(x, w, (3, 2))
        assert out.op == "maxpool3d" and out._parents == (x, w, layer.gamma, layer.beta)
        others = [a for a in _reachable_arrays(out._backward_fn) if a.base is not w.data]
        assert others and max(a.size for a in others) <= out.size < 2 * 6 * 12 * 12 * 10 / 8
        assert max(a.nbytes for a in others) <= out.data.nbytes


@pytest.mark.parametrize("fused", [False, True], ids=["conv3d", "conv_norm_pool"])
def test_block4_backward_peak_is_weight_gradient_and_one_tile(fused):
    """Block 4 of a 32^3 ConvNet3D-4 convolves 256 into 512 channels at 3^3.
    Its backward holds the 14.2 MB weight gradient and one 0.75 MB column
    tile, whose buffer also takes the column gradient; the input gradient,
    the output-gradient tile and the pooled arrays fit in half a tile more.
    Summing the gradient from zeros through a fresh product per tile, with
    a separate column-gradient buffer, peaked at 29.9 MB."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((1, 256, 3, 3, 3)).astype(np.float32), requires_grad=True)
    w = Tensor((rng.standard_normal((512, 256, 3, 3, 3)) * 0.02).astype(np.float32),
               requires_grad=True)
    if fused:
        out = nn.InstanceNorm3d(512)(x, w, (3, 2))
    else:
        b = Tensor(np.zeros(512, np.float32))
        out = nn.conv3d(x, w, b, stride=1, padding=1)
    loss = (out * Tensor(rng.standard_normal(out.shape).astype(np.float32))).sum()
    tile = 256 * 27 * 27 * 4                    # Cin*27 rows by 3^3 output positions
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == w.shape and x.grad.shape == x.shape
    assert peak <= w.data.nbytes + 1.5 * tile, (peak / 1e6, w.data.nbytes / 1e6)


def test_convnet_in_32_loss_and_gradients_match_unfused_block(monkeypatch):
    """One 32^3 ConvNet3D-4-IN step with the conv-norm-pool node and with
    oracle_conv3d, then the norm-and-max-pool node: same loss and gradients."""
    cfg = M.build_config("convnet3d4", norm="in", extents=(32, 32, 32), pool_stride=2)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 32, 32, 32)).astype(np.float32))
    steps = []
    for fused in (True, False):
        with monkeypatch.context() as m:
            if not fused:
                m.setattr(M._ConvBlock, "forward", _oracle_block_forward)
            model = M.build_model(cfg, seed=0)
            loss = nn.cross_entropy(model(x), [1])
            loss.backward()
        steps.append((loss.data, [p.grad for p in model.parameters()]))
    (loss, grads), (ref, ref_grads) = steps
    np.testing.assert_allclose(loss, ref, rtol=1e-6)
    for g, want in zip(grads, ref_grads):
        np.testing.assert_allclose(g, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


# ---------------------------------------------------------------------------
# graph memory of one ConvNet3D-4-IN step

def test_convnet_in_32_graph_bytes_bound():
    """Bytes held by the recorded non-leaf nodes of one 32^3 ConvNet3D-4-IN
    loss graph (what the benchmark reports as graph_mb).  The composite norm
    graph held 124.7 MB, the fused norm node 45.6 MB; with the norm and the
    max-pool in one node, 25.8 MB (block 1's conv output was 16.8 MB of
    it); with the conv in that node too, 6.07 MB; with the leaky ReLU in
    it as well, 4.05 MB.  The bound is that figure plus 10%."""
    cfg = M.build_config("convnet3d4", norm="in", extents=(32, 32, 32), pool_stride=2)
    model = M.build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 32, 32, 32)).astype(np.float32))
    loss = nn.cross_entropy(model(x), [1])
    held = sum(t.data.nbytes for t in loss._toposort() if t._backward_fn is not None)
    assert held < 4.05e6 * 1.1, held / 1e6


def test_backward_consumes_the_convnet_graph():
    """With the model, x, logits and loss still held, what a 32^3
    ConvNet3D-4-IN forward and backward leave allocated is the parameter
    gradients (23.2 MB) and little else.  When backward kept the graph
    alive, 81.0 MB stayed.  The bound is 1.05x the parameter bytes."""
    cfg = M.build_config("convnet3d4", norm="in", extents=(32, 32, 32), pool_stride=2)
    model = M.build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 32, 32, 32)).astype(np.float32))
    param_bytes = sum(p.data.nbytes for p in model.parameters())
    tracemalloc.start()
    try:
        logits = model(x)
        loss = nn.cross_entropy(logits, [1])
        loss.backward()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.05 * param_bytes, (held / 1e6, param_bytes / 1e6)
    assert logits.grad is not None and logits.grad.shape == logits.shape
    assert all(p.grad is not None for p in model.parameters())
    with pytest.raises(AutodiffError, match="already ran"):
        loss.backward()


def test_convnet_in_32_run_training_peak(tmp_path):
    """Tracemalloc peak of a whole 32^3 ConvNet3D-4-IN ``run_training``
    (4 train steps, evaluation and checkpoint included).  It was 191.0 MB
    while each step's graph and gradients lived on through the next
    forward; with backward consuming the graph and the gradients cleared
    before the forward, 143.4 MB; with each block's conv output never held
    whole, 119.4 MB.  The bound is that figure plus 10%."""
    D.synth_generate(tmp_path / "d", D.SynthConfig(n_subjects=6, sessions_per_subject=1,
                                                   extents=(32, 32, 32), seed=1))
    records = D.read_manifest(tmp_path / "d" / D.MANIFEST_NAME)
    split = D.subject_split(records, test_per_class=1, seed=0)
    (tmp_path / "d" / D.SPLIT_NAME).write_text(split.to_json())
    run = TR.RunConfig(model="convnet3d4", norm="in", pool_stride=2, seed=0,
                       train=TrainConfig(0.001, 0.001, 25, 0.3, total_epochs=1))
    tracemalloc.start()
    try:
        rows = TR.run_training(run, tmp_path / "d", tmp_path / "run")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r["event"] for r in rows] == ["config", "init", "epoch", "done"]
    assert len(split.train_subjects) == 4     # one scan each, batch 1: 4 steps
    assert peak <= 1.1 * 119.4e6, peak / 1e6


def _oracle_block_forward(self, x):
    """ConvNet3D-4's block before the conv moved into the norm's node:
    the conv, then the norm-and-max-pool node."""
    y = oracle_conv3d(x, self.conv.weight, padding=nn.CONV_PADDING)
    h = oracle_norm_pool(self.norm, y, M.CONVNET_POOL_KERNEL, self.pool_stride)
    return nn.dropout3d(_leaky_relu(h), self.training, self.drop_rng)


def _unfused_block_forward(self, x):
    """ConvNet3D-4's block before the norm-and-max-pool node: the conv, the
    composite norm graph, then a separate max-pool."""
    axes = (0, 2, 3, 4) if isinstance(self.norm, nn.BatchNorm3d) else (2, 3, 4)
    y = oracle_conv3d(x, self.conv.weight, padding=nn.CONV_PADDING)
    y = oracle_norm(y, self.norm.gamma, self.norm.beta, axes, 1)
    h = oracle_maxpool3d(y, M.CONVNET_POOL_KERNEL, self.pool_stride)
    return nn.dropout3d(_leaky_relu(h), self.training, self.drop_rng)


@pytest.mark.slow
@pytest.mark.parametrize("norm", ["in", "bn"])
def test_convnet_81_stride3_train_step_peak(norm, monkeypatch):
    """One 81^3 batch-1 train step (forward and backward) of ConvNet3D-4
    with stride-3 pools.  With the unfused block it peaked at 2.07 GB of
    tracemalloc: block 1's 128x81^3 conv output, x̂, the normalized volume
    and the pool's float64 scatter buffer.  With the norm-and-max-pool node
    it peaked at 0.711 GB, with backward freeing each node's saved arrays
    as it goes 0.628 GB, with the conv inside the node, which never holds
    the 272 MB conv output whole, 0.111 GB (0.100 GB on the host of the
    next figure), and with the leaky ReLU inside it too, 0.0926 GB; the
    bound is 1.25x that.
    The loss must equal the unfused block's, computed without a graph, and
    loss and gradients must match oracle_conv3d, then the norm-and-max-pool
    node."""
    cfg = M.build_config("convnet3d4", norm=norm, extents=(81, 81, 81), pool_stride=3)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 81, 81, 81)).astype(np.float32))
    with monkeypatch.context() as m:
        m.setattr(M._ConvBlock, "forward", _unfused_block_forward)
        with no_grad():
            ref = nn.cross_entropy(M.build_model(cfg, seed=0)(x), [1])
    model = M.build_model(cfg, seed=0)
    tracemalloc.start()
    try:
        loss = nn.cross_entropy(model(x), [1])
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(loss.data, ref.data, rtol=1e-6)
    assert all(np.isfinite(p.grad).all() for p in model.parameters())
    assert peak < 1.25 * 0.0926e9, peak / 1e9
    with monkeypatch.context() as m:
        m.setattr(M._ConvBlock, "forward", _oracle_block_forward)
        oracle = M.build_model(cfg, seed=0)
        ref = nn.cross_entropy(oracle(x), [1])
        ref.backward()
    np.testing.assert_allclose(loss.data, ref.data, rtol=1e-6)
    for p, want in zip(model.parameters(), oracle.parameters()):
        np.testing.assert_allclose(p.grad, want.grad, rtol=1e-4,
                                   atol=1e-4 * np.abs(want.grad).max())


@pytest.mark.slow
@pytest.mark.parametrize("norm", ["in", "bn"])
def test_convnet_paper_size_forward_peak(norm):
    """A 169x208x179 batch-1 ConvNet3D-4 forward under no_grad, IN and BN in
    eval.  Block 1's conv output alone is 3.22 GB, so with the norm reading
    a whole conv output this could not run on a 7 GB host.  Beside the
    25 MB scan, the peak is 0.239 GB for IN and for BN, in block 1's tile
    loop: its 117 MB pooled output, its last tile (57 MB of conv output,
    8 MB of columns) and that tile's window-max passes.  The leaky ReLU
    runs in place after the tiles are freed.  The bound is 1.25x that."""
    cfg = M.build_config("convnet3d4", norm=norm, pool_stride=3)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1) + cfg.extents)
               .astype(np.float32))
    model = M.build_model(cfg, seed=0).eval()
    tracemalloc.start()
    try:
        with no_grad():
            logits = model(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (1, M.NUM_CLASSES) and np.isfinite(logits.data).all()
    assert peak < 1.25 * 0.239e9, peak / 1e9


@pytest.mark.slow
@pytest.mark.parametrize("norm", ["in", "bn"])
def test_convnet_paper_size_train_step_peak(norm):
    """One 169x208x179 batch-1 ConvNet3D-4 train step (forward and
    backward).  It peaked at 0.964 GB of tracemalloc for IN and for BN,
    most of it block 1's pooled-size arrays (output, x̂ at the winners,
    int64 winners, leaky ReLU and dropout outputs, 117-234 MB each); with
    int32 winners (117 MB), 0.848 GB; with the leaky ReLU inside the node,
    which keeps a 29 MB bool mask instead of a 117 MB output and turns the
    masked gradient into ĝ/sd in place, 0.760 GB.  The bound is 1.25x
    that."""
    cfg = M.build_config("convnet3d4", norm=norm, pool_stride=3)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1) + cfg.extents)
               .astype(np.float32))
    model = M.build_model(cfg, seed=0)
    tracemalloc.start()
    try:
        loss = nn.cross_entropy(model(x), [1])
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.data)
    assert all(np.isfinite(p.grad).all() for p in model.parameters())
    assert peak < 1.25 * 0.760e9, peak / 1e9


# ---------------------------------------------------------------------------
# parameter init, patchify and the checkpoint writer: one copy, same bits

def oracle_trunc_normal(rng, shape, std=0.02, dtype=np.float32):
    lo, hi = special.ndtr(-2.0), special.ndtr(2.0)
    u = rng.uniform(lo, hi, size=shape)
    return (special.ndtri(u) * std).astype(dtype)


def oracle_kaiming_normal(rng, shape, fan_in, dtype=np.float32):
    gain = math.sqrt(2.0 / (1.0 + nn.LEAKY_SLOPE * nn.LEAKY_SLOPE))
    std = gain / math.sqrt(fan_in)
    return (rng.standard_normal(size=shape) * std).astype(dtype)


def oracle_patchify(x: np.ndarray, e: int) -> np.ndarray:
    n, _, d, h, w = x.shape
    pad = tuple((-x0) % e for x0 in (d, h, w))
    xp = np.pad(x[:, 0], ((0, 0),) + tuple((0, p) for p in pad))
    nd, nh, nw = (s // e for s in xp.shape[1:])
    blocks = xp.reshape(n, nd, e, nh, e, nw, e)
    tokens = blocks.transpose(0, 1, 3, 5, 2, 4, 6).reshape(n, nd * nh * nw, e ** 3)
    return np.ascontiguousarray(tokens)


def oracle_save_checkpoint(path, model, config) -> None:
    entries = []
    payload = bytearray()
    for name, t in model.named_tensors():
        raw = t.data.astype(t.data.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({"name": name, "dtype": t.dtype.name,
                        "shape": list(t.shape), "offset": len(payload),
                        "nbytes": len(raw)})
        payload.extend(raw)
    manifest = json.dumps({"config": config, "tensors": entries},
                          sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(M._CKPT_MAGIC + struct.pack("<Q", len(manifest)) + manifest + payload)


_B = nn._BLOCK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [1, _B - 1, _B, _B + 1, 3 * _B + 5, (3, _B // 2 + 7)])
@pytest.mark.parametrize("init", ["trunc_normal", "kaiming_normal"])
def test_blocked_init_matches_one_shot_draw(init, shape, dtype):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    if init == "trunc_normal":
        out, ref = nn.trunc_normal(rng, shape, dtype), oracle_trunc_normal(
            ref_rng, shape, 0.02, dtype)
    else:
        out, ref = nn.kaiming_normal(rng, shape, 27, dtype), oracle_kaiming_normal(
            ref_rng, shape, 27, dtype)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_trunc_normal_peak_is_its_output():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        out = nn.trunc_normal(rng, 1 << 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes


def test_vvit_tiny_full_size_build_peak_is_its_parameters():
    cfg = M.build_config("vvit", "tiny", extents=M.FULL_EXTENTS)
    tracemalloc.start()
    try:
        model = M.build_model(cfg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = sum(t.data.nbytes for _, t in model.named_tensors())
    assert peak <= 1.25 * params, (peak / 1e6, params / 1e6)


def test_vvit_tiny_checkpoint_load_peak_is_its_parameters(tmp_path):
    """Loading reads each tensor straight into the model's own buffer: the
    whole-file read plus a copy per tensor peaked at 2.0x the parameters."""
    cfg = M.build_config("vvit", "tiny", extents=M.FULL_EXTENTS)
    path = tmp_path / "vvit.ckpt"
    source = M.build_model(cfg, seed=3)
    M.save_checkpoint(path, source, {"model_config": M.config_to_dict(cfg), "run": {"seed": 0},
                                     "normalization": {"mean": 0.0, "std": 1.0}})
    params = sum(t.data.nbytes for _, t in source.named_tensors())
    tracemalloc.start()
    try:
        model, _ = TR.load_model_from_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * params, (peak / 1e6, params / 1e6)
    for (name, t), (_, want) in zip(model.named_tensors(), source.named_tensors()):
        assert t.data.tobytes() == want.data.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extents", [(8, 12, 4), (9, 13, 5), (8, 13, 6)],
                         ids=["multiples", "one_over", "mixed"])
def test_patchify_matches_pad_transpose_oracle(extents, dtype):
    x = np.random.default_rng(6).standard_normal((2, 1) + extents).astype(dtype)
    tokens = M.vvit_patchify(Tensor(x), 4).data
    ref = oracle_patchify(x, 4)
    assert tokens.dtype == ref.dtype and tokens.shape == ref.shape
    assert tokens.flags["C_CONTIGUOUS"] and tokens.tobytes() == ref.tobytes()


_CKPT_MODELS = [("vvit", "in", np.float32), ("cvvt", "in", np.float32),
                ("convnet3d4", "in", np.float32), ("convnet3d4", "bn", np.float32),
                ("cvvt", "in", np.float64)]


@pytest.mark.parametrize("kind,norm,dtype", _CKPT_MODELS)
def test_checkpoint_writer_matches_bytearray_oracle(tmp_path, kind, norm, dtype):
    extents = (32, 32, 32) if kind == "convnet3d4" else (16, 16, 16)
    cfg = M.build_config(kind, "tiny", norm, extents, pool_stride=2)
    model = M.build_model(cfg, seed=3, dtype=dtype)
    config = {"model_config": M.config_to_dict(cfg), "run": {"seed": 3}}
    M.save_checkpoint(tmp_path / "new.ckpt", model, config)
    oracle_save_checkpoint(tmp_path / "old.ckpt", model, config)
    assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()
