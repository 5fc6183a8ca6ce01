"""Kernels and copy paths against the routines they replaced.

``oracle_conv3d`` is the earlier whole-matrix im2col kernel with its col2im
backward, ``oracle_maxpool3d`` the earlier sliding-window argmax kernel,
``oracle_adaptive_avg_pool3d`` the earlier prefix-sum pooling with its
per-bin gradient scatter, and ``oracle_norm`` the earlier composite graph
(mean, sub, mul, mean, add, sqrt, div, then reshape, mul, add for the affine
part), kept here verbatim in substance; ``_sqrt`` is the square-root node
that graph used.  The tiled conv and the averaging-matrix pooling must
match to rounding.  The max-pool must match bit for bit, winners included.
The fused norm node's forward must too; its closed-form gradients must
match to rounding.

``oracle_trunc_normal`` and ``oracle_kaiming_normal`` draw a whole
parameter in one float64 call, ``oracle_patchify`` pads the volume and
transposes it into tokens, and ``oracle_save_checkpoint`` joins every
tensor's bytes in one ``bytearray``.  Their blocked and one-copy successors
must give the same bits, the same generator state and the same file bytes.
"""

import itertools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from voxformer import models as M
from voxformer import nn
from voxformer.tensor import (ShapeError, Tensor, _node, _unary, add, div, mul, no_grad,
                              reshape, sub, tmean)


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


def _sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _unary(a, "sqrt", out, lambda g: g * 0.5 / out)


def oracle_norm(x: Tensor, gamma, beta, axes, channel_axis):
    mu = tmean(x, axis=axes, keepdims=True)
    xc = sub(x, mu)
    var = tmean(mul(xc, xc), axis=axes, keepdims=True)
    xhat = div(xc, _sqrt(add(var, nn.NORM_EPS)))
    shape = [1] * xhat.ndim
    shape[channel_axis] = gamma.size
    return add(mul(xhat, reshape(gamma, shape)), reshape(beta, shape))


# ---------------------------------------------------------------------------
# tiled conv3d against whole-matrix im2col

def _conv_both(x, w, b, stride, padding):
    results = []
    for conv in (oracle_conv3d, nn.conv3d):
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = conv(xt, wt, bt, stride=stride, padding=padding)
        g = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, [xt.grad, wt.grad, bt.grad]))
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
    (ref_out, ref_grads), (out, grads) = _conv_both(x, w, b, stride, padding)
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, ref_out, rtol=tol, atol=tol * np.abs(ref_out).max())
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == ref.dtype and g.shape == ref.shape
        np.testing.assert_allclose(g, ref, rtol=tol, atol=tol * np.abs(ref).max())


def _column_bytes(x, w, stride, padding):
    out_sp = nn.conv3d_output_extents(x.shape[2:], w.shape[2:], stride, padding)
    return x.shape[0] * w[0].size * math.prod(out_sp) * x.itemsize


def test_no_grad_conv3d_peak_is_below_its_column_matrix():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 16, 40, 36, 36)).astype(np.float32)
    w = rng.standard_normal((4, 16, 3, 3, 3)).astype(np.float32)
    cols = _column_bytes(x, w, 1, 1)
    assert cols >= 8 * nn._TILE * x.itemsize
    tracemalloc.start()
    try:
        with no_grad():
            out = nn.conv3d(Tensor(x), Tensor(w), padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 4, 40, 36, 36)
    assert peak < cols, (peak / 1e6, cols / 1e6)


def test_recorded_conv3d_node_holds_no_column_sized_array(monkeypatch):
    monkeypatch.setattr(nn, "_TILE", 4096)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 8, 9, 10, 11)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 8, 3, 3, 3)), requires_grad=True)
    out = nn.conv3d(x, w, stride=1, padding=1)
    cols = _column_bytes(x.data, w.data, 1, 1)
    pending, seen, largest = [out._backward_fn], set(), 0
    while pending:                  # every array the backward closure can reach
        f = pending.pop()
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                largest = max(largest, v.nbytes)
            elif callable(v) and getattr(v, "__closure__", None) and id(v) not in seen:
                seen.add(id(v))
                pending.append(v)
    assert 0 < largest < cols / 8, (largest, cols)


# ---------------------------------------------------------------------------
# max-pool: bit-exact

def _pool_input(shape, dtype, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":                       # integer values: most windows tie
        return rng.integers(0, 3, size=shape).astype(dtype)
    if kind == "zeros":                      # +0 and -0 compare equal
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


def _pool_both(x, k, s):
    results = []
    for pool in (oracle_maxpool3d, nn.maxpool3d):
        t = Tensor(x.copy(), requires_grad=True)
        if pool is oracle_maxpool3d:
            out, idx = pool(t, k, s, return_indices=True)
        else:
            out = pool(t, k, s)
            idx = nn._pool_winners(x, out.data, k, s)
        g = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, idx, t.grad))
    return results


@pytest.mark.parametrize("kind", ["normal", "ties", "zeros"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 7, 8, 9), (1, 2, 9, 5, 11)])
@pytest.mark.parametrize("k,s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_maxpool_matches_oracle_bit_for_bit(k, s, shape, dtype, kind):
    x = _pool_input(shape, dtype, kind, seed=k * 10 + s)
    (o_out, o_idx, o_grad), (out, idx, grad) = _pool_both(x, k, s)
    assert out.dtype == o_out.dtype and grad.dtype == o_grad.dtype
    np.testing.assert_array_equal(out.view(np.uint8), o_out.view(np.uint8))
    np.testing.assert_array_equal(idx, o_idx)
    np.testing.assert_array_equal(grad.view(np.uint8), o_grad.view(np.uint8))


def test_maxpool_no_grad_matches_oracle():
    x = _pool_input((1, 4, 10, 10, 10), np.float32, "ties", seed=5)
    with no_grad():
        out = nn.maxpool3d(Tensor(x, requires_grad=True), 3, 2)
        ref = oracle_maxpool3d(Tensor(x), 3, 2)
    assert not out.requires_grad and out._backward_fn is None
    np.testing.assert_array_equal(out.data, ref.data)


def test_maxpool_kernel_out_of_range():
    with pytest.raises(ValueError):
        nn.maxpool3d(Tensor(np.zeros((1, 1, 3, 3, 3))), kernel=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_nan_window_outputs_nan_and_routes_to_its_first_voxel(dtype):
    x = _pool_input((1, 2, 6, 6, 6), dtype, "normal", seed=9)
    x[0, 1, 4, 3, 5] = np.nan               # window (1, 1, 1) of channel 1 at k = s = 3
    t = Tensor(x, requires_grad=True)
    out = nn.maxpool3d(t, 3, 3)
    nan = np.isnan(out.data)
    assert nan.sum() == 1 and nan[0, 1, 1, 1, 1]
    out.sum().backward()
    assert t.grad[0, 1, 3, 3, 3] == 1 and t.grad[0, 1, 3:, 3:, 3:].sum() == 1
    # every other window still routes to its max
    ref = Tensor(np.nan_to_num(x, nan=-np.inf), requires_grad=True)
    oracle_maxpool3d(ref, 3, 3).sum().backward()
    keep = np.ones(x.shape, bool)
    keep[0, 1, 3:, 3:, 3:] = False
    np.testing.assert_array_equal(t.grad[keep], ref.grad[keep])


def test_pool_winners_peak_is_a_fraction_of_the_input():
    """The winner search holds output-sized arrays only: at 1x32x45^3 and
    stride 3 the three-stage search peaked at 0.90x the input bytes."""
    x = np.random.default_rng(12).standard_normal((1, 32, 45, 45, 45)).astype(np.float32)
    with no_grad():
        out = nn.maxpool3d(Tensor(x), 3, 3).data
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
# fused normalization against the composite graph

def _norm_case(kind, dtype):
    rng = np.random.default_rng(7)
    if kind == "ln":
        shape, axes, ch = (3, 5, 16), (2,), 2
    else:
        shape, ch = (2, 4, 5, 6, 3), 1
        axes = (2, 3, 4) if kind == "in" else (0, 2, 3, 4)
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    params = [rng.standard_normal(shape[ch]).astype(dtype) for _ in range(2)]
    proj = rng.standard_normal(shape).astype(dtype)
    return x, params, axes, ch, proj


def _run_norm(fn, x, params, axes, ch, proj):
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in [x] + params)
    out = fn(xt, gt, bt, axes, ch)
    (out * Tensor(proj)).sum().backward()
    return out.data, [xt.grad, gt.grad, bt.grad]


@pytest.mark.parametrize("affine", [True])      # every norm layer is affine
@pytest.mark.parametrize("kind", ["in", "bn", "ln"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_matches_composite_oracle(kind, affine, dtype):
    case = _norm_case(kind, dtype)
    ref_out, ref_grads = _run_norm(oracle_norm, *case)
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
    else:
        out = (nn.InstanceNorm3d(3) if layer == "in" else nn.BatchNorm3d(3))(x)
    assert out.op == "normalize" and out._parents[0] is x


# ---------------------------------------------------------------------------
# graph memory of one ConvNet3D-4-IN step

def test_convnet_in_32_graph_bytes_bound():
    """Bytes held by the recorded non-leaf nodes of one 32^3 ConvNet3D-4-IN
    loss graph (what the benchmark reports as graph_mb).  The composite norm
    graph held 124.7 MB; the fused node holds 45.6 MB.  The bound is that
    figure plus 10%."""
    cfg = M.build_config("convnet3d4", norm="in", extents=(32, 32, 32), pool_stride=2)
    model = M.build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 32, 32, 32)).astype(np.float32))
    loss = nn.cross_entropy(model(x), [1])
    held = sum(t.data.nbytes for t in loss._toposort() if t._backward_fn is not None)
    assert held < 45.6e6 * 1.1, held / 1e6


# ---------------------------------------------------------------------------
# parameter init, patchify and the checkpoint writer: one copy, same bits

def oracle_trunc_normal(rng, shape, std=0.02, dtype=np.float32):
    lo, hi = special.ndtr(-2.0), special.ndtr(2.0)
    u = rng.uniform(lo, hi, size=shape)
    return (special.ndtri(u) * std).astype(dtype)


def oracle_kaiming_normal(rng, shape, fan_in, dtype=np.float32):
    gain = math.sqrt(2.0 / (1.0 + nn.INIT_SLOPE * nn.INIT_SLOPE))
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


_B = nn._INIT_BLOCK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [1, _B - 1, _B, _B + 1, 3 * _B + 5, (3, _B // 2 + 7)])
@pytest.mark.parametrize("init", ["trunc_normal", "kaiming_normal"])
def test_blocked_init_matches_one_shot_draw(init, shape, dtype):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    if init == "trunc_normal":
        out, ref = nn.trunc_normal(rng, shape, 0.03, dtype), oracle_trunc_normal(
            ref_rng, shape, 0.03, dtype)
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
