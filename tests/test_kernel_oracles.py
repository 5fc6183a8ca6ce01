"""The max-pool and normalization kernels against the kernels they replaced.

``oracle_maxpool3d`` is the earlier sliding-window argmax kernel and
``oracle_norm`` the earlier composite graph (mean, sub, mul, mean, add,
sqrt, div, then reshape, mul, add for the affine part), kept here verbatim
in substance; ``_sqrt`` is the square-root node that graph used.  The
max-pool must match bit for bit.  The fused norm node's forward must too;
its closed-form gradients must match to rounding.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from voxformer import models as M
from voxformer import nn
from voxformer.tensor import (Tensor, _node, _unary, add, div, mul, no_grad, reshape, sub,
                              tmean)


# ---------------------------------------------------------------------------
# oracles

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
        out, idx = pool(t, k, s, return_indices=True)
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
