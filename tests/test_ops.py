import math

import numpy as np
import pytest

from voxformer import nn
from voxformer.gradcheck import gradcheck
from voxformer.tensor import ShapeError, Tensor
from voxformer.verify import delta_weight


def randt(shape, seed=0, dtype=np.float64, requires_grad=False, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, dtype=dtype, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# conv3d

def naive_conv3d(x, w, b, stride, padding):
    """Direct-summation reference, independent of the im2col path."""
    n, cin, d, h, ww = x.shape
    cout, _, kd, kh, kw = w.shape
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    od = (d + 2 * p - kd) // stride + 1
    oh = (h + 2 * p - kh) // stride + 1
    ow = (ww + 2 * p - kw) // stride + 1
    out = np.zeros((n, cout, od, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for zi in range(od):
                for yi in range(oh):
                    for xi in range(ow):
                        patch = xp[ni, :, zi * stride:zi * stride + kd,
                                   yi * stride:yi * stride + kh,
                                   xi * stride:xi * stride + kw]
                        out[ni, co, zi, yi, xi] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


def test_conv3d_padding_preserves_extent():
    x = randt((1, 1, 8, 8, 8), dtype=np.float32)
    w = randt((4, 1, 3, 3, 3), seed=1, dtype=np.float32, scale=0.2)
    out = nn.conv3d(x, w, randt((4,), seed=2, dtype=np.float32), 1, 1)
    assert out.shape == (1, 4, 8, 8, 8)


def test_conv3d_all_ones_center_is_27():
    x = Tensor(np.ones((1, 1, 3, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    out = nn.conv3d(x, w, Tensor(np.zeros(1)), 1, 1)
    assert out.data[0, 0, 1, 1, 1] == 27.0
    assert out.data[0, 0, 0, 0, 0] == 8.0  # corner sees a 2x2x2 support


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (3, 2)])
def test_conv3d_matches_direct_summation(stride, padding):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 6, 5, 6))
    w = rng.standard_normal((4, 3, 3, 3, 3))
    b = rng.standard_normal(4)
    got = nn.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    pre = naive_conv3d(x, w, b, stride, padding)
    want = np.maximum(pre, nn.LEAKY_SLOPE * pre)
    np.testing.assert_allclose(got.data, want, rtol=1e-10)


def test_conv3d_weight_gradient_finite_difference():
    x = randt((1, 2, 5, 5, 5), seed=2, requires_grad=True)
    w = randt((3, 2, 3, 3, 3), seed=3, scale=0.3, requires_grad=True)
    b = randt((3,), seed=4, scale=0.1, requires_grad=True)
    report = gradcheck(lambda xx, ww, bb: nn.conv3d(xx, ww, bb, 1, 1).sum(),
                       [x, w, b], tol=1e-4)
    assert report.passed, report


def test_conv3d_channel_mismatch():
    with pytest.raises(ShapeError):
        nn.conv3d(randt((1, 2, 4, 4, 4)), randt((3, 5, 3, 3, 3)), randt((3,)), 1, 0)


def test_conv3d_nonpositive_output():
    with pytest.raises(ShapeError):
        nn.conv3d(randt((1, 1, 2, 2, 2)), randt((1, 1, 3, 3, 3)), randt((1,)), 1, 0)


def test_conv3d_anisotropic_kernel():
    x = randt((1, 1, 5, 6, 7), seed=11, dtype=np.float32)
    w = randt((2, 1, 1, 3, 3), seed=12, dtype=np.float32)
    b = randt((2,), seed=13, dtype=np.float32)
    assert nn.conv3d(x, w, b, 1, 0).shape == (1, 2, 5, 4, 5)


# ---------------------------------------------------------------------------
# maxpool3d

def test_maxpool_extent_169():
    assert nn.maxpool3d_output_extents((169,), 3, 3) == (56,)


def max_pooled(x, k, s):
    """The conv-norm-pool node as a max-pool of finite x scaled by 1/sd: a
    delta conv weight, and BatchNorm in eval at running mean 0 and var 1."""
    bn = nn.BatchNorm3d(x.shape[1], x.dtype).eval()
    return bn(x, delta_weight(x.shape[1], x.dtype), (k, s))


INV_SD = 1 / np.sqrt(1 + nn.NORM_EPS)      # the float64 node's 1/sd at var 1


def test_maxpool_constant_routes_to_first_voxel():
    x = Tensor(np.ones((1, 1, 3, 3, 3)), requires_grad=True)
    out = max_pooled(x, 3, 3)
    idx = nn._pool_winners(x.data, nn._window_max(x.data, 3, 3), 3, 3)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 1, 1), INV_SD))
    assert idx.ravel()[0] == 0          # tie -> first element in (d,h,w) order
    out.sum().backward()
    grad = x.grad.ravel()
    assert grad[0] == INV_SD and grad[1:].sum() == 0.0


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError):
        max_pooled(randt((1, 1, 2, 2, 2)), 3, 3)


def test_maxpool_gradient_finite_difference():
    # values well separated so the eps perturbation cannot flip an argmax
    rng = np.random.default_rng(8)
    vals = rng.permutation(6 ** 3).astype(np.float64) * 0.1
    x = Tensor(vals.reshape(1, 1, 6, 6, 6), requires_grad=True)
    assert gradcheck(lambda t: max_pooled(t, 3, 2).sum(), x, tol=1e-5).passed


def test_maxpool_overlapping_stride_accumulates():
    x = Tensor(np.zeros((1, 1, 4, 3, 3)), requires_grad=True)
    x.data[0, 0, 2, 1, 1] = 5.0       # max of both overlapping windows
    max_pooled(x, 3, 1).sum().backward()
    assert x.grad[0, 0, 2, 1, 1] == 2 * INV_SD and x.grad.sum() == 2 * INV_SD


# ---------------------------------------------------------------------------
# normalization

def normalized(layer, x):
    """A batch or instance norm layer's normalization alone: through a
    delta conv weight and a 1^3 pool, then the node's leaky ReLU."""
    return layer(x, delta_weight(layer.num_features, x.dtype), (1, 1))


def pre_activation(out):
    """The node's output with its leaky ReLU undone, to rounding."""
    return np.where(out.data >= 0, out.data, out.data / nn.LEAKY_SLOPE)


def test_batchnorm_constant_input_pre_affine_zeros():
    bn = nn.BatchNorm3d(2)
    out = normalized(bn, Tensor(np.full((2, 2, 3, 3, 3), 7.0, np.float32)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-4)


def test_batchnorm_per_channel_mean_zero():
    bn = nn.BatchNorm3d(3)
    x = randt((2, 3, 4, 4, 4), seed=4, dtype=np.float32)
    out = pre_activation(normalized(bn, Tensor(x.data)))
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3, 4)), 0.0, atol=1e-5)


def test_batchnorm_n1_training_equals_instancenorm():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((1, c, 3, 4, 2)).astype(np.float32)
        gamma = rng.standard_normal(c).astype(np.float32)
        beta = rng.standard_normal(c).astype(np.float32)
        bn, inorm = nn.BatchNorm3d(c), nn.InstanceNorm3d(c)
        for layer in (bn, inorm):
            layer.gamma.data[:] = gamma
            layer.beta.data[:] = beta
        diff = np.abs(normalized(bn, Tensor(x)).data - normalized(inorm, Tensor(x)).data).max()
        assert diff < 1e-5


def test_batchnorm_eval_uses_running_stats():
    bn = nn.BatchNorm3d(1)
    x = Tensor(np.ones((1, 1, 2, 2, 2), np.float32) * 3.0)
    normalized(bn, x)           # updates running stats
    bn.eval()
    out_a = normalized(bn, x).data
    out_b = normalized(bn, Tensor(x.data.copy())).data
    np.testing.assert_array_equal(out_a, out_b)
    assert not np.allclose(out_a, 0.0)   # running mean has not converged to 3


def test_instancenorm_mean_zero_var_one():
    inorm = nn.InstanceNorm3d(3)
    x = randt((2, 3, 4, 5, 4), seed=5, dtype=np.float32, scale=4.0)
    out = pre_activation(normalized(inorm, Tensor(x.data)))
    np.testing.assert_allclose(out.mean(axis=(2, 3, 4)), 0.0, atol=1e-4)
    np.testing.assert_allclose(out.var(axis=(2, 3, 4)), 1.0, atol=1e-4)


def test_instancenorm_scale_invariance():
    inorm = nn.InstanceNorm3d(2)
    x = randt((1, 2, 4, 4, 4), seed=6, dtype=np.float32)
    a = normalized(inorm, Tensor(x.data)).data
    b = normalized(inorm, Tensor(x.data * 10.0)).data
    np.testing.assert_allclose(a, b, atol=1e-4)


def test_instancenorm_gradcheck():
    # project with fixed weights: sum(norm(x)^2) is constant by construction
    inorm = nn.InstanceNorm3d(3, dtype=np.float64)
    proj = Tensor(np.random.default_rng(21).standard_normal((1, 3, 4, 4, 4)))
    x = randt((1, 3, 4, 4, 4), seed=7, requires_grad=True)
    report = gradcheck(lambda t: (normalized(inorm, t) * proj).sum(), x, tol=1e-4)
    assert report.passed, report


def test_layernorm_examples():
    ln = nn.LayerNorm(8)
    const = ln(Tensor(np.full((4, 8), 3.0, np.float32))).data
    np.testing.assert_allclose(const, 0.0, atol=1e-4)
    x = randt((4, 8), seed=8, dtype=np.float32, scale=2.0)
    out = ln(Tensor(x.data)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layernorm_gradcheck():
    ln = nn.LayerNorm(8, dtype=np.float64)
    proj = Tensor(np.random.default_rng(22).standard_normal((4, 8)))
    x = randt((4, 8), seed=9, requires_grad=True)
    assert gradcheck(lambda t: (ln(t) * proj).sum(), x, tol=1e-5).passed


# ---------------------------------------------------------------------------
# dropout

def test_dropout_eval_is_identity():
    x = randt((1, 5, 2, 2, 2), dtype=np.float32)
    out = nn.dropout3d(x, training=False, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_survivor_scaling_and_channel_granularity():
    x = Tensor(np.ones((1, 50, 2, 2, 2), np.float32))
    out = nn.dropout3d(x, training=True, rng=np.random.default_rng(3)).data
    for c in range(50):
        channel = out[0, c]
        assert np.all(channel == 0.0) or np.allclose(channel, 1.0 / 0.6, atol=1e-6)
    assert out.max() > 0


def test_dropout_rate_monte_carlo():
    dropped = 0
    total = 0
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        keep = rng.random((1, 50)) >= 0.4
        dropped += (~keep).sum()
        total += keep.size
    rate = dropped / total
    assert abs(rate - 0.4) < 0.02


# ---------------------------------------------------------------------------
# linear

def test_linear_identity_weight():
    x = randt((3, 4), dtype=np.float32)
    w = Tensor(np.eye(4, dtype=np.float32))
    out = nn.linear(x, w, Tensor(np.zeros(4, np.float32)))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_linear_paper_parameter_count():
    layer = nn.Linear(125_000, 192, np.random.default_rng(0))
    assert layer.weight.size + layer.bias.size == 24_000_192


def test_linear_gradcheck():
    x = randt((5, 6), seed=10, requires_grad=True)
    w = randt((3, 6), seed=11, scale=0.4, requires_grad=True)
    b = randt((3,), seed=12, scale=0.1, requires_grad=True)
    assert gradcheck(lambda *ts: nn.linear(*ts).sum(), [x, w, b], tol=1e-6).passed


def test_linear_extent_mismatch():
    with pytest.raises(ShapeError):
        nn.linear(randt((3, 4)), randt((5, 7)), randt((5,)))


# ---------------------------------------------------------------------------
# attention / encoder

def test_attention_single_token_equals_projected_value():
    attn = nn.MultiHeadAttention(6, 2, rng=np.random.default_rng(1), dtype=np.float64)
    x = randt((1, 1, 6), seed=13)
    out = attn(x)
    v = nn.linear(x, attn.v.weight, attn.v.bias)
    want = nn.linear(v, attn.out.weight, attn.out.bias)
    np.testing.assert_allclose(out.data, want.data, rtol=1e-10)


def test_attention_permutation_equivariance():
    attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(2), dtype=np.float64)
    x = randt((1, 5, 8), seed=14)
    perm = np.array([3, 0, 4, 1, 2])
    out = attn(x).data
    out_p = attn(Tensor(x.data[:, perm])).data
    np.testing.assert_allclose(out_p, out[:, perm], atol=1e-10)


def test_attention_head_divisibility():
    with pytest.raises(ShapeError):
        nn.MultiHeadAttention(7, 2, np.random.default_rng(0))


def test_attention_gradcheck():
    attn = nn.MultiHeadAttention(4, 2, rng=np.random.default_rng(3), dtype=np.float64)
    x = randt((1, 3, 4), seed=15, requires_grad=True)
    assert gradcheck(lambda t: (attn(t) * attn(t)).sum(), x, tol=1e-4).passed


def test_encoder_preserves_shape_and_depth_zero():
    enc = nn.TransformerEncoder(8, 2, depth=3, rng=np.random.default_rng(4))
    x = randt((2, 5, 8), dtype=np.float32)
    assert enc(Tensor(x.data)).shape == (2, 5, 8)

    enc0 = nn.TransformerEncoder(8, 2, depth=0, rng=np.random.default_rng(5),
                                 dtype=np.float64)
    x64 = randt((1, 4, 8), seed=16)
    ln_only = enc0.norm(x64)
    np.testing.assert_allclose(enc0(x64).data, ln_only.data)


def test_encoder_token_permutation_equivariance():
    enc = nn.TransformerEncoder(8, 2, depth=2, rng=np.random.default_rng(6), dtype=np.float64)
    x = randt((1, 6, 8), seed=17)
    perm = np.array([5, 2, 0, 1, 4, 3])
    np.testing.assert_allclose(enc(Tensor(x.data[:, perm])).data,
                               enc(x).data[:, perm], atol=1e-10)


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_uniform_two_class():
    loss = nn.cross_entropy(Tensor(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-7)


def test_cross_entropy_confident_correct_goes_to_zero():
    logits = Tensor(np.array([[40.0, 0.0], [0.0, 40.0]]))
    loss = nn.cross_entropy(logits, np.array([0, 1]))
    assert loss.item() < 1e-9


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(18)
    z = rng.standard_normal((3, 4))
    y = np.array([1, 3, 0])
    logits = Tensor(z, requires_grad=True)
    nn.cross_entropy(logits, y).backward()
    p = np.exp(z - z.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    p[np.arange(3), y] -= 1.0
    np.testing.assert_allclose(logits.grad, p / 3.0, atol=1e-10)

    fd = gradcheck(lambda t: nn.cross_entropy(t, y),
                   Tensor(z, requires_grad=True), tol=1e-6)
    assert fd.passed


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        nn.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 2]))


# ---------------------------------------------------------------------------
# adaptive pooling

def test_adaptive_pool_identity_when_sizes_match():
    x = randt((1, 2, 3, 3, 3), dtype=np.float32)
    out = nn.adaptive_avg_pool3d(x, (3, 3, 3))
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_adaptive_pool_global_mean():
    x = randt((1, 2, 4, 5, 6), seed=19, dtype=np.float32)
    out = nn.adaptive_avg_pool3d(x, (1, 1, 1))
    np.testing.assert_allclose(out.data[:, :, 0, 0, 0], x.data.mean(axis=(2, 3, 4)),
                               rtol=1e-5)


def test_adaptive_pool_rejects_upsampling():
    with pytest.raises(ShapeError):
        nn.adaptive_avg_pool3d(randt((1, 1, 4, 4, 4)), (10, 10, 10))


def test_adaptive_pool_gradcheck():
    x = randt((1, 2, 5, 6, 7), seed=20, requires_grad=True)

    def f(t):
        pooled = nn.adaptive_avg_pool3d(t, (2, 3, 2))
        return (pooled * pooled).sum()

    assert gradcheck(f, x, tol=1e-5).passed


# ---------------------------------------------------------------------------
# module bookkeeping

def test_module_named_parameters_are_ordered_and_complete():
    enc = nn.TransformerEncoder(4, 2, depth=1, rng=np.random.default_rng(0))
    names = [n for n, _ in enc.named_parameters()]
    assert names[0].startswith("blocks.0.")
    assert names[-1] in ("norm.beta", "norm.gamma")
    assert len(names) == len(set(names))


def test_train_eval_propagates():
    enc = nn.TransformerEncoder(4, 2, depth=2, rng=np.random.default_rng(0))
    enc.eval()
    assert all(not m.training for m in enc.modules())
    enc.train()
    assert all(m.training for m in enc.modules())
