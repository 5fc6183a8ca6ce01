"""Built-in verification suites: gradient checks for every operator,
parameter-count assertions, shape oracles, and the normalization identity.

These back the ``verify`` CLI command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as M
from . import nn
from . import tensor as T
from .gradcheck import gradcheck, sampled_gradcheck
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _t(rng, *shape, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, dtype=np.float64, requires_grad=True)


def delta_weight(channels: int, dtype=np.float32) -> Tensor:
    """A [C, C, 3, 3, 3] conv weight that is 1 at the centre tap on the
    channel diagonal and 0 elsewhere: at padding 1 the conv returns x for
    finite x, so a norm layer given it normalizes x itself."""
    w = np.zeros((channels, channels) + (nn.CONV_KERNEL,) * 3, dtype)
    w[np.arange(channels), np.arange(channels), 1, 1, 1] = 1
    return Tensor(w)


def _rng(name: str) -> np.random.Generator:
    """The generator of the check ``name``, seeded from the name alone:
    adding or removing a check leaves every other check's inputs as they
    were."""
    return np.random.default_rng(list(name.encode()))


def operator_gradchecks() -> list[tuple[str, object]]:
    """(name, report) for a finite-difference check of every operator, at
    relative tolerance 1e-4 where a check names no other.  ``inputs(rng)``
    draws a check's inputs from its own generator."""
    checks: list[tuple[str, object]] = []
    tol = 1e-4

    def run(name, f, inputs, tol=tol, **kw):
        checks.append((name, gradcheck(f, inputs(_rng(name)), tol=tol, **kw)))

    def pair(*shape):
        return lambda r: [_t(r, *shape), _t(r, *shape)]

    run("add", lambda x, y: (x + y).sum(), pair(3, 4))
    run("mul", lambda x, y: (x * y).sum(), pair(3, 4))
    run("mul_broadcast", lambda x, y: (x * y).sum(), lambda r: [_t(r, 2, 3, 4), _t(r, 1, 3, 1)])
    run("gelu", lambda x: T.gelu(x).sum(), lambda r: [_t(r, 4, 5)])
    run("matmul", lambda x, y: T.matmul(x, y).sum(), lambda r: [_t(r, 4, 5), _t(r, 5, 3)],
        tol=1e-5)
    run("matmul_batched", lambda x, y: T.matmul(x, y).sum(),
        lambda r: [_t(r, 2, 4, 5), _t(r, 5, 3)])
    run("reshape", lambda x: (T.reshape(x, (6, 2)) * 2.0).sum(), lambda r: [_t(r, 3, 4)])
    run("transpose", lambda x: (T.transpose(x, (1, 0)) * 3.0).sum(), lambda r: [_t(r, 3, 4)])
    run("concat", lambda x, y: T.concat([x, y], axis=1).sum(),
        lambda r: [_t(r, 2, 3), _t(r, 2, 2)])
    run("getitem", lambda x: x[:, 1:3].sum(), lambda r: [_t(r, 2, 4)])
    run("softmax", lambda x: (T.softmax(x) * T.softmax(x)).sum(), lambda r: [_t(r, 3, 5)])
    run("linear", lambda x, ww, bb: nn.linear(x, ww, bb).sum(),
        lambda r: [_t(r, 5, 8), _t(r, 4, 8, scale=0.3), _t(r, 4, scale=0.1)], tol=1e-5)
    checks.append(("conv3d_lrelu", _conv3d_tiles_check(tol)))
    checks.append(("conv_norm_pool_in", _conv_norm_pool_check(nn.InstanceNorm3d, tol)))
    checks.append(("conv_norm_pool_bn", _conv_norm_pool_check(nn.BatchNorm3d, tol)))
    run("adaptive_avg_pool3d", lambda x: nn.adaptive_avg_pool3d(x, (2, 2, 2)).sum(),
        lambda r: [_t(r, 1, 2, 5, 6, 7)])

    # norms are checked through a fixed projection: sum(norm(x)^2) is constant
    # by construction, so its true gradient is ~0 and relative error
    # meaningless.  A projection comes from its own generator: gradcheck
    # perturbs every input it is given.
    lnorm = nn.LayerNorm(8, dtype=np.float64)
    proj_l = Tensor(_rng("layer_norm.proj").standard_normal((4, 8)))
    run("layer_norm", lambda x: (lnorm(x) * proj_l).sum(), lambda r: [_t(r, 4, 8)], tol=1e-5)

    attn = nn.MultiHeadAttention(4, 2, rng=np.random.default_rng(3), dtype=np.float64)
    run("multi_head_attention", lambda x: (attn(x) * attn(x)).sum(), lambda r: [_t(r, 1, 3, 4)])

    enc = nn.TransformerEncoder(4, 2, depth=1, rng=np.random.default_rng(4), dtype=np.float64)
    proj_e = Tensor(_rng("transformer_encoder.proj").standard_normal((1, 3, 4)))
    run("transformer_encoder", lambda x: (enc(x) * proj_e).sum(), lambda r: [_t(r, 1, 3, 4)],
        tol=1e-4)

    labels = np.array([0, 1, 0])
    run("cross_entropy", lambda x: nn.cross_entropy(x, labels), lambda r: [_t(r, 3, 2)],
        tol=1e-6)

    def dropout_frozen(x):
        # identical mask every evaluation: the rng is re-seeded inside the closure
        return (nn.dropout3d(x, True, np.random.default_rng(11)) * 2.0).sum()

    run("dropout3d_frozen_mask", dropout_frozen, lambda r: [_t(r, 1, 6, 2, 2, 2)])
    run("vvit_patchify", lambda x: (M.vvit_patchify(x, 2) * 2.0).sum(),
        lambda r: [_t(r, 1, 1, 3, 4, 3)])
    return checks


def _conv3d_tiles_check(tol: float):
    """Sampled check of conv3d with its leaky ReLU at slope 0.2, batch 2,
    at stride 1 and 2 on non-cubic extents, with the tile budget cut to two
    324-element output planes (Cin*27*Ho*Wo): each sample's columns span 4
    backward tiles, the last partial, and 7 one-plane forward tiles of
    ``nn._TILE // nn._LANES``.  Inputs come from seed 19 and the samples
    from seed 20."""
    rng = np.random.default_rng(19)
    x1, x2 = _t(rng, 2, 2, 7, 2, 3), _t(rng, 2, 2, 13, 3, 5)       # both give 7x2x3
    w, b = _t(rng, 3, 2, 3, 3, 3, scale=0.2), _t(rng, 3, scale=0.1)
    p1, p2 = (Tensor(rng.standard_normal((2, 3, 7, 2, 3))) for _ in range(2))
    params = [("x_stride1", x1), ("x_stride2", x2), ("weight", w), ("bias", b)]

    def loss():
        return ((nn.conv3d(x1, w, b, stride=1, padding=1) * p1).sum()
                + (nn.conv3d(x2, w, b, stride=2, padding=1) * p2).sum())

    saved, nn._TILE = nn._TILE, 700
    try:
        return sampled_gradcheck(loss, params, n_samples=200, eps=1e-6, tol=tol,
                                 rng=np.random.default_rng(20))
    finally:
        nn._TILE = saved


def _conv_norm_pool_check(layer_type, tol: float):
    """Check of the conv-norm-pool node, its leaky ReLU included, through
    ``layer_type(3)`` in training, a 1 -> 3 channel conv and a (3, 2) pool,
    over x, the conv weight, gamma and beta, at batch 2 and on extents that
    stride 2 does not divide.  The tile budget is cut to three conv output
    planes: three tiles per sample, overlapping by one plane, and one plane
    per backward tile.  The central difference's error falls as eps^2 here,
    so the step is 1e-5.  Inputs come from seed 21."""
    rng = np.random.default_rng(21)
    layer = layer_type(3, dtype=np.float64)
    x, w = _t(rng, 2, 1, 7, 4, 5), _t(rng, 3, 1, 3, 3, 3, scale=0.3)
    gamma, beta = _t(rng, 3), _t(rng, 3)
    proj = Tensor(rng.standard_normal((2, 3, 3, 1, 2)))

    def loss(xx, ww, g, b):
        return (_with_affine(layer, g, b)(xx, ww, (3, 2)) * proj).sum()

    saved, nn._TILE = nn._TILE, 3 * 3 * 4 * 5
    try:
        return gradcheck(loss, [x, w, gamma, beta], eps=1e-5, tol=tol)
    finally:
        nn._TILE = saved


def _with_affine(layer, gamma, beta):
    layer.gamma, layer.beta = gamma, beta
    return layer


def suite_gradcheck() -> list[CheckResult]:
    results = []
    for name, report in operator_gradchecks():
        results.append(CheckResult(f"gradcheck.{name}", report.passed,
                                   f"max_rel_err={report.max_rel_err:.3e} tol={report.tol:g}"))
    return results


def suite_params() -> list[CheckResult]:
    results = []
    vvit = M.build_model(M.build_config("vvit", "tiny"))
    counts = M.param_count(vvit)
    results.append(CheckResult(
        "params.vvit_tiny_embedding_24000192",
        counts["embedding"] == 24_000_192, f"got {counts['embedding']}"))
    enc = counts["encoder"]
    results.append(CheckResult(
        "params.encoder_tiny_within_10pct_of_5.3M",
        abs(enc - 5_300_000) <= 530_000, f"got {enc}"))
    cvvt = M.build_model(M.build_config("cvvt", "tiny"))
    c = M.param_count(cvvt)
    results.append(CheckResult(
        "params.cvvt_tiny_embedding_in_band",
        500_000 <= c["embedding"] <= 3_000_000, f"got {c['embedding']}"))
    results.append(CheckResult(
        "params.cvvt_embedding_smaller_than_encoder",
        c["embedding"] < c["encoder"], f"embed {c['embedding']} vs encoder {c['encoder']}"))
    results.append(CheckResult(
        "params.vvit_imbalance_ratio_over_4",
        counts["embedding"] / enc > 4, f"ratio {counts['embedding'] / enc:.2f}"))
    return results


def suite_shapes() -> list[CheckResult]:
    results = []
    trace = dict(M.shape_infer(M.build_config("vvit", "tiny")))
    results.append(CheckResult("shapes.vvit_80_patches",
                               trace["patchify"][1] == 80, f"got {trace['patchify']}"))
    trace = dict(M.shape_infer(M.build_config("cvvt", "tiny")))
    results.append(CheckResult("shapes.cvvt_feature_grid_80x10x10x10",
                               trace["embed.adaptive_pool"] == (1, 80, 10, 10, 10),
                               f"got {trace['embed.adaptive_pool']}"))
    results.append(CheckResult("shapes.cvvt_80_tokens",
                               trace["token_embed"][1] == 80, f"got {trace['token_embed']}"))
    trace = dict(M.shape_infer(M.build_config("convnet3d4")))
    ok = (trace["block4.pool"] == (1, 512, 2, 2, 2) and trace["flatten"] == (1, 4096)
          and trace["embed"] == (1, 512))
    results.append(CheckResult("shapes.convnet_full_trace_512x2x2x2_4096_512", ok,
                               f"block4.pool={trace['block4.pool']} "
                               f"flatten={trace['flatten']} embed={trace['embed']}"))
    try:
        M.shape_infer(M.build_config("convnet3d4", extents=(8, 8, 8)))
        results.append(CheckResult("shapes.convnet_8cubed_underflows", False, "no error raised"))
    except M.ShapeUnderflowError as e:
        results.append(CheckResult("shapes.convnet_8cubed_underflows",
                                   e.layer == "block2.pool", f"raised at {e.layer}"))
    return results


def suite_norms() -> list[CheckResult]:
    """batchnorm3d in training mode at batch 1 must match instancenorm3d, to
    1e-5 over 100 random inputs: the normalization and its leaky ReLU,
    through a delta weight and a 1^3 pool, and the ConvNet3D-4 block,
    through a random conv weight and a (3, 2) pool."""
    results = []
    n_inputs, tol = 100, 1e-5
    for pooled, seed, low, suffix in ((False, 123, 2, ""), (True, 124, 3, "_pooled")):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_inputs):
            c = int(rng.integers(1, 5))
            sp = tuple(rng.integers(low, low + 4, size=3))
            x = rng.standard_normal((1, c) + sp).astype(np.float32) * rng.uniform(0.5, 3.0)
            gamma = rng.standard_normal(c).astype(np.float32)
            beta = rng.standard_normal(c).astype(np.float32)
            if pooled:
                w = Tensor(rng.standard_normal((c, c, 3, 3, 3)).astype(np.float32) * 0.3)
                pool = (3, 2)
            else:
                w, pool = delta_weight(c), (1, 1)
            bn = nn.BatchNorm3d(c)
            inorm = nn.InstanceNorm3d(c)
            for layer in (bn, inorm):
                layer.gamma.data[:] = gamma
                layer.beta.data[:] = beta
            bn.train()
            diff = float(np.abs(bn(Tensor(x), w, pool).data
                                - inorm(Tensor(x), w, pool).data).max())
            worst = max(worst, diff)
        results.append(CheckResult(f"norms.batchnorm_n1_equals_instancenorm{suffix}",
                                   worst < tol, f"max abs diff {worst:.2e} over {n_inputs} "
                                                f"inputs (tol {tol:g})"))
    return results


SUITES = {
    "gradcheck": suite_gradcheck,
    "params": suite_params,
    "shapes": suite_shapes,
    "norms": suite_norms,
}


def run_suites(names: list[str]) -> tuple[list[CheckResult], bool]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name]())
    return results, all(r.passed for r in results)
