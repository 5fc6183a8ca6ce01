import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxformer.tensor import (AutodiffError, ShapeError, Tensor, add, concat,
                              gelu, getitem, matmul, mul, no_grad,
                              reshape, softmax, transpose, tsum)
from voxformer import models as M
from voxformer import nn
from voxformer import tensor as T
from voxformer.gradcheck import gradcheck


def randt(shape, seed=0, dtype=np.float64, requires_grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), dtype=dtype, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# construction

def test_rejects_more_than_five_dims():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2, 2, 2)))


def test_rejects_non_float_dtypes():
    with pytest.raises(TypeError):
        Tensor(np.zeros(3), dtype=np.int32)


def test_rejects_empty():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# arithmetic

def test_add_zero_identity():
    a = randt((3, 4), seed=1)
    out = add(a, Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out.data, a.data)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        add(randt((3, 4)), randt((2, 5)))
    assert "(3, 4)" in str(err.value) and "(2, 5)" in str(err.value)


def test_scalar_operand():
    out = mul(Tensor([1.0, 2.0]), 3.0)
    np.testing.assert_allclose(out.data, [3.0, 6.0])


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    b = randt((3, 7), seed=2)
    out = matmul(Tensor(np.eye(3)), b)
    np.testing.assert_allclose(out.data, b.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeError):
        matmul(randt((2, 3)), randt((4, 2)))


def test_matmul_gradcheck_random():
    a = randt((4, 5), seed=3, requires_grad=True)
    b = randt((5, 3), seed=4, requires_grad=True)
    assert gradcheck(lambda x, y: matmul(x, y).sum(), [a, b], tol=1e-5).passed


def test_matmul_batched_leading_dim():
    a = randt((2, 4, 5), seed=5, requires_grad=True)
    b = randt((5, 3), seed=6, requires_grad=True)
    out = matmul(a, b)
    assert out.shape == (2, 4, 3)
    assert gradcheck(lambda x, y: matmul(x, y).sum(), [a, b], tol=1e-5).passed


# ---------------------------------------------------------------------------
# layout ops

def test_reshape_count_mismatch():
    with pytest.raises(ShapeError):
        reshape(randt((3, 4)), (5, 3))


def test_concat_unequal_extent_error():
    with pytest.raises(ShapeError):
        concat([randt((2, 3)), randt((3, 3))], axis=1)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
              elements=st.floats(-10, 10)))
def test_reshape_inverse_is_identity(arr):
    t = Tensor(arr)
    back = reshape(reshape(t, (-1,)), arr.shape)
    np.testing.assert_array_equal(back.data, arr)


def test_concat_split_roundtrip_gradients():
    a = randt((2, 3), seed=7, requires_grad=True)
    b = randt((2, 2), seed=8, requires_grad=True)
    out = concat([a, b], axis=1)
    tsum(mul(out, 2.0)).backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))


def test_transpose_backward_routes():
    a = randt((2, 3), seed=9, requires_grad=True)
    g = np.arange(6.0).reshape(3, 2)
    out = transpose(a, (1, 0))
    mul(out, Tensor(g)).sum().backward()
    np.testing.assert_allclose(a.grad, g.T)


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_sum_gives_ones():
    x = randt((2, 3, 2), seed=10, requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 2)))


def test_backward_square():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    mul(x, x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_non_scalar_root_rejected():
    x = randt((2, 2), seed=11, requires_grad=True)
    with pytest.raises(AutodiffError):
        mul(x, 2.0).backward()


def test_backward_twice_rejected():
    x = randt((3,), seed=12, requires_grad=True)
    y = x.sum()
    y.backward()
    with pytest.raises(AutodiffError):
        y.backward()


def test_backward_on_detached_rejected():
    with pytest.raises(AutodiffError):
        Tensor([1.0]).backward()


def test_no_grad_disables_recording():
    x = randt((3,), seed=13, requires_grad=True)
    with no_grad():
        y = mul(x, x).sum()
    assert not y.requires_grad
    with pytest.raises(AutodiffError):
        y.backward()


def test_grad_accumulates_across_reuse():
    x = Tensor([2.0], requires_grad=True)
    add(mul(x, x), mul(x, 3.0)).sum().backward()   # d/dx (x^2 + 3x) = 2x + 3
    assert x.grad[0] == pytest.approx(7.0)


def backward_snapshotting_grads(root):
    """Run ``root.backward()``; return (node, gradient as its backward saw it)
    for every interior node, so a later in-place write is detectable."""
    seen = []
    for node in root._toposort():
        fn = node._backward_fn
        if fn is None:
            continue

        def snap(g, node=node, fn=fn):
            seen.append((node, np.array(g, copy=True)))
            fn(g)

        node._backward_fn = snap
    root.backward()
    return seen


def assert_upstream_grads_unchanged(seen):
    assert seen
    for node, g in seen:
        np.testing.assert_array_equal(node.grad, g, err_msg=f"{node.op} gradient was overwritten")


def test_pass_through_gradient_consumed_twice_is_not_overwritten():
    x = randt((3, 4), seed=20, requires_grad=True)
    y = add(x, x)
    seen = backward_snapshotting_grads(tsum(y))
    assert_upstream_grads_unchanged(seen)
    np.testing.assert_array_equal(y.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))


def test_shared_input_of_sum_and_product_gets_hand_derived_grads():
    x = randt((2, 5), seed=21, requires_grad=True)
    w = randt((2, 5), seed=22, requires_grad=True)
    s = add(x, w)
    seen = backward_snapshotting_grads(tsum(mul(s, x)))  # sum((x + w) * x)
    assert_upstream_grads_unchanged(seen)
    np.testing.assert_allclose(s.grad, x.data, rtol=1e-15)
    np.testing.assert_allclose(w.grad, x.data, rtol=1e-15)
    np.testing.assert_allclose(x.grad, 2 * x.data + w.data, rtol=1e-15)


def test_leaf_whose_first_gradient_is_a_writable_alias():
    # the scaling mul gives r a fresh writable gradient; both adds pass it
    # through, so x's first gradient is the very buffer that r and q hold
    x = randt((2, 5), seed=25, requires_grad=True)
    w = randt((2, 5), seed=26, requires_grad=True)
    q = add(x, w)
    r = add(q, x)
    seen = backward_snapshotting_grads(tsum(mul(r, 0.1)))
    assert_upstream_grads_unchanged(seen)
    for t in (r, q, w):
        np.testing.assert_array_equal(t.grad, np.full((2, 5), 0.1))
    np.testing.assert_array_equal(x.grad, np.full((2, 5), 0.2))


def test_sum_mean_chain_with_reused_leaf_keeps_upstream_grads():
    x = randt((3, 4), seed=23, requires_grad=True)
    w = randt((3, 4), seed=24, requires_grad=True)
    b = add(tsum(add(x, w)), tsum(x))                    # a scalar
    seen = backward_snapshotting_grads(tsum(mul(add(b, b), 0.25)))
    assert_upstream_grads_unchanged(seen)
    np.testing.assert_array_equal(b.grad, np.array(0.5))
    np.testing.assert_array_equal(w.grad, np.full((3, 4), 0.5))
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.0))


def test_getitem_scatters_gradient():
    x = randt((3, 4), seed=14, requires_grad=True)
    x[1:, 2:].sum().backward()
    expected = np.zeros((3, 4))
    expected[1:, 2:] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_overflow_safe():
    out = softmax(Tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0])
    assert np.all(np.isfinite(out.data))


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6)),
              elements=st.floats(-30, 30)), st.floats(-50, 50))
def test_softmax_shift_invariant_and_normalized(arr, c):
    base = softmax(Tensor(arr)).data
    shifted = softmax(Tensor(arr + c)).data
    np.testing.assert_allclose(base, shifted, atol=1e-7)
    np.testing.assert_allclose(base.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(base >= 0)


# ---------------------------------------------------------------------------
# determinism

def test_forward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        return softmax(matmul(gelu(x), w)).data.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# gradcheck behavior

def test_gradcheck_constant_function_exactly_zero():
    x = randt((3,), seed=15, requires_grad=True)
    report = gradcheck(lambda t: mul(t, 0.0).sum(), x, tol=1e-6)
    assert report.passed
    assert report.max_rel_err == 0.0
    assert report.max_abs_err == 0.0


def test_gradcheck_requires_float64():
    x = Tensor(np.zeros(3, np.float32), requires_grad=True)
    with pytest.raises(TypeError):
        gradcheck(lambda t: t.sum(), x)


def test_gradcheck_catches_wrong_gradient():
    from voxformer.tensor import _node

    def bad_double(t):
        # forward 2x but backward claims 3x
        return _node(t.data * 2.0, (t,), lambda g: t._accumulate(3.0 * g), "bad")

    x = randt((3,), seed=16, requires_grad=True)
    assert not gradcheck(lambda t: bad_double(t).sum(), x, tol=1e-4).passed


# ---------------------------------------------------------------------------
# op census

def _op_names_in_package() -> set[str]:
    """Every op name the package passes as a string literal to ``_node``,
    ``_unary`` or ``_binary``."""
    names = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if getattr(f, "id", getattr(f, "attr", None)) in ("_node", "_unary", "_binary"):
                names |= {a.value for a in call.args
                          if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return names


def test_engine_ops_are_the_ops_a_train_step_records():
    """The engine holds the ops that a training forward of the four models
    records, plus the full sum that gradient checks reduce to a scalar."""
    recorded = {"sum"}
    rng = np.random.default_rng(0)
    for model, extents, kw in (("vvit", (60, 50, 50), {}), ("cvvt", (32,) * 3, {}),
                               ("convnet3d4", (32,) * 3, {"norm": "in", "pool_stride": 2}),
                               ("convnet3d4", (32,) * 3, {"norm": "bn", "pool_stride": 2})):
        net = M.build_model(M.build_config(model, extents=extents, **kw))
        net.train()
        x = Tensor(rng.standard_normal((2, 1) + extents).astype(np.float32))
        loss = nn.cross_entropy(net(x), np.array([0, 1]))
        recorded |= {node.op for node in loss._toposort()} - {"leaf"}
        loss.backward()
    package = _op_names_in_package()
    assert recorded == package, (sorted(package - recorded), sorted(recorded - package))
    assert len(package) == 17
