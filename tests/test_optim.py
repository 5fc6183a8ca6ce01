import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxformer.optim import (_BLOCK, ADAMW_BETAS, ADAMW_EPS, AdamW, OptimizerError,
                             TrainConfig, grid_enumerate, lr_at)
from voxformer.tensor import Tensor


def sched(base=0.01, step=25, gamma=0.3):
    return TrainConfig(lr=base, weight_decay=0.0, step_size=step, gamma=gamma)


# ---------------------------------------------------------------------------
# schedule

def test_warmup_ramp_epoch4():
    assert lr_at(4, sched()) == pytest.approx(0.005)


def test_warmup_endpoint_epoch9_is_base():
    assert lr_at(9, sched()) == 0.01


def test_warmup_epoch0_nonzero():
    assert lr_at(0, sched()) == pytest.approx(0.001)


def test_step_decay_post_warmup():
    # post-warmup index 50 = absolute epoch 60 -> two decays of 0.3
    assert lr_at(60, sched()) == pytest.approx(9e-4)


def test_decay_clock_starts_after_warmup():
    s = sched(step=25)
    assert lr_at(10, s) == 0.01          # first post-warmup epoch, no decay yet
    assert lr_at(34, s) == 0.01          # post-warmup index 24, still no decay
    assert lr_at(35, s) == pytest.approx(0.003)


def test_epoch_out_of_range():
    with pytest.raises(ValueError):
        lr_at(100, sched())
    with pytest.raises(ValueError):
        lr_at(-1, sched())


def test_short_run_compresses_warmup():
    tc = TrainConfig(lr=0.01, weight_decay=0.0, step_size=25, gamma=0.3, total_epochs=4)
    assert [lr_at(e, tc) for e in range(4)] == pytest.approx([0.0025, 0.005, 0.0075, 0.01])


@pytest.mark.parametrize("field", ["step_size", "batch_size"])
def test_train_config_rejects_counts_below_one(field):
    kwargs = {"lr": 0.01, "weight_decay": 0.0, "step_size": 25, "gamma": 0.3, field: 0}
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("total_epochs", -1), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", -1e-3), ("weight_decay", float("nan")), ("gamma", -1.0),
    ("gamma", float("nan")), ("gamma", float("inf"))])
def test_train_config_rejects_negative_or_non_finite(field, value):
    kwargs = {"lr": 0.01, "weight_decay": 0.0, "step_size": 25, "gamma": 0.3, field: value}
    with pytest.raises(ValueError, match=field):
        TrainConfig(**kwargs)


def test_train_config_accepts_zero_epochs_and_zero_rates():
    TrainConfig(lr=0.0, weight_decay=0.0, step_size=25, gamma=0.3, total_epochs=0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.01, 0.001, 0.0001]), st.sampled_from([25, 40, 80]),
       st.sampled_from([0.3, 0.5, 0.9]))
def test_lr_monotone_up_then_down(base, step, gamma):
    s = sched(base, step, gamma)
    values = [lr_at(e, s) for e in range(100)]
    assert all(a <= b + 1e-15 for a, b in zip(values[:10], values[1:10]))
    assert all(a >= b - 1e-15 for a, b in zip(values[9:], values[10:]))
    assert all(v >= 0 for v in values)


# ---------------------------------------------------------------------------
# grid

def test_grid_has_54_configs():
    configs = grid_enumerate()
    assert len(configs) == 54
    assert len(set(configs)) == 54


def test_grid_first_element_and_order():
    first = grid_enumerate()[0]
    assert (first.lr, first.weight_decay, first.step_size, first.gamma) == \
        (0.01, 0.001, 25, 0.3)
    second = grid_enumerate()[1]
    assert (second.lr, second.gamma) == (0.01, 0.5)   # gamma varies fastest


def test_grid_carries_schema_constants():
    cfg = grid_enumerate()[0]
    assert cfg.total_epochs == 100
    assert cfg.batch_size == 1
    assert cfg.warmup_epochs == 10


# ---------------------------------------------------------------------------
# AdamW

def test_adamw_single_step_hand_computed():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamW({"p": p}, lr=0.001, weight_decay=0.001)
    opt.step()
    # mhat = vhat = 1 at t=1, so the update is -lr * 1/(1+eps) - lr*wd*1
    assert p.data[0] == pytest.approx(0.998999, abs=1e-6)


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
    for _ in range(5):
        opt.step()
    np.testing.assert_array_equal(p.data, [2.0, -3.0])


def test_adamw_pure_decay():
    p = Tensor(np.array([4.0]), requires_grad=True)
    p.grad = np.zeros(1)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.1)
    opt.step()
    assert p.data[0] == pytest.approx(4.0 * (1 - 0.01 * 0.1))


def reference_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, the independent scalar oracle for the wd=0 identity."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(theta)
    return out


def test_adamw_wd0_matches_scalar_adam_oracle():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal(100)
    p = Tensor(np.array([0.7]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.003, weight_decay=0.0)
    trajectory = []
    for g in grads:
        p.grad = np.array([g])
        opt.step()
        trajectory.append(p.data[0])
    want = reference_adam(0.7, grads, lr=0.003)
    np.testing.assert_allclose(trajectory, want, rtol=1e-10)


def test_adamw_permutation_consistency():
    # each parameter's update depends only on (theta, g, its own state)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(4)
    grads = rng.standard_normal((3, 4))
    joint = Tensor(vals.copy(), requires_grad=True)
    opt = AdamW({"p": joint}, lr=0.01, weight_decay=0.001)
    for g in grads:
        joint.grad = g.copy()
        opt.step()
    singles = []
    for i in range(4):
        p = Tensor(np.array([vals[i]]), requires_grad=True)
        o = AdamW({"p": p}, lr=0.01, weight_decay=0.001)
        for g in grads:
            p.grad = np.array([g[i]])
            o.step()
        singles.append(p.data[0])
    np.testing.assert_allclose(joint.data, singles, rtol=1e-12)


def test_adamw_missing_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"encoder.weight": p}, lr=0.01)
    with pytest.raises(OptimizerError, match="encoder.weight"):
        opt.step()


def test_adamw_nonfinite_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    opt = AdamW({"head.bias": p}, lr=0.01)
    with pytest.raises(OptimizerError, match="head.bias"):
        opt.step()


def test_adamw_shape_mismatch_rejected():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(3)
    opt = AdamW({"p": p}, lr=0.01)
    with pytest.raises(OptimizerError):
        opt.step()


def reference_step(opt: AdamW) -> None:
    """The unblocked AdamW update with full-size temporaries: the oracle that
    the blocked in-place step must match bit for bit."""
    opt.t += 1
    b1, b2 = ADAMW_BETAS
    bc1 = 1.0 - b1 ** opt.t
    bc2 = 1.0 - b2 ** opt.t
    for name, p in opt.params.items():
        g = p.grad
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
        if opt.weight_decay:
            update = update + opt.weight_decay * p.data
        p.data -= (opt.lr * update).astype(p.dtype)


ORACLE_SIZES = (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


def _oracle_params(dtype, rng):
    params = {f"p{n}": Tensor(rng.standard_normal(n).astype(dtype), requires_grad=True)
              for n in ORACLE_SIZES}
    params["wT"] = Tensor(rng.standard_normal((300, 250)).astype(dtype), requires_grad=True)
    return params


def _set_oracle_grads(params, rng):
    for name, p in params.items():
        if name == "wT":   # a non-contiguous view, as a transpose backward yields
            p.grad = rng.standard_normal(p.shape[::-1]).astype(p.dtype).T
            assert not p.grad.flags.c_contiguous
        else:
            p.grad = (rng.standard_normal(p.shape) * 3.0).astype(p.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_blocked_step_bit_identical_to_unblocked_oracle(dtype, wd):
    rng = np.random.default_rng(5)
    params = _oracle_params(dtype, rng)
    twins = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    opt = AdamW(params, lr=0.003, weight_decay=wd)
    ref = AdamW(twins, lr=0.003, weight_decay=wd)
    for _ in range(6):
        _set_oracle_grads(params, rng)
        for k, p in twins.items():
            p.grad = params[k].grad
        opt.step()
        reference_step(ref)
    assert opt.t == ref.t == 6
    for k in params:
        assert params[k].dtype == dtype
        np.testing.assert_array_equal(params[k].data, twins[k].data)
        np.testing.assert_array_equal(opt.m[k], ref.m[k])
        np.testing.assert_array_equal(opt.v[k], ref.v[k])


def test_adamw_bad_gradient_leaves_all_state_untouched():
    rng = np.random.default_rng(2)
    params = {name: Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True)
              for name, n in (("a", 5), ("b", _BLOCK + 3), ("head.bias", 4))}
    opt = AdamW(params, lr=0.01, weight_decay=0.001)
    for _ in range(2):
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()
    before = {k: (p.data.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    for bad in (np.nan, np.inf, -np.inf):
        for p in params.values():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        params["head.bias"].grad[2] = bad
        with pytest.raises(OptimizerError, match="head.bias"):
            opt.step()
        assert opt.t == 2
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k][0])
            np.testing.assert_array_equal(opt.m[k], before[k][1])
            np.testing.assert_array_equal(opt.v[k], before[k][2])


def test_adamw_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(3)
    p = Tensor(rng.standard_normal(1 << 20).astype(np.float32), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.001, weight_decay=0.001)
    p.grad = rng.standard_normal(p.shape).astype(np.float32)
    opt.step()                      # the first step allocates the scratch buffers
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes / 4, f"step peak {peak} B for a {p.data.nbytes} B parameter"


def test_train_config_schedule_round_trip():
    tc = TrainConfig(lr=0.01, weight_decay=0.001, step_size=40, gamma=0.5)
    assert tc.warmup_epochs == 10 and tc.total_epochs == 100
    assert TrainConfig(**tc.to_dict()) == tc
