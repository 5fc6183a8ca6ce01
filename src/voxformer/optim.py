"""AdamW with decoupled weight decay, the warmup + step-decay schedule, and
the hyper-parameter grid."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import Tensor


class OptimizerError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """One grid point plus the fixed training-schema constants."""

    lr: float
    weight_decay: float
    step_size: int
    gamma: float
    total_epochs: int = 100
    warmup_epochs: int = 10
    batch_size: int = 1

    def __post_init__(self):
        for name in ("step_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.total_epochs < 0:
            raise ValueError(f"total_epochs must be >= 0, got {self.total_epochs}")
        # a negative lr is gradient ascent, a negative weight decay grows
        # weights, a negative gamma flips the rate's sign every step period
        for name in ("lr", "weight_decay", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


def lr_at(epoch: int, tc: TrainConfig) -> float:
    """Learning rate for one epoch: linear ramp to ``tc.lr`` over the warmup
    epochs ((epoch+1)/warmup, so epoch 0 is nonzero), then geometric step
    decay whose clock starts when warmup ends.  A run shorter than the
    warmup compresses the ramp to fit."""
    if not 0 <= epoch < tc.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {tc.total_epochs})")
    w = min(tc.warmup_epochs, tc.total_epochs)
    if epoch < w:
        return tc.lr * (epoch + 1) / w
    return tc.lr * tc.gamma ** ((epoch - w) // tc.step_size)


# The searched hyper-parameter lists, in printed order.
GRID_LRS = (0.01, 0.001, 0.0001)
GRID_WEIGHT_DECAYS = (0.001, 0.0)
GRID_STEP_SIZES = (25, 40, 80)
GRID_GAMMAS = (0.3, 0.5, 0.9)


def grid_enumerate(**schema) -> list[TrainConfig]:
    """All combinations in deterministic lexicographic order over the lists."""
    return [TrainConfig(lr=lr, weight_decay=wd, step_size=ss, gamma=g, **schema)
            for lr, wd, ss, g in itertools.product(GRID_LRS, GRID_WEIGHT_DECAYS,
                                                   GRID_STEP_SIZES, GRID_GAMMAS)]


# AdamW's fixed moment decay rates and denominator floor.
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8

# Elements per update block: big enough to amortize the per-call overhead of
# a ufunc, small enough that a block of data, grad, m, v and the two scratch
# buffers stays in cache.  On a 2-vCPU Xeon VM 2**14 to 2**16 measured
# fastest for a 24M-element float32 parameter; 2**17 was about 13% slower.
_BLOCK = 1 << 16


class AdamW:
    """Decoupled weight decay Adam: theta -= lr * (mhat/(sqrt(vhat)+eps) + wd * theta).

    ``step`` checks every gradient before it changes any state, so a bad
    gradient leaves parameters, ``m``, ``v`` and ``t`` as they were.  It then
    updates each parameter and its moments in place, one block of ``_BLOCK``
    elements at a time, through two block-sized scratch buffers per dtype:
    a step allocates nothing the size of a parameter.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _check_gradients(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise OptimizerError(f"parameter {name!r} has no gradient")
            if g.shape != p.data.shape:
                raise OptimizerError(f"parameter {name!r}: gradient shape {g.shape} "
                                     f"!= parameter shape {p.data.shape}")
            # NaN propagates through min and max, and an infinity is an extreme
            if not (np.isfinite(g.min()) and np.isfinite(g.max())):
                raise OptimizerError(f"non-finite gradient for parameter {name!r}")

    def step(self) -> None:
        self._check_gradients()
        self.t += 1
        b1, b2 = ADAMW_BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        lr, wd, eps = self.lr, self.weight_decay, ADAMW_EPS
        for name, p in self.params.items():
            if p.dtype not in self._scratch:
                self._scratch[p.dtype] = (np.empty(_BLOCK, p.dtype), np.empty(_BLOCK, p.dtype))
            a, u = self._scratch[p.dtype]
            theta = p.data.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            g = p.grad
            # a non-contiguous gradient is read through flat, a block-sized copy
            g = g.reshape(-1) if g.flags.c_contiguous else g.flat
            for s in range(0, theta.size, _BLOCK):
                e = min(s + _BLOCK, theta.size)
                tb, mb, vb, gb = theta[s:e], m[s:e], v[s:e], g[s:e]
                ab, ub = a[:e - s], u[:e - s]
                # the operation order of the unblocked update, kept so that
                # results are bit-identical to it:
                # m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*(g*g)
                np.multiply(mb, b1, out=mb)
                np.multiply(gb, 1.0 - b1, out=ab)
                np.add(mb, ab, out=mb)
                np.multiply(vb, b2, out=vb)
                np.multiply(gb, gb, out=ab)
                np.multiply(ab, 1.0 - b2, out=ab)
                np.add(vb, ab, out=vb)
                # u = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*theta] ; theta -= lr*u
                np.divide(vb, bc2, out=ab)
                np.sqrt(ab, out=ab)
                np.add(ab, eps, out=ab)
                np.divide(mb, bc1, out=ub)
                np.divide(ub, ab, out=ub)
                if wd:
                    np.multiply(tb, wd, out=ab)
                    np.add(ub, ab, out=ub)
                np.multiply(ub, lr, out=ub)
                np.subtract(tb, ub, out=tb)
