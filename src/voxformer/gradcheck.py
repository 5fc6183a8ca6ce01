"""Central finite-difference verification of analytic gradients.

All checks run in float64; central differences are too noisy in float32 to
be a trustworthy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


@dataclass
class GradcheckReport:
    """Outcome of one gradient check.

    ``max_rel_err`` is the maximum over checked coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|); exact agreement
    (including both sides zero) scores 0.
    """

    passed: bool
    tol: float
    eps: float
    max_rel_err: float
    max_abs_err: float
    checked: int
    worst: tuple[str, int] | None = None

    def __bool__(self) -> bool:
        return self.passed


def _rel_err(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    denom = max(abs(analytic), abs(numeric))
    if denom < 1e-12:
        return diff
    return diff / denom


def _check(f: Callable[[], Tensor], tensors: Sequence[Tensor],
           visits: Sequence[tuple[str, int, int]], eps: float, tol: float,
           who: str) -> GradcheckReport:
    """Analytic gradients of the scalar ``f()`` with respect to ``tensors``,
    compared against a central difference at each ``(label, tensor index,
    flat coordinate)`` visit; ``worst`` is ``(label, coordinate)``."""
    for t in tensors:
        t.grad = None
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError(f"{who}: function produced non-finite output")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    max_rel = 0.0
    max_abs = 0.0
    worst = None
    for label, i, j in visits:
        flat = tensors[i].data.reshape(-1)
        orig = flat[j]
        flat[j] = orig + eps
        hi = f().item()
        flat[j] = orig - eps
        lo = f().item()
        flat[j] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError(f"{who}: non-finite output during perturbation")
        numeric = (hi - lo) / (2.0 * eps)
        a = float(analytic[i].reshape(-1)[j])
        rel = _rel_err(a, numeric)
        max_abs = max(max_abs, abs(a - numeric))
        if rel > max_rel:
            max_rel = rel
            worst = (label, j)
    return GradcheckReport(passed=max_rel < tol, tol=tol, eps=eps,
                           max_rel_err=max_rel, max_abs_err=max_abs,
                           checked=len(visits), worst=worst)


def gradcheck(f: Callable[..., Tensor], xs: Tensor | Sequence[Tensor],
              eps: float = 1e-6, tol: float = 1e-4) -> GradcheckReport:
    """Compare analytic gradients of scalar ``f(*xs)`` against central differences
    at every coordinate of every input.

    ``xs`` are the differentiation points; each must be a float64 Tensor.
    """
    inputs = [xs] if isinstance(xs, Tensor) else list(xs)
    for i, x in enumerate(inputs):
        if x.dtype != np.float64:
            raise TypeError(f"gradcheck input {i} must be float64, got {x.dtype.name}")
        x.requires_grad = True
    visits = [(f"input{i}", i, j) for i, x in enumerate(inputs) for j in range(x.size)]
    return _check(lambda: f(*inputs), inputs, visits, eps, tol, "gradcheck")


def sampled_gradcheck(f: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
                      rng: np.random.Generator, n_samples: int = 20, eps: float = 1e-5,
                      tol: float = 1e-3) -> GradcheckReport:
    """Whole-model check: sample coordinates across all parameters jointly.

    ``f`` is a zero-argument closure over the parameters returning the scalar
    loss.  Coordinates are drawn by ``rng`` from the concatenated parameter
    space, so large models pay for ``2 * n_samples`` extra forward passes,
    not for a full sweep.
    """
    params = list(params)
    for name, p in params:
        if p.dtype != np.float64:
            raise TypeError(f"sampled_gradcheck parameter {name} must be float64")
    sizes = np.array([p.size for _, p in params])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    picks = rng.choice(int(offsets[-1]), size=min(n_samples, int(offsets[-1])),
                       replace=False)
    visits = []
    for flat in sorted(int(c) for c in picks):
        i = int(np.searchsorted(offsets, flat, side="right") - 1)
        visits.append((params[i][0], i, flat - int(offsets[i])))
    return _check(f, [p for _, p in params], visits, eps, tol, "sampled_gradcheck")
