"""Dense N-D tensors with a recorded computation graph and reverse-mode gradients.

Tensors hold row-major numpy buffers (float32 or float64, at most 5 axes).
Every operation on grad-enabled tensors records a node so that
``backward()`` on a scalar result fills ``.grad`` on all reachable leaves,
consuming the recorded graph as it goes.
Recording is disabled inside the ``no_grad()`` context (inference mode).
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np
from scipy import special as _special

MAX_NDIM = 5
_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class AutodiffError(RuntimeError):
    """Raised on invalid graph operations (non-scalar root, double backward, ...)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt.type not in _FLOAT_DTYPES:
        raise TypeError(f"tensor dtype must be float32 or float64, got {dt}")
    return dt


class Tensor:
    """N-D array (<= 5 axes) with optional gradient tracking.

    ``data`` is always a contiguous numpy array.  ``grad`` is populated by
    ``backward()`` and has the same shape and dtype as ``data``.  It may
    share memory with other gradients of the same graph and need not be
    contiguous or writeable: treat it as read-only, and copy it before
    changing it in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "op", "_backward_done")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw data, not another Tensor")
        if dtype is None:
            arr = np.asarray(data)
            dtype = arr.dtype if arr.dtype.type in _FLOAT_DTYPES else np.float64
        arr = np.asarray(data, dtype=_as_dtype(dtype))
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > MAX_NDIM:
            raise ShapeError(f"at most {MAX_NDIM} dimensions supported, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"zero-size tensors are not supported, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self.op = "leaf"
        self._backward_done = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r}, "
                f"requires_grad={self.requires_grad})")

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- graph mechanics -----------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root that consumes the graph.

        Each node's backward closure and parent links are dropped as soon as
        it has run, so every array a node saved is freed once no later node
        needs it, and an interior tensor nobody else holds is freed with its
        gradient.  Leaves and the tensors the caller still holds (the root,
        logits, ...) keep ``.data`` and ``.grad``.  Gradients accumulate into
        ``.grad``: clear parameter gradients before each forward pass.
        Calling twice on the same root is an error (the graph is gone; rerun
        the forward pass), as is calling on a tensor with no recorded history.
        """
        if self.size != 1:
            raise AutodiffError(f"backward() requires a scalar root, got shape {self.shape}")
        if self._backward_done:
            raise AutodiffError("backward() already ran for this root; rebuild the "
                                "graph (rerun the forward pass) before calling again")
        if self._backward_fn is None and not self._parents:
            raise AutodiffError("backward() on a tensor with no recorded graph "
                                "(detached, or created under no_grad)")
        self._backward_done = True

        order = self._toposort()
        self.grad = np.ones_like(self.data)
        for i, node in enumerate(order):
            order[i] = None     # the sweep list must not keep a finished node alive
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            node._backward_fn, node._parents = None, ()

    def _toposort(self) -> list["Tensor"]:
        # Iterative DFS: graphs from deep models overflow the recursion limit.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        order.reverse()
        return order

    def _accumulate(self, g: np.ndarray) -> None:
        # The first contribution is stored as is: it may be a view of another
        # node's gradient (pass-through ops such as add or reshape), so later
        # contributions rebind to a fresh sum instead of writing in place.
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.dtype, copy=False)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self):
        return tsum(self)


def _coerce_pair(a: Tensor, b) -> tuple[Tensor, Tensor]:
    """Promote a python scalar operand to a 0-d tensor of ``a``'s dtype."""
    if not isinstance(a, Tensor):
        raise TypeError("first operand must be a Tensor")
    if isinstance(b, Tensor):
        if a.dtype != b.dtype:
            raise TypeError(f"mixed dtypes {a.dtype.name} and {b.dtype.name}; cast explicitly")
        return a, b
    if np.isscalar(b):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    raise TypeError(f"operand must be Tensor or scalar, got {type(b).__name__}")


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"operand shapes {sa} and {sb} are not compatible") from None


def reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape`` (inverse of numpy broadcast)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` is recorded for the backward pass."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    """The result of op ``op``: a node of the graph when ``_records(parents)``."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad, out._parents, out._backward_fn = True, parents, backward_fn
    out.op = op
    return out


# -- arithmetic ----------------------------------------------------------------

def _binary(a: Tensor, b, op: str, fwd, da, db) -> Tensor:
    a, bt = _coerce_pair(a, b)
    _broadcast_shape(a.shape, bt.shape)
    out = fwd(a.data, bt.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(reduce_to_shape(da(g, a.data, bt.data), a.shape))
        if bt.requires_grad:
            bt._accumulate(reduce_to_shape(db(g, a.data, bt.data), bt.shape))

    return _node(out, (a, bt), backward, op)


def add(a: Tensor, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def mul(a: Tensor, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def _unary(a: Tensor, op: str, out: np.ndarray, grad_local) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad_local(g))

    return _node(out, (a,), backward, op)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    inv_sqrt2 = x.dtype.type(1.0 / np.sqrt(2.0))
    cdf = 0.5 * (1.0 + _special.erf(x * inv_sqrt2))
    pdf = np.exp(-0.5 * x * x) * x.dtype.type(1.0 / np.sqrt(2.0 * np.pi))
    return _unary(a, "gelu", x * cdf, lambda g: g * (cdf + x * pdf))


# -- reductions ------------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """The sum of every element: the scalar a gradient check differentiates."""
    return _unary(a, "sum", np.asarray(a.data.sum(), dtype=a.dtype),
                  lambda g: np.broadcast_to(g, a.shape))


# -- matmul ----------------------------------------------------------------------

def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes, broadcasting leading axes."""
    if not isinstance(b, Tensor):
        raise TypeError("matmul operands must be Tensors")
    if a.dtype != b.dtype:
        raise TypeError(f"mixed dtypes {a.dtype.name} and {b.dtype.name}")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(reduce_to_shape(np.matmul(g, _swap_last(b.data)), a.shape))
        if b.requires_grad:
            b._accumulate(reduce_to_shape(np.matmul(_swap_last(a.data), g), b.shape))

    return _node(out, (a, b), backward, "matmul")


# -- layout ops --------------------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    new_size = int(np.prod(shape)) if shape else 1
    if any(n == -1 for n in shape):
        known = int(np.prod([n for n in shape if n != -1]))
        if known == 0 or a.size % known:
            raise ShapeError(f"cannot reshape {a.shape} into {shape}")
        shape = tuple(a.size // known if n == -1 else n for n in shape)
        new_size = a.size
    if new_size != a.size:
        raise ShapeError(f"reshape element count mismatch: {a.shape} -> {shape}")
    if len(shape) > MAX_NDIM:
        raise ShapeError(f"reshape target {shape} exceeds {MAX_NDIM} dimensions")
    return _unary(a, "reshape", a.data.reshape(shape),
                  lambda g: g.reshape(a.shape))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _unary(a, "transpose", np.ascontiguousarray(a.data.transpose(axes)),
                  lambda g: g.transpose(inverse))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty sequence")
    axis = axis % tensors[0].ndim
    base = tensors[0]
    for t in tensors[1:]:
        if t.ndim != base.ndim or t.dtype != base.dtype:
            raise ShapeError(f"concat rank/dtype mismatch: {base.shape} vs {t.shape}")
        for ax in range(base.ndim):
            if ax != axis and t.shape[ax] != base.shape[ax]:
                raise ShapeError(
                    f"concat on axis {axis} needs equal non-axis extents: "
                    f"{base.shape} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g: np.ndarray) -> None:
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _node(out, tuple(tensors), backward, "concat")


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing with gradient scatter on the backward pass."""
    out = a.data[idx]

    def scatter(g: np.ndarray) -> np.ndarray:
        buf = np.zeros_like(a.data)
        buf[idx] = g
        return buf

    return _unary(a, "getitem", np.ascontiguousarray(out), scatter)


# -- softmax (trailing axis) ---------------------------------------------------------

def softmax(a: Tensor) -> Tensor:
    """Exp-normalize over the trailing axis, max-subtracted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_local(g: np.ndarray) -> np.ndarray:
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _unary(a, "softmax", y, grad_local)
