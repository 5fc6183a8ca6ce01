"""Neural operators: 3D convolution and pooling, normalization layers, dropout,
linear/attention/encoder blocks, and the cross-entropy loss.

Layers are small ``Module`` objects holding parameter Tensors.  The heavy
kernels are single recorded graph nodes rather than per-voxel graphs:
conv3d is tiled im2col + BLAS fused with its bias and leaky ReLU, adaptive
pooling three averaging-matrix products, and layer norm one fused
``normalize`` node.  An instance or batch norm, in every mode, is one
``maxpool3d`` node: ConvNet3D-4's conv -> norm -> max-pool -> leaky ReLU.
It runs the conv over the same im2col tiles as conv3d, pools each conv
output tile with a separable max over W, H and D and normalizes and
activates only the pooled values, so it never holds the conv output whole:
the statistics are gathered tile by tile, and the backward recomputes each
tile.  One tap iterator, ``_windows``, yields every strided kernel window
that the im2col tiles, the max passes and the winner search read; the
conv's zero padding is never materialized: each window is clipped to the
input.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import threading
from typing import Sequence

import numpy as np
from scipy import special as _special

from .tensor import (Tensor, ShapeError, _node, _records, add, gelu, matmul, mul, reshape,
                     softmax, transpose)

# Fixed layer settings: every model in this package uses these values.
CONV_KERNEL = 3         # every model conv: cubic kernel extent
CONV_PADDING = 1        # every model conv: zero padding, which keeps stride-1 extents
LEAKY_SLOPE = 0.2       # every model's LeakyReLU: max(x, LEAKY_SLOPE * x)
NORM_EPS = 1e-5         # variance floor of every normalization
BN_MOMENTUM = 0.1       # BatchNorm3d: weight of the newest batch in the running stats
DROPOUT = 0.4           # dropout3d: probability of zeroing a channel
MLP_RATIO = 4           # EncoderBlock: MLP hidden width over the embedding width


# ---------------------------------------------------------------------------
# parameter initialization

# Values per block of the random initializers and of the conv-norm-pool
# node's leaky ReLU.  Each draw block is drawn in float64 and written
# straight into the output, so no full-size float64 temporary exists.  A
# generator yields the same stream in blocks as in one call.  For a
# 24M-value float32 trunc_normal on a 2-vCPU Xeon VM (9 interleaved runs,
# median) 2**12 took 497 ms, 2**14 481, 2**16 458, 2**18 503, 2**20 563,
# and one whole-size draw 810.
_BLOCK = 1 << 16
_draw = True


@contextlib.contextmanager
def no_init():
    """Inside the block, the random initializers allocate their arrays but
    draw nothing into them: for a model whose state is loaded right after."""
    global _draw
    prev, _draw = _draw, False
    try:
        yield
    finally:
        _draw = prev


def _blocks(shape, dtype):
    """A new array of ``shape`` and its flat slices of at most ``_BLOCK``
    (none inside ``no_init``)."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    stop = flat.size if _draw else 0
    return out, (flat[s:s + _BLOCK] for s in range(0, stop, _BLOCK))


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) truncated at +-2 std, sampled by inverse-CDF (no rejection loop)."""
    lo, hi = _special.ndtr(-2.0), _special.ndtr(2.0)
    out, blocks = _blocks(shape, dtype)
    for block in blocks:
        u = rng.uniform(lo, hi, size=block.size)
        np.multiply(_special.ndtri(u, out=u), 0.02, out=block)
    return out


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int,
                   dtype=np.float32) -> np.ndarray:
    gain = math.sqrt(2.0 / (1.0 + LEAKY_SLOPE * LEAKY_SLOPE))
    std = gain / math.sqrt(fan_in)
    out, blocks = _blocks(shape, dtype)
    for block in blocks:
        np.multiply(rng.standard_normal(size=block.size), std, out=block)
    return out


# ---------------------------------------------------------------------------
# module base

class Module:
    """Minimal layer base: tracks Tensor attributes and submodules by name."""

    def __init__(self):
        self.training = True

    def named_tensors(self, prefix: str = ""):
        """All Tensor state (parameters and buffers), in attribute order."""
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_tensors(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(f"{prefix}{name}.{i}.")

    def named_parameters(self):
        for name, t in self.named_tensors():
            if t.requires_grad:
                yield name, t

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def modules(self):
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def state_buffers(self, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
        """This module's tensor arrays by name, once ``shapes`` is checked to
        name every tensor, and nothing else, with its shape."""
        own = dict(self.named_tensors())
        missing = sorted(set(own) - set(shapes))
        extra = sorted(set(shapes) - set(own))
        if missing or extra:
            raise KeyError(f"state mismatch: missing={missing} unexpected={extra}")
        for name, t in own.items():
            if tuple(shapes[name]) != t.shape:
                raise ShapeError(f"state {name!r}: shape {tuple(shapes[name])} != {t.shape}")
        return {name: t.data for name, t in own.items()}

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


# ---------------------------------------------------------------------------
# linear

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ W^T + b over the trailing axis; W is [out, in]."""
    n_in = weight.shape[1]
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear input extent {x.shape} does not match weight {weight.shape}")
    out = np.matmul(x.data, weight.data.T) + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data))
        if weight.requires_grad:
            g2 = g.reshape(-1, weight.shape[0])
            x2 = x.data.reshape(-1, n_in)
            weight._accumulate(g2.T @ x2)
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, weight.shape[0]).sum(axis=0))

    return _node(out, (x, weight, bias), backward, "linear")


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.weight = Tensor(trunc_normal(rng, (out_features, in_features), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# 3D convolution (tiled im2col + GEMM)

def conv3d_output_extents(extents: Sequence[int], kernel: Sequence[int],
                          stride: int, padding: int) -> tuple[int, ...]:
    out = tuple((e + 2 * padding - k) // stride + 1 for e, k in zip(extents, kernel))
    if any(o < 1 for o in out):
        raise ShapeError(f"conv3d output extent not positive: input {tuple(extents)}, "
                         f"kernel {tuple(kernel)}, stride {stride}, padding {padding} -> {out}")
    return out


def _windows(a: np.ndarray, kernel: Sequence[int], strides: Sequence[int],
             out_sp: Sequence[int], padding: int = 0, first: int = 0):
    """For each kernel tap in (d, h, w) row-major order: the box of output
    positions (three slices) at which the tap reads inside the [..., D, H, W]
    array ``a`` zero-padded by ``padding`` on every side, and the strided
    view of ``a`` read there.  Output depth planes count from ``first``.
    The one tap iterator of this module: conv3d's tile fill and gradient
    scatter, the max-pool forward and the winner search read through it."""
    per_axis = []
    for k, s, n, e, f in zip(kernel, strides, out_sp, a.shape[-3:], (first, 0, 0)):
        spans = []
        for o in range(k):
            off = o - padding + s * f       # the input index read at output position 0
            # the positions p in [lo, hi) read inside the input: 0 <= off + s*p < e
            lo = min(n, max(0, -(off // s)))
            hi = max(lo, min(n, (e - 1 - off) // s + 1))
            start = off + s * lo
            spans.append((slice(lo, hi), slice(start, start + s * (hi - lo), s)))
        per_axis.append(spans)
    for tap in itertools.product(*per_axis):
        inside, src = zip(*tap)
        yield inside, a[(Ellipsis,) + src]


def _zero_outside(a: np.ndarray, inside) -> None:
    """Zero the slabs of [C, D, H, W] array ``a`` outside the box ``inside``:
    before and after it along each axis, within the box on the axes before."""
    for ax, span in enumerate(inside):
        box = (slice(None),) + inside[:ax]
        if span.start:
            a[box + (slice(0, span.start),)] = 0
        if span.stop < a.shape[ax + 1]:
            a[box + (slice(span.stop, None),)] = 0


# Elements of one tile of the im2col matrix: a tile holds as many output depth
# planes of one sample as fit, and at least one.  On a 2-vCPU Xeon VM (numpy
# 2.4, OpenBLAS), the five CVVT-tiny stage convs of one 169x208x179 scan took
# (best of 3) 425 ms at 2**18, 384 at 2**20, 358 at 2**21, 410 at 2**22,
# 424 at 2**23 and 459 at 2**24; the whole matrix at once took 591 ms.
# The conv-norm-pool node bounds its conv output tiles by the same count,
# and ``moments`` works on channel chunks of about that size.
_TILE = 1 << 21


def _im2col(x: Tensor, weight: Tensor, stride: int, padding: int):
    """The tiled im2col of a conv of [N,Cin,D,H,W] ``x`` with
    [Cout,Cin,kd,kh,kw] ``weight``: its output extents, its column rows
    (Cin*kd*kh*kw) and two closures.  ``fill(buf, i, z0, z1)`` builds
    sample i's columns for output planes z0..z1 in ``buf``: row (ci, tap) is
    tap's window of channel ci, zero where it reads the padding, which is
    never built: each tap copies its window clipped to the input and zeroes
    only the border slabs of its rows.  ``scatter(dx_i, dcols, z0, z1)``
    adds a column gradient back into sample i's input gradient through the
    same clipped windows."""
    if x.ndim != 5 or weight.ndim != 5:
        raise ShapeError(f"conv3d needs 5-D input and weight, got {x.shape} and {weight.shape}")
    n, cin, d, h, w = x.shape
    cout, cw, kd, kh, kw = weight.shape
    if cin != cw:
        raise ShapeError(f"conv3d channel mismatch: input has {cin}, weight expects {cw}")
    kernel = (kd, kh, kw)
    out_sp = conv3d_output_extents((d, h, w), kernel, stride, padding)
    rows = cin * kd * kh * kw

    def windows(a: np.ndarray, z0: int, z1: int):
        return _windows(a, kernel, (stride,) * 3, (z1 - z0,) + out_sp[1:], padding, z0)

    def fill(buf: np.ndarray, i: int, z0: int, z1: int) -> np.ndarray:
        taps = buf[:rows * (z1 - z0) * out_sp[1] * out_sp[2]].reshape(
            (cin, -1, z1 - z0) + out_sp[1:])
        for t, (inside, window) in enumerate(windows(x.data[i], z0, z1)):
            taps[(slice(None), t) + inside] = window
            _zero_outside(taps[:, t], inside)
        return taps.reshape(rows, -1)

    def scatter(dx_i: np.ndarray, dcols: np.ndarray, z0: int, z1: int) -> None:
        dtaps = dcols.reshape((cin, -1, z1 - z0) + out_sp[1:])
        for t, (inside, window) in enumerate(windows(dx_i, z0, z1)):
            window += dtaps[(slice(None), t) + inside]

    return out_sp, rows, fill, scatter


def _spans(n: int, depth: int, planes: int) -> list[tuple[int, int, int]]:
    """(sample, first plane, end plane) of each tile of at most ``planes``
    output depth planes, sample by sample."""
    return [(i, z0, min(z0 + planes, depth)) for i in range(n) for z0 in range(0, depth, planes)]


def _conv_grads(x: Tensor, weight: Tensor, wm: np.ndarray, spans, plane: int,
                fill, scatter, grad_tile) -> None:
    """Accumulate the weight and input gradients of a tiled conv without
    bias.  Per span (i, z0, z1) the columns are refilled and
    ``grad_tile(i, z0, z1, cols)`` gives the tile's output gradient
    [Cout, (z1-z0)*plane].  The first tile's weight gradient is written
    straight into the gradient, each later one into one reused scratch of
    its size and added; the column gradient is written over the columns,
    and no buffer for it exists when x needs no gradient."""
    if not (x.requires_grad or weight.requires_grad):
        return
    dt = np.result_type(wm, x.data)
    cols = np.empty(wm.shape[1] * (spans[0][2] - spans[0][1]) * plane, dt)
    gw = scratch = None
    dx = np.zeros(x.shape, dt) if x.requires_grad else None
    for i, z0, z1 in spans:
        c = fill(cols, i, z0, z1)
        gt = grad_tile(i, z0, z1, c)
        if weight.requires_grad:
            if gw is None:
                gw = np.matmul(gt, c.T)
            else:
                scratch = np.matmul(gt, c.T, out=scratch)
                gw += scratch
        if dx is not None:
            scatter(dx[i], np.matmul(wm.T, gt, out=c), z0, z1)
    if gw is not None:
        weight._accumulate(gw.reshape(weight.shape))
    if dx is not None:
        x._accumulate(dx)


def _conv_tiles(wm: np.ndarray, fill, spans, out_sp: tuple[int, int, int], planes: int,
                dt: np.dtype):
    """Each span's conv output (i, z0, z1, y): y is [Cout, z1-z0, Ho, Wo]
    in one reused buffer, built from column tiles of at most ``planes``
    planes and valid until the next span."""
    plane = out_sp[1] * out_sp[2]
    widest = max(z1 - z0 for _, z0, z1 in spans)
    cols = np.empty(wm.shape[1] * min(planes, widest) * plane, dt)
    ys = np.empty(wm.shape[0] * widest * plane, dt)
    for i, z0, z1 in spans:
        y = ys[:wm.shape[0] * (z1 - z0) * plane].reshape(wm.shape[0], -1)
        for c0 in range(z0, z1, planes):
            c1 = min(c0 + planes, z1)
            np.matmul(wm, fill(cols, i, c0, c1), out=y[:, (c0 - z0) * plane:(c1 - z0) * plane])
        yield i, z0, z1, y.reshape((wm.shape[0], z1 - z0) + out_sp[1:])


def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions in numpy's wheel, found
    through numpy's core extension, which links it; None where they are
    missing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS_THREADS = _openblas_threads()

# Lanes of conv3d's forward tile loop and of ``data.synth_generate``.  numpy
# releases the GIL in the GEMM, the copies, the ufuncs and a generator's
# fills, so two lanes at one BLAS thread each keep both cores busy through
# the im2col fill, the activation and the synthetic scans too.  On a 2-vCPU
# Xeon VM the five CVVT-tiny stage convs of one 169x208x179 scan took
# 245-305 ms in two half-tile lanes against 337-385 ms in one lane at two
# BLAS threads.  The conv tiles are planned for this many lanes also where
# fewer run: at small tiles a GEMM's bytes depend on how its columns are
# split, so a plan that followed the lanes at hand would make the output
# depend on the machine.  Two: ``_in_lanes`` starts one thread beside the
# calling one.
_LANES = 2


# Process-wide, as OpenBLAS's thread count is: the caller's count, recorded
# at the entry of the running outermost ``one_blas_thread`` scope (None
# outside one), and whether a two-lane region is running.
_caller_threads: int | None = None
_laning = False


@contextlib.contextmanager
def one_blas_thread():
    """Inside the block OpenBLAS runs one thread.  The outermost entry
    records the caller's count and sets 1, and its exit restores the count,
    also when the block raises; a nested entry, or one where the count
    cannot be set, does nothing.  ``_in_lanes`` runs its region in this
    scope and ``CVVT.forward`` its whole body: after a two-thread call
    OpenBLAS's worker spins on the second core for a while, and in a
    4-scan CVVT-tiny eval at 169x208x179 (2-vCPU VM) it took that core from
    the next scan's conv lanes; the ViT's 81-token GEMMs ran no faster at
    two threads."""
    global _caller_threads
    if _BLAS_THREADS is None or _caller_threads is not None:
        yield
        return
    get, put = _BLAS_THREADS
    _caller_threads = get()
    put(1)
    try:
        yield
    finally:
        put(_caller_threads)
        _caller_threads = None


def _lanes() -> int:
    """The lanes ``_in_lanes`` runs: ``_LANES``, or 1 where OpenBLAS's
    thread count cannot be set, where the caller's count (at the entry of
    ``one_blas_thread``, else the live one) is 1 (a user's
    ``OPENBLAS_NUM_THREADS=1``), inside a running two-lane region, or where
    the process may run on one core only."""
    if (_BLAS_THREADS is None or _laning or len(os.sched_getaffinity(0)) < 2
            or (_caller_threads or _BLAS_THREADS[0]()) < 2):
        return 1
    return _LANES


@one_blas_thread()
def _in_lanes(lane, spans: list) -> None:
    """Run ``spans`` in ``_lanes()`` lanes (one for a single span): conv3d's
    forward tiles, or ``data.synth_generate``'s scans, two at a time.  On
    the calling thread, ``lane()`` is called once per lane and returns that
    lane's ``work(todo)``, where ``todo`` yields the next span no lane has
    taken, so every span runs once.  The call runs in ``one_blas_thread``.
    One lane runs inline.  Two run on the calling thread and one thread
    started for this call, which is joined before this returns.  The first
    exception a lane raises is raised here again, as itself, and the other
    lane takes no span after it.

    ``lane()`` runs on the calling thread so that the lanes' buffers come
    from its malloc arena: allocated in the started thread, they stayed
    resident in that thread's arena, and the peak RSS of a 4-scan
    CVVT-tiny eval at 169x208x179 rose from 418 to 435 MB (2-vCPU VM)."""
    global _laning
    works = [lane() for _ in range(_lanes() if len(spans) > 1 else 1)]
    if len(works) == 1:
        works[0](iter(spans))
        return
    lock, pending, errors = threading.Lock(), iter(spans), []

    def todo():
        while not errors:
            with lock:
                span = next(pending, None)
            if span is None:
                return
            yield span

    def run(work):
        try:
            work(todo())
        except BaseException as e:     # raised again once both lanes are done
            errors.append(e)

    _laning = True
    try:
        second = threading.Thread(target=run, args=(works[1],), name="lane")
        second.start()
        run(works[0])
        second.join()
    finally:
        _laning = False
    if errors:
        raise errors[0]


def conv3d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int) -> Tensor:
    """leaky_relu(y + bias), y the cross-correlation of
    [N,Cin,D,H,W] with [Cout,Cin,kd,kh,kw] at zero padding.

    Tiled im2col (``_im2col``): the [Cin*k3, P] column matrix of one sample
    is built a few output depth planes at a time and multiplied by the
    weight matrix there.  The bias and max(o, LEAKY_SLOPE*o) are applied to
    each output tile while it is in cache.  The forward runs its tiles in
    ``_in_lanes``: each lane reuses one column buffer and one leaky ReLU
    scratch, sized for tiles of ``_TILE // _LANES`` elements (but one
    plane), and each tile writes only its own slices of the output and the
    mask, so the bytes do not depend on the lane that ran it or on the
    lane count.  The node keeps its output, the input and a ``bool`` mask
    of pre-activation >= 0; no columns and no pre-activation.  The
    backward pass multiplies the gradient by 1 or LEAKY_SLOPE through the
    mask, then ``_conv_grads`` refills each ``_TILE``-sized tile from the input,
    adds the tile's weight gradient, and scatters the tile's input gradient
    back through the same clipped windows.
    """
    (do, ho, wo), rows, fill, scatter = _im2col(x, weight, stride, padding)
    n, cout, plane = x.shape[0], weight.shape[0], ho * wo
    spans = _spans(n, do, max(1, _TILE // _LANES // (rows * plane)))
    wm = weight.data.reshape(cout, -1)
    parents = (x, weight, bias)
    out = np.empty((n, cout, do * plane), np.result_type(wm, x.data))
    kk = out.dtype.type(LEAKY_SLOPE)
    mask = np.empty(out.shape, bool) if _records(parents) else None
    width = (spans[0][2] - spans[0][1]) * plane

    def lane():
        tile = np.empty(rows * width, x.dtype)
        scratch = np.empty(cout * width, out.dtype)

        def work(todo) -> None:
            for i, z0, z1 in todo:
                part = (i, slice(None), slice(z0 * plane, z1 * plane))
                o = np.matmul(wm, fill(tile, i, z0, z1), out=out[part])
                o += bias.data[:, None]
                if mask is not None:
                    np.greater_equal(o, 0, out=mask[part])
                np.maximum(o, np.multiply(o, kk, out=scratch[:o.size].reshape(o.shape)), out=o)

        return work

    _in_lanes(lane, spans)
    out = out.reshape(n, cout, do, ho, wo)

    def backward(g: np.ndarray) -> None:
        # leaky ReLU's factor: 1 where pre >= 0 (g * 1 is g), else k
        gm = g.reshape(n, cout, -1) * kk
        np.copyto(gm, g.reshape(gm.shape), where=mask)
        if bias.requires_grad:
            bias._accumulate(gm.sum(axis=(0, 2)))
        _conv_grads(x, weight, wm, _spans(n, do, max(1, _TILE // (rows * plane))), plane,
                    fill, scatter, lambda i, z0, z1, cols: gm[i, :, z0 * plane:z1 * plane])

    return _node(out, parents, backward, "conv3d")


def conv_weight(rng: np.random.Generator, in_channels: int, out_channels: int,
                dtype=np.float32) -> Tensor:
    """A Kaiming-initialized [Cout, Cin, CONV_KERNEL^3] conv weight parameter."""
    shape = (out_channels, in_channels) + (CONV_KERNEL,) * 3
    return Tensor(kaiming_normal(rng, shape, in_channels * CONV_KERNEL ** 3, dtype=dtype),
                  requires_grad=True)


class Conv3d(Module):
    """CVVT's conv layer: a CONV_KERNEL^3 kernel, CONV_PADDING zero padding
    and a bias, fused with the leaky ReLU after it."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.stride = int(stride)
        self.weight = conv_weight(rng, in_channels, out_channels, dtype)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """leaky_relu(conv(x) + bias), as one conv3d node."""
        return conv3d(x, self.weight, self.bias, stride=self.stride, padding=CONV_PADDING)


# ---------------------------------------------------------------------------
# pooling

def maxpool3d_output_extents(extents: Sequence[int], kernel: int, stride: int) -> tuple[int, ...]:
    if any(e < kernel for e in extents):
        raise ShapeError(f"maxpool3d window {kernel} larger than input extents {tuple(extents)}")
    return tuple((e - kernel) // stride + 1 for e in extents)


def _pool_winners(x: np.ndarray, out: np.ndarray, k: int, s: int) -> np.ndarray:
    """Flat (d,h,w) index of each window's first voxel equal to its max, in
    row-major order; a window with no such voxel (a NaN max) gets its first."""
    d, h, w = x.shape[2:]
    do, ho, wo = out.shape[2:]
    found = np.zeros(out.shape, bool)
    rel = np.zeros(out.shape, np.int32)
    offsets = itertools.product(range(k), repeat=3)
    for (td, th, tw), (_, tap) in zip(offsets, _windows(x, (k,) * 3, (s,) * 3, (do, ho, wo))):
        first = (tap == out) > found                       # equal here, not before
        found |= first
        rel += first * np.int32((td * h + th) * w + tw)
    origin = ((np.arange(do)[:, None, None] * h + np.arange(ho)[:, None]) * w
              + np.arange(wo)) * s
    return origin + rel


def _window_max(a: np.ndarray, k: int, s: int) -> np.ndarray:
    """Per-window max of [N,C,D,H,W] ``a``: over W, then H, then D, through
    the tap iterator with kernels (1,1,k), (1,k,1) and (k,1,1)."""
    d, h, w = a.shape[2:]
    do, ho, wo = maxpool3d_output_extents((d, h, w), k, s)
    out = a
    for kern, strides, out_sp in (((1, 1, k), (1, 1, s), (d, h, wo)),
                                  ((1, k, 1), (1, s, 1), (d, ho, wo)),
                                  ((k, 1, 1), (s, 1, 1), (do, ho, wo))):
        taps = (v for _, v in _windows(out, kern, strides, out_sp))  # views of the previous stage
        out = next(taps).copy()
        for tap in taps:
            np.maximum(tap, out, out=out)   # on a tie (+0 vs -0) numpy keeps out, the earlier tap
    return out


class NormStats:
    """The per-channel statistics a batch or instance norm normalizes with.
    Given ``mean`` and ``var`` (BatchNorm's running estimates in eval), they
    are fixed.  Given ``axes``, the norm's node gathers the mean and the
    biased variance of its conv output over those axes and stores them here,
    with ``count``, the number of values behind each."""

    def __init__(self, axes: tuple[int, ...] | None = None,
                 mean: np.ndarray | None = None, var: np.ndarray | None = None):
        self.axes, self.mean, self.var, self.count = axes, mean, var, 0


def maxpool3d(x: Tensor, kernel: int, stride: int, weight: Tensor, gamma: Tensor,
              beta: Tensor, stats: NormStats) -> Tensor:
    """ConvNet3D-4's conv -> norm -> max-pool -> leaky ReLU: max(o,
    LEAKY_SLOPE*o) of o = max-pool(gamma * ŷ + beta) with a ``kernel``^3
    window and ``stride``, ŷ = (y - mean) / sd, sd = sqrt(var + NORM_EPS),
    of y = conv(x, weight) (stride 1, padding CONV_PADDING, no bias), as one
    node that never holds y whole, ŷ or the normalized volume.  ``stats``
    gives or gathers mean and var.

    y comes in tiles, sample by sample, whole pool windows of conv output
    planes at a time, at most ``_TILE`` values (but one window's k planes),
    from column tiles of at most ``_TILE`` values (but one plane).  Tiles
    that share windows overlap by k - s planes, which are computed twice.
    Per tile the node:

    - adds the tile's planes (the overlap once, and planes no window reads)
      to the statistics (with ``stats.axes``): per-tile ``moments`` merged
      in float64 by Chan, Golub and LeVeque's pairwise update; a sample in
      one tile keeps the bytes of ``moments`` of its conv output;
    - pools sign(gamma) * y: per channel the affine map is monotone, so it
      commutes with the max.  o has the bytes of normalizing y, then
      pooling; the gradient goes to the first voxel holding the
      window's max of sign(gamma) * y (the window's first voxel where gamma
      is ±0).  A window holding a NaN outputs NaN, and its gradient goes to
      the window's first voxel.

    The activation is applied to o in place.  When recorded, the node
    keeps, beside its parents, only pooled-size arrays (the output, the
    flat int32 winner indices, each below D*H*W, ŷ at the winners and a
    ``bool`` mask of o >= 0) and the statistics.  The backward multiplies
    the gradient by 1 or LEAKY_SLOPE through the mask, then takes dgamma,
    dbeta and the two means of the normalization's closed form from
    pooled-size sums.  Then, per tile of at most ``_TILE`` conv outputs and
    columns, it recomputes y from the refilled columns with one GEMM (none
    for fixed statistics), writes dy = (y - mean) * (-mean(ĝ·ŷ)/sd) -
    mean(ĝ) with ĝ = g·gamma, adds ĝ/sd at the winners in the tile, and
    hands dy to ``_conv_grads``.
    """
    k, s = int(kernel), int(stride)
    if k < 1:
        raise ValueError(f"kernel must be >= 1, got {k}")
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    axes, n = stats.axes, x.shape[0]
    sp, rows, fill, scatter = _im2col(x, weight, 1, CONV_PADDING)
    c, dt = weight.shape[0], np.result_type(weight.data, x.data)
    wm = weight.data.reshape(c, -1)
    plane = sp[1] * sp[2]
    out_sp = maxpool3d_output_extents(sp, k, s)
    per = max(1, (_TILE // (c * plane) - k) // s + 1)     # pool planes per tile
    # pool planes j0..j1 read conv planes s*j0 .. s*(j1-1)+k-1
    spans = [(i, j0 * s, sp[0] if j1 == out_sp[0] else j1 * s + max(0, k - s))
             for i, j0, j1 in _spans(n, out_sp[0], per)]
    shape = (1, c, 1, 1, 1)
    scale, shift = gamma.data.reshape(shape), beta.data.reshape(shape)
    sign = np.sign(scale)
    zero = sign.reshape(-1) == 0
    parents = (x, weight, gamma, beta)
    record = _records(parents)
    z = np.empty((n, c) + out_sp, dt)       # y at each window's max
    win = np.empty(z.shape, np.int32) if record or zero.any() else None
    if axes is not None:
        rows_of = n if 0 not in axes else 1
        total = np.zeros((rows_of, 1, 1, 1, 1))
        acc_mean, acc_m2 = np.zeros((rows_of, c, 1, 1, 1)), np.zeros((rows_of, c, 1, 1, 1))
    for i, z0, z1, y in _conv_tiles(wm, fill, spans, sp, max(1, _TILE // (rows * plane)), dt):
        y, sample = y[None], slice(i, i + 1)
        if axes is not None:
            # a tile counts the planes up to the next tile's first (s*j1), and
            # the last one all planes to the end: every plane is counted once
            end = z1 - z0 if z1 == sp[0] else per * s
            m, v = moments(y[:, :, :end], axes)
            r = sample if rows_of > 1 else slice(None)
            size = np.float64(y[:, :, :end].size // m.size)
            merged = total[r] + size
            delta = m - acc_mean[r]
            acc_mean[r] += delta * (size / merged)
            acc_m2[r] += v * size + delta * delta * (total[r] * size / merged)
            total[r] = merged
        raw = y[:, zero] if zero.any() else None
        ys = y if (sign == 1).all() else np.multiply(y, sign, out=y)
        zt = _window_max(ys, k, s)
        part = (sample, slice(None), slice(z0 // s, z0 // s + zt.shape[2]))
        if win is not None:
            wt = _pool_winners(ys, zt, k, s)
            win[part] = wt + z0 * plane
        zt *= sign
        if raw is not None:     # gamma = ±0 pools zeros: y at each window's first voxel
            at = wt[:, zero]
            first = np.take_along_axis(raw.reshape(raw.shape[:2] + (-1,)),
                                       at.reshape(at.shape[:2] + (-1,)), axis=2)
            zt[:, zero] = np.where(np.isnan(zt[:, zero]), zt[:, zero], first.reshape(at.shape))
        z[part] = zt
    del y, ys                               # the last tile's buffer
    if axes is not None:
        stats.mean, stats.var = acc_mean.astype(dt), (acc_m2 / total).astype(dt)
        stats.count = int(total.flat[0])
    mean, count = stats.mean, stats.count
    sd = np.sqrt(stats.var + dt.type(NORM_EPS))
    xhat = np.divide(np.subtract(z, mean, out=z), sd, out=z)
    out = xhat * scale if record else np.multiply(xhat, scale, out=xhat)  # backward reads xhat
    out += shift
    kk = dt.type(LEAKY_SLOPE)
    mask = out >= 0 if record else None     # the pre-activation's sign, never read back
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, _BLOCK), dt)
    for b in range(0, flat.size, _BLOCK):   # max(o, LEAKY_SLOPE*o), a block at a time
        o = flat[b:b + _BLOCK]
        np.maximum(o, np.multiply(o, kk, out=scratch[:o.size]), out=o)
    if not record:
        return _node(out, parents, None, "maxpool3d")
    inv = 1 / sd
    others = (0, 2, 3, 4)

    def backward(g: np.ndarray) -> None:
        # leaky ReLU's factor: 1 where pre >= 0 (g * 1 is g), else k
        gs = g * kk
        np.copyto(gs, g, where=mask)
        if gamma.requires_grad:
            gamma._accumulate((gs * xhat).sum(axis=others))
        if beta.requires_grad:
            beta._accumulate(gs.sum(axis=others))
        gs *= scale                         # ĝ/sd at the winners
        gs *= inv
        if axes is not None:
            m1 = gs.sum(axis=axes, keepdims=True) / count
            m2 = (gs * xhat).sum(axis=axes, keepdims=True) / count
            slope = -m2 * inv
        spans = _spans(n, sp[0], max(1, _TILE // (max(rows, c) * plane)))
        dys = np.empty(c * (spans[0][2] - spans[0][1]) * plane, dt)
        channel = np.arange(c).reshape(c, 1, 1, 1)

        def grad_tile(i: int, z0: int, z1: int, cols: np.ndarray) -> np.ndarray:
            dy = dys[:c * (z1 - z0) * plane].reshape(c, -1)
            if axes is None:
                dy[...] = 0
            else:
                r = i % len(mean)           # IN: sample i's statistics; BN: the batch's
                np.matmul(wm, cols, out=dy)
                dy -= mean[r].reshape(c, 1)
                dy *= slope[r].reshape(c, 1)
                dy -= m1[r].reshape(c, 1)
            # the windows that read planes z0..z1, and their winners there
            j = slice(max(0, (z0 - k) // s + 1), min(out_sp[0], -(-z1 // s)))
            at = win[i, :, j]
            inside = (at >= z0 * plane) & (at < z1 * plane)
            flat = at + (channel * dy.shape[1] - z0 * plane)      # index into dy
            np.add.at(dy.reshape(-1), flat[inside], gs[i, :, j][inside])
            return dy

        _conv_grads(x, weight, wm, spans, plane, fill, scatter, grad_tile)

    return _node(out, parents, backward, "maxpool3d")


def _averaging_matrix(length: int, out: int, dtype) -> np.ndarray:
    """[out, length] matrix whose row i averages bin i: [i*L//out, ceil((i+1)*L/out))."""
    i = np.arange(out)[:, None]
    j = np.arange(length)
    inside = (j >= i * length // out) & (j < -(-(i + 1) * length // out))
    return (inside / inside.sum(axis=1, keepdims=True)).astype(dtype)


def adaptive_avg_pool3d(x: Tensor, output: tuple[int, int, int]) -> Tensor:
    """Average-pool each spatial axis down to a fixed extent (input >= output).

    Each axis is one [out, in] averaging matrix; the forward contracts D, H
    and W with them in turn, and the backward with their transposes.
    """
    for ext, o in zip(x.shape[2:], output):
        if ext < o:
            raise ShapeError(f"adaptive_avg_pool3d cannot expand extent {ext} to {o}")
    mats = [_averaging_matrix(ext, o, x.dtype) for ext, o in zip(x.shape[2:], output)]

    def contract(a: np.ndarray, side: int) -> np.ndarray:
        # each tensordot moves the contracted axis 2 to the end: D, H, W come back in order
        for m in mats:
            a = np.tensordot(a, m, axes=([2], [side]))
        return a

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(contract(g, 0))

    return _node(contract(x.data, 1), (x,), backward, "adaptive_avg_pool3d")


# ---------------------------------------------------------------------------
# normalization

def _channel_chunks(x: np.ndarray) -> list[slice]:
    """Slices of the channels of [N,C,D,H,W] ``x``, about ``_TILE`` elements
    each and at least two channels (when C > 1): numpy sums a contiguous
    one-channel copy across samples in another order than the whole array."""
    c = x.shape[1]
    per = max(2, _TILE // (x.size // c))
    starts = list(range(0, c, per))
    if len(starts) > 1 and c - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [c])]


def moments(x: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased variance of [N,C,D,H,W] ``x`` over ``axes``, kept as
    length-1 axes, with the bytes of numpy's mean and var over the whole
    array, computed a few channels at a time so that no temporary is the
    size of x."""
    shape = tuple(1 if ax in axes else e for ax, e in enumerate(x.shape))
    mean, var = np.empty(shape, x.dtype), np.empty(shape, x.dtype)
    for ch in _channel_chunks(x):
        part = (slice(None), ch)
        mean[part] = x[part].mean(axis=axes, keepdims=True)
        xc = x[part] - mean[part]
        var[part] = np.multiply(xc, xc, out=xc).mean(axis=axes, keepdims=True)
    return mean, var


def normalize(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """x̂ = (x - mean) / sqrt(var + NORM_EPS) over the trailing axis (biased
    variance), then gamma * x̂ + beta: LayerNorm's node.

    One graph node that keeps only x̂ and 1/σ; its backward is the closed
    form dx = (ĝ - mean(ĝ) - x̂·mean(ĝ·x̂)) / σ with ĝ = g·gamma,
    dgamma = Σ g·x̂ and dbeta = Σ g.
    """
    xd = x.data
    xc = xd - xd.mean(axis=-1, keepdims=True)
    sd = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + xd.dtype.type(NORM_EPS))
    xhat = np.divide(xc, sd, out=xc)
    inv = 1 / sd
    others = tuple(range(x.ndim - 1))
    out = xhat * gamma.data + beta.data

    def backward(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=others))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=others))
        g = g * gamma.data
        if x.requires_grad:
            dx = g - g.mean(axis=-1, keepdims=True)
            dx -= xhat * (g * xhat).mean(axis=-1, keepdims=True)
            dx *= inv
            x._accumulate(dx)

    return _node(out, (x, gamma, beta), backward, "normalize")


class _ConvNorm(Module):
    """A per-channel affine norm of a conv output, run with the conv, a
    max-pool and a leaky ReLU as one ``maxpool3d`` node: the base of the
    two 3-D norms."""

    def __init__(self, num_features: int, dtype=np.float32):
        super().__init__()
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)

    def _pooled(self, x: Tensor, weight: Tensor, pool: tuple[int, int],
                stats: NormStats) -> Tensor:
        if weight.shape[0] != self.num_features:
            raise ShapeError(f"expected {self.num_features} channels, got conv weight shape "
                             f"{weight.shape}")
        return maxpool3d(x, *pool, weight, self.gamma, self.beta, stats)


class InstanceNorm3d(_ConvNorm):
    """Per (sample, channel) normalization over (D,H,W) of a conv output,
    then a max-pool and a leaky ReLU; identical train/eval."""

    def forward(self, x: Tensor, weight: Tensor, pool: tuple[int, int]) -> Tensor:
        """The leaky ReLU of the max-pool with ``pool=(kernel, stride)`` of
        the normalized conv(x, weight) (no bias), as one ``maxpool3d`` node
        that never holds the conv output whole or builds the normalized
        volume."""
        return self._pooled(x, weight, pool, NormStats((2, 3, 4)))


class BatchNorm3d(_ConvNorm):
    """Per-channel normalization over (N,D,H,W) of a conv output, with
    running statistics, then a max-pool and a leaky ReLU.

    Training uses batch statistics (biased variance) and updates the running
    estimates; eval normalizes with the running estimates.  Both are one
    ``maxpool3d`` node, with ``weight`` and ``pool`` as in ``InstanceNorm3d``.
    """

    def __init__(self, num_features: int, dtype=np.float32):
        super().__init__(num_features, dtype)
        self.running_mean = Tensor(np.zeros(num_features, dtype=dtype))
        self.running_var = Tensor(np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor, weight: Tensor, pool: tuple[int, int]) -> Tensor:
        if not self.training:
            shape = (1, self.num_features, 1, 1, 1)
            stats = NormStats(None, self.running_mean.data.reshape(shape),
                              self.running_var.data.reshape(shape))
            return self._pooled(x, weight, pool, stats)
        stats = NormStats((0, 2, 3, 4))
        out = self._pooled(x, weight, pool, stats)
        mean, var = stats.mean.reshape(-1), stats.var.reshape(-1)
        if stats.count > 1:
            var = var * stats.count / (stats.count - 1)
        m = BN_MOMENTUM
        self.running_mean.data = ((1 - m) * self.running_mean.data + m * mean).astype(x.dtype)
        self.running_var.data = ((1 - m) * self.running_var.data + m * var).astype(x.dtype)
        return out


class LayerNorm(Module):
    """Normalization over the trailing (embedding) axis with affine params."""

    def __init__(self, normalized_dim: int, dtype=np.float32):
        super().__init__()
        self.normalized_dim = normalized_dim
        self.gamma = Tensor(np.ones(normalized_dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(normalized_dim, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_dim:
            raise ShapeError(f"expected trailing extent {self.normalized_dim}, got {x.shape}")
        return normalize(x, self.gamma, self.beta)


# ---------------------------------------------------------------------------
# dropout

def dropout3d(x: Tensor, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero whole channels with probability DROPOUT; survivors scale by
    1/(1-DROPOUT).

    Inverted convention: eval mode is the identity.
    """
    if not training:
        return x
    n, c = x.shape[:2]
    keep = (rng.random((n, c)) >= DROPOUT).astype(x.dtype) / x.dtype.type(1.0 - DROPOUT)
    mask = keep.reshape((n, c) + (1,) * (x.ndim - 2))
    return mul(x, Tensor(mask))


# ---------------------------------------------------------------------------
# attention / encoder

class MultiHeadAttention(Module):
    """Scaled dot-product self-attention over [N,T,E] with separate Q/K/V/out projections."""

    def __init__(self, embed_dim: int, num_heads: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        if embed_dim % num_heads:
            raise ShapeError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.k = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.v = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)
        self.out = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)

    def _split_heads(self, t: Tensor) -> Tensor:
        n, tok, _ = t.shape
        return transpose(reshape(t, (n, tok, self.num_heads, self.head_dim)), (0, 2, 1, 3))

    def forward(self, tokens: Tensor) -> Tensor:
        if tokens.shape[-1] != self.embed_dim:
            raise ShapeError(f"expected embed dim {self.embed_dim}, got {tokens.shape}")
        n, tok, e = tokens.shape
        q = self._split_heads(self.q(tokens))
        k = self._split_heads(self.k(tokens))
        v = self._split_heads(self.v(tokens))
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale)
        attn = softmax(scores)
        ctx = matmul(attn, v)                                  # [N, heads, T, hd]
        merged = reshape(transpose(ctx, (0, 2, 1, 3)), (n, tok, e))
        return self.out(merged)


class Mlp(Module):
    def __init__(self, embed_dim: int, hidden_dim: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng, dtype=dtype)
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class EncoderBlock(Module):
    """Pre-norm transformer block: attention and MLP sublayers with residuals."""

    def __init__(self, embed_dim: int, num_heads: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.norm1 = LayerNorm(embed_dim, dtype=dtype)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng, dtype=dtype)
        self.norm2 = LayerNorm(embed_dim, dtype=dtype)
        self.mlp = Mlp(embed_dim, embed_dim * MLP_RATIO, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        x = add(x, self.attn(self.norm1(x)))
        return add(x, self.mlp(self.norm2(x)))


class TransformerEncoder(Module):
    """Stack of pre-norm blocks followed by a final LayerNorm; depth 0 is norm only."""

    def __init__(self, embed_dim: int, num_heads: int, depth: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.blocks = [EncoderBlock(embed_dim, num_heads, rng=rng, dtype=dtype)
                       for _ in range(depth)]
        self.norm = LayerNorm(embed_dim, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of [K,N] logits against integer labels.

    Computed through log-sum-exp; the gradient is (softmax - onehot) / K.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or logits.ndim != 2 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"logits {logits.shape} and labels {y.shape} do not align")
    n_classes = logits.shape[1]
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes}): {y}")
    y = y.astype(np.int64)
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    k = z.shape[0]
    loss = float((lse[:, 0] - z[np.arange(k), y]).mean())

    def backward(g: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        gs = float(np.asarray(g).reshape(-1)[0])
        p = np.exp(z - lse)
        p[np.arange(k), y] -= 1.0
        logits._accumulate((p * (gs / k)).astype(logits.dtype))

    return _node(np.asarray(loss, dtype=logits.dtype), (logits,), backward, "cross_entropy")

