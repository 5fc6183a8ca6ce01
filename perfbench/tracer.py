"""Span tracer for the traced benchmark run.

The tracer records spans from wrappers it installs around voxformer's public
functions and methods; nothing inside ``src/`` changes.  Each span holds its
name, start, end and parent index, plus optional counts computed from the
call's shapes.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap (one thread), so that is the
part of the interval they cover.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from voxformer import cli, data, models, nn, optim, tensor, train

MB = 1e6
GFLOP = 1e9


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, counts=None, backward: bool = False):
        """Replace ``owner.attr`` with a spanning wrapper until ``uninstall``.

        ``counts(args, out)`` adds shape-derived counts to the span after it
        closes, so their cost stays out of the span's own time.  With
        ``backward``, the returned graph node's backward closure gets a
        ``<name>.backward`` span of its own.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = original(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, out))
            if backward and isinstance(out, tensor.Tensor) and out._backward_fn is not None:
                out._backward_fn = self._spanned(out._backward_fn, name + ".backward")
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _spanned(self, fn, name: str):
        def run(g):
            with self.span(name):
                fn(g)
        return run

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, **s.counts}) + "\n")

    # -- analysis ------------------------------------------------------------

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans under ``root`` (spans are appended in start order)."""
        inside = {root}
        out = []
        end = self.spans[root].end
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].start > end:
                break
            if self.spans[i].parent in inside:
                inside.add(i)
                out.append(i)
        return out

    def self_ms(self, indices: list[int]) -> dict[int, float]:
        child_ms: dict[int, float] = {}
        for i in indices:
            s = self.spans[i]
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return {i: self.spans[i].ms - child_ms.get(i, 0.0) for i in indices}


# ---------------------------------------------------------------------------
# shape-derived ("computed") counts

def _nbytes(t) -> float:
    return t.data.nbytes / MB


def _conv3d_counts(args, out):
    x, w = args[0], args[1]
    cout, cin, kd, kh, kw = w.shape
    positions = int(np.prod(out.shape[2:]))
    k3 = kd * kh * kw
    n = x.shape[0]
    return {"gflop": 2.0 * n * cout * positions * cin * k3 / GFLOP,
            "out_mb": _nbytes(out),
            "im2col_mb": n * cin * k3 * positions * x.data.itemsize / MB}


def _linear_counts(args, out):
    w = args[1]
    rows = out.size // w.shape[0]
    return {"gflop": 2.0 * rows * w.shape[0] * w.shape[1] / GFLOP}


def _graph_counts(args, out):
    """Bytes held by the recorded graph's intermediate nodes at backward time."""
    root = args[0]
    held = sum(t.data.nbytes for t in root._toposort() if t._backward_fn is not None)
    return {"graph_mb": held / MB}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports on."""
    w = tracer.wrap
    w(nn, "conv3d", "nn.conv3d", _conv3d_counts, backward=True)
    w(nn, "maxpool3d", "nn.maxpool3d")
    w(nn, "adaptive_avg_pool3d", "nn.adaptive_avg_pool3d")
    w(nn, "linear", "nn.linear", _linear_counts)
    w(nn.InstanceNorm3d, "forward", "nn.instance_norm", lambda a, out: {"out_mb": _nbytes(out)})
    w(nn.LayerNorm, "forward", "nn.layer_norm")
    w(nn.MultiHeadAttention, "forward", "nn.attention")
    w(nn, "cross_entropy", "nn.cross_entropy")
    w(train, "cross_entropy", "nn.cross_entropy")    # train imported the name
    w(tensor.Tensor, "backward", "tensor.backward", _graph_counts)
    w(optim.AdamW, "step", "optim.adamw_step")
    for cls in (models.VViT, models.CVVT, models.ConvNet3D4):
        w(cls, "forward", "models.forward")
    w(models, "save_checkpoint", "models.save_checkpoint",
      lambda a, out: {"mb": os.path.getsize(a[0]) / MB})
    w(models, "load_checkpoint", "models.load_checkpoint")
    w(data, "read_volume", "data.read_volume", lambda a, out: {"mb": out.nbytes / MB})
    w(data, "synth_generate", "data.synth_generate")
    w(train, "load_dataset", "train.load_dataset")
    w(train, "evaluate", "train.evaluate")
    w(train, "run_training", "train.run_training")
    w(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric name, span name, quantity, unit); quantity is "calls", "ms",
# "self_ms" or a count key.  Units ending in "-computed" are derived from
# shapes, not timed, and repeat exactly.
LAYER_METRICS = [
    ("nn.conv3d.calls", "nn.conv3d", "calls", "count"),
    ("nn.conv3d.self_ms", "nn.conv3d", "self_ms", "ms"),
    ("nn.conv3d.backward_ms", "nn.conv3d.backward", "ms", "ms"),
    ("nn.conv3d.gflop", "nn.conv3d", "gflop", "GFLOP-computed"),
    ("nn.conv3d.out_mb", "nn.conv3d", "out_mb", "MB-computed"),
    ("nn.conv3d.im2col_mb", "nn.conv3d", "im2col_mb", "MB-computed"),
    ("nn.maxpool3d.self_ms", "nn.maxpool3d", "self_ms", "ms"),
    ("nn.instance_norm.self_ms", "nn.instance_norm", "self_ms", "ms"),
    ("nn.instance_norm.out_mb", "nn.instance_norm", "out_mb", "MB-computed"),
    ("nn.layer_norm.self_ms", "nn.layer_norm", "self_ms", "ms"),
    ("nn.attention.self_ms", "nn.attention", "self_ms", "ms"),
    ("nn.linear.self_ms", "nn.linear", "self_ms", "ms"),
    ("nn.linear.gflop", "nn.linear", "gflop", "GFLOP-computed"),
    ("nn.adaptive_avg_pool3d.self_ms", "nn.adaptive_avg_pool3d", "self_ms", "ms"),
    ("nn.cross_entropy.self_ms", "nn.cross_entropy", "self_ms", "ms"),
    ("tensor.backward.calls", "tensor.backward", "calls", "count"),
    ("tensor.backward.ms", "tensor.backward", "ms", "ms"),
    ("optim.adamw_step.calls", "optim.adamw_step", "calls", "count"),
    ("optim.adamw_step.ms", "optim.adamw_step", "ms", "ms"),
    ("models.forward.ms", "models.forward", "ms", "ms"),
    ("models.save_checkpoint.calls", "models.save_checkpoint", "calls", "count"),
    ("models.save_checkpoint.ms", "models.save_checkpoint", "ms", "ms"),
    ("models.save_checkpoint.mb", "models.save_checkpoint", "mb", "MB"),
    ("models.load_checkpoint.ms", "models.load_checkpoint", "ms", "ms"),
    ("data.read_volume.calls", "data.read_volume", "calls", "count"),
    ("data.read_volume.ms", "data.read_volume", "ms", "ms"),
    ("data.read_volume.mb", "data.read_volume", "mb", "MB"),
    ("train.load_dataset.ms", "train.load_dataset", "ms", "ms"),
    ("train.evaluate.calls", "train.evaluate", "calls", "count"),
    ("train.evaluate.ms", "train.evaluate", "ms", "ms"),
]


def rep_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer totals over one measured repetition (the subtree of ``root``)."""
    idx = tracer.subtree(root)
    selfs = tracer.self_ms(idx)
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(tracer.spans[i].name, []).append(i)
    out = {}
    for metric, span, quantity, _ in LAYER_METRICS:
        hits = by_name.get(span, [])
        if quantity == "calls":
            out[metric] = float(len(hits))
        elif quantity == "ms":
            out[metric] = sum(tracer.spans[i].ms for i in hits)
        elif quantity == "self_ms":
            out[metric] = sum(selfs[i] for i in hits)
        else:
            out[metric] = sum(tracer.spans[i].counts.get(quantity, 0.0) for i in hits)
    return out


def step_metrics(tracer: Tracer, root: int) -> dict[str, list[float]]:
    """Per-training-step samples: the model forward called directly by
    ``run_training`` (not by ``evaluate``), the conv3d self time inside it,
    the backward sweep, the AdamW update, and the graph bytes held at
    backward time."""
    steps = {"forward_ms": [], "conv3d_fwd_ms": [], "backward_ms": [], "optim_ms": [],
             "graph_mb": []}
    conv_by_forward: dict[int, float] = {}
    for i in tracer.subtree(root):
        s = tracer.spans[i]
        if s.name == "models.forward" and tracer.spans[s.parent].name == "train.run_training":
            steps["forward_ms"].append(s.ms)
            conv_by_forward[i] = 0.0
        elif s.name == "nn.conv3d" and s.parent in conv_by_forward:
            conv_by_forward[s.parent] += s.ms       # conv3d spans have no children
        elif s.name == "tensor.backward":
            steps["backward_ms"].append(s.ms)
            steps["graph_mb"].append(s.counts["graph_mb"])
        elif s.name == "optim.adamw_step":
            steps["optim_ms"].append(s.ms)
    steps["conv3d_fwd_ms"] = list(conv_by_forward.values())
    return steps


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
