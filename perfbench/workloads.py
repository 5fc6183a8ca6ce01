"""The benchmark's workloads: set-up, one measured repetition, output checks,
and the loop that turns repetitions into metrics.

A repetition is what a researcher waits for: one ``train.run_training`` call
on a train workload, one ``voxformer eval`` invocation on the eval workload.
Set-up (synthesis, split, model build, checkpoint creation) is timed on its
own and repeated, so that work moved into set-up shows.
"""

from __future__ import annotations

import io
import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from voxformer import cli
from voxformer import data as D
from voxformer import models as M
from voxformer import train as TR
from voxformer.optim import TrainConfig

import tracer as T

# setup_s is the median of this many set-ups.  The count is fixed so that
# every run makes the same allocations before the measured repetitions.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                      # vvit | cvvt | convnet3d4
    task: str                       # train | eval
    extents: tuple[int, int, int]
    subjects: int
    sessions: int
    test_per_class: int
    epochs: int = 0
    lr: float = 0.001
    # The final epoch's train loss must fall in this band: half the lowest
    # to twice the highest value seen over seeds 0-19, so that a change in
    # reduction order still passes and a diverging run does not.
    loss_band: tuple[float, float] = (0.0, math.inf)


WORKLOADS = {w.name: w for w in (
    Workload("convnet_in_32_train", "convnet3d4", "train", (32, 32, 32),
             subjects=30, sessions=2, test_per_class=5, epochs=1,
             loss_band=(0.8, 10.0)),              # seen: 1.66 to 4.86
    Workload("vvit_tiny_full_train", "vvit", "train", M.FULL_EXTENTS,
             subjects=6, sessions=1, test_per_class=1, epochs=2, lr=0.0001,
             loss_band=(0.25, 3.0)),              # seen: 0.56 to 1.46
    Workload("cvvt_tiny_full_eval", "cvvt", "eval", M.FULL_EXTENTS,
             subjects=6, sessions=1, test_per_class=2),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at desk extents and a handful of scans, one epoch;
    used by the harness self-test.  The loss band only guards divergence."""
    extents = (32, 32, 32) if w.model == "convnet3d4" else (16, 16, 16)
    return replace(w, extents=extents, subjects=4, sessions=1, test_per_class=1,
                   epochs=min(w.epochs, 1), loss_band=(0.0, 20.0))


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Prepared:
    data_dir: Path
    n_train: int
    n_test: int
    state_mb: float                 # AdamW moments (m and v), computed from shapes
    ckpt: Path | None = None


def _cli(*argv) -> str:
    """Run one ``voxformer`` command in-process; returns what it printed."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"voxformer {argv[0]} exited {code}")
    return buf.getvalue()


def setup(w: Workload, seed: int, work: Path) -> Prepared:
    data_dir = work / "data"
    _cli("synth", "--out", data_dir, "--subjects", w.subjects, "--sessions", w.sessions,
         "--extents", ",".join(map(str, w.extents)), "--seed", seed)
    _cli("split", "--data", data_dir, "--test-per-class", w.test_per_class, "--seed", seed)
    split = D.SplitSpec.from_json((data_dir / D.SPLIT_NAME).read_text())
    train_recs, test_recs = D.split_records(D.read_manifest(data_dir / D.MANIFEST_NAME), split)
    pool = TR.resolve_pool_stride(w.extents, None) if w.model == "convnet3d4" else None
    cfg = M.build_config(w.model, "tiny", "in", w.extents, pool)
    model = M.build_model(cfg, seed=seed)
    prep = Prepared(data_dir, len(train_recs), len(test_recs),
                    state_mb=(2 * sum(p.data.nbytes for p in model.parameters()) / T.MB
                              if w.task == "train" else 0.0))
    if w.task == "eval":
        # normalization from the train side only, as run_training does
        mean, std = TR.train_statistics(
            np.stack([D.load_record_volume(data_dir, r) for r in train_recs]))
        config = {"model_config": M.config_to_dict(cfg),
                  "run": TR.RunConfig(model=w.model, seed=seed).to_dict(),
                  "normalization": {"mean": mean, "std": std},
                  "labels": list(D.LABELS)}
        prep.ckpt = work / "model.ckpt"
        M.save_checkpoint(prep.ckpt, model, config)
    return prep


# ---------------------------------------------------------------------------
# repetitions and their output checks

@dataclass
class Rep:
    samples: int
    wall: float
    checks: list[str] = field(default_factory=list)   # one entry per failed check
    n_checks: int = 0
    printed: str = ""


def train_rep(w: Workload, prep: Prepared, seed: int, out_dir: Path) -> Rep:
    run = TR.RunConfig(model=w.model, size="tiny", norm="in", seed=seed,
                       train=TrainConfig(lr=w.lr, weight_decay=0.001, step_size=25,
                                         gamma=0.3, total_epochs=w.epochs, batch_size=1))
    t0 = time.perf_counter()
    rows = TR.run_training(run, prep.data_dir, out_dir)
    wall = time.perf_counter() - t0
    rep = Rep(prep.n_train * w.epochs, wall, n_checks=3)
    losses = [r["train_loss"] for r in rows if r.get("event") == "epoch"]
    if len(losses) != w.epochs or not all(math.isfinite(x) for x in losses):
        rep.checks.append(f"epoch train losses not all finite: {losses}")
    lines = (out_dir / TR.METRICS_NAME).read_text().splitlines()
    if not lines or json.loads(lines[-1]).get("event") != "done":
        rep.checks.append(f"{TR.METRICS_NAME} does not end in a done event")
    lo, hi = w.loss_band
    if not (losses and lo <= losses[-1] <= hi):
        rep.checks.append(f"final train loss {losses[-1:]} outside band [{lo}, {hi}]")
    return rep


def eval_rep(prep: Prepared) -> Rep:
    t0 = time.perf_counter()
    printed = _cli("eval", "--ckpt", prep.ckpt, "--data", prep.data_dir, "--subset", "test")
    return Rep(prep.n_test, time.perf_counter() - t0, n_checks=1, printed=printed)


def eval_reference(prep: Prepared) -> dict:
    """In-process ``train.evaluate`` on the checkpoint and test scans the CLI scored."""
    model, config = TR.load_model_from_checkpoint(prep.ckpt)
    split = D.SplitSpec.from_json((prep.data_dir / D.SPLIT_NAME).read_text())
    _, test = D.split_records(D.read_manifest(prep.data_dir / D.MANIFEST_NAME), split)
    norm = config["normalization"]
    vols = np.stack([D.load_record_volume(prep.data_dir, r) for r in test])
    vols = ((vols - norm["mean"]) / norm["std"]).astype(np.float32)
    labels = np.array([D.LABELS.index(r.label) for r in test], dtype=np.int64)
    acc, confusion = TR.evaluate(model, vols, labels)
    return {"accuracy": acc, "confusion": confusion, "n": len(test)}


def check_eval(rep: Rep, reference: dict) -> None:
    try:
        got = json.loads(rep.printed.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        got = None
    if got != reference:
        rep.checks.append(f"voxformer eval printed {rep.printed.strip()!r}, "
                          f"in-process evaluate gives {json.dumps(reference, sort_keys=True)}")


# ---------------------------------------------------------------------------
# the measured run

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    timings: dict[str, list[float]] = field(default_factory=dict)   # raw seconds, for the log


def _repeat(do_rep, seconds: float, reps: list[Rep], outcome: Outcome, ops: int) -> None:
    """Run repetitions, at least one, until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        try:
            reps.append(do_rep(len(reps)))
        except Exception as e:      # a failed repetition is counted, not fatal
            outcome.attempted += ops
            outcome.failed += ops
            outcome.errors.append(f"{type(e).__name__}: {e}")
            return
        if time.perf_counter() - start >= seconds:
            return


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        trace_path: Path | None = None) -> Outcome:
    out = Outcome()
    tr = T.Tracer() if trace else None
    if tr:
        T.install(tr)
    setup_times: list[float] = []
    for i in range(1 if trace else SETUP_REPEATS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
        setup_root = len(tr.spans) if tr else -1
        t0 = time.perf_counter()
        with tr.span("bench.setup") if tr else nullcontext():
            prep = setup(w, seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - t0)

    ops = prep.n_train * w.epochs if w.task == "train" else prep.n_test

    def do_rep(k: int) -> Rep:
        if w.task == "train":
            rep_dir = work / f"rep{k}"
            try:
                return train_rep(w, prep, seed, rep_dir)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
        return eval_rep(prep)

    reps: list[Rep] = []
    roots: list[int] = []
    base: list[Rep] = []
    if tr:
        # Two untraced repetitions first: a warm-up (the first repetition in a
        # process pays allocator and page-cache warm-up) and the base for the
        # tracing overhead.  The window then bounds the traced ones.
        tr.uninstall()
        t0 = time.perf_counter()
        _repeat(do_rep, 0.0, base, out, ops)
        _repeat(do_rep, 0.0, base, out, ops)
        T.install(tr)

        def traced_rep(k: int) -> Rep:
            roots.append(len(tr.spans))
            with tr.span("bench.rep"):
                return do_rep(k)
        _repeat(traced_rep, seconds - (time.perf_counter() - t0), reps, out, ops)
        tr.uninstall()
    else:
        _repeat(do_rep, seconds, reps, out, ops)

    out.timings = {"setup_s": setup_times, "untraced_rep_s": [r.wall for r in base],
                   "rep_s": [r.wall for r in reps]}
    if w.task == "eval" and reps:
        reference = eval_reference(prep)
        for rep in reps + base:
            check_eval(rep, reference)
    for rep in reps + base:
        out.attempted += rep.samples + rep.n_checks
        out.failed += len(rep.checks)
        out.errors += rep.checks

    if tr:
        out.metrics = _layer_metrics(tr, roots[:len(reps)], setup_root, prep, reps, base)
        if trace_path is not None:
            tr.write(trace_path)
    else:
        rates = [r.samples / r.wall for r in reps] or [0.0]
        out.metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "samples_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / T.MB,
                            "MB"),
        }
    return out


def _layer_metrics(tr: T.Tracer, roots: list[int], setup_root: int, prep: Prepared,
                   reps: list[Rep], base: list[Rep]) -> dict[str, tuple[float, str]]:
    per_rep = [T.rep_metrics(tr, r) for r in roots]
    metrics = {name: (T.median_or_zero([m[name] for m in per_rep]), unit)
               for name, _, _, unit in T.LAYER_METRICS}
    synth = [tr.spans[i].ms for i in tr.subtree(setup_root)
             if tr.spans[i].name == "data.synth_generate"]
    metrics["data.synth_generate.ms"] = (sum(synth), "ms")
    steps: dict[str, list[float]] = {}
    for r in roots:
        for key, values in T.step_metrics(tr, r).items():
            steps.setdefault(key, []).extend(values)
    for key, values in steps.items():
        metrics[f"train.step.{key}"] = (T.median_or_zero(values),
                                        "MB-computed" if key == "graph_mb" else "ms")
    metrics["optim.state_mb"] = (prep.state_mb, "MB-computed")
    traced = T.median_or_zero([r.wall for r in reps])
    untraced = base[-1].wall if base else 0.0
    metrics["trace.rep_ms"] = (1e3 * traced, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced if untraced else 0.0,
                                     "%")
    return metrics
