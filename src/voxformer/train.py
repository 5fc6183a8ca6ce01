"""Seeded training and evaluation loops over split manifests.

All randomness (init, dropout, epoch shuffles) derives from one run seed;
two runs with identical inputs produce byte-identical metrics logs and
checkpoints.  Input normalization statistics come from the train side of
the split only (late-split guard).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from . import models as M
from .nn import cross_entropy
from .optim import AdamW, TrainConfig, lr_at
from .tensor import ShapeError, Tensor, no_grad

CHECKPOINT_NAME = "best.ckpt"
METRICS_NAME = "metrics.jsonl"


@dataclass(frozen=True)
class RunConfig:
    model: str = "convnet3d4"
    size: str = "tiny"
    norm: str = "in"
    train: TrainConfig = field(default_factory=lambda: TrainConfig(0.001, 0.001, 25, 0.3))
    seed: int = 0
    pool_stride: int | None = None      # None = auto: 3 when extents allow, else 2
    target_accuracy: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_pool_stride(extents: tuple[int, int, int], requested: int | None) -> int:
    """Pick the ConvNet3D4 pool stride: the full-size default 3 when the four
    pools fit the extents, otherwise 2 (minimum viable extent is 31)."""
    if requested is not None:
        return int(requested)
    for stride in (3, 2):
        try:
            M.shape_infer(M.build_config("convnet3d4", extents=extents, pool_stride=stride))
            return stride
        except M.ShapeUnderflowError:
            continue
    raise M.ShapeUnderflowError("block4.pool",
                                f"extents {extents} underflow even at pool stride 2")


@dataclass
class LoadedDataset:
    extents: tuple[int, int, int]
    train_volumes: np.ndarray       # [n_train, D, H, W]
    train_labels: np.ndarray
    test_volumes: np.ndarray
    test_labels: np.ndarray
    stats: tuple[float, float]      # train-set mean/std used to normalize both sides


def train_statistics(volumes: np.ndarray) -> tuple[float, float]:
    """Scalar normalization stats; must only ever see the train side."""
    return float(volumes.mean()), float(volumes.std() + 1e-8)


def record_labels(records: list[D.VolumeRecord]) -> np.ndarray:
    return np.array([D.LABELS.index(r.label) for r in records], dtype=np.int64)


def load_dataset(data_dir, split: D.SplitSpec) -> LoadedDataset:
    """Both sides of the split, normalized by train-side statistics.  The
    train side must select a scan; the test side may be empty, and its scans
    must have the train extents."""
    data_dir = Path(data_dir)
    split_path = data_dir / D.SPLIT_NAME
    train_recs, test_recs = D.split_records(D.read_manifest(data_dir / D.MANIFEST_NAME), split)
    train_volumes = D.load_volumes(data_dir, train_recs, f"the train side of {split_path}")
    extents = train_volumes.shape[1:]
    test_volumes = (D.load_volumes(data_dir, test_recs, f"the test side of {split_path}")
                    if test_recs else np.zeros((0,) + extents, np.float32))
    if test_volumes.shape[1:] != extents:
        raise D.DataError(f"{data_dir / test_recs[0].path}: extents {test_volumes.shape[1:]} "
                          f"differ from the {extents} of the train scans")
    mean, std = train_statistics(train_volumes)
    for vols in (train_volumes, test_volumes):
        normalize_volumes(vols, mean, std)
    return LoadedDataset(extents=extents,
                         train_volumes=train_volumes, train_labels=record_labels(train_recs),
                         test_volumes=test_volumes, test_labels=record_labels(test_recs),
                         stats=(mean, std))


def normalize_volumes(volumes: np.ndarray, mean: float, std: float) -> None:
    """``(volumes - mean) / std`` in place, in the volumes' own float32."""
    np.subtract(volumes, mean, out=volumes)
    np.divide(volumes, std, out=volumes)


def evaluate(model, volumes: np.ndarray, labels: np.ndarray,
             batch_size: int = 1) -> tuple[float, dict]:
    """Accuracy and per-class confusion counts (rows true, columns predicted)."""
    model.eval()
    confusion = {a: {b: 0 for b in D.LABELS} for a in D.LABELS}
    if len(volumes) == 0:
        return 0.0, confusion
    preds = []
    with no_grad():
        for i in range(0, len(volumes), batch_size):
            x = Tensor(volumes[i:i + batch_size][:, None])
            preds.append(model(x).data.argmax(axis=-1))
    preds = np.concatenate(preds)
    for t, p in zip(labels, preds):
        confusion[D.LABELS[t]][D.LABELS[p]] += 1
    return float((preds == labels).mean()), confusion


def run_training(run: RunConfig, data_dir, out_dir) -> list[dict]:
    """Train per the run config; writes metrics.jsonl and the best checkpoint.

    Returns the metric rows.  A zero-epoch run emits the initial evaluation
    only and writes no checkpoint.  An error during an epoch (such as the
    ``OptimizerError`` of a diverging run) appends a ``failed`` row naming
    the epoch and the error, then propagates.
    """
    split = D.read_split(Path(data_dir) / D.SPLIT_NAME)
    ds = load_dataset(data_dir, split)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pool_stride = (resolve_pool_stride(ds.extents, run.pool_stride)
                   if run.model == "convnet3d4" else run.pool_stride)
    cfg = M.build_config(run.model, run.size, run.norm, ds.extents, pool_stride)
    # streams 0 and 1 of this seed belong to the model (init, dropout)
    model = M.build_model(cfg, seed=run.seed)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(run.seed).spawn(3)[2])

    tc = run.train
    opt = AdamW(dict(model.named_parameters()), lr=tc.lr, weight_decay=tc.weight_decay)

    ckpt_config = {"model_config": M.config_to_dict(cfg), "run": run.to_dict(),
                   "normalization": {"mean": ds.stats[0], "std": ds.stats[1]},
                   "labels": list(D.LABELS)}
    metrics_path = out / METRICS_NAME
    rows: list[dict] = []

    def emit(row: dict) -> None:
        rows.append(row)
        D.append_text(metrics_path, json.dumps(row, sort_keys=True) + "\n")

    metrics_path.write_text("")
    emit({"event": "config", **ckpt_config["run"],
          "model_config": ckpt_config["model_config"],
          "normalization": ckpt_config["normalization"]})

    test_acc, _ = evaluate(model, ds.test_volumes, ds.test_labels, tc.batch_size)
    emit({"event": "init", "test_acc": test_acc})

    best_acc = -1.0
    n_train = len(ds.train_volumes)
    epoch = None
    try:
        for epoch in range(tc.total_epochs):
            lr = lr_at(epoch, tc)
            opt.lr = lr
            model.train()
            order = shuffle_rng.permutation(n_train)
            losses = []
            correct = 0
            for i in range(0, n_train, tc.batch_size):
                idx = order[i:i + tc.batch_size]
                x = Tensor(ds.train_volumes[idx][:, None])
                y = ds.train_labels[idx]
                logits = model(x)
                loss = cross_entropy(logits, y)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
                correct += int((logits.data.argmax(axis=-1) == y).sum())
            test_acc, confusion = evaluate(model, ds.test_volumes, ds.test_labels, tc.batch_size)
            emit({"event": "epoch", "epoch": epoch, "lr": lr,
                  "train_loss": float(np.mean(losses)),
                  "train_acc": correct / n_train,
                  "test_acc": test_acc})
            if test_acc > best_acc:
                best_acc = test_acc
                M.save_checkpoint(out / CHECKPOINT_NAME, model, ckpt_config)
            if run.target_accuracy is not None and test_acc >= run.target_accuracy:
                break
    except Exception as e:
        # the log ends on a terminal event even when training does not
        emit({"event": "failed", "epoch": epoch, "error": f"{type(e).__name__}: {e}"})
        raise
    emit({"event": "done", "best_test_acc": best_acc if best_acc >= 0 else None,
          "epochs_run": sum(1 for r in rows if r.get("event") == "epoch")})
    return rows


def load_model_from_checkpoint(path):
    """Rebuild the model and its normalization stats from a checkpoint.

    A manifest that reads but does not describe a model (a missing key, a
    config ``build_config`` rejects, a non-integer seed, tensors that do not
    match the model, or no numeric normalization mean and std) raises
    ``CheckpointFormatError`` naming the file and the key or tensor.
    """
    config, arrays = M.load_checkpoint(path)

    def entry(*keys, types=None):
        value = config
        for i, key in enumerate(keys):
            if not isinstance(value, dict) or key not in value:
                raise M.CheckpointFormatError(
                    f"{path}: the manifest config has no {'.'.join(keys[:i + 1])!r}")
            value = value[key]
        if types is not None and type(value) not in types:
            raise M.CheckpointFormatError(
                f"{path}: manifest config {'.'.join(keys)!r} is {value!r}, expected "
                f"{' or '.join(t.__name__ for t in types)}")
        return value

    model_config = entry("model_config", types=(dict,))
    seed = entry("run", "seed", types=(int,))
    try:
        model = M.build_model(M.config_from_dict(model_config), seed=seed)
    except (TypeError, ValueError) as e:
        raise M.CheckpointFormatError(f"{path}: manifest config 'model_config': {e}") from None
    for key in ("mean", "std"):
        entry("normalization", key, types=(int, float))
    try:
        model.load_state(arrays)
    except (KeyError, ShapeError) as e:
        raise M.CheckpointFormatError(f"{path}: tensors do not match the model: "
                                      f"{e.args[0]}") from None
    model.eval()
    return model, config
