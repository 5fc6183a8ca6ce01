"""Command-line surface: dataset synthesis, splitting, training, evaluation,
verification suites, and the hyper-parameter grid.

Exit codes: 0 success, 2 config error, 3 data error (including a file that
cannot be read or written), 4 verification failure, 5 training diverged.
The seed falls back to the VOXFORMER_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import data as D
from . import train as TR
from .optim import OptimizerError, TrainConfig, grid_enumerate
from .tensor import ShapeError
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4
EXIT_DIVERGED = 5


class ConfigError(ValueError):
    pass


def _parse_extents(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.replace("x", ",").split(","))
    except ValueError:
        raise ConfigError(f"cannot parse extents {text!r}") from None
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3 or min(parts) < 1:
        raise ConfigError(f"extents must be three positive integers, got {text!r}")
    return parts


def _seed(args) -> int:
    """``--seed``, else ``VOXFORMER_SEED``, else 0; a negative one is a
    config error naming where it came from."""
    if args.seed is not None:
        name, seed = "--seed", args.seed
    else:
        env = os.environ.get("VOXFORMER_SEED")
        if env is None:
            return 0
        try:
            name, seed = "VOXFORMER_SEED", int(env)
        except ValueError:
            raise ConfigError(f"VOXFORMER_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["vvit", "cvvt", "convnet3d4"], default="convnet3d4")
    p.add_argument("--size", choices=["tiny", "small", "base"], default="tiny")
    p.add_argument("--norm", choices=["bn", "in"], default="in")
    p.add_argument("--pool-stride", type=int, default=None,
                   help="ConvNet3D4 pool stride (default: 3 when extents allow, else 2)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--wd", type=float, default=0.001)
    p.add_argument("--step", type=int, default=25)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--target-acc", type=float, default=None,
                   help="stop once test accuracy reaches this value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxformer",
                                     description="Volumetric classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic two-class dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=30)
    p.add_argument("--sessions", type=int, default=2)
    p.add_argument("--extents", default="32,32,32")
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("split", help="subject-level train/test split with leakage audit")
    p.add_argument("--data", required=True)
    p.add_argument("--test-per-class", type=int, default=5)
    p.add_argument("--val-per-class", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train one model on a split dataset")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extents", default=None,
                   help="expected volume extents; mismatch with the data is a config error")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subset", choices=["test", "train", "all"], default="test")
    p.add_argument("--batch", type=int, default=1)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser("grid", help="hyper-parameter grid search")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--limit", type=int, default=None,
                   help="run only the first N grid points")
    p.add_argument("--threads", type=int, default=1,
                   help="parallel training workers")
    p.add_argument("--seed", type=int, default=None)
    return parser


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = D.SynthConfig(n_subjects=args.subjects, sessions_per_subject=args.sessions,
                        extents=_parse_extents(args.extents), seed=_seed(args),
                        signal_amplitude=args.amplitude, noise_sigma=args.noise)
    manifest = D.synth_generate(args.out, cfg)
    print(f"wrote {cfg.n_subjects * cfg.sessions_per_subject} volumes and {manifest}")
    return EXIT_OK


def cmd_split(args) -> int:
    data_dir = Path(args.data)
    records = D.read_manifest(data_dir / D.MANIFEST_NAME)
    split = D.subject_split(records, args.test_per_class, _seed(args), args.val_per_class)
    D.write_atomic(data_dir / D.SPLIT_NAME, split.to_json().encode())
    print(json.dumps(split.audit, sort_keys=True))
    return EXIT_OK


def _run_config_from_args(args) -> TR.RunConfig:
    tc = TrainConfig(lr=args.lr, weight_decay=args.wd, step_size=args.step,
                     gamma=args.gamma, total_epochs=args.epochs, batch_size=args.batch)
    return TR.RunConfig(model=args.model, size=args.size, norm=args.norm, train=tc,
                        seed=_seed(args), pool_stride=args.pool_stride,
                        target_accuracy=args.target_acc)


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    D.read_split(data_dir / D.SPLIT_NAME)
    run = _run_config_from_args(args)
    if args.extents is not None:
        want = _parse_extents(args.extents)
        manifest = data_dir / D.MANIFEST_NAME
        got = D.load_volumes(data_dir, D.read_manifest(manifest)[:1], manifest).shape[1:]
        if got != want:
            raise ConfigError(f"--extents {want} but data volumes are {got}")
    # a diverging run overflows long before AdamW's finite-gradient check
    # stops it; that check names the parameter, numpy's per-op warnings do not
    with np.errstate(over="ignore", invalid="ignore"):
        rows = TR.run_training(run, data_dir, args.out)
    last = [r for r in rows if r.get("event") == "epoch"]
    best = max((r["test_acc"] for r in last), default=rows[1]["test_acc"])
    print(f"epochs={len(last)} best_test_acc={best:.4f} metrics={Path(args.out) / TR.METRICS_NAME}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.batch < 1:
        raise ConfigError(f"batch_size must be >= 1, got {args.batch}")
    model, config = TR.load_model_from_checkpoint(args.ckpt)
    data_dir = Path(args.data)
    manifest = data_dir / D.MANIFEST_NAME
    records = D.read_manifest(manifest)
    if args.subset in ("train", "test"):
        split_path = data_dir / D.SPLIT_NAME
        train_recs, test_recs = D.split_records(records, D.read_split(split_path))
        records = test_recs if args.subset == "test" else train_recs
        selected_by = f"the {args.subset} side of {split_path}"
    else:
        records, selected_by = D.select_per_subject(records), manifest
    want = tuple(model.cfg.extents)
    vols = D.load_volumes(data_dir, records, selected_by)
    if tuple(vols.shape[1:]) != want:
        raise ConfigError(f"checkpoint expects extents {want}, data volumes are {vols.shape[1:]}")
    norm = config["normalization"]
    TR.normalize_volumes(vols, norm["mean"], norm["std"])
    acc, confusion = TR.evaluate(model, vols, TR.record_labels(records), args.batch)
    print(json.dumps({"accuracy": acc, "n": len(records), "confusion": confusion},
                     sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results, ok = run_suites(names)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f"  [{r.detail}]" if r.detail else ""))
    if args.out:
        report = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        D.write_atomic(args.out, json.dumps(report, indent=1, sort_keys=True).encode())
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if not ok:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def _grid_worker(payload) -> dict:
    index, run, data_dir, out_dir = payload
    row = {"index": index, "config": run.to_dict()}
    try:
        rows = TR.run_training(run, data_dir, Path(out_dir) / f"run_{index:03d}")
        epochs = [r for r in rows if r.get("event") == "epoch"]
        row.update(status="ok",
                   best_test_acc=max((r["test_acc"] for r in epochs), default=0.0),
                   final_test_acc=epochs[-1]["test_acc"] if epochs else 0.0,
                   final_train_loss=epochs[-1]["train_loss"] if epochs else None)
    except OptimizerError as e:     # a diverging run is recorded, not fatal
        row.update(status="failed", error=f"{type(e).__name__}: {e}",
                   best_test_acc=-1.0, final_test_acc=-1.0, final_train_loss=None)
    return row


def cmd_grid(args) -> int:
    for flag, value in (("--limit", args.limit), ("--threads", args.threads)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    data_dir = Path(args.data)
    D.read_split(data_dir / D.SPLIT_NAME)      # every run shares it: check it once
    configs = grid_enumerate(total_epochs=args.epochs, batch_size=args.batch)
    if args.limit is not None:
        configs = configs[:args.limit]
    base = np.random.SeedSequence(_seed(args))
    run_seeds = [int(s.generate_state(1)[0]) for s in base.spawn(len(configs))]
    out_dir = Path(args.out)
    payloads = []
    for i, tc in enumerate(configs):
        run = TR.RunConfig(model=args.model, size=args.size, norm=args.norm, train=tc,
                           seed=run_seeds[i], pool_stride=args.pool_stride)
        payloads.append((i, run, str(data_dir), str(out_dir)))
    # each row is appended as its run returns, in grid order, so a stopped
    # grid keeps the rows before it; a finished one is rewritten ranked.  The
    # first row makes the directory and replaces an earlier grid's file, so a
    # fault before it (a bad scan) leaves no output behind.
    grid_path = out_dir / "grid.jsonl"
    rows = []
    pool = ProcessPoolExecutor(max_workers=args.threads) if args.threads > 1 else None
    with pool or contextlib.nullcontext():
        for row in (pool.map if pool else map)(_grid_worker, payloads):
            if not rows:
                out_dir.mkdir(parents=True, exist_ok=True)
                D.write_atomic(grid_path)
            D.append_text(grid_path, json.dumps(row, sort_keys=True) + "\n")
            rows.append(row)
    rows.sort(key=lambda r: (-r["best_test_acc"], r["index"]))
    D.write_atomic(grid_path, *(json.dumps(r, sort_keys=True).encode() + b"\n" for r in rows))
    print(f"{'rank':>4} {'best_acc':>8} {'lr':>8} {'wd':>7} {'step':>4} {'gamma':>5} status")
    for rank, row in enumerate(rows):
        c = row["config"]["train"]
        print(f"{rank:>4} {row['best_test_acc']:>8.4f} {c['lr']:>8g} {c['weight_decay']:>7g} "
              f"{c['step_size']:>4} {c['gamma']:>5g} {row['status']}")
    return EXIT_OK


COMMANDS = {"synth": cmd_synth, "split": cmd_split, "train": cmd_train,
            "eval": cmd_eval, "verify": cmd_verify, "grid": cmd_grid}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ShapeError, ValueError) as e:
        if isinstance(e, D.DataError):
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:            # a missing input, a full disk, a denied permission
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OptimizerError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
