"""voxformer CPU benchmark: one workload per process.

    python3 perfbench/run.py --workload convnet_in_32_train --seed 0 --seconds 25 --trace 0

Run from the root of a voxformer checkout; the benchmark imports the package
from that checkout's ``src/`` and nothing else.  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object; the lines
before it give the environment and a readable table.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window: repetitions run until it has passed, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="desk-sized variant of the workload, for the harness self-test")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or "unknown"


def src_digest() -> str:
    """Hash of every file under src/, naming the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, why: str) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "why": why, "commit": commit(), "src_sha256": src_digest(),
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "voxformer" / "__init__.py").is_file():
        return fail(f"no voxformer sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        return fail(f"unknown workload {args.workload!r}; expected one of {sorted(why)}")

    # BLAS reads its thread count when numpy loads: one thread per usable core.
    blas_threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_threads
    sys.path.insert(0, str(ROOT / "src"))
    import voxformer
    if Path(voxformer.__file__).resolve().parent != ROOT / "src" / "voxformer":
        return fail(f"imported voxformer from {voxformer.__file__}, not from this checkout")
    import workloads as W

    w = W.WORKLOADS[args.workload]
    if args.tiny:
        w = W.tiny(w)
    env = environment(args, why[args.workload])
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = HERE / ".run"
    work = out_dir / f"work-{os.getpid()}"
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = W.run(w, args.seed, args.seconds, bool(args.trace), work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if got != wanted:
        return fail(f"harness emits {sorted(got.items())}, BENCHMARK.json lists "
                    f"{sorted(wanted.items())}")

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{'error_rate':34s} {error_rate:14.4f} ratio "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for name, values in outcome.timings.items():
        if values:
            print(f"{name:34s} " + " ".join(f"{v:.3f}" for v in values))
    for err in outcome.errors:
        print(f"check failed: {err}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in outcome.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
