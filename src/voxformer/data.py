"""Volume I/O, manifests, leakage-safe subject-level splitting, scan-selection
precedence, and the synthetic two-class dataset generator.

Volume file format ("VOX1"): magic ``VOX1`` | version u8=1 | dtype u8
(0 = float32) | three u32 little-endian extents | payload of
product(extents) float32 values, little-endian, row-major (last axis
fastest).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

LABELS = ("AD", "CN")
MANIFEST_NAME = "manifest.jsonl"
SPLIT_NAME = "split.json"

_VOX_MAGIC = b"VOX1"
_MAX_VOXELS = 2 ** 32


class DataError(ValueError):
    """Bad dataset contents (labels, counts, missing files)."""


class VolumeFormatError(DataError):
    """Malformed VOX1 file: bad magic, truncation, or absurd extents."""


def _name_file(e: BaseException, path) -> None:
    """Give an ``OSError`` that names no file (a full disk, say) ``path``."""
    if isinstance(e, OSError) and e.filename is None:
        e.filename = str(path)


def write_atomic(path, *chunks: bytes | memoryview) -> None:
    """Write ``chunks`` to a temporary file next to ``path``, then rename it
    over ``path``: ``path`` holds its old contents or the new ones, never a
    partial write.  An ``OSError`` that names no file is given ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        _name_file(e, path)
        raise


def append_text(path, text: str) -> None:
    """Append ``text`` to ``path``.  An ``OSError`` that names no file is given ``path``."""
    try:
        with open(path, "a") as f:
            f.write(text)
    except OSError as e:
        _name_file(e, path)
        raise


# ---------------------------------------------------------------------------
# VOX1 volume files

def write_volume(path, volume: np.ndarray) -> None:
    vol = np.ascontiguousarray(volume, dtype="<f4")
    if vol.ndim != 3:
        raise VolumeFormatError(f"volumes are 3-D, got shape {vol.shape}")
    with open(path, "wb") as f:
        f.write(_VOX_MAGIC)
        f.write(struct.pack("<BB", 1, 0))
        f.write(struct.pack("<III", *vol.shape))
        f.write(memoryview(vol).cast("B"))


def read_volume(path) -> np.ndarray:
    """Read a VOX1 file; its payload is read straight into the returned array."""
    with open(path, "rb") as f:
        header = f.read(18)
        if len(header) < 18:
            raise VolumeFormatError(f"{path}: truncated header ({len(header)} bytes)")
        if header[:4] != _VOX_MAGIC:
            raise VolumeFormatError(f"{path}: bad magic {header[:4]!r}, expected {_VOX_MAGIC!r}")
        version, dtype_code = struct.unpack("<BB", header[4:6])
        if version != 1:
            raise VolumeFormatError(f"{path}: unsupported version {version}")
        if dtype_code != 0:
            raise VolumeFormatError(f"{path}: unsupported dtype code {dtype_code}")
        extents = struct.unpack("<III", header[6:18])
        n = int(extents[0]) * int(extents[1]) * int(extents[2])
        if min(extents) < 1 or n > _MAX_VOXELS:
            raise VolumeFormatError(f"{path}: extent overflow {extents}")
        expected = n * 4
        payload = os.fstat(f.fileno()).st_size - 18
        if payload == expected:
            vol = np.empty(extents, "<f4")
            payload = f.readinto(vol)
    if payload != expected:
        raise VolumeFormatError(f"{path}: payload is {payload} bytes, "
                                f"header declares {expected}")
    return vol.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class VolumeRecord:
    subject_id: str
    session_id: str
    label: str
    path: str
    preferred: bool = False
    quality_rank: int | None = None
    visit_order: int = 1

    def __post_init__(self):
        if self.label not in LABELS:
            raise DataError(f"label must be one of {LABELS}, got {self.label!r}")


def write_manifest(path, records: list[VolumeRecord]) -> None:
    keys = ("subject_id", "session_id", "label", "path",
            "preferred", "quality_rank", "visit_order")
    rows = [asdict(r) for r in records]
    write_atomic(path, "".join(json.dumps({k: d[k] for k in keys}) + "\n" for d in rows).encode())


def read_manifest(path) -> list[VolumeRecord]:
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            records.append(VolumeRecord(**json.loads(line)))
        except (json.JSONDecodeError, TypeError) as e:
            raise DataError(f"{path}:{i + 1}: bad manifest row: {e}") from None
    seen = set()
    for r in records:
        key = (r.subject_id, r.session_id)
        if key in seen:
            raise DataError(f"duplicate (subject, session) {key} in {path}")
        seen.add(key)
    return records


# ---------------------------------------------------------------------------
# scan selection: preferred flag > best quality rank > earliest visit

def _selection_key(r: VolumeRecord):
    rank = r.quality_rank if r.quality_rank is not None else math.inf
    return (0 if r.preferred else 1, rank, r.visit_order, r.session_id)


def scan_select(records: list[VolumeRecord]) -> VolumeRecord:
    """Pick one scan per subject by the precedence cascade.

    A preferred scan wins outright; otherwise the best (lowest)
    quality_rank; otherwise the earliest visit.  Ties break on session_id,
    so the result is independent of input order.
    """
    if not records:
        raise DataError("scan_select on an empty record list")
    subjects = {r.subject_id for r in records}
    if len(subjects) > 1:
        raise DataError(f"scan_select got records for several subjects: {sorted(subjects)}")
    return min(records, key=_selection_key)


def select_per_subject(records: list[VolumeRecord]) -> list[VolumeRecord]:
    """One record per subject, subjects in sorted order."""
    by_subject: dict[str, list[VolumeRecord]] = {}
    for r in records:
        by_subject.setdefault(r.subject_id, []).append(r)
    return [scan_select(rs) for _, rs in sorted(by_subject.items())]


# ---------------------------------------------------------------------------
# subject-level split

@dataclass(frozen=True)
class SplitSpec:
    train_subjects: tuple[str, ...]
    test_subjects: tuple[str, ...]
    val_subjects: tuple[str, ...]
    seed: int
    audit: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "SplitSpec":
        d = json.loads(text)
        return SplitSpec(tuple(d["train_subjects"]), tuple(d["test_subjects"]),
                         tuple(d.get("val_subjects", ())), d["seed"], d.get("audit", {}))


def read_split(path) -> SplitSpec:
    """``SplitSpec`` from a split file; a missing file, text that is not JSON
    or a missing key raises ``DataError`` naming the file (and the key)."""
    try:
        return SplitSpec.from_json(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"no split found at {path}; run `voxformer split` first") from None
    except KeyError as e:
        raise DataError(f"{path}: split has no {e.args[0]!r} key") from None
    except (TypeError, ValueError) as e:    # ValueError covers JSON and UTF-8 errors
        raise DataError(f"{path}: not a split file ({e})") from None


def subject_split(records: list[VolumeRecord], test_per_class: int, seed: int,
                  val_per_class: int = 0) -> SplitSpec:
    """Class-balanced test set sampled at subject granularity; everything else
    is train.  Runs on raw records before any statistics are computed, and the
    audit proves no subject crosses the boundary."""
    for name, n in (("test_per_class", test_per_class), ("val_per_class", val_per_class)):
        if n < 0:
            raise ValueError(f"{name} must be >= 0, got {n}")
    selected = select_per_subject(records)
    by_class: dict[str, list[str]] = {lab: [] for lab in LABELS}
    for r in selected:
        by_class[r.label].append(r.subject_id)
    for lab, subs in by_class.items():
        if len(subs) < test_per_class + val_per_class:
            raise DataError(f"class {lab} has {len(subs)} subjects, need at least "
                            f"{test_per_class + val_per_class}")
    rng = np.random.default_rng(seed)
    test: list[str] = []
    val: list[str] = []
    train: list[str] = []
    for lab in LABELS:
        order = rng.permutation(sorted(by_class[lab]))
        test.extend(order[:test_per_class])
        val.extend(order[test_per_class:test_per_class + val_per_class])
        train.extend(order[test_per_class + val_per_class:])
    train_set, test_set, val_set = set(train), set(test), set(val)
    violations = sorted((train_set & test_set) | (train_set & val_set) | (test_set & val_set))
    label_of = {r.subject_id: r.label for r in selected}
    audit = {
        "violations": violations,
        "train_counts": {lab: sum(label_of[s] == lab for s in train) for lab in LABELS},
        "test_counts": {lab: sum(label_of[s] == lab for s in test) for lab in LABELS},
        "val_counts": {lab: sum(label_of[s] == lab for s in val) for lab in LABELS},
        "n_records": len(records),
        "n_selected": len(selected),
    }
    if violations:
        raise DataError(f"subject(s) in more than one split side: {violations}")
    return SplitSpec(tuple(sorted(train)), tuple(sorted(test)), tuple(sorted(val)),
                     seed, audit)


def split_records(records: list[VolumeRecord], split: SplitSpec
                  ) -> tuple[list[VolumeRecord], list[VolumeRecord]]:
    """Selected (train, test) records under a split."""
    selected = select_per_subject(records)
    train = [r for r in selected if r.subject_id in set(split.train_subjects)]
    test = [r for r in selected if r.subject_id in set(split.test_subjects)]
    return train, test


# ---------------------------------------------------------------------------
# synthetic dataset

@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 30
    sessions_per_subject: int = 2
    extents: tuple[int, int, int] = (32, 32, 32)
    seed: int = 0
    signal_amplitude: float = 0.5   # bump height for CN; AD keeps 20% of it
    noise_sigma: float = 0.05
    atrophy_factor: float = 0.2


def _coords(extents: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axes = [np.linspace(-1.0, 1.0, e, dtype=np.float64) for e in extents]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


_BUMP_CENTER = (0.35, 0.0, 0.0)
_BUMP_SIGMA = 0.25


def _fields(extents, offsets=(0.0, 0.0, 0.0), scales=(1.0, 1.0, 1.0)):
    """Base brain blob and the class-signal bump on a (possibly deformed) grid."""
    zz, yy, xx = _coords(extents)
    cs = [(c - o) * s for c, o, s in zip((zz, yy, xx), offsets, scales)]
    r2 = sum(c * c for c in cs)
    base = 0.8 * np.exp(-2.0 * r2)
    q = sum((c - b) ** 2 for c, b in zip(cs, _BUMP_CENTER))
    bump = np.exp(-q / (2.0 * _BUMP_SIGMA ** 2))
    return base, bump


def signal_region_mask(extents: tuple[int, int, int]) -> np.ndarray:
    """Voxels of the undeformed class-signal region (the linear-probe oracle's ROI)."""
    _, bump = _fields(extents)
    return bump > 0.5


def expected_region_means(cfg: SynthConfig) -> tuple[float, float, float]:
    """(mean_AD, mean_CN, threshold) over the signal region, computed in
    closed form from the generator fields (no sampling)."""
    base, bump = _fields(cfg.extents)
    mask = bump > 0.5
    mu_base = float(base[mask].mean())
    mu_bump = float(bump[mask].mean())
    mu_ad = mu_base + cfg.atrophy_factor * cfg.signal_amplitude * mu_bump
    mu_cn = mu_base + cfg.signal_amplitude * mu_bump
    return mu_ad, mu_cn, 0.5 * (mu_ad + mu_cn)


def synth_volume(cfg: SynthConfig, label: str, subject_rng: np.random.Generator,
                 session_rng: np.random.Generator) -> np.ndarray:
    """One pseudo-brain: smooth blob + class-dependent bump + session noise.

    All sessions of a subject share the subject's deformation (drawn from
    ``subject_rng``), so record-level splits leak detectably."""
    offsets = subject_rng.uniform(-0.08, 0.08, size=3)
    scales = subject_rng.uniform(0.92, 1.08, size=3)
    base, bump = _fields(cfg.extents, offsets, scales)
    amp = cfg.signal_amplitude * (cfg.atrophy_factor if label == "AD" else 1.0)
    vol = base + amp * bump
    vol = vol + session_rng.normal(0.0, cfg.noise_sigma, size=cfg.extents)
    return vol.astype(np.float32)


def synth_generate(out_dir, cfg: SynthConfig) -> Path:
    """Write volumes plus a manifest; (seed, config) fully determine all bytes."""
    if min(cfg.extents) < 8:
        raise DataError(f"extents {cfg.extents} below the synthetic minimum of 8")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    subject_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_subjects)
    for i, sseq in enumerate(subject_seeds):
        label = LABELS[i % 2]
        subject = f"sub-{i:04d}"
        session_seeds = sseq.spawn(cfg.sessions_per_subject + 1)
        for s in range(cfg.sessions_per_subject):
            # fresh deformation stream per session: same draw for every session
            subject_rng = np.random.default_rng(session_seeds[0])
            session_rng = np.random.default_rng(session_seeds[s + 1])
            vol = synth_volume(cfg, label, subject_rng, session_rng)
            name = f"{subject}_ses-{s + 1:02d}.vox"
            write_volume(out / name, vol)
            records.append(VolumeRecord(subject_id=subject, session_id=f"ses-{s + 1:02d}",
                                        label=label, path=name, visit_order=s + 1))
    write_manifest(out / MANIFEST_NAME, records)
    write_atomic(out / "synth_config.json",
                 json.dumps(asdict(cfg), sort_keys=True, indent=1).encode())
    return out / MANIFEST_NAME


def load_record_volume(data_dir, record: VolumeRecord) -> np.ndarray:
    path = Path(data_dir) / record.path
    if not path.exists():
        raise DataError(f"volume file missing: {path}")
    return read_volume(path)


def load_volumes(data_dir, records: list[VolumeRecord], selected_by) -> np.ndarray:
    """The records' volumes stacked into one [n, D, H, W] array.

    An empty selection raises ``DataError`` naming ``selected_by`` (the
    manifest or split that chose the records), and a volume whose extents
    differ from the first one's raises it naming that volume's file.
    """
    if not records:
        raise DataError(f"{selected_by} selects no scan")
    volumes = [load_record_volume(data_dir, r) for r in records]
    for r, vol in zip(records, volumes):
        if vol.shape != volumes[0].shape:
            raise DataError(f"{Path(data_dir) / r.path}: extents {vol.shape} differ from "
                            f"the {volumes[0].shape} of {Path(data_dir) / records[0].path}")
    return np.stack(volumes)
