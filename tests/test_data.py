import ast
import hashlib
import json
import math
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxformer import data as D
from voxformer import nn


def rec(subject, session="ses-01", label="AD", preferred=False, rank=None, visit=1):
    return D.VolumeRecord(subject_id=subject, session_id=session, label=label,
                          path=f"{subject}_{session}.vox", preferred=preferred,
                          quality_rank=rank, visit_order=visit)


# ---------------------------------------------------------------------------
# VOX1 files

def test_volume_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.standard_normal((5, 7, 6)).astype(np.float32)
    p = tmp_path / "a.vox"
    D.write_volume(p, vol)
    back = D.read_volume(p)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, vol)
    D.write_volume(tmp_path / "b.vox", back)
    assert p.read_bytes() == (tmp_path / "b.vox").read_bytes()


def test_volume_bad_magic(tmp_path):
    p = tmp_path / "bad.vox"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(D.VolumeFormatError, match="magic"):
        D.read_volume(p)


def test_volume_truncated_payload(tmp_path):
    p = tmp_path / "t.vox"
    D.write_volume(p, np.zeros((2, 2, 2), np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])
    with pytest.raises(D.VolumeFormatError, match="payload"):
        D.read_volume(p)


@pytest.mark.parametrize("cut,match", [(17, "truncated header"), (0, "truncated header"),
                                       (18, "payload"), (-1, "payload")],
                         ids=["short_header", "empty", "no_payload", "trailing_bytes"])
def test_volume_size_faults(tmp_path, cut, match):
    p = tmp_path / "s.vox"
    D.write_volume(p, np.ones((2, 3, 2), np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob + b"\x00\x00\x00\x00\x07" if cut == -1 else blob[:cut])
    with pytest.raises(D.VolumeFormatError, match=match) as err:
        D.read_volume(p)
    assert str(p) in str(err.value)


def test_volume_extent_overflow(tmp_path):
    import struct
    p = tmp_path / "o.vox"
    header = b"VOX1" + struct.pack("<BB", 1, 0) + struct.pack("<III", 2 ** 31, 2 ** 31, 4)
    p.write_bytes(header + b"\x00" * 64)
    with pytest.raises(D.VolumeFormatError, match="overflow"):
        D.read_volume(p)


def test_volume_header_format(tmp_path):
    p = tmp_path / "h.vox"
    D.write_volume(p, np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    blob = p.read_bytes()
    assert blob[:4] == b"VOX1"
    assert blob[4] == 1 and blob[5] == 0
    assert np.frombuffer(blob[6:18], "<u4").tolist() == [2, 2, 2]
    assert len(blob) == 18 + 8 * 4


# ---------------------------------------------------------------------------
# manifest

def test_manifest_roundtrip_lossless(tmp_path):
    records = [rec("sub-01", visit=2, rank=3), rec("sub-02", label="CN", preferred=True)]
    p = tmp_path / "m.jsonl"
    D.write_manifest(p, records)
    assert D.read_manifest(p) == records
    row = json.loads(p.read_text().splitlines()[0])
    assert list(row) == ["subject_id", "session_id", "label", "path",
                         "preferred", "quality_rank", "visit_order"]


def test_manifest_duplicate_session_rejected(tmp_path):
    p = tmp_path / "m.jsonl"
    D.write_manifest(p, [rec("sub-01")])
    p.write_text(p.read_text() * 2)
    with pytest.raises(D.DataError, match="duplicate"):
        D.read_manifest(p)


def test_manifest_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "m.jsonl"
    D.write_manifest(p, [rec("sub-01")])
    with open(p, "ab") as f:
        f.write(b"\xff\xfe\n")
    with pytest.raises(D.DataError, match="not UTF-8 text") as err:
        D.read_manifest(p)
    assert str(err.value).startswith(f"{p}: "), err.value


def test_bad_label_rejected():
    with pytest.raises(D.DataError):
        rec("sub-01", label="MCI")


# ---------------------------------------------------------------------------
# scan selection: preferred > quality rank > first visit

def test_scan_select_preferred_wins_over_earlier_visit():
    records = [rec("s", "ses-01", visit=1), rec("s", "ses-03", visit=3, preferred=True)]
    assert D.scan_select(records).session_id == "ses-03"


def test_scan_select_quality_rank_when_no_preferred():
    records = [rec("s", "ses-01", visit=1, rank=5), rec("s", "ses-02", visit=2, rank=2)]
    assert D.scan_select(records).session_id == "ses-02"


def test_scan_select_first_visit_fallback():
    records = [rec("s", "ses-a", visit=2), rec("s", "ses-b", visit=1), rec("s", "ses-c", visit=3)]
    assert D.scan_select(records).visit_order == 1


def test_scan_select_single_record():
    only = rec("s")
    assert D.scan_select([only]) is only


def test_scan_select_ranked_beats_unranked():
    records = [rec("s", "ses-01", visit=1), rec("s", "ses-02", visit=2, rank=9)]
    assert D.scan_select(records).session_id == "ses-02"


def test_scan_select_tiebreak_on_session_id():
    records = [rec("s", "ses-b", visit=1), rec("s", "ses-a", visit=1)]
    assert D.scan_select(records).session_id == "ses-a"


def test_scan_select_empty_rejected():
    with pytest.raises(D.DataError):
        D.scan_select([])


def test_scan_select_mixed_subjects_rejected():
    with pytest.raises(D.DataError):
        D.scan_select([rec("a"), rec("b")])


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(6)))
def test_scan_select_is_order_independent(order):
    records = [rec("s", f"ses-{i:02d}", visit=i + 1,
                   rank=(i % 3) if i % 2 else None,
                   preferred=(i == 4)) for i in range(6)]
    shuffled = [records[i] for i in order]
    assert D.scan_select(shuffled) == D.scan_select(records)


# ---------------------------------------------------------------------------
# subject split

def make_subjects(n_ad, n_cn, sessions=1):
    records = []
    for i in range(n_ad + n_cn):
        label = "AD" if i < n_ad else "CN"
        for s in range(sessions):
            records.append(rec(f"sub-{i:04d}", f"ses-{s:02d}", label=label, visit=s + 1))
    return records


def test_split_reproduces_reported_proportions():
    # 180 AD + 214 CN subjects, 25 per class held out -> 155/189 train
    records = make_subjects(180, 214)
    split = D.subject_split(records, test_per_class=25, seed=3)
    assert split.audit["test_counts"] == {"AD": 25, "CN": 25}
    assert split.audit["train_counts"] == {"AD": 155, "CN": 189}
    assert len(split.train_subjects) == 344
    assert split.audit["n_selected"] == 394


def test_split_zero_test_per_class():
    split = D.subject_split(make_subjects(3, 3), test_per_class=0, seed=0)
    assert split.test_subjects == ()
    assert len(split.train_subjects) == 6


def test_split_insufficient_subjects():
    with pytest.raises(D.DataError, match="AD"):
        D.subject_split(make_subjects(2, 9), test_per_class=3, seed=0)


def test_split_multi_session_subjects_stay_on_one_side():
    records = make_subjects(6, 6, sessions=3)
    for seed in range(50):
        split = D.subject_split(records, test_per_class=2, seed=seed)
        assert not set(split.train_subjects) & set(split.test_subjects)
        assert split.audit["violations"] == []
        # every session of a test subject is excluded from the train records
        train_recs, test_recs = D.split_records(records, split)
        train_subjects = {r.subject_id for r in train_recs}
        assert not train_subjects & set(split.test_subjects)


def test_split_adversarial_naive_record_split_would_leak():
    # a record-level 50/50 split of this manifest would place sub-0000's two
    # sessions on both sides; subject_split must keep them together
    records = [rec("sub-0000", "ses-01", visit=1), rec("sub-0000", "ses-02", visit=2),
               rec("sub-0001", "ses-01", label="CN"), rec("sub-0002", "ses-01"),
               rec("sub-0003", "ses-01", label="CN")]
    split = D.subject_split(records, test_per_class=1, seed=11)
    sides = [("train" if "sub-0000" in split.train_subjects else "test")]
    assert len(sides) == 1
    assert split.audit["violations"] == []


def test_split_json_roundtrip():
    split = D.subject_split(make_subjects(4, 4), test_per_class=1, seed=9)
    back = D.SplitSpec.from_json(split.to_json())
    assert back.train_subjects == split.train_subjects
    assert back.test_subjects == split.test_subjects
    assert back.seed == split.seed


def test_split_with_validation_fraction():
    split = D.subject_split(make_subjects(10, 10), test_per_class=2, seed=1,
                            val_per_class=3)
    assert split.audit["val_counts"] == {"AD": 3, "CN": 3}
    assert len(split.train_subjects) == 10
    assert not set(split.val_subjects) & (set(split.train_subjects) | set(split.test_subjects))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 3), st.integers(0, 10_000))
def test_split_disjoint_property(n_ad, n_cn, sessions, seed):
    records = make_subjects(n_ad, n_cn, sessions=sessions)
    split = D.subject_split(records, test_per_class=1, seed=seed)
    assert not set(split.train_subjects) & set(split.test_subjects)
    assert len(split.train_subjects) + len(split.test_subjects) == n_ad + n_cn


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_deterministic_bytes(tmp_path):
    cfg = D.SynthConfig(n_subjects=4, sessions_per_subject=2, extents=(12, 12, 12), seed=5)
    a, b = tmp_path / "a", tmp_path / "b"
    D.synth_generate(a, cfg)
    D.synth_generate(b, cfg)
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def signal_region_mask(extents: tuple[int, int, int]) -> np.ndarray:
    """Voxels of the undeformed class-signal region (the linear-probe oracle's ROI)."""
    _, bump = D._fields(extents, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), slice(None),
                        np.empty((2,) + tuple(extents)))
    return bump > 0.5


def expected_region_means(cfg: D.SynthConfig) -> tuple[float, float, float]:
    """(mean_AD, mean_CN, threshold) over the signal region, computed in
    closed form from the generator fields (no sampling)."""
    base, bump = D._fields(cfg.extents, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), slice(None),
                           np.empty((2,) + cfg.extents))
    mask = bump > 0.5
    mu_base = float(base[mask].mean())
    mu_bump = float(bump[mask].mean())
    mu_ad = mu_base + cfg.atrophy_factor * cfg.signal_amplitude * mu_bump
    mu_cn = mu_base + cfg.signal_amplitude * mu_bump
    return mu_ad, mu_cn, 0.5 * (mu_ad + mu_cn)


def test_synth_zero_amplitude_removes_class_signal(tmp_path):
    cfg = D.SynthConfig(n_subjects=6, sessions_per_subject=1, extents=(12, 12, 12),
                        seed=2, signal_amplitude=0.0)
    D.synth_generate(tmp_path, cfg)
    records = D.read_manifest(tmp_path / D.MANIFEST_NAME)
    mask = signal_region_mask(cfg.extents)
    means = {"AD": [], "CN": []}
    for r in records:
        means[r.label].append(D.load_record_volume(tmp_path, r)[mask].mean())
    # identical generative process: the class means differ only by noise
    assert abs(np.mean(means["AD"]) - np.mean(means["CN"])) < 0.05


def test_synth_linear_probe_oracle_separates_classes(tmp_path):
    cfg = D.SynthConfig(n_subjects=30, sessions_per_subject=1, extents=(32, 32, 32), seed=7)
    D.synth_generate(tmp_path, cfg)
    records = D.read_manifest(tmp_path / D.MANIFEST_NAME)
    mask = signal_region_mask(cfg.extents)
    _, _, threshold = expected_region_means(cfg)
    correct = 0
    for r in records:
        vol = D.load_record_volume(tmp_path, r)
        pred = "CN" if vol[mask].mean() > threshold else "AD"
        correct += pred == r.label
    assert correct / len(records) >= 0.95


def test_synth_sessions_share_subject_deformation(tmp_path):
    cfg = D.SynthConfig(n_subjects=2, sessions_per_subject=2, extents=(16, 16, 16),
                        seed=3, noise_sigma=0.01)
    D.synth_generate(tmp_path, cfg)
    records = D.read_manifest(tmp_path / D.MANIFEST_NAME)
    by_subject = {}
    for r in records:
        by_subject.setdefault(r.subject_id, []).append(D.load_record_volume(tmp_path, r))
    subs = sorted(by_subject)
    same = np.abs(by_subject[subs[0]][0] - by_subject[subs[0]][1]).mean()
    # same-subject sessions differ by noise only; different subjects also
    # differ by deformation, comparing within the same class (subjects 0 and 2
    # are both AD under parity labeling) -- here both subjects, any class:
    cross = np.abs(by_subject[subs[0]][0] - by_subject[subs[1]][0]).mean()
    assert same < cross


def test_synth_extents_minimum(tmp_path):
    with pytest.raises(D.DataError):
        D.synth_generate(tmp_path, D.SynthConfig(extents=(4, 4, 4)))


def _digest(directory) -> str:
    """sha256 over every file of ``directory``: name, a NUL, then the bytes, in name order."""
    h = hashlib.sha256()
    for f in sorted(Path(directory).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# synth --subjects 5 --sessions 3 --extents 17,19,23 --seed 7, as written by
# the one-volume-at-a-time generator before depth slabs and lanes
_SYNTH_DIGEST = "6c5f8aa960fbddc254f49eb719aa7c019c7672e7353803f256bd9e3d683082ea"


@pytest.mark.parametrize("lanes", [1, pytest.param(2, marks=pytest.mark.skipif(
    nn._lanes() < 2, reason="two lanes need OpenBLAS's thread-count setter and two cores"))])
def test_synth_bytes_are_pinned(tmp_path, monkeypatch, lanes):
    """15 scans, an odd count, so the last pair holds one scan: every file's
    bytes are the pinned ones in one lane and in two."""
    monkeypatch.setattr(nn, "_lanes", lambda: lanes)
    D.synth_generate(tmp_path, D.SynthConfig(n_subjects=5, sessions_per_subject=3,
                                             extents=(17, 19, 23), seed=7))
    assert len(list(tmp_path.glob("*.vox"))) == 15
    assert _digest(tmp_path) == _SYNTH_DIGEST


def test_synth_peak_is_two_scans_and_the_slabs(tmp_path):
    """Scans are built in depth slabs into two float32 scan buffers: no
    whole-volume float64 temporaries.  Measured: 2.36 MB, where one scan
    is 0.56 MB and the generator that built whole volumes peaked at 6.16 MB."""
    cfg = D.SynthConfig(n_subjects=5, sessions_per_subject=1, extents=(48, 56, 52), seed=1)
    tracemalloc.start()
    try:
        D.synth_generate(tmp_path, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2.36e6, peak


def test_synth_lane_error_surfaces_and_stops_the_writes(tmp_path, monkeypatch):
    """An error while the 3rd scan is built is raised as itself; the two
    scans before it are written, no later one, and no lane thread is left."""
    boom, build = RuntimeError("third scan"), D.synth_volume

    def failing(cfg, label, subject_rng, session_rng, out, scratch):
        if session_rng.bit_generator.seed_seq.spawn_key == (2, 1):     # sub-0002, ses-01
            raise boom
        build(cfg, label, subject_rng, session_rng, out, scratch)

    monkeypatch.setattr(D, "synth_volume", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        D.synth_generate(tmp_path, D.SynthConfig(n_subjects=6, sessions_per_subject=1,
                                                 extents=(10, 10, 10)))
    assert info.value is boom
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub-0000_ses-01.vox",
                                                         "sub-0001_ses-01.vox"]
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# late-split guard

def test_train_statistics_depend_only_on_train_side(tmp_path):
    from voxformer.train import load_dataset

    cfg = D.SynthConfig(n_subjects=8, sessions_per_subject=1, extents=(12, 12, 12), seed=1)
    D.synth_generate(tmp_path, cfg)
    records = D.read_manifest(tmp_path / D.MANIFEST_NAME)
    split = D.subject_split(records, test_per_class=2, seed=0)
    (tmp_path / D.SPLIT_NAME).write_text(split.to_json())
    ds = load_dataset(tmp_path, split)

    # corrupt every test-side volume on disk; train stats must not move
    for sub in split.test_subjects:
        for r in records:
            if r.subject_id == sub:
                D.write_volume(tmp_path / r.path,
                               np.full(cfg.extents, 1000.0, np.float32))
    ds2 = load_dataset(tmp_path, split)
    assert ds.stats == ds2.stats


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_volumes_names_a_non_finite_voxel(tmp_path, value):
    """A NaN or infinite voxel in any selected scan is a ``DataError``
    naming that scan's file and the voxel, not a statistic or a score."""
    records = [D.VolumeRecord(f"sub-{i}", "ses-1", "AD", f"v{i}.vox") for i in range(3)]
    for i, r in enumerate(records):
        vol = np.full((4, 5, 6), float(i), np.float32)
        if i == 2:
            vol[3, 0, 5] = value
        D.write_volume(tmp_path / r.path, vol)
    assert D.load_volumes(tmp_path, records[:2], "x").shape == (2, 4, 5, 6)
    with pytest.raises(D.DataError) as err:
        D.load_volumes(tmp_path, records, "x")
    assert str(err.value) == (f"{tmp_path / 'v2.vox'}: voxel (3, 0, 5) is {np.float32(value)}, "
                              f"expected a finite value")


def test_load_volumes_reads_each_scan_into_its_slot(tmp_path):
    """The scans are read straight into the array returned: no list of
    scans beside their stack, which peaked at 2x."""
    records = [D.VolumeRecord(f"sub-{i}", "ses-1", "AD", f"v{i}.vox") for i in range(4)]
    for i, r in enumerate(records):
        D.write_volume(tmp_path / r.path, np.full((40, 48, 44), float(i), np.float32))
    tracemalloc.start()
    try:
        vols = D.load_volumes(tmp_path, records, "x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vols.dtype == np.float32 and vols.shape == (4, 40, 48, 44)
    assert (vols == np.arange(4, dtype=np.float32).reshape(4, 1, 1, 1)).all()
    assert peak <= 1.1 * vols.nbytes, peak / vols.nbytes


def test_load_dataset_peak_is_near_what_it_returns(tmp_path):
    """Volumes are read into one array each and normalized in place: no
    float64 or whole-set temporaries beyond the stack and one std pass."""
    from voxformer.train import load_dataset

    cfg = D.SynthConfig(n_subjects=6, sessions_per_subject=1, extents=(40, 48, 44), seed=2)
    D.synth_generate(tmp_path, cfg)
    split = D.subject_split(D.read_manifest(tmp_path / D.MANIFEST_NAME), test_per_class=1,
                            seed=0)
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(ds.train_volumes), len(ds.test_volumes)) == (4, 2)
    assert ds.train_volumes.dtype == ds.test_volumes.dtype == np.float32
    returned = ds.train_volumes.nbytes + ds.test_volumes.nbytes
    assert peak <= 1.8 * returned, peak / returned


def _file_writes(source: str) -> list[tuple[int, str]]:
    """(line, call) of each call in ``source`` that may write a file: an
    ``open`` whose mode is not a read-only literal, or ``write_text`` or
    ``write_bytes``.  The mode is ``open``'s second argument (``io.open``'s,
    ``os.open``'s flags) and a method ``.open``'s first (``Path.open``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            module = isinstance(f, ast.Name) or (isinstance(f.value, ast.Name)
                                                 and f.value.id in ("io", "os", "builtins"))
            pos = 1 if module else 0
            mode = next((k.value for k in node.keywords if k.arg in ("mode", "flags")),
                        node.args[pos] if len(node.args) > pos else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) <= set("rbt")):
                found.append((node.lineno, name))
    return found


def test_every_file_write_goes_through_the_data_helpers():
    """Outside data.py no module opens a file for writing: each write goes
    through ``write_atomic`` or ``append_text``, which name the file on a
    failure and never leave a partial one."""
    assert [line for line, _ in _file_writes(
        "open(p)\nopen(p, 'rb')\np.open()\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\np.open('r+')\nio.open(p, 'x')\n"
        "os.open(p, os.O_WRONLY)\np.write_text(s)\np.write_bytes(b)\n")] == list(range(4, 12))
    src = Path(D.__file__).parent
    writes = {m.name: _file_writes(m.read_text()) for m in sorted(src.glob("*.py"))}
    assert len(writes) > 5 and writes["data.py"]
    assert {name: w for name, w in writes.items() if w and name != "data.py"} == {}


def _identifiers(node: ast.AST) -> Counter:
    """How often ``node`` names each identifier: as a name, an attribute, or
    a string constant (``getattr``, ``mock.patch.object`` and the bench
    tracer name functions by string)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found[n.value] += 1
    return found


def _unnamed_definitions(defining: list[str], naming: list[str]) -> list[str]:
    """Each module-level function or class, and each non-dunder method, of
    the ``defining`` sources that no source (``defining`` or ``naming``)
    names outside the definition itself."""
    trees = [ast.parse(source) for source in defining]
    named = sum((_identifiers(t) for t in trees + [ast.parse(s) for s in naming]), Counter())
    unnamed = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__"))
                       ] if isinstance(node, ast.ClassDef) else []
            unnamed += [d.name for d in [node] + methods
                        if named[d.name] <= _identifiers(d)[d.name]]
    return unnamed


def test_every_definition_is_named_somewhere_else():
    """No function, class or method of the package is dead weight: each is
    named outside its own definition, in the package, the tests or the
    benchmark."""
    assert _unnamed_definitions(
        ["def used():\n    return 1\n"
         "def self_only():\n    return self_only()\n"
         "class C:\n    def m(self):\n        return self.__x__()\n"
         "    def __x__(self):\n        return used()\n"
         "    def by_string(self):\n        pass\n"
         "def orphan():\n    pass\n"],
        ["getattr(C(), 'by_string')\n"]) == ["self_only", "m", "orphan"]
    root = Path(D.__file__).parents[2]
    package = [m.read_text() for m in sorted(Path(D.__file__).parent.glob("*.py"))]
    others = [m.read_text() for d in ("tests", "perfbench") for m in sorted((root / d).glob("*.py"))]
    assert len(package) > 5 and len(others) > 5
    assert _unnamed_definitions(package, others) == []


def _defaulted_parameters(tree: ast.Module):
    """(callee names, function, name, position) for each defaulted parameter
    of the module's functions and methods.  A method's position skips
    ``self``; ``__init__`` is called by its class's name, and by each
    subclass's.  Keyword-only parameters have no position."""
    bases = {c.name: {getattr(b, "id", getattr(b, "attr", None)) for b in c.bases}
             for c in tree.body if isinstance(c, ast.ClassDef)}

    def subclasses(name):
        return {name}.union(*(subclasses(c) for c, b in bases.items() if name in b))

    owners = [(None, f) for f in tree.body] + [
        (c.name, f) for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body]
    for owner, f in owners:
        if not isinstance(f, ast.FunctionDef):
            continue
        label = owner if f.name == "__init__" else f.name
        names = subclasses(owner) if f.name == "__init__" else {f.name}
        static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for i, arg in enumerate(positional[first:], first - (owner is not None and not static)):
            yield names, label, arg.arg, i
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield names, label, arg.arg, None


def _unpassed_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``function(parameter)`` for each defaulted parameter of the
    ``defining`` sources that no call in any source passes, by position or
    by keyword.  A call with ``*args`` passes every positional parameter,
    one with ``**kwargs`` every keyword."""
    trees = [ast.parse(source) for source in defining]
    most, keywords = Counter(), {}       # callee name: most positional arguments, keywords
    for t in trees + [ast.parse(s) for s in calling]:
        for call in (n for n in ast.walk(t) if isinstance(n, ast.Call)):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            most[name] = max(most[name], math.inf if starred else len(call.args))
            # a keyword's arg is None for **kwargs
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unpassed = []
    for tree in trees:
        for names, label, arg, position in _defaulted_parameters(tree):
            if not any(keywords.get(n, set()) & {arg, None}
                       or (position is not None and most[n] > position) for n in names):
                unpassed.append(f"{label}({arg})")
    return unpassed


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no caller overrides is a constant: each defaulted
    parameter of the package is passed, by position or keyword, at some
    call in the package, the tests or the benchmark."""
    assert _unpassed_defaults(
        ["def f(a, b=1, *, c=2, d=3):\n    pass\n"
         "def g(a=1):\n    pass\n"
         "class B:\n    def __init__(self, x=0):\n        pass\n"
         "    def m(self, y=0):\n        pass\n"
         "    @staticmethod\n    def s(z=0):\n        pass\n"
         "class C(B):\n    pass\n"
         "class D:\n    def __init__(self, w=0):\n        pass\n"],
        ["f(0, 1, d=4)\ng(*args)\nC(1)\nobj.m()\nB.s(z=1)\n"]) == ["f(c)", "m(y)", "D(w)"]
    root = Path(D.__file__).parents[2]
    package = [m.read_text() for m in sorted(Path(D.__file__).parent.glob("*.py"))]
    others = [m.read_text() for d in ("tests", "perfbench") for m in sorted((root / d).glob("*.py"))]
    assert len(package) > 5 and len(others) > 5
    assert _unpassed_defaults(package, others) == []
