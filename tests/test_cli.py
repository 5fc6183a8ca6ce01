import errno
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from voxformer import cli
from voxformer import data as D
from voxformer import models as M
from voxformer import train as TR
from voxformer import verify as V
from voxformer.optim import OptimizerError


@pytest.fixture
def dataset(tmp_path):
    """Small split synthetic dataset at 12^3 (big enough for CVVT/VViT)."""
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--subjects", "8",
                     "--sessions", "2", "--extents", "12,12,12", "--seed", "3"]) == 0
    assert cli.main(["split", "--data", str(data_dir), "--test-per-class", "2",
                     "--seed", "0"]) == 0
    return data_dir


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_synth_is_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["synth", "--out", str(out), "--subjects", "4",
                         "--extents", "10", "--seed", "9"]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_seed_env_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("VOXFORMER_SEED", "9")
    assert cli.main(["synth", "--out", str(a), "--subjects", "4", "--extents", "10"]) == 0
    monkeypatch.delenv("VOXFORMER_SEED")
    assert cli.main(["synth", "--out", str(b), "--subjects", "4", "--extents", "10",
                     "--seed", "9"]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_train_without_split_is_data_error(tmp_path):
    data_dir = tmp_path / "data"
    cli.main(["synth", "--out", str(data_dir), "--subjects", "4", "--extents", "12"])
    rc = cli.main(["train", "--model", "cvvt", "--data", str(data_dir),
                   "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert rc == cli.EXIT_DATA


@pytest.mark.parametrize("flag,value", [("--test-per-class", "-1"),
                                        ("--val-per-class", "-2")])
def test_split_negative_count_exits_2_with_one_line(tmp_path, capsys, flag, value):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--subjects", "8",
                     "--extents", "10", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = cli.main(["split", "--data", str(data_dir), flag, value, "--seed", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and flag[2:].replace("-", "_") in err[0] and value in err[0]
    assert not (data_dir / D.SPLIT_NAME).exists()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_batch_zero_exits_2_before_any_output(dataset, tmp_path, capsys, command):
    out = tmp_path / "run"
    capsys.readouterr()
    rc = cli.main([command, "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1", "--batch", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ") and "batch_size" in err[0]
    assert not out.exists()


def _edit_split(text, **sides):
    """The split text with each side given as ``name=edit`` replaced by
    ``edit(split)``."""
    split = json.loads(text)
    split.update({f"{name}_subjects": edit(split) for name, edit in sides.items()})
    return json.dumps(split)


def _shared_subject(split):
    """The test side plus the first train subject."""
    return split["test_subjects"] + split["train_subjects"][:1]


_SPLIT_FAULTS = {       # fault: (what the message names, edit of the split text or None)
    "missing": ("run `voxformer split` first", lambda text: None),
    "no_train_subjects": ("'train_subjects'",
                          lambda text: text.replace('"train_subjects"', '"trains"')),
    "not_json": ("", lambda text: text[:len(text) // 2]),
    "text_side": ("'train_subjects'", lambda text: _edit_split(
        text, train=lambda split: split["train_subjects"][0])),
    "int_side": ("'train_subjects'", lambda text: _edit_split(text, train=lambda split: [2, 3])),
    "null_val_side": ("'val_subjects'", lambda text: _edit_split(text, val=lambda split: None)),
    "shared_subject": ("more than one split side",
                       lambda text: _edit_split(text, test=_shared_subject)),
}


def _save_cvvt_checkpoint(ckpt):
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    M.save_checkpoint(ckpt, M.build_model(cfg, seed=0),
                      {"model_config": M.config_to_dict(cfg), "run": {"seed": 0},
                       "normalization": {"mean": 0.0, "std": 1.0},
                       "labels": list(D.LABELS)})


@pytest.mark.parametrize("command", ["train", "eval", "grid"])
@pytest.mark.parametrize("fault", sorted(_SPLIT_FAULTS))
def test_malformed_split_exits_3_with_one_line(dataset, tmp_path, capsys, command, fault):
    split_path = dataset / D.SPLIT_NAME
    named, edit = _SPLIT_FAULTS[fault]
    text = edit(split_path.read_text())
    if text is None:
        split_path.unlink()
    else:
        split_path.write_text(text)
    out = tmp_path / "run"
    if command in ("train", "grid"):
        argv = [command, "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                "--epochs", "1", *(("--limit", "1") if command == "grid" else ())]
    else:
        _save_cvvt_checkpoint(tmp_path / "m.ckpt")
        argv = ["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--data", str(dataset),
                "--subset", "test"]
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(split_path) in err[0] and named in err[0]
    assert not out.exists()         # no metrics.jsonl, checkpoint or grid.jsonl


@pytest.mark.parametrize("command", ["train", "eval", "grid"])
def test_split_sharing_a_subject_names_it(dataset, tmp_path, capsys, command):
    """A subject on the train and the test side: one line naming the split
    file and the subject, before any output."""
    subject = D.read_split(dataset / D.SPLIT_NAME).train_subjects[0]
    split_path = _split_edited(dataset, "shared_subject")
    argv = _split_reader_argv(command, dataset, tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: {split_path}: subject(s) in more than one split side: "
                   f"[{subject!r}]"], err
    assert not (tmp_path / "run").exists()


def test_eval_batch_zero_exits_2_before_reading_a_volume(dataset, tmp_path, capsys,
                                                        monkeypatch):
    _save_cvvt_checkpoint(tmp_path / "m.ckpt")
    monkeypatch.setattr(D, "read_volume", lambda path: pytest.fail(f"read {path}"))
    capsys.readouterr()
    rc = cli.main(["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--data", str(dataset),
                   "--batch", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: ") and "batch_size" in err[0]


def test_train_extents_mismatch_is_config_error(dataset, tmp_path):
    rc = cli.main(["train", "--model", "cvvt", "--data", str(dataset),
                   "--out", str(tmp_path / "run"), "--epochs", "1",
                   "--extents", "16,16,16"])
    assert rc == cli.EXIT_CONFIG


def test_convnet_underflow_reported_before_compute(dataset, tmp_path):
    # 12^3 underflows even at pool stride 2 -> config error, exit 2
    rc = cli.main(["train", "--model", "convnet3d4", "--data", str(dataset),
                   "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_convnet_pool_stride_below_one_exits_2_naming_it(dataset, tmp_path, capsys, stride):
    capsys.readouterr()
    rc = cli.main(["train", "--model", "convnet3d4", "--data", str(dataset),
                   "--out", str(tmp_path / "run"), "--epochs", "1", "--pool-stride", stride])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and "pool_stride" in err[0] and stride in err[0], err


def test_train_writes_metrics_and_checkpoint(dataset, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["train", "--model", "cvvt", "--size", "tiny", "--data", str(dataset),
                   "--out", str(out), "--epochs", "2", "--lr", "0.0001",
                   "--seed", "1"])
    assert rc == 0
    rows = read_jsonl(out / TR.METRICS_NAME)
    events = [r["event"] for r in rows]
    assert events[0] == "config" and events[1] == "init" and events[-1] == "done"
    assert sum(e == "epoch" for e in events) == 2
    assert (out / TR.CHECKPOINT_NAME).exists()
    # config row reconstructs the run config losslessly
    cfg_row = rows[0]
    assert cfg_row["model"] == "cvvt" and cfg_row["train"]["lr"] == 0.0001


def test_zero_epoch_run_emits_initial_eval_only(dataset, tmp_path):
    out = tmp_path / "run0"
    rc = cli.main(["train", "--model", "cvvt", "--data", str(dataset),
                   "--out", str(out), "--epochs", "0"])
    assert rc == 0
    rows = read_jsonl(out / TR.METRICS_NAME)
    assert [r["event"] for r in rows] == ["config", "init", "done"]
    assert not (out / TR.CHECKPOINT_NAME).exists()


def test_diverging_run_exits_5_and_logs_failed_event(dataset, tmp_path, capsys, recwarn):
    out = tmp_path / "run"
    rc = cli.main(["train", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "2", "--lr", "1e30", "--seed", "0"])
    assert rc == cli.EXIT_DIVERGED == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("training diverged: non-finite gradient for parameter '")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    rows = read_jsonl(out / TR.METRICS_NAME)
    assert [r["event"] for r in rows] == ["config", "init", "failed"]
    assert rows[-1]["epoch"] == 0
    assert rows[-1]["error"].startswith("OptimizerError: non-finite gradient for parameter '")


def test_train_determinism_byte_identical(dataset, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli.main(["train", "--model", "cvvt", "--data", str(dataset),
                       "--out", str(out), "--epochs", "2", "--lr", "0.0001",
                       "--seed", "7"])
        assert rc == 0
        outs.append(out)
    m1 = (outs[0] / TR.METRICS_NAME).read_bytes()
    m2 = (outs[1] / TR.METRICS_NAME).read_bytes()
    assert m1 == m2
    c1 = (outs[0] / TR.CHECKPOINT_NAME).read_bytes()
    c2 = (outs[1] / TR.CHECKPOINT_NAME).read_bytes()
    assert c1 == c2


def test_eval_constant_predictor_scores_half_on_25_25_test(tmp_path, capsys):
    # 25 + 25 balanced held-out subjects; a constant-class predictor (zeroed
    # head: identical logits, argmax picks class 0) must score exactly 0.5
    data_dir = tmp_path / "data"
    cli.main(["synth", "--out", str(data_dir), "--subjects", "50", "--sessions", "1",
              "--extents", "12,12,12", "--seed", "4"])
    cli.main(["split", "--data", str(data_dir), "--test-per-class", "25", "--seed", "0"])
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    model = M.build_model(cfg, seed=0)
    for name, t in model.named_tensors():
        if name.startswith("core.head"):
            t.data[:] = 0.0
    ckpt = tmp_path / "const.ckpt"
    M.save_checkpoint(ckpt, model, {"model_config": M.config_to_dict(cfg),
                                    "run": {"seed": 0},
                                    "normalization": {"mean": 0.0, "std": 1.0},
                                    "labels": list(D.LABELS)})
    capsys.readouterr()
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["n"] == 50
    assert report["accuracy"] == 0.5
    assert report["confusion"]["AD"]["AD"] == 25
    assert report["confusion"]["CN"]["AD"] == 25
    assert report["confusion"]["AD"]["CN"] + report["confusion"]["CN"]["CN"] == 0


def test_eval_twice_identical(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    cli.main(["train", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
              "--epochs", "1", "--lr", "0.0001"])
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        rc = cli.main(["eval", "--ckpt", str(out / TR.CHECKPOINT_NAME),
                       "--data", str(dataset)])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_extent_mismatch_is_config_error(dataset, tmp_path):
    cfg = M.build_config("cvvt", "tiny", extents=(16, 16, 16))
    model = M.build_model(cfg, seed=0)
    ckpt = tmp_path / "mis.ckpt"
    M.save_checkpoint(ckpt, model, {"model_config": M.config_to_dict(cfg),
                                    "run": {"seed": 0},
                                    "normalization": {"mean": 0.0, "std": 1.0},
                                    "labels": list(D.LABELS)})
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(dataset)])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("damage", ["cut_12", "cut_40", "cut_400", "manifest_length_1e12",
                                    "cut_payload", "bad_magic"])
def test_eval_bad_checkpoint_exits_3_with_one_line(tmp_path, capsys, damage):
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    ckpt = tmp_path / "bad.ckpt"
    M.save_checkpoint(ckpt, M.build_model(cfg, seed=0),
                      {"model_config": M.config_to_dict(cfg), "run": {"seed": 0},
                       "normalization": {"mean": 0.0, "std": 1.0},
                       "labels": list(D.LABELS)})
    blob = ckpt.read_bytes()
    ckpt.write_bytes({"cut_12": blob[:12], "cut_40": blob[:40], "cut_400": blob[:400],
                      "manifest_length_1e12": blob[:8] + (10 ** 12).to_bytes(8, "little")
                      + blob[16:],
                      "cut_payload": blob[:-100],
                      "bad_magic": b"X" + blob[1:]}[damage])
    capsys.readouterr()
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: ") and str(ckpt) in err[0]


def _edit_manifest(ckpt, edit):
    blob = ckpt.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    manifest = json.loads(blob[16:16 + n])
    edit(manifest)
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n:])


_MANIFEST_FAULTS = {
    "unknown_size": ("'model_config'", lambda m: m["config"]["model_config"].update(size="tinz")),
    "unknown_model": ("'model_config'", lambda m: m["config"]["model_config"].update(model="resnet")),
    "two_extents": ("'model_config'", lambda m: m["config"]["model_config"].update(extents=[12, 12])),
    "renamed_tensor": ("'renamed'", lambda m: m["tensors"][0].update(name="renamed")),
    "reshaped_tensor": ("'stages.0.weight'",
                        lambda m: m["tensors"][0].update(shape=[m["tensors"][0]["nbytes"] // 4])),
    "no_seed": ("'run.seed'", lambda m: m["config"]["run"].pop("seed")),
    "no_normalization": ("'normalization'", lambda m: m["config"].pop("normalization")),
    "text_std": ("'normalization.std'", lambda m: m["config"]["normalization"].update(std="1")),
    "three_classes": ("'num_classes'",
                      lambda m: m["config"]["model_config"].update(num_classes=3)),
    "model_config_list": ("'model_config'",
                          lambda m: m["config"].update(model_config=[])),
    "float_extent": ("'extents'",
                     lambda m: m["config"]["model_config"].update(extents=[12.5, 12, 12])),
    "text_extent": ("'extents'",
                    lambda m: m["config"]["model_config"].update(extents=["12", 12, 12])),
    "zero_std": ("'normalization.std'", lambda m: m["config"]["normalization"].update(std=0)),
    "nan_std": ("'normalization.std'",
                lambda m: m["config"]["normalization"].update(std=float("nan"))),
    "negative_std": ("'normalization.std'",
                     lambda m: m["config"]["normalization"].update(std=-1)),
    "float_pool_stride": ("'pool_stride'",
                          lambda m: m["config"]["model_config"].update(pool_stride=2.6)),
}
# the model a fault's checkpoint holds when it is not the 12^3 CVVT-tiny
_FAULT_CONFIGS = {"float_pool_stride": M.build_config("convnet3d4", extents=(32, 32, 32),
                                                      pool_stride=2)}


@pytest.mark.parametrize("fault", sorted(_MANIFEST_FAULTS))
def test_eval_checkpoint_config_fault_exits_3_with_one_line(dataset, tmp_path, capsys, fault):
    # the file reads, but its manifest does not describe a model that fits it
    cfg = _FAULT_CONFIGS.get(fault, M.build_config("cvvt", "tiny", extents=(12, 12, 12)))
    ckpt = tmp_path / "edited.ckpt"
    M.save_checkpoint(ckpt, M.build_model(cfg, seed=0),
                      {"model_config": M.config_to_dict(cfg), "run": {"seed": 0},
                       "normalization": {"mean": 0.0, "std": 1.0},
                       "labels": list(D.LABELS)})
    named, edit = _MANIFEST_FAULTS[fault]
    _edit_manifest(ckpt, edit)
    capsys.readouterr()
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(dataset)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(ckpt) in err[0] and named in err[0]


def test_verify_fast_suites_pass(capsys):
    assert cli.main(["verify", "--suite", "params"]) == 0
    assert cli.main(["verify", "--suite", "shapes"]) == 0
    assert cli.main(["verify", "--suite", "norms"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_writes_report(tmp_path):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "shapes", "--out", str(report)]) == 0
    rows = json.loads(report.read_text())
    assert all(r["passed"] for r in rows)


def test_grid_limit_one_runs_first_enumeration_element(dataset, tmp_path, capsys):
    out = tmp_path / "grid"
    out.mkdir()
    (out / "grid.jsonl").write_text('{"index": 7}\n')     # an earlier grid's row is replaced
    rc = cli.main(["grid", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1", "--limit", "1", "--seed", "0"])
    assert rc == 0
    rows = read_jsonl(out / "grid.jsonl")
    assert len(rows) == 1
    cfg = rows[0]["config"]["train"]
    assert (cfg["lr"], cfg["weight_decay"], cfg["step_size"], cfg["gamma"]) == \
        (0.01, 0.001, 25, 0.3)
    assert rows[0]["status"] == "ok"


def test_grid_rows_are_reconstructible_and_ranked(dataset, tmp_path):
    out = tmp_path / "grid"
    rc = cli.main(["grid", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1", "--limit", "3", "--seed", "0"])
    assert rc == 0
    rows = read_jsonl(out / "grid.jsonl")
    assert len(rows) == 3
    accs = [r["best_test_acc"] for r in rows]
    assert accs == sorted(accs, reverse=True)
    for row in rows:
        # the row alone holds the full provenance: model, seed, grid point
        run = row["config"]
        assert {"model", "size", "norm", "train", "seed"} <= set(run)
        from voxformer.optim import TrainConfig
        TrainConfig(**run["train"])     # reconstructs without error


def test_grid_records_only_diverged_runs_as_failed(dataset, tmp_path, monkeypatch):
    argv = ["grid", "--model", "cvvt", "--data", str(dataset), "--out", str(tmp_path / "grid"),
            "--epochs", "1", "--limit", "2"]

    def diverge(run, data_dir, out_dir):
        raise OptimizerError("non-finite gradient for parameter 'head.weight'")

    monkeypatch.setattr(TR, "run_training", diverge)
    assert cli.main(argv) == 0
    rows = read_jsonl(tmp_path / "grid" / "grid.jsonl")
    assert [r["status"] for r in rows] == ["failed", "failed"]
    assert "head.weight" in rows[0]["error"]
    monkeypatch.setattr(TR, "run_training", lambda run, data_dir, out_dir: 1 / 0)
    with pytest.raises(ZeroDivisionError):      # a bug is not a failed grid point
        cli.main(argv)


def test_grid_keeps_rows_of_runs_before_a_crash(dataset, tmp_path, monkeypatch):
    out = tmp_path / "grid"
    real = TR.run_training

    def crash_third(run, data_dir, out_dir):
        if out_dir.name == "run_002":
            raise RuntimeError("killed")
        return real(run, data_dir, out_dir)

    monkeypatch.setattr(TR, "run_training", crash_third)
    with pytest.raises(RuntimeError):
        cli.main(["grid", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                  "--epochs", "0", "--limit", "4", "--seed", "0"])
    rows = read_jsonl(out / "grid.jsonl")
    assert [(r["index"], r["status"]) for r in rows] == [(0, "ok"), (1, "ok")]


class _FullDiskFile:
    """A file that fails every write the way a full disk does."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("appends_before", [0, 2], ids=["config_row", "epoch_row"])
def test_train_metrics_append_on_full_disk_exits_3_naming_the_file(dataset, tmp_path,
                                                                   monkeypatch, capsys,
                                                                   appends_before):
    appended = []

    def full_disk_open(file, *a, **k):
        f = open(file, *a, **k)
        if Path(file).name != TR.METRICS_NAME:
            return f
        appended.append(file)
        return _FullDiskFile(f) if len(appended) > appends_before else f

    monkeypatch.setattr(D, "open", full_disk_open, raising=False)
    out = tmp_path / "run"
    capsys.readouterr()
    rc = cli.main(["train", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert str(out / TR.METRICS_NAME) in err[0] and "No space left on device" in err[0]
    assert len(read_jsonl(out / TR.METRICS_NAME)) == appends_before


@pytest.mark.parametrize("rows_before", [0, 1], ids=["first_row", "second_row"])
def test_grid_row_append_on_full_disk_exits_3_naming_the_file(dataset, tmp_path, monkeypatch,
                                                              capsys, rows_before):
    appended = []

    def full_disk_open(file, *a, **k):
        f = open(file, *a, **k)
        if Path(file).name != "grid.jsonl":
            return f
        appended.append(file)
        return _FullDiskFile(f) if len(appended) > rows_before else f

    monkeypatch.setattr(D, "open", full_disk_open, raising=False)
    out = tmp_path / "grid"
    capsys.readouterr()
    rc = cli.main(["grid", "--model", "cvvt", "--data", str(dataset), "--out", str(out),
                   "--epochs", "0", "--limit", "3", "--seed", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert str(out / "grid.jsonl") in err[0] and "No space left on device" in err[0]
    assert [r["index"] for r in read_jsonl(out / "grid.jsonl")] == list(range(rows_before))


class _HalfWrittenFile(_FullDiskFile):
    """A file whose first write stores half its bytes, then fills the disk."""

    def write(self, b):
        self.f.write(bytes(b)[:len(b) // 2])
        super().write(b)


@pytest.mark.parametrize("k", [1, 3])
def test_synth_volume_write_on_full_disk_leaves_no_partial_file(tmp_path, monkeypatch,
                                                                 capsys, k):
    """The k-th volume file fills the disk part-way through: synth exits 3
    with one line naming that volume, and no partial .vox or .tmp is left."""
    volumes = []

    def full_disk_open(file, *a, **kw):
        f = open(file, *a, **kw)
        if ".vox" not in Path(file).name:
            return f
        volumes.append(Path(file))
        return _HalfWrittenFile(f) if len(volumes) == k else f

    monkeypatch.setattr(D, "open", full_disk_open, raising=False)
    out = tmp_path / "data"
    capsys.readouterr()
    rc = cli.main(["synth", "--out", str(out), "--subjects", "4", "--extents", "10"])
    err = capsys.readouterr().err.strip().splitlines()
    failed = volumes[k - 1].with_suffix("")            # name.vox.tmp -> name.vox
    assert rc == cli.EXIT_DATA and len(volumes) == k
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert str(failed) in err[0] and "No space left on device" in err[0]
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(v.with_suffix("").name for v in volumes[:k - 1])
    for name in written:
        assert D.read_volume(out / name).shape == (10, 10, 10)


# ---------------------------------------------------------------------------
# exit-code table: each subcommand, each failure class it can raise

def _command(argv):
    """Run one CLI subcommand without ``main``'s mapping of errors to exit codes."""
    args = cli.build_parser().parse_args(argv)
    return cli.COMMANDS[args.command](args)


def _run_argv(command, data, out, *extra):
    return [command, "--model", "cvvt", "--data", str(data), "--out", str(out),
            "--epochs", "1", *extra]


def _truncate_a_volume(data):
    record = D.read_manifest(data / D.MANIFEST_NAME)[0]
    path = data / record.path
    path.write_bytes(path.read_bytes()[:-4])


def _eval_argv(data, ckpt, *extra):
    _save_cvvt_checkpoint(ckpt)
    return ["eval", "--ckpt", str(ckpt), "--data", str(data), *extra]


def _repeated_name_argv(data, ckpt):
    """``eval`` of a CVVT checkpoint whose manifest adds a second
    ``token_embed.bias`` entry over the bytes of an equal-sized gamma."""
    _save_cvvt_checkpoint(ckpt)
    blob = ckpt.read_bytes()
    n = struct.unpack("<Q", blob[8:16])[0]
    manifest = json.loads(blob[16:16 + n])
    gamma = next(e for e in manifest["tensors"]
                 if e["name"] == "core.encoder.blocks.0.norm1.gamma")
    manifest["tensors"].append({**gamma, "name": "token_embed.bias"})
    edited = json.dumps(manifest).encode()
    ckpt.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + n:])
    return ["eval", "--ckpt", str(ckpt), "--data", str(data)]


def _non_utf8_manifest(data):
    """Append a line that is not UTF-8 to the manifest; returns ``data``."""
    with open(data / D.MANIFEST_NAME, "ab") as f:
        f.write(b"\xff\xfe\n")
    return data


def _failing_suite(monkeypatch):
    monkeypatch.setitem(V.SUITES, "shapes",
                        lambda: [V.CheckResult("shapes.injected", False, "forced")])
    return ["verify", "--suite", "shapes"]


def _a_file(tmp):
    (tmp / "file").write_text("")
    return tmp / "file"


def _odd_volume(data):
    """Give the last selected train scan other extents; returns its file."""
    split = D.read_split(data / D.SPLIT_NAME)
    train, _ = D.split_records(D.read_manifest(data / D.MANIFEST_NAME), split)
    D.write_volume(data / train[-1].path, np.zeros((12, 12, 13), np.float32))
    return data / train[-1].path


def _odd_test_side(data):
    """Give every selected test scan other extents; returns the first one's file."""
    split = D.read_split(data / D.SPLIT_NAME)
    _, test = D.split_records(D.read_manifest(data / D.MANIFEST_NAME), split)
    for r in test:
        D.write_volume(data / r.path, np.zeros((12, 12, 13), np.float32))
    return data / test[0].path


def _empty_side(data, side):
    """Make the split select no subject on one side; returns the split file."""
    path = data / D.SPLIT_NAME
    split = json.loads(path.read_text())
    split[f"{side}_subjects"] = []
    path.write_text(json.dumps(split))
    return path


def _empty_manifest(data):
    (data / D.MANIFEST_NAME).write_text("")
    return data / D.MANIFEST_NAME


def _non_finite_voxel(data, side, value):
    """Set one voxel of the first selected scan of a split side to
    ``value``; returns its file."""
    sides = D.split_records(D.read_manifest(data / D.MANIFEST_NAME),
                            D.read_split(data / D.SPLIT_NAME))
    path = data / sides[side == "test"][0].path
    vol = D.read_volume(path)
    vol[1, 2, 3] = value
    D.write_volume(path, vol)
    return path


# fault: (edit of the dataset that returns the file the error must name,
# argv built from (dataset, tmp_path))
_SELECTION_FAULTS = {
    "odd_volume": (_odd_volume, lambda d, t: _run_argv("train", d, t / "run")),
    "odd_test_side": (_odd_test_side, lambda d, t: _run_argv("train", d, t / "run")),
    "no_train_scan": (lambda d: _empty_side(d, "train"),
                      lambda d, t: _run_argv("train", d, t / "run")),
    "empty_manifest": (_empty_manifest,
                       lambda d, t: _run_argv("train", d, t / "run", "--extents", "12")),
    "eval_odd_volume": (_odd_volume,
                        lambda d, t: _eval_argv(d, t / "m.ckpt", "--subset", "all")),
    "eval_empty_subset": (lambda d: _empty_side(d, "test"),
                          lambda d, t: _eval_argv(d, t / "m.ckpt", "--subset", "test")),
    "inf_train_voxel": (lambda d: _non_finite_voxel(d, "train", np.inf),
                        lambda d, t: _run_argv("train", d, t / "run")),
    "nan_test_voxel": (lambda d: _non_finite_voxel(d, "test", np.nan),
                       lambda d, t: _run_argv("train", d, t / "run")),
    "eval_nan_voxel": (lambda d: _non_finite_voxel(d, "test", np.nan),
                       lambda d, t: _eval_argv(d, t / "m.ckpt", "--subset", "all")),
    "grid_inf_voxel": (lambda d: _non_finite_voxel(d, "train", -np.inf),
                       lambda d, t: _run_argv("grid", d, t / "run", "--limit", "1")),
}


# fault: (edit of manifest line 2, the field its one stderr line names); line
# 1 is the same subject's other session and gets quality rank 1
_MANIFEST_ROW_FAULTS = {
    "text-rank": ({"quality_rank": "2"}, "quality_rank"),
    "int-subject": ({"subject_id": 7}, "subject_id"),
    "text-preferred": ({"preferred": "no"}, "preferred"),
    "int-path": ({"path": 5}, "path"),
    "unknown-label": ({"label": "XX"}, "label"),
}


def _split_with_bad_row(data, fault):
    """``split`` argv over ``data`` once its manifest holds the fault's row."""
    path = data / D.MANIFEST_NAME
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["quality_rank"] = 1
    rows[1].update(_MANIFEST_ROW_FAULTS[fault][0])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return ["split", "--data", str(data), "--test-per-class", "2"]


def _split_reader_argv(command, data, tmp):
    """argv of a command that reads the split: ``train``, a one-run
    ``grid``, or ``eval`` of the test side."""
    if command == "eval":
        return _eval_argv(data, tmp / "m.ckpt", "--subset", "test")
    return _run_argv(command, data, tmp / "run", *(("--limit", "1") if command == "grid" else ()))


def _split_edited(data, fault):
    """Apply a ``_SPLIT_FAULTS`` edit to the split file; returns the file."""
    path = data / D.SPLIT_NAME
    path.write_text(_SPLIT_FAULTS[fault][1](path.read_text()))
    return path


def _selection_argv(fault):
    edit, make_argv = _SELECTION_FAULTS[fault]
    return lambda d, t, m: edit(d) and make_argv(d, t)


# case: (raised class, exit code, argv built from (dataset, tmp_path, monkeypatch)).
# A class of None means the command returns the code without raising.
_EXIT_TABLE = {
    "synth-ConfigError": (cli.ConfigError, 2, lambda d, t, m: [
        "synth", "--out", str(t / "s"), "--extents", "0"]),
    "synth-DataError": (D.DataError, 3, lambda d, t, m: [
        "synth", "--out", str(t / "s"), "--extents", "4"]),
    "synth-OSError": (OSError, 3, lambda d, t, m: [
        "synth", "--out", str(_a_file(t) / "s"), "--extents", "8"]),
    "split-ValueError": (ValueError, 2, lambda d, t, m: [
        "split", "--data", str(d), "--test-per-class", "-1"]),
    "split-DataError": (D.DataError, 3, lambda d, t, m: [
        "split", "--data", str(d), "--test-per-class", "9"]),
    "split-OSError": (OSError, 3, lambda d, t, m: ["split", "--data", str(t / "none")]),
    "train-ConfigError": (cli.ConfigError, 2, lambda d, t, m: _run_argv(
        "train", d, t / "run", "--extents", "16")),
    "train-ValueError": (ValueError, 2, lambda d, t, m: _run_argv(
        "train", d, t / "run", "--batch", "0")),
    "train-ShapeError": (M.ShapeUnderflowError, 2, lambda d, t, m: _run_argv(
        "train", d, t / "run", "--model", "convnet3d4")),
    "train-DataError": (D.DataError, 3, lambda d, t, m: _run_argv(
        "train", (d / D.SPLIT_NAME).unlink() or d, t / "run")),
    "train-VolumeFormatError": (D.VolumeFormatError, 3, lambda d, t, m: _run_argv(
        "train", _truncate_a_volume(d) or d, t / "run")),
    "train-OSError": (OSError, 3, lambda d, t, m: _run_argv("train", d, _a_file(t) / "run")),
    "train-DataError-odd-volume": (D.DataError, 3, _selection_argv("odd_volume")),
    "train-DataError-odd-test-side": (D.DataError, 3, _selection_argv("odd_test_side")),
    "train-DataError-no-train-scan": (D.DataError, 3, _selection_argv("no_train_scan")),
    "train-DataError-extents-empty-manifest": (D.DataError, 3,
                                               _selection_argv("empty_manifest")),
    "train-DataError-inf-train-voxel": (D.DataError, 3, _selection_argv("inf_train_voxel")),
    "train-DataError-nan-test-voxel": (D.DataError, 3, _selection_argv("nan_test_voxel")),
    "train-OptimizerError": (OptimizerError, 5, lambda d, t, m: _run_argv(
        "train", d, t / "run", "--lr", "1e30", "--seed", "0")),
    "eval-ConfigError": (cli.ConfigError, 2, lambda d, t, m: _eval_argv(
        d, t / "m.ckpt", "--batch", "0")),
    "eval-DataError": (D.DataError, 3, lambda d, t, m: _eval_argv(
        (d / D.SPLIT_NAME).unlink() or d, t / "m.ckpt")),
    "eval-VolumeFormatError": (D.VolumeFormatError, 3, lambda d, t, m: _eval_argv(
        _truncate_a_volume(d) or d, t / "m.ckpt", "--subset", "all")),
    "eval-CheckpointFormatError": (M.CheckpointFormatError, 3, lambda d, t, m: [
        "eval", "--ckpt", str(_a_file(t)), "--data", str(d)]),
    "eval-CheckpointFormatError-repeated-name": (M.CheckpointFormatError, 3, lambda d, t, m:
                                                 _repeated_name_argv(d, t / "m.ckpt")),
    "eval-DataError-odd-volume": (D.DataError, 3, _selection_argv("eval_odd_volume")),
    "eval-DataError-empty-subset": (D.DataError, 3, _selection_argv("eval_empty_subset")),
    "eval-DataError-nan-voxel": (D.DataError, 3, _selection_argv("eval_nan_voxel")),
    "eval-OSError": (OSError, 3, lambda d, t, m: [
        "eval", "--ckpt", str(t / "none.ckpt"), "--data", str(d)]),
    "verify-failed": (None, 4, lambda d, t, m: _failing_suite(m)),
    "verify-OSError": (OSError, 3, lambda d, t, m: [
        "verify", "--suite", "shapes", "--out", str(t / "none" / "report.json")]),
    "grid-ValueError": (ValueError, 2, lambda d, t, m: _run_argv(
        "grid", d, t / "grid", "--batch", "0")),
    "grid-DataError": (D.DataError, 3, lambda d, t, m: _run_argv(
        "grid", (d / D.SPLIT_NAME).unlink() or d, t / "grid")),
    "grid-VolumeFormatError": (D.VolumeFormatError, 3, lambda d, t, m: _run_argv(
        "grid", _truncate_a_volume(d) or d, t / "grid", "--limit", "1")),
    "grid-OSError": (OSError, 3, lambda d, t, m: _run_argv("grid", d, _a_file(t) / "grid")),
    "grid-DataError-inf-voxel": (D.DataError, 3, _selection_argv("grid_inf_voxel")),
}

# case: (raised class, subcommand, flags after _run_argv's, the parameter its
# one stderr line names); each exits 2 before a run directory is made
_BAD_TRAINING_NUMBERS = {
    "train-ValueError-epochs": (ValueError, "train", ("--epochs", "-1"), "total_epochs"),
    "train-ValueError-lr": (ValueError, "train", ("--lr", "-1"), "lr"),
    "train-ValueError-lr-nan": (ValueError, "train", ("--lr", "nan"), "lr"),
    "train-ValueError-wd": (ValueError, "train", ("--wd", "-1"), "weight_decay"),
    "train-ValueError-gamma": (ValueError, "train", ("--gamma", "-1"), "gamma"),
    "train-ValueError-gamma-nan": (ValueError, "train", ("--gamma", "nan"), "gamma"),
    "train-ValueError-target-acc-nan": (ValueError, "train", ("--target-acc", "nan"),
                                        "target_accuracy"),
    "train-ValueError-target-acc-above-1": (ValueError, "train", ("--target-acc", "7"),
                                            "target_accuracy"),
    "train-ValueError-target-acc-negative": (ValueError, "train", ("--target-acc", "-1"),
                                             "target_accuracy"),
    "grid-ValueError-epochs": (ValueError, "grid", ("--epochs", "-1"), "total_epochs"),
    "grid-ConfigError-limit": (cli.ConfigError, "grid", ("--limit", "-1"), "--limit"),
    "grid-ConfigError-threads": (cli.ConfigError, "grid", ("--threads", "0"), "--threads"),
}
_EXIT_TABLE.update({
    case: (raised, 2, lambda d, t, m, c=command, e=extra: _run_argv(c, d, t / "run", *e))
    for case, (raised, command, extra, _) in _BAD_TRAINING_NUMBERS.items()})

# case: (synth flags, the parameter its one stderr line names); each exits 2
# before the out directory is made
_BAD_SYNTH_NUMBERS = {
    "subjects-negative": (("--subjects", "-1"), "n_subjects"),
    "subjects-zero": (("--subjects", "0"), "n_subjects"),
    "sessions-negative": (("--sessions", "-2"), "sessions_per_subject"),
    "sessions-zero": (("--sessions", "0"), "sessions_per_subject"),
    "noise-nan": (("--noise", "nan"), "noise_sigma"),
    "noise-negative": (("--noise", "-1"), "noise_sigma"),
    "amplitude-nan": (("--amplitude", "nan"), "signal_amplitude"),
    "amplitude-inf": (("--amplitude", "inf"), "signal_amplitude"),
}
_EXIT_TABLE.update({
    f"synth-ValueError-{case}": (ValueError, 2, lambda d, t, m, e=extra: [
        "synth", "--out", str(t / "s"), "--extents", "8", *e])
    for case, (extra, _) in _BAD_SYNTH_NUMBERS.items()})

# case: (argv built from (dataset, tmp_path, monkeypatch), the seed's source
# and value that its one stderr line names, the path built from (dataset,
# tmp_path) that the command must not make); each exits 2 before writing
_BAD_SEEDS = {
    "synth-ConfigError-seed": (lambda d, t, m: [
        "synth", "--out", str(t / "s"), "--extents", "8", "--seed", "-1"],
        "--seed", -1, lambda d, t: t / "s"),
    "split-ConfigError-seed": (lambda d, t, m: [
        "split", "--data", str((d / D.SPLIT_NAME).unlink() or d), "--test-per-class", "2",
        "--seed", "-1"], "--seed", -1, lambda d, t: d / D.SPLIT_NAME),
    "train-ConfigError-seed": (lambda d, t, m: _run_argv("train", d, t / "run", "--seed", "-5"),
                               "--seed", -5, lambda d, t: t / "run"),
    "grid-ConfigError-seed": (lambda d, t, m: _run_argv("grid", d, t / "run", "--seed", "-1"),
                              "--seed", -1, lambda d, t: t / "run"),
    "synth-ConfigError-seed-env": (lambda d, t, m: m.setenv("VOXFORMER_SEED", "-1") or [
        "synth", "--out", str(t / "s"), "--extents", "8"],
        "VOXFORMER_SEED", -1, lambda d, t: t / "s"),
    "train-ConfigError-seed-env": (lambda d, t, m: m.setenv("VOXFORMER_SEED", "-1")
                                   or _run_argv("train", d, t / "run"),
                                   "VOXFORMER_SEED", -1, lambda d, t: t / "run"),
}
_EXIT_TABLE.update({case: (cli.ConfigError, 2, make_argv)
                    for case, (make_argv, *_) in _BAD_SEEDS.items()})

_EXIT_TABLE.update({f"split-DataError-{fault}": (D.DataError, 3, lambda d, t, m, f=fault:
                                                   _split_with_bad_row(d, f))
                    for fault in _MANIFEST_ROW_FAULTS})

# a split that puts a subject on two sides, under train, grid and eval of the test side
_EXIT_TABLE.update({f"{command}-DataError-shared-subject": (
    D.DataError, 3, lambda d, t, m, c=command: _split_edited(d, "shared_subject")
    and _split_reader_argv(c, d, t)) for command in ("train", "grid", "eval")})

# a manifest with a line that is not UTF-8, under every command that reads it
_EXIT_TABLE.update({
    "split-DataError-manifest-not-utf8": (D.DataError, 3, lambda d, t, m: [
        "split", "--data", str(_non_utf8_manifest(d))]),
    "train-DataError-manifest-not-utf8": (D.DataError, 3, lambda d, t, m: _run_argv(
        "train", _non_utf8_manifest(d), t / "run")),
    "grid-DataError-manifest-not-utf8": (D.DataError, 3, lambda d, t, m: _run_argv(
        "grid", _non_utf8_manifest(d), t / "grid", "--limit", "1")),
    "eval-DataError-manifest-not-utf8": (D.DataError, 3, lambda d, t, m: _eval_argv(
        _non_utf8_manifest(d), t / "m.ckpt")),
})

_EXIT_TABLE["synth-DataError-extents-above-vox1-limit"] = (D.DataError, 3, lambda d, t, m: [
    "synth", "--out", str(t / "s"), "--extents", "1700"])


@pytest.mark.parametrize("case", sorted(_EXIT_TABLE))
def test_exit_code_table(dataset, tmp_path, monkeypatch, capsys, case):
    """The fault raises its class, and ``main`` maps the class to its
    documented exit code with one stderr line and no traceback."""
    raised, code, make_argv = _EXIT_TABLE[case]
    argv = make_argv(dataset, tmp_path, monkeypatch)
    if raised is None:
        assert _command(argv) == code
    else:
        with pytest.raises(raised) as err:
            _command(argv)
        # the class itself, not a subclass that maps elsewhere
        assert raised is OSError or type(err.value) is raised, type(err.value)
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    if argv[0] == "grid":       # each fault comes before the first row: no <out>
        assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("case", sorted(_BAD_TRAINING_NUMBERS))
def test_bad_training_number_names_the_parameter(dataset, tmp_path, capsys, case):
    _, command, extra, name = _BAD_TRAINING_NUMBERS[case]
    assert cli.main(_run_argv(command, dataset, tmp_path / "run", *extra)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {name} must be "), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", sorted(_BAD_SYNTH_NUMBERS))
def test_bad_synth_number_names_the_parameter(tmp_path, capsys, case):
    extra, name = _BAD_SYNTH_NUMBERS[case]
    out = tmp_path / "s"
    assert cli.main(["synth", "--out", str(out), "--extents", "8", *extra]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {name} must be "), err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_BAD_SEEDS))
def test_negative_seed_names_its_source(dataset, tmp_path, monkeypatch, capsys, case):
    make_argv, name, value, made = _BAD_SEEDS[case]
    argv = make_argv(dataset, tmp_path, monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {name} must be >= 0, got {value}"], err
    assert not made(dataset, tmp_path).exists()


def test_synth_extents_above_the_vox1_limit_exit_3_naming_them(tmp_path, capsys):
    """1700^3 is 4.9e9 voxels, more than a VOX1 file may hold (2^32, the
    reader's limit): one line naming the extents and the limit, no out
    directory."""
    out = tmp_path / "s"
    assert cli.main(["synth", "--out", str(out), "--extents", "1700"]) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "(1700, 1700, 1700)" in err[0] and str(2 ** 32) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("fault", sorted(_MANIFEST_ROW_FAULTS))
def test_bad_manifest_row_names_the_line_and_the_field(dataset, capsys, fault):
    argv = _split_with_bad_row(dataset, fault)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    field = _MANIFEST_ROW_FAULTS[fault][1]
    assert len(err) == 1, err
    assert err[0].startswith(f"data error: {dataset / D.MANIFEST_NAME}:2: bad manifest row: "
                             f"{field} must be "), err


@pytest.mark.parametrize("fault", sorted(_SELECTION_FAULTS))
def test_bad_scan_selection_names_the_file(dataset, tmp_path, capsys, fault):
    edit, make_argv = _SELECTION_FAULTS[fault]
    named = edit(dataset)
    argv = make_argv(dataset, tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(named) in err[0], err
    assert not (tmp_path / "run").exists()


def test_empty_test_side_still_trains(dataset, tmp_path):
    _empty_side(dataset, "test")
    rc = cli.main(_run_argv("train", dataset, tmp_path / "run"))
    assert rc == cli.EXIT_OK
    rows = read_jsonl(tmp_path / "run" / TR.METRICS_NAME)
    assert [r["event"] for r in rows] == ["config", "init", "epoch", "done"]


@pytest.mark.slow
def test_grid_parallel_matches_sequential(dataset, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    for out, threads in ((seq, "1"), (par, "2")):
        rc = cli.main(["grid", "--model", "cvvt", "--data", str(dataset),
                       "--out", str(out), "--epochs", "1", "--limit", "2",
                       "--threads", threads, "--seed", "0"])
        assert rc == 0
    assert (seq / "grid.jsonl").read_bytes() == (par / "grid.jsonl").read_bytes()


def test_full_grid_enumeration_count():
    from voxformer.optim import grid_enumerate
    assert len(grid_enumerate()) == 54
