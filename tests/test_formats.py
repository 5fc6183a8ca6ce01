"""Pins of the on-disk and logged formats: the exact keys and bytes that
metrics rows, synthetic datasets, splits and checkpoints carry.  A renamed or
dropped key fails here."""

import json
import struct

import numpy as np
import pytest

from voxformer import data as D
from voxformer import models as M
from voxformer import train as TR
from voxformer.optim import TrainConfig

TRAIN_DEFAULTS = {"lr": 0.001, "weight_decay": 0.001, "step_size": 25, "gamma": 0.3,
                  "total_epochs": 100, "warmup_epochs": 10, "batch_size": 1}


def test_run_config_to_dict_keys():
    assert TR.RunConfig().to_dict() == {
        "model": "convnet3d4", "size": "tiny", "norm": "in", "train": TRAIN_DEFAULTS,
        "seed": 0, "pool_stride": None, "target_accuracy": None}
    run = TR.RunConfig(model="cvvt", size="small", norm="bn",
                       train=TrainConfig(0.01, 0.0, 40, 0.5, total_epochs=7, batch_size=2),
                       seed=3, pool_stride=2, target_accuracy=0.9)
    assert run.to_dict() == {
        "model": "cvvt", "size": "small", "norm": "bn",
        "train": {"lr": 0.01, "weight_decay": 0.0, "step_size": 40, "gamma": 0.5,
                  "total_epochs": 7, "warmup_epochs": 10, "batch_size": 2},
        "seed": 3, "pool_stride": 2, "target_accuracy": 0.9}


def test_synth_config_json_bytes(tmp_path):
    cfg = D.SynthConfig(n_subjects=4, sessions_per_subject=1, extents=(10, 11, 12), seed=5)
    D.synth_generate(tmp_path, cfg)
    assert (tmp_path / "synth_config.json").read_text() == (
        '{\n "atrophy_factor": 0.2,\n "extents": [\n  10,\n  11,\n  12\n ],\n'
        ' "n_subjects": 4,\n "noise_sigma": 0.05,\n "seed": 5,\n'
        ' "sessions_per_subject": 1,\n "signal_amplitude": 0.5\n}')


def test_split_to_json_bytes():
    records = [D.VolumeRecord(f"sub-{i:02d}", "ses-01", D.LABELS[i % 2], f"{i}.vox")
               for i in range(6)]
    assert D.subject_split(records, 1, seed=3).to_json() == (
        '{\n "audit": {\n  "n_records": 6,\n  "n_selected": 6,\n'
        '  "test_counts": {\n   "AD": 1,\n   "CN": 1\n  },\n'
        '  "train_counts": {\n   "AD": 2,\n   "CN": 2\n  },\n'
        '  "val_counts": {\n   "AD": 0,\n   "CN": 0\n  },\n  "violations": []\n },\n'
        ' "seed": 3,\n "test_subjects": [\n  "sub-01",\n  "sub-04"\n ],\n'
        ' "train_subjects": [\n  "sub-00",\n  "sub-02",\n  "sub-03",\n  "sub-05"\n ],\n'
        ' "val_subjects": []\n}')


# (build_config arguments, the config_to_dict a checkpoint stores for them)
MODEL_CONFIGS = [
    (dict(model="vvit", extents=(16, 16, 16)),
     {"model": "vvit", "size": "tiny", "extents": [16, 16, 16], "num_classes": 2,
      "patch_edge": 50}),
    (dict(model="cvvt", size="small", extents=(32, 32, 32)),
     {"model": "cvvt", "size": "small", "extents": [32, 32, 32], "num_classes": 2,
      "embed_stack": [[1, 32, 2], [32, 80, 1]]}),
    (dict(model="cvvt", extents=(16, 16, 16)),
     {"model": "cvvt", "size": "tiny", "extents": [16, 16, 16], "num_classes": 2,
      "embed_stack": [[1, 80, 1]]}),
    (dict(model="convnet3d4", norm="bn", extents=(32, 32, 32), pool_stride=2),
     {"model": "convnet3d4", "norm": "bn", "extents": [32, 32, 32], "num_classes": 2,
      "pool_stride": 2}),
]
MODEL_IDS = ["vvit", "cvvt-small", "cvvt", "convnet3d4-bn"]


@pytest.mark.parametrize("args, stored", MODEL_CONFIGS, ids=MODEL_IDS)
def test_model_config_to_dict_keys(args, stored):
    cfg = M.build_config(**args)
    assert M.config_to_dict(cfg) == stored
    assert M.config_from_dict(stored) == cfg


def _write_old_checkpoint(path, model, model_config):
    """A checkpoint laid out by hand: magic, u64 manifest length, manifest
    whose run config still carries ``train.embed_dim``, float32 payloads."""
    config = {"model_config": model_config,
              "run": {"model": model_config["model"], "size": "tiny", "norm": "in",
                      "train": {**TRAIN_DEFAULTS, "embed_dim": 512}, "seed": 0,
                      "pool_stride": model_config.get("pool_stride"),
                      "target_accuracy": None},
              "normalization": {"mean": 0.25, "std": 1.5},
              "labels": ["AD", "CN"]}
    entries, raws, offset = [], [], 0
    for name, t in model.named_tensors():
        raw = t.data.astype("<f4").tobytes()
        entries.append({"name": name, "dtype": "float32", "shape": list(t.shape),
                        "offset": offset, "nbytes": len(raw)})
        raws.append(raw)
        offset += len(raw)
    manifest = json.dumps({"config": config, "tensors": entries}).encode()
    path.write_bytes(b"VOXMDL1\n" + struct.pack("<Q", len(manifest)) + manifest
                     + b"".join(raws))
    return config


@pytest.mark.parametrize("args, stored", MODEL_CONFIGS, ids=MODEL_IDS)
def test_checkpoint_with_old_run_keys_loads(tmp_path, args, stored):
    source = M.build_model(M.build_config(**args), seed=5)
    path = tmp_path / "old.ckpt"
    config = _write_old_checkpoint(path, source, stored)
    model, loaded = TR.load_model_from_checkpoint(path)
    assert loaded == config
    assert model.cfg == M.build_config(**args)
    got = dict(model.named_tensors())
    for name, t in source.named_tensors():
        np.testing.assert_array_equal(got[name].data, t.data)
