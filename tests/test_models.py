import errno
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxformer import cli
from voxformer import data as D
from voxformer import models as M
from voxformer import nn
from voxformer import train as TR
from voxformer.gradcheck import sampled_gradcheck
from voxformer.nn import cross_entropy
from voxformer.tensor import ShapeError, Tensor, _unary, no_grad

RNG = np.random.default_rng(0)


def rand_volume(extents, seed=0, dtype=np.float32, batch=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((batch, 1) + tuple(extents)).astype(dtype))


# ---------------------------------------------------------------------------
# patchify

def test_patchify_full_adni_extents_gives_80_patches():
    x = rand_volume((169, 208, 179), seed=1)
    tokens = M.vvit_patchify(x, 50)
    assert tokens.shape == (1, 80, 125_000)


def test_patchify_exact_cube_is_flatten():
    x = rand_volume((50, 50, 50), seed=2)
    tokens = M.vvit_patchify(x, 50)
    assert tokens.shape == (1, 1, 125_000)
    np.testing.assert_array_equal(tokens.data[0, 0], x.data.ravel())


def unpatchify(tokens: np.ndarray, extents: tuple[int, int, int],
               patch_edge: int) -> np.ndarray:
    """Inverse of vvit_patchify on raw arrays: the losslessness oracle."""
    n = tokens.shape[0]
    e = patch_edge
    nd, nh, nw = (-(-x // e) for x in extents)
    blocks = tokens.reshape(n, nd, nh, nw, e, e, e).transpose(0, 1, 4, 2, 5, 3, 6)
    full = blocks.reshape(n, nd * e, nh * e, nw * e)
    d, h, w = extents
    return full[:, None, :d, :h, :w]


def test_patchify_roundtrip_lossless():
    extents = (7, 11, 5)
    x = rand_volume(extents, seed=3)
    tokens = M.vvit_patchify(x, 4)
    back = unpatchify(tokens.data, extents, 4)
    np.testing.assert_array_equal(back, x.data)


def test_patchify_order_is_axis_major():
    # two patches along D: first token must be the first 50^3... use edge 2
    x = Tensor(np.arange(4 * 2 * 2, dtype=np.float32).reshape(1, 1, 4, 2, 2))
    tokens = M.vvit_patchify(x, 2)
    assert tokens.shape == (1, 2, 8)
    np.testing.assert_array_equal(tokens.data[0, 0], x.data[0, 0, :2].ravel())
    np.testing.assert_array_equal(tokens.data[0, 1], x.data[0, 0, 2:].ravel())


def test_patchify_gradient_routes_back():
    x = rand_volume((3, 2, 2), seed=4, dtype=np.float64)
    x.requires_grad = True
    M.vvit_patchify(x, 2).sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


# ---------------------------------------------------------------------------
# configs and shape inference

def test_vit_sizes_match_reported_table():
    assert M.VIT_SIZES["tiny"] == (192, 3)
    assert M.VIT_SIZES["small"] == (384, 6)
    assert M.VIT_SIZES["base"] == (768, 12)
    for embed_dim, num_heads in M.VIT_SIZES.values():
        assert M.VIT_DEPTH == 12 and nn.MLP_RATIO == 4 and embed_dim % num_heads == 0


def test_shape_infer_vvit_full_size():
    trace = dict(M.shape_infer(M.build_config("vvit", "tiny")))
    assert trace["pad"] == (1, 1, 200, 250, 200)
    assert trace["patchify"] == (1, 80, 125_000)
    assert trace["tokens"] == (1, 81, 192)


def test_shape_infer_convnet_full_size():
    trace = dict(M.shape_infer(M.build_config("convnet3d4")))
    assert trace["block1.pool"] == (1, 128, 56, 69, 59)
    assert trace["block4.pool"] == (1, 512, 2, 2, 2)
    assert trace["flatten"] == (1, 4096)
    assert trace["embed"] == (1, 512)


def test_shape_infer_convnet_8cubed_underflows_at_block2():
    with pytest.raises(M.ShapeUnderflowError) as err:
        M.shape_infer(M.build_config("convnet3d4", extents=(8, 8, 8)))
    assert err.value.layer == "block2.pool"


def test_shape_infer_convnet_32cubed_needs_stride2():
    with pytest.raises(M.ShapeUnderflowError) as err:
        M.shape_infer(M.build_config("convnet3d4", extents=(32, 32, 32)))
    assert err.value.layer == "block4.pool"
    trace = dict(M.shape_infer(M.build_config("convnet3d4", extents=(32, 32, 32),
                                              pool_stride=2)))
    assert trace["block4.pool"] == (1, 512, 1, 1, 1)


def test_default_embed_stack_full_size_geometry():
    stack = M.default_embed_stack((169, 208, 179))
    assert stack == ((1, 32, 2), (32, 64, 2), (64, 96, 2), (96, 128, 2), (128, 80, 1))
    trace = dict(M.shape_infer(M.build_config("cvvt", "tiny")))
    assert trace["embed.stage3"] == (1, 128, 11, 13, 12)
    assert trace["embed.adaptive_pool"] == (1, 80, 10, 10, 10)


def test_cvvt_too_small_extents_underflow():
    with pytest.raises(M.ShapeUnderflowError) as err:
        M.shape_infer(M.build_config("cvvt", "tiny", extents=(8, 8, 8)))
    assert err.value.layer == "embed.adaptive_pool"


# the calls whose outputs are recorded, each with the shape_infer entries it
# produces; a ConvNet3D-4 block's conv runs inside its norm-and-pool node,
# whose conv output tiles (``nn._conv_tiles``) are recorded instead
_RECORDED = {"conv3d": (nn, r"embed\.stage\d"),
             "_conv_tiles": (nn, r"block\d\.conv"),
             "maxpool3d": (nn, r"block\d\.pool"),
             "adaptive_avg_pool3d": (nn, r"embed\.adaptive_pool"),
             "vvit_patchify": (M, r"patchify")}


def _recorder(name, call, executed):
    def record(*args, **kw):
        out = call(*args, **kw)
        executed.append((name, out.shape))
        return out

    def record_tiles(*args, **kw):
        # (samples, Cout, planes, Ho, Wo) of the conv output the tiles cover
        entry, samples, planes = len(executed), set(), set()
        executed.append(None)
        for i, z0, z1, y in call(*args, **kw):
            samples.add(i)
            planes.update(range(z0, z1))
            executed[entry] = (name, (len(samples), y.shape[0], len(planes)) + y.shape[2:])
            yield i, z0, z1, y

    return record_tiles if name == "_conv_tiles" else record


# CVVT at 24^3 has a stride-2 stage, (1, 32, 2), before the stride-1 one
@pytest.mark.parametrize("model,extents,kwargs", [
    ("vvit", (50, 50, 50), {}),
    ("cvvt", (24, 24, 24), {}),
    ("convnet3d4", (32, 32, 32), {"pool_stride": 2}),
])
def test_executed_shapes_equal_inferred(model, extents, kwargs, monkeypatch):
    cfg = M.build_config(model, "tiny", extents=extents, **kwargs)
    net = M.build_model(cfg, seed=0)
    net.eval()
    executed = []
    for name, (owner, _) in _RECORDED.items():
        monkeypatch.setattr(owner, name, _recorder(name, getattr(owner, name), executed))
    with no_grad():
        logits = net(rand_volume(extents, seed=5))
    inferred = M.shape_infer(cfg)
    expected = [(name, shape) for layer, shape in inferred
                for name, (_, pattern) in _RECORDED.items() if re.fullmatch(pattern, layer)]
    assert executed and executed == expected
    assert logits.shape == dict(inferred)["head"]


# ---------------------------------------------------------------------------
# parameter counts

def test_vvit_tiny_patch_embedding_parameter_count_exact():
    model = M.build_model(M.build_config("vvit", "tiny"))
    counts = M.param_count(model)
    assert counts["embedding"] == 24_000_192


def test_encoder_tiny_within_ten_percent_of_reported():
    model = M.build_model(M.build_config("vvit", "tiny"))
    enc = M.param_count(model)["encoder"]
    assert abs(enc - 5_300_000) <= 530_000


def test_cvvt_tiny_embedding_band_and_imbalance_ratios():
    vvit = M.param_count(M.build_model(M.build_config("vvit", "tiny")))
    cvvt = M.param_count(M.build_model(M.build_config("cvvt", "tiny")))
    assert 500_000 <= cvvt["embedding"] <= 3_000_000
    assert cvvt["embedding"] < cvvt["encoder"]
    assert vvit["embedding"] / vvit["encoder"] > 4
    assert cvvt["embedding"] / cvvt["encoder"] < 1


@pytest.mark.parametrize("norm,n_tensors", [("in", 16), ("bn", 24)])
def test_convnet_full_size_parameter_count_exact(norm, n_tensors):
    # pins the paper's fixed ConvNet3D-4 architecture (channels, 3^3 bias-free
    # convs, affine norms, 512-d embedding); BN adds two running statistics
    # per block.  The checkpoint layout is pinned too: each block holds its
    # conv weight, and no Conv3d layer, since its norm's node runs the conv
    model = M.build_model(M.build_config("convnet3d4", norm=norm))
    assert M.param_count(model) == {"blocks": 5_535_232, "embedding": 2_097_664,
                                    "head": 1_026, "total": 7_633_922}
    norm_names = ["gamma", "beta"] + (["running_mean", "running_var"] if norm == "bn" else [])
    want = [f"blocks.{i}.{name}" for i in range(4)
            for name in ["conv.weight"] + [f"norm.{n}" for n in norm_names]]
    want += ["embed.weight", "embed.bias", "head.weight", "head.bias"]
    assert [name for name, _ in model.named_tensors()] == want
    assert len(want) == n_tensors
    assert not any(isinstance(m, nn.Conv3d) for m in model.modules())


def test_param_count_zero_layer_model():
    class Empty(nn.Module):
        pass

    assert M.param_count(Empty()) == {"total": 0}


def test_param_count_totals_are_consistent():
    model = M.build_model(M.build_config("convnet3d4", extents=(32, 32, 32),
                                         pool_stride=2))
    counts = M.param_count(model)
    assert counts["total"] == sum(p.size for p in model.parameters())
    assert counts["total"] == counts["blocks"] + counts["embedding"] + counts["head"]


# ---------------------------------------------------------------------------
# forwards

def test_cvvt_embed_token_geometry():
    cfg = M.build_config("cvvt", "tiny", extents=(24, 26, 30))
    model = M.build_model(cfg, seed=1)
    with no_grad():
        tokens = model.embed(rand_volume((24, 26, 30), seed=6))
    assert tokens.shape == (1, 80, 192)


@pytest.mark.parametrize("size,heads", [("tiny", 3), ("small", 6), ("base", 12)])
def test_cvvt_sizes_instantiate_with_table_heads(size, heads):
    cfg = M.build_config("cvvt", size, extents=(16, 16, 16))
    model = M.build_model(cfg, seed=0)
    attn = model.core.encoder.blocks[0].attn
    assert attn.num_heads == heads
    assert attn.embed_dim == M.VIT_SIZES[size][0]


def test_forward_output_shapes():
    for model_name, extents, kw in [("vvit", (50, 50, 50), {}),
                                    ("cvvt", (16, 16, 16), {}),
                                    ("convnet3d4", (32, 32, 32), {"pool_stride": 2})]:
        net = M.build_model(M.build_config(model_name, "tiny", extents=extents, **kw))
        net.eval()
        with no_grad():
            out = net(rand_volume(extents, seed=7))
        assert out.shape == (1, 2), model_name


def test_convnet_eval_forward_deterministic():
    net = M.build_model(M.build_config("convnet3d4", extents=(32, 32, 32),
                                       pool_stride=2), seed=3)
    net.eval()
    x = rand_volume((32, 32, 32), seed=8)
    with no_grad():
        a = net(x).data.tobytes()
        b = net(Tensor(x.data.copy())).data.tobytes()
    assert a == b


def test_convnet_in_variant_input_scale_invariance():
    # first conv has no bias and instance norm removes scale, so logits match
    net = M.build_model(M.build_config("convnet3d4", norm="in", extents=(32, 32, 32),
                                       pool_stride=2), seed=4)
    net.eval()
    x = rand_volume((32, 32, 32), seed=9)
    with no_grad():
        base = net(x).data
        scaled = net(Tensor(x.data * 7.5)).data
    np.testing.assert_allclose(scaled, base, atol=1e-4)


def test_model_outputs_finite_on_bounded_inputs():
    # stability sweep scaled per model so the suite stays fast; inputs in [-10, 10]
    sweeps = [("vvit", (50, 50, 50), {}, 8, 125),
              ("cvvt", (16, 16, 16), {}, 4, 25),
              ("convnet3d4", (32, 32, 32), {"pool_stride": 2}, 5, 4)]
    rng = np.random.default_rng(10)
    for model_name, extents, kw, batches, per in sweeps:
        net = M.build_model(M.build_config(model_name, "tiny", extents=extents, **kw))
        net.eval()
        for _ in range(batches):
            x = Tensor(rng.uniform(-10, 10, (per, 1) + extents).astype(np.float32))
            with no_grad():
                out = net(x)
            assert np.all(np.isfinite(out.data)), model_name


@pytest.mark.slow
def test_cvvt_tiny_paper_size_forward_peak_memory():
    """CVVT-tiny inference on one 169x208x179 scan stays under 170 MB of
    traced allocations, 1.25x the measured 136 MB: the tiled conv never
    builds a whole column matrix (the 32->64 stage's is 348 MB; the
    whole-matrix kernel peaked at 584 MB), pads no input, and applies each
    stage's leaky ReLU in place (the unfused stages peaked at 305 MB)."""
    net = M.build_model(M.build_config("cvvt", "tiny"), seed=0).eval()
    x = rand_volume((169, 208, 179), seed=1)
    tracemalloc.start()
    try:
        with no_grad():
            out = net(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 2) and np.all(np.isfinite(out.data))
    assert peak <= 170e6, peak / 1e6


# ---------------------------------------------------------------------------
# permutation invariance with zeroed positional embedding

def test_vvit_patch_permutation_invariance_when_pos_zeroed():
    cfg = M.build_config("vvit", "tiny", extents=(8, 4, 4))
    cfg = M.VViTConfig(size=cfg.size, patch_edge=4, extents=(8, 4, 4))
    net = M.VViT(cfg, seed=5, dtype=np.float64)
    net.core.pos_embed.data[:] = 0.0
    net.eval()
    x = rand_volume((8, 4, 4), seed=11, dtype=np.float64)
    swapped = np.concatenate([x.data[:, :, 4:], x.data[:, :, :4]], axis=2)
    with no_grad():
        a = net(x).data
        b = net(Tensor(swapped)).data
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_cvvt_token_permutation_invariance_when_pos_zeroed():
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    net = M.build_model(cfg, seed=6, dtype=np.float64)
    net.core.pos_embed.data[:] = 0.0
    net.eval()
    x = rand_volume((12, 12, 12), seed=12, dtype=np.float64)
    perm = np.random.default_rng(13).permutation(80)
    with no_grad():
        tokens = net.embed(x)
        a = net.core(tokens).data
        b = net.core(Tensor(tokens.data[:, perm])).data
    np.testing.assert_allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------------------
# whole-model gradients: a cheap smoke here; the full 32^3 sampled-coordinate
# checks for CVVT-tiny and ConvNet3D4-IN run in the acceptance suite

def test_small_cvvt_full_gradcheck():
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    net = M.build_model(cfg, seed=7, dtype=np.float64)
    x = rand_volume((12, 12, 12), seed=14, dtype=np.float64)
    y = np.array([1])
    report = sampled_gradcheck(lambda: cross_entropy(net(x), y),
                               list(net.named_parameters()),
                               n_samples=10, tol=1e-3,
                               rng=np.random.default_rng(15))
    assert report.passed, report


def _log(a: Tensor) -> Tensor:
    return _unary(a, "log", np.log(a.data), lambda g: g / a.data)


def test_sampled_gradcheck_rejects_non_finite_perturbed_output():
    # log is finite at the point but not at point - eps
    p = Tensor(np.array([0.5e-5]), requires_grad=True)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        sampled_gradcheck(lambda: _log(p).sum(), [("p", p)], np.random.default_rng(0),
                          n_samples=1, eps=1e-5)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_byte_exact(tmp_path):
    cfg = M.build_config("cvvt", "tiny", extents=(16, 16, 16))
    net = M.build_model(cfg, seed=9)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, net, {"model_config": M.config_to_dict(cfg), "note": 1})
    config, rebuilt = M.load_checkpoint(
        path, lambda config: M.build_model(M.config_from_dict(config["model_config"]), seed=0))
    path2 = tmp_path / "model2.ckpt"
    M.save_checkpoint(path2, rebuilt, config)
    assert path.read_bytes() == path2.read_bytes()

    x = rand_volume((16, 16, 16), seed=18)
    net.eval(), rebuilt.eval()
    with no_grad():
        np.testing.assert_array_equal(net(x).data, rebuilt(x).data)


def test_load_skips_the_random_init_and_restores_every_tensor(tmp_path):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with nn.no_init():
        nn.trunc_normal(rng, (4, 5))
        nn.kaiming_normal(rng, (4, 5), fan_in=5)
    assert rng.bit_generator.state == state             # nothing drawn
    cfg = M.build_config("convnet3d4", norm="bn", extents=(32, 32, 32), pool_stride=2)
    net = M.build_model(cfg, seed=4)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, net, {"model_config": M.config_to_dict(cfg), "run": {"seed": 4},
                                  "normalization": {"mean": 0.0, "std": 1.0}})
    loaded, _ = TR.load_model_from_checkpoint(path)
    for (name, t), (name2, t2) in zip(net.named_tensors(), loaded.named_tensors()):
        assert name == name2 and t.data.tobytes() == t2.data.tobytes()
    assert nn.trunc_normal(np.random.default_rng(0), (3,)).any()     # draws again after


def test_float64_checkpoint_loads_into_a_float32_model(tmp_path):
    cfg = M.build_config("cvvt", "tiny", extents=(12, 12, 12))
    net = M.build_model(cfg, seed=2, dtype=np.float64)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, net, {"model_config": M.config_to_dict(cfg), "run": {"seed": 2},
                                  "normalization": {"mean": 0.0, "std": 1.0}})
    loaded, _ = TR.load_model_from_checkpoint(path)
    for (name, t), (_, want) in zip(loaded.named_tensors(), net.named_tensors()):
        assert t.dtype == np.float32, name
        np.testing.assert_array_equal(t.data, want.data.astype(np.float32))


def test_checkpoint_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOTMODEL" + b"\x00" * 32)
    with pytest.raises(ValueError):
        M.load_checkpoint(p, lambda config: _TinyNet())


class _TinyNet(nn.Module):
    """A few hundred bytes of checkpoint: one float32 layer, one float64 buffer."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(3, 2, rng=np.random.default_rng(0))
        self.buf = Tensor(np.arange(4.0).reshape(2, 2))


def _tiny_checkpoint(path) -> bytes:
    M.save_checkpoint(path, _TinyNet(), {"model_config": {"model": "tiny"}, "run": {"seed": 0}})
    return path.read_bytes()


def _bad_checkpoints(blob: bytes) -> dict[str, bytes]:
    """The faults the reader must name; ``blob`` is a valid checkpoint."""
    n = struct.unpack("<Q", blob[8:16])[0]
    manifest = blob[16:16 + n]
    bad = {"bad_magic": b"NOTMODEL" + blob[8:], "cut_12": blob[:12], "cut_40": blob[:40],
           "manifest_length_1e12": blob[:8] + struct.pack("<Q", 10 ** 12) + blob[16:],
           "cut_payload": blob[:-3], "manifest_not_utf8": blob[:17] + b"\xff" + blob[18:]}
    for name, old, new in [("dtype_int", b'"float32"', b'"int32"  '),
                           ("nbytes_vs_shape", b'"shape":[2,3]', b'"shape":[3,3]'),
                           ("no_tensors", b'"tensors"', b'"tensorz"'),
                           ("negative_offset", b'"offset":0', b'"offset":-1'),
                           ("repeated_name", b'"name":"fc.bias"', b'"name":"fc.weight"')]:
        assert old in manifest, name
        edited = manifest.replace(old, new, 1)
        bad[name] = blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + n:]
    return bad


def test_checkpoint_reader_names_file_and_offset(tmp_path):
    blob = _tiny_checkpoint(tmp_path / "good.ckpt")
    for name, damaged in _bad_checkpoints(blob).items():
        p = tmp_path / f"{name}.ckpt"
        p.write_bytes(damaged)
        with pytest.raises(M.CheckpointFormatError, match="offset") as err:
            M.load_checkpoint(p, lambda config: _TinyNet())
        assert str(p) in str(err.value), name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_reader_fuzz(tmp_path_factory, data):
    """Truncations and byte flips: the reader loads or raises CheckpointFormatError."""
    d = tmp_path_factory.mktemp("fuzz")
    blob = bytearray(_tiny_checkpoint(d / "good.ckpt"))
    for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                  st.integers(1, 255)), max_size=4)):
        blob[pos] ^= mask
    blob = blob[:data.draw(st.integers(0, len(blob)))]
    p = d / "fuzzed.ckpt"
    p.write_bytes(bytes(blob))
    try:
        config, net = M.load_checkpoint(p, lambda config: _TinyNet())
    except M.CheckpointFormatError:
        return
    assert isinstance(config, dict)
    assert all(t.dtype in (np.float32, np.float64) for _, t in net.named_tensors())


def _write_checkpoint(d, version):
    net = _TinyNet()
    net.buf.data[:] = version
    M.save_checkpoint(d / "best.ckpt", net,
                      {"model_config": {"model": "tiny"}, "run": {"seed": version}})
    return d / "best.ckpt"


def _write_manifest(d, version):
    D.write_manifest(d / D.MANIFEST_NAME,
                     [D.VolumeRecord(f"sub-{version}", "ses-01", "AD", "a.vox")])
    return d / D.MANIFEST_NAME


def _synth(d, version):
    D.synth_generate(d, D.SynthConfig(n_subjects=4, sessions_per_subject=1, extents=(8, 8, 8),
                                      seed=version))
    return d / "synth_config.json"


def _command(argv):
    """Run one CLI subcommand without ``main``'s mapping of errors to exit codes."""
    args = cli.build_parser().parse_args(argv)
    return cli.COMMANDS[args.command](args)


def _split_argv(d, version):
    return ["split", "--data", str(d), "--test-per-class", "1", "--seed", str(version)]


def _verify_argv(d, version):
    return ["verify", "--suite", "shapes", "--out", str(d / "report.json")]


def _write_split(d, version):
    if version == 0:
        _synth(d, 0)
    _command(_split_argv(d, version))
    return d / D.SPLIT_NAME


def _write_verify_report(d, version):
    _command(_verify_argv(d, version))
    return d / "report.json"


class DiskFull:
    """Accepts 100 bytes, then fails the way a full disk does."""

    def __init__(self, f):
        self.f, self.room = f, 100

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        if len(b) > self.room:
            self.f.write(b[:self.room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(b)
        return self.f.write(b)


def _full_disk_for(name):
    """An ``open`` for ``data`` under which files named ``name``* fill the disk;
    other files write normally."""
    def full_disk_open(file, *a, **k):
        f = open(file, *a, **k)
        return DiskFull(f) if Path(file).name.startswith(name) else f
    return full_disk_open


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    """A full disk while rewriting a checkpoint, manifest, synth config, split
    file or verify report leaves the previous file whole and no temporary
    file behind."""
    for writer in (_write_checkpoint, _write_manifest, _synth, _write_split,
                   _write_verify_report):
        d = tmp_path / writer.__name__
        d.mkdir()
        path = writer(d, 0)
        before = path.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(D, "open", _full_disk_for(path.name), raising=False)
            with pytest.raises(OSError):
                writer(d, 1)
        assert path.read_bytes() == before, writer.__name__
        assert not list(d.glob("*.tmp")), writer.__name__


@pytest.mark.parametrize("writer,argv", [(_write_split, _split_argv),
                                         (_write_verify_report, _verify_argv)])
def test_cli_write_on_full_disk_exits_3_with_one_line(tmp_path, monkeypatch, capsys,
                                                      writer, argv):
    path = writer(tmp_path, 0)
    before = path.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(D, "open", _full_disk_for(path.name), raising=False)
    rc = cli.main(argv(tmp_path, 1))
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_DATA
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert str(path) in err[0] and "No space left on device" in err[0]
    assert path.read_bytes() == before and not list(tmp_path.glob("*.tmp"))


def test_load_state_shape_mismatch_rejected():
    net = M.build_model(M.build_config("cvvt", "tiny", extents=(16, 16, 16)))
    shapes = {k: v.shape for k, v in net.named_tensors()}
    first = next(iter(shapes))
    shapes[first] = (1, 2, 3)
    with pytest.raises(ShapeError):
        net.state_buffers(shapes)
