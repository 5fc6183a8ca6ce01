"""The three classifier architectures and their supporting machinery.

* VViT: flat 3D-patch vision transformer (50-voxel cubic patches, linearly
  projected, class token + learnable positional table, pre-norm encoder).
* CVVT: convolutional voxel vision transformer -- a conv stack downsamples
  the volume to an 80-channel 10x10x10 feature grid whose channels become
  the 80 tokens, shrinking the patch-embedding parameter count.
* ConvNet3D4: shallow four-block 3D CNN, channels 1->128->192->256->512,
  with batch- or instance-norm variants.

Also here: pure shape inference (validates full-size geometry without
full-size compute), grouped parameter counting, and checkpoint I/O.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import LABELS, DataError, write_atomic
from .tensor import MAX_NDIM, Tensor, ShapeError, concat, leaky_relu, _node

FULL_EXTENTS = (169, 208, 179)
NUM_CLASSES = len(LABELS)       # every head scores the two labels, AD and CN


class ShapeUnderflowError(ShapeError):
    """A layer's output extent fell below 1; carries the offending layer name."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


# ---------------------------------------------------------------------------
# configs

@dataclass(frozen=True)
class ViTSizeConfig:
    embed_dim: int
    num_heads: int
    depth: int = 12
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.embed_dim % self.num_heads:
            raise ShapeError(f"embed_dim {self.embed_dim} not divisible by "
                             f"num_heads {self.num_heads}")


VIT_SIZES = {
    "tiny": ViTSizeConfig(192, 3),
    "small": ViTSizeConfig(384, 6),
    "base": ViTSizeConfig(768, 12),
}


@dataclass(frozen=True)
class VViTConfig:
    size: ViTSizeConfig
    patch_edge: int = 50
    extents: tuple[int, int, int] = FULL_EXTENTS

    @property
    def padded_extents(self) -> tuple[int, int, int]:
        e = self.patch_edge
        return tuple(-(-x // e) * e for x in self.extents)

    @property
    def patch_counts(self) -> tuple[int, int, int]:
        return tuple(p // self.patch_edge for p in self.padded_extents)

    @property
    def num_patches(self) -> int:
        return int(np.prod(self.patch_counts))

    @property
    def patch_dim(self) -> int:
        return self.patch_edge ** 3


# One conv stage of the CVVT embedding: (in_channels, out_channels, stride).
StageSpec = tuple[int, int, int]

CVVT_CHANNEL_LADDER = (32, 64, 96, 128)
CVVT_TOKENS = 80
CVVT_GRID = (10, 10, 10)


def _conv_out(extent: int, kernel: int = 3, stride: int = 1, padding: int = 1) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def default_embed_stack(extents: tuple[int, int, int]) -> tuple[StageSpec, ...]:
    """Downsampling stack for the CVVT embedding at the given input extents.

    Stride-2 stages (k3, p1) walk the channel ladder for as long as every
    spatial extent stays at or above the 10-voxel feature grid; a final
    stride-1 stage projects to the 80 token channels.  At the full scan size
    this yields 1->32->64->96->128 downsampling plus 128->80.
    """
    stages: list[StageSpec] = []
    e = tuple(extents)
    ch = 1
    for c in CVVT_CHANNEL_LADDER:
        nxt = tuple(_conv_out(x, stride=2) for x in e)
        if min(nxt) < CVVT_GRID[0]:
            break
        stages.append((ch, c, 2))
        ch, e = c, nxt
    stages.append((ch, CVVT_TOKENS, 1))
    return tuple(stages)


@dataclass(frozen=True)
class CVVTConfig:
    size: ViTSizeConfig
    extents: tuple[int, int, int] = FULL_EXTENTS

    @property
    def embed_stack(self) -> tuple[StageSpec, ...]:
        return default_embed_stack(self.extents)

    @property
    def num_patches(self) -> int:
        return CVVT_TOKENS

    @property
    def token_dim(self) -> int:
        return int(np.prod(CVVT_GRID))


# ConvNet3D-4 as the paper fixes it: four blocks of conv (3^3 kernel, stride 1,
# padding 1, no bias) -> norm -> max-pool (kernel 3) -> LeakyReLU -> channel
# dropout over these channels, then a 512-d embedding and the head.
CONVNET_CHANNELS = (1, 128, 192, 256, 512)
CONVNET_POOL_KERNEL = 3
CONVNET_SLOPE = 0.2
CONVNET_DROPOUT = 0.4
CONVNET_EMBED_DIM = 512


@dataclass(frozen=True)
class ConvNet3D4Config:
    norm: str = "in"                    # "in" (instance) or "bn" (batch)
    pool_stride: int = 3
    extents: tuple[int, int, int] = FULL_EXTENTS

    def __post_init__(self):
        if self.norm not in ("bn", "in"):
            raise ValueError(f"unknown norm {self.norm!r} (expected bn or in)")


ModelConfig = VViTConfig | CVVTConfig | ConvNet3D4Config


# ---------------------------------------------------------------------------
# shape inference (pure arithmetic, no tensor execution)

ShapeTrace = list[tuple[str, tuple[int, ...]]]


def shape_infer(cfg: ModelConfig) -> ShapeTrace:
    """Symbolic forward over shapes (batch dim fixed at 1); raises
    ShapeUnderflowError naming the first layer whose output extent underflows."""
    e = tuple(cfg.extents)
    if len(e) != 3 or any(x < 1 for x in e):
        raise ShapeError(f"extents must be three positive integers, got {e}")
    trace: ShapeTrace = [("input", (1, 1) + e)]

    if isinstance(cfg, VViTConfig):
        n_patches = cfg.num_patches
        trace.append(("pad", (1, 1) + cfg.padded_extents))
        trace.append(("patchify", (1, n_patches, cfg.patch_dim)))
        trace.append(("patch_embed", (1, n_patches, cfg.size.embed_dim)))
        trace.append(("tokens", (1, n_patches + 1, cfg.size.embed_dim)))
        trace.append(("encoder", (1, n_patches + 1, cfg.size.embed_dim)))
        trace.append(("head", (1, NUM_CLASSES)))
        return trace

    if isinstance(cfg, CVVTConfig):
        cur = e
        for i, (cin, cout, stride) in enumerate(cfg.embed_stack):
            nxt = tuple(_conv_out(x, stride=stride) for x in cur)
            if min(nxt) < 1:
                raise ShapeUnderflowError(f"embed.stage{i}",
                                          f"conv output underflows: {cur} -> {nxt}")
            trace.append((f"embed.stage{i}", (1, cout) + nxt))
            cur = nxt
        if min(cur) < CVVT_GRID[0]:
            raise ShapeUnderflowError(
                "embed.adaptive_pool",
                f"feature extents {cur} below target grid {CVVT_GRID}")
        trace.append(("embed.adaptive_pool", (1, CVVT_TOKENS) + CVVT_GRID))
        trace.append(("token_embed", (1, CVVT_TOKENS, cfg.size.embed_dim)))
        trace.append(("tokens", (1, CVVT_TOKENS + 1, cfg.size.embed_dim)))
        trace.append(("encoder", (1, CVVT_TOKENS + 1, cfg.size.embed_dim)))
        trace.append(("head", (1, NUM_CLASSES)))
        return trace

    if isinstance(cfg, ConvNet3D4Config):
        cur = e
        k = CONVNET_POOL_KERNEL
        for i, c in enumerate(CONVNET_CHANNELS[1:]):
            conv = tuple(_conv_out(x) for x in cur)
            if min(conv) < 1:
                raise ShapeUnderflowError(f"block{i + 1}.conv",
                                          f"conv output underflows: {cur} -> {conv}")
            trace.append((f"block{i + 1}.conv", (1, c) + conv))
            pooled = tuple((x - k) // cfg.pool_stride + 1 for x in conv)
            if min(conv) < k or min(pooled) < 1:
                raise ShapeUnderflowError(f"block{i + 1}.pool",
                                          f"pool window {k} does not fit extents {conv}")
            trace.append((f"block{i + 1}.pool", (1, c) + pooled))
            cur = pooled
        flat = CONVNET_CHANNELS[-1] * int(np.prod(cur))
        trace.append(("flatten", (1, flat)))
        trace.append(("embed", (1, CONVNET_EMBED_DIM)))
        trace.append(("head", (1, NUM_CLASSES)))
        return trace

    raise TypeError(f"unknown config type {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# patch extraction

def vvit_patchify(x: Tensor, patch_edge: int = 50) -> Tensor:
    """Zero-pad each spatial axis up to a multiple of the patch edge, tile
    non-overlapping cubes, and flatten each to a vector.

    Input [N,1,D,H,W] -> [N, P, edge^3] with patches ordered D-major, then H,
    then W.  Lossless: reassembling the patches and cropping the padding
    reconstructs the input.
    """
    if x.ndim != 5 or x.shape[1] != 1:
        raise ShapeError(f"patchify expects [N,1,D,H,W], got {x.shape}")
    n, _, d, h, w = x.shape
    e = int(patch_edge)
    nd, nh, nw = (-(-s // e) for s in (d, h, w))
    # each cube is copied once into its zeroed slot; a partial cube's slot
    # keeps zeros where the padding would be
    tokens = np.zeros((n, nd * nh * nw, e ** 3), x.dtype)
    slots = tokens.reshape(n, nd, nh, nw, e, e, e)
    for i, j, k in itertools.product(range(nd), range(nh), range(nw)):
        cube = x.data[:, 0, i * e:(i + 1) * e, j * e:(j + 1) * e, k * e:(k + 1) * e]
        slots[:, i, j, k, :cube.shape[1], :cube.shape[2], :cube.shape[3]] = cube

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gb = g.reshape(n, nd, nh, nw, e, e, e).transpose(0, 1, 4, 2, 5, 3, 6)
        gp = gb.reshape(n, nd * e, nh * e, nw * e)
        x._accumulate(gp[:, None, :d, :h, :w])

    return _node(tokens, (x,), backward, "vvit_patchify")


# ---------------------------------------------------------------------------
# models

def _spawn(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


class _ViTCore(nn.Module):
    """Shared token pipeline: class token, positional table, encoder, head."""

    def __init__(self, num_patches: int, size: ViTSizeConfig,
                 rng: np.random.Generator, dtype):
        super().__init__()
        e = size.embed_dim
        self.cls_token = Tensor(nn.trunc_normal(rng, (1, 1, e), dtype=dtype),
                                requires_grad=True)
        self.pos_embed = Tensor(nn.trunc_normal(rng, (1, num_patches + 1, e), dtype=dtype),
                                requires_grad=True)
        self.encoder = nn.TransformerEncoder(e, size.num_heads, size.depth,
                                             size.mlp_ratio, rng=rng, dtype=dtype)
        self.head = nn.Linear(e, NUM_CLASSES, rng=rng, dtype=dtype)

    def forward(self, tokens: Tensor) -> Tensor:
        n = tokens.shape[0]
        cls = self.cls_token if n == 1 else concat([self.cls_token] * n, axis=0)
        t = concat([cls, tokens], axis=1)
        t = t + self.pos_embed
        encoded = self.encoder(t)
        return self.head(encoded[:, 0, :])


class VViT(nn.Module):
    param_groups = {"embedding": ("patch_embed",),
                    "tokens": ("core.cls_token", "core.pos_embed"),
                    "encoder": ("core.encoder",),
                    "head": ("core.head",)}

    def __init__(self, cfg: VViTConfig, seed: int = 0, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        rng, = _spawn(seed, 1)
        self.patch_embed = nn.Linear(cfg.patch_dim, cfg.size.embed_dim, rng=rng, dtype=dtype)
        self.core = _ViTCore(cfg.num_patches, cfg.size, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        tokens = vvit_patchify(x, self.cfg.patch_edge)
        return self.core(self.patch_embed(tokens))


class CVVT(nn.Module):
    param_groups = {"embedding": ("stages", "token_embed"),
                    "tokens": ("core.cls_token", "core.pos_embed"),
                    "encoder": ("core.encoder",),
                    "head": ("core.head",)}

    def __init__(self, cfg: CVVTConfig, seed: int = 0, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        rng, = _spawn(seed, 1)
        self.stages = [nn.Conv3d(cin, cout, stride=s, rng=rng, dtype=dtype)
                       for cin, cout, s in cfg.embed_stack]
        self.token_embed = nn.Linear(cfg.token_dim, cfg.size.embed_dim, rng=rng, dtype=dtype)
        self.core = _ViTCore(cfg.num_patches, cfg.size, rng, dtype)

    def embed(self, x: Tensor) -> Tensor:
        """Conv stack -> 10^3 feature grid -> one token per channel."""
        h = x
        for conv in self.stages:
            h = leaky_relu(conv(h), 0.2)
        h = nn.adaptive_avg_pool3d(h, CVVT_GRID)
        n = h.shape[0]
        tokens = h.reshape(n, CVVT_TOKENS, self.cfg.token_dim)
        return self.token_embed(tokens)

    def forward(self, x: Tensor) -> Tensor:
        return self.core(self.embed(x))


class _ConvBlock(nn.Module):
    """Conv -> norm -> max-pool -> leaky ReLU -> channel dropout."""

    def __init__(self, cfg: ConvNet3D4Config, cin: int, cout: int,
                 rng: np.random.Generator, drop_rng: np.random.Generator, dtype):
        super().__init__()
        self.conv = nn.Conv3d(cin, cout, bias=False, rng=rng, dtype=dtype)
        if cfg.norm == "bn":
            self.norm = nn.BatchNorm3d(cout, dtype=dtype)
        else:
            self.norm = nn.InstanceNorm3d(cout, dtype=dtype)
        self.pool_stride = cfg.pool_stride
        self.drop = nn.Dropout3d(CONVNET_DROPOUT, rng=drop_rng)

    def forward(self, x: Tensor) -> Tensor:
        h = nn.maxpool3d(self.norm(self.conv(x)), CONVNET_POOL_KERNEL, self.pool_stride)
        return self.drop(leaky_relu(h, CONVNET_SLOPE))


class ConvNet3D4(nn.Module):
    param_groups = {"blocks": ("blocks",),
                    "embedding": ("embed",),
                    "head": ("head",)}

    def __init__(self, cfg: ConvNet3D4Config, seed: int = 0, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        trace = shape_infer(cfg)
        flat = dict(trace)["flatten"][1]
        rng, drop_rng = _spawn(seed, 2)
        self.blocks = [_ConvBlock(cfg, cin, cout, rng, drop_rng, dtype)
                       for cin, cout in zip(CONVNET_CHANNELS, CONVNET_CHANNELS[1:])]
        self.embed = nn.Linear(flat, CONVNET_EMBED_DIM, rng=rng, dtype=dtype)
        self.head = nn.Linear(CONVNET_EMBED_DIM, NUM_CLASSES, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for block in self.blocks:
            h = block(h)
        v_emb = self.embed(h.flatten(start_axis=1))
        return self.head(v_emb)


Model = VViT | CVVT | ConvNet3D4


# ---------------------------------------------------------------------------
# parameter counting

def param_count(model: nn.Module) -> dict[str, int]:
    """Exact parameter counts grouped by named submodule, plus the total."""
    groups: dict[str, int] = {}
    mapping = getattr(model, "param_groups", None)
    for name, t in model.named_parameters():
        group = name.split(".", 1)[0]
        if mapping:
            for g, prefixes in mapping.items():
                if any(name == p or name.startswith(p + ".") for p in prefixes):
                    group = g
                    break
        groups[group] = groups.get(group, 0) + t.size
    groups["total"] = sum(v for k, v in groups.items())
    return groups


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"VOXMDL1\n"
_CKPT_HEADER = len(_CKPT_MAGIC) + 8
_CKPT_DTYPES = ("float32", "float64")


class CheckpointFormatError(DataError):
    """Malformed checkpoint: bad magic, truncation, or a manifest that does not
    fit the file; names the file and the byte offset of the fault."""


def save_checkpoint(path, model: nn.Module, config: dict) -> None:
    """Container file: magic, u64 manifest length, JSON manifest, raw
    little-endian tensor payloads.  Round-trips byte-exactly.

    The write is atomic (``write_atomic``): ``path`` holds either the
    previous checkpoint or the new one, never a partial write.
    """
    entries, payloads, offset = [], [], 0
    for name, t in model.named_tensors():
        # the tensor's own buffer when it is already little-endian: no copy
        raw = memoryview(np.ascontiguousarray(t.data, t.dtype.newbyteorder("<"))).cast("B")
        entries.append({"name": name, "dtype": t.dtype.name,
                        "shape": list(t.shape), "offset": offset, "nbytes": raw.nbytes})
        payloads.append(raw)
        offset += raw.nbytes
    manifest = json.dumps({"config": config, "tensors": entries},
                          sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, _CKPT_MAGIC, struct.pack("<Q", len(manifest)), manifest, *payloads)


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint, checking every length and offset against the file
    before using it; any fault raises ``CheckpointFormatError``."""
    blob = Path(path).read_bytes()
    if blob[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file (bad magic at offset 0)")
    if len(blob) < _CKPT_HEADER:
        raise CheckpointFormatError(f"{path}: truncated header at offset {len(blob)} "
                                    f"(the header is {_CKPT_HEADER} bytes)")
    n = struct.unpack("<Q", blob[len(_CKPT_MAGIC):_CKPT_HEADER])[0]
    base = _CKPT_HEADER + n
    if base > len(blob):
        raise CheckpointFormatError(f"{path}: manifest at offset {_CKPT_HEADER} declares "
                                    f"{n} bytes, the file has {len(blob)}")
    try:
        manifest = json.loads(blob[_CKPT_HEADER:base])
    except ValueError as e:     # JSON syntax and UTF-8 decoding errors alike
        raise CheckpointFormatError(f"{path}: manifest at offset {_CKPT_HEADER} "
                                    f"is not JSON ({e})") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("tensors"), list)):
        raise CheckpointFormatError(f"{path}: manifest at offset {_CKPT_HEADER} needs a "
                                    f"'config' object and a 'tensors' list")
    arrays = {}
    for i, e in enumerate(manifest["tensors"]):
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and e.get("dtype") in _CKPT_DTYPES
                and isinstance(e.get("shape"), list) and len(e["shape"]) <= MAX_NDIM
                and all(_is_count(x) for x in e["shape"])
                and _is_count(e.get("offset")) and _is_count(e.get("nbytes"))):
            raise CheckpointFormatError(
                f"{path}: tensor entry {i} of the manifest at offset {_CKPT_HEADER} needs a "
                f"name, a dtype in {_CKPT_DTYPES}, a shape of at most {MAX_NDIM} "
                f"extents, and an offset and nbytes")
        dtype = np.dtype(e["dtype"])
        count = math.prod(e["shape"])
        start = base + e["offset"]
        if e["nbytes"] != count * dtype.itemsize:
            raise CheckpointFormatError(f"{path}: tensor {e['name']!r} at offset {start} "
                                        f"declares {e['nbytes']} bytes, its shape "
                                        f"{e['shape']} needs {count * dtype.itemsize}")
        if start + e["nbytes"] > len(blob):
            raise CheckpointFormatError(f"{path}: tensor {e['name']!r} at offset {start} "
                                        f"runs past the end of the file ({len(blob)} bytes)")
        arr = np.frombuffer(blob, dtype=dtype.newbyteorder("<"), count=count, offset=start)
        arrays[e["name"]] = arr.reshape(e["shape"]).astype(dtype)
    return manifest["config"], arrays


# ---------------------------------------------------------------------------
# builder

def build_config(model: str, size: str = "tiny", norm: str = "in",
                 extents: tuple[int, int, int] = FULL_EXTENTS,
                 pool_stride: int | None = None) -> ModelConfig:
    """Config for one of the eight reported model rows.

    ``pool_stride`` (ConvNet3D4 only) defaults to 3; pass 2 for desk-scale
    inputs (the four stride-3 pools need extents of at least 81).
    """
    extents = tuple(int(e) for e in extents)
    if model in ("vvit", "cvvt") and size not in VIT_SIZES:
        raise ValueError(f"unknown size {size!r} (expected {', '.join(VIT_SIZES)})")
    if model == "vvit":
        return VViTConfig(size=VIT_SIZES[size], extents=extents)
    if model == "cvvt":
        return CVVTConfig(size=VIT_SIZES[size], extents=extents)
    if model == "convnet3d4":
        return ConvNet3D4Config(norm=norm, extents=extents,
                                pool_stride=3 if pool_stride is None else int(pool_stride))
    raise ValueError(f"unknown model {model!r} (expected vvit, cvvt, or convnet3d4)")


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    shape_infer(cfg)  # validate geometry before allocating parameters
    if isinstance(cfg, VViTConfig):
        return VViT(cfg, seed=seed, dtype=dtype)
    if isinstance(cfg, CVVTConfig):
        return CVVT(cfg, seed=seed, dtype=dtype)
    return ConvNet3D4(cfg, seed=seed, dtype=dtype)


def config_to_dict(cfg: ModelConfig) -> dict:
    if isinstance(cfg, VViTConfig):
        return {"model": "vvit", "size": _size_name(cfg.size),
                "extents": list(cfg.extents), "num_classes": NUM_CLASSES,
                "patch_edge": cfg.patch_edge}
    if isinstance(cfg, CVVTConfig):
        return {"model": "cvvt", "size": _size_name(cfg.size),
                "extents": list(cfg.extents), "num_classes": NUM_CLASSES,
                "embed_stack": [list(s) for s in cfg.embed_stack]}
    return {"model": "convnet3d4", "norm": cfg.norm,
            "extents": list(cfg.extents), "num_classes": NUM_CLASSES,
            "pool_stride": cfg.pool_stride}


def config_from_dict(d: dict) -> ModelConfig:
    """Inverse of ``config_to_dict``.  Only the ``build_config`` arguments are
    read: ``patch_edge`` and ``embed_stack`` follow from the extents, and a
    stored ``num_classes`` must be ``NUM_CLASSES``."""
    if d.get("num_classes", NUM_CLASSES) != NUM_CLASSES:
        raise ValueError(f"'num_classes' is {d['num_classes']!r}, every model has "
                         f"{NUM_CLASSES} classes {LABELS}")
    keys = ("model", "size", "norm", "extents", "pool_stride")
    return build_config(**{k: d[k] for k in keys if k in d})


def _size_name(size: ViTSizeConfig) -> str:
    for name, s in VIT_SIZES.items():
        if s == size:
            return name
    raise ValueError(f"non-standard size {size}")
