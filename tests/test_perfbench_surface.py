"""Guard for the surface the benchmark's tracer wraps.

``perfbench/tracer.py`` wraps voxformer functions and the ``forward`` of
named classes by attribute name, reading each class's own ``vars``.  A
rename, or a ``forward`` moved into a base class, breaks the traced
benchmark run; this test breaks first.
"""

from pathlib import Path

import numpy as np
import pytest

from voxformer import cli, data, models, nn, optim, tensor, train

MODULES = (cli, data, models, nn, optim, tensor, train)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    return tracer


def test_tracer_install_and_uninstall_restore_every_attribute(tracer):

    owners = list(MODULES) + [v for m in MODULES for v in vars(m).values()
                              if isinstance(v, type) and v.__module__.startswith("voxformer.")]
    before = {id(o): dict(vars(o)) for o in owners}

    t = tracer.Tracer()
    tracer.install(t)
    try:
        patched = list(t._patches)
        assert patched
        for owner, attr, original in patched:
            assert id(owner) in before, owner
            assert before[id(owner)][attr] is original, f"{owner.__name__}.{attr}"
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        t.uninstall()

    for o in owners:
        after = vars(o)
        assert after.keys() == before[id(o)].keys(), o.__name__
        changed = [k for k, v in before[id(o)].items() if after[k] is not v]
        assert not changed, f"{o.__name__}: {changed} not restored"


# spans that a per-layer metric of BENCHMARK.json reads, and one model forward
# and backward pass per architecture that must record them
SPANS = {"nn.conv3d", "nn.conv3d.backward", "nn.maxpool3d", "nn.instance_norm",
         "nn.adaptive_avg_pool3d", "nn.layer_norm", "nn.attention", "nn.linear",
         "nn.cross_entropy", "tensor.backward", "models.forward"}
MODELS = [("convnet3d4", (32, 32, 32), {"pool_stride": 2}),
          ("cvvt", (24, 24, 24), {}),
          ("vvit", (8, 8, 8), {})]


def test_model_passes_record_every_traced_span(tracer):
    """A layer that calls a kernel by a name the tracer does not wrap (such as
    ``from .nn import maxpool3d``) records no span, and its metric reads 0."""
    t = tracer.Tracer()
    tracer.install(t)
    try:
        for name, extents, kwargs in MODELS:
            model = models.build_model(models.build_config(name, "tiny", extents=extents,
                                                           **kwargs))
            x = tensor.Tensor(np.random.default_rng(0).standard_normal((1, 1) + extents)
                              .astype(np.float32))
            nn.cross_entropy(model(x), [1]).backward()
    finally:
        t.uninstall()
    assert SPANS - {s.name for s in t.spans} == set()
