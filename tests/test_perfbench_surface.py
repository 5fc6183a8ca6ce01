"""Guard for the surface the benchmark's tracer wraps.

``perfbench/tracer.py`` wraps voxformer functions and the ``forward`` of
named classes by attribute name, reading each class's own ``vars``.  A
rename, or a ``forward`` moved into a base class, breaks the traced
benchmark run; this test breaks first.
"""

from pathlib import Path

from voxformer import cli, data, models, nn, optim, tensor, train

MODULES = (cli, data, models, nn, optim, tensor, train)


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

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
