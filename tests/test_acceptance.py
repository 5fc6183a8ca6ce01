"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 trains real models on the default separable synthetic task and
dominates the suite's runtime (a few minutes on a desktop CPU); everything
else finishes in seconds.
"""

import math

import numpy as np
import pytest

from voxformer import data as D
from voxformer import models as M
from voxformer import nn
from voxformer import train as TR
from voxformer.gradcheck import gradcheck, sampled_gradcheck
from voxformer.optim import AdamW, TrainConfig, grid_enumerate, lr_at
from voxformer.tensor import Tensor
from voxformer.verify import operator_gradchecks, suite_norms


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def synth_task(tmp_path_factory):
    """The default separable synthetic 32^3 task, split 5-per-class."""
    root = tmp_path_factory.mktemp("synth32")
    cfg = D.SynthConfig(n_subjects=30, sessions_per_subject=2,
                        extents=(32, 32, 32), seed=7)
    D.synth_generate(root, cfg)
    records = D.read_manifest(root / D.MANIFEST_NAME)
    split = D.subject_split(records, test_per_class=5, seed=0)
    (root / D.SPLIT_NAME).write_text(split.to_json())
    return root


def test_criterion_01_parameter_count_reproduction():
    vvit = M.param_count(M.build_model(M.build_config("vvit", "tiny")))
    cvvt = M.param_count(M.build_model(M.build_config("cvvt", "tiny")))
    exact = vvit["embedding"] == 24_000_192
    enc_band = abs(vvit["encoder"] - 5_300_000) <= 530_000
    cvvt_band = 500_000 <= cvvt["embedding"] <= 3_000_000
    smaller = cvvt["embedding"] < cvvt["encoder"]
    report(1, exact and enc_band and cvvt_band and smaller,
           f"vvit embedding={vvit['embedding']} (want 24000192), "
           f"encoder={vvit['encoder']} (5.3M±10%), "
           f"cvvt embedding={cvvt['embedding']} in [0.5M,3M] and < encoder")


def test_criterion_02_patch_geometry():
    x = Tensor(np.zeros((1, 1, 169, 208, 179), np.float32))
    tokens = M.vvit_patchify(x, 50)
    by_shape = dict(M.shape_infer(M.build_config("vvit", "tiny")))["patchify"]
    cvvt_trace = dict(M.shape_infer(M.build_config("cvvt", "tiny")))
    grid_ok = cvvt_trace["embed.adaptive_pool"] == (1, 80, 10, 10, 10)
    tokens_ok = cvvt_trace["token_embed"][:2] == (1, 80)

    cfg = M.build_config("cvvt", "tiny", extents=(24, 24, 24))
    embedded = M.build_model(cfg, seed=0).embed(
        Tensor(np.zeros((1, 1, 24, 24, 24), np.float32)))
    report(2, tokens.shape[1] == 80 and by_shape == (1, 80, 125_000)
           and grid_ok and tokens_ok and embedded.shape[1] == 80,
           f"vvit patches={tokens.shape[1]} (want 80), cvvt grid/tokens "
           f"{cvvt_trace['embed.adaptive_pool']} -> {embedded.shape[1]} tokens")


def test_criterion_03_shape_oracle_full_adni_size():
    trace = dict(M.shape_infer(M.build_config("convnet3d4")))
    ok = (trace["block4.pool"] == (1, 512, 2, 2, 2)
          and trace["flatten"] == (1, 4096)
          and trace["embed"] == (1, 512))
    report(3, ok, f"(169,208,179): block4={trace['block4.pool']}, "
                  f"flatten={trace['flatten']}, embed={trace['embed']}")


def test_criterion_04_gradient_integrity():
    failures = [(name, r.max_rel_err) for name, r in operator_gradchecks()
                if not r.passed]

    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 1, 32, 32, 32)), dtype=np.float64)
    y = np.array([1])

    cvvt = M.build_model(M.build_config("cvvt", "tiny", extents=(32, 32, 32)),
                         seed=7, dtype=np.float64)
    r_cvvt = sampled_gradcheck(lambda: nn.cross_entropy(cvvt(x), y),
                               list(cvvt.named_parameters()), n_samples=20,
                               tol=1e-3, rng=np.random.default_rng(1))
    conv = M.build_model(M.build_config("convnet3d4", norm="in",
                                        extents=(32, 32, 32), pool_stride=2),
                         seed=8, dtype=np.float64)
    conv.eval()   # dropout identity: the loss must be deterministic under FD
    r_conv = sampled_gradcheck(lambda: nn.cross_entropy(conv(x), y),
                               list(conv.named_parameters()), n_samples=12,
                               tol=1e-3, rng=np.random.default_rng(2))
    report(4, not failures and r_cvvt.passed and r_conv.passed,
           f"operator failures={failures or 'none'}, "
           f"cvvt_32 max_rel={r_cvvt.max_rel_err:.2e}, "
           f"convnet_32 max_rel={r_conv.max_rel_err:.2e} (tol 1e-3)")


def test_criterion_05_normalization_identity():
    results = suite_norms()
    report(5, all(r.passed for r in results), results[0].detail)


def test_criterion_06_scheduler_and_optimizer_contracts():
    s = TrainConfig(lr=0.01, weight_decay=0.0, step_size=25, gamma=0.3)
    ramp_ok = (abs(lr_at(4, s) - 0.005) < 1e-15
               and lr_at(9, s) == 0.01
               and abs(lr_at(60, s) - 9e-4) < 1e-12)

    rng = np.random.default_rng(3)
    grads = rng.standard_normal(100)
    p = Tensor(np.array([0.25]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.002, weight_decay=0.0)
    theta, m, v = 0.25, 0.0, 0.0
    max_rel = 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.002 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        max_rel = max(max_rel, abs(p.data[0] - theta) / max(abs(theta), 1e-300))
    adam_ok = max_rel < 1e-10

    grid = grid_enumerate()
    grid_ok = len(grid) == 54
    report(6, ramp_ok and adam_ok and grid_ok,
           f"ramp/decay exact={ramp_ok}, adam oracle max_rel={max_rel:.2e} "
           f"(tol 1e-10), grid={len(grid)} (want 54)")


def test_criterion_07_loss_contract():
    loss = nn.cross_entropy(Tensor(np.zeros((1, 2), np.float64)), np.array([0]))
    ln2_ok = abs(loss.item() - math.log(2.0)) < 1e-7

    rng = np.random.default_rng(4)
    z = rng.standard_normal((5, 2))
    y = np.array([0, 1, 1, 0, 1])
    logits = Tensor(z, requires_grad=True)
    nn.cross_entropy(logits, y).backward()
    p = np.exp(z - z.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    p[np.arange(5), y] -= 1.0
    analytic_ok = np.abs(logits.grad - p / 5.0).max() < 1e-12
    fd = gradcheck(lambda t: nn.cross_entropy(t, y),
                   Tensor(z, requires_grad=True), tol=1e-6)
    report(7, ln2_ok and analytic_ok and fd.passed,
           f"uniform loss={loss.item():.9f} (ln2 ±1e-7), gradient matches "
           f"softmax-onehot and FD (max_rel={fd.max_rel_err:.2e}, tol 1e-6)")


def test_criterion_08_leakage_guards():
    def rec(subject, session, label, **kw):
        return D.VolumeRecord(subject_id=subject, session_id=session, label=label,
                              path=f"{subject}_{session}.vox", **kw)

    # adversarial manifest: every subject has three sessions
    records = []
    for i in range(20):
        label = D.LABELS[i % 2]
        for s in range(3):
            records.append(rec(f"sub-{i:03d}", f"ses-{s:02d}", label, visit_order=s + 1))
    violations = 0
    for seed in range(1000):
        split = D.subject_split(records, test_per_class=3, seed=seed)
        violations += len(set(split.train_subjects) & set(split.test_subjects))
        violations += len(split.audit["violations"])

    # precedence fixture covering all three tiers
    tier1 = D.scan_select([rec("s", "ses-01", "AD", visit_order=1),
                           rec("s", "ses-03", "AD", visit_order=3, preferred=True)])
    tier2 = D.scan_select([rec("s", "ses-01", "AD", visit_order=1, quality_rank=7),
                           rec("s", "ses-02", "AD", visit_order=2, quality_rank=1)])
    tier3 = D.scan_select([rec("s", "ses-a", "AD", visit_order=2),
                           rec("s", "ses-b", "AD", visit_order=1),
                           rec("s", "ses-c", "AD", visit_order=3)])
    cascade_ok = (tier1.session_id == "ses-03" and tier2.session_id == "ses-02"
                  and tier3.visit_order == 1)
    report(8, violations == 0 and cascade_ok,
           f"cross-split subjects over 1000 seeds={violations} (want 0), "
           f"cascade tiers preferred/quality/first-visit ok={cascade_ok}")


CONVNET_RUN = TR.RunConfig(
    model="convnet3d4", norm="in",
    train=TrainConfig(lr=0.001, weight_decay=0.001, step_size=25, gamma=0.3,
                      total_epochs=30, batch_size=1),
    seed=0, target_accuracy=0.95)

CVVT_RUN = TR.RunConfig(
    model="cvvt", size="tiny",
    train=TrainConfig(lr=0.0001, weight_decay=0.001, step_size=25, gamma=0.3,
                      total_epochs=60, batch_size=1),
    seed=0, target_accuracy=0.80)


def best_acc(rows):
    return max((r["test_acc"] for r in rows if r.get("event") == "epoch"), default=0.0)


@pytest.mark.slow
def test_criterion_09_end_to_end_learning(synth_task, tmp_path):
    conv_rows = TR.run_training(CONVNET_RUN, synth_task, tmp_path / "conv")
    conv_best = best_acc(conv_rows)
    conv_epochs = sum(1 for r in conv_rows if r.get("event") == "epoch")

    cvvt_rows = TR.run_training(CVVT_RUN, synth_task, tmp_path / "cvvt")
    cvvt_best = best_acc(cvvt_rows)
    cvvt_epochs = sum(1 for r in cvvt_rows if r.get("event") == "epoch")

    report(9, conv_best >= 0.95 and conv_epochs <= 30
           and cvvt_best >= 0.80 and cvvt_epochs <= 60,
           f"ConvNet3D-4-IN acc={conv_best:.3f} in {conv_epochs} epochs (>=0.95/30), "
           f"CVVT-tiny acc={cvvt_best:.3f} in {cvvt_epochs} epochs (>=0.80/60)")


@pytest.mark.slow
def test_criterion_10_determinism(synth_task, tmp_path):
    import dataclasses
    short = dataclasses.replace(
        CONVNET_RUN, target_accuracy=None,
        train=dataclasses.replace(CONVNET_RUN.train, total_epochs=2))
    for name in ("a", "b"):
        TR.run_training(short, synth_task, tmp_path / name)
    metrics_equal = ((tmp_path / "a" / TR.METRICS_NAME).read_bytes()
                     == (tmp_path / "b" / TR.METRICS_NAME).read_bytes())
    ckpt_equal = ((tmp_path / "a" / TR.CHECKPOINT_NAME).read_bytes()
                  == (tmp_path / "b" / TR.CHECKPOINT_NAME).read_bytes())
    report(10, metrics_equal and ckpt_equal,
           f"two identical-seed runs: metrics byte-equal={metrics_equal}, "
           f"checkpoint byte-equal={ckpt_equal}")
