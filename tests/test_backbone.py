from __future__ import annotations

import numpy as np
import pytest

import sceneorder.autograd as ag
from sceneorder.autograd import Tensor
from sceneorder.backbone import (
    BackboneOutput,
    CapacityError,
    TinyBackbone,
    backbone_losses,
    compute_masks,
    image_feature_planes,
    oracle_backbone,
    quarter_masks,
)
from sceneorder.layers import ConfigError
from sceneorder.matching import match_segments
from sceneorder.optim import AdamW
from sceneorder.synth import SceneConfig, generate_scene, render


def sample_for(seed=0, **kw):
    return render(generate_scene(seed, SceneConfig(**kw)))


def test_zero_query_row_gives_all_ones_mask():
    # sigma(0) = 0.5 and the rounding rule maps >= 0.5 to 1
    P = np.zeros((4, 2, 2))
    Q = np.zeros((1, 4))
    assert compute_masks(Q, P).all()


def test_saturated_entries():
    P = np.full((1, 1, 2), 10.0)
    P[0, 0, 1] = -10.0
    Q = np.ones((1, 1))
    np.testing.assert_array_equal(compute_masks(Q, P)[0], [[1, 0]])


def test_masks_match_the_clipped_logistic_formula():
    """compute_masks thresholds autograd.sigmoid_np. The clipped formula it
    replaced, 1/(1+exp(-clip(x, -500, 500))), gives the same masks except on
    negative logits within about 6e-16 of zero, such as -1e-16: there the
    old formula rounded the probability up to exactly 0.5 (mask 1), while
    sigmoid_np keeps it below 0.5 (mask 0)."""
    rng = np.random.default_rng(0)
    special = np.array([1e-16, -1e-16, 500.0, -500.0, 800.0, -800.0, 0.0, -0.0])
    logits = np.concatenate([special, rng.normal(scale=30.0, size=2000), rng.normal(scale=1e-15, size=2000)])
    new = compute_masks(logits[:, None], np.ones((1, 1, 1))).reshape(-1)
    old = (1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500))) >= 0.5).astype(np.uint8)
    np.testing.assert_array_equal(new[:8], [1, 0, 1, 0, 1, 0, 1, 1])
    np.testing.assert_array_equal(old[:8], [1, 1, 1, 0, 1, 0, 1, 1])
    differ = new != old
    assert differ.sum() > 1 and (new[differ] == 0).all()
    assert ((logits[differ] < 0) & (logits[differ] > -6e-16)).all()


def test_compute_masks_shape_mismatch():
    with pytest.raises(ConfigError):
        compute_masks(np.zeros((2, 5)), np.zeros((4, 2, 2)))


def test_oracle_reconstructs_masks_exactly():
    for seed in range(10):
        sample = sample_for(seed)
        out = oracle_backbone(sample)
        masks = compute_masks(out.Q, out.P)
        np.testing.assert_array_equal(masks[: sample.n], quarter_masks(sample))


def test_oracle_confidences_and_threshold():
    sample = sample_for(1)
    out = oracle_backbone(sample)
    kept = out.confidences > 0.8
    assert kept.sum() == sample.n
    assert not out.confidences[sample.n :].any()


def test_oracle_capacity_error():
    sample = sample_for(2)
    with pytest.raises(CapacityError):
        oracle_backbone(sample, num_queries=sample.n - 1)


def test_oracle_permutation_equivariance():
    sample = sample_for(3)
    out = oracle_backbone(sample)
    perm = np.random.default_rng(0).permutation(sample.n)
    permuted = sample_for(3)
    permuted.masks = permuted.masks[perm]
    permuted.categories = [sample.categories[i] for i in perm]
    out_p = oracle_backbone(permuted)
    # mask channels follow the instance order, query rows stay the unit basis
    np.testing.assert_array_equal(out_p.P.data[: sample.n], out.P.data[perm])
    np.testing.assert_array_equal(out_p.Q.data, out.Q.data)


def test_image_feature_planes_bbox_recovery():
    sample = sample_for(4)
    feats = image_feature_planes(sample.image, 16)
    masks_q = quarter_masks(sample)
    region = masks_q[0].astype(bool)
    xs = feats[5][region]
    # max of the x-ramp over the mask reaches the right edge of the quarter bbox
    cols = np.nonzero(region.any(axis=0))[0]
    expected = (cols.max() + 0.5) / region.shape[1]
    assert xs.max() == pytest.approx(expected)


def test_tiny_backbone_output_contract():
    rng = np.random.default_rng(5)
    bb = TinyBackbone(rng, image_size=32, channels=32, heads=4, num_queries=8, d_ffn=64)
    out = bb.forward(np.zeros((32, 32, 3)))
    assert out.Q.shape == (8, 32)
    assert out.P.shape == (32, 8, 8)
    assert out.confidences.shape == (8,)
    assert ((out.confidences >= 0) & (out.confidences <= 1)).all()


def matched(out, gt_q):
    return match_segments(list(compute_masks(out.Q, out.P)), out.confidences, list(gt_q))


def test_tiny_backbone_gradient_reaches_patch_embed():
    rng = np.random.default_rng(6)
    bb = TinyBackbone(rng, image_size=16, channels=16, heads=2, num_queries=4, d_ffn=32)
    sample = sample_for(0, size=16, n_min=2, n_max=2)
    gt_q = quarter_masks(sample)

    def loss_fn():
        out = bb.forward(sample.image)
        return backbone_losses(out, gt_q, matched(out, gt_q))

    loss = loss_fn()
    loss.backward()
    w = bb.patch_embed.weight
    assert w.grad is not None and np.abs(w.grad).max() > 0
    # central-difference spot check on a few weight entries
    flat = w.data.reshape(-1)
    gflat = w.grad.reshape(-1)
    idx = np.argsort(-np.abs(gflat))[:4]
    h = 1e-6
    for k in idx:
        orig = flat[k]
        flat[k] = orig + h
        up = loss_fn().item()
        flat[k] = orig - h
        down = loss_fn().item()
        flat[k] = orig
        fd = (up - down) / (2 * h)
        assert abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-8) < 1e-4


def test_frozen_backbone_only_adapters_move():
    rng = np.random.default_rng(7)
    bb = TinyBackbone(rng, image_size=16, channels=16, heads=2, num_queries=4, d_ffn=32)
    bb.freeze()
    bb.enable_adapters(rng, "ffn_only", adapter_dim=8)
    sample = sample_for(1, size=16, n_min=2, n_max=2)
    before = {k: v.copy() for k, v in bb.state_arrays().items()}
    params = bb.params()
    assert all("adapter" in name for name in bb.named_params())
    opt = AdamW(params, lr=1e-2)
    out = bb.forward(sample.image)
    gt_q = quarter_masks(sample)
    loss = backbone_losses(out, gt_q, matched(out, gt_q))
    loss.backward()
    opt.step()
    after = bb.state_arrays()
    for name in before:
        if "adapter" in name:
            continue
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)
    moved = [n for n in before if "adapter" in n and not np.array_equal(after[n], before[n])]
    assert moved


def test_adapters_identity_at_init_for_backbone():
    rng = np.random.default_rng(8)
    bb = TinyBackbone(rng, image_size=16, channels=16, heads=2, num_queries=4, d_ffn=32)
    sample = sample_for(2, size=16, n_min=2, n_max=2)
    plain = bb.forward(sample.image)
    bb.enable_adapters(rng, "attn_and_ffn", adapter_dim=8)
    adapted = bb.forward(sample.image)
    np.testing.assert_array_equal(plain.Q.data, adapted.Q.data)
    np.testing.assert_array_equal(plain.P.data, adapted.P.data)
    np.testing.assert_array_equal(plain.confidences, adapted.confidences)
