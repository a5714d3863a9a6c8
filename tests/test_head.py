from __future__ import annotations

import numpy as np
import pytest

import sceneorder.autograd as ag
from sceneorder.autograd import NEG_INF, Tensor
from sceneorder.backbone import compute_masks, oracle_backbone, quarter_masks
from sceneorder.head import (
    HeadConfig,
    HeadOutput,
    NothingToOrder,
    OrderHead,
    descriptor_encoder,
    mask_pixel_embedding,
    select_tokens,
)
from sceneorder.layers import ConfigError, TransformerLayer
from sceneorder.losses import order_losses
from sceneorder.matching import Assignment, match_segments
from sceneorder.orders import validate_depth, validate_occlusion
from sceneorder.synth import SceneConfig, generate_scene, render

from fd import check_grads

TINY = HeadConfig(channels=8, heads=2, d_ffn=16, encoder_layers=1, decoder_layers=1, task_mlp_hidden=8, aux_loss=False)


def tiny_inputs(rng, n=2, h=3, w=3, c=8):
    q = Tensor(rng.standard_normal((n, c)), requires_grad=True)
    p = Tensor(rng.standard_normal((c, h, w)), requires_grad=True)
    masks = np.zeros((n, h, w), dtype=np.uint8)
    for i in range(n):
        masks[i, i : i + 2, :] = 1
        if i:
            masks[i] &= ~masks[:i].any(axis=0).astype(np.uint8) & 1
    return q, p, masks


# ---- select_tokens ------------------------------------------------------------


def test_select_all_above_threshold():
    q = Tensor(np.arange(12.0).reshape(3, 4))
    masks = np.ones((3, 2, 2), dtype=np.uint8)
    q_n, m_n, ids = select_tokens(q, masks, [0.9, 0.9, 0.9], threshold=0.8)
    assert ids.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(q_n.data, q.data)


def test_single_survivor_signals_nothing_to_order():
    q = Tensor(np.zeros((3, 4)))
    masks = np.ones((3, 2, 2), dtype=np.uint8)
    with pytest.raises(NothingToOrder) as exc:
        select_tokens(q, masks, [0.9, 0.1, 0.1], threshold=0.8)
    assert exc.value.count == 1


def test_threshold_is_strict():
    q = Tensor(np.zeros((3, 4)))
    masks = np.ones((3, 2, 2), dtype=np.uint8)
    with pytest.raises(NothingToOrder):
        select_tokens(q, masks, [0.8, 0.8, 0.9], threshold=0.8)


def test_training_selection_follows_assignment_order():
    q = Tensor(np.arange(12.0).reshape(3, 4))
    masks = np.stack([np.full((2, 2), i, dtype=np.uint8) for i in range(3)])
    assignment = Assignment(((0, 2), (1, 0), (2, 1)), 0.0)
    q_n, m_n, ids = select_tokens(q, masks, None, assignment=assignment)
    assert ids.tolist() == [1, 2, 0]  # pred row per gt index 0,1,2
    np.testing.assert_array_equal(q_n.data, q.data[[1, 2, 0]])
    np.testing.assert_array_equal(m_n, masks[[1, 2, 0]])


# ---- mask_pixel_embedding -------------------------------------------------------


def test_mask_all_ones_keeps_p():
    rng = np.random.default_rng(0)
    p = Tensor(rng.standard_normal((4, 3, 3)))
    pm, empty = mask_pixel_embedding(p, np.ones((1, 3, 3), dtype=np.uint8))
    np.testing.assert_array_equal(pm.data[0], p.data)
    assert not empty.any()


def test_mask_all_zeros_flags_empty():
    p = Tensor(np.ones((4, 3, 3)))
    pm, empty = mask_pixel_embedding(p, np.zeros((1, 3, 3), dtype=np.uint8))
    assert not pm.data.any()
    assert empty.tolist() == [True]


def test_disjoint_masks_elementwise_product_zero():
    rng = np.random.default_rng(1)
    p = Tensor(rng.standard_normal((4, 4, 4)))
    masks = np.zeros((2, 4, 4), dtype=np.uint8)
    masks[0, :2] = 1
    masks[1, 2:] = 1
    pm, _ = mask_pixel_embedding(p, masks)
    assert not (pm.data[0] * pm.data[1]).any()


def test_mask_resolution_mismatch():
    with pytest.raises(ConfigError):
        mask_pixel_embedding(Tensor(np.zeros((4, 3, 3))), np.ones((1, 2, 2), dtype=np.uint8))


# ---- descriptor encoder ----------------------------------------------------------


def test_plain_masked_maxpool_with_zero_layers():
    # masked region values {1.0, 3.0, -2.0}: descriptor channel = 3.0
    p = Tensor(np.zeros((1, 2, 2)))
    p.data[0] = [[1.0, 3.0], [-2.0, 100.0]]
    masks = np.array([[[1, 1], [1, 0]]], dtype=np.uint8)
    d = descriptor_encoder(p, masks, layers=[])
    assert d.data[0, 0] == 3.0


def test_empty_mask_zero_descriptor():
    p = Tensor(np.ones((3, 2, 2)))
    masks = np.zeros((2, 2, 2), dtype=np.uint8)
    masks[0, 0, 0] = 1
    d = descriptor_encoder(p, masks, layers=[])
    assert not d.data[1].any()
    assert d.data[0].all()


def test_gathered_encoder_matches_full_grid_masked_attention():
    """The packed implementation must equal the literal computation:
    all positions as tokens, -inf additive key mask, pool over in-mask only."""
    rng = np.random.default_rng(2)
    c, h, w = 8, 3, 4
    layer = TransformerLayer(rng, c, heads=2, d_ffn=16)
    p = Tensor(rng.standard_normal((c, h, w)))
    masks = np.zeros((2, h, w), dtype=np.uint8)
    masks[0, 0:2, 0:2] = 1
    masks[1, 2, 1:4] = 1
    pm, _ = mask_pixel_embedding(p, masks)
    fast = descriptor_encoder(p, masks, [layer])

    for i in range(2):
        tokens = Tensor(pm.data[i].reshape(c, h * w).T)  # all positions
        keep = masks[i].reshape(-1).astype(bool)
        addmask = np.where(keep, 0.0, NEG_INF)
        out = layer(tokens, addmask=addmask)
        pooled = out.data[keep].max(axis=0)
        np.testing.assert_allclose(fast.data[i], pooled, atol=1e-12)


# ---- decoder / compatibility / heads ----------------------------------------------


def test_zero_residual_decoder_passes_tokens_through():
    rng = np.random.default_rng(3)
    head = OrderHead(rng, HeadConfig(channels=8, heads=2, d_ffn=16, decoder_layers=2, aux_loss=False))
    for layer in head.decoder:
        layer.attn.wo.weight.data[...] = 0
        layer.attn.wo.bias.data[...] = 0
        layer.ffn2.weight.data[...] = 0
        layer.ffn2.bias.data[...] = 0
    q = Tensor(rng.standard_normal((3, 8)))
    d = Tensor(rng.standard_normal((3, 8)))
    q_star, d_star = head.interaction_decoder(q, d)
    np.testing.assert_allclose(q_star.data[-1], head.mlp_queries(q).data, atol=1e-12)
    np.testing.assert_allclose(d_star.data[-1], head.mlp_descriptors(d).data, atol=1e-12)
    assert q_star.shape == (1, 3, 8) and d_star.shape == (1, 3, 8)


def test_compatibility_identity_and_hand_case():
    eye = Tensor(np.eye(2))
    np.testing.assert_array_equal(OrderHead.compatibility(eye, eye).data, np.eye(2))
    d = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]))
    np.testing.assert_array_equal(OrderHead.compatibility(eye, d).data, [[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(OrderHead.compatibility(eye, d * 2.0).data, 2 * OrderHead.compatibility(eye, d).data)


def test_single_task_head_omits_other_logits():
    rng = np.random.default_rng(4)
    cfg = HeadConfig(channels=8, heads=2, d_ffn=16, decoder_layers=1, tasks=("occlusion",), aux_loss=False)
    head = OrderHead(rng, cfg)
    q, p, masks = tiny_inputs(rng)
    out = head.run(q, masks, p, np.arange(2))
    assert out.depth_logits is None and out.occ_logits is not None
    with pytest.raises(ConfigError):
        out.depth_matrix()


def test_decision_rules():
    out = HeadOutput(
        occ_logits=Tensor(np.array([[[0.0, 2.0], [-3.0, 0.0]]])),
        depth_logits=Tensor(np.zeros((1, 2, 2, 3))),
        selected_ids=np.arange(2),
    )
    occ = out.occlusion_matrix()
    assert occ.entries[0, 1] == 1 and occ.entries[1, 0] == 0
    out.depth_logits.data[0, 0, 1] = [0.0, 3.0, 1.0]
    out.depth_logits.data[0, 1, 0] = [5.0, 1.0, 0.0]
    depth = out.depth_matrix()
    assert depth.entries[0, 1] == 1 and depth.entries[1, 0] == 0


def test_coherent_depth_decode_always_valid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = HeadOutput(None, Tensor(rng.standard_normal((1, 4, 4, 3))), np.arange(4))
        assert validate_depth(out.depth_matrix(coherence=True)) == []


def test_aux_outputs_one_per_decoder_layer():
    rng = np.random.default_rng(6)
    cfg = HeadConfig(channels=8, heads=2, d_ffn=16, decoder_layers=3, aux_loss=True, task_mlp_hidden=8)
    head = OrderHead(rng, cfg)
    q, p, masks = tiny_inputs(rng)
    out = head.run(q, masks, p, np.arange(2))
    assert out.occ_logits.shape == (3, 2, 2)  # intermediate layers, then the final one
    assert out.depth_logits.shape == (3, 2, 2, 3)
    with ag.no_grad():
        final = head.run(q, masks, p, np.arange(2))
    assert final.occ_logits.shape == (1, 2, 2)
    np.testing.assert_array_equal(final.occ_logits.data[0], out.occ_logits.data[-1])
    np.testing.assert_array_equal(final.depth_logits.data[0], out.depth_logits.data[-1])


def test_one_forward_per_image_regardless_of_n():
    rng = np.random.default_rng(7)
    head = OrderHead(rng, TINY)
    for n in (2, 3, 4):
        q, p, masks = tiny_inputs(rng, n=max(2, n), h=5, w=5)
        before = head.forward_count
        head.run(q, masks[: max(2, n)], p, np.arange(max(2, n)))
        assert head.forward_count == before + 1


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    head = OrderHead(rng, HeadConfig(channels=8, heads=2, d_ffn=16, decoder_layers=2, aux_loss=False, task_mlp_hidden=8))
    n, h, w = 4, 4, 4
    q = Tensor(rng.standard_normal((n, 8)))
    p = Tensor(rng.standard_normal((8, h, w)))
    masks = np.zeros((n, h, w), dtype=np.uint8)
    for i in range(n):
        masks[i, i, :] = 1
    out = head.run(q, masks, p, np.arange(n))
    perm = np.array([2, 0, 3, 1])
    out_p = head.run(ag.take_rows(q, perm), masks[perm], p, perm)
    np.testing.assert_allclose(out_p.occ_logits.data[-1], out.occ_logits.data[-1][np.ix_(perm, perm)], atol=1e-10)
    np.testing.assert_allclose(out_p.depth_logits.data[-1], out.depth_logits.data[-1][np.ix_(perm, perm)], atol=1e-10)


def test_full_head_gradients_against_finite_differences():
    rng = np.random.default_rng(9)
    head = OrderHead(rng, TINY)
    q, p, masks = tiny_inputs(rng, n=2, h=3, w=3)
    gt_occ_entries = np.array([[-1, 1], [0, -1]])
    gt_depth_entries = np.array([[-1, 1], [0, -1]])
    from sceneorder.orders import DepthMatrix, OcclusionMatrix

    gt_occ = OcclusionMatrix(2, gt_occ_entries)
    gt_depth = DepthMatrix(2, gt_depth_entries)

    def loss_fn():
        out = head.run(q, masks, p, np.arange(2))
        return order_losses(out, gt_occ, gt_depth, 5.0, 5.0)

    leaves = [q, p] + head.params()
    check_grads(loss_fn, leaves, tol=1e-4)


def test_step0_outputs_finite_and_decodable_with_oracle():
    rng = np.random.default_rng(10)
    sample = render(generate_scene(0, SceneConfig()))
    bb = oracle_backbone(sample)
    head = OrderHead(rng, HeadConfig())
    masks = compute_masks(bb.Q, bb.P)
    assignment = match_segments(list(masks), bb.confidences, list(quarter_masks(sample)))
    out = head.forward(bb, masks, assignment=assignment)
    assert np.isfinite(out.occ_logits.data).all()
    assert np.isfinite(out.depth_logits.data).all()
    assert validate_occlusion(out.occlusion_matrix()) == []
    assert validate_depth(out.depth_matrix(coherence=True)) == []


def test_config_validation():
    with pytest.raises(ConfigError):
        HeadConfig(decoder_layers=0).validate()
    with pytest.raises(ConfigError):
        HeadConfig(input_modality="bogus").validate()
    with pytest.raises(ConfigError):
        HeadConfig(tasks=()).validate()
    with pytest.raises(ConfigError):
        HeadConfig(channels=10, heads=4).validate()
    HeadConfig.paper_scale().validate()
