from __future__ import annotations

import numpy as np
import pytest

from sceneorder.autograd import Tensor
from sceneorder.baselines import (
    PairwiseNet,
    area_order,
    depth_from_depthmap,
    pairwise_infer_matrices,
    yaxis_depth,
    yaxis_occlusion,
)
from sceneorder.layers import ConfigError
from sceneorder.losses import bce_with_logits, ce_with_logits
from sceneorder.optim import AdamW
from sceneorder.orders import I_FRONT, J_FRONT, OVERLAP, validate_depth, validate_occlusion
from sceneorder.synth import SceneConfig, generate_scene, render


def mask_at(h, w, sl):
    m = np.zeros((h, w), dtype=np.uint8)
    m[sl] = 1
    return m


# ---- y-axis -------------------------------------------------------------------


def test_yaxis_lower_centroid_is_front():
    lo = mask_at(10, 10, np.s_[8:10, 0:4])  # centroid y ~ 8.5
    hi = mask_at(10, 10, np.s_[2:4, 6:10])  # centroid y ~ 2.5
    d = yaxis_depth([lo, hi])
    assert d.entries[0, 1] == 1 and d.entries[1, 0] == 0


def test_yaxis_identical_masks_tie_as_overlap():
    m = mask_at(8, 8, np.s_[2:5, 2:5])
    d = yaxis_depth([m, m])
    assert d.entries[0, 1] == 2 and d.entries[1, 0] == 2


def test_yaxis_monotone_stack_fully_ordered():
    masks = [mask_at(12, 12, np.s_[r : r + 2, 0:12]) for r in (8, 4, 0)]
    d = yaxis_depth(masks)
    assert validate_depth(d) == []
    assert d.entries[0, 1] == 1 and d.entries[0, 2] == 1 and d.entries[1, 2] == 1


def test_yaxis_empty_mask_excluded():
    m = mask_at(8, 8, np.s_[0:4, 0:4])
    d = yaxis_depth([m, np.zeros((8, 8), dtype=np.uint8)])
    assert d.entries[0, 1] == 0 and d.entries[1, 0] == 0


# ---- area ---------------------------------------------------------------------


def test_area_bigger_is_closer():
    big = mask_at(10, 10, np.s_[0:10, 0:10])
    small = mask_at(10, 10, np.s_[0:5, 0:5])
    d = area_order([big, small], "depth")
    assert d.entries[0, 1] == 1


def test_area_occlusion_needs_bbox_contact():
    a = mask_at(10, 10, np.s_[0:3, 0:3])
    b = mask_at(10, 10, np.s_[7:10, 7:10])
    occ = area_order([a, b], "occlusion")
    assert not (occ.entries == 1).any()


def test_area_occlusion_bigger_wins_on_contact():
    big = mask_at(10, 10, np.s_[0:6, 0:6])
    small = mask_at(10, 10, np.s_[4:7, 4:7])
    occ = area_order([big, small], "occlusion")
    assert occ.entries[0, 1] == 1 and occ.entries[1, 0] == 0


def test_area_equal_no_edge():
    a = mask_at(10, 10, np.s_[0:4, 0:4])
    b = mask_at(10, 10, np.s_[2:6, 2:6])
    occ = area_order([a, b], "occlusion")
    assert not (occ.entries == 1).any()


def test_area_bad_task():
    with pytest.raises(ConfigError):
        area_order([mask_at(4, 4, np.s_[0:2, 0:2])], "segmentation")


# ---- depth-map heuristics -------------------------------------------------------


def test_minmax_overlapping_ranges():
    depth_map = np.zeros((4, 4))
    depth_map[0] = [1.0, 3.0, 2.0, 5.0]
    a = mask_at(4, 4, np.s_[0:1, 0:2])  # depths {1,3}
    b = mask_at(4, 4, np.s_[0:1, 2:4])  # depths {2,5}
    d = depth_from_depthmap(depth_map, [a, b], "minmax")
    assert d.entries[0, 1] == 2


def test_mean_ordering():
    depth_map = np.full((4, 4), 5.0)
    depth_map[0:2] = 2.0
    a = mask_at(4, 4, np.s_[0:2, :])
    b = mask_at(4, 4, np.s_[2:4, :])
    d = depth_from_depthmap(depth_map, [a, b], "mean")
    assert d.entries[0, 1] == 1  # smaller depth = closer


def test_identical_stats_tie():
    depth_map = np.full((4, 4), 3.0)
    whole = np.ones((4, 4), dtype=np.uint8)
    for h in ("minmax", "mean", "median"):
        d = depth_from_depthmap(depth_map, [whole, whole], h)
        assert d.entries[0, 1] == 2 and d.entries[1, 0] == 2


def test_unknown_heuristic():
    with pytest.raises(ConfigError):
        depth_from_depthmap(np.zeros((4, 4)), [np.ones((4, 4))], "mode")


def test_depthmap_heuristics_match_oracle_on_flat_scenes():
    cfg = SceneConfig(thick_rate=0.0, bidirectional_rate=0.0)
    for seed in range(10):
        sample = render(generate_scene(seed, cfg))
        masks = list(sample.masks)
        for h in ("minmax", "mean", "median"):
            d = depth_from_depthmap(sample.depth_map, masks, h)
            np.testing.assert_array_equal(d.entries, sample.gt_depth.entries, err_msg=f"{h} seed={seed}")


def test_heuristics_validate_on_generated_scenes():
    cfg = SceneConfig()
    for seed in range(10):
        sample = render(generate_scene(seed, cfg))
        masks = list(sample.masks)
        assert validate_depth(yaxis_depth(masks)) == []
        assert validate_depth(area_order(masks, "depth")) == []
        assert validate_occlusion(area_order(masks, "occlusion")) == []
        assert validate_occlusion(yaxis_occlusion(masks)) == []
        for h in ("minmax", "mean", "median"):
            assert validate_depth(depth_from_depthmap(sample.depth_map, masks, h)) == []


# ---- pairwise network ------------------------------------------------------------


def test_pairwise_output_arity():
    rng = np.random.default_rng(0)
    net = PairwiseNet(rng, image_size=16, width=4)
    occ, depth = net.forward(np.zeros((16, 16, 3)), np.zeros((16, 16)), np.ones((16, 16)))
    assert occ.shape == (2,) and depth.shape == (3,)


def test_pairwise_resolution_mismatch():
    rng = np.random.default_rng(1)
    net = PairwiseNet(rng, image_size=16, width=4)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((16, 16, 3)), np.zeros((8, 8)), np.zeros((16, 16)))


def test_full_image_inference_is_quadratic_in_pairs():
    rng = np.random.default_rng(2)
    net = PairwiseNet(rng, image_size=32, width=4)
    sample = render(generate_scene(0, SceneConfig(size=32, n_min=4, n_max=4)))
    occ, depth = pairwise_infer_matrices(net, sample.image, sample.masks)
    assert net.forward_count == 4 * 3 // 2
    assert occ.n == 4 and depth.n == 4


def test_swap_symmetry_after_training_on_symmetric_data():
    """Training with pair-swap augmentation: swapping (A,B) inputs should
    (statistically) flip the two occlusion logits' roles."""
    rng = np.random.default_rng(3)
    net = PairwiseNet(rng, image_size=32, width=4)
    cfg = SceneConfig(size=32, n_min=2, n_max=3, bidirectional_rate=0.0)
    samples = [render(generate_scene(s, cfg)) for s in range(20)]
    opt = AdamW(net.params(), lr=5e-3)
    order = np.random.default_rng(4)
    for step in range(800):
        sample = samples[step % len(samples)]
        i, j = order.choice(sample.n, size=2, replace=False)
        if order.random() < 0.5:
            i, j = j, i  # swap augmentation
        occ_logits, depth_logits = net.forward(sample.image, sample.masks[i], sample.masks[j])
        occ_t = np.array([sample.gt_occlusion.entries[i, j], sample.gt_occlusion.entries[j, i]], dtype=float)
        # entries[i, j] of a valid matrix is the code of (i, j) seen from i;
        # the depth classes are (first input in front, second in front, overlap)
        depth_t = [I_FRONT, J_FRONT, OVERLAP].index(sample.gt_depth.entries[i, j])
        loss = bce_with_logits(occ_logits, occ_t) + ce_with_logits(depth_logits.reshape(1, 3), np.array([depth_t]))
        net.zero_grad()
        loss.backward()
        opt.step()

    forwards = []
    swapped = []
    for sample in samples:
        for i in range(sample.n):
            for j in range(i + 1, sample.n):
                ab, _ = net.forward(sample.image, sample.masks[i], sample.masks[j])
                ba, _ = net.forward(sample.image, sample.masks[j], sample.masks[i])
                forwards.extend([ab.data[0], ab.data[1]])
                swapped.extend([ba.data[1], ba.data[0]])
    corr = np.corrcoef(forwards, swapped)[0, 1]
    assert corr > 0.5, corr
