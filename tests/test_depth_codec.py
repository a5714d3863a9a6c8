"""The depth pair codec against the per-pair loops it replaced.

Each ``ref_*`` function below is the loop that produced or read depth
relations before ``orders`` owned the encoding, kept verbatim as the
reference. The rewritten functions must return identical entries and
sums on random inputs that are rich in exact ties: equal scores, score
differences exactly at ``tau``, touching z-intervals and empty masks.
"""

from __future__ import annotations

import numpy as np
import pytest

from sceneorder.autograd import Tensor
from sceneorder.baselines import area_order, depth_from_depthmap, pairwise_infer_matrices
from sceneorder.head import HeadOutput
from sceneorder.metrics import whdr_sums
from sceneorder.orders import OVERLAP, DepthMatrix, OcclusionMatrix, depth_from_scores, validate_depth
from sceneorder.synth import LayeredScene, Shape, _instance_intervals, oracle_depth

PAIR_NONE = 3


def ref_oracle_depth(scene):
    intervals = _instance_intervals(scene)
    mat = DepthMatrix.empty(scene.n_instances)
    mat.pair_weights = np.ones((scene.n_instances, scene.n_instances))
    for i in range(scene.n_instances):
        for j in range(i + 1, scene.n_instances):
            (lo_i, hi_i), (lo_j, hi_j) = intervals[i], intervals[j]
            if hi_i < lo_j:
                mat.entries[i, j] = 1
            elif hi_j < lo_i:
                mat.entries[j, i] = 1
            else:
                mat.entries[i, j] = mat.entries[j, i] = 2
    return mat


def ref_depth_from_scores(scores, n):
    mat = DepthMatrix.empty(n)
    mat.pair_weights = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = scores[i], scores[j]
            if si is None or sj is None:
                continue
            if si > sj:
                mat.entries[i, j] = 1
            elif sj > si:
                mat.entries[j, i] = 1
            else:
                mat.entries[i, j] = mat.entries[j, i] = 2
    return mat


def ref_depth_from_depthmap(depth_map, masks, heuristic, tau=0.0):
    n = len(masks)
    values = []
    for m in masks:
        sel = depth_map[np.asarray(m, dtype=bool)]
        values.append(sel if sel.size else None)

    if heuristic == "minmax":
        mat = DepthMatrix.empty(n)
        mat.pair_weights = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if values[i] is None or values[j] is None:
                    continue
                lo_i, hi_i = values[i].min(), values[i].max()
                lo_j, hi_j = values[j].min(), values[j].max()
                if hi_i < lo_j:
                    mat.entries[i, j] = 1
                elif hi_j < lo_i:
                    mat.entries[j, i] = 1
                else:
                    mat.entries[i, j] = mat.entries[j, i] = 2
        return mat

    stat = np.mean if heuristic == "mean" else np.median
    mat = DepthMatrix.empty(n)
    mat.pair_weights = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] is None or values[j] is None:
                continue
            di, dj = float(stat(values[i])), float(stat(values[j]))
            if abs(di - dj) <= tau:
                mat.entries[i, j] = mat.entries[j, i] = 2
            elif di < dj:  # smaller depth = closer
                mat.entries[i, j] = 1
            else:
                mat.entries[j, i] = 1
    return mat


def ref_coherent_depth(logits, n):
    mat = DepthMatrix.empty(n)
    for i in range(n):
        for j in range(i + 1, n):
            scores = (
                logits[i, j, 1] + logits[j, i, 0],  # i in front
                logits[i, j, 0] + logits[j, i, 1],  # j in front
                logits[i, j, 2] + logits[j, i, 2],  # overlapping ranges
            )
            k = int(np.argmax(scores))
            if k == 0:
                mat.entries[i, j], mat.entries[j, i] = 1, 0
            elif k == 1:
                mat.entries[i, j], mat.entries[j, i] = 0, 1
            else:
                mat.entries[i, j] = mat.entries[j, i] = 2
    return mat


def ref_pairwise_infer_matrices(net, image, masks):
    n = masks.shape[0]
    occ = OcclusionMatrix.empty(n)
    depth = DepthMatrix.empty(n)
    for i in range(n):
        for j in range(i + 1, n):
            occ_logits, depth_logits = net.forward(image, masks[i], masks[j])
            if occ_logits.data[0] > 0:
                occ.entries[i, j] = 1
            if occ_logits.data[1] > 0:
                occ.entries[j, i] = 1
            k = int(np.argmax(depth_logits.data))
            if k == 0:  # i in front
                depth.entries[i, j], depth.entries[j, i] = 1, 0
            elif k == 1:
                depth.entries[i, j], depth.entries[j, i] = 0, 1
            else:
                depth.entries[i, j] = depth.entries[j, i] = 2
    return occ, depth


def ref_pair_relation(entries, i, j):
    if entries[i, j] == OVERLAP and entries[j, i] == OVERLAP:
        return OVERLAP
    if entries[i, j] == 1:
        return 1
    if entries[j, i] == 1:
        return 0
    return PAIR_NONE


def ref_whdr_sums(pred, gt):
    sums = {"distinct": [0.0, 0.0], "overlap": [0.0, 0.0], "all": [0.0, 0.0]}
    n = gt.n
    for i in range(n):
        for j in range(i + 1, n):
            g = ref_pair_relation(gt.entries, i, j)
            if g == PAIR_NONE:
                continue
            category = "overlap" if g == OVERLAP else "distinct"
            w = gt.weight(i, j)
            wrong = float(ref_pair_relation(pred.entries, i, j) != g)
            for key in (category, "all"):
                sums[key][0] += w * wrong
                sums[key][1] += w
    return {k: (num, den) for k, (num, den) in sums.items()}


def assert_same(got: DepthMatrix, want: DepthMatrix):
    np.testing.assert_array_equal(got.entries, want.entries)
    assert got.entries.dtype == want.entries.dtype


def random_masks(rng, n, size=8):
    masks = (rng.random((n, size, size)) < 0.3).astype(np.uint8)
    masks[rng.random(n) < 0.2] = 0  # some empty masks
    return masks


def test_oracle_depth_on_touching_intervals():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        shapes = []
        for inst in range(n):
            for _ in range(int(rng.integers(1, 3))):
                z_near = float(rng.integers(0, 6))  # a coarse grid makes intervals touch
                z_far = z_near + float(rng.integers(0, 3))
                shapes.append(Shape("rectangle", (0, 0, 1, 1), (0, 0, 0), z_near, z_far, inst))
        scene = LayeredScene(size=8, shapes=shapes, categories=["box"] * n, seed=0, n_instances=n)
        got, want = oracle_depth(scene), ref_oracle_depth(scene)
        assert_same(got, want)
        np.testing.assert_array_equal(got.pair_weights, want.pair_weights)


@pytest.mark.parametrize("heuristic", ["minmax", "mean", "median"])
def test_depthmap_heuristics_on_ties_and_empty_masks(heuristic):
    rng = np.random.default_rng(1)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        depth_map = rng.integers(0, 5, size=(8, 8)).astype(np.float64)
        masks = random_masks(rng, n)
        for tau in (0.0, 0.5, 1.0):  # integer depths put differences exactly at tau
            got = depth_from_depthmap(depth_map, list(masks), heuristic, tau)
            assert_same(got, ref_depth_from_depthmap(depth_map, list(masks), heuristic, tau))


def test_scalar_scores_with_ties_and_none():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        scores = [None if rng.random() < 0.2 else float(rng.integers(0, 4)) for _ in range(n)]
        assert_same(depth_from_scores(scores), ref_depth_from_scores(scores, n))
        masks = random_masks(rng, n, size=4)  # small masks: equal areas are common
        areas = [float(m.sum()) if m.any() else None for m in masks]
        assert_same(area_order(list(masks), "depth"), ref_depth_from_scores(areas, n))


def test_coherence_decode_on_tied_logits():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        logits = rng.integers(-1, 2, size=(2, n, n, 3)).astype(np.float64)  # sums tie often
        out = HeadOutput(occ_logits=None, depth_logits=Tensor(logits), selected_ids=np.arange(n))
        got = out.depth_matrix(coherence=True)
        assert_same(got, ref_coherent_depth(logits[-1], n))
        assert validate_depth(got) == []


class ScriptedNet:
    """Stands in for PairwiseNet: replays logits drawn from a seeded stream."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward(self, image, mask_a, mask_b):
        return Tensor(self.rng.integers(-1, 2, size=2).astype(np.float64)), Tensor(
            self.rng.integers(0, 2, size=3).astype(np.float64)
        )


def test_pairwise_inference_on_tied_logits():
    rng = np.random.default_rng(4)
    for seed in range(200):
        n = int(rng.integers(1, 9))
        masks = random_masks(rng, n)
        occ, depth = pairwise_infer_matrices(ScriptedNet(seed), None, masks)
        want_occ, want_depth = ref_pairwise_infer_matrices(ScriptedNet(seed), None, masks)
        np.testing.assert_array_equal(occ.entries, want_occ.entries)
        assert_same(depth, want_depth)


def test_whdr_sums_on_valid_and_incoherent_matrices():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        gt, pred = DepthMatrix.empty(n), DepthMatrix.empty(n)
        off = ~np.eye(n, dtype=bool)
        # 9 stands for any out-of-range entry; incoherent pairs are common
        gt.entries[off] = rng.choice([0, 1, 2], size=n * n - n)
        pred.entries[off] = rng.choice([0, 1, 2, 9], size=n * n - n)
        if rng.random() < 0.7:
            gt.pair_weights = 2.0 / rng.integers(1, 5, size=(n, n))
        assert whdr_sums(pred, gt) == ref_whdr_sums(pred, gt)
