from __future__ import annotations

import numpy as np
import pytest

from sceneorder.metrics import MetricAccumulator, occlusion_prf, report_json, report_table, whdr
from sceneorder.orders import (
    I_FRONT,
    J_FRONT,
    NONE,
    OVERLAP,
    DepthMatrix,
    OcclusionMatrix,
    StructuralError,
    decode_depth,
    encode_depth,
    pairs_to_matrix,
)


def occ(n, ones=()):
    m = OcclusionMatrix.empty(n)
    for i, j in ones:
        m.entries[i, j] = 1
    return m


def test_perfect_prediction_scores_one():
    gt = occ(3, [(0, 1), (2, 0)])
    r = occlusion_prf(gt, gt)
    assert (r.recall, r.precision, r.f1) == (1.0, 1.0, 1.0)


def test_half_hit_half_false():
    # gt has 2 positives; pred hits 1 and adds 1 false positive
    gt = occ(3, [(0, 1), (1, 2)])
    pred = occ(3, [(0, 1), (2, 0)])
    r = occlusion_prf(pred, gt)
    assert (r.recall, r.precision, r.f1) == (0.5, 0.5, 0.5)


def test_all_zero_pred_skips_precision():
    gt = occ(2, [(0, 1)])
    r = occlusion_prf(occ(2), gt)
    assert r.recall == 0.0
    assert r.precision is None and r.f1 is None


def test_no_gt_positives_skips_recall():
    r = occlusion_prf(occ(2, [(0, 1)]), occ(2))
    assert r.recall is None


def test_size_mismatch_rejected():
    with pytest.raises(StructuralError):
        occlusion_prf(occ(2), occ(3))


def test_prf_bounds_and_symmetry_under_permutation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pred = occ(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4])
        gt = occ(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4])
        r = occlusion_prf(pred, gt)
        for v in (r.recall, r.precision, r.f1):
            if v is not None:
                assert 0.0 <= v <= 1.0
        if r.f1 is not None:
            assert r.f1 <= max(r.precision, r.recall) + 1e-12
        perm = rng.permutation(n)
        pred2 = OcclusionMatrix(n, pred.entries[np.ix_(perm, perm)])
        gt2 = OcclusionMatrix(n, gt.entries[np.ix_(perm, perm)])
        r2 = occlusion_prf(pred2, gt2)
        assert r2 == r


# ---- WHDR ---------------------------------------------------------------------


def depth_from(pairs, n):
    return pairs_to_matrix(pairs, n, "depth")


def test_whdr_zero_for_exact_prediction():
    gt = depth_from([(0, 1, "front", 2), (0, 2, "overlap", 4), (1, 2, "front", 1)], 3)
    out = whdr(gt, gt)
    assert out == {"distinct": 0.0, "overlap": 0.0, "all": 0.0}


def test_whdr_hand_worked_case():
    # (A,B) front w=1 predicted correctly; (A,C) overlap w=0.5 predicted wrong;
    # (B,C) carries no annotation and no category.
    gt = depth_from([(0, 1, "front", 2), (0, 2, "overlap", 4)], 3)
    pred = depth_from([(0, 1, "front", 2), (0, 2, "front", 2), (1, 2, "front", 2)], 3)
    out = whdr(pred, gt)
    assert out["all"] == pytest.approx(1 / 3)
    assert out["distinct"] == 0.0
    assert out["overlap"] == 1.0


def test_whdr_scale_invariance_in_counts():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                rel = rng.choice(["front", "overlap"])
                pairs.append((i, j, rel, int(rng.integers(1, 5))))
        gt = depth_from(pairs, n)
        doubled = depth_from([(i, j, rel, 2 * c) for i, j, rel, c in pairs], n)
        pred = depth_from(
            [(i, j, rng.choice(["front", "overlap"]), 2) for i, j, _, _ in pairs], n
        )
        a, b = whdr(pred, gt), whdr(pred, doubled)
        for key in ("distinct", "overlap", "all"):
            if a[key] is None:
                assert b[key] is None
            else:
                assert a[key] == pytest.approx(b[key])


def test_whdr_empty_category_is_none():
    gt = depth_from([(0, 1, "front", 2)], 2)
    out = whdr(gt, gt)
    assert out["overlap"] is None and out["distinct"] == 0.0


def test_whdr_bounds():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        mk = lambda: depth_from(
            [
                (i, j, rng.choice(["front", "overlap"]), int(rng.integers(1, 5)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.8
            ],
            n,
        )
        out = whdr(mk(), mk())
        for v in out.values():
            if v is not None:
                assert 0.0 <= v <= 1.0


def test_decode_depth_codes():
    m = depth_from([(0, 1, "front", 2), (3, 1, "front", 2), (1, 2, "overlap", 2)], 4)
    # pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
    assert decode_depth(m).tolist() == [I_FRONT, NONE, NONE, OVERLAP, J_FRONT, NONE]
    assert (I_FRONT, J_FRONT, OVERLAP) == (1, 0, 2)  # the code of pair i < j is entries[i, j]
    np.testing.assert_array_equal(encode_depth(4, decode_depth(m)).entries, m.entries)


def test_missing_prediction_counts_as_disagreement():
    gt = depth_from([(0, 1, "front", 2)], 2)
    pred = DepthMatrix.empty(2)  # no relation at all
    assert whdr(pred, gt)["all"] == 1.0


# ---- aggregation ----------------------------------------------------------------


def test_macro_vs_micro():
    macro = MetricAccumulator("macro")
    micro = MetricAccumulator("micro")
    for acc in (macro, micro):
        acc.add("f1", 1.0, weight=1.0)
        acc.add("f1", 0.0, weight=3.0)
        acc.add("f1", None)
    assert macro.result()["f1"]["value"] == pytest.approx(0.5)
    assert micro.result()["f1"]["value"] == pytest.approx(0.25)
    assert macro.result()["f1"]["samples"] == 2


def test_report_formats():
    acc = MetricAccumulator()
    acc.add("occlusion_f1", 0.75)
    res = acc.result()
    js = report_json(res, {"skipped": 1})
    assert '"occlusion_f1"' in js and js.endswith("\n")
    table = report_table(res)
    assert "occlusion_f1" in table and "0.7500" in table
