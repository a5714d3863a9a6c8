"""Correctness checks made apart from the program under test.

Scene ground truth is recomputed from the analytic shapes with this file's
own painter and z-interval code; metrics are recomputed from their
definitions; matching optima come from scipy. Each check returns a list of
failure messages, empty when the check passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

Z_BACKGROUND = 12.0
PPM_TOL = 0.5 / 255.0 + 1e-9
PGM16_TOL = 0.5 * Z_BACKGROUND / 65535.0 + 1e-9


def _support(shape, size: int) -> np.ndarray:
    c = np.arange(size) + 0.5
    cy, cx = c[:, None], c[None, :]
    if shape.kind == "rectangle":
        x0, y0, x1, y1 = shape.params
        return (cx >= x0) & (cx < x1) & (cy >= y0) & (cy < y1)
    ex, ey, rx, ry = shape.params
    return ((cx - ex) / rx) ** 2 + ((cy - ey) / ry) ** 2 <= 1.0


def scene_truth(scene):
    """(visible masks, z-buffer, occlusion entries, depth entries) of a scene.

    Per pixel the nearest covering shape wins; among equal z the later shape
    wins. i occludes j where i is drawn over j's amodal support. Depth
    compares closed z-intervals: disjoint ones give a front relation,
    touching or overlapping ones an overlap (2).
    """
    n, size = scene.n_instances, scene.size
    z = np.full((len(scene.shapes), size, size), math.inf)
    amodal = np.zeros((n, size, size), dtype=bool)
    for s, shape in enumerate(scene.shapes):
        sup = _support(shape, size)
        z[s][sup] = shape.z_near
        amodal[shape.instance] |= sup
    owner_shape = len(scene.shapes) - 1 - np.argmin(z[::-1], axis=0)
    covered = np.isfinite(z.min(axis=0))
    inst_of = np.array([shape.instance for shape in scene.shapes])
    owner = np.where(covered, inst_of[owner_shape], -1)
    zbuf = np.where(covered, z.min(axis=0), Z_BACKGROUND)
    masks = np.stack([(owner == i) for i in range(n)]).astype(np.uint8)

    occ = -np.eye(n, dtype=np.int64)
    for j in range(n):
        for a in set(owner[amodal[j]].tolist()) - {-1, j}:
            occ[a, j] = 1
    lo = [min(s.z_near for s in scene.shapes if s.instance == i) for i in range(n)]
    hi = [max(s.z_far for s in scene.shapes if s.instance == i) for i in range(n)]
    depth = -np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if hi[i] < lo[j]:
                depth[i, j] = 1
            elif hi[j] < lo[i]:
                depth[j, i] = 1
            else:
                depth[i, j] = depth[j, i] = 2
    return masks, zbuf, occ, depth


def check_generated(tag: str, sample) -> list[str]:
    masks, zbuf, occ, depth = scene_truth(sample.scene)
    out = []
    if not np.array_equal(masks, sample.masks):
        out.append(f"{tag}: visible masks differ from the painter's")
    if not np.array_equal(zbuf, sample.depth_map):
        out.append(f"{tag}: depth map differs from the painter's z-buffer")
    if not np.array_equal(occ, sample.gt_occlusion.entries):
        out.append(f"{tag}: occlusion matrix differs from the painter's")
    if not np.array_equal(depth, sample.gt_depth.entries):
        out.append(f"{tag}: depth matrix differs from the z-intervals")
    return out


def check_loaded(tag: str, loaded, generated) -> list[str]:
    """Exact masks, matrices and labels; image and depth within quantisation."""
    out = []
    if loaded.categories != generated.categories:
        out.append(f"{tag}: categories differ after the round trip")
    if not np.array_equal(loaded.masks, generated.masks):
        out.append(f"{tag}: masks differ after the round trip")
    if not np.array_equal(loaded.gt_occlusion.entries, generated.gt_occlusion.entries):
        out.append(f"{tag}: occlusion matrix differs after the round trip")
    if not np.array_equal(loaded.gt_depth.entries, generated.gt_depth.entries):
        out.append(f"{tag}: depth matrix differs after the round trip")
    if not np.array_equal(loaded.gt_depth.pair_weights, generated.gt_depth.pair_weights):
        out.append(f"{tag}: depth weights differ after the round trip")
    if np.abs(loaded.image - generated.image).max() > PPM_TOL:
        out.append(f"{tag}: image differs by more than 8-bit quantisation")
    if np.abs(loaded.depth_map - generated.depth_map).max() > PGM16_TOL:
        out.append(f"{tag}: depth map differs by more than 16-bit quantisation")
    return out


def iou_cost(pred_masks, gt_masks) -> np.ndarray:
    p = np.asarray(pred_masks, dtype=bool).reshape(len(pred_masks), -1)
    g = np.asarray(gt_masks, dtype=bool).reshape(len(gt_masks), -1)
    inter = (p[:, None, :] & g[None, :, :]).sum(axis=-1)
    union = (p[:, None, :] | g[None, :, :]).sum(axis=-1)
    iou = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return 1.0 - iou


def check_matching(tag: str, assignment, pred_masks, gt_masks) -> list[str]:
    cost = iou_cost(pred_masks, gt_masks)
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    own = float(sum(cost[r, c] for r, c in assignment.pairs))
    out = []
    if len(assignment.pairs) != min(cost.shape):
        out.append(f"{tag}: assignment has {len(assignment.pairs)} pairs, expected {min(cost.shape)}")
    if abs(assignment.total_cost - best) > 1e-9 or abs(own - best) > 1e-9:
        out.append(f"{tag}: matching cost {assignment.total_cost} differs from the optimum {best}")
    return out


# ---- metrics recomputed from their definitions --------------------------------


def _relation(e: np.ndarray, i: int, j: int):
    if e[i, j] == 2 and e[j, i] == 2:
        return 2
    if e[i, j] == 1:
        return 1
    if e[j, i] == 1:
        return 0
    return None


def scene_scores(pred, sample) -> dict[str, float]:
    """Per-scene occlusion P/R/F1 and WHDR strata; undefined values left out."""
    out = {}
    off = ~np.eye(sample.n, dtype=bool)
    p = pred.occlusion.entries[off] == 1
    g = sample.gt_occlusion.entries[off] == 1
    tp = int((p & g).sum())
    recall = tp / g.sum() if g.sum() else None
    precision = tp / p.sum() if p.sum() else None
    if recall is not None:
        out["occlusion_recall"] = recall
    if precision is not None:
        out["occlusion_precision"] = precision
    if recall is not None and precision is not None and precision + recall > 0:
        out["occlusion_f1"] = 2 * precision * recall / (precision + recall)
    num = {"distinct": 0.0, "overlap": 0.0, "all": 0.0}
    den = dict(num)
    gt, pe = sample.gt_depth.entries, pred.depth.entries
    for i in range(sample.n):
        for j in range(i + 1, sample.n):
            rel = _relation(gt, i, j)
            if rel is None:
                continue
            w = sample.gt_depth.weight(i, j)
            wrong = float(_relation(pe, i, j) != rel)
            for key in ("overlap" if rel == 2 else "distinct", "all"):
                num[key] += w * wrong
                den[key] += w
    for key in num:
        if den[key] > 0:
            out[f"whdr_{key}"] = num[key] / den[key]
    return out


def check_eval(tag: str, report, preds, samples) -> list[str]:
    values: dict[str, list[float]] = {}
    for pred, sample in zip(preds, samples):
        for key, value in scene_scores(pred, sample).items():
            values.setdefault(key, []).append(value)
    out = []
    if len(preds) != len(samples) or report.samples != len(samples):
        out.append(f"{tag}: scored {report.samples} of {len(samples)} scenes")
    got = report.metrics
    if set(got) != set(values):
        out.append(f"{tag}: metric keys {sorted(got)} differ from {sorted(values)}")
    for key, vals in values.items():
        if key not in got:
            continue
        mean = sum(vals) / len(vals)
        if abs(got[key]["value"] - mean) > 1e-12 or got[key]["samples"] != len(vals):
            out.append(f"{tag}: {key} = {got[key]['value']!r}, recomputed {mean!r}")
    return out


def loss_falls(curve, k: int = 5) -> bool:
    """Mean of the first k logged batch losses exceeds the mean of the last k."""
    losses = [v for _, v in curve]
    return len(losses) >= 2 * k and sum(losses[:k]) > sum(losses[-k:])
