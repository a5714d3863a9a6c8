"""Minimum-cost injective assignment (Hungarian) and segment matching.

The solver is scipy's ``linear_sum_assignment``. On top of it, ``hungarian``
canonicalizes ties: among all minimum-cost assignments it returns the
lexicographically smallest pair list, so equal-cost inputs (common with
1-IoU costs saturating at 1) resolve deterministically. It starts from the
optimum it already has and sub-solves only for a smaller column that might
tie, so a unique optimum costs one solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Non-finite costs or malformed matching inputs."""


@dataclass(frozen=True)
class Assignment:
    pairs: tuple  # ((row, col), ...) sorted by row; |pairs| = min(n, m)
    total_cost: float

    def col_of(self) -> dict[int, int]:
        return {r: c for r, c in self.pairs}


def _solve(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal column of each row of an n x m cost matrix with n <= m, and
    the total cost."""
    from scipy.optimize import linear_sum_assignment  # deferred: costs ~0.2 s at import

    rows, cols = linear_sum_assignment(cost)
    return cols, float(cost[rows, cols].sum())


def hungarian(cost) -> Assignment:
    """Minimum-total-cost assignment over an n x m cost matrix.

    Matches min(n, m) pairs; ties broken by lexicographic pair order
    (computed on the transposed matrix when n > m).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise InputError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise InputError("cost matrix contains NaN or Inf")
    transposed = cost.shape[0] > cost.shape[1]
    work = cost.T if transposed else cost
    n, m = work.shape
    if n == 0:
        return Assignment((), 0.0)

    cols, residual = _solve(work)
    tol = 1e-9 * max(1.0, abs(residual))

    # Fix pairs row by row. best[i:] is an optimal completion of rows i..n-1
    # over the free columns, so row i takes best[i] unless a smaller free
    # column also reaches the residual optimum: the lexicographically
    # smallest optimal assignment.
    best = cols.tolist()
    free = list(range(m))
    for i in range(n):
        for j in free:
            if j >= best[i]:
                break
            rest = [c for c in free if c != j]
            sub, sub_cost = _solve(work[i + 1 :, rest]) if i + 1 < n else ((), 0.0)
            if abs(work[i, j] + sub_cost - residual) <= tol:
                best[i:] = [j] + [rest[k] for k in sub]
                break
        free.remove(best[i])
        residual -= work[i, best[i]]

    pairs = tuple(enumerate(best))
    if transposed:
        pairs = tuple(sorted((r, c) for c, r in pairs))
    return Assignment(pairs, float(work[np.arange(n), best].sum()))


def match_segments(pred_masks, pred_conf, gt_masks) -> Assignment:
    """Hungarian over cost(i,j) = 1 - IoU(pred_i, gt_j).

    Nonzero pixels are in the mask, and two empty masks have IoU 0.
    Confidences are accepted for interface parity with the inference path
    but do not enter the cost; an all-zero predicted mask simply scores
    IoU 0 against everything.
    """
    if len(gt_masks) == 0:
        raise InputError("match_segments needs at least one ground-truth mask")
    g = (np.asarray(gt_masks) != 0).reshape(len(gt_masks), -1).astype(np.float64)
    p = (np.asarray(pred_masks) != 0).reshape(-1, g.shape[1]).astype(np.float64)
    inter = p @ g.T
    union = p.sum(axis=1)[:, None] + g.sum(axis=1)[None, :] - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return hungarian(1.0 - iou)
