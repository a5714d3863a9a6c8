from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from sceneorder import matching
from sceneorder.matching import Assignment, InputError, hungarian, match_segments


def brute_force(cost: np.ndarray) -> tuple[tuple, float]:
    """Lexicographically-smallest minimum-cost assignment by enumeration."""
    n, m = cost.shape
    transposed = n > m
    work = cost.T if transposed else cost
    rows, cols = work.shape
    best_cost = None
    best_pairs = None
    for perm in itertools.permutations(range(cols), rows):
        total = sum(work[i, perm[i]] for i in range(rows))
        pairs = tuple(zip(range(rows), perm))
        if best_cost is None or total < best_cost - 1e-12 or (abs(total - best_cost) <= 1e-12 and pairs < best_pairs):
            best_cost = total
            best_pairs = pairs
    if transposed:
        best_pairs = tuple(sorted((r, c) for c, r in best_pairs))
    return best_pairs, best_cost


def test_identity_favoring_cost():
    cost = np.ones((3, 3)) - np.eye(3)
    a = hungarian(cost)
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    assert a.total_cost == 0.0


def test_hand_case_antidiagonal():
    a = hungarian([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    assert set(a.pairs) == {(0, 2), (1, 1), (2, 0)}
    assert a.total_cost == 10.0


def test_rectangular_two_by_three():
    cost = np.array([[5.0, 1.0, 9.0], [4.0, 8.0, 2.0]])
    a = hungarian(cost)
    assert len(a.pairs) == 2
    pairs, total = brute_force(cost)
    assert a.pairs == pairs and abs(a.total_cost - total) < 1e-12


def test_nan_rejected():
    with pytest.raises(InputError):
        hungarian([[np.nan, 1.0], [1.0, 2.0]])


def _saturated_iou_cost(rng, n, m):
    """1 - IoU of sparse random masks on a 4x4 grid: mostly exactly 1."""
    pred = rng.random((n, 16)) < 0.15
    gt = rng.random((m, 16)) < 0.15
    inter = (pred[:, None] & gt[None]).sum(-1)
    union = (pred[:, None] | gt[None]).sum(-1)
    return 1.0 - np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.random((n, m)) * 10
        a = hungarian(cost)
        pairs, total = brute_force(cost)
        assert abs(a.total_cost - total) < 1e-9, (trial, cost)
        assert a.pairs == pairs, (trial, cost)
    # Tie-heavy inputs, where the lexicographic rule decides among optima.
    tie_rng = np.random.default_rng(1)
    for trial in range(400):
        n = int(tie_rng.integers(1, 8))
        m = int(tie_rng.integers(1, 8))
        if trial % 2:
            cost = tie_rng.integers(0, 3, (n, m)).astype(np.float64)
        else:
            cost = _saturated_iou_cost(tie_rng, n, m)
        a = hungarian(cost)
        pairs, total = brute_force(cost)
        assert abs(a.total_cost - total) < 1e-9, (trial, cost)
        assert a.pairs == pairs, (trial, cost)
    assert time.perf_counter() - start < 30.0


def test_tie_break_is_lexicographic():
    # every assignment costs 2: the lexicographically smallest wins
    a = hungarian(np.ones((3, 3)) * 2 / 3)
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    # off-diagonal tie between (0,0)/(1,1) and (0,1)/(1,0)
    a2 = hungarian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert a2.pairs == ((0, 0), (1, 1))


def test_negative_costs_supported():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cost = rng.standard_normal((4, 4))
        a = hungarian(cost)
        _, total = brute_force(cost)
        assert abs(a.total_cost - total) < 1e-9


# ---- segment matching ---------------------------------------------------------


def _mask(h, w, sl):
    m = np.zeros((h, w), dtype=np.uint8)
    m[sl] = 1
    return m


def test_identical_masks_identity_assignment():
    masks = [_mask(8, 8, np.s_[0:4, 0:4]), _mask(8, 8, np.s_[4:8, 4:8])]
    a = match_segments(masks, [1.0, 1.0], masks)
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 0.0


def test_swapped_masks_swapped_assignment():
    gt = [_mask(8, 8, np.s_[0:4, 0:4]), _mask(8, 8, np.s_[4:8, 4:8])]
    a = match_segments([gt[1], gt[0]], [1.0, 1.0], gt)
    assert a.pairs == ((0, 1), (1, 0))


def test_noisy_masks_prefer_diagonal():
    gt = [_mask(10, 10, np.s_[0:5, 0:5]), _mask(10, 10, np.s_[5:10, 5:10])]
    noisy = [_mask(10, 10, np.s_[0:5, 0:4]), _mask(10, 10, np.s_[5:9, 5:10])]
    a = match_segments(noisy, [1.0, 1.0], gt)
    assert a.pairs == ((0, 0), (1, 1))


def test_all_zero_pred_mask_allowed():
    gt = [_mask(8, 8, np.s_[0:4, 0:4])]
    a = match_segments([np.zeros((8, 8), dtype=np.uint8)], [0.5], gt)
    assert a.pairs == ((0, 0),)
    assert a.total_cost == 1.0


def test_mask_iou_basic():
    a = _mask(4, 4, np.s_[0:2, 0:4])
    b = _mask(4, 4, np.s_[1:3, 0:4])
    assert match_segments([a], [1.0], [b]).total_cost == pytest.approx(1 - 4 / 12)
    assert match_segments([np.zeros((4, 4))], [1.0], [np.zeros((4, 4))]).total_cost == 1.0


def test_unique_optimum_costs_one_solve(monkeypatch):
    # Oracle shape: 24 queries against 20 instances, the last 4 queries empty.
    gt = [_mask(20, 20, np.s_[i, :]) for i in range(20)]
    pred = gt + [np.zeros((20, 20), dtype=np.uint8)] * 4
    calls = []
    solve = matching._solve
    monkeypatch.setattr(matching, "_solve", lambda cost: calls.append(cost.shape) or solve(cost))
    a = match_segments(pred, [1.0] * 24, gt)
    assert a.pairs == tuple((i, i) for i in range(20)) and a.total_cost == 0.0
    assert calls == [(20, 24)]
