from __future__ import annotations

import numpy as np
import pytest

import sceneorder.autograd as ag
from sceneorder.autograd import Tensor
from sceneorder.head import HeadOutput
from sceneorder.losses import bce_with_logits, ce_with_logits, dice_loss, order_losses
from sceneorder.orders import DataError, DepthMatrix, OcclusionMatrix

from fd import check_grads


def test_bce_saturated_logits_vanish():
    logits = Tensor(np.array([30.0, -30.0]))
    loss = bce_with_logits(logits, np.array([1.0, 0.0]))
    assert loss.item() < 1e-12


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    z = (rng.random(10) < 0.5).astype(float)
    loss = bce_with_logits(Tensor(x), z).item()
    p = 1 / (1 + np.exp(-x))
    direct = -(z * np.log(p) + (1 - z) * np.log(1 - p)).mean()
    assert loss == pytest.approx(direct, rel=1e-12)


def test_bce_stable_for_huge_logits():
    loss = bce_with_logits(Tensor(np.array([1e4, -1e4])), np.array([0.0, 1.0]))
    assert np.isfinite(loss.item())


def test_ce_uniform_logits_is_log3():
    logits = Tensor(np.zeros((2, 2, 3)))
    w = 1.0 - np.eye(2)
    loss = ce_with_logits(logits, np.zeros((2, 2), dtype=int), w)
    assert loss.item() == pytest.approx(np.log(3.0))


def test_ce_matches_direct_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3))
    t = rng.integers(0, 3, 5)
    loss = ce_with_logits(Tensor(x), t).item()
    p = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    direct = -np.log(p[np.arange(5), t]).mean()
    assert loss == pytest.approx(direct, rel=1e-12)


def test_bce_ce_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    z = (rng.random((3, 4)) < 0.5).astype(float)
    check_grads(lambda: bce_with_logits(x, z), [x])
    y = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True)
    t = rng.integers(0, 3, (3, 4))
    w = rng.random((3, 4)) + 0.1
    check_grads(lambda: ce_with_logits(y, t, w), [y])


def test_dice_perfect_masks():
    logits = Tensor(np.where(np.eye(4) > 0, 40.0, -40.0).reshape(2, 8))
    targets = (logits.data > 0).astype(float)
    assert dice_loss(logits, targets).item() == pytest.approx(0.0, abs=1e-5)


def out_for(n, occ=True, depth=True, layers=1):
    return HeadOutput(
        occ_logits=Tensor(np.zeros((layers, n, n)), requires_grad=True) if occ else None,
        depth_logits=Tensor(np.zeros((layers, n, n, 3)), requires_grad=True) if depth else None,
        selected_ids=np.arange(n),
    )


def gt_pair(n=2):
    occ = OcclusionMatrix.empty(n)
    occ.entries[0, 1] = 1
    depth = DepthMatrix.empty(n)
    depth.entries[0, 1] = 1
    return occ, depth


def test_order_losses_uniform_depth_term():
    occ, depth = gt_pair()
    out = out_for(2, occ=False)
    loss = order_losses(out, None, depth, lam_o=5.0, lam_d=1.0)
    assert loss.item() == pytest.approx(np.log(3.0))


def test_order_losses_perfect_saturated_logits_vanish():
    occ, depth = gt_pair()
    out = out_for(2)
    out.occ_logits.data[:] = np.where(occ.entries == 1, 40.0, -40.0)
    for i in range(2):
        for j in range(2):
            if i != j:
                out.depth_logits.data[0, i, j, depth.entries[i, j]] = 40.0
    assert order_losses(out, occ, depth).item() < 1e-10


def test_order_losses_excludes_diagonal():
    occ, depth = gt_pair()
    out = out_for(2)
    base = order_losses(out, occ, depth).item()
    out2 = out_for(2)
    out2.occ_logits.data[0][np.diag_indices(2)] = 1e6
    out2.depth_logits.data[0, 0, 0] = [1e6, -1e6, 0.0]
    assert order_losses(out2, occ, depth).item() == pytest.approx(base)


def test_order_losses_single_task():
    occ, _ = gt_pair()
    out = out_for(2, depth=False)
    loss = order_losses(out, occ, None, lam_o=1.0)
    assert loss.item() == pytest.approx(np.log(2.0))  # BCE of zero logits


def test_order_losses_rejects_minus_one_offdiag():
    occ, depth = gt_pair()
    occ.entries[1, 0] = -1
    with pytest.raises(DataError):
        order_losses(out_for(2), occ, depth)


def test_aux_outputs_supervised_identically():
    occ, depth = gt_pair()
    main = out_for(2)
    with_aux = out_for(2, layers=2)
    single = order_losses(main, occ, depth).item()
    double = order_losses(with_aux, occ, depth).item()
    assert double == pytest.approx(2 * single)


def test_order_losses_weight_scaling():
    occ, depth = gt_pair()
    l1 = order_losses(out_for(2), occ, depth, lam_o=1.0, lam_d=1.0).item()
    l5 = order_losses(out_for(2), occ, depth, lam_o=5.0, lam_d=5.0).item()
    assert l5 == pytest.approx(5 * l1)
