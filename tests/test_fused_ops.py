"""Single-node ops (attention, segment max, stack, BCE and CE with logits)
against finite differences and against the composite formulas they
replace, which are kept here as the reference."""

from __future__ import annotations

import numpy as np
import pytest

import sceneorder.autograd as ag
from sceneorder.autograd import NEG_INF, ShapeError, Tensor
from sceneorder.losses import bce_with_logits, ce_with_logits

from fd import check_grads, rel_err


# ---- composite references -------------------------------------------------------


def composite_attention(q, k, v, heads, addmask=None):
    """Head split, scaled scores, masked softmax, context and merge, op by op."""

    def split(x):
        t = x.shape[-2]
        return ag.swapaxes(x.reshape(x.shape[:-2] + (t, heads, x.shape[-1] // heads)), -2, -3)

    qh, kh, vh = split(q), split(k), split(v)
    scores = ag.matmul(qh, ag.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(q.shape[-1] // heads))
    attn = ag.masked_softmax(scores, addmask)
    merged = ag.swapaxes(ag.matmul(attn, vh), -2, -3)
    return merged.reshape(merged.shape[:-2] + (q.shape[-1],)), attn.empty_rows


def composite_packed_attention(q, k, v, heads, counts):
    """Each segment through dense attention on its own."""
    outs, lo = [], 0
    for count in counts:
        if count:
            rows = slice(lo, lo + count)
            outs.append(composite_attention(q[rows], k[rows], v[rows], heads)[0])
        lo += count
    return ag.concat(outs, axis=0)


def composite_segment_max(x, counts):
    """Padded batch, -inf pooling mask, zero for empty segments."""
    t_max = max(1, int(max(counts)))
    idx = np.zeros((len(counts), t_max), dtype=np.int64)
    valid = np.zeros((len(counts), t_max), dtype=bool)
    lo = 0
    for i, count in enumerate(counts):
        idx[i, :count] = np.arange(lo, lo + count)
        valid[i, :count] = True
        lo += count
    padded = ag.take_rows(x, idx.reshape(-1)).reshape((len(counts), t_max) + x.shape[1:])
    mask = np.where(valid, 0.0, NEG_INF)[:, :, None]
    return ag.max_(padded + mask, axis=1) * valid.any(axis=1).astype(np.float64)[:, None]


def composite_bce(logits, targets, weights=None):
    z = np.asarray(targets, dtype=np.float64)
    absx = ag.relu(logits) + ag.relu(-logits)
    elem = ag.relu(logits) - logits * z + ag.log(ag.exp(-absx) + 1.0)
    if weights is None:
        return ag.mean(elem.reshape(elem.size))
    w = np.asarray(weights, dtype=np.float64)
    return ag.sum_(elem * w) / float(w.sum())


def composite_ce(logits, targets, weights=None):
    idx = np.asarray(targets, dtype=np.int64)
    shift = logits.data.max(axis=-1, keepdims=True)
    lse = ag.log(ag.sum_(ag.exp(logits - shift), axis=-1)) + shift[..., 0]
    elem = lse - ag.take_along_last(logits, idx)
    if weights is None:
        return ag.mean(elem.reshape(elem.size))
    w = np.asarray(weights, dtype=np.float64)
    return ag.sum_(elem * w) / float(w.sum())


def grads_of(fn, leaves):
    for leaf in leaves:
        leaf.grad = None
    out = fn()
    out.backward()
    return out.item(), [np.zeros_like(l.data) if l.grad is None else l.grad.copy() for l in leaves]


def assert_same(fused, composite, leaves, tol=1e-10):
    v1, g1 = grads_of(fused, leaves)
    v2, g2 = grads_of(composite, leaves)
    assert abs(v1 - v2) <= tol * max(1.0, abs(v2))
    scale = max(max(np.abs(g).max(initial=0.0) for g in g2), 1e-12)
    for a, b in zip(g1, g2):
        assert np.abs(a - b).max(initial=0.0) <= tol * scale


def leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


# ---- attention ------------------------------------------------------------------


def test_attention_fd_self_and_cross():
    rng = np.random.default_rng(0)
    q, k, v = leaves(rng, (3, 4), (5, 4), (5, 4))
    w = rng.standard_normal((3, 4))
    check_grads(lambda: ag.sum_(ag.attention(q, k, v, 2) * w), [q, k, v])
    x, = leaves(rng, (2, 3, 4))  # leading batch axis, self-attention
    check_grads(lambda: ag.sum_(ag.attention(x, x, x, 2) ** 2.0), [x])


def test_attention_matches_composite_with_masks_and_empty_rows():
    rng = np.random.default_rng(1)
    for trial in range(10):
        q, k, v = leaves(rng, (2, 4, 8), (2, 5, 8), (2, 5, 8))
        mask = np.where(rng.random((2, 1, 4, 5)) < 0.4, NEG_INF, 0.0)
        mask[0, 0, 1] = NEG_INF  # a fully masked row
        w = rng.standard_normal((2, 4, 8))
        assert_same(
            lambda: ag.sum_(ag.attention(q, k, v, 2, mask) * w),
            lambda: ag.sum_(composite_attention(q, k, v, 2, mask)[0] * w),
            [q, k, v],
        )
        fused = ag.attention(q, k, v, 2, mask)
        np.testing.assert_array_equal(fused.empty_rows, composite_attention(q, k, v, 2, mask)[1])
        assert fused.empty_rows[0, :, 1].all()


def test_attention_key_vector_mask_and_no_mask():
    rng = np.random.default_rng(2)
    q, k, v = leaves(rng, (3, 8), (3, 8), (3, 8))
    w = rng.standard_normal((3, 8))
    for mask in (None, np.array([0.0, NEG_INF, 0.0])):
        assert_same(
            lambda: ag.sum_(ag.attention(q, k, v, 4, mask) * w),
            lambda: ag.sum_(composite_attention(q, k, v, 4, mask)[0] * w),
            [q, k, v],
        )
    assert ag.attention(q, k, v, 4).empty_rows is None


def test_packed_attention_fd_and_composite_with_short_segments():
    rng = np.random.default_rng(3)
    counts = np.array([3, 0, 1, 4, 0, 2])  # lengths 0 and 1 included
    q, k, v = leaves(rng, (10, 4), (10, 4), (10, 4))
    w = rng.standard_normal((10, 4))
    check_grads(lambda: ag.sum_(ag.attention(q, k, v, 2, segments=counts) * w), [q, k, v])
    assert_same(
        lambda: ag.sum_(ag.attention(q, k, v, 2, segments=counts) * w),
        lambda: ag.sum_(composite_packed_attention(q, k, v, 2, counts) * w),
        [q, k, v],
    )
    # a one-row segment attends only to itself: its context is its value
    single = ag.attention(q, k, v, 2, segments=counts).data[3]
    np.testing.assert_allclose(single, v.data[3], atol=1e-12)


def test_packed_attention_all_segments_empty():
    q, k, v = (Tensor(np.zeros((0, 4)), requires_grad=True) for _ in range(3))
    out = ag.attention(q, k, v, 2, segments=np.array([0, 0]))
    assert out.shape == (0, 4)


def test_attention_shape_errors():
    rng = np.random.default_rng(4)
    q, k, v = leaves(rng, (3, 6), (3, 6), (3, 6))
    with pytest.raises(ShapeError):
        ag.attention(q, k, v, 4)
    with pytest.raises(ShapeError):
        ag.attention(q, k, v, 2, segments=np.array([1, 1]))
    with pytest.raises(ShapeError):
        ag.attention(q, k, v, 2, addmask=np.zeros(3), segments=np.array([3]))


# ---- segment max ------------------------------------------------------------------


def test_segment_max_fd_and_composite():
    rng = np.random.default_rng(5)
    counts = [2, 0, 1, 3]
    x, = leaves(rng, (6, 3))
    w = rng.standard_normal((4, 3))
    check_grads(lambda: ag.sum_(ag.segment_max(x, counts) * w), [x])
    assert_same(
        lambda: ag.sum_(ag.segment_max(x, counts) * w),
        lambda: ag.sum_(composite_segment_max(x, counts) * w),
        [x],
    )
    out = ag.segment_max(x, counts).data
    assert not out[1].any()


def test_segment_max_ties_route_to_first_maximum():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0], [7.0, 7.0], [7.0, 7.0]]), requires_grad=True)
    counts = [3, 2]
    out = ag.segment_max(x, counts)
    np.testing.assert_array_equal(out.data, [[3.0, 5.0], [7.0, 7.0]])
    ag.sum_(out).backward()
    np.testing.assert_array_equal(x.grad, [[0, 1], [1, 0], [0, 0], [1, 1], [0, 0]])
    _, (ref,) = grads_of(lambda: ag.sum_(composite_segment_max(x, counts)), [x])
    np.testing.assert_array_equal(x.grad, ref)


def test_segment_max_rejects_wrong_total():
    with pytest.raises(ShapeError):
        ag.segment_max(Tensor(np.zeros((3, 2))), [1, 1])


# ---- stack ----------------------------------------------------------------------------


def test_stack_fd():
    rng = np.random.default_rng(6)
    a, b = leaves(rng, (2, 3), (2, 3))
    w = rng.standard_normal((2, 2, 3))
    check_grads(lambda: ag.sum_(ag.stack([a, b]) * w), [a, b])
    check_grads(lambda: ag.sum_(ag.stack([a, b], axis=1) * w), [a, b])


# ---- losses ---------------------------------------------------------------------------


def test_bce_matches_composite_weighted_and_broadcast():
    rng = np.random.default_rng(7)
    x, = leaves(rng, (3, 4, 4))
    x.data[0, 0, 0] = 40.0
    x.data[0, 0, 1] = -40.0
    z = (rng.random((4, 4)) < 0.5).astype(float)
    w = rng.random((4, 4))
    check_grads(lambda: bce_with_logits(x, z, w), [x])
    assert_same(lambda: bce_with_logits(x, z, w), lambda: composite_bce(x, np.broadcast_to(z, x.shape), np.broadcast_to(w, x.shape)), [x])
    assert_same(lambda: bce_with_logits(x, np.broadcast_to(z, x.shape)), lambda: composite_bce(x, np.broadcast_to(z, x.shape)), [x])


def test_ce_matches_composite_weighted_and_broadcast():
    rng = np.random.default_rng(8)
    x, = leaves(rng, (3, 4, 4, 3))
    t = rng.integers(0, 3, (4, 4))
    w = 1.0 - np.eye(4)
    check_grads(lambda: ce_with_logits(x, t, w), [x])
    full_t, full_w = np.broadcast_to(t, (3, 4, 4)), np.broadcast_to(w, (3, 4, 4))
    assert_same(lambda: ce_with_logits(x, t, w), lambda: composite_ce(x, full_t, full_w), [x])
    assert_same(lambda: ce_with_logits(x, full_t), lambda: composite_ce(x, full_t), [x])


def test_losses_are_one_tape_node():
    rng = np.random.default_rng(9)
    x, = leaves(rng, (4, 3))
    for loss in (bce_with_logits(x, np.ones((4, 3))), ce_with_logits(x, np.zeros(4, dtype=int))):
        assert loss._parents == (x,)
    assert rel_err(bce_with_logits(x, np.ones((4, 3))).data, composite_bce(x, np.ones((4, 3))).data) < 1e-12
