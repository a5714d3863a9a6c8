"""Minimal reverse-mode autodiff on float64 numpy arrays.

Every op records its parents and a backward closure on the produced
tensor; ``Tensor.backward()`` topologically sorts that implicit tape and
accumulates gradients into ``.grad``. Single-threaded by design: share
tensors across threads only after ``detach()``.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.special import erf as _erf_np

# Additive mask sentinel standing in for -inf. Kept finite so the
# max-subtraction softmax stabilization never produces (-inf) - (-inf).
NEG_INF = -1e30

# Rows whose every entry sits below this are treated as fully masked.
_ALL_MASKED_CUTOFF = -1e29


class GradError(RuntimeError):
    """Violation of the tape contract (non-scalar loss, double backward)."""


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


# Live-buffer accounting for the inference-cost benchmark. Off by default:
# the weakref bookkeeping costs a few percent of training throughput.
_live_bytes = 0
_peak_bytes = 0
_tracking = False


def _track_alloc(t: "Tensor") -> None:
    global _live_bytes, _peak_bytes
    nbytes = t.data.nbytes
    _live_bytes += nbytes
    if _live_bytes > _peak_bytes:
        _peak_bytes = _live_bytes
    weakref.finalize(t, _untrack, nbytes)


def _untrack(nbytes: int) -> None:
    global _live_bytes
    _live_bytes -= nbytes


def enable_alloc_tracking(on: bool = True) -> None:
    global _tracking, _live_bytes, _peak_bytes
    _tracking = on
    _live_bytes = 0
    _peak_bytes = 0


def reset_peak_bytes() -> None:
    global _peak_bytes
    _peak_bytes = _live_bytes


def peak_bytes() -> int:
    return _peak_bytes


def live_bytes() -> int:
    return _live_bytes


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """n-d float64 array that optionally participates in the gradient tape."""

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._backward_ran = False
        # Set by masked_softmax when a row had no unmasked entry.
        self.empty_rows = None
        if _tracking:
            _track_alloc(self)

    # ---- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GradError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ---- tape ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate ``.grad`` for every tensor this scalar depends on."""
        if self.data.size != 1:
            raise GradError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._backward_ran:
            raise GradError("backward() already ran for this tensor; rebuild the forward pass")
        self._backward_ran = True

        # Iterative topological sort; graphs can be thousands of nodes deep.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul_const(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul_const(self, 1.0 / other)
        return mul(self, pow_const(_as_tensor(other), -1.0))

    def __rtruediv__(self, other):
        return mul_const(pow_const(self, -1.0), float(other))

    def __pow__(self, exponent):
        return pow_const(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    @property
    def T(self):
        if self.ndim != 2:
            raise ShapeError(".T is defined for 2-d tensors only; use swapaxes")
        return swapaxes(self, 0, 1)

    # Convenience method forms of the module-level ops.
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return max_(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*tensors) -> bool:
    return any(t.requires_grad for t in tensors)


_grad_enabled = True


class no_grad:
    """Context manager: ops inside build no tape (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    """Whether ops record a tape (False inside ``no_grad``)."""
    return _grad_enabled


def _make(data, parents, backward_fn):
    if _grad_enabled and _needs_grad(*parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


# ---- elementwise ops ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul_const(a: Tensor, c: float) -> Tensor:
    def backward(g):
        a._accumulate(g * c)

    return _make(a.data * c, (a,), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    out_data = a.data**p

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def backward(g):
        a._accumulate(g * keep)

    return _make(a.data * keep, (a,), backward)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    # Stable for large |x|: exp only ever sees -|x|.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out_data = sigmoid_np(a.data)

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def erf(a: Tensor) -> Tensor:
    out_data = _erf_np(a.data)

    def backward(g):
        a._accumulate(g * (2.0 / np.sqrt(np.pi)) * np.exp(-a.data**2))

    return _make(out_data, (a,), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU x * Phi(x); d/dx = Phi(x) + x * phi(x)."""
    cdf = 0.5 * (1.0 + _erf_np(a.data * _INV_SQRT2))

    def backward(g):
        a._accumulate(g * (cdf + a.data * _INV_SQRT_2PI * np.exp(-0.5 * a.data**2)))

    return _make(a.data * cdf, (a,), backward)


# ---- shape ops -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def backward(g):
        a._accumulate(g.swapaxes(ax1, ax2))

    return _make(a.data.swapaxes(ax1, ax2), (a,), backward)


def slice_(a: Tensor, key) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accumulate(full)

    return _make(a.data[key], (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(out_data, tensors, backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0 by an integer index array."""
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _make(a.data[idx], (a,), backward)


def take_along_last(a: Tensor, idx) -> Tensor:
    """Gather one entry per position along the last axis (e.g. CE targets)."""
    idx = np.asarray(idx, dtype=np.int64)
    expanded = np.expand_dims(idx, -1)

    def backward(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        a._accumulate(full)

    return _make(np.take_along_axis(a.data, expanded, axis=-1)[..., 0], (a,), backward)


# ---- reductions ----------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        count = a.data.shape[axis]
    return mul_const(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; the subgradient routes to the first argmax."""
    if axis is None:
        flat = reshape(a, (a.size,))
        return max_(flat, axis=0, keepdims=keepdims)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    arg = np.argmax(a.data, axis=axis)

    def backward(g):
        if not keepdims:
            g_exp = np.expand_dims(g, axis)
        else:
            g_exp = g
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(arg, axis), g_exp, axis=axis)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gg - m1 - xhat * m2) * inv)

    return _make(out_data, (x, gamma, beta), backward)


# ---- matmul --------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-d")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused x @ W + b over the last axis (the layer workhorse).

    Leading axes are flattened into one GEMM; batched np.matmul would loop
    tiny BLAS calls instead.
    """
    in_dim = weight.data.shape[0]
    if x.data.shape[-1] != in_dim:
        raise ShapeError(f"affine inner dims differ: {x.data.shape} @ {weight.data.shape}")
    lead_shape = x.data.shape[:-1]
    flat = x.data.reshape(-1, in_dim)
    out_data = (flat @ weight.data + bias.data).reshape(lead_shape + (weight.data.shape[1],))

    def backward(g):
        gflat = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate((gflat @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            weight._accumulate(flat.T @ gflat)
        if bias.requires_grad:
            bias._accumulate(gflat.sum(axis=0))

    return _make(out_data, (x, weight, bias), backward)


# ---- softmax -------------------------------------------------------------


def _softmax_rows(z: np.ndarray):
    """Softmax over the last axis of additively masked logits.

    Returns (probabilities, empty): rows whose every entry is masked fall
    back to the uniform distribution and are flagged in ``empty``.
    """
    row_max = z.max(axis=-1, keepdims=True)
    empty = row_max[..., 0] < _ALL_MASKED_CUTOFF
    probs = np.exp(z - row_max)
    probs /= probs.sum(axis=-1, keepdims=True)
    if empty.any():
        probs[empty] = 1.0 / probs.shape[-1]
    return probs, empty


def _softmax_backward(g: np.ndarray, probs: np.ndarray, empty: np.ndarray) -> np.ndarray:
    gl = g - (g * probs).sum(axis=-1, keepdims=True)
    gl *= probs
    if empty.any():
        gl[empty] = 0.0
    return gl


def masked_softmax(logits: Tensor, addmask=None) -> Tensor:
    """Softmax over the last axis of ``logits + addmask``.

    ``addmask`` entries are 0 (keep) or NEG_INF (drop) and broadcast
    against the logits. Rows with every entry masked fall back to the
    uniform distribution, receive zero gradient, and are flagged on the
    result's ``empty_rows`` attribute.
    """
    logits = _as_tensor(logits)
    if addmask is None:
        z = logits.data
    else:
        mask_data = addmask.data if isinstance(addmask, Tensor) else np.asarray(addmask, dtype=np.float64)
        z = logits.data + mask_data
    out_data, empty = _softmax_rows(z)

    def backward(g):
        logits._accumulate(_unbroadcast(_softmax_backward(g, out_data, empty), logits.data.shape))

    out = _make(out_data, (logits,), backward)
    out.empty_rows = empty if empty.any() else None
    return out


def softmax(logits: Tensor) -> Tensor:
    return masked_softmax(logits, None)


# ---- fused multi-head attention --------------------------------------------


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (..., t, C) -> (..., h, t, d)
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (..., h, t, d) -> (..., t, C)
    merged = x.swapaxes(-2, -3)
    return merged.reshape(merged.shape[:-2] + (merged.shape[-2] * merged.shape[-1],))


def _segment_slots(counts: np.ndarray):
    """Packed-row layout of segments padded to the longest one.

    Returns (slot of each packed row in the flattened (segments, t_max)
    grid, (segments, t_max) validity mask); empty segments are dropped.
    """
    sizes = counts[counts > 0]
    t_max = int(sizes.max(initial=1))
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    base = np.repeat(np.arange(sizes.size) * t_max, sizes)
    slots = base + np.arange(starts.size) - starts
    valid = np.zeros(sizes.size * t_max, dtype=bool)
    valid[slots] = True
    return slots, valid.reshape(sizes.size, t_max)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, addmask=None, segments=None) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` (..., t_q, C) attends over ``k`` and ``v`` (..., t_kv, C) in
    ``heads`` heads of C / heads channels; the result is the merged
    context (..., t_q, C), before any output projection. The backward
    reuses the saved attention probabilities.

    ``addmask`` is additive over key positions (0 or NEG_INF), broadcast
    against the scores (..., heads, t_q, t_kv). Rows with every key masked
    attend uniformly, receive zero gradient and are flagged on the
    result's ``empty_rows``, as in ``masked_softmax``.

    ``segments`` selects packed mode: q, k and v are (T, C) rows grouped
    in consecutive segments of the given lengths (zeros allowed), and each
    row attends to the rows of its own segment only. The rows are laid out
    per segment, padded to the longest, with the padding masked.
    """
    c = q.data.shape[-1]
    if c % heads or k.data.shape[-1] != c or v.data.shape != k.data.shape:
        raise ShapeError(f"attention operands {q.shape}, {k.shape}, {v.shape} with {heads} heads")
    if q.data.shape[:-2] != k.data.shape[:-2]:
        raise ShapeError(f"attention batch axes differ: {q.shape} vs {k.shape}")
    qd, kd, vd = q.data, k.data, v.data
    slots = None
    if segments is not None:
        counts = np.asarray(segments, dtype=np.int64)
        if q.ndim != 2 or counts.sum() != qd.shape[0] or kd.shape != qd.shape:
            raise ShapeError(f"packed attention needs (T, C) rows in segments summing to T, got {q.shape}")
        if addmask is not None:
            raise ShapeError("packed attention builds its own key mask; pass segments or addmask")
        slots, valid = _segment_slots(counts)
        shape = valid.shape + (c,)

        def pad(x):
            full = np.zeros((valid.size, c))
            full[slots] = x
            return full.reshape(shape)

        qd, kd, vd = pad(qd), pad(kd), pad(vd)
        addmask = np.where(valid, 0.0, NEG_INF)[:, None, None, :]
    scale = 1.0 / np.sqrt(c // heads)
    qh, kh, vh = _split_heads(qd, heads), _split_heads(kd, heads), _split_heads(vd, heads)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= scale
    if addmask is not None:
        scores = scores + (addmask.data if isinstance(addmask, Tensor) else np.asarray(addmask, dtype=np.float64))
    probs, empty = _softmax_rows(scores)
    out_data = _merge_heads(np.matmul(probs, vh))
    if slots is not None:
        out_data = out_data.reshape(-1, c)[slots]

    def backward(g):
        if slots is not None:
            full = np.zeros((probs.shape[0] * probs.shape[-2], c))
            full[slots] = g
            g = full.reshape(qd.shape)
        gctx = _split_heads(g, heads)
        gs = _softmax_backward(np.matmul(gctx, vh.swapaxes(-1, -2)), probs, empty)
        gs *= scale
        grads = (
            (q, np.matmul(gs, kh)),
            (k, np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-1, -2)),
            (v, np.matmul(probs.swapaxes(-1, -2), gctx)),
        )
        for t, gh in grads:
            if t.requires_grad:
                gt = _merge_heads(gh)
                t._accumulate(gt.reshape(-1, c)[slots] if slots is not None else gt)

    out = _make(out_data, (q, k, v), backward)
    out.empty_rows = empty if empty.any() else None
    return out


def segment_max(x: Tensor, counts) -> Tensor:
    """Per-segment max over the rows of ``x`` (T, C) in consecutive
    segments of the given lengths; (segments, C) out.

    An empty segment yields a zero row. The subgradient routes to the
    first row that reaches each maximum.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != x.data.shape[0]:
        raise ShapeError(f"segments sum to {counts.sum()}, rows {x.data.shape[0]}")
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    out_data = np.zeros((counts.size,) + x.data.shape[1:])
    if starts.size:
        out_data[nonempty] = np.maximum.reduceat(x.data, starts, axis=0)

    def backward(g):
        full = np.zeros_like(x.data)
        if starts.size:
            rows = np.arange(x.data.shape[0]).reshape((-1,) + (1,) * (x.ndim - 1))
            hit = x.data == np.repeat(out_data, counts, axis=0)
            first = np.minimum.reduceat(np.where(hit, rows, x.data.shape[0]), starts, axis=0)
            np.put_along_axis(full, first, g[nonempty], axis=0)
        x._accumulate(full)

    return _make(out_data, (x,), backward)


# ---- gather / scatter for spatial ops -------------------------------------


def gather_flat(a: Tensor, flat_idx, out_shape) -> Tensor:
    """Index the flattened tensor with ``flat_idx`` (shape ``out_shape``).

    Backward scatter-adds, so repeated indices accumulate correctly.
    """
    flat_idx = np.asarray(flat_idx, dtype=np.int64)

    def backward(g):
        full = np.zeros(a.data.size, dtype=np.float64)
        np.add.at(full, flat_idx.reshape(-1), g.reshape(-1))
        a._accumulate(full.reshape(a.data.shape))

    return _make(a.data.reshape(-1)[flat_idx].reshape(out_shape), (a,), backward)


def pad2d(a: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]

    def backward(g):
        sl = tuple([slice(None)] * (a.ndim - 2) + [slice(pad, g.shape[-2] - pad), slice(pad, g.shape[-1] - pad)])
        a._accumulate(g[sl])

    return _make(np.pad(a.data, width), (a,), backward)
