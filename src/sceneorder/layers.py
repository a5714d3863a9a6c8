"""Network building blocks: linear, layer norm, attention, transformer layers.

All layers are pre-norm and operate on token tensors shaped (..., t, C),
so the same code serves single sequences and batched ones; attention can
also run over packed (T, C) rows of independent sequences. The module
also holds ConfigError and ``config_from_dict``, which every config
dataclass is built with.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class ConfigError(ValueError):
    """Inconsistent layer / model configuration."""


def config_from_dict(cls, obj, section: str):
    """Build the config dataclass ``cls`` from a JSON object.

    Nested config dataclasses are built the same way and lists become
    tuples in tuple fields. A key that names no field raises ConfigError
    naming the section and the key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{section}: expected an object, got {type(obj).__name__}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in types:
            raise ConfigError(f"{section}: unknown key {key!r}")
        if dataclasses.is_dataclass(types[key]):
            value = config_from_dict(types[key], value, f"{section}.{key}")
        elif types[key] is tuple and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_in, fan_out) if shape is None else shape
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> Tensor:
    limit = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


class Module:
    """Plain attribute-walking container; no registration ceremony."""

    def _named_tensors(self, prefix: str = ""):
        """Every tensor attribute by dotted name, frozen ones included, also
        inside submodules and inside lists and tuples (by index)."""
        for name, value in vars(self).items():
            items = enumerate(value) if isinstance(value, (list, tuple)) else [(None, value)]
            for i, item in items:
                key = f"{prefix}{name}" if i is None else f"{prefix}{name}.{i}"
                if isinstance(item, Tensor):
                    yield key, item
                elif isinstance(item, Module):
                    yield from item._named_tensors(f"{key}.")

    def named_params(self) -> dict[str, Tensor]:
        return {key: t for key, t in self._named_tensors() if t.requires_grad}

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad = None

    def freeze(self) -> None:
        for p in self.params():
            p.requires_grad = False

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All parameters (frozen included) as raw arrays, for checkpoints."""
        return {key: t.data for key, t in self._named_tensors()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        have = self.state_arrays()
        missing = sorted(set(have) - set(arrays))
        if missing:
            raise ConfigError(f"checkpoint missing tensors: {missing[:5]}")
        for name, value in arrays.items():
            if name in have:
                if have[name].shape != value.shape:
                    raise ConfigError(f"shape mismatch for {name}: {have[name].shape} vs {value.shape}")
                have[name][...] = value


class Linear(Module):
    def __init__(self, rng, in_dim: int, out_dim: int, zero_init: bool = False):
        if zero_init:
            self.weight = Tensor(np.zeros((in_dim, out_dim)), requires_grad=True)
        else:
            self.weight = xavier_uniform(rng, in_dim, out_dim)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ag.affine(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.gamma, self.beta, self.eps)


class Mlp(Module):
    """Two-layer GELU MLP."""

    def __init__(self, rng, in_dim: int, hidden: int, out_dim: int):
        self.fc1 = Linear(rng, in_dim, hidden)
        self.fc2 = Linear(rng, hidden, out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ag.gelu(self.fc1(x)))


class Adapter(Module):
    """Residual bottleneck: x + up(gelu(down(x))).

    Zero-initialized up-projection makes the adapter an exact identity at
    init, so enabling fresh adapters cannot change step-0 predictions.
    """

    def __init__(self, rng, dim: int, bottleneck: int = 64):
        if bottleneck < 1:
            raise ConfigError("adapter bottleneck must be >= 1")
        self.down_weight = kaiming_uniform(rng, dim, (dim, bottleneck))
        self.down_bias = Tensor(np.zeros(bottleneck), requires_grad=True)
        self.up_weight = Tensor(np.zeros((bottleneck, dim)), requires_grad=True)
        self.up_bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        h = ag.gelu(ag.matmul(x, self.down_weight) + self.down_bias)
        return x + ag.matmul(h, self.up_weight) + self.up_bias


class MultiHeadAttention(Module):
    def __init__(self, rng, dim: int, heads: int):
        if dim % heads != 0:
            raise ConfigError(f"channel dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def __call__(self, x: Tensor, kv: Tensor | None = None, addmask=None, segments=None) -> Tensor:
        """Attention of ``x`` over ``kv`` (self-attention when kv is None).

        ``addmask`` is additive over key positions: shape (t_kv,) or
        broadcastable to (..., heads, t_q, t_kv); entries 0 or NEG_INF.
        ``segments`` instead packs independent sequences as consecutive
        rows of a (T, C) ``x`` (see ``autograd.attention``).
        """
        kv = x if kv is None else kv
        ctx = ag.attention(self.wq(x), self.wk(kv), self.wv(kv), self.heads, addmask, segments)
        return self.wo(ctx)


class TransformerLayer(Module):
    """Pre-norm block: attention + 2-layer GELU feed-forward, both residual.

    Optional adapters wrap the sublayer outputs; ``adapter_mode`` is one of
    None, "ffn_only", "attn_and_ffn".
    """

    def __init__(self, rng, dim: int, heads: int, d_ffn: int, adapter_mode: str | None = None, adapter_dim: int = 64):
        self.dim = dim
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim, heads)
        self.norm2 = LayerNorm(dim)
        self.ffn1 = Linear(rng, dim, d_ffn)
        self.ffn2 = Linear(rng, d_ffn, dim)
        self.attn_adapter = None
        self.ffn_adapter = None
        if adapter_mode is not None:
            self.attach_adapters(rng, adapter_mode, adapter_dim)

    def attach_adapters(self, rng, mode: str, adapter_dim: int = 64) -> None:
        if mode not in ("ffn_only", "attn_and_ffn"):
            raise ConfigError(f"unknown adapter mode {mode!r}")
        self.ffn_adapter = Adapter(rng, self.dim, adapter_dim)
        if mode == "attn_and_ffn":
            self.attn_adapter = Adapter(rng, self.dim, adapter_dim)

    def __call__(self, x: Tensor, kv: Tensor | None = None, addmask=None, segments=None) -> Tensor:
        a = self.attn(self.norm1(x), kv=kv, addmask=addmask, segments=segments)
        if self.attn_adapter is not None:
            a = self.attn_adapter(a)
        x = x + a
        h = self.ffn2(ag.gelu(self.ffn1(self.norm2(x))))
        if self.ffn_adapter is not None:
            h = self.ffn_adapter(h)
        return x + h
