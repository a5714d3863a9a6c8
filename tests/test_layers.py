from __future__ import annotations

import numpy as np
import pytest

import sceneorder.autograd as ag
from sceneorder.autograd import NEG_INF, Tensor
from sceneorder.layers import (
    Adapter,
    ConfigError,
    LayerNorm,
    Linear,
    Mlp,
    MultiHeadAttention,
    TransformerLayer,
)

from fd import check_grads


def test_heads_must_divide_dim():
    with pytest.raises(ConfigError):
        MultiHeadAttention(np.random.default_rng(0), dim=10, heads=3)


def test_transformer_layer_residual_identity():
    # Zeroed attention/FFN output projections: the block is the identity.
    rng = np.random.default_rng(1)
    layer = TransformerLayer(rng, dim=8, heads=2, d_ffn=16)
    layer.attn.wo.weight.data[...] = 0.0
    layer.attn.wo.bias.data[...] = 0.0
    layer.ffn2.weight.data[...] = 0.0
    layer.ffn2.bias.data[...] = 0.0
    x = Tensor(rng.standard_normal((5, 8)))
    out = layer(x)
    np.testing.assert_allclose(out.data, x.data)


def test_single_token_attends_to_itself():
    rng = np.random.default_rng(2)
    attn = MultiHeadAttention(rng, dim=8, heads=2)
    x = Tensor(rng.standard_normal((1, 8)))
    # weight on the only key is 1, so the context equals wo(wv(x)).
    out = attn(x)
    expected = attn.wo(attn.wv(x))
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_transformer_layer_shape_preserved_and_deterministic():
    rng = np.random.default_rng(3)
    layer = TransformerLayer(rng, dim=8, heads=4, d_ffn=32)
    x = Tensor(np.random.default_rng(4).standard_normal((7, 8)))
    out1 = layer(x)
    out2 = layer(x)
    assert out1.shape == (7, 8)
    assert np.array_equal(out1.data, out2.data)


def test_transformer_layer_fd_gradients():
    # 3 tokens, C=8: every weight against central differences.
    rng = np.random.default_rng(5)
    layer = TransformerLayer(rng, dim=8, heads=2, d_ffn=12)
    x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    target = np.random.default_rng(6).standard_normal((3, 8))
    leaves = [x] + layer.params()

    def loss():
        diff = layer(x) - target
        return ag.sum_(diff * diff)

    check_grads(loss, leaves, tol=1e-4)


def test_masked_attention_ignores_masked_keys():
    rng = np.random.default_rng(7)
    attn = MultiHeadAttention(rng, dim=8, heads=2)
    x = Tensor(rng.standard_normal((4, 8)))
    mask = np.array([0.0, 0.0, NEG_INF, NEG_INF])
    out_masked = attn(x, addmask=mask)
    # Alter the masked tokens; outputs for rows 0-1 must not move.
    x2 = x.data.copy()
    x2[2:] += 100.0
    out_masked2 = attn(Tensor(x2), addmask=mask)
    np.testing.assert_allclose(out_masked.data[:2], out_masked2.data[:2], atol=1e-10)


def test_layernorm_normalizes_last_axis():
    rng = np.random.default_rng(8)
    ln = LayerNorm(16)
    out = ln(Tensor(rng.standard_normal((5, 16)) * 5 + 3)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_linear_bias_and_shape():
    rng = np.random.default_rng(9)
    lin = Linear(rng, 4, 6)
    out = lin(Tensor(np.zeros((3, 4))))
    np.testing.assert_allclose(out.data, np.broadcast_to(lin.bias.data, (3, 6)))


def test_adapter_identity_at_init():
    rng = np.random.default_rng(10)
    adapter = Adapter(rng, dim=8, bottleneck=4)
    x = Tensor(rng.standard_normal((5, 8)))
    np.testing.assert_array_equal(adapter(x).data, x.data)


def test_adapter_bottleneck_validation():
    with pytest.raises(ConfigError):
        Adapter(np.random.default_rng(0), dim=8, bottleneck=0)


def test_adapter_init_distribution():
    # Kaiming-uniform down projection, zero biases, zero up projection.
    rng = np.random.default_rng(11)
    adapter = Adapter(rng, dim=64, bottleneck=64)
    limit = np.sqrt(6.0 / 64)
    assert np.abs(adapter.down_weight.data).max() <= limit
    assert np.abs(adapter.down_weight.data).max() > 0.5 * limit
    assert not adapter.down_bias.data.any()
    assert not adapter.up_weight.data.any()
    assert not adapter.up_bias.data.any()


def test_mlp_fd_gradients():
    rng = np.random.default_rng(12)
    mlp = Mlp(rng, 6, 10, 4)
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    check_grads(lambda: ag.sum_(mlp(x) ** 2.0), [x] + mlp.params())


def test_named_params_walks_nested_modules():
    rng = np.random.default_rng(13)
    layer = TransformerLayer(rng, dim=8, heads=2, d_ffn=12, adapter_mode="ffn_only")
    names = set(layer.named_params())
    assert "attn.wq.weight" in names
    assert "ffn_adapter.up_weight" in names


def test_state_arrays_roundtrip():
    rng = np.random.default_rng(14)
    layer = TransformerLayer(rng, dim=8, heads=2, d_ffn=12)
    state = {k: v.copy() for k, v in layer.state_arrays().items()}
    for p in layer.params():
        p.data += 1.0
    layer.load_state_arrays(state)
    for k, v in layer.state_arrays().items():
        np.testing.assert_array_equal(v, state[k])
