"""AdamW with decoupled weight decay and a stepped learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .layers import ConfigError


class AdamW:
    """Decoupled weight decay applied multiplicatively before the moment update."""

    def __init__(self, params: list[Tensor], lr: float, betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update. A parameter whose ``grad`` is None is only decayed; its
        moments stay as they are. An all-zero gradient still decays the
        moments, and the parameter moves by its remaining momentum."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepSchedule:
    """Multiply the base lr by ``factor`` at each fractional decay point."""

    def __init__(self, base_lr: float, total_steps: int, decay_fractions=(2.0 / 3.0, 11.0 / 12.0), factor: float = 0.1):
        fr = list(decay_fractions)
        if any(not (0.0 < f < 1.0) for f in fr) or fr != sorted(fr):
            raise ConfigError("decay fractions must lie in (0,1) and increase")
        self.base_lr = base_lr
        self.points = [int(round(f * total_steps)) for f in fr]
        self.factor = factor

    def lr_at(self, step: int) -> float:
        drops = sum(1 for p in self.points if step >= p)
        return self.base_lr * self.factor**drops
