"""AdamW with decoupled weight decay, operating on named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .rules import Rule, check
from .tensor import Tensor, active_tape

# Adam's moment decay rates and denominator guard, at the common defaults.
BETAS = (0.9, 0.999)
EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerSettings:
    """Hyperparameters only; the mutable moment state lives in AdamW."""

    lr: float = 1e-3
    weight_decay: float = 0.0

    RULES = dict.fromkeys(("lr", "weight_decay"), Rule("a number", "non-negative"))

    def __post_init__(self):
        check(self.RULES, vars(self), "optimizer settings: {}")


class AdamW:
    """Decoupled-weight-decay adaptive optimizer over a named parameter dict.

    step() consumes populated grads, zeroes them, and clears the active tape,
    returning the engine to an empty-tape state between steps.
    """

    def __init__(self, params: dict[str, Tensor], settings: OptimizerSettings):
        self.params = params
        self.settings = settings
        # first and second moments, and the step count of bias correction
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.step_count = 0

    def step(self) -> None:
        s = self.settings
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                raise StateError(f"optimizer_step: parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.params.items():
            g = p.grad
            if s.weight_decay != 0.0:
                p.data *= 1.0 - s.lr * s.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= s.lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
            p.grad.fill(0.0)
        active_tape().clear()
