"""Activation functions used by the paper's network.

The paper (§III-A) restricts itself to ReLU and maxpool "due to their
predominant use in practical NNs"; maxpool appears only as the final
argmax-style selection between the two output logits, which the network
container implements directly.  Each activation provides a float path
(numpy, for training) and an exact path (Fractions, for formal analysis).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np


class Activation:
    """Interface: elementwise activation with float and exact variants."""

    name: str = "abstract"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Derivative w.r.t. pre-activation, evaluated at pre-activation x."""
        raise NotImplementedError

    def forward_exact(self, x: Sequence[Fraction]) -> list[Fraction]:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """Rectified linear unit: ``max(0, x)``."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        # Subgradient choice at 0 matches the exact path: relu'(0) = 0.
        return (x > 0.0).astype(x.dtype)

    def forward_exact(self, x: Sequence[Fraction]) -> list[Fraction]:
        zero = Fraction(0)
        return [v if v > zero else zero for v in x]


class Identity(Activation):
    """Linear (no-op) activation, used on the output layer."""

    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)

    def forward_exact(self, x: Sequence[Fraction]) -> list[Fraction]:
        return list(x)


#: Registry used by serialisation and the SMV translator.
ACTIVATIONS: dict[str, type[Activation]] = {
    ReLU.name: ReLU,
    Identity.name: Identity,
}


def activation_by_name(name: str) -> Activation:
    """Instantiate a registered activation by its serialised name."""
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None
