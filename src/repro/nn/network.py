"""Feed-forward network container.

The network is a sequence of :class:`DenseLayer`; classification follows
the paper's maxpool-as-argmax rule ``⟨L0 ≥ L1 → L0, L1 ≥ L0 → L1⟩``:
ties resolve to the lower class index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..errors import ShapeError
from ..rational import argmax_with_tiebreak, to_fraction_vector
from .layers import DenseLayer


class Network:
    """A fully-connected feed-forward classifier."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ShapeError("a network needs at least one layer")
        for previous, current in zip(layers, layers[1:]):
            if previous.out_features != current.in_features:
                raise ShapeError(
                    f"layer size mismatch: {previous.out_features} -> {current.in_features}"
                )
        self.layers = layers

    # -- shapes --------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return self.layers[0].in_features

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].out_features

    @property
    def hidden_sizes(self) -> list[int]:
        return [layer.out_features for layer in self.layers[:-1]]

    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    # -- float path -----------------------------------------------------------

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw output-layer values (vector input or batch)."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> int | np.ndarray:
        """Predicted class label(s); ties resolve to the lower index."""
        out = self.logits(x)
        if out.ndim == 1:
            return int(_argmax_low_tie(out))
        return np.array([_argmax_low_tie(row) for row in out], dtype=np.int64)

    # -- exact path -------------------------------------------------------------

    def logits_exact(self, x: Sequence) -> list[Fraction]:
        """Exact rational logits for a single input vector."""
        out = to_fraction_vector(x)
        for layer in self.layers:
            out = layer.forward_exact(out)
        return out

    def predict_exact(self, x: Sequence) -> int:
        """Exact predicted class; this is the value formal analysis checks."""
        return argmax_with_tiebreak(self.logits_exact(x))

    # -- misc ---------------------------------------------------------------------

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])

    def __repr__(self):
        shape = " -> ".join(
            [str(self.num_inputs)] + [str(layer.out_features) for layer in self.layers]
        )
        return f"Network({shape})"


def _argmax_low_tie(row: np.ndarray) -> int:
    """numpy argmax already breaks ties toward the lowest index."""
    return int(np.argmax(row))
