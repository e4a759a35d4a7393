"""Quantisation: snap a float network onto exact rationals.

Model checking demands a discrete, exactly-representable model (the paper
declares its inputs over ``Z`` in Fig. 3).  We snap every weight and bias
to a rational with a fixed denominator (``weight_scale``) and the inputs
to integers (``input_scale`` applied upstream in :mod:`repro.data`).  The
quantised network — not the float one — is what every formal engine, the
SMV translation and the exact reference evaluator all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import ShapeError
from ..rational import argmax_with_tiebreak, mat_vec, relative_noise, vec_add
from .network import Network


@dataclass(frozen=True)
class QuantizedLayer:
    """Exact-rational affine layer with an optional ReLU."""

    weights: tuple[tuple[Fraction, ...], ...]
    bias: tuple[Fraction, ...]
    relu: bool

    @property
    def in_features(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    @property
    def out_features(self) -> int:
        return len(self.weights)

    def preactivation(self, x: Sequence[Fraction]) -> list[Fraction]:
        if len(x) != self.in_features:
            raise ShapeError(f"input length {len(x)} != in_features {self.in_features}")
        return vec_add(mat_vec([list(row) for row in self.weights], list(x)), list(self.bias))

    def forward(self, x: Sequence[Fraction]) -> list[Fraction]:
        pre = self.preactivation(x)
        if not self.relu:
            return pre
        zero = Fraction(0)
        return [v if v > zero else zero for v in pre]


class QuantizedNetwork:
    """Exact-rational feed-forward classifier (the formally analysed object)."""

    def __init__(self, layers: Sequence[QuantizedLayer]):
        layers = list(layers)
        if not layers:
            raise ShapeError("a quantized network needs at least one layer")
        for previous, current in zip(layers, layers[1:]):
            if previous.out_features != current.in_features:
                raise ShapeError(
                    f"layer size mismatch: {previous.out_features} -> {current.in_features}"
                )
        self.layers = layers

    @property
    def num_inputs(self) -> int:
        return self.layers[0].in_features

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].out_features

    def logits(self, x: Sequence) -> list[Fraction]:
        out = [_as_fraction(v) for v in x]
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: Sequence) -> int:
        return argmax_with_tiebreak(self.logits(x))

    # -- the paper's noise channel ------------------------------------------

    def noisy_input(self, x: Sequence, percents: Sequence[int]) -> list[Fraction]:
        """Apply per-node relative noise ``x_i (100 + p_i)/100`` exactly."""
        if len(x) != len(percents):
            raise ShapeError("noise vector length must match input length")
        return [
            relative_noise(_as_fraction(v), int(p)) for v, p in zip(x, percents)
        ]

    def predict_noisy(self, x: Sequence, percents: Sequence[int]) -> int:
        return self.predict(self.noisy_input(x, percents))

    def parameter_count(self) -> int:
        return sum(
            layer.in_features * layer.out_features + layer.out_features
            for layer in self.layers
        )

    def __repr__(self):
        shape = " -> ".join(
            [str(self.num_inputs)] + [str(layer.out_features) for layer in self.layers]
        )
        return f"QuantizedNetwork({shape})"


def _as_fraction(value) -> Fraction:
    """Coerce to Fraction with *python-int* internals.

    ``Fraction(numpy.int64(...))`` keeps the numpy scalar as numerator and
    later arithmetic silently overflows at 64 bits — exactly the failure
    exact inference exists to rule out.
    """
    if isinstance(value, Fraction):
        return value
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        raise TypeError("quantized networks take integer/rational inputs")
    return Fraction(int(value))


def _snap(value: float, scale: int) -> Fraction:
    """Round ``value`` to the nearest multiple of ``1/scale``."""
    return Fraction(round(value * scale), scale)


def quantize_network(network: Network, weight_scale: int = 1000) -> QuantizedNetwork:
    """Snap a trained float network to rationals with denominator ``weight_scale``.

    A scale of 1000 keeps three decimal digits of each weight — enough for
    the 5-20-2 case study to preserve every test-set prediction (checked by
    the integration tests), while keeping model-checking state small.
    """
    if weight_scale <= 0:
        raise ValueError("weight_scale must be positive")
    quantized = []
    for layer in network.layers:
        weights = tuple(
            tuple(_snap(w, weight_scale) for w in row) for row in layer.weights
        )
        bias = tuple(_snap(b, weight_scale) for b in layer.bias)
        quantized.append(QuantizedLayer(weights, bias, relu=layer.activation.name == "relu"))
    return QuantizedNetwork(quantized)
