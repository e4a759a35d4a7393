"""Scaled-integer encoding of the FANNet noise query.

The paper's model works over integers (Fig. 3 declares inputs in ``Z``);
the trick that makes that exact is a per-layer rescaling.  With weight
denominators dividing ``S`` (the quantisation scale):

- noisy scaled input:   ``A0_i = x_i·(100 + p_i)``             (scale 100)
- hidden pre-act:       ``N1 = 100·S·b1 + (S·w1) @ A0``        (scale 100·S)
- hidden post-act:      ``A1 = max(0, N1)``                    (scale 100·S)
- output:               ``N2 = 100·S²·b2 + (S·w2) @ A1``       (scale 100·S²)

Every coefficient is an integer, positive rescaling commutes with ReLU
and argmax, so the integer pipeline predicts exactly what the rational
network predicts — and strict comparisons become ``≥ 1``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..config import NoiseConfig
from ..errors import VerificationError
from ..nn.quantize import QuantizedNetwork

#: Stay clear of int64 limits: fall back to exact object arithmetic above this.
_INT64_SAFE = 2**62


def forward_scaled(values, weights, biases) -> np.ndarray:
    """Push pre-scaled input rows ``x·(100+p)`` through the network.

    The one definition of the scaled forward semantics (affine layers,
    ReLU on all but the last, already-cast integer arrays) shared by
    :meth:`ScaledQuery.forward_batch` and the frontier plane's
    concatenated evaluations (:func:`repro.verify.batch.labels_for_rows`)
    — keeping the bulk path equal to the per-query path by construction.
    """
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        values = values @ weight.T + bias
        if index < len(weights) - 1:
            values = np.maximum(values, 0)
    return values


@dataclass
class ScaledQuery:
    """One robustness query in scaled-integer form.

    ``weights[l]`` and ``biases[l]`` are integer numpy matrices/vectors
    (dtype int64 or object, chosen by magnitude analysis); hidden layers
    are ReLU, the final layer is linear, classification is argmax with
    ties to the lower index.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x: np.ndarray  # integer inputs
    true_label: int
    low: np.ndarray  # per-input lower noise percent
    high: np.ndarray  # per-input upper noise percent
    exact_dtype: bool  # True when using object (unbounded) integers

    # -- shapes ---------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return self.x.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def hidden_sizes(self) -> list[int]:
        return [w.shape[0] for w in self.weights[:-1]]

    # -- evaluation --------------------------------------------------------------

    def input_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """``A0 = const + diag(x) · p``: returns (const, diagonal coeffs)."""
        return 100 * self.x, self.x.copy()

    def forward_batch(self, noise: np.ndarray) -> np.ndarray:
        """Final-layer scaled values for a batch of noise rows (exact)."""
        noise = np.asarray(noise)
        if noise.ndim != 2 or noise.shape[1] != self.num_inputs:
            raise VerificationError(
                f"noise batch must be (m, {self.num_inputs})"
            )
        dtype = object if self.exact_dtype else np.int64
        values = (self.x.astype(dtype) * (100 + noise.astype(dtype)))
        return forward_scaled(
            values,
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
        )

    def labels_for_batch(self, noise: np.ndarray) -> np.ndarray:
        """Predicted labels per noise row (argmax, ties to lower index)."""
        return np.argmax(self.forward_batch(noise), axis=1)

    @functools.cached_property
    def _python_ints(self) -> tuple[list, list, list]:
        """Inputs, weight rows and biases as Python ints, built once."""
        return (
            [int(v) for v in self.x],
            [[[int(v) for v in row] for row in weight] for weight in self.weights],
            [[int(v) for v in bias] for bias in self.biases],
        )

    def predict_single(self, noise) -> int:
        """Predicted label for one noise vector (pure-python exact ints)."""
        x, weights, biases = self._python_ints
        values = [xi * (100 + int(pi)) for xi, pi in zip(x, noise)]
        for rows, bias in zip(weights[:-1], biases[:-1]):
            values = [
                s if (s := b + sum(map(operator.mul, row, values))) > 0 else 0
                for row, b in zip(rows, bias)
            ]
        logits = [
            b + sum(map(operator.mul, row, values))
            for row, b in zip(weights[-1], biases[-1])
        ]
        # index() finds the first maximum: ties go to the lower index.
        return logits.index(max(logits))

    def misclassified(self, noise) -> bool:
        return self.predict_single(noise) != self.true_label

    # -- misclassification margins ---------------------------------------------------

    def misclass_threshold(self, adversary: int) -> int:
        """``N_adv - N_true >= threshold`` expresses a flip to ``adversary``.

        The argmax tie-break favours the lower index, so an adversary with
        a smaller index wins on equality (threshold 0), a larger index
        needs a strict win (threshold 1 — valid because all scaled values
        are integers).
        """
        if adversary == self.true_label:
            raise VerificationError("adversary must differ from the true label")
        return 0 if adversary < self.true_label else 1

    # -- interval analysis --------------------------------------------------------------

    def layer_bounds(self) -> list[tuple[list[int], list[int]]]:
        """Exact pre-activation bounds per layer under the noise box.

        Returns, per layer, (lower, upper) lists of python ints for the
        pre-activation values; used by the interval verifier and as the
        phase-fixing prepass of the complete engines.
        """
        low = [int(xi) * (100 + int(lo)) for xi, lo in zip(self.x, self.low)]
        high = [int(xi) * (100 + int(hi)) for xi, hi in zip(self.x, self.high)]
        # Negative inputs flip the interval; inputs here are >= 1 by
        # construction, but stay general.
        act_low = [min(a, b) for a, b in zip(low, high)]
        act_high = [max(a, b) for a, b in zip(low, high)]

        bounds: list[tuple[list[int], list[int]]] = []
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre_low, pre_high = [], []
            for j in range(weight.shape[0]):
                total_low = int(self.biases[index][j])
                total_high = int(self.biases[index][j])
                for i in range(weight.shape[1]):
                    coeff = int(weight[j][i])
                    if coeff >= 0:
                        total_low += coeff * act_low[i]
                        total_high += coeff * act_high[i]
                    else:
                        total_low += coeff * act_high[i]
                        total_high += coeff * act_low[i]
                pre_low.append(total_low)
                pre_high.append(total_high)
            bounds.append((pre_low, pre_high))
            if index < self.num_layers - 1:
                act_low = [max(0, v) for v in pre_low]
                act_high = [max(0, v) for v in pre_high]
        return bounds

    def noise_space_size(self) -> int:
        """Number of noise vectors in the box."""
        size = 1
        for lo, hi in zip(self.low, self.high):
            size *= int(hi) - int(lo) + 1
        return size


def build_query(
    network: QuantizedNetwork,
    x,
    true_label: int,
    noise: NoiseConfig,
    weight_scale: int = 1000,
) -> ScaledQuery:
    """Encode ``network`` + input + noise range as a :class:`ScaledQuery`.

    Raises :class:`VerificationError` when the network's rationals do not
    fit the scale or the input is not integral — both would silently
    break exactness.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != network.num_inputs:
        raise VerificationError(
            f"input must be a vector of length {network.num_inputs}"
        )
    if not np.issubdtype(x.dtype, np.integer):
        raise VerificationError("inputs must be integers (scale them first)")
    if not 0 <= true_label < network.num_outputs:
        raise VerificationError(f"true label {true_label} out of range")

    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    scale_factor = 100  # running scale of the incoming activations
    for layer in network.layers:
        weight_rows = []
        for row in layer.weights:
            weight_rows.append([_as_scaled_int(w, weight_scale) for w in row])
        scale_factor *= weight_scale
        bias_row = [
            _scaled_bias(b, weight_scale, scale_factor) for b in layer.bias
        ]
        weights.append(np.array(weight_rows, dtype=object))
        biases.append(np.array(bias_row, dtype=object))

    low = np.full(network.num_inputs, noise.low, dtype=np.int64)
    high = np.full(network.num_inputs, noise.high, dtype=np.int64)

    query = ScaledQuery(
        weights=weights,
        biases=biases,
        x=x.astype(np.int64),
        true_label=true_label,
        low=low,
        high=high,
        exact_dtype=True,
    )
    # Magnitude analysis: drop to fast int64 when provably safe.
    if _int64_partial_sums_safe(weights, biases, x, low, high):
        query.weights = [w.astype(np.int64) for w in weights]
        query.biases = [b.astype(np.int64) for b in biases]
        query.exact_dtype = False
    return query


def _int64_partial_sums_safe(weights, biases, x, low, high) -> bool:
    """Whether *every* int64 computation on this query is overflow-free.

    The bound must cover more than the reachable activation values: the
    vectorised engines split each affine form into sign-separated matmul
    halves (``W⁺ @ act_low + W⁻ @ act_high`` in the interval pass) and
    accumulate dot products term by term, and those partial sums are not
    bounded by the cancellation-aware interval totals.  The triangle
    inequality is: propagate ``m ← max_row Σ_j |w_ij| · m + max_i |b_i|``
    from ``m = max_i |x_i| · max(|100+lo_i|, |100+hi_i|)``, which
    dominates every partial sum, every matmul half and every
    difference-of-logits bound any engine forms.  Arithmetic here is
    pure Python ints, so the check itself cannot wrap.
    """
    magnitude = max(
        (
            abs(int(xi)) * max(abs(100 + int(lo)), abs(100 + int(hi)))
            for xi, lo, hi in zip(x, low, high)
        ),
        default=0,
    )
    if magnitude >= _INT64_SAFE:
        return False
    for weight, bias in zip(weights, biases):
        row_mass = max(
            (sum(abs(int(v)) for v in row) for row in weight), default=0
        )
        bias_mass = max((abs(int(v)) for v in bias), default=0)
        magnitude = row_mass * magnitude + bias_mass
        if magnitude >= _INT64_SAFE:
            return False
    return True


def _as_scaled_int(value: Fraction, scale: int) -> int:
    scaled = value * scale
    if scaled.denominator != 1:
        raise VerificationError(
            f"weight {value} does not fit scale 1/{scale}; re-quantise the network"
        )
    return int(scaled)


def _scaled_bias(value: Fraction, scale: int, scale_factor: int) -> int:
    scaled = value * scale_factor
    if scaled.denominator != 1:
        raise VerificationError(
            f"bias {value} does not fit the layer scale; re-quantise the network"
        )
    return int(scaled)
