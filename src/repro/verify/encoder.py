"""Scaled-integer encoding of the FANNet noise query.

The paper's model works over integers (Fig. 3 declares inputs in ``Z``);
the trick that makes that exact is a per-layer rescaling.  With ``S`` the
least common denominator of every weight and bias (the quantisation
scale, or a divisor of it):

- noisy scaled input:   ``A0_i = x_i·(100 + p_i)``             (scale 100)
- hidden pre-act:       ``N1 = 100·S·b1 + (S·w1) @ A0``        (scale 100·S)
- hidden post-act:      ``A1 = max(0, N1)``                    (scale 100·S)
- output:               ``N2 = 100·S²·b2 + (S·w2) @ A1``       (scale 100·S²)

Every coefficient is an integer, positive rescaling commutes with ReLU
and argmax, so the integer pipeline predicts exactly what the rational
network predicts — and strict comparisons become ``≥ 1``.

The scaled weights depend only on the network, so
:class:`NetworkEncoding` computes them once and every query over that
network shares them: :meth:`NetworkEncoding.query` builds one
:class:`ScaledQuery` per (input, label, noise box), and
:meth:`NetworkEncoding.labels` gives the exact zero-noise labels of many
inputs in one vectorised pass (the "correctly classified" filter of every
analysis).  :func:`build_query` is the one-off form.  Interval bounds
over a query's noise box live in :mod:`repro.verify.interval`
(:func:`~repro.verify.interval.layer_bounds`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ..config import NoiseConfig
from ..errors import VerificationError
from ..nn.quantize import QuantizedNetwork

#: Stay clear of int64 limits: fall back to exact object arithmetic above this.
_INT64_SAFE = 2**62
#: Integers below this are exact in float64, and so is every sum of them
#: that stays below it.
_FLOAT64_EXACT = 2**53


def forward_scaled(values, weights, biases) -> np.ndarray:
    """Push pre-scaled input rows ``x·(100+p)`` through the network.

    The one definition of the scaled forward semantics (affine layers,
    ReLU on all but the last, already-cast integer arrays) shared by
    :meth:`ScaledQuery.forward_batch` and the frontier plane's
    concatenated evaluations (:func:`repro.verify.batch.labels_for_rows`)
    — keeping the bulk path equal to the per-query path by construction.

    Object-int input runs in object ints throughout.  On int64 input a
    layer runs as a float64 matmul (BLAS) when the magnitude bound of
    :func:`_float64_exact_layers` proves every partial sum an integer
    below 2**53, so every float operation — in any summation order, fused
    or not — is exact; a layer not proved runs in int64 (exact by the
    caller's own int64 analysis), and the output is int64 again.
    """
    exact_in_float = (
        _float64_exact_layers(values, weights, biases)
        if values.dtype == np.int64
        else [False] * len(weights)
    )
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        if exact_in_float[index]:
            values = values.astype(np.float64, copy=False)
            values = values @ weight.astype(np.float64).T + bias.astype(np.float64)
        else:
            if values.dtype == np.float64:
                values = values.astype(np.int64)
            values = values @ weight.T + bias
        if index < len(weights) - 1:
            values = np.maximum(values, 0)
    if values.dtype == np.float64:
        values = values.astype(np.int64)
    return values


def _float64_exact_layers(values, weights, biases) -> list[bool]:
    """Per layer, whether float64 evaluates it exactly from int64 ``values``.

    The triangle-inequality argument of :meth:`NetworkEncoding._int64_safe`
    with a 2**53 threshold: from ``m = max |values|``, every product and
    partial sum of a layer is bounded by ``m' = row mass · m + bias mass``,
    which also bounds the next layer's inputs.  Pure Python ints, so the
    bound itself cannot round or wrap.
    """
    magnitude = 0
    if values.size:
        magnitude = max(abs(int(values.min())), abs(int(values.max())))
    exact = []
    for weight, bias in zip(weights, biases):
        row_mass = max((sum(map(abs, row)) for row in weight.tolist()), default=0)
        magnitude = row_mass * magnitude + max(map(abs, bias.tolist()), default=0)
        exact.append(magnitude < _FLOAT64_EXACT)
    return exact


@dataclass
class ScaledQuery:
    """One robustness query in scaled-integer form.

    ``weights[l]`` and ``biases[l]`` are integer numpy matrices/vectors
    (dtype int64 or object, chosen by magnitude analysis); hidden layers
    are ReLU, the final layer is linear, classification is argmax with
    ties to the lower index.  Queries built by a :class:`NetworkEncoding`
    share its read-only weight and bias arrays.
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

    def noise_space_size(self) -> int:
        """Number of noise vectors in the box."""
        size = 1
        for lo, hi in zip(self.low, self.high):
            size *= int(hi) - int(lo) + 1
        return size


class NetworkEncoding:
    """One network's scaled-integer weights, built once, shared by every query.

    Scaling a ``Fraction`` weight into an integer depends only on the
    network, so it runs here once per weight and bias instead of once per
    query.  The scale ``weight_scale`` is read off the network itself —
    the least common denominator of every weight and bias — so every
    parameter fits it exactly, whatever scale the network was quantised
    at.  The object-dtype arrays and their lazily built int64 copies are
    read-only: every :class:`ScaledQuery` this encoding builds aliases
    them, so an in-place write through one query would otherwise corrupt
    every later one.  Each layer's row mass and bias mass are kept too,
    which makes the int64 magnitude analysis of a query cost
    ``O(layers)``.
    """

    def __init__(self, network: QuantizedNetwork):
        self.num_inputs = network.num_inputs
        self.num_outputs = network.num_outputs
        self.weight_scale = weight_scale = math.lcm(
            *(
                value.denominator
                for layer in network.layers
                for row in (*layer.weights, layer.bias)
                for value in row
            )
        )
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        masses: list[tuple[int, int]] = []
        scale_factor = 100  # running scale of the incoming activations
        for layer in network.layers:
            weight_rows = [
                [_as_scaled_int(w, weight_scale) for w in row]
                for row in layer.weights
            ]
            scale_factor *= weight_scale
            bias_row = [int(b * scale_factor) for b in layer.bias]
            masses.append(
                (
                    max((sum(map(abs, row)) for row in weight_rows), default=0),
                    max(map(abs, bias_row), default=0),
                )
            )
            weights.append(_read_only(np.array(weight_rows, dtype=object)))
            biases.append(_read_only(np.array(bias_row, dtype=object)))
        self._exact = (weights, biases)
        self._masses = tuple(masses)

    @functools.cached_property
    def _int64(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        weights, biases = self._exact
        return (
            [_read_only(w.astype(np.int64)) for w in weights],
            [_read_only(b.astype(np.int64)) for b in biases],
        )

    def _arrays(self, exact: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Fresh lists of the shared (read-only) weight and bias arrays."""
        weights, biases = self._exact if exact else self._int64
        return list(weights), list(biases)

    def _int64_safe(self, magnitude: int) -> bool:
        """Whether int64 arithmetic is exact from input magnitude ``magnitude``.

        ``magnitude`` bounds every scaled input ``|x_i·(100+p_i)|``.  The
        bound must cover more than the reachable activation values: the
        vectorised engines split each affine form into sign-separated
        matmul halves (``W⁺ @ act_low + W⁻ @ act_high`` in the interval
        pass) and accumulate dot products term by term, and those partial
        sums are not bounded by the cancellation-aware interval totals.
        The triangle inequality is: propagate ``m ← max_row Σ_j |w_ij| · m
        + max_i |b_i|``, which dominates every partial sum, every matmul
        half and every difference-of-logits bound any engine forms.
        Arithmetic here is pure Python ints, so the check cannot wrap.
        """
        if magnitude >= _INT64_SAFE:
            return False
        for row_mass, bias_mass in self._masses:
            magnitude = row_mass * magnitude + bias_mass
            if magnitude >= _INT64_SAFE:
                return False
        return True

    def query(self, x, true_label: int, noise: NoiseConfig) -> ScaledQuery:
        """Encode input + noise range as a :class:`ScaledQuery`.

        Raises :class:`VerificationError` when the input is not an
        integer vector of the right length or the label is out of range.
        """
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self.num_inputs:
            raise VerificationError(
                f"input must be a vector of length {self.num_inputs}"
            )
        if not np.issubdtype(x.dtype, np.integer):
            raise VerificationError("inputs must be integers (scale them first)")
        if not 0 <= true_label < self.num_outputs:
            raise VerificationError(f"true label {true_label} out of range")
        reach = max(abs(100 + noise.low), abs(100 + noise.high))
        magnitude = max((abs(int(v)) for v in x), default=0) * reach
        exact = not self._int64_safe(magnitude)
        weights, biases = self._arrays(exact)
        return ScaledQuery(
            weights=weights,
            biases=biases,
            x=x.astype(np.int64),
            true_label=true_label,
            low=np.full(self.num_inputs, noise.low, dtype=np.int64),
            high=np.full(self.num_inputs, noise.high, dtype=np.int64),
            exact_dtype=exact,
        )

    @functools.cached_property
    def _int64_input_bound(self) -> int:
        """Largest ``max_i |x_i|`` whose zero-noise pass is int64-exact (-1: none)."""
        low, high = -1, _INT64_SAFE // 100
        while low < high:
            middle = (low + high + 1) // 2
            if self._int64_safe(100 * middle):
                low = middle
            else:
                high = middle - 1
        return low

    def labels(self, rows) -> np.ndarray:
        """Exact zero-noise labels (argmax, ties to the lower index) of many inputs.

        One :func:`forward_scaled` pass over every row whose magnitude
        the int64 analysis proves exact, one object-int pass over the
        rest; equal to ``QuantizedNetwork.predict`` row by row.
        """
        rows = np.asarray(rows)
        if rows.shape[:1] == (0,):
            return np.empty(0, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.num_inputs:
            raise VerificationError(f"input rows must be (m, {self.num_inputs})")
        if rows.dtype == object:
            if not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                for v in rows.flat
            ):
                raise VerificationError("inputs must be integers (scale them first)")
            rows = np.frompyfunc(int, 1, 1)(rows)  # numpy scalars would wrap
        elif not np.issubdtype(rows.dtype, np.integer):
            raise VerificationError("inputs must be integers (scale them first)")
        bound = self._int64_input_bound
        fast = ((rows <= bound) & (rows >= -bound)).all(axis=1).astype(bool)
        out = np.empty(rows.shape[0], dtype=np.int64)
        for exact, selected in ((False, fast), (True, ~fast)):
            if selected.any():
                dtype = object if exact else np.int64
                values = forward_scaled(
                    100 * rows[selected].astype(dtype), *self._arrays(exact)
                )
                out[selected] = np.argmax(values, axis=1)
        return out


def build_query(
    network: QuantizedNetwork, x, true_label: int, noise: NoiseConfig
) -> ScaledQuery:
    """Encode ``network`` + input + noise range as a :class:`ScaledQuery`.

    A one-off :class:`NetworkEncoding`; callers issuing many queries
    over one network should keep the encoding instead.
    """
    return NetworkEncoding(network).query(x, true_label, noise)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_scaled_int(value, scale: int) -> int:
    """``value·scale`` as an int; exact, since ``scale`` is a multiple of
    every weight's denominator."""
    return int(value * scale)

