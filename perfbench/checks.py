"""Output checks that do not trust the engines under test.

Every VULNERABLE witness is rechecked with this module's own exact
integer forward pass of ``x·(100+p)`` through the quantised weights; it
shares no code with the program's evaluators (``predict_single``,
``forward_scaled``, ``QuantizedNetwork.logits``).  Outputs are digested
as canonical JSON so that runs of one seed can be compared byte for
byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import random


class IntegerNetwork:
    """The quantised network as integer matrices with per-layer scales.

    Layer ``l`` computes ``z = W·a + b`` over rationals.  With ``D`` the
    lcm of the layer's denominators and the activations held as integers
    ``a_int = S·a``, ``D·S·z = (D·W)·a_int + (D·b)·S`` is an integer
    vector, so the whole pass runs in Python ints.  ReLU and argmax
    commute with the positive scale.
    """

    def __init__(self, quantized):
        self.layers = []
        for layer in quantized.layers:
            values = [w for row in layer.weights for w in row] + list(layer.bias)
            scale = math.lcm(*(v.denominator for v in values))
            weights = [[int(w * scale) for w in row] for row in layer.weights]
            bias = [int(b * scale) for b in layer.bias]
            self.layers.append((weights, bias, scale, layer.relu))

    def label(self, x, noise) -> int:
        """Predicted label of ``x`` under per-node noise percents ``noise``."""
        values = [int(xi) * (100 + int(pi)) for xi, pi in zip(x, noise)]
        activation_scale = 100
        for weights, bias, scale, relu in self.layers:
            values = [
                sum(w * v for w, v in zip(row, values)) + b * activation_scale
                for row, b in zip(weights, bias)
            ]
            if relu:
                values = [v if v > 0 else 0 for v in values]
            activation_scale *= scale
        best = 0  # ties go to the lower index, the paper's output rule
        for k in range(1, len(values)):
            if values[k] > values[best]:
                best = k
        return best


def witness_problem(net: IntegerNetwork, x, true_label: int, witness,
                    percent: int, flipped_to: int | None = None) -> str | None:
    """Why ``witness`` is not a valid ±percent counterexample, or None."""
    if witness is None or len(witness) != len(x):
        return f"malformed witness {witness!r}"
    if any(abs(int(p)) > percent for p in witness):
        return f"witness {list(witness)} leaves the ±{percent}% box"
    label = net.label(x, witness)
    if label == true_label:
        return f"witness {list(witness)} does not flip label {true_label}"
    if flipped_to is not None and label != flipped_to:
        return f"witness {list(witness)} flips to {label}, reported {flipped_to}"
    return None


def robust_sample_problem(net: IntegerNetwork, x, true_label: int,
                          percent: int, seed: int, samples: int = 16) -> str | None:
    """Spot-check a ROBUST verdict: box corners and seeded random points."""
    rng = random.Random(seed)
    n = len(x)
    points = [[percent] * n, [-percent] * n]
    points += [[rng.randint(-percent, percent) for _ in range(n)] for _ in range(samples)]
    for point in points:
        if net.label(x, point) != true_label:
            return f"ROBUST at ±{percent}% but {point} flips the label"
    return None


def ladder_problem(verdicts: dict[int, str]) -> str | None:
    """Noise boxes nest, so no ROBUST rung may sit above a VULNERABLE one."""
    lowest_vulnerable = None
    for percent in sorted(verdicts):
        if verdicts[percent] == "vulnerable" and lowest_vulnerable is None:
            lowest_vulnerable = percent
        if verdicts[percent] == "robust" and lowest_vulnerable is not None:
            return f"ROBUST at ±{percent}% above VULNERABLE at ±{lowest_vulnerable}%"
    return None


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(outputs: list) -> str:
    """SHA-256 over the canonical JSON of every job's output, in job order."""
    h = hashlib.sha256()
    for output in outputs:
        h.update(canonical(output).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
