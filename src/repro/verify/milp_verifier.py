"""Big-M MILP verification on scipy's HiGHS LP solver.

The MIPVerify/Tjeng-et-al. baseline: ReLUs get binary phase indicators
with interval-derived big-M constants, the LP relaxation maximises the
misclassification margin, and branch & bound splits on fractional
indicators, then on fractional noise variables.

Floating point makes this engine *practically* complete: every candidate
witness is re-checked by the exact integer evaluator before it is
reported, and a prune that happens inside the float tolerance band flags
the final answer as UNKNOWN instead of ROBUST.  The exact
:class:`~repro.verify.smt_verifier.SmtVerifier` remains the judge; the
two are compared in the engine-ablation benchmark (E8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import VerifierConfig
from ..errors import BudgetExceededError
from .encoder import ScaledQuery
from .result import VerificationResult, VerificationStatus

_TOL = 1e-6
_INT_TOL = 1e-6


@dataclass(frozen=True)
class _Node:
    """B&B node: variable-bound overrides (index → (low, high))."""

    overrides: tuple[tuple[int, tuple[float, float]], ...]

    def child(self, index: int, bounds: tuple[float, float]) -> "_Node":
        return _Node(self.overrides + ((index, bounds),))


class MilpVerifier:
    """Branch & bound over the big-M LP relaxation."""

    name = "milp"

    def __init__(self, config: VerifierConfig | None = None):
        self.config = config or VerifierConfig()
        self.nodes_explored = 0

    def verify(self, query: ScaledQuery) -> VerificationResult:
        self.nodes_explored = 0
        boundary_uncertain = False
        for adversary in range(query.num_outputs):
            if adversary == query.true_label:
                continue
            witness, uncertain = self._verify_against(query, adversary)
            boundary_uncertain = boundary_uncertain or uncertain
            if witness is not None:
                return VerificationResult(
                    VerificationStatus.VULNERABLE,
                    witness=witness,
                    predicted_label=query.predict_single(witness),
                    engine=self.name,
                    nodes_explored=self.nodes_explored,
                )
        status = (
            VerificationStatus.UNKNOWN
            if boundary_uncertain
            else VerificationStatus.ROBUST
        )
        return VerificationResult(
            status, engine=self.name, nodes_explored=self.nodes_explored
        )

    # -- model construction -------------------------------------------------------

    def _build(self, query: ScaledQuery, adversary: int):
        """LP data in normalised units.

        The scaled-integer pipeline reaches magnitudes around 10^12, far
        outside HiGHS's comfortable range, so each layer is divided by its
        interval magnitude — conditioning the LP while keeping all
        constraints algebraically equivalent.
        """
        bounds_int = query.layer_bounds()
        norms = []
        for lows, highs in bounds_int:
            magnitude = max(1.0, float(max(abs(v) for v in lows + highs)))
            norms.append(magnitude)

        num_inputs = query.num_inputs
        hidden_sizes = query.hidden_sizes()

        # Variable layout: [p | n_1 a_1 | n_2 a_2 | … | n_L | delta…]
        index = {}
        cursor = 0
        for i in range(num_inputs):
            index[("p", i)] = cursor
            cursor += 1
        for l, size in enumerate(hidden_sizes):
            for j in range(size):
                index[("n", l, j)] = cursor
                cursor += 1
            for j in range(size):
                index[("a", l, j)] = cursor
                cursor += 1
        for k in range(query.num_outputs):
            index[("o", k)] = cursor
            cursor += 1
        ambiguous = []
        for l, size in enumerate(hidden_sizes):
            lows, highs = bounds_int[l]
            for j in range(size):
                if lows[j] < 0 < highs[j]:
                    index[("d", l, j)] = cursor
                    ambiguous.append((l, j))
                    cursor += 1
        total = cursor

        a_eq_rows, b_eq = [], []
        a_ub_rows, b_ub = [], []

        def row():
            return np.zeros(total)

        # n_1 = (b + Σ W·x·100)/norm_0 + Σ (W·x/norm_0)·p
        w0 = np.asarray(query.weights[0], dtype=np.float64)
        b0 = np.asarray(query.biases[0], dtype=np.float64)
        x = query.x.astype(np.float64)
        layer_count = len(hidden_sizes)
        for j in range(w0.shape[0] if layer_count else 0):
            r = row()
            r[index[("n", 0, j)]] = 1.0
            for i in range(num_inputs):
                r[index[("p", i)]] = -w0[j, i] * x[i] / norms[0]
            a_eq_rows.append(r)
            b_eq.append((b0[j] + 100.0 * float(w0[j] @ x)) / norms[0])

        # n_{l+1} = (b + W·a_l·norm_l)/norm_{l+1}
        for l in range(1, layer_count):
            w = np.asarray(query.weights[l], dtype=np.float64)
            b = np.asarray(query.biases[l], dtype=np.float64)
            for j in range(w.shape[0]):
                r = row()
                r[index[("n", l, j)]] = 1.0
                for i in range(w.shape[1]):
                    r[index[("a", l - 1, i)]] = -w[j, i] * norms[l - 1] / norms[l]
                a_eq_rows.append(r)
                b_eq.append(b[j] / norms[l])

        # Output layer.
        wl = np.asarray(query.weights[-1], dtype=np.float64)
        bl = np.asarray(query.biases[-1], dtype=np.float64)
        for k in range(query.num_outputs):
            r = row()
            r[index[("o", k)]] = 1.0
            if layer_count:
                for i in range(wl.shape[1]):
                    r[index[("a", layer_count - 1, i)]] = (
                        -wl[k, i] * norms[layer_count - 1] / norms[-1]
                    )
                b_eq.append(bl[k] / norms[-1])
            else:
                for i in range(num_inputs):
                    r[index[("p", i)]] = -wl[k, i] * x[i] / norms[-1]
                b_eq.append((bl[k] + 100.0 * float(wl[k] @ x)) / norms[-1])
            a_eq_rows.append(r)

        # ReLU constraints per hidden neuron.
        for l, size in enumerate(hidden_sizes):
            lows, highs = bounds_int[l]
            for j in range(size):
                low_f = lows[j] / norms[l]
                high_f = highs[j] / norms[l]
                if lows[j] >= 0:
                    r = row()  # a = n
                    r[index[("a", l, j)]] = 1.0
                    r[index[("n", l, j)]] = -1.0
                    a_eq_rows.append(r)
                    b_eq.append(0.0)
                    continue
                if highs[j] <= 0:
                    r = row()  # a = 0
                    r[index[("a", l, j)]] = 1.0
                    a_eq_rows.append(r)
                    b_eq.append(0.0)
                    continue
                # a >= n  →  n - a <= 0
                r = row()
                r[index[("n", l, j)]] = 1.0
                r[index[("a", l, j)]] = -1.0
                a_ub_rows.append(r)
                b_ub.append(0.0)
                # a <= n - low·(1-δ)  →  a - n - low·δ <= -low
                r = row()
                r[index[("a", l, j)]] = 1.0
                r[index[("n", l, j)]] = -1.0
                r[index[("d", l, j)]] = -(-low_f)  # = low_f
                a_ub_rows.append(r)
                b_ub.append(-low_f)
                # a <= high·δ  →  a - high·δ <= 0
                r = row()
                r[index[("a", l, j)]] = 1.0
                r[index[("d", l, j)]] = -high_f
                a_ub_rows.append(r)
                b_ub.append(0.0)

        # Objective: maximise margin = o_adv - o_true.
        objective = np.zeros(total)
        objective[index[("o", adversary)]] = -1.0
        objective[index[("o", query.true_label)]] = 1.0

        # Base bounds.
        base_bounds: list[tuple[float, float]] = [(0.0, 0.0)] * total
        for i in range(num_inputs):
            base_bounds[index[("p", i)]] = (float(query.low[i]), float(query.high[i]))
        for l, size in enumerate(hidden_sizes):
            lows, highs = bounds_int[l]
            for j in range(size):
                base_bounds[index[("n", l, j)]] = (
                    lows[j] / norms[l],
                    highs[j] / norms[l],
                )
                base_bounds[index[("a", l, j)]] = (0.0, max(0.0, highs[j] / norms[l]))
        out_lows, out_highs = bounds_int[-1]
        for k in range(query.num_outputs):
            base_bounds[index[("o", k)]] = (
                out_lows[k] / norms[-1],
                out_highs[k] / norms[-1],
            )
        for l, j in ambiguous:
            base_bounds[index[("d", l, j)]] = (0.0, 1.0)

        threshold = query.misclass_threshold(adversary) / norms[-1]
        return {
            "A_eq": np.array(a_eq_rows) if a_eq_rows else None,
            "b_eq": np.array(b_eq) if b_eq else None,
            "A_ub": np.array(a_ub_rows) if a_ub_rows else None,
            "b_ub": np.array(b_ub) if b_ub else None,
            "objective": objective,
            "bounds": base_bounds,
            "index": index,
            "ambiguous": ambiguous,
            "threshold": threshold,
        }

    # -- branch & bound -------------------------------------------------------------

    def _verify_against(self, query: ScaledQuery, adversary: int):
        # Imported on first use: loading scipy.optimize takes about half a
        # second, and no other engine needs it.
        from scipy.optimize import linprog

        model = self._build(query, adversary)
        index = model["index"]
        stack = [_Node(())]
        uncertain = False

        while stack:
            node = stack.pop()
            self.nodes_explored += 1
            if self.nodes_explored > self.config.node_budget:
                raise BudgetExceededError(
                    f"MILP verifier exceeded {self.config.node_budget} nodes",
                    budget=self.config.node_budget,
                )
            bounds = list(model["bounds"])
            for var_index, var_bounds in node.overrides:
                bounds[var_index] = var_bounds
            result = linprog(
                model["objective"],
                A_ub=model["A_ub"],
                b_ub=model["b_ub"],
                A_eq=model["A_eq"],
                b_eq=model["b_eq"],
                bounds=bounds,
                method="highs",
            )
            if result.status == 2:  # infeasible
                continue
            if result.status != 0:
                uncertain = True
                continue
            margin = -result.fun
            if margin < model["threshold"] - _TOL:
                if margin > model["threshold"] - 10 * _TOL:
                    uncertain = True  # pruned inside the tolerance band
                continue

            solution = result.x
            # Branch on the most fractional indicator first.
            split = self._fractional_delta(model, solution)
            if split is not None:
                var_index = index[("d", *split)]
                stack.append(node.child(var_index, (0.0, 0.0)))
                stack.append(node.child(var_index, (1.0, 1.0)))
                continue
            split_p = self._fractional_noise(query, index, solution)
            if split_p is not None:
                i, value = split_p
                var_index = index[("p", i)]
                lo, hi = bounds[var_index]
                stack.append(node.child(var_index, (lo, float(np.floor(value)))))
                stack.append(node.child(var_index, (float(np.ceil(value)), hi)))
                continue

            # Integral candidate: exact recheck.
            candidate = tuple(
                int(round(solution[index[("p", i)]])) for i in range(query.num_inputs)
            )
            if query.misclassified(candidate):
                return candidate, uncertain
            # Float artefact: exclude the point and keep searching.
            uncertain = True
            for child in self._exclude_point(query, index, bounds, node, candidate):
                stack.append(child)
        return None, uncertain

    def _fractional_delta(self, model, solution):
        worst, worst_gap = None, _INT_TOL
        for l, j in model["ambiguous"]:
            value = solution[model["index"][("d", l, j)]]
            gap = abs(value - round(value))
            if gap > worst_gap:
                worst, worst_gap = (l, j), gap
        return worst

    def _fractional_noise(self, query, index, solution):
        for i in range(query.num_inputs):
            value = solution[index[("p", i)]]
            if abs(value - round(value)) > _INT_TOL:
                return i, value
        return None

    def _exclude_point(self, query, index, bounds, node, point):
        """Standard integer-point exclusion: per-coordinate disjunction."""
        children = []
        prefix = node
        for i, value in enumerate(point):
            var_index = index[("p", i)]
            lo, hi = bounds[var_index]
            if value - 1 >= lo:
                children.append(prefix.child(var_index, (lo, float(value - 1))))
            if value + 1 <= hi:
                children.append(prefix.child(var_index, (float(value + 1), hi)))
            prefix = prefix.child(var_index, (float(value), float(value)))
        return children
