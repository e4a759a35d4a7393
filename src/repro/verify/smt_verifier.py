"""Complete verification by ReLU phase splitting over the exact simplex.

The Reluplex/Marabou recipe, specialised to the FANNet query:

1. an interval prepass fixes every ReLU whose phase the noise box already
   determines;
2. the remaining *ambiguous* neurons are split case-wise —
   active (``n ≥ 0 ∧ a = n``) vs inactive (``n ≤ 0 ∧ a = 0``) — in a DFS
   whose nodes are pruned by exact LP feasibility under the triangle
   relaxation (``a ≥ 0``, ``a ≥ n``, ``a ≤ ub``);
3. at a fully-split leaf the constraint system describes genuine network
   executions, so integer branch & bound over the noise variables either
   produces a real witness or refutes the leaf.

Everything is exact rational arithmetic: a ROBUST answer is a proof, and every
witness is double-checked against the reference evaluator anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import VerifierConfig
from ..errors import BudgetExceededError, VerificationError
from ..smt.branch_bound import solve_integer_feasibility
from ..smt.simplex import Simplex
from .encoder import ScaledQuery
from .interval import layer_bounds
from .result import VerificationResult, VerificationStatus


@dataclass(frozen=True)
class EncodedNeuron:
    """One hidden ReLU inside a per-adversary simplex encoding."""

    layer: int
    index: int
    pre_var: int  # simplex var of the pre-activation (defined row)
    act_var: int  # simplex var of the post-activation
    diff_var: int  # defined row: act - pre  (0 in the active phase)


def encode_adversary(simplex: Simplex, query: ScaledQuery, adversary: int):
    """The noise-box-independent encoding of "``query`` flips to ``adversary``".

    Adds to ``simplex`` (at decision level 0): the unit variable fixed to
    1, one unbounded variable per noise component, a defined row per
    pre-activation, an activation variable and an ``act - pre`` row per
    hidden neuron under the triangle lower bounds ``act >= 0`` and
    ``act >= pre``, and the margin row ``N_adv - N_true``.  The caller
    asserts the noise box, the activation caps and the margin threshold.
    Bland's rule picks pivots by variable id, so this creation order is
    part of every pivot bill the tests and benchmarks pin.

    Returns ``(noise_vars, neurons, margin)``.
    """
    one = simplex.new_var()
    simplex.assert_lower(one, 1)
    simplex.assert_upper(one, 1)
    noise_vars = [simplex.new_var() for _ in range(query.num_inputs)]
    neurons: list[EncodedNeuron] = []

    # Layer 1 pre-activations are affine in the noise variables:
    # N1_j = const_j + Σ (W1_ji · x_i) · p_i.
    previous_acts = None
    for layer_index in range(query.num_layers):
        weight = query.weights[layer_index]
        bias = query.biases[layer_index]
        layer_pre_vars = []
        for j in range(weight.shape[0]):
            if layer_index == 0:
                combination = {one: 0}
                constant = int(bias[j])
                for i in range(query.num_inputs):
                    coeff = int(weight[j][i])
                    constant += coeff * 100 * int(query.x[i])
                    combination[noise_vars[i]] = (
                        combination.get(noise_vars[i], 0) + coeff * int(query.x[i])
                    )
                combination[one] = constant
            else:
                combination = {one: int(bias[j])}
                for i, act in enumerate(previous_acts):
                    combination[act] = int(weight[j][i])
            layer_pre_vars.append(simplex.define(combination))

        if layer_index == query.num_layers - 1:
            break

        previous_acts = []
        for j, pre in enumerate(layer_pre_vars):
            act = simplex.new_var()
            diff = simplex.define({act: 1, pre: -1})
            simplex.assert_lower(act, 0)  # a >= 0
            simplex.assert_lower(diff, 0)  # a >= n (triangle)
            neurons.append(EncodedNeuron(layer_index, j, pre, act, diff))
            previous_acts.append(act)

    # Misclassification margin: N_adv - N_true (>= threshold once asserted).
    margin = simplex.define(
        {layer_pre_vars[adversary]: 1, layer_pre_vars[query.true_label]: -1}
    )
    return noise_vars, neurons, margin


class SmtVerifier:
    """Sound and complete robustness verifier, rebuilt from scratch per query.

    The reference engine: the portfolio's complete stage is
    :class:`~repro.verify.incremental.LadderSession`, which calls
    :meth:`witness_against` to derive canonical witnesses.
    """

    name = "smt"

    def __init__(self, config: VerifierConfig | None = None):
        self.config = config or VerifierConfig()
        self.nodes_explored = 0
        #: Cumulative simplex pivots over this verifier's lifetime (never
        #: reset by ``verify``): the deterministic effort measure the
        #: incremental-ladder benchmark gates on.
        self.total_pivots = 0

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """Decide the query; ROBUST and VULNERABLE are both definitive."""
        self.nodes_explored = 0
        for adversary in range(query.num_outputs):
            if adversary == query.true_label:
                continue
            witness = self._verify_against(query, adversary)
            if witness is not None:
                predicted = query.predict_single(witness)
                if predicted == query.true_label or not query.misclassified(witness):
                    raise VerificationError(
                        "internal: witness failed the exact recheck"
                    )
                return VerificationResult(
                    VerificationStatus.VULNERABLE,
                    witness=witness,
                    predicted_label=predicted,
                    engine=self.name,
                    nodes_explored=self.nodes_explored,
                )
        return VerificationResult(
            VerificationStatus.ROBUST,
            engine=self.name,
            nodes_explored=self.nodes_explored,
        )

    # -- per-adversary search ----------------------------------------------------

    def witness_against(self, query: ScaledQuery, adversary: int):
        """Canonical witness flipping to ``adversary``, or None.

        The from-scratch per-adversary search, exposed so the incremental
        session layer (:mod:`repro.verify.incremental`) can re-derive the
        *same* witness a cold run would report after its warm solvers
        prove a rung vulnerable.  ``nodes_explored`` accumulates across
        calls; reset it before use if per-call counts matter.
        """
        return self._verify_against(query, adversary)

    def _verify_against(self, query: ScaledQuery, adversary: int):
        """Witness flipping to ``adversary``, or None when impossible."""
        simplex = Simplex()
        try:
            return self._search_adversary(simplex, query, adversary)
        finally:
            self.total_pivots += simplex.total_pivots

    def _search_adversary(self, simplex: Simplex, query: ScaledQuery, adversary: int):
        noise_vars, neurons, margin = encode_adversary(simplex, query, adversary)
        for var, lo, hi in zip(noise_vars, query.low, query.high):
            simplex.assert_lower(var, int(lo))
            simplex.assert_upper(var, int(hi))
        bounds = layer_bounds(query)
        for neuron in neurons:
            high = bounds[neuron.layer][1][neuron.index]
            simplex.assert_upper(neuron.act_var, max(0, high))
        if simplex.assert_lower(margin, query.misclass_threshold(adversary)) is not None:
            return None

        # Fix phases the interval analysis already decided; split the rest.
        ambiguous = []
        for neuron in neurons:
            low = bounds[neuron.layer][0][neuron.index]
            high = bounds[neuron.layer][1][neuron.index]
            if low >= 0:
                if simplex.assert_upper(neuron.diff_var, 0) is not None:
                    return None  # a = n forced infeasible
            elif high <= 0:
                if simplex.assert_upper(neuron.act_var, 0) is not None:
                    return None
                if simplex.assert_upper(neuron.pre_var, 0) is not None:
                    return None
            else:
                ambiguous.append(neuron)
        # Layer by layer, widest pre-activation interval first.
        ambiguous.sort(
            key=lambda n: (n.layer, bounds[n.layer][0][n.index] - bounds[n.layer][1][n.index])
        )
        return self._dfs(simplex, ambiguous, 0, noise_vars, query)

    def _dfs(self, simplex: Simplex, ambiguous, depth: int, integer_vars, query):
        self.nodes_explored += 1
        if self.nodes_explored > self.config.node_budget:
            raise BudgetExceededError(
                f"SMT verifier exceeded {self.config.node_budget} nodes",
                budget=self.config.node_budget,
            )
        if not simplex.check().feasible:
            return None
        if depth == len(ambiguous):
            result = solve_integer_feasibility(
                simplex, integer_vars, node_budget=self.config.node_budget
            )
            if not result.feasible:
                return None
            return tuple(int(result.assignment[v]) for v in integer_vars)

        neuron = ambiguous[depth]

        # Active phase: n >= 0, a - n = 0.
        simplex.push()
        ok = simplex.assert_lower(neuron.pre_var, 0) is None
        ok = ok and simplex.assert_upper(neuron.diff_var, 0) is None
        if ok:
            witness = self._dfs(simplex, ambiguous, depth + 1, integer_vars, query)
            if witness is not None:
                simplex.pop()
                return witness
        simplex.pop()

        # Inactive phase: n <= 0, a = 0.
        simplex.push()
        ok = simplex.assert_upper(neuron.pre_var, 0) is None
        ok = ok and simplex.assert_upper(neuron.act_var, 0) is None
        if ok:
            witness = self._dfs(simplex, ambiguous, depth + 1, integer_vars, query)
            if witness is not None:
                simplex.pop()
                return witness
        simplex.pop()
        return None
