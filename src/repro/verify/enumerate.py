"""Adversarial noise-vector extraction (property P3 of the paper).

§IV-C: *"If OCn ≠ Sx and the NV is not already contained in e, then the
NV obtained from the generated counterexample is added to e"* — building
an array of unique noise patterns the network is vulnerable to.

Two strategies behind one interface, both returning each vector with the
wrong label it produces:

- small boxes: the exhaustive enumerator's census, which bisects the box
  with exact interval bounds and evaluates only the sub-boxes it cannot
  prove, so it returns every witness without visiting every grid point;
- large boxes: solver-driven extraction — repeat the complete SMT query
  with *blocking clauses* excluding all previously found vectors, exactly
  the P3 loop of Fig. 2, realised with the DPLL(T) stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import VerifierConfig
from ..errors import BudgetExceededError, VerificationError
from ..smt import DpllTSolver, LinExpr, TheoryResult
from .encoder import ScaledQuery
from .exhaustive import ExhaustiveEnumerator


@dataclass
class NoiseVectorSet:
    """The paper's ``e`` matrix: unique adversarial noise vectors."""

    vectors: list[tuple[int, ...]] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)  # wrong label per vector
    exhausted: bool = False  # True when no further vector exists

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __contains__(self, vector):
        return tuple(vector) in set(self.vectors)


class NoiseVectorCollector:
    """Extract unique adversarial noise vectors from a query."""

    def __init__(
        self,
        config: VerifierConfig | None = None,
        exhaustive_cutoff: int = 2_000_000,
    ):
        self.config = config or VerifierConfig()
        self.exhaustive_cutoff = exhaustive_cutoff

    def collect(self, query: ScaledQuery, limit: int | None = None) -> NoiseVectorSet:
        """Gather up to ``limit`` unique noise vectors (all, when None).

        With ``limit=0`` nothing is searched: the set is empty and not
        exhausted.  A negative ``limit`` raises :class:`VerificationError`.
        """
        if limit is not None and limit < 0:
            raise VerificationError(f"limit must be non-negative, got {limit}")
        if query.noise_space_size() <= self.exhaustive_cutoff:
            enumerator = ExhaustiveEnumerator(max_vectors=self.exhaustive_cutoff)
            pairs = enumerator.collect_witnesses(query, limit=limit)
            return NoiseVectorSet(
                vectors=[vector for vector, _ in pairs],
                labels=[label for _, label in pairs],
                exhausted=limit is None or len(pairs) < limit,
            )
        if limit is None:
            raise VerificationError(
                "unbounded extraction on a large noise box; pass a limit"
            )
        return self._collect_with_blocking(query, limit)

    # -- solver-driven path ----------------------------------------------------------

    def _collect_with_blocking(self, query: ScaledQuery, limit: int) -> NoiseVectorSet:
        """The P3 loop: solve, block the model, repeat."""
        collected = NoiseVectorSet()
        while len(collected) < limit:
            found = self._solve_blocked(query, collected.vectors)
            if found is None:
                collected.exhausted = True
                return collected
            witness, label = found
            if witness in collected.vectors:
                raise VerificationError("blocking failed to exclude a vector")
            collected.vectors.append(witness)
            collected.labels.append(label)
        return collected

    def _solve_blocked(
        self, query: ScaledQuery, blocked: list[tuple[int, ...]]
    ) -> tuple[tuple[int, ...], int] | None:
        """One DPLL(T) query with all of ``blocked`` excluded.

        Returns the witness and its wrong label, or None when none is left.
        """
        solver = DpllTSolver(node_budget=self.config.node_budget)

        noise_names = [f"p{i}" for i in range(query.num_inputs)]
        for name, lo, hi in zip(noise_names, query.low, query.high):
            solver.theory_var(name, integer=True)
            solver.set_bounds(name, lower=int(lo), upper=int(hi))

        bounds = query.layer_bounds()
        hidden_sizes = query.hidden_sizes()

        # Network equations as theory constraints (always asserted).
        previous = None
        for l, size in enumerate(hidden_sizes):
            weight, bias = query.weights[l], query.biases[l]
            lows, highs = bounds[l]
            for j in range(size):
                pre_name, act_name = f"n{l}_{j}", f"a{l}_{j}"
                solver.theory_var(pre_name)
                solver.theory_var(act_name)
                solver.set_bounds(pre_name, lower=lows[j], upper=highs[j])
                solver.set_bounds(act_name, lower=0, upper=max(0, highs[j]))
                if l == 0:
                    expr = LinExpr.const(
                        int(bias[j])
                        + sum(
                            int(weight[j][i]) * 100 * int(query.x[i])
                            for i in range(query.num_inputs)
                        )
                    )
                    for i in range(query.num_inputs):
                        expr = expr + LinExpr.var(
                            noise_names[i], int(weight[j][i]) * int(query.x[i])
                        )
                else:
                    expr = LinExpr.const(int(bias[j]))
                    for i, prev_name in enumerate(previous):
                        expr = expr + LinExpr.var(prev_name, int(weight[j][i]))
                eq = solver.make_atom((expr - LinExpr.var(pre_name)).eq(0))
                solver.add_clause([eq.boolean_var])

                # Phase atom with overlapping polarities, plus implications.
                phase = solver.make_atom(
                    LinExpr.var(pre_name) >= 0, neg=LinExpr.var(pre_name) <= 0
                )
                active_eq = solver.make_atom(
                    (LinExpr.var(act_name) - LinExpr.var(pre_name)).eq(0)
                )
                inactive_eq = solver.make_atom(LinExpr.var(act_name).eq(0))
                solver.add_clause([-phase.boolean_var, active_eq.boolean_var])
                solver.add_clause([phase.boolean_var, inactive_eq.boolean_var])
            previous = [f"a{l}_{j}" for j in range(size)]

        # Output margin for each adversary; at least one must fire.
        weight, bias = query.weights[-1], query.biases[-1]
        adversary_literals = []
        for k in range(query.num_outputs):
            if k == query.true_label:
                continue
            margin = LinExpr.const(int(bias[k]) - int(bias[query.true_label]))
            if previous is None:
                for i in range(query.num_inputs):
                    coeff = (
                        int(weight[k][i]) - int(weight[query.true_label][i])
                    ) * int(query.x[i])
                    margin = margin + LinExpr.var(noise_names[i], coeff)
                    margin = margin + (coeff * 100)
            else:
                for i, prev_name in enumerate(previous):
                    margin = margin + LinExpr.var(
                        prev_name,
                        int(weight[k][i]) - int(weight[query.true_label][i]),
                    )
            atom = solver.make_atom(margin >= query.misclass_threshold(k))
            adversary_literals.append(atom.boolean_var)
        solver.add_clause(adversary_literals)

        # Blocking clauses: for each known vector, some coordinate differs.
        for vector in blocked:
            literals = []
            for name, value in zip(noise_names, vector):
                below = solver.make_atom(LinExpr.var(name) <= value - 1)
                above = solver.make_atom(LinExpr.var(name) >= value + 1)
                literals.extend([below.boolean_var, above.boolean_var])
            solver.add_clause(literals)

        verdict, model = solver.solve()
        if verdict is TheoryResult.UNKNOWN:
            # A budgeted solver ran out of conflicts: treating this as
            # "no witness" would fabricate an exhausted vector set.
            raise BudgetExceededError(
                "DPLL(T) extraction exhausted its conflict budget",
                budget=self.config.node_budget,
            )
        if verdict is TheoryResult.UNSAT:
            return None
        witness = tuple(int(model.values[name]) for name in noise_names)
        label = query.predict_single(witness)
        if label == query.true_label:
            raise VerificationError("DPLL(T) witness failed the exact recheck")
        return witness, label
