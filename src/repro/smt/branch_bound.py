"""Integer feasibility by branch & bound over the exact simplex.

The noise variables of the FANNet query are integer percentages; the LP
relaxation may answer with fractional values.  Branch & bound splits on a
fractional integer variable (``x ≤ ⌊v⌋`` / ``x ≥ ⌈v⌉``) and recurses.
Because every integer variable in our encodings carries finite bounds,
the search tree is finite and the procedure is a decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

from ..errors import BudgetExceededError
from .simplex import Rational, Simplex, SimplexResult


@dataclass
class IntegerFeasibilityResult:
    feasible: bool
    assignment: dict[int, Rational] | None = None
    nodes: int = 0

    def __bool__(self):
        return self.feasible


def solve_integer_feasibility(
    simplex: Simplex,
    integer_vars: list[int],
    node_budget: int = 100_000,
) -> IntegerFeasibilityResult:
    """Decide whether the current simplex constraints admit a solution
    with every variable in ``integer_vars`` integral.

    Every bound frame the search pushes is popped before it returns or
    raises, so the simplex is back at its entry level either way.
    """
    counter = {"nodes": 0}

    def recurse() -> dict[int, Rational] | None:
        counter["nodes"] += 1
        if counter["nodes"] > node_budget:
            raise BudgetExceededError(
                f"branch & bound exceeded {node_budget} nodes", budget=node_budget
            )
        result: SimplexResult = simplex.check()
        if not result.feasible:
            return None
        assignment = result.assignment
        branch_var = None
        branch_value = None
        for var in integer_vars:
            value = assignment[var]
            if value.denominator != 1:
                branch_var, branch_value = var, value
                break
        if branch_var is None:
            return assignment

        # Branch down (x <= floor(v)), then up (x >= ceil(v)).  Each frame is
        # popped on every exit, a raised budget or simplex error included.
        for assert_bound, bound in (
            (simplex.assert_upper, floor(branch_value)),
            (simplex.assert_lower, ceil(branch_value)),
        ):
            simplex.push()
            try:
                if assert_bound(branch_var, bound) is None:
                    solution = recurse()
                    if solution is not None:
                        return solution
            finally:
                simplex.pop()
        return None

    solution = recurse()
    return IntegerFeasibilityResult(
        feasible=solution is not None,
        assignment=solution,
        nodes=counter["nodes"],
    )
