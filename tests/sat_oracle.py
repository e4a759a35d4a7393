"""Brute-force SAT oracle for the tests.

Exponential, for cross-validating the CDCL solver on small instances in
the property-based tests.
"""

from __future__ import annotations

from itertools import product

from repro.errors import SatError
from repro.sat.cnf import Cnf


def brute_force_models(cnf: Cnf, max_vars: int = 20) -> list[dict[int, bool]]:
    """All satisfying total assignments of ``cnf`` (small instances only)."""
    if cnf.num_vars > max_vars:
        raise SatError(f"brute force limited to {max_vars} variables")
    models = []
    variables = list(range(1, cnf.num_vars + 1))
    for values in product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if cnf.evaluate(assignment):
            models.append(assignment)
    return models


def brute_force_satisfiable(cnf: Cnf, max_vars: int = 20) -> bool:
    """Satisfiability by exhaustive enumeration (small instances only)."""
    if cnf.num_vars > max_vars:
        raise SatError(f"brute force limited to {max_vars} variables")
    variables = list(range(1, cnf.num_vars + 1))
    for values in product([False, True], repeat=len(variables)):
        if cnf.evaluate(dict(zip(variables, values))):
            return True
    return False
