"""SMT substrate.

Exact linear arithmetic over the rationals:

- :mod:`repro.smt.simplex` — incremental Dutertre–de Moura general
  simplex, exact and in Python ints: each tableau row holds integer
  coefficients over one positive row denominator, and each value and
  bound is an integer numerator over one shared scale; with conflict
  extraction;
- :mod:`repro.smt.branch_bound` — integer feasibility via branch & bound.

The verifiers in :mod:`repro.verify` combine these with the CDCL core
from :mod:`repro.sat`.

nuXmv reaches its SMT backend (MathSAT) for exactly this role; here the
stack is self-contained.
"""

from .simplex import BoundKind, Simplex, SimplexResult
from .branch_bound import IntegerFeasibilityResult, solve_integer_feasibility

__all__ = [
    "Simplex",
    "SimplexResult",
    "BoundKind",
    "solve_integer_feasibility",
    "IntegerFeasibilityResult",
]
