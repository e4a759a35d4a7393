"""SAT substrate.

A from-scratch CDCL solver in the MiniSat lineage: two-watched literals,
first-UIP conflict learning, VSIDS branching, phase saving and Luby
restarts.  The incremental ladder sessions
(:class:`repro.verify.incremental.LadderSession`) keep one solver per
query and drive it under assumptions: the ReLU phase literals are its
variables, and the exact simplex is its theory.
"""

from .cnf import Cnf, parse_dimacs, to_dimacs
from .solver import CdclSolver, SatResult, SatStatus, solve_cnf

__all__ = [
    "Cnf",
    "parse_dimacs",
    "to_dimacs",
    "CdclSolver",
    "SatResult",
    "SatStatus",
    "solve_cnf",
]
