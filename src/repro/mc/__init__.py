"""Model checking.

:class:`ExplicitChecker` checks ``INVARSPEC`` properties of an SMV
module by BFS over its concrete reachable states (the SMV → FSM
semantics of :mod:`repro.fsm`).  It returns a :class:`CheckResult` with
a shortest counterexample trace when the property fails.
"""

from .result import CheckResult, Trace, Verdict
from .explicit import ExplicitChecker

__all__ = [
    "CheckResult",
    "Trace",
    "Verdict",
    "ExplicitChecker",
]
