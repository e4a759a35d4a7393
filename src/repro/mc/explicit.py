"""Explicit-state invariant checking with counterexample traces."""

from __future__ import annotations

from collections import deque

from ..errors import StateSpaceLimitError
from ..fsm import TransitionSystem
from ..smv.ast import Expr, SmvModule
from ..smv.printer import print_expression
from .result import CheckResult, Trace, Verdict


class ExplicitChecker:
    """BFS reachability checker.

    Finds a *shortest* counterexample when the invariant fails (BFS order),
    like nuXmv's ``check_invar`` with the forward strategy.
    """

    def __init__(self, max_states: int = 1_000_000):
        self.max_states = max_states

    def check_invariant(self, module: SmvModule, prop: Expr) -> CheckResult:
        """Check that ``prop`` holds in every reachable state."""
        system = TransitionSystem(module)
        parents: dict[tuple, tuple | None] = {}
        frontier: deque[tuple] = deque()

        def trace_to(state: tuple) -> Trace:
            chain = []
            cursor: tuple | None = state
            while cursor is not None:
                chain.append(system.as_dict(cursor))
                cursor = parents[cursor]
            chain.reverse()
            return Trace(chain)

        for state in system.initial_states():
            if state in parents:
                continue
            parents[state] = None
            if not system.holds(prop, state):
                return CheckResult(
                    Verdict.VIOLATED,
                    property_text=print_expression(prop),
                    counterexample=trace_to(state),
                    states_explored=len(parents),
                )
            frontier.append(state)
            self._check_budget(parents)

        while frontier:
            state = frontier.popleft()
            for successor in system.successors(state):
                if successor in parents:
                    continue
                parents[successor] = state
                self._check_budget(parents)
                if not system.holds(prop, successor):
                    return CheckResult(
                        Verdict.VIOLATED,
                        property_text=print_expression(prop),
                        counterexample=trace_to(successor),
                            states_explored=len(parents),
                    )
                frontier.append(successor)

        return CheckResult(
            Verdict.HOLDS,
            property_text=print_expression(prop),
            states_explored=len(parents),
        )

    def _check_budget(self, parents) -> None:
        if len(parents) > self.max_states:
            raise StateSpaceLimitError(
                f"explicit checker exceeded {self.max_states} states"
            )
