"""Incremental ladder verification sessions (encode once, assume the rung).

FANNet's central workload is a *ladder*: one network and one input
verified at many noise percentages, where only the noise box moves
between queries.  The from-scratch search
(:class:`~repro.verify.smt_verifier.SmtVerifier`) rebuilds its whole
encoding — simplex tableau, phase analysis, everything — at every rung;
:class:`LadderSession`, the portfolio's complete stage for boxes too
large to enumerate, instead keeps, **per adversary label**, one
persistent pair of warm solvers alive across the whole ladder and across
the frontier's bisection probes:

- a :class:`~repro.smt.simplex.Simplex` holding the *structural*
  encoding (network equations, triangle relaxation, misclassification
  margin) at decision level 0, with each rung's noise bounds and
  activation caps asserted inside one push/pop bound frame — the tableau
  basis survives ``pop``, so later rungs re-solve from an almost-feasible
  state instead of from zero;
- a :class:`~repro.sat.solver.CdclSolver` over one *phase boolean* per
  hidden neuron plus one *rung assumption literal* per distinct noise
  box.  Rungs are solved under ``solve(assumptions=[rung literal,
  interval-fixed phases…])``, so learned clauses, VSIDS activity and
  saved phases all survive from rung to rung.  Theory conflicts become
  learned clauses tagged with ``¬rung`` exactly when rung-owned bounds
  participated in the simplex core — clauses conditioned on a narrow box
  can never mis-prune a wider one.

A formula-level UNSAT (``SatResult.failed_assumptions is None``) proves
the adversary unreachable under *any* noise box, so the session marks it
dead and every later rung skips it outright.

**Determinism contract:** sessions are verdict-only accelerators.  A
ROBUST rung returns exactly the verdict the cold engine would; for a
VULNERABLE rung the witness is re-derived by running the from-scratch
:meth:`SmtVerifier.witness_against <repro.verify.smt_verifier.SmtVerifier.witness_against>`
search for the first satisfiable adversary — the same deterministic DFS
a cold run performs — so reports carry exactly the from-scratch engine's
bytes.  See ``docs/incremental-sessions.md`` for the full lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import VerifierConfig
from ..errors import BudgetExceededError, VerificationError
from ..sat.solver import CdclSolver, SatStatus
from ..smt.branch_bound import solve_integer_feasibility
from ..smt.simplex import BoundKind, BoundRef, Simplex
from .encoder import ScaledQuery
from .result import VerificationResult, VerificationStatus
from .smt_verifier import EncodedNeuron, SmtVerifier, encode_adversary


@dataclass
class _AdversaryState:
    """Warm solvers and bookkeeping for one adversary label."""

    sat: CdclSolver
    simplex: Simplex
    noise_vars: list[int]
    neurons: list[EncodedNeuron]
    #: One SAT variable per neuron (same order): true = active phase.
    phases: list[int]
    #: (low tuple, high tuple) -> rung assumption literal.
    rung_literals: dict[tuple, int] = field(default_factory=dict)
    #: Set when the structural encoding alone is refuted: the adversary
    #: is unreachable at every rung, past and future.
    dead: bool = False
    theory_conflicts: int = 0


class LadderSession:
    """Warm complete verification across one input's noise ladder.

    One session serves every rung (and every bisection probe) of a single
    ``(input, true label)`` pair.  ``verify`` is the SMT-path complete
    stage: it always returns a definitive ROBUST/VULNERABLE verdict,
    byte-identical to what :class:`SmtVerifier` would produce cold.
    """

    name = "smt-session"

    def __init__(self, config: VerifierConfig | None = None):
        self.config = config or VerifierConfig()
        self._states: dict[int, _AdversaryState] = {}
        #: From-scratch engine used to re-derive canonical witnesses for
        #: vulnerable rungs (and nothing else).
        self._scratch = SmtVerifier(self.config)
        self.nodes_explored = 0
        self.rungs_verified = 0

    # -- effort accounting (benchmark surface) --------------------------------

    @property
    def total_pivots(self) -> int:
        """Simplex pivots spent by this session, warm and scratch alike."""
        return (
            sum(state.simplex.total_pivots for state in self._states.values())
            + self._scratch.total_pivots
        )

    @property
    def sat_conflicts(self) -> int:
        """CDCL conflicts across all per-adversary solvers."""
        return sum(state.sat.conflicts for state in self._states.values())

    @property
    def theory_conflicts(self) -> int:
        return sum(state.theory_conflicts for state in self._states.values())

    # -- the complete stage ----------------------------------------------------

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """Decide one rung; ROBUST and VULNERABLE are both definitive."""
        self.nodes_explored = 0
        self.rungs_verified += 1
        bounds = query.layer_bounds()
        for adversary in range(query.num_outputs):
            if adversary == query.true_label:
                continue
            if not self._rung_satisfiable(query, adversary, bounds):
                continue
            # A warm solver proved the rung vulnerable for this adversary.
            # Re-derive the canonical witness with the from-scratch search
            # so the report carries exactly the cold engine's bytes.
            self._scratch.nodes_explored = 0  # per-call budget, not per-session
            witness = self._scratch.witness_against(query, adversary)
            if witness is None:
                raise VerificationError(
                    "internal: incremental session and scratch engine disagree"
                )
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

    # -- per-adversary lazy loop -----------------------------------------------

    def _rung_satisfiable(self, query: ScaledQuery, adversary: int, bounds) -> bool:
        """Whether some noise vector in this rung's box flips to ``adversary``."""
        state = self._states.get(adversary)
        if state is None:
            state = self._encode_adversary(query, adversary)
            self._states[adversary] = state
        if state.dead:
            return False

        rung_key = (
            tuple(int(v) for v in query.low),
            tuple(int(v) for v in query.high),
        )
        rung_literal = state.rung_literals.get(rung_key)
        if rung_literal is None:
            rung_literal = state.sat.new_var()
            state.rung_literals[rung_key] = rung_literal

        simplex = state.simplex
        simplex.push()
        depth = 1
        try:
            rung_origin: dict[BoundRef, int] = {}
            conflict = self._assert_rung_bounds(
                state, query, bounds, rung_literal, rung_origin
            )
            if conflict is not None:
                # The rung's own bounds clash with permanent structure:
                # this rung is unsatisfiable (and learning the clause —
                # or marking the adversary dead — still applies).
                self._handle_conflict(
                    state, conflict.conflict, rung_origin, {}, rung_literal
                )
                return False

            assumptions = [rung_literal]
            for neuron, phase in zip(state.neurons, state.phases):
                low = bounds[neuron.layer][0][neuron.index]
                high = bounds[neuron.layer][1][neuron.index]
                if low >= 0:
                    assumptions.append(phase)
                elif high <= 0:
                    assumptions.append(-phase)

            while True:
                self.nodes_explored += 1
                if self.nodes_explored > self.config.node_budget:
                    raise BudgetExceededError(
                        f"ladder session exceeded {self.config.node_budget} nodes",
                        budget=self.config.node_budget,
                    )
                result = state.sat.solve(assumptions=assumptions)
                if result.status is not SatStatus.SAT:
                    if result.failed_assumptions is None:
                        state.dead = True
                    return False
                model = result.model
                simplex.push()
                depth += 1
                phase_origin: dict[BoundRef, int] = {}
                conflict = None
                for neuron, phase in zip(state.neurons, state.phases):
                    # A conflicting SimplexResult is falsy (feasible is
                    # False), so sequence the two asserts explicitly.
                    if model[phase]:
                        # Active: n >= 0, a - n <= 0 (with a >= n permanent).
                        conflict = self._attempt(
                            simplex, neuron.pre_var, BoundKind.LOWER, 0,
                            phase, phase_origin,
                        )
                        if conflict is None:
                            conflict = self._attempt(
                                simplex, neuron.diff_var, BoundKind.UPPER, 0,
                                phase, phase_origin,
                            )
                    else:
                        # Inactive: n <= 0, a <= 0 (with a >= 0 permanent).
                        conflict = self._attempt(
                            simplex, neuron.pre_var, BoundKind.UPPER, 0,
                            -phase, phase_origin,
                        )
                        if conflict is None:
                            conflict = self._attempt(
                                simplex, neuron.act_var, BoundKind.UPPER, 0,
                                -phase, phase_origin,
                            )
                    if conflict is not None:
                        break

                if conflict is None:
                    check = simplex.check()
                    if check.feasible:
                        fractional = [
                            v
                            for v in state.noise_vars
                            if check.assignment[v].denominator != 1
                        ]
                        feasible = True
                        if fractional:
                            bb = solve_integer_feasibility(
                                simplex,
                                state.noise_vars,
                                node_budget=self.config.node_budget,
                            )
                            feasible = bb.feasible
                        if feasible:
                            return True
                        # LP-feasible but integer-infeasible: block this
                        # exact phase assignment under this rung.
                        blocking = [-rung_literal] + [
                            -phase if model[phase] else phase
                            for phase in state.phases
                        ]
                        simplex.pop()
                        depth -= 1
                        state.theory_conflicts += 1
                        state.sat.add_clause(blocking)
                        continue
                    conflict = check

                simplex.pop()
                depth -= 1
                if not self._handle_conflict(
                    state, conflict.conflict, rung_origin, phase_origin, rung_literal
                ):
                    return False
        finally:
            while depth > 0:
                simplex.pop()
                depth -= 1

    def _handle_conflict(
        self, state, core, rung_origin, phase_origin, rung_literal
    ) -> bool:
        """Learn a blocking clause from a simplex core.

        Returns False when the core involves only permanent bounds — the
        structural encoding alone is infeasible, so the adversary is dead
        at every rung.  (The caller treats False as "stop: unreachable".)
        """
        state.theory_conflicts += 1
        literals = set()
        for ref in core:
            origin = phase_origin.get(ref)
            if origin is None:
                origin = rung_origin.get(ref)
            if origin is not None:
                literals.add(-origin)
        if not literals:
            state.dead = True
            return False
        state.sat.add_clause(sorted(literals))
        return True

    # -- encoding ----------------------------------------------------------------

    @staticmethod
    def _attempt(simplex, var, kind, bound, origin, origin_map) -> object | None:
        """Assert one bound, recording ``origin`` when it becomes active.

        The origin is recorded when the bound actually tightened (it now
        *owns* the current bound) or when the assertion itself conflicts;
        a bound that did not tighten leaves the current owner in place, so
        conflict cores map to the literals that really caused them.
        """
        ref = BoundRef(var, kind)
        index = 0 if kind is BoundKind.LOWER else 1
        before = simplex.bounds(var)[index]
        if kind is BoundKind.LOWER:
            conflict = simplex.assert_lower(var, bound)
        else:
            conflict = simplex.assert_upper(var, bound)
        if conflict is not None:
            origin_map[ref] = origin
            return conflict
        if simplex.bounds(var)[index] != before:
            origin_map[ref] = origin
        return None

    def _assert_rung_bounds(
        self, state, query, bounds, rung_literal, origin_map
    ):
        """Install this rung's retractable bounds inside the open frame."""
        simplex = state.simplex
        for var, lo, hi in zip(state.noise_vars, query.low, query.high):
            conflict = self._attempt(
                simplex, var, BoundKind.LOWER, int(lo), rung_literal, origin_map
            )
            if conflict is None:
                conflict = self._attempt(
                    simplex, var, BoundKind.UPPER, int(hi), rung_literal, origin_map
                )
            if conflict is not None:
                return conflict
        for neuron in state.neurons:
            high = bounds[neuron.layer][1][neuron.index]
            conflict = self._attempt(
                simplex,
                neuron.act_var,
                BoundKind.UPPER,
                max(0, high),
                rung_literal,
                origin_map,
            )
            if conflict is not None:
                return conflict
        return None

    def _encode_adversary(self, query: ScaledQuery, adversary: int) -> _AdversaryState:
        """Structural (rung-independent) encoding, built exactly once.

        The simplex side is :func:`encode_adversary`, the encoding
        :class:`SmtVerifier` builds per query; only the noise-box bounds
        and the interval activation caps are deferred to the per-rung
        frame.  The margin threshold depends only on the label pair, never
        the rung, so it is permanent.
        """
        simplex = Simplex()
        noise_vars, neurons, margin = encode_adversary(simplex, query, adversary)
        sat = CdclSolver()
        state = _AdversaryState(
            sat=sat,
            simplex=simplex,
            noise_vars=noise_vars,
            neurons=neurons,
            phases=[sat.new_var() for _ in neurons],
        )
        if (
            simplex.assert_lower(margin, query.misclass_threshold(adversary))
            is not None
        ):
            state.dead = True
        return state
