"""Incremental ladder sessions and their solver satellites (PR 10).

Four layers of coverage:

1. **Session = scratch, verdict for verdict** — hypothesis property
   tests drive one :class:`LadderSession` through random noise ladders
   (ascending and shuffled bisection-like orders) and assert the verdict
   *and witness* match a fresh :class:`SmtVerifier` at every rung.
2. **Portfolio / frontier parity** — :meth:`PortfolioVerifier.verify_complete`
   and :func:`resolve_survivors` through shared sessions must produce the
   results of a from-scratch :class:`SmtVerifier`, with the session stage
   accounted under its own name, and pinned pivot bills for both.
3. **Runtime plumbing** — worker counts and cache policies yield
   bit-identical tolerance sweeps.
4. **Solver satellites** — ``SatResult.failed_assumptions`` (minimal
   refuted cores, solver reusability) and the lazily-pruned learnt-DB
   reduction (watch invariants, brute-force agreement).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import NoiseConfig, RuntimeConfig, VerifierConfig
from repro.core import NoiseToleranceAnalysis
from repro.data.dataset import Dataset
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.sat import CdclSolver, Cnf, SatStatus, brute_force_satisfiable
from repro.verify import (
    FrontierProbe,
    LadderSession,
    PortfolioVerifier,
    SmtVerifier,
    build_query,
    resolve_survivors,
)

SCALE = 1000

HARNESS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_network(layer_shapes, draw_weight) -> QuantizedNetwork:
    """Random fully-connected net; ``layer_shapes`` like [(3, 4), (4, 2)]."""
    layers = []
    for position, (fan_in, fan_out) in enumerate(layer_shapes):
        weights = tuple(
            tuple(Fraction(draw_weight(), SCALE) for _ in range(fan_in))
            for _ in range(fan_out)
        )
        bias = tuple(Fraction(draw_weight(), SCALE) for _ in range(fan_out))
        layers.append(
            QuantizedLayer(weights, bias, relu=position < len(layer_shapes) - 1)
        )
    return QuantizedNetwork(layers)


@st.composite
def ladder_case(draw):
    """Random network + input + a shuffled ladder of noise rungs."""
    num_inputs = draw(st.integers(2, 3))
    hidden = draw(st.integers(2, 4))
    weight = lambda: draw(st.integers(-2000, 2000))  # noqa: E731
    network = make_network([(num_inputs, hidden), (hidden, 2)], weight)
    x = np.array([draw(st.integers(1, 30)) for _ in range(num_inputs)])
    ceiling = draw(st.integers(2, 7))
    rungs = draw(st.permutations(list(range(1, ceiling + 1))))
    return network, x, network.predict(x), list(rungs)


# -- 1. session vs scratch ---------------------------------------------------------


class TestSessionMatchesScratch:
    @given(ladder_case())
    @HARNESS
    def test_every_rung_matches_a_fresh_smt_verifier(self, case):
        network, x, label, rungs = case
        session = LadderSession(VerifierConfig())
        for percent in rungs:
            query = build_query(network, x, label, NoiseConfig(percent))
            warm = session.verify(query)
            cold = SmtVerifier().verify(query)
            assert warm.status is cold.status, (
                f"rung ±{percent}%: session says {warm.status}, "
                f"scratch says {cold.status}"
            )
            if warm.is_vulnerable:
                assert query.misclassified(warm.witness)
                # Witnesses are re-derived canonically: byte-identical.
                assert warm.witness == cold.witness
                assert warm.predicted_label == cold.predicted_label

    def test_three_layer_ladders_in_random_orders(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
            network = make_network([(3, 3), (3, 3), (3, 2)], weight)
            x = np.array([int(v) for v in rng.integers(1, 31, 3)])
            label = network.predict(x)
            session = LadderSession(VerifierConfig())
            for percent in rng.permutation(range(1, 8)):
                query = build_query(network, x, label, NoiseConfig(int(percent)))
                warm = session.verify(query)
                cold = SmtVerifier().verify(query)
                assert warm.status is cold.status
                if warm.is_vulnerable:
                    assert warm.witness == cold.witness

    def test_session_reports_its_own_engine_name(self):
        rng = np.random.default_rng(5)
        weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
        network = make_network([(2, 3), (3, 2)], weight)
        x = np.array([7, 13])
        session = LadderSession(VerifierConfig())
        result = session.verify(
            build_query(network, x, network.predict(x), NoiseConfig(4))
        )
        assert result.engine == "smt-session"


# -- 2. portfolio / frontier parity ------------------------------------------------


def deterministic_ladder(seed: int, rungs):
    rng = np.random.default_rng(seed)
    weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
    network = make_network([(3, 4), (4, 2)], weight)
    x = np.array([int(v) for v in rng.integers(1, 31, 3)])
    label = network.predict(x)
    return [build_query(network, x, label, NoiseConfig(p)) for p in rungs]


def canonical(result):
    return (result.status, result.witness, result.predicted_label)


class TestPortfolioParity:
    def test_complete_stage_matches_scratch_smt(self):
        queries = deterministic_ladder(2, range(1, 9))
        warm = PortfolioVerifier(exhaustive_cutoff=0)
        for query in queries:
            a = warm.verify_complete(query)
            b = SmtVerifier().verify(query)
            assert canonical(a) == canonical(b)
            assert a.stats["stage"] == "session"
        assert warm.engine_stats.stages["session"].attempts == len(queries)
        assert warm.complete_pivots() > 0

    def test_one_session_per_input_label_with_fifo_eviction(self):
        from repro.verify.portfolio import MAX_SESSIONS

        verifier = PortfolioVerifier(exhaustive_cutoff=0)
        rng = np.random.default_rng(9)
        weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
        network = make_network([(2, 3), (3, 2)], weight)
        first_key = None
        for n in range(MAX_SESSIONS + 1):
            x = np.array([1 + n, 5])
            query = build_query(network, x, network.predict(x), NoiseConfig(3))
            verifier.verify_complete(query)
            verifier.verify_complete(query)  # same ladder: same session
            if first_key is None:
                (first_key,) = verifier._sessions
        assert len(verifier._sessions) == MAX_SESSIONS
        assert first_key not in verifier._sessions  # FIFO: oldest evicted

    def test_bisection_through_a_shared_session_matches_scratch(self):
        rungs = list(range(1, 11))
        queries = deterministic_ladder(4, rungs)
        probes = [
            FrontierProbe(key=p, query=q, percent=p, group="ladder")
            for p, q in zip(rungs, queries)
        ]

        def run(verify):
            exact, derived = resolve_survivors(
                probes, lambda probe: verify(probe.query)
            )
            return (
                {k: canonical(v) for k, v in exact.items()},
                {k: canonical(v) for k, v in derived.items()},
            )

        warm = PortfolioVerifier(exhaustive_cutoff=0)
        assert run(warm.verify_complete) == run(SmtVerifier().verify)

    def test_deep_ladder_pivot_bill_is_pinned(self):
        """Tableau arithmetic and the shared encoding must never move a
        pivot: this 5-12-12-2 ladder (integer weights, no training) crosses
        its boundary at 9 % in exactly the pivots the dict-of-Fraction
        tableau took, warm (588) and from scratch (755)."""
        rng = np.random.default_rng(5)
        weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
        network = make_network([(5, 12), (12, 12), (12, 2)], weight)
        x = np.array([int(v) for v in rng.integers(1, 31, 5)])
        label = network.predict(x)
        queries = [
            build_query(network, x, label, NoiseConfig(percent))
            for percent in range(6, 11)
        ]
        verifier = PortfolioVerifier(exhaustive_cutoff=0)
        scratch = SmtVerifier()
        expected = ["robust"] * 3 + ["vulnerable"] * 2
        assert [verifier.verify_complete(q).status.value for q in queries] == expected
        assert [scratch.verify(q).status.value for q in queries] == expected
        assert verifier.complete_pivots() == 588
        assert scratch.total_pivots == 755


# -- 3. runtime plumbing -----------------------------------------------------------


class TestRuntimeSweep:
    @pytest.fixture(scope="class")
    def substrate(self):
        rng = np.random.default_rng(21)
        weight = lambda: int(rng.integers(-2000, 2001))  # noqa: E731
        network = make_network([(3, 4), (4, 2)], weight)
        features = [tuple(int(v) for v in rng.integers(1, 31, 3)) for _ in range(4)]
        labels = [network.predict(np.array(x)) for x in features]
        return network, Dataset(features=features, labels=labels)

    def run_sweep(self, substrate, runtime):
        network, dataset = substrate
        analysis = NoiseToleranceAnalysis(
            network, search_ceiling=6, runtime=runtime
        )
        return analysis.sweep(dataset, list(range(1, 7)))

    def test_workers_2_and_cache_off_match_baseline(self, substrate):
        baseline = self.run_sweep(substrate, RuntimeConfig())
        assert baseline == self.run_sweep(substrate, RuntimeConfig(workers=2))
        assert baseline == self.run_sweep(substrate, RuntimeConfig(cache=False))


# -- 4a. failed-assumption cores ---------------------------------------------------


class TestFailedAssumptions:
    def test_formula_unsat_has_no_core_and_poisons_the_solver(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve()
        assert result.status is SatStatus.UNSAT
        assert result.failed_assumptions is None
        # Formula-level UNSAT is permanent: the solver stays UNSAT.
        assert solver.solve().status is SatStatus.UNSAT

    def test_assumption_core_keeps_the_solver_reusable(self):
        solver = CdclSolver()
        solver.ensure_vars(2)
        solver.add_clause([-1, -2])
        result = solver.solve(assumptions=[1, 2])
        assert result.status is SatStatus.UNSAT
        assert result.failed_assumptions == (1, 2)
        # The formula itself is satisfiable — the solver must say so.
        assert solver.solve(assumptions=[1]).status is SatStatus.SAT
        assert solver.solve().status is SatStatus.SAT

    def test_core_excludes_irrelevant_assumptions(self):
        solver = CdclSolver()
        solver.ensure_vars(4)
        solver.add_clause([-2, -3])
        result = solver.solve(assumptions=[1, 2, 3, 4])
        assert result.status is SatStatus.UNSAT
        assert result.failed_assumptions == (2, 3)

    def test_core_follows_propagation_chains(self):
        solver = CdclSolver()
        solver.ensure_vars(4)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, -4])
        result = solver.solve(assumptions=[1, 4])
        assert result.status is SatStatus.UNSAT
        assert result.failed_assumptions == (1, 4)

    @given(st.data())
    @HARNESS
    def test_cores_are_refuted_subsets_on_random_cnfs(self, data):
        num_vars = data.draw(st.integers(2, 6))
        literal = st.integers(1, num_vars).flatmap(
            lambda v: st.sampled_from([v, -v])
        )
        cnf = Cnf(num_vars=num_vars)
        for _ in range(data.draw(st.integers(1, 15))):
            cnf.add_clause(data.draw(st.lists(literal, min_size=1, max_size=3)))
        assumptions = data.draw(
            st.lists(literal, min_size=1, max_size=4, unique_by=abs)
        )
        solver = CdclSolver()
        solver.ensure_vars(num_vars)
        for clause in cnf.clauses:
            if not solver.add_clause(list(clause)):
                # Trivially contradictory at load time: the clause is not
                # recorded and the formula is UNSAT by contract — the
                # assumption machinery never comes into play.
                assert not brute_force_satisfiable(cnf)
                return
        result = solver.solve(assumptions=assumptions)
        if result.status is not SatStatus.UNSAT or result.failed_assumptions is None:
            return
        core = result.failed_assumptions
        assert set(core) <= set(assumptions)
        # The core really is refuted: formula + core units is brute-UNSAT.
        refuted = Cnf(num_vars=num_vars)
        refuted.add_clauses([list(c) for c in cnf.clauses])
        for lit in core:
            refuted.add_clause([lit])
        assert not brute_force_satisfiable(refuted)
        # And the solver is still usable: formula verdict matches brute force.
        assert (solver.solve().status is SatStatus.SAT) == brute_force_satisfiable(
            cnf
        )


# -- 4b. lazy learnt-DB reduction --------------------------------------------------


def pigeonhole_cnf(holes: int) -> Cnf:
    """PHP(holes+1, holes): UNSAT, and famously conflict-heavy for CDCL."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    cnf = Cnf(num_vars=pigeons * holes)
    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                cnf.add_clause([-var(p, h), -var(q, h)])
    return cnf


class TestLazyReduceDb:
    def solve_with_tiny_db(self, cnf, assumptions=()):
        solver = CdclSolver()
        solver.ensure_vars(cnf.num_vars)
        # Force frequent reductions so the lazy pruning path really runs.
        solver.MAX_LEARNTS_START = 4
        for clause in cnf.clauses:
            solver.add_clause(list(clause))
        return solver, solver.solve(assumptions=list(assumptions))

    def test_reduction_marks_clauses_instead_of_rebuilding_watches(self):
        solver, result = self.solve_with_tiny_db(pigeonhole_cnf(4))
        assert result.status is SatStatus.UNSAT
        assert solver.removed_clauses > 0  # reductions actually fired
        # The learnt list holds only survivors...
        assert all(not clause.removed for clause in solver._learnts)
        # ...and every survivor obeys the two-watch invariant: it sits in
        # exactly the watch lists of its first two literals' negations.
        for clause in solver._learnts:
            assert any(c is clause for c in solver._watches[-clause[0]])
            assert any(c is clause for c in solver._watches[-clause[1]])

    def test_live_clauses_are_watched_exactly_twice(self):
        solver, result = self.solve_with_tiny_db(pigeonhole_cnf(3))
        assert result.status is SatStatus.UNSAT
        counts: dict[int, int] = {}
        for watchers in solver._watches.values():
            for clause in watchers:
                if not clause.removed:
                    counts[id(clause)] = counts.get(id(clause), 0) + 1
        live = {id(c) for c in solver._learnts} | {
            id(c) for c in solver._clauses if len(c) > 1
        }
        for clause_id in live:
            assert counts.get(clause_id) == 2

    @given(st.data())
    @HARNESS
    def test_verdicts_match_brute_force_under_constant_reduction(self, data):
        num_vars = data.draw(st.integers(2, 7))
        literal = st.integers(1, num_vars).flatmap(
            lambda v: st.sampled_from([v, -v])
        )
        cnf = Cnf(num_vars=num_vars)
        for _ in range(data.draw(st.integers(1, 20))):
            cnf.add_clause(data.draw(st.lists(literal, min_size=1, max_size=3)))
        solver = CdclSolver()
        solver.ensure_vars(num_vars)
        solver.MAX_LEARNTS_START = 1
        for clause in cnf.clauses:
            if not solver.add_clause(list(clause)):
                assert not brute_force_satisfiable(cnf)  # UNSAT by contract
                return
        result = solver.solve()
        assert (result.status is SatStatus.SAT) == brute_force_satisfiable(cnf)
        if result.status is SatStatus.SAT:
            assert cnf.evaluate(result.model)
