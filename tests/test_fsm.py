"""Tests for FSM semantics: evaluation, transition systems, exploration."""

from __future__ import annotations

import pytest

from repro.errors import ModelCheckingError, StateSpaceLimitError
from repro.fsm import (
    TransitionSystem,
    count_states_and_transitions,
    evaluate_choices,
    evaluate_expression,
    explore,
)
from repro.smv import parse_expression, parse_module


def module_of(text: str):
    return parse_module(text)


class TestEvaluator:
    def setup_method(self):
        self.module = module_of("MODULE main VAR a : 0..10; b : -5..5;")

    def eval(self, text, **state):
        return evaluate_expression(parse_expression(text), state, self.module)

    def test_arithmetic(self):
        assert self.eval("a + b * 2", a=3, b=4) == 11
        assert self.eval("a - b", a=3, b=5) == -2

    def test_truncated_division(self):
        assert self.eval("a / b", a=7, b=2) == 3
        assert self.eval("-7 / 2", a=0, b=0) == -3  # trunc toward zero
        assert self.eval("7 mod 2", a=0, b=0) == 1
        assert self.eval("-7 mod 2", a=0, b=0) == -1  # sign follows dividend

    def test_division_by_zero(self):
        with pytest.raises(ModelCheckingError):
            self.eval("a / b", a=1, b=0)

    def test_min_max_abs(self):
        assert self.eval("max(a, b, 3)", a=1, b=-2) == 3
        assert self.eval("min(a, b)", a=1, b=-2) == -2
        assert self.eval("abs(b)", a=0, b=-4) == 4

    def test_case_first_match_wins(self):
        assert self.eval("case a > 0 : 1; TRUE : 2; esac", a=5, b=0) == 1
        assert self.eval("case a > 0 : 1; TRUE : 2; esac", a=0, b=0) == 2

    def test_case_no_match(self):
        with pytest.raises(ModelCheckingError):
            self.eval("case a > 0 : 1; esac", a=0, b=0)

    def test_boolean_shortcircuit(self):
        # b/0 would blow up if '&' did not short-circuit.
        assert self.eval("a > 100 & b / 0 > 0", a=1, b=1) is False

    def test_choices_flatten_sets(self):
        choices = evaluate_choices(
            parse_expression("{1, 2, {3, 4}}"), {}, self.module
        )
        assert choices == [1, 2, 3, 4]

    def test_choices_through_case(self):
        choices = evaluate_choices(
            parse_expression("case a > 0 : {1, 2}; TRUE : 0; esac"),
            {"a": 1},
            self.module,
        )
        assert choices == [1, 2]


COUNTER = """
MODULE main
VAR
  count : 0..3;
ASSIGN
  init(count) := 0;
  next(count) := case
      count < 3 : count + 1;
      TRUE : 0;
    esac;
"""

NONDET = """
MODULE main
VAR
  phase : {start, run};
  choice : 0..1;
ASSIGN
  init(phase) := start;
  init(choice) := 0;
  next(phase) := run;
  next(choice) := {0, 1};
"""


class TestTransitionSystem:
    def test_counter_deterministic_cycle(self):
        system = TransitionSystem(module_of(COUNTER))
        initials = list(system.initial_states())
        assert initials == [(0,)]
        assert list(system.successors((0,))) == [(1,)]
        assert list(system.successors((3,))) == [(0,)]

    def test_unassigned_variable_is_free(self):
        system = TransitionSystem(module_of("MODULE main VAR x : 0..2;"))
        assert len(list(system.initial_states())) == 3
        assert len(list(system.successors((0,)))) == 3

    def test_out_of_domain_choices_deadlock(self):
        bad = module_of(
            "MODULE main VAR n : 0..3; ASSIGN init(n) := 0; next(n) := n + 1;"
        )
        system = TransitionSystem(bad)
        # n = 3 would step to 4, outside the domain: the state deadlocks.
        assert list(system.successors((3,))) == []

    def test_validate_reports_possible_overflow(self):
        bad = module_of(
            "MODULE main VAR n : 0..3; ASSIGN init(n) := 0; next(n) := n + 1;"
        )
        warnings = TransitionSystem(bad).validate()
        assert len(warnings) == 1
        assert "next(n)" in warnings[0]

    def test_validate_clean_model(self):
        system = TransitionSystem(module_of(COUNTER))
        assert system.validate() == []

    def test_holds(self):
        system = TransitionSystem(module_of(COUNTER))
        assert system.holds(parse_expression("count <= 3"), (2,))
        assert not system.holds(parse_expression("count = 0"), (2,))


class TestExploration:
    def test_counter_reachability(self):
        result = explore(TransitionSystem(module_of(COUNTER)))
        assert result.state_count == 4
        assert result.transitions == 4  # deterministic ring
        assert result.initial_count == 1

    def test_nondet_counts(self):
        states, transitions = count_states_and_transitions(
            TransitionSystem(module_of(NONDET))
        )
        # Reachable: (start,0), (run,0), (run,1).
        assert states == 3
        # Each state has 2 successors (choice nondeterministic).
        assert transitions == 6

    def test_state_budget(self):
        system = TransitionSystem(module_of("MODULE main VAR x : 0..100;"))
        with pytest.raises(StateSpaceLimitError):
            explore(system, max_states=10)

    def test_fig3_shape_no_noise(self):
        """Paper Fig. 3(b): dataset-nondeterministic FSM has 3 states and
        6 transitions (Initial + one per output label, complete graph)."""
        module = module_of(
            """
MODULE main
VAR
  state : {initial, l0, l1};
ASSIGN
  init(state) := initial;
  next(state) := {l0, l1};
"""
        )
        states, transitions = count_states_and_transitions(TransitionSystem(module))
        assert states == 3
        assert transitions == 6

    def test_fig3_shape_with_unit_noise(self):
        """Paper Fig. 3(c): with noise range [0,1]% on 6 input nodes the FSM
        grows to 65 states and 4160 transitions."""
        noise_vars = "\n".join(f"  p{i} : 0..1;" for i in range(6))
        inits = "\n".join(f"  init(p{i}) := 0;" for i in range(6))
        nexts = "\n".join(f"  next(p{i}) := {{0, 1}};" for i in range(6))
        module = module_of(
            f"""
MODULE main
VAR
  phase : {{initial, eval}};
{noise_vars}
ASSIGN
  init(phase) := initial;
  next(phase) := eval;
{inits}
{nexts}
"""
        )
        states, transitions = count_states_and_transitions(TransitionSystem(module))
        assert states == 65
        assert transitions == 64 + 64 * 64  # 4160
