"""Tests for the explicit-state model checker.

The key property: on randomly generated small modules, the checker's
verdict and shortest counterexample match a reachability oracle computed
in plain Python, outside the SMV → FSM semantics it runs on.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import NoiseConfig
from repro.core import network_noise_module
from repro.fsm import TransitionSystem, evaluate_expression, explore
from repro.mc import ExplicitChecker, Verdict
from repro.nn.quantize import QuantizedLayer, QuantizedNetwork
from repro.smv import parse_expression, parse_module
from repro.smv.ast import Ident

SAFE_COUNTER = """
MODULE main
VAR
  count : 0..7;
ASSIGN
  init(count) := 0;
  next(count) := case
      count < 5 : count + 1;
      TRUE : 0;
    esac;
"""

UNSAFE_COUNTER = """
MODULE main
VAR
  count : 0..7;
ASSIGN
  init(count) := 0;
  next(count) := case
      count < 7 : count + 1;
      TRUE : 7;
    esac;
"""

WRAPPING_COUNTER = """
MODULE main
VAR
  count : 0..5;
ASSIGN
  init(count) := 0;
  next(count) := case
      count < 5 : count + 1;
      TRUE : 0;
    esac;
"""

MUTEX = """
MODULE main
VAR
  a : {idle, trying, critical};
  b : {idle, trying, critical};
  turn : 0..1;
ASSIGN
  init(a) := idle;
  init(b) := idle;
  next(a) := case
      a = idle : {idle, trying};
      a = trying & (b != critical) & turn = 0 : critical;
      a = critical : idle;
      TRUE : a;
    esac;
  next(b) := case
      b = idle : {idle, trying};
      b = trying & (a != critical) & turn = 1 : critical;
      b = critical : idle;
      TRUE : b;
    esac;
  next(turn) := case
      a = critical : 1;
      b = critical : 0;
      TRUE : turn;
    esac;
"""


def prop(text: str):
    return parse_expression(text)


class TestExplicit:
    def test_holds(self):
        result = ExplicitChecker().check_invariant(
            parse_module(SAFE_COUNTER), prop("count <= 5")
        )
        assert result.verdict is Verdict.HOLDS
        assert result.states_explored == 6

    def test_violated_with_shortest_trace(self):
        result = ExplicitChecker().check_invariant(
            parse_module(UNSAFE_COUNTER), prop("count < 4")
        )
        assert result.verdict is Verdict.VIOLATED
        assert len(result.counterexample) == 5  # 0,1,2,3,4
        assert result.counterexample.final["count"] == 4

    def test_mutual_exclusion_holds(self):
        result = ExplicitChecker().check_invariant(
            parse_module(MUTEX), prop("!(a = critical & b = critical)")
        )
        assert result.verdict is Verdict.HOLDS

    def test_wrapping_counter_verdicts(self):
        module = parse_module(WRAPPING_COUNTER)
        checker = ExplicitChecker()
        assert checker.check_invariant(module, prop("count <= 5")).holds
        assert checker.check_invariant(module, prop("count < 5")).violated

    def test_trace_format(self):
        result = ExplicitChecker().check_invariant(
            parse_module(UNSAFE_COUNTER), prop("count < 2")
        )
        text = result.counterexample.format()
        assert "State 0" in text and "count = 2" in text


class TestNoiseModel:
    def test_every_reachable_eval_state_matches_predict_single(self):
        """The translated NN model's ``oc`` is the exact network output in
        every noise state the FSM reaches."""
        network = QuantizedNetwork(
            [
                QuantizedLayer(
                    ((Fraction(1), Fraction(-1)),), (Fraction(0),), relu=True
                ),
                QuantizedLayer(
                    ((Fraction(1),), (Fraction(-1),)), (Fraction(0), Fraction(1)), relu=False
                ),
            ]
        )
        module, query = network_noise_module(
            network, np.array([10, 9]), 0, NoiseConfig(2)
        )
        system = TransitionSystem(module)
        states = [system.as_dict(s) for s in explore(system).states]
        eval_states = [s for s in states if s["phase"] == "eval"]
        vectors = {tuple(s[f"p{i}"] for i in range(2)) for s in eval_states}
        assert len(vectors) == 25  # every noise vector of [-2, 2]^2
        for state in eval_states:
            vector = tuple(state[f"p{i}"] for i in range(2))
            assert (
                evaluate_expression(Ident("oc"), state, module)
                == query.predict_single(vector)
            )


@st.composite
def random_counter(draw):
    """Parameters of a small counter whose step is gated by a free flag."""
    domain_high = draw(st.integers(1, 4))
    return {
        "domain_high": domain_high,
        "start": draw(st.integers(0, domain_high)),
        "increment": draw(st.integers(1, 2)),
        "wrap": draw(st.booleans()),
        "reset_value": draw(st.integers(0, domain_high)),
        "threshold": draw(st.integers(0, domain_high)),
    }


def counter_module(params) -> str:
    wrap_expr = str(params["reset_value"]) if params["wrap"] else "n"
    return f"""
MODULE main
VAR
  n : 0..{params["domain_high"]};
  flag : boolean;
ASSIGN
  init(n) := {params["start"]};
  next(n) := case
      flag & n + {params["increment"]} <= {params["domain_high"]} : n + {params["increment"]};
      TRUE : {wrap_expr};
    esac;
"""


def counter_step(params, n: int, flag: bool) -> int:
    """The counter's next ``n``, written out in plain Python."""
    if flag and n + params["increment"] <= params["domain_high"]:
        return n + params["increment"]
    return params["reset_value"] if params["wrap"] else n


def counter_depths(params) -> dict[int, int]:
    """BFS depth of every reachable ``n``; ``flag`` is free in every state."""
    depths = {params["start"]: 0}
    frontier = [params["start"]]
    while frontier:
        successors = []
        for n in frontier:
            for flag in (False, True):
                after = counter_step(params, n, flag)
                if after not in depths:
                    depths[after] = depths[n] + 1
                    successors.append(after)
        frontier = successors
    return depths


class TestAgainstOracle:
    @given(random_counter())
    @example(  # the reset reaches 2 in one step; counting up takes two
        {"domain_high": 2, "start": 0, "increment": 1, "wrap": True,
         "reset_value": 2, "threshold": 1}
    )
    @settings(max_examples=200, deadline=None)
    def test_explicit_matches_bfs_oracle(self, params):
        threshold = params["threshold"]
        result = ExplicitChecker().check_invariant(
            parse_module(counter_module(params)), prop(f"n <= {threshold}")
        )

        violating = [d for n, d in counter_depths(params).items() if n > threshold]
        if not violating:
            assert result.verdict is Verdict.HOLDS
            return
        assert result.verdict is Verdict.VIOLATED
        trace = result.counterexample.states
        assert len(trace) == min(violating) + 1
        assert trace[0]["n"] == params["start"]
        assert trace[-1]["n"] > threshold
        for before, after in zip(trace, trace[1:]):
            assert after["n"] == counter_step(params, before["n"], before["flag"])
