"""E7 — the explicit-state model checker (paper §III-B).

The paper checks its properties with nuXmv; this bench times the
explicit-state checker that plays that role here, on a counter model
(holding and violated invariants) and on P2 over the Fig.-3(c) NN noise
FSM, where its verdict must match exhaustive enumeration.
"""

from __future__ import annotations

from repro.config import NoiseConfig
from repro.core import network_noise_module
from repro.mc import ExplicitChecker, Verdict
from repro.smv import parse_expression, parse_module


def _counter_model(width: int) -> str:
    return f"""
MODULE main
VAR
  count : 0..{width};
ASSIGN
  init(count) := 0;
  next(count) := case
      count < {width - 1} : count + 1;
      TRUE : 0;
    esac;
INVARSPEC count < {width};
"""


def test_counter_model_holds(benchmark):
    module = parse_module(_counter_model(64))
    prop = module.invarspecs[0]
    checker = ExplicitChecker()

    result = benchmark(lambda: checker.check_invariant(module, prop))
    assert result.verdict is Verdict.HOLDS
    assert result.states_explored == 64


def test_violated_counter_shortest_trace(benchmark):
    module = parse_module(_counter_model(32))
    prop = parse_expression("count < 16")
    checker = ExplicitChecker()

    result = benchmark(lambda: checker.check_invariant(module, prop))
    assert result.verdict is Verdict.VIOLATED
    assert len(result.counterexample) == 17  # shortest trace: 0..16


def test_nn_noise_fsm_explicit_p2(benchmark, quantized, case_study, vulnerable_input):
    """P2 on the translated NN model via the explicit engine — the
    paper's literal nuXmv workflow at a small noise range."""
    index, x, label, min_flip = vulnerable_input
    percent = min(3, min_flip)  # keep the state space explicit-friendly
    module, query = network_noise_module(
        quantized, x, label, NoiseConfig(max_percent=percent)
    )
    checker = ExplicitChecker(max_states=2_000_000)

    result = benchmark.pedantic(
        lambda: checker.check_invariant(module, module.invarspecs[0]),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nP2 on test[{index}] at ±{percent}%: {result.verdict.value} "
        f"({result.states_explored} states)"
    )
    # Agreement with the arithmetic ground truth.
    from repro.verify import ExhaustiveEnumerator

    truth = ExhaustiveEnumerator().verify(query)
    assert result.violated == truth.is_vulnerable
