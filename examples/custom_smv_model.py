"""Using the model-checking stack standalone (no neural network).

The SMV language, FSM semantics and the explicit-state checker form a
general invariant checker: this example verifies mutual exclusion of a
two-process arbiter and finds the shortest counterexample to an
intentionally wrong property.

Run:  python examples/custom_smv_model.py
"""

from __future__ import annotations

from repro.mc import ExplicitChecker
from repro.smv import parse_expression, parse_module

ARBITER = """
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
INVARSPEC !(a = critical & b = critical);
"""


def main() -> None:
    module = parse_module(ARBITER)
    checker = ExplicitChecker()

    result = checker.check_invariant(module, module.invarspecs[0])
    print(
        f"property: mutual exclusion -> {result.verdict.value} "
        f"({result.states_explored} states)"
    )

    # A property that is false: process a never reaches the critical section.
    result = checker.check_invariant(module, parse_expression("a != critical"))
    print(f"\nproperty: 'a never enters critical' -> {result.verdict.value}")
    print("\nshortest counterexample trace:")
    print(result.counterexample.format())


if __name__ == "__main__":
    main()
