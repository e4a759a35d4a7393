"""Verdicts, traces and counterexamples of the model checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"


@dataclass
class Trace:
    """A finite execution: list of states (name → value dicts)."""

    states: list[dict[str, object]] = field(default_factory=list)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, index):
        return self.states[index]

    @property
    def final(self) -> dict[str, object]:
        if not self.states:
            raise IndexError("empty trace")
        return self.states[-1]

    def format(self) -> str:
        """nuXmv-style textual counterexample."""
        lines = []
        previous: dict[str, object] = {}
        for step, state in enumerate(self.states):
            lines.append(f"-> State {step} <-")
            for name, value in state.items():
                if previous.get(name) != value:
                    rendered = "TRUE" if value is True else "FALSE" if value is False else value
                    lines.append(f"  {name} = {rendered}")
            previous = state
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of checking one property."""

    verdict: Verdict
    property_text: str = ""
    counterexample: Trace | None = None
    states_explored: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    @property
    def violated(self) -> bool:
        return self.verdict is Verdict.VIOLATED

    def __repr__(self):
        return f"CheckResult({self.verdict.value}, states={self.states_explored})"
