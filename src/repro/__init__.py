"""FANNet — Formal Analysis of Noise Tolerance, Training Bias and Input
Sensitivity in Neural Networks (DATE 2020) — full reproduction.

Public API highlights:

- :func:`repro.core.run_case_study` — the paper's §V in one call;
- :class:`repro.core.Fannet` — the methodology bound to your own network;
- :mod:`repro.nn` / :mod:`repro.data` — training substrate and the
  synthetic leukemia dataset;
- :mod:`repro.verify` — the noise-query verification engines;
- :mod:`repro.runtime` — the parallel, cache-aware query runner the
  analyses execute on;
- :mod:`repro.smv`, :mod:`repro.fsm`, :mod:`repro.mc` — the SMV language
  and the explicit-state model checker (the nuXmv role);
- :mod:`repro.sat`, :mod:`repro.smt` — the CDCL and exact-simplex
  substrates under the complete verification engine.
"""

from .config import (
    FannetConfig,
    NoiseConfig,
    RuntimeConfig,
    TrainConfig,
    VerifierConfig,
)
from .errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "FannetConfig",
    "NoiseConfig",
    "RuntimeConfig",
    "TrainConfig",
    "VerifierConfig",
    "ReproError",
    "__version__",
]
