"""FANNet methodology — the paper's contribution.

The Fig.-2 pipeline, faithfully:

1. **Behaviour extraction** (:mod:`repro.core.translate`) — the trained,
   quantised network becomes an SMV model whose inputs carry
   non-deterministic relative noise; property P1 validates the
   translation against the dataset.
2. **Noise-tolerance analysis** (:mod:`repro.core.tolerance`) — property
   P2 (``OCn = Sx``) is checked under shrinking noise until no
   counterexample exists; the largest clean range is the tolerance.
3. **Adversarial noise-vector extraction** (:mod:`repro.core.noise_vectors`)
   — property P3 blocks known vectors so each counterexample is fresh.
4. **Training-bias, input-sensitivity and boundary analyses**
   (:mod:`repro.core.bias`, :mod:`repro.core.sensitivity`,
   :mod:`repro.core.boundary`) — the census of extracted counterexamples.

:class:`repro.core.fannet.Fannet` wires it all together;
:func:`repro.core.fannet.run_case_study` reproduces the paper's §V.
"""

from .translate import (
    dataset_fsm_module,
    network_noise_module,
    validate_translation,
)
from .properties import p1_functional_property, p2_noise_property
from .tolerance import InputTolerance, ToleranceReport, NoiseToleranceAnalysis
from .noise_vectors import NoiseVectorExtraction
from .bias import BiasReport, TrainingBiasAnalysis
from .sensitivity import NodeSensitivity, SensitivityReport, InputSensitivityAnalysis
from .boundary import BoundaryReport, BoundaryEstimation
from .fannet import Fannet, FannetReport, run_case_study

__all__ = [
    "network_noise_module",
    "dataset_fsm_module",
    "validate_translation",
    "p1_functional_property",
    "p2_noise_property",
    "NoiseToleranceAnalysis",
    "ToleranceReport",
    "InputTolerance",
    "NoiseVectorExtraction",
    "TrainingBiasAnalysis",
    "BiasReport",
    "InputSensitivityAnalysis",
    "SensitivityReport",
    "NodeSensitivity",
    "BoundaryEstimation",
    "BoundaryReport",
    "Fannet",
    "FannetReport",
    "run_case_study",
]
