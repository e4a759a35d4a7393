"""Ablation — weight-quantisation scale (DESIGN.md design choice).

The formal model snaps float weights to rationals with denominator
``weight_scale``.  Too coarse and the quantised network disagrees with
the trained one (P1 fails); finer scales cost nothing in exactness but
grow the integers the engines push around.  This bench measures both
sides of that trade-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NoiseConfig
from repro.nn import quantize_network
from repro.verify import SmtVerifier, build_query


@pytest.mark.parametrize("scale", [10, 100, 1000, 10000])
def test_prediction_agreement_by_scale(benchmark, trained, case_study, scale):
    network = trained.network

    def quantise_and_compare():
        quantized = quantize_network(network, weight_scale=scale)
        disagreements = 0
        for x in case_study.test.features:
            if quantized.predict(x) != int(network.predict(np.asarray(x, float))):
                disagreements += 1
        return disagreements

    disagreements = benchmark(quantise_and_compare)
    print(f"\nscale 1/{scale}: {disagreements}/34 prediction disagreements")
    if scale >= 1000:
        # The library default must preserve every prediction (P1).
        assert disagreements == 0


@pytest.mark.parametrize("scale", [100, 1000])
def test_verification_cost_by_scale(benchmark, trained, case_study, scale):
    quantized = quantize_network(trained.network, weight_scale=scale)
    x = np.asarray(case_study.test.features[0])
    label = quantized.predict(x)
    query = build_query(quantized, x, label, NoiseConfig(max_percent=10))

    result = benchmark(lambda: SmtVerifier().verify(query))
    assert result.status.value in ("robust", "vulnerable")
