"""Data substrate.

The paper's case study uses the Golub leukemia microarray dataset
(7129 genes, 38 training / 34 testing samples, two classes ALL/AML) with
mRMR feature selection picking the five most significant genes.  The real
CSV needs a network fetch, so :mod:`repro.data.golub` generates a
synthetic stand-in with the same published shape; mRMR and preprocessing
are implemented faithfully.
"""

from .dataset import Dataset, LabelledSplit, CLASS_NAMES, LABEL_AML, LABEL_ALL
from .discretize import discretize_three_level
from .golub import GolubConfig, generate_golub_like
from .mrmr import mutual_information, mrmr_select
from .preprocess import scale_to_integers, select_columns
from .loaders import LeukemiaCaseStudy, load_leukemia_case_study
from .sources import (
    SOURCE_DTYPES,
    CsvSource,
    DatasetSource,
    NpzSource,
    build_source,
    register_source,
    source_kinds,
)

__all__ = [
    "SOURCE_DTYPES",
    "CsvSource",
    "DatasetSource",
    "NpzSource",
    "build_source",
    "register_source",
    "source_kinds",
    "Dataset",
    "LabelledSplit",
    "CLASS_NAMES",
    "LABEL_AML",
    "LABEL_ALL",
    "discretize_three_level",
    "GolubConfig",
    "generate_golub_like",
    "mutual_information",
    "mrmr_select",
    "scale_to_integers",
    "select_columns",
    "LeukemiaCaseStudy",
    "load_leukemia_case_study",
]
