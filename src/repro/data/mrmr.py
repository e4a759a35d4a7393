"""Minimum-Redundancy Maximum-Relevance feature selection (system S3).

Implements Peng et al.'s incremental mRMR over discretised variables,
supporting both classic criteria:

- **MID** (difference):  ``argmax_f  I(f; y) − mean_{s ∈ S} I(f; s)``
- **MIQ** (quotient):    ``argmax_f  I(f; y) / mean_{s ∈ S} I(f; s)``

The paper cites mRMR as the method that picked the five genes feeding the
network's input nodes.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def mutual_information(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Mutual information I(a; b) in bits between discrete variables.

    ``b`` is a 1-D vector.  A 1-D ``a`` gives a float; a 2-D ``a`` gives
    I(a[:, j]; b) for every column ``j`` at once, each with the same bits
    as the 1-D call on that column.  One contingency table of
    columns × distinct a-values × distinct b-values cells covers every
    column (so ``a`` should be discretised), and each column's per-cell
    terms are added in a fixed (a-value, b-value) order: a column's value
    does not depend on its neighbours, and exact ties stay exact ties.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim not in (1, 2) or b.ndim != 1:
        raise DataError("mutual_information expects a 1-D or 2-D a and a 1-D b")
    if a.shape[0] != b.shape[0]:
        raise DataError("mutual_information expects a and b with equal row counts")
    if a.size == 0:
        raise DataError("mutual_information of empty input is undefined")

    columns = a.reshape(a.shape[0], -1)
    n, m = columns.shape
    a_values, a_codes = np.unique(columns, return_inverse=True)
    b_values, b_codes = np.unique(b, return_inverse=True)
    ka, kb = a_values.size, b_values.size
    cell = np.arange(m) * (ka * kb) + a_codes.reshape(n, m) * kb + b_codes[:, None]
    counts = np.bincount(cell.ravel(), minlength=m * ka * kb).reshape(m, ka, kb)

    # Every sum runs strictly in index order (a running sum, not np.sum's
    # pairwise tree), so the cells of a-values absent from a column add
    # exact zeros and leave its bits as in the 1-D call.
    joint = counts / n
    pa = np.cumsum(joint, axis=2)[:, :, -1:]
    pb = np.cumsum(joint, axis=1)[:, -1:, :]
    ratio = np.divide(joint, pa * pb, out=np.ones_like(joint), where=counts > 0)
    terms = (joint * np.log2(ratio)).reshape(m, ka * kb)
    total = np.cumsum(terms, axis=1)[:, -1]
    return float(total[0]) if a.ndim == 1 else total


def mrmr_select(
    levels: np.ndarray,
    labels: np.ndarray,
    k: int,
    scheme: str = "mid",
) -> list[int]:
    """Select ``k`` column indices by incremental mRMR.

    ``levels`` must already be discretised (see
    :func:`repro.data.discretize.discretize_three_level`).  Selection is
    deterministic; numeric ties break toward the lower column index.
    """
    levels = np.asarray(levels)
    labels = np.asarray(labels)
    if levels.ndim != 2:
        raise DataError("levels must be 2-D")
    if labels.shape[0] != levels.shape[0]:
        raise DataError("labels/levels row mismatch")
    if not 0 < k <= levels.shape[1]:
        raise DataError(f"k must be in (0, {levels.shape[1]}]")
    if scheme not in ("mid", "miq"):
        raise DataError("scheme must be 'mid' or 'miq'")

    relevance = mutual_information(levels, labels)
    selected: list[int] = [int(np.argmax(relevance))]
    # Cache of I(candidate; already-selected) values, one row per selected.
    redundancy_rows: list[np.ndarray] = []

    while len(selected) < k:
        last = selected[-1]
        redundancy_rows.append(mutual_information(levels, levels[:, last]))
        mean_redundancy = np.mean(redundancy_rows, axis=0)
        if scheme == "mid":
            score = relevance - mean_redundancy
        else:
            score = relevance / (mean_redundancy + 1e-12)
        score[selected] = -np.inf
        selected.append(int(np.argmax(score)))
    return selected
