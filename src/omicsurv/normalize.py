"""Feature-specific quantile normalization (FSQN) across expression platforms.

Each gene is normalized independently: target values are replaced by the
reference's empirical quantiles at the target's own ranks. Probability
points follow the (k + 0.5)/n convention with linear interpolation and
endpoint clamping; ties get the average rank so tied inputs stay tied.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataio import ExpressionMatrix, common_genes, merge, positions
from .errors import DataError
from .ranks import average_ranks


def log2_transform(m: ExpressionMatrix) -> ExpressionMatrix:
    """Replace every value v by log2(v + 1) and mark the matrix as log2."""
    if m.scale != "linear":
        raise DataError("log2_transform expects a linear-scale matrix")
    values = m.values + 1.0
    np.log2(values, out=values)
    return ExpressionMatrix(
        platform_id=m.platform_id,
        patient_ids=m.patient_ids,
        gene_ids=m.gene_ids,
        values=values,
        scale="log2",
    )


def quantile_map(target_values: np.ndarray, reference_values: np.ndarray) -> np.ndarray:
    """Map one gene's target values onto the reference's quantile profile."""
    n_t = len(target_values)
    n_r = len(reference_values)
    if n_r < 2:
        raise DataError("reference gene needs at least 2 values")
    probs = (average_ranks(target_values) + 0.5) / n_t
    ref_probs = (np.arange(n_r) + 0.5) / n_r
    # np.interp clamps beyond the endpoint probabilities
    return np.interp(probs, ref_probs, np.sort(reference_values))


def fsqn(target: ExpressionMatrix, reference: ExpressionMatrix) -> ExpressionMatrix:
    """Quantile-normalize every gene of ``target`` onto ``reference``.

    Requires identical gene-id sets (run the sources through merge/intersection
    first) and matching scales. Within each gene the output preserves the
    target's ordering and stays inside the reference's value range.
    """
    if set(target.gene_ids) != set(reference.gene_ids):
        raise DataError("fsqn requires identical gene-id sets")
    if target.scale != reference.scale:
        raise DataError(
            f"scale mismatch: target {target.scale}, reference {reference.scale}"
        )
    if reference.n_patients < 2:
        raise DataError("reference needs at least 2 patients")

    ref_cols = positions(reference.gene_ids, target.gene_ids, "genes")
    out = np.empty_like(target.values)
    for j, col in enumerate(ref_cols):
        out[:, j] = quantile_map(target.values[:, j], reference.values[:, col])
    return replace(target, values=out)


def integrate(sources: list[ExpressionMatrix], reference_index: int) -> ExpressionMatrix:
    """Normalize every non-reference source onto the reference and merge.

    Genes are first intersected across all sources; the merged output lists
    the reference first so it wins duplicate-patient resolution.
    """
    if not 0 <= reference_index < len(sources):
        raise DataError(f"reference_index {reference_index} out of range")
    genes = common_genes(sources, sources[reference_index].gene_ids)

    def restrict(m: ExpressionMatrix) -> ExpressionMatrix:
        return replace(m, gene_ids=genes,
                       values=m.values[:, positions(m.gene_ids, genes, "genes")])

    reference = restrict(sources[reference_index])
    ordered = [reference]
    for i, src in enumerate(sources):
        if i == reference_index:
            continue
        ordered.append(fsqn(restrict(src), reference))
    if len(ordered) == 1:
        return reference
    merged, _ = merge(ordered)
    return merged
