"""Feature-specific quantile normalization (FSQN) across expression platforms.

Each gene is normalized independently: target values are replaced by the
reference's empirical quantiles at the target's own ranks. Probability
points follow the (k + 0.5)/n convention with linear interpolation and
endpoint clamping; ties get the average rank so tied inputs stay tied.

``quantile_map`` is the one-gene definition. ``fsqn`` computes the same bits
a block of about ``dataio.BLOCK_CELLS`` cells of genes at a time: it ranks the
block's target rows and sorts its reference rows in one call each, then
interpolates each gene at its sorted probability points (np.interp maps each
point on its own, and its search is fastest on monotone points).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dataio import (ExpressionMatrix, _first_bad, _negative, block_slices, common_genes,
                     merge, positions)
from .errors import DataError
from .ranks import average_ranks, sorted_average_ranks


def log2_transform(m: ExpressionMatrix) -> ExpressionMatrix:
    """Replace every value v by log2(v + 1). A negative value is a DataError
    naming its platform, patient and gene; the caller knows whether a table
    is on a linear scale, as no check can tell."""
    bad = _first_bad(m.values, _negative)
    if bad:
        i, j = bad
        raise DataError(f"{m.platform_id}: patient {m.patient_ids[i]!r}, gene "
                        f"{m.gene_ids[j]!r}: log2(v + 1) needs v >= 0, "
                        f"got {float(m.values[i, j])!r}")
    values = m.values + 1.0
    np.log2(values, out=values)
    return replace(m, values=values)


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
    first); values of either sign are mapped alike, so log both or neither.
    Within each gene the output preserves the target's ordering and stays
    inside the reference's value range.
    """
    differ = set(target.gene_ids) ^ set(reference.gene_ids)
    if differ:
        raise DataError(f"fsqn requires identical gene-id sets: {target.platform_id} "
                        f"and {reference.platform_id} differ in {sorted(differ)[:5]}")
    if reference.n_patients < 2:
        raise DataError(f"reference {reference.platform_id} needs at least 2 patients")

    ref_cols = positions(reference.gene_ids, target.gene_ids, "genes")
    n_t, n_genes = target.values.shape
    n_r = reference.n_patients
    ref_probs = (np.arange(n_r) + 0.5) / n_r
    out = np.empty_like(target.values)
    for genes in block_slices(n_genes, max(n_t, n_r)):
        order, probs = sorted_average_ranks(np.ascontiguousarray(target.values[:, genes].T))
        probs += 0.5
        probs /= n_t
        refs = np.sort(reference.values[:, ref_cols[genes]].T, axis=1)
        # np.interp clamps beyond the endpoint probabilities
        mapped = np.empty_like(probs)
        for i in range(len(mapped)):
            mapped[i] = np.interp(probs[i], ref_probs, refs[i])
        block = np.empty_like(mapped)
        np.put_along_axis(block, order, mapped, axis=1)
        out[:, genes] = block.T
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
        # a table whose genes are already these, in this order, is kept uncopied
        if m.gene_ids == genes:
            return m
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
