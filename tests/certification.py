"""An independent check of computed eigenpairs, for the tests.

:func:`certify` recomputes what a solve claims from the operator alone:
unit norms, residuals ||A v - value*v|| and pairwise orthogonality.  Its
residual threshold is ``tol * max(1, |upper_bound|)``, computed here
rather than taken from the solver, so that a fault in the solver's own
threshold cannot pass its own check.  :func:`cluster_eigenvalues` groups
the members of numerically degenerate levels.
"""

from dataclasses import dataclass

import numpy as np

from specgap import HermitianOperator, inner, norm


@dataclass(frozen=True)
class CertReport:
    norms_ok: bool
    residuals_ok: bool
    orthogonality_ok: bool
    max_norm_deviation: float
    max_residual: float
    max_gram_offdiagonal: float

    @property
    def passed(self) -> bool:
        return self.norms_ok and self.residuals_ok and self.orthogonality_ok


def certify(op: HermitianOperator, pairs, tol: float) -> CertReport:
    """Recompute norms, residuals and pairwise orthogonality from scratch.

    ``tol`` has the scale-relative meaning of
    :class:`specgap.SolveSettings`, so pairs returned by a solve at a
    given tolerance certify at that tolerance.
    """
    norm_dev = 0.0
    max_res = 0.0
    for pair in pairs:
        norm_dev = max(norm_dev, abs(norm(pair.vector) - 1.0))
        applied = op.apply(pair.vector)
        res_vec = applied.values - pair.value * pair.vector.values
        max_res = max(
            max_res, float(np.sqrt(op.grid.cell_volume) * np.linalg.norm(res_vec.ravel()))
        )
    gram_off = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gram_off = max(gram_off, abs(inner(pairs[i].vector, pairs[j].vector)))
    threshold = tol * max(1.0, abs(op.upper_bound))
    return CertReport(
        norms_ok=norm_dev <= 1e-10,
        residuals_ok=max_res <= threshold,
        orthogonality_ok=gram_off <= 1e-8,
        max_norm_deviation=norm_dev,
        max_residual=max_res,
        max_gram_offdiagonal=gram_off,
    )


def cluster_eigenvalues(values, tol: float) -> list[list[int]]:
    """Group indices of eigenvalues that agree within 1e3*tol.

    Degenerate levels (guaranteed by symmetry in d >= 2) are only defined
    up to rotation inside a cluster, so comparisons should use cluster
    sums or traces, not individual vectors.
    """
    clusters: list[list[int]] = []
    for i, val in enumerate(values):
        if clusters and abs(val - values[clusters[-1][-1]]) <= 1e3 * tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters
