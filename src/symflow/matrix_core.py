"""Dense real matrix substrate: symmetric/skew constructors, commutators,
the trace inner product, and :func:`numerical_rank`, the one rank of a
gradient set: a pivoted Gram-Schmidt in array form on the set's unit rows,
whose one elimination gives the rank at a tolerance and one decade above.
Eigendecompositions are left to ``numpy.linalg.eigh``.

Unit rows make the rank read the span, not the scale: the trace-power
Casimir gradients grow as powers of N's pseudo-inverse, and on raw rows
the cut read 7 of 8 Lie-Poisson Casimirs at distinct n = 16 on every draw,
and 2-3 of 4-6 at N scaled by 1e-3, 10 or 1000.  Over the 240 Casimir
draws of verify-mixed seeds 1-10 the elimination misses the count in 12
(all random-12), singular values of the same unit rows in 14, so gradient
sets are not ranked by singular values; leaf dimensions are, in
:func:`symflow.poisson.rank_certified`.

All functions are pure and operate on plain ``numpy`` float arrays.
Inputs are checked once, where they enter: the command line resolves its
config through the validating constructors :func:`sym_matrix` and
:func:`skew_matrix`, :func:`symflow.poisson.canonical_skew_matrix`,
:func:`symflow.poisson.canonical_form` (its ``rank_tol``) and
:class:`symflow.dynamics.IntegratorConfig`.  Every other function assumes
validated inputs (finite, square, exactly symmetric or skew, matching
sizes, positive tolerances) and does not check them again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Relative asymmetry bound of the constructors: a raw input whose max-abs
#: asymmetry exceeds this times its max-abs entry is rejected, and one
#: within it is projected exactly.
ASYM_REJECT_TOL = 1e-8


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-abs norm; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def sym_matrix(a) -> np.ndarray:
    """Validating constructor for a symmetric matrix.

    Projects ``(a + a.T)/2`` so the result is exactly symmetric, but rejects
    inputs whose max-abs asymmetry exceeds :data:`ASYM_REJECT_TOL` times
    their max-abs entry.
    """
    return _projection(a, np.add, np.subtract, "symmetric")


def skew_matrix(a) -> np.ndarray:
    """Validating constructor for a skew-symmetric matrix (projects, rejects past the relative :data:`ASYM_REJECT_TOL`)."""
    return _projection(a, np.subtract, np.add, "skew-symmetric")


def _projection(a, keep, drop, kind: str) -> np.ndarray:
    """``keep(a, a.T) / 2`` of a square ``a`` whose ``drop(a, a.T)`` is within the relative bound.

    A sum past the float range warns nothing: as a defect it reads inf and
    is rejected, and in the projection its entries are ``keep(a/2, a.T/2)``,
    exact there because both halves are far above the subnormals, where
    halving first would lose a bit.
    """
    a = as_square(a)
    with np.errstate(over="ignore"):
        defect, whole = max_abs(drop(a, a.T)), keep(a, a.T)
    bound = ASYM_REJECT_TOL * max_abs(a)
    if defect > bound:
        raise ValueError(f"matrix is not {kind} (defect {defect:.3e} > bound {bound:.3e})")
    half = a / 2.0
    return np.where(np.isfinite(whole), whole / 2.0, keep(half, half.T))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Unconditional symmetric projection (a + a.T)/2, of each matrix of a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> float:
    """trace(x y), the inner product making Sym(n) self-dual."""
    return float(np.einsum("ij,ji->", x, y))


def random_sym(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetrized standard-normal matrix, Frobenius-normalized."""
    x = symmetrize(rng.standard_normal((n, n)))
    nrm = frob_norm(x)
    return x / nrm if nrm > 0 else x


def random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    """Antisymmetrized standard-normal matrix, Frobenius-normalized."""
    a = rng.standard_normal((n, n))
    x = (a - a.T) / 2.0
    nrm = frob_norm(x)
    return x / nrm if nrm > 0 else x


def numerical_rank(vectors: Sequence[np.ndarray] | np.ndarray, tol: float = 1e-9) -> tuple[int, int]:
    """Ranks ``(at tol, at 10 * tol)`` of a set of vectors, from one elimination of its unit rows.

    The first axis indexes the vectors and trailing axes are flattened.
    Each row is divided by the square root of its dot product with itself
    (the arithmetic of ``np.linalg.norm`` on it); a zero row stays zero.
    An empty set has ranks (0, 0).
    """
    rows = np.asarray(vectors, dtype=float)
    if not len(rows):
        return 0, 0
    rows = rows.reshape(len(rows), -1)
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    return _decade_ranks(rows / np.where(norms > 0, norms, 1.0)[:, None], tol)


def _decade_ranks(vectors, tol: float) -> tuple[int, int]:
    """Numerical ranks at ``tol`` and at ``10 * tol`` from one elimination.

    The pivot sequence of :func:`_pivot_norms` does not depend on the
    tolerance, only the stopping point does, so the pass run to ``tol``
    also holds the stopping point of ``10 * tol``.
    """
    pivots = _pivot_norms(vectors, tol)
    # Pivot norms fall only up to roundoff; the running minimum counts the
    # pivots before the first one at or below each cut.
    running = np.minimum.accumulate(pivots)
    return int(np.sum(running > tol * pivots[0])), int(np.sum(running > 10.0 * tol * pivots[0]))


def _pivot_norms(vectors, tol: float) -> list:
    """Pivot norms of modified Gram-Schmidt with column pivoting.

    The list ends with the first norm at most ``tol`` times the first (or
    with the last vector).  Each step pivots on the largest remaining norm
    (ties go to the lowest index) and removes its direction from the rest.
    The elimination runs in one copy of the vectors: the pivot row is
    dropped by shifting the rows below it up, which keeps the remaining
    rows in their original order, and the norms are
    ``sqrt(add.reduce(w * w))`` per row, the arithmetic of
    ``np.linalg.norm(axis=1)``.  Expects at least one vector and a positive
    ``tol``.
    """
    work = np.array(vectors, dtype=float)  # a copy: the elimination overwrites it
    work = work.reshape(len(work), work[0].size)
    squares, coefs, norms = np.empty_like(work), np.empty(len(work)), np.empty(len(work))

    pivots = []
    for m in range(len(work), 0, -1):  # m rows remain
        w, sq, nrm = work[:m], squares[:m], norms[:m]
        np.multiply(w, w, out=sq)
        np.sqrt(np.add.reduce(sq, axis=1, out=nrm), out=nrm)
        j = int(nrm.argmax())
        pivots.append(norms[j])
        if norms[j] <= tol * pivots[0]:
            break
        qvec = work[j] / norms[j]
        work[j:m - 1] = work[j + 1:m]
        w, sq = work[:m - 1], squares[:m - 1]
        np.matmul(w, qvec, out=coefs[:m - 1])
        np.multiply(coefs[:m - 1, None], qvec, out=sq)
        w -= sq
    return pivots
