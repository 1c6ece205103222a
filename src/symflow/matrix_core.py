"""Dense real matrix substrate: symmetric/skew constructors, commutators,
the trace inner product, and a pivoted Gram-Schmidt numerical rank.
Eigendecompositions are left to ``numpy.linalg.eigh``.

All functions are pure and operate on plain ``numpy`` float arrays.  The
validating constructors (:func:`sym_matrix`, :func:`skew_matrix`) are the
only place finiteness and (anti)symmetry are enforced; downstream code may
assume both.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Asymmetry above this (max-abs, on the raw input) is rejected instead of
#: being projected away; below it the constructors project exactly.
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


def sym_matrix(a, reject_tol: float = ASYM_REJECT_TOL) -> np.ndarray:
    """Validating constructor for a symmetric matrix.

    Projects ``(a + a.T)/2`` so the result is exactly symmetric, but rejects
    inputs whose asymmetry exceeds ``reject_tol`` in max-abs.
    """
    a = as_square(a)
    defect = max_abs(a - a.T)
    if defect > reject_tol:
        raise ValueError(f"matrix is not symmetric (defect {defect:.3e} > {reject_tol:.1e})")
    return (a + a.T) / 2.0


def skew_matrix(a, reject_tol: float = ASYM_REJECT_TOL) -> np.ndarray:
    """Validating constructor for a skew-symmetric matrix (projects, rejects above tol)."""
    a = as_square(a)
    defect = max_abs(a + a.T)
    if defect > reject_tol:
        raise ValueError(f"matrix is not skew-symmetric (defect {defect:.3e} > {reject_tol:.1e})")
    return (a - a.T) / 2.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Unconditional symmetric projection (a + a.T)/2."""
    return (a + a.T) / 2.0


def _check_same_square(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    _check_same_square(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba.  For a symmetric and b skew the result is skew-symmetric."""
    _check_same_square(a, b)
    return a @ b + b @ a


def frobenius_inner(x: np.ndarray, y: np.ndarray) -> float:
    """trace(x y), the inner product making Sym(n) self-dual."""
    _check_same_square(x, y)
    return float(np.einsum("ij,ji->", x, y))


def random_sym(n: int, rng: np.random.Generator, normalized: bool = True) -> np.ndarray:
    """Symmetrized standard-normal matrix, Frobenius-normalized by default."""
    x = symmetrize(rng.standard_normal((n, n)))
    if normalized:
        nrm = frob_norm(x)
        if nrm > 0:
            x = x / nrm
    return x


def random_skew(n: int, rng: np.random.Generator, normalized: bool = True) -> np.ndarray:
    a = rng.standard_normal((n, n))
    x = (a - a.T) / 2.0
    if normalized:
        nrm = frob_norm(x)
        if nrm > 0:
            x = x / nrm
    return x


def numerical_rank(vectors: Sequence[np.ndarray] | np.ndarray, tol: float = 1e-9) -> int:
    """Numerical rank of a set of vectors (matrices are flattened).

    Modified Gram-Schmidt with column pivoting; counts pivot norms exceeding
    ``tol`` times the largest pivot norm.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = [vectors[:, j] for j in range(vectors.shape[1])]
    else:
        cols = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if len(cols) == 0:
        raise ValueError("numerical_rank of an empty set")
    length = cols[0].size
    if any(c.size != length for c in cols):
        raise ValueError("vectors have inconsistent lengths")
    work = np.column_stack(cols)

    rank = 0
    reference = None
    remaining = list(range(work.shape[1]))
    while remaining:
        norms = [float(np.linalg.norm(work[:, j])) for j in remaining]
        j_best = int(np.argmax(norms))
        best = norms[j_best]
        if reference is None:
            if best == 0.0:
                return 0
            reference = best
        if best <= tol * reference:
            break
        pivot = remaining.pop(j_best)
        qvec = work[:, pivot] / best
        rank += 1
        for j in remaining:
            work[:, j] -= (qvec @ work[:, j]) * qvec
    return rank
