"""The two compatible Poisson structures on Sym(n).

Sym(n) is identified with its dual through trace(XY).  The Lie-Poisson
tensor at X sends a gradient Y to ``X Y N - N Y X``; the frozen
(constant-coefficient) tensor sends Y to ``Y N - N Y``, the Lie-Poisson one
at X = I, so its matrix and leaf dimension are read there.  Their sum is
again Poisson, which is what makes the flow bi-Hamiltonian.

This module also builds the orthogonal canonical form of the structure
matrix N (2-plane frequencies, kernel, block pseudo-inverse) from one
Hermitian eigensolve of iN, and derives both Casimir families and
symplectic-leaf dimensions from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrix_core import frobenius_inner, max_abs, symmetrize

#: Relative grouping cut of :attr:`SkewCanonicalForm.clusters`: neighbouring
#: frequencies at most this times the largest frequency apart share a cluster.
FREQUENCY_GROUP_TOL = 1e-8

#: Tolerance on the structural invariants of a canonical form.
CANONICAL_TOL = 1e-10


class RankInstabilityError(RuntimeError):
    """Numerical rank changed between two tolerances a decade apart."""


def lie_poisson_tensor(x: np.ndarray, y: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """Value of the Lie-Poisson tensor at x applied to a gradient y: x y N - N y x."""
    return x @ y @ n_skew - n_skew @ y @ x


def frozen_tensor(y: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """Constant Poisson tensor applied to a gradient y: y N - N y."""
    return y @ n_skew - n_skew @ y


def lie_poisson_bracket(grad_f: np.ndarray, grad_g: np.ndarray, x: np.ndarray, n_skew: np.ndarray) -> float:
    """Bracket value from two gradients: trace(grad_f (x grad_g N - N grad_g x))."""
    return frobenius_inner(grad_f, lie_poisson_tensor(x, grad_g, n_skew))


@dataclass(frozen=True)
class SkewCanonicalForm:
    """Orthogonal canonical form of a skew-symmetric matrix.

    ``basis @ skew @ basis.T`` equals, to within :data:`CANONICAL_TOL`, the
    block matrix ``[[0, V, 0], [-V, 0, 0], [0, 0, 0]]`` with
    ``V = diag(frequencies)``.  ``pseudo_inverse`` is the n x n block
    inverse vanishing on the kernel, so ``pseudo_inverse @ canonical_skew``
    is the projection onto the image coordinates.  ``rank_tol`` is the
    relative cut the kernel was decided at; the rank decisions made with the
    form use it too.
    """

    n: int
    p: int
    d: int
    skew: np.ndarray
    basis: np.ndarray
    frequencies: np.ndarray
    pseudo_inverse: np.ndarray
    rank_tol: float

    @property
    def canonical_skew(self) -> np.ndarray:
        """The exact block form [[0, V, 0], [-V, 0, 0], [0, 0, 0]]."""
        return _block_form(self.frequencies, self.d)

    def to_canonical(self, x: np.ndarray) -> np.ndarray:
        """Conjugate a matrix from the original into the canonical basis."""
        return self.basis @ x @ self.basis.T

    @property
    def clusters(self) -> np.ndarray:
        """Frequency cluster labels 0, 1, ..., one per frequency, shape (p,).

        The frequencies are sorted in descending order, and a new cluster
        starts wherever the gap to the previous frequency exceeds
        :data:`FREQUENCY_GROUP_TOL` times the largest frequency.  Only
        neighbouring gaps are compared, so a chain of gaps each within the
        cut is one cluster, however far its ends lie apart.
        """
        v = self.frequencies
        return np.cumsum(-np.diff(v, prepend=v[:1]) > FREQUENCY_GROUP_TOL * v[:1])

    def mode(self) -> str:
        """Name of the cluster sizes: distinct (all single), equal (one cluster) or mixed."""
        sizes = np.bincount(self.clusters)
        if np.all(sizes == 1):
            return "distinct"
        return "equal" if len(sizes) == 1 else "mixed"

    def casimir_counts(self) -> tuple[int, int]:
        """Numbers of Lie-Poisson and frozen Casimirs.

        Lie-Poisson: p trace powers plus d(d+1)/2 kernel-block functions.
        Frozen: the sum of m_c^2 over the frequency clusters of sizes m_c
        (p for distinct frequencies, p^2 for all equal) plus the same
        d(d+1)/2.  Each generic leaf dimension is n(n+1)/2 minus one of
        these counts.
        """
        kernel = self.d * (self.d + 1) // 2
        sizes = np.bincount(self.clusters)
        return self.p + kernel, int(sizes @ sizes) + kernel

    @functools.cached_property
    def frozen_leaf_dimension(self) -> int:
        """Frozen leaf dimension: the rank of :func:`tensor_as_matrix` at X = I, taken once per form.

        A :class:`RankInstabilityError` is raised and not kept, so the next read ranks the matrix again.
        """
        return rank_certified(tensor_as_matrix(np.eye(self.n), self.skew), self.rank_tol)


def _block_form(values: np.ndarray, nullity: int) -> np.ndarray:
    """[[0, V, 0], [-V, 0, 0], [0, 0, 0]] with V = diag(values) and a kernel of ``nullity``."""
    p = len(values)
    v = np.diag(values)
    out = np.zeros((2 * p + nullity, 2 * p + nullity))
    out[:p, p:2 * p] = v
    out[p:2 * p, :p] = -v
    return out


def canonical_skew_matrix(frequencies, nullity: int = 0) -> np.ndarray:
    """Skew matrix [[0, V, 0], [-V, 0, 0], [0, 0, 0]] with V = diag(frequencies)."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1:
        raise ValueError("frequencies must be a flat list")
    if np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")
    if nullity < 0:
        raise ValueError("nullity must be non-negative")
    return _block_form(freqs, nullity)


def canonical_form(n_skew: np.ndarray, rank_tol: float = 1e-9) -> SkewCanonicalForm:
    """Orthogonal canonical form of a skew-symmetric matrix.

    One ``numpy.linalg.eigh`` of the Hermitian matrix iN gives eigenvalues
    +-v and 0.  A unit eigenvector z of +v > 0 has real and imaginary parts
    of norm 1/sqrt(2), orthogonal to each other and to those of every other
    eigenvector of a positive eigenvalue, so u = sqrt(2) Re z and
    w = -sqrt(2) Im z span an invariant 2-plane with u . N w = v, inside
    equal-frequency groups too.  Each u and w is normalized and w is
    orthogonalized against its u, the frequencies are the Rayleigh
    quotients u . N w in descending order, and the kernel rows complete the
    basis.  Kernel membership is decided by |lambda| <= rank_tol * v_max,
    and the form records that ``rank_tol``.

    ``n_skew`` is exactly skew, as :func:`symflow.matrix_core.skew_matrix`,
    :func:`canonical_skew_matrix` and :func:`symflow.matrix_core.random_skew`
    make it.  Raises ``ValueError`` if ``rank_tol`` is not positive, if the
    cut splits an eigenvalue pair, if the form misses its structural
    invariants at :data:`CANONICAL_TOL`, or if its kernel block exceeds the
    rank cut ``rank_tol * v_max``.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    n = n_skew.shape[0]
    lam, vecs = np.linalg.eigh(1j * n_skew)
    v_max = float(np.abs(lam).max())
    p = int(np.count_nonzero(lam > rank_tol * v_max))
    if np.count_nonzero(np.abs(lam) > rank_tol * v_max) != 2 * p:
        raise ValueError(
            "odd-dimensional image of the skew matrix; rank tolerance "
            f"{rank_tol:.1e} splits an eigenvalue pair"
        )
    z = vecs[:, n - p:].T  # eigenvectors of the p largest eigenvalues, one per row
    u = z.real / np.linalg.norm(z.real, axis=1, keepdims=True)
    w = -z.imag
    w -= np.sum(u * w, axis=1, keepdims=True) * u
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    freqs = np.sum((u @ n_skew) * w, axis=1)
    order = np.argsort(-freqs, kind="stable")
    freqs, image = freqs[order], np.vstack([u[order], w[order]])
    # the kernel rows are the null eigenvectors of the projector onto the image, none at full rank
    kernel = np.linalg.eigh(image.T @ image)[1][:, :n - 2 * p].T if 2 * p < n else np.empty((0, n))

    form = SkewCanonicalForm(
        n=n, p=p, d=n - 2 * p, skew=n_skew, basis=np.vstack([image, kernel]),
        frequencies=freqs, pseudo_inverse=_block_form(1.0 / freqs, n - 2 * p).T.copy(), rank_tol=rank_tol,
    )
    _validate_form(form, max(CANONICAL_TOL, rank_tol * v_max))
    return form


def _validate_form(form: SkewCanonicalForm, kernel_tol: float) -> None:
    """Raise unless the form meets its invariants at :data:`CANONICAL_TOL`.

    The off-block defect of ``q N q^T`` is an error in entries of N, so it is
    divided by ``max(1, v_max)`` first; orthogonality and both pseudo-inverse
    defects are scale-free.  The kernel-kernel block is held to
    ``kernel_tol`` instead: it carries exactly the directions the rank cut
    |lambda| <= rank_tol * v_max put in the kernel, so it is as large as
    that cut allows.
    """
    q, n, m = form.basis, form.n, 2 * form.p
    rotated = q @ form.skew @ q.T
    offset = rotated - form.canonical_skew
    kernel = max_abs(offset[m:, m:])
    offset[m:, m:] = 0.0
    proj = np.zeros((n, n))
    proj[:m, :m] = np.eye(m)
    inv_left = max_abs(form.pseudo_inverse @ rotated - proj)
    inv_right = max_abs(rotated @ form.pseudo_inverse - proj)
    scale = max(1.0, float(np.max(form.frequencies, initial=0.0)))
    worst = max(max_abs(q @ q.T - np.eye(n)), max_abs(offset) / scale, inv_left, inv_right)
    if worst > CANONICAL_TOL:
        raise ValueError(
            f"canonical form failed its invariants (defect {worst:.3e} > {CANONICAL_TOL:.1e})"
        )
    if kernel > kernel_tol:
        raise ValueError(
            f"canonical form's kernel block {kernel:.3e} exceeds the rank cut {kernel_tol:.1e}"
        )


def _kernel_units(form: SkewCanonicalForm) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (a <= b, row-major) of the d(d+1)/2 kernel-block units in the canonical basis."""
    rows, cols = np.triu_indices(form.d)
    return 2 * form.p + rows, 2 * form.p + cols


def frozen_casimir_gradients(form: SkewCanonicalForm) -> np.ndarray:
    """Gradient matrices of the frozen-bracket Casimirs in the canonical basis, stacked (count, n, n).

    They span the centraliser of the structure matrix in Sym(n).  Each
    frequency cluster (:attr:`SkewCanonicalForm.clusters`) of size m
    contributes m^2 of them: the paired symmetric units k <= l come first,
    then the paired skew units k < l, each over the same-cluster pairs in
    row-major order; the d(d+1)/2 kernel-block units follow.  Distinct
    frequencies give the p paired diagonal units (k, k), all equal ones p^2
    matrices.
    """
    n, p = form.n, form.p
    rows, cols = np.triu_indices(p)
    same = form.clusters[rows] == form.clusters[cols]
    rows, cols = rows[same], cols[same]
    skew_rows, skew_cols = rows[rows < cols], cols[rows < cols]
    kernel_rows, kernel_cols = _kernel_units(form)
    slots = np.arange(len(rows) + len(skew_rows) + len(kernel_rows))
    sym, skew, kernel = np.split(slots, [len(rows), len(rows) + len(skew_rows)])
    out = np.zeros((len(slots), n, n))
    out[sym, rows, cols] = out[sym, cols, rows] = 1.0
    out[sym, p + rows, p + cols] = out[sym, p + cols, p + rows] = 1.0
    out[skew, skew_rows, p + skew_cols] = out[skew, p + skew_cols, skew_rows] = 1.0
    out[skew, skew_cols, p + skew_rows] = out[skew, p + skew_rows, skew_cols] = -1.0
    out[kernel, kernel_rows, kernel_cols] = out[kernel, kernel_cols, kernel_rows] = 1.0
    return out


def _reduced_state(form: SkewCanonicalForm, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Image-block state with the kernel coupling eliminated, of one state or each of a stack.

    Returns (z, a, b_inv) where z is the Schur complement of the kernel
    block, S - A B^{-1} A^T, the object whose trace powers are annihilated
    by the Lie-Poisson tensor.  For d = 0 this is just x itself.
    """
    m = 2 * form.p
    s = x[..., :m, :m]
    if form.d == 0:
        return s, x[..., :m, m:], None
    a = x[..., :m, m:]
    b = x[..., m:, m:]
    try:
        b_inv = np.linalg.inv(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "kernel block of the state is singular; the trace-power Casimirs "
            "are only defined where it is invertible"
        ) from exc
    return s - a @ b_inv @ a.swapaxes(-1, -2), a, b_inv


def lie_poisson_casimirs(form: SkewCanonicalForm, x: np.ndarray) -> np.ndarray:
    """Casimir values of the Lie-Poisson bracket at a state x of size ``form.n`` in the canonical basis.

    The first p values are trace((z core^{-1})^{2k}) / 2k for k = 1..p,
    where z is the Schur complement of the kernel block of the state (for
    invertible N this is plain trace((x n^{-1})^{2k}) / 2k).  The remaining
    d(d+1)/2 values are the linear kernel-block functions trace(x e).  A
    (B, n, n) stack of states gives (B, count) values, each row bit for bit
    the values of its state alone.
    """
    vals = np.empty(x.shape[:-2] + (form.p,))
    if form.p > 0:
        core_inv = form.pseudo_inverse[:2 * form.p, :2 * form.p]
        z, _, _ = _reduced_state(form, x)
        w = z @ core_inv
        w2 = w @ w
        power = w2
        for k in range(1, form.p + 1):
            vals[..., k - 1] = np.trace(power, axis1=-2, axis2=-1) / (2 * k)
            if k < form.p:
                power = power @ w2
    rows, cols = _kernel_units(form)
    linear = x[..., rows, cols]  # a copy: the diagonal units keep their entry, not a sum
    pair = rows != cols
    linear[..., pair] += x[..., cols[pair], rows[pair]]
    return np.concatenate([vals, linear], axis=-1)


def lie_poisson_casimir_gradients(form: SkewCanonicalForm, x: np.ndarray) -> np.ndarray:
    """Gradients of the Lie-Poisson Casimirs at a state x in the canonical basis, stacked (count, n, n).

    The trace-power family (k = 1..p) comes first, then the linear family in
    the order of :func:`lie_poisson_casimirs`.  The trace-power family has
    image-block gradient g = core^{-1} (z core^{-1})^{2k-1} with z the
    kernel-block Schur complement; the coupling and kernel blocks
    -g A B^{-1} and B^{-1} A^T g A B^{-1} make the full gradient land in the
    tensor kernel.  The linear family keeps its constant kernel-block unit
    gradients.
    """
    n, p, d = form.n, form.p, form.d
    m = 2 * p
    rows, cols = _kernel_units(form)
    grads = np.zeros((p + len(rows), n, n))
    if p > 0:
        core_inv = form.pseudo_inverse[:m, :m]
        z, a, b_inv = _reduced_state(form, x)
        w = z @ core_inv
        power = w  # (z core^{-1})^(2k-1), starting at k = 1
        for k, full in enumerate(grads[:p], start=1):
            g = symmetrize(core_inv @ power)
            full[:m, :m] = g
            if d > 0:
                coupling = -g @ a @ b_inv
                full[:m, m:] = coupling
                full[m:, :m] = coupling.T
                full[m:, m:] = b_inv @ a.T @ g @ a @ b_inv
            if k < p:
                power = power @ w @ w
    units = np.arange(p, len(grads))
    grads[units, rows, cols] = grads[units, cols, rows] = 1.0
    return grads


def sym_basis(n: int) -> np.ndarray:
    """Orthonormal basis of Sym(n) for the trace inner product, stacked (m, n, n).

    The n diagonal units come first, then the off-diagonal pairs (i < j) in
    row-major order, each with the value 1/sqrt(2) at (i, j) and (j, i).
    """
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n)
    i, j = np.concatenate([diag, rows]), np.concatenate([diag, cols])
    values = np.concatenate([np.ones(n), np.full(len(rows), 1.0 / np.sqrt(2.0))])
    k = np.arange(len(i))
    basis = np.zeros((len(i), n, n))
    basis[k, i, j] = values
    basis[k, j, i] = values
    return basis


def tensor_as_matrix(x: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """Matrix of the Lie-Poisson tensor at x in the orthonormal Sym(n) basis.

    An antisymmetric m x m matrix, m = n(n+1)/2, whose numerical rank is the
    symplectic leaf dimension through x.  At x = I it is the frozen tensor's
    matrix, exactly, since ``basis @ I`` is exactly ``basis``.
    """
    basis = sym_basis(x.shape[0])
    m = len(basis)
    # entry (i, j) is trace(E_i x E_j N) - trace(E_i N E_j x) = g[i, j] - g[j, i]
    # by cyclicity, where g[i, j] = trace(left_i right_j) is one GEMM of the
    # flattened left_i = E_i x against the flattened transposes of right_j = E_j N
    right = (basis @ n_skew).transpose(0, 2, 1).reshape(m, -1).T
    g = (basis @ x).reshape(m, -1) @ right
    return g - g.T


def rank_certified(vectors, tol: float) -> int:
    """Numerical rank from singular values, re-checked one tolerance decade higher.

    The first axis indexes the vectors and trailing axes are flattened.  One
    ``numpy.linalg.svd`` gives the spectrum s; the rank counts s > tol * s[0]
    and is re-counted at s > 10 * tol * s[0].  Raises
    :class:`RankInstabilityError` when the two counts disagree, which flags
    a spectrum straddling the threshold instead of silently returning either
    answer.  A zero matrix has rank 0.  Expects at least one vector and a
    positive ``tol``.
    """
    work = np.asarray(vectors, dtype=float)
    s = np.linalg.svd(work.reshape(len(work), work[0].size), compute_uv=False)
    top = s.max(initial=0.0)
    r, r_loose = int(np.sum(s > tol * top)), int(np.sum(s > 10.0 * tol * top))
    if r != r_loose:
        raise RankInstabilityError(
            f"rank {r} at tol {tol:.1e} but {r_loose} at {10 * tol:.1e}"
        )
    return r


def leaf_dimensions(form: SkewCanonicalForm, x: np.ndarray) -> tuple[int, int]:
    """Symplectic leaf dimensions (Lie-Poisson, frozen) at a state x.

    The Lie-Poisson one is the numerical rank of :func:`tensor_as_matrix` at
    x, counted from its singular values at ``form.rank_tol`` by
    :func:`rank_certified`; the caller is expected to pass a generic x
    (resample if a rank instability is flagged).  The frozen one,
    :attr:`SkewCanonicalForm.frozen_leaf_dimension`, is read after it.
    """
    return rank_certified(tensor_as_matrix(x, form.skew), form.rank_tol), form.frozen_leaf_dimension


def poisson_jacobi_defect(
    x: np.ndarray,
    n_skew: np.ndarray,
    f,
    g,
    h,
    weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Jacobi-identity residual of w_B * LiePoisson + w_C * frozen at x.

    Test functions are pairs (P, a) encoding f(X) = trace(X P X P)/2 +
    trace(a X), whose gradient P X P + a is affine in X, so every derivative
    in the cyclic sum {{f,g},h} + {{g,h},f} + {{h,f},g} is evaluated in
    closed form.  Vanishes identically for each structure alone and for
    their sum (compatibility).
    """
    w_b, w_c = weights

    def tensor(y):
        return w_b * lie_poisson_tensor(x, y, n_skew) + w_c * frozen_tensor(y, n_skew)

    def grad(tf):
        pm, am = tf
        return pm @ x @ pm + am

    def hess(tf, k):
        pm, _ = tf
        return pm @ k @ pm

    def d_bracket(tf1, tf2, k):
        # directional derivative of {f1, f2} at x along the symmetric k
        g1, g2 = grad(tf1), grad(tf2)
        total = frobenius_inner(hess(tf1, k), tensor(g2))
        # the Lie-Poisson tensor is linear in x, so its derivative along k is its value at k
        total += w_b * frobenius_inner(g1, lie_poisson_tensor(k, g2, n_skew))
        total += frobenius_inner(g1, tensor(hess(tf2, k)))
        return total

    acc = 0.0
    for (t1, t2, t3) in ((f, g, h), (g, h, f), (h, f, g)):
        acc += d_bracket(t1, t2, tensor(grad(t3)))
    return abs(acc)
