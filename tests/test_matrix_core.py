import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symflow.matrix_core import (
    _decade_ranks,
    _pivot_norms,
    anticommutator,
    commutator,
    frobenius_inner,
    max_abs,
    numerical_rank,
    random_skew,
    random_sym,
    skew_matrix,
    sym_matrix,
)
from symflow.invariants import admissible_indices, gradient_table
from symflow.poisson import canonical_form, canonical_skew_matrix, frozen_casimir_gradients

N2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def entries(n):
    return st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=n * n, max_size=n * n,
    )


class TestConstructors:
    def test_sym_projects_small_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-10, 3.0]])
        x = sym_matrix(a)
        assert max_abs(x - x.T) == 0.0

    def test_sym_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            sym_matrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_skew_rejects_symmetric(self):
        with pytest.raises(ValueError):
            skew_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sym_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_matrix(np.zeros((2, 3)))


class TestCommutator:
    def test_identity_commutes(self):
        assert max_abs(commutator(N2, np.eye(2))) == 0.0

    def test_self_commutator_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        assert np.array_equal(commutator(a, a), np.zeros((5, 5)))

    def test_2x2_hand_value(self):
        # oracle: direct 2x2 multiplication by hand
        # XN = [[-2, 1], [-3, 2]], NX = [[2, 3], [-1, -2]]
        x = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(commutator(x, N2), [[-4.0, -2.0], [-2.0, 4.0]], atol=0, rtol=0)

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            assert np.array_equal(commutator(a, b), -commutator(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_square_commutator_identity(self):
        # [X^2, N] = [X, XN + NX] for X symmetric, N skew
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            lhs = commutator(x @ x, nsk)
            rhs = commutator(x, anticommutator(x, nsk))
            assert max_abs(lhs - rhs) < 1e-14
            assert max_abs(lhs - lhs.T) < 1e-14


class TestAnticommutator:
    def test_trace_multiple_2x2(self):
        # XN + NX = (a + d) N for any 2x2 symmetric X
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b, d = rng.uniform(-2, 2, 3)
            x = np.array([[a, b], [b, d]])
            assert max_abs(anticommutator(x, N2) - (a + d) * N2) < 1e-15

    def test_zero_input(self):
        assert max_abs(anticommutator(np.zeros((2, 2)), N2)) == 0.0

    def test_identity_doubles(self):
        assert np.allclose(anticommutator(np.eye(2), N2), [[0.0, 2.0], [-2.0, 0.0]], atol=0, rtol=0)

    def test_result_is_skew(self):
        rng = np.random.default_rng(4)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        r = anticommutator(x, nsk)
        assert max_abs(r + r.T) < 1e-15


class TestFrobeniusInner:
    def test_identity(self):
        assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0

    def test_hand_value(self):
        # brute-force oracle: trace(XY) = sum_ij X_ij Y_ji
        x = np.array([[1.0, 2.0], [2.0, 3.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        oracle = sum(x[i, j] * y[j, i] for i in range(2) for j in range(2))
        assert oracle == 4.0
        assert frobenius_inner(x, y) == oracle

    def test_zero(self):
        assert frobenius_inner(np.eye(3), np.zeros((3, 3))) == 0.0

    def test_positive_definite_on_sym(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 6):
            x = random_sym(n, rng, normalized=False)
            assert frobenius_inner(x, x) > 0.0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.eye(2), np.eye(3))

    @settings(max_examples=30)
    @given(entries(3), entries(3))
    def test_symmetric_bilinear(self, xs, ys):
        x = sym_matrix(np.reshape(xs, (3, 3)) + np.reshape(xs, (3, 3)).T)
        y = sym_matrix(np.reshape(ys, (3, 3)) + np.reshape(ys, (3, 3)).T)
        assert frobenius_inner(x, y) == pytest.approx(frobenius_inner(y, x), abs=1e-12)


class TestNumericalRank:
    def test_dependent_triple(self):
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        assert numerical_rank([e1, e2, e1 + e2], 1e-9) == 2

    def test_single_vector(self):
        assert numerical_rank([np.array([1.0, 0.0])], 1e-9) == 1

    def test_zero_vector(self):
        assert numerical_rank([np.zeros(4)], 1e-9) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            numerical_rank([], 1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            numerical_rank([np.zeros(3), np.zeros(4)], 1e-9)

    def test_nonpositive_tol_raises(self):
        with pytest.raises(ValueError):
            numerical_rank([np.ones(2)], 0.0)

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_constructed_rank(self, r):
        rng = np.random.default_rng(r)
        basis = rng.standard_normal((8, r))
        mix = rng.standard_normal((r, 10))
        vectors = [basis @ mix[:, j] for j in range(10)]
        assert numerical_rank(vectors, 1e-9) == r
        assert numerical_rank(np.stack(vectors), 1e-9) == r

    def test_matrices_are_flattened(self):
        ms = [np.eye(3), 2.0 * np.eye(3), np.diag([1.0, 0.0, 0.0])]
        assert numerical_rank(ms, 1e-9) == 2
        assert numerical_rank(np.stack(ms), 1e-9) == 2


def loop_rank(vectors, tol):
    """Column-by-column pivoted modified Gram-Schmidt, the reference form."""
    work = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    rank, reference = 0, None
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


class TestDecadeRanks:
    """One elimination gives the ranks at tol and 10 tol of the loop form."""

    TOL = 1e-9

    def check(self, vectors):
        expected = (loop_rank(vectors, self.TOL), loop_rank(vectors, 10.0 * self.TOL))
        assert _decade_ranks(vectors, self.TOL) == expected
        assert numerical_rank(vectors, self.TOL) == expected[0]
        return expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_swept_through_the_decade(self, seed):
        rng = np.random.default_rng(seed)
        low = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 12))
        noise = rng.standard_normal((9, 12))
        scale = np.linalg.norm(low, axis=1).max() / np.linalg.norm(noise, axis=1).max()
        pairs = [
            self.check(low + eps * scale * noise)
            for eps in np.geomspace(0.1 * self.TOL, 100.0 * self.TOL, 13)
        ]
        # the sweep must reach both sides of each cut and the gap between them
        assert any(tight != loose for tight, loose in pairs)
        assert pairs[0] == (3, 3) and pairs[-1] == (9, 9)

    def test_duplicates(self):
        # equal norms: argmax ties
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 6))
        assert self.check([a, b, a, b, a + b, b]) == (2, 2)
        e1, e2, e3 = np.eye(3)
        assert self.check([2.0 * e2, e1, 2.0 * e2, e2 + 1e-8 * e3, e1]) == (3, 2)

    def test_zero_vectors(self):
        e1, e2 = np.eye(3)[:2]
        assert self.check([np.zeros(3), e1, np.zeros(3), e2]) == (2, 2)
        assert self.check([np.zeros(3), np.zeros(3)]) == (0, 0)


def delete_pivot_norms(vectors, tol):
    """Reference elimination: a new work array per pivot, through np.delete."""
    work = np.asarray(vectors, dtype=float)
    work = work.reshape(len(work), work[0].size)
    pivots = []
    while len(work):
        norms = np.linalg.norm(work, axis=1)
        j = int(np.argmax(norms))
        pivots.append(norms[j])
        if norms[j] <= tol * pivots[0]:
            break
        qvec = work[j] / norms[j]
        work = np.delete(work, j, axis=0)
        work -= np.outer(work @ qvec, qvec)
    return pivots


def delete_decade_ranks(vectors, tol):
    pivots = delete_pivot_norms(vectors, tol)
    running = np.minimum.accumulate(pivots)
    return int(np.sum(running > tol * pivots[0])), int(np.sum(running > 10.0 * tol * pivots[0]))


def member_gradients(n, d, seed, normalized):
    """The member gradients at a random state, raw or scaled to unit norm as independence does."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nsk = q @ canonical_skew_matrix(rng.uniform(0.5, 1.5, (n - d) // 2), d) @ q.T
    grads = gradient_table(random_sym(n, rng), (nsk - nsk.T) / 2).gradients
    vecs = [grads[key].ravel() for key in admissible_indices(n)]
    return [v / np.linalg.norm(v) for v in vecs] if normalized else vecs


class TestInPlaceElimination:
    """The one-buffer elimination gives the np.delete elimination's ranks at every decade.

    The pivot norms are compared bit for bit too, which pins the pivot
    sequence where ranks alone cannot (orthogonal vectors of equal norm).
    """

    DECADES = [10.0**e for e in range(-15, 0)]

    def check(self, vectors):
        for tol in self.DECADES:
            assert _decade_ranks(vectors, tol) == delete_decade_ranks(vectors, tol), tol
        got, expected = _pivot_norms(vectors, 1e-300), delete_pivot_norms(vectors, 1e-300)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_member_gradients(self, n, normalized):
        for d, seed in [(0, n), (1, n + 1), (2, n + 2)]:
            self.check(member_gradients(n + d, d, seed, normalized))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_equal_mode_frozen_casimirs(self, p):
        # units of norm sqrt(2) and 2: every pivot step is an exact norm tie
        for d in (0, 1, 2):
            form = canonical_form(canonical_skew_matrix([1.3] * p, d))
            grads = frozen_casimir_gradients(form, "equal")
            self.check(grads)
            self.check(grads[::-1])

    def test_equal_norm_ties_in_general_position(self):
        # cyclic shifts of (3, 4, 0, 0, 1): each norm is exactly sqrt(26), and
        # which tied vector goes first changes every later residual
        base = np.array([3.0, 4.0, 0.0, 0.0, 1.0])
        shifts = [np.roll(base, k) for k in range(5)]
        self.check(shifts)
        self.check(shifts[::-1] + [2.0 * base, -base])

    def test_duplicated_vectors(self):
        rng = np.random.default_rng(50)
        a, b, c = rng.standard_normal((3, 9))
        self.check([a, b, a, c, b, a, c + 1e-9 * a])
        vecs = member_gradients(8, 0, 51, True)
        self.check(vecs + vecs[::2])

    def test_zero_vectors_and_rank_deficient_sets(self):
        rng = np.random.default_rng(52)
        low = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 20))
        zero = np.zeros(20)
        self.check([zero, *low[:6], zero, *low[6:], zero])
        self.check([zero, zero])
        self.check(low + 1e-8 * rng.standard_normal(low.shape))

    def test_input_unchanged(self):
        vecs = np.array(member_gradients(8, 0, 53, False))
        before = vecs.copy()
        _decade_ranks(vecs, 1e-9)
        assert np.array_equal(vecs, before)
