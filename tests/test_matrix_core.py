import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symflow.matrix_core import (
    ASYM_REJECT_TOL,
    _decade_ranks,
    _pivot_norms,
    commutator,
    frobenius_inner,
    max_abs,
    numerical_rank,
    random_skew,
    random_sym,
    skew_matrix,
    sym_matrix,
    symmetrize,
)
from symflow.invariants import gradient_table
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

    @pytest.mark.parametrize("construct, sign", [(sym_matrix, 1.0), (skew_matrix, -1.0)])
    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_asymmetry_bound_scales_with_input(self, construct, sign, scale):
        # the bound is ASYM_REJECT_TOL times the largest entry, 2 * scale here
        a = scale * np.array([[0.0, 2.0], [sign * 2.0, 0.0]])
        within, beyond = a.copy(), a.copy()
        within[1, 0] += 0.5 * ASYM_REJECT_TOL * 2.0 * scale
        beyond[1, 0] += 2.0 * ASYM_REJECT_TOL * 2.0 * scale
        x = construct(within)
        assert np.array_equal(x, sign * x.T)
        with pytest.raises(ValueError, match=re.escape(f"> bound {ASYM_REJECT_TOL * 2.0 * scale:.3e})")):
            construct(beyond)

    def test_rotated_large_skew_accepted(self):
        # roundoff of q J q^T at 1e10 is about 2e-6 in absolute terms
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        n_skew = 1e10 * (q @ canonical_skew_matrix([1.0] * 3) @ q.T)
        assert max_abs(n_skew + n_skew.T) > ASYM_REJECT_TOL
        y = skew_matrix(n_skew)
        assert np.array_equal(y, -y.T)

    def test_exact_inputs_kept_to_the_float_maximum(self):
        # a + a^T passes the float range above about 9e307: those entries are halved first, and
        # every entry keeps its bits, the subnormals beside them included, with no RuntimeWarning
        values = [np.finfo(float).max, -1.7e308, 5e-324, 9e307, -1e300, 1.0, -2.2e-308, 1e-320]
        upper = np.triu(np.resize(values, (6, 6)), 1)
        sym = upper + upper.T + np.diag(np.resize(values[::-1], 6))
        assert sym_matrix(sym).tobytes() == sym.tobytes()
        assert skew_matrix(upper - upper.T).tobytes() == (upper - upper.T).tobytes()

    def test_wrong_symmetry_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape("not symmetric (defect inf > bound")):
            sym_matrix(canonical_skew_matrix([1e308]))
        with pytest.raises(ValueError, match=re.escape("not skew-symmetric (defect inf > bound")):
            skew_matrix(np.array([[0.0, 1e308], [1e308, 0.0]]))

    def test_tiny_wrong_symmetry_rejected(self):
        # a symmetric matrix of entries about 1e-10 is not skew at any scale
        tiny = 1e-10 * np.array([[1.0, 2.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="not skew-symmetric"):
            skew_matrix(tiny)
        with pytest.raises(ValueError, match="not symmetric"):
            sym_matrix(canonical_skew_matrix([1e-10]))


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
            rhs = commutator(x, x @ nsk + nsk @ x)
            assert max_abs(lhs - rhs) < 1e-14
            assert max_abs(lhs - lhs.T) < 1e-14


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
            x = symmetrize(rng.standard_normal((n, n)))
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
        assert numerical_rank([e1, e2, e1 + e2], 1e-9)[0] == 2

    def test_single_vector(self):
        assert numerical_rank([np.array([1.0, 0.0])], 1e-9)[0] == 1

    def test_zero_vector(self):
        assert numerical_rank([np.zeros(4)], 1e-9)[0] == 0

    def test_empty_set(self):
        assert numerical_rank([], 1e-9) == (0, 0)
        assert numerical_rank(np.empty((0, 3, 3)), 1e-9) == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            numerical_rank([np.zeros(3), np.zeros(4)], 1e-9)

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_constructed_rank(self, r):
        rng = np.random.default_rng(r)
        basis = rng.standard_normal((8, r))
        mix = rng.standard_normal((r, 10))
        vectors = [basis @ mix[:, j] for j in range(10)]
        assert numerical_rank(vectors, 1e-9)[0] == r
        assert numerical_rank(np.stack(vectors), 1e-9)[0] == r
        assert numerical_rank(vectors, 1e-9)[0] == loop_rank(unit_rows(vectors), 1e-9)

    def test_matrices_are_flattened(self):
        ms = [np.eye(3), 2.0 * np.eye(3), np.diag([1.0, 0.0, 0.0])]
        assert numerical_rank(ms, 1e-9)[0] == 2
        assert numerical_rank(np.stack(ms), 1e-9)[0] == 2


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


def unit_rows(vectors):
    """Each vector flattened and divided by its ``np.linalg.norm``; a zero vector stays zero."""
    rows = [np.asarray(v, dtype=float).ravel() for v in vectors]
    return [v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else v for v in rows]


class TestDecadeRanks:
    """One elimination gives the ranks at tol and 10 tol of the loop form.

    ``_decade_ranks`` ranks the vectors as given, ``numerical_rank`` their
    unit rows.  Unit rows tie in norm up to the last bit, so which goes
    first, and with it where a cut falls among noise-sized pivots, depends
    on the norm arithmetic: their reference is the np.delete elimination,
    whose ``np.linalg.norm(axis=1)`` is the arithmetic of the one in place.
    """

    TOL = 1e-9

    def check(self, vectors):
        expected = (loop_rank(vectors, self.TOL), loop_rank(vectors, 10.0 * self.TOL))
        assert _decade_ranks(vectors, self.TOL) == expected
        assert numerical_rank(vectors, self.TOL) == delete_decade_ranks(unit_rows(vectors), self.TOL)
        return expected

    def test_unit_rows_against_the_loop_form(self):
        # no cut among noise-sized pivots: the loop form's tie breaks give the same ranks
        rng = np.random.default_rng(4)
        low = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 12))
        scaled = low * np.geomspace(1e-6, 1e6, 9)[:, None]
        e1, e2, e3 = np.eye(3)
        for vectors, ranks in [(low, (3, 3)), (scaled, (3, 3)), ([e1, 1e-12 * e2, 2.0 * e3, np.zeros(3)], (3, 3))]:
            unit = unit_rows(vectors)
            assert numerical_rank(vectors, self.TOL) == (loop_rank(unit, self.TOL), loop_rank(unit, 10.0 * self.TOL))
            assert numerical_rank(vectors, self.TOL) == ranks
        # the raw rows read the scale: 1e-12 e2 falls below the cut
        assert self.check([e1, 1e-12 * e2, 2.0 * e3]) == (2, 2)

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
    vecs = [g.ravel() for g in gradient_table(random_sym(n, rng), (nsk - nsk.T) / 2)[1]]
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
            grads = frozen_casimir_gradients(form)
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
