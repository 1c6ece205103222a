import dataclasses

import numpy as np
import pytest

from symflow import poisson
from symflow.matrix_core import (
    _decade_ranks,
    frobenius_inner,
    max_abs,
    numerical_rank,
    random_skew,
    random_sym,
    symmetrize,
)
from symflow.poisson import (
    CANONICAL_TOL,
    FREQUENCY_GROUP_TOL,
    RankInstabilityError,
    SkewCanonicalForm,
    _reduced_state,
    _validate_form,
    canonical_form,
    canonical_skew_matrix,
    frozen_casimir_gradients,
    frozen_tensor,
    leaf_dimensions,
    lie_poisson_bracket,
    lie_poisson_casimir_gradients,
    lie_poisson_casimirs,
    lie_poisson_tensor,
    poisson_jacobi_defect,
    rank_certified,
    sym_basis,
    tensor_as_matrix,
)
from symflow.verify import DEFAULT_TOLERANCES, certificates

N2 = canonical_skew_matrix([1.0])


def sym_unit(n, i, j):
    """The symmetric unit with ones at (i, j) and (j, i)."""
    e = np.zeros((n, n))
    e[i, j] = e[j, i] = 1.0
    return e


def loop_frozen_casimir_gradients(form):
    """Reference frozen Casimir gradients, one unit matrix per same-cluster pair."""
    n, p, d = form.n, form.p, form.d
    pairs = [(k, l) for k in range(p) for l in range(k, p) if form.clusters[k] == form.clusters[l]]
    out = []
    for k, l in pairs:
        e = np.zeros((n, n))
        e[k, l] = e[l, k] = 1.0
        e[p + k, p + l] = e[p + l, p + k] = 1.0
        out.append(e)
    for k, l in pairs:
        if k < l:
            e = np.zeros((n, n))
            e[k, p + l] = e[p + l, k] = 1.0
            e[l, p + k] = e[p + k, l] = -1.0
            out.append(e)
    for a in range(d):
        for b in range(a, d):
            out.append(sym_unit(n, 2 * p + a, 2 * p + b))
    return out


def loop_lie_poisson_casimirs(form, x):
    """Reference Lie-Poisson Casimir values, the kernel-block functions one entry pair at a time."""
    vals = []
    if form.p > 0:
        core_inv = form.pseudo_inverse[:2 * form.p, :2 * form.p]
        w = _reduced_state(form, x)[0] @ core_inv
        w2 = w @ w
        power = w2
        for k in range(1, form.p + 1):
            vals.append(float(np.trace(power)) / (2 * k))
            if k < form.p:
                power = power @ w2
    off = 2 * form.p
    for a in range(form.d):
        for b in range(a, form.d):
            if a == b:
                vals.append(float(x[off + a, off + a]))
            else:
                vals.append(float(x[off + a, off + b] + x[off + b, off + a]))
    return np.asarray(vals)


def loop_lie_poisson_casimir_gradients(form, x):
    """Reference Lie-Poisson Casimir gradients, one full matrix per Casimir."""
    n, p, d = form.n, form.p, form.d
    grads = []
    if p > 0:
        core_inv = form.pseudo_inverse[:2 * p, :2 * p]
        z, a, b_inv = _reduced_state(form, x)
        w = z @ core_inv
        power = w
        for k in range(1, p + 1):
            g = symmetrize(core_inv @ power)
            full = np.zeros((n, n))
            full[:2 * p, :2 * p] = g
            if d > 0:
                coupling = -g @ a @ b_inv
                full[:2 * p, 2 * p:] = coupling
                full[2 * p:, :2 * p] = coupling.T
                full[2 * p:, 2 * p:] = b_inv @ a.T @ g @ a @ b_inv
            grads.append(full)
            if k < p:
                power = power @ w @ w
    for a_i in range(d):
        for b_i in range(a_i, d):
            grads.append(sym_unit(n, 2 * p + a_i, 2 * p + b_i))
    return grads


class TestTensors:
    def test_lie_poisson_zero_gradient(self):
        rng = np.random.default_rng(0)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        assert max_abs(lie_poisson_tensor(x, np.zeros((3, 3)), nsk)) == 0.0

    def test_lie_poisson_generates_flow(self):
        # applying the tensor to the gradient of trace(x^2)/2 gives the flow
        rng = np.random.default_rng(1)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        x2 = x @ x
        assert max_abs(lie_poisson_tensor(x, x, nsk) - (x2 @ nsk - nsk @ x2)) < 1e-15

    def test_identity_state_reduces_to_frozen(self):
        rng = np.random.default_rng(2)
        y, nsk = random_sym(4, rng), random_skew(4, rng)
        assert max_abs(lie_poisson_tensor(np.eye(4), y, nsk) - frozen_tensor(y, nsk)) < 1e-15

    def test_frozen_zero(self):
        assert max_abs(frozen_tensor(np.zeros((2, 2)), N2)) == 0.0

    def test_frozen_hand_value(self):
        # oracle by direct 2x2 multiplication: YN = [[0,1],[1,0]], NY = [[0,-1],[-1,0]]
        y = np.diag([1.0, -1.0])
        assert np.allclose(frozen_tensor(y, N2), [[0.0, 2.0], [2.0, 0.0]], atol=0, rtol=0)

    def test_frozen_kills_structure_powers(self):
        # gradients N^{k-1} for odd k are frozen Casimirs
        rng = np.random.default_rng(3)
        nsk = random_skew(5, rng)
        for k in (3, 5):
            grad = np.linalg.matrix_power(nsk, k - 1)
            assert max_abs(frozen_tensor(grad, nsk)) <= 1e-15

    def test_results_symmetric(self):
        rng = np.random.default_rng(4)
        x, y, nsk = random_sym(5, rng), random_sym(5, rng), random_skew(5, rng)
        for r in (lie_poisson_tensor(x, y, nsk), frozen_tensor(y, nsk)):
            assert max_abs(r - r.T) < 1e-15


class TestBrackets:
    def test_self_bracket_tiny(self):
        rng = np.random.default_rng(5)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        g = random_sym(4, rng)
        assert abs(lie_poisson_bracket(g, g, x, nsk)) < 1e-15
        assert abs(lie_poisson_bracket(g, g, np.eye(4), nsk)) < 1e-15  # frozen: Lie-Poisson at I

    def test_lie_poisson_two_formula_cross_check(self):
        # independent evaluation: -trace[x (f n g - g n f)]
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, nsk = random_sym(4, rng), random_skew(4, rng)
            f, g = random_sym(4, rng), random_sym(4, rng)
            direct = -np.trace(x @ (f @ nsk @ g - g @ nsk @ f))
            assert abs(lie_poisson_bracket(f, g, x, nsk) - direct) <= 1e-12

    def test_frozen_two_formula_cross_check(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nsk = random_skew(4, rng)
            f, g = random_sym(4, rng), random_sym(4, rng)
            direct = -np.trace(f @ nsk @ g - g @ nsk @ f)
            assert abs(lie_poisson_bracket(f, g, np.eye(4), nsk) - direct) <= 1e-12

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        f, g = random_sym(5, rng), random_sym(5, rng)
        assert lie_poisson_bracket(f, g, x, nsk) == pytest.approx(
            -lie_poisson_bracket(g, f, x, nsk), abs=1e-14)
        assert lie_poisson_bracket(f, g, np.eye(5), nsk) == pytest.approx(
            -lie_poisson_bracket(g, f, np.eye(5), nsk), abs=1e-14)

    def test_casimir_gradient_annihilates_bracket(self):
        rng = np.random.default_rng(9)
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        x = random_sym(4, rng)
        g = random_sym(4, rng)
        for grad in lie_poisson_casimir_gradients(form, x):
            assert abs(lie_poisson_bracket(g, grad, x, form.canonical_skew)) <= 1e-10

    def test_frozen_structure_power_kills_all(self):
        rng = np.random.default_rng(10)
        nsk = random_skew(4, rng)
        grad = np.linalg.matrix_power(nsk, 2)
        for _ in range(5):
            g = random_sym(4, rng)
            assert abs(lie_poisson_bracket(grad, g, np.eye(4), nsk)) <= 1e-14


def kernel_eigensolve_form(n_skew, rank_tol=1e-9):
    """Basis, frequencies and pseudo-inverse as canonical_form once built them, with the
    kernel eigensolve run at every n, full rank included."""
    n = n_skew.shape[0]
    lam, vecs = np.linalg.eigh(1j * n_skew)
    p = int(np.count_nonzero(lam > rank_tol * float(np.abs(lam).max())))
    z = vecs[:, n - p:].T
    u = z.real / np.linalg.norm(z.real, axis=1, keepdims=True)
    w = -z.imag
    w -= np.sum(u * w, axis=1, keepdims=True) * u
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    freqs = np.sum((u @ n_skew) * w, axis=1)
    order = np.argsort(-freqs, kind="stable")
    freqs, image = freqs[order], np.vstack([u[order], w[order]])
    kernel = np.linalg.eigh(image.T @ image)[1][:, :n - 2 * p].T
    pseudo, inv_v = np.zeros((n, n)), np.diag(1.0 / freqs)
    pseudo[:p, p:2 * p] = -inv_v
    pseudo[p:2 * p, :p] = inv_v
    return np.vstack([image, kernel]), freqs, pseudo


class TestCanonicalForm:
    def test_already_canonical_2x2(self):
        form = canonical_form(N2)
        assert (form.p, form.d) == (1, 0)
        assert np.allclose(form.frequencies, [1.0])

    def test_zero_matrix(self):
        form = canonical_form(np.zeros((3, 3)))
        assert (form.p, form.d) == (0, 3)
        assert max_abs(form.pseudo_inverse) == 0.0
        assert max_abs(form.basis @ form.basis.T - np.eye(3)) < 1e-14

    @pytest.mark.parametrize("n,expected", [(4, (2, 0)), (5, (2, 1)), (7, (3, 1)), (8, (4, 0))])
    def test_generic_rank(self, n, expected):
        rng = np.random.default_rng(n)
        form = canonical_form(random_skew(n, rng))
        assert (form.p, form.d) == expected

    def test_invariants_hold(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 6, 8):
            nsk = random_skew(n, rng)
            form = canonical_form(nsk)
            q = form.basis
            assert max_abs(q @ q.T - np.eye(n)) <= CANONICAL_TOL
            assert max_abs(q @ nsk @ q.T - form.canonical_skew) <= CANONICAL_TOL
            proj = np.zeros((n, n))
            proj[:2 * form.p, :2 * form.p] = np.eye(2 * form.p)
            rotated = q @ nsk @ q.T
            assert max_abs(form.pseudo_inverse @ rotated - proj) <= CANONICAL_TOL
            assert max_abs(rotated @ form.pseudo_inverse - proj) <= CANONICAL_TOL

    @pytest.mark.parametrize("n", range(2, 34))
    def test_full_rank_skips_the_kernel_eigensolve(self, monkeypatch, n):
        # d = n % 2: a full-rank N takes one eigensolve, and every array keeps its bits
        nsk = random_skew(n, np.random.default_rng(300 + n))
        expected = kernel_eigensolve_form(nsk)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        form = canonical_form(nsk)
        assert form.d == n % 2 and len(calls) == 1 + form.d
        got = form.basis, form.frequencies, form.pseudo_inverse
        assert [a.shape for a in got] == [a.shape for a in expected]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_frequencies_sorted_descending(self):
        rng = np.random.default_rng(12)
        form = canonical_form(random_skew(8, rng))
        assert np.all(np.diff(form.frequencies) <= 0)

    def test_rotated_canonical_recovers_frequencies(self):
        # equal and near-equal frequency groups, and a small frequency next
        # to a kernel, where the planes are hardest to separate
        rng = np.random.default_rng(13)
        cases = [
            ([2.0, 1.0], 1),
            ([1.0, 1.0, 1.0], 0),
            ([1.0, 1.0, 1.0, 0.5], 2),
            ([1.0, 1.0 + 1e-9, 0.7], 1),
        ]
        cases += [([1.0 + 1e-9 * k for k in range(p)], d) for p in (3, 8) for d in (0, 1, 2)]
        cases += [([1.0, 0.7, 1e-4], d) for d in (1, 2)]
        for freqs, d in cases:
            n = 2 * len(freqs) + d
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            nsk = q @ canonical_skew_matrix(freqs, d) @ q.T
            form = canonical_form((nsk - nsk.T) / 2)
            assert (form.p, form.d) == (len(freqs), d)
            assert np.allclose(form.frequencies, sorted(freqs, reverse=True), rtol=0, atol=1e-12)
            b = form.basis
            rotated = b @ form.skew @ b.T
            proj = np.zeros((n, n))
            proj[:2 * form.p, :2 * form.p] = np.eye(2 * form.p)
            assert max_abs(b @ b.T - np.eye(n)) <= CANONICAL_TOL
            assert max_abs(rotated - form.canonical_skew) <= CANONICAL_TOL
            assert max_abs(form.pseudo_inverse @ rotated - proj) <= CANONICAL_TOL
            assert max_abs(rotated @ form.pseudo_inverse - proj) <= CANONICAL_TOL

    def test_rank_cut_bounds_only_the_kernel_block(self):
        # 1e-6 falls under the cut at rank_tol 1e-5: the kernel block holds
        # it, and every other invariant still meets CANONICAL_TOL
        nsk = canonical_skew_matrix([1.0, 1e-6])
        form = canonical_form(nsk, 1e-5)
        assert (form.p, form.d) == (1, 2)
        b, m = form.basis, 2 * form.p
        offset = b @ nsk @ b.T - form.canonical_skew
        assert 1e-10 < max_abs(offset[m:, m:]) <= 1e-5
        offset[m:, m:] = 0.0
        assert max_abs(offset) <= CANONICAL_TOL
        assert max_abs(b @ b.T - np.eye(4)) <= CANONICAL_TOL

    def test_kernel_block_beyond_cut_raises(self):
        # a hand-built form that puts the 1e-3 plane in the kernel
        nsk = canonical_skew_matrix([1.0, 1e-3])
        core = canonical_skew_matrix([1.0])
        form = SkewCanonicalForm(
            n=4, p=1, d=2, skew=nsk, basis=np.eye(4)[[0, 2, 1, 3]],
            frequencies=np.array([1.0]),
            pseudo_inverse=np.pad(-core, ((0, 2), (0, 2))), rank_tol=1e-2,
        )
        _validate_form(form, 1e-2)
        with pytest.raises(ValueError, match="kernel block"):
            _validate_form(form, 1e-5)

    def test_large_frequencies_accepted(self):
        # the off-block defect grows with N (about 1e-9 here), the scale-free
        # orthogonality and pseudo-inverse defects do not
        rng = np.random.default_rng(16)
        freqs = [2.3e6, 1.7e6, 1e6]
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            nsk = q @ canonical_skew_matrix(freqs) @ q.T
            form = canonical_form((nsk - nsk.T) / 2)
            assert np.allclose(form.frequencies, freqs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("error, accepted", [(1e-5, True), (1e-3, False)])
    def test_off_block_defect_relative_to_frequencies(self, error, accepted):
        # a core frequency off by `error` at v = 1e6, with the exact pseudo-inverse
        v = 1e6 + error
        form = SkewCanonicalForm(
            n=2, p=1, d=0, skew=canonical_skew_matrix([1e6]), basis=np.eye(2),
            frequencies=np.array([v]),
            pseudo_inverse=-canonical_skew_matrix([1e-6]), rank_tol=1e-9,
        )
        if accepted:
            _validate_form(form, CANONICAL_TOL)
        else:
            with pytest.raises(ValueError, match="invariants"):
                _validate_form(form, CANONICAL_TOL)

    def test_equal_frequency_grouping(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0]))
        assert form.mode() == "equal"
        assert max_abs(form.basis @ form.skew @ form.basis.T - form.canonical_skew) <= CANONICAL_TOL

    def test_mode_detection(self):
        assert canonical_form(canonical_skew_matrix([1.0, 2.0])).mode() == "distinct"
        assert canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0])).mode() == "mixed"
        assert canonical_form(N2).mode() == "distinct"

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            canonical_form(np.eye(3))

    def test_conjugation_round_trip(self):
        rng = np.random.default_rng(14)
        nsk = random_skew(5, rng)
        form = canonical_form(nsk)
        x = random_sym(5, rng)
        assert max_abs(form.basis.T @ form.to_canonical(x) @ form.basis - x) < 1e-13


class TestFrozenCasimirs:
    def test_distinct_count(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0], 1))
        grads = frozen_casimir_gradients(form)
        assert len(grads) == form.p + form.d * (form.d + 1) // 2 == 3

    def test_equal_count(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0]))
        grads = frozen_casimir_gradients(form)
        assert len(grads) == form.p ** 2 == 4

    def test_structural_annihilation_exact(self):
        for freqs, d, mode in ([[1.0, 2.0], 1, "distinct"], [[1.5, 1.5], 2, "equal"]):
            form = canonical_form(canonical_skew_matrix(freqs, d))
            assert form.mode() == mode
            for e in frozen_casimir_gradients(form):
                assert max_abs(frozen_tensor(e, form.canonical_skew)) == 0.0

    def test_linearly_independent(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0], 2))
        grads = frozen_casimir_gradients(form)
        assert numerical_rank([e.ravel() for e in grads], 1e-9)[0] == len(grads)

    def test_mixed_gradients_per_cluster(self):
        # frequencies [2, 1, 1]: the single 2 gives one unit, the pair of 1s four
        for d in (0, 1):
            form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], d))
            n = form.n
            grads = frozen_casimir_gradients(form)
            assert np.array_equal(grads, [
                sym_unit(n, 0, 0) + sym_unit(n, 3, 3), sym_unit(n, 1, 1) + sym_unit(n, 4, 4),
                sym_unit(n, 1, 2) + sym_unit(n, 4, 5), sym_unit(n, 2, 2) + sym_unit(n, 5, 5),
                sym_unit(n, 1, 5) - sym_unit(n, 2, 4),
            ] + [sym_unit(n, 6, 6) for _ in range(d)])
            assert max_abs(frozen_tensor(grads, form.canonical_skew)) == 0.0

    def test_gradients_symmetric(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0], 1))
        for e in frozen_casimir_gradients(form):
            assert np.array_equal(e, e.T)


class TestCasimirCounts:
    @pytest.mark.parametrize("mode", ["distinct", "equal"])
    def test_match_literal_formulas(self, mode):
        for p in range(7):
            for d in range(0 if p else 1, 5):  # n = 2p + d >= 1
                freqs = [1.3] * p if mode == "equal" else [1.0 + 0.25 * k for k in range(p)]
                form = canonical_form(canonical_skew_matrix(freqs, d))
                kernel = d * (d + 1) // 2
                frozen = (p if mode == "distinct" else p * p) + kernel
                assert form.casimir_counts() == (p + kernel, frozen)
                assert frozen == len(frozen_casimir_gradients(form))

    def test_mixed_frozen_count(self):
        # clusters of sizes 1 and 2: 1 + 4 frozen Casimirs, plus the kernel unit
        for d, counts in ((0, (3, 5)), (1, (4, 6))):
            form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], d))
            assert form.casimir_counts() == counts
            assert all(type(count) is int for count in form.casimir_counts())


class TestFrequencyClusters:
    """Cluster labels split the descending frequencies at gaps above the relative cut."""

    @staticmethod
    def labels(frequencies):
        form = canonical_form(N2)
        return dataclasses.replace(form, frequencies=np.array(frequencies)).clusters

    def test_no_frequency(self):
        form = canonical_form(np.zeros((2, 2)))
        assert form.clusters.shape == (0,)
        assert form.mode() == "distinct"
        assert form.casimir_counts() == (3, 3)

    def test_one_frequency(self):
        form = canonical_form(canonical_skew_matrix([1.5], 1))
        assert form.clusters.tolist() == [0]
        assert form.clusters.dtype.kind == "i"
        assert form.mode() == "distinct"

    def test_canonical_labels(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0, 1.0, 3.0, 2.0]))
        assert np.allclose(form.frequencies, [3.0, 2.0, 2.0, 1.0, 1.0], rtol=1e-14, atol=0.0)
        assert form.clusters.tolist() == [0, 1, 1, 2, 2]

    def test_gap_at_the_cut(self):
        top = 1e8
        cut = FREQUENCY_GROUP_TOL * top
        assert top - (top - cut) == cut  # the gap below is exactly the cut
        assert self.labels([top, top - cut]).tolist() == [0, 0]
        assert self.labels([top, np.nextafter(top - cut, 0.0)]).tolist() == [0, 1]

    def test_cut_is_relative(self):
        for scale in (1e-9, 1.0, 1e10):
            assert self.labels(scale * np.array([3.0, 2.0, 1.0])).tolist() == [0, 1, 2]
            assert self.labels(scale * np.array([1.0, 1.0 - 5e-9, 1.0 - 5e-9])).tolist() == [0, 0, 0]

    def test_chain_of_small_gaps_is_one_cluster(self):
        # each gap is within the cut, the span is not: the pairwise rule read this as mixed
        v = [1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8]
        assert v[0] - v[2] > FREQUENCY_GROUP_TOL
        assert self.labels(v).tolist() == [0, 0, 0]
        form = canonical_form(canonical_skew_matrix(v))
        assert form.mode() == "equal"
        assert form.casimir_counts() == (3, 9)


#: Frequency patterns whose frozen Casimir count was measured as the null space of the frozen tensor.
CENTRALISER_PATTERNS = [
    [1.0, 1.7], [1.0, 1.0, 1.7], [1.0, 1.0, 1.7, 1.7], [1.0, 1.0, 1.0, 1.7], [1.0, 1.0, 1.7, 2.3],
    [1.0, 1.0, 1.0, 1.7, 1.7], [1.3] * 2, [1.3] * 3, [1.3] * 4, [1.3] * 6,
]


class TestFrozenCentraliser:
    """The frozen Casimir gradients span the centraliser of N in Sym(n), in a rotated basis too."""

    @pytest.mark.parametrize("d", range(4))
    @pytest.mark.parametrize("freqs", CENTRALISER_PATTERNS)
    def test_count_is_null_space_dimension(self, freqs, d):
        n = 2 * len(freqs) + d
        q = np.linalg.qr(np.random.default_rng(len(freqs) + 10 * d).standard_normal((n, n)))[0]
        n_skew = q @ canonical_skew_matrix(freqs, d) @ q.T
        form = canonical_form(n_skew)
        frozen = tensor_as_matrix(np.eye(n), n_skew)
        count = len(frozen) - numerical_rank(frozen, 1e-9)[0]
        grads = frozen_casimir_gradients(form)
        assert form.casimir_counts()[1] == len(grads) == count
        rotated = form.basis.T @ grads @ form.basis
        assert max_abs(frozen_tensor(rotated, n_skew)) <= 1e-14
        (cert,) = certificates(form, ["casimir"], 1, d, DEFAULT_TOLERANCES)
        details = cert.details[-1]
        assert details["frozen_rank"] == details["frozen_expected_rank"] == count


class TestLiePoissonCasimirs:
    def test_symbolic_2x2(self):
        # (x core^{-1})^2 = (b^2 - ad) I by direct 2x2 multiplication
        form = canonical_form(N2)
        rng = np.random.default_rng(15)
        for _ in range(5):
            a, b, d = rng.uniform(-2, 2, 3)
            vals = lie_poisson_casimirs(form, np.array([[a, b], [b, d]]))
            assert vals[0] == pytest.approx(b * b - a * d, rel=1e-12)

    def test_zero_state(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        assert np.array_equal(lie_poisson_casimirs(form, np.zeros((4, 4))), np.zeros(2))

    def test_count(self):
        for freqs, d in ([[1.0, 2.0], 0], [[1.0, 2.0], 2], [[3.0], 1]):
            form = canonical_form(canonical_skew_matrix(freqs, d))
            x = random_sym(form.n, np.random.default_rng(0))
            assert len(lie_poisson_casimirs(form, x)) == form.p + form.d * (form.d + 1) // 2

    @pytest.mark.parametrize("freqs,d", [([1.0, 2.0, 3.0], 0), ([1.0, 2.0, 3.0], 2)])
    def test_gradient_annihilation(self, freqs, d):
        # the defining property, at n = 6 with and without a kernel
        rng = np.random.default_rng(16)
        form = canonical_form(canonical_skew_matrix(freqs, d))
        n_can = form.canonical_skew
        for _ in range(5):
            x = random_sym(form.n, rng)
            for g in lie_poisson_casimir_gradients(form, x):
                assert max_abs(lie_poisson_tensor(x, g, n_can)) <= 1e-11

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        form = canonical_form(canonical_skew_matrix([1.0, 2.0], 1))
        x = random_sym(5, rng)
        grads = lie_poisson_casimir_gradients(form, x)
        h = random_sym(5, rng)
        eps = 1e-6
        fd = (lie_poisson_casimirs(form, x + eps * h) - lie_poisson_casimirs(form, x - eps * h)) / (2 * eps)
        for i, g in enumerate(grads):
            assert fd[i] == pytest.approx(frobenius_inner(g, h), abs=1e-7)

    def test_singular_kernel_block_raises(self):
        form = canonical_form(canonical_skew_matrix([1.0], 1))
        x = np.zeros((3, 3))
        x[0, 0] = 1.0  # kernel block is the zero scalar
        with pytest.raises(ValueError):
            lie_poisson_casimirs(form, x)


STACKED_CASIMIR_CASES = [(p, d, mode) for p in range(4) for d in range(4) if p + d
                         for mode in ("distinct", "equal")]

#: Every p in 0..5 and d in 0..3 with distinct and equal frequencies, and mixed ones from p = 3.
FROZEN_CASIMIR_CASES = [(p, d, mode) for p in range(6) for d in range(4) if p + d
                        for mode in ("distinct", "equal", "mixed") if mode != "mixed" or p >= 3]


class TestStackedCasimirFamilies:
    """The stacked Casimir families equal the per-matrix loops bit for bit, in their order."""

    @staticmethod
    def form(p, d, mode):
        freqs = {
            "distinct": [0.7 + 0.3 * k for k in range(p)],
            "equal": [1.3] * p,
            "mixed": [1.3, 0.7, 1.3, 0.7, 0.4][:p],
        }[mode]
        return canonical_form(canonical_skew_matrix(freqs, d))

    @pytest.mark.parametrize("p, d, mode", FROZEN_CASIMIR_CASES)
    def test_frozen_gradients(self, p, d, mode):
        form = self.form(p, d, mode)
        got, expected = frozen_casimir_gradients(form), np.array(loop_frozen_casimir_gradients(form))
        assert got.shape == (form.casimir_counts()[1], form.n, form.n) == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p, d, mode", STACKED_CASIMIR_CASES)
    def test_lie_poisson_values_and_gradients(self, p, d, mode):
        form = self.form(p, d, mode)
        rng = np.random.default_rng(10 * p + d)
        count = form.casimir_counts()[0]
        for scale in (1.0, -1e-3, 50.0):
            x = scale * random_sym(form.n, rng)
            values = lie_poisson_casimirs(form, x)
            assert values.shape == (count,)
            assert values.tobytes() == loop_lie_poisson_casimirs(form, x).tobytes()
            grads = lie_poisson_casimir_gradients(form, x)
            assert grads.shape == (count, form.n, form.n)
            assert grads.tobytes() == np.array(loop_lie_poisson_casimir_gradients(form, x)).tobytes()

    def test_diagonal_kernel_values_copied(self):
        # the diagonal kernel functions copy their entry: -0.0 stays -0.0, and
        # 1e308 raises no overflow, as a doubled entry would
        form = canonical_form(np.zeros((2, 2)))
        x = np.array([[-0.0, 0.5], [0.5, 1e308]])
        with np.errstate(all="raise"):
            values = lie_poisson_casimirs(form, x)
        assert values.tobytes() == loop_lie_poisson_casimirs(form, x).tobytes()
        assert np.signbit(values[0]) and values.tolist() == [0.0, 1.0, 1e308]


class TestTensorMatrix:
    def test_zero_structure(self):
        rng = np.random.default_rng(18)
        x = random_sym(3, rng)
        assert all(max_abs(tensor_as_matrix(lmat, np.zeros((3, 3)))) == 0.0 for lmat in (x, np.eye(3)))

    def test_antisymmetry(self):
        rng = np.random.default_rng(19)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        for lmat in (x, np.eye(4)):
            m = tensor_as_matrix(lmat, nsk)
            assert max_abs(m + m.T) <= 1e-12

    def test_generic_rank_n4(self):
        rng = np.random.default_rng(20)
        x = random_sym(4, rng)
        m = tensor_as_matrix(x, canonical_skew_matrix([1.0, 2.0]))
        assert numerical_rank([m[:, j] for j in range(m.shape[1])], 1e-9)[0] == 8

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_matches_definition(self, n):
        # entry (i, j) is trace(E_i L E_j N) - trace(E_i N E_j L), with
        # L = x (Lie-Poisson) or the identity (frozen)
        rng = np.random.default_rng(30 + n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        basis = sym_basis(n)
        for lmat in (x, np.eye(n)):
            got = tensor_as_matrix(lmat, nsk)
            el, en = basis @ lmat, basis @ nsk
            m = len(basis)
            direct = np.array([[frobenius_inner(el[i], en[j]) - frobenius_inner(en[i], el[j])
                                for j in range(m)] for i in range(m)])
            assert max_abs(got - direct) <= 1e-14 * max_abs(direct)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_matches_einsum_form(self, n):
        # the GEMM against the per-entry contraction it replaced: the frozen
        # matrix is bit-identical, the Lie-Poisson one agrees to roundoff
        rng = np.random.default_rng(40 + n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        basis = sym_basis(n)
        lie_poisson, frozen = tensor_as_matrix(x, nsk), tensor_as_matrix(np.eye(n), nsk)
        for got, left in ((frozen, basis), (lie_poisson, basis @ x)):
            g = np.einsum("iab,jba->ij", left, basis @ nsk)
            old = g - g.T
            if got is frozen:
                assert np.array_equal(got, old)
            else:
                assert max_abs(got - old) <= 1e-15 * max_abs(old)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_sym_basis_matches_units(self, n):
        units = [sym_unit(n, i, i) for i in range(n)]
        units += [sym_unit(n, i, j) / np.sqrt(2.0) for i in range(n) for j in range(i + 1, n)]
        assert np.array_equal(sym_basis(n), np.stack(units))

    def test_sym_basis_orthonormal(self):
        basis = sym_basis(3)
        assert len(basis) == 6
        gram = np.array([[frobenius_inner(a, b) for b in basis] for a in basis])
        assert max_abs(gram - np.eye(6)) < 1e-14

    @pytest.mark.parametrize("n", [*range(1, 20), 24, 31, 32, 33])
    def test_pair_matches_per_structure_gemms(self, n):
        # the frozen matrix is the Lie-Poisson one at I, bit for bit the GEMM of the
        # basis itself; the Lie-Poisson one at x is its own GEMM of basis @ x
        rng = np.random.default_rng(60 + n)
        x = random_sym(n, rng)
        d = 2 - n % 2  # a kernel of 1 or 2, so that n - d is even
        basis = sym_basis(n)
        m = len(basis)
        for nsk in (random_skew(n, rng), canonical_skew_matrix(rng.uniform(0.5, 1.5, (n - d) // 2), d),
                    np.zeros((n, n))):
            right = (basis @ nsk).transpose(0, 2, 1).reshape(m, -1).T
            for lmat, left in ((np.eye(n), basis), (x, basis @ x)):
                g = left.reshape(m, -1) @ right
                assert tensor_as_matrix(lmat, nsk).tobytes() == (g - g.T).tobytes()


class TestLeafDimensions:
    CASES = [
        ([1.0, 2.0], 0, (8, 8)),
        ([1.0, 1.0], 0, (8, 6)),
        ([2.0, 1.0], 1, (12, 12)),
        ([1.0, 2.0], 2, (16, 16)),
        ([1.0, 1.0], 2, (16, 14)),
    ]

    @pytest.mark.parametrize("freqs,d,expected", CASES)
    def test_closed_form_dimensions(self, freqs, d, expected):
        rng = np.random.default_rng(21)
        form = canonical_form(canonical_skew_matrix(freqs, d))
        x = random_sym(form.n, rng)
        assert leaf_dimensions(form, x) == expected

    def test_one_basis_per_call(self, monkeypatch):
        # one basis per tensor matrix: the Lie-Poisson and the frozen one on the
        # form's first call, the Lie-Poisson one alone on its next
        calls, basis = [], poisson.sym_basis
        monkeypatch.setattr(poisson, "sym_basis", lambda n: calls.append(n) or basis(n))
        form = canonical_form(canonical_skew_matrix([1.0, 2.0], 1))
        rng = np.random.default_rng(23)
        assert leaf_dimensions(form, random_sym(5, rng)) == (12, 12)
        assert calls == [5, 5]
        assert leaf_dimensions(form, random_sym(5, rng)) == (12, 12)
        assert calls == [5, 5, 5]

    @pytest.mark.parametrize("freqs, d, frozen_ranks, details", [
        ([1.0, 2.0], 1, 1, [{"dims": [12, 12], "expected": [12, 12]}] * 5),
        ([1.0, 1.000000003], 0, 5, [{"unstable": "rank 8 at tol 1.0e-09 but 6 at 1.0e-08"}] * 5),
    ], ids=["stable", "frozen-unstable"])
    def test_frozen_leaf_ranked_once_per_form(self, monkeypatch, freqs, d, frozen_ranks, details):
        # a 5-sample leaf_dims ranks the frozen matrix, the one at I, on its first
        # draw and keeps it; an unstable frozen rank is not kept, so every draw ranks it again
        at_identity, tensor = [], poisson.tensor_as_matrix
        monkeypatch.setattr(poisson, "tensor_as_matrix",
                            lambda x, nsk: at_identity.append(np.array_equal(x, np.eye(len(x)))) or tensor(x, nsk))
        form = canonical_form(canonical_skew_matrix(freqs, d))
        (cert,) = certificates(form, ["leaf_dims"], 5, 3, DEFAULT_TOLERANCES)
        assert [{k: v for k, v in row.items() if k != "sample"} for row in cert.details] == details
        assert at_identity == ([False, True] * frozen_ranks + [False] * (5 - frozen_ranks))
        if frozen_ranks == 5:
            with pytest.raises(RankInstabilityError):
                form.frozen_leaf_dimension
        else:
            assert "frozen_leaf_dimension" in vars(form)

    def test_codimension_matches_casimir_count(self):
        rng = np.random.default_rng(22)
        for freqs, d in ([[1.0, 2.0], 0], [[2.0, 1.0], 1], [[1.0, 2.0], 2]):
            form = canonical_form(canonical_skew_matrix(freqs, d))
            x = random_sym(form.n, rng)
            dim_lp, _ = leaf_dimensions(form, x)
            sym_dim = form.n * (form.n + 1) // 2
            assert sym_dim - dim_lp == form.p + form.d * (form.d + 1) // 2

    def test_rank_instability_flagged(self):
        # singular values straddling the tolerance decade must not be
        # silently rounded either way
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 5e-9])]
        for given in (vecs, np.array(vecs)):
            with pytest.raises(RankInstabilityError):
                rank_certified(given, 1e-9)

    def test_rank_certified_clean_case(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 0.5])]
        assert rank_certified(vecs, 1e-9) == 2
        assert rank_certified(np.array(vecs), 1e-9) == 2

    @pytest.mark.parametrize("rows", [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0]],
                                      [[0.0, 0.0, -1.5e308], [0.0, 0.0, 1.5e308], [1.5e308, -1.5e308, 0.0]]],
                             ids=["inf", "nan", "singular-values-past-the-range"])
    def test_rank_certified_past_the_float_range_raises(self, rows):
        # LAPACK returns inf singular values for the last, which would count rank 0
        with pytest.raises(OverflowError, match="passes the float range"):
            rank_certified(np.array(rows), 1e-9)

    def test_rank_certified_relative_to_largest_singular_value(self):
        # four equal rows make the largest singular value 2, twice the
        # largest row norm: 1.5e-9 sits inside the decade relative to the
        # row norm, where the Gram-Schmidt ranks disagree, but below both
        # cuts relative to s[0]
        vecs = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.5e-9]])
        assert _decade_ranks(vecs, 1e-9) == (2, 1)
        assert rank_certified(vecs, 1e-9) == 1

    def test_rank_certified_contract(self):
        # the first axis indexes the vectors and the trailing axes are
        # flattened, so a (k, n, n) stack is k vectors, not k matrices
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), np.diag([1.0, 0.0, 0.0])])
        assert rank_certified(stack, 1e-9) == 2
        assert rank_certified(np.zeros((3, 4)), 1e-9) == 0
        with pytest.raises(ValueError):  # numpy's own refusal of ragged input
            rank_certified([np.zeros(3), np.zeros(4)], 1e-9)

    @staticmethod
    def _structure(kind, n, rng):
        if kind == "random":
            return random_skew(n, rng)
        d = {"nullity1": 1, "nullity2": 2}.get(kind, 0)
        p = (n - d) // 2
        freqs = [1.0] * p if kind == "equal" else sorted(rng.uniform(0.5, 1.5, p), reverse=True)
        return canonical_skew_matrix(freqs, d)

    @pytest.mark.parametrize("kind,n", [
        ("distinct", 4), ("distinct", 8), ("distinct", 12),
        ("equal", 4), ("equal", 8), ("equal", 12),
        ("nullity1", 5), ("nullity1", 9),
        ("nullity2", 6), ("nullity2", 10),
        ("random", 6), ("random", 9), ("random", 12),
    ])
    def test_singular_value_ranks_match_gram_schmidt(self, kind, n):
        rng = np.random.default_rng(50 + n)
        form = canonical_form(self._structure(kind, n, rng))
        x = random_sym(n, rng)
        for m in (tensor_as_matrix(x, form.skew), tensor_as_matrix(np.eye(n), form.skew)):
            r, r_loose = _decade_ranks(m, form.rank_tol)
            assert r == r_loose == rank_certified(m, form.rank_tol)


class TestCompatibility:
    def quadratic_triple(self, n, rng):
        return tuple((random_sym(n, rng), random_sym(n, rng)) for _ in range(3))

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_jacobi_identity(self, weights):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6):
            for _ in range(5):
                x, nsk = random_sym(n, rng), random_skew(n, rng)
                f, g, h = self.quadratic_triple(n, rng)
                assert poisson_jacobi_defect(x, nsk, f, g, h, weights) <= 1e-10

    def test_pencil_weights(self):
        # any linear combination of the two structures stays Poisson
        rng = np.random.default_rng(24)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        f, g, h = self.quadratic_triple(4, rng)
        for t in (-2.0, 0.5, 3.0):
            assert poisson_jacobi_defect(x, nsk, f, g, h, (1.0, t)) <= 1e-10
