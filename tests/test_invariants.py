import math
from itertools import combinations

import numpy as np
import pytest

from symflow import invariants
from symflow.matrix_core import frob_norm, frobenius_inner, max_abs, random_skew, random_sym, symmetrize
from symflow.poisson import lie_poisson_tensor
from symflow.invariants import (
    ODD_COEFF_TOL,
    InvariantTable,
    _harvest,
    _pair_slots,
    _power_stacks,
    _trace_walk,
    admissible_indices,
    gradient_table,
    invariant_count,
    invariant_table,
    recursion_residuals,
)
from symflow.poisson import canonical_skew_matrix, frozen_tensor


def trace_coefficient_oracle(x, nsk, k, j):
    """Brute-force multi-index sum: the coefficient of t^j in trace((x + t n)^k).

    Enumerates every placement of j structure-matrix factors among the k
    slots of the product and sums the traces.  Exponential, for small cases
    only.
    """
    n = x.shape[0]
    total = 0.0
    for positions in combinations(range(k), j):
        word = np.eye(n)
        for slot in range(k):
            word = word @ (nsk if slot in positions else x)
        total += np.trace(word)
    return total


def loop_harvest(x, nsk, with_gradients):
    """Reference harvest with one np.trace call per coefficient (k, j)."""
    n = x.shape[0]
    table = InvariantTable(n=n, gradients={} if with_gradients else None)
    scale_base = frob_norm(x) + frob_norm(nsk)
    prev = None
    for k, power in enumerate(_power_stacks(x, nsk, n - 1), start=1):
        for j in range(0, k):
            tr = float(np.trace(power[j])) / k
            if j % 2 == 1:
                if abs(tr) > ODD_COEFF_TOL * max(1.0, scale_base**k):
                    raise ArithmeticError(
                        f"odd-power trace coefficient (k={k}, j={j}) is {tr:.3e}, "
                        "expected a structural zero"
                    )
                continue
            table.values[(k, j)] = tr
            if with_gradients:
                table.gradients[(k, j)] = np.eye(n) if k == 1 else symmetrize(prev[j])
        prev = power
    return table


def loop_recursion_residuals(x, nsk):
    """Reference recursion residuals: both tensors applied to one (k, r) pair at a time."""
    n = x.shape[0]
    out = {}
    prev = None  # stack of (X + tN)^{k-1}
    for k, power in enumerate(_power_stacks(x, nsk, n - 1), start=1):
        for r in range(2 - k % 2, k + 1, 2):
            g_low = np.eye(n) if k == 1 else symmetrize(prev[k - r])
            g_high = symmetrize(power[k - r])
            out[(k, r)] = max_abs(lie_poisson_tensor(x, g_low, nsk) - frozen_tensor(g_high, nsk))
        prev = power
    return out


def structure(kind, n, rng):
    """A skew N of size n: dense random, a dense rotation of nullity 0, 1 or 2, or zero."""
    if kind == "random":
        return random_skew(n, rng)
    if kind == "zero":
        return np.zeros((n, n))
    d = {"nullity0": 0, "nullity1": 1, "nullity2": 2}[kind]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ canonical_skew_matrix(rng.uniform(0.5, 1.5, (n - d) // 2), d) @ q.T
    return (a - a.T) / 2


HARVEST_CASES = [(n, kind) for n in [*range(2, 17), 32] for kind in ("random", "zero")]
HARVEST_CASES += [(n, "nullity1") for n in range(3, 17, 2)]
HARVEST_CASES += [(n, "nullity2") for n in [*range(4, 17, 2), 32]]


def c04_pairs(n):
    """The (k, r) pairs the acceptance recursion check covers at size n."""
    return [(k, r) for k in range(1, n) for r in range(1, k + 1) if (k - r) % 2 == 0]


class TestPowerStacks:
    def test_power_one(self):
        rng = np.random.default_rng(0)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        (stack,) = _power_stacks(x, nsk, 1)
        assert np.array_equal(stack, np.stack([x, nsk]))

    def test_power_two_expansion(self):
        rng = np.random.default_rng(1)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        _, stack = _power_stacks(x, nsk, 2)
        assert np.array_equal(stack[0], x @ x)
        assert np.array_equal(stack[1], x @ nsk + nsk @ x)
        assert np.array_equal(stack[2], nsk @ nsk)

    def test_stack_count_and_shapes(self):
        x, nsk = np.eye(4), canonical_skew_matrix([1.0, 2.0])
        assert list(_power_stacks(x, nsk, 0)) == []
        shapes = [stack.shape for stack in _power_stacks(x, nsk, 5)]
        assert shapes == [(k + 1, 4, 4) for k in range(1, 6)]

    def test_trace_oracle_every_coefficient(self):
        # every (k, j), odd structural zeros included, against the word sum
        rng = np.random.default_rng(2)
        for n in range(2, 7):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            for k, stack in enumerate(_power_stacks(x, nsk, n - 1), start=1):
                for j in range(k + 1):
                    oracle = trace_coefficient_oracle(x, nsk, k, j)
                    assert np.trace(stack[j]) == pytest.approx(oracle, abs=1e-12)
                    if j % 2 == 1:
                        assert abs(np.trace(stack[j])) <= 1e-13

    def test_eval_matches_direct(self):
        rng = np.random.default_rng(3)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        *_, stack = _power_stacks(x, nsk, 3)
        for t in (-1.0, 0.3, 2.0):
            direct = np.linalg.matrix_power(x + t * nsk, 3)
            assert max_abs(np.polynomial.polynomial.polyval(t, stack) - direct) <= 1e-12


class TestCounts:
    def test_small_values(self):
        assert invariant_count(4) == 4
        assert invariant_count(9) == 20

    def test_even_sizes_square(self):
        for p in range(1, 7):
            assert invariant_count(2 * p) == p * p

    def test_degenerate_closed_form(self):
        for p in range(1, 5):
            for d in range(0, 5):
                n = 2 * p + d
                expected = p * p + p * d + (d // 2) * ((d + 1) // 2)
                assert invariant_count(n) == expected

    def test_matches_index_enumeration(self):
        for n in range(2, 13):
            assert len(admissible_indices(n)) == invariant_count(n)

    def test_too_small(self):
        with pytest.raises(ValueError):
            invariant_count(0)

    def test_one_by_one_has_no_members(self):
        assert invariant_count(1) == 0 == len(admissible_indices(1))
        x, nsk = np.ones((1, 1)), np.zeros((1, 1))
        assert invariant_table(x, nsk).values == {}
        table = gradient_table(x, nsk)
        assert table.values == {} and table.gradients == {}

    def test_n4_index_set(self):
        assert admissible_indices(4) == [(1, 0), (2, 0), (3, 0), (3, 2)]


class TestInvariantTable:
    def test_n4_keys(self):
        rng = np.random.default_rng(4)
        table = invariant_table(random_sym(4, rng), random_skew(4, rng))
        assert table.keys() == [(1, 0), (2, 0), (3, 0), (3, 2)]

    def test_h32_closed_form(self):
        # coefficient (3, 2) equals trace(n^2 x)
        rng = np.random.default_rng(5)
        for n in (4, 5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            table = invariant_table(x, nsk)
            assert table.values[(3, 2)] == pytest.approx(np.trace(nsk @ nsk @ x), abs=1e-13)

    def test_h42_closed_form(self):
        # coefficient (4, 2) equals trace(n^2 x^2) + trace(n x n x) / 2
        rng = np.random.default_rng(6)
        for n in (5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            table = invariant_table(x, nsk)
            expected = np.trace(nsk @ nsk @ x @ x) + 0.5 * np.trace(nsk @ x @ nsk @ x)
            assert table.values[(4, 2)] == pytest.approx(expected, abs=1e-13)

    def test_zero_structure(self):
        rng = np.random.default_rng(7)
        x = random_sym(5, rng)
        table = invariant_table(x, np.zeros((5, 5)))
        for (k, j), val in table.values.items():
            if j == 0:
                assert val == pytest.approx(np.trace(np.linalg.matrix_power(x, k)) / k, abs=1e-14)
            else:
                assert val == 0.0

    def test_zero_state(self):
        # every member has at least one state factor, so all values vanish
        rng = np.random.default_rng(8)
        nsk = random_skew(6, rng)
        table = invariant_table(np.zeros((6, 6)), nsk)
        assert max(abs(v) for v in table.values.values()) == 0.0

    def test_multi_index_oracle(self):
        # the table stores 1/k times the bare multi-index sum
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            table = invariant_table(x, nsk)
            for k in range(1, min(4, n)):
                for j in range(0, k, 2):
                    oracle = trace_coefficient_oracle(x, nsk, k, j)
                    assert k * table.values[(k, j)] == pytest.approx(oracle, abs=1e-12)

    def test_odd_oracle_coefficients_vanish(self):
        rng = np.random.default_rng(10)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        for k in (2, 3):
            for j in range(1, k, 2):
                assert abs(trace_coefficient_oracle(x, nsk, k, j)) <= 1e-13


class TestGradientTable:
    def test_h20_gradient_is_state(self):
        rng = np.random.default_rng(11)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        table = gradient_table(x, nsk)
        assert np.array_equal(table.gradients[(2, 0)], x)

    def test_h10_gradient_is_identity(self):
        rng = np.random.default_rng(12)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        assert np.array_equal(gradient_table(x, nsk).gradients[(1, 0)], np.eye(3))

    def test_top_even_gradient_is_structure_power(self):
        # for odd k the (k, k-1) gradient is the constant n^{k-1}
        rng = np.random.default_rng(13)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        table = gradient_table(x, nsk)
        for k in (3, 5):
            expected = np.linalg.matrix_power(nsk, k - 1)
            assert max_abs(table.gradients[(k, k - 1)] - expected) <= 1e-14

    def test_gradients_exactly_symmetric(self):
        rng = np.random.default_rng(14)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        for g in gradient_table(x, nsk).gradients.values():
            assert np.array_equal(g, g.T)

    def test_finite_difference_oracle(self):
        # central difference of each value along a random direction
        rng = np.random.default_rng(15)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        table = gradient_table(x, nsk)
        y = random_sym(6, rng)
        eps = 1e-5
        plus = invariant_table(x + eps * y, nsk)
        minus = invariant_table(x - eps * y, nsk)
        for key, grad in table.gradients.items():
            fd = (plus.values[key] - minus.values[key]) / (2 * eps)
            assert fd == pytest.approx(frobenius_inner(grad, y), abs=1e-6)


def every_pair_trace(x, nsk):
    """_trace_walk's values with the pair traces of k = n computed too, then dropped."""
    n = x.shape[0]
    half = n // 2
    grams, prev = [], np.eye(n)[None]
    for m, power in enumerate(_power_stacks(x, nsk, half), start=1):
        pairs = np.concatenate([prev, power]).reshape(2 * m + 1, n * n)
        grams.append((pairs @ power.transpose(0, 2, 1).reshape(m + 1, n * n).T).ravel())
        prev = power
    width = 2 * half + 1
    sums = np.bincount(_pair_slots(half), np.concatenate(grams), minlength=width * width)
    return sums.reshape(width, width)[1:n, :n] / np.arange(1, n)[:, None]


class TestArrayHarvest:
    """The half-power harvest against the per-coefficient loop over full powers."""

    @pytest.mark.parametrize("n, kind", HARVEST_CASES)
    def test_matches_loop(self, n, kind):
        # gradients and key order bit for bit; the values sum half-power pair
        # traces, so they agree with the full-power traces at roundoff, on the
        # scale of the k-th power, and both tables share them exactly
        rng = np.random.default_rng(n)
        nsk = structure(kind, n, rng)
        for x in (random_sym(n, rng), np.zeros((n, n))):
            values = invariant_table(x, nsk).values
            assert list(values) == admissible_indices(n)
            table, expected = gradient_table(x, nsk), loop_harvest(x, nsk, True)
            assert table.values == values
            assert list(table.values) == list(expected.values)
            assert list(table.gradients) == list(expected.gradients)
            for key, grad in expected.gradients.items():
                assert np.array_equal(table.gradients[key], grad)
            base = frob_norm(x) + frob_norm(nsk)
            for (k, j), value in expected.values.items():
                assert abs(values[(k, j)] - value) <= 1e-14 * max(1.0, base**k)

    def test_every_coefficient_against_oracle(self):
        # odd and top coefficients included, from both walk depths
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            traces = _trace_walk(x, nsk, n // 2, None)
            assert np.array_equal(traces, _trace_walk(x, nsk, max(n - 2, n // 2), {}))
            for k in range(1, n):
                for j in range(n):
                    oracle = trace_coefficient_oracle(x, nsk, k, j) / k
                    assert traces[k - 1, j] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 33])
    def test_walk_depth(self, monkeypatch, n):
        # values need powers up to ceil((n-1)/2), gradients up to n-2
        walked = []

        def counted(x, nsk, k_max):
            for stack in _power_stacks(x, nsk, k_max):
                walked.append(len(stack) - 1)
                yield stack

        monkeypatch.setattr(invariants, "_power_stacks", counted)
        rng = np.random.default_rng(n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        half = math.ceil((n - 1) / 2)
        invariant_table(x, nsk)
        assert walked == list(range(1, half + 1))
        walked.clear()
        gradient_table(x, nsk)
        assert walked == list(range(1, max(n - 2, half) + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 10, 12, 20, 28, 32, 33])
    def test_traces_beyond_the_table_left_out_bit_for_bit(self, n):
        # even n zeroes the k = n rows of the last GEMM instead of dropping
        # them: a GEMM with fewer rows rounds differently at n = 10, 12, ...
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            traces = _trace_walk(x, nsk, n // 2, None)
            assert np.array_equal(traces.view(np.int64), every_pair_trace(x, nsk).view(np.int64))

    def test_no_overflow_beyond_the_table(self):
        nsk = canonical_skew_matrix([1.0, 2.0])
        x = np.diag([1e90, 1.0, 2.0, 3.0])
        with np.errstate(over="raise"):
            values = invariant_table(x, nsk).as_vector()
        assert np.isfinite(values).all()

    def test_odd_coefficient_error(self):
        # a symmetric part in N breaks the odd structural zeros from k = 2 on
        rng = np.random.default_rng(0)
        nsk = random_skew(6, rng) + 0.1 * random_sym(6, rng)
        x = random_sym(6, rng)
        with pytest.raises(ArithmeticError) as expected:
            loop_harvest(x, nsk, False)
        assert "(k=2, j=1)" in str(expected.value)
        for harvest in (invariant_table, gradient_table):
            with pytest.raises(ArithmeticError) as raised:
                harvest(x, nsk)
            assert str(raised.value) == str(expected.value)

    def test_nan_passes_odd_check(self):
        # a NaN coefficient compares false, as it did coefficient by coefficient;
        # the public entries reject a NaN state, so the harvest is called directly
        rng = np.random.default_rng(1)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        x[0, 0] = np.nan
        got, expected = _harvest(x, nsk, False).as_vector(), loop_harvest(x, nsk, False).as_vector()
        assert np.isnan(got).any()
        assert np.array_equal(got, expected, equal_nan=True)


class TestRecursion:
    def test_first_rung_exact(self):
        # k = 1, r = 1 compares the flow generated through both structures
        rng = np.random.default_rng(17)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        assert recursion_residuals(x, nsk)[(1, 1)] <= 1e-15

    def test_nontrivial_example(self):
        # (k, r) = (3, 1): gradients of the (3, 2) and (4, 2) members
        rng = np.random.default_rng(18)
        for n in (4, 5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            assert recursion_residuals(x, nsk)[(3, 1)] <= 1e-14

    def test_hamiltonian_chain(self):
        # r = k: the plain trace-power Hamiltonians chain through both tensors
        rng = np.random.default_rng(19)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        residuals = recursion_residuals(x, nsk)
        for k in range(1, 6):
            assert residuals[(k, k)] <= 1e-13

    def test_structure_power_is_frozen_casimir(self):
        rng = np.random.default_rng(20)
        nsk = random_skew(5, rng)
        for k in (3, 5):
            grad = np.linalg.matrix_power(nsk, k - 1)
            assert max_abs(frozen_tensor(grad, nsk)) <= 1e-15

    def test_all_admissible_indices_small(self):
        rng = np.random.default_rng(21)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        assert max(recursion_residuals(x, nsk).values()) <= 1e-13

    def test_keys_match_c04_pairs(self):
        # ascending order too: the certificate's worst_pair breaks ties by it
        rng = np.random.default_rng(22)
        for n in range(2, 9):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            assert list(recursion_residuals(x, nsk)) == c04_pairs(n)


class TestStackedRecursion:
    """The stacked residuals are bit-equal to the per-pair loop, in its key order."""

    def check(self, x, nsk):
        got, expected = recursion_residuals(x, nsk), loop_recursion_residuals(x, nsk)
        assert list(got) == list(expected)
        assert [np.float64(v).tobytes() for v in got.values()] == \
            [np.float64(v).tobytes() for v in expected.values()]
        assert all(type(v) is float for v in got.values())

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_bit_equal_to_pair_loop(self, d):
        rng = np.random.default_rng(40 + d)
        for n in range(max(d, 1), 21):
            if (n - d) % 2 == 0:
                self.check(random_sym(n, rng), structure(f"nullity{d}", n, rng))

    @pytest.mark.parametrize("limit", [0, 6000, 20000])
    def test_split_batches_bit_equal(self, monkeypatch, limit):
        batches = []
        batch = invariants._recursion_batch
        monkeypatch.setattr(invariants, "RECURSION_BATCH_BYTES", limit)
        # record the powers per batch: a[2] is the list of low-side pieces, one per power
        monkeypatch.setattr(invariants, "_recursion_batch",
                            lambda *a: batches.append(len(a[2])) or batch(*a))
        rng = np.random.default_rng(43)
        for n, d in [(9, 1), (12, 0), (14, 2)]:
            batches.clear()
            self.check(random_sym(n, rng), structure(f"nullity{d}", n, rng))
            assert sum(batches) == n - 1 and len(batches) > 1  # powers per batch
            if limit == 0:
                assert batches == [1] * (n - 1)  # every power on its own

    def test_default_limit_splits_at_n24(self, monkeypatch):
        # 2 * 8 * 24^2 bytes per pair: the default limit is passed at k = 15 and k = 21
        batches = []
        batch = invariants._recursion_batch
        monkeypatch.setattr(invariants, "_recursion_batch",
                            lambda *a: batches.append(len(a[2])) or batch(*a))
        rng = np.random.default_rng(44)
        self.check(random_sym(24, rng), structure("nullity0", 24, rng))
        assert batches == [15, 6, 2]  # powers per batch

    def test_nan_state_propagates(self):
        x = np.full((4, 4), np.nan)
        nsk = canonical_skew_matrix([1.0, 2.0])
        got = invariants._recursion_batch(x, nsk, [np.eye(4)[None]], [np.eye(4)[None]])
        assert np.isnan(got[0])
