import math
import os
import subprocess
import sys
import textwrap
from itertools import combinations

import numpy as np
import pytest

from symflow import invariants
from symflow.matrix_core import frob_norm, frobenius_inner, max_abs, random_skew, random_sym, symmetrize
from symflow.poisson import lie_poisson_tensor
from symflow.invariants import (
    ODD_COEFF_TOL,
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


def zero_filled_stacks(x, nsk, k_max):
    """The stacks of (X + tN)^k built as _power_stacks once built them: each a fresh zeroed
    array, the X products added onto rows 0..k-1 and the N products onto rows 1..k."""
    acc = np.stack([x, nsk])
    for k in range(1, k_max + 1):
        if k > 1:
            new = np.zeros((k + 1,) + x.shape)
            new[:-1] += acc @ x
            new[1:] += acc @ nsk
            acc = new
        yield acc


def loop_harvest(x, nsk, with_gradients):
    """Reference harvest with one np.trace call per coefficient (k, j).

    Returns the (k, j) keys, the values and the stacked (members, n, n)
    gradients (None without them), all in the order the loop visits them.
    """
    n = x.shape[0]
    keys, values, gradients = [], [], []
    scale_base = frob_norm(x) + frob_norm(nsk)
    prev = None
    for k, power in enumerate(zero_filled_stacks(x, nsk, n - 1), start=1):
        for j in range(0, k):
            tr = float(np.trace(power[j])) / k
            if j % 2 == 1:
                if abs(tr) > ODD_COEFF_TOL * max(1.0, scale_base**k):
                    raise ArithmeticError(
                        f"odd-power trace coefficient (k={k}, j={j}) is {tr:.3e}, "
                        "expected a structural zero"
                    )
                continue
            keys.append((k, j))
            values.append(tr)
            if with_gradients:
                gradients.append(np.eye(n) if k == 1 else symmetrize(prev[j]))
        prev = power
    gradients = np.array(gradients).reshape(len(keys), n, n) if with_gradients else None
    return keys, np.array(values), gradients


def by_key(values, n):
    """The (k, 2r) -> value dict of a table-order values or gradients array of size n."""
    assert len(values) == len(admissible_indices(n))
    return dict(zip(admissible_indices(n), values))


def loop_recursion_residuals(x, nsk):
    """Reference recursion residuals: both tensors applied to one (k, r) pair at a time."""
    n = x.shape[0]
    out = {}
    prev = None  # stack of (X + tN)^{k-1}
    for k, power in enumerate(zero_filled_stacks(x, nsk, n - 1), start=1):
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
        (stack,) = zero_filled_stacks(x, nsk, 1)
        assert np.array_equal(stack, np.stack([x, nsk]))

    def test_power_two_expansion(self):
        rng = np.random.default_rng(1)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        _, stack = zero_filled_stacks(x, nsk, 2)
        assert np.array_equal(stack[0], x @ x)
        assert np.array_equal(stack[1], x @ nsk + nsk @ x)
        assert np.array_equal(stack[2], nsk @ nsk)

    def test_stack_count_and_shapes(self):
        x, nsk = np.eye(4), canonical_skew_matrix([1.0, 2.0])
        assert list(zero_filled_stacks(x, nsk, 0)) == []
        shapes = [stack.shape for stack in zero_filled_stacks(x, nsk, 5)]
        assert shapes == [(k + 1, 4, 4) for k in range(1, 6)]

    def test_trace_oracle_every_coefficient(self):
        # every (k, j), odd structural zeros included, against the word sum
        rng = np.random.default_rng(2)
        for n in range(2, 7):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            for k, stack in enumerate(zero_filled_stacks(x, nsk, n - 1), start=1):
                for j in range(k + 1):
                    oracle = trace_coefficient_oracle(x, nsk, k, j)
                    assert np.trace(stack[j]) == pytest.approx(oracle, abs=1e-12)
                    if j % 2 == 1:
                        assert abs(np.trace(stack[j])) <= 1e-13

    def test_eval_matches_direct(self):
        rng = np.random.default_rng(3)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        *_, stack = zero_filled_stacks(x, nsk, 3)
        for t in (-1.0, 0.3, 2.0):
            direct = np.linalg.matrix_power(x + t * nsk, 3)
            assert max_abs(np.polynomial.polynomial.polyval(t, stack) - direct) <= 1e-12


def walk_windows(x, nsk, k_max):
    """The buffer of a walk to P^k_max, its least size, and _power_stacks over it."""
    buffer = np.empty((2 * (2 * k_max + 1) + k_max,) + x.shape)
    return buffer, _power_stacks(x, nsk, k_max, buffer)


class TestPowerStacksInPlace:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17])
    def test_bits_equal_zero_filled_stacks(self, n):
        # the in-place rows skip the zeros the old build added first, which
        # would turn a -0.0 product into +0.0; the products are sums that start
        # from +0.0, so none is -0.0, and the bits agree, signed-zero inputs
        # too; each window is read as it is yielded: [P^{k-1}; P^k]
        rng = np.random.default_rng(n)
        signed = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        for x in (random_sym(n, rng), np.minimum(signed, signed.T), np.eye(n)):
            for nsk in (random_skew(n, rng), np.zeros((n, n)), -np.zeros((n, n))):
                before = np.eye(n)[None]
                _, windows = walk_windows(x, nsk, n)
                for k, (window, stack) in enumerate(zip(windows, zero_filled_stacks(x, nsk, n), strict=True), start=1):
                    assert window.shape == (2 * k + 1, n, n)
                    assert window[:k].tobytes() == before.tobytes()
                    assert window[k:].tobytes() == stack.tobytes()
                    before = stack

    def test_stack_of_states_row_by_row(self):
        # a (B, n, n) stack yields (2k+1, B, n, n) windows whose column b is state b's own
        rng = np.random.default_rng(4)
        x, nsk = np.stack([random_sym(5, rng) for _ in range(3)]), random_skew(5, rng)
        alone = [list(zero_filled_stacks(state, nsk, 4)) for state in x]
        _, windows = walk_windows(x, nsk, 4)
        for k, window in enumerate(windows, start=1):
            assert window.shape == (2 * k + 1, 3, 5, 5)
            for b in range(3):
                assert window[k:, b].tobytes() == alone[b][k - 1].tobytes()

    def test_window_lifetime(self):
        # every window lies in the one buffer; window k stays valid while
        # window k+1 is out, and window k+2 is written over it
        rng = np.random.default_rng(5)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        buffer, windows = walk_windows(x, nsk, 5)
        kept = []
        for k, window in enumerate(windows, start=1):
            assert np.shares_memory(window, buffer)
            if k > 1:
                last, text = kept[-1]
                assert not np.shares_memory(window, last)
                assert last.tobytes() == text
            if k > 2:
                assert np.shares_memory(window, kept[-2][0])
            kept.append((window, window.tobytes()))
        assert len(kept) == 5

    def test_stacked_harvest_raises_the_first_failing_state(self):
        nsk = canonical_skew_matrix([1.0, 2.0])
        x = np.stack([random_sym(4, np.random.default_rng(i)) for i in range(3)])
        x[1] = np.diag([1e200, 1.0, 2.0, 3.0])
        x[2] = np.diag([1e250, 1.0, 2.0, 3.0])
        with pytest.raises(OverflowError, match=r"1\.000e\+200\^k passes the float range"):
            invariant_table(x, nsk)
        rng = np.random.default_rng(0)
        skewed = random_skew(6, rng) + 0.1 * random_sym(6, rng)
        x = np.stack([np.zeros((6, 6)), random_sym(6, rng), random_sym(6, rng)])
        with pytest.raises(ArithmeticError) as raised:
            invariant_table(x, skewed)
        with pytest.raises(ArithmeticError) as alone:
            invariant_table(x[1], skewed)
        assert str(raised.value) == str(alone.value)


class TestWalkSubStacks:
    """A stack walks in sub-stacks of at most WALK_STACK_BYTES, each state's values kept bit for bit."""

    @staticmethod
    def walked_sizes(monkeypatch):
        sizes, walk = [], invariants._trace_walk
        monkeypatch.setattr(invariants, "_trace_walk", lambda x, *args: sizes.append(len(x)) or walk(x, *args))
        return sizes

    @pytest.mark.parametrize("n, count, walks", [(8, 40, [16, 16, 8]), (32, 5, [1] * 5), (33, 3, [1] * 3)])
    def test_stack_equals_each_state(self, monkeypatch, n, count, walks):
        rng = np.random.default_rng(n)
        x, nsk = np.stack([random_sym(n, rng) for _ in range(count)]), structure(f"nullity{n % 2}", n, rng)
        x[1] = 0.0
        sizes = self.walked_sizes(monkeypatch)
        values = invariant_table(x, nsk)
        assert sizes == walks
        assert values.shape == (count, invariant_count(n))
        for row, state in zip(values, x):
            assert row.tobytes() == invariant_table(state, nsk).tobytes()

    @staticmethod
    def loop_error(states, nsk, kind):
        """The error a loop of per-state calls raises first."""
        for state in states:
            try:
                invariant_table(state, nsk)
            except kind as exc:
                return str(exc)
        raise AssertionError("no state fails")

    def test_range_error_from_a_later_sub_stack(self, monkeypatch):
        # states 21 and 37 pass the float range, in the second and third walks of 16
        nsk = canonical_skew_matrix([1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(3)
        x = np.stack([random_sym(8, rng) for _ in range(40)])
        x[21], x[37] = np.diag([3e200] + [1.0] * 7), np.diag([1e250] + [1.0] * 7)
        sizes = self.walked_sizes(monkeypatch)
        with pytest.raises(OverflowError) as raised:
            invariant_table(x, nsk)
        assert sizes == []  # decided before any walk
        assert str(raised.value) == self.loop_error(x, nsk, OverflowError)
        assert "3.000e+200" in str(raised.value)

    def test_odd_error_from_a_later_sub_stack(self):
        # a symmetric part in N breaks the odd structural zeros of every state but X = 0:
        # states 0..20 pass, state 21 opens the second walk's failures
        rng = np.random.default_rng(4)
        skewed = random_skew(8, rng) + 0.1 * random_sym(8, rng)
        x = np.stack([random_sym(8, rng) for _ in range(40)])
        x[:21] = 0.0
        with pytest.raises(ArithmeticError) as raised:
            invariant_table(x, skewed)
        with pytest.raises(ArithmeticError) as alone:
            invariant_table(x[21], skewed)
        assert str(raised.value) == str(alone.value) == self.loop_error(x, skewed, ArithmeticError)
        with pytest.raises(ArithmeticError) as other:
            invariant_table(x[22], skewed)
        assert str(other.value) != str(alone.value)  # the message tells the states apart


@pytest.mark.parametrize("kind", ["canonical", "kernel", "random"])
@pytest.mark.parametrize("n", [*range(1, 20), 24, 31, 32, 33])
def test_lone_state_walks_as_a_stack_of_one(n, kind):
    # the values, the member gradients and the table beyond them of an (n, n)
    # state are those of the same state as a (1, n, n) stack, bit for bit
    rng = np.random.default_rng(1000 + n)
    nsk = {"canonical": lambda: canonical_skew_matrix(np.linspace(1.5, 0.5, n // 2), n % 2),
           "kernel": lambda: structure(f"nullity{2 - n % 2}", n, rng),  # dense, beside a kernel of 1 or 2
           "random": lambda: random_skew(n, rng)}[kind]()
    for x in (random_sym(n, rng), np.zeros((n, n))):
        values = invariant_table(x, nsk)
        assert values.shape == (invariant_count(n),)
        assert values.tobytes() == invariant_table(x[None], nsk)[0].tobytes()
        for beyond in (False, True):
            got_values, gradients = gradient_table(x, nsk, beyond)
            stacked_values, stacked = gradient_table(x[None], nsk, beyond)
            assert gradients.shape == (invariant_count(n + beyond), n, n)
            assert got_values.tobytes() == values.tobytes() == stacked_values[0].tobytes()
            assert gradients.tobytes() == stacked[:, 0].tobytes()


FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from symflow.invariants import invariant_table
    from symflow.matrix_core import random_skew, random_sym
    rng = np.random.default_rng(32)
    x, nsk = np.stack([random_sym(32, rng) for _ in range(5)]), random_skew(32, rng)
    invariant_table(x, nsk)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        invariant_table(x, nsk)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults are counted on Linux")
def test_monitor_walks_reuse_their_pages():
    # each walk at n = 32 runs in one buffer of 83 matrices, which the
    # allocator hands back call after call: a walk that allocates each window,
    # N product and transposed stack apart faults hundreds of pages per call
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(invariants.__file__)))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True, text=True, check=True)
    assert int(probe.stdout) <= 20


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
        assert invariant_table(x, nsk).shape == (0,)
        values, gradients = gradient_table(x, nsk)
        assert values.shape == (0,) and gradients.shape == (0, 1, 1)

    def test_n4_index_set(self):
        assert admissible_indices(4) == [(1, 0), (2, 0), (3, 0), (3, 2)]


class TestInvariantTable:
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 33])
    def test_empty_stack(self, n):
        nsk = random_skew(n, np.random.default_rng(n))
        values = invariant_table(np.empty((0, n, n)), nsk)
        assert values.shape == (0, invariant_count(n)) and values.dtype == np.float64

    def test_n4_keys(self):
        # one float64 value per member, in the order (1, 0), (2, 0), (3, 0), (3, 2)
        rng = np.random.default_rng(4)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        values = invariant_table(x, nsk)
        assert values.shape == (4,) and values.dtype == np.float64
        expected = [np.trace(x), np.trace(x @ x) / 2, np.trace(x @ x @ x) / 3, np.trace(nsk @ nsk @ x)]
        assert values == pytest.approx(expected, abs=1e-13)

    def test_h32_closed_form(self):
        # coefficient (3, 2) equals trace(n^2 x)
        rng = np.random.default_rng(5)
        for n in (4, 5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            values = by_key(invariant_table(x, nsk), n)
            assert values[(3, 2)] == pytest.approx(np.trace(nsk @ nsk @ x), abs=1e-13)

    def test_h42_closed_form(self):
        # coefficient (4, 2) equals trace(n^2 x^2) + trace(n x n x) / 2
        rng = np.random.default_rng(6)
        for n in (5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            values = by_key(invariant_table(x, nsk), n)
            expected = np.trace(nsk @ nsk @ x @ x) + 0.5 * np.trace(nsk @ x @ nsk @ x)
            assert values[(4, 2)] == pytest.approx(expected, abs=1e-13)

    def test_zero_structure(self):
        rng = np.random.default_rng(7)
        x = random_sym(5, rng)
        for (k, j), val in by_key(invariant_table(x, np.zeros((5, 5))), 5).items():
            if j == 0:
                assert val == pytest.approx(np.trace(np.linalg.matrix_power(x, k)) / k, abs=1e-14)
            else:
                assert val == 0.0

    def test_zero_state(self):
        # every member has at least one state factor, so all values vanish
        rng = np.random.default_rng(8)
        nsk = random_skew(6, rng)
        assert np.max(np.abs(invariant_table(np.zeros((6, 6)), nsk))) == 0.0

    def test_multi_index_oracle(self):
        # the table stores 1/k times the bare multi-index sum
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            values = by_key(invariant_table(x, nsk), n)
            for k in range(1, min(4, n)):
                for j in range(0, k, 2):
                    oracle = trace_coefficient_oracle(x, nsk, k, j)
                    assert k * values[(k, j)] == pytest.approx(oracle, abs=1e-12)

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
        gradients = by_key(gradient_table(x, nsk)[1], 4)
        assert np.array_equal(gradients[(2, 0)], x)

    def test_h10_gradient_is_identity(self):
        rng = np.random.default_rng(12)
        x, nsk = random_sym(3, rng), random_skew(3, rng)
        assert np.array_equal(by_key(gradient_table(x, nsk)[1], 3)[(1, 0)], np.eye(3))

    def test_top_even_gradient_is_structure_power(self):
        # for odd k the (k, k-1) gradient is the constant n^{k-1}
        rng = np.random.default_rng(13)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        gradients = by_key(gradient_table(x, nsk)[1], 6)
        for k in (3, 5):
            expected = np.linalg.matrix_power(nsk, k - 1)
            assert max_abs(gradients[(k, k - 1)] - expected) <= 1e-14

    def test_gradients_exactly_symmetric(self):
        rng = np.random.default_rng(14)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        gradients = gradient_table(x, nsk)[1]
        assert np.array_equal(gradients, gradients.transpose(0, 2, 1))

    def test_finite_difference_oracle(self):
        # central difference of each value along a random direction
        rng = np.random.default_rng(15)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        gradients = gradient_table(x, nsk)[1]
        y = random_sym(6, rng)
        eps = 1e-5
        fds = (invariant_table(x + eps * y, nsk) - invariant_table(x - eps * y, nsk)) / (2 * eps)
        for fd, grad in zip(fds, gradients, strict=True):
            assert fd == pytest.approx(frobenius_inner(grad, y), abs=1e-6)


def every_pair_trace(x, nsk):
    """_trace_walk's values with the pair traces of k = n computed too, then dropped."""
    n = x.shape[0]
    half = n // 2
    grams, prev = [], np.eye(n)[None]
    for m, power in enumerate(zero_filled_stacks(x, nsk, half), start=1):
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
        # the (members, n, n) gradient stack bit for bit, and the loop visits
        # admissible_indices in order; the values sum half-power pair traces,
        # so they agree with the full-power traces at roundoff, on the scale
        # of the k-th power, and both tables share them bit for bit
        rng = np.random.default_rng(n)
        nsk = structure(kind, n, rng)
        for x in (random_sym(n, rng), np.zeros((n, n))):
            values = invariant_table(x, nsk)
            keys, expected_values, expected_gradients = loop_harvest(x, nsk, True)
            assert keys == admissible_indices(n)
            got_values, gradients = gradient_table(x, nsk)
            assert got_values.tobytes() == values.tobytes()
            assert gradients.shape == expected_gradients.shape == (len(keys), n, n)
            assert gradients.tobytes() == expected_gradients.tobytes()
            base = frob_norm(x) + frob_norm(nsk)
            for (k, j), value, expected in zip(keys, values, expected_values, strict=True):
                assert abs(value - expected) <= 1e-14 * max(1.0, base**k)

    def test_every_coefficient_against_oracle(self):
        # odd and top coefficients included, from both walk depths
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            traces = _trace_walk(x[None], nsk, n // 2, None)[0]
            gradients = np.empty((invariant_count(n), 1, n, n))
            assert np.array_equal(traces, _trace_walk(x[None], nsk, max(n - 2, n // 2), gradients)[0])
            for k in range(1, n):
                for j in range(n):
                    oracle = trace_coefficient_oracle(x, nsk, k, j) / k
                    assert traces[k - 1, j] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 33])
    def test_walk_depth(self, monkeypatch, n):
        # values need powers up to ceil((n-1)/2), gradients up to n-2
        walked = []

        def counted(x, nsk, k_max, buffer):
            for window in _power_stacks(x, nsk, k_max, buffer):
                walked.append(len(window) // 2)
                yield window

        monkeypatch.setattr(invariants, "_power_stacks", counted)
        rng = np.random.default_rng(n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        half = math.ceil((n - 1) / 2)
        invariant_table(x, nsk)
        assert walked == list(range(1, half + 1))
        walked.clear()
        gradient_table(x, nsk)
        assert walked == list(range(1, max(n - 2, half) + 1))
        walked.clear()
        gradient_table(x, nsk, beyond=True)
        assert walked == list(range(1, max(n - 1, half) + 1))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32])
    def test_family_beyond_the_table(self, n):
        # the members keep their bits, and the rows past them are the
        # symmetrized even coefficients of (X + tN)^{n-1}
        rng = np.random.default_rng(n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        values, members = gradient_table(x, nsk)
        got_values, table = gradient_table(x, nsk, beyond=True)
        assert table.shape == (invariant_count(n + 1), n, n)
        assert got_values.tobytes() == values.tobytes()
        assert table[:len(members)].tobytes() == members.tobytes()
        *_, power = zero_filled_stacks(x, nsk, n - 1)
        assert table[len(members):].tobytes() == symmetrize(power[0::2]).tobytes()

    @pytest.mark.parametrize("n", [4, 16, 32, 33])
    def test_gradient_walk_past_the_zeroed_window(self, n):
        # at even n the values' last GEMM reads [P^{m-1}; 0], m = n/2, built in
        # the half of the buffer the next window takes; the gradients go on
        # past it to (X + tN)^{n-1}, each row bit for bit its zero-filled stack's
        rng = np.random.default_rng(n)
        for nsk in (random_skew(n, rng), canonical_skew_matrix(rng.uniform(0.5, 1.5, n // 2), n % 2)):
            x = random_sym(n, rng)
            values, table = gradient_table(x, nsk, beyond=True)
            stacks = zero_filled_stacks(x, nsk, n - 1)
            expected = np.concatenate([np.eye(n)[None]] + [symmetrize(stack[0::2]) for stack in stacks])
            assert table.tobytes() == expected.tobytes()
            assert values.tobytes() == invariant_table(x, nsk).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 10, 12, 20, 28, 32, 33])
    def test_traces_beyond_the_table_left_out_bit_for_bit(self, n):
        # even n zeroes the k = n rows of the last GEMM instead of dropping
        # them: a GEMM with fewer rows rounds differently at n = 10, 12, ...
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            traces = _trace_walk(x[None], nsk, n // 2, None)[0]
            assert np.array_equal(traces.view(np.int64), every_pair_trace(x, nsk).view(np.int64))

    def test_no_overflow_beyond_the_table(self):
        nsk = canonical_skew_matrix([1.0, 2.0])
        x = np.diag([1e90, 1.0, 2.0, 3.0])
        with np.errstate(over="raise"):
            values = invariant_table(x, nsk)
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("big", [1e200, 1e306, 1.7e308])
    def test_scale_past_the_squares_range_raises_before_the_walk(self, big):
        # |X|_F of an entry past about 1.3e154 overflows as a plain sum of
        # squares; the scaled norm stays finite, so base^3 is what overflows
        nsk = canonical_skew_matrix([1.0, 2.0])
        x = np.diag([big, 1.0, 2.0, 3.0])
        for harvest in (invariant_table, gradient_table):
            with np.errstate(over="raise", invalid="raise"), pytest.raises(OverflowError) as raised:
                harvest(x, nsk)
            assert str(raised.value) == (
                f"(|X|_F + |N|_F)^k = {big:.3e}^k passes the float range before k = 3")

    def test_infinite_scale_raises(self):
        # both norms finite, their sum past the float range
        nsk = canonical_skew_matrix([1e308])
        with np.errstate(over="raise", invalid="raise"), pytest.raises(OverflowError) as raised:
            invariant_table(np.diag([1e308, 0.0]), nsk)
        assert str(raised.value).startswith("(|X|_F + |N|_F)^k = inf^k passes the float range")

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
        got, expected = _harvest(x, nsk, None)[0], loop_harvest(x, nsk, False)[1]
        assert np.isnan(got).any()
        assert np.array_equal(got, expected, equal_nan=True)


def table_images(x, nsk, table):
    """The images recursion_residuals reads: Lie-Poisson of the table's members, frozen of the whole table."""
    return lie_poisson_tensor(x, table[:invariant_count(len(x))], nsk), frozen_tensor(table, nsk)


def table_residuals(x, nsk):
    """The recursion residuals at x from the images of its gradient table with the (n, 2r) family."""
    return recursion_residuals(*table_images(x, nsk, gradient_table(x, nsk, beyond=True)[1]))


def frequency_structure(kind, d, n, rng):
    """A skew N of size n and nullity d, rotated densely, with equal, mixed or integer frequencies."""
    p = (n - d) // 2
    freqs = {"equal": np.full(p, 1.3), "mixed": rng.choice([0.8, 1.3], p), "integer": np.arange(1.0, p + 1)}[kind]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ canonical_skew_matrix(freqs, d) @ q.T
    return (a - a.T) / 2


# distinct frequencies are test_bit_equal_to_pair_loop's
RECURSION_CASES = [(n, d, kind) for n in range(1, 18) for d in range(3) if d <= n and (n - d) % 2 == 0
                   for kind in ("equal", "mixed", "integer")]
RECURSION_CASES += [(n, n % 2, "random") for n in range(1, 18)]


class TestRecursion:
    def test_first_rung_exact(self):
        # k = 1, r = 1 compares the flow generated through both structures
        rng = np.random.default_rng(17)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        assert table_residuals(x, nsk)[(1, 1)] <= 1e-15

    def test_nontrivial_example(self):
        # (k, r) = (3, 1): gradients of the (3, 2) and (4, 2) members
        rng = np.random.default_rng(18)
        for n in (4, 5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            assert table_residuals(x, nsk)[(3, 1)] <= 1e-14

    def test_hamiltonian_chain(self):
        # r = k: the plain trace-power Hamiltonians chain through both tensors
        rng = np.random.default_rng(19)
        x, nsk = random_sym(6, rng), random_skew(6, rng)
        residuals = table_residuals(x, nsk)
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
        assert max(table_residuals(x, nsk).values()) <= 1e-13

    def test_keys_match_c04_pairs(self):
        # ascending order too: the certificate's worst_pair breaks ties by it
        rng = np.random.default_rng(22)
        for n in range(2, 9):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            assert list(table_residuals(x, nsk)) == c04_pairs(n)


class TestStackedRecursion:
    """The residuals from the gradient table are bit-equal to the per-pair loop, in its key order."""

    def check(self, x, nsk):
        got, expected = table_residuals(x, nsk), loop_recursion_residuals(x, nsk)
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

    @pytest.mark.parametrize("n, d, kind", RECURSION_CASES)
    def test_bit_equal_over_frequency_patterns(self, n, d, kind):
        rng = np.random.default_rng(1000 * n + 10 * d + len(kind))
        nsk = random_skew(n, rng) if kind == "random" else frequency_structure(kind, d, n, rng)
        self.check(random_sym(n, rng), nsk)

    @pytest.mark.parametrize("n", [*range(1, 18), 32, 33])
    def test_images_of_one_table_bit_equal_to_pair_loop(self, n):
        # every family's residuals from the two images of the whole table
        rng = np.random.default_rng(500 + n)
        self.check(random_sym(n, rng), random_skew(n, rng))

    def test_one_by_one_has_no_pairs(self):
        # the table with the family beyond it holds the (1, 0) gradient only
        x, nsk = np.ones((1, 1)), np.zeros((1, 1))
        assert gradient_table(x, nsk)[1].shape == (0, 1, 1)
        table = gradient_table(x, nsk, beyond=True)[1]
        assert np.array_equal(table, np.ones((1, 1, 1)))
        assert recursion_residuals(*table_images(x, nsk, table)) == {} == loop_recursion_residuals(x, nsk)

    def test_two_by_two_single_pair(self):
        # (1, 1) pairs the identity with the (2, 0) gradient X: X N - N X both ways, exactly
        rng = np.random.default_rng(45)
        x, nsk = random_sym(2, rng), canonical_skew_matrix([1.5])
        table = gradient_table(x, nsk, beyond=True)[1]
        assert np.array_equal(table, np.stack([np.eye(2), x]))
        assert recursion_residuals(*table_images(x, nsk, table)) == {(1, 1): 0.0}

    def test_nan_state_propagates(self):
        # the public entries reject a NaN state, so the table is a finite state's
        nsk = canonical_skew_matrix([1.0, 2.0])
        table = gradient_table(random_sym(4, np.random.default_rng(46)), nsk, beyond=True)[1]
        got = recursion_residuals(*table_images(np.full((4, 4), np.nan), nsk, table))
        assert list(got) == c04_pairs(4) and np.isnan(list(got.values())).all()
