import dataclasses
import warnings

import numpy as np
import pytest

from symflow.matrix_core import frob_norm, max_abs, random_skew, random_sym, symmetrize
from symflow.invariants import invariant_count, invariant_table
from symflow.poisson import (
    canonical_form,
    canonical_skew_matrix,
    frozen_tensor,
    lie_poisson_casimirs,
    lie_poisson_tensor,
)
from symflow import dynamics
from symflow.dynamics import (
    FlowDivergenceError,
    IntegratorConfig,
    _record_group,
    _records,
    integrate,
    lax_residual,
    vector_field,
)

N2 = canonical_skew_matrix([1.0])


def commutator_field(x, n_skew):
    """The three-product commutator [x^2, n] that vector_field replaced, the reference form."""
    x2 = x @ x
    return x2 @ n_skew - n_skew @ x2


def projected_integrate(x0, n_skew, h, steps):
    """RK4 on commutator_field with a symmetric projection after every step, the reference loop."""
    x = symmetrize(x0)
    for _ in range(steps):
        k1 = commutator_field(x, n_skew)
        k2 = commutator_field(x + 0.5 * h * k1, n_skew)
        k3 = commutator_field(x + 0.5 * h * k2, n_skew)
        k4 = commutator_field(x + h * k3, n_skew)
        x = symmetrize(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return x


class TestVectorField:
    def test_2x2_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, d = rng.uniform(-1, 1, 3)
            x = np.array([[a, b], [b, d]])
            expected = (a + d) * np.array([[-2 * b, a - d], [a - d, 2 * b]])
            assert max_abs(vector_field(x, N2) - expected) <= 1e-14

    def test_frozen_numeric_point(self):
        # direct evaluation at a = 1, b = 2, d = 3
        x = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(vector_field(x, N2), [[-16.0, -8.0], [-8.0, 16.0]], atol=1e-13)

    def test_scalar_state_is_equilibrium(self):
        assert max_abs(vector_field(0.7 * np.eye(2), N2)) == 0.0

    def test_result_symmetric(self):
        rng = np.random.default_rng(1)
        x, nsk = random_sym(5, rng), random_skew(5, rng)
        f = vector_field(x, nsk)
        assert max_abs(f - f.T) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 34))
    def test_exactly_symmetric_and_matches_commutator(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            f = vector_field(x, nsk)
            assert np.array_equal(f, f.T)
            scale = frob_norm(x) ** 2 * frob_norm(nsk)
            assert max_abs(f - commutator_field(x, nsk)) <= 1e-15 * scale

    @pytest.mark.parametrize("n", range(1, 34))
    def test_bits_match_reference_form(self, n):
        # the transposed copy is exact, so the buffered, the allocating and
        # the `@` forms agree bit for bit
        rng = np.random.default_rng(500 + n)
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        buf = np.empty((n, n))
        assert vector_field(x, nsk, out=buf) is buf
        assert buf.tobytes() == vector_field(x, nsk).tobytes() == matmul_field(x, nsk).tobytes()

    def test_bi_hamiltonian_generation(self):
        # the same field through either Poisson structure
        rng = np.random.default_rng(2)
        for n in (2, 4, 6, 8):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            f = vector_field(x, nsk)
            assert max_abs(f - lie_poisson_tensor(x, x, nsk)) <= 1e-13
            assert max_abs(f - frozen_tensor(x @ x, nsk)) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vector_field(np.eye(2), np.zeros((3, 3)))


class TestLaxResidual:
    def test_zero_parameter(self):
        rng = np.random.default_rng(3)
        x, nsk = random_sym(4, rng), random_skew(4, rng)
        assert lax_residual(x, nsk, 0.0) <= 1e-15

    def test_random_parameters(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 6):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            for lam in (-1.0, 0.5, 1.0, 3.0):
                assert lax_residual(x, nsk, lam) <= 1e-12

    def test_zero_structure(self):
        rng = np.random.default_rng(5)
        x = random_sym(3, rng)
        assert lax_residual(x, np.zeros((3, 3)), 1.0) == 0.0

    def test_lambda_sequence_bit_equal_to_scalar_calls(self):
        # the lam-free products are taken once; each lam keeps the arithmetic of
        # the commutator form written out for it alone
        rng = np.random.default_rng(6)
        lams = (-1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
        for n in (1, 2, 5, 8, 16):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            got = lax_residual(x, nsk, lams)
            assert type(got) is list and all(type(v) is float for v in got)
            scalar = [lax_residual(x, nsk, lam) for lam in lams]
            assert all(type(v) is float for v in scalar)
            assert np.array(got).tobytes() == np.array(scalar).tobytes()
            for lam, value in zip(lams, got):
                lax_matrix, companion = x + lam * nsk, nsk @ x + x @ nsk + lam * (nsk @ nsk)
                direct = max_abs(vector_field(x, nsk) - (lax_matrix @ companion - companion @ lax_matrix))
                assert np.float64(value).tobytes() == np.float64(direct).tobytes()


def geodesic_departure(x, n_skew):
    """|N·[X^2, N] - [xi^T, xi]|_F / max(1, |[xi^T, xi]|_F) with xi = NX, the group momentum."""
    xi = n_skew @ x
    euler = xi.T @ xi - xi @ xi.T
    return frob_norm(n_skew @ vector_field(x, n_skew) - euler) / max(1.0, frob_norm(euler))


class TestFrobeniusGeodesic:
    """With xi = NX, the flow is the left-invariant Frobenius geodesic xi' = [xi^T, xi] exactly when N is
    proportional to J; for other N it is the paper's extension."""

    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    @pytest.mark.parametrize("v", [1.0, 2.5, 0.3])
    def test_holds_for_n_proportional_to_j(self, n, v):
        rng = np.random.default_rng(n)
        n_skew = canonical_skew_matrix([v] * (n // 2))
        for x in (random_sym(n, rng), symmetrize(rng.standard_normal((n, n)))):
            assert geodesic_departure(x, n_skew) <= 1e-14

    def test_departs_for_distinct_frequencies(self):
        rng = np.random.default_rng(8)
        n_skew = canonical_skew_matrix(0.5 + rng.random(4))
        assert geodesic_departure(random_sym(8, rng), n_skew) > 1e-3


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, t_end=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, t_end=1.0, scheme="euler")
        for stride in (0, 2.5, 10.0, True, False, "10", None):
            with pytest.raises(ValueError):
                IntegratorConfig(step=0.1, t_end=1.0, monitor_stride=stride)
        for step, t_end in ((0.1, float("inf")), (float("nan"), 1.0), (float("inf"), 1.0),
                            (0.1, float("nan"))):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step, t_end=t_end)

    def test_integer_strides_accepted(self):
        for stride in (1, 7, np.int64(3)):
            assert IntegratorConfig(step=0.1, t_end=1.0, monitor_stride=stride).monitor_stride == stride

    def test_zero_horizon_allowed(self):
        cfg = IntegratorConfig(step=0.1, t_end=0.0)
        assert cfg.n_steps == 0


def matmul_field(x, n_skew):
    """vector_field in its allocating `@` form, the reference form."""
    m = (x @ x) @ n_skew
    return m + m.T


def rk4_step(x, n_skew, h):
    """The allocating RK4 step that integrate's buffered stepper replaced, the reference form."""
    k1 = matmul_field(x, n_skew)
    k2 = matmul_field(x + 0.5 * h * k1, n_skew)
    k3 = matmul_field(x + 0.5 * h * k2, n_skew)
    k4 = matmul_field(x + h * k3, n_skew)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def first_non_finite_step(x0, n_skew, h, n_steps):
    """Index of the first non-finite state of the reference step loop, or None."""
    x = symmetrize(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        for step_index in range(1, n_steps + 1):
            x = rk4_step(x, n_skew, h)
            if not np.isfinite(x).all():
                return step_index
    return None


def list_integrate(x0, n_skew, config):
    """The list-based state loop integrate replaced, the reference form."""
    x = symmetrize(x0)
    times, states = [0.0], [x.copy()]
    for step_index in range(1, config.n_steps + 1):
        x = symmetrize(rk4_step(x, n_skew, config.step))
        times.append(step_index * config.step)
        states.append(x.copy())
    return np.asarray(times), np.asarray(states)


class TestIntegrate:
    @pytest.mark.parametrize("n_skew, t_end", [
        (np.zeros((1, 1)), 0.3),
        (N2, 0.3),
        (canonical_skew_matrix([0.7, 1.1, 1.3, 1.6]), 0.3),
        (N2, 0.0),
    ])
    def test_states_match_list_loop(self, n_skew, t_end):
        x0 = random_sym(n_skew.shape[0], np.random.default_rng(17))
        config = IntegratorConfig(step=0.01, t_end=t_end, monitor_stride=7)
        traj = integrate(x0, canonical_form(n_skew), config)
        times, states = list_integrate(x0, n_skew, config)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.states.shape == (config.n_steps + 1, *n_skew.shape)

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 16, 17, 20, 32, 33])
    def test_bit_identical_to_reference_stepper(self, n, stride):
        # 30 steps: stride 7 leaves a short last segment, 1000 makes one segment
        rng = np.random.default_rng(400 + n)
        x0, nsk = random_sym(n, rng), random_skew(n, rng)
        form = canonical_form(nsk)
        for t_end in (0.3, 0.0):
            config = IntegratorConfig(step=0.01, t_end=t_end, monitor_stride=stride)
            traj = integrate(x0, form, config)
            times, states = list_integrate(x0, nsk, config)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
            steps = [i for i in range(config.n_steps + 1) if i % stride == 0 or i == config.n_steps]
            assert np.array_equal(traj.monitor_times, [i * config.step for i in steps])
            rows = zip(traj.spectra, traj.invariant_values, traj.casimir_values, steps, strict=True)
            for spectrum, invariant_row, casimir_row, i in rows:
                assert np.array_equal(spectrum, np.linalg.eigvalsh(states[i]))
                assert np.array_equal(invariant_row, invariant_table(states[i], nsk))
                assert np.array_equal(casimir_row, lie_poisson_casimirs(form, form.to_canonical(states[i])))

    def test_equilibrium_is_exactly_constant(self):
        cfg = IntegratorConfig(step=0.01, t_end=0.5)
        traj = integrate(0.7 * np.eye(2), canonical_form(N2), cfg)
        for state in traj.states:
            assert np.array_equal(state, 0.7 * np.eye(2))

    def test_zero_structure_constant(self):
        rng = np.random.default_rng(8)
        x0 = random_sym(3, rng)
        traj = integrate(x0, canonical_form(np.zeros((3, 3))), IntegratorConfig(step=0.01, t_end=0.2))
        assert np.array_equal(traj.states[-1], x0)

    def test_zero_horizon_single_row(self):
        traj = integrate(np.eye(2), canonical_form(N2), IntegratorConfig(step=0.1, t_end=0.0))
        assert len(traj.times) == 1
        assert len(traj.monitor_times) == 1

    def test_conservation_short_run(self):
        rng = np.random.default_rng(9)
        x0 = random_sym(4, rng)
        nsk = canonical_skew_matrix([1.0, 2.0])
        traj = integrate(x0, canonical_form(nsk), IntegratorConfig(step=1e-3, t_end=1.0, monitor_stride=100))
        drift = traj.drift()
        columns = len(traj.invariant_labels) + traj.casimir_values.shape[1] + len(x0)
        assert drift.shape == (len(traj.monitor_times), columns)
        assert drift.max() <= 1e-9

    def test_trace_powers_conserved(self):
        rng = np.random.default_rng(10)
        x0 = random_sym(4, rng)
        nsk = random_skew(4, rng)
        traj = integrate(x0, canonical_form(nsk), IntegratorConfig(step=1e-3, t_end=1.0, monitor_stride=200))
        for k in (1, 2, 3):
            start = np.trace(np.linalg.matrix_power(traj.states[0], k))
            end = np.trace(np.linalg.matrix_power(traj.states[-1], k))
            assert abs(end - start) <= 1e-8 * max(1.0, abs(start))

    def test_parametric_traces_conserved(self):
        # trace((x + t n)^k) for sampled parameter values is a combination
        # of the monitored coefficients and must stay flat along the flow
        rng = np.random.default_rng(16)
        nsk = random_skew(4, rng)
        x0 = random_sym(4, rng)
        traj = integrate(x0, canonical_form(nsk), IntegratorConfig(step=1e-3, t_end=1.0))
        for lam in (0.0, 0.5, -0.5, 1.0, -1.0):
            for k in (1, 2, 3):
                start = np.trace(np.linalg.matrix_power(x0 + lam * nsk, k))
                end = np.trace(np.linalg.matrix_power(traj.states[-1] + lam * nsk, k))
                assert abs(end - start) <= 1e-9 * max(1.0, abs(start))

    def test_monitor_alignment(self):
        rng = np.random.default_rng(11)
        traj = integrate(random_sym(3, rng), canonical_form(random_skew(3, rng)),
                         IntegratorConfig(step=0.01, t_end=0.3, monitor_stride=7))
        m = len(traj.monitor_times)
        assert traj.invariant_values.shape[0] == m
        assert traj.casimir_values.shape[0] == m
        assert traj.spectra.shape[0] == m
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.monitor_times) > 0)
        assert traj.monitor_times[-1] == traj.times[-1]

    def test_states_stay_symmetric(self):
        rng = np.random.default_rng(12)
        traj = integrate(random_sym(4, rng), canonical_form(random_skew(4, rng)),
                         IntegratorConfig(step=0.01, t_end=0.5))
        for state in traj.states:
            assert np.array_equal(state, state.T)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 33])
    def test_states_exactly_symmetric_and_near_projected_loop(self, n):
        rng = np.random.default_rng(200 + n)
        x0, nsk = random_sym(n, rng), random_skew(n, rng)
        config = IntegratorConfig(step=0.01, t_end=2.0, monitor_stride=1000)
        traj = integrate(x0, canonical_form(nsk), config)
        assert np.array_equal(traj.states, traj.states.swapaxes(1, 2))
        assert max_abs(traj.states[-1] - projected_integrate(x0, nsk, 0.01, config.n_steps)) <= 1e-13

    def test_stage_sum_is_the_chained_adds(self):
        # the stepper sums ((k1 + 2 k2) + 2 k3) + k4 with one reduction over
        # the outer axis of the stage buffer, started at -0.0: it must add row
        # after row, so signed zeros and NaN payloads come out as from the
        # chained adds (numpy's add.reduce alone starts at +0.0 and turns an
        # entry that is -0.0 in every stage into +0.0); at n = 1 the only
        # structure matrix is zero, and so is every stage
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 33):
            stages = rng.standard_normal((5, n, n))
            stages[1:, 0, 0] = -0.0
            stages[2:4, -1, -1] = [0.0, -0.0]
            stages[1, 0, -1], stages[3, -1, 0] = np.nan, -np.nan
            stages[4, n // 2, n // 2], stages[2, n // 2, n // 2] = 1e300, -1e300
            k1, k2, k3, k4 = stages[1:]
            expected = ((k1 + k2) + k3) + k4
            np.add.reduce(stages[1:], 0, None, stages[0], False, -0.0)
            assert stages[0].tobytes() == expected.tobytes()
            assert np.signbit(stages[0, 0, 0])

    def test_divergence_aborts_with_time(self):
        # the reported time is the reference loop's first non-finite step,
        # wherever that step falls in its monitor segment
        # the second X0 reaches a finite state of size 1.7e167 at step 15, the
        # step before its first non-finite one; that state's Casimir passes the
        # float range, and the monitors, which run outside the steps' errstate,
        # warn where the stride monitors step 15
        for x0, huge_step in (([[100.0, 3.0], [3.0, -40.0]], None), ([[10.0, 0.3], [0.3, -4.0]], 15)):
            for stride in (1, 3, 10, 1000):
                config = IntegratorConfig(step=0.5, t_end=50.0, monitor_stride=stride)
                first = first_non_finite_step(np.array(x0), N2, config.step, config.n_steps)
                monitor_overflows = huge_step is not None and huge_step % stride == 0
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(FlowDivergenceError) as exc:
                        integrate(np.array(x0), canonical_form(N2), config)
                assert exc.value.time == first * config.step
                assert [w.category for w in caught] == [RuntimeWarning] * len(caught)
                assert bool(caught) == monitor_overflows

    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3, 8, 9, 32, 33) for d in (0, 1, 2)
                                      if d <= n and (n - d) % 2 == 0])
    def test_states_exactly_symmetric(self, n, d):
        # the trajectory writer formats only the upper triangle of each state
        rng = np.random.default_rng(10 * n + d)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        core = q @ canonical_skew_matrix(np.linspace(0.5, 1.5, (n - d) // 2), d) @ q.T
        traj = integrate(random_sym(n, rng), canonical_form((core - core.T) / 2),
                         IntegratorConfig(step=0.01, t_end=0.05, monitor_stride=2))
        bits = traj.states.view(np.int64)
        assert np.array_equal(bits, bits.transpose(0, 2, 1))

    def test_monitor_error_before_divergence_comes_first(self):
        # the records are evaluated after the steps, in groups, but an error
        # at a monitor point before the divergence is still the one raised
        x0 = np.diag([1e200, 1.0, 2.0, 3.0])
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        with pytest.raises(OverflowError, match="passes the float range before k = 3"):
            integrate(x0, form, IntegratorConfig(step=0.01, t_end=0.5))
        # N with a symmetric part breaks the odd structural zeros: the first record fails
        rng = np.random.default_rng(0)
        skewed = dataclasses.replace(form, skew=form.skew + 0.1 * random_sym(4, rng))
        with pytest.raises(ArithmeticError, match="odd-power trace coefficient"):
            integrate(10.0 * random_sym(4, rng), skewed, IntegratorConfig(step=0.5, t_end=50.0))

    @pytest.mark.parametrize("n, stride, limit", [
        pytest.param(4, 2, 0, id="0"),
        pytest.param(4, 2, 3 * 8 * 16, id="384"),
        pytest.param(4, 2, 1 << 20, id="1048576"),
        pytest.param(32, 1, 0, id="n32-0"),
    ])
    def test_grouping_keeps_every_bit(self, monkeypatch, n, stride, limit):
        # groups of 1, 3 and every monitor point record what the default groups
        # record; at n = 32 the default groups of 8 take the 21 monitor points in three
        rng = np.random.default_rng(14)
        x0, form = random_sym(n, rng), canonical_form(random_skew(n, rng))
        config = IntegratorConfig(step=0.01, t_end=0.3 if n == 4 else 0.2, monitor_stride=stride)
        sizes, record_group = [], dynamics._record_group
        monkeypatch.setattr(dynamics, "_record_group", lambda f, s: sizes.append(len(s)) or record_group(f, s))
        expected = integrate(x0, form, config)
        points = len(expected.monitor_times)  # 16 at n = 4, 21 at n = 32

        def groups(limit):
            group = min(max(1, limit // x0.nbytes), points)
            return [group] * (points // group) + [points % group] * (points % group > 0)

        assert sizes == groups(dynamics.MONITOR_GROUP_BYTES)
        sizes.clear()
        monkeypatch.setattr(dynamics, "MONITOR_GROUP_BYTES", limit)
        got = integrate(x0, form, config)
        for name in ("monitor_times", "invariant_values", "casimir_values", "spectra"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert sizes == groups(limit)

    def test_spectrum_columns_sorted(self):
        rng = np.random.default_rng(13)
        traj = integrate(random_sym(5, rng), canonical_form(random_skew(5, rng)),
                         IntegratorConfig(step=0.01, t_end=0.2))
        for row in traj.spectra:
            assert np.all(np.diff(row) >= 0)


def padded(core, d):
    """The structure matrix [[core, 0], [0, 0]] with a d-dimensional kernel."""
    m = core.shape[0]
    n_skew = np.zeros((m + d, m + d))
    n_skew[:m, :m] = core
    return n_skew


class TestIntegrateBlocks:
    """States in block coordinates: X0 = [[S, A], [A^T, B]] on the padded N = [[core, 0], [0, 0]]."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 33])
    def test_states_exactly_symmetric(self, n):
        rng = np.random.default_rng(300 + n)
        p, d = n // 2, n % 2
        s, a, b = random_sym(2 * p, rng), rng.standard_normal((2 * p, d)), random_sym(d, rng)
        form = canonical_form(padded(random_skew(2 * p, rng), d))
        traj = integrate(np.block([[s, a], [a.T, b]]), form, IntegratorConfig(step=0.01, t_end=0.5))
        for state in traj.states:
            assert np.array_equal(state, state.T)

    def test_kernel_block_constant(self):
        rng = np.random.default_rng(15)
        s, a, b = random_sym(2, rng), rng.standard_normal((2, 2)), random_sym(2, rng)
        traj = integrate(np.block([[s, a], [a.T, b]]), canonical_form(padded(N2, 2)),
                         IntegratorConfig(step=0.01, t_end=0.3))
        for state in traj.states:
            assert np.array_equal(state[2:, 2:], b)


def record_forms():
    """(n, d, form) for n in 1..33 at the sizes of the stacked-record tests, every nullity 0..2 that fits."""
    for n in (1, 2, 3, 8, 9, 10, 12, 16, 17, 32, 33):
        for d in (0, 1, 2):
            if d <= n and (n - d) % 2 == 0:
                rng = np.random.default_rng(n + 100 * d)
                q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                core = q @ canonical_skew_matrix(rng.uniform(0.5, 1.5, (n - d) // 2), d) @ q.T
                yield n, d, canonical_form((core - core.T) / 2)


def loop_casimirs(form, x):
    """Lie-Poisson Casimir values of one canonical-basis state, one trace power at a time, the reference form."""
    m = 2 * form.p
    vals = []
    if form.p > 0:
        z = x[:m, :m]
        if form.d > 0:
            a, b = x[:m, m:], x[m:, m:]
            z = z - a @ np.linalg.inv(b) @ a.T
        w = z @ form.pseudo_inverse[:m, :m]
        w2 = w @ w
        power = w2
        for k in range(1, form.p + 1):
            vals.append(float(np.trace(power)) / (2 * k))
            power = power @ w2
    rows, cols = np.triu_indices(form.d)
    kernel = [x[m + i, m + j] + x[m + j, m + i] if i != j else x[m + i, m + i] for i, j in zip(rows, cols)]
    return np.array(vals + kernel)


class TestStackedRecords:
    """A stack of monitored states records each state's values bit for bit."""

    @pytest.mark.parametrize("n, d, form", list(record_forms()))
    def test_empty_stack(self, n, d, form):
        values, casimirs, spectra = _records(form, np.empty((0, n, n)))
        assert values.shape == (0, invariant_count(n))
        assert casimirs.shape == (0, form.casimir_counts()[0])
        assert spectra.shape == (0, n)

    @pytest.mark.parametrize("n, d, form", list(record_forms()))
    def test_stack_equals_each_state(self, n, d, form):
        rng = np.random.default_rng(7 * n + d)
        states = np.stack([random_sym(n, rng) for _ in range(21)])
        states[1] = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0) + form.basis.T @ np.eye(n) @ form.basis
        states[1] = np.where(states[1] == 0.0, states[1].T, states[1])  # signed zeros, symmetric in bits
        states[2] = 0.0 if d == 0 else states[2]  # X = 0: the kernel block of a d > 0 form is singular
        states[3] = -states[2]
        for count in (1, 2, 5, 21):
            stack = states[:count]
            records = _records(form, stack)
            singles = [_records(form, state[None]) for state in stack]
            for got, alone in zip(records, zip(*singles)):
                assert got.tobytes() == np.concatenate(alone).tobytes()
            # each single record is the per-state public call
            for values, state in zip(records[0], stack):
                assert values.tobytes() == invariant_table(state, form.skew).tobytes()
            for values, state in zip(records[1], stack):
                assert values.tobytes() == lie_poisson_casimirs(form, form.to_canonical(state)).tobytes()
                assert values.tobytes() == loop_casimirs(form, form.to_canonical(state)).tobytes()
            assert records[2].tobytes() == np.stack([np.linalg.eigvalsh(state) for state in stack]).tobytes()

    def test_group_fails_as_a_loop_would(self):
        # state 1 has a singular kernel block, state 3 passes the float range of the
        # invariants: the stack meets state 3 first, a loop over the states state 1
        form = canonical_form(canonical_skew_matrix([1.0], 2))
        states = np.stack([random_sym(4, np.random.default_rng(i)) for i in range(4)])
        states[1, 2:, 2:] = 1.0
        states[3] = np.diag([1e200, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="kernel block of the state is singular"):
            _record_group(form, states)

    def test_group_warns_as_a_loop_would(self):
        # state 0's Casimir passes the float range and warns; state 2's invariant
        # bound is inf and raises: the loop warns once, then raises
        form = canonical_form(N2)
        states = np.stack([[[1e160, 1e159], [1e159, 1.0]], np.eye(2), np.full((2, 2), 1.7e308)])
        caught = []
        for evaluate in (lambda: _record_group(form, states),
                         lambda: [_records(form, state[None]) for state in states]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(OverflowError, match="inf\\^k passes the float range"):
                    evaluate()
            caught.append([(w.category, str(w.message)) for w in seen])
        assert caught[0] == caught[1] == [(RuntimeWarning, "overflow encountered in matmul")]

    @staticmethod
    def outcome(evaluate):
        """The error type and message, and the warnings before it, of a call that fails."""
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises((ArithmeticError, ValueError)) as raised:
                evaluate()
        return type(raised.value), str(raised.value), [(w.category, str(w.message)) for w in seen]

    @staticmethod
    def lone_outcome(evaluate):
        """The values of a call, or its error type and message, and the warnings on the way."""
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                result = [part.tobytes() for part in evaluate()]
            except (ArithmeticError, ValueError) as exc:
                result = (type(exc), str(exc))
        return result, [(w.category, str(w.message)) for w in seen]

    @pytest.mark.parametrize("case", ["singular-kernel", "casimir-overflow", "invariant-overflow"])
    def test_lone_point_fails_and_warns_as_its_record(self, case):
        # a group of one, as in a t_end = 0 run or at n >= 91, is recorded as a stack
        # under raised floating-point errors, then replayed alone: it raises, warns and
        # records exactly what its one record does
        if case == "singular-kernel":
            form = canonical_form(canonical_skew_matrix([1.0], 2))
            state = random_sym(4, np.random.default_rng(1))
            state[2:, 2:] = 1.0
        else:
            form = canonical_form(N2)
            state = np.array([[1e160, 1e159], [1e159, 1.0]] if case == "casimir-overflow" else [[1.7e308] * 2] * 2)
        expected = self.lone_outcome(lambda: _records(form, state[None]))
        kind = {"singular-kernel": ValueError, "invariant-overflow": OverflowError}.get(case)
        if kind is None:  # the Casimir overflow warns and records inf
            assert expected[1] == [(RuntimeWarning, "overflow encountered in matmul")]
        else:
            assert expected[0][0] is kind and not expected[1]
        assert self.lone_outcome(lambda: _record_group(form, state[None])) == expected

        def record_of_a_run():
            traj = integrate(state, form, IntegratorConfig(step=0.1, t_end=0.0))
            return traj.invariant_values, traj.casimir_values, traj.spectra

        assert self.lone_outcome(record_of_a_run) == expected

    def test_group_of_eight_at_n32_fails_as_a_loop_would(self):
        # one default group at n = 32, in eight walks of one state: state 1's Casimirs pass
        # the float range and warn, state 3's kernel block is singular, state 5 passes the
        # range of the invariants; a loop warns at state 1 and raises at state 3
        form = canonical_form(canonical_skew_matrix(np.linspace(1.5, 0.001, 15), 2))
        assert max(1, dynamics.MONITOR_GROUP_BYTES // (32 * 32 * 8)) == 8
        rng = np.random.default_rng(16)
        states = np.stack([random_sym(32, rng) for _ in range(8)])
        states[1] *= 1e9
        singular = form.to_canonical(states[3])
        singular[30:, 30:] = 0.0
        states[3] = form.basis.T @ singular @ form.basis
        states[5, 0, 0] = 1e200
        expected = self.outcome(lambda: [_records(form, state[None]) for state in states])
        assert expected[0] is ValueError and "kernel block" in expected[1]
        assert expected[2][0] == (RuntimeWarning, "overflow encountered in matmul")
        assert self.outcome(lambda: _record_group(form, states)) == expected
        # a symmetric part in N breaks the odd structural zeros of every state but X = 0
        form = canonical_form(canonical_skew_matrix(np.linspace(1.5, 0.5, 16)))
        skewed = dataclasses.replace(form, skew=form.skew + 0.1 * random_sym(32, rng))
        states[:4], states[5] = 0.0, random_sym(32, rng)
        expected = self.outcome(lambda: [_records(skewed, state[None]) for state in states])
        assert expected[:2] == self.outcome(lambda: invariant_table(states[4], skewed.skew))[:2]
        assert self.outcome(lambda: _record_group(skewed, states)) == expected
