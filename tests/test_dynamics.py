import numpy as np
import pytest

from symflow.matrix_core import frob_norm, max_abs, random_skew, random_sym, symmetrize
from symflow.lie_structure import BlockDecomp, from_blocks
from symflow.poisson import canonical_skew_matrix, frozen_tensor, lie_poisson_tensor
from symflow.dynamics import (
    FlowDivergenceError,
    IntegratorConfig,
    _rk4_step,
    block_vector_field,
    integrate,
    integrate_blocks,
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


class TestBlockVectorField:
    def test_decoupled_when_coupling_vanishes(self):
        rng = np.random.default_rng(6)
        s = random_sym(4, rng)
        core = random_skew(4, rng)
        b = BlockDecomp(s, np.zeros((4, 2)), random_sym(2, rng))
        db = block_vector_field(b, core)
        s2 = s @ s
        assert max_abs(db.image_block - (s2 @ core - core @ s2)) <= 1e-15
        assert max_abs(db.coupling) == 0.0
        assert max_abs(db.kernel_block) == 0.0

    def test_zero_block(self):
        b = BlockDecomp(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 1)))
        db = block_vector_field(b, N2)
        assert max_abs(from_blocks(db)) == 0.0

    @pytest.mark.parametrize("p,d", [(1, 1), (2, 1), (2, 2)])
    def test_equivariance_with_full_field(self, p, d):
        rng = np.random.default_rng(10 * p + d)
        core = random_skew(2 * p, rng)
        n_embed = np.zeros((2 * p + d, 2 * p + d))
        n_embed[:2 * p, :2 * p] = core
        for _ in range(10):
            b = BlockDecomp(
                random_sym(2 * p, rng),
                rng.standard_normal((2 * p, d)),
                random_sym(d, rng),
            )
            lhs = from_blocks(block_vector_field(b, core))
            rhs = vector_field(from_blocks(b), n_embed)
            assert max_abs(lhs - rhs) <= 1e-12

    def test_kernel_block_exactly_frozen(self):
        rng = np.random.default_rng(7)
        b = BlockDecomp(random_sym(4, rng), rng.standard_normal((4, 2)), random_sym(2, rng))
        assert np.array_equal(block_vector_field(b, random_skew(4, rng)).kernel_block, np.zeros((2, 2)))


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
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, t_end=1.0, monitor_stride=0)
        for step, t_end in ((0.1, float("inf")), (float("nan"), 1.0), (float("inf"), 1.0),
                            (0.1, float("nan"))):
            with pytest.raises(ValueError):
                IntegratorConfig(step=step, t_end=t_end)

    def test_zero_horizon_allowed(self):
        cfg = IntegratorConfig(step=0.1, t_end=0.0)
        assert cfg.n_steps == 0


def list_integrate(x0, n_skew, config):
    """The list-based state loop integrate replaced, the reference form."""
    x = symmetrize(x0)
    times, states = [0.0], [x.copy()]
    for step_index in range(1, config.n_steps + 1):
        x = symmetrize(_rk4_step(x, n_skew, config.step))
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
        traj = integrate(x0, n_skew, config)
        times, states = list_integrate(x0, n_skew, config)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.states.shape == (config.n_steps + 1, *n_skew.shape)

    def test_equilibrium_is_exactly_constant(self):
        cfg = IntegratorConfig(step=0.01, t_end=0.5)
        traj = integrate(0.7 * np.eye(2), N2, cfg)
        for state in traj.states:
            assert np.array_equal(state, 0.7 * np.eye(2))

    def test_zero_structure_constant(self):
        rng = np.random.default_rng(8)
        x0 = random_sym(3, rng)
        traj = integrate(x0, np.zeros((3, 3)), IntegratorConfig(step=0.01, t_end=0.2))
        assert np.array_equal(traj.states[-1], x0)

    def test_zero_horizon_single_row(self):
        traj = integrate(np.eye(2), N2, IntegratorConfig(step=0.1, t_end=0.0))
        assert len(traj.times) == 1
        assert len(traj.monitor_times) == 1

    def test_conservation_short_run(self):
        rng = np.random.default_rng(9)
        x0 = random_sym(4, rng)
        nsk = canonical_skew_matrix([1.0, 2.0])
        traj = integrate(x0, nsk, IntegratorConfig(step=1e-3, t_end=1.0, monitor_stride=100))
        assert traj.max_drift() <= 1e-9

    def test_trace_powers_conserved(self):
        rng = np.random.default_rng(10)
        x0 = random_sym(4, rng)
        nsk = random_skew(4, rng)
        traj = integrate(x0, nsk, IntegratorConfig(step=1e-3, t_end=1.0, monitor_stride=200))
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
        traj = integrate(x0, nsk, IntegratorConfig(step=1e-3, t_end=1.0))
        for lam in (0.0, 0.5, -0.5, 1.0, -1.0):
            for k in (1, 2, 3):
                start = np.trace(np.linalg.matrix_power(x0 + lam * nsk, k))
                end = np.trace(np.linalg.matrix_power(traj.states[-1] + lam * nsk, k))
                assert abs(end - start) <= 1e-9 * max(1.0, abs(start))

    def test_monitor_alignment(self):
        rng = np.random.default_rng(11)
        traj = integrate(random_sym(3, rng), random_skew(3, rng),
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
        traj = integrate(random_sym(4, rng), random_skew(4, rng),
                         IntegratorConfig(step=0.01, t_end=0.5))
        for state in traj.states:
            assert np.array_equal(state, state.T)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 33])
    def test_states_exactly_symmetric_and_near_projected_loop(self, n):
        rng = np.random.default_rng(200 + n)
        x0, nsk = random_sym(n, rng), random_skew(n, rng)
        config = IntegratorConfig(step=0.01, t_end=2.0, monitor_stride=1000)
        traj = integrate(x0, nsk, config)
        assert np.array_equal(traj.states, traj.states.swapaxes(1, 2))
        assert max_abs(traj.states[-1] - projected_integrate(x0, nsk, 0.01, config.n_steps)) <= 1e-13

    def test_divergence_aborts_with_time(self):
        # the second state overflows inside an RK4 stage, not at a step end
        for x0 in ([[100.0, 3.0], [3.0, -40.0]], [[10.0, 0.3], [0.3, -4.0]]):
            with pytest.raises(FlowDivergenceError) as exc:
                integrate(np.array(x0), N2, IntegratorConfig(step=0.5, t_end=50.0))
            assert exc.value.time > 0

    def test_spectrum_columns_sorted(self):
        rng = np.random.default_rng(13)
        traj = integrate(random_sym(5, rng), random_skew(5, rng),
                         IntegratorConfig(step=0.01, t_end=0.2))
        for row in traj.spectra:
            assert np.all(np.diff(row) >= 0)


class TestIntegrateBlocks:
    def test_matches_full_integration(self):
        rng = np.random.default_rng(14)
        p, d = 1, 1
        core = random_skew(2 * p, rng)
        n_embed = np.zeros((2 * p + d, 2 * p + d))
        n_embed[:2 * p, :2 * p] = core
        b0 = BlockDecomp(random_sym(2 * p, rng), rng.standard_normal((2 * p, d)),
                         random_sym(d, rng))
        cfg = IntegratorConfig(step=1e-3, t_end=0.5)
        times_b, blocks = integrate_blocks(b0, core, cfg)
        traj = integrate(from_blocks(b0), n_embed, cfg)
        assert np.array_equal(times_b, traj.times)
        assert np.array_equal(from_blocks(blocks[-1]), traj.states[-1])

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 32, 33])
    def test_states_exactly_symmetric(self, n):
        rng = np.random.default_rng(300 + n)
        p, d = n // 2, n % 2
        b0 = BlockDecomp(random_sym(2 * p, rng), rng.standard_normal((2 * p, d)), random_sym(d, rng))
        _, blocks = integrate_blocks(b0, random_skew(2 * p, rng), IntegratorConfig(step=0.01, t_end=0.5))
        for b in blocks:
            x = from_blocks(b)
            assert np.array_equal(x, x.T)

    def test_kernel_block_constant(self):
        rng = np.random.default_rng(15)
        b0 = BlockDecomp(random_sym(2, rng), rng.standard_normal((2, 2)), random_sym(2, rng))
        _, blocks = integrate_blocks(b0, N2, IntegratorConfig(step=0.01, t_end=0.3))
        for b in blocks:
            assert np.array_equal(b.kernel_block, b0.kernel_block)
