"""Time integration of the isospectral flow dX/dt = [X^2, N].

The right-hand side maps Sym(n) to itself, the spectrum of X is preserved,
and every parametric trace coefficient from :mod:`symflow.invariants` plus
every Lie-Poisson Casimir is a constant of motion.  Integration is plain
RK4 on a field that is exactly symmetric by construction, so every state is
exactly symmetric with no projection; conservation is monitored rather than
enforced, so drift doubles as an accuracy diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import as_square, commutator, max_abs, symmetrize
from .invariants import admissible_indices, invariant_table
from .lie_structure import BlockDecomp, from_blocks, split_blocks
from .poisson import canonical_form, lie_poisson_casimirs

#: Reference values below this switch the drift monitor from relative to
#: absolute differences.
DRIFT_FLOOR = 1e-12


class FlowDivergenceError(RuntimeError):
    """Integration produced a non-finite state; carries the offending time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = time


def vector_field(x: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """Right-hand side [x^2, n] = m + m^T with m = x^2 n, exactly symmetric.

    Precondition: x symmetric and n_skew skew, as the validating
    constructors produce them; then (x^2 n)^T = -n x^2, so the commutator
    takes two products, and m + m^T is symmetric bit for bit because
    floating-point addition commutes.  Inputs are not re-validated here:
    :func:`integrate` checks x0 and N once at entry, and non-finite
    intermediate RK4 stages must reach its divergence check.
    """
    m = (x @ x) @ n_skew
    return m + m.T


def lax_residual(x: np.ndarray, n_skew: np.ndarray, lam: float) -> float:
    """Defect of the parametric commutator representation of the flow.

    Compares [x^2, n] with [x + lam n, n x + x n + lam n^2]; the two agree
    identically in lam because the first-order coefficient cancels.
    """
    lax_matrix = x + lam * n_skew
    companion = n_skew @ x + x @ n_skew + lam * (n_skew @ n_skew)
    return max_abs(vector_field(x, n_skew) - commutator(lax_matrix, companion))


def block_vector_field(b: BlockDecomp, core_skew: np.ndarray) -> BlockDecomp:
    """Flow in block coordinates adapted to im(N) + ker(N).

    The image block obeys its own flow driven by S^2 + A A^T, the coupling
    block is transported by -Nb (S A + A B), and the kernel block is frozen.
    """
    s, a, bk = b.image_block, b.coupling, b.kernel_block
    if core_skew.shape != s.shape:
        raise ValueError("core block size does not match the image block")
    ds = commutator(s @ s + a @ a.T, core_skew)
    da = -core_skew @ (s @ a + a @ bk)
    return BlockDecomp(image_block=ds, coupling=da, kernel_block=np.zeros_like(bk))


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    t_end: float
    scheme: str = "rk4"
    monitor_stride: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.step) and math.isfinite(self.t_end)):
            raise ValueError("step and t_end must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be non-negative")
        if self.t_end > 0 and self.step > self.t_end:
            raise ValueError("step exceeds t_end")
        if self.scheme != "rk4":
            raise ValueError(f"unsupported scheme {self.scheme!r}")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(0, int(round(self.t_end / self.step)))


@dataclass
class Trajectory:
    """Computed states plus conserved-quantity monitors on a time subgrid."""

    times: np.ndarray
    states: np.ndarray  # (len(times), n, n)
    monitor_times: np.ndarray
    invariant_labels: list  # (k, 2r) per invariant column
    invariant_values: np.ndarray  # (len(monitor_times), n_invariants)
    casimir_values: np.ndarray  # (len(monitor_times), n_casimirs)
    spectra: np.ndarray  # (len(monitor_times), n), ascending eigenvalues

    @staticmethod
    def _drift(values: np.ndarray) -> np.ndarray:
        ref = values[0]
        scale = np.where(np.abs(ref) < DRIFT_FLOOR, 1.0, np.abs(ref))
        return np.abs(values - ref) / scale

    def invariant_drift(self) -> np.ndarray:
        return self._drift(self.invariant_values)

    def casimir_drift(self) -> np.ndarray:
        return self._drift(self.casimir_values)

    def spectrum_drift(self) -> np.ndarray:
        return self._drift(self.spectra)

    def max_drift(self) -> float:
        worst = 0.0
        for block in (self.invariant_drift(), self.casimir_drift(), self.spectrum_drift()):
            if block.size:
                worst = max(worst, float(block.max()))
        return worst


def _rk4_step(x: np.ndarray, n_skew: np.ndarray, h: float) -> np.ndarray:
    k1 = vector_field(x, n_skew)
    k2 = vector_field(x + 0.5 * h * k1, n_skew)
    k3 = vector_field(x + 0.5 * h * k2, n_skew)
    k4 = vector_field(x + h * k3, n_skew)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    x0: np.ndarray,
    n_skew: np.ndarray,
    config: IntegratorConfig,
    rank_tol: float = 1e-9,
) -> Trajectory:
    """Integrate the flow from x0 with conserved-quantity monitoring.

    Parameters
    ----------
    x0, n_skew : initial symmetric state and the fixed skew structure matrix.
    config : step size, horizon, scheme, and monitor stride.
    rank_tol : passed to :func:`symflow.poisson.canonical_form`, which
        supplies the Casimir monitors.

    Returns
    -------
    Trajectory with states at every step and monitors every
    ``config.monitor_stride`` steps (first and last step always included).

    Raises
    ------
    FlowDivergenceError if the state leaves the representable range, with
    the offending time attached.
    """
    x = symmetrize(as_square(x0))
    if x.shape != n_skew.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {n_skew.shape}")
    n = x.shape[0]
    form = canonical_form(n_skew, rank_tol)
    labels = admissible_indices(n)

    h, n_steps = config.step, config.n_steps
    times = np.arange(n_steps + 1, dtype=float) * h
    states = np.empty((n_steps + 1, n, n))
    states[0] = x
    monitor_times, inv_rows, cas_rows, spec_rows = [], [], [], []

    def record(t: float, state: np.ndarray) -> None:
        monitor_times.append(t)
        table = invariant_table(state, n_skew)
        inv_rows.append([table.values[key] for key in labels])
        cas_rows.append(lie_poisson_casimirs(form, form.to_canonical(state)))
        spec_rows.append(np.linalg.eigvalsh(state))

    record(0.0, x)
    for step_index in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x = _rk4_step(x, n_skew, h)
        t = step_index * h
        if not np.isfinite(x).all():
            raise FlowDivergenceError(t)
        states[step_index] = x
        if step_index % config.monitor_stride == 0 or step_index == n_steps:
            record(t, x)

    return Trajectory(
        times=times,
        states=states,
        monitor_times=np.asarray(monitor_times),
        invariant_labels=labels,
        invariant_values=np.asarray(inv_rows),
        casimir_values=np.asarray(cas_rows),
        spectra=np.asarray(spec_rows),
    )


def integrate_blocks(
    b0: BlockDecomp,
    core_skew: np.ndarray,
    config: IntegratorConfig,
) -> tuple[np.ndarray, list[BlockDecomp]]:
    """RK4 on the block-coordinate flow; the kernel block stays put.

    Steps the assembled matrix under the full flow with N = [[core, 0],
    [0, 0]], whose kernel rows and columns are exactly zero, so the kernel
    block of every RK4 stage is too: this is :func:`block_vector_field` in
    the coordinates of :func:`symflow.lie_structure.from_blocks`.  Returns
    the time grid and the block states.
    """
    m = b0.image_block.shape[0]
    if core_skew.shape != (m, m) or m % 2:
        raise ValueError("core block must be even-sized and match the image block")
    n_skew = np.zeros((b0.n, b0.n))
    n_skew[:m, :m] = core_skew
    x = symmetrize(from_blocks(b0))
    h = config.step
    times = [0.0]
    blocks = [b0]
    for step_index in range(1, config.n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x = _rk4_step(x, n_skew, h)
        if not np.isfinite(x).all():
            raise FlowDivergenceError(step_index * h)
        times.append(step_index * h)
        blocks.append(split_blocks(x, m // 2))
    return np.asarray(times), blocks
