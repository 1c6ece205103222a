"""Time integration of the isospectral flow dX/dt = [X^2, N].

The right-hand side maps Sym(n) to itself, the spectrum of X is preserved,
and every parametric trace coefficient from :mod:`symflow.invariants` plus
every Lie-Poisson Casimir is a constant of motion.  Integration is plain
RK4 on a field that is exactly symmetric by construction, so every state is
exactly symmetric with no projection; conservation is monitored rather than
enforced, so drift doubles as an accuracy diagnostic.

The stepper's stage buffers and step constants are made once per run, and
each step is written into the preallocated states; per step, only the
field allocates: its two products and one transposed copy.  Steps run in
segments that end at the monitor points, with one finiteness check each.
The monitor points are recorded after their steps, in stacked groups of
up to :data:`MONITOR_GROUP_BYTES` of states, with the errors and warnings
of one record after another.  That budget bounds only the pending copy of
the group's states: one range check, one Casimir pass and one eigensolve
take each group, and the power walk of the invariants takes it in
sub-stacks of :data:`~symflow.invariants.WALK_STACK_BYTES`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matrix_core import commutator
from .invariants import admissible_indices, invariant_table
from .poisson import SkewCanonicalForm, lie_poisson_casimirs

#: Reference values below this switch the drift monitor from relative to
#: absolute differences.
DRIFT_FLOOR = 1e-12

#: Bytes of the pending copy of monitored states, recorded as one stack:
#: 128 states at n = 8 and 8 at n = 32.
MONITOR_GROUP_BYTES = 1 << 16


class FlowDivergenceError(RuntimeError):
    """Integration produced a non-finite state; carries the offending time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = time


def vector_field(x: np.ndarray, n_skew: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side [x^2, n] = m + m^T with m = x^2 n, exactly symmetric.

    Precondition: x symmetric and n_skew skew, as the validating
    constructors produce them; then (x^2 n)^T = -n x^2, so the commutator
    takes two products, and m + m^T is symmetric bit for bit because
    floating-point addition commutes.  Inputs are not re-validated here:
    the constructors check x0 and N once, where they enter, and non-finite
    intermediate RK4 stages must reach the divergence check of
    :func:`integrate`.

    ``out``, if given, is a float array of x's shape that receives the
    result; it must not alias x.  The transpose is copied before the add:
    a strided operand sends numpy's iterator down a slower path than a
    contiguous one, and the copy is exact, so the sum keeps its bits.
    """
    m = x.dot(x).dot(n_skew)
    return np.add(m, m.T.copy(), out=out)


def lax_residual(x: np.ndarray, n_skew: np.ndarray, lam) -> float | list[float]:
    """Defect of the parametric commutator representation of the flow.

    Compares [x^2, n] with [x + lam n, n x + x n + lam n^2]; the two agree
    identically in lam because the first-order coefficient cancels.  A
    scalar lam gives its max-abs defect, a sequence the list of each one's,
    bit for bit the scalar calls', with the lam-free products taken once.
    """
    lam = np.asarray(lam, dtype=float)[..., None, None]
    lax_matrix = x + lam * n_skew
    companion = n_skew @ x + x @ n_skew + lam * (n_skew @ n_skew)
    defect = np.abs(vector_field(x, n_skew) - commutator(lax_matrix, companion))
    return np.max(defect, axis=(-2, -1)).tolist()


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, scheme and monitor stride of a run.

    A run takes :attr:`n_steps` = round(t_end / step) steps, rounded half
    to even, and ends at n_steps * step, up to half a step before or after
    t_end: t_end 1.0 with step 0.4 ends at 0.8, t_end 0.0015 with step 1e-3
    at 0.002.
    """

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
        if (isinstance(self.monitor_stride, bool) or not isinstance(self.monitor_stride, numbers.Integral)
                or self.monitor_stride < 1):
            raise ValueError(f"monitor_stride must be an integer >= 1, got {self.monitor_stride!r}")

    @property
    def n_steps(self) -> int:
        return max(0, int(round(self.t_end / self.step)))


@dataclass
class Trajectory:
    """Computed states plus conserved-quantity monitors on a time subgrid; :meth:`drift` is their drift."""

    times: np.ndarray
    states: np.ndarray  # (len(times), n, n)
    monitor_times: np.ndarray
    invariant_labels: list  # (k, 2r) per invariant column
    invariant_values: np.ndarray  # (len(monitor_times), n_invariants)
    casimir_values: np.ndarray  # (len(monitor_times), n_casimirs)
    spectra: np.ndarray  # (len(monitor_times), n), ascending eigenvalues

    @functools.cached_property
    def monitors(self) -> np.ndarray:
        """The block [invariants | Casimirs | spectra], one row per monitor time."""
        return np.hstack([self.invariant_values, self.casimir_values, self.spectra])

    def drift(self) -> np.ndarray:
        """Drift of each :attr:`monitors` column from row 0, relative unless that is below DRIFT_FLOOR."""
        ref = self.monitors[0]
        scale = np.where(np.abs(ref) < DRIFT_FLOOR, 1.0, np.abs(ref))
        return np.abs(self.monitors - ref) / scale


def integrate(x0: np.ndarray, form: SkewCanonicalForm, config: IntegratorConfig) -> Trajectory:
    """Integrate the flow from x0 with conserved-quantity monitoring.

    Parameters
    ----------
    x0 : initial state of ``form.n`` rows, exactly symmetric, as
        :func:`symflow.matrix_core.sym_matrix` and
        :func:`symflow.matrix_core.random_sym` make it; it is not checked
        or projected again.
    form : canonical form of the structure matrix; the flow steps
        ``form.skew`` and the Casimir monitors read the form.
    config : step size, horizon, scheme, and monitor stride.

    Returns
    -------
    Trajectory with states at every step and monitors every
    ``config.monitor_stride`` steps (first and last step always included).
    Every state is exactly symmetric (``m + m^T`` and the elementwise RK4
    updates keep bit symmetry); the trajectory writer relies on it.

    Raises
    ------
    FlowDivergenceError if the state leaves the representable range, with
    the time of the first non-finite state attached; a monitor point's
    error before it (see :func:`_record_group`) is raised instead.
    ValueError if the states of the whole horizon cannot be allocated.
    """
    n_skew = form.skew
    n = x0.shape[0]

    h, n_steps, stride = config.step, config.n_steps, config.monitor_stride
    try:
        times = np.arange(n_steps + 1, dtype=float) * h
        states = np.empty((n_steps + 1, n, n))
    except (MemoryError, ValueError):
        raise ValueError(f"{n_steps} steps of a {n}x{n} state do not fit in memory") from None
    states[0] = x0
    stages = np.empty((5, n, n))
    y, k1, k2, k3, k4 = stages
    k2_k3 = stages[2:4]  # 2 k2 and 2 k3 in one multiply
    k1_to_k4 = stages[1:]
    # 0-d arrays, not Python floats or float64 scalars: a ufunc converts
    # either to this same float64 on every call, at a cost that sets the
    # step time at small n
    half_h, full_h, two, sixth_h = map(np.array, (0.5 * h, h, 2.0, h / 6.0))
    # bound per run, not at import, so a wrapper installed on the module is called
    add, multiply, reduce, field = np.add, np.multiply, np.add.reduce, vector_field
    # the steps of the monitor points; those not yet recorded; one record per group of them
    monitored, pending, records = [], [], []
    group = max(1, MONITOR_GROUP_BYTES // x0.nbytes)

    def record_pending() -> None:
        if pending:
            records.append(_record_group(form, states[pending]))
            pending.clear()

    def monitor(step: int) -> None:
        monitored.append(step)
        pending.append(step)
        if len(pending) >= group:
            record_pending()

    monitor(0)
    for start in range(1, n_steps + 1, stride):
        stop = min(start + stride, n_steps + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(start, stop):
                x = states[i - 1]
                field(x, n_skew, out=k1)
                field(add(x, multiply(k1, half_h, out=y), out=y), n_skew, out=k2)
                field(add(x, multiply(k2, half_h, out=y), out=y), n_skew, out=k3)
                field(add(x, multiply(k3, full_h, out=y), out=y), n_skew, out=k4)
                # x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), in this order: a
                # reduction over the outer axis adds its rows one after another,
                # from -0.0, which leaves k1 as it is, signed zeros too
                multiply(k2_k3, two, out=k2_k3)
                reduce(k1_to_k4, 0, None, y, False, -0.0)
                add(x, multiply(y, sixth_h, out=y), out=states[i])
        # the segment's first non-finite step is the one a per-step check would stop at
        finite = np.isfinite(states[start:stop]).all(axis=(1, 2))
        if not finite.all():
            record_pending()  # a monitor point's error came first
            raise FlowDivergenceError((start + int(finite.argmin())) * h)
        monitor(stop - 1)
    record_pending()

    invariant_values, casimir_values, spectra = (np.concatenate(parts) for parts in zip(*records))
    return Trajectory(
        times=times,
        states=states,
        monitor_times=np.array(monitored) * h,
        invariant_labels=admissible_indices(n),
        invariant_values=invariant_values,
        casimir_values=casimir_values,
        spectra=spectra,
    )


def _records(form: SkewCanonicalForm, states: np.ndarray) -> tuple:
    """Invariant values, Casimir values and ascending spectra of a (B, n, n) stack of states."""
    return (invariant_table(states, form.skew), lie_poisson_casimirs(form, form.to_canonical(states)),
            np.linalg.eigvalsh(states))


def _record_group(form: SkewCanonicalForm, states: np.ndarray) -> tuple:
    """:func:`_records` of a stack, failing and warning as a loop over its states would.

    The stack, a lone state too, is evaluated at once, with every
    floating-point event that numpy's error state does not ignore raised.
    If anything fails, the states are evaluated again one at a time, in
    order, so the first error and the warnings before it are the loop's.
    """
    try:
        with np.errstate(**{kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}):
            return _records(form, states)
    except (ArithmeticError, ValueError):  # floating-point, range and kernel-block errors
        pass  # the loop below meets the same failure, in its own order
    return tuple(np.concatenate(parts) for parts in zip(*(_records(form, state[None]) for state in states)))
