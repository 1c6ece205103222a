"""Conserved quantities of the flow from the parametric trace expansion.

For k = 1..n-1 the scalar trace((X + t N)^k) / k is conserved for every
value of the parameter t, so each coefficient of t^j is conserved.  Odd-j
coefficients vanish identically (transposing a product flips the sign of
every N factor), leaving the family indexed by (k, 2r) with 0 <= 2r < k.
The top coefficient is the constant trace(N^k)/k and is not counted.

Values, gradients and the recursion residuals all come from one
coefficient stack: for each k the (k+1, n, n) array of the coefficients of
(X + t N)^k, built from the stack for k-1 by multiplying with X and with N.
The gradient of the (k, 2r) member is the coefficient of t^{2r} in
(X + t N)^{k-1}, which is symmetric for even powers.  The table stores the
1/k-normalized coefficients; the bare multi-index sum differs by the
factor k.

Each stack is read with array operations: one trace call gives every
coefficient of a power, one mask checks its odd structural zeros, and one
stacked symmetrize gives its gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import as_square, max_abs, frob_norm, symmetrize
from .poisson import frozen_tensor, lie_poisson_tensor

#: Absolute ceiling (scaled by input magnitude) on the odd-power trace
#: coefficients, which are structural zeros; violation signals a bug.
ODD_COEFF_TOL = 1e-12


def _power_stacks(x: np.ndarray, n_skew: np.ndarray, k_max: int):
    """Yield the (k+1, n, n) coefficient stack of (X + t N)^k for k = 1..k_max.

    Row j of the stack is the coefficient of t^j.  Each stack is built from
    the previous one, so a consumer walking k upwards keeps at most two.
    """
    acc = np.stack([x, n_skew])
    for k in range(1, k_max + 1):
        if k > 1:
            new = np.zeros((k + 1,) + x.shape)
            new[:-1] += acc @ x
            new[1:] += acc @ n_skew
            acc = new
        yield acc


def invariant_count(n: int) -> int:
    """floor(n/2) * floor((n+1)/2), the number of independent-index members."""
    if n < 2:
        raise ValueError("need matrix size n >= 2")
    return (n // 2) * ((n + 1) // 2)


def admissible_indices(n: int) -> list[tuple[int, int]]:
    """All (k, 2r) with 1 <= k <= n-1 and 0 <= 2r < k, in table order."""
    return [(k, 2 * r) for k in range(1, n) for r in range(0, (k - 1) // 2 + 1)]


@dataclass
class InvariantTable:
    """Values (and optionally gradients) of the conserved family at one state."""

    n: int
    values: dict = field(default_factory=dict)
    gradients: dict | None = None

    def keys(self) -> list[tuple[int, int]]:
        return sorted(self.values.keys())

    def as_vector(self) -> np.ndarray:
        return np.asarray([self.values[key] for key in self.keys()])


def _check_pair(x, n_skew) -> np.ndarray:
    x = as_square(x)
    if x.shape != n_skew.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {n_skew.shape}")
    return x


def _harvest(x: np.ndarray, n_skew: np.ndarray, with_gradients: bool) -> InvariantTable:
    n = x.shape[0]
    table = InvariantTable(n=n, gradients={} if with_gradients else None)
    scale_base = frob_norm(x) + frob_norm(n_skew)
    prev = None  # stack of (X + tN)^{k-1}, which carries the gradients
    for k, power in enumerate(_power_stacks(x, n_skew, n - 1), start=1):
        traces = np.trace(power[:k], axis1=1, axis2=2) / k
        # a mask and argmax, not max(): a NaN coefficient compares false and passes
        odd = np.abs(traces[1::2]) > ODD_COEFF_TOL * max(1.0, scale_base**k)
        if odd.any():
            j = 2 * int(odd.argmax()) + 1
            raise ArithmeticError(
                f"odd-power trace coefficient (k={k}, j={j}) is {float(traces[j]):.3e}, "
                "expected a structural zero"
            )
        keys = [(k, j) for j in range(0, k, 2)]
        table.values.update(zip(keys, traces[0::2].tolist()))
        if with_gradients:
            table.gradients.update(zip(keys, [np.eye(n)] if k == 1 else symmetrize(prev[0::2])))
        prev = power
    return table


def invariant_table(x: np.ndarray, n_skew: np.ndarray) -> InvariantTable:
    """Values of every admissible (k, 2r) member at the state x."""
    return _harvest(_check_pair(x, n_skew), n_skew, with_gradients=False)


def gradient_table(x: np.ndarray, n_skew: np.ndarray) -> InvariantTable:
    """Values and gradients of every admissible member at the state x."""
    return _harvest(_check_pair(x, n_skew), n_skew, with_gradients=True)


def recursion_residuals(x: np.ndarray, n_skew: np.ndarray) -> dict:
    """Residuals of the two-structure recursion, keyed by (k, r) in ascending order.

    For every 1 <= r <= k <= n-1 with k - r even, applies the Lie-Poisson
    tensor to the gradient of the (k, k-r) member and the frozen tensor to
    the gradient of the (k+1, k-r) member; the difference vanishes
    identically.  The (k+1)-member gradients come from (X + t N)^k, one
    power beyond the table.
    """
    x = _check_pair(x, n_skew)
    n = x.shape[0]
    out = {}
    prev = None  # stack of (X + tN)^{k-1}
    for k, power in enumerate(_power_stacks(x, n_skew, n - 1), start=1):
        for r in range(2 - k % 2, k + 1, 2):
            g_low = np.eye(n) if k == 1 else symmetrize(prev[k - r])
            g_high = symmetrize(power[k - r])
            out[(k, r)] = max_abs(lie_poisson_tensor(x, g_low, n_skew) - frozen_tensor(g_high, n_skew))
        prev = power
    return out
