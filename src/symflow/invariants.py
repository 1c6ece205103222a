"""Conserved quantities of the flow from the parametric trace expansion.

For k = 1..n-1 the scalar trace((X + t N)^k) / k is conserved for every
value of the parameter t, so each coefficient of t^j is conserved.  Odd-j
coefficients vanish identically (transposing a product flips the sign of
every N factor), leaving the family indexed by (k, 2r) with 0 <= 2r < k.
The top coefficient is the constant trace(N^k)/k and is not counted.

Values, gradients and the recursion residuals all come from one
coefficient stack: for each k the (k+1, n, n) array of the coefficients of
P^k, P = X + t N, built from the stack for k-1 by multiplying with X and
with N.  The gradient of the (k, 2r) member is the coefficient of t^{2r} in
P^{k-1}, which is symmetric for even powers.  The table stores the
1/k-normalized coefficients; the bare multi-index sum differs by the
factor k.

Values come from half powers: coefficient j of trace(P^k) is the sum over
a + b = j of trace(A_a B_b), with A the stack of P^floor(k/2) and B that of
P^ceil(k/2).  When stack m arrives, one GEMM of the flattened stacks of
P^{m-1} and P^m against the flattened transposed stack of P^m gives every
pair trace for k = 2m-1 and k = 2m, so the values walk only to
m = ceil((n-1)/2); for even n the last GEMM pairs zeros for k = n, which
is beyond the table.  The gradients continue the same walk to n-2.  One
bincount sums the pair traces into coefficients, one mask checks the odd
structural zeros, and one stacked symmetrize per stack gives its gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .matrix_core import as_square, frob_norm, symmetrize
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


@functools.cache
def _pair_slots(half: int) -> np.ndarray:
    """Where each pair trace of the stacks m = 1..half goes, in GEMM order.

    Stack m contributes a (2m+1, m+1) Gram matrix.  Its row a < m pairs
    coefficient a of P^{m-1} with coefficient b of P^m and adds to
    coefficient (k, j) = (2m-1, a+b) of trace(P^k); its row m + a pairs P^m
    with itself and adds to (2m, a+b).  The slot of (k, j) is k * width + j,
    width = 2 * half + 1.
    """
    width = 2 * half + 1
    slots = []
    for m in range(1, half + 1):
        rows = np.arange(2 * m + 1) + (2 * m - 1) * width
        rows[m:] += width - m
        slots.append(np.add.outer(rows, np.arange(m + 1)).ravel())
    slots = np.concatenate(slots)
    slots.flags.writeable = False  # shared by every call
    return slots


def invariant_count(n: int) -> int:
    """floor(n/2) * floor((n+1)/2), the number of independent-index members."""
    if n < 1:
        raise ValueError("need matrix size n >= 1")
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


def _trace_walk(x: np.ndarray, n_skew: np.ndarray, depth: int, gradients: dict | None) -> np.ndarray:
    """Walk the stacks of P = X + tN up to P^depth, depth >= n // 2 >= 1.

    Returns the (n-1, n) array whose row k - 1 holds the coefficients of
    t^0..t^{n-1} in trace(P^k)/k, odd and top ones included (zero beyond t^k).
    If ``gradients`` is a dict, it receives the member gradients in table
    order, the (m+1, j) ones from stack m < n - 1.
    """
    n = x.shape[0]
    half = n // 2  # ceil((n-1)/2): stack m gives the values of k = 2m-1 and k = 2m
    if gradients is not None:
        gradients[(1, 0)] = np.eye(n)
    grams = []
    prev = np.eye(n)[None]  # stack of P^{m-1}; the zeroth power is the identity
    for m, power in enumerate(_power_stacks(x, n_skew, depth), start=1):
        if m <= half:
            # trace(A_a B_b) for the pairs (P^{m-1}, P^m) and (P^m, P^m) in one GEMM
            pairs = np.concatenate([prev, power]).reshape(2 * m + 1, n * n)
            if 2 * m == n:
                # k = 2m = n is beyond the table: zeros cannot overflow, and
                # the GEMM keeps its shape, so the kept traces keep their bits
                pairs[m:] = 0.0
            grams.append((pairs @ power.transpose(0, 2, 1).reshape(m + 1, n * n).T).ravel())
        if gradients is not None and m < n - 1:
            keys = [(m + 1, j) for j in range(0, m + 1, 2)]
            gradients.update(zip(keys, symmetrize(power[0::2])))
        prev = power
    # coefficient j of trace(P^k) sums the pair traces with a + b = j
    width = 2 * half + 1
    sums = np.bincount(_pair_slots(half), np.concatenate(grams), minlength=width * width)
    return sums.reshape(width, width)[1:n, :n] / np.arange(1, n)[:, None]


def _harvest(x: np.ndarray, n_skew: np.ndarray, with_gradients: bool) -> InvariantTable:
    n = x.shape[0]
    table = InvariantTable(n=n, gradients={} if with_gradients else None)
    if n < 2:
        return table
    # (|X|_F + |N|_F)^k scales the odd check and bounds every coefficient of
    # (X + tN)^k, so it is decided before the walk whether k = n-1 stays finite
    base = frob_norm(x) + frob_norm(n_skew)
    try:
        scale = np.array([max(1.0, base**k) for k in range(1, n)])
    except OverflowError as exc:
        raise OverflowError(
            f"(|X|_F + |N|_F)^k = {base:.3e}^k passes the float range before k = {n - 1}"
        ) from exc
    depth = max(n - 2, n // 2) if with_gradients else n // 2
    traces = _trace_walk(x, n_skew, depth, table.gradients)
    member = np.tri(n - 1, n, dtype=bool)  # j < k: the top coefficient trace(N^k)/k is constant
    # a mask and argmax, not max(): a NaN coefficient compares false and passes
    odd = member[:, 1::2] & (np.abs(traces[:, 1::2]) > ODD_COEFF_TOL * scale[:, None])
    if odd.any():
        row, col = divmod(int(odd.argmax()), odd.shape[1])
        raise ArithmeticError(
            f"odd-power trace coefficient (k={row + 1}, j={2 * col + 1}) is "
            f"{float(traces[row, 2 * col + 1]):.3e}, expected a structural zero"
        )
    table.values.update(zip(admissible_indices(n), traces[:, 0::2][member[:, 0::2]].tolist()))
    return table


def invariant_table(x: np.ndarray, n_skew: np.ndarray) -> InvariantTable:
    """Values of every admissible (k, 2r) member at the state x."""
    return _harvest(_check_pair(x, n_skew), n_skew, with_gradients=False)


def gradient_table(x: np.ndarray, n_skew: np.ndarray) -> InvariantTable:
    """Values and gradients of every admissible member at the state x."""
    return _harvest(_check_pair(x, n_skew), n_skew, with_gradients=True)


#: Bytes of gradients one stacked recursion batch collects before it is
#: applied; a batch ends at a power boundary once it passes this size.
RECURSION_BATCH_BYTES = 1 << 19


def _recursion_batch(x, n_skew, lows, highs) -> list[float]:
    """Max-abs of LP(sym(low)) - frozen(sym(high)) for each stacked pair, in order.

    Empties both lists, so the collected gradients are freed once stacked.
    """
    g_low = symmetrize(np.concatenate(lows))
    lows.clear()
    g_high = symmetrize(np.concatenate(highs))
    highs.clear()
    diff = lie_poisson_tensor(x, g_low, n_skew)
    del g_low
    diff -= frozen_tensor(g_high, n_skew)
    return np.max(np.abs(diff, out=diff), axis=(1, 2)).tolist()


def recursion_residuals(x: np.ndarray, n_skew: np.ndarray) -> dict:
    """Residuals of the two-structure recursion, keyed by (k, r) in ascending order.

    For every 1 <= r <= k <= n-1 with k - r even, applies the Lie-Poisson
    tensor to the gradient of the (k, k-r) member and the frozen tensor to
    the gradient of the (k+1, k-r) member; the difference vanishes
    identically.  The (k+1)-member gradients come from (X + t N)^k, one
    power beyond the table.  The pairs' gradients are stacked and each
    tensor is applied once per batch of :data:`RECURSION_BATCH_BYTES`, with
    the arithmetic of one pair at a time.
    """
    x = _check_pair(x, n_skew)
    n = x.shape[0]
    keys, residuals, lows, highs = [], [], [], []
    size = 0
    prev = np.eye(n)[None]  # stack of (X + tN)^{k-1}; the zeroth power is the identity
    for k, power in enumerate(_power_stacks(x, n_skew, n - 1), start=1):
        r = np.arange(2 - k % 2, k + 1, 2)
        keys += [(k, int(v)) for v in r]
        lows.append(prev[k - r])
        highs.append(power[k - r])
        size += 2 * lows[-1].nbytes
        if size > RECURSION_BATCH_BYTES:
            residuals += _recursion_batch(x, n_skew, lows, highs)
            size = 0
        prev = power
    if lows:
        residuals += _recursion_batch(x, n_skew, lows, highs)
    return dict(zip(keys, residuals))
