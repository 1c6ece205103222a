"""Conserved quantities of the flow from the parametric trace expansion.

For k = 1..n-1 the scalar trace((X + t N)^k) / k is conserved for every
value of the parameter t, so each coefficient of t^j is conserved.  Odd-j
coefficients vanish identically (transposing a product flips the sign of
every N factor), leaving the family indexed by (k, 2r) with 0 <= 2r < k;
the members of one k are family k.  The top coefficient is the constant
trace(N^k)/k and is not counted.

Values and gradients come from one walk of coefficient stacks: for each k
the (k+1, n, n) array of the coefficients of P^k, P = X + t N, built from
the stack for k-1 by multiplying with X and with N.  The gradient of the
(k, 2r) member is the coefficient of t^{2r} in P^{k-1}, which is symmetric
for even powers.  The table stores the 1/k-normalized coefficients; the
bare multi-index sum differs by the factor k.  The recursion residuals
read the two Poisson-tensor images of the gradients of that walk, taken
one power further to the (n, 2r) family, so each state's powers are walked
once and its gradients go through each tensor once.

Values come from half powers: coefficient j of trace(P^k) is the sum over
a + b = j of trace(A_a B_b), with A the stack of P^floor(k/2) and B that of
P^ceil(k/2).  When stack m arrives, one GEMM of the flattened stacks of
P^{m-1} and P^m against the flattened transposed stack of P^m gives every
pair trace for k = 2m-1 and k = 2m, so the values walk only to
m = ceil((n-1)/2); for even n the last GEMM pairs zeros for k = n, which
is beyond the table.  The gradients continue the same walk to n-2, or to
n-1 for the family beyond the table.  One bincount sums the pair traces
into coefficients, one mask checks the odd structural zeros, and each
stack's gradients are symmetrized straight into their rows of the
(rows, n, n) array.

Each walk allocates one buffer and runs inside it: two windows of
2 depth + 1 rows, and a side buffer.  Window m, in half m % 2, holds
[P^{m-1}; P^m], so the pair GEMM reads both stacks as one array; its first
m rows are copied from window m-1 in the other half.  The side buffer
takes each stack's N products and then the transposed stack of the pair
GEMM, and the zeroed [P^{m-1}; 0] window of even n goes in the other
half, free until the next stack.  A window is valid until the
next-but-one stack is written over it.  One allocation per walk keeps the
n = 32 monitor records from faulting fresh pages in at every stack.

Every state walks in a (B, n, n) stack, a lone state in a stack of one,
with one range check, one odd-coefficient check and one walk per sub-stack
of at most :data:`WALK_STACK_BYTES` of states: each power stack holds the
sub-stack's coefficients, and each state keeps the GEMM shapes of a walk
of its own, so it keeps its bits in any stack.  The bound keeps peak
memory, not speed: a values walk's buffer holds 83 matrices per state
at n = 32 (664 KB), and a stacked walk there is only a little faster per
state (5 states in 3.9 ms as 3-state walks against 4.2 ms one at a time).
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Absolute ceiling (scaled by input magnitude) on the odd-power trace
#: coefficients, which are structural zeros; violation signals a bug.
ODD_COEFF_TOL = 1e-12

#: Bytes of the states one power walk takes as a stack: 16 states at n = 8
#: and one at n = 32, where a larger stack gains a few percent per state but
#: multiplies the walk's buffer.
WALK_STACK_BYTES = 1 << 13


def _power_stacks(x: np.ndarray, n_skew: np.ndarray, k_max: int, buffer: np.ndarray):
    """Yield the (2k+1, ...) window [P^{k-1}; P^k] of P = X + t N for k = 1..k_max.

    ``x`` is a (B, n, n) stack of states, or any array of matrices; row j
    of the stack of P^k, of x's shape, is the coefficient of t^j, and P^0
    is the identity.  ``buffer`` holds 2 (2 k_max + 1) + k_max matrices of
    x's shape or more: two halves of 2 k_max + 1 rows, then a side buffer.
    Window k is written in place at the start of half k % 2: its first k
    rows copied from window k-1, its X products straight into its rows,
    then its N products, formed in the side buffer, added on, the last onto
    a zero row.  A yielded window is valid until the next-but-one stack is
    written over it; the side buffer is free while the consumer holds a
    window.
    """
    span = 2 * k_max + 1
    side = buffer[2 * span:]
    for k in range(1, k_max + 1):
        start = span * (k % 2)
        window = buffer[start:start + 2 * k + 1]
        if k == 1:
            window[0], window[1], window[2] = np.eye(x.shape[-1]), x, n_skew
        else:
            window[:k] = prev[k - 1:]
            head = window[:k]
            np.matmul(head, x, out=window[k:2 * k])
            window[2 * k] = 0.0
            window[k + 1:] += np.matmul(head, n_skew, out=side[:k])
        yield window
        prev = window


@functools.cache
def _pair_slots(half: int, states: int = 1) -> np.ndarray:
    """Where each pair trace of the stacks m = 1..half goes, in GEMM order.

    Stack m contributes a (2m+1, m+1) Gram matrix.  Its row a < m pairs
    coefficient a of P^{m-1} with coefficient b of P^m and adds to
    coefficient (k, j) = (2m-1, a+b) of trace(P^k); its row m + a pairs P^m
    with itself and adds to (2m, a+b).  The slot of (k, j) is k * width + j,
    width = 2 * half + 1.  Each further state's slots follow, offset by
    width^2, so one bincount sums a stack of states.
    """
    width = 2 * half + 1
    slots = []
    for m in range(1, half + 1):
        rows = np.arange(2 * m + 1) + (2 * m - 1) * width
        rows[m:] += width - m
        slots.append(np.add.outer(rows, np.arange(m + 1)).ravel())
    slots = (np.concatenate(slots) + width * width * np.arange(states)[:, None]).ravel()
    slots.flags.writeable = False  # shared by every call
    return slots


def invariant_count(n: int) -> int:
    """floor(n/2) * floor((n+1)/2), the number of independent-index members."""
    if n < 1:
        raise ValueError("need matrix size n >= 1")
    return (n // 2) * ((n + 1) // 2)


def admissible_indices(n: int) -> list[tuple[int, int]]:
    """All (k, 2r) with 1 <= k <= n-1 and 0 <= 2r < k, in table order.

    Table order is the order of every values and gradients array of this
    module: k ascending, then 2r ascending.
    """
    return [(k, 2 * r) for k in range(1, n) for r in range(0, (k - 1) // 2 + 1)]


def _trace_walk(x: np.ndarray, n_skew: np.ndarray, depth: int, gradients: np.ndarray | None) -> np.ndarray:
    """Walk the stacks of P = X + tN up to P^depth, depth >= n // 2 >= 1.

    ``x`` is a (B, n, n) stack.  Returns the (B, n-1, n) array whose row
    k - 1 holds the coefficients of t^0..t^{n-1} in trace(P^k)/k, odd
    and top ones included (zero beyond t^k).  If ``gradients`` is an
    (invariant_count(K + 1),) + x.shape array whose first row holds the
    identity, it receives the gradients of the families k = 2..K in
    table order, the (m+1, j) ones from stack m < K.  Every state takes
    the GEMMs of a walk of its own, so its rows keep their bits in any
    stack.  The walk allocates one buffer of 2 (2 depth + 1) +
    max(depth, n // 2 + 1) matrices of x's shape: the two window halves
    of :func:`_power_stacks`, then the side buffer, which takes the N
    products and each pair GEMM's transposed stack.  A window is valid
    until the next-but-one stack, so the other half is free for the
    zeroed window of even n.
    """
    n, count = x.shape[-1], len(x)
    half = n // 2  # ceil((n-1)/2): stack m gives the values of k = 2m-1 and k = 2m
    span = 2 * depth + 1
    buffer = np.empty((2 * span + max(depth, half + 1),) + x.shape)
    side = buffer[2 * span:]
    flat = side.reshape(-1, count, n * n)
    filled = 1
    grams = []
    for m, window in enumerate(_power_stacks(x, n_skew, depth, buffer), start=1):
        power = window[m:]
        if m <= half:
            # trace(A_a B_b) for the pairs (P^{m-1}, P^m) and (P^m, P^m), one GEMM per state
            pairs = window
            if 2 * m == n:
                # k = 2m = n is beyond the table: zeros cannot overflow, and the
                # GEMM keeps its shape, so the kept traces keep their bits; the
                # window goes in the other half, free until the next stack
                start = span * (1 - m % 2)
                pairs = buffer[start:start + 2 * m + 1]
                pairs[:m] = window[:m]
                pairs[m:] = 0.0
            pairs = pairs.reshape(2 * m + 1, count, n * n).transpose(1, 0, 2)
            # side row j holds (P^m)_j transposed; each state's GEMM reads its own rows of it
            side[:m + 1] = power.swapaxes(-1, -2)
            grams.append((pairs @ flat[:m + 1].transpose(1, 2, 0)).reshape(count, -1))
        if gradients is not None and filled < len(gradients):
            # matrix_core.symmetrize's two operations, written straight into the rows
            rows, evens = gradients[filled:filled + m // 2 + 1], power[0::2]
            np.add(evens, evens.swapaxes(-1, -2), out=rows)
            np.divide(rows, 2.0, out=rows)
            filled += m // 2 + 1
    # coefficient j of trace(P^k) sums the pair traces with a + b = j
    width = 2 * half + 1
    sums = np.bincount(_pair_slots(half, count), np.concatenate(grams, axis=1).ravel(),
                       minlength=count * width * width)
    return sums.reshape(count, width, width)[:, 1:n, :n] / np.arange(1, n)[:, None]


def _norm_bounds(a: np.ndarray) -> list[float]:
    """max|a| * |a / max|a||_F of each matrix of a (B, n, n) stack, 0.0 for a zero matrix.

    The scaled squares cannot overflow.  Each norm is one dot of the raveled
    matrix with itself, as ``numpy.linalg.norm`` takes it, so it keeps that
    function's bits; the products are Python floats, which pass the float
    range to inf without a floating-point error.
    """
    s = np.max(np.abs(a), axis=(1, 2))
    y = (a / np.where(s > 0, s, 1.0)[:, None, None]).reshape(len(a), 1, -1)
    return [top * norm for top, norm in zip(s.tolist(), np.sqrt(y @ y.transpose(0, 2, 1)).ravel().tolist())]


def _harvest(x: np.ndarray, n_skew: np.ndarray, families: int | None):
    """The member values and the gradients of the families k = 1..families, else None, in table order.

    ``x`` is one state, with (members,) values and (rows, n, n) gradients,
    or a (B, n, n) stack, with (B, members) values and (rows, B, n, n)
    gradients; rows = invariant_count(families + 1), 0 for no family.  A
    lone state walks as a stack of one, into a (rows, 1, n, n) view of its
    gradients.  A stack raises the range error of its first state out of
    range, else the odd-coefficient error of its first failing state.
    """
    n = x.shape[-1]
    gradients = None
    if families is not None:
        gradients = np.empty((invariant_count(families + 1),) + x.shape)
        gradients[:1] = np.eye(n)  # the (1, 0) gradient, if any family is asked for
    if n < 2 or not x.size:
        return np.empty(x.shape[:-2] + (invariant_count(n),)), gradients
    states = x.reshape(-1, n, n)  # a lone state walks as a stack of one
    # (|X|_F + |N|_F)^k scales the odd check and bounds every coefficient of
    # (X + tN)^k, so it is decided before the walk whether k = n-1 stays finite
    scale = []
    *bounds, bound = _norm_bounds(np.concatenate([states, n_skew[None]]))
    for base in [b + bound for b in bounds]:
        try:
            row = [max(1.0, base**k) for k in range(1, n)]
        except OverflowError:
            row = [math.inf]
        if not math.isfinite(row[-1]):  # base**k overflowed, or base itself is inf
            raise OverflowError(f"(|X|_F + |N|_F)^k = {base:.3e}^k passes the float range before k = {n - 1}")
        scale.append(row)
    depth = n // 2 if families is None else max(families - 1, n // 2)
    # one walk per sub-stack of at most WALK_STACK_BYTES of states, into a (rows, B, n, n) gradient view
    rows = None if gradients is None else gradients.reshape(gradients.shape[:1] + states.shape)
    step = max(1, WALK_STACK_BYTES // (x.itemsize * n * n))
    traces = np.concatenate([
        _trace_walk(states[i:i + step], n_skew, depth, None if rows is None else rows[:, i:i + step])
        for i in range(0, len(states), step)])
    member = np.tri(n - 1, n, dtype=bool)  # j < k: the top coefficient trace(N^k)/k is constant
    # a mask and argmax, not max(): a NaN coefficient compares false and passes
    odd = member[:, 1::2] & (np.abs(traces[:, :, 1::2]) > ODD_COEFF_TOL * np.array(scale)[:, :, None])
    if odd.any():
        state, row, col = np.unravel_index(int(odd.argmax()), odd.shape)
        raise ArithmeticError(
            f"odd-power trace coefficient (k={row + 1}, j={2 * col + 1}) is "
            f"{float(traces[state, row, 2 * col + 1]):.3e}, expected a structural zero"
        )
    values = traces[:, :, 0::2][:, member[:, 0::2]]
    return values.reshape(x.shape[:-2] + values.shape[1:]), gradients


def invariant_table(x: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """The (members,) values of the admissible members at the state x, in table order.

    A (B, n, n) stack of states gives the (B, members) values, each row bit
    for bit the values of its state alone.
    """
    return _harvest(x, n_skew, None)[0]


def gradient_table(x: np.ndarray, n_skew: np.ndarray, beyond: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The (members,) values and (members, n, n) gradients of the members at x, in table order.

    With ``beyond`` the gradients go on past the members with the (n, 2r)
    family, the even coefficients of (X + t N)^{n-1} symmetrized:
    invariant_count(n + 1) rows, the table :func:`recursion_residuals` reads.
    """
    return _harvest(x, n_skew, x.shape[-1] - 1 + beyond)


@functools.cache
def _recursion_rows(n: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The (k, r) keys of the recursion at size n in ascending order, and where their rows are.

    Family k is member rows low..high-1.  Its row i pairs with frozen row
    i + ceil(k/2), the same coefficient of family k+1, listed in
    ``frozen_rows``; row i is coefficient j = 2(i - low), so r = k - 2(i - low)
    descends along the family's rows, and ``order`` lists the member rows
    in key order.
    """
    keys, frozen_rows, order = [], [], []
    for k in range(1, n):
        low, high = invariant_count(k), invariant_count(k + 1)  # family k is rows low..high-1
        keys += [(k, r) for r in range(2 - k % 2, k + 1, 2)]
        frozen_rows += range(high, 2 * high - low)
        order += range(high - 1, low - 1, -1)
    frozen_rows, order = np.array(frozen_rows, dtype=np.intp), np.array(order, dtype=np.intp)
    frozen_rows.flags.writeable = order.flags.writeable = False  # shared by every call
    return keys, frozen_rows, order


def recursion_residuals(lie_poisson: np.ndarray, frozen: np.ndarray) -> dict:
    """Residuals of the two-structure recursion, keyed by (k, r) in ascending order.

    For every 1 <= r <= k <= n-1 with k - r even, the Lie-Poisson image of
    the gradient of the (k, k-r) member less the frozen image of the
    gradient of the (k+1, k-r) member; the difference vanishes identically.
    The arguments are the images of a state's :func:`gradient_table` with
    ``beyond``, ``table``: ``lie_poisson`` is
    ``lie_poisson_tensor(x, table[:members], n_skew)`` and ``frozen`` is
    ``frozen_tensor(table, n_skew)``, whose (n, 2r) family serves k = n-1,
    so the recursion walks no powers and applies no tensor of its own.  One
    gather of the frozen rows, one subtraction into it and one reduction
    give every residual, bit for bit the arithmetic of one pair at a time.
    """
    keys, frozen_rows, order = _recursion_rows(lie_poisson.shape[-1])
    diff = frozen[frozen_rows]  # a copy, so the images are never written into
    np.subtract(lie_poisson, diff, out=diff)
    worst = np.max(np.abs(diff, out=diff), axis=(1, 2))
    return dict(zip(keys, worst[order].tolist()))
