"""Numerical certificates for the structural claims about the flow.

:func:`certificates` is the one entry: it runs the named suites, one of
them alone or all of ``symflow verify``'s.  Each sampled suite draws random
unit-Frobenius symmetric states (standard normal entries, symmetrized,
normalized) with a recorded seed, evaluates a family of residuals or
ranks, and reports the worst case against a fixed tolerance.  Certificates
carry enough detail (seeds, per-sample worst offenders) to be reproduced
exactly.

Each draw computes, on first read, the arrays its certificates share: the
gradient table of the members with the (n, 2r) family beyond them, and the
two Poisson-tensor images of it that ``involution`` and ``recursion`` both
read, the Lie-Poisson images of the members and the frozen images of the
whole table.  Only the current draw is held, so they live for one draw.

Rank-based verdicts are only issued where a closed-form expected value
exists: the Casimir and leaf-dimension counts have one for every frequency
pattern, independence only for nullity 0 or 1.  Larger nullities are
reported without an independence verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .matrix_core import max_abs, numerical_rank, random_sym
from .invariants import (
    admissible_indices,
    gradient_table,
    invariant_count,
    recursion_residuals,
)
from .poisson import (
    RankInstabilityError,
    SkewCanonicalForm,
    frozen_casimir_gradients,
    frozen_tensor,
    leaf_dimensions,
    lie_poisson_casimir_gradients,
    lie_poisson_tensor,
)
from .dynamics import lax_residual

#: The tolerances of ``symflow verify``, keyed as a config's ``tolerances``: identity (involution), casimir,
#: recursion and lax bound their suites' residuals, and rank is the relative
#: cut of the canonical form and of every rank decision made with it.
DEFAULT_TOLERANCES = {
    "identity": 1e-10,
    "rank": 1e-9,
    "recursion": 1e-11,
    "lax": 1e-12,
    "casimir": 1e-11,
}

#: The suites on the one stream of draws, each with the sample count and
#: tolerance key that ``symflow verify`` gives it, in the order they read
#: each draw: leaf_dims, which needs only the state and makes the largest
#: arrays of its own, first, before the draw's gradient table and tensor
#: images exist.
_STREAM_SUITES = {
    "leaf_dims": lambda form, samples, seed, tols: _leaf_dimension_steps(form, min(samples, 5), seed),
    "involution": lambda form, samples, seed, tols: _involution_steps(form, samples, seed, tols["identity"]),
    "independence": lambda form, samples, seed, tols: _independence_steps(form, samples, seed),
    "casimir": lambda form, samples, seed, tols: _casimir_steps(form, samples, seed, tols["casimir"]),
    "recursion": lambda form, samples, seed, tols: _recursion_steps(form, samples, seed, tols["recursion"]),
    "lax": lambda form, samples, seed, tols: _lax_steps(form, samples, seed, tols["lax"]),
}

#: Every suite of ``symflow verify``, in its default order.
ALL_SUITES = ("involution", "independence", "casimir", "leaf_dims", "recursion", "lax", "sectional2x2")

#: Further draws the independence certificate takes for a sample whose rank
#: misses the expected one before it reports that rank.
MAX_RESAMPLES = 3

#: The lambda grid of the Lax certificate.
LAX_LAMBDAS = (-1.0, -0.5, 0.0, 0.5, 1.0)

#: Minimum infinity-norm separation of the two 2x2 right-hand sides in the
#: sectional-operator comparison, away from the a = d coincidence locus.
SECTIONAL_SEPARATION = 1e-3


@dataclass
class Certificate:
    """Outcome of one sampled verification suite.

    ``passed`` is None for report-only runs (no closed-form expectation);
    otherwise it equals ``max_residual <= tolerance``.
    """

    name: str
    n: int
    p: int
    d: int
    sample_count: int
    max_residual: float
    tolerance: float
    passed: bool | None
    seed: int
    details: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Draw:
    """One sampled state ``x``; its gradient ``table`` and tensor ``images`` are computed on first read.

    A draw no suite reads for them, such as an independence resample for
    ``images``, never computes them.  Both are attributes of the draw, so
    they go with it when the stream moves on to the next draw.
    """

    def __init__(self, x: np.ndarray, n_skew: np.ndarray):
        self.x, self._n_skew = x, n_skew

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The member gradients in :func:`admissible_indices` order, then the (n, 2r) family."""
        return gradient_table(self.x, self._n_skew, beyond=True)[1]

    @property
    def g(self) -> np.ndarray:
        """The member gradients, stacked (members, n, n) in :func:`admissible_indices` order."""
        return self.table[:invariant_count(len(self.x))]

    @functools.cached_property
    def images(self) -> tuple[np.ndarray, np.ndarray]:
        """The Lie-Poisson images of the members ``g`` and the frozen images of the whole ``table``.

        ``involution`` and ``recursion`` read them and never write into them.
        """
        return lie_poisson_tensor(self.x, self.g, self._n_skew), frozen_tensor(self.table, self._n_skew)


def _draws(form: SkewCanonicalForm, seed: int):
    """The states of ``default_rng(seed)`` without end, the one stream every sampled suite reads."""
    rng = np.random.default_rng(seed)
    while True:
        yield _Draw(random_sym(form.n, rng), form.skew)


def _feed(suites: dict, draws) -> dict:
    """Run suites' steps on one stream of draws, each draw computed once.

    A suite's steps are a generator that receives its i-th draw at its i-th
    ``yield`` and returns its certificate; every suite reads draw i as its
    i-th, so the suites see what each would draw alone, and only the current
    draw is held.  Returns name -> certificate, or the exception the suite
    raised, for the caller to raise where the suite would run alone.
    """
    outcomes, active, draw = {}, list(suites.items()), None
    while active:  # the first send(None) starts each suite
        waiting = []
        for name, steps in active:
            try:
                steps.send(draw)
                waiting.append((name, steps))
            except StopIteration as stop:
                outcomes[name] = stop.value
            except Exception as exc:
                outcomes[name] = exc
        active = waiting
        draw = next(draws) if active else None
    return outcomes


def _sampled_steps(name: str, form: SkewCanonicalForm, samples: int, seed: int, tol: float, residual):
    """Steps of a suite whose sample passes when its residual is at most ``tol``.

    ``residual(draw)`` returns the draw's residual and the rest of its
    detail; the certificate keeps the worst residual.
    """
    worst = 0.0
    details = []
    for s in range(samples):
        value, detail = residual((yield))
        worst = max(worst, value)
        details.append({"sample": s, **detail})
    return Certificate(
        name=name, n=form.n, p=form.p, d=form.d, sample_count=samples,
        max_residual=worst, tolerance=tol, passed=worst <= tol, seed=seed,
        details=details,
    )


def _worst_member_bracket(g: np.ndarray, lie_poisson: np.ndarray, frozen: np.ndarray) -> tuple[int, float]:
    """Index and value of the largest |bracket| between the members ``g``, from their tensor images.

    ``lie_poisson`` and ``frozen`` start with the images of the members, in
    their order.  Member i runs against members i+1.., the Lie-Poisson
    bracket before the frozen one, so index k is pair k // 2 of
    ``triu_indices`` and bracket k % 2; the leading 0.0 means "no pair"
    (k = -1), as argmax keeps the first largest.  Each member's traces go
    straight into its (rest, 2) segment of the one bracket vector.
    """
    m = len(g)
    brackets = np.empty(m * (m - 1) + 1)
    brackets[0] = 0.0
    start = 1
    for i in range(m - 1):
        rest = m - 1 - i
        pairs = brackets[start:start + 2 * rest].reshape(rest, 2)
        for j, images in enumerate((lie_poisson, frozen)):
            np.einsum("ab,kba->k", g[i], images[i + 1:m], out=pairs[:, j])
        start += 2 * rest
    np.abs(brackets, out=brackets)
    k = int(np.argmax(brackets)) - 1
    return k, float(brackets[k + 1])


def _involution_steps(form: SkewCanonicalForm, samples: int, seed: int, tol: float):
    """Worst bracket, Lie-Poisson and frozen, over every pair of members; all vanish to roundoff."""
    keys = admissible_indices(form.n)
    rows, cols = np.triu_indices(len(keys), 1)

    def residual(draw):
        k, worst = _worst_member_bracket(draw.g, *draw.images)
        return worst, {
            "max_abs_bracket": worst,
            "worst_pair": None if k < 0 else (keys[rows[k // 2]], keys[cols[k // 2]]),
            "worst_bracket": None if k < 0 else ("lie_poisson", "frozen")[k % 2],
        }

    return _sampled_steps("involution", form, samples, seed, tol, residual)


def expected_leaf_dimensions(form: SkewCanonicalForm) -> tuple[int, int]:
    """Generic leaf dimensions (Lie-Poisson, frozen): n(n+1)/2 less each Casimir count.

    They come to 2p(p+d) and, for the frozen structure, 2p(p+d) + p less
    the sum of m_c^2 over the frequency clusters: 2p(p+d) for distinct
    frequencies, p(p+1+2d) for all equal.  The member count p(p+d) is half
    the first.
    """
    full = form.n * (form.n + 1) // 2
    lp_count, frozen_count = form.casimir_counts()
    return full - lp_count, full - frozen_count


def _independence_steps(form: SkewCanonicalForm, samples: int, seed: int):
    """Rank of the normalized member gradients at ``form.rank_tol``, and its stability a decade higher.

    Nullity 0 or 1 expects p(p+d), the member count; larger nullities get no
    verdict.  A missed rank takes up to :data:`MAX_RESAMPLES` further draws.
    """
    n, p, d = form.n, form.p, form.d
    expected = expected_leaf_dimensions(form)[0] // 2 if d in (0, 1) else None
    details = []
    worst_gap = 0.0
    for s in range(samples):
        attempt = 0
        while True:
            rank, rank_loose = numerical_rank((yield).g, form.rank_tol)
            stable = rank == rank_loose
            if expected is None or rank == expected or attempt >= MAX_RESAMPLES:
                break
            attempt += 1  # degenerate sample; resample per the genericity claim
        gap = 0.0 if expected is None else abs(rank - expected)
        worst_gap = max(worst_gap, float(gap))
        details.append({
            "sample": s,
            "rank": rank,
            "expected": expected,
            "stable": stable,
            "resamples": attempt,
        })
    return Certificate(
        name="independence", n=n, p=p, d=d, sample_count=samples,
        max_residual=worst_gap, tolerance=0.0,
        passed=None if expected is None else worst_gap <= 0.0,
        seed=seed, details=details,
    )


@dataclass
class IntegrabilitySummary:
    """Counted conserved quantities against the half-leaf-dimension target."""

    n: int
    p: int
    d: int
    counted: int
    required: int
    casimirs: int
    leaf_dim: int
    assessed: bool
    verdict: str

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def integrability_summary(form: SkewCanonicalForm) -> IntegrabilitySummary:
    """Compare the member count with half the generic Lie-Poisson leaf dimension.

    Nullity 0 or 1 gives exact agreement, the complete-integrability count;
    nullity >= 2 yields a surplus whose redundancy is reported, not judged.
    """
    p, d = form.p, form.d
    counted = invariant_count(form.n)
    casimirs = form.casimir_counts()[0]
    leaf = expected_leaf_dimensions(form)[0]
    required = leaf // 2
    if d in (0, 1):
        assessed = True
        verdict = "match" if counted == required else "mismatch"
    else:
        assessed = False
        verdict = f"surplus of {counted - required}, redundancy expected, no verdict"
    return IntegrabilitySummary(
        n=form.n, p=p, d=d, counted=counted, required=required,
        casimirs=casimirs, leaf_dim=leaf, assessed=assessed, verdict=verdict,
    )


def _casimir_steps(form: SkewCanonicalForm, samples: int, seed: int, tol: float):
    """Both Casimir families in the canonical basis, each annihilated by its tensor and of full rank.

    The ranks of :func:`numerical_rank` (unit rows) at ``form.rank_tol`` are p + d(d+1)/2 (Lie-Poisson,
    per draw) and sum_c m_c^2 + d(d+1)/2 (frozen, once): :meth:`SkewCanonicalForm.casimir_counts`.
    """
    n, p, d = form.n, form.p, form.d
    n_can = form.canonical_skew
    lp_expected_rank, frozen_expected = form.casimir_counts()
    frozen_grads = frozen_casimir_gradients(form)
    frozen_residual = max_abs(frozen_tensor(frozen_grads, n_can))
    frozen_rank = numerical_rank(frozen_grads, form.rank_tol)[0]
    worst = max(frozen_residual, float(abs(frozen_rank - frozen_expected)))
    rank_ok = frozen_rank == frozen_expected
    details = []
    for s in range(samples):
        x = (yield).x
        grads = lie_poisson_casimir_gradients(form, x)  # p + d(d+1)/2 >= 1 of them
        residual = max_abs(lie_poisson_tensor(x, grads, n_can))
        lp_rank = numerical_rank(grads, form.rank_tol)[0]
        rank_ok = rank_ok and lp_rank == lp_expected_rank
        worst = max(worst, residual, float(abs(lp_rank - lp_expected_rank)))
        details.append({"sample": s, "lie_poisson_residual": residual, "lie_poisson_rank": lp_rank})
    details.append({
        "frozen_mode": form.mode(),
        "frozen_residual": frozen_residual,
        "frozen_rank": frozen_rank,
        "frozen_expected_rank": frozen_expected,
        "lie_poisson_expected_rank": lp_expected_rank,
    })
    return Certificate(
        name="casimir", n=n, p=p, d=d, sample_count=samples,
        max_residual=worst, tolerance=tol, passed=worst <= tol and rank_ok,
        seed=seed, details=details,
    )


def _leaf_dimension_steps(form: SkewCanonicalForm, samples: int, seed: int):
    """Leaf dimensions against :func:`expected_leaf_dimensions`; an unstable rank counts n(n+1)/2.

    The frozen dimension does not depend on the draw: the form ranks it once,
    on the first draw whose Lie-Poisson rank is stable, and again after an
    unstable frozen rank (:attr:`SkewCanonicalForm.frozen_leaf_dimension`).
    """
    expected = expected_leaf_dimensions(form)

    def residual(draw):
        try:
            dims = leaf_dimensions(form, draw.x)
        except RankInstabilityError as exc:
            return float(form.n * (form.n + 1) // 2), {"unstable": str(exc)}
        gap = max(abs(dims[0] - expected[0]), abs(dims[1] - expected[1]))
        return float(gap), {"dims": list(dims), "expected": list(expected)}

    return _sampled_steps("leaf_dims", form, samples, seed, 0.0, residual)


def _recursion_steps(form: SkewCanonicalForm, samples: int, seed: int, tol: float):
    """Worst recursion residual over all admissible index pairs."""

    def residual(draw):
        sample_worst, worst_pair = 0.0, None
        for pair, res in recursion_residuals(*draw.images).items():
            if res > sample_worst:
                sample_worst, worst_pair = res, pair
        return sample_worst, {"max_residual": sample_worst, "worst_pair": worst_pair}

    return _sampled_steps("recursion", form, samples, seed, tol, residual)


def _lax_steps(form: SkewCanonicalForm, samples: int, seed: int, tol: float):
    """Worst parametric commutator defect over the grid :data:`LAX_LAMBDAS`."""

    def residual(draw):
        res = max(lax_residual(draw.x, form.skew, LAX_LAMBDAS))
        return res, {"max_residual": res}

    return _sampled_steps("lax", form, samples, seed, tol, residual)


def sectional_comparison_2x2(alpha, beta, x2: np.ndarray):
    """Both 2x2 right-hand sides: sectional-operator flow versus this flow.

    For ``X = [[a, b], [b, d]]`` and the canonical 2x2 structure matrix the
    sectional-operator equations give (beta/alpha) diag(-2ab, 2bd) while
    this flow gives (a+d) [[-2b, a-d], [a-d, 2b]]; the two coincide only on
    the a = d locus.  Broadcasts over a stack of states of shape (..., 2, 2)
    with alpha and beta of shape (...).  Returns (sectional_rhs, flow_rhs,
    differ).  Expects nonzero alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a, b, d = x2[..., 0, 0], x2[..., 0, 1], x2[..., 1, 1]
    zero = np.zeros_like(a)
    sectional = np.stack([-2.0 * a * b, zero, zero, 2.0 * b * d], -1) * (beta / alpha)[..., None]
    flow = np.stack([-2.0 * b, a - d, a - d, 2.0 * b], -1) * (a + d)[..., None]
    sectional, flow = sectional.reshape(x2.shape), flow.reshape(x2.shape)
    differ = np.max(np.abs(sectional - flow), axis=(-2, -1)) > 1e-12
    return sectional, flow, differ


def sectional_certificate(
    samples: int,
    seed: int,
    min_gap: float = 0.1,
) -> Certificate:
    """Sampled check that the 2x2 flow differs from the family (beta/alpha) diag(-2ab, 2bd).

    Draws (a, b, d, alpha, beta) uniformly from [-1, 1], rejecting
    |a - d| <= min_gap and alpha = 0, and requires the two right-hand sides
    of :func:`sectional_comparison_2x2` to stay at least
    :data:`SECTIONAL_SEPARATION` apart in max-abs norm.  A pass says only
    that: the 2x2 flow is itself of sectional-operator type, with
    (a, b) = (I, I).
    """
    rng = np.random.default_rng(seed)
    points = np.empty((0, 5))  # batches accept, in order, what single draws would
    while len(points) < samples:
        draws = rng.uniform(-1.0, 1.0, size=(samples, 5))
        keep = (np.abs(draws[:, 0] - draws[:, 2]) > min_gap) & (draws[:, 3] != 0.0)
        points = np.concatenate([points, draws[keep]])
    points = points[:samples]
    states = points[:, [0, 1, 1, 2]].reshape(samples, 2, 2)
    sectional, flow, _ = sectional_comparison_2x2(points[:, 3], points[:, 4], states)
    differences = np.max(np.abs(sectional - flow), axis=(-2, -1))
    s = int(np.argmin(differences))
    smallest = float(differences[s])
    closest = {"sample": s, "point": points[s].tolist(), "difference": smallest}
    residual = max(0.0, SECTIONAL_SEPARATION - smallest)
    return Certificate(
        name="sectional2x2", n=2, p=1, d=0, sample_count=samples,
        max_residual=residual, tolerance=0.0, passed=residual <= 0.0,
        seed=seed, details=[{"min_difference": smallest, "separation": SECTIONAL_SEPARATION}, closest],
    )


def certificates(form: SkewCanonicalForm, names, samples: int, seed: int, tolerances: dict):
    """Each named suite's certificate, or the exception it raised, in the order of ``names``.

    The one way to run a suite: ``[name]`` runs it alone.  ``samples``, at
    least 1, is the command's count, which leaf_dims caps at 5 and
    sectional2x2 raises to at least 1000 points of its own; ``tolerances``
    maps identity, casimir, recursion and lax to their suites' tolerances.
    Every other suite reads the one stream of draws: they run in one pass
    when the first of them comes up, each reading draw i as its i-th in the
    order of :data:`_STREAM_SUITES`, whatever the order of ``names``, so
    each certificate equals the suite's alone, each draw, its member
    gradients and their tensor images are computed once and only the
    current draw is held.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    outcomes = None
    for name in names:
        if name == "sectional2x2":
            try:
                outcome = sectional_certificate(max(samples, 1000), seed)
            except Exception as exc:
                outcome = exc
        else:
            if outcomes is None:
                outcomes = _feed({
                    suite: steps(form, samples, seed, tolerances)
                    for suite, steps in _STREAM_SUITES.items() if suite in names
                }, _draws(form, seed))
            outcome = outcomes[name]
        yield outcome

