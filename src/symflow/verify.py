"""Numerical certificates for the structural claims about the flow.

Each certificate samples random unit-Frobenius symmetric states (standard
normal entries, symmetrized, normalized) with a recorded seed, evaluates a
family of residuals or ranks, and reports the worst case against a fixed
tolerance.  Certificates carry enough detail (seeds, per-sample worst
offenders) to be reproduced exactly.

Rank-based verdicts are only issued where a closed-form expected value
exists: nullity 0 or 1 for independence, and the two extreme frequency
patterns for the frozen Casimir basis.  Everything else is reported
without a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .matrix_core import _decade_ranks, max_abs, numerical_rank, random_sym
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
from .dynamics import lax_residual, vector_field

#: Default tolerance for identity-type residuals.
IDENTITY_TOL = 1e-10

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


def _member_draws(form: SkewCanonicalForm, seed: int):
    """The states of ``default_rng(seed)``, each with its member gradients.

    Yields (x, g) without end, g stacked (members, n, n) in
    :func:`admissible_indices` order.
    """
    n = form.n
    keys = admissible_indices(n)
    rng = np.random.default_rng(seed)
    while True:
        x = random_sym(n, rng)
        grads = gradient_table(x, form.skew).gradients
        g = np.array([grads[key] for key in keys]).reshape(len(keys), n, n)
        del grads  # hold one copy of the gradients while the suites read them
        yield x, g


def _feed(suites: dict, draws) -> dict:
    """Run suites' steps on one stream of draws, each draw computed once.

    A suite's steps are a generator that receives its i-th draw at its i-th
    ``yield`` and returns its certificate; every suite reads draw i as its
    i-th, so the suites see what each would draw alone, and only the current
    draw is held.  Returns name -> certificate, or the exception the suite
    (or a draw it read) raised, for the caller to raise where the suite
    would run alone.
    """
    outcomes, active = {}, []
    for name, steps in suites.items():
        try:
            next(steps)
            active.append((name, steps))
        except Exception as exc:
            outcomes[name] = exc
    while active:
        try:
            draw = next(draws)
        except Exception as exc:  # every active suite reads this draw next
            outcomes.update((name, exc) for name, _ in active)
            break
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
    return outcomes


def _alone(name: str, steps, form: SkewCanonicalForm, seed: int) -> Certificate:
    outcome = _feed({name: steps}, _member_draws(form, seed))[name]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def member_certificates(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
    tol: float = IDENTITY_TOL,
) -> dict:
    """The involution and independence certificates from one pass over the draws.

    Both suites read each draw's state and member gradients as it is
    computed, so each gradient table is computed once and only the current
    one is held, however many samples.  The certificates equal those of
    :func:`involution_certificate` and :func:`independence_certificate`
    bit for bit.  A suite that raises maps to its exception, so a caller
    can raise it where that suite would have run alone.
    """
    return _feed({
        "involution": _involution_steps(form, samples, seed, tol),
        "independence": _independence_steps(form, samples, seed),
    }, _member_draws(form, seed))


def involution_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
    tol: float = IDENTITY_TOL,
) -> Certificate:
    """Worst pairwise bracket value among all conserved-family members.

    Every admissible pair is evaluated in both the Lie-Poisson and the
    frozen bracket at each sampled state; all must vanish to roundoff.
    """
    return _alone("involution", _involution_steps(form, samples, seed, tol), form, seed)


def _worst_member_bracket(x: np.ndarray, g: np.ndarray, n_skew: np.ndarray) -> tuple[int, float]:
    """Index and value of the largest |bracket| between the members ``g``.

    Member i runs against members i+1.., the Lie-Poisson bracket before the
    frozen one, so index k is pair k // 2 of ``triu_indices`` and bracket
    k % 2; the leading 0.0 means "no pair" (k = -1), as argmax keeps the
    first largest.
    """
    images = (lie_poisson_tensor(x, g, n_skew), frozen_tensor(g, n_skew))
    per_member = [
        np.stack([np.einsum("ab,kba->k", g[i], t[i + 1:]) for t in images], axis=1).ravel()
        for i in range(len(g))
    ]
    brackets = np.abs(np.concatenate([[0.0]] + per_member))
    k = int(np.argmax(brackets)) - 1
    return k, float(brackets[k + 1])


def _involution_steps(form: SkewCanonicalForm, samples: int, seed: int, tol: float):
    if samples < 1:
        raise ValueError("need at least one sample")
    n, n_skew = form.n, form.skew
    keys = admissible_indices(n)
    rows, cols = np.triu_indices(len(keys), 1)
    worst = 0.0
    details = []
    for s in range(samples):
        x, g = yield
        k, sample_worst = _worst_member_bracket(x, g, n_skew)
        worst = max(worst, sample_worst)
        details.append({
            "sample": s,
            "max_abs_bracket": sample_worst,
            "worst_pair": None if k < 0 else (keys[rows[k // 2]], keys[cols[k // 2]]),
            "worst_bracket": None if k < 0 else ("lie_poisson", "frozen")[k % 2],
        })
    return Certificate(
        name="involution", n=n, p=form.p, d=form.d, sample_count=samples,
        max_residual=worst, tolerance=tol, passed=worst <= tol, seed=seed,
        details=details,
    )


def expected_leaf_dimensions(form: SkewCanonicalForm) -> tuple[int, int | None]:
    """Generic leaf dimensions (Lie-Poisson, frozen): n(n+1)/2 less each Casimir count.

    They come to 2p(p+d) and, for the frozen structure, 2p(p+d) (distinct
    frequencies), p(p+1+2d) (all equal) or None (mixed); the member count
    p(p+d) is half the first.
    """
    full = form.n * (form.n + 1) // 2
    lp_count, frozen_count = form.casimir_counts()
    return full - lp_count, None if frozen_count is None else full - frozen_count


def independence_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int = 0,
    max_resamples: int = 3,
) -> Certificate:
    """Rank of the stacked conserved-family gradients at sampled states.

    For nullity 0 or 1 the expected rank is p(p+d), the full member count,
    and a verdict is issued; larger nullities are reported rank-only since
    the family is then redundant.  Gradients are normalized before the rank
    computation (scale does not affect independence) and the rank, at
    ``form.rank_tol``, is re-checked one tolerance decade higher;
    disagreement is flagged in the details rather than averaged away.
    Resamples take the next draws.
    """
    return _alone("independence", _independence_steps(form, samples, seed, max_resamples), form, seed)


def _member_ranks(g: np.ndarray, rank_tol: float) -> tuple[int, int]:
    """Decade ranks of the member gradients, each normalized to unit norm."""
    vecs = []
    for member in g:
        v = member.ravel()
        nrm = np.linalg.norm(v)
        vecs.append(v / nrm if nrm > 0 else v)
    return _decade_ranks(vecs, rank_tol) if vecs else (0, 0)


def _independence_steps(form: SkewCanonicalForm, samples: int, seed: int, max_resamples: int = 3):
    if samples < 1:
        raise ValueError("need at least one sample")
    n, p, d = form.n, form.p, form.d
    expected = expected_leaf_dimensions(form)[0] // 2 if d in (0, 1) else None
    details = []
    worst_gap = 0.0
    for s in range(samples):
        attempt = 0
        while True:
            _, g = yield
            rank, rank_loose = _member_ranks(g, form.rank_tol)
            stable = rank == rank_loose
            if expected is None or rank == expected or attempt >= max_resamples:
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


def casimir_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
    tol: float = 1e-11,
) -> Certificate:
    """Annihilation residuals and gradient ranks of both Casimir families.

    Works in the canonical basis with the exact block structure matrix.
    The Lie-Poisson family must be tensor-annihilated at every sampled
    state and keep gradient rank p + d(d+1)/2; the frozen family is
    state-independent with rank p + d(d+1)/2 (distinct frequencies) or
    p^2 + d(d+1)/2 (all equal).  Mixed patterns skip the frozen basis,
    which only exists in the two extreme cases.  Ranks are taken at
    ``form.rank_tol``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n, p, d = form.n, form.p, form.d
    n_can = form.canonical_skew
    mode = form.mode()
    lp_expected_rank, frozen_expected = form.casimir_counts()
    frozen_grads = None if frozen_expected is None else frozen_casimir_gradients(form, mode)

    worst = 0.0
    details = []
    frozen_residual = 0.0
    frozen_rank = None
    if frozen_grads:
        stack = np.array(frozen_grads)
        frozen_residual = max_abs(frozen_tensor(stack, n_can))
        frozen_rank = numerical_rank(stack, form.rank_tol)
        worst = max(worst, frozen_residual, float(abs(frozen_rank - frozen_expected)))

    rng = np.random.default_rng(seed)
    rank_ok = frozen_grads is None or frozen_rank == frozen_expected
    for s in range(samples):
        x = random_sym(n, rng)
        grads = np.array(lie_poisson_casimir_gradients(form, x))  # p + d(d+1)/2 >= 1 of them
        residual = max_abs(lie_poisson_tensor(x, grads, n_can))
        lp_rank = numerical_rank(grads, form.rank_tol)
        rank_ok = rank_ok and lp_rank == lp_expected_rank
        worst = max(worst, residual, float(abs(lp_rank - lp_expected_rank)))
        details.append({"sample": s, "lie_poisson_residual": residual, "lie_poisson_rank": lp_rank})
    details.append({
        "frozen_mode": mode,
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


def leaf_dimension_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
) -> Certificate:
    """Sampled leaf dimensions against the closed-form counts.

    The Lie-Poisson side expects 2p(p+d) always; the frozen side expects
    2p(p+d) for distinct frequencies and p(p+1+2d) when they all coincide.
    Mixed patterns are reported without a verdict.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n, p, d = form.n, form.p, form.d
    expect_lp, expect_frozen = expected_leaf_dimensions(form)
    rng = np.random.default_rng(seed)
    details = []
    worst = 0.0
    for s in range(samples):
        x = random_sym(n, rng)
        try:
            dim_lp, dim_frozen = leaf_dimensions(form, x)
        except RankInstabilityError as exc:
            details.append({"sample": s, "unstable": str(exc)})
            worst = max(worst, float(n * (n + 1) // 2))
            continue
        gap = abs(dim_lp - expect_lp)
        if expect_frozen is not None:
            gap = max(gap, abs(dim_frozen - expect_frozen))
        worst = max(worst, float(gap))
        details.append({
            "sample": s,
            "dims": [dim_lp, dim_frozen],
            "expected": [expect_lp, expect_frozen],
        })
    return Certificate(
        name="leaf_dims", n=n, p=p, d=d, sample_count=samples,
        max_residual=worst, tolerance=0.0,
        passed=None if expect_frozen is None else worst <= 0.0,
        seed=seed, details=details,
    )


def recursion_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
    tol: float = 1e-11,
) -> Certificate:
    """Worst recursion residual over all admissible index pairs."""
    if samples < 1:
        raise ValueError("need at least one sample")
    n, n_skew = form.n, form.skew
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = []
    for s in range(samples):
        residuals = recursion_residuals(random_sym(n, rng), n_skew)
        sample_worst, worst_pair = 0.0, None
        for pair, res in residuals.items():
            if res > sample_worst:
                sample_worst, worst_pair = res, pair
        worst = max(worst, sample_worst)
        details.append({"sample": s, "max_residual": sample_worst, "worst_pair": worst_pair})
    return Certificate(
        name="recursion", n=n, p=form.p, d=form.d, sample_count=samples,
        max_residual=worst, tolerance=tol, passed=worst <= tol, seed=seed,
        details=details,
    )


def lax_certificate(
    form: SkewCanonicalForm,
    samples: int,
    seed: int,
    tol: float = 1e-12,
    lambdas: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0),
) -> Certificate:
    """Worst parametric commutator defect over a lambda grid."""
    if samples < 1:
        raise ValueError("need at least one sample")
    n, n_skew = form.n, form.skew
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = []
    for s in range(samples):
        x = random_sym(n, rng)
        res = max(lax_residual(x, n_skew, lam) for lam in lambdas)
        worst = max(worst, res)
        details.append({"sample": s, "max_residual": res})
    return Certificate(
        name="lax", n=n, p=form.p, d=form.d, sample_count=samples,
        max_residual=worst, tolerance=tol, passed=worst <= tol, seed=seed,
        details=details,
    )


def sectional_comparison_2x2(alpha, beta, x2: np.ndarray):
    """Both 2x2 right-hand sides: sectional-operator flow versus this flow.

    For ``X = [[a, b], [b, d]]`` and the canonical 2x2 structure matrix the
    sectional-operator equations give (beta/alpha) diag(-2ab, 2bd) while
    this flow gives (a+d) [[-2b, a-d], [a-d, 2b]]; the two coincide only on
    the a = d locus.  Broadcasts over a stack of states of shape (..., 2, 2)
    with alpha and beta of shape (...).  Returns (sectional_rhs, flow_rhs,
    differ).
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha == 0):
        raise ValueError("alpha must be nonzero")
    x2 = np.asarray(x2, dtype=float)
    if x2.shape[-2:] != (2, 2):
        raise ValueError("comparison is specific to 2x2 states")
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
    separation: float = SECTIONAL_SEPARATION,
) -> Certificate:
    """Sampled check that the 2x2 flow differs from the family (beta/alpha) diag(-2ab, 2bd).

    Draws (a, b, d, alpha, beta) uniformly from [-1, 1], rejecting
    |a - d| <= min_gap and alpha = 0, and requires the two right-hand sides
    of :func:`sectional_comparison_2x2` to stay at least ``separation``
    apart in max-abs norm.  A pass says only that: the 2x2 flow is itself
    of sectional-operator type, with (a, b) = (I, I).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
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
    residual = max(0.0, separation - smallest)
    return Certificate(
        name="sectional2x2", n=2, p=1, d=0, sample_count=samples,
        max_residual=residual, tolerance=0.0, passed=residual <= 0.0,
        seed=seed, details=[{"min_difference": smallest, "separation": separation}, closest],
    )


def flow_generation_defect(x: np.ndarray, n_skew: np.ndarray) -> tuple[float, float]:
    """Defects of generating the flow through each Poisson structure.

    The Lie-Poisson tensor applied to the gradient of trace(x^2)/2 and the
    frozen tensor applied to the gradient of trace(x^3)/3 must both equal
    the right-hand side.
    """
    f = vector_field(x, n_skew)
    lp = max_abs(f - lie_poisson_tensor(x, x, n_skew))
    fr = max_abs(f - frozen_tensor(x @ x, n_skew))
    return lp, fr
