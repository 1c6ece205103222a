import dataclasses
import functools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from symflow import invariants, matrix_core, verify
from symflow.invariants import admissible_indices, gradient_table, invariant_count
from symflow.matrix_core import max_abs, random_skew, random_sym
from symflow.poisson import (
    canonical_form,
    canonical_skew_matrix,
    frozen_tensor,
    lie_poisson_bracket,
    lie_poisson_tensor,
)
from symflow.verify import (
    DEFAULT_TOLERANCES,
    certificates,
    expected_leaf_dimensions,
    flow_generation_defect,
    integrability_summary,
    sectional_certificate,
    sectional_comparison_2x2,
)


def run_suite(form, name, samples, seed, **tolerances):
    """The certificate of one suite run alone by ``certificates``; raises the exception it yields."""
    (outcome,) = certificates(form, [name], samples, seed, {**DEFAULT_TOLERANCES, **tolerances})
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def loop_involution_details(form, samples, seed):
    """Pair-by-pair bracket loop, the reference form of the involution suite."""
    keys = admissible_indices(form.n)
    rng = np.random.default_rng(seed)
    details = []
    for s in range(samples):
        x = random_sym(form.n, rng)
        grads = dict(zip(keys, gradient_table(x, form.skew)[1]))
        worst, pair, bracket = 0.0, None, None
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                lp = abs(lie_poisson_bracket(grads[a], grads[b], x, form.skew))
                fr = abs(lie_poisson_bracket(grads[a], grads[b], np.eye(form.n), form.skew))  # frozen
                for val, name in ((lp, "lie_poisson"), (fr, "frozen")):
                    if val > worst:
                        worst, pair, bracket = val, (a, b), name
        details.append({"sample": s, "max_abs_bracket": worst, "worst_pair": pair, "worst_bracket": bracket})
    return details


def loop_sectional(samples, seed, min_gap=0.1):
    """One draw and one 2x2 comparison per sample, the reference form of
    sectional_certificate; returns the closest sample's detail and the draw count."""
    rng = np.random.default_rng(seed)
    smallest, closest, draws = np.inf, None, 0
    for s in range(samples):
        while True:
            a, b, d, alpha, beta = rng.uniform(-1.0, 1.0, size=5)
            draws += 1
            if abs(a - d) > min_gap and alpha != 0.0:
                break
        sectional, flow, _ = sectional_comparison_2x2(alpha, beta, np.array([[a, b], [b, d]]))
        diff = max_abs(sectional - flow)
        if diff < smallest:
            smallest = diff
            closest = {"sample": s, "point": [a, b, d, alpha, beta], "difference": diff}
    return closest, draws


def both_forms(alpha, beta, x):
    """The scalar comparison, and the middle state of a stacked call on three copies."""
    stacked = sectional_comparison_2x2(np.full(3, alpha), np.full(3, beta), np.stack([x] * 3))
    return [sectional_comparison_2x2(alpha, beta, x), tuple(part[1] for part in stacked)]


def stacked_member_bracket(x, g, n_skew):
    """The worst member bracket with both images of the members and one np.stack per member,
    the reference form of the one-vector bracket."""
    images = (lie_poisson_tensor(x, g, n_skew), frozen_tensor(g, n_skew))
    per_member = [
        np.stack([np.einsum("ab,kba->k", g[i], t[i + 1:]) for t in images], axis=1).ravel()
        for i in range(len(g))
    ]
    brackets = np.abs(np.concatenate([[0.0]] + per_member))
    k = int(np.argmax(brackets)) - 1
    return k, float(brackets[k + 1])


class TestInvolution:
    def test_passes_n4(self):
        rng = np.random.default_rng(0)
        cert = run_suite(canonical_form(random_skew(4, rng)), "involution", 10, 1)
        assert cert.passed
        assert cert.max_residual <= 1e-10
        assert cert.sample_count == 10
        assert len(cert.details) == 10

    def test_vacuous_n2(self):
        # single member: no pairs beyond self, residual exactly zero
        cert = run_suite(canonical_form(canonical_skew_matrix([1.0])), "involution", 3, 2)
        assert cert.passed
        assert cert.max_residual == 0.0

    def test_seed_reproducible(self):
        rng = np.random.default_rng(3)
        form = canonical_form(random_skew(4, rng))
        c1 = run_suite(form, "involution", 4, 9)
        c2 = run_suite(form, "involution", 4, 9)
        assert c1.max_residual == c2.max_residual

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="at least one sample"):
            run_suite(canonical_form(canonical_skew_matrix([1.0])), "involution", 0, 0)

    def check_against_loop(self, form, samples, seed):
        cert = run_suite(form, "involution", samples, seed)
        expected = loop_involution_details(form, samples, seed)
        assert cert.details == expected
        assert cert.max_residual == max(item["max_abs_bracket"] for item in expected)
        return cert

    def test_matches_pair_loop_single_member(self):
        cert = self.check_against_loop(canonical_form(canonical_skew_matrix([1.0])), 3, 4)
        assert all(item["worst_pair"] is None for item in cert.details)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_pair_loop_random_structure(self, n):
        rng = np.random.default_rng(100 + n)
        self.check_against_loop(canonical_form(random_skew(n, rng)), 3, n)

    @pytest.mark.parametrize("n", [*range(1, 18), 24])
    def test_bracket_vector_matches_stacked_members(self, n):
        # random, rotated full-rank and zero N; with N = 0 every bracket is 0.0 and k = -1
        rng = np.random.default_rng(200 + n)
        for n_skew in (random_skew(n, rng), canonical_form(random_skew(n, rng)).canonical_skew, np.zeros((n, n))):
            draw = verify._Draw(random_sym(n, rng), n_skew)
            got = verify._worst_member_bracket(draw.g, *draw.images)
            expected = stacked_member_bracket(draw.x, draw.g, n_skew)
            assert got[0] == expected[0]
            assert np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()
            if not n_skew.any():
                assert got == (-1, 0.0)

    def test_matches_pair_loop_wide_frequencies(self):
        # frequencies 1..4 at n = 8 put the roundoff just above the default
        # tolerance; the array form must keep the loop's bits and verdict
        form = canonical_form(canonical_skew_matrix([1.0, 2.0, 3.0, 4.0]))
        cert = self.check_against_loop(form, 4, 0)
        assert cert.passed is False


class TestIndependence:
    @pytest.mark.parametrize("n,expected_rank", [(4, 4), (6, 9), (5, 6)])
    def test_generic_ranks(self, n, expected_rank):
        rng = np.random.default_rng(n)
        form = canonical_form(random_skew(n, rng))
        cert = run_suite(form, "independence", 3, 5)
        assert cert.passed
        assert all(item["rank"] == expected_rank for item in cert.details)

    def test_degenerate_reported_without_verdict(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0], 2))
        cert = run_suite(form, "independence", 2, 6)
        assert cert.passed is None
        assert all(item["expected"] is None for item in cert.details)

    @pytest.mark.parametrize("n", [4, 7, 16, 32])
    def test_normalized_gradients_bit_equal_per_row_norm(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        g = verify._Draw(random_sym(n, rng), random_skew(n, rng)).g
        seen = []
        monkeypatch.setattr(matrix_core, "_decade_ranks", lambda vectors, tol: seen.append(vectors) or (0, 0))
        verify.numerical_rank(g, 1e-9)
        expected = np.array([v / np.linalg.norm(v) for v in g.reshape(len(g), -1)])
        assert seen[0].tobytes() == expected.tobytes()

    def test_stability_recorded(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        cert = run_suite(form, "independence", 2, 7)
        assert all(item["stable"] for item in cert.details)


MEMBER_PAIR = ("involution", "independence")
STREAM_SUITES = ("involution", "independence", "casimir", "leaf_dims", "recursion", "lax")
TOLERANCES = {"identity": 1e-10, "casimir": 1e-11, "recursion": 1e-11, "lax": 1e-12}


class TestSharedDraws:
    """verify.certificates runs every sampled suite in one pass over the draws."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        table = verify.gradient_table
        monkeypatch.setattr(verify, "gradient_table", lambda *a, **kw: calls.append(1) or table(*a, **kw))
        return calls

    @staticmethod
    def alone(form, samples, seed, names=MEMBER_PAIR):
        return {name: run_suite(form, name, samples, seed, **TOLERANCES).to_dict() for name in names}

    @staticmethod
    def outcomes(form, samples, seed, names=MEMBER_PAIR):
        return dict(zip(names, verify.certificates(form, names, samples, seed, TOLERANCES)))

    @classmethod
    def shared(cls, form, samples, seed, names=MEMBER_PAIR):
        return {name: cert.to_dict() for name, cert in cls.outcomes(form, samples, seed, names).items()}

    def test_each_draw_computed_once(self, calls):
        # equal frequencies: independence resamples and reads draws past involution's
        form = canonical_form(canonical_skew_matrix([1.3] * 3))
        expected = self.alone(form, 2, 4)
        draws = 2 + sum(d["resamples"] for d in expected["independence"]["details"])
        assert draws > 2 and len(calls) == 2 + draws
        calls.clear()
        assert self.shared(form, 2, 4) == expected
        assert len(calls) == draws

    def test_recursion_reads_the_draws_table(self, calls, monkeypatch):
        # the draw's one table is the only walk of the powers; nullity 2 gives
        # independence no verdict, so it takes no resample
        walks, walk = [], invariants._power_stacks
        monkeypatch.setattr(invariants, "_power_stacks", lambda *a: walks.append(1) or walk(*a))
        form = canonical_form(canonical_skew_matrix([0.6, 0.9, 1.2, 1.45], 2))
        self.outcomes(form, 3, 6, STREAM_SUITES)
        assert len(calls) == len(walks) == 3

    @pytest.mark.parametrize("freqs,d", [([0.6, 0.9, 1.2, 1.45], 0), ([0.6, 0.9, 1.2, 1.45], 1),
                                         ([0.6, 0.9, 1.2, 1.45], 2), ([1.3] * 4, 0), ([1.0, 1.0, 2.0], 1)])
    def test_matches_each_suite_alone(self, freqs, d):
        # 7 samples: leaf_dims stops at 5 draws while the others read on
        form = canonical_form(canonical_skew_matrix(freqs, d))
        assert self.shared(form, 7, 5, STREAM_SUITES) == self.alone(form, 7, 5, STREAM_SUITES)

    @pytest.mark.parametrize("freqs,d", [([1.0, 2.0], 0), ([0.6, 0.9, 1.2, 1.45], 1),
                                         ([0.6, 0.9, 1.2, 1.45], 2), (np.linspace(0.5, 1.5, 8), 0)])
    def test_alone_all_and_reversed_write_the_same_certificates(self, freqs, d):
        # n = 4, 9, 10 and 16: alone, involution or recursion computes each
        # draw's images itself; together they read the same images
        form = canonical_form(canonical_skew_matrix(freqs, d))
        names = verify.ALL_SUITES
        assert sorted(names) == sorted([*verify._STREAM_SUITES, "sectional2x2"])

        def texts(order):
            outcomes = dict(zip(order, verify.certificates(form, order, 2, 8, DEFAULT_TOLERANCES)))
            return {name: json.dumps(cert.to_dict(), sort_keys=True) for name, cert in outcomes.items()}

        alone = {name: texts([name])[name] for name in names}
        assert texts(names) == alone
        assert texts(names[::-1]) == alone

    def test_images_read_once_per_sample_not_per_resample(self, monkeypatch):
        # equal frequencies: independence resamples, and a resample is no sample of involution
        form = canonical_form(canonical_skew_matrix([1.3] * 3))
        images = []
        monkeypatch.setattr(verify, "frozen_tensor", lambda *a: images.append(1) or frozen_tensor(*a))
        shared = self.shared(form, 2, 4, ("involution", "independence", "recursion"))
        assert sum(d["resamples"] for d in shared["independence"]["details"]) > 0
        assert len(images) == 2

    def test_images_released_with_the_draw(self, monkeypatch):
        # weak references to each draw's images: when draw i is made, _feed
        # still holds draw i-1, and every earlier draw's images are gone
        form = canonical_form(canonical_skew_matrix([0.6, 0.9, 1.2, 1.45], 1))
        refs, live, base = [], [], verify._Draw

        class Recorded(base):
            def __init__(self, *args):
                live.append({i for i, ref in refs if ref() is not None})
                super().__init__(*args)

            @functools.cached_property
            def images(self):
                images = base.images.func(self)
                refs.extend((len(live) - 1, weakref.ref(a)) for a in images)
                return images

        monkeypatch.setattr(verify, "_Draw", Recorded)
        outcomes = self.outcomes(form, 4, 2, STREAM_SUITES)
        assert all(isinstance(cert, verify.Certificate) for cert in outcomes.values())
        assert {i for i, _ in refs} == {0, 1, 2, 3}
        assert all(alive <= {i - 1} for i, alive in enumerate(live))
        assert all(ref() is None for _, ref in refs)

    def test_same_n_and_seed_other_form(self, calls):
        form_a = canonical_form(canonical_skew_matrix([0.6, 0.9, 1.2]))
        form_b = canonical_form(canonical_skew_matrix([0.7, 1.1, 1.4]))
        expected_b = self.alone(form_b, 2, 9)
        assert self.shared(form_a, 2, 9) != expected_b
        calls.clear()
        assert self.shared(form_b, 2, 9) == expected_b
        assert len(calls) == 2

    def test_peak_memory_independent_of_samples(self):
        # one member-gradient stack at n = 24 is 144 x 24 x 24 doubles, 0.66 MB;
        # holding every draw's stack would add at least 6 of them at 8 samples
        form = canonical_form(canonical_skew_matrix(np.linspace(0.5, 1.6, 12)))
        stack = invariant_count(24) * 24 * 24 * 8

        def peak(samples):
            tracemalloc.start()
            try:
                self.outcomes(form, samples, 3, STREAM_SUITES)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations
        few, many = peak(2), peak(8)
        assert many < few + stack / 2, (few, many)

    def test_failing_suite_keeps_the_other(self, monkeypatch):
        form = canonical_form(canonical_skew_matrix([0.6, 0.9, 1.2]))
        expected = run_suite(form, "involution", 2, 7).to_dict()

        def broken(*args):
            raise ArithmeticError("rank")

        monkeypatch.setattr(verify, "numerical_rank", broken)
        outcomes = self.outcomes(form, 2, 7)
        assert outcomes["involution"].to_dict() == expected
        assert isinstance(outcomes["independence"], ArithmeticError)
        with pytest.raises(ArithmeticError, match="rank"):
            run_suite(form, "independence", 2, 7)

    def test_failing_draw_reaches_only_its_readers(self, monkeypatch):
        # the third draw is read by independence alone (a resample after two samples)
        form = canonical_form(canonical_skew_matrix([1.3] * 3))
        expected = run_suite(form, "involution", 2, 4).to_dict()
        table, calls = verify.gradient_table, []

        def third_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ArithmeticError("draw 2")
            return table(*args, **kwargs)

        monkeypatch.setattr(verify, "gradient_table", third_fails)
        outcomes = self.outcomes(form, 2, 4)
        assert outcomes["involution"].to_dict() == expected
        assert isinstance(outcomes["independence"], ArithmeticError)

    def test_suite_done_at_its_start_takes_no_draw(self):
        form = canonical_form(canonical_skew_matrix([0.6, 0.9]))
        taken = []

        def draws():
            while True:
                taken.append(1)
                yield None

        steps = verify._sampled_steps("involution", form, 0, 3, 1e-10, lambda draw: (0.0, {}))
        outcomes = verify._feed({"involution": steps}, draws())
        cert = outcomes["involution"]
        assert isinstance(cert, verify.Certificate)
        assert (cert.sample_count, cert.max_residual, cert.passed, cert.details) == (0, 0.0, True, [])
        assert taken == []

    def test_no_samples(self, monkeypatch):
        # checked once, before any suite runs, sectional2x2 included
        form = canonical_form(canonical_skew_matrix([0.6, 0.9]))
        ran = []
        monkeypatch.setattr(verify, "_draws", lambda *a: ran.append("draws"))
        monkeypatch.setattr(verify, "sectional_certificate", lambda *a: ran.append("sectional2x2"))
        for names in (("sectional2x2",) + STREAM_SUITES, STREAM_SUITES, ("sectional2x2",)):
            with pytest.raises(ValueError, match="at least one sample"):
                self.outcomes(form, 0, 1, names)
        assert ran == []


class TestIntegrabilitySummary:
    def test_even_full_rank(self):
        summary = integrability_summary(canonical_form(canonical_skew_matrix([1.0, 2.0, 3.0])))
        assert summary.counted == summary.required == 9
        assert summary.assessed and summary.verdict == "match"

    def test_nullity_one(self):
        summary = integrability_summary(canonical_form(canonical_skew_matrix([1.0, 2.0], 1)))
        assert summary.counted == summary.required == 6
        assert summary.verdict == "match"

    def test_nullity_two_surplus(self):
        summary = integrability_summary(canonical_form(canonical_skew_matrix([1.0, 2.0], 2)))
        assert summary.counted == 9 and summary.required == 8
        assert not summary.assessed
        assert "surplus" in summary.verdict


class TestCasimirCertificate:
    def test_full_rank_case(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        cert = run_suite(form, "casimir", 5, 8)
        assert cert.passed
        assert cert.max_residual <= 1e-11
        assert cert.details[-1]["frozen_expected_rank"] == 2

    def test_rank_two_structure_on_n3(self):
        # p = 1, d = 1: one trace Casimir plus one kernel entry
        form = canonical_form(canonical_skew_matrix([1.5], 1))
        cert = run_suite(form, "casimir", 5, 9)
        assert cert.passed
        assert cert.details[-1]["frozen_expected_rank"] == 2
        assert cert.details[-1]["lie_poisson_expected_rank"] == 2

    def test_zero_state_residual_zero(self):
        # with no kernel the gradients vanish at the origin
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        from symflow.poisson import lie_poisson_casimir_gradients, lie_poisson_tensor
        grads = lie_poisson_casimir_gradients(form, np.zeros((4, 4)))
        for g in grads:
            assert max_abs(lie_poisson_tensor(np.zeros((4, 4)), g, form.canonical_skew)) == 0.0

    def test_equal_mode_rank(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0]))
        cert = run_suite(form, "casimir", 4, 10)
        assert cert.passed
        assert cert.details[-1]["frozen_expected_rank"] == 4

    def test_mixed_mode_checks_frozen_family(self):
        # clusters of sizes 1 and 2 give 1 + 4 frozen Casimirs, plus the kernel unit
        for d, frozen in ((0, 5), (1, 6)):
            form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], d))
            cert = run_suite(form, "casimir", 2, 11)
            assert cert.passed is True
            assert cert.details[-1]["frozen_mode"] == "mixed"
            assert cert.details[-1]["frozen_residual"] == 0.0
            assert cert.details[-1]["frozen_rank"] == cert.details[-1]["frozen_expected_rank"] == frozen


#: The (v, d) of the Casimir scale grid, each scaled by 1e-3 .. 1e3.
SCALE_PATTERNS = {
    "distinct-8": ([1.4, 1.1, 0.8, 0.55], 0),
    "nullity1-9": ([1.4, 1.1, 0.8, 0.55], 1),
    "wide-8": ([4.0, 3.0, 2.0, 1.0], 0),
    "distinct-12": (np.linspace(1.45, 0.55, 6), 0),
}


class TestCasimirRanks:
    """Both Casimir ranks equal their closed-form counts, whatever the scale of N."""

    @staticmethod
    def ranks(form, samples, seed):
        details = run_suite(form, "casimir", samples, seed).details
        return [item["lie_poisson_rank"] for item in details[:-1]], details[-1]["frozen_rank"]

    @pytest.mark.parametrize("kind", sorted(SCALE_PATTERNS))
    def test_ranks_independent_of_scale(self, kind):
        # the trace-power gradients scale as powers of the pseudo-inverse of N; their unit rows do not
        freqs, d = SCALE_PATTERNS[kind]
        for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
            form = canonical_form(canonical_skew_matrix(scale * np.asarray(freqs), d))
            lp_count, frozen_count = form.casimir_counts()
            assert self.ranks(form, 2, 1) == ([lp_count] * 2, frozen_count), scale

    @pytest.mark.parametrize("n,d", [(16, 0), (24, 0), (32, 0), (17, 1)])
    def test_distinct_ranks_at_larger_n(self, n, d):
        p = (n - d) // 2
        form = canonical_form(canonical_skew_matrix(np.linspace(1.45, 0.55, p), d))
        assert self.ranks(form, 4, 3) == ([p + d * (d + 1) // 2] * 4, form.casimir_counts()[1])


class TestStackedCasimirResiduals:
    """One stacked tensor application and one max give the per-gradient loop's residuals."""

    @pytest.mark.parametrize("freqs,d", [([0.6, 0.9, 1.3], 0), ([0.7, 1.2], 1), ([0.8, 1.1], 2),
                                         ([1.3] * 3, 0), ([1.0, 1.0, 2.0], 1)])
    def test_lie_poisson_residuals_match_loop(self, freqs, d):
        from symflow.poisson import lie_poisson_casimir_gradients, lie_poisson_tensor
        form = canonical_form(canonical_skew_matrix(freqs, d))
        cert = run_suite(form, "casimir", 3, 12)
        rng = np.random.default_rng(12)
        for detail in cert.details[:-1]:
            x = random_sym(form.n, rng)
            grads = lie_poisson_casimir_gradients(form, x)
            expected = max(max_abs(lie_poisson_tensor(x, g, form.canonical_skew)) for g in grads)
            assert detail["lie_poisson_residual"] == expected

    @pytest.mark.parametrize("mode", ["distinct", "equal"])
    def test_frozen_residual_matches_loop(self, monkeypatch, mode):
        # the exact Casimir gradients give exact zeros: perturb them, the largest last
        from symflow.poisson import frozen_casimir_gradients, frozen_tensor
        freqs = [0.6, 0.9, 1.3] if mode == "distinct" else [1.3] * 3
        form = canonical_form(canonical_skew_matrix(freqs, 1))
        rng = np.random.default_rng(13)
        perturbed = np.array([e + 1e-3 * (k + 1) * random_sym(form.n, rng)
                              for k, e in enumerate(frozen_casimir_gradients(form))])
        monkeypatch.setattr(verify, "frozen_casimir_gradients", lambda form: perturbed)
        cert = run_suite(form, "casimir", 1, 13)
        expected = max(max_abs(frozen_tensor(e, form.canonical_skew)) for e in perturbed)
        assert expected > 0.0
        assert cert.details[-1]["frozen_residual"] == expected


class TestLeafDimensionCertificate:
    def test_expected_dimensions_match_literal_formulas(self):
        for p in range(7):
            for d in range(0 if p else 1, 5):  # n = 2p + d >= 1
                lp = 2 * p * (p + d)
                distinct = canonical_form(canonical_skew_matrix([1.0 + 0.25 * k for k in range(p)], d))
                equal = canonical_form(canonical_skew_matrix([1.3] * p, d))
                assert expected_leaf_dimensions(distinct) == (lp, lp)
                assert expected_leaf_dimensions(equal) == (lp, p * (p + 1 + 2 * d))
                assert integrability_summary(distinct).required == p * (p + d)
        for d, dims in ((0, (18, 16)), (1, (24, 22))):
            mixed = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], d))
            assert expected_leaf_dimensions(mixed) == dims

    def test_distinct(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        cert = run_suite(form, "leaf_dims", 2, 12)
        assert cert.passed
        assert cert.details[0]["dims"] == [8, 8]

    def test_equal(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0]))
        cert = run_suite(form, "leaf_dims", 2, 13)
        assert cert.passed
        assert cert.details[0]["dims"] == [8, 6]

    def test_mixed_verdict(self):
        for d, dims in ((0, [18, 16]), (1, [24, 22])):
            form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], d))
            cert = run_suite(form, "leaf_dims", 1, 14)
            assert cert.passed is True
            assert cert.details[0]["dims"] == cert.details[0]["expected"] == dims

    def test_unstable_rank_counts_full_dimension(self):
        # a chain of sub-cut gaps: the leaf ranks straddle the tolerance decade
        form = canonical_form(canonical_skew_matrix([1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8]))
        cert = run_suite(form, "leaf_dims", 2, 0)
        assert cert.passed is False and cert.max_residual == 21.0  # n(n+1)/2 at n = 6
        unstable = "rank 18 at tol 1.0e-09 but 12 at 1.0e-08"
        assert cert.details == [{"sample": s, "unstable": unstable} for s in range(2)]

    @pytest.mark.parametrize("freqs", [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    def test_verdict_independent_of_scale(self, freqs):
        # the frequency grouping cut is relative: a rotated equal N at 1e10 has
        # frequencies about 1e-6 apart, and [1e-9, 2e-9, 3e-9] gaps of 1e-9
        q = np.linalg.qr(np.random.default_rng(22).standard_normal((6, 6)))[0]
        n_skew = q @ canonical_skew_matrix(freqs) @ q.T
        n_skew = n_skew - n_skew.T  # exactly skew, as the constructors make N
        verdicts = [run_suite(canonical_form(scale * n_skew), "leaf_dims", 2, 15).passed
                    for scale in (1e-9, 1.0, 1e10)]
        assert verdicts == [True] * 3


class TestRecursionAndLax:
    def test_recursion_certificate(self):
        rng = np.random.default_rng(15)
        cert = run_suite(canonical_form(random_skew(5, rng)), "recursion", 5, 16)
        assert cert.passed
        assert cert.max_residual <= 1e-11

    def test_lax_certificate(self):
        rng = np.random.default_rng(17)
        cert = run_suite(canonical_form(random_skew(6, rng)), "lax", 5, 18)
        assert cert.passed
        assert cert.max_residual <= 1e-12


class TestSectional:
    def test_frozen_point(self):
        # direct evaluation at a=1, b=1, d=2, alpha=beta=1
        x = np.array([[1.0, 1.0], [1.0, 2.0]])
        for sectional, flow, differ in both_forms(1.0, 1.0, x):
            assert np.allclose(sectional, [[-2.0, 0.0], [0.0, 4.0]], atol=0, rtol=0)
            assert np.allclose(flow, [[-6.0, -3.0], [-3.0, 6.0]], atol=0, rtol=0)
            assert differ

    def test_diagonal_free_case(self):
        # b = 0 kills the sectional side entirely but not the flow
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        for sectional, flow, differ in both_forms(1.0, 1.0, x):
            assert max_abs(sectional) == 0.0
            assert np.allclose(flow, [[0.0, -3.0], [-3.0, 0.0]], atol=0, rtol=0)
            assert differ

    def test_coincidence_locus(self):
        # a = d with b = 0 makes both sides vanish
        x = np.array([[1.5, 0.0], [0.0, 1.5]])
        for sectional, flow, differ in both_forms(2.0, 1.0, x):
            assert max_abs(sectional) == 0.0 and max_abs(flow) == 0.0
            assert not differ

    def test_certificate_separation(self):
        cert = sectional_certificate(1000, seed=0)
        assert cert.passed
        assert cert.details[0]["min_difference"] >= 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("samples,min_gap", [(1, 0.1), (40, 0.1), (1000, 0.1), (50, 1.5)])
    def test_matches_per_sample_loop(self, seed, samples, min_gap):
        closest, draws = loop_sectional(samples, seed, min_gap)
        if min_gap == 1.5:
            # about one draw in sixteen is accepted, so batches are topped up
            assert draws > samples
        cert = sectional_certificate(samples, seed, min_gap=min_gap)
        assert cert.details == [{"min_difference": closest["difference"], "separation": 1e-3}, closest]

    def test_stack_matches_per_state(self):
        rng = np.random.default_rng(21)
        a, b, d, alpha, beta = rng.uniform(-1.0, 1.0, size=(5, 2, 3))
        x = np.stack([np.stack([a, b], -1), np.stack([b, d], -1)], -2)
        sectional, flow, differ = sectional_comparison_2x2(alpha, beta, x)
        assert sectional.shape == flow.shape == (2, 3, 2, 2) and differ.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = sectional_comparison_2x2(alpha[idx], beta[idx], x[idx])
            assert np.array_equal(sectional[idx], one[0]) and np.array_equal(flow[idx], one[1])
            assert differ[idx] == one[2]

    def test_flow_side_matches_vector_field(self):
        from symflow.dynamics import vector_field
        rng = np.random.default_rng(19)
        n2 = canonical_skew_matrix([1.0])
        states = []
        for _ in range(5):
            a, b, d = rng.uniform(-1, 1, 3)
            x = np.array([[a, b], [b, d]])
            _, flow, _ = sectional_comparison_2x2(1.0, 1.0, x)
            assert max_abs(flow - vector_field(x, n2)) <= 1e-14
            states.append(x)
        _, flows, _ = sectional_comparison_2x2(np.ones(5), np.ones(5), np.stack(states))
        for x, flow in zip(states, flows):
            assert max_abs(flow - vector_field(x, n2)) <= 1e-14


class TestCertificatePlumbing:
    def test_json_serializable(self):
        cert = sectional_certificate(10, seed=3)
        payload = json.dumps(cert.to_dict())
        assert "sectional2x2" in payload

    def test_to_dict_shares_nested_containers(self):
        # the CLI writes the dict at once; a deep copy per certificate is waste
        cert = run_suite(canonical_form(canonical_skew_matrix([1.0, 2.0])), "involution", 2, 1)
        payload = cert.to_dict()
        assert payload["details"] is cert.details
        assert payload == dataclasses.asdict(cert)
        summary = integrability_summary(canonical_form(canonical_skew_matrix([1.0, 2.0])))
        assert summary.to_dict() == dataclasses.asdict(summary)

    def test_flow_generation_defect(self):
        rng = np.random.default_rng(20)
        from symflow.matrix_core import random_sym
        for n in (2, 5, 8):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            lp, fr = flow_generation_defect(x, nsk)
            assert lp <= 1e-13 and fr <= 1e-13
