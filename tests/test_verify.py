import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from symflow import verify
from symflow.invariants import admissible_indices, gradient_table, invariant_count
from symflow.matrix_core import max_abs, random_skew, random_sym
from symflow.poisson import canonical_form, canonical_skew_matrix, frozen_bracket, lie_poisson_bracket
from symflow.verify import (
    casimir_certificate,
    expected_leaf_dimensions,
    flow_generation_defect,
    independence_certificate,
    integrability_summary,
    involution_certificate,
    lax_certificate,
    leaf_dimension_certificate,
    member_certificates,
    recursion_certificate,
    sectional_certificate,
    sectional_comparison_2x2,
)


def loop_involution_details(form, samples, seed):
    """Pair-by-pair bracket loop, the reference form of involution_certificate."""
    keys = admissible_indices(form.n)
    rng = np.random.default_rng(seed)
    details = []
    for s in range(samples):
        x = random_sym(form.n, rng)
        grads = gradient_table(x, form.skew).gradients
        worst, pair, bracket = 0.0, None, None
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                lp = abs(lie_poisson_bracket(grads[a], grads[b], x, form.skew))
                fr = abs(frozen_bracket(grads[a], grads[b], form.skew))
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


class TestInvolution:
    def test_passes_n4(self):
        rng = np.random.default_rng(0)
        cert = involution_certificate(canonical_form(random_skew(4, rng)), samples=10, seed=1)
        assert cert.passed
        assert cert.max_residual <= 1e-10
        assert cert.sample_count == 10
        assert len(cert.details) == 10

    def test_vacuous_n2(self):
        # single member: no pairs beyond self, residual exactly zero
        cert = involution_certificate(canonical_form(canonical_skew_matrix([1.0])), samples=3, seed=2)
        assert cert.passed
        assert cert.max_residual == 0.0

    def test_seed_reproducible(self):
        rng = np.random.default_rng(3)
        form = canonical_form(random_skew(4, rng))
        c1 = involution_certificate(form, samples=4, seed=9)
        c2 = involution_certificate(form, samples=4, seed=9)
        assert c1.max_residual == c2.max_residual

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            involution_certificate(canonical_form(canonical_skew_matrix([1.0])), samples=0, seed=0)

    def check_against_loop(self, form, samples, seed):
        cert = involution_certificate(form, samples=samples, seed=seed)
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
        cert = independence_certificate(form, samples=3, seed=5)
        assert cert.passed
        assert all(item["rank"] == expected_rank for item in cert.details)

    def test_degenerate_reported_without_verdict(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0], 2))
        cert = independence_certificate(form, samples=2, seed=6)
        assert cert.passed is None
        assert all(item["expected"] is None for item in cert.details)

    def test_stability_recorded(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        cert = independence_certificate(form, samples=2, seed=7)
        assert all(item["stable"] for item in cert.details)


class TestSharedDraws:
    """member_certificates runs involution and independence in one pass over the draws."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        table = verify.gradient_table
        monkeypatch.setattr(verify, "gradient_table", lambda *a: calls.append(1) or table(*a))
        return calls

    @staticmethod
    def alone(form, samples, seed):
        return {"involution": involution_certificate(form, samples, seed).to_dict(),
                "independence": independence_certificate(form, samples, seed).to_dict()}

    @staticmethod
    def shared(form, samples, seed):
        return {name: cert.to_dict() for name, cert in member_certificates(form, samples, seed).items()}

    def test_each_draw_computed_once(self, calls):
        # equal frequencies: independence resamples and reads draws past involution's
        form = canonical_form(canonical_skew_matrix([1.3] * 3))
        expected = self.alone(form, 2, 4)
        draws = 2 + sum(d["resamples"] for d in expected["independence"]["details"])
        assert draws > 2 and len(calls) == 2 + draws
        calls.clear()
        assert self.shared(form, 2, 4) == expected
        assert len(calls) == draws

    @pytest.mark.parametrize("freqs,d", [([0.6, 0.9, 1.2, 1.45], 0), ([0.6, 0.9, 1.2, 1.45], 1),
                                         ([0.6, 0.9, 1.2, 1.45], 2), ([1.3] * 4, 0), ([1.0, 1.0, 2.0], 1)])
    def test_matches_each_suite_alone(self, freqs, d):
        form = canonical_form(canonical_skew_matrix(freqs, d))
        assert self.shared(form, 3, 5) == self.alone(form, 3, 5)

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
                member_certificates(form, samples, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations
        few, many = peak(2), peak(8)
        assert many < few + stack / 2, (few, many)

    def test_failing_suite_keeps_the_other(self, monkeypatch):
        form = canonical_form(canonical_skew_matrix([0.6, 0.9, 1.2]))
        expected = involution_certificate(form, 2, 7).to_dict()

        def broken(*args):
            raise ArithmeticError("rank")

        monkeypatch.setattr(verify, "_decade_ranks", broken)
        outcomes = member_certificates(form, 2, 7)
        assert outcomes["involution"].to_dict() == expected
        assert isinstance(outcomes["independence"], ArithmeticError)
        with pytest.raises(ArithmeticError, match="rank"):
            independence_certificate(form, 2, 7)

    def test_failing_draw_reaches_only_its_readers(self, monkeypatch):
        # the third draw is read by independence alone (a resample after two samples)
        form = canonical_form(canonical_skew_matrix([1.3] * 3))
        expected = involution_certificate(form, 2, 4).to_dict()
        table, calls = verify.gradient_table, []

        def third_fails(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ArithmeticError("draw 2")
            return table(*args)

        monkeypatch.setattr(verify, "gradient_table", third_fails)
        outcomes = member_certificates(form, 2, 4)
        assert outcomes["involution"].to_dict() == expected
        assert isinstance(outcomes["independence"], ArithmeticError)

    def test_no_samples(self):
        form = canonical_form(canonical_skew_matrix([0.6, 0.9]))
        outcomes = member_certificates(form, 0, 1)
        assert all(isinstance(outcomes[name], ValueError) for name in ("involution", "independence"))
        with pytest.raises(ValueError, match="at least one sample"):
            involution_certificate(form, 0, 1)


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
        cert = casimir_certificate(form, samples=5, seed=8)
        assert cert.passed
        assert cert.max_residual <= 1e-11
        assert cert.details[-1]["frozen_expected_rank"] == 2

    def test_rank_two_structure_on_n3(self):
        # p = 1, d = 1: one trace Casimir plus one kernel entry
        form = canonical_form(canonical_skew_matrix([1.5], 1))
        cert = casimir_certificate(form, samples=5, seed=9)
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
        cert = casimir_certificate(form, samples=4, seed=10)
        assert cert.passed
        assert cert.details[-1]["frozen_expected_rank"] == 4

    def test_mixed_mode_skips_frozen_family(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0]))
        cert = casimir_certificate(form, samples=2, seed=11)
        assert cert.details[-1]["frozen_mode"] == "mixed"
        assert cert.details[-1]["frozen_rank"] is None


class TestStackedCasimirResiduals:
    """One stacked tensor application and one max give the per-gradient loop's residuals."""

    @pytest.mark.parametrize("freqs,d", [([0.6, 0.9, 1.3], 0), ([0.7, 1.2], 1), ([0.8, 1.1], 2),
                                         ([1.3] * 3, 0), ([1.0, 1.0, 2.0], 1)])
    def test_lie_poisson_residuals_match_loop(self, freqs, d):
        from symflow.poisson import lie_poisson_casimir_gradients, lie_poisson_tensor
        form = canonical_form(canonical_skew_matrix(freqs, d))
        cert = casimir_certificate(form, samples=3, seed=12)
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
        perturbed = [e + 1e-3 * (k + 1) * random_sym(form.n, rng)
                     for k, e in enumerate(frozen_casimir_gradients(form, mode))]
        monkeypatch.setattr(verify, "frozen_casimir_gradients", lambda form, mode: perturbed)
        cert = casimir_certificate(form, samples=1, seed=13)
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
        mixed = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0], 1))
        assert expected_leaf_dimensions(mixed) == (24, None)

    def test_distinct(self):
        form = canonical_form(canonical_skew_matrix([1.0, 2.0]))
        cert = leaf_dimension_certificate(form, samples=2, seed=12)
        assert cert.passed
        assert cert.details[0]["dims"] == [8, 8]

    def test_equal(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0]))
        cert = leaf_dimension_certificate(form, samples=2, seed=13)
        assert cert.passed
        assert cert.details[0]["dims"] == [8, 6]

    def test_mixed_no_verdict(self):
        form = canonical_form(canonical_skew_matrix([1.0, 1.0, 2.0]))
        cert = leaf_dimension_certificate(form, samples=1, seed=14)
        assert cert.passed is None


class TestRecursionAndLax:
    def test_recursion_certificate(self):
        rng = np.random.default_rng(15)
        cert = recursion_certificate(canonical_form(random_skew(5, rng)), samples=5, seed=16)
        assert cert.passed
        assert cert.max_residual <= 1e-11

    def test_lax_certificate(self):
        rng = np.random.default_rng(17)
        cert = lax_certificate(canonical_form(random_skew(6, rng)), samples=5, seed=18)
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

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            sectional_comparison_2x2(0.0, 1.0, np.eye(2))
        for position in range(3):
            alpha = np.ones(3)
            alpha[position] = 0.0
            with pytest.raises(ValueError, match="alpha must be nonzero"):
                sectional_comparison_2x2(alpha, np.ones(3), np.stack([np.eye(2)] * 3))

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
        cert = involution_certificate(canonical_form(canonical_skew_matrix([1.0, 2.0])), 2, seed=1)
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
