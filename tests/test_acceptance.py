"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every test pins the stated tolerance and runtime budget.  Random sampling
uses fixed seeds so the suite is deterministic; unit-Frobenius inputs are
the sampling convention throughout.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from symflow.matrix_core import (
    commutator,
    max_abs,
    random_skew,
    random_sym,
)
from symflow.poisson import (
    canonical_form,
    canonical_skew_matrix,
    frozen_tensor,
    leaf_dimensions,
    lie_poisson_tensor,
    poisson_jacobi_defect,
)
from symflow.invariants import (
    admissible_indices,
    gradient_table,
    invariant_count,
    invariant_table,
    recursion_residuals,
)
from symflow.dynamics import (
    IntegratorConfig,
    integrate,
    lax_residual,
    vector_field,
)
from symflow.verify import (
    DEFAULT_TOLERANCES,
    certificates,
    expected_leaf_dimensions,
    flow_generation_defect,
    sectional_certificate,
)


def run_suite(form, name, samples, seed, **tolerances):
    """The certificate of one suite run alone by ``certificates``; raises the exception it yields."""
    (outcome,) = certificates(form, [name], samples, seed, {**DEFAULT_TOLERANCES, **tolerances})
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def report(num, name, metric, value, tol, elapsed, cap, comparison="<="):
    ok = value <= tol if comparison == "<=" else value >= tol
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(
        f"[acceptance] C{num:02d} {name}: {metric} = {value:.3e} "
        f"(tol {tol:.1e}, {comparison}) elapsed {elapsed:.2f}s (cap {cap:.0f}s) -> {status}"
    )
    if comparison == "<=":
        assert value <= tol
    else:
        assert value >= tol
    assert elapsed < cap


def test_c01_flow_formula_2x2():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    n2 = canonical_skew_matrix([1.0])
    worst = 0.0
    for _ in range(1000):
        a, b, d = rng.uniform(-1.0, 1.0, 3)
        x = np.array([[a, b], [b, d]])
        closed = (a + d) * np.array([[-2.0 * b, a - d], [a - d, 2.0 * b]])
        worst = max(worst, max_abs(vector_field(x, n2) - closed))
    report(1, "flow-formula-2x2", "max defect", worst, 1e-14, time.perf_counter() - start, 1.0)


def test_c02_lax_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (2, 4, 5, 6, 8):
        for _ in range(20):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
                worst = max(worst, lax_residual(x, nsk, lam))
    report(2, "lax-identity", "max residual", worst, 1e-12, time.perf_counter() - start, 5.0)


def test_c03_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for freqs in ([1.0, 2.0], [1.0, 1.7, 2.5]):
        nsk = canonical_skew_matrix(freqs)
        x0 = random_sym(nsk.shape[0], rng)
        traj = integrate(x0, canonical_form(nsk), IntegratorConfig(step=1e-3, t_end=10.0, monitor_stride=100))
        worst = max(worst, float(traj.drift().max()))
    report(3, "conservation-rk4", "max relative drift", worst, 1e-8,
           time.perf_counter() - start, 60.0)


def test_c04_recursion():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (4, 6, 8):
        for _ in range(50):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            table = gradient_table(x, nsk, beyond=True)[1]
            images = lie_poisson_tensor(x, table[:invariant_count(n)], nsk), frozen_tensor(table, nsk)
            worst = max(worst, max(recursion_residuals(*images).values()))
    report(4, "recursion", "max residual", worst, 1e-11, time.perf_counter() - start, 30.0)


def test_c05_involution():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for n in (4, 6, 8):
        cert = run_suite(canonical_form(random_skew(n, rng)), "involution", 20, 105 + n)
        worst = max(worst, cert.max_residual)
    report(5, "involution-both-brackets", "max |bracket|", worst, 1e-10,
           time.perf_counter() - start, 60.0)


def test_c06_independence():
    start = time.perf_counter()
    worst_gap = 0.0
    for n, d in ((4, 0), (6, 0), (8, 0), (5, 1), (7, 1)):
        for seed in range(10):
            rng = np.random.default_rng(1000 * n + seed)
            form = canonical_form(random_skew(n, rng))
            assert (form.n - 2 * form.p) == d
            cert = run_suite(form, "independence", 1, seed)
            worst_gap = max(worst_gap, cert.max_residual)
    report(6, "independence-rank", "max |rank gap|", worst_gap, 0.0,
           time.perf_counter() - start, 60.0)


def test_c07_leaf_dimensions():
    # sizes up to 32 (and 33 with a one-dimensional kernel), each with all
    # frequencies distinct and all equal
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0
    for n, d in ((4, 0), (6, 0), (5, 1), (6, 2), (16, 0), (24, 0), (32, 0), (33, 1)):
        p = (n - d) // 2
        for freqs in ([1.0 + 0.7 * i for i in range(p)], [1.0] * p):
            form = canonical_form(canonical_skew_matrix(freqs, d))
            dims = leaf_dimensions(form, random_sym(n, rng))
            expected = expected_leaf_dimensions(form)
            worst = max(worst, abs(dims[0] - expected[0]), abs(dims[1] - expected[1]))
    report(7, "leaf-dimensions", "max |dim gap|", float(worst), 0.0,
           time.perf_counter() - start, 30.0)


def test_c08_casimir_annihilation_and_counts():
    start = time.perf_counter()
    worst = 0.0
    cases = [([1.0, 2.0], 0), ([1.3, 2.2], 1), ([1.0, 2.0], 2), ([1.0, 1.0], 0)]
    for freqs, d in cases:
        form = canonical_form(canonical_skew_matrix(freqs, d))
        cert = run_suite(form, "casimir", 10, 108, casimir=1e-11)
        assert cert.passed, f"casimir certificate failed at freqs={freqs} d={d}"
        worst = max(worst, cert.max_residual)
    report(8, "casimir-annihilation", "max residual", worst, 1e-11,
           time.perf_counter() - start, 30.0)


def n_bracket(x, y, nsk):
    """The bracket [x, y]_N = xNy - yNx that a skew N induces on Sym(n)."""
    return x @ nsk @ y - y @ nsk @ x


def test_c09_structural_algebra():
    # For N = [[core, 0], [0, 0]] a symmetric matrix is a block triple (S, A, B),
    # and the bracket of two triples is ([S, S']_core, S core A' - S' core A,
    # c(A, A')) with the cocycle c(A, A') = A^T core A' - A'^T core A.
    def cocycle(a1, a2, core):
        return a1.T @ core @ a2 - a2.T @ core @ a1

    def block_bracket(b1, b2, core):
        (s1, a1, _), (s2, a2, _) = b1, b2
        return n_bracket(s1, s2, core), s1 @ core @ a2 - s2 @ core @ a1, cocycle(a1, a2, core)

    def assemble(s, a, b):
        return np.block([[s, a], [a.T, b]])

    def kappa(x, y, nsk):
        """tr(NxNy), the ad-invariant form of the bracket."""
        return float(np.einsum("ij,ji->", nsk @ x, nsk @ y))

    start = time.perf_counter()
    rng = np.random.default_rng(109)
    sizes = (2, 3, 4, 5, 6, 7, 8)
    worst_jacobi = worst_hom = worst_psi = worst_cocycle = worst_compat = 0.0
    worst_adinv = worst_pairing = 0.0
    quadratics = []
    for i in range(100):
        n = sizes[i % len(sizes)]
        x, y, z = (random_sym(n, rng) for _ in range(3))
        nsk = random_skew(n, rng)
        jacobi = (n_bracket(n_bracket(x, y, nsk), z, nsk) + n_bracket(n_bracket(y, z, nsk), x, nsk)
                  + n_bracket(n_bracket(z, x, nsk), y, nsk))
        worst_jacobi = max(worst_jacobi, max_abs(jacobi))
        # X -> NX is a homomorphism into matrices under the commutator
        worst_hom = max(worst_hom, max_abs(nsk @ n_bracket(x, y, nsk) - commutator(nsk @ x, nsk @ y)))

        p, d = max(1, n // 4), n % 3
        core = random_skew(2 * p, rng)
        n_embed = np.zeros((2 * p + d, 2 * p + d))
        n_embed[:2 * p, :2 * p] = core
        blocks = [
            (random_sym(2 * p, rng), rng.standard_normal((2 * p, d)), random_sym(max(d, 1), rng)[:d, :d])
            for _ in range(3)
        ]
        lhs = assemble(*block_bracket(blocks[0], blocks[1], core))
        rhs = n_bracket(assemble(*blocks[0]), assemble(*blocks[1]), n_embed)
        worst_psi = max(worst_psi, max_abs(lhs - rhs))
        b1, b2, b3 = blocks
        cyclic = sum(cocycle(block_bracket(u, v, core)[1], w[1], core)
                     for u, v, w in ((b1, b2, b3), (b2, b3, b1), (b3, b1, b2)))
        worst_cocycle = max(worst_cocycle, max_abs(cyclic))

        fs = tuple((random_sym(n, rng), random_sym(n, rng)) for _ in range(3))
        worst_compat = max(worst_compat, poisson_jacobi_defect(x, nsk, *fs, weights=(1.0, 1.0)))

        adinv = kappa(n_bracket(z, x, nsk), y, nsk) + kappa(x, n_bracket(z, y, nsk), nsk)
        worst_adinv = max(worst_adinv, abs(adinv))
        quadratics.append((x, y, nsk))
    # the quadratic Hamiltonians v^T x v / 2 and v^T y v / 2 pair to (x v)^T N (y v);
    # their points are drawn last, so the draws above keep their values
    for x, y, nsk in quadratics:
        v = rng.standard_normal(len(x))
        pairing = 0.5 * float(v @ (n_bracket(x, y, nsk) @ v)) - float((x @ v) @ (nsk @ (y @ v)))
        worst_pairing = max(worst_pairing, abs(pairing))
    elapsed = time.perf_counter() - start
    worst_identity = max(worst_jacobi, worst_hom, worst_psi, worst_cocycle, worst_adinv, worst_pairing)
    print(f"[acceptance] C09 detail: jacobi {worst_jacobi:.2e} hom {worst_hom:.2e} "
          f"psi {worst_psi:.2e} cocycle {worst_cocycle:.2e} compat {worst_compat:.2e} "
          f"ad-invariance {worst_adinv:.2e} pairing {worst_pairing:.2e}")
    report(9, "structural-algebra", "max identity defect", worst_identity, 1e-12, elapsed, 30.0)
    assert worst_compat <= 1e-10


def test_c10_bi_hamiltonian_generation():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    sizes = (2, 3, 4, 5, 6, 7, 8)
    worst = 0.0
    for i in range(100):
        n = sizes[i % len(sizes)]
        x, nsk = random_sym(n, rng), random_skew(n, rng)
        lp, fr = flow_generation_defect(x, nsk)
        worst = max(worst, lp, fr)
    report(10, "bi-hamiltonian-generation", "max defect", worst, 1e-13,
           time.perf_counter() - start, 5.0)


def test_c11_sectional_nonequivalence():
    start = time.perf_counter()
    cert = sectional_certificate(1000, seed=111, min_gap=0.1)
    min_diff = cert.details[0]["min_difference"]
    report(11, "sectional-nonequivalence", "min difference", min_diff, 1e-3,
           time.perf_counter() - start, 1.0, comparison=">=")


def test_c12_block_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(112)
    shapes = ((1, 1), (2, 1), (2, 2))
    worst = 0.0
    for i in range(100):
        p, d = shapes[i % len(shapes)]
        core = random_skew(2 * p, rng)
        n_embed = np.zeros((2 * p + d, 2 * p + d))
        n_embed[:2 * p, :2 * p] = core
        s, a, b = random_sym(2 * p, rng), rng.standard_normal((2 * p, d)), random_sym(d, rng)
        # in block coordinates the field is ([S^2 + A A^T, core], -core (S A + A B), 0)
        coupling = -core @ (s @ a + a @ b)
        closed = np.block([[commutator(s @ s + a @ a.T, core), coupling], [coupling.T, np.zeros((d, d))]])
        field = vector_field(np.block([[s, a], [a.T, b]]), n_embed)
        assert max_abs(field[2 * p:, 2 * p:]) == 0.0
        worst = max(worst, max_abs(field - closed))
    report(12, "block-consistency", "max defect", worst, 1e-12,
           time.perf_counter() - start, 5.0)


def test_c13_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(113)

    def multi_index_sum(x, nsk, k, j):
        # brute-force enumeration of every word with j structure factors
        total = 0.0
        for positions in combinations(range(k), j):
            word = np.eye(x.shape[0])
            for slot in range(k):
                word = word @ (nsk if slot in positions else x)
            total += np.trace(word)
        return total

    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            x, nsk = random_sym(n, rng), random_skew(n, rng)
            for (k, j), value in zip(admissible_indices(n), invariant_table(x, nsk)):
                if k > 3:
                    continue
                worst = max(worst, abs(k * value - multi_index_sum(x, nsk, k, j)))
    report(13, "oracle-equivalence", "max |poly - multi-index|", worst, 1e-12,
           time.perf_counter() - start, 5.0)
