"""Isospectral flow dX/dt = [X^2, N] on symmetric matrices.

Numerical library for the flow's Lie-algebraic structure, its two
compatible Poisson structures and their Casimirs, the parametric family of
conserved quantities with its recursion, and certificate-style checks of
involution and independence.  A batch CLI lives in :mod:`symflow.cli`.
"""

from .matrix_core import (
    anticommutator,
    commutator,
    frobenius_inner,
    max_abs,
    numerical_rank,
    random_skew,
    random_sym,
    skew_matrix,
    sym_matrix,
    symmetrize,
)
from .lie_structure import (
    BlockDecomp,
    cocycle,
    extended_bracket,
    from_blocks,
    hom_defect,
    invariant_form,
    n_bracket,
    quadratic_field,
    split_blocks,
)
from .poisson import (
    RankInstabilityError,
    SkewCanonicalForm,
    canonical_form,
    canonical_skew_matrix,
    frozen_bracket,
    frozen_casimir_gradients,
    frozen_tensor,
    leaf_dimensions,
    lie_poisson_bracket,
    lie_poisson_casimir_gradients,
    lie_poisson_casimirs,
    lie_poisson_tensor,
    poisson_jacobi_defect,
    tensor_as_matrix,
)
from .invariants import (
    InvariantTable,
    admissible_indices,
    gradient_table,
    invariant_count,
    invariant_table,
    recursion_residuals,
)
from .dynamics import (
    FlowDivergenceError,
    IntegratorConfig,
    Trajectory,
    block_vector_field,
    integrate,
    lax_residual,
    vector_field,
)
from .verify import (
    Certificate,
    IntegrabilitySummary,
    casimir_certificate,
    expected_leaf_dimensions,
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

__version__ = "0.1.0"
