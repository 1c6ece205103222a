"""Lie algebra induced on Sym(n) by a fixed skew-symmetric matrix.

The bracket is ``[X, Y] = X N Y - Y N X`` for a fixed skew N.  Mapping
``X -> NX`` is a homomorphism into matrices under the commutator, and for
degenerate N the algebra splits into a cocycle extension of a semidirect
product acting on the coupling blocks; this module carries that block
calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import commutator, frobenius_inner, max_abs


def n_bracket(x: np.ndarray, y: np.ndarray, n_skew: np.ndarray) -> np.ndarray:
    """x n y - y n x; symmetric whenever x, y are symmetric and n skew."""
    return x @ n_skew @ y - y @ n_skew @ x


def hom_defect(x: np.ndarray, y: np.ndarray, n_skew: np.ndarray) -> float:
    """Max-abs defect of N[x, y]_N = [Nx, Ny]; zero up to roundoff for all inputs."""
    return max_abs(n_skew @ n_bracket(x, y, n_skew) - commutator(n_skew @ x, n_skew @ y))


def invariant_form(x: np.ndarray, y: np.ndarray, n_skew: np.ndarray) -> float:
    """trace(n x n y), the ad-invariant pairing of the bracket."""
    return float(np.einsum("ij,ji->", n_skew @ x, n_skew @ y))


def quadratic_field(x: np.ndarray, n_skew: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field n x z of the quadratic function z^T x z / 2."""
    z = np.asarray(z, dtype=float)
    if z.shape != (x.shape[0],):
        raise ValueError(f"vector length {z.shape} does not match matrix size {x.shape}")
    return n_skew @ (x @ z)


@dataclass(frozen=True)
class BlockDecomp:
    """Blocks of a symmetric matrix adapted to the splitting im(N) + ker(N).

    ``image_block`` is the symmetric 2p x 2p block on the image, ``coupling``
    the 2p x d off-diagonal block, ``kernel_block`` the symmetric d x d block
    on the kernel.
    """

    image_block: np.ndarray
    coupling: np.ndarray
    kernel_block: np.ndarray

    def __post_init__(self):
        s, a, b = self.image_block, self.coupling, self.kernel_block
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("image_block must be square")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("kernel_block must be square")
        if a.shape != (s.shape[0], b.shape[0]):
            raise ValueError(
                f"coupling shape {a.shape} inconsistent with blocks {s.shape[0]} and {b.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.image_block.shape[0] + self.kernel_block.shape[0]


def from_blocks(b: BlockDecomp) -> np.ndarray:
    """Assemble the symmetric matrix [[S, A], [A^T, B]]."""
    return np.block([[b.image_block, b.coupling], [b.coupling.T, b.kernel_block]])


def split_blocks(x: np.ndarray, p: int) -> BlockDecomp:
    """Split a symmetric matrix into blocks with an image part of size 2p."""
    m = 2 * p
    if not 0 <= m <= x.shape[0]:
        raise ValueError(f"2p = {m} out of range for size {x.shape[0]}")
    return BlockDecomp(
        image_block=x[:m, :m].copy(),
        coupling=x[:m, m:].copy(),
        kernel_block=x[m:, m:].copy(),
    )


def cocycle(a1: np.ndarray, a2: np.ndarray, core_skew: np.ndarray) -> np.ndarray:
    """Symmetric-valued two-cocycle a1^T Nb a2 - a2^T Nb a1 on the coupling blocks."""
    if a1.shape != a2.shape:
        raise ValueError(f"coupling shapes differ: {a1.shape} vs {a2.shape}")
    if core_skew.shape != (a1.shape[0], a1.shape[0]):
        raise ValueError("core block size does not match coupling rows")
    return a1.T @ core_skew @ a2 - a2.T @ core_skew @ a1


def extended_bracket(b1: BlockDecomp, b2: BlockDecomp, core_skew: np.ndarray) -> BlockDecomp:
    """Bracket of the cocycle-extended semidirect product in block coordinates.

    Component-wise: (S Nb S' - S' Nb S,  S Nb A' - S' Nb A,  A^T Nb A' - A'^T Nb A).
    """
    if b1.image_block.shape != b2.image_block.shape or b1.coupling.shape != b2.coupling.shape:
        raise ValueError("block decompositions have inconsistent shapes")
    s1, a1 = b1.image_block, b1.coupling
    s2, a2 = b2.image_block, b2.coupling
    if core_skew.shape != s1.shape:
        raise ValueError("core block size does not match image blocks")
    return BlockDecomp(
        image_block=s1 @ core_skew @ s2 - s2 @ core_skew @ s1,
        coupling=s1 @ core_skew @ a2 - s2 @ core_skew @ a1,
        kernel_block=cocycle(a1, a2, core_skew),
    )


def n_bracket_jacobi_defect(x, y, z, n_skew) -> float:
    """Max-abs of the cyclic Jacobi sum of the induced bracket."""
    total = (
        n_bracket(n_bracket(x, y, n_skew), z, n_skew)
        + n_bracket(n_bracket(y, z, n_skew), x, n_skew)
        + n_bracket(n_bracket(z, x, n_skew), y, n_skew)
    )
    return max_abs(total)


def cocycle_defect(b1: BlockDecomp, b2: BlockDecomp, b3: BlockDecomp, core_skew) -> float:
    """Max-abs residual of the cocycle identity over a cyclic triple.

    The semidirect bracket of the first two arguments feeds the cocycle
    against the third; the cyclic sum vanishes identically.
    """
    total = np.zeros_like(b1.kernel_block)
    for (u, v, w) in ((b1, b2, b3), (b2, b3, b1), (b3, b1, b2)):
        bracket = extended_bracket(u, v, core_skew)
        total = total + cocycle(bracket.coupling, w.coupling, core_skew)
    return max_abs(total)


def pairing_defect(x, y, n_skew, z: np.ndarray) -> float:
    """Defect of the quadratic-Hamiltonian correspondence at a point z.

    The bracket of two quadratic Hamiltonians evaluated through the induced
    bracket, z^T [x, y]_N z / 2, must agree with (x z)^T N (y z).
    """
    lhs = 0.5 * float(z @ (n_bracket(x, y, n_skew) @ z))
    rhs = float((x @ z) @ (n_skew @ (y @ z)))
    return abs(lhs - rhs)


def ad_invariance_defect(x, y, z, n_skew) -> float:
    """Residual of kappa([z,x], y) + kappa(x, [z,y]) = 0 for the invariant form."""
    return abs(
        invariant_form(n_bracket(z, x, n_skew), y, n_skew)
        + invariant_form(x, n_bracket(z, y, n_skew), n_skew)
    )
