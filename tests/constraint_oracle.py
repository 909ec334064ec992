"""The nullspace route to K, kept as an independent oracle for the tests.

The program builds K as the image of the degree-1 coefficient map.  Here K
is the kernel of the integer constraint matrix of the three defining
identities (antisymmetry in the first pair, the first Bianchi identity,
J-invariance of the last pair), and K+ / K- come from symmetrizing its basis
under full J-conjugation.  Dense and O(m^8) in memory: m_bar <= 3 only.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from affine_kahler.linalg import Subspace, nullspace, orthonormalize
from affine_kahler.tensors import SpaceConfig, apply_j_slots


def _slot_permutation_matrix(m: int, perm_of_slots) -> np.ndarray:
    """Dense matrix P with (P A)[a,b,c,d] = A[perm_of_slots(a,b,c,d)]."""
    n = m ** 4
    grids = np.indices((m, m, m, m)).reshape(4, -1)
    pa, pb, pc, pd = perm_of_slots(*grids)
    cols = ((pa * m + pb) * m + pc) * m + pd
    mat = np.zeros((n, n))
    mat[np.arange(n), cols] = 1.0
    return mat


def kahler_constraint_matrix(config: SpaceConfig) -> np.ndarray:
    """Integer constraint matrix whose kernel is K, stacked identity by identity."""
    m = config.m
    n = m ** 4
    eye = np.eye(n)

    antisym = eye + _slot_permutation_matrix(m, lambda a, b, c, d: (b, a, c, d))
    bianchi = (
        eye
        + _slot_permutation_matrix(m, lambda a, b, c, d: (b, c, a, d))
        + _slot_permutation_matrix(m, lambda a, b, c, d: (c, a, b, d))
    )

    perm, signs = config.j_action()
    grids = np.indices((m, m, m, m)).reshape(4, -1)
    a, b, c, d = grids
    cols = ((a * m + b) * m + perm[c]) * m + perm[d]
    vals = signs[c] * signs[d]
    j_inv = np.array(eye)
    j_inv[np.arange(n), cols] -= vals

    return np.vstack([antisym, bianchi, j_inv])


@lru_cache(maxsize=None)
def nullspace_route_spaces(m_bar: int) -> tuple[Subspace, Subspace, Subspace]:
    """(K, K+, K-) from the constraint kernel and the parity symmetrizers."""
    config = SpaceConfig(m_bar)
    m = config.m
    space = nullspace(kahler_constraint_matrix(config))
    conj = apply_j_slots(space.basis.reshape(-1, m, m, m, m), config, (1, 2, 3, 4)).reshape(space.dim, -1)
    plus = orthonormalize((space.basis + conj) / 2.0, ambient_dim=space.ambient_dim)
    minus = orthonormalize((space.basis - conj) / 2.0, ambient_dim=space.ambient_dim)
    return space, plus, minus
