"""The nullspace route to K and the ambient route to W1..W12, kept as
independent oracles for the tests.

The program builds K from the image of the degree-1 coefficient map.  Here K
is the kernel of the integer constraint matrix of the three defining
identities (antisymmetry in the first pair, the first Bianchi identity,
J-invariance of the last pair), and K+ / K- come from symmetrizing its basis
under full J-conjugation.  The program carves W1..W12 in coordinates on the
K+ / K- bases; here every kernel and complement is taken directly in
R^(m^4), starting from the nullspace-route K+ / K-.  Dense and O(m^8) in
memory: m_bar <= 3 only.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from affine_kahler.decomposition import _RANK_TOL, W_LABELS
from affine_kahler.linalg import Subspace, complement_within, kernel_within, nullspace, orthonormalize
from affine_kahler.tensors import SpaceConfig, apply_j_slots, rho13_of, rho14_of, scalar_traces


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


def rank_mod_p(matrix: np.ndarray, p: int = 32749) -> int:
    """Rank over GF(p) of an integer matrix, by Gaussian elimination.

    A lower bound on the rank over Q, with no float cutoff.  Duplicate and
    zero rows are dropped first; each pivot clears only the rows below it
    that are nonzero in its column.
    """
    rows = np.unique(np.rint(matrix).astype(np.int64) % p, axis=0)
    rows = rows[rows.any(axis=1)]
    rank = 0
    for col in range(rows.shape[1]):
        live = rank + np.flatnonzero(rows[rank:, col])
        if live.size == 0:
            continue
        rows[[rank, live[0]]] = rows[[live[0], rank]]
        rows[rank] = rows[rank] * pow(int(rows[rank, col]), -1, p) % p
        below = live[1:]
        rows[below] = (rows[below] - np.outer(rows[below, col], rows[rank])) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


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


def _kernel(space: Subspace, condition) -> Subspace:
    """Kernel within ``space`` of a linear condition on its dense basis tensors."""
    m = math.isqrt(math.isqrt(space.ambient_dim))
    images = condition(space.basis.reshape(space.dim, m, m, m, m))
    return kernel_within(space, images.reshape(space.dim, -1).T, tol=_RANK_TOL)


def _sym(arr: np.ndarray) -> np.ndarray:
    return arr + np.swapaxes(arr, -1, -2)


def _antisym(arr: np.ndarray) -> np.ndarray:
    return arr - np.swapaxes(arr, -1, -2)


@lru_cache(maxsize=None)
def ambient_w_subspaces(m_bar: int) -> dict[str, Subspace]:
    """W1..W12 carved directly in R^(m^4) out of the nullspace-route K+ / K-."""
    config = SpaceConfig(m_bar)
    _, plus, minus = nullspace_route_spaces(m_bar)
    spaces: dict[str, Subspace] = {}

    def taus(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return scalar_traces(rho14_of(stack), config)

    w12 = _kernel(minus, rho14_of)
    w2w4 = complement_within(w12, minus)
    spaces["W12"] = w12
    spaces["W2"] = _kernel(w2w4, lambda t: _antisym(rho14_of(t)))
    spaces["W4"] = _kernel(w2w4, lambda t: _sym(rho14_of(t)))

    n_plus = _kernel(plus, lambda t: np.stack([rho13_of(t), rho14_of(t)], axis=1))
    spaces["W9"] = _kernel(n_plus, _sym)
    spaces["W10"] = _kernel(n_plus, _antisym)
    w9w10 = orthonormalize(
        np.vstack([spaces["W9"].basis, spaces["W10"].basis]), ambient_dim=n_plus.ambient_dim
    )
    spaces["W11"] = complement_within(w9w10, n_plus)

    m_plus = complement_within(n_plus, plus)
    m0 = _kernel(m_plus, lambda t: np.stack(taus(t), axis=1))
    w5w6 = complement_within(m0, m_plus)
    spaces["W5"] = _kernel(w5w6, lambda t: taus(t)[1])
    spaces["W6"] = _kernel(w5w6, lambda t: taus(t)[0])

    w1w3 = _kernel(m0, rho13_of)
    w7w8 = complement_within(w1w3, m0)
    spaces["W1"] = _kernel(w1w3, lambda t: _antisym(rho14_of(t)))
    spaces["W3"] = _kernel(w1w3, lambda t: _sym(rho14_of(t)))
    spaces["W7"] = _kernel(w7w8, lambda t: _antisym(rho13_of(t)))
    spaces["W8"] = _kernel(w7w8, lambda t: _sym(rho13_of(t)))
    return {label: spaces[label] for label in W_LABELS}
