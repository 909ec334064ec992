"""The einsum route to the eight curvature identities, kept as an independent
oracle for the tests.

The program reads every identity off one signed gather per tensor
(``tensors.gather_table``).  Here each residual is formed as before that
table existed: slot permutations by einsum, J-substitutions by
``apply_j_slots`` one slot at a time, and the operator identity by
contracting with the matrix of J.  The sums run in the same order, so both
routes must agree exactly.
"""
from __future__ import annotations

import numpy as np

from affine_kahler.tensors import (
    IDENTITY_NAMES,
    SpaceConfig,
    apply_j_slots,
    k_identity_violations,
    rho14_of,
    standard_complex_structure,
)


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def symmetry_violations(entries: np.ndarray, config: SpaceConfig) -> dict[str, float]:
    """Max residual of each identity in IDENTITY_NAMES, in that order."""
    a = entries
    m = config.m
    jmat = standard_complex_structure(config).entries

    violations = k_identity_violations(a, config)

    swap34 = np.einsum("abdc->abcd", a)
    rho14 = rho14_of(a)
    skew = rho14.T - rho14
    weyl = a + swap34 - (2.0 / m) * np.einsum("ab,cd->abcd", skew, np.eye(m))
    violations["weyl_1d"] = _max_abs(weyl)

    violations["riemann_pair_1e"] = _max_abs(a - np.einsum("cdab->abcd", a))
    violations["antisym34"] = _max_abs(a + swap34)

    def jj(slots: tuple[int, ...]) -> np.ndarray:
        return apply_j_slots(a, config, slots)

    gray = (
        a
        + jj((0, 1, 2, 3))
        - jj((0, 1))
        - jj((2, 3))
        - jj((0, 2))
        - jj((1, 3))
        - jj((0, 3))
        - jj((1, 2))
    )
    violations["gray_1g"] = _max_abs(gray)

    # Operator form: R(x, y) J - J R(x, y) applied to basis vectors.
    comm = np.einsum("absd,sc->abcd", a, jmat) - np.einsum("ds,abcs->abcd", jmat, a)
    violations["kahler_operator_1i"] = _max_abs(comm)

    return {name: violations[name] for name in IDENTITY_NAMES}
