"""The dict route to Christoffel data, kept as an independent oracle for the tests.

The program stores a connection as one exponent matrix and one coefficient
array and evaluates, differentiates and checks it with array operations.
Here every Christoffel symbol is its own ``PolyScalar`` built by polynomial
arithmetic: assembly by signed copies of u and v, values and first
derivatives by symbolic differentiation and term-by-term evaluation, the
torsion and nabla-J residuals as polynomial differences, and the
Cauchy-Riemann classification as polynomial identities.  Slow, but it shares
no code with the program's array route beyond ``PolyScalar`` itself.
"""
from __future__ import annotations

import numpy as np

from affine_kahler.connections import HolomorphyKind, ThetaField
from affine_kahler.polynomials import PolyScalar
from affine_kahler.tensors import SpaceConfig

Gamma = dict[tuple[int, int, int], PolyScalar]


def gamma_from_theta(theta: ThetaField) -> Gamma:
    """Christoffel polynomials of the generated connection, by signed copies."""
    m_bar = theta.m_bar
    gamma: Gamma = {}

    def add(a: int, b: int, c: int, poly: PolyScalar) -> None:
        if poly.is_zero():
            return
        key = (a, b, c)
        gamma[key] = gamma[key] + poly if key in gamma else poly

    for (i, j, k), poly in theta.entries.items():
        u, v = poly.u, poly.v
        ei, ej = i - 1, j - 1
        ek, fk = k - 1, m_bar + k - 1
        pairs = [(ei, ej)] if i == j else [(ei, ej), (ej, ei)]
        for a, b in pairs:
            fa, fb = a + m_bar, b + m_bar
            add(a, b, ek, u)          # nabla_{e} e = u e_k + v f_k
            add(a, b, fk, v)
            add(fa, fb, ek, -1.0 * u)  # nabla_{f} f = -(u e_k + v f_k)
            add(fa, fb, fk, -1.0 * v)
            add(a, fb, ek, -1.0 * v)   # nabla_{e} f = -v e_k + u f_k
            add(a, fb, fk, u)
            add(fa, b, ek, -1.0 * v)   # nabla_{f} e agrees with nabla_{e} f
            add(fa, b, fk, u)
    return gamma


def christoffel(gamma: Gamma, m_bar: int, a: int, b: int, c: int) -> PolyScalar:
    return gamma.get((a, b, c), PolyScalar.zero(m_bar))


def evaluate(gamma: Gamma, m_bar: int, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, dG) with G[a, b, c] = Gamma[a][b][c](p) and dG[i, a, b, c] = d_i Gamma[a][b][c](p)."""
    m = 2 * m_bar
    values = np.zeros((m, m, m))
    derivs = np.zeros((m, m, m, m))
    for (a, b, c), poly in gamma.items():
        values[a, b, c] = poly.eval(point)
        for direction in range(m):
            dpoly = poly.diff(direction)
            if not dpoly.is_zero():
                derivs[direction, a, b, c] = dpoly.eval(point)
    return values, derivs


def curvature_at(gamma: Gamma, m_bar: int, point: np.ndarray) -> np.ndarray:
    values, derivs = evaluate(gamma, m_bar, np.asarray(point, dtype=float))
    linear = derivs - np.einsum("bacd->abcd", derivs)
    quad = np.einsum("asd,bcs->abcd", values, values) - np.einsum(
        "bsd,acs->abcd", values, values
    )
    return linear + quad


def torsion_residual(gamma: Gamma, m_bar: int) -> float:
    """Largest coefficient of Gamma[a][b][c] - Gamma[b][a][c] over all triples."""
    worst = 0.0
    for (a, b, c) in gamma:
        diff = christoffel(gamma, m_bar, a, b, c) - christoffel(gamma, m_bar, b, a, c)
        worst = max(worst, diff.max_abs_coeff())
    return worst


def nabla_j_residual(gamma: Gamma, m_bar: int) -> float:
    """Largest coefficient of sgn(b) Gamma[a][Jb][d] - sgn(Jd) Gamma[a][b][Jd]."""
    perm, signs = SpaceConfig(m_bar).j_action()
    m = 2 * m_bar
    worst = 0.0
    slots = {(a, b) for (a, b, _c) in gamma}
    slots |= {(a, int(perm[b])) for (a, b) in slots}
    for a, b in slots:
        for d in range(m):
            jb = int(perm[b])
            jd = int(perm[d])
            poly = signs[b] * christoffel(gamma, m_bar, a, jb, d) - signs[jd] * christoffel(
                gamma, m_bar, a, b, jd
            )
            worst = max(worst, poly.max_abs_coeff())
    return worst


def holomorphy_kind(theta: ThetaField) -> HolomorphyKind:
    """Cauchy-Riemann classification by exact polynomial identities per entry."""
    m_bar = theta.m_bar
    hol = anti = True
    for poly in theta.entries.values():
        for a in range(m_bar):
            du_x = poly.u.diff(a)
            du_y = poly.u.diff(m_bar + a)
            dv_x = poly.v.diff(a)
            dv_y = poly.v.diff(m_bar + a)
            if not ((du_x - dv_y).is_zero() and (du_y + dv_x).is_zero()):
                hol = False
            if not ((du_x + dv_y).is_zero() and (du_y - dv_x).is_zero()):
                anti = False
    if hol and anti:
        return HolomorphyKind.BOTH
    if hol:
        return HolomorphyKind.HOLOMORPHIC
    if anti:
        return HolomorphyKind.ANTIHOLOMORPHIC
    return HolomorphyKind.NEITHER


def arrays_from_gamma(gamma: Gamma, m_bar: int) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, coeffs) holding the same Christoffel polynomials as ``gamma``."""
    m = 2 * m_bar
    support = sorted({powers for poly in gamma.values() for powers in poly.coeffs})
    index = {powers: n for n, powers in enumerate(support)}
    coeffs = np.zeros((m, m, m, len(support)))
    for (a, b, c), poly in gamma.items():
        for powers, value in poly.coeffs.items():
            coeffs[a, b, c, index[powers]] = value
    return np.array(support, dtype=np.int64).reshape(len(support), m), coeffs
