"""Polynomial affine connections compatible with the standard complex structure.

A connection is generated from a symmetric complex coefficient field
Theta_{ijk} = u_{ijk} + i v_{ijk} (i, j, k in 1..m_bar, symmetric in i, j) by

    nabla_{e_i} e_j = -nabla_{f_i} f_j =  u_{ijk} e_k + v_{ijk} f_k,
    nabla_{f_i} e_j =  nabla_{e_i} f_j = -v_{ijk} e_k + u_{ijk} f_k,

which is torsion free and parallelizes J by construction.  Curvature is
evaluated exactly at any point from the symbolically differentiated
Christoffel polynomials.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polynomials import ComplexPoly, PolyScalar
from .tensors import SpaceConfig, Tensor4

#: Cap on the polynomial degree of coefficient entries.
DEGREE_CAP = 6

EntryKey = tuple[int, int, int]


def _normalize_entries(m_bar: int, entries) -> dict[EntryKey, ComplexPoly]:
    out: dict[EntryKey, ComplexPoly] = {}
    for (i, j, k), poly in dict(entries).items():
        if not (1 <= i <= m_bar and 1 <= j <= m_bar and 1 <= k <= m_bar):
            raise ValueError(f"entry index ({i},{j},{k}) out of range for m_bar={m_bar}")
        if poly.m_bar != m_bar:
            raise ValueError(f"entry ({i},{j},{k}) has wrong variable count")
        key = (min(i, j), max(i, j), k)
        if key in out:
            out[key] = out[key] + poly
        else:
            out[key] = poly
    return {key: poly for key, poly in sorted(out.items()) if not poly.is_zero()}


@dataclass(frozen=True)
class ThetaField:
    """Symmetric complex coefficient field; keys are (i, j, k) with i <= j."""

    m_bar: int
    entries: dict[EntryKey, ComplexPoly]

    def __post_init__(self) -> None:
        entries = _normalize_entries(self.m_bar, self.entries)
        worst = max((p.degree() for p in entries.values()), default=0)
        if worst > DEGREE_CAP:
            raise ValueError(f"coefficient degree {worst} exceeds the cap {DEGREE_CAP}")
        object.__setattr__(self, "entries", entries)

    @property
    def config(self) -> SpaceConfig:
        return SpaceConfig(self.m_bar)

    @classmethod
    def zero(cls, m_bar: int) -> "ThetaField":
        return cls(m_bar, {})

    def entry(self, i: int, j: int, k: int) -> ComplexPoly:
        """Theta_{ijk}, resolving the i <-> j symmetry; absent entries are zero."""
        key = (min(i, j), max(i, j), k)
        return self.entries.get(key, ComplexPoly.zero(self.m_bar))

    def __add__(self, other: "ThetaField") -> "ThetaField":
        if other.m_bar != self.m_bar:
            raise ValueError("cannot add coefficient fields of different m_bar")
        merged = dict(self.entries)
        for key, poly in other.entries.items():
            merged[key] = merged[key] + poly if key in merged else poly
        return ThetaField(self.m_bar, merged)

    def max_degree(self) -> int:
        return max((p.degree() for p in self.entries.values()), default=0)

    def vanishes_at_origin(self) -> bool:
        return all(
            p.u.constant_term() == 0.0 and p.v.constant_term() == 0.0
            for p in self.entries.values()
        )

    def swap_complex_coordinates(self, a: int, b: int) -> "ThetaField":
        """Interchange the roles of complex coordinate lines a and b (1-based):
        both the entry indices and the variables are relabeled."""
        perm = {a: b, b: a}
        swapped: dict[EntryKey, ComplexPoly] = {}
        for (i, j, k), poly in self.entries.items():
            new_key = (perm.get(i, i), perm.get(j, j), perm.get(k, k))
            swapped[new_key] = ComplexPoly(
                poly.u.permute_complex_coordinates(perm),
                poly.v.permute_complex_coordinates(perm),
            )
        return ThetaField(self.m_bar, swapped)


class HolomorphyKind(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    ANTIHOLOMORPHIC = "antiholomorphic"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class HolomorphyType:
    kind: HolomorphyKind
    vanishes_at_origin: bool


def holomorphy_type(theta: ThetaField) -> HolomorphyType:
    """Classify a coefficient field by its Cauchy-Riemann behaviour.

    All checks are exact polynomial identities: holomorphic requires
    du/dx_a = dv/dy_a and du/dy_a = -dv/dx_a per entry and coordinate line;
    antiholomorphic flips both signs.  Constant fields satisfy both systems.
    """
    m_bar = theta.m_bar
    hol = True
    anti = True
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
        if not (hol or anti):
            break
    if hol and anti:
        kind = HolomorphyKind.BOTH
    elif hol:
        kind = HolomorphyKind.HOLOMORPHIC
    elif anti:
        kind = HolomorphyKind.ANTIHOLOMORPHIC
    else:
        kind = HolomorphyKind.NEITHER
    return HolomorphyType(kind=kind, vanishes_at_origin=theta.vanishes_at_origin())


@dataclass(frozen=True)
class AffineConnection:
    """Christoffel polynomials Gamma[a][b][c]: nabla_{v_a} v_b = sum_c Gamma[a][b][c] v_c.

    Stored sparsely; absent triples are the zero polynomial.
    """

    config: SpaceConfig
    gamma: dict[tuple[int, int, int], PolyScalar]

    def __post_init__(self) -> None:
        m = self.config.m
        cleaned = {}
        for (a, b, c), poly in dict(self.gamma).items():
            if not (0 <= a < m and 0 <= b < m and 0 <= c < m):
                raise ValueError(f"Christoffel index ({a},{b},{c}) out of range")
            if not poly.is_zero():
                cleaned[(a, b, c)] = poly
        object.__setattr__(self, "gamma", cleaned)

    def christoffel(self, a: int, b: int, c: int) -> PolyScalar:
        return self.gamma.get((a, b, c), PolyScalar.zero(self.config.m_bar))

    @cached_property
    def _derivatives(self) -> dict[tuple[int, int, int], list[PolyScalar]]:
        m = self.config.m
        return {
            key: [poly.diff(direction) for direction in range(m)]
            for key, poly in self.gamma.items()
        }

    def evaluate(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense Gamma values and first derivatives at a point.

        Returns (G, dG) with G[a, b, c] = Gamma[a][b][c](p) and
        dG[i, a, b, c] = d_i Gamma[a][b][c](p).
        """
        m = self.config.m
        point = np.asarray(point, dtype=float)
        if point.shape != (m,):
            raise ValueError(f"point must have {m} coordinates, got shape {point.shape}")
        values = np.zeros((m, m, m))
        derivs = np.zeros((m, m, m, m))
        for (a, b, c), poly in self.gamma.items():
            values[a, b, c] = poly.eval(point)
            for direction, dpoly in enumerate(self._derivatives[(a, b, c)]):
                if not dpoly.is_zero():
                    derivs[direction, a, b, c] = dpoly.eval(point)
        return values, derivs


def connection_from_theta(theta: ThetaField) -> AffineConnection:
    """Assemble the Christoffel polynomials of the generated connection."""
    m_bar = theta.m_bar
    gamma: dict[tuple[int, int, int], PolyScalar] = {}

    def add(a: int, b: int, c: int, poly: PolyScalar) -> None:
        if poly.is_zero():
            return
        key = (a, b, c)
        gamma[key] = gamma[key] + poly if key in gamma else poly

    for (i, j, k), poly in theta.entries.items():
        u, v = poly.u, poly.v
        ei, fi = i - 1, m_bar + i - 1
        ej, fj = j - 1, m_bar + j - 1
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
    return AffineConnection(SpaceConfig(m_bar), gamma)


def torsion_residual(conn: AffineConnection) -> float:
    """Largest coefficient of Gamma[a][b][c] - Gamma[b][a][c] over all triples."""
    worst = 0.0
    seen = set()
    for (a, b, c) in conn.gamma:
        key = (min(a, b), max(a, b), c)
        if key in seen:
            continue
        seen.add(key)
        diff = conn.christoffel(a, b, c) - conn.christoffel(b, a, c)
        worst = max(worst, diff.max_abs_coeff())
    return worst


def nabla_j_residual(conn: AffineConnection) -> float:
    """Largest polynomial coefficient of (nabla_{v_a} J)(v_b), all components.

    With constant J the component d of (nabla_a J)(v_b) reduces to
    sgn(b) Gamma[a][Jb][d] - sgn(Jd) Gamma[a][b][Jd], a signed index shuffle.
    """
    config = conn.config
    perm, signs = config.j_action()
    m = config.m
    worst = 0.0
    slots = {(a, b) for (a, b, _c) in conn.gamma}
    slots |= {(a, int(perm[b])) for (a, b) in slots}
    for a, b in slots:
        for d in range(m):
            jb = int(perm[b])
            jd = int(perm[d])
            poly = signs[b] * conn.christoffel(a, jb, d) - signs[jd] * conn.christoffel(
                a, b, jd
            )
            worst = max(worst, poly.max_abs_coeff())
    return worst


def curvature_at(conn: AffineConnection, point: np.ndarray) -> Tensor4:
    """Curvature tensor at a point, lowered in the orthonormal basis.

    R[a,b,c,d] = d_a Gamma[b][c][d] - d_b Gamma[a][c][d]
                 + sum_s (Gamma[a][s][d] Gamma[b][c][s] - Gamma[b][s][d] Gamma[a][c][s]).
    """
    values, derivs = conn.evaluate(point)
    linear = derivs - np.einsum("bacd->abcd", derivs)
    quad = np.einsum("asd,bcs->abcd", values, values) - np.einsum(
        "bsd,acs->abcd", values, values
    )
    return Tensor4(conn.config, linear + quad)


def degree_one_gradients(theta: ThetaField) -> np.ndarray:
    """Origin gradients of u_{ijk} and v_{ijk}, shape (2, m_bar, m_bar, m_bar, m).

    Scattered symmetrically in i, j.  Valid only for degree <= 1 fields
    vanishing at the origin, which such gradients determine completely.
    """
    if theta.max_degree() > 1:
        raise ValueError("coefficient field must have degree <= 1")
    if not theta.vanishes_at_origin():
        raise ValueError("coefficient field must vanish at the origin")
    m_bar = theta.m_bar
    grads = np.zeros((2, m_bar, m_bar, m_bar, 2 * m_bar))
    for (i, j, k), poly in theta.entries.items():
        for uv, part in enumerate((poly.u, poly.v)):
            grads[uv, i - 1, j - 1, k - 1] = grads[uv, j - 1, i - 1, k - 1] = part.gradient_at_zero()
    return grads


def linear_curvature_at_zero(theta: ThetaField) -> Tensor4:
    """Curvature at the origin assembled directly from the coefficient gradients.

    Valid only for degree <= 1 fields vanishing at the origin, where the
    quadratic Christoffel products drop out and each curvature component is a
    signed combination of first derivatives of u and v.  Cross-validated in
    the tests against the Christoffel route.
    """
    grads = degree_one_gradients(theta)
    return Tensor4(theta.config, linear_curvature_from_gradients(grads[0], grads[1]))


def linear_curvature_from_gradients(grad_u: np.ndarray, grad_v: np.ndarray) -> np.ndarray:
    """Origin curvature of degree-1 fields from their coefficient gradients.

    ``grad_u[..., i, j, k, :]`` and ``grad_v[..., i, j, k, :]`` are the
    gradients at the origin of u_{ijk} and v_{ijk} (symmetric in i, j), with
    any leading stack axes; the result has shape (..., m, m, m, m).
    """
    m_bar = grad_u.shape[-2]
    m = 2 * m_bar

    # P(X)[i, j, k, l] = derivative-in-direction-i of X_{jkl}.
    def against(block: np.ndarray) -> np.ndarray:
        return np.moveaxis(block, -1, -4)

    def swap12(block: np.ndarray) -> np.ndarray:
        return np.swapaxes(block, -4, -3)

    eu = against(grad_u[..., :m_bar])   # e_i u_{jkl}
    fu = against(grad_u[..., m_bar:])   # f_i u_{jkl}
    ev = against(grad_v[..., :m_bar])   # e_i v_{jkl}
    fv = against(grad_v[..., m_bar:])   # f_i v_{jkl}

    def antis(block: np.ndarray) -> np.ndarray:
        return block - swap12(block)

    e = slice(0, m_bar)
    f = slice(m_bar, m)
    out = np.zeros(grad_u.shape[:-4] + (m, m, m, m))

    a_eu = antis(eu)
    a_fu = antis(fu)
    a_ev = antis(ev)
    a_fv = antis(fv)

    out[..., e, e, e, e] = a_eu
    out[..., e, e, f, f] = a_eu
    out[..., f, f, e, e] = -a_fv
    out[..., f, f, f, f] = -a_fv
    out[..., e, e, e, f] = a_ev
    out[..., e, e, f, e] = -a_ev
    out[..., f, f, e, f] = a_fu
    out[..., f, f, f, e] = -a_fu

    mixed_ee = -ev - swap12(fu)   # A(e_i, f_j, e_k, e_l)
    mixed_ef = eu - swap12(fv)    # A(e_i, f_j, e_k, f_l)
    out[..., e, f, e, e] = mixed_ee
    out[..., e, f, f, f] = mixed_ee
    out[..., e, f, e, f] = mixed_ef
    out[..., e, f, f, e] = -mixed_ef
    out[..., f, e, :, :] = -swap12(out[..., e, f, :, :])
    return out
