"""Polynomial affine connections compatible with the standard complex structure.

A connection is generated from a symmetric complex coefficient field
Theta_{ijk} = u_{ijk} + i v_{ijk} (i, j, k in 1..m_bar, symmetric in i, j) by

    nabla_{e_i} e_j = -nabla_{f_i} f_j =  u_{ijk} e_k + v_{ijk} f_k,
    nabla_{f_i} e_j =  nabla_{e_i} f_j = -v_{ijk} e_k + u_{ijk} f_k,

which is torsion free and parallelizes J by construction.

Polynomials are coefficient arrays over the monomials the field actually
uses: one integer exponent matrix E (one row per monomial in x_1..x_mbar,
y_1..y_mbar) and real coefficients along a last axis.  A field is stored as
its u and v arrays U, V of shape (m_bar, m_bar, m_bar, n_mon) over E
(``ThetaField.arrays``), from parsed files and solved parameter vectors
alike; its ``ComplexPoly`` entries are built only for the callers that read
them.  The Christoffel data is one array of shape (m, m, m, n_mon), the signed
block scatter of U and V above.  Every Christoffel symbol receives exactly one
signed copy of one coefficient, so assembly is exact.  So are the torsion and
nabla-J residuals (differences of such copies) and the Cauchy-Riemann check
(derivative coefficients, each one product coefficient * exponent, compared
with == 0).  Curvature is evaluated in floating point, at each point of a
stack, from the Christoffel values and first derivatives there; a derivative is
the same kind of array, its coefficients multiplied by the exponent and moved
to the lowered monomial, built once per connection.  Equal polynomials have
equal coefficient rows and evaluate to equal values, so the exact symmetries of
the generated connections survive evaluation, and the curvature is exactly
antisymmetric in its first pair.  The origin curvature of a degree-1 field (the
map K is built from) is the same scatter differentiated: the scatter of the
coefficient gradients, antisymmetrized in the direction and the first slot.
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


def arrays_from_terms(m_bar: int, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, V, E) of a field given as (uv, i, j, k, powers, value) terms.

    uv is 0 for u and 1 for v, the entry indices are 0-based with i <= j,
    and each (uv, i, j, k, powers) appears once.  E lists the powers in
    sorted order; the degree cap is checked before they become integers.
    """
    terms = list(terms)
    support = sorted({term[4] for term in terms})
    _require_degree_cap(max(map(sum, support), default=0))
    arrays = np.zeros((2, m_bar, m_bar, m_bar, len(support)))
    if terms:
        index = {powers: n for n, powers in enumerate(support)}
        uv, i, j, k, powers, values = zip(*terms)
        n = [index[p] for p in powers]
        arrays[uv, i, j, k, n] = values
        arrays[uv, j, i, k, n] = values
    return arrays[0], arrays[1], np.array(support, dtype=np.int64).reshape(len(support), 2 * m_bar)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct rows, index of each row among them, first row of each);
    the lexicographic sort is stable, so the first of each run is the earliest."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ordered[new], ids, order[new]


def _require_degree_cap(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise ValueError(f"coefficient degree {degree} exceeds the cap {DEGREE_CAP}")


class ThetaField:
    """Symmetric complex coefficient field Theta_{ijk} = u_{ijk} + i v_{ijk}.

    Stored as the coefficient arrays ``arrays`` = (U, V, E): E (n_mon,
    2 m_bar) lists the exponent vectors some entry uses, in sorted order, and
    U[i, j, k, n] and V[i, j, k, n] (0-based, symmetric in i, j) are the
    coefficients of monomial n in u_{ijk} and v_{ijk}.  All three are
    read-only, and equal fields hold bit-identical arrays.  ``entries``, the
    same field as one ComplexPoly per key (i, j, k) with i <= j, is built
    only when read.
    """

    def __init__(self, m_bar: int, entries) -> None:
        terms = (
            (uv, i - 1, j - 1, k - 1, powers, value)
            for (i, j, k), poly in _normalize_entries(m_bar, entries).items()
            for uv, part in enumerate((poly.u, poly.v))
            for powers, value in part.coeffs.items()
        )
        self._store(m_bar, *arrays_from_terms(m_bar, terms))

    @classmethod
    def from_arrays(cls, m_bar: int, U, V, E) -> "ThetaField":
        """The field with u_{ijk} = sum_n U[i-1, j-1, k-1, n] x^E[n], v likewise.

        U and V must be symmetric in their first two axes and the rows of E
        distinct.  Monomials with no nonzero coefficient are dropped and the
        rest sorted, so the arrays equal those of the same field built from
        entries.
        """
        field = cls.__new__(cls)
        field._store(m_bar, U, V, E)
        return field

    def _store(self, m_bar: int, U, V, E) -> None:
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        E = np.asarray(E, dtype=np.int64)
        shape = (m_bar,) * 3 + E.shape[:1]
        if E.ndim != 2 or E.shape[1] != 2 * m_bar or np.any(E < 0) or U.shape != shape or V.shape != shape:
            raise ValueError(f"coefficient arrays must have shapes {shape} and (n_mon, {2 * m_bar})")
        if not all(np.array_equal(arr, arr.swapaxes(0, 1), equal_nan=True) for arr in (U, V)):
            raise ValueError("coefficient arrays must be symmetric in i, j")
        used = np.flatnonzero(np.any(U != 0, axis=(0, 1, 2)) | np.any(V != 0, axis=(0, 1, 2)))
        order = used[np.lexsort(E[used].T[::-1])]
        E = E[order]
        if np.any(np.all(E[1:] == E[:-1], axis=1)):
            raise ValueError("exponent rows must be distinct")
        # Each exponent first: sums of non-negative exponents within the cap cannot wrap.
        _require_degree_cap(int(E.max(initial=0)))
        _require_degree_cap(int(E.sum(axis=1).max(initial=0)))
        # Adding 0.0 turns -0.0 into 0.0, the only zero the entry route stores.
        arrays = (U[..., order] + 0.0, V[..., order] + 0.0, E)
        for arr in arrays:
            arr.setflags(write=False)
        self.m_bar = m_bar
        self.arrays = arrays

    @property
    def config(self) -> SpaceConfig:
        return SpaceConfig(self.m_bar)

    @classmethod
    def zero(cls, m_bar: int) -> "ThetaField":
        return cls(m_bar, {})

    def upper_keys(self) -> np.ndarray:
        """0-based (i, j, k) with i <= j of the nonzero entries, in sorted order."""
        U, V, _ = self.arrays
        upper = np.triu(np.ones((self.m_bar, self.m_bar), dtype=bool))[:, :, None]
        return np.argwhere(upper & (np.any(U != 0, axis=-1) | np.any(V != 0, axis=-1)))

    @cached_property
    def entries(self) -> dict[EntryKey, ComplexPoly]:
        m_bar = self.m_bar
        U, V, E = self.arrays
        powers = [tuple(row) for row in E.tolist()]

        def poly(row: np.ndarray) -> PolyScalar:
            return PolyScalar(m_bar, dict(zip(powers, row.tolist())))

        return {
            (i + 1, j + 1, k + 1): ComplexPoly(poly(U[i, j, k]), poly(V[i, j, k]))
            for i, j, k in self.upper_keys().tolist()
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThetaField):
            return NotImplemented
        return self.m_bar == other.m_bar and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self.arrays, other.arrays)
        )

    __hash__ = None

    def entry(self, i: int, j: int, k: int) -> ComplexPoly:
        """Theta_{ijk}, resolving the i <-> j symmetry; absent entries are zero."""
        key = (min(i, j), max(i, j), k)
        return self.entries.get(key, ComplexPoly.zero(self.m_bar))

    def __add__(self, other: "ThetaField") -> "ThetaField":
        """The field whose coefficients are the sums of both fields' on the
        union of their monomials; monomials that cancel everywhere drop out."""
        if other.m_bar != self.m_bar:
            raise ValueError("cannot add coefficient fields of different m_bar")
        (U1, V1, E1), (U2, V2, E2) = self.arrays, other.arrays
        E, where, _ = _distinct_rows(np.concatenate([E1, E2]))
        U, V = (np.zeros(U1.shape[:-1] + (len(E),)) for _ in range(2))
        for coeffs, mine, theirs in ((U, U1, U2), (V, V1, V2)):
            coeffs[..., where[: len(E1)]] = mine
            coeffs[..., where[len(E1):]] += theirs
        return ThetaField.from_arrays(self.m_bar, U, V, E)

    def max_degree(self) -> int:
        return int(self.arrays[2].sum(axis=1).max(initial=0))

    def vanishes_at_origin(self) -> bool:
        # E lists only monomials with a nonzero coefficient; the constant one is all zeros.
        return bool(np.all(np.any(self.arrays[2], axis=1)))

    def swap_complex_coordinates(self, a: int, b: int) -> "ThetaField":
        """Interchange the roles of complex coordinate lines a and b (1-based):
        both the entry axes of U and V and the x and y columns of E are permuted."""
        m_bar = self.m_bar
        if not (1 <= a <= m_bar and 1 <= b <= m_bar):
            raise ValueError(f"complex coordinate lines must lie in 1..{m_bar}, got ({a}, {b})")
        perm = np.arange(m_bar)
        perm[[a - 1, b - 1]] = b - 1, a - 1
        U, V, E = self.arrays
        axes = np.ix_(perm, perm, perm)
        return ThetaField.from_arrays(m_bar, U[axes], V[axes], E[:, np.concatenate([perm, perm + m_bar])])


class HolomorphyKind(enum.Enum):
    HOLOMORPHIC = "holomorphic"
    ANTIHOLOMORPHIC = "antiholomorphic"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class HolomorphyType:
    kind: HolomorphyKind
    vanishes_at_origin: bool


def _partials(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact first partials of the polynomials sum_n coeffs[..., n] x^exponents[n].

    Returns (lowered, partials): ``lowered`` is the sorted exponent matrix of
    every monomial some partial lands on, and partials[d, ..., t] is the
    coefficient of lowered[t] in the derivative along coordinate d.  Each is
    one product coefficient * exponent: no two monomials lower onto the same
    one along the same coordinate.
    """
    var, mono = np.nonzero(exponents.T)
    lowered = exponents[mono].copy()
    lowered[np.arange(len(mono)), var] -= 1
    targets, where, _ = _distinct_rows(lowered)
    out = np.zeros((exponents.shape[1], len(targets)) + coeffs.shape[:-1])
    out[var, where] = np.moveaxis(coeffs[..., mono] * exponents[mono, var], -1, 0)
    return targets, np.moveaxis(out, 1, -1)


def _polynomial_values(coeffs: np.ndarray, exponents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_n coeffs[..., n] x^exponents[n] at each point of a (..., m) stack, row by row."""
    monomials = np.prod(points[..., None, :] ** exponents, axis=-1)
    return (coeffs * np.expand_dims(monomials, tuple(range(-coeffs.ndim, -1)))).sum(axis=-1)


def holomorphy_type(theta: ThetaField) -> HolomorphyType:
    """Classify a coefficient field by its Cauchy-Riemann behaviour.

    All checks are exact polynomial identities on the coefficient arrays:
    holomorphic requires du/dx_a = dv/dy_a and du/dy_a = -dv/dx_a per entry
    and coordinate line; antiholomorphic flips both signs.  Constant fields
    satisfy both systems.
    """
    m_bar = theta.m_bar
    U, V, E = theta.arrays
    du, dv = _partials(np.stack([U, V]), E)[1].swapaxes(0, 1)
    du_x, du_y = du[:m_bar], du[m_bar:]
    dv_x, dv_y = dv[:m_bar], dv[m_bar:]
    hol = not ((du_x - dv_y).any() or (du_y + dv_x).any())
    anti = not ((du_x + dv_y).any() or (du_y - dv_x).any())
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
    """Christoffel polynomials nabla_{v_a} v_b = sum_c Gamma[a][b][c] v_c, as arrays.

    Gamma[a][b][c] = sum_n coeffs[a, b, c, n] * x^exponents[n], with
    ``exponents`` of shape (n_mon, m) and ``coeffs`` of shape (m, m, m, n_mon).
    Both are stored as read-only copies.
    """

    config: SpaceConfig
    exponents: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        m = self.config.m
        exponents = np.array(self.exponents, dtype=np.int64)
        coeffs = np.array(self.coeffs, dtype=float)
        if exponents.ndim != 2 or exponents.shape[1] != m or np.any(exponents < 0):
            raise ValueError(f"exponents must be a non-negative (n_mon, {m}) integer matrix")
        if coeffs.shape != (m, m, m, len(exponents)):
            raise ValueError(f"coeffs must have shape {(m, m, m, len(exponents))}, got {coeffs.shape}")
        for arr in (exponents, coeffs):
            arr.setflags(write=False)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coeffs", coeffs)

    def christoffel(self, a: int, b: int, c: int) -> PolyScalar:
        """Gamma[a][b][c] as a polynomial (for displays and tests)."""
        powers = map(tuple, self.exponents.tolist())
        return PolyScalar(self.config.m_bar, dict(zip(powers, self.coeffs[a, b, c].tolist())))

    @cached_property
    def _derivative(self) -> tuple[np.ndarray, np.ndarray]:
        """(lowered, dcoeffs): d_i Gamma[a][b][c] = sum_t dcoeffs[i, a, b, c, t] x^lowered[t]."""
        return _partials(self.coeffs, self.exponents)

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense Gamma values and first derivatives at each point p of a (..., m) stack.

        Returns (G, dG) with G[..., a, b, c] = Gamma[a][b][c](p) and
        dG[..., i, a, b, c] = d_i Gamma[a][b][c](p).  Every polynomial is
        summed along its own coefficient row in the same order at every point,
        so equal (or negated) polynomials evaluate to equal (or negated)
        values, as in the exact symmetries of the generated connections.
        """
        m = self.config.m
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (m,):
            raise ValueError(f"point must have {m} coordinates, got shape {points.shape}")
        lowered, dcoeffs = self._derivative
        values = _polynomial_values(self.coeffs, self.exponents, points)
        return values, _polynomial_values(dcoeffs, lowered, points)


def _christoffel_scatter(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The signed block scatter of (U, V) into Christoffel coefficients.

    U and V have shape (..., m_bar, m_bar, m_bar, n), any leading stack axes
    and a last axis n carried along; the result has shape (..., m, m, m, n)
    with out[..., a, b, c, :] the coefficients of Gamma[a][b][c], in the
    common dtype of U and V.
    """
    m_bar = U.shape[-2]
    e, f = slice(0, m_bar), slice(m_bar, 2 * m_bar)
    out = np.zeros(U.shape[:-4] + (2 * m_bar,) * 3 + U.shape[-1:], dtype=np.result_type(U, V))
    out[..., e, e, e, :] = U           # nabla_{e} e = u e_k + v f_k
    out[..., e, e, f, :] = V
    out[..., f, f, e, :] = -U          # nabla_{f} f = -(u e_k + v f_k)
    out[..., f, f, f, :] = -V
    out[..., e, f, e, :] = -V          # nabla_{e} f = -v e_k + u f_k
    out[..., e, f, f, :] = U
    out[..., f, e, e, :] = -V          # nabla_{f} e agrees with nabla_{e} f
    out[..., f, e, f, :] = U
    return out


def connection_from_theta(theta: ThetaField) -> AffineConnection:
    """Assemble the Christoffel data as the signed block scatter of U and V."""
    U, V, E = theta.arrays
    return AffineConnection(theta.config, E, _christoffel_scatter(U, V))


def torsion_residual(conn: AffineConnection) -> float:
    """Largest coefficient of Gamma[a][b][c] - Gamma[b][a][c] over all triples."""
    coeffs = conn.coeffs
    return float(np.max(np.abs(coeffs - coeffs.swapaxes(0, 1)), initial=0.0))


def nabla_j_residual(conn: AffineConnection) -> float:
    """Largest polynomial coefficient of (nabla_{v_a} J)(v_b), all components.

    With constant J the component d of (nabla_a J)(v_b) reduces to
    sgn(b) Gamma[a][Jb][d] - sgn(Jd) Gamma[a][b][Jd], a signed index shuffle.
    """
    perm, signs = conn.config.j_action()
    coeffs = conn.coeffs
    shuffled = (
        signs[:, None, None] * coeffs[:, perm]
        - signs[perm][:, None] * coeffs[:, :, perm]
    )
    return float(np.max(np.abs(shuffled), initial=0.0))


def _curvature_stack(conn: AffineConnection, points: np.ndarray) -> np.ndarray:
    """Curvature entries at each point of a (..., m) stack, shape (..., m, m, m, m).

    R[a,b,c,d] = d_a Gamma[b][c][d] - d_b Gamma[a][c][d]
                 + sum_s (Gamma[a][s][d] Gamma[b][c][s] - Gamma[b][s][d] Gamma[a][c][s]).
    Both differences are an array minus itself with a, b swapped: exactly antisymmetric.
    """
    values, derivs = conn.evaluate(points)
    linear = derivs - derivs.swapaxes(-4, -3)
    quad = np.einsum("...asd,...bcs->...abcd", values, values)
    return linear + (quad - quad.swapaxes(-4, -3))


def curvature_at(conn: AffineConnection, point: np.ndarray) -> Tensor4:
    """Curvature tensor at one point, lowered in the orthonormal basis."""
    if np.shape(point) != (conn.config.m,):
        raise ValueError(f"point must have {conn.config.m} coordinates, got shape {np.shape(point)}")
    return Tensor4(conn.config, _curvature_stack(conn, point))


def degree_one_gradients(theta: ThetaField) -> np.ndarray:
    """Origin gradients of u_{ijk} and v_{ijk}, shape (2, m_bar, m_bar, m_bar, m).

    Symmetric in i, j.  Valid only for degree <= 1 fields vanishing at the
    origin, which such gradients determine completely: every monomial is
    then one coordinate.
    """
    if theta.max_degree() > 1:
        raise ValueError("coefficient field must have degree <= 1")
    if not theta.vanishes_at_origin():
        raise ValueError("coefficient field must vanish at the origin")
    m_bar = theta.m_bar
    U, V, E = theta.arrays
    grads = np.zeros((2, m_bar, m_bar, m_bar, 2 * m_bar))
    grads[..., E.argmax(axis=1)] = np.stack([U, V])
    return grads


def linear_curvature_at_zero(theta: ThetaField) -> Tensor4:
    """Curvature at the origin assembled directly from the coefficient gradients.

    Valid only for degree <= 1 fields vanishing at the origin, where the
    quadratic Christoffel products drop out.  It shares the Christoffel
    scatter with ``curvature_at``; its independent cross-check is the dict
    route of the tests, one polynomial per Christoffel symbol.
    """
    grads = degree_one_gradients(theta)
    return Tensor4(theta.config, linear_curvature_from_gradients(grads[0], grads[1]))


def linear_curvature_from_gradients(grad_u: np.ndarray, grad_v: np.ndarray) -> np.ndarray:
    """Origin curvature of degree-1 fields from their coefficient gradients.

    ``grad_u[..., i, j, k, :]`` and ``grad_v[..., i, j, k, :]`` are the
    gradients at the origin of u_{ijk} and v_{ijk} (symmetric in i, j), with
    any leading stack axes; the result has shape (..., m, m, m, m) and their
    dtype.  The scatter of the gradients is D[..., a, b, c, d] =
    d_a Gamma[b][c][d] at the origin, where Gamma vanishes, so R = D - D with
    a and b swapped.
    """
    derivs = np.moveaxis(_christoffel_scatter(grad_u, grad_v), -1, -4)
    return derivs - derivs.swapaxes(-4, -3)
