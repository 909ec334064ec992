"""Exact polynomial scalars on R^(2*m_bar).

Coefficient functions for connections are real polynomials in the coordinates
(x_1..x_mbar, y_1..y_mbar), stored as a map from exponent tuples to
coefficients.  Differentiation is symbolic, so identity checks on Christoffel
data carry no discretization error.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Monomial = tuple[int, ...]


def _normalize(m_bar: int, coeffs) -> dict[Monomial, float]:
    n_vars = 2 * m_bar
    out: dict[Monomial, float] = {}
    for powers, coeff in dict(coeffs).items():
        key = tuple(int(p) for p in powers)
        if len(key) != n_vars or any(p < 0 for p in key):
            raise ValueError(f"bad exponent vector {powers!r} for m_bar={m_bar}")
        value = out.get(key, 0.0) + float(coeff)
        if value == 0.0:
            out.pop(key, None)
        else:
            out[key] = value
    return {key: val for key, val in sorted(out.items()) if val != 0.0}


@dataclass(frozen=True)
class PolyScalar:
    """Real polynomial in (x_1..x_mbar, y_1..y_mbar); exponent order matches."""

    m_bar: int
    coeffs: dict[Monomial, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize(self.m_bar, self.coeffs))

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, m_bar: int) -> "PolyScalar":
        return cls(m_bar, {})

    @classmethod
    def constant(cls, m_bar: int, value: float) -> "PolyScalar":
        return cls(m_bar, {(0,) * (2 * m_bar): float(value)})

    @classmethod
    def variable(cls, m_bar: int, index: int, coeff: float = 1.0) -> "PolyScalar":
        """Monomial coeff * t where t is coordinate number ``index`` (0-based,
        x-block first)."""
        powers = [0] * (2 * m_bar)
        powers[index] = 1
        return cls(m_bar, {tuple(powers): float(coeff)})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PolyScalar") -> "PolyScalar":
        merged = dict(self.coeffs)
        for key, val in other.coeffs.items():
            merged[key] = merged.get(key, 0.0) + val
        return PolyScalar(self.m_bar, merged)

    def __sub__(self, other: "PolyScalar") -> "PolyScalar":
        return self + (-other)

    def __neg__(self) -> "PolyScalar":
        return PolyScalar(self.m_bar, {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, PolyScalar):
            prod: dict[Monomial, float] = {}
            for pa, ca in self.coeffs.items():
                for pb, cb in other.coeffs.items():
                    key = tuple(a + b for a, b in zip(pa, pb))
                    prod[key] = prod.get(key, 0.0) + ca * cb
            return PolyScalar(self.m_bar, prod)
        return self.scale(float(other))

    __rmul__ = __mul__

    def scale(self, factor: float) -> "PolyScalar":
        return PolyScalar(self.m_bar, {k: factor * v for k, v in self.coeffs.items()})

    # -- calculus ----------------------------------------------------------
    def diff(self, var: int) -> "PolyScalar":
        """Exact partial derivative with respect to coordinate ``var`` (0-based)."""
        out: dict[Monomial, float] = {}
        for powers, coeff in self.coeffs.items():
            exp = powers[var]
            if exp == 0:
                continue
            lowered = list(powers)
            lowered[var] = exp - 1
            out[tuple(lowered)] = coeff * exp
        return PolyScalar(self.m_bar, out)

    def eval(self, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=float)
        total = 0.0
        for powers, coeff in self.coeffs.items():
            term = coeff
            for var, exp in enumerate(powers):
                if exp:
                    term *= point[var] ** exp
            total += term
        return total

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(v) for v in self.coeffs.values())


@dataclass(frozen=True)
class ComplexPoly:
    """Complex-valued polynomial kept as its real and imaginary parts."""

    u: PolyScalar
    v: PolyScalar

    def __post_init__(self) -> None:
        if self.u.m_bar != self.v.m_bar:
            raise ValueError("real and imaginary parts disagree on m_bar")

    @property
    def m_bar(self) -> int:
        return self.u.m_bar

    @classmethod
    def zero(cls, m_bar: int) -> "ComplexPoly":
        return cls(PolyScalar.zero(m_bar), PolyScalar.zero(m_bar))

    @classmethod
    def constant(cls, m_bar: int, re: float, im: float = 0.0) -> "ComplexPoly":
        return cls(PolyScalar.constant(m_bar, re), PolyScalar.constant(m_bar, im))

    @classmethod
    def z(cls, m_bar: int, line: int) -> "ComplexPoly":
        """The coordinate z_line = x_line + i y_line (1-based line index)."""
        return cls(
            PolyScalar.variable(m_bar, line - 1),
            PolyScalar.variable(m_bar, m_bar + line - 1),
        )

    @classmethod
    def z_bar(cls, m_bar: int, line: int) -> "ComplexPoly":
        """The conjugate coordinate x_line - i y_line (1-based line index)."""
        return cls(
            PolyScalar.variable(m_bar, line - 1),
            PolyScalar.variable(m_bar, m_bar + line - 1, coeff=-1.0),
        )

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(self.u - other.u, self.v - other.v)

    def __mul__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(
            self.u * other.u - self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def scale(self, re: float, im: float = 0.0) -> "ComplexPoly":
        return ComplexPoly(
            self.u.scale(re) - self.v.scale(im),
            self.u.scale(im) + self.v.scale(re),
        )

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

