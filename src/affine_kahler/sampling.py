"""Seeded random generators for tensors, points and coefficient fields.

All randomness flows through an explicit numpy Generator so that every
consumer (tests, the self-test harness, demos) is reproducible from a seed.
Coefficient fields are built directly as (U, V, E) arrays: each product of
z (or conj z) lines is expanded by exponent arithmetic into small integer
unit coefficients, which the draws scale and sum.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from .connections import ThetaField
from .decomposition import _column_keys, kahler_parity_subspaces, theta_from_coefficients
from .tensors import SpaceConfig, Tensor4


def random_point(config: SpaceConfig, rng: np.random.Generator) -> np.ndarray:
    """A point of R^m with coordinates uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=config.m)


def random_kahler_tensor(config: SpaceConfig, rng: np.random.Generator) -> Tensor4:
    """A random element of the admissible space K (normal coefficients on its
    basis, the K+ rows stacked over the K- rows, applied block by block so
    that the stacked basis is never built)."""
    plus, minus = kahler_parity_subspaces(config)
    coeffs = rng.standard_normal(plus.dim + minus.dim)
    return Tensor4.from_flat(config, coeffs[: plus.dim] @ plus.basis + coeffs[plus.dim :] @ minus.basis)


def random_parity_tensor(config: SpaceConfig, rng: np.random.Generator, parity: str) -> Tensor4:
    """A random element of K+ (parity 'plus') or K- (parity 'minus')."""
    plus, minus = kahler_parity_subspaces(config)
    space = plus if parity == "plus" else minus
    return Tensor4.from_flat(config, rng.standard_normal(space.dim) @ space.basis)


def _z_monomials(m_bar: int, max_degree: int, include_constant: bool):
    degrees = range(0 if include_constant else 1, max_degree + 1)
    for degree in degrees:
        yield from combinations_with_replacement(range(1, m_bar + 1), degree)


def _expand(m_bar: int, lines: tuple[int, ...], sign: int):
    """The terms (uv, powers, value) of the product of x_a + sign * i * y_a over
    the given lines: picking y from b of the n_a factors of line a gives the
    monomial x_a^(n_a - b) y_a^b with multiplicity C(n_a, b), and the picked
    factors multiply to (sign * i)^(sum of b), real (uv 0) or imaginary (uv 1)."""
    counts = [lines.count(line) for line in range(1, m_bar + 1)]
    for picks in product(*(range(n + 1) for n in counts)):
        k = sum(picks)
        value = math.prod(map(math.comb, counts, picks)) * (-1) ** (k // 2) * sign ** (k % 2)
        yield k % 2, tuple(n - b for n, b in zip(counts, picks)) + picks, float(value)


@lru_cache(maxsize=None)
def _unit_terms(m_bar: int, max_degree: int, conjugate: bool, include_constant: bool):
    """The unit monomials of a random power series, in draw order.

    Returns (support, units): units[0, t, n] and units[1, t, n] are the
    coefficients of the real monomial support[n] in the real and imaginary
    parts of the t-th product of z (or conj z) lines, all small integers.
    """
    sign = -1 if conjugate else 1
    terms = [list(_expand(m_bar, lines, sign)) for lines in _z_monomials(m_bar, max_degree, include_constant)]
    support = tuple(sorted({powers for term in terms for _, powers, _ in term}))
    index = {powers: n for n, powers in enumerate(support)}
    units = np.zeros((2, len(terms), len(support)))
    for t, term in enumerate(terms):
        for uv, powers, value in term:
            units[uv, t, index[powers]] = value
    units.setflags(write=False)
    return support, units


def _random_power_series_field(
    config: SpaceConfig,
    rng: np.random.Generator,
    max_degree: int,
    conjugate: bool,
    include_constant: bool,
) -> ThetaField:
    """A coefficient field whose entries (i <= j) are power series with one
    independent complex standard normal per unit monomial, drawn in entry
    order, then monomial order, real part first.

    Each scaled unit term is added in monomial order; that order fixes the
    rounding of every coefficient, so a seed always gives the same arrays.
    """
    m_bar = config.m_bar
    support, units = _unit_terms(m_bar, max_degree, conjugate, include_constant)
    keys = [
        (i, j, k)
        for i in range(1, m_bar + 1)
        for j in range(i, m_bar + 1)
        for k in range(1, m_bar + 1)
    ]
    re, im = np.moveaxis(rng.standard_normal((len(keys), units.shape[1], 2)), -1, 0)
    u = np.zeros((len(keys), len(support)))
    v = np.zeros((len(keys), len(support)))
    for t, (unit_u, unit_v) in enumerate(units.swapaxes(0, 1)):
        u = u + (re[:, t, None] * unit_u - im[:, t, None] * unit_v)
        v = v + (im[:, t, None] * unit_u + re[:, t, None] * unit_v)

    arrays = np.zeros((2, m_bar, m_bar, m_bar, len(support)))
    for n, (i, j, k) in enumerate(keys):
        arrays[:, i - 1, j - 1, k - 1] = arrays[:, j - 1, i - 1, k - 1] = u[n], v[n]
    return ThetaField.from_arrays(m_bar, arrays[0], arrays[1], np.array(support, dtype=np.int64))


def random_holomorphic_theta(
    config: SpaceConfig,
    rng: np.random.Generator,
    max_degree: int = 2,
    include_constant: bool = True,
) -> ThetaField:
    """Random coefficient field whose entries are polynomials in the z lines only."""
    return _random_power_series_field(config, rng, max_degree, False, include_constant)


def random_antiholomorphic_theta(
    config: SpaceConfig,
    rng: np.random.Generator,
    max_degree: int = 2,
    include_constant: bool = False,
) -> ThetaField:
    """Random coefficient field in the conjugate lines; by default it vanishes
    at the origin."""
    return _random_power_series_field(config, rng, max_degree, True, include_constant)


def random_degree_one_theta(config: SpaceConfig, rng: np.random.Generator) -> ThetaField:
    """Random degree-1, origin-vanishing field mixing both coordinate kinds:
    one standard normal per real parameter, drawn in parameter order."""
    return theta_from_coefficients(config, rng.standard_normal(len(_column_keys(config.m_bar))))
