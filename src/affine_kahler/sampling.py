"""Seeded random generators for tensors, points and coefficient fields.

All randomness flows through an explicit numpy Generator so that every
consumer (tests, the self-test harness, demos) is reproducible from a seed.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .connections import ThetaField
from .decomposition import _column_keys, kahler_parity_subspaces, kahler_space_basis, theta_from_coefficients
from .polynomials import ComplexPoly
from .tensors import SpaceConfig, Tensor4


def random_point(config: SpaceConfig, rng: np.random.Generator) -> np.ndarray:
    """A point of R^m with coordinates uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=config.m)


def random_kahler_tensor(config: SpaceConfig, rng: np.random.Generator) -> Tensor4:
    """A random element of the admissible space K (normal coefficients on its basis)."""
    space = kahler_space_basis(config)
    return Tensor4.from_flat(config, rng.standard_normal(space.dim) @ space.basis)


def random_parity_tensor(config: SpaceConfig, rng: np.random.Generator, parity: str) -> Tensor4:
    """A random element of K+ (parity 'plus') or K- (parity 'minus')."""
    plus, minus = kahler_parity_subspaces(config)
    space = plus if parity == "plus" else minus
    return Tensor4.from_flat(config, rng.standard_normal(space.dim) @ space.basis)


def _z_monomials(m_bar: int, max_degree: int, include_constant: bool):
    degrees = range(0 if include_constant else 1, max_degree + 1)
    for degree in degrees:
        yield from combinations_with_replacement(range(1, m_bar + 1), degree)


def _random_power_series(
    m_bar: int,
    rng: np.random.Generator,
    max_degree: int,
    conjugate: bool,
    include_constant: bool,
) -> ComplexPoly:
    factor = ComplexPoly.z_bar if conjugate else ComplexPoly.z
    total = ComplexPoly.zero(m_bar)
    for lines in _z_monomials(m_bar, max_degree, include_constant):
        term = ComplexPoly.constant(m_bar, 1.0)
        for line in lines:
            term = term * factor(m_bar, line)
        re, im = rng.standard_normal(2)
        total = total + term.scale(re, im)
    return total


def _random_field(config: SpaceConfig, draw_entry) -> ThetaField:
    """A coefficient field with one independent ``draw_entry()`` per entry
    (i <= j), drawn in entry order."""
    m_bar = config.m_bar
    return ThetaField(
        m_bar,
        {
            (i, j, k): draw_entry()
            for i in range(1, m_bar + 1)
            for j in range(i, m_bar + 1)
            for k in range(1, m_bar + 1)
        },
    )


def random_holomorphic_theta(
    config: SpaceConfig,
    rng: np.random.Generator,
    max_degree: int = 2,
    include_constant: bool = True,
) -> ThetaField:
    """Random coefficient field whose entries are polynomials in the z lines only."""
    return _random_field(
        config, lambda: _random_power_series(config.m_bar, rng, max_degree, False, include_constant)
    )


def random_antiholomorphic_theta(
    config: SpaceConfig,
    rng: np.random.Generator,
    max_degree: int = 2,
    include_constant: bool = False,
) -> ThetaField:
    """Random coefficient field in the conjugate lines; by default it vanishes
    at the origin."""
    return _random_field(
        config, lambda: _random_power_series(config.m_bar, rng, max_degree, True, include_constant)
    )


def random_degree_one_theta(config: SpaceConfig, rng: np.random.Generator) -> ThetaField:
    """Random degree-1, origin-vanishing field mixing both coordinate kinds:
    one standard normal per real parameter, drawn in parameter order."""
    keys = _column_keys(config.m_bar)
    return theta_from_coefficients(config, keys, rng.standard_normal(len(keys)))
