from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from affine_kahler.connections import DEGREE_CAP
from affine_kahler.polynomials import ComplexPoly
from affine_kahler.sampling import _unit_terms, _z_monomials


def unit_terms_by_products(m_bar: int, max_degree: int, conjugate: bool, include_constant: bool):
    """The oracle for _unit_terms: each product of lines by ComplexPoly products."""
    factor = ComplexPoly.z_bar if conjugate else ComplexPoly.z
    terms = []
    for lines in _z_monomials(m_bar, max_degree, include_constant):
        term = ComplexPoly.constant(m_bar, 1.0)
        for line in lines:
            term = term * factor(m_bar, line)
        terms.append((term.u.coeffs, term.v.coeffs))
    support = tuple(sorted({powers for parts in terms for coeffs in parts for powers in coeffs}))
    index = {powers: n for n, powers in enumerate(support)}
    units = np.zeros((2, len(terms), len(support)))
    for t, parts in enumerate(terms):
        for uv, coeffs in enumerate(parts):
            for powers, value in coeffs.items():
                units[uv, t, index[powers]] = value
    return support, units


@pytest.mark.parametrize("m_bar", [1, 2, 3])
def test_unit_terms_match_the_product_oracle(m_bar):
    for args in product(range(1, DEGREE_CAP + 1), (False, True), (False, True)):
        support, units = _unit_terms(m_bar, *args)
        want_support, want_units = unit_terms_by_products(m_bar, *args)
        assert support == want_support, args
        assert units.tobytes() == want_units.tobytes(), args  # bit for bit, so no -0.0 either
        assert not np.any(np.signbit(units) & (units == 0)), args
