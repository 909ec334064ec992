from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_kahler.polynomials import ComplexPoly, PolyScalar

M_BAR = 2
N_VARS = 2 * M_BAR

coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
powers = st.tuples(*[st.integers(min_value=0, max_value=3)] * N_VARS)
polys = st.dictionaries(powers, coeffs, max_size=6).map(lambda d: PolyScalar(M_BAR, d))
points = st.tuples(*[st.floats(min_value=-2, max_value=2, allow_nan=False)] * N_VARS).map(np.array)


def test_normalization_drops_zeros_and_merges():
    poly = PolyScalar(M_BAR, {(1, 0, 0, 0): 2.0})
    same = poly + PolyScalar(M_BAR, {(1, 0, 0, 0): -2.0})
    assert same.is_zero()
    merged = PolyScalar(M_BAR, {(0, 1, 0, 0): 1.5}) + PolyScalar(M_BAR, {(0, 1, 0, 0): 0.5})
    assert merged.coeffs == {(0, 1, 0, 0): 2.0}


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        PolyScalar(M_BAR, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        PolyScalar(M_BAR, {(-1, 0, 0, 0): 1.0})


@given(p=polys, q=polys, x=points)
@settings(max_examples=200, deadline=None)
def test_addition_and_product_evaluate_pointwise(p, q, x):
    assert (p + q).eval(x) == pytest.approx(p.eval(x) + q.eval(x), rel=1e-12, abs=1e-9)
    assert (p * q).eval(x) == pytest.approx(p.eval(x) * q.eval(x), rel=1e-12, abs=1e-9)


@given(p=polys, q=polys)
@settings(max_examples=150, deadline=None)
def test_product_rule(p, q):
    for var in range(N_VARS):
        lhs = (p * q).diff(var)
        rhs = p.diff(var) * q + p * q.diff(var)
        assert (lhs - rhs).max_abs_coeff() == pytest.approx(0.0, abs=1e-9)


def test_diff_lowers_degree():
    poly = PolyScalar(M_BAR, {(2, 1, 0, 0): 3.0})
    d0 = poly.diff(0)
    assert d0.coeffs == {(1, 1, 0, 0): 6.0}
    assert poly.diff(3).is_zero()


def test_complex_poly_z_and_conjugate():
    z1 = ComplexPoly.z(M_BAR, 1)
    zb1 = ComplexPoly.z_bar(M_BAR, 1)
    # z1 * zb1 = x1^2 + y1^2, purely real
    prod = z1 * zb1
    assert prod.v.is_zero()
    assert prod.u.coeffs == {(2, 0, 0, 0): 1.0, (0, 0, 2, 0): 1.0}
    # i * z1 = -y1 + i x1
    i_z1 = z1.scale(0.0, 1.0)
    assert i_z1.u.coeffs == {(0, 0, 1, 0): -1.0}
    assert i_z1.v.coeffs == {(1, 0, 0, 0): 1.0}


@given(
    re=coeffs, im=coeffs,
    line=st.integers(min_value=1, max_value=M_BAR),
    x=points,
)
@settings(max_examples=100, deadline=None)
def test_complex_scale_matches_complex_arithmetic(re, im, line, x):
    z = ComplexPoly.z(M_BAR, line)
    scaled = z.scale(re, im)
    expect = complex(re, im) * complex(z.u.eval(x), z.v.eval(x))
    assert scaled.u.eval(x) == pytest.approx(expect.real, rel=1e-12, abs=1e-9)
    assert scaled.v.eval(x) == pytest.approx(expect.imag, rel=1e-12, abs=1e-9)


def test_only_the_connection_layer_and_the_exports_import_polynomials():
    # every command runs on coefficient arrays; the dict classes stay a view
    # for API callers (ThetaField.entries, AffineConnection.christoffel)
    package = Path(__file__).resolve().parents[1] / "src" / "affine_kahler"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "polynomials" for name in names):
                importers.add(path.stem)
    assert importers == {"connections", "__init__"}
