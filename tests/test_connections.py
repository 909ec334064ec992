from __future__ import annotations

import numpy as np
import pytest

import christoffel_oracle as oracle
from affine_kahler.connections import (
    DEGREE_CAP,
    AffineConnection,
    HolomorphyKind,
    ThetaField,
    _curvature_stack,
    _distinct_rows,
    connection_from_theta,
    curvature_at,
    holomorphy_type,
    linear_curvature_at_zero,
    linear_curvature_from_gradients,
    nabla_j_residual,
    torsion_residual,
)
from affine_kahler.polynomials import ComplexPoly, PolyScalar
from affine_kahler.sampling import (
    random_antiholomorphic_theta,
    random_degree_one_theta,
    random_holomorphic_theta,
    random_point,
)
from affine_kahler.tensors import (
    SpaceConfig,
    classify_symmetries,
    j_parity_residuals,
    ricci_traces,
)


def x_var(m_bar: int, line: int, coeff: float = 1.0) -> PolyScalar:
    return PolyScalar.variable(m_bar, line - 1, coeff)


def y_var(m_bar: int, line: int, coeff: float = 1.0) -> PolyScalar:
    return PolyScalar.variable(m_bar, m_bar + line - 1, coeff)


# -- connection assembly -------------------------------------------------------

def test_connection_zero_theta_is_flat(cfg2):
    conn = connection_from_theta(ThetaField.zero(2))
    assert not conn.coeffs.any()
    assert curvature_at(conn, np.zeros(4)).norm() == 0.0


def test_connection_entries_follow_the_defining_equations(cfg2):
    # Theta_111 = x1 - i y1: nabla_e1 e1 = x1 e1 - y1 f1, nabla_e1 f1 = y1 e1 + x1 f1
    theta = ThetaField(2, {(1, 1, 1): ComplexPoly.z_bar(2, 1)})
    conn = connection_from_theta(theta)
    assert conn.christoffel(0, 0, 0).coeffs == x_var(2, 1).coeffs
    assert conn.christoffel(0, 0, 2).coeffs == y_var(2, 1, -1.0).coeffs
    assert conn.christoffel(0, 2, 0).coeffs == y_var(2, 1).coeffs
    assert conn.christoffel(0, 2, 2).coeffs == x_var(2, 1).coeffs
    assert conn.christoffel(2, 2, 0).coeffs == x_var(2, 1, -1.0).coeffs
    assert conn.christoffel(2, 2, 2).coeffs == y_var(2, 1).coeffs


def test_connection_mbar3_off_diagonal_entry():
    # Theta_112 = x3 + i y3: nabla_e1 e1 = x3 e2 + y3 f2
    theta = ThetaField(3, {(1, 1, 2): ComplexPoly.z(3, 3)})
    conn = connection_from_theta(theta)
    assert conn.christoffel(0, 0, 1).coeffs == x_var(3, 3).coeffs
    assert conn.christoffel(0, 0, 4).coeffs == y_var(3, 3).coeffs


def test_generated_connections_are_torsion_free_and_parallelize_j(rng):
    for m_bar in (2, 3):
        cfg = SpaceConfig(m_bar)
        for maker in (random_degree_one_theta, random_holomorphic_theta, random_antiholomorphic_theta):
            conn = connection_from_theta(maker(cfg, rng))
            assert torsion_residual(conn) == 0.0
            assert nabla_j_residual(conn) == 0.0


def test_torsion_residual_detects_asymmetry():
    gamma = {(0, 1, 0): PolyScalar.constant(2, 1.0)}
    conn = AffineConnection(SpaceConfig(2), *oracle.arrays_from_gamma(gamma, 2))
    assert torsion_residual(conn) == 1.0


def test_nabla_j_residual_detects_non_kahler_data():
    # A single constant Gamma[e1][e1][e1] = 1 cannot commute with J.
    gamma = {(0, 0, 0): PolyScalar.constant(2, 1.0)}
    conn = AffineConnection(SpaceConfig(2), *oracle.arrays_from_gamma(gamma, 2))
    assert nabla_j_residual(conn) > 0.0


def test_degree_cap_is_enforced():
    big = ComplexPoly.z(2, 1)
    for _ in range(6):
        big = big * ComplexPoly.z(2, 1)
    with pytest.raises(ValueError, match="degree"):
        ThetaField(2, {(1, 1, 1): big})


def test_array_constructor_matches_the_entry_route_bit_for_bit():
    # shuffled monomials, an unused one and signed zeros canonicalize away
    entries = {
        (1, 2, 1): ComplexPoly(x_var(2, 1, 0.75) * y_var(2, 2), y_var(2, 1, -1.5)),
        (2, 2, 2): ComplexPoly.z_bar(2, 2),
    }
    theta = ThetaField(2, entries)
    U, V, E = theta.arrays
    order = np.arange(len(E))[::-1]
    unused = np.full((2, 2, 2, 1), -0.0)
    signed = lambda arr: np.where(arr == 0.0, -0.0, arr)  # noqa: E731
    rebuilt = ThetaField.from_arrays(
        2,
        np.concatenate([signed(U)[..., order], unused], axis=-1),
        np.concatenate([signed(V)[..., order], unused], axis=-1),
        np.vstack([E[order], [[0, 0, 3, 0]]]),
    )
    assert rebuilt == theta
    assert all(mine.tobytes() == theirs.tobytes() for mine, theirs in zip(rebuilt.arrays, theta.arrays))
    assert rebuilt.entries == theta.entries
    assert (rebuilt.max_degree(), rebuilt.vanishes_at_origin()) == (2, True)


def test_array_constructor_rejects_malformed_arrays():
    U = np.zeros((2, 2, 2, 2))
    U[0, 1, 0, 0] = 1.0
    E = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        ThetaField.from_arrays(2, U, np.zeros_like(U), E)
    U[1, 0, 0, 0] = U[0, 1, 0, 1] = U[1, 0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="distinct"):
        ThetaField.from_arrays(2, U, U, np.array([[1, 0, 0, 0], [1, 0, 0, 0]]))
    with pytest.raises(ValueError, match="degree"):
        ThetaField.from_arrays(2, U, U, np.array([[DEGREE_CAP + 1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ValueError, match="exceeds the cap"):  # a row sum that wraps in int64
        ThetaField.from_arrays(1, np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), [[2**62, 2**62]])
    with pytest.raises(ValueError, match="shapes"):
        ThetaField.from_arrays(2, U, U, E[:, :3])


# -- curvature ------------------------------------------------------------------

def test_curvature_of_flat_connection_everywhere_zero(rng):
    conn = connection_from_theta(ThetaField.zero(2))
    for _ in range(3):
        assert curvature_at(conn, random_point(SpaceConfig(2), rng)).norm() == 0.0


def test_curvature_witness_entry(cfg2):
    theta = ThetaField(2, {(1, 1, 1): ComplexPoly.z_bar(2, 1)})
    curv = curvature_at(connection_from_theta(theta), np.zeros(4))
    assert curv.entries[0, 2, 0, 2] == 2.0  # operator value 2 f1 on (e1, f1) e1


def test_linear_route_equals_christoffel_route(rng):
    for m_bar in (2, 3):
        cfg = SpaceConfig(m_bar)
        for _ in range(5):
            theta = random_degree_one_theta(cfg, rng)
            conn = connection_from_theta(theta)
            assert conn.coeffs.dtype == np.float64
            via_table = linear_curvature_at_zero(theta)
            via_gamma = curvature_at(conn, np.zeros(cfg.m))
            assert np.array_equal(via_table.entries, via_gamma.entries)
    for m_bar in (2, 3, 4):
        # every unit origin gradient, symmetrized in i, j: exact in int16
        eye = np.eye(4 * m_bar**4, dtype=np.int16).reshape(-1, 2, m_bar, m_bar, m_bar, 2 * m_bar)
        grads = eye + eye.swapaxes(-4, -3)
        exact = linear_curvature_from_gradients(grads[:, 0], grads[:, 1])
        assert exact.dtype == np.int16
        assert np.array_equal(exact, linear_curvature_from_gradients(*grads.astype(float).swapaxes(0, 1)))


def test_linear_route_rejects_bad_input():
    quad = ComplexPoly.z(2, 1) * ComplexPoly.z(2, 1)
    with pytest.raises(ValueError, match="degree"):
        linear_curvature_at_zero(ThetaField(2, {(1, 1, 1): quad}))
    with pytest.raises(ValueError, match="origin"):
        linear_curvature_at_zero(ThetaField(2, {(1, 1, 1): ComplexPoly.constant(2, 1.0)}))


def complex_product_curvature_oracle(theta: ThetaField) -> np.ndarray:
    """Independent oracle for the purely quadratic part of the curvature.

    For fields with no linear part, the origin curvature comes from the
    Christoffel products alone and, viewed complex-linearly, equals
    C^{ijk}_l = sum_a (Theta_ial Theta_jka - Theta_jal Theta_ika) evaluated
    at the origin.  Returns the complex operator block as an array over
    (i, j, k, l).
    """
    m_bar = theta.m_bar
    origin = np.zeros(2 * m_bar)

    def value(i: int, j: int, k: int) -> complex:
        poly = theta.entry(i, j, k)
        return complex(poly.u.eval(origin), poly.v.eval(origin))

    out = np.zeros((m_bar, m_bar, m_bar, m_bar), dtype=complex)
    for i in range(1, m_bar + 1):
        for j in range(1, m_bar + 1):
            for k in range(1, m_bar + 1):
                for ell in range(1, m_bar + 1):
                    out[i - 1, j - 1, k - 1, ell - 1] = sum(
                        value(i, a, ell) * value(j, k, a) - value(j, a, ell) * value(i, k, a)
                        for a in range(1, m_bar + 1)
                    )
    return out


def test_quadratic_curvature_matches_complex_product_oracle(rng):
    # Constant plus purely quadratic entries: no linear part, so the origin
    # curvature is exactly the Christoffel product term.
    for m_bar in (2, 3):
        cfg = SpaceConfig(m_bar)
        entries = {}
        for i in range(1, m_bar + 1):
            for j in range(i, m_bar + 1):
                for k in range(1, m_bar + 1):
                    const = ComplexPoly.constant(m_bar, *rng.standard_normal(2))
                    quad = (
                        ComplexPoly.z(m_bar, int(rng.integers(1, m_bar + 1)))
                        * ComplexPoly.z_bar(m_bar, int(rng.integers(1, m_bar + 1)))
                    ).scale(*rng.standard_normal(2))
                    entries[(i, j, k)] = const + quad
        theta = ThetaField(m_bar, entries)
        curv = curvature_at(connection_from_theta(theta), np.zeros(cfg.m))
        oracle = complex_product_curvature_oracle(theta)
        for i in range(m_bar):
            for j in range(m_bar):
                for k in range(m_bar):
                    for ell in range(m_bar):
                        got_re = curv.entries[i, j, k, ell]
                        got_im = curv.entries[i, j, k, m_bar + ell]
                        want = oracle[i, j, k, ell]
                        assert got_re == pytest.approx(want.real, abs=1e-12)
                        assert got_im == pytest.approx(want.imag, abs=1e-12)


def test_curvature_point_shape_is_validated(cfg2):
    conn = connection_from_theta(ThetaField.zero(2))
    for point in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ValueError, match="coordinates"):
            curvature_at(conn, point)


# -- holomorphy ------------------------------------------------------------------

def test_holomorphy_classification_of_named_fields():
    hol = ThetaField(3, {(1, 1, 2): ComplexPoly.z(3, 3)})
    assert holomorphy_type(hol).kind is HolomorphyKind.HOLOMORPHIC
    assert holomorphy_type(hol).vanishes_at_origin

    anti = ThetaField(3, {(1, 1, 2): ComplexPoly.z_bar(3, 3)})
    assert holomorphy_type(anti).kind is HolomorphyKind.ANTIHOLOMORPHIC
    assert holomorphy_type(anti).vanishes_at_origin

    const = ThetaField(2, {(1, 1, 1): ComplexPoly.constant(2, 2.5, -1.0)})
    both = holomorphy_type(const)
    assert both.kind is HolomorphyKind.BOTH
    assert not both.vanishes_at_origin

    mixed = ThetaField(2, {(1, 1, 1): ComplexPoly.z(2, 1) + ComplexPoly.z_bar(2, 2)})
    assert holomorphy_type(mixed).kind is HolomorphyKind.NEITHER


def test_random_generators_have_the_advertised_types(rng):
    cfg = SpaceConfig(2)
    hol = holomorphy_type(random_holomorphic_theta(cfg, rng))
    assert hol.kind in (HolomorphyKind.HOLOMORPHIC, HolomorphyKind.BOTH)
    anti = holomorphy_type(random_antiholomorphic_theta(cfg, rng))
    assert anti.kind in (HolomorphyKind.ANTIHOLOMORPHIC, HolomorphyKind.BOTH)
    assert anti.vanishes_at_origin


# -- parity laws -------------------------------------------------------------------

def test_holomorphic_curvature_is_odd_everywhere(rng):
    for m_bar in (2, 3):
        cfg = SpaceConfig(m_bar)
        for _ in range(3):
            conn = connection_from_theta(random_holomorphic_theta(cfg, rng))
            for _ in range(5):
                curv = curvature_at(conn, random_point(cfg, rng))
                _odd, even = j_parity_residuals(curv)
                assert even <= 1e-9
                report = classify_symmetries(curv)
                assert report.in_K


def test_antiholomorphic_curvature_is_even_at_origin_only_claimed(rng):
    for m_bar in (2, 3):
        cfg = SpaceConfig(m_bar)
        for _ in range(3):
            theta = random_antiholomorphic_theta(cfg, rng)
            conn = connection_from_theta(theta)
            curv = curvature_at(conn, np.zeros(cfg.m))
            odd, _even = j_parity_residuals(curv)
            assert odd <= 1e-9


def test_curvature_in_k_at_generic_points(rng):
    cfg = SpaceConfig(2)
    theta = random_degree_one_theta(cfg, rng)
    conn = connection_from_theta(theta)
    for _ in range(5):
        report = classify_symmetries(curvature_at(conn, random_point(cfg, rng)))
        assert report.in_K


# -- array route against the dict oracle ------------------------------------------

FIELD_KINDS = {
    "hol": HolomorphyKind.HOLOMORPHIC,
    "anti": HolomorphyKind.ANTIHOLOMORPHIC,
    "both": HolomorphyKind.BOTH,
    "neither": HolomorphyKind.NEITHER,
}


def random_mixed_theta(m_bar: int, rng: np.random.Generator, kind: str, dyadic: bool) -> ThetaField:
    """Sparse random field of one Cauchy-Riemann kind, degrees up to the cap.

    Every entry gets a random constant; 'both' stops there.  Otherwise each
    entry gains one or two random monomials z^alpha conj(z)^beta, scaled by a
    random complex number: z factors only for 'hol', conj(z) only for 'anti',
    at least one of each for 'neither'.  Dyadic coefficients (quarters in
    [-2, 2]) keep every Cauchy-Riemann identity exact in floating point;
    normal ones can break one at rounding level, for both routes alike.
    """
    def coefficient() -> tuple[float, float]:
        return tuple(rng.integers(-8, 9, size=2) / 4.0) if dyadic else tuple(rng.standard_normal(2))

    entries = {}
    for i in range(1, m_bar + 1):
        for j in range(i, m_bar + 1):
            for k in range(1, m_bar + 1):
                poly = ComplexPoly.constant(m_bar, *coefficient())
                for _ in range(0 if kind == "both" else int(rng.integers(1, 3))):
                    degree = int(rng.integers(1 if kind != "neither" else 2, DEGREE_CAP + 1))
                    conj = {"hol": [False], "anti": [True], "neither": [False, True]}[kind]
                    conj = conj + [conj[-1] if kind != "neither" else bool(rng.integers(2))
                                   for _ in range(degree - len(conj))]
                    term = ComplexPoly.constant(m_bar, 1.0)
                    for bar in conj:
                        line = int(rng.integers(1, m_bar + 1))
                        term = term * (ComplexPoly.z_bar if bar else ComplexPoly.z)(m_bar, line)
                    poly = poly + term.scale(*coefficient())
                entries[(i, j, k)] = poly
    return ThetaField(m_bar, entries)


def random_gamma(m_bar: int, rng: np.random.Generator) -> dict:
    """Random Christoffel polynomials with no symmetry at all."""
    m = 2 * m_bar
    gamma = {}
    for _ in range(12):
        key = tuple(int(x) for x in rng.integers(0, m, size=3))
        powers = tuple(int(x) for x in rng.integers(0, 3, size=m))
        gamma[key] = PolyScalar(m_bar, {powers: rng.standard_normal()}) + PolyScalar.constant(
            m_bar, rng.standard_normal()
        )
    return gamma


@pytest.mark.parametrize("m_bar", [2, 3])
def test_array_route_matches_dict_oracle_on_mixed_fields(m_bar):
    rng = np.random.default_rng(90 + m_bar)
    cfg = SpaceConfig(m_bar)
    for kind, expected in FIELD_KINDS.items():
        for dyadic in (True, False):
            theta = random_mixed_theta(m_bar, rng, kind, dyadic)
            assert theta.max_degree() <= DEGREE_CAP
            assert holomorphy_type(theta).kind is oracle.holomorphy_kind(theta)
            if dyadic:
                assert holomorphy_type(theta).kind is expected

            conn = connection_from_theta(theta)
            gamma = oracle.gamma_from_theta(theta)
            assert torsion_residual(conn) == oracle.torsion_residual(gamma, m_bar) == 0.0
            assert nabla_j_residual(conn) == oracle.nabla_j_residual(gamma, m_bar) == 0.0

            origin = np.zeros(cfg.m)
            at_origin = curvature_at(conn, origin).entries
            assert np.array_equal(at_origin, oracle.curvature_at(gamma, m_bar, origin))
            for _ in range(2):
                point = random_point(cfg, rng)
                got = curvature_at(conn, point).entries
                want = oracle.curvature_at(gamma, m_bar, point)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m_bar", [2, 3])
def test_stacked_curvature_equals_single_points_and_the_two_product_formula(m_bar):
    # Fields with constant terms, so the quadratic Christoffel products are live everywhere.
    rng = np.random.default_rng(40 + m_bar)
    cfg = SpaceConfig(m_bar)
    for kind in FIELD_KINDS:
        for dyadic in (True, False):
            conn = connection_from_theta(random_mixed_theta(m_bar, rng, kind, dyadic))
            points = np.vstack([np.zeros(cfg.m), rng.uniform(-1.0, 1.0, size=(5, cfg.m))])
            stacked = _curvature_stack(conn, points)
            assert stacked.shape == (6,) + (cfg.m,) * 4
            grid = _curvature_stack(conn, points.reshape(2, 3, cfg.m))
            assert np.array_equal(grid, stacked.reshape(grid.shape))
            for point, curv in zip(points, stacked):
                single = curvature_at(conn, point).entries
                assert np.array_equal(curv, single)
                values, derivs = conn.evaluate(point)
                two_products = (derivs - np.einsum("bacd->abcd", derivs)) + (
                    np.einsum("asd,bcs->abcd", values, values) - np.einsum("bsd,acs->abcd", values, values)
                )
                assert np.array_equal(single, two_products)


@pytest.mark.parametrize("m_bar", [2, 3])
def test_curvature_is_exactly_antisymmetric_off_the_origin(m_bar):
    rng = np.random.default_rng(50 + m_bar)
    cfg = SpaceConfig(m_bar)
    for kind in FIELD_KINDS:
        for dyadic in (True, False):
            conn = connection_from_theta(random_mixed_theta(m_bar, rng, kind, dyadic))
            for _ in range(2):
                report = classify_symmetries(curvature_at(conn, random_point(cfg, rng)))
                assert report.violations["antisym12"] == 0.0


@pytest.mark.parametrize("count", [60, 1, 0])
def test_distinct_rows_match_numpy_unique(count):
    # Small signed integers, so a 60-row draw repeats rows.
    rows = np.random.default_rng(count).integers(-1, 2, size=(count, 3))
    distinct, where, first = _distinct_rows(rows)
    want, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.shape == want.shape and np.array_equal(distinct, want)
    assert np.array_equal(where, inverse.reshape(-1))
    assert np.array_equal(rows[first], distinct)
    assert first.tolist() == [where.tolist().index(t) for t in range(len(distinct))]
    if count == 60:
        assert len(distinct) < count


@pytest.mark.parametrize("m_bar", [2, 3])
def test_residuals_and_curvature_match_dict_oracle_on_generic_data(m_bar):
    # Christoffel data with no symmetry: both residuals are nonzero and must
    # equal the oracle's polynomial coefficients exactly.
    rng = np.random.default_rng(70 + m_bar)
    cfg = SpaceConfig(m_bar)
    for _ in range(5):
        gamma = random_gamma(m_bar, rng)
        conn = AffineConnection(cfg, *oracle.arrays_from_gamma(gamma, m_bar))
        torsion = torsion_residual(conn)
        nabla_j = nabla_j_residual(conn)
        assert torsion > 0.0 and nabla_j > 0.0
        assert torsion == oracle.torsion_residual(gamma, m_bar)
        assert nabla_j == oracle.nabla_j_residual(gamma, m_bar)
        for a, b, c in gamma:
            assert conn.christoffel(a, b, c).coeffs == gamma[(a, b, c)].coeffs
        point = random_point(cfg, rng)
        got = curvature_at(conn, point).entries
        want = oracle.curvature_at(gamma, m_bar, point)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -- witness traces through the connection layer ------------------------------------

def test_trace_table_of_the_two_parameter_witness():
    # Theta_111 = r1 (x1 - i y1), Theta_122 = r2 (y1 + i x1), r = (1, 1)
    theta = ThetaField(
        2,
        {
            (1, 1, 1): ComplexPoly.z_bar(2, 1),
            (1, 2, 2): ComplexPoly.z_bar(2, 1).scale(0.0, 1.0),
        },
    )
    curv = curvature_at(connection_from_theta(theta), np.zeros(4))
    traces = ricci_traces(curv)
    assert traces.tau == -4.0
    assert traces.tau_tilde_j == -4.0
    assert traces.rho14.entries[0, 0] == -2.0
    assert traces.rho14.entries[0, 2] == 2.0
    assert traces.rho14.entries[2, 0] == -2.0


def test_swap_complex_coordinates_relabels_both_indices_and_variables():
    theta = ThetaField(3, {(1, 1, 2): ComplexPoly.z_bar(3, 1)})
    swapped = theta.swap_complex_coordinates(1, 2)
    assert set(swapped.entries) == {(2, 2, 1)}
    poly = swapped.entries[(2, 2, 1)]
    assert poly.u.coeffs == PolyScalar.variable(3, 1).coeffs          # x2
    assert poly.v.coeffs == PolyScalar.variable(3, 4, -1.0).coeffs    # -y2


def swap_by_entries(theta: ThetaField, a: int, b: int) -> ThetaField:
    """The dict route to swap_complex_coordinates: relabel every entry key and
    move the x and y exponents of lines a and b in every monomial."""
    m_bar = theta.m_bar
    line = {n: n for n in range(1, m_bar + 1)} | {a: b, b: a}

    def moved(poly: PolyScalar) -> PolyScalar:
        out = {}
        for powers, coeff in poly.coeffs.items():
            new = [0] * (2 * m_bar)
            for n in range(1, m_bar + 1):
                new[line[n] - 1], new[m_bar + line[n] - 1] = powers[n - 1], powers[m_bar + n - 1]
            out[tuple(new)] = coeff
        return PolyScalar(m_bar, out)

    return ThetaField(
        m_bar,
        {(line[i], line[j], line[k]): ComplexPoly(moved(p.u), moved(p.v)) for (i, j, k), p in theta.entries.items()},
    )


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_swap_complex_coordinates_matches_the_entry_oracle(m_bar, rng):
    cfg = SpaceConfig(m_bar)
    theta = random_holomorphic_theta(cfg, rng, 3) + random_antiholomorphic_theta(cfg, rng, 2, True)
    for a in range(1, m_bar + 1):
        for b in range(a, m_bar + 1):
            swapped = theta.swap_complex_coordinates(a, b)
            assert swapped == swap_by_entries(theta, a, b) == theta.swap_complex_coordinates(b, a), (a, b)
            assert swapped.swap_complex_coordinates(a, b) == theta


@pytest.mark.parametrize("lines", [(1, 3), (0, 1), (3, 3), (2, -1)])
def test_swap_complex_coordinates_rejects_lines_out_of_range(lines):
    theta = ThetaField(2, {(1, 1, 2): ComplexPoly.z_bar(2, 1)})
    with pytest.raises(ValueError, match=r"lines must lie in 1\.\.2"):
        theta.swap_complex_coordinates(*lines)


# -- field sums ------------------------------------------------------------------------

def entry_merge(first: ThetaField, second: ThetaField) -> ThetaField:
    """The dict route to ThetaField.__add__: the ComplexPoly entries added key by key."""
    merged = dict(first.entries)
    for key, poly in second.entries.items():
        merged[key] = merged[key] + poly if key in merged else poly
    return ThetaField(first.m_bar, merged)


def negated(theta: ThetaField) -> ThetaField:
    U, V, E = theta.arrays
    return ThetaField.from_arrays(theta.m_bar, -U, -V, E)


@pytest.mark.parametrize("m_bar", [2, 3])
def test_field_sum_merges_arrays_like_the_entry_dicts(m_bar, rng, count_calls):
    cfg = SpaceConfig(m_bar)
    hol = random_holomorphic_theta(cfg, rng, 2)
    anti = random_antiholomorphic_theta(cfg, rng, 2, True)
    pairs = [
        (hol, anti),  # both carry constants
        (hol, random_holomorphic_theta(cfg, rng, 2)),  # the same monomials
        (hol, negated(hol)),  # everything cancels
        (hol + anti, negated(hol)),  # the holomorphic monomials drop out
        (ThetaField.zero(m_bar), anti),
    ]
    counts = count_calls(PolyScalar, "__post_init__")
    sums = [first + second for first, second in pairs]
    assert counts == {"__post_init__": 0}
    assert len(sums[2].arrays[2]) == 0
    for (first, second), total in zip(pairs, sums):
        want = entry_merge(first, second)
        assert total == want
        assert total.entries == want.entries
