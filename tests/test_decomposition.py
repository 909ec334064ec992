from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affine_kahler.connections import ThetaField, degree_one_gradients, linear_curvature_at_zero
from affine_kahler.decomposition import (
    W_LABELS,
    ColumnKey,
    _UNIT_GRADIENTS,
    _coefficients_of,
    _column_keys,
    bilinear_decompose,
    bilinear_subspaces,
    clear_caches,
    coefficient_map,
    computed_dimension_table,
    kahler_parity_subspaces,
    kahler_space_basis,
    module_dimension_table,
    w_dimension_formulas,
    w_project,
    theta_from_coefficients,
    w_subspaces,
)
from affine_kahler.errors import DomainViolation, InternalCheckFailure
from affine_kahler.linalg import orthonormalize
from affine_kahler.polynomials import ComplexPoly
from affine_kahler.sampling import random_degree_one_theta, random_kahler_tensor
from affine_kahler.tensors import (
    Bilinear2,
    SpaceConfig,
    Tensor4,
    classify_symmetries,
    j_parity_split,
    kahler_form,
    metric,
    ricci_traces,
    standard_complex_structure,
)
import christoffel_oracle
from constraint_oracle import ambient_w_subspaces, kahler_constraint_matrix, nullspace_route_spaces, rank_mod_p

# Dimensions of the twelve modules, frozen from the closed forms.
EXPECTED_W_DIMS = {
    2: {"W1": 3, "W2": 6, "W3": 3, "W4": 2, "W5": 1, "W6": 1, "W7": 3, "W8": 3,
        "W9": 5, "W10": 5, "W11": 0, "W12": 0},
    3: {"W1": 8, "W2": 12, "W3": 8, "W4": 6, "W5": 1, "W6": 1, "W7": 8, "W8": 8,
        "W9": 27, "W10": 27, "W11": 20, "W12": 30},
}


# -- dimension formulas ----------------------------------------------------------

@pytest.mark.parametrize("m_bar,expected", [(2, 32), (3, 156), (4, 480)])
def test_total_dimension_formula(m_bar, expected):
    assert module_dimension_table(m_bar).dims["K"] == expected


@pytest.mark.parametrize("m_bar", [2, 3])
def test_w_dimension_formulas_frozen(m_bar):
    assert w_dimension_formulas(m_bar) == EXPECTED_W_DIMS[m_bar]


def test_w9_formula_value_at_2():
    assert w_dimension_formulas(2)["W9"] == 5  # (1/4) * 4 * 1 * 5


def test_w2_formula_value_at_3():
    assert w_dimension_formulas(3)["W2"] == 12


@pytest.mark.parametrize("m_bar", [2, 3, 4, 5])
def test_w_dimensions_sum_to_total(m_bar):
    dims = module_dimension_table(m_bar).dims
    assert sum(dims[label] for label in W_LABELS) == dims["K"]


def test_dimension_table_rejects_small_m_bar():
    with pytest.raises(DomainViolation, match="m_bar >= 2"):
        module_dimension_table(1)


# -- the constraint space ----------------------------------------------------------

@pytest.mark.parametrize("m_bar,expected", [(2, 32), (3, 156)])
def test_kahler_space_dimension(m_bar, expected):
    assert kahler_space_basis(SpaceConfig(m_bar)).dim == expected


def test_kahler_space_rejects_m_bar_one():
    with pytest.raises(DomainViolation):
        kahler_space_basis(SpaceConfig(1))


def test_constraint_matrix_has_integer_entries(cfg2):
    mat = kahler_constraint_matrix(cfg2)
    assert np.array_equal(mat, np.round(mat))


def test_every_basis_tensor_is_admissible(cfg2):
    space = kahler_space_basis(cfg2)
    for row in space.basis:
        report = classify_symmetries(Tensor4.from_flat(cfg2, row), tol=1e-12)
        assert report.in_K


def test_nullspace_dimension_from_raw_constraints(cfg3):
    # independent recomputation of dim K straight from the constraint matrix
    assert nullspace_route_spaces(cfg3.m_bar)[0].dim == 156


@pytest.mark.parametrize("m_bar", [2, 3])
def test_image_route_matches_constraint_kernel(m_bar):
    # K, K+ and K- from the coefficient-map image against the nullspace oracle
    cfg = SpaceConfig(m_bar)
    image = (kahler_space_basis(cfg), *kahler_parity_subspaces(cfg))
    for label, built, oracle in zip(("K", "K+", "K-"), image, nullspace_route_spaces(m_bar)):
        gap = np.max(np.abs(built.basis.T @ built.basis - oracle.basis.T @ oracle.basis))
        assert gap <= 1e-10, (label, gap)


def _unit_theta(m_bar: int, key: ColumnKey) -> ThetaField:
    # built from the coordinate polynomials, independently of the gradient table
    base = ComplexPoly.z(m_bar, key.a) if key.kind == "hol" else ComplexPoly.z_bar(m_bar, key.a)
    unit = base.scale(1.0, 0.0) if key.part == "re" else base.scale(0.0, 1.0)
    return ThetaField(m_bar, {(key.i, key.j, key.k): unit})


@pytest.mark.parametrize("m_bar", [2, 3])
def test_batched_coefficient_map_equals_per_key_columns(m_bar):
    # one batched gradient stack against one linear_curvature_at_zero per key,
    # and against the dict route, which shares no code with the array route
    cmap = coefficient_map(SpaceConfig(m_bar))
    units = [_unit_theta(m_bar, key) for key in cmap.columns]
    cols = np.stack([linear_curvature_at_zero(unit).flatten() for unit in units], axis=1)
    assert np.array_equal(cmap.matrix, cols)
    origin = np.zeros(2 * m_bar)
    dict_cols = np.stack(
        [
            christoffel_oracle.curvature_at(christoffel_oracle.gamma_from_theta(unit), m_bar, origin).reshape(-1)
            for unit in units
        ],
        axis=1,
    )
    assert np.array_equal(cmap.matrix, dict_cols)


@pytest.mark.parametrize("m_bar", [2, 3])
def test_parameter_vector_survives_field_round_trip(m_bar, rng):
    cfg = SpaceConfig(m_bar)
    coeffs = rng.standard_normal(len(_column_keys(m_bar)))
    theta = theta_from_coefficients(cfg, coeffs)
    back = _coefficients_of(theta)
    assert np.linalg.norm(back - coeffs) <= 1e-14 * np.linalg.norm(coeffs)
    rebuilt = theta_from_coefficients(cfg, back)
    assert rebuilt.entries.keys() == theta.entries.keys()
    for key, poly in theta.entries.items():
        for part, again in ((poly.u, rebuilt.entries[key].u), (poly.v, rebuilt.entries[key].v)):
            assert (part - again).max_abs_coeff() <= 1e-14 * part.max_abs_coeff()


def _unit_gradient_stack(m_bar: int) -> np.ndarray:
    # origin gradients of u and v of each unit parameter field, written out
    # key by key: shape (n_keys, 2, m_bar, m_bar, m_bar, m), symmetric in i, j
    keys = _column_keys(m_bar)
    stack = np.zeros((len(keys), 2, m_bar, m_bar, m_bar, 2 * m_bar))
    for col, key in enumerate(keys):
        for uv, (dx, dy) in enumerate(_UNIT_GRADIENTS[key.kind, key.part]):
            for i, j in ((key.i, key.j), (key.j, key.i)):
                stack[col, uv, i - 1, j - 1, key.k - 1, key.a - 1] = dx
                stack[col, uv, i - 1, j - 1, key.k - 1, m_bar + key.a - 1] = dy
    return stack


@pytest.mark.parametrize("m_bar", [1, 2, 3, 4])
def test_signed_scatter_equals_the_unit_gradient_contraction(m_bar):
    # The oracle contracts the parameter vector against the stack of unit
    # gradient fields; every entry is a sum of two signed parameters, so the
    # direct scatter and gather must agree bit for bit.
    rng = np.random.default_rng(m_bar)
    keys = _column_keys(m_bar)
    stack = _unit_gradient_stack(m_bar)
    upper = np.triu(np.ones((m_bar, m_bar), dtype=bool))[:, :, None, None]
    for _ in range(4):
        coeffs = rng.standard_normal(len(keys)) * 10.0 ** rng.integers(-8, 9, len(keys))
        coeffs[rng.random(len(keys)) < 0.2] = -0.0
        coeffs[rng.random(len(keys)) < 0.1] = 0.0
        grads = np.tensordot(coeffs, stack, axes=1)
        grads = np.where(upper, grads, grads.swapaxes(1, 2))
        expected = ThetaField.from_arrays(m_bar, grads[0], grads[1], np.eye(2 * m_bar, dtype=np.int64))
        theta = theta_from_coefficients(SpaceConfig(m_bar), coeffs)
        for mine, theirs in zip(theta.arrays, expected.arrays):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        projected = np.einsum("nuijkc,uijkc->n", stack * upper, degree_one_gradients(theta)) / 2.0
        np.testing.assert_array_equal(_coefficients_of(theta), projected)


def _reference_degree_one_theta(cfg: SpaceConfig, rng: np.random.Generator) -> ThetaField:
    # per entry (i <= j, k) and line a: (re + i im) z_a, then (re + i im) conj(z_a)
    m_bar = cfg.m_bar
    entries = {}
    for i in range(1, m_bar + 1):
        for j in range(i, m_bar + 1):
            for k in range(1, m_bar + 1):
                total = ComplexPoly.zero(m_bar)
                for a in range(1, m_bar + 1):
                    re, im = rng.standard_normal(2)
                    total = total + ComplexPoly.z(m_bar, a).scale(re, im)
                    re, im = rng.standard_normal(2)
                    total = total + ComplexPoly.z_bar(m_bar, a).scale(re, im)
                entries[(i, j, k)] = total
    return ThetaField(m_bar, entries)


@pytest.mark.parametrize("m_bar", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_random_degree_one_theta_keeps_its_stream(m_bar, seed):
    cfg = SpaceConfig(m_bar)
    drawn = random_degree_one_theta(cfg, np.random.default_rng(seed))
    assert drawn.entries == _reference_degree_one_theta(cfg, np.random.default_rng(seed)).entries


def _projector_gap(a, b) -> float:
    """Upper bound on max |P_a - P_b| for orthonormal-row subspaces.

    For equal dimensions ||P_a - P_b||_2 = ||(I - P_b) A^T||_2, which the
    Frobenius norm bounds; no m^4 x m^4 projector is formed.
    """
    if a.dim != b.dim:
        return np.inf
    return float(np.linalg.norm(a.basis - (a.basis @ b.basis.T) @ b.basis))


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_stacked_parity_bases_span_all_columns(m_bar):
    # K+ / K- from exact Gram-Schmidt on the columns against an SVD basis of
    # each column block, and K = K+ (+) K- against the span of every column
    cfg = SpaceConfig(m_bar)
    cmap = coefficient_map(cfg)
    for space, kind in zip(kahler_parity_subspaces(cfg), ("anti", "hol")):
        oracle = orthonormalize(cmap.matrix[:, cmap.column_mask(kind)].T, tol=1e-8)
        assert _projector_gap(space, oracle) <= 1e-12
    every_column = orthonormalize(cmap.matrix.T)
    assert _projector_gap(kahler_space_basis(cfg), every_column) <= 1e-10


def _swap_kinds(stack, hol, anti):
    # a holomorphic and an antiholomorphic column trade places: both still
    # satisfy the identities, but each sits under the other kind's parity
    stack[[hol, anti]] = stack[[anti, hol]]


def _bump(stack, hol, anti):
    stack[hol, 0, 1, 0, 1] += 1


def _triple(stack, hol, anti):
    # a scaled column keeps its identities, its parity and a diagonal
    # pseudo-inverse, but its Gram diagonal 16 grows to 144
    stack[anti] *= 3


@pytest.mark.parametrize(
    "mutate,message",
    [(_swap_kinds, "wrong J-parity"), (_bump, "violates the identities"), (_triple, "leaves the int8 range")],
)
def test_broken_coefficient_map_columns_are_internal_errors(monkeypatch, mutate, message):
    from affine_kahler import decomposition

    cfg = SpaceConfig(2)
    cmap = coefficient_map(cfg)
    nonzero = np.abs(cmap.matrix).sum(axis=0) > 0
    hol = np.flatnonzero(nonzero & cmap.column_mask("hol"))[0]
    anti = np.flatnonzero(nonzero & cmap.column_mask("anti"))[0]
    build = decomposition.linear_curvature_from_gradients

    def broken(*args):
        stack = build(*args)
        mutate(stack, hol, anti)
        return stack

    monkeypatch.setattr(decomposition, "linear_curvature_from_gradients", broken)
    with pytest.raises(InternalCheckFailure, match=message):
        decomposition.coefficient_map.__wrapped__(cfg)


@pytest.mark.parametrize("m_bar", [2, 3])
def test_a_column_rank_short_of_dim_k_plus_or_minus_is_an_internal_error(monkeypatch, m_bar):
    # the certificate behind "the columns of each kind span K+ / K-"
    from affine_kahler import decomposition

    exact = decomposition._diagonal_pseudo_inverse

    def one_short(gram):
        weights, rank = exact(gram)
        return weights, rank - 1

    monkeypatch.setattr(decomposition, "_diagonal_pseudo_inverse", one_short)
    with pytest.raises(InternalCheckFailure, match="not dim K"):
        decomposition.coefficient_map.__wrapped__(SpaceConfig(m_bar))


@pytest.mark.parametrize("m_bar", [2, 3])
def test_a_parity_basis_short_of_the_exact_rank_is_an_internal_error(monkeypatch, m_bar):
    from affine_kahler import decomposition

    basis = decomposition._column_basis
    monkeypatch.setattr(decomposition, "_column_basis", lambda *args: basis(*args)[:-1])
    with pytest.raises(InternalCheckFailure, match="from the columns"):
        decomposition.kahler_parity_subspaces.__wrapped__(SpaceConfig(m_bar))


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_last_pair_swap_on_n_plus_has_spectrum_minus_one_zero_one(m_bar):
    # on N+ = W9 + W11 + W10 the swap S of the last two slots, compressed,
    # is -1 on W9, 0 on W11 and +1 on W10, with nothing in between
    cfg = SpaceConfig(m_bar)
    m = cfg.m
    spaces = w_subspaces(cfg)
    n_plus = np.vstack([spaces[label].basis for label in ("W9", "W11", "W10")])
    swapped = np.swapaxes(n_plus.reshape(-1, m, m, m, m), -1, -2).reshape(len(n_plus), -1)
    compressed = n_plus @ swapped.T
    values = np.linalg.eigvalsh(compressed)
    assert np.max(np.abs(values - np.rint(values))) <= 1e-12
    expected = w_dimension_formulas(m_bar)
    counts = {label: int(np.sum(np.rint(values) == value)) for label, value in (("W9", -1), ("W11", 0), ("W10", 1))}
    assert counts == {label: expected[label] for label in counts}
    blocks = np.repeat([-1.0, 0.0, 1.0], [expected["W9"], expected["W11"], expected["W10"]])
    assert np.max(np.abs(compressed - np.diag(blocks))) <= 1e-12


@pytest.mark.parametrize("m_bar", [2, 3])
def test_constraint_rank_mod_p_bounds_dim_k_from_above(m_bar):
    # rank over Q >= rank mod p, so dim K <= m^4 - rank_p with no float cutoff;
    # the exact ranks of the coefficient map give the matching lower bound
    cfg = SpaceConfig(m_bar)
    rank_p = rank_mod_p(kahler_constraint_matrix(cfg))
    assert cfg.m ** 4 - rank_p == module_dimension_table(m_bar).dims["K"] == sum(coefficient_map(cfg).ranks.values())


@pytest.mark.parametrize("m_bar", [2, 3])
def test_coordinate_modules_match_ambient_oracle(m_bar):
    built = w_subspaces(SpaceConfig(m_bar))
    oracle = ambient_w_subspaces(m_bar)
    for label in W_LABELS:
        ours, theirs = built[label].basis, oracle[label].basis
        gap = np.max(np.abs(ours.T @ ours - theirs.T @ theirs))
        assert gap <= 1e-10, (label, gap)


def test_rank_decisions_keep_wide_margins(monkeypatch):
    # every singular-value decision of the cold build at m_bar = 2, 3, 4: one
    # per module condition (12 per size); the K+ / K- bases, the W9 / W10 /
    # W11 split and the realization solve make none
    from affine_kahler import decomposition, linalg, realization

    threshold = linalg._rank_threshold
    decisions = []
    step_decisions: dict[str, list[int]] = {}

    def recorded(singular_values, shape, tol):
        cutoff = threshold(singular_values, shape, tol)
        decisions.append((np.array(singular_values), cutoff))
        return cutoff

    def counted(name, fn):
        def wrapper(*args):
            before = len(decisions)
            out = fn(*args)
            step_decisions.setdefault(name, []).append(len(decisions) - before)
            return out
        return wrapper

    monkeypatch.setattr(linalg, "_rank_threshold", recorded)
    for name in ("kahler_parity_subspaces", "_swap_eigenspaces", "w_subspaces"):
        monkeypatch.setattr(decomposition, name, counted(name, getattr(decomposition, name)))
    clear_caches()
    for m_bar in (2, 3, 4):
        computed_dimension_table(SpaceConfig(m_bar))
        before = len(decisions)
        tensor = random_kahler_tensor(SpaceConfig(m_bar), np.random.default_rng(m_bar))
        for mode in ("joint", "split"):
            realization._solve_coefficients(tensor, mode)
        assert len(decisions) == before
    assert step_decisions["w_subspaces"] == [12, 12, 12]
    assert not any(step_decisions["kahler_parity_subspaces"] + step_decisions["_swap_eigenspaces"])
    for svals, cutoff in decisions:
        kept, dropped = svals[svals > cutoff], svals[svals <= cutoff]
        if kept.size:
            assert kept.min() >= 1e3 * cutoff
        if dropped.size:
            assert dropped.max() <= 1e-3 * cutoff


def _copy_w9_over_w10(decomposition, monkeypatch):
    # W10 keeps the dimension of W9, so only the K+ certificate can see it
    swap = decomposition._swap_eigenspaces

    def copied(*args):
        spaces = swap(*args)
        return {**spaces, "W10": spaces["W9"].copy()}

    monkeypatch.setattr(decomposition, "_swap_eigenspaces", copied)


def _swap_symmetry_types(decomposition, monkeypatch):
    sym, antisym = decomposition._sym, decomposition._antisym
    monkeypatch.setattr(decomposition, "_sym", antisym)
    monkeypatch.setattr(decomposition, "_antisym", sym)


@pytest.mark.parametrize(
    "mutate,message",
    [(_copy_w9_over_w10, r"modules of K\+ are no orthonormal basis"), (_swap_symmetry_types, "W2 has dimension")],
    ids=["w10_copies_w9", "sym_antisym_swapped"],
)
def test_broken_module_builds_are_internal_errors(monkeypatch, mutate, message):
    from affine_kahler import decomposition

    mutate(decomposition, monkeypatch)
    with pytest.raises(InternalCheckFailure, match=message):
        decomposition.w_subspaces.__wrapped__(SpaceConfig(3))


def test_cold_module_build_calls_neither_subspace_helper(monkeypatch):
    # the modules and the intermediate spaces are coordinate arrays carved by
    # one SVD per condition; the Subspace helpers stay for the test oracles
    from affine_kahler import decomposition, linalg

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("complement_within", "kernel_within"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
        assert not hasattr(decomposition, name)
    clear_caches()
    for m_bar in (2, 3, 4):
        w_subspaces(SpaceConfig(m_bar))
    assert calls == []


def test_parity_subspaces_split_k(cfg2):
    plus, minus = kahler_parity_subspaces(cfg2)
    assert plus.dim == 24 and minus.dim == 8
    assert np.max(np.abs(plus.basis @ minus.basis.T)) < 1e-10


def test_complement_of_odd_part_is_even_part(cfg2):
    # cross-check against the parity-projector dimension count
    from affine_kahler.linalg import complement_within

    kspace = kahler_space_basis(cfg2)
    plus, minus = kahler_parity_subspaces(cfg2)
    comp = complement_within(minus, kspace)
    assert comp.dim == kspace.dim - minus.dim == plus.dim
    for row in comp.basis:
        assert plus.residual(row) < 1e-10


# -- bilinear decomposition ----------------------------------------------------------

def test_metric_decomposes_to_its_own_line(cfg2):
    split = bilinear_decompose(metric(cfg2))
    assert np.array_equal(split.scalar_metric_part.entries, np.eye(4))
    for label, part in split.parts().items():
        if label != "R<.,.>":
            assert part.norm() == 0.0


def test_kahler_form_decomposes_to_its_own_line(cfg2):
    split = bilinear_decompose(kahler_form(cfg2))
    assert np.array_equal(split.scalar_omega_part.entries, kahler_form(cfg2).entries)
    for label, part in split.parts().items():
        if label != "R.Omega":
            assert part.norm() == 0.0


def test_bilinear_parts_have_their_defining_symmetries(cfg2, rng):
    jmat = standard_complex_structure(cfg2).entries
    theta = Bilinear2(cfg2, rng.standard_normal((4, 4)))
    split = bilinear_decompose(theta)
    assert np.allclose(split.total().entries, theta.entries, atol=1e-14)

    def j_pull(mat):
        return jmat.T @ mat @ jmat

    s_minus = split.s2_minus.entries
    assert np.allclose(s_minus, s_minus.T, atol=1e-14)
    assert np.allclose(j_pull(s_minus), -s_minus, atol=1e-14)

    s_plus = split.s2_zero_plus.entries
    assert np.allclose(s_plus, s_plus.T, atol=1e-14)
    assert np.allclose(j_pull(s_plus), s_plus, atol=1e-14)
    assert abs(np.trace(s_plus)) < 1e-14

    l_minus = split.lambda2_minus.entries
    assert np.allclose(l_minus, -l_minus.T, atol=1e-14)
    assert np.allclose(j_pull(l_minus), -l_minus, atol=1e-14)

    l_plus = split.lambda2_zero_plus.entries
    assert np.allclose(l_plus, -l_plus.T, atol=1e-14)
    assert np.allclose(j_pull(l_plus), l_plus, atol=1e-14)
    assert abs(np.sum(l_plus * kahler_form(cfg2).entries)) < 1e-14


@given(
    mat=arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_bilinear_decomposition_reassembles(mat):
    cfg = SpaceConfig(2)
    split = bilinear_decompose(Bilinear2(cfg, mat))
    scale = max(1.0, float(np.max(np.abs(mat))))
    assert np.max(np.abs(split.total().entries - mat)) <= 1e-12 * scale


@pytest.mark.parametrize("m_bar", [2, 3])
def test_bilinear_subspace_dimensions(m_bar):
    dims = {label: space.dim for label, space in bilinear_subspaces(SpaceConfig(m_bar)).items()}
    n = m_bar
    assert dims == {
        "S2-": n * (n + 1),
        "S2_0+": n * n - 1,
        "R<.,.>": 1,
        "L2-": n * (n - 1),
        "L2_0+": n * n - 1,
        "R.Omega": 1,
    }


def test_witness_rho14_lands_in_s2_minus():
    # the symmetric, J-odd trace matrix of the equal-parameter witness
    from affine_kahler.connections import connection_from_theta, curvature_at
    from affine_kahler.witnesses import witness_theta

    theta = witness_theta("4.1.2", rho=(1.0, 1.0))
    curv = curvature_at(connection_from_theta(theta), np.zeros(4))
    split = bilinear_decompose(ricci_traces(curv).rho14)
    assert split.s2_minus.norm() > 0.5
    for label, part in split.parts().items():
        if label != "S2-":
            assert part.norm() <= 1e-12


# -- the twelve modules ---------------------------------------------------------------

@pytest.mark.parametrize("m_bar", [2, 3])
def test_module_dimensions_match_formulas(m_bar):
    spaces = w_subspaces(SpaceConfig(m_bar))
    assert {label: s.dim for label, s in spaces.items()} == EXPECTED_W_DIMS[m_bar]


def test_modules_are_pairwise_orthogonal(cfg2):
    spaces = w_subspaces(cfg2)
    labels = [label for label in W_LABELS if spaces[label].dim]
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            overlap = np.max(np.abs(spaces[la].basis @ spaces[lb].basis.T))
            assert overlap < 1e-10, (la, lb)


def test_module_bases_live_inside_k(cfg2):
    kspace = kahler_space_basis(cfg2)
    for label, space in w_subspaces(cfg2).items():
        for row in space.basis:
            assert kspace.residual(row) < 1e-10, label


def test_w_project_zero(cfg2):
    decomp = w_project(Tensor4.zero(cfg2))
    assert decomp.residual == 0.0
    assert all(norm == 0.0 for norm in decomp.norms.values())


def test_w_project_rejects_non_admissible(cfg2):
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 0, 0, 0] = 1.0
    with pytest.raises(DomainViolation):
        w_project(Tensor4(cfg2, bad))


@pytest.mark.parametrize("m_bar", [2, 3])
def test_projection_completeness_and_pythagoras(m_bar, rng):
    cfg = SpaceConfig(m_bar)
    for _ in range(5):
        tensor = random_kahler_tensor(cfg, rng)
        decomp = w_project(tensor)
        assert decomp.residual <= 1e-9 * max(1.0, tensor.norm())
        total_sq = sum(norm ** 2 for norm in decomp.norms.values())
        assert total_sq == pytest.approx(tensor.norm() ** 2, rel=1e-9)


def test_component_parity_consistency(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    plus, minus = j_parity_split(tensor)
    full = w_project(tensor)
    from_plus = w_project(plus)
    from_minus = w_project(minus)
    for label in W_LABELS:
        source = from_minus if label in ("W2", "W4", "W12") else from_plus
        gap = full.components[label] - source.components[label]
        assert gap.norm() <= 1e-9 * max(1.0, tensor.norm()), label


def test_computed_table_matches_closed_form(cfg2):
    closed = module_dimension_table(2).dims
    computed = computed_dimension_table(cfg2).dims
    assert all(closed[label] == computed[label] for label in computed)


def test_computed_table_at_m_bar_4():
    dims = computed_dimension_table(SpaceConfig(4)).dims
    assert dims == {
        "K": 480, "K+": 320, "K-": 160,
        "W1": 15, "W2": 20, "W3": 15, "W4": 12, "W5": 1, "W6": 1, "W7": 15, "W8": 15,
        "W9": 84, "W10": 84, "W11": 90, "W12": 128,
        "S2-": 20, "S2_0+": 15, "L2-": 12, "L2_0+": 15,
    }
    assert dims == module_dimension_table(4).dims


def test_computed_table_at_m_bar_5():
    # the largest size in the suite: 2.6-3.0 s and 446 MiB peak RSS in a
    # fresh process (2 vCPUs, numpy 2.4 with OpenBLAS)
    dims = computed_dimension_table(SpaceConfig(5)).dims
    assert dims == {
        "K": 1150, "K+": 750, "K-": 400,
        "W1": 24, "W2": 30, "W3": 24, "W4": 20, "W5": 1, "W6": 1, "W7": 24, "W8": 24,
        "W9": 200, "W10": 200, "W11": 252, "W12": 350,
        "S2-": 30, "S2_0+": 24, "L2-": 20, "L2_0+": 24,
    }
    assert dims == module_dimension_table(5).dims


def test_concurrent_access_initializes_once(cfg2):
    import threading

    from affine_kahler.decomposition import clear_caches

    clear_caches()
    results = []

    def fetch():
        results.append(w_subspaces(cfg2))

    threads = [threading.Thread(target=fetch) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(r is results[0] for r in results)


def test_cold_modules_and_coefficient_map_together_build_once(cfg2, monkeypatch):
    import sys
    import threading

    from affine_kahler import decomposition
    from affine_kahler.realization import curvature_coefficient_map

    builds = {"columns": 0, "modules": 0}

    def counted(name, fn):
        def wrapper(*args):
            builds[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(decomposition, "_column_keys", counted("columns", decomposition._column_keys))
    # the module build calls _swap_eigenspaces exactly once
    monkeypatch.setattr(decomposition, "_swap_eigenspaces", counted("modules", decomposition._swap_eigenspaces))
    decomposition.clear_caches()
    modules, maps = [], []
    threads = [threading.Thread(target=lambda: modules.append(w_subspaces(cfg2))) for _ in range(3)]
    threads += [threading.Thread(target=lambda: maps.append(curvature_coefficient_map(cfg2))) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the builders as finely as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(modules) == len(maps) == 3
    assert all(r is modules[0] for r in modules)
    assert all(r is maps[0] for r in maps)
    assert builds == {"columns": 1, "modules": 1}


# -- trace-map structure (rank facts) ---------------------------------------------------

@pytest.mark.parametrize("m_bar", [2, 3])
def test_trace_maps_have_the_advertised_ranks(m_bar):
    cfg = SpaceConfig(m_bar)
    spaces = w_subspaces(cfg)
    m = cfg.m
    jmat = standard_complex_structure(cfg).entries

    def rho14_of(flat):
        return np.einsum("abca->bc", flat.reshape(m, m, m, m))

    def rho13_of(flat):
        return np.einsum("abad->bd", flat.reshape(m, m, m, m))

    # tau + tau~ is a bijection from W5 + W6 onto R^2
    w5w6 = np.vstack([spaces["W5"].basis, spaces["W6"].basis])
    taus = np.array([[np.trace(rho14_of(r)), np.sum(jmat * rho14_of(r))] for r in w5w6])
    assert np.linalg.matrix_rank(taus, tol=1e-8) == 2

    # rho14 is injective on W2 and W4 with images inside S2- and L2-
    bil = bilinear_subspaces(cfg)
    for label, target in (("W2", "S2-"), ("W4", "L2-")):
        images = np.stack([rho14_of(r).reshape(-1) for r in spaces[label].basis])
        assert np.linalg.matrix_rank(images, tol=1e-8) == spaces[label].dim
        for img in images:
            assert bil[target].residual(img) <= 1e-9

    # rho14 + rho13 is a bijection from W1+W3+W7+W8 onto its 4(m_bar^2-1)-dim target
    m0 = np.vstack([spaces[l].basis for l in ("W1", "W3", "W7", "W8")])
    joint = np.stack([
        np.concatenate([rho14_of(r).reshape(-1), rho13_of(r).reshape(-1)]) for r in m0
    ])
    assert np.linalg.matrix_rank(joint, tol=1e-8) == 4 * (m_bar ** 2 - 1)


# -- isomorphism spot checks ---------------------------------------------------------------

@pytest.mark.parametrize("m_bar", [2, 3])
def test_lambda_to_s_isomorphism(m_bar):
    cfg = SpaceConfig(m_bar)
    jmat = standard_complex_structure(cfg).entries
    bil = bilinear_subspaces(cfg)
    lam, target = bil["L2_0+"], bil["S2_0+"]
    images = np.stack([(row.reshape(cfg.m, cfg.m) @ jmat).reshape(-1) for row in lam.basis])
    for img in images:
        assert target.residual(img) <= 1e-9
    assert np.linalg.matrix_rank(images, tol=1e-8) == lam.dim == target.dim


@pytest.mark.parametrize("m_bar", [2, 3])
def test_w9_to_w10_isomorphism(m_bar):
    cfg = SpaceConfig(m_bar)
    jmat = standard_complex_structure(cfg).entries
    spaces = w_subspaces(cfg)
    w9, w10 = spaces["W9"], spaces["W10"]
    images = np.stack([
        np.einsum("abce,ed->abcd", row.reshape(cfg.m, cfg.m, cfg.m, cfg.m), jmat).reshape(-1)
        for row in w9.basis
    ])
    for img in images:
        assert w10.residual(img) <= 1e-9
    assert np.linalg.matrix_rank(images, tol=1e-8) == w9.dim == w10.dim
