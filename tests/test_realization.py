from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from affine_kahler.cli import main
from affine_kahler.connections import (
    HolomorphyKind,
    connection_from_theta,
    curvature_at,
    holomorphy_type,
)
from affine_kahler.decomposition import coefficient_map, kahler_parity_subspaces, kahler_space_basis, w_project
from affine_kahler.errors import DomainViolation
from affine_kahler.linalg import least_squares_solve
from affine_kahler.realization import (
    _solve_coefficients,
    curvature_coefficient_map,
    realize,
    split_components,
    theta_from_coefficients,
    verify_realization,
)
from affine_kahler.sampling import random_degree_one_theta, random_kahler_tensor, random_parity_tensor, random_point
from affine_kahler.serialization import read_tensor_file
from affine_kahler.tensors import (
    MAX_ENTRY,
    SpaceConfig,
    Tensor4,
    classify_symmetries,
    j_parity_residuals,
    j_parity_split,
)
from affine_kahler.witnesses import CASES, witness_theta

EXPECTED_RANKS = {2: (32, 8, 24), 3: (156, 48, 108)}

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize("m_bar", [2, 3])
def test_map_ranks(m_bar):
    # the exact ranks against the closed forms and an SVD rank of the same columns
    cmap = curvature_coefficient_map(SpaceConfig(m_bar))
    total, hol, anti = EXPECTED_RANKS[m_bar]
    assert sum(cmap.ranks.values()) == total == kahler_space_basis(SpaceConfig(m_bar)).dim
    assert cmap.ranks["hol"] == hol
    assert cmap.ranks["anti"] == anti
    assert np.linalg.matrix_rank(cmap.matrix) == total
    for kind, rank in (("hol", hol), ("anti", anti)):
        assert np.linalg.matrix_rank(cmap.matrix[:, cmap.column_mask(kind)]) == rank


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_columns_have_the_right_parity(m_bar):
    cfg = SpaceConfig(m_bar)
    cmap = curvature_coefficient_map(cfg)
    hol_mask = cmap.column_mask("hol")
    # J-odd and J-even columns are orthogonal, so the cross-kind Gram block is exactly zero
    assert not cmap.gram[np.ix_(hol_mask, ~hol_mask)].any()
    for idx, is_hol in enumerate(hol_mask):
        tensor = Tensor4.from_flat(cfg, cmap.matrix[:, idx])
        odd, even = j_parity_residuals(tensor)
        if is_hol:
            assert even == 0.0
        else:
            assert odd == 0.0
        assert classify_symmetries(tensor, tol=1e-12).in_K


def test_column_span_matches_parity_projector_oracle(cfg2):
    # rank of the restricted column blocks against the projector-built spaces
    cmap = curvature_coefficient_map(cfg2)
    plus, minus = kahler_parity_subspaces(cfg2)
    hol_cols = cmap.matrix[:, cmap.column_mask("hol")]
    # every holomorphic column lies inside the odd-parity space
    for col in hol_cols.T:
        assert minus.residual(col) <= 1e-9 * max(1.0, np.linalg.norm(col))
    anti_cols = cmap.matrix[:, cmap.column_mask("anti")]
    for col in anti_cols.T:
        assert plus.residual(col) <= 1e-9 * max(1.0, np.linalg.norm(col))


def test_coefficient_vector_round_trip(cfg2, rng):
    cmap = curvature_coefficient_map(cfg2)
    coeffs = rng.standard_normal(len(cmap.columns))
    theta = theta_from_coefficients(cfg2, coeffs)
    # the rebuilt field is degree 1 and vanishes at the origin
    assert theta.max_degree() <= 1
    assert theta.vanishes_at_origin()
    # its origin curvature equals the matrix action on the coefficients
    curv = curvature_at(connection_from_theta(theta), np.zeros(4))
    assert np.allclose(curv.flatten(), cmap.matrix @ coeffs, atol=1e-12)


def test_realize_zero_tensor(cfg2):
    result = realize(Tensor4.zero(cfg2))
    assert result.residual == 0.0
    assert result.verified
    assert not result.theta.entries  # empty coefficient field


@pytest.mark.parametrize("mode", ["joint", "split"])
@pytest.mark.parametrize("m_bar", [2, 3])
def test_realize_round_trip(m_bar, mode, rng):
    cfg = SpaceConfig(m_bar)
    for _ in range(3):
        tensor = random_kahler_tensor(cfg, rng)
        result = realize(tensor, mode=mode)
        assert result.verified
        assert result.residual <= 1e-10 * max(1.0, tensor.norm())
        report = verify_realization(tensor, result.theta)
        assert report["torsion"] == 0.0
        assert report["nabla_j"] == 0.0
        assert report["curvature_match"] <= 1e-8 * max(1.0, tensor.norm())
        assert result.theta.max_degree() <= 1
        assert result.theta.vanishes_at_origin()


def test_realize_known_degree_one_source(cfg2, rng):
    # curvature of a known field: the solver need not recover the same field,
    # only one with the same curvature
    theta0 = random_degree_one_theta(cfg2, rng)
    target = curvature_at(connection_from_theta(theta0), np.zeros(4))
    result = realize(target)
    assert result.residual <= 1e-10 * max(1.0, target.norm())


@pytest.mark.parametrize("mode", ["joint", "split"])
def test_realize_classifies_its_input_once(cfg3, rng, monkeypatch, mode):
    import affine_kahler.realization as realization_module
    import affine_kahler.tensors as tensors_module

    tensor = random_kahler_tensor(cfg3, rng)
    realize(tensor, mode=mode)  # warm: every per-size build is cached
    calls = []
    original = tensors_module.classify_symmetries

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (tensors_module, realization_module):
        monkeypatch.setattr(module, "classify_symmetries", counted)
    realize(tensor, mode=mode)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["joint", "split"])
@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_solver_matches_lstsq_oracle(m_bar, mode):
    # the exact diagonal pseudo-inverse against a fresh lstsq of the same columns
    cfg = SpaceConfig(m_bar)
    tensor = random_kahler_tensor(cfg, np.random.default_rng(m_bar))
    cmap = curvature_coefficient_map(cfg)
    if mode == "joint":
        expected, _ = least_squares_solve(cmap.matrix, tensor.flatten())
    else:
        plus, minus = j_parity_split(tensor)
        hol = cmap.column_mask("hol")
        expected = np.zeros(len(cmap.columns))
        expected[hol], _ = least_squares_solve(cmap.matrix[:, hol], minus.flatten())
        expected[~hol], _ = least_squares_solve(cmap.matrix[:, ~hol], plus.flatten())
    coeffs = _solve_coefficients(tensor, mode)
    assert np.linalg.norm(coeffs - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_map_build_and_solves_factorize_nothing(m_bar, monkeypatch):
    # a cold build of the map (its exact pseudo-inverse and J-parity check
    # included) and a joint and a split realization call no numpy
    # factorization and build no basis of K or K+/-; a cold K+/K- build
    # from the columns calls no factorization either
    from affine_kahler import decomposition

    cfg = SpaceConfig(m_bar)
    tensor = random_kahler_tensor(cfg, np.random.default_rng(m_bar))
    warm = coefficient_map(cfg)
    decomposition.clear_caches()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "pinv", "lstsq", "eigh", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for name in ("kahler_parity_subspaces", "kahler_space_basis"):
        monkeypatch.setattr(decomposition, name, counted(name, getattr(decomposition, name)))
    cold = curvature_coefficient_map(cfg)
    for mode in ("joint", "split"):
        assert realize(tensor, mode=mode).verified
    assert calls == []
    decomposition.kahler_parity_subspaces(cfg)
    assert calls == ["kahler_parity_subspaces"]
    assert cold.ranks == warm.ranks and np.array_equal(cold.weights, warm.weights)


@pytest.mark.parametrize("m_bar", [2, 3, 4])
def test_entries_up_to_the_bound_keep_every_reported_number_finite(m_bar):
    # an exact integer tensor of K scaled to entries in (2^199, 2^200]: the
    # off-origin samples, quadratic in the input, and the module norms stay
    # finite with no warning
    cfg = SpaceConfig(m_bar)
    cmap = coefficient_map(cfg)
    flat = cmap.matrix @ np.random.default_rng(m_bar).integers(-3, 4, len(cmap.columns)).astype(float)
    flat *= MAX_ENTRY / 2.0 ** np.ceil(np.log2(np.abs(flat).max()))
    tensor = Tensor4.from_flat(cfg, flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("joint", "split"):
            result = realize(tensor, mode=mode)
            assert result.verified
            assert all(np.isfinite(value) for value in result.report.values())
        split = w_project(tensor)
        assert all(np.isfinite(value) for value in [split.residual, *split.norms.values()])
    beyond = tensor * np.nextafter(1.0, 2.0) * (MAX_ENTRY / np.abs(flat).max())
    for operation in (realize, w_project):
        with pytest.raises(DomainViolation, match=r"up to 2\^200"):
            operation(beyond)


@pytest.mark.parametrize("mode", ["joint", "split"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("tensor_*.json")), ids=lambda path: path.stem)
def test_realized_fixture_fields_carry_no_rounding_noise(path, mode):
    # the exact solve leaves zeros where the minimum-norm field has them
    U, V, _ = realize(read_tensor_file(path), mode=mode).theta.arrays
    coeffs = np.abs(np.concatenate([U.ravel(), V.ravel()]))
    assert not np.any((coeffs > 0) & (coeffs < 1e-12))


def test_warm_realize_runs_no_lstsq_and_builds_no_polynomials(cfg3, rng, count_calls):
    from affine_kahler.polynomials import PolyScalar

    tensor = random_kahler_tensor(cfg3, rng)
    for mode in ("joint", "split"):
        realize(tensor, mode=mode)  # warm: every per-size build is cached
    count_calls(np.linalg, "lstsq")
    counts = count_calls(PolyScalar, "__post_init__")
    for mode in ("joint", "split"):
        assert realize(tensor, mode=mode).verified
    assert counts == {"lstsq": 0, "__post_init__": 0}


CLI_RUNS = {
    "dims": ["dims", "--mbar", "3"],
    "check": ["check", "--input", str(FIXTURES / "tensor_w9.json")],
    "decompose": ["decompose", "--input", str(FIXTURES / "tensor_w11.json")],
    "realize_joint": ["realize", "--input", str(FIXTURES / "tensor_w12.json"), "--mode", "joint"],
    "realize_split": ["realize", "--input", str(FIXTURES / "tensor_w10.json"), "--mode", "split"],
    "curvature": ["curvature", "--theta", str(FIXTURES / "theta_4_2_w11.json"), "--point", "0.5,-1,0,2,0.25,1"],
    **{f"paper-examples_{case_id}": ["paper-examples", "--case", case_id] for case_id in sorted(CASES)},
    "selftest": ["selftest", "--mbar", "2", "--trials", "2"],
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_no_cli_subcommand_builds_polynomials(name, tmp_path, count_calls, capsys):
    # the dict classes stay a view for API callers and the test oracle
    from affine_kahler.polynomials import PolyScalar

    argv = CLI_RUNS[name] + (["--out", str(tmp_path / "theta.json")] if name.startswith("realize") else [])
    counts = count_calls(PolyScalar, "__post_init__")
    assert main(argv) == 0, capsys.readouterr().err
    assert counts == {"__post_init__": 0}


def test_realize_rejects_non_admissible(cfg2):
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 0, 0, 0] = 1.0
    with pytest.raises(DomainViolation, match="antisym12"):
        realize(Tensor4(cfg2, bad))


def test_realize_rejects_unknown_mode(cfg2):
    with pytest.raises(ValueError, match="mode"):
        realize(Tensor4.zero(cfg2), mode="sideways")


def test_split_mode_produces_pure_parts(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    result = realize(tensor, mode="split")
    hol, anti = split_components(result)
    assert holomorphy_type(hol).kind in (HolomorphyKind.HOLOMORPHIC, HolomorphyKind.BOTH)
    assert holomorphy_type(anti).kind in (HolomorphyKind.ANTIHOLOMORPHIC, HolomorphyKind.BOTH)
    # the two parts really sum back to the realized field
    for key, poly in result.theta.entries.items():
        diff_u = poly.u - (hol.entry(*key).u + anti.entry(*key).u)
        diff_v = poly.v - (hol.entry(*key).v + anti.entry(*key).v)
        assert diff_u.max_abs_coeff() <= 1e-12
        assert diff_v.max_abs_coeff() <= 1e-12


def test_pure_odd_input_realizes_holomorphically(rng):
    # a tensor known to be J-odd: the split realization stays holomorphic and
    # its curvature remains J-odd away from the origin
    cfg = SpaceConfig(3)
    theta_w12 = witness_theta("4.2.w12")
    target = curvature_at(connection_from_theta(theta_w12), np.zeros(6))
    result = realize(target, mode="split")
    assert holomorphy_type(result.theta).kind is HolomorphyKind.HOLOMORPHIC
    conn = connection_from_theta(result.theta)
    for _ in range(5):
        curv = curvature_at(conn, random_point(cfg, rng))
        _odd, even = j_parity_residuals(curv)
        assert even <= 1e-9


def test_verify_realization_reports_mismatch_without_raising(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    report = verify_realization(tensor, witness_theta("4.1.1", rho=(0.0, 0.0)))
    assert report["curvature_match"] == pytest.approx(tensor.norm())
    zero_report = verify_realization(Tensor4.zero(cfg2), witness_theta("4.1.1", rho=(0.0, 0.0)))
    assert all(value == 0.0 for value in zero_report.values())


def test_offsite_parity_is_reported(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    result = realize(tensor, mode="split")
    assert "offsite_max_odd_part" in result.report
    assert "offsite_max_even_part" in result.report


@pytest.mark.parametrize("m_bar", [2, 3])
def test_realize_report_matches_the_per_point_route(m_bar):
    # The origin and the five default_rng(0) points, one curvature_at each.
    cfg = SpaceConfig(m_bar)
    rng = np.random.default_rng(60 + m_bar)
    tensors = [random_kahler_tensor(cfg, rng)] + [random_parity_tensor(cfg, rng, p) for p in ("plus", "minus")]
    for tensor in tensors:
        for mode in ("joint", "split"):
            result = realize(tensor, mode=mode)
            conn = connection_from_theta(result.theta)
            origin = curvature_at(conn, np.zeros(cfg.m)).entries
            assert result.report["curvature_match"] == float(np.linalg.norm(origin - tensor.entries))
            draws = np.random.default_rng(0)
            parts = [j_parity_residuals(curvature_at(conn, draws.uniform(-1.0, 1.0, size=cfg.m))) for _ in range(5)]
            assert result.report["offsite_max_odd_part"] == max(odd for odd, _ in parts)
            assert result.report["offsite_max_even_part"] == max(even for _, even in parts)
            verification = verify_realization(tensor, result.theta)
            assert verification == {key: result.report[key] for key in verification}


def test_column_order_is_documented_and_stable(cfg2):
    cmap = curvature_coefficient_map(cfg2)
    first = cmap.columns[0]
    assert (first.i, first.j, first.k, first.a, first.kind, first.part) == (1, 1, 1, 1, "hol", "re")
    second = cmap.columns[1]
    assert (second.kind, second.part) == ("hol", "im")
    third = cmap.columns[2]
    assert (third.kind, third.part) == ("anti", "re")


def test_realization_demo_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "realization_demo.py"
    result = subprocess.run([sys.executable, str(script), "2", "0"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert any(line.endswith("type holomorphic") for line in lines)
    assert any(line.endswith("type antiholomorphic") for line in lines)
