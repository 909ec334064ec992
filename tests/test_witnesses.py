from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affine_kahler.connections import connection_from_theta, curvature_at
from affine_kahler.errors import DomainViolation
from affine_kahler.tensors import ricci_traces
from affine_kahler.witnesses import (
    CASES,
    run_witness_case,
    witness_suite,
    witness_theta,
)


@pytest.mark.parametrize("m_bar", [2, 3])
def test_full_witness_suite_is_green(m_bar):
    for case in witness_suite(m_bar):
        for check in case.checks:
            assert check.ok, (case.case_id, case.rho, check)


def test_value_checks_are_exact_not_approximate():
    # every equality-kind check must hold with error exactly zero
    for case in witness_suite(2):
        for check in case.checks:
            if check.kind == "exact":
                assert check.computed == check.expected, (case.case_id, check.name)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_every_case_runs_with_defaults(case_id):
    case = run_witness_case(case_id)
    assert case.ok
    assert len(case.checks) > 3


def test_case_4_1_1_selected_values():
    case = run_witness_case("4.1.1", rho=(1.0, 1.0))
    values = {check.name: check for check in case.checks}
    assert values["tau"].computed == -4.0
    assert values["tau_tilde_J"].computed == -4.0
    assert values["rho14(e1,e1)"].computed == -2.0
    assert values["rho14(e1,f1)"].computed == 2.0
    assert values["A(e1,f1,e1,f1)"].computed == 2.0


def test_case_4_1_1_scales_with_parameters():
    case = run_witness_case("4.1.1", rho=(2.0, -3.0))
    values = {check.name: check for check in case.checks}
    assert values["tau"].computed == -8.0
    assert values["tau_tilde_J"].computed == 12.0
    assert case.ok


def test_case_4_2_w9_table_values():
    case = run_witness_case("4.2.w9w10", rho=(-0.5, -0.5, -0.5))
    values = {check.name: check for check in case.checks}
    assert values["A(e1,f1,e1,f2)"].computed == -1.0
    assert values["A1_rho14(e1,e2)"].computed == 1.0
    assert values["A1_minus_A2_norm"].ok
    assert values["A1_minus_A2_norm[W9]"].ok


def test_case_4_2_w11_bianchi_combination():
    case = run_witness_case("4.2.w11")
    values = {check.name: check for check in case.checks}
    assert values["bianchi_combination"].computed == 0.5
    assert values["norm[W11]"].ok


def test_unknown_case_and_bad_parameters_rejected():
    with pytest.raises(DomainViolation, match="unknown case"):
        run_witness_case("4.9.z")
    with pytest.raises(DomainViolation, match="parameter"):
        run_witness_case("4.1.1", rho=(1.0,))
    with pytest.raises(DomainViolation, match="m_bar"):
        run_witness_case("4.2.w12", m_bar=2)


def test_witness_theta_matches_registry():
    theta = witness_theta("4.1.3b", rho=(1.0,))
    assert set(theta.entries) == {(1, 2, 2)}
    poly = theta.entries[(1, 2, 2)]
    # rho5 (x2 - i y2)
    assert poly.u.coeffs == {(0, 1, 0, 0): 1.0}
    assert poly.v.coeffs == {(0, 0, 0, 1): -1.0}


def test_witness_curvatures_vanish_nowhere_clamped(rng):
    # the named tensors are nonzero; sanity that tables describe real objects
    for case_id in ("4.2.w12", "4.2.w11"):
        theta = witness_theta(case_id)
        curv = curvature_at(connection_from_theta(theta), np.zeros(6))
        assert curv.norm() > 1.0
        traces = ricci_traces(curv)
        assert traces.rho14.norm() == 0.0


def test_holomorphic_witness_curvature_admissible_at_generic_points(rng):
    from affine_kahler.sampling import random_point
    from affine_kahler.tensors import SpaceConfig, classify_symmetries

    conn = connection_from_theta(witness_theta("4.2.w12"))
    for _ in range(4):
        curv = curvature_at(conn, random_point(SpaceConfig(3), rng))
        assert classify_symmetries(curv).in_K


def test_integer_witness_residuals_are_exactly_zero():
    from affine_kahler.tensors import classify_symmetries

    curv = curvature_at(connection_from_theta(witness_theta("4.2.w12")), np.zeros(6))
    report = classify_symmetries(curv)
    for name in ("antisym12", "bianchi1", "kahler_last2_1h", "kahler_operator_1i", "gray_1g"):
        assert report.violations[name] == 0.0


def test_linear_route_reproduces_witness_traces():
    from affine_kahler.connections import linear_curvature_at_zero

    traces = ricci_traces(linear_curvature_at_zero(witness_theta("4.1.1", rho=(1.0, 0.0))))
    assert traces.tau == -4.0
    assert traces.tau_tilde_j == 0.0


def test_suite_skips_third_line_cases_at_m_bar_two():
    ids = [case.case_id for case in witness_suite(2)]
    assert "4.2.w12" not in ids and "4.2.w11" not in ids
    ids3 = [case.case_id for case in witness_suite(3)]
    assert "4.2.w12" in ids3 and "4.2.w11" in ids3


def test_witness_inventory_is_pinned():
    # dropping or adding a table row changes these counts
    assert sum(len(case.checks) for case in witness_suite(2)) == 339
    assert sum(len(case.checks) for case in witness_suite(3)) == 387
    counts = {case_id: len(run_witness_case(case_id).checks) for case_id in CASES}
    assert counts == {
        "4.1.1": 19,
        "4.1.2": 27,
        "4.1.3a": 46,
        "4.1.3b": 19,
        "4.2.w9w10": 55,
        "4.2.w12": 24,
        "4.2.w11": 24,
    }


def test_witness_report_script_runs_clean():
    script = Path(__file__).resolve().parents[1] / "scripts" / "witness_report.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "0 failures"
    assert sum(line.endswith(" OK") for line in lines) == 726


def test_nabla_display_catches_a_wrong_or_spurious_christoffel_term():
    from affine_kahler.connections import AffineConnection
    from affine_kahler.witnesses import _gamma_display_check, _table_4_1_1

    _terms, rows = _table_4_1_1(1.0, 1.0)
    display = next(fields[0] for kind, *fields in rows if kind == "gamma")
    conn = connection_from_theta(witness_theta("4.1.1"))
    assert _gamma_display_check(conn, 2, display).computed == 0.0

    (la, lb), column = next(iter(display.items()))
    lc, coeff, var = column[0]
    wrong = dict(display) | {(la, lb): [(lc, coeff + 0.25, var)] + column[1:]}
    assert _gamma_display_check(conn, 2, wrong).computed == 0.25
    missing = {key: col for key, col in display.items() if key != (la, lb)}
    assert _gamma_display_check(conn, 2, missing).computed == abs(coeff)

    # the same connection plus 1e-3 x1^2 on one Christoffel symbol
    exponents = np.vstack([conn.exponents, [2, 0, 0, 0]])
    coeffs = np.concatenate([conn.coeffs, np.zeros(conn.coeffs.shape[:3] + (1,))], axis=-1)
    coeffs[1, 2, 3, -1] = 1e-3
    spurious = AffineConnection(conn.config, exponents, coeffs)
    assert _gamma_display_check(spurious, 2, display).computed == 1e-3
