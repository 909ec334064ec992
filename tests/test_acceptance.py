"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""
from __future__ import annotations

import re
import time

import numpy as np

from affine_kahler.connections import connection_from_theta, curvature_at
from affine_kahler.decomposition import (
    W_LABELS,
    clear_caches,
    computed_dimension_table,
    kahler_parity_subspaces,
    module_dimension_table,
)
from affine_kahler.realization import curvature_coefficient_map, realize
from affine_kahler.sampling import (
    random_antiholomorphic_theta,
    random_holomorphic_theta,
    random_kahler_tensor,
    random_point,
)
from affine_kahler.selfcheck import _decomposition_checks, _isomorphism_checks, _trace_identities
from affine_kahler.tensors import SpaceConfig, classify_symmetries, j_parity_residuals
from affine_kahler.witnesses import MEMBERSHIP_TOL, WitnessCheck, witness_suite

SIZES = (2, 3)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_dimension_tables():
    # exact integer dimensions, cold construction under 10 s per size
    clear_caches()
    ok = True
    details = []
    for m_bar in SIZES:
        start = time.perf_counter()
        computed = computed_dimension_table(SpaceConfig(m_bar)).dims
        elapsed = time.perf_counter() - start
        closed = module_dimension_table(m_bar).dims
        exact = all(computed[label] == closed[label] for label in computed)
        ok &= exact and elapsed < 10.0
        details.append(f"m_bar={m_bar}: dim K={computed['K']} ({elapsed:.1f}s)")
        assert computed["K"] == {2: 32, 3: 156}[m_bar]
        assert exact, (m_bar, computed, closed)
        assert elapsed < 10.0, f"construction took {elapsed:.1f}s at m_bar={m_bar}"
    report(1, ok, "dimension tables exact: " + "; ".join(details))
    assert ok


def test_criterion_2_witness_tables():
    # every displayed value reproduced with absolute error zero
    total = 0
    for m_bar in SIZES:
        for case in witness_suite(m_bar):
            for check in case.checks:
                assert check.ok, (m_bar, case.case_id, case.rho, check)
                if check.kind == "exact":
                    assert check.computed == check.expected
                total += 1
    report(2, True, f"witness tables reproduced exactly ({total} checks)")


def test_criterion_3_realization_round_trip():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    worst = 0.0
    for m_bar in SIZES:
        cfg = SpaceConfig(m_bar)
        for _ in range(50):
            tensor = random_kahler_tensor(cfg, rng)
            for mode in ("joint", "split"):
                result = realize(tensor, mode=mode)
                assert result.report["torsion"] == 0.0
                assert result.report["nabla_j"] == 0.0
                rel = result.residual / max(1.0, tensor.norm())
                worst = max(worst, rel)
                assert rel <= 1e-8, (m_bar, mode, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(3, ok, f"200 round trips, worst rel residual {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert ok


def test_criterion_4_parity_laws():
    rng = np.random.default_rng(41)
    worst_odd_law = 0.0
    for m_bar in SIZES:
        cfg = SpaceConfig(m_bar)
        for _ in range(50):
            conn = connection_from_theta(random_holomorphic_theta(cfg, rng, max_degree=2))
            for _ in range(20):
                curv = curvature_at(conn, random_point(cfg, rng))
                _odd, even = j_parity_residuals(curv)
                viol = classify_symmetries(curv).violations
                resid = max(even, viol["antisym12"], viol["bianchi1"], viol["kahler_last2_1h"])
                worst_odd_law = max(worst_odd_law, resid)
                assert resid <= 1e-9
    worst_even_law = 0.0
    for m_bar in SIZES:
        cfg = SpaceConfig(m_bar)
        for _ in range(50):
            theta = random_antiholomorphic_theta(cfg, rng, max_degree=2)
            assert theta.vanishes_at_origin()
            curv = curvature_at(connection_from_theta(theta), np.zeros(cfg.m))
            odd, _even = j_parity_residuals(curv)
            worst_even_law = max(worst_even_law, odd)
            assert odd <= 1e-9
    report(
        4,
        True,
        f"100 holomorphic fields x 20 points odd to {worst_odd_law:.2e}; "
        f"100 antiholomorphic origins even to {worst_even_law:.2e}",
    )


def test_criterion_5_decomposition_soundness():
    # The self-test's trace-identity and decomposition groups at 100 draws per
    # size: completeness, pairwise orthogonality and the trace laws on K, K+
    # and K-, each at 1e-9 or tighter.
    rng = np.random.default_rng(52)
    items = []
    for m_bar in SIZES:
        cfg = SpaceConfig(m_bar)
        items += [(m_bar, item) for item in _trace_identities(cfg, rng, 100) + _decomposition_checks(cfg, rng, 100)]
    worst: dict[str, float] = {}
    for _m_bar, item in items:
        worst[item.name] = max(worst.get(item.name, 0.0), item.worst)
    assert {
        "modules.projection_complete",
        "modules.pairwise_orthogonal",
        "traces.rho13_j_invariant_on_K",
        "traces.rho14_j_even_on_K_plus",
        "traces.rho13_j_even_on_K_plus",
        "traces.rho13_vanishes_on_K_minus",
        "traces.rho14_j_odd_on_K_minus",
    } <= set(worst)
    ok = all(item.ok and item.tol <= 1e-9 for _m_bar, item in items)
    trace_laws = max(value for name, value in worst.items() if name.startswith("traces."))
    report(
        5,
        ok,
        f"completeness {worst['modules.projection_complete']:.2e}, "
        f"orthogonality {worst['modules.pairwise_orthogonal']:.2e}, "
        f"trace laws {trace_laws:.2e}; {len(worst)} laws over 100 draws per size",
    )
    for m_bar, item in items:
        assert item.ok and item.tol <= 1e-9, (m_bar, item)


def test_criterion_6_surjectivity_of_the_curvature_map():
    details = []
    for m_bar in SIZES:
        cfg = SpaceConfig(m_bar)
        cmap = curvature_coefficient_map(cfg)
        plus, minus = kahler_parity_subspaces(cfg)
        dim_k = plus.dim + minus.dim
        assert sum(cmap.ranks.values()) == dim_k
        assert cmap.ranks["hol"] == minus.dim
        assert cmap.ranks["anti"] == plus.dim
        # the exact ranks against an SVD rank of the same columns
        assert np.linalg.matrix_rank(cmap.matrix) == dim_k
        assert np.linalg.matrix_rank(cmap.matrix[:, cmap.column_mask("hol")]) == minus.dim
        assert np.linalg.matrix_rank(cmap.matrix[:, cmap.column_mask("anti")]) == plus.dim
        for col in cmap.matrix[:, cmap.column_mask("hol")].T:
            assert minus.residual(col) <= 1e-9 * max(1.0, float(np.linalg.norm(col)))
        for col in cmap.matrix[:, cmap.column_mask("anti")].T:
            assert plus.residual(col) <= 1e-9 * max(1.0, float(np.linalg.norm(col)))
        details.append(f"m_bar={m_bar}: rank {sum(cmap.ranks.values())}={dim_k}, spans {minus.dim}/{plus.dim}")
    report(6, True, "curvature map surjective; parity spans match: " + "; ".join(details))


def test_criterion_7_module_membership_witnesses():
    # The placement rows of the witness suite at m_bar = 3: the projection
    # residual and every off-module norm within MEMBERSHIP_TOL * max(1, |A|),
    # each required module's norm above MEMBERSHIP_TOL.
    assert MEMBERSHIP_TOL == 1e-9
    placements = {  # (case, row prefix): (modules allowed, modules required nonzero)
        ("4.2.w9w10", "A1_minus_A2_"): (("W9",), ("W9",)),
        ("4.2.w9w10", "A3_plus_A4_"): (("W10",), ("W10",)),
        ("4.2.w12", ""): (("W12",), ("W12",)),
        ("4.2.w11", ""): (("W9", "W10", "W11"), ("W11",)),
    }
    rows: dict[tuple[str, str], dict[str, WitnessCheck]] = {}
    for case in witness_suite(3):
        for check in case.checks:
            match = re.fullmatch(r"(.*?)(w_residual|norm\[W\d+\])", check.name)
            if match:
                rows.setdefault((case.case_id, match.group(1)), {})[match.group(2)] = check
    assert set(rows) == set(placements)
    worst_off = 0.0
    for key, (allowed, required) in placements.items():
        found = rows[key]
        off = ["w_residual"] + [f"norm[{label}]" for label in W_LABELS if label not in allowed]
        on = [f"norm[{label}]" for label in required]
        assert sorted(found) == sorted(off + on), key
        for name in off:
            assert found[name].kind == "close" and found[name].ok, (key, found[name])
            if name != "w_residual":
                worst_off = max(worst_off, found[name].computed / found[name].tol * MEMBERSHIP_TOL)
        for name in on:
            assert found[name].kind == "positive" and found[name].tol >= MEMBERSHIP_TOL, (key, found[name])
            assert found[name].ok, (key, found[name])
    report(7, True, f"four witnesses placed; worst off-module norm {worst_off:.2e}")


def test_criterion_8_isomorphism_spot_checks():
    # The self-test's isomorphism group: L2_0+ -> S2_0+ and W9 -> W10 (J on the
    # last slot) land in their targets to 1e-9 and are bijections (rank items
    # carry tolerance 0: full rank, and source and target of equal dimension).
    for m_bar in SIZES:
        items = _isomorphism_checks(SpaceConfig(m_bar))
        assert [item.name for item in items] == [
            "iso.L2plus_to_S2plus_lands",
            "iso.L2plus_to_S2plus_rank",
            "iso.W9_to_W10_lands",
            "iso.W9_to_W10_rank",
        ]
        for item in items:
            assert item.tol <= (0.0 if item.name.endswith("_rank") else 1e-9), item
            assert item.ok, (m_bar, item)
    report(8, True, "both isomorphism checks are computed bijections at m_bar 2 and 3")
