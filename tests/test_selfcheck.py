from __future__ import annotations

import dataclasses
import json
import math

import pytest

from affine_kahler import selfcheck
from affine_kahler.cli import main
from affine_kahler.selfcheck import run_selftest

INVENTORY = [
    "traces.rho13_j_invariant_on_K",
    "traces.tau_equals_minus_trace_rho13",
    "parity.split_reconstructs",
    "parity.pythagoras",
    "parity.idempotent",
    "traces.rho13_vanishes_on_K_minus",
    "traces.rho14_j_odd_on_K_minus",
    "traces.rho14_j_even_on_K_plus",
    "traces.rho13_j_even_on_K_plus",
    "modules.projection_complete",
    "modules.pairwise_orthogonal",
    "modules.parity_consistent",
    "modules.rho14_image_in_S2minus",
    "modules.rho14_image_in_L2minus",
    "iso.L2plus_to_S2plus_lands",
    "iso.L2plus_to_S2plus_rank",
    "iso.W9_to_W10_lands",
    "iso.W9_to_W10_rank",
    "connection.torsion_free",
    "connection.parallel_J",
    "connection.linear_route_matches",
    "connection.curvature_in_K_at_points",
    "connection.holomorphic_curvature_odd",
    "connection.antiholomorphic_origin_even",
    "realization.round_trip",
    "realization.split_mode_purity",
    "files.tensor_round_trip_exact",
    "files.theta_round_trip_exact",
]

# Facts the per-size build certifies (exit 3 on failure), or a line that could
# not fail; selftest does not restate them.
CERTIFIED_AT_BUILD = [
    "realization.hol_columns_span_K_minus",
    "realization.anti_columns_span_K_plus",
    "realization.column_parity",
    "modules.rho14_rank_on_W2",
    "modules.rho14_rank_on_W4",
    "modules.joint_trace_rank_on_M0",
    "modules.tau_pair_bijective_on_W5W6",
    "connection.antiholomorphic_offsite_odd_info",
]


def test_selftest_passes_and_is_deterministic():
    first = run_selftest(2, 3, 11)
    assert first.ok
    assert first.render() == run_selftest(2, 3, 11).render()
    assert "checks passed" in first.render()


def test_selftest_seed_changes_draws_but_not_verdict():
    assert run_selftest(2, 2, 1).ok
    assert run_selftest(2, 2, 2).ok


def test_selftest_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_selftest(2, 0, 1)


def test_selftest_inventory():
    for m_bar in (2, 3):
        items = run_selftest(m_bar, 1, 0).items
        names = [item.name for item in items]
        assert names == INVENTORY
        assert not set(names) & set(CERTIFIED_AT_BUILD)
        assert all(math.isfinite(item.tol) for item in items)


def test_selftest_report_items_match_the_rendered_lines(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["selftest", "--mbar", "2", "--trials", "2", "--seed", "3", "--report", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    items = json.loads(path.read_text())["items"]
    assert lines[-1] == f"{len(INVENTORY)}/{len(INVENTORY)} checks passed"
    assert len(lines) == len(items) + 2
    for line, item in zip(lines[1:-1], items):
        status, name, worst, tol = line.split()
        assert (status == "OK") == item["ok"]
        assert name == item["name"]
        assert worst == f"worst={item['worst']:.6e}"
        assert tol == f"tol={item['tol']:.1e}"


def test_a_nan_law_value_fails_its_line(monkeypatch, capsys):
    real = selfcheck.ricci_traces
    monkeypatch.setattr(selfcheck, "ricci_traces", lambda t: dataclasses.replace(real(t), tau=math.nan))
    report = run_selftest(2, 2, 0)
    items = {item.name: item for item in report.items}
    tau = items["traces.tau_equals_minus_trace_rho13"]
    assert math.isnan(tau.worst) and not tau.ok
    assert not report.ok
    assert "FAIL traces.tau_equals_minus_trace_rho13" in report.render()
    assert all(item.ok for item in report.items if item is not tau)
    assert main(["selftest", "--mbar", "2", "--trials", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out
