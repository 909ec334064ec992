from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from affine_kahler.cli import main
from affine_kahler.connections import ThetaField
from affine_kahler.decomposition import MAX_M_BAR, module_dimension_table
from affine_kahler.errors import SchemaViolation
from affine_kahler.polynomials import ComplexPoly, PolyScalar
from affine_kahler.realization import VERIFICATION_KEYS, realize
from affine_kahler.sampling import random_holomorphic_theta, random_kahler_tensor
from affine_kahler.serialization import (
    read_tensor_file,
    read_theta_file,
    tensor_from_payload,
    tensor_to_payload,
    theta_from_payload,
    theta_to_payload,
    write_tensor_file,
    write_theta_file,
)
from affine_kahler.tensors import SpaceConfig, Tensor4

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# -- file formats --------------------------------------------------------------

def test_tensor_round_trip_exact(cfg2, rng, tmp_path):
    tensor = random_kahler_tensor(cfg2, rng)
    path = tmp_path / "a.json"
    write_tensor_file(path, tensor)
    back = read_tensor_file(path)
    assert np.array_equal(back.entries, tensor.entries)


def test_tensor_flat_order_matches_index_formula(cfg2, rng):
    tensor = random_kahler_tensor(cfg2, rng)
    flat = tensor_to_payload(tensor)["tensor"]
    m = 4
    for a, b, c, d in ((0, 1, 2, 3), (3, 0, 1, 2), (2, 2, 0, 1)):
        assert flat[((a * m + b) * m + c) * m + d] == tensor.entries[a, b, c, d]


def test_theta_round_trip_exact(cfg2, rng, tmp_path):
    theta = random_holomorphic_theta(cfg2, rng)
    path = tmp_path / "theta.json"
    write_theta_file(path, theta)
    assert read_theta_file(path).entries == theta.entries


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda p: p.pop("m_bar"), "m_bar"),
        (lambda p: p.update(tensor=p["tensor"][:-1]), "length"),
        (lambda p: p["tensor"].__setitem__(0, "x"), "finite"),
        (lambda p: p.update(m_bar=0), "positive"),
    ],
)
def test_tensor_schema_violations(cfg2, rng, mangle, message):
    payload = tensor_to_payload(random_kahler_tensor(cfg2, rng))
    mangle(payload)
    with pytest.raises(SchemaViolation, match=message):
        tensor_from_payload(payload)


def test_theta_schema_violations(cfg2, rng):
    payload = theta_to_payload(random_holomorphic_theta(cfg2, rng))
    payload["entries"].append(dict(payload["entries"][0]))
    with pytest.raises(SchemaViolation, match="duplicate"):
        theta_from_payload(payload)
    bad_powers = theta_to_payload(random_holomorphic_theta(cfg2, rng))
    bad_powers["entries"][0]["u"][0]["powers"] = [1, 0]
    with pytest.raises(SchemaViolation, match="exponents|powers"):
        theta_from_payload(bad_powers)
    swapped = theta_to_payload(random_holomorphic_theta(cfg2, rng))
    swapped["entries"][0]["i"], swapped["entries"][0]["j"] = 2, 1
    with pytest.raises(SchemaViolation, match="i <= j"):
        theta_from_payload(swapped)


def test_theta_payload_sums_repeated_records_in_file_order():
    x1, y2, y3 = [1, 0, 0, 0], [0, 0, 0, 1], [0, 3, 0, 0]
    payload = {
        "m_bar": 2,
        "entries": [
            {
                "i": 1,
                "j": 2,
                "k": 1,
                "u": [{"coeff": c, "powers": x1} for c in (0.1, 0.2, 0.3)]
                + [{"coeff": c, "powers": y3} for c in (1.0, -1.0)],
                "v": [{"coeff": 0.5, "powers": y2}],
            },
            {"i": 2, "j": 2, "k": 2, "u": [{"coeff": 0.0, "powers": [10**30, 0, 0, 0]}], "v": []},
        ],
    }
    # the sum in file order, which differs from 0.1 + (0.2 + 0.3) in the last bit
    summed = PolyScalar(2, {tuple(x1): (0.1 + 0.2) + 0.3})
    expected = ThetaField(2, {(1, 2, 1): ComplexPoly(summed, PolyScalar(2, {tuple(y2): 0.5}))})
    theta = theta_from_payload(payload)
    assert theta == expected and theta.entries == expected.entries
    assert theta.arrays[2].tolist() == [y2, x1]  # zero sums leave no monomial behind
    payload["entries"][1]["u"][0]["coeff"] = 1.0
    with pytest.raises(ValueError, match="degree"):
        theta_from_payload(payload)


# -- CLI ----------------------------------------------------------------------

def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_cli_dims_ok(capsys):
    assert run_cli("dims", "--mbar", "2") == 0
    out = capsys.readouterr().out
    assert "K 32 32 OK" in out
    assert "W12 0 0 OK" in out


def test_cli_dims_rejects_small(capsys):
    assert run_cli("dims", "--mbar", "1") == 2


def test_cli_selftest_rejects_small_mbar(capsys):
    assert run_cli("selftest", "--mbar", "1") == 2
    assert "--mbar" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "decompose"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_rejects_tolerance_out_of_range(command, tol, capsys):
    assert run_cli(command, "--input", str(FIXTURES / "tensor_w9.json"), f"--tol={tol}") == 2
    out, err = capsys.readouterr()
    assert "--tol" in err
    assert out == ""


def test_cli_check_zero_tensor(tmp_path, cfg2, capsys):
    path = tmp_path / "zero.json"
    write_tensor_file(path, Tensor4.zero(cfg2))
    assert run_cli("check", "--input", str(path)) == 0
    assert "in_K true" in capsys.readouterr().out


def test_cli_check_w12_witness_reports_pair_identity(capsys):
    assert run_cli("check", "--input", str(FIXTURES / "tensor_w12.json")) == 0
    out = capsys.readouterr().out
    assert "in_K true" in out
    assert "riemann_pair_1e" in out


def test_cli_check_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"m_bar": 2, "tensor": [1.0, 2.0]}), encoding="utf-8")
    assert run_cli("check", "--input", str(path)) == 2


def test_cli_check_non_admissible_exits_1(tmp_path, cfg2, capsys):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 0, 0, 0] = 1.0
    path = tmp_path / "bad.json"
    write_tensor_file(path, Tensor4(cfg2, entries))
    assert run_cli("check", "--input", str(path)) == 1


def test_cli_decompose_w9_witness(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli(
        "decompose", "--input", str(FIXTURES / "tensor_w9.json"), "--report", str(report)
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["norms"]["W9"] > 1.0
    for label, norm in payload["norms"].items():
        if label != "W9":
            assert norm <= 1e-9
    # Pythagoras across the decomposition
    total_sq = sum(v ** 2 for v in payload["norms"].values())
    assert total_sq == pytest.approx(payload["total_norm"] ** 2, rel=1e-9)


def test_cli_decompose_zero_tensor(tmp_path, cfg2, capsys):
    path = tmp_path / "zero.json"
    write_tensor_file(path, Tensor4.zero(cfg2))
    report = tmp_path / "report.json"
    assert run_cli("decompose", "--input", str(path), "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert all(norm == 0.0 for norm in payload["norms"].values())


@pytest.mark.parametrize(
    "argv",
    [["decompose"], ["realize", "--mode", "joint"], ["realize", "--mode", "split"]],
    ids=["decompose", "realize_joint", "realize_split"],
)
def test_cli_classifies_its_input_once(argv, tmp_path, count_calls, capsys):
    import affine_kahler.tensors as tensors

    argv = argv + ["--input", str(FIXTURES / "tensor_w9.json")]
    if argv[0] == "realize":
        argv += ["--out", str(tmp_path / "theta.json")]
    counts = count_calls(tensors, "classify_symmetries")
    assert run_cli(*argv) == 0
    assert counts == {"classify_symmetries": 1}


def test_cli_decompose_rejects_non_admissible(tmp_path, cfg2):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 0, 0, 0] = 1.0
    path = tmp_path / "bad.json"
    write_tensor_file(path, Tensor4(cfg2, entries))
    assert run_cli("decompose", "--input", str(path)) == 1


def test_cli_realize_round_trip(tmp_path, cfg2, capsys):
    rng = np.random.default_rng(42)
    source = tmp_path / "a.json"
    write_tensor_file(source, random_kahler_tensor(cfg2, rng))
    theta_out = tmp_path / "theta.json"
    assert run_cli("realize", "--input", str(source), "--out", str(theta_out), "--mode", "split") == 0
    out = capsys.readouterr().out
    assert "verified true" in out
    # the four residual lines are the ones the realization itself reported
    report = realize(read_tensor_file(source), mode="split").report
    printed = [line for line in out.splitlines() if line.split()[0] in VERIFICATION_KEYS]
    assert printed == [f"{name} {report[name]:.6e}" for name in VERIFICATION_KEYS]
    # curvature command reproduces the tensor at the origin
    back = tmp_path / "back.json"
    assert run_cli("curvature", "--theta", str(theta_out), "--point", "0,0,0,0", "--out", str(back)) == 0
    a = read_tensor_file(source)
    b = read_tensor_file(back)
    assert np.max(np.abs(a.entries - b.entries)) <= 1e-10


def test_cli_realize_zero_gives_empty_theta(tmp_path, cfg2, capsys):
    source = tmp_path / "zero.json"
    write_tensor_file(source, Tensor4.zero(cfg2))
    theta_out = tmp_path / "theta.json"
    assert run_cli("realize", "--input", str(source), "--out", str(theta_out)) == 0
    assert json.loads(theta_out.read_text())["entries"] == []


def test_cli_realize_of_a_fixture_writes_no_rounding_noise(tmp_path, capsys):
    # the exact solve: two records, where a float-cutoff solve wrote 216
    theta_out = tmp_path / "theta.json"
    assert run_cli("realize", "--input", str(FIXTURES / "tensor_w11.json"), "--out", str(theta_out)) == 0
    assert "curvature_match 0.000000e+00" in capsys.readouterr().out.splitlines()
    entries = json.loads(theta_out.read_text())["entries"]
    assert sum(len(entry["u"]) + len(entry["v"]) for entry in entries) == 2


def _scaled_w9_fixture(tmp_path, exponent: int) -> Path:
    payload = json.loads((FIXTURES / "tensor_w9.json").read_text())
    payload["tensor"] = [value * 2.0**exponent for value in payload["tensor"]]
    path = tmp_path / f"w9_x2^{exponent}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("exponent", [300, 1000, 1021])
def test_cli_realize_rejects_huge_entries_up_front(tmp_path, exponent):
    # each probe once overflowed somewhere: an infinite off-site report, a
    # non-finite result tensor (exit 2), a non-finite solve after a warning
    done = subprocess.run(
        [sys.executable, "-m", "affine_kahler", "realize", "--input", str(_scaled_w9_fixture(tmp_path, exponent)),
         "--out", str(tmp_path / "theta.json")],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "2^200" in lines[0]
    assert "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "theta.json").exists()


def test_cli_realize_at_the_entry_bound_reports_finite_numbers(tmp_path, capsys):
    report = tmp_path / "report.json"
    source = _scaled_w9_fixture(tmp_path, 200)
    assert run_cli("realize", "--input", str(source), "--out", str(tmp_path / "theta.json"), "--report", str(report)) == 0
    assert "verified true" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert all(np.isfinite(value) for value in [payload["residual"], *payload["report"].values()])


def test_cli_decompose_rejects_huge_entries_up_front(tmp_path):
    # this probe once printed infinite norms after an overflow warning
    done = subprocess.run(
        [sys.executable, "-m", "affine_kahler", "decompose", "--input", str(_scaled_w9_fixture(tmp_path, 1000))],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "2^200" in lines[0]


def test_cli_decompose_at_the_entry_bound_reports_finite_numbers(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli("decompose", "--input", str(_scaled_w9_fixture(tmp_path, 200)), "--report", str(report)) == 0
    printed = [float(line.split()[1]) for line in capsys.readouterr().out.splitlines()]
    payload = json.loads(report.read_text())
    assert all(np.isfinite(value) for value in [*printed, payload["residual"], *payload["norms"].values()])


def test_cli_curvature_zero_theta(tmp_path, capsys):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"m_bar": 2, "entries": []}), encoding="utf-8")
    assert run_cli("curvature", "--theta", str(theta_path), "--point", "0.5,0,-1,2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tensor"] == [0.0] * 256


def test_cli_curvature_rejects_bad_point(tmp_path, capsys):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"m_bar": 2, "entries": []}), encoding="utf-8")
    assert run_cli("curvature", "--theta", str(theta_path), "--point", "1,2,3") == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_curvature_rejects_non_finite_point(tmp_path, bad):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"m_bar": 2, "entries": []}), encoding="utf-8")
    point = f"{bad},0,0,0"
    done = subprocess.run(
        [sys.executable, "-m", "affine_kahler", "curvature", "--theta", str(theta_path), f"--point={point}"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert done.returncode == 2
    assert point in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert done.stdout == ""


def test_cli_paper_examples_table(capsys):
    assert run_cli("paper-examples", "--case", "4.1.1", "--rho", "1,1") == 0
    out = capsys.readouterr().out
    assert "tau -4 -4 OK" in out
    assert "tau_tilde_J -4 -4 OK" in out


def test_cli_paper_examples_rejects_wrong_rho_count(capsys):
    assert run_cli("paper-examples", "--case", "4.1.1", "--rho", "1") == 2
    out, err = capsys.readouterr()
    assert "--rho" in err and "takes 2" in err
    assert out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_paper_examples_rejects_non_finite_rho(bad):
    done = subprocess.run(
        [sys.executable, "-m", "affine_kahler", "paper-examples", "--case", "4.1.1", f"--rho={bad},1"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--rho" in lines[0]
    assert "Tensor4" not in done.stderr


@pytest.mark.parametrize(
    "argv,option",
    [
        (("paper-examples", "--case", "4.1.1", "--rho", "x,1"), "--rho"),
        (("paper-examples", "--case", "4.1.1", "--rho", "1,2,3"), "--rho"),
        (("paper-examples", "--case", "4.1.1", "--rho", "nan,1"), "--rho"),
        (("curvature", "--theta", str(FIXTURES / "theta_4_1_1.json"), "--point", "a,0,0,0"), "--point"),
        (("curvature", "--theta", str(FIXTURES / "theta_4_1_1.json"), "--point", "inf,0,0,0"), "--point"),
        (("curvature", "--theta", str(FIXTURES / "theta_4_1_1.json"), "--point", "0,0,0"), "--point"),
    ],
    ids=["rho-word", "rho-count", "rho-nan", "point-word", "point-inf", "point-count"],
)
def test_cli_number_list_errors_are_one_error_line_naming_the_option(capsys, argv, option):
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error: ") and option in lines[0]


def test_cli_paper_examples_w11_half(capsys):
    assert run_cli("paper-examples", "--case", "4.2.w11", "--mbar", "3") == 0
    assert "bianchi_combination 0.5 0.5 OK" in capsys.readouterr().out


def test_cli_paper_examples_unknown_case_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("paper-examples", "--case", "nope")
    assert err.value.code == 2


def test_cli_selftest_deterministic(tmp_path):
    def script(report_path):
        return [
            sys.executable,
            "-m",
            "affine_kahler",
            "selftest",
            "--mbar",
            "2",
            "--trials",
            "2",
            "--seed",
            "7",
            "--report",
            str(report_path),
        ]

    first = subprocess.run(
        script(tmp_path / "r1.json"), capture_output=True, text=True, cwd=str(FIXTURES.parent)
    )
    second = subprocess.run(
        script(tmp_path / "r2.json"), capture_output=True, text=True, cwd=str(FIXTURES.parent)
    )
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout and first.stdout
    payload = json.loads((tmp_path / "r1.json").read_text())
    assert payload["ok"] is True
    assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()


@pytest.mark.parametrize("command", ["dims", "selftest", "decompose", "realize", "paper-examples"])
def test_cli_refuses_m_bar_beyond_the_limit_before_building(command, tmp_path, capsys):
    oversize = MAX_M_BAR + 1
    zeros = tmp_path / "zeros.json"
    write_tensor_file(zeros, Tensor4.zero(SpaceConfig(oversize)))
    argv = {
        "dims": ["dims", "--mbar", str(oversize)],
        "selftest": ["selftest", "--mbar", str(oversize)],
        "decompose": ["decompose", "--input", str(zeros)],
        "realize": ["realize", "--input", str(zeros), "--out", str(tmp_path / "theta.json")],
        "paper-examples": ["paper-examples", "--case", "4.2.w12", "--mbar", str(oversize)],
    }[command]
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and f"MAX_M_BAR = {MAX_M_BAR}" in err
    assert peak < 32 * 2**20


def test_commands_that_build_nothing_per_size_stay_unbounded(tmp_path, capsys):
    oversize = MAX_M_BAR + 1
    zeros = tmp_path / "zeros.json"
    write_tensor_file(zeros, Tensor4.zero(SpaceConfig(oversize)))
    assert run_cli("check", "--input", str(zeros)) == 0
    write_theta_file(tmp_path / "theta.json", ThetaField.zero(oversize))
    point = ",".join(["0.5"] * 2 * oversize)
    assert run_cli("curvature", "--theta", str(tmp_path / "theta.json"), "--point", point) == 0
    assert module_dimension_table(oversize).dims["K"] == 2352


def test_fixture_files_pass_check():
    for fixture in sorted(FIXTURES.glob("tensor_*.json")):
        assert run_cli("check", "--input", str(fixture)) == 0, fixture.name


def test_fixture_thetas_load():
    for fixture in sorted(FIXTURES.glob("theta_*.json")):
        theta = read_theta_file(fixture)
        assert theta.entries


def test_fixtures_are_what_make_fixtures_builds(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES.parent / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    built = make_fixtures.fixtures()
    on_disk = sorted(path.name for pattern in ("theta_*.json", "tensor_*.json") for path in FIXTURES.glob(pattern))
    assert sorted(built) == on_disk
    for name, value in built.items():
        write = write_theta_file if name.startswith("theta_") else write_tensor_file
        write(tmp_path / name, value)
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
