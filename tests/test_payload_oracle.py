"""The bulk coefficient-file parser against the per-record oracle, and the
rules only the bulk route has: booleans are not integers, and a field too
large to hold is refused before its arrays exist."""
from __future__ import annotations

import copy
import json
import tracemalloc

import numpy as np
import pytest

import payload_oracle
from affine_kahler.cli import main
from affine_kahler.errors import SchemaViolation
from affine_kahler.sampling import random_antiholomorphic_theta, random_holomorphic_theta
from affine_kahler.serialization import (
    MAX_FIELD_BYTES,
    tensor_from_payload,
    theta_from_payload,
    theta_to_payload,
)
from affine_kahler.tensors import SpaceConfig


def _assert_same_arrays(payload: dict) -> None:
    bulk = theta_from_payload(payload)
    oracle = payload_oracle.theta_from_payload(payload)
    assert bulk.m_bar == oracle.m_bar
    for mine, theirs in zip(bulk.arrays, oracle.arrays):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


def _outcome(parse, payload: dict) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        parse(copy.deepcopy(payload))
    return type(caught.value), str(caught.value)


def _random_fields(m_bar: int, degree: int):
    config = SpaceConfig(m_bar)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        make = (random_holomorphic_theta, random_antiholomorphic_theta)[seed % 2]
        for constant in (False, True):
            yield rng, make(config, rng, max_degree=degree, include_constant=constant)


def _roughen(payload: dict, rng: np.random.Generator) -> dict:
    """The same kind of file as a writer other than theta_to_payload might
    produce: repeated records, sums cancelling to zero, -0.0 and integer
    coefficients, a zero record over the degree cap, and shuffled order."""
    m = 2 * payload["m_bar"]
    over_cap = [0] * m
    over_cap[0] = 9
    for entry in payload["entries"]:
        for what in ("u", "v"):
            records = entry[what]
            extra = []
            for record in records[: 1 + len(records) // 4]:
                extra.append({"coeff": float(rng.standard_normal()), "powers": list(record["powers"])})
                extra.append({"coeff": int(rng.integers(-3, 4)), "powers": list(record["powers"])})
            fresh = [int(p) for p in rng.integers(0, 2, size=m)]
            value = float(rng.standard_normal())
            extra += [
                {"coeff": value, "powers": fresh},
                {"coeff": -0.0, "powers": list(fresh)},
                {"coeff": -value, "powers": list(fresh)},
                {"coeff": 0, "powers": list(over_cap)},
                {"coeff": 2**60 + 1, "powers": [0] * m},
            ]
            records += extra
            rng.shuffle(records)
    rng.shuffle(payload["entries"])
    return payload


@pytest.mark.parametrize("m_bar", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_bulk_parser_matches_oracle_on_valid_payloads(m_bar, degree):
    for rng, theta in _random_fields(m_bar, degree):
        payload = json.loads(json.dumps(theta_to_payload(theta)))
        _assert_same_arrays(payload)
        _assert_same_arrays(_roughen(payload, rng))


def test_bulk_parser_matches_oracle_on_edge_payloads():
    x1, y2 = [1, 0, 0, 0], [0, 0, 0, 1]

    def entry(i, j, k, u, v):
        return {"i": i, "j": j, "k": k, "u": u, "v": v}

    for entries in (
        [],
        [entry(1, 1, 1, [], [])],
        [entry(1, 2, 2, [{"coeff": 1.0, "powers": x1}, {"coeff": -1.0, "powers": x1}], [])],
        [entry(2, 2, 1, [{"coeff": 0.0, "powers": [10**30, 0, 0, 0]}], [{"coeff": 3, "powers": y2}])],
        [
            entry(1, 2, 1, [{"coeff": 0.0, "powers": [2**64, 0, 0, 0]}], []),
            entry(1, 1, 2, [{"coeff": -0.0, "powers": [2**70, 1, 0, 0]}], [{"coeff": 5e-324, "powers": x1}]),
        ],
    ):
        _assert_same_arrays({"m_bar": 2, "entries": entries})


def _good_entry(i=1, j=2, k=1) -> dict:
    return {
        "i": i,
        "j": j,
        "k": k,
        "u": [{"coeff": 0.5, "powers": [1, 0, 0, 0]}, {"coeff": -1.25, "powers": [0, 2, 0, 0]}],
        "v": [{"coeff": 2.0, "powers": [0, 0, 0, 1]}],
    }


def _with(mangle) -> dict:
    payload = {"m_bar": 2, "entries": [_good_entry(1, 1, 1), _good_entry(1, 2, 2), _good_entry(2, 2, 1)]}
    mangle(payload)
    return payload


def _set(n, **fields):
    return lambda payload: payload["entries"][n].update(fields)


def _record(n, what, r, **fields):
    return lambda payload: payload["entries"][n][what][r].update(fields)


def _replace_record(n, what, r, value):
    return lambda payload: payload["entries"][n][what].__setitem__(r, value)


def _both(*mangles):
    def mangle(payload):
        for step in mangles:
            step(payload)

    return mangle


# One malformed payload per rule (several ways for some), then payloads
# breaking two or more rules, where the first in file order must win.
_BROKEN = {
    "top level": lambda p: None,  # replaced by a list below
    "missing m_bar": lambda p: p.pop("m_bar"),
    "m_bar zero": lambda p: p.update(m_bar=0),
    "m_bar float": lambda p: p.update(m_bar=2.0),
    "m_bar string": lambda p: p.update(m_bar="2"),
    "missing entries": lambda p: p.pop("entries"),
    "entries not a list": lambda p: p.update(entries={"i": 1}),
    "entry not an object": lambda p: p["entries"].__setitem__(1, [1, 2, 1]),
    **{f"entry missing {name}": (lambda name: lambda p: p["entries"][1].pop(name))(name) for name in "ijkuv"},
    "index float": _set(1, j=2.0),
    "index string": _set(1, k="1"),
    "index null": _set(1, i=None),
    "i > j": _set(1, i=2, j=1),
    "i zero": _set(1, i=0),
    "j above m_bar": _set(1, j=3),
    "j huge": _set(1, j=10**30),
    "i negative huge": _set(1, i=-(10**30)),
    "k zero": _set(1, k=0),
    "k above m_bar": _set(1, k=3),
    "k huge": _set(1, k=2**63),
    "duplicate": _set(2, i=1, j=2, k=2),
    "u not a list": _set(1, u={"coeff": 1.0}),
    "v not a list": _set(1, v=None),
    "u record not an object": _replace_record(1, "u", 1, [0.5, [1, 0, 0, 0]]),
    "v record not an object": _replace_record(1, "v", 0, "x"),
    "record missing coeff": lambda p: p["entries"][1]["u"][0].pop("coeff"),
    "record missing powers": lambda p: p["entries"][1]["v"][0].pop("powers"),
    "coeff string": _record(1, "u", 1, coeff="1"),
    "coeff null": _record(1, "v", 0, coeff=None),
    "coeff nan": _record(1, "u", 0, coeff=float("nan")),
    "coeff inf": _record(1, "v", 0, coeff=float("-inf")),
    "coeff list": _record(1, "u", 0, coeff=[1.0]),
    "powers not a list": _record(1, "u", 0, powers="1000"),
    "powers too short": _record(1, "u", 1, powers=[0, 2, 0]),
    "powers too long": _record(1, "v", 0, powers=[0, 0, 0, 1, 0]),
    "exponent negative": _record(1, "u", 1, powers=[0, -1, 0, 0]),
    "exponent negative huge": _record(1, "u", 1, powers=[0, -(10**30), 0, 0]),
    "exponent float": _record(1, "v", 0, powers=[0, 0, 0, 1.0]),
    "exponent string": _record(1, "u", 0, powers=["1", 0, 0, 0]),
    "over the degree cap": _record(1, "u", 0, powers=[7, 0, 0, 0]),
    "over the cap, huge": _record(1, "u", 0, powers=[10**30, 0, 0, 1]),
    "over the cap in sum": _record(1, "v", 0, powers=[2, 2, 2, 1]),
    "entry breaks two rules": _set(1, i="1", u=5),
    "record breaks three rules": _record(1, "u", 0, coeff="x", powers=[-1]),
    "bad v record before bad entry": _both(_record(0, "v", 0, coeff=None), lambda p: p["entries"].append(7)),
    "bad u record before bad v list": _both(_record(1, "u", 1, powers=[1]), _set(1, v="x")),
    "index before u list": _both(_set(1, k=9), _set(1, u=None)),
    "duplicate before its records": _both(_set(2, i=1, j=2, k=2), _record(2, "u", 0, coeff=None)),
    "later rule, earlier record": _both(_record(1, "u", 0, powers=[0, 0, 0, -2]), _replace_record(1, "u", 1, None)),
    "earlier entry's exponent": _both(_record(0, "u", 1, powers=[0.5, 0, 0, 0]), _set(1, i=5), _set(2, v=3)),
    "last record, then over the cap": _both(_record(0, "u", 0, powers=[9, 0, 0, 0]), _record(2, "v", 0, coeff=None)),
}


def _broken(case: str):
    return [] if case == "top level" else _with(_BROKEN[case])


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_bulk_parser_reports_the_oracle_violation(case):
    expected = _outcome(payload_oracle.theta_from_payload, _broken(case))
    assert issubclass(expected[0], ValueError)
    assert _outcome(theta_from_payload, _broken(case)) == expected


def test_the_table_breaks_every_rule():
    reported = {_outcome(payload_oracle.theta_from_payload, _broken(case))[1] for case in _BROKEN}
    rules = [
        "top level must be a JSON object",
        "missing field m_bar",
        "m_bar must be a positive integer",
        "missing field entries",
        "entries must be a list",
        "each entry must be an object",
        *(f"entry missing field {name}" for name in "ijkuv"),
        "entry indices must be integers",
        "entry indices must satisfy 1 <= i <= j <= m_bar",
        "entry index k must satisfy 1 <= k <= m_bar",
        "duplicate entry (1,2,2)",
        *(f"{what} must be a list of monomial records" for what in "uv"),
        *(f"{what} records must be objects" for what in "uv"),
        *(f"{what} records need coeff and powers" for what in "uv"),
        *(f"{what} coefficients must be finite numbers" for what in "uv"),
        *(f"{what} powers must list 2*m_bar = 4 exponents" for what in "uv"),
        *(f"{what} exponents must be nonnegative integers" for what in "uv"),
        "coefficient degree 7 exceeds the cap 6",
    ]
    assert set(rules) <= reported


# -- deliberate differences from the oracle ---------------------------------------

@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda p: p.update(m_bar=True), "m_bar must be a positive integer"),
        (_set(1, i=True), "entry indices must be integers"),
        (_set(1, k=False), "entry indices must be integers"),
        (_record(1, "u", 0, powers=[True, False, 0, 0]), "u exponents must be nonnegative integers"),
        (_record(1, "v", 0, powers=[0, 0, 0, True]), "v exponents must be nonnegative integers"),
    ],
)
def test_booleans_are_not_integers(mangle, message):
    payload = _with(mangle)
    with pytest.raises(SchemaViolation) as caught:
        theta_from_payload(payload)
    assert str(caught.value) == message


def test_boolean_m_bar_in_a_tensor_file_is_refused():
    with pytest.raises(SchemaViolation, match="m_bar must be a positive integer"):
        tensor_from_payload({"m_bar": True, "tensor": [0.0] * 16})


@pytest.mark.parametrize(
    "mangle",
    [lambda p: p.update(m_bar=True), _set(0, i=True), _record(0, "u", 0, powers=[True, False, 0, 0])],
)
def test_cli_curvature_exits_2_on_booleans(tmp_path, capsys, mangle):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(_with(mangle)), encoding="utf-8")
    assert main(["curvature", "--theta", str(path), "--point", "0,0,0,0"]) == 2
    assert "must be" in capsys.readouterr().err


def test_coefficient_too_large_for_a_double_is_not_finite():
    payload = _with(_record(1, "u", 0, coeff=10**400))
    with pytest.raises(OverflowError):
        payload_oracle.theta_from_payload(payload)
    with pytest.raises(SchemaViolation, match="^u coefficients must be finite numbers$"):
        theta_from_payload(payload)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), None, "1", True, 10**400, [1.0]])
def test_tensor_entries_must_be_finite_numbers(value):
    values = [0.0] * 16
    values[7] = value
    with pytest.raises(SchemaViolation, match="^tensor entries must be finite numbers$"):
        tensor_from_payload({"m_bar": 1, "tensor": values})


def test_tensor_values_are_read_exactly():
    values = [0.1, -0.0, 3, 2**60 + 1, 5e-324, -1e308] + [0.0] * 10
    assert tensor_from_payload({"m_bar": 1, "tensor": values}).flatten().tolist() == [float(v) for v in values]


# -- the size limit ------------------------------------------------------------

def _one_record_field(m_bar: int) -> dict:
    powers = [0] * (2 * m_bar)
    powers[0] = 1
    return {"m_bar": m_bar, "entries": [{"i": 1, "j": 1, "k": 1, "u": [{"coeff": 1.0, "powers": powers}], "v": []}]}


def test_oversize_field_is_refused_before_allocating():
    payload = _one_record_field(500)
    tracemalloc.start()
    try:
        with pytest.raises(SchemaViolation) as caught:
            theta_from_payload(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(caught.value) == (
        f"coefficient field needs {2 * 500**3 * 8} bytes of coefficient arrays (m_bar = 500, monomial count 1), "
        f"over the limit of {MAX_FIELD_BYTES} bytes"
    )


def test_size_limit_counts_distinct_monomials():
    m_bar = 128
    per_monomial = 2 * m_bar**3 * 8
    assert 8 * per_monomial <= MAX_FIELD_BYTES < 9 * per_monomial
    rows = [[int(c == n) for c in range(2 * m_bar)] for n in range(9)]
    records = [{"coeff": 1.0, "powers": row} for row in rows + rows]  # repeats add no monomial
    payload = {"m_bar": m_bar, "entries": [{"i": 1, "j": 1, "k": 1, "u": records, "v": []}]}
    with pytest.raises(SchemaViolation, match=rf"needs {9 * per_monomial} bytes .*monomial count 9\)"):
        theta_from_payload(payload)


def test_cli_curvature_exits_2_on_oversize_field(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(_one_record_field(500)), encoding="utf-8")
    assert main(["curvature", "--theta", str(path), "--point", "0,0"]) == 2
    assert f"over the limit of {MAX_FIELD_BYTES} bytes" in capsys.readouterr().err


# -- writing -------------------------------------------------------------------

def _payload_from_entries(theta) -> dict:
    """theta_to_payload by way of the ComplexPoly entries."""
    return {
        "m_bar": theta.m_bar,
        "entries": [
            {
                "i": i,
                "j": j,
                "k": k,
                "u": [{"coeff": c, "powers": list(p)} for p, c in sorted(poly.u.coeffs.items())],
                "v": [{"coeff": c, "powers": list(p)} for p, c in sorted(poly.v.coeffs.items())],
            }
            for (i, j, k), poly in sorted(theta.entries.items())
        ],
    }


@pytest.mark.parametrize("m_bar", [1, 2, 3])
def test_payload_written_from_arrays_matches_the_entries_route(m_bar):
    for _, theta in _random_fields(m_bar, 2):
        assert json.dumps(theta_to_payload(theta)) == json.dumps(_payload_from_entries(theta))
