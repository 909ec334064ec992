"""JSON file formats for tensors and coefficient fields.

Tensor files hold the flat entry list in row-major order with index formula
((a*m + b)*m + c)*m + d and the fixed basis order (e_1..e_mbar, f_1..f_mbar).
Coefficient files list entries (i, j, k) with i <= j and the real/imaginary
polynomials as coefficient/exponent records.  Both formats round-trip exactly
since JSON serializes doubles via shortest round-trip repr.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .connections import ThetaField, arrays_from_terms
from .errors import SchemaViolation
from .polynomials import PolyScalar
from .tensors import SpaceConfig, Tensor4


def _require(condition: bool, rule: str) -> None:
    if not condition:
        raise SchemaViolation(rule)


def _read_m_bar(payload: dict) -> int:
    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require("m_bar" in payload, "missing field m_bar")
    m_bar = payload["m_bar"]
    _require(isinstance(m_bar, int) and m_bar >= 1, "m_bar must be a positive integer")
    return m_bar


# -- tensor files -----------------------------------------------------------

def tensor_to_payload(tensor: Tensor4) -> dict:
    return {"m_bar": tensor.config.m_bar, "tensor": tensor.flatten().tolist()}


def tensor_from_payload(payload: dict) -> Tensor4:
    m_bar = _read_m_bar(payload)
    _require("tensor" in payload, "missing field tensor")
    values = payload["tensor"]
    _require(isinstance(values, list), "tensor must be a list of numbers")
    m = 2 * m_bar
    _require(
        len(values) == m ** 4,
        f"tensor list must have length (2*m_bar)^4 = {m ** 4}, got {len(values)}",
    )
    for value in values:
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
            "tensor entries must be finite numbers",
        )
    return Tensor4.from_flat(SpaceConfig(m_bar), values)


def write_tensor_file(path: str | Path, tensor: Tensor4) -> None:
    Path(path).write_text(json.dumps(tensor_to_payload(tensor)), encoding="utf-8")


def read_tensor_file(path: str | Path) -> Tensor4:
    return tensor_from_payload(_load_json(path))


# -- coefficient-field files ------------------------------------------------

def _poly_to_records(poly: PolyScalar) -> list[dict]:
    return [
        {"coeff": coeff, "powers": list(powers)}
        for powers, coeff in sorted(poly.coeffs.items())
    ]


def _add_records(sums: dict, uv: int, key: tuple[int, int, int], records, m_bar: int, what: str) -> None:
    """Add one polynomial's monomial records to ``sums``, in file order."""
    _require(isinstance(records, list), f"{what} must be a list of monomial records")
    for record in records:
        _require(isinstance(record, dict), f"{what} records must be objects")
        _require("coeff" in record and "powers" in record, f"{what} records need coeff and powers")
        coeff = record["coeff"]
        powers = record["powers"]
        _require(
            isinstance(coeff, (int, float)) and not isinstance(coeff, bool) and math.isfinite(coeff),
            f"{what} coefficients must be finite numbers",
        )
        _require(
            isinstance(powers, list) and len(powers) == 2 * m_bar,
            f"{what} powers must list 2*m_bar = {2 * m_bar} exponents",
        )
        _require(
            all(isinstance(p, int) and p >= 0 for p in powers),
            f"{what} exponents must be nonnegative integers",
        )
        term = (uv, *key, tuple(powers))
        sums[term] = sums.get(term, 0.0) + float(coeff)


def theta_to_payload(theta: ThetaField) -> dict:
    entries = [
        {
            "i": i,
            "j": j,
            "k": k,
            "u": _poly_to_records(poly.u),
            "v": _poly_to_records(poly.v),
        }
        for (i, j, k), poly in sorted(theta.entries.items())
    ]
    return {"m_bar": theta.m_bar, "entries": entries}


def theta_from_payload(payload: dict) -> ThetaField:
    m_bar = _read_m_bar(payload)
    _require("entries" in payload, "missing field entries")
    records = payload["entries"]
    _require(isinstance(records, list), "entries must be a list")
    sums: dict[tuple, float] = {}
    seen = set()
    for record in records:
        _require(isinstance(record, dict), "each entry must be an object")
        for name in ("i", "j", "k", "u", "v"):
            _require(name in record, f"entry missing field {name}")
        i, j, k = record["i"], record["j"], record["k"]
        _require(
            all(isinstance(x, int) for x in (i, j, k)),
            "entry indices must be integers",
        )
        _require(1 <= i <= j <= m_bar, "entry indices must satisfy 1 <= i <= j <= m_bar")
        _require(1 <= k <= m_bar, "entry index k must satisfy 1 <= k <= m_bar")
        _require((i, j, k) not in seen, f"duplicate entry ({i},{j},{k})")
        seen.add((i, j, k))
        for uv, what in enumerate(("u", "v")):
            _add_records(sums, uv, (i - 1, j - 1, k - 1), record[what], m_bar, what)
    terms = [(*term, value) for term, value in sums.items() if value != 0.0]
    return ThetaField.from_arrays(m_bar, *arrays_from_terms(m_bar, terms))


def write_theta_file(path: str | Path, theta: ThetaField) -> None:
    Path(path).write_text(json.dumps(theta_to_payload(theta)), encoding="utf-8")


def read_theta_file(path: str | Path) -> ThetaField:
    return theta_from_payload(_load_json(path))


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaViolation(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid JSON: {exc}") from exc
