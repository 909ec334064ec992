"""The per-record route to coefficient-file parsing, kept as an oracle for the tests.

The program validates and sums a coefficient file's records in bulk on flat
arrays.  Here every record is checked and summed on its own, one rule after
the other in file order, into a dict keyed by (u/v, entry, exponents), and
the nonzero sums go through ``arrays_from_terms``.  The first violated rule
raises, so its message is the one the bulk route must report.  One
deliberate difference: this route reads JSON booleans as the integers 1 and 0
(``isinstance(True, int)`` holds), which the program rejects.
"""
from __future__ import annotations

import math

from affine_kahler.connections import ThetaField, arrays_from_terms
from affine_kahler.errors import SchemaViolation


def _require(condition: bool, rule: str) -> None:
    if not condition:
        raise SchemaViolation(rule)


def _read_m_bar(payload: dict) -> int:
    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require("m_bar" in payload, "missing field m_bar")
    m_bar = payload["m_bar"]
    _require(isinstance(m_bar, int) and m_bar >= 1, "m_bar must be a positive integer")
    return m_bar


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
