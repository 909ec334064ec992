"""JSON file formats for tensors and coefficient fields.

Tensor files hold the flat entry list in row-major order with index formula
((a*m + b)*m + c)*m + d and the fixed basis order (e_1..e_mbar, f_1..f_mbar).
Coefficient files list entries (i, j, k) with i <= j and the real/imaginary
polynomials as coefficient/exponent records.  Both formats round-trip exactly
since JSON serializes doubles via shortest round-trip repr.

A coefficient file is read in bulk: one pass gathers its entries' indices
and its records into flat lists, and each schema rule is then checked once
over all of them.  When several rules are broken, the one reported is the
first a reader going through the file in order would meet: the earliest
entry, then within an entry its indices, u and v in turn, and within a
record its rules in the order listed in ``_RECORD_RULES``.  JSON booleans
are not integers, and a file whose dense coefficient arrays would exceed
``MAX_FIELD_BYTES`` is refused before they are allocated.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .connections import DEGREE_CAP, ThetaField, _require_degree_cap
from .errors import SchemaViolation
from .tensors import SpaceConfig, Tensor4

#: Largest coefficient field read from a file: the bytes of its dense U and V
#: arrays, 2 * m_bar^3 * (distinct exponent rows) doubles.
MAX_FIELD_BYTES = 256 * 2**20

_ENTRY_FIELDS = ("i", "j", "k", "u", "v")
_ABSENT = object()


def _require(condition: bool, rule: str) -> None:
    if not condition:
        raise SchemaViolation(rule)


def _read_m_bar(payload: dict) -> int:
    _require(isinstance(payload, dict), "top level must be a JSON object")
    _require("m_bar" in payload, "missing field m_bar")
    m_bar = payload["m_bar"]
    _require(
        isinstance(m_bar, int) and not isinstance(m_bar, bool) and m_bar >= 1,
        "m_bar must be a positive integer",
    )
    return m_bar


def _of_type(values: list, kinds) -> np.ndarray:
    """Which values are instances of ``kinds``; a bool never is."""
    bad = {t for t in set(map(type, values)) if not issubclass(t, kinds) or issubclass(t, bool)}
    return np.array([type(v) not in bad for v in values], dtype=bool) if bad else np.ones(len(values), dtype=bool)


def _masked(values: list, ok: np.ndarray, fill) -> list:
    """``values`` with ``fill`` wherever not ``ok``: the placeholder a later
    rule sees for a value that already broke an earlier one."""
    return values if ok.all() else [v if good else fill for v, good in zip(values, ok.tolist())]


def _floats(numbers: list) -> np.ndarray:
    """Ints and floats as doubles; an int too large for a double becomes inf."""
    try:
        return np.array(numbers, dtype=float)
    except OverflowError:
        return np.array([x if abs(x) <= sys.float_info.max else math.inf for x in numbers])


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct rows, index of each row among them, first row of each).

    The rows are sorted lexicographically by a stable sort, so the first of
    each run of equal rows is the earliest.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ordered[new], ids, order[new]


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
    rule = "tensor entries must be finite numbers"
    _require(_of_type(values, (int, float)).all(), rule)
    flat = _floats(values)
    _require(np.isfinite(flat).all(), rule)
    return Tensor4.from_flat(SpaceConfig(m_bar), flat)


def write_tensor_file(path: str | Path, tensor: Tensor4) -> None:
    Path(path).write_text(json.dumps(tensor_to_payload(tensor)), encoding="utf-8")


def read_tensor_file(path: str | Path) -> Tensor4:
    return tensor_from_payload(_load_json(path))


# -- coefficient-field files ------------------------------------------------

def _record_lists(coeffs: np.ndarray, powers: list[list[int]]) -> list[list[dict]]:
    """The records of each row of ``coeffs`` (n_entries, n_mon): its nonzero
    coefficients with their exponent vectors, in exponent order."""
    rows, cols = np.nonzero(coeffs)
    records = [{"coeff": c, "powers": list(powers[n])} for n, c in zip(cols.tolist(), coeffs[rows, cols].tolist())]
    bounds = np.searchsorted(rows, np.arange(len(coeffs) + 1)).tolist()
    return [records[start:stop] for start, stop in zip(bounds, bounds[1:])]


def theta_to_payload(theta: ThetaField) -> dict:
    """Entries (i, j, k) with i <= j in sorted order, each polynomial's records
    in the sorted exponent order of ``theta.arrays``."""
    U, V, E = theta.arrays
    powers = E.tolist()
    keys = theta.upper_keys()
    upper = tuple(keys.T)
    entries = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "u": u, "v": v}
        for (i, j, k), u, v in zip(keys.tolist(), _record_lists(U[upper], powers), _record_lists(V[upper], powers))
    ]
    return {"m_bar": theta.m_bar, "entries": entries}


# The rules on an entry's indices and on each record, in the order they are
# checked; a record's messages take u or v, a duplicate's the indices.
_INDEX_RULES = (
    "entry indices must be integers",
    "entry indices must satisfy 1 <= i <= j <= m_bar",
    "entry index k must satisfy 1 <= k <= m_bar",
    "duplicate entry ({},{},{})",
)
_RECORD_RULES = (
    "{} records must be objects",
    "{} records need coeff and powers",
    "{} coefficients must be finite numbers",
    "{} powers must list 2*m_bar = {} exponents",
    "{} exponents must be nonnegative integers",
)


class _Gathered:
    """The entries of a coefficient file up to the first one whose shape
    stops the reading, as flat lists in file order.

    ``indices`` holds i, j, k of each entry read; each polynomial read adds
    its entry number, u/v (0/1) and record count to ``owners`` and its
    records to ``records``.  ``stop`` is the violation that ended the
    reading early, as (position, message), or None.
    """

    def __init__(self, entries: list) -> None:
        self.indices: list = []
        self.owners: list[tuple[int, int, int]] = []
        self.records: list = []
        self.stop = None
        for e, entry in enumerate(entries):
            if not isinstance(entry, dict):
                self.stop = (e, 0, 0, 0), "each entry must be an object"
                return
            missing = [name for name in _ENTRY_FIELDS if name not in entry]
            if missing:
                self.stop = (e, 0, 0, 1), f"entry missing field {missing[0]}"
                return
            self.indices += (entry["i"], entry["j"], entry["k"])
            for uv, what in enumerate("uv"):
                records = entry[what]
                if not isinstance(records, list):
                    self.stop = (e, 1 + 2 * uv, 0, 0), f"{what} must be a list of monomial records"
                    return
                self.owners.append((e, uv, len(records)))
                self.records += records


def _index_violations(indices: list, m_bar: int) -> tuple[list, np.ndarray]:
    """Violations of the entry-index rules, and the (n_entries, 3) indices.

    Positions are (entry, 0, 0, rule) with the rules numbered after the
    two shape rules of an entry.  An index of the wrong type or outside
    1..m_bar is read as 0, which breaks the same range rule.
    """
    is_int = _of_type(indices, int)
    values = _masked(indices, is_int, 0)
    try:
        ijk = np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        ijk = np.array([x if 1 <= x <= m_bar else 0 for x in values], dtype=np.int64).reshape(-1, 3)
    i, j, k = ijk.T
    duplicate = np.ones(len(ijk), dtype=bool)
    duplicate[_distinct_rows(ijk)[2]] = False
    kept = (
        is_int.reshape(-1, 3).all(axis=1),
        (1 <= i) & (i <= j) & (j <= m_bar),
        (1 <= k) & (k <= m_bar),
        ~duplicate,
    )
    found = []
    for rule, (ok, message) in enumerate(zip(kept, _INDEX_RULES), start=2):
        e = _first(~ok)
        if e is not None:
            found.append(((e, 0, 0, rule), message.format(*indices[3 * e:3 * e + 3])))
    return found, ijk


def _exponent_codes(exponents: list) -> np.ndarray:
    """Exponents as int64 codes with their order and distinctness.

    A negative exponent keeps its sign.  When some exponent does not fit
    int64, the exponents above the degree cap, which only ever mark a
    monomial over the cap, are renumbered in order above it.
    """
    try:
        return np.fromiter(exponents, dtype=np.int64, count=len(exponents))
    except OverflowError:
        large = sorted({p for p in exponents if p > DEGREE_CAP})
        large = dict(zip(large, range(DEGREE_CAP + 1, DEGREE_CAP + 1 + len(large))))
        return np.array([large[p] if p > DEGREE_CAP else max(p, -1) for p in exponents], dtype=np.int64)


def theta_from_payload(payload: dict) -> ThetaField:
    m_bar = _read_m_bar(payload)
    _require("entries" in payload, "missing field entries")
    entries = payload["entries"]
    _require(isinstance(entries, list), "entries must be a list")
    m = 2 * m_bar
    read = _Gathered(entries)
    found, ijk = _index_violations(read.indices, m_bar)
    if read.stop is not None:
        found.append(read.stop)

    # Record rules, in _RECORD_RULES order.  A record that breaks a rule
    # holds a placeholder for the later ones, which cannot be reported first.
    records = read.records
    n = len(records)
    owner_entry, owner_uv, counts = np.array(read.owners, dtype=np.int64).reshape(-1, 3).T
    rec_entry, rec_uv = np.repeat(owner_entry, counts), np.repeat(owner_uv, counts)
    is_object = _of_type(records, dict)
    objects = _masked(records, is_object, {})
    coeffs, powers = (list(map(dict.get, objects, repeat(name), repeat(_ABSENT))) for name in ("coeff", "powers"))
    complete = np.array([c is not _ABSENT and p is not _ABSENT for c, p in zip(coeffs, powers)], dtype=bool)
    is_number = _of_type(coeffs, (int, float))
    values = _floats(_masked(coeffs, is_number, 0.0))
    is_list = _of_type(powers, list)
    shaped = is_list & (np.array(list(map(len, _masked(powers, is_list, ()))), dtype=np.int64) == m)
    rows = powers if shaped.all() else [p for p, ok in zip(powers, shaped.tolist()) if ok]
    exponents = list(chain.from_iterable(rows))
    codes = _exponent_codes(_masked(exponents, _of_type(exponents, int), -1))
    natural = np.zeros(n, dtype=bool)
    natural[shaped] = (codes >= 0).reshape(-1, m).all(axis=1)
    kept = (is_object, complete, is_number & np.isfinite(values), shaped, natural)
    for rule, (ok, message) in enumerate(zip(kept, _RECORD_RULES)):
        r = _first(~ok)
        if r is not None:
            what = "uv"[rec_uv[r]]
            found.append(((int(rec_entry[r]), 2 + 2 * int(rec_uv[r]), r, rule), message.format(what, m)))
    if found:
        raise SchemaViolation(min(found)[1])

    # Every record is sound: sum repeated terms in file order, mirror i <= j.
    E, monomial, first = _distinct_rows(codes.reshape(n, m))
    size = 2 * m_bar ** 3 * len(E) * 8
    _require(
        size <= MAX_FIELD_BYTES,
        f"coefficient field needs {size} bytes of coefficient arrays (m_bar = {m_bar}, monomial count {len(E)}), "
        f"over the limit of {MAX_FIELD_BYTES} bytes",
    )
    arrays = np.zeros((2, m_bar, m_bar, m_bar, len(E)))
    i, j, k = (ijk[rec_entry] - 1).T
    np.add.at(arrays, (rec_uv, i, j, k, monomial), values)
    arrays[rec_uv, j, i, k, monomial] = arrays[rec_uv, i, j, k, monomial]
    # A monomial over the cap is refused only if some sum of it is nonzero.
    over = np.any(arrays != 0, axis=(0, 1, 2, 3)) & (np.minimum(E, DEGREE_CAP + 1).sum(axis=1) > DEGREE_CAP)
    if over.any():
        _require_degree_cap(max(sum(rows[r]) for r in first[over].tolist()))
    return ThetaField.from_arrays(m_bar, arrays[0], arrays[1], E)


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
