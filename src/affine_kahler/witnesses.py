"""Catalog of closed-form witness constructions and their expected value tables.

Each case is data built from its parameters rho: a coefficient field, given as
(entry, z | zbar, line, re, im) terms, and an ordered list of table rows.  One
runner builds the field, its connection and its curvature at the origin once,
then checks every row against the closed forms: connection coefficients,
curvature entries, trace tables and module placements.  Value checks are
exact: every expected number is a small dyadic rational, so double arithmetic
reproduces it with error exactly zero.  Membership checks (projection norms)
carry tiny tolerances instead.  Everything runs on coefficient arrays: the
displayed Christoffel data is a dense array compared with the connection's
coefficients over its exponent rows, and fields come from parameter vectors.

Case identifiers are stable strings used by the command line:
4.1.1, 4.1.2, 4.1.3a, 4.1.3b, 4.2.w9w10, 4.2.w12, 4.2.w11.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .connections import (
    AffineConnection,
    ThetaField,
    connection_from_theta,
    curvature_at,
)
from .decomposition import (
    ANTIHOLOMORPHIC,
    HOLOMORPHIC,
    W_LABELS,
    ColumnKey,
    _column_keys,
    bilinear_decompose,
    theta_from_coefficients,
    w_project,
)
from .errors import DomainViolation
from .tensors import Bilinear2, SpaceConfig, Tensor4, TraceSet, j_parity_residuals, ricci_traces

#: Tolerance for projection-norm (membership) checks; value checks are exact.
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class WitnessCheck:
    """One comparison row: exact equality, bounded distance, or strict positivity."""

    name: str
    expected: float | str
    computed: float
    kind: str = "exact"  # "exact" | "close" | "positive"
    tol: float = 0.0

    @property
    def ok(self) -> bool:
        if self.kind == "exact":
            return self.computed == self.expected
        if self.kind == "close":
            return abs(self.computed) <= self.tol
        return self.computed > self.tol


@dataclass(frozen=True)
class WitnessCase:
    case_id: str
    m_bar: int
    rho: tuple[float, ...]
    checks: tuple[WitnessCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def _idx(label: str, m_bar: int) -> int:
    """Position of a basis label (e1.., f1..) or a coordinate label (x1.., y1..)."""
    block, num = label[0], int(label[1:])
    if not 1 <= num <= m_bar:
        raise DomainViolation(f"label {label} needs m_bar >= {num}")
    return num - 1 if block in "ex" else m_bar + num - 1


def _field(m_bar: int, terms: list[tuple]) -> ThetaField:
    """Sum of (entry, "z" | "zbar", line, re, im) terms: (re + i im) z_line or its conjugate."""
    keys = _column_keys(m_bar)
    slot = {key: n for n, key in enumerate(keys)}
    coeffs = np.zeros(len(keys))
    for (i, j, k), coord, line, re, im in terms:
        kind = HOLOMORPHIC if coord == "z" else ANTIHOLOMORPHIC
        for part, value in (("re", re), ("im", im)):
            coeffs[slot[ColumnKey(min(i, j), max(i, j), k, line, kind, part)]] += value
    return theta_from_coefficients(SpaceConfig(m_bar), coeffs)


@dataclass(frozen=True)
class _Origin:
    """A field with its connection, its curvature at the origin and that tensor's traces."""

    theta: ThetaField
    conn: AffineConnection
    A: Tensor4
    traces: TraceSet

    @property
    def m_bar(self) -> int:
        return self.theta.m_bar


def _at_origin(theta: ThetaField) -> _Origin:
    conn = connection_from_theta(theta)
    A = curvature_at(conn, np.zeros(2 * theta.m_bar))
    return _Origin(theta, conn, A, ricci_traces(A))


# ---------------------------------------------------------------------------
# row checks
# ---------------------------------------------------------------------------

def _entry_checks(A: Tensor4, m_bar: int, items: list[tuple[str, float]]) -> list[WitnessCheck]:
    checks = []
    for spec, expected in items:
        labels = spec[2:-1].split(",")
        a, b, c, d = (_idx(lbl, m_bar) for lbl in labels)
        checks.append(WitnessCheck(spec, expected, float(A.entries[a, b, c, d])))
    return checks


def _rho_checks(rho: Bilinear2, which: str, m_bar: int, items: list[tuple[str, str, float]]) -> list[WitnessCheck]:
    checks = []
    for la, lb, expected in items:
        value = float(rho.entries[_idx(la, m_bar), _idx(lb, m_bar)])
        checks.append(WitnessCheck(f"{which}({la},{lb})", expected, value))
    return checks


def _gamma_display_check(
    conn: AffineConnection,
    m_bar: int,
    display: dict[tuple[str, str], list[tuple[str, float, str]]],
) -> WitnessCheck:
    """Max coefficient misfit of the full Christoffel data against a display.

    The display is a dense (a, b, c, coordinate) array of coefficients of
    single coordinates, compared with the connection's coefficients on its
    single-coordinate monomials.  Triples absent from the display are
    expected to vanish, and a coefficient on any other monomial counts in
    full, so the check also catches spurious extra terms.
    """
    m = 2 * m_bar
    want = np.zeros((m, m, m, m))
    for (la, lb), column in display.items():
        a, b = _idx(la, m_bar), _idx(lb, m_bar)
        for lc, coeff, var in column:
            want[a, b, _idx(lc, m_bar), _idx(var, m_bar)] += coeff
    linear = conn.exponents.sum(axis=1) == 1
    got = np.zeros_like(want)
    got[..., conn.exponents[linear].argmax(axis=1)] = conn.coeffs[..., linear]
    worst = max(np.max(np.abs(got - want)), np.max(np.abs(conn.coeffs[..., ~linear]), initial=0.0))
    return WitnessCheck("nabla_display", 0.0, float(worst))


def _bilinear_membership_checks(
    theta: Bilinear2, prefix: str, nonzero: tuple[str, ...], zero: tuple[str, ...]
) -> list[WitnessCheck]:
    split = bilinear_decompose(theta).parts()
    checks = []
    for label in zero:
        checks.append(
            WitnessCheck(f"{prefix}[{label}]", 0.0, split[label].norm(), kind="close", tol=MEMBERSHIP_TOL)
        )
    for label in nonzero:
        checks.append(
            WitnessCheck(f"{prefix}[{label}]", ">0", split[label].norm(), kind="positive", tol=MEMBERSHIP_TOL)
        )
    return checks


def _module_placement_checks(
    A: Tensor4, allowed: tuple[str, ...], require_nonzero: tuple[str, ...]
) -> list[WitnessCheck]:
    decomp = w_project(A)
    scale = max(1.0, A.norm())
    checks = [
        WitnessCheck("w_residual", 0.0, decomp.residual, kind="close", tol=MEMBERSHIP_TOL * scale)
    ]
    for label in W_LABELS:
        if label in allowed:
            continue
        checks.append(
            WitnessCheck(
                f"norm[{label}]", 0.0, decomp.norms[label], kind="close", tol=MEMBERSHIP_TOL * scale
            )
        )
    for label in require_nonzero:
        checks.append(
            WitnessCheck(f"norm[{label}]", ">0", decomp.norms[label], kind="positive", tol=MEMBERSHIP_TOL)
        )
    return checks


def _swap_labels_12(spec: str) -> str:
    return spec.translate(str.maketrans({"1": "2", "2": "1"}))


def _pair_checks(
    origin: _Origin,
    sign: int,
    target: str,
    table: list[tuple[str, float]],
    rho14_first: list[tuple[str, str, float]],
    rho14_second: list[tuple[str, str, float]],
) -> list[WitnessCheck]:
    """A tensor and its relabelling under z1 <-> z2, combined into one module.

    With sign -1 both tensors (A1, A2) are antisymmetric in the last pair with
    rho13 = -rho14, and A1 - A2 lies in the target; with sign +1 both (A3, A4)
    are symmetric in the last pair with rho13 = rho14, and A3 + A4 lies in it.
    The second tensor's entry table is the first's with labels 1 <-> 2.
    """
    first, second, pair_law, trace_law, combine = (
        ("A1", "A2", "antisym34", "rho13_plus_rho14", "minus")
        if sign < 0
        else ("A3", "A4", "sym34", "rho13_minus_rho14", "plus")
    )
    swapped = _at_origin(origin.theta.swap_complex_coordinates(1, 2))
    m_bar = origin.m_bar
    checks = _entry_checks(origin.A, m_bar, table)
    checks += [
        replace(chk, name=second + chk.name[1:])
        for chk in _entry_checks(swapped.A, m_bar, [(_swap_labels_12(spec), val) for spec, val in table])
    ]
    for label, side, rho14 in ((first, origin, rho14_first), (second, swapped, rho14_second)):
        checks += [
            replace(chk, name=f"{label}_{chk.name}")
            for chk in _rho_checks(side.traces.rho14, "rho14", m_bar, rho14)
        ]
        swap34 = np.einsum("abdc->abcd", side.A.entries)
        checks.append(
            WitnessCheck(f"{label}_{pair_law}", 0.0, float(np.max(np.abs(side.A.entries - sign * swap34))))
        )
        gap = side.traces.rho13.entries - sign * side.traces.rho14.entries
        checks.append(WitnessCheck(f"{label}_{trace_law}", 0.0, float(np.max(np.abs(gap)))))
    prefix = f"{first}_{combine}_{second}_"
    combined = origin.A + swapped.A * sign
    checks.append(WitnessCheck(prefix + "norm", ">0", combined.norm(), kind="positive", tol=MEMBERSHIP_TOL))
    checks += [
        replace(chk, name=prefix + chk.name)
        for chk in _module_placement_checks(combined, allowed=(target,), require_nonzero=(target,))
    ]
    return checks


def _bianchi_combination(origin: _Origin) -> float:
    # The combination that obstructs membership in the symmetric-pair modules:
    # the Bianchi sum of the last-two-slot symmetrization is 1/2, not 0.
    entries = origin.A.entries
    sym = (entries + np.einsum("abdc->abcd", entries)) / 2.0
    e1, e2, f1, f3 = (_idx(label, origin.m_bar) for label in ("e1", "e2", "f1", "f3"))
    return float(sym[f3, f1, e2, e1] + sym[f1, e2, f3, e1] + sym[e2, f3, f1, e1])


_SCALARS: dict[str, Callable[[_Origin], float]] = {
    "tau": lambda o: o.traces.tau,
    "tau_tilde_J": lambda o: o.traces.tau_tilde_j,
    "rho13_norm": lambda o: o.traces.rho13.norm(),
    "rho14_norm": lambda o: o.traces.rho14.norm(),
    "parity_odd_part": lambda o: j_parity_residuals(o.A)[0],
    "parity_even_part": lambda o: j_parity_residuals(o.A)[1],
    "bianchi_combination": _bianchi_combination,
}

#: Row kind -> check helper; each helper takes the evaluated case and the row's fields.
_ROW_CHECKS: dict[str, Callable[..., list[WitnessCheck]]] = {
    "gamma": lambda o, display: [_gamma_display_check(o.conn, o.m_bar, display)],
    "A": lambda o, items: _entry_checks(o.A, o.m_bar, items),
    "rho14": lambda o, items: _rho_checks(o.traces.rho14, "rho14", o.m_bar, items),
    "rho13": lambda o, items: _rho_checks(o.traces.rho13, "rho13", o.m_bar, items),
    "scalars": lambda o, items: [WitnessCheck(name, want, _SCALARS[name](o)) for name, want in items],
    "bilinear": lambda o, trace, nonzero, zero: _bilinear_membership_checks(
        getattr(o.traces, trace), f"{trace}_part", nonzero, zero
    ),
    "placement": lambda o, allowed, nonzero: _module_placement_checks(o.A, allowed, nonzero),
    "pair": _pair_checks,
}


# ---------------------------------------------------------------------------
# case tables: (field terms, table rows), both built from rho
# ---------------------------------------------------------------------------

def _table_4_1_1(r1: float, r2: float) -> tuple[list, list]:
    field = [((1, 1, 1), "zbar", 1, r1, 0.0), ((1, 2, 2), "zbar", 1, 0.0, r2)]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e1", r1, "x1"), ("f1", -r1, "y1")],
            ("f1", "f1"): [("e1", -r1, "x1"), ("f1", r1, "y1")],
            ("e1", "f1"): [("e1", r1, "y1"), ("f1", r1, "x1")],
            ("f1", "e1"): [("e1", r1, "y1"), ("f1", r1, "x1")],
            ("e1", "e2"): [("e2", r2, "y1"), ("f2", r2, "x1")],
            ("e2", "e1"): [("e2", r2, "y1"), ("f2", r2, "x1")],
            ("f1", "f2"): [("e2", -r2, "y1"), ("f2", -r2, "x1")],
            ("f2", "f1"): [("e2", -r2, "y1"), ("f2", -r2, "x1")],
            ("e1", "f2"): [("e2", -r2, "x1"), ("f2", r2, "y1")],
            ("f1", "e2"): [("e2", -r2, "x1"), ("f2", r2, "y1")],
            ("e2", "f1"): [("e2", -r2, "x1"), ("f2", r2, "y1")],
            ("f2", "e1"): [("e2", -r2, "x1"), ("f2", r2, "y1")],
        }),
        ("A", [
            ("A(e1,f1,e1,f1)", 2 * r1),
            ("A(e1,f1,f1,e1)", -2 * r1),
            ("A(e1,e2,e1,f2)", r2),
            ("A(e1,f2,f1,f2)", -r2),
            ("A(e1,e2,f1,e2)", -r2),
            ("A(e1,f2,e1,e2)", -r2),
            ("A(f1,e2,e1,e2)", r2),
            ("A(f1,f2,f1,e2)", -r2),
            ("A(f1,e2,f1,f2)", r2),
            ("A(f1,f2,e1,f2)", r2),
            ("A(e1,f1,f2,f2)", -2 * r2),
            ("A(e1,f1,e2,e2)", -2 * r2),
        ]),
        ("rho14", [
            ("e1", "e1", -2 * r1),
            ("f1", "f1", -2 * r1),
            ("e1", "f1", 2 * r2),
            ("f1", "e1", -2 * r2),
        ]),
        ("scalars", [("tau", -4 * r1), ("tau_tilde_J", -4 * r2)]),
    ]
    return field, rows


def _table_4_1_2(r1: float, r2: float) -> tuple[list, list]:
    field = [((1, 1, 1), "z", 2, r1, 0.0), ((2, 2, 2), "z", 1, r2, 0.0)]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e1", r1, "x2"), ("f1", r1, "y2")],
            ("f1", "f1"): [("e1", -r1, "x2"), ("f1", -r1, "y2")],
            ("e1", "f1"): [("e1", -r1, "y2"), ("f1", r1, "x2")],
            ("f1", "e1"): [("e1", -r1, "y2"), ("f1", r1, "x2")],
            ("e2", "e2"): [("e2", r2, "x1"), ("f2", r2, "y1")],
            ("f2", "f2"): [("e2", -r2, "x1"), ("f2", -r2, "y1")],
            ("e2", "f2"): [("e2", -r2, "y1"), ("f2", r2, "x1")],
            ("f2", "e2"): [("e2", -r2, "y1"), ("f2", r2, "x1")],
        }),
        ("A", [
            ("A(e2,e1,e1,e1)", r1),
            ("A(e2,f1,f1,e1)", -r1),
            ("A(f2,e1,e1,f1)", r1),
            ("A(f2,f1,f1,f1)", -r1),
            ("A(e2,e1,f1,f1)", r1),
            ("A(e2,f1,e1,f1)", r1),
            ("A(f2,e1,f1,e1)", -r1),
            ("A(f2,f1,e1,e1)", -r1),
            ("A(e1,e2,e2,e2)", r2),
            ("A(e1,f2,f2,e2)", -r2),
            ("A(f1,e2,e2,f2)", r2),
            ("A(f1,f2,f2,f2)", -r2),
            ("A(e1,e2,f2,f2)", r2),
            ("A(e1,f2,e2,f2)", r2),
            ("A(f1,e2,f2,e2)", -r2),
            ("A(f1,f2,e2,e2)", -r2),
        ]),
        ("rho14", [
            ("e2", "e1", -2 * r1),
            ("f2", "f1", 2 * r1),
            ("e1", "e2", -2 * r2),
            ("f1", "f2", 2 * r2),
        ]),
    ]
    # Symmetry type of rho14 per parameter choice; the symmetric variant is
    # J-odd, so it lands in S2- (see the README labeling note).
    if r1 == r2 and r1 != 0.0:
        rows.append(("bilinear", "rho14", ("S2-",), ("S2_0+", "R<.,.>", "L2-", "L2_0+", "R.Omega")))
    if r1 == -r2 and r1 != 0.0:
        rows.append(("bilinear", "rho14", ("L2-",), ("S2-", "S2_0+", "R<.,.>", "L2_0+", "R.Omega")))
    return field, rows


def _table_4_1_3a(r1: float, r2: float, r3: float, r4: float) -> tuple[list, list]:
    field = [
        ((1, 1, 1), "zbar", 1, r1, 0.0),
        ((1, 1, 1), "zbar", 2, r2, 0.0),
        ((2, 2, 2), "zbar", 2, r3, 0.0),
        ((2, 2, 2), "zbar", 1, r4, 0.0),
    ]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e1", r1, "x1"), ("e1", r2, "x2"), ("f1", -r1, "y1"), ("f1", -r2, "y2")],
            ("f1", "f1"): [("e1", -r1, "x1"), ("e1", -r2, "x2"), ("f1", r1, "y1"), ("f1", r2, "y2")],
            ("e1", "f1"): [("e1", r1, "y1"), ("e1", r2, "y2"), ("f1", r1, "x1"), ("f1", r2, "x2")],
            ("f1", "e1"): [("e1", r1, "y1"), ("e1", r2, "y2"), ("f1", r1, "x1"), ("f1", r2, "x2")],
            ("e2", "e2"): [("e2", r3, "x2"), ("e2", r4, "x1"), ("f2", -r3, "y2"), ("f2", -r4, "y1")],
            ("f2", "f2"): [("e2", -r3, "x2"), ("e2", -r4, "x1"), ("f2", r3, "y2"), ("f2", r4, "y1")],
            ("e2", "f2"): [("e2", r3, "y2"), ("e2", r4, "y1"), ("f2", r3, "x2"), ("f2", r4, "x1")],
            ("f2", "e2"): [("e2", r3, "y2"), ("e2", r4, "y1"), ("f2", r3, "x2"), ("f2", r4, "x1")],
        }),
        ("A", [
            ("A(e1,f1,f1,e1)", -2 * r1),
            ("A(e1,f1,e1,f1)", 2 * r1),
            ("A(e2,e1,e1,e1)", r2),
            ("A(e2,f1,f1,e1)", -r2),
            ("A(e2,e1,f1,f1)", r2),
            ("A(e2,f1,e1,f1)", r2),
            ("A(f2,e1,e1,f1)", -r2),
            ("A(f2,f1,f1,f1)", r2),
            ("A(f2,e1,f1,e1)", r2),
            ("A(f2,f1,e1,e1)", r2),
            ("A(e2,f2,f2,e2)", -2 * r3),
            ("A(e2,f2,e2,f2)", 2 * r3),
            ("A(e1,e2,e2,e2)", r4),
            ("A(e1,f2,f2,e2)", -r4),
            ("A(e1,e2,f2,f2)", r4),
            ("A(e1,f2,e2,f2)", r4),
            ("A(f1,e2,e2,f2)", -r4),
            ("A(f1,f2,f2,f2)", r4),
            ("A(f1,e2,f2,e2)", r4),
            ("A(f1,f2,e2,e2)", r4),
        ]),
        ("rho14", [
            ("e1", "e1", -2 * r1),
            ("f1", "f1", -2 * r1),
            ("e1", "e2", -2 * r4),
            ("f1", "f2", -2 * r4),
            ("e2", "e2", -2 * r3),
            ("f2", "f2", -2 * r3),
            ("e2", "e1", -2 * r2),
            ("f2", "f1", -2 * r2),
        ]),
        ("rho13", [
            ("e1", "e1", 2 * r1),
            ("f1", "f1", 2 * r1),
            ("e2", "e2", 2 * r3),
            ("f2", "f2", 2 * r3),
            ("e1", "e2", 0.0),
            ("f1", "f2", 0.0),
            ("e2", "e1", 0.0),
            ("f2", "f1", 0.0),
        ]),
        ("scalars", [("tau", -4 * r1 - 4 * r3), ("tau_tilde_J", 0.0)]),
    ]
    rho = (r1, r2, r3, r4)
    if rho == (0.0, 1.0, 0.0, 1.0):
        rows.append(("bilinear", "rho14", ("S2_0+",), ("S2-", "R<.,.>", "L2-", "L2_0+", "R.Omega")))
        rows.append(("scalars", [("rho13_norm", 0.0)]))
    if rho == (0.0, 1.0, 0.0, -1.0):
        rows.append(("bilinear", "rho14", ("L2_0+",), ("S2-", "S2_0+", "R<.,.>", "L2-", "R.Omega")))
        rows.append(("scalars", [("rho13_norm", 0.0)]))
    if rho == (1.0, 0.0, -1.0, 0.0):
        rows.append(("bilinear", "rho13", ("S2_0+",), ("S2-", "R<.,.>", "L2-", "L2_0+", "R.Omega")))
    return field, rows


def _table_4_1_3b(r5: float) -> tuple[list, list]:
    field = [((1, 2, 2), "zbar", 2, r5, 0.0)]
    rows = [
        ("gamma", {
            ("e1", "e2"): [("e2", r5, "x2"), ("f2", -r5, "y2")],
            ("e2", "e1"): [("e2", r5, "x2"), ("f2", -r5, "y2")],
            ("f1", "f2"): [("e2", -r5, "x2"), ("f2", r5, "y2")],
            ("f2", "f1"): [("e2", -r5, "x2"), ("f2", r5, "y2")],
            ("e1", "f2"): [("e2", r5, "y2"), ("f2", r5, "x2")],
            ("f1", "e2"): [("e2", r5, "y2"), ("f2", r5, "x2")],
            ("e2", "f1"): [("e2", r5, "y2"), ("f2", r5, "x2")],
            ("f2", "e1"): [("e2", r5, "y2"), ("f2", r5, "x2")],
        }),
        ("A", [
            ("A(e2,e1,e2,e2)", r5),
            ("A(e2,f1,f2,e2)", -r5),
            ("A(f2,e1,e2,f2)", -r5),
            ("A(f2,f1,f2,f2)", r5),
            ("A(e2,e1,f2,f2)", r5),
            ("A(e2,f1,e2,f2)", r5),
            ("A(f2,e1,f2,e2)", r5),
            ("A(f2,f1,e2,e2)", r5),
            ("A(e2,f2,e1,f2)", 2 * r5),
            ("A(e2,f2,f1,e2)", -2 * r5),
        ]),
        ("rho13", [("e1", "e2", 2 * r5), ("f1", "f2", 2 * r5)]),
    ]
    if r5 != 0.0:
        rows.append(("bilinear", "rho13", ("S2_0+", "L2_0+"), ("S2-", "R<.,.>", "L2-", "R.Omega")))
    return field, rows


def _table_4_2_w9w10(r1: float, r2: float, r3: float) -> tuple[list, list]:
    field = [
        ((1, 1, 2), "zbar", 1, r1, 0.0),
        ((1, 1, 1), "zbar", 2, r3, 0.0),
        ((1, 2, 1), "zbar", 1, r2, 0.0),
    ]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e2", r1, "x1"), ("f2", -r1, "y1"), ("e1", r3, "x2"), ("f1", -r3, "y2")],
            ("f1", "f1"): [("e2", -r1, "x1"), ("f2", r1, "y1"), ("e1", -r3, "x2"), ("f1", r3, "y2")],
            ("f1", "e1"): [("e2", r1, "y1"), ("f2", r1, "x1"), ("e1", r3, "y2"), ("f1", r3, "x2")],
            ("e1", "f1"): [("e2", r1, "y1"), ("f2", r1, "x1"), ("e1", r3, "y2"), ("f1", r3, "x2")],
            ("e1", "e2"): [("e1", r2, "x1"), ("f1", -r2, "y1")],
            ("e2", "e1"): [("e1", r2, "x1"), ("f1", -r2, "y1")],
            ("f1", "f2"): [("e1", -r2, "x1"), ("f1", r2, "y1")],
            ("f2", "f1"): [("e1", -r2, "x1"), ("f1", r2, "y1")],
            ("f1", "e2"): [("e1", r2, "y1"), ("f1", r2, "x1")],
            ("e1", "f2"): [("e1", r2, "y1"), ("f1", r2, "x1")],
            ("e2", "f1"): [("e1", r2, "y1"), ("f1", r2, "x1")],
            ("f2", "e1"): [("e1", r2, "y1"), ("f1", r2, "x1")],
        }),
        ("A", [
            ("A(e1,f1,e1,f2)", 2 * r1),
            ("A(e1,f1,f1,e2)", -2 * r1),
            ("A(e1,f1,e2,f1)", 2 * r2),
            ("A(e1,f1,f2,e1)", -2 * r2),
            ("A(e1,e2,e1,e1)", r2 - r3),
            ("A(e1,e2,f1,f1)", r2 - r3),
            ("A(e1,f2,e1,f1)", r2 + r3),
            ("A(e1,f2,f1,e1)", -r2 - r3),
            ("A(f1,f2,e1,e1)", r2 - r3),
            ("A(f1,f2,f1,f1)", r2 - r3),
            ("A(f1,e2,e1,f1)", -r2 - r3),
            ("A(f1,e2,f1,e1)", r2 + r3),
        ]),
    ]
    rho = (r1, r2, r3)
    # pair rows: sign, target module, the entry table of the first tensor
    # (the second's is its 1 <-> 2 relabelling), rho14 of the first, rho14 of the second
    if rho == (-0.5, -0.5, -0.5):
        rows.append(("pair", -1, "W9", [
            ("A(e1,f1,e1,f2)", -1.0),
            ("A(f1,e1,f1,e2)", -1.0),
            ("A(f2,e1,f1,e1)", -1.0),
            ("A(e2,f1,e1,f1)", -1.0),
            ("A(e1,f1,f2,e1)", 1.0),
            ("A(f1,e1,e2,f1)", 1.0),
            ("A(f2,e1,e1,f1)", 1.0),
            ("A(e2,f1,f1,e1)", 1.0),
        ],
            [("e1", "e2", 1.0), ("e2", "e1", 1.0), ("f1", "f2", 1.0), ("f2", "f1", 1.0)],
            [("e1", "e2", 1.0), ("e2", "e1", 1.0), ("f1", "f2", 1.0), ("f2", "f1", 1.0)],
        ))
    if rho == (0.5, -0.5, 0.5):
        rows.append(("pair", 1, "W10", [
            ("A(e1,f1,e1,f2)", 1.0),
            ("A(e1,f1,f2,e1)", 1.0),
            ("A(e1,f1,f1,e2)", -1.0),
            ("A(e1,f1,e2,f1)", -1.0),
            ("A(e1,e2,f1,f1)", -1.0),
            ("A(e1,e2,e1,e1)", -1.0),
            ("A(f1,f2,e1,e1)", -1.0),
            ("A(f1,f2,f1,f1)", -1.0),
        ],
            [("e1", "e2", 1.0), ("f1", "f2", 1.0), ("e2", "e1", -1.0), ("f2", "f1", -1.0)],
            [("e2", "e1", 1.0), ("f2", "f1", 1.0), ("e1", "e2", -1.0), ("f1", "f2", -1.0)],
        ))
    return field, rows


def _table_4_2_w12() -> tuple[list, list]:
    field = [((1, 1, 2), "z", 3, 1.0, 0.0)]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e2", 1.0, "x3"), ("f2", 1.0, "y3")],
            ("f1", "f1"): [("e2", -1.0, "x3"), ("f2", -1.0, "y3")],
            ("e1", "f1"): [("e2", -1.0, "y3"), ("f2", 1.0, "x3")],
            ("f1", "e1"): [("e2", -1.0, "y3"), ("f2", 1.0, "x3")],
        }),
        ("A", [
            ("A(e3,e1,e1,e2)", 1.0),
            ("A(e3,f1,f1,e2)", -1.0),
            ("A(f3,e1,e1,f2)", 1.0),
            ("A(f3,f1,f1,f2)", -1.0),
            ("A(e3,e1,f1,f2)", 1.0),
            ("A(e3,f1,e1,f2)", 1.0),
            ("A(f3,e1,f1,e2)", -1.0),
            ("A(f3,f1,e1,e2)", -1.0),
        ]),
        ("scalars", [("rho14_norm", 0.0), ("parity_even_part", 0.0)]),
        ("placement", ("W12",), ("W12",)),
    ]
    return field, rows


def _table_4_2_w11() -> tuple[list, list]:
    field = [((1, 1, 2), "zbar", 3, 1.0, 0.0)]
    rows = [
        ("gamma", {
            ("e1", "e1"): [("e2", 1.0, "x3"), ("f2", -1.0, "y3")],
            ("f1", "f1"): [("e2", -1.0, "x3"), ("f2", 1.0, "y3")],
            ("e1", "f1"): [("e2", 1.0, "y3"), ("f2", 1.0, "x3")],
            ("f1", "e1"): [("e2", 1.0, "y3"), ("f2", 1.0, "x3")],
        }),
        ("A", [
            ("A(e3,e1,e1,e2)", 1.0),
            ("A(e3,f1,f1,e2)", -1.0),
            ("A(f3,e1,e1,f2)", -1.0),
            ("A(f3,f1,f1,f2)", 1.0),
            ("A(e3,e1,f1,f2)", 1.0),
            ("A(e3,f1,e1,f2)", 1.0),
            ("A(f3,e1,f1,e2)", 1.0),
            ("A(f3,f1,e1,e2)", 1.0),
        ]),
        ("scalars", [
            ("rho13_norm", 0.0),
            ("rho14_norm", 0.0),
            ("parity_odd_part", 0.0),
            ("bianchi_combination", 0.5),
        ]),
        ("placement", ("W9", "W10", "W11"), ("W11",)),
    ]
    return field, rows


@dataclass(frozen=True)
class CaseSpec:
    min_m_bar: int
    default_rho: tuple[float, ...]
    table: Callable[..., tuple[list, list]]


CASES: dict[str, CaseSpec] = {
    "4.1.1": CaseSpec(2, (1.0, 1.0), _table_4_1_1),
    "4.1.2": CaseSpec(2, (1.0, 1.0), _table_4_1_2),
    "4.1.3a": CaseSpec(2, (0.0, 1.0, 0.0, 1.0), _table_4_1_3a),
    "4.1.3b": CaseSpec(2, (1.0,), _table_4_1_3b),
    "4.2.w9w10": CaseSpec(2, (-0.5, -0.5, -0.5), _table_4_2_w9w10),
    "4.2.w12": CaseSpec(3, (), _table_4_2_w12),
    "4.2.w11": CaseSpec(3, (), _table_4_2_w11),
}


def _resolve(case_id: str, rho: tuple[float, ...] | None, m_bar: int | None) -> tuple[CaseSpec, tuple[float, ...], int]:
    if case_id not in CASES:
        raise DomainViolation(f"unknown case {case_id!r}; known: {', '.join(sorted(CASES))}")
    spec = CASES[case_id]
    used_rho = spec.default_rho if rho is None else tuple(float(r) for r in rho)
    n_rho = len(spec.default_rho)
    if len(used_rho) != n_rho:
        raise DomainViolation(f"case {case_id} takes {n_rho} rho parameter(s), got {len(used_rho)}")
    used_m_bar = spec.min_m_bar if m_bar is None else m_bar
    if used_m_bar < spec.min_m_bar:
        raise DomainViolation(f"case {case_id} requires m_bar >= {spec.min_m_bar}")
    return spec, used_rho, used_m_bar


def witness_theta(
    case_id: str, rho: tuple[float, ...] | None = None, m_bar: int | None = None
) -> ThetaField:
    """The coefficient field of a named witness case."""
    spec, used_rho, used_m_bar = _resolve(case_id, rho, m_bar)
    terms, _rows = spec.table(*used_rho)
    return _field(used_m_bar, terms)


def run_witness_case(
    case_id: str, rho: tuple[float, ...] | None = None, m_bar: int | None = None
) -> WitnessCase:
    """Evaluate one witness case and compare against its expected table."""
    spec, used_rho, used_m_bar = _resolve(case_id, rho, m_bar)
    terms, rows = spec.table(*used_rho)
    origin = _at_origin(_field(used_m_bar, terms))
    checks = tuple(check for kind, *fields in rows for check in _ROW_CHECKS[kind](origin, *fields))
    return WitnessCase(case_id=case_id, m_bar=used_m_bar, rho=used_rho, checks=checks)


def witness_suite(m_bar: int) -> list[WitnessCase]:
    """Every witness case applicable at this m_bar, with canonical parameters.

    Cases needing a third coordinate line are skipped below m_bar = 3; the
    parametric families run at each of their published parameter choices.
    """
    if m_bar < 2:
        raise DomainViolation("the witness suite requires m_bar >= 2")
    plan: list[tuple[str, tuple[float, ...] | None]] = [
        ("4.1.1", (1.0, 1.0)),
        ("4.1.2", (1.0, 1.0)),
        ("4.1.2", (1.0, -1.0)),
        ("4.1.3a", (0.0, 1.0, 0.0, 1.0)),
        ("4.1.3a", (0.0, 1.0, 0.0, -1.0)),
        ("4.1.3a", (1.0, 0.0, -1.0, 0.0)),
        ("4.1.3b", (1.0,)),
        ("4.2.w9w10", (-0.5, -0.5, -0.5)),
        ("4.2.w9w10", (0.5, -0.5, 0.5)),
    ]
    if m_bar >= 3:
        plan += [("4.2.w12", None), ("4.2.w11", None)]
    return [run_witness_case(case_id, rho, m_bar) for case_id, rho in plan]
