"""Realizing admissible curvature tensors as curvatures of polynomial connections.

The degree-1, origin-vanishing coefficient fields form a finite-dimensional
real parameter space: each entry Theta_{ijk} (i <= j) contributes, per
complex coordinate line a, a holomorphic direction c * z_a and an
antiholomorphic direction c * conj(z_a), each with a real and an imaginary
unit coefficient.  Curvature at the origin is linear in these parameters.
The holomorphic / antiholomorphic columns of that map span exactly the odd /
even J-parity parts K- / K+ of the admissible space, verified once per size.

Realization is the minimum-norm solve against the map C.  Its pseudo-inverse
is C^+ = W C^T for the diagonal W the decomposition layer proves exactly when
it builds C, so the solve is coeffs = w * (C^T target) with no factorization;
numpy's ``lstsq`` on the same columns is the test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .connections import (
    AffineConnection,
    HolomorphyKind,
    ThetaField,
    _curvature_stack,
    connection_from_theta,
    curvature_at,
    holomorphy_type,
    nabla_j_residual,
    torsion_residual,
)
from .decomposition import (
    HOLOMORPHIC,
    CurvatureCoefficientMap,
    _coefficients_of,
    coefficient_map,
    theta_from_coefficients,
)
from .errors import InternalCheckFailure
from .linalg import require_finite_solution
from .tensors import (
    DEFAULT_TOL,
    K_IDENTITIES,
    SpaceConfig,
    SymmetryReport,
    Tensor4,
    _parity_parts,
    classify_symmetries,
    parity_norms,
    require_bounded_entries,
    require_in_k,
)

#: Relative residual bound for a successful realization.
REALIZE_TOL = 1e-8


def curvature_coefficient_map(config: SpaceConfig) -> CurvatureCoefficientMap:
    """The verified parameter-to-curvature matrix for this m_bar.

    It is the matrix K is built from: every column satisfies the defining
    identities, the column span is K at the closed-form dimension, and the
    holomorphic / antiholomorphic columns are exactly J-odd / J-even, so
    they span the odd / even parity parts.  Building the map checks all of
    it in exact arithmetic, once per size; no basis of K or K+/- is built.
    """
    return coefficient_map(config)


def _solve_coefficients(tensor: Tensor4, mode: str) -> np.ndarray:
    """The minimum-norm parameter vector realizing ``tensor`` at the origin.

    ``joint`` solves every column against the tensor; ``split`` solves the
    antiholomorphic columns against its even part and the holomorphic ones
    against its odd part.  For a tensor in K both give the same vector.
    """
    cmap = curvature_coefficient_map(tensor.config)
    if mode == "joint":
        image = tensor.flatten() @ cmap.matrix
    else:
        plus, minus = _parity_parts(tensor)
        even, odd = np.stack([plus.flatten(), minus.flatten()]) @ cmap.matrix
        image = np.where(cmap.column_mask(HOLOMORPHIC), odd, even)
    coeffs = cmap.weights * image
    require_finite_solution(coeffs)
    return coeffs


@dataclass(frozen=True)
class RealizationResult:
    """A coefficient field realizing a prescribed curvature at the origin."""

    theta: ThetaField
    residual: float
    verified: bool
    parity_mode: str
    report: dict[str, float]


#: The residuals verify_realization reports, in report order.
VERIFICATION_KEYS = ("input_in_k", "torsion", "nabla_j", "curvature_match")


def verify_realization(tensor: Tensor4, theta: ThetaField) -> dict[str, float]:
    """Recompute every claim about a realization from scratch.

    Returns residuals only (never raises on mismatch): the defining-identity
    violation of the input, the torsion and nabla-J coefficients of the
    rebuilt connection, and the misfit of its origin curvature against the
    input.
    """
    conn = connection_from_theta(theta)
    origin = curvature_at(conn, np.zeros(tensor.config.m)).entries
    return _verification(tensor, conn, classify_symmetries(tensor), origin)


def _verification(tensor: Tensor4, conn: AffineConnection, report: SymmetryReport,
                  origin: np.ndarray) -> dict[str, float]:
    return {
        "input_in_k": max(report.violations[n] for n in K_IDENTITIES),
        "torsion": torsion_residual(conn),
        "nabla_j": nabla_j_residual(conn),
        "curvature_match": float(np.linalg.norm(origin - tensor.entries)),
    }


@lru_cache(maxsize=None)
def _sample_points(m: int) -> np.ndarray:
    """The origin stacked on realize's five fixed off-origin points of [-1, 1]^m (read-only)."""
    points = np.concatenate([np.zeros((1, m)), np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, m))])
    points.setflags(write=False)
    return points


def realize(tensor: Tensor4, mode: str = "joint") -> RealizationResult:
    """Solve for a degree-1, origin-vanishing coefficient field with the
    prescribed curvature at the origin.

    ``joint`` solves over all parameter directions at once; ``split``
    decomposes the input by J-parity and solves the odd part over the
    holomorphic directions and the even part over the antiholomorphic ones.
    Either way one parameter vector is filled and the field is built from it
    once.  A residual above the tolerance is reported as an internal error
    since the parameter space is verified to span the whole admissible space.

    The report also samples the curvature at five fixed non-origin points (in
    one stacked pass with the origin) and records its distance from each parity
    eigenspace there, as j_parity_residuals would (informational).  A tensor
    with an entry beyond MAX_ENTRY in absolute value is rejected up front
    (DomainViolation), before any of it could overflow.
    """
    require_bounded_entries(tensor, "realize")
    symmetries = require_in_k(tensor)
    if mode not in ("joint", "split"):
        raise ValueError(f"unknown mode {mode!r}")
    theta = theta_from_coefficients(tensor.config, _solve_coefficients(tensor, mode))

    conn = connection_from_theta(theta)
    curvatures = _curvature_stack(conn, _sample_points(tensor.config.m))
    report = _verification(tensor, conn, symmetries, curvatures[0])
    scale = max(1.0, tensor.norm())
    residual = report["curvature_match"]
    verified = (
        residual <= REALIZE_TOL * scale
        and report["torsion"] == 0.0
        and report["nabla_j"] == 0.0
    )
    if not verified:
        raise InternalCheckFailure(
            f"realization residual {residual:.3e} exceeds {REALIZE_TOL:.1e} * {scale:.3e}; "
            "the parameter space is supposed to span every admissible tensor"
        )

    odd, even = parity_norms(curvatures[1:].reshape(len(curvatures) - 1, -1), tensor.config.m_bar)
    report["offsite_max_odd_part"] = max(odd)
    report["offsite_max_even_part"] = even_worst = max(even)

    # A purely holomorphic field must keep its curvature odd at every point,
    # not only at the origin; for mixed fields the numbers are informational.
    if holomorphy_type(theta).kind is HolomorphyKind.HOLOMORPHIC and even_worst > DEFAULT_TOL * scale:
        raise InternalCheckFailure(
            f"holomorphic realization has even-parity curvature {even_worst:.3e} "
            "away from the origin"
        )

    return RealizationResult(
        theta=theta,
        residual=residual,
        verified=verified,
        parity_mode=mode,
        report=report,
    )


def split_components(result: RealizationResult) -> tuple[ThetaField, ThetaField]:
    """Separate a realization's field into holomorphic and antiholomorphic parts.

    Each entry polynomial of a degree-1 field splits uniquely into a z-linear
    and a conj(z)-linear part: the field's parameter vector, masked by kind.
    """
    config = result.theta.config
    coeffs = _coefficients_of(result.theta)
    hol = coefficient_map(config).column_mask(HOLOMORPHIC)
    return (
        theta_from_coefficients(config, np.where(hol, coeffs, 0.0)),
        theta_from_coefficients(config, np.where(hol, 0.0, coeffs)),
    )
