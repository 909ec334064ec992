"""Seeded end-to-end invariant suite, runnable from the command line.

Each group re-checks the mathematical laws of one layer on seeded random
draws: trace identities on the parity eigenspaces, projection completeness,
orthogonality and parity of the twelve-module split, where rho14 sends W2 and
W4, the two isomorphism spot checks, connection identities and curvature
parity laws, realization round trips, and serialization.  Facts that the
per-size build already proves (ranks, column parities, the module carving)
are not restated: a failed build certificate is an InternalCheckFailure,
exit 3 from any command that builds.  The report is a deterministic function
of (m_bar, trials, seed).

Each group records its laws through one accumulator, a _Laws: a law's name,
tolerance and value are given in one call where the value is computed, and
the accumulator keeps the largest value per law with np.maximum, so a NaN
sticks and fails its line instead of being passed over.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connections import (
    HolomorphyKind,
    connection_from_theta,
    curvature_at,
    holomorphy_type,
    linear_curvature_at_zero,
    nabla_j_residual,
    torsion_residual,
)
from .decomposition import _MINUS_LABELS, W_LABELS, bilinear_subspaces, w_project, w_subspaces
from .realization import realize, split_components
from .sampling import (
    random_antiholomorphic_theta,
    random_degree_one_theta,
    random_holomorphic_theta,
    random_kahler_tensor,
    random_point,
)
from .serialization import tensor_from_payload, tensor_to_payload, theta_from_payload, theta_to_payload
from .tensors import (
    K_IDENTITIES,
    SpaceConfig,
    apply_j_slots,
    classify_symmetries,
    j_parity_residuals,
    j_parity_split,
    rho14_of,
    ricci_traces,
)


@dataclass(frozen=True)
class CheckItem:
    name: str
    worst: float
    tol: float

    def __post_init__(self) -> None:
        # numpy scalars leak in from reductions; keep the report JSON-clean
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def ok(self) -> bool:
        return bool(self.worst <= self.tol)


@dataclass(frozen=True)
class SelfTestReport:
    m_bar: int
    trials: int
    seed: int
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def render(self) -> str:
        lines = [f"selftest m_bar={self.m_bar} trials={self.trials} seed={self.seed}"]
        for item in self.items:
            status = "OK  " if item.ok else "FAIL"
            lines.append(f"{status} {item.name:<44} worst={item.worst:.6e} tol={item.tol:.1e}")
        passed = sum(item.ok for item in self.items)
        lines.append(f"{passed}/{len(self.items)} checks passed")
        return "\n".join(lines)


class _Laws:
    """The worst value seen per law, in first-recorded order."""

    def __init__(self) -> None:
        self._worst: dict[str, tuple[float, float]] = {}

    def __call__(self, name: str, tol: float, value) -> None:
        """Record a value (a number, or an array whose largest entry counts)."""
        prev = self._worst.get(name, (0.0, tol))[0]
        self._worst[name] = (np.maximum(prev, np.max(value)), tol)

    def items(self) -> list[CheckItem]:
        return [CheckItem(name, worst, tol) for name, (worst, tol) in self._worst.items()]


def _trace_identities(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    def j_gap(mat: np.ndarray, sign: float) -> np.ndarray:
        """|J mat - sign * mat| entrywise, J pulled into both slots."""
        return np.abs(apply_j_slots(mat, config, (0, 1)) - sign * mat)

    law = _Laws()
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        traces = ricci_traces(tensor)
        law("traces.rho13_j_invariant_on_K", 1e-9, j_gap(traces.rho13.entries, 1))
        law("traces.tau_equals_minus_trace_rho13", 1e-9, abs(traces.tau + np.trace(traces.rho13.entries)))

        plus, minus = j_parity_split(tensor)
        law("parity.split_reconstructs", 1e-12, np.abs(plus.entries + minus.entries - tensor.entries))
        pyth = tensor.norm() ** 2 - plus.norm() ** 2 - minus.norm() ** 2
        law("parity.pythagoras", 1e-12, abs(pyth) / max(1.0, tensor.norm() ** 2))
        replus, reminus = j_parity_split(plus)
        law("parity.idempotent", 1e-12, [np.max(np.abs(replus.entries - plus.entries)), reminus.norm()])

        minus_traces = ricci_traces(minus)
        law("traces.rho13_vanishes_on_K_minus", 1e-9, minus_traces.rho13.norm())
        law("traces.rho14_j_odd_on_K_minus", 1e-9, j_gap(minus_traces.rho14.entries, -1))
        plus_traces = ricci_traces(plus)
        law("traces.rho14_j_even_on_K_plus", 1e-9, j_gap(plus_traces.rho14.entries, 1))
        law("traces.rho13_j_even_on_K_plus", 1e-9, j_gap(plus_traces.rho13.entries, 1))
    return law.items()


def _decomposition_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    law = _Laws()
    for _ in range(trials):
        a = random_kahler_tensor(config, rng)
        b = random_kahler_tensor(config, rng)
        da, db = w_project(a), w_project(b)
        law("modules.projection_complete", 1e-9, da.residual / max(1.0, a.norm()))
        scale = max(1.0, a.norm() * b.norm())
        for la, lb in itertools.permutations(W_LABELS, 2):
            law("modules.pairwise_orthogonal", 1e-9, abs(da.components[la].inner(db.components[lb])) / scale)
        plus, minus = j_parity_split(a)
        dplus, dminus = w_project(plus), w_project(minus)
        for label in W_LABELS:
            gap = da.components[label] - (dminus if label in _MINUS_LABELS else dplus).components[label]
            law("modules.parity_consistent", 1e-9, gap.norm() / max(1.0, a.norm()))

    m = config.m
    spaces, bil = w_subspaces(config), bilinear_subspaces(config)
    for label, target, name in (
        ("W2", "S2-", "modules.rho14_image_in_S2minus"),
        ("W4", "L2-", "modules.rho14_image_in_L2minus"),
    ):
        images = rho14_of(spaces[label].basis.reshape(-1, m, m, m, m)).reshape(spaces[label].dim, -1)
        law(name, 1e-9, [bil[target].residual(img) for img in images])
    return law.items()


def _isomorphism_checks(config: SpaceConfig) -> list[CheckItem]:
    bil, spaces = bilinear_subspaces(config), w_subspaces(config)
    law = _Laws()
    # J on the last slot is a bijection from source onto target: the images
    # land in the target, have full rank, and the dimensions agree.
    for name, source, target in (
        ("iso.L2plus_to_S2plus", bil["L2_0+"], bil["S2_0+"]),
        ("iso.W9_to_W10", spaces["W9"], spaces["W10"]),
    ):
        images = apply_j_slots(source.basis.reshape(-1, config.m), config, (-1,)).reshape(source.dim, -1)
        law(f"{name}_lands", 1e-9, [target.residual(img) for img in images])
        rank = int(np.linalg.matrix_rank(images, tol=1e-8))
        law(f"{name}_rank", 0.0, float(max(source.dim - rank, abs(target.dim - source.dim))))
    return law.items()


def _connection_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    law = _Laws()
    origin = np.zeros(config.m)
    for _ in range(trials):
        theta = random_degree_one_theta(config, rng)
        conn, hconn = connection_from_theta(theta), connection_from_theta(random_holomorphic_theta(config, rng))
        for each in (conn, hconn):
            law("connection.torsion_free", 0.0, torsion_residual(each))
            law("connection.parallel_J", 0.0, nabla_j_residual(each))
        gap = linear_curvature_at_zero(theta).entries - curvature_at(conn, origin).entries
        law("connection.linear_route_matches", 1e-12, np.abs(gap))

        for _ in range(5):
            curv = curvature_at(hconn, random_point(config, rng))
            violations = classify_symmetries(curv).violations
            law("connection.curvature_in_K_at_points", 1e-9, [violations[name] for name in K_IDENTITIES])
            law("connection.holomorphic_curvature_odd", 1e-9, j_parity_residuals(curv)[1])

        aconn = connection_from_theta(random_antiholomorphic_theta(config, rng))
        law("connection.antiholomorphic_origin_even", 1e-9, j_parity_residuals(curvature_at(aconn, origin))[0])
    return law.items()


def _realization_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    law = _Laws()
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        for mode in ("joint", "split"):
            result = realize(tensor, mode=mode)
            law("realization.round_trip", 1e-8, result.report["curvature_match"] / max(1.0, tensor.norm()))
        hol_part, anti_part = split_components(result)  # the split-mode field
        pure = (
            holomorphy_type(hol_part).kind in (HolomorphyKind.HOLOMORPHIC, HolomorphyKind.BOTH)
            and holomorphy_type(anti_part).kind in (HolomorphyKind.ANTIHOLOMORPHIC, HolomorphyKind.BOTH)
            and result.theta.vanishes_at_origin()
        )
        law("realization.split_mode_purity", 0.0, float(not pure))
    return law.items()


def _serialization_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    law = _Laws()
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        back = tensor_from_payload(tensor_to_payload(tensor))
        law("files.tensor_round_trip_exact", 0.0, np.abs(back.entries - tensor.entries))
        theta = random_holomorphic_theta(config, rng)
        law("files.theta_round_trip_exact", 0.0, float(theta_from_payload(theta_to_payload(theta)) != theta))
    return law.items()


def run_selftest(m_bar: int, trials: int, seed: int) -> SelfTestReport:
    """Run every invariant group at the given size with a seeded generator."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = SpaceConfig(m_bar)
    rng = np.random.default_rng(seed)
    items: list[CheckItem] = []
    items += _trace_identities(config, rng, trials)
    items += _decomposition_checks(config, rng, max(1, trials // 2))
    items += _isomorphism_checks(config)
    items += _connection_checks(config, rng, max(1, trials // 2))
    items += _realization_checks(config, rng, max(1, trials // 2))
    items += _serialization_checks(config, rng, max(1, trials // 4))
    return SelfTestReport(m_bar=m_bar, trials=trials, seed=seed, items=tuple(items))
