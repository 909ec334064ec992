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
"""
from __future__ import annotations

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
from .decomposition import (
    W_LABELS,
    bilinear_subspaces,
    w_project,
    w_subspaces,
)
from .realization import (
    realize,
    split_components,
)
from .sampling import (
    random_antiholomorphic_theta,
    random_degree_one_theta,
    random_holomorphic_theta,
    random_kahler_tensor,
    random_point,
)
from .serialization import (
    tensor_from_payload,
    tensor_to_payload,
    theta_from_payload,
    theta_to_payload,
)
from .tensors import (
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


def _trace_identities(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    def j_pull(mat: np.ndarray) -> np.ndarray:
        return apply_j_slots(mat, config, (0, 1))

    worst_j13 = worst_minus13 = worst_minus14 = worst_plus14 = worst_plus13 = 0.0
    worst_tau = worst_split = worst_pyth = worst_idem = 0.0
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        traces = ricci_traces(tensor)
        rho13, rho14 = traces.rho13.entries, traces.rho14.entries
        worst_j13 = max(worst_j13, float(np.max(np.abs(j_pull(rho13) - rho13))))
        worst_tau = max(worst_tau, abs(traces.tau + np.trace(rho13)))

        plus, minus = j_parity_split(tensor)
        recon = plus.entries + minus.entries - tensor.entries
        worst_split = max(worst_split, float(np.max(np.abs(recon))))
        pyth = tensor.norm() ** 2 - plus.norm() ** 2 - minus.norm() ** 2
        worst_pyth = max(worst_pyth, abs(pyth) / max(1.0, tensor.norm() ** 2))
        replus, reminus = j_parity_split(plus)
        worst_idem = max(worst_idem, float(np.max(np.abs(replus.entries - plus.entries))), reminus.norm())

        minus_traces = ricci_traces(minus)
        worst_minus13 = max(worst_minus13, minus_traces.rho13.norm())
        r14m = minus_traces.rho14.entries
        worst_minus14 = max(worst_minus14, float(np.max(np.abs(j_pull(r14m) + r14m))))
        plus_traces = ricci_traces(plus)
        r14p, r13p = plus_traces.rho14.entries, plus_traces.rho13.entries
        worst_plus14 = max(worst_plus14, float(np.max(np.abs(j_pull(r14p) - r14p))))
        worst_plus13 = max(worst_plus13, float(np.max(np.abs(j_pull(r13p) - r13p))))
    return [
        CheckItem("traces.rho13_j_invariant_on_K", worst_j13, 1e-9),
        CheckItem("traces.tau_equals_minus_trace_rho13", worst_tau, 1e-9),
        CheckItem("parity.split_reconstructs", worst_split, 1e-12),
        CheckItem("parity.pythagoras", worst_pyth, 1e-12),
        CheckItem("parity.idempotent", worst_idem, 1e-12),
        CheckItem("traces.rho13_vanishes_on_K_minus", worst_minus13, 1e-9),
        CheckItem("traces.rho14_j_odd_on_K_minus", worst_minus14, 1e-9),
        CheckItem("traces.rho14_j_even_on_K_plus", worst_plus14, 1e-9),
        CheckItem("traces.rho13_j_even_on_K_plus", worst_plus13, 1e-9),
    ]


def _decomposition_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    spaces = w_subspaces(config)
    worst_complete = worst_orth = worst_parity = 0.0
    for _ in range(trials):
        a = random_kahler_tensor(config, rng)
        b = random_kahler_tensor(config, rng)
        da, db = w_project(a), w_project(b)
        worst_complete = max(worst_complete, da.residual / max(1.0, a.norm()))
        scale = max(1.0, a.norm() * b.norm())
        for la in W_LABELS:
            for lb in W_LABELS:
                if la == lb:
                    continue
                inner = da.components[la].inner(db.components[lb])
                worst_orth = max(worst_orth, abs(inner) / scale)
        plus, minus = j_parity_split(a)
        dplus, dminus = w_project(plus), w_project(minus)
        for label in W_LABELS:
            ref = dminus if label in ("W2", "W4", "W12") else dplus
            gap = da.components[label] - ref.components[label]
            worst_parity = max(worst_parity, gap.norm() / max(1.0, a.norm()))

    # rho14 maps W2 into S2- and W4 into L2-
    m = config.m
    bil = bilinear_subspaces(config)
    worst_image = {}
    for label, target in (("W2", "S2-"), ("W4", "L2-")):
        images = rho14_of(spaces[label].basis.reshape(-1, m, m, m, m)).reshape(spaces[label].dim, -1)
        worst_image[label] = max(bil[target].residual(img) for img in images)
    return [
        CheckItem("modules.projection_complete", worst_complete, 1e-9),
        CheckItem("modules.pairwise_orthogonal", worst_orth, 1e-9),
        CheckItem("modules.parity_consistent", worst_parity, 1e-9),
        CheckItem("modules.rho14_image_in_S2minus", worst_image["W2"], 1e-9),
        CheckItem("modules.rho14_image_in_L2minus", worst_image["W4"], 1e-9),
    ]


def _isomorphism_checks(config: SpaceConfig) -> list[CheckItem]:
    m = config.m
    bil = bilinear_subspaces(config)
    spaces = w_subspaces(config)

    lam = bil["L2_0+"]
    images = apply_j_slots(lam.basis.reshape(-1, m, m), config, (-1,)).reshape(lam.dim, -1)
    s_target = bil["S2_0+"]
    worst_resid = max(s_target.residual(img) for img in images)
    rank = int(np.linalg.matrix_rank(images, tol=1e-8))
    # A bijection: full rank on the source, and source and target of equal dimension.
    lam_checks = [
        CheckItem("iso.L2plus_to_S2plus_lands", worst_resid, 1e-9),
        CheckItem("iso.L2plus_to_S2plus_rank", float(max(lam.dim - rank, abs(s_target.dim - lam.dim))), 0.0),
    ]

    w9 = spaces["W9"]
    w10 = spaces["W10"]
    imgs = apply_j_slots(w9.basis.reshape(-1, m, m, m, m), config, (-1,)).reshape(w9.dim, -1)
    worst_w10 = max(w10.residual(img) for img in imgs)
    rank9 = int(np.linalg.matrix_rank(imgs, tol=1e-8))
    return lam_checks + [
        CheckItem("iso.W9_to_W10_lands", worst_w10, 1e-9),
        CheckItem("iso.W9_to_W10_rank", float(max(w9.dim - rank9, abs(w10.dim - w9.dim))), 0.0),
    ]


def _connection_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    worst_torsion = worst_nabla = worst_link = 0.0
    worst_in_k = worst_hol = worst_anti = 0.0
    n_points = 5
    for _ in range(trials):
        theta = random_degree_one_theta(config, rng)
        conn = connection_from_theta(theta)
        worst_torsion = max(worst_torsion, torsion_residual(conn))
        worst_nabla = max(worst_nabla, nabla_j_residual(conn))
        gap = (
            linear_curvature_at_zero(theta).entries
            - curvature_at(conn, np.zeros(config.m)).entries
        )
        worst_link = max(worst_link, float(np.max(np.abs(gap))))

        hol = random_holomorphic_theta(config, rng)
        hconn = connection_from_theta(hol)
        worst_torsion = max(worst_torsion, torsion_residual(hconn))
        worst_nabla = max(worst_nabla, nabla_j_residual(hconn))
        for _ in range(n_points):
            curv = curvature_at(hconn, random_point(config, rng))
            report = classify_symmetries(curv)
            worst_in_k = max(
                report.violations["antisym12"],
                report.violations["bianchi1"],
                report.violations["kahler_last2_1h"],
                worst_in_k,
            )
            _odd, even = j_parity_residuals(curv)
            worst_hol = max(worst_hol, even)

        anti = random_antiholomorphic_theta(config, rng)
        aconn = connection_from_theta(anti)
        odd, _ = j_parity_residuals(curvature_at(aconn, np.zeros(config.m)))
        worst_anti = max(worst_anti, odd)
    return [
        CheckItem("connection.torsion_free", worst_torsion, 0.0),
        CheckItem("connection.parallel_J", worst_nabla, 0.0),
        CheckItem("connection.linear_route_matches", worst_link, 1e-12),
        CheckItem("connection.curvature_in_K_at_points", worst_in_k, 1e-9),
        CheckItem("connection.holomorphic_curvature_odd", worst_hol, 1e-9),
        CheckItem("connection.antiholomorphic_origin_even", worst_anti, 1e-9),
    ]


def _realization_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    worst_round = worst_purity = 0.0
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        for mode in ("joint", "split"):
            result = realize(tensor, mode=mode)
            worst_round = max(
                worst_round, result.report["curvature_match"] / max(1.0, tensor.norm())
            )
            if mode == "split":
                hol_part, anti_part = split_components(result)
                ok_hol = holomorphy_type(hol_part).kind in (
                    HolomorphyKind.HOLOMORPHIC,
                    HolomorphyKind.BOTH,
                )
                ok_anti = holomorphy_type(anti_part).kind in (
                    HolomorphyKind.ANTIHOLOMORPHIC,
                    HolomorphyKind.BOTH,
                )
                vanish = result.theta.vanishes_at_origin()
                worst_purity = max(worst_purity, 0.0 if (ok_hol and ok_anti and vanish) else 1.0)
    return [
        CheckItem("realization.round_trip", worst_round, 1e-8),
        CheckItem("realization.split_mode_purity", worst_purity, 0.0),
    ]


def _serialization_checks(config: SpaceConfig, rng: np.random.Generator, trials: int) -> list[CheckItem]:
    worst_tensor = worst_theta = 0.0
    for _ in range(trials):
        tensor = random_kahler_tensor(config, rng)
        back = tensor_from_payload(tensor_to_payload(tensor))
        worst_tensor = max(worst_tensor, float(np.max(np.abs(back.entries - tensor.entries))))
        theta = random_holomorphic_theta(config, rng)
        rebuilt = theta_from_payload(theta_to_payload(theta))
        worst_theta = max(worst_theta, 0.0 if rebuilt == theta else 1.0)
    return [
        CheckItem("files.tensor_round_trip_exact", worst_tensor, 0.0),
        CheckItem("files.theta_round_trip_exact", worst_theta, 0.0),
    ]


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
