#!/usr/bin/env python3
"""Regenerate the JSON witness fixtures under fixtures/.

One coefficient-field file per named case (canonical parameters) and one
tensor file per module witness: the pure W12 and W11 tensors and the two
combinations landing in W9 and W10.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from affine_kahler.connections import connection_from_theta, curvature_at
from affine_kahler.serialization import write_tensor_file, write_theta_file
from affine_kahler.witnesses import CASES, witness_theta


def origin_curvature(theta):
    return curvature_at(connection_from_theta(theta), np.zeros(2 * theta.m_bar))


def fixtures() -> dict[str, object]:
    """Every fixture by file name: coefficient fields (theta_*) and tensors (tensor_*)."""
    built: dict[str, object] = {
        "theta_" + case_id.replace(".", "_") + ".json": witness_theta(case_id) for case_id in sorted(CASES)
    }
    theta_w9_a = witness_theta("4.2.w9w10", rho=(-0.5, -0.5, -0.5))
    built["tensor_w9.json"] = origin_curvature(theta_w9_a) - origin_curvature(
        theta_w9_a.swap_complex_coordinates(1, 2)
    )
    theta_w10_a = witness_theta("4.2.w9w10", rho=(0.5, -0.5, 0.5))
    built["tensor_w10.json"] = origin_curvature(theta_w10_a) + origin_curvature(
        theta_w10_a.swap_complex_coordinates(1, 2)
    )
    built["tensor_w12.json"] = origin_curvature(witness_theta("4.2.w12"))
    built["tensor_w11.json"] = origin_curvature(witness_theta("4.2.w11"))
    return built


def main() -> None:
    out = ROOT / "fixtures"
    out.mkdir(exist_ok=True)
    for name, value in fixtures().items():
        write = write_theta_file if name.startswith("theta_") else write_tensor_file
        write(out / name, value)
        print("wrote", out / name)


if __name__ == "__main__":
    main()
