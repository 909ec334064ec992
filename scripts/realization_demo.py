#!/usr/bin/env python3
"""Round-trip demo: draw a random admissible tensor, realize it, verify.

Usage: python scripts/realization_demo.py [m_bar] [seed]
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from affine_kahler.connections import holomorphy_type  # noqa: E402
from affine_kahler.realization import realize, split_components  # noqa: E402
from affine_kahler.sampling import random_kahler_tensor  # noqa: E402
from affine_kahler.decomposition import w_project  # noqa: E402
from affine_kahler.tensors import SpaceConfig  # noqa: E402


def main() -> int:
    m_bar = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = np.random.default_rng(seed)
    cfg = SpaceConfig(m_bar)

    tensor = random_kahler_tensor(cfg, rng)
    print(f"drew a random admissible tensor, norm {tensor.norm():.6f}")
    decomp = w_project(tensor)
    print("module norms:")
    for label, norm in decomp.norms.items():
        print(f"  {label:>4}: {norm:.6f}")

    for mode in ("joint", "split"):
        result = realize(tensor, mode=mode)
        print(f"\nmode={mode}: residual {result.residual:.3e}, verified={result.verified}")
        for name, value in result.report.items():
            print(f"  {name}: {value:.3e}")
        if mode == "split":
            hol, anti = split_components(result)
            print(f"  holomorphic part: {len(hol.entries)} entries, "
                  f"type {holomorphy_type(hol).kind.value}")
            print(f"  antiholomorphic part: {len(anti.entries)} entries, "
                  f"type {holomorphy_type(anti).kind.value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
