#!/usr/bin/env python3
"""Print the complete witness value tables at m_bar = 2 and 3.

Every row compares a closed-form expected value against the computed one;
exact rows must match with zero error.  Exits nonzero if any row fails.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from affine_kahler.cli import _fmt  # noqa: E402
from affine_kahler.witnesses import witness_suite  # noqa: E402


def main() -> int:
    failures = 0
    for m_bar in (2, 3):
        print(f"== m_bar = {m_bar} ==")
        for case in witness_suite(m_bar):
            rho = ",".join(_fmt(r) for r in case.rho) or "-"
            print(f"-- case {case.case_id} (rho = {rho})")
            for check in case.checks:
                status = "OK" if check.ok else "FAIL"
                failures += not check.ok
                print(f"   {check.name:<28} {_fmt(check.expected):>8} {_fmt(check.computed):>24} {status}")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
