"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 scripts/bench.py --parent ../parent --change . --workloads decompose realize \
        --seeds 1401-1410 --seconds 12 --out BENCH_<n>.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace X`` as a subprocess from the root of each checkout, the parent first
on odd pairs and the change first on even pairs; nothing under ``perfbench/``
is edited.  Every run's metrics are kept.  Per workload, trace setting and
metric the output holds each side's runs, median and inclusive quartiles,
how many pairs the change won (ties count for neither; the direction comes
from the change's BENCHMARK.json), the signed relative worsening of the
median and, for end-to-end metrics, the benchmark's bound and a verdict
(``worse``, ``unresolved`` or ``within_bound``, see ``verdict``), plus the
failed share of operations per side.  Runs already in
``--out`` are kept and the summary is recomputed over all of them, so traced
and untraced series can be added by separate invocations.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1401-1410 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "os": f"{platform.system()} {platform.release()} {platform.machine()}",
    }
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"), ("/proc/meminfo", "memory", "MemTotal")):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            continue
        info[key] = next((line.split(":", 1)[1].strip() for line in lines if line.startswith(field)), None)
    info["numpy"] = numpy.__version__
    return info


def side_summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, sign: float, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than the bound; else ``unresolved`` when the parent's IQR exceeds the
    bound relative to its median, unless every change run beats every parent
    run; else ``within_bound``.  The sides are side_summary dicts; ``sign``
    is +1 when higher is better."""
    p_med = abs(parent["median"]) or 1.0
    if -sign * (change["median"] - parent["median"]) / p_med > bound:
        return "worse"
    every_run_better = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if (parent["q3"] - parent["q1"]) / p_med > bound and not every_run_better:
        return "unresolved"
    return "within_bound"


def summarize(runs: list[dict], benchmark: dict) -> dict:
    better = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), {}).setdefault(run["pair"], {})[run["side"]] = run
    out: dict[str, dict] = {}
    for (workload, trace), pairs in sorted(groups.items()):
        complete = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
        if not complete:
            continue
        names = [name for name in complete[0]["parent"]["metrics"] if name in complete[0]["change"]["metrics"]]
        section = {
            "pairs": len(complete),
            "failed": {side: sum(pair[side]["failed"] for pair in complete) for side in ("parent", "change")},
            "attempted": {side: sum(pair[side]["attempted"] for pair in complete) for side in ("parent", "change")},
            "metrics": {},
        }
        section["failed_share"] = {
            side: section["failed"][side] / section["attempted"][side] if section["attempted"][side] else 0.0
            for side in ("parent", "change")
        }
        for name in names:
            parent = [pair["parent"]["metrics"][name] for pair in complete]
            change = [pair["change"]["metrics"][name] for pair in complete]
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            entry = {"parent": side_summary(parent), "change": side_summary(change), "change_wins": f"{wins}/{len(complete)}"}
            p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
            if p_med:
                entry["relative_worsening"] = -sign * (c_med - p_med) / p_med
            entry["median_gain_exceeds_parent_iqr"] = sign * (c_med - p_med) > entry["parent"]["q3"] - entry["parent"]["q1"]
            if name in bounds:
                entry["bound"] = bounds[name]
                entry["verdict"] = verdict(entry["parent"], entry["change"], sign, bounds[name])
            section["metrics"][name] = entry
        out[f"{workload}/trace{trace}"] = section
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    record["machine"] = machine()
    record["method"] = (
        "python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace <x> from the root of each checkout; "
        "the parent runs first on odd pairs, the change first on even pairs; quartiles are inclusive-method; "
        "relative_worsening is (change - parent) / parent of the medians, signed so that positive is worse"
    )
    pair_base = 1 + max((run["pair"] for run in record["runs"]), default=0)
    for workload in args.workloads:
        for offset, seed in enumerate(args.seeds):
            pair = pair_base + offset
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                run = run_once(checkout, workload, seed, args.seconds, args.trace)
                run.update(workload=workload, trace=args.trace, seed=seed, pair=pair, side=side,
                           seconds=args.seconds, finished=datetime.now(timezone.utc).isoformat(timespec="seconds"))
                record["runs"].append(run)
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                print(f"{workload} trace{args.trace} pair {pair} seed {seed} {side}: "
                      + " ".join(f"{name}={value:.4g}" for name, value in run["metrics"].items()), flush=True)
        pair_base += len(args.seeds)
    record["summary"] = summarize(record["runs"], benchmark)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
