"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src`` there.
The loop runs whole rotations of the workload's inputs until ``--seconds``
of operation time have been spent (at least one rotation).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` half
the time runs untraced and half under the timing wrappers, and the metrics
are the per-layer ones.  Every metric is printed by name with its unit, then
the last line is the JSON result.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cli-cold", "realize", "decompose", "curvature")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB"))

#: BLAS threads for the benchmark and every process it starts (at most nproc).
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh set-ups per untraced run; setup_s is their median.  At least
#: SETUP_SAMPLES; cheap set-ups are repeated until SETUP_SAMPLE_S of set-up
#: time is sampled, up to SETUP_SAMPLES_MAX.
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 2.0
SETUP_SAMPLES_MAX = 9

#: Tail percentiles tried, highest first; one needs ten samples beyond it.
TAIL_PERCENTILES = (99, 95, 90, 80, 75)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--mbar",
        type=int,
        choices=(2, 3),
        default=3,
        help="model size; 3 for measurements, 2 for smoke tests (4 is out of reach today)",
    )
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def probe_set_up(workload: str, m_bar: int, env: dict[str, str]) -> float:
    """One set-up in a fresh interpreter, timed inside it."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(m_bar)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def closed_loop(workload, items, seconds, errors, tracer=None):
    """Whole rotations until ``seconds`` of operation time; checks run off the clock."""
    latencies: list[float] = []
    outcomes: Counter = Counter()
    busy = 0.0
    while True:
        item = items[len(latencies) % len(items)]
        if tracer is not None:
            tracer.op = len(latencies)
        start = time.perf_counter()
        try:
            output, error = workload.run(item), None
        except Exception as exc:  # a raising operation is a failed one
            output, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        latencies.append(elapsed)
        busy += elapsed
        outcomes[workload.judge(item, output, error, errors)] += 1
        if len(latencies) % workload.cycle == 0 and busy >= seconds:
            return latencies, outcomes


def tail_line(latencies: list[float]) -> str:
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3
            return f"op_p{pct}_ms {value!r} ms (n={n})"
    return f"op tail omitted: {n} samples leave no percentile with ten beyond it"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ")[0]
    return "unavailable"


def environment_lines(workload) -> list[str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    rss_source = (
        "max ru_maxrss of the CLI child processes (os.wait4)"
        if not workload.in_process
        else "ru_maxrss of the benchmark process (getrusage RUSAGE_SELF)"
    )
    return [
        f"env nproc {os.cpu_count()}",
        f"env python {platform.python_version()}",
        f"env numpy {np.__version__}",
        f"env blas {blas_text}",
        f"env blas_threads {BLAS_THREADS} ({', '.join(BLAS_VARIABLES)})",
        f"env commit {git_commit()}",
        f"env peak_rss {rss_source}",
    ]


def measure(args, workdir: Path) -> tuple[dict, list[str]]:
    """Run the workload once; returns the JSON result and the lines printed before it."""
    env = child_env()
    set_ups = []
    own = 0 if args.workload == "cli-cold" else 1  # the benchmark process serves in-process workloads
    while not args.trace and len(set_ups) + own < SETUP_SAMPLES_MAX and (
        len(set_ups) + own < SETUP_SAMPLES or sum(set_ups) < SETUP_SAMPLE_S
    ):
        set_ups.append(probe_set_up(args.workload, args.mbar, env))

    started = time.perf_counter()
    import workloads  # imports numpy and the program: part of the timed set-up

    import_ms = (time.perf_counter() - started) * 1e3
    if not Path(workloads.api.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: affine_kahler was imported from outside {SRC}")
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    workload = workloads.make(args.workload, ROOT, workdir, env)
    if args.trace and workload.in_process:
        undo = tracing.install(tracer)
        tracer.op = tracing.SETUP
        tracer.counts[(tracing.SETUP, "#cli.import_ms")] = import_ms
        workloads.build(args.workload, workloads.api.SpaceConfig(args.mbar))
        tracer.op = None
        tracing.uninstall(undo)
    else:
        set_up_s = workloads.timed_set_up_s(args.workload, args.mbar, started)
        if workload.in_process:
            set_ups.append(set_up_s)

    items = workload.inputs(workloads.api.SpaceConfig(args.mbar), np.random.default_rng(args.seed))
    errors: list[str] = []
    lines = environment_lines(workload)
    if args.trace:
        plain, outcomes = closed_loop(workload, items, args.seconds / 2, errors)
        if workload.in_process:
            undo = tracing.install(tracer)
        else:
            workload.tracer = tracer
        try:
            traced, traced_outcomes = closed_loop(workload, items, args.seconds / 2, errors, tracer)
        finally:
            if workload.in_process:
                tracing.uninstall(undo)
            workload.tracer = None
        outcomes += traced_outcomes
        attempted = len(plain) + len(traced)
        extra = {
            "tensors.false_reject_count": outcomes[workloads.FALSE_REJECT],
            "tensors.false_accept_count": outcomes[workloads.FALSE_ACCEPT],
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        }
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, len(traced), extra)
        trace_path = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps({"spans": tracer.spans, "counts": [[*key, value] for key, value in tracer.counts.items()]}),
            encoding="utf-8",
        )
        lines.append(f"trace spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        lines.append(f"trace ops untraced {len(plain)} traced {len(traced)}")
    else:
        latencies, outcomes = closed_loop(workload, items, args.seconds, errors)
        attempted = len(latencies)
        if workload.in_process:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kib = workload.peak_rss_kib
        values = {
            "setup_s": statistics.median(set_ups),
            "ops_per_s": attempted / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_kib / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.append("setup_samples_s " + " ".join(repr(value) for value in set_ups))
        lines.append(tail_line(latencies))

    failed = attempted - outcomes[workloads.OK]
    lines.append("outcomes " + " ".join(f"{key}={value}" for key, value in sorted(outcomes.items())))
    lines.append(f"fail_frac {failed / attempted!r} ratio (n={attempted})")
    lines += [f"{name} {entry['value']!r} {entry['unit']}" for name, entry in metrics.items()]
    result = {
        "correct": outcomes[workloads.WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for message in errors[:5]:
        print(message, file=sys.stderr)
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affine_kahler" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)  # later imports read bytecode
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
