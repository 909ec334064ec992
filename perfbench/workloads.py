"""The four benchmark workloads.

Each workload makes its inputs from the run's seed, runs one operation at a
time (one caller, closed loop) and checks every output after the clock has
stopped, independently of the program's own verification.  ``judge`` sorts
each operation into one outcome:

* ``ok``: the output passed its check;
* ``false_reject`` / ``false_accept``: a wrong admissibility verdict (an
  input built inside K refused, or a generic input accepted);
* ``wrong``: an output that fails its check, or an unexpected exception.

Every outcome but ``ok`` counts as a failed operation; only ``wrong`` makes
a run incorrect, since wrong verdicts outside the O(1) scale are the known
limit of today's absolute 1e-9 tolerance that the decompose workload exists
to measure.

Importing this module imports numpy and the package, so a set-up timer
started before the import covers both.
"""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import affine_kahler as api
from affine_kahler import sampling, serialization
from affine_kahler.connections import HolomorphyKind
from affine_kahler.errors import DomainViolation

OK = "ok"
FALSE_REJECT = "false_reject"
FALSE_ACCEPT = "false_accept"
WRONG = "wrong"

#: Scale ladder of the decompose workload.  With today's absolute 1e-9
#: tolerance the verdict flips between 1e5 and 1e6 for K tensors and between
#: 1e-10 and 1e-9 for generic ones (m_bar = 3); every rung sits at least two
#: decades from both flips, so the failed share is the same on every seed.
#: Most rungs lie where the verdict is right: the operations that stop after
#: the verdict are fast, and a minority of them keeps the median latency
#: inside the bulk of the full-length operations.
SCALE_LADDER = (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e12)

#: Relative bounds of the output checks.
REALIZE_RTOL = 1e-8
SUM_RTOL = 1e-9
PARITY_RTOL = 1e-9

#: Distinct input cycles generated per run; the loop reuses them in order.
POOL_CYCLES = 4

#: A CLI launch that outlives this is killed (and its operation fails).
LAUNCH_TIMEOUT_S = 150.0

CHILD = Path(__file__).resolve().parent / "child.py"


def build(workload: str, config: api.SpaceConfig) -> None:
    """Build the per-size caches that the workload's operations use."""
    if workload == "realize":
        api.curvature_coefficient_map(config)  # K, K+/K- and the coefficient map
    elif workload == "decompose":
        api.w_subspaces(config)  # K, K+/K- and W1..W12
    elif workload == "cli-cold":
        importlib.import_module("affine_kahler.cli")  # every launch builds its own caches
    # curvature needs no cache


def j_conjugate(entries: np.ndarray, m_bar: int) -> np.ndarray:
    """A(Jx, Jy, Jz, Jw) in the basis (e_1..e_mbar, f_1..f_mbar), J e_i = f_i.

    The benchmark's own, so that the parity checks do not reuse the program's.
    """
    perm = np.r_[m_bar : 2 * m_bar, 0:m_bar]
    signs = np.r_[np.ones(m_bar), -np.ones(m_bar)]
    return entries[np.ix_(perm, perm, perm, perm)] * np.einsum("a,b,c,d->abcd", signs, signs, signs, signs)


def _relative(diff: np.ndarray, scale: float) -> float:
    return float(np.linalg.norm(diff)) / scale if scale else float(np.linalg.norm(diff))


class Workload:
    """One workload: ``inputs`` is a whole number of ``cycle``-long rotations."""

    name = ""
    cycle = 1
    in_process = True

    def inputs(self, config: api.SpaceConfig, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> str:
        raise NotImplementedError

    def judge(self, item, output, error: BaseException | None, errors: list[str]) -> str:
        if error is not None:
            errors.append(f"{self.name}: {type(error).__name__}: {error}")
            return FALSE_REJECT if isinstance(error, DomainViolation) else WRONG
        try:
            return self.check(item, output)
        except Exception as exc:  # a malformed output fails its check
            errors.append(f"{self.name} check: {type(exc).__name__}: {exc}")
            return WRONG


class Realize(Workload):
    """Warm realize of K, K+ and K- tensors in rotation, mode joint/split alternating."""

    name = "realize"
    rotation = (("K", "joint"), ("plus", "split"), ("minus", "joint"), ("K", "split"), ("plus", "joint"), ("minus", "split"))
    cycle = len(rotation)

    def inputs(self, config, rng):
        items = []
        for _ in range(POOL_CYCLES):
            for kind, mode in self.rotation:
                if kind == "K":
                    tensor = sampling.random_kahler_tensor(config, rng)
                else:
                    tensor = sampling.random_parity_tensor(config, rng, kind)
                items.append((tensor, mode))
        return items

    def run(self, item):
        tensor, mode = item
        return api.realize(tensor, mode=mode)

    def check(self, item, result):
        # Origin curvature by the linear route, not the Christoffel route the
        # program verifies with.
        tensor, _ = item
        curvature = api.linear_curvature_at_zero(result.theta)
        misfit = _relative(curvature.entries - tensor.entries, tensor.norm())
        return OK if result.verified and misfit <= REALIZE_RTOL else WRONG


class Decompose(Workload):
    """Warm classify, then W/parity/trace/bilinear splits of what is judged in K."""

    name = "decompose"
    slots = (True, True, True, False)  # three K tensors, then one generic, per rung
    cycle = len(SCALE_LADDER) * len(slots)

    def inputs(self, config, rng):
        items = []
        for _ in range(POOL_CYCLES):
            for scale in SCALE_LADDER:
                for admissible in self.slots:
                    if admissible:
                        tensor = sampling.random_kahler_tensor(config, rng)
                    else:
                        tensor = api.Tensor4.from_flat(config, rng.standard_normal(config.m**4))
                    items.append((tensor * scale, admissible))
        return items

    def run(self, item):
        tensor, _ = item
        report = api.classify_symmetries(tensor)
        if not report.in_K:
            return report, None
        traces = api.ricci_traces(tensor)
        return report, (
            api.w_project(tensor),
            api.j_parity_split(tensor),
            traces,
            api.bilinear_decompose(traces.rho13),
            api.bilinear_decompose(traces.rho14),
        )

    def check(self, item, output):
        tensor, admissible = item
        report, parts = output
        if report.in_K != admissible:
            return FALSE_ACCEPT if report.in_K else FALSE_REJECT
        if parts is None:
            return OK
        w, (plus, minus), traces, split13, split14 = parts
        scale = tensor.norm()
        w_sum = sum(component.entries for component in w.components.values())
        norms = np.sqrt(sum(norm**2 for norm in w.norms.values()))
        sound = (
            _relative(w_sum - tensor.entries, scale) <= SUM_RTOL
            and abs(norms - scale) <= SUM_RTOL * scale
            and _relative(plus.entries + minus.entries - tensor.entries, scale) <= SUM_RTOL
            and _relative(j_conjugate(plus.entries, tensor.config.m_bar) - plus.entries, scale) <= SUM_RTOL
            and _relative(split13.total().entries - traces.rho13.entries, scale) <= SUM_RTOL
            and _relative(split14.total().entries - traces.rho14.entries, scale) <= SUM_RTOL
        )
        return OK if sound else WRONG


class Curvature(Workload):
    """Parse degree-2 fields and evaluate curvature, torsion, nabla J and holomorphy."""

    name = "curvature"
    rotation = (True, False)  # holomorphic, then origin-vanishing antiholomorphic
    cycle = len(rotation)
    off_origin_points = 3

    def inputs(self, config, rng):
        points = [np.zeros(config.m)] + [
            sampling.random_point(config, rng) for _ in range(self.off_origin_points)
        ]
        items = []
        for _ in range(POOL_CYCLES):
            for holomorphic in self.rotation:
                make = sampling.random_holomorphic_theta if holomorphic else sampling.random_antiholomorphic_theta
                theta = make(config, rng, max_degree=2, include_constant=False)
                payload = json.loads(json.dumps(serialization.theta_to_payload(theta)))
                items.append((payload, holomorphic, points))
        return items

    def run(self, item):
        payload, _, points = item
        theta = serialization.theta_from_payload(payload)
        conn = api.connection_from_theta(theta)
        curvatures = [api.curvature_at(conn, point) for point in points]
        return (
            curvatures,
            api.torsion_residual(conn),
            api.nabla_j_residual(conn),
            api.holomorphy_type(theta),
        )

    def check(self, item, output):
        # Parity laws: a holomorphic field has odd curvature at every point,
        # an origin-vanishing antiholomorphic one even curvature at the origin.
        _, holomorphic, _ = item
        curvatures, torsion, nabla_j, kind = output
        expected = HolomorphyKind.HOLOMORPHIC if holomorphic else HolomorphyKind.ANTIHOLOMORPHIC
        if torsion != 0.0 or nabla_j != 0.0 or kind.kind is not expected:
            return WRONG
        sign = -1.0 if holomorphic else 1.0
        for curvature in curvatures if holomorphic else curvatures[:1]:
            entries = curvature.entries
            conj = j_conjugate(entries, curvature.config.m_bar)
            if _relative(conj - sign * entries, 2.0 * float(np.linalg.norm(entries))) > PARITY_RTOL:
                return WRONG
        return OK


class CliCold(Workload):
    """One fresh ``python -m affine_kahler`` process per operation, subcommands in rotation."""

    name = "cli-cold"
    in_process = False
    entries = ("dims", "check", "decompose", "realize_joint", "realize_split", "curvature", "paper_examples")
    cycle = len(entries)

    def __init__(self, root: Path, workdir: Path, env: dict[str, str]) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.tracer = None  # set for a traced half: launches go through child.py
        self.peak_rss_kib = 0

    def inputs(self, config, rng):
        m_bar = config.m_bar
        self.tensor = api.linear_curvature_at_zero(sampling.random_degree_one_theta(config, rng))
        field = sampling.random_holomorphic_theta(config, rng, max_degree=2, include_constant=False)
        point = sampling.random_point(config, rng)
        paths = {name: str(self.workdir / f"{name}.json") for name in ("tensor", "field", "joint", "split")}
        serialization.write_tensor_file(paths["tensor"], self.tensor)
        serialization.write_theta_file(paths["field"], field)
        case = "4.2.w11" if m_bar >= 3 else "4.1.1"  # 4.2.w11 needs m_bar >= 3
        argvs = {
            "dims": ["dims", "--mbar", str(m_bar)],
            "check": ["check", "--input", paths["tensor"]],
            "decompose": ["decompose", "--input", paths["tensor"]],
            "realize_joint": ["realize", "--input", paths["tensor"], "--out", paths["joint"], "--mode", "joint"],
            "realize_split": ["realize", "--input", paths["tensor"], "--out", paths["split"], "--mode", "split"],
            "curvature": ["curvature", "--theta", paths["field"], "--point=" + ",".join(map(repr, point.tolist()))],
            "paper_examples": ["paper-examples", "--case", case],
        }
        self.outputs = {"realize_joint": paths["joint"], "realize_split": paths["split"]}
        return [(entry, argvs[entry]) for entry in self.entries]

    def run(self, item):
        entry, argv = item
        spans_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "affine_kahler", *argv]
        else:
            cmd = [sys.executable, str(CHILD), "cli", entry, str(spans_path), *argv]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if self.tracer is not None:
            self._merge_spans(spans_path)
        return proc.returncode, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")

    def _merge_spans(self, path: Path) -> None:
        record = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        offset = len(self.tracer.spans)
        op = self.tracer.op
        for name, parent, start, end in record["spans"]:
            self.tracer.spans.append([name, parent + offset if parent >= 0 else -1, op, start, end])
        self.tracer.counts[(op, "#cli.import_ms")] += record["import_ms"]
        for name, value in record["counts"]:
            self.tracer.counts[(op, name)] += value

    def check(self, item, output):
        entry, _ = item
        code, stdout, stderr = output
        if code == 1 and entry in ("check", "decompose", "realize_joint", "realize_split"):
            return FALSE_REJECT  # exit 1: the admissible input was judged outside K
        if code != 0:
            raise RuntimeError(f"{entry} exited with {code}: {stderr.strip()[-300:]}")
        lines = stdout.splitlines()
        if entry.startswith("realize"):
            return OK if self._check_realized(lines, entry) else WRONG
        return OK if getattr(self, "_check_" + entry)(lines) else WRONG

    @staticmethod
    def _check_dims(lines):
        return len(lines) > 0 and all(line.endswith(" OK") for line in lines)

    @staticmethod
    def _check_check(lines):
        rows = dict(line.split(" ", 1) for line in lines)
        return rows.get("in_K") == "true" and all(
            rows.get(name, "").startswith("OK ") for name in ("antisym12", "bianchi1", "kahler_last2_1h")
        )

    def _check_decompose(self, lines):
        values = {label: float(value) for label, value in (line.split() for line in lines)}
        total = self.tensor.norm()
        w_norm = np.sqrt(sum(values[f"W{i}"] ** 2 for i in range(1, 13)))
        parity_norm = np.hypot(values["parity_plus_norm"], values["parity_minus_norm"])
        return (
            abs(values["total_norm"] - total) <= SUM_RTOL * total
            and abs(w_norm - total) <= SUM_RTOL * total
            and values["residual"] <= SUM_RTOL * total
            and abs(parity_norm - total) <= SUM_RTOL * total
        )

    def _check_realized(self, lines, entry):
        if "verified true" not in lines:
            return False
        theta = serialization.read_theta_file(self.outputs[entry])
        curvature = api.linear_curvature_at_zero(theta)
        return _relative(curvature.entries - self.tensor.entries, self.tensor.norm()) <= REALIZE_RTOL

    @staticmethod
    def _check_curvature(lines):
        # The field is holomorphic, so its curvature is odd at every point.
        curvature = serialization.tensor_from_payload(json.loads(lines[-1]))
        entries = curvature.entries
        conj = j_conjugate(entries, curvature.config.m_bar)
        return _relative(conj + entries, 2.0 * float(np.linalg.norm(entries))) <= PARITY_RTOL

    @staticmethod
    def _check_paper_examples(lines):
        passed, _, total = lines[-1].split(" ")[0].partition("/")
        return lines[-1].endswith("checks passed") and passed == total and not any(
            line.endswith(" FAIL") for line in lines
        )


def make(name: str, root: Path, workdir: Path, env: dict[str, str]) -> Workload:
    if name == "cli-cold":
        return CliCold(root, workdir, env)
    return {"realize": Realize, "decompose": Decompose, "curvature": Curvature}[name]()


def timed_set_up_s(name: str, m_bar: int, started: float) -> float:
    """Finish a set-up begun at ``started`` (before this module was imported)."""
    build(name, api.SpaceConfig(m_bar))
    return time.perf_counter() - started
