"""Timing wrappers installed from outside the package, and the per-layer report.

A traced run rebinds each public layer function listed in ``TARGETS`` to a
wrapper, in every ``affine_kahler`` module namespace that holds it (the
defining module too, so calls inside a module are caught).  Each wrapper
records one span: name, parent span, operation id, start and end.  Two
counters ride along: ``PolyScalar`` constructions and the SVDs that the
linalg layer runs (with the computed size of their inputs).  Spans stay in
memory and are written out when the run ends; ``uninstall`` restores every
binding.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Layer functions wrapped in a traced run, by defining module.
TARGETS = {
    "linalg": ("nullspace", "orthonormalize", "kernel_within", "complement_within", "least_squares_solve"),
    "decomposition": (
        "kahler_space_basis",
        "kahler_parity_subspaces",
        "w_subspaces",
        "bilinear_subspaces",
        "w_project",
        "bilinear_decompose",
    ),
    "realization": ("curvature_coefficient_map", "realize", "theta_from_coefficients", "verify_realization"),
    "connections": (
        "connection_from_theta",
        "curvature_at",
        "torsion_residual",
        "nabla_j_residual",
        "holomorphy_type",
    ),
    "tensors": ("classify_symmetries", "j_parity_split", "j_parity_residuals", "ricci_traces"),
    "serialization": (
        "read_tensor_file",
        "read_theta_file",
        "write_tensor_file",
        "write_theta_file",
        "theta_from_payload",
    ),
    "witnesses": ("run_witness_case",),
}

SETUP = "setup"

#: CLI rotation entries, in rotation order; each has a ``cli.<entry>_ms`` metric.
CLI_ENTRIES = ("dims", "check", "decompose", "realize_joint", "realize_split", "curvature", "paper_examples")

# Per-layer metrics: (name, unit, how the value is formed).
#   "build": self time (or count) in the traced set-up plus its mean per
#            operation; cold construction, which the warm operations skip.
#   "op":    self time (or count) per operation.
#   "cli":   inclusive time of one CLI subcommand, per launch of it.
#   other kinds are filled in by the caller.
PER_LAYER = (
    [("cli.import_ms", "ms", "build")]
    + [(f"cli.{entry}_ms", "ms", "cli") for entry in CLI_ENTRIES]
    + [
        ("decomposition.kahler_space_basis_ms", "ms", "build"),
        ("decomposition.kahler_parity_subspaces_ms", "ms", "build"),
        ("decomposition.w_subspaces_ms", "ms", "build"),
        ("decomposition.bilinear_subspaces_ms", "ms", "build"),
        ("realization.curvature_coefficient_map_ms", "ms", "build"),
        ("linalg.nullspace_ms", "ms", "build"),
        ("linalg.orthonormalize_ms", "ms", "build"),
        ("linalg.kernel_within_ms", "ms", "build"),
        ("linalg.complement_within_ms", "ms", "build"),
        ("linalg.svd_calls", "count", "build"),
        ("linalg.svd_input_mb", "MB", "build"),
        ("linalg.least_squares_solve_ms", "ms", "op"),
        ("realization.realize_self_ms", "ms", "op"),
        ("realization.theta_from_coefficients_ms", "ms", "op"),
        ("realization.verify_realization_ms", "ms", "op"),
        ("connections.connection_from_theta_ms", "ms", "op"),
        ("connections.curvature_at_ms", "ms", "op"),
        ("connections.curvature_at_calls", "count/op", "op"),
        ("connections.torsion_residual_ms", "ms", "op"),
        ("connections.nabla_j_residual_ms", "ms", "op"),
        ("connections.holomorphy_type_ms", "ms", "op"),
        ("polynomials.objects_per_op", "count/op", "op"),
        ("tensors.classify_symmetries_ms", "ms", "op"),
        ("tensors.j_parity_split_ms", "ms", "op"),
        ("tensors.j_parity_residuals_ms", "ms", "op"),
        ("tensors.ricci_traces_ms", "ms", "op"),
        ("decomposition.w_project_ms", "ms", "op"),
        ("decomposition.bilinear_decompose_ms", "ms", "op"),
        ("witnesses.run_witness_case_ms", "ms", "op"),
        ("serialization.read_ms", "ms", "op"),
        ("serialization.write_ms", "ms", "op"),
        ("serialization.theta_from_payload_ms", "ms", "op"),
        ("tensors.false_reject_count", "count", "verdict"),
        ("tensors.false_accept_count", "count", "verdict"),
        ("trace.overhead_frac", "ratio", "overhead"),
    ]
)

# Metric name -> what it sums: span names (self time), "calls:<span>" (number
# of spans) or "#<counter>".  Unlisted "_ms" metrics sum the span of that name.
_SOURCES = {
    "cli.import_ms": ("#cli.import_ms",),
    "realization.realize_self_ms": ("realization.realize",),
    "connections.curvature_at_calls": ("calls:connections.curvature_at",),
    "polynomials.objects_per_op": ("#polynomials.PolyScalar",),
    "linalg.svd_calls": ("#linalg.svd",),
    "linalg.svd_input_mb": ("#linalg.svd_input_mb",),
    "serialization.read_ms": ("serialization.read_tensor_file", "serialization.read_theta_file"),
    "serialization.write_ms": ("serialization.write_tensor_file", "serialization.write_theta_file"),
}


class Tracer:
    """In-memory span and counter store; records only while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, op id, start, end]
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[tuple, float] = defaultdict(float)  # (op id, name) -> count

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.op, name)] += amount

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, self.op, time.perf_counter(), None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()

        return traced

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every target in every loaded package module; returns the undo list."""
    import numpy as np

    from affine_kahler.polynomials import PolyScalar

    wrappers = {}
    for layer, names in TARGETS.items():
        defining = importlib.import_module(f"affine_kahler.{layer}")
        for name in names:
            original = getattr(defining, name)
            wrappers[id(original)] = (original, tracer.wrap(original, f"{layer}.{name}"))

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "affine_kahler" or name.startswith("affine_kahler."))
    ]
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, entry[1])

    post_init = PolyScalar.__post_init__

    def counted_post_init(self):
        if tracer.op is not None:
            tracer.count("#polynomials.PolyScalar")
        post_init(self)

    undo.append((PolyScalar, "__post_init__", post_init))
    PolyScalar.__post_init__ = counted_post_init

    svd = np.linalg.svd

    @functools.wraps(svd)
    def counted_svd(a, *args, **kwargs):
        inner = tracer.innermost() if tracer.op is not None else None
        if inner is not None and inner.startswith("linalg."):
            rows, cols = np.shape(a)[-2:]
            tracer.count("#linalg.svd")
            tracer.count("#linalg.svd_input_mb", rows * cols * 8 / 1e6)
        return svd(a, *args, **kwargs)

    undo.append((np.linalg, "svd", svd))
    np.linalg.svd = counted_svd
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[4] - span[3]
    return own


def layer_metrics(spans: list[list], counts: dict[tuple, float], n_ops: int, extra: dict[str, float]) -> dict:
    """Per-layer metric values from the spans and counters of a traced run.

    ``extra`` supplies the metrics that are not built from spans (import
    time, verdict counts, tracing overhead).
    """
    own = self_times(spans)
    setup_total: dict[str, float] = defaultdict(float)
    op_total: dict[str, float] = defaultdict(float)
    cli_launches: dict[str, list[float]] = defaultdict(list)
    for span, seconds in zip(spans, own):
        name, _parent, op = span[:3]
        bucket = setup_total if op == SETUP else op_total
        bucket[name] += seconds * 1e3
        bucket["calls:" + name] += 1
        if name.startswith("cli."):
            cli_launches[name].append((span[4] - span[3]) * 1e3)
    for (op, name), value in counts.items():
        (setup_total if op == SETUP else op_total)[name] += value

    per_op = max(n_ops, 1)
    out = {}
    for name, unit, kind in PER_LAYER:
        if kind in ("build", "op"):
            sources = _SOURCES.get(name, (name.removesuffix("_ms"),))
            value = sum(op_total[src] for src in sources) / per_op
            if kind == "build":
                value += sum(setup_total[src] for src in sources)
        elif kind == "cli":
            launches = cli_launches[name.removesuffix("_ms")]
            value = sum(launches) / len(launches) if launches else 0.0
        else:
            value = extra[name]
        out[name] = {"value": value, "unit": unit}
    return out
