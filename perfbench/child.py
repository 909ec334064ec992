"""Fresh processes started by the benchmark.

    python3 perfbench/child.py setup <workload> <m_bar>
        Time one set-up from a fresh interpreter (import plus the caches the
        workload uses) and print it as JSON.
    python3 perfbench/child.py cli <entry> <spans.json> <cli arguments...>
        Traced CLI launch: install the timing wrappers, call
        affine_kahler.cli.main(arguments), write the spans and exit with the
        CLI's exit code.

Both expect the program's ``src`` directory on PYTHONPATH.
"""
import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _set_up(workload: str, m_bar: int) -> int:
    import workloads

    print(json.dumps({"setup_s": workloads.timed_set_up_s(workload, m_bar, STARTED)}))
    return 0


def _traced_cli(entry: str, spans_path: str, argv: list[str]) -> int:
    import_start = time.perf_counter()
    import affine_kahler.cli as cli

    import_ms = (time.perf_counter() - import_start) * 1e3
    import tracing

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    tracer.op = 0
    try:
        code = tracer.wrap(cli.main, f"cli.{entry}")(argv)
    finally:
        tracer.op = None
        tracing.uninstall(undo)
    record = {
        "import_ms": import_ms,
        "spans": [[name, parent, start, end] for name, parent, _op, start, end in tracer.spans],
        "counts": [[name, value] for (_op, name), value in tracer.counts.items()],
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return _set_up(argv[1], int(argv[2]))
    if mode == "cli":
        return _traced_cli(argv[1], argv[2], argv[3:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
