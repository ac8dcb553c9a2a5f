"""Worker process of the benchmark.

    python perfbench/worker.py tasks TRACE < tasks.json
    python perfbench/worker.py cli <seqlab arguments...>

``tasks`` runs a task list in this fresh interpreter and prints one JSON
line: each task's latency, the speed-kernel times taken right before it
(``speed.py``) and its content digest and, when traced (TRACE is 1), the
spans and per-task counters.  ``cli`` runs one seqlab command with tracing on and
writes its spans as the last line of standard error, after the command's
own output.  Needs ``PYTHONPATH`` to name the source tree to measure.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "perfbench-trace "


def run_tasks(traced: bool) -> None:
    import seqlab  # noqa: F401  (imported before the first timed task)

    import speed
    import tasks
    from content import digest

    tracer = None
    if traced:
        from spans import LAYERS, Tracer

        tracer = Tracer()
        tracer.install([layer for layer in LAYERS if layer != "cli"])
    speed.kernel()  # warm-up, not a sample
    out = []
    for task in json.load(sys.stdin):
        kind, args = task["kind"], task["args"]
        before = dict(tracer.counts) if tracer else {}
        prepared = tasks.prepare(kind, args)
        cal = speed.probe()
        start = time.perf_counter()
        try:
            result = tasks.run(kind, args, prepared)
        except Exception as exc:  # a failing task is data for the parent
            latency = time.perf_counter() - start
            out.append({"id": task["id"], "latency": latency, "cal": cal, "error": f"{type(exc).__name__}: {exc}"})
            continue
        latency = time.perf_counter() - start
        content = tasks.content(kind, result)
        del result
        record = {"id": task["id"], "latency": latency, "cal": cal, "digest": digest(content), "summary": json.dumps(content)[:160]}
        if tracer:
            record["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items() if v != before.get(k, 0)}
        out.append(record)
    doc = {"tasks": out, "cal_tail": speed.probe()}
    if tracer:
        doc["trace"] = tracer.export()
    print(json.dumps(doc))


def run_cli(argv: list[str]) -> None:
    import seqlab.cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    try:
        tracer.span("cli.main", seqlab.cli.main.main, args=argv, prog_name="seqlab", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    window = time.perf_counter() - start
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({"window": window, **tracer.export()}), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1:2] == ["tasks"] and len(sys.argv) == 3:
        run_tasks(sys.argv[2] == "1")
    elif sys.argv[1:2] == ["cli"]:
        run_cli(sys.argv[2:])
    else:
        sys.exit("usage: worker.py tasks TRACE < tasks.json | worker.py cli ARGS...")
