"""seqlab's benchmark: run one workload for a fixed time, check every result.

    python3 perfbench/run.py --workload scan-sparse --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a seqlab source tree; the library is imported from its
``src`` directory.  Load is one closed loop with a single client: tasks run
one after another.  A round runs the seed's whole task list in a fresh
interpreter (a worker process for library tasks, one seqlab process per
command for ``cli``), and rounds repeat while the next one would end within
``--seconds``, and at least until three rounds and 60 task latencies are
done.  Times are scaled to a reference machine speed, measured by a fixed
kernel timed right before and after every task (``speed.py``); the raw
times are kept in the results file.  Every result is checked against the
reference recorded for its task in ``references.json``; ``correct`` is false
if any task gives other content, or fails other than by the documented
defect of its command.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced rounds alternate and the per-module metrics are printed.
The last line of standard output is one JSON object; a results file with
provenance, input properties and every sample goes to ``perfbench/out/``.
See ``METRICS.md`` for what each metric means and which change should move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from content import cli_content, digest  # noqa: E402
from pool import CLI, WORKLOADS, select  # noqa: E402
from spans import LAYERS  # noqa: E402
from worker import TRACE_MARK  # noqa: E402

MIN_ROUNDS = 3
MIN_SAMPLES = 60  # task latencies per untraced run
TAIL_BEYOND = 10  # samples the reported tail percentile leaves beyond it, at least
KNOWN_DEFECT_EXIT = 7  # exit code of the documented defect of tasks with a ref_argv
MIN_TRACE_ROUNDS = 2  # of each kind, untraced and traced
SETUP_PROBES = 4  # after every round, spreading them over the run
HARD_CAP_S = 120.0  # no new round starts after this, whatever --seconds says
TASK_TIMEOUT_S = 45.0  # with HARD_CAP_S, keeps a run under its 180 s limit
COVERAGE_TOLERANCE = 0.03  # module self times sum to within 3% of traced wall

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p50_s", "s"),
    ("cmd_p90_s", "s"),
)

PER_LAYER = (
    ("arith.calls", "count"),
    ("arith.self_s", "s"),
    ("realizability.self_s", "s"),
    ("realizability.checks", "count"),
    ("realizability.terms_checked", "count"),
    ("experiment.self_s", "s"),
    ("experiment.primes_scanned", "count"),
    ("experiment.trivial_prime_share", "ratio"),
    ("experiment.render_s", "s"),
    ("classical.self_s", "s"),
    ("classical.builds", "count"),
    ("classical.terms_built", "count"),
    ("primes.self_s", "s"),
    ("primes.classified", "count"),
    ("congruences.self_s", "s"),
    ("congruences.checks", "count"),
    ("algebraic.self_s", "s"),
    ("algebraic.candidates", "count"),
    ("algebraic.endo_yield", "ratio"),
    ("matrices.self_s", "s"),
    ("matrices.det_calls", "count"),
    ("bfile.self_s", "s"),
    ("bfile.bytes_parsed", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

class SetupError(Exception):
    """The tree to measure or the benchmark's own data is missing."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # the CLI's default b-file cache lives under HOME; point it inside the tree
    env["HOME"] = str(HERE / "out" / "home")
    return env


def check_tree() -> dict:
    if not (ROOT / "src" / "seqlab" / "__init__.py").is_file():
        raise SetupError(f"no seqlab source tree at {ROOT / 'src'}")
    path = HERE / "references.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())["tasks"]


# ---------------------------------------------------------------------------
# one round


def _library_round(tasks: list[dict], traced: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "tasks", "1" if traced else "0"],
        input=json.dumps(tasks),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=TASK_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    speed.scale(doc["tasks"], doc["cal_tail"])
    round_ = {"tasks": doc["tasks"]}
    if traced:
        tasks_window = sum(t["latency"] for t in doc["tasks"])
        round_["trace"] = {"window": tasks_window, **doc["trace"]}
    return round_


def _cli_round(tasks: list[dict], traced: bool, env: dict, use_ref: bool = False) -> dict:
    """Each task in its own seqlab process.  ``use_ref`` runs a task's
    ``ref_argv`` in place of its command and reads the output as the task's."""
    records = []
    spans: dict[tuple[str, str], list] = {}
    counts: dict[str, int] = {}
    window = 0.0
    speed.kernel()  # warm-up, not a sample
    for task in tasks:
        argv = task["args"]["argv"]
        run_argv = task["args"].get("ref_argv", argv) if use_ref else argv
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", *run_argv]
        else:
            cmd = [sys.executable, "-m", "seqlab.cli", *run_argv]
        cal = speed.probe()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=TASK_TIMEOUT_S)
        latency = time.perf_counter() - start
        record = {"id": task["id"], "latency": latency, "cal": cal}
        stderr = proc.stderr
        if traced:
            head, _, last = stderr.rstrip("\n").rpartition("\n")
            if not last.startswith(TRACE_MARK):
                raise RuntimeError(f"traced command gave no spans: {argv}: {stderr[-400:]}")
            stderr = head
            doc = json.loads(last[len(TRACE_MARK) :])
            window += doc["window"]
            for parent, key, calls, total, self_s in doc["spans"]:
                rec = spans.setdefault((parent, key), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
        if proc.returncode != 0:
            record["error"] = f"exit {proc.returncode}: {stderr.strip()[-200:]}"
        else:
            try:
                content = cli_content(argv, proc.stdout)
            except (ValueError, KeyError, IndexError, AttributeError) as exc:
                record["error"] = f"unreadable output ({type(exc).__name__}: {exc})"
            else:
                record["digest"] = digest(content)
                record["summary"] = json.dumps(content)[:160]
        records.append(record)
    speed.scale(records, speed.probe())
    round_ = {"tasks": records}
    if traced:
        round_["trace"] = {
            "window": window,
            "spans": [[p, k, *rec] for (p, k), rec in sorted(spans.items())],
            "counts": dict(sorted(counts.items())),
        }
    return round_


def run_round(workload: str, tasks: list[dict], traced: bool, env: dict) -> dict:
    start = time.perf_counter()
    if workload == CLI:
        round_ = _cli_round(tasks, traced, env)
    else:
        round_ = _library_round(tasks, traced, env)
    round_["traced"] = traced
    round_["elapsed_s"] = time.perf_counter() - start
    round_["raw_wall_s"] = sum(t["latency"] for t in round_["tasks"])
    round_["wall_s"] = sum(t["scaled"] for t in round_["tasks"])
    round_["speed"] = statistics.median(t["speed"] for t in round_["tasks"])
    return round_


# ---------------------------------------------------------------------------
# metrics


def setup_probes(workload: str, env: dict, n: int) -> list[dict]:
    """Seconds from spawn until seqlab (seqlab.cli for cli) is imported, raw
    and scaled to the reference speed."""
    module = "seqlab.cli" if workload == CLI else "seqlab"
    cmd = [sys.executable, "-c", f"import time, {module}; print(time.monotonic())"]
    samples = []
    for _ in range(n):
        cal = speed.probe()
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=TASK_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {module}: {proc.stderr.strip()[-400:]}")
        samples.append({"latency": float(proc.stdout.split()[-1]) - start, "cal": cal})
    speed.scale(samples, speed.probe())
    return samples


def mean_wall(rounds: list[dict]) -> float:
    """Time to solution of the task list at the reference speed, averaged
    over rounds."""
    return statistics.mean(r["wall_s"] for r in rounds)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def tail_quantile(tasks_per_round: int) -> float:
    """The quantile reported as ``cmd_p90_s``: 0.9, or the highest that
    leaves ten samples beyond it in the fewest samples a run takes.  It is
    fixed per workload, so it does not change with the machine's speed."""
    fewest = max(MIN_ROUNDS * tasks_per_round, MIN_SAMPLES)
    return min(0.9, (fewest - TAIL_BEYOND) / fewest)


def check_round(round_: dict, references: dict, known_defects: set[str]) -> tuple[int, int, list]:
    """(failed, wrong, problems) of one round against the references.  A
    task in ``known_defects`` may fail with its documented exit code; any
    other failure, and any content unlike the reference, counts as wrong."""
    failed = wrong = 0
    problems = []
    for t in round_["tasks"]:
        ref = references[t["id"]]
        if "error" in t:
            failed += 1
            documented = t["id"] in known_defects and t["error"].startswith(f"exit {KNOWN_DEFECT_EXIT}:")
            wrong += not documented
            problems.append({"id": t["id"], "error": t["error"], "documented_defect": documented})
        elif t["digest"] != ref["digest"]:
            failed += 1
            wrong += 1
            problems.append({"id": t["id"], "got": t["summary"], "want": ref["summary"]})
    return failed, wrong, problems


def properties(tasks: list[dict], references: dict) -> dict:
    """Input properties of the task list, from the recorded references."""
    total: dict[str, int] = {}
    for t in tasks:
        for name, n in references[t["id"]].get("props", {}).items():
            total[name] = total.get(name, 0) + n
    scanned = total.get("experiment.primes_scanned", 0)
    candidates = total.get("algebraic.candidates", 0)
    return {
        "primes_scanned": scanned,
        "trivial_primes": total.get("experiment.trivial_primes", 0),
        "trivial_prime_share": total.get("experiment.trivial_primes", 0) / scanned if scanned else 0.0,
        "algebraic_candidates": candidates,
        "endomorphisms": total.get("algebraic.endomorphisms", 0),
        "endo_yield": total.get("algebraic.endomorphisms", 0) / candidates if candidates else 0.0,
        "engine_builds": total.get("classical.builds", 0),
        "terms_built": total.get("classical.terms_built", 0),
    }


def layer_metrics(trace: dict, props: dict, factor: float) -> dict:
    """Per-module metrics of one traced round; times are scaled by the
    round's median speed ``factor``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    render_s = 0.0
    for parent, key, n, total, own in trace["spans"]:
        module = key.split(".", 1)[0]
        self_s[module] += own
        calls[key] = calls.get(key, 0) + n
        if key == "experiment.render_report":
            render_s += total
    counts = trace["counts"]

    def called(prefix, suffix=""):
        return sum(n for key, n in calls.items() if key.startswith(prefix) and key.endswith(suffix))

    candidates = counts.get("algebraic.candidates", 0)
    out = {f"{m}.self_s": self_s[m] * factor for m in LAYERS}
    out.update(
        {
            "arith.calls": called("arith."),
            "realizability.checks": called("realizability.check_realizable"),
            "realizability.terms_checked": counts.get("realizability.terms_checked", 0),
            "experiment.primes_scanned": counts.get("experiment.primes_scanned", 0),
            "experiment.trivial_prime_share": props["trivial_prime_share"],
            "experiment.render_s": render_s * factor,
            "classical.builds": counts.get("classical.builds", 0),
            "classical.terms_built": counts.get("classical.terms_built", 0),
            "primes.classified": called("primes.classify_"),
            "congruences.checks": called("congruences.", "_check"),
            "algebraic.candidates": candidates,
            "algebraic.endo_yield": counts.get("algebraic.endomorphisms", 0) / candidates if candidates else 0.0,
            "matrices.det_calls": called("matrices.IntMatrix.det"),
            "bfile.bytes_parsed": counts.get("bfile.bytes_parsed", 0),
            "trace.coverage": sum(self_s.values()) / trace["window"] if trace["window"] else 0.0,
        }
    )
    return out


COUNT_METRICS = {name for name, unit in PER_LAYER if unit in ("count", "bytes")}


# ---------------------------------------------------------------------------
# one run


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool, references: dict) -> dict:
    env = child_env()
    tasks = select(workload, seed)
    missing = [t["id"] for t in tasks if t["id"] not in references]
    if missing:
        raise SetupError(f"no recorded reference for {missing[:3]}")
    props = properties(tasks, references)
    setup_probes(workload, env, 1)  # warms the bytecode cache; not a sample
    setup: list[dict] = []

    start = time.monotonic()
    deadline = start + seconds
    rounds: list[dict] = []
    while True:
        untraced = [r for r in rounds if not r["traced"]]
        traced_rounds = [r for r in rounds if r["traced"]]
        if traced:
            enough = min(len(untraced), len(traced_rounds)) >= MIN_TRACE_ROUNDS
            next_traced = len(traced_rounds) < len(untraced)
        else:
            enough = len(rounds) >= MIN_ROUNDS and len(rounds) * len(tasks) >= MIN_SAMPLES
            next_traced = False
        now = time.monotonic()
        # stop when the next round would end past the deadline
        if rounds and ((now + rounds[-1]["elapsed_s"] > deadline and enough) or now - start > HARD_CAP_S):
            break
        rounds.append(run_round(workload, tasks, next_traced, env))
        if not traced:
            setup += setup_probes(workload, env, SETUP_PROBES)

    known_defects = {t["id"] for t in tasks if "ref_argv" in t["args"]}
    failed = wrong = 0
    problems: list = []
    for r in rounds:
        f, w, p = check_round(r, references, known_defects)
        failed, wrong = failed + f, wrong + w
        problems.extend(p)
    attempted = sum(len(r["tasks"]) for r in rounds)

    untraced = [r for r in rounds if not r["traced"]]
    latencies = [t["scaled"] if "error" not in t else math.inf for r in untraced for t in r["tasks"]]
    samples = {"rounds": len(untraced), "tasks_per_round": len(tasks), "task_latencies": len(latencies), "setup_probes": len(setup)}
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": provenance(seed),
        "tasks": [t["id"] for t in tasks],
        "properties": props,
        "samples": samples,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    if not traced:
        tail_q = samples["cmd_p90_quantile"] = tail_quantile(len(tasks))
        result["metrics"] = {
            "wall_s": mean_wall(untraced),
            "setup_s": statistics.median(p["scaled"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "cmd_p50_s": percentile(latencies, 0.5),
            "cmd_p90_s": percentile(latencies, tail_q),
        }
        result["raw"] = {
            "round_wall_s": [r["wall_s"] for r in untraced],
            "round_raw_wall_s": [r["raw_wall_s"] for r in untraced],
            "round_speed": [r["speed"] for r in untraced],
            "setup_s": [p["scaled"] for p in setup],
            "setup_raw_s": [p["latency"] for p in setup],
            "task_latency_s": [[t["scaled"] for t in r["tasks"]] for r in untraced],
            "task_raw_latency_s": [[t["latency"] for t in r["tasks"]] for r in untraced],
        }
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r["trace"], props, r["speed"]) for r in traced_rounds]
        # counts repeat exactly from round to round (checked below); times vary
        metrics = {
            name: per_round[0][name] if name in COUNT_METRICS else statistics.median(m[name] for m in per_round)
            for name, _ in PER_LAYER
            if name != "trace.overhead"
        }
        metrics["trace.overhead"] = mean_wall(traced_rounds) / mean_wall(untraced)
        result["metrics"] = {name: metrics[name] for name, _ in PER_LAYER}
        coverages = [m["trace.coverage"] for m in per_round]
        checks = {
            "coverage_tolerance": COVERAGE_TOLERANCE,
            "coverage_per_round": coverages,
            "coverage_within_tolerance": all(abs(1 - c) <= COVERAGE_TOLERANCE for c in coverages),
            "counts_repeat": all(all(m[k] == per_round[0][k] for k in COUNT_METRICS) for m in per_round),
        }
        result["trace_checks"] = checks
        # a tracer that misses time or counts unsteadily makes the run incorrect
        result["correct"] = result["correct"] and checks["coverage_within_tolerance"] and checks["counts_repeat"]
        result["raw"] = {
            "round_wall_s_untraced": [r["wall_s"] for r in untraced],
            "round_wall_s_traced": [r["wall_s"] for r in traced_rounds],
            "round_speed_untraced": [r["speed"] for r in untraced],
            "round_speed_traced": [r["speed"] for r in traced_rounds],
            "per_round": per_round,
        }
        result["spans"] = traced_rounds[0]["trace"]["spans"]
    return result


def summary_lines(result: dict) -> list[str]:
    units = dict(END_TO_END + PER_LAYER)
    s = result["samples"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"rounds {s['rounds']}  tasks/round {s['tasks_per_round']}  latency samples {s['task_latencies']}  "
        + (f"cmd_p90_s quantile {s['cmd_p90_quantile']:.4g}  " if "cmd_p90_quantile" in s else "")
        + f"setup probes {s['setup_probes']}",
        f"  attempted {result['attempted']}  failed {result['failed']}  failed_frac {result['failed_frac']:.4f}  "
        f"correct {result['correct']}",
    ]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:32s} {value:.6g} {units[name]}")
    seen = set()
    for p in result["problems"]:
        if p["id"] not in seen:
            seen.add(p["id"])
            lines.append(f"  problem: {p}")
    if "trace_checks" in result:
        lines.append(f"  trace checks: {json.dumps({k: v for k, v in result['trace_checks'].items() if k != 'coverage_per_round'})}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.set_int_max_str_digits(0)
    try:
        references = check_tree()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), references)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary_lines(result)))
    print(f"  results: {path.relative_to(ROOT)}")
    units = dict(END_TO_END + PER_LAYER)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in result["metrics"].items()}
    line = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS stays per workload."""
    lines = []
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
        head, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(head, flush=True)
        lines.append((workload, json.loads(last)))
    print(
        json.dumps(
            {
                "correct": all(doc["correct"] for _, doc in lines),
                "attempted": sum(doc["attempted"] for _, doc in lines),
                "failed": sum(doc["failed"] for _, doc in lines),
                "metrics": {f"{w}/{name}": m for w, doc in lines for name, m in doc["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
