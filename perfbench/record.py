"""Record the reference content of every task in every pool.

    python3 perfbench/record.py

Runs each task once, traced, on the source tree under ``src`` and writes
``perfbench/references.json``: per task id, the digest of the result's
mathematical content, a short readable summary, and the input properties
counted on the way (primes scanned and how many divide no term, endomorphism
candidates and yield, engine tables built and their terms).  A task that
fails by a documented defect names a ``ref_argv`` whose output is recorded in
its place.  Re-record only when the expected mathematics changes, and say so.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _cli_round, _library_round, child_env, provenance
from pool import CLI, WORKLOADS, pool

PROPS = (
    "experiment.primes_scanned",
    "experiment.trivial_primes",
    "algebraic.candidates",
    "algebraic.endomorphisms",
    "classical.builds",
    "classical.terms_built",
)
CHUNK = 12  # library tasks per worker, to stay within the worker timeout


def record() -> dict:
    env = child_env()
    references = {}
    for workload in WORKLOADS:
        tasks = pool(workload)
        records = []
        if workload == CLI:
            for t in tasks:
                round_ = _cli_round([t], True, env, use_ref=True)
                records.append(dict(round_["tasks"][0], counts=round_["trace"]["counts"]))
        else:
            for i in range(0, len(tasks), CHUNK):
                records.extend(_library_round(tasks[i : i + CHUNK], True, env)["tasks"])
        for r in records:
            if "error" in r:
                raise RuntimeError(f"{r['id']}: {r['error']}")
        for r in records:
            props = {k: v for k, v in r.get("counts", {}).items() if k in PROPS}
            references[r["id"]] = {"digest": r["digest"], "summary": r["summary"], "props": props}
        print(f"{workload}: {len(records)} references", file=sys.stderr)
    return references


def main() -> int:
    sys.set_int_max_str_digits(0)
    references = record()
    doc = {"recorded_with": provenance(seed=None), "tasks": dict(sorted(references.items()))}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
