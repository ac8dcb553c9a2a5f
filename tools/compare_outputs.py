"""Compare what seqlab's command lines print in two source trees.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [LINE ...]

The corpus is every command line of the README's CLI block, every `cli`-pool
``argv`` and ``ref_argv`` of ``perfbench/pool.py`` (read, never edited), from
either tree, and each extra LINE given (a quoted command line, with or
without a leading ``seqlab``), then ``--help`` and ``COMMAND --help`` for
every command those lines name, so help text is compared too.  Each line runs in both trees as
``python -m seqlab.cli``, with that tree's ``src`` alone on PYTHONPATH and a
fresh empty directory as HOME and as the working directory, so no b-file
cache or stray file carries over.  The rest of the environment is the
caller's: set OEIS_BASE_URL to a dead address to probe ``--online`` lines
offline.

Prints each line whose exit code, stdout or stderr differ, with a short diff,
then a count.  Exits 1 if any line differs and 0 if none does.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 600
DIFF_LINES = 12


def readme_lines(root: Path) -> list[list[str]]:
    """The command lines of the README's CLI block, without ``seqlab``."""
    readme = (root / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines() if line.startswith("seqlab ")]


def pool_lines(root: Path) -> list[list[str]]:
    """Every ``argv`` and ``ref_argv`` of the benchmark's `cli` pool."""
    spec = importlib.util.spec_from_file_location("_seqlab_pool", root / "perfbench" / "pool.py")
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return [argv for task in pool.pool(pool.CLI)
            for argv in (task["args"]["argv"], task["args"].get("ref_argv")) if argv]


def corpus(*roots: Path, extra: tuple[str, ...] = ()) -> list[list[str]]:
    """The command lines to compare, each once, in first-seen order."""
    lines = [argv for root in roots for argv in readme_lines(root) + pool_lines(root)]
    for text in extra:
        argv = shlex.split(text)
        lines.append(argv[1:] if argv[:1] == ["seqlab"] else argv)
    names = [argv[0] for argv in lines if argv and not argv[0].startswith("-")]
    lines += [["--help"]] + [[name, "--help"] for name in names]
    unique = {tuple(argv): list(argv) for argv in lines}
    return list(unique.values())


def start(root: Path, argv: list[str], home: str) -> subprocess.Popen:
    env = dict(os.environ, HOME=home, PYTHONPATH=str(root / "src"))
    return subprocess.Popen([sys.executable, "-m", "seqlab.cli", *argv], cwd=home, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def outcome(proc: subprocess.Popen) -> tuple[int | None, str, str]:
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "", f"timed out after {TIMEOUT_S} s\n"
    return proc.returncode, stdout, stderr


def differences(parent: tuple, change: tuple) -> list[str]:
    """What differs between two outcomes, as report lines."""
    lines = []
    if parent[0] != change[0]:
        lines.append(f"  exit {parent[0]} -> {change[0]}")
    for name, old, new in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        if old != new:
            diff = list(difflib.unified_diff(old.splitlines(), new.splitlines(), "parent",
                                             "change", lineterm="", n=0))
            lines.append(f"  {name}:")
            lines += [f"    {line}" for line in diff[2:2 + DIFF_LINES]]
    return lines


def main(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("lines", nargs="*", metavar="LINE", help="extra command lines")
    opts = ap.parse_args(args)
    roots = (opts.parent.resolve(), opts.change.resolve())
    lines = corpus(*roots, extra=tuple(opts.lines))
    differing = 0
    for argv in lines:
        with tempfile.TemporaryDirectory() as old_home, tempfile.TemporaryDirectory() as new_home:
            # the two trees run side by side, each in its own empty HOME
            procs = [start(root, argv, home) for root, home in zip(roots, (old_home, new_home))]
            report = differences(*(outcome(proc) for proc in procs))
        if report:
            differing += 1
            print(shlex.join(argv))
            print("\n".join(report))
    print(f"{len(lines)} command lines, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
