"""Mathematical content of task results, independent of report bytes.

Results are checked on what they say, not on how they are printed: verdict
statuses and least witnesses, per-prime statuses and witnesses, prime
classifications, hashes of engine values, endomorphism images and fixed-point
counts, and the torsion match.  Lines and fields a parser does not know are
ignored, so reports may gain fields (provenance, timings) without failing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re


def digest(content) -> str:
    """Stable sha256 of a JSON-able content value."""
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def values_digest(values) -> str:
    """sha256 of a sequence of numbers written in decimal."""
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


def _int_or_none(text):
    return int(text) if text not in (None, "") else None


def _kv(text: str) -> dict:
    return dict(re.findall(r"(\w+)=(\S+)", text))


# ---------------------------------------------------------------------------
# survey reports: run_experiment documents and their three renderings


def _witness(w: dict | None) -> list:
    if not w:
        return [None, None, None]
    return [w.get("check"), _int_or_none(w.get("n")), _int_or_none(w.get("value"))]


def report_from_doc(doc: dict) -> dict:
    """Content of a report document (run_experiment result or --format json)."""
    checks = {c["type"]: [c["status"]] + _witness(c["witness"])[1:] for c in doc["checks"]}
    local = sorted([r["prime"], r["status"]] + _witness(r["witness"]) for r in doc["local"])
    magical = None
    if "magical" in doc:
        fails = [[e["shift"]] + _witness(e["witness"]) for e in doc["magical"]["entries"] if e["status"] == "fail"]
        magical = {"all_pass": doc["magical"]["all_pass"], "fails": fails}
    return {"depth": doc["depth"], "checks": checks, "local": local, "magical": magical}


_CHECK_LINE = re.compile(r"^(\w+)\s+(pass-up-to|fail-at)(?:\(\d+\))?(?:\s+\[(.*)\])?$")


def report_from_table(text: str) -> dict:
    """Content of a report rendered as a table."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    depth = int(re.search(r"depth: (\d+)", lines[0]).group(1))
    checks: dict = {}
    local: list = []
    magical = None
    for line in lines[1:]:
        if line.startswith("realizable* at:"):
            local += [[int(q), "realizable*", None, None, None] for q in line.split(":", 1)[1].split()]
        elif re.match(r"^\d+: ", line):
            q, rest = line.split(":", 1)
            kv = _kv(rest)
            local.append([int(q), "not-realizable", kv.get("check"), _int_or_none(kv.get("n")), _int_or_none(kv.get("value"))])
        elif line.startswith("magical up to shift"):
            magical = {"all_pass": line.endswith("yes"), "fails": []}
        elif magical is not None and re.match(r"^shift \d+ fails \[", line):
            kv = _kv(line[line.index("[") + 1 : line.rindex("]")])
            shift = int(line.split()[1])
            magical["fails"].append([shift, kv.get("check"), _int_or_none(kv.get("n")), _int_or_none(kv.get("value"))])
        else:
            m = _CHECK_LINE.match(line)
            if m:
                kv = _kv(m.group(3) or "")
                checks[m.group(1)] = [m.group(2), _int_or_none(kv.get("n")), _int_or_none(kv.get("value"))]
    return {"depth": depth, "checks": checks, "local": sorted(local), "magical": magical}


def report_from_csv(text: str) -> dict:
    """Content of a report rendered as CSV (which carries no shift results)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    first = rows[0]
    checks = {}
    for name in ("dold", "sign", "monotone"):
        checks[name] = [first[f"{name}_status"], _int_or_none(first[f"{name}_n"]), _int_or_none(first[f"{name}_value"])]
    local = sorted(
        [int(r["prime"]), r["local_status"], r["witness_check"] or None, _int_or_none(r["witness_n"]), _int_or_none(r["witness_value"])]
        for r in rows
        if r["prime"]
    )
    return {"depth": int(first["depth"]), "checks": checks, "local": local, "magical": None}


# ---------------------------------------------------------------------------
# other command outputs


def regular_content(text: str, keep_strength: bool) -> list:
    """Per-prime classification.  The strong-up-to bound depends on the search
    depth, so strength is kept only when the command fixes that depth."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].isdigit():
            rows.append([int(parts[0]), parts[1]] + (parts[2:3] if keep_strength else []))
    return rows


_ENDO_LINE = re.compile(r"endo \d+: image=(\[[^\]]*\]) fix=(\[[^\]]*\])")


def groups_content(text: str) -> dict:
    header = re.search(r"order (\d+): (\d+) endomorphisms", text)
    endos = [[json.loads(img), json.loads(fix)] for img, fix in _ENDO_LINE.findall(text)]
    target = None
    m = re.search(r"target: realized by image=(\[[^\]]*\])", text)
    if m:
        target = json.loads(m.group(1))
    elif "target: not realized" in text:
        target = "not-realized"
    return {"order": int(header.group(1)), "count": int(header.group(2)), "endos": digest(endos), "target": target}


def ell_content(text: str) -> dict:
    lines = text.splitlines()
    out = {"values": [int(v) for v in lines[0].split()]}
    for line in lines[1:]:
        if line.startswith("algebraically realizable:"):
            out["realizable"] = line.split(":", 1)[1].split()[0]
        elif line.startswith("torsion-module realization matches:"):
            out["match"] = line.split(":", 1)[1].strip()
    return out


def oracle_content(text: str) -> dict:
    families = {fam: [int(a), int(b)] for fam, a, b in re.findall(r"^([\w-]+): (\d+)/(\d+) hold$", text, re.M)}
    return {"families": families, "all_hold": "all oracles hold" in text}


def fetch_content(text: str) -> list:
    m = re.search(r"^(A\d+): offset (-?\d+), (\d+) terms: (.*), \.\.\.$", text, re.M)
    return [m.group(1), int(m.group(2)), int(m.group(3)), [int(v) for v in m.group(4).split(", ")]]


def lines_content(text: str) -> list:
    return [line.strip() for line in text.splitlines() if line.strip()]


def cli_content(argv: list[str], stdout: str):
    """Content of one seqlab command's standard output."""
    command = argv[0]
    if command in ("check", "magical", "localscan"):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
        if fmt == "json":
            return report_from_doc(json.loads(stdout))
        if fmt == "csv":
            return report_from_csv(stdout)
        return report_from_table(stdout)
    if command == "regular":
        return regular_content(stdout, keep_strength="--upto" in argv)
    if command == "groups":
        return groups_content(stdout)
    if command == "ell":
        return ell_content(stdout)
    if command == "oracle":
        return oracle_content(stdout)
    if command == "fetch":
        return fetch_content(stdout)
    return lines_content(stdout)
