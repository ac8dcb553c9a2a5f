"""Task pools of the benchmark's workloads and their selection by seed.

A pool is a list of strata.  Each stratum holds interchangeable tasks of
similar cost; the seed picks ``k`` tasks from every stratum and then orders
the whole list.  Every seed therefore runs the same mix of work on different
inputs, so a claim can be rechecked on a seed nobody tuned against, while the
run-to-run spread of the timings stays small.

Every task of every pool has a reference recorded in ``references.json``
(see ``record.py``); the benchmark refuses to run a task without one.
"""

from __future__ import annotations

import random

CLI = "cli"

FORMATS = ("table", "json", "csv")

# Half-open windows [lo, hi) holding 43 or 44 of the 303 primes <= 2000 each;
# a round scans every window of both builtins.
SCAN_WINDOWS = ((2, 193), (193, 457), (457, 739), (739, 1033), (1033, 1327), (1327, 1663), (1663, 2001))


def task(kind: str, **args) -> dict:
    """One task: a kind the runner knows, its arguments, and a stable id."""
    if kind == "cli":
        ident = "cli " + " ".join(args["argv"])
    else:
        ident = kind + " " + " ".join(f"{k}={args[k]}" for k in sorted(args))
    return {"id": ident, "kind": kind, "args": args}


def cli(*argv: str, ref_argv: tuple[str, ...] | None = None) -> dict:
    """A seqlab command line; ``ref_argv`` names the command whose output is
    the reference when this one fails by a documented defect."""
    args: dict = {"argv": list(argv)}
    if ref_argv is not None:
        args["ref_argv"] = list(ref_argv)
    return task("cli", **args)


def _scan_sparse() -> list[tuple[int, list[dict]]]:
    strata = []
    for source in ("e", "t"):
        for lo, hi in SCAN_WINDOWS:
            alternatives = [
                task("scan", source=source, depth=depth, lo=lo, hi=hi, fmt=fmt) for depth in (396, 400, 404) for fmt in FORMATS
            ]
            strata.append((1, alternatives))
    return strata


def _number_engines() -> list[tuple[int, list[dict]]]:
    def one(kind, values, **fixed):
        return (1, [task(kind, **fixed, **v) for v in values])

    return [
        one("bernoulli_upto", [{"N": n} for n in (999, 1000, 1001)]),
        one("bernoulli_upto", [{"N": n} for n in (799, 800, 801)]),
        one("sequence_e", [{"N": n} for n in (799, 800, 801)]),
        one("sequence_e", [{"N": n} for n in (499, 500, 501)]),
        one("derived_bernoulli", [{"N": n} for n in (599, 600, 601)]),
        one("scan_primes", [{"q_max": 2 * d, "depth": d} for d in (599, 600, 601)], family="bernoulli"),
        one("scan_primes", [{"q_max": 2 * d, "depth": d} for d in (599, 600, 601)], family="euler"),
        one("oracle", [{"max_prime": mp, "upto": 100} for mp in (41, 43)], max_r=3),
        one("oracle", [{"max_prime": 31, "upto": u} for u in (199, 200, 201)], max_r=3),
    ]


def _algebraic() -> list[tuple[int, list[dict]]]:
    strata: list[tuple[int, list[dict]]] = []
    for p, m in ((13, 3), (47, 2), (11, 3), (43, 2), (2, 8), (5, 4)):
        strata.append((1, [task("construct_matrix", p=p, m=m)]))
    # ell torsion cross-checks as (k, m, p, N); the small ones run as one batch
    for batches in (
        [[(61, 3, 13, 40)], [(12, 3, 13, 24)]],
        [[(5, 3, 11, 40)], [(5, 3, 11, 39)]],
        [
            [(9, 3, 7, 30), (6, 2, 7, 36), (2, 1, 5, 10), (7, 2, 13, 30)],
            [(19, 3, 7, 40), (24, 2, 7, 48), (3, 2, 5, 24), (8, 2, 17, 40)],
            [(9, 3, 7, 30), (13, 3, 3, 26), (3, 2, 5, 24), (7, 2, 13, 30)],
        ],
    ):
        strata.append((1, [task("ell_cross", cases=[list(c) for c in batch]) for batch in batches]))
    # Endomorphism search on the bundled groups and on cyclic groups up to
    # order 64.  Targets: the zero map's counts, the identity's counts, or a
    # sequence nothing realizes (fixed sets are nested subgroups, 2 does not
    # divide 5), which makes the search try every endomorphism.
    bundled = ["z6", "s3", "d8", "c2c2c2", "q8"]
    strata.append((1, [task("groups", groups=bundled, upto=12, target=t) for t in ("zero", "identity", "none")]))
    strata.append((1, [task("groups", groups=["z16", "z40", "z64"], upto=12, target=t) for t in ("zero", "identity")]))
    # C2^4: the exhaustive search tries 16^4 generator images; the targets are
    # realized early in enumeration order, so the search itself dominates.
    c2_targets = ["1,1,1,1,1,1", "2,2,2,2,2,2", "4,8,4,8,4,8"]
    strata.append((1, [task("group_find", group="c2^4", target=t) for t in c2_targets]))
    return strata


def _cli() -> list[tuple[int, list[dict]]]:
    catalog = ("A000032", "A002895", "A005259", "A005258", "A005725", "A054783", "A053175", "A001850")
    strata: list[tuple[int, list[dict]]] = []
    for a in catalog:
        strata.append((1, [cli("localscan", a, "--catalog", "--format", f) for f in FORMATS]))
    strata.append((1, [cli("catalog")]))
    strata.append(
        (
            2,
            [
                cli("check", "A000032", "--upto", "38"),
                cli("check", "A000032", "--upto", "10", "--shift", "1"),
                cli("check", "A001850", "--upto", "26", "--format", "json"),
                cli("check", "A005725", "--upto", "30", "--format", "csv"),
                cli("check", "A053175", "--upto", "200"),
                cli("check", "e", "--upto", "120", "--format", "json"),
                cli("check", "A000364", "--format", "csv"),
            ],
        )
    )
    strata.append(
        (
            2,
            [
                cli("magical", "A000032", "--upto", "30", "--max-shift", "1"),
                cli("magical", "A005259", "--upto", "18", "--max-shift", "3", "--format", "json"),
                cli("magical", "A001850", "--upto", "26", "--max-shift", "2"),
                cli("magical", "A002895", "--upto", "18", "--max-shift", "2", "--format", "json"),
            ],
        )
    )
    # Dense full-depth scans: most scanned primes divide some term.  They are
    # the slowest commands, so cmd_p90_s falls among them.
    dense = (("A005725",), ("A054783", "--scale", "5"), ("A001850",), ("A053175",), ("b", "--primes", "600"), ("d", "--primes", "600"))
    for argv in dense:
        strata.append((1, [cli("localscan", *argv, "--format", f) for f in FORMATS]))
    strata.append(
        (
            2,
            [
                cli("localscan", "e", "--upto", "20", "--prime", "61"),
                cli("localscan", "A054783", "--scale", "5", "--upto", "15", "--primes", "110", "--local-checks", "dold"),
                cli("localscan", "A000032", "--upto", "38", "--prime", "7", "--prime", "47", "--format", "json"),
                cli("localscan", "A005259", "--catalog", "--magical", "--max-shift", "2", "--format", "json"),
            ],
        )
    )
    strata.append((1, [cli("regular", "--kind", "bernoulli", "--primes", q) for q in ("150", "300", "450", "600")]))
    strata.append(
        (
            1,
            [cli("regular", "--kind", "euler", "--primes", "103", "--upto", "200")]
            + [cli("regular", "--kind", "euler", "--primes", q) for q in ("200", "300", "400")],
        )
    )
    # Beyond the fixed default depth these exit 7 at this commit (a known
    # defect); they stay in, and the reference comes from a sufficient --upto.
    strata.append(
        (
            1,
            [
                cli("regular", "--kind", "euler", "--primes", q, ref_argv=("regular", "--kind", "euler", "--primes", q, "--upto", str(int(q) // 2)))
                for q in ("409", "450", "500")
            ],
        )
    )
    strata.append(
        (
            1,
            [
                cli("regular", "--kind", "bernoulli", "--primes", q, ref_argv=("regular", "--kind", "bernoulli", "--primes", q, "--upto", str(int(q) // 2)))
                for q in ("607", "650", "700")
            ],
        )
    )
    strata.append(
        (
            2,
            [
                cli("ell", "--k", "2", "--m", "1", "--p", "5", "--upto", "10", "--cross-check"),
                cli("ell", "--k", "7", "--m", "2", "--p", "13", "--upto", "30", "--cross-check"),
                cli("ell", "--k", "9", "--m", "3", "--p", "7", "--upto", "30", "--cross-check"),
                cli("ell", "--k", "3", "--m", "2", "--p", "2", "--upto", "12"),
                cli("ell", "--k", "3", "--m", "1", "--p", "5", "--upto", "12"),
            ],
        )
    )
    strata.append(
        (
            2,
            [
                cli("groups", "--name", "d8", "--target", "4,4,4,8,4,4,4,8"),
                cli("groups", "--name", "z6", "--target", "1,1,1,1,6,1,1,1,1,6"),
                cli("groups", "--name", "s3"),
                cli("groups", "--name", "q8", "--upto", "8"),
                cli("groups", "--name", "c2c2c2"),
            ],
        )
    )
    strata.append(
        (
            2,
            [
                cli("classical", "--what", "e", "--upto", "10"),
                cli("classical", "--what", "bernoulli", "--upto", "5"),
                cli("classical", "--what", "t", "--upto", "30"),
                cli("classical", "--what", "b", "--upto", "30"),
                cli("classical", "--what", "d", "--upto", "30"),
                cli("classical", "--what", "euler", "--upto", "20"),
            ],
        )
    )
    strata.append(
        (
            1,
            [
                cli("oracle"),
                cli("oracle", "--family", "kummer"),
                cli("oracle", "--family", "euler-additive", "--upto", "80"),
                cli("oracle", "--max-prime", "43", "--upto", "80"),
            ],
        )
    )
    strata.append(
        (
            2,
            [
                cli("fetch", "A000364"),
                cli("fetch", "A000032", "--terms", "5"),
                cli("fetch", "A001067", "--terms", "12"),
                cli("fetch", "A006953"),
                cli("fetch", "A010122", "--terms", "3"),
            ],
        )
    )
    return strata


def _engines() -> list[tuple[int, list[dict]]]:
    return _number_engines() + _algebraic()


POOLS = {
    "scan-sparse": _scan_sparse,
    "engines": _engines,
    CLI: _cli,
}

WORKLOADS = tuple(POOLS)


def pool(workload: str) -> list[dict]:
    """Every task of a workload's pool, in definition order."""
    return [t for _, alternatives in POOLS[workload]() for t in alternatives]


def select(workload: str, seed: int) -> list[dict]:
    """The seed's task list: ``k`` tasks from each stratum, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    chosen = []
    for k, alternatives in POOLS[workload]():
        chosen.extend(rng.sample(alternatives, k))
    rng.shuffle(chosen)
    return chosen
