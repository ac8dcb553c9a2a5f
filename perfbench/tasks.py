"""Library tasks: what each task kind calls in seqlab and what content it yields.

``prepare`` builds a task's inputs without calling seqlab, so the timed part
of a task is the library work alone; ``content`` reads the mathematical
content of the result after the timer has stopped.
"""

from __future__ import annotations

from content import digest, report_from_doc, values_digest


def _primes(lo: int, hi: int) -> tuple[int, ...]:
    """Primes in [lo, hi) by a sieve of the benchmark's own."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi, p)))
    return tuple(q for q in range(lo, hi) if sieve[q])


def cayley_text(name: str) -> str:
    """Cayley table text of a generated group ``z<n>`` or ``c2^<k>``."""
    if name.startswith("c2^"):
        n = 2 ** int(name[3:])
        rows = [" ".join(str(i ^ j) for j in range(n)) for i in range(n)]
    else:
        n = int(name[1:])
        rows = [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)]
    return "\n".join([str(n), "0"] + rows) + "\n"


TARGETS = {"zero": lambda order: [1] * 8, "identity": lambda order: [order] * 6, "none": lambda order: [2, 5] * 3}


def _sequence(values):
    import seqlab

    return seqlab.Sequence1(tuple(values), "target")


def prepare(kind: str, args: dict):
    """Inputs of one task, built outside the timed region."""
    import seqlab

    if kind == "scan":
        return seqlab.ExperimentSpec(source=args["source"], depth=args["depth"], primes=_primes(args["lo"], args["hi"]))
    if kind == "groups":
        return [None if name in seqlab.BUNDLED_GROUPS else cayley_text(name) for name in args["groups"]]
    if kind == "group_find":
        return cayley_text(args["group"]), _sequence(int(v) for v in args["target"].split(","))
    return None


def _group(name: str, text: str | None):
    import seqlab

    return seqlab.bundled_group(name) if text is None else seqlab.parse_cayley(text, label=name)


def run(kind: str, args: dict, prepared):
    """The timed library work of one task."""
    import seqlab
    from seqlab.congruences import run_oracle_grids

    if kind == "scan":
        doc = seqlab.run_experiment(prepared)
        seqlab.render_report(doc, args["fmt"])
        return doc
    if kind == "bernoulli_upto":
        return seqlab.bernoulli_upto(args["N"])
    if kind == "sequence_e":
        return seqlab.sequence_e(args["N"])
    if kind == "derived_bernoulli":
        return seqlab.derived_bernoulli(args["N"])
    if kind == "scan_primes":
        return seqlab.scan_primes(args["family"], args["q_max"], args["depth"])
    if kind == "oracle":
        return run_oracle_grids(max_prime=args["max_prime"], max_r=args["max_r"], upto=args["upto"])
    if kind == "construct_matrix":
        return seqlab.construct_matrix(args["p"], args["m"])
    if kind == "ell_cross":
        out = []
        for k, m, p, n in args["cases"]:
            params = seqlab.ConstructionParams.create(k, m, p)
            seq = seqlab.ell_sequence(params, n)
            realizable = seqlab.ell_algebraically_realizable(k, m, p)
            a, _ = seqlab.construct_matrix(p, m)
            out.append((seq, realizable, seqlab.torsion_fix_counts(a, params.c, p, n)))
        return out
    if kind == "groups":
        # what `seqlab groups --target` does, for each group in turn
        out = []
        for name, text in zip(args["groups"], prepared):
            group = _group(name, text)
            thetas = seqlab.enumerate_endomorphisms(group)
            fixes = [seqlab.fix_counts(group, theta, args["upto"]) for theta in thetas]
            target = _sequence(TARGETS[args["target"]](group.order))
            out.append((group, list(zip(thetas, fixes)), seqlab.find_realizing_endomorphism(group, target)))
        return out
    if kind == "group_find":
        text, target = prepared
        group = _group(args["group"], text)
        return group, seqlab.find_realizing_endomorphism(group, target)
    raise ValueError(f"unknown task kind {kind!r}")


def _image(endomorphism):
    return list(endomorphism.image) if endomorphism is not None else "not-realized"


def content(kind: str, result):
    """Mathematical content of a task's result."""
    if kind == "scan":
        return report_from_doc(result)
    if kind == "bernoulli_upto":
        return [result.max_index, values_digest(f"{v.numerator}/{v.denominator}" for v in result.values)]
    if kind == "sequence_e":
        return [len(result.values), values_digest(result.values)]
    if kind == "derived_bernoulli":
        seqs = (result.numerators, result.denominators, result.clausen_denominators)
        return [result.max_index] + [values_digest(s.values) for s in seqs]
    if kind == "scan_primes":
        return [[c.q, str(c.bernoulli_status or c.euler_status), str(c.euler_strength)] for c in result]
    if kind == "oracle":
        return {
            fam: [len(checks), all(c.holds for c in checks), digest([[c.modulus, c.lhs, c.rhs] for c in checks])]
            for fam, checks in result.items()
        }
    if kind == "construct_matrix":
        a, b = result
        return digest([[list(r) for r in a.rows], [list(r) for r in b.rows]])
    if kind == "ell_cross":
        return [
            {"values": list(seq.values), "realizable": realizable, "match": realized.values == seq.values}
            for seq, realizable, realized in result
        ]
    if kind == "groups":
        return [
            {
                "order": group.order,
                "count": len(endos),
                "endos": digest([[list(theta.image), list(fix.values)] for theta, fix in endos]),
                "target": _image(found),
            }
            for group, endos, found in result
        ]
    if kind == "group_find":
        group, found = result
        return {"order": group.order, "target": _image(found)}
    raise ValueError(f"unknown task kind {kind!r}")
