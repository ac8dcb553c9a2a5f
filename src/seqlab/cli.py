"""Command-line surface for the sequence laboratory.

Verdicts are data, not process failures: a sequence failing a check still
exits 0 with the verdict in the report.  Nonzero exit codes mean operational
errors (bad input file, missing fixture, network trouble), each class with
its own code so scripts can tell them apart.  Usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BFileError,
    DepthError,
    FetchHTTPError,
    FetchNetworkError,
    FixtureMissingError,
    SeqLabError,
)

# Each command imports the engines it runs inside its body, so that parsing a
# command line loads no engine.  The option choices are therefore spelled
# here; tests pin each list to the library constant that owns it.
FORMATS = ("table", "json", "csv")  # experiment.TABLE, JSON, CSV
OFFSET_POLICIES = ("shift-to-1", "strict")  # bfile.SHIFT_TO_1, STRICT
KINDS = ("bernoulli", "euler")  # primes.BERNOULLI, EULER
GROUP_NAMES = ("z6", "s3", "d8", "c2c2c2", "q8")  # algebraic.BUNDLED_GROUPS

EXIT_CODES = {
    BFileError: 3,
    FetchNetworkError: 4,
    FetchHTTPError: 5,
    FixtureMissingError: 6,
    DepthError: 7,
}

DEFAULT_CACHE = Path.home() / ".cache" / "seqlab" / "oeis"

MAX_SHIFT = 5  # the largest shift --magical tests when --max-shift is not given

# name -> (function, options); an option is the arguments of one add_argument
COMMANDS: dict[str, tuple] = {}


def command(name: str, *options):
    """Register the decorated function as the command ``name``."""
    def register(run):
        COMMANDS[name] = (run, options)
        return run
    return register


def option(*names, **settings):
    return names, settings


def _existing_path(text: str) -> str:
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path {text!r} does not exist")
    return text


def _existing_dir(text: str) -> str:
    # Path("") is the current directory, which was not named
    if not text or not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"directory {text!r} does not exist")
    return text


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _online(text):
    """--online/--offline: two flags setting one value."""
    return (option("--online", dest="online", action="store_true", default=False, help=text),
            option("--offline", dest="online", action="store_false", default=False))


def _run(command, **params):
    """The one error guard and the one writer of stdout: a command returns its
    whole report, so an error it raises prints nothing on stdout, only one
    ``error:`` message on stderr, and exits with its class's code (1 if it has
    none)."""
    try:
        sys.stdout.write(command(**params))
    except (SeqLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CODES.get(type(exc), 1))


@command(
    "classical",
    option("--upto", type=int, default=20, help="Number of terms to print."),
    option("--what", choices=("e", "t", "b", "d", "bernoulli", "euler"), default="e",
           help="Which classical sequence/table to print."),
)
def classical(upto, what):
    """Print the classical sequences or number tables."""
    from .classical import bernoulli_upto, euler_upto
    from .experiment import ExperimentSpec, load_sequence

    if what == "bernoulli":
        table = bernoulli_upto(upto)
        return "".join(f"B_{2 * n} = {table.B(2 * n)}\n" for n in range(1, upto + 1))
    if what == "euler":
        table = euler_upto(upto)
        return "".join(f"E_{2 * n} = {table.E(2 * n)}\n" for n in range(1, upto + 1))
    seq = load_sequence(ExperimentSpec(what, depth=upto))
    return "".join(f"{n} {v}\n" for n, v in enumerate(seq.values, start=1))


def _report(make_spec, source, fmt, **fields):
    """Build the spec, run it and render the report.  A field left at None was
    not given, so the spec's own default applies."""
    from .experiment import render_report, run_experiment

    given = {name: value for name, value in fields.items() if value is not None}
    spec = make_spec(source, cache_dir=str(DEFAULT_CACHE), **given)
    return render_report(run_experiment(spec), fmt)


def _survey(upto_help):
    """The options of the commands that load and check one sequence."""
    return (
        option("source"),
        option("--upto", type=int, help=upto_help),
        option("--offset-policy", choices=OFFSET_POLICIES,
               help="How to map file offsets to index 1 (default: shift-to-1)."),
        option("--abs", dest="absolute", action="store_true", default=None,
               help="Take absolute values of signed entries."),
        option("--scale", type=int,
               help="Multiply every term by this factor at load (default: 1)."),
        option("--fixtures-dir", type=_existing_dir,
               help="Extra directory searched for b-file fixtures."),
        *_online("Allow fetching b-files from the network (default: offline)."),
        option("--format", dest="fmt", choices=FORMATS, default="table",
               help="Report output format."),
    )


_SHIFT = option("--shift", type=int, default=0,
                help="Drop this many leading terms before checking (default: %(default)s).")


@command("check", *_survey("Prefix length to check."), _SHIFT)
def check(source, upto, fmt, **fields):
    """Global realizability checks (Dold, sign, monotone) for one sequence."""
    from .experiment import ExperimentSpec

    return _report(ExperimentSpec, source, fmt, depth=upto, primes=(), **fields)


# The survey options a --catalog preset fixes, by field, in the order the
# refusal names them.
_CATALOG_FIXED = {"primes": "--prime", "local_checks": "--local-checks",
                  "offset_policy": "--offset-policy", "absolute": "--abs", "scale": "--scale"}


@command(
    "localscan",
    *_survey("Prefix length to check."),
    option("--primes", dest="prime_limit", type=int,
           help="Scan all primes up to this bound (default 200)."),
    option("--prime", dest="primes", type=int, action="append",
           help="Scan exactly these primes (repeatable)."),
    option("--local-checks", type=_names,
           help="Comma-separated checks deciding the per-prime partition "
                "(dold, sign; default: dold,sign)."),
    option("--catalog", action="store_true",
           help="Use the bundled observation-catalog preset for this A-number."),
    option("--magical", action="store_true", help="Also test shifts."),
    option("--max-shift", type=int,
           help=f"Largest shift to test with --magical (>= 0; default: {MAX_SHIFT})."),
    _SHIFT,
)
def localscan(source, upto, prime_limit, catalog, magical, max_shift, fmt, **fields):
    """Per-prime local realizability scan (realizable* / not-realizable)."""
    from .experiment import ExperimentSpec, catalog_spec

    if magical:
        fields["max_shift"] = MAX_SHIFT if max_shift is None else max_shift
    elif max_shift is not None:
        raise ValueError("--max-shift needs --magical")
    if not catalog:
        return _report(ExperimentSpec, source, fmt, depth=upto, prime_limit=prime_limit,
                       **fields)
    # the preset fixes its checks, primes and loading; --upto and --primes
    # narrow it, and any other survey flag given explicitly is refused
    given = [flag for name, flag in _CATALOG_FIXED.items() if fields.pop(name) is not None]
    if given:
        raise ValueError(f"--catalog fixes its own survey; {', '.join(given)} "
                         f"cannot be combined with it")
    return _report(catalog_spec, source, fmt, depth=upto, prime_limit=prime_limit, **fields)


@command(
    "magical",
    *_survey("Prefix length to use."),
    option("--max-shift", type=int, default=MAX_SHIFT,
           help="Largest shift to test (>= 0; default: %(default)s)."),
)
def magical(source, upto, fmt, **fields):
    """Test whether every shift of the sequence stays realizable."""
    from .experiment import ExperimentSpec

    return _report(ExperimentSpec, source, fmt, depth=upto, primes=(), **fields)


@command(
    "regular",
    option("--kind", choices=KINDS, default="bernoulli", help="(default: %(default)s)"),
    option("--primes", dest="q_max", type=int, default=100,
           help="Classify primes up to this bound (default: %(default)s)."),
    option("--upto", dest="depth", type=int,
           help="Search depth (default: enough for the largest prime <= --primes)."),
)
def regular(kind, q_max, depth):
    """Classify primes as regular/irregular (Bernoulli or Euler sense)."""
    from .primes import BERNOULLI, scan_primes

    rows = scan_primes(kind, q_max, depth)
    if kind == BERNOULLI:
        return "".join(f"{cls.q} {cls.bernoulli_status}\n" for cls in rows)
    return "".join(f"{cls.q} {cls.euler_status} {cls.euler_strength}\n" for cls in rows)


@command(
    "ell",
    option("--k", type=int, required=True, help="Support modulus: entries sit at multiples of k."),
    option("--m", type=int, required=True, help="Exponent block size (power of p per level)."),
    option("--p", type=int, required=True, help="The prime."),
    option("--upto", type=int, default=20, help="(default: %(default)s)"),
    option("--cross-check", action="store_true",
           help="Realize on the p-torsion module and compare (odd p, k | p^m - 1)."),
)
def ell(k, m, p, upto, cross_check):
    """Evaluate the p-power sequence ell(k,m,p) and test algebraic realizability."""
    from .algebraic import (
        ConstructionParams,
        construct_matrix,
        ell_algebraically_realizable,
        ell_sequence,
        torsion_fix_counts,
    )

    params = ConstructionParams.create(k, m, p)
    seq = ell_sequence(params, upto)
    lines = [" ".join(str(v) for v in seq.values)]
    if p == 2:
        lines.append("algebraically realizable: criterion not applicable at p=2")
    else:
        ok = ell_algebraically_realizable(k, m, p)
        lines.append(f"algebraically realizable: {'yes' if ok else 'no'} "
                     f"(k | p^m - 1 is {'satisfied' if ok else 'violated'})")
    if cross_check:
        if params.c is None:
            raise ValueError(f"k = {k} does not divide p^m - 1 = {p ** m - 1}")
        A, _ = construct_matrix(p, m)
        match = torsion_fix_counts(A, params.c, p, upto).values == seq.values
        lines.append(f"torsion-module realization matches: {'yes' if match else 'NO'}")
    return "\n".join(lines) + "\n"


@command(
    "groups",
    option("--name", choices=GROUP_NAMES, help="A bundled group."),
    option("--file", dest="path", type=_existing_path, help="A Cayley-table file."),
    option("--upto", type=int, default=12,
           help="Fixed-point counts per endomorphism up to this n (default: %(default)s)."),
    option("--target", help="Comma-separated sequence; search for a realizing endomorphism."),
)
def groups(name, path, upto, target):
    """Enumerate endomorphisms of a finite group and their fixed-point counts."""
    from .algebraic import bundled_group, enumerate_endomorphisms, fix_counts, parse_cayley
    from .arith import _at_least
    from .realizability import Sequence1

    if (name is None) == (path is None):
        raise ValueError("give exactly one of --name or --file")
    # --upto and --target are checked before the group is read or searched
    _at_least("depth", upto, 1)
    if target is not None:
        try:
            want = Sequence1(tuple(int(x) for x in target.split(",")), "target")
        except ValueError:
            raise ValueError(f"--target must be comma-separated integers >= 0, "
                             f"got {target!r}") from None
    if name is not None:
        G = bundled_group(name)
    else:
        G = parse_cayley(Path(path).read_text(), label=str(path))
    endos = enumerate_endomorphisms(G)
    lines = [f"group {G.label or ''} order {G.order}: {len(endos)} endomorphisms"]
    for i, theta in enumerate(endos):
        fix = fix_counts(G, theta, upto).values
        lines.append(f"  endo {i}: image={list(theta.image)} fix={list(fix)}")
    if target is not None:
        # the first match in enumeration order, as find_realizing_endomorphism
        # would give, without enumerating a second time
        found = next((theta for theta in endos
                      if fix_counts(G, theta, len(want)).values == want.values), None)
        if found is None:
            lines.append("target: not realized by any endomorphism")
        else:
            lines.append(f"target: realized by image={list(found.image)}")
    return "\n".join(lines) + "\n"


@command(
    "oracle",
    option("--max-prime", type=int, default=31, help="(default: %(default)s)"),
    option("--max-r", type=int, default=3, help="(default: %(default)s)"),
    option("--upto", type=int, default=60, help="(default: %(default)s)"),
    option("--family", default="all", help="(default: %(default)s)", choices=(
        "kummer", "young", "five", "staying-alive", "wagstaff", "euler-additive", "all")),
)
def oracle(max_prime, max_r, upto, family):
    """Run the congruence-oracle grids; any failure indicates an engine defect."""
    from .congruences import run_oracle_grids

    results = run_oracle_grids(max_prime=max_prime, max_r=max_r, upto=upto,
                               family=family)
    # a family that ran no check has shown nothing, so it cannot "hold"
    empty = [fam for fam, checks in results.items() if not checks]
    if empty:
        raise ValueError(f"this grid gives no checks for {', '.join(empty)}; "
                         f"raise --max-prime, --max-r or --upto")
    defects = [f"  DEFECT {c.description}: {c.lhs} != {c.rhs} mod {c.modulus}"
               for checks in results.values() for c in checks if not c.holds]
    if defects:
        raise ValueError(f"{len(defects)} oracle defect(s): engine bug\n" + "\n".join(defects))
    # every check holds from here on
    return "".join(f"{fam}: {len(checks)}/{len(checks)} hold\n"
                   for fam, checks in results.items()) + "all oracles hold\n"


@command(
    "fetch",
    option("a_number"),
    *_online("Allow network fetch (default: offline fixtures/cache only)."),
    option("--fixtures-dir", type=_existing_dir, help="Directory searched first for b-files."),
    option("--cache-dir", default=str(DEFAULT_CACHE), help="Cache directory for fetched b-files (empty: no cache)."),
    option("--terms", type=int, default=8,
           help="How many leading terms to echo (>= 0; default: %(default)s)."),
)
def fetch(a_number, online, fixtures_dir, cache_dir, terms):
    """Resolve an A-number to a b-file (--fixtures-dir, cache, bundled fixture, then network)."""
    from .arith import _at_least
    from .bfile import fetch_oeis

    _at_least("--terms", terms, 0)
    bf = fetch_oeis(a_number, online=online, fixtures_dir=fixtures_dir,
                    cache_dir=cache_dir)
    line = f"{bf.source}: offset {bf.offset}, {len(bf)} terms"
    if terms:
        line += ": " + ", ".join(str(v) for v in bf.values[:terms])
        line += ", ..." if terms < len(bf) else ""
    return line + "\n"


@command("catalog")
def catalog():
    """List the bundled observation-catalog experiments."""
    from .experiment import OBSERVATION_CATALOG

    out = ""
    for a, spec in OBSERVATION_CATALOG.items():
        scale_note = f" (scaled x{spec.scale})" if spec.scale != 1 else ""
        out += f"{a} [{spec.label}]{scale_note}: depth {spec.depth}, primes <= {spec.prime_limit}\n"
    return out


def parser() -> argparse.ArgumentParser:
    """The ``seqlab`` argument parser; a command's ``run`` is its function."""
    top = argparse.ArgumentParser(
        prog="seqlab", description="Laboratory for realizability of integer sequences.",
        allow_abbrev=False)
    top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = top.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, options) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=run.__doc__, description=run.__doc__,
                                    allow_abbrev=False)
        sub.set_defaults(run=run)
        for names, settings in options:
            sub.add_argument(*names, **settings)
    return top


class _Main:
    """The ``seqlab`` command: ``main(argv)`` runs the command line ``argv``
    (default: the process's arguments)."""

    def __call__(self, args=None):
        params = vars(parser().parse_args(args))
        _run(params.pop("run"), **params)

    # The entry point's former spelling, main.main(args=..., prog_name=...,
    # standalone_mode=...), which perfbench/worker.py still calls; ROADMAP
    # item A, the benchmark change that rewrites the worker, drops it.  It is
    # a method because the benchmark's tracer replaces the plain functions of
    # this module with wrappers that would not carry it.
    def main(self, args=None, prog_name="seqlab", standalone_mode=True):
        self(args)


main = _Main()


if __name__ == "__main__":
    main()
