"""Command-line surface for the sequence laboratory.

Verdicts are data, not process failures: a sequence failing a check still
exits 0 with the verdict in the report.  Nonzero exit codes mean operational
errors (bad input file, missing fixture, network trouble), each class with
its own code so scripts can tell them apart.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
from click.core import ParameterSource

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


def _run(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except tuple(EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CODES[type(exc)])
    except (SeqLabError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.version_option(__version__)
def main():
    """Laboratory for realizability of integer sequences."""


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default="table",
    help="Report output format.",
)
source_options = [
    click.option("--offset-policy", type=click.Choice(OFFSET_POLICIES),
                 default="shift-to-1", help="How to map file offsets to index 1."),
    click.option("--abs", "absolute", is_flag=True,
                 help="Take absolute values of signed entries."),
    click.option("--scale", type=int, default=1,
                 help="Multiply every term by this factor at load."),
    click.option("--fixtures-dir", type=click.Path(), default=None,
                 help="Extra directory searched for b-file fixtures."),
    click.option("--online/--offline", default=False,
                 help="Allow fetching b-files from the network (default: offline)."),
]


def add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@main.command()
@click.option("--upto", type=int, default=20, help="Number of terms to print.")
@click.option("--what", type=click.Choice(["e", "t", "b", "d", "bernoulli", "euler"]),
              default="e", help="Which classical sequence/table to print.")
def classical(upto, what):
    """Print the classical sequences or number tables."""
    def go():
        from .classical import bernoulli_upto, euler_upto
        from .experiment import _builtin

        if upto < 1:
            raise ValueError(f"--upto must be >= 1, got {upto}")
        if what == "bernoulli":
            table = bernoulli_upto(upto)
            for n in range(1, upto + 1):
                click.echo(f"B_{2 * n} = {table.B(2 * n)}")
        elif what == "euler":
            table = euler_upto(upto)
            for n in range(1, upto + 1):
                click.echo(f"E_{2 * n} = {table.E(2 * n)}")
        else:
            for n, v in enumerate(_builtin(what, upto), start=1):
                click.echo(f"{n} {v}")
    _run(go)


def _report(make_spec, source, fmt, **fields):
    """Build the spec inside the error guard, run it and echo the report."""
    def go():
        from .experiment import render_report, run_experiment

        spec = make_spec(source, cache_dir=str(DEFAULT_CACHE), **fields)
        click.echo(render_report(run_experiment(spec), fmt), nl=False)
    _run(go)


@main.command()
@click.argument("source")
@click.option("--upto", type=int, default=None, help="Prefix length to check.")
@click.option("--shift", type=int, default=0, show_default=True,
              help="Drop this many leading terms before checking.")
@add_options(source_options)
@fmt_option
def check(source, upto, fmt, **fields):
    """Global realizability checks (Dold, sign, monotone) for one sequence."""
    from .experiment import ExperimentSpec

    _report(ExperimentSpec, source, fmt, depth=upto, include_local=False, **fields)


_CATALOG_FIXED = ("primes", "local_checks", "offset_policy", "absolute", "scale")


@main.command()
@click.argument("source")
@click.option("--upto", type=int, default=None, help="Prefix length to check.")
@click.option("--primes", "prime_limit", type=int, default=None,
              help="Scan all primes up to this bound (default 200).")
@click.option("--prime", "primes", type=int, multiple=True,
              help="Scan exactly these primes (repeatable).")
@click.option("--local-checks", default="dold,sign", show_default=True,
              help="Comma-separated checks deciding the per-prime partition (dold, sign).")
@click.option("--catalog", is_flag=True,
              help="Use the bundled observation-catalog preset for this A-number.")
@click.option("--magical", "include_magical", is_flag=True, help="Also test shifts.")
@click.option("--max-shift", type=int, default=5, show_default=True,
              help="Largest shift to test with --magical (>= 0).")
@click.option("--shift", type=int, default=0, show_default=True,
              help="Drop this many leading terms before checking.")
@add_options(source_options)
@fmt_option
def localscan(source, upto, prime_limit, primes, local_checks, catalog, fmt,
              offset_policy, absolute, scale, **fields):
    """Per-prime local realizability scan (realizable* / not-realizable)."""
    from .experiment import ExperimentSpec, catalog_spec

    if catalog:
        # the preset fixes its checks, primes and loading; --upto and --primes
        # narrow it, and any other survey flag given explicitly is refused
        ctx = click.get_current_context()
        given = [p.opts[0] for p in ctx.command.params if p.name in _CATALOG_FIXED
                 and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            click.echo(f"error: --catalog fixes its own survey; {', '.join(given)} "
                       f"cannot be combined with it", err=True)
            sys.exit(1)
        overrides = {"depth": upto, "prime_limit": prime_limit}
        fields.update((k, v) for k, v in overrides.items() if v is not None)
        _report(catalog_spec, source, fmt, **fields)
    else:
        _report(ExperimentSpec, source, fmt, depth=upto, prime_limit=prime_limit,
                primes=tuple(primes) or None,
                local_checks=tuple(local_checks.split(",")),
                offset_policy=offset_policy, absolute=absolute, scale=scale,
                **fields)


@main.command()
@click.argument("source")
@click.option("--max-shift", type=int, default=5, show_default=True,
              help="Largest shift to test (>= 0).")
@click.option("--upto", type=int, default=None, help="Prefix length to use.")
@add_options(source_options)
@fmt_option
def magical(source, upto, fmt, **fields):
    """Test whether every shift of the sequence stays realizable."""
    from .experiment import ExperimentSpec

    _report(ExperimentSpec, source, fmt, depth=upto, include_local=False,
            include_magical=True, **fields)


@main.command()
@click.option("--kind", type=click.Choice(KINDS), default="bernoulli",
              show_default=True)
@click.option("--primes", "q_max", type=int, default=100, show_default=True,
              help="Classify primes up to this bound.")
@click.option("--upto", "depth", type=int, default=None,
              help="Search depth (default: enough for the largest prime <= --primes).")
def regular(kind, q_max, depth):
    """Classify primes as regular/irregular (Bernoulli or Euler sense)."""
    def go():
        from .primes import BERNOULLI, scan_primes

        for cls in scan_primes(kind, q_max, depth):
            if kind == BERNOULLI:
                click.echo(f"{cls.q} {cls.bernoulli_status}")
            else:
                click.echo(f"{cls.q} {cls.euler_status} {cls.euler_strength}")
    _run(go)


@main.command()
@click.option("--k", type=int, required=True, help="Support modulus: entries sit at multiples of k.")
@click.option("--m", type=int, required=True, help="Exponent block size (power of p per level).")
@click.option("--p", type=int, required=True, help="The prime.")
@click.option("--upto", type=int, default=20, show_default=True)
@click.option("--cross-check", is_flag=True,
              help="Realize on the p-torsion module and compare (odd p, k | p^m - 1).")
def ell(k, m, p, upto, cross_check):
    """Evaluate the p-power sequence ell(k,m,p) and test algebraic realizability."""
    def go():
        from .algebraic import (
            ConstructionParams,
            construct_matrix,
            ell_algebraically_realizable,
            ell_sequence,
            torsion_fix_counts,
        )

        params = ConstructionParams.create(k, m, p)
        seq = ell_sequence(params, upto)
        # everything that can fail runs before the first line is printed
        ok = None if p == 2 else ell_algebraically_realizable(k, m, p)
        if cross_check:
            if params.c is None:
                raise ValueError(f"k = {k} does not divide p^m - 1 = {p ** m - 1}")
            A, _ = construct_matrix(p, m)
            match = torsion_fix_counts(A, params.c, p, upto).values == seq.values
        click.echo(" ".join(str(v) for v in seq.values))
        if ok is None:
            click.echo("algebraically realizable: criterion not applicable at p=2")
        else:
            click.echo(f"algebraically realizable: {'yes' if ok else 'no'} "
                       f"(k | p^m - 1 is {'satisfied' if ok else 'violated'})")
        if cross_check:
            click.echo(f"torsion-module realization matches: {'yes' if match else 'NO'}")
    _run(go)


@main.command()
@click.option("--name", type=click.Choice(GROUP_NAMES), default=None,
              help="A bundled group.")
@click.option("--file", "path", type=click.Path(exists=True), default=None,
              help="A Cayley-table file.")
@click.option("--upto", type=int, default=12, show_default=True,
              help="Fixed-point counts per endomorphism up to this n.")
@click.option("--target", default=None,
              help="Comma-separated sequence; search for a realizing endomorphism.")
def groups(name, path, upto, target):
    """Enumerate endomorphisms of a finite group and their fixed-point counts."""
    def go():
        from .algebraic import bundled_group, enumerate_endomorphisms, fix_counts, parse_cayley
        from .realizability import Sequence1

        if (name is None) == (path is None):
            raise ValueError("give exactly one of --name or --file")
        if name is not None:
            G = bundled_group(name)
        else:
            G = parse_cayley(Path(path).read_text(), label=str(path))
        # everything that can fail runs before the first line is printed
        endos = [(theta, fix_counts(G, theta, upto)) for theta in enumerate_endomorphisms(G)]
        if target is not None:
            want = Sequence1(tuple(int(x) for x in target.split(",")), "target")
            # the first match in enumeration order, as find_realizing_endomorphism
            # would give, without enumerating a second time
            found = next((theta for theta, _ in endos
                          if fix_counts(G, theta, len(want)).values == want.values), None)
        click.echo(f"group {G.label or ''} order {G.order}: {len(endos)} endomorphisms")
        for i, (theta, counts) in enumerate(endos):
            click.echo(f"  endo {i}: image={list(theta.image)} fix={list(counts.values)}")
        if target is not None:
            if found is None:
                click.echo("target: not realized by any endomorphism")
            else:
                click.echo(f"target: realized by image={list(found.image)}")
    _run(go)


@main.command()
@click.option("--max-prime", type=int, default=31, show_default=True)
@click.option("--max-r", type=int, default=3, show_default=True)
@click.option("--upto", type=int, default=60, show_default=True)
@click.option("--family", type=click.Choice(
    ["kummer", "young", "five", "staying-alive", "wagstaff", "euler-additive", "all"]),
    default="all", show_default=True)
def oracle(max_prime, max_r, upto, family):
    """Run the congruence-oracle grids; any failure indicates an engine defect."""
    def go():
        from .congruences import run_oracle_grids

        results = run_oracle_grids(max_prime=max_prime, max_r=max_r, upto=upto,
                                   family=family)
        # a family that ran no check has shown nothing, so it cannot "hold"
        empty = [fam for fam, checks in results.items() if not checks]
        if empty:
            raise ValueError(f"this grid gives no checks for {', '.join(empty)}; "
                             f"raise --max-prime, --max-r or --upto")
        defects = 0
        for fam, checks in results.items():
            bad = [c for c in checks if not c.holds]
            defects += len(bad)
            click.echo(f"{fam}: {len(checks) - len(bad)}/{len(checks)} hold")
            for c in bad:
                click.echo(f"  DEFECT {c.description}: {c.lhs} != {c.rhs} mod {c.modulus}")
        if defects:
            raise ValueError(f"{defects} oracle defect(s): engine bug")
        click.echo("all oracles hold")
    _run(go)


@main.command()
@click.argument("a_number")
@click.option("--online/--offline", default=False,
              help="Allow network fetch (default: offline fixtures/cache only).")
@click.option("--fixtures-dir", type=click.Path(), default=None)
@click.option("--cache-dir", type=click.Path(), default=str(DEFAULT_CACHE),
              show_default=False, help="Cache directory for fetched b-files.")
@click.option("--terms", type=int, default=8, show_default=True,
              help="How many leading terms to echo (>= 0).")
def fetch(a_number, online, fixtures_dir, cache_dir, terms):
    """Resolve an A-number to a b-file (bundled fixture, cache, or network)."""
    def go():
        from .bfile import fetch_oeis

        if terms < 0:
            raise ValueError(f"--terms must be >= 0, got {terms}")
        bf = fetch_oeis(a_number, online=online, fixtures_dir=fixtures_dir,
                        cache_dir=cache_dir)
        head = ", ".join(str(v) for v in bf.values[:terms])
        click.echo(f"{bf.source}: offset {bf.offset}, {len(bf)} terms: {head}, ...")
    _run(go)


@main.command("catalog")
def catalog_cmd():
    """List the bundled observation-catalog experiments."""
    from .experiment import OBSERVATION_CATALOG

    for a, params in OBSERVATION_CATALOG.items():
        scale = params.get("scale", 1)
        scale_note = f" (scaled x{scale})" if scale != 1 else ""
        click.echo(
            f"{a} [{params['label']}]{scale_note}: depth {params['depth']}, "
            f"primes <= {params['prime_limit']}"
        )


if __name__ == "__main__":
    main()
