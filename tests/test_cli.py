import argparse
import ast
import functools
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from seqlab import classical, cli, congruences, experiment
from seqlab.congruences import CongruenceCheck
from conftest import invoke


def run_cli(*args):
    return invoke(args)


def test_classical_e():
    res = run_cli("classical", "--what", "e", "--upto", "4")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["1 1", "2 5", "3 61", "4 1385"]


def test_classical_bernoulli():
    res = run_cli("classical", "--what", "bernoulli", "--upto", "2")
    assert "B_2 = 1/6" in res.output
    assert "B_4 = -1/30" in res.output


def test_check_verdicts_are_exit_zero():
    # a failing sequence is a result, not an error
    res = run_cli("check", "A000032", "--upto", "20")
    assert res.exit_code == 0
    assert "pass-up-to" in res.output


def test_check_json_format():
    res = run_cli("check", "e", "--upto", "10", "--format", "json")
    doc = json.loads(res.output)
    assert doc["depth"] == 10
    assert doc["checks"][0]["type"] == "dold"


def test_localscan_catalog():
    res = run_cli("localscan", "A001850", "--catalog")
    assert res.exit_code == 0
    assert "not realizable at:" in res.output
    for q in (3, 7, 97):
        assert f"\n    {q}:" in res.output


def test_localscan_explicit_primes():
    res = run_cli("localscan", "e", "--upto", "20", "--prime", "61",
                  "--local-checks", "dold")
    assert "61: check=dold n=9 value=-60" in res.output


def test_check_shift_flag():
    res = run_cli("check", "A000032", "--upto", "10", "--shift", "1")
    assert "fail-at [n=2 value=1]" in res.output


def test_magical_command():
    res = run_cli("magical", "A000032", "--upto", "30", "--max-shift", "1")
    assert "shift 1 fails" in res.output


def test_magical_states_each_shift_horizon():
    # shift k rests on the N - k terms after it: shift 4 of 5 terms on one
    argv = ["localscan", "e", "--upto", "5", "--prime", "2", "--magical", "--max-shift", "4"]
    lines = invoke(argv).stdout.splitlines()
    assert lines[lines.index("  magical up to shift 4: yes") + 1:] == [
        f"    shift {k} pass-up-to({5 - k})" for k in range(5)]
    doc = json.loads(invoke(argv + ["--format", "json"]).stdout)
    assert [e["checked_upto"] for e in doc["magical"]["entries"]] == [5, 4, 3, 2, 1]
    # a failing shift keeps its witness line and states its horizon in JSON
    res = invoke(["magical", "A000032", "--upto", "30", "--max-shift", "1"])
    assert res.stdout.splitlines()[-2:] == ["    shift 0 pass-up-to(30)",
                                            "    shift 1 fails [check=dold n=2 value=1]"]


def test_regular_bernoulli():
    res = run_cli("regular", "--kind", "bernoulli", "--primes", "40", "--upto", "60")
    lines = res.output.splitlines()
    assert "37 irregular(16)" in lines
    assert "7 regular" in lines


def test_regular_euler():
    res = run_cli("regular", "--kind", "euler", "--primes", "20", "--upto", "60")
    assert "19 irregular(5) not-applicable" in res.output
    assert "5 regular weak(2)" in res.output
    assert "3 regular strong-up-to-60" in res.output


def test_ell_command():
    res = run_cli("ell", "--k", "2", "--m", "1", "--p", "5", "--upto", "10",
                  "--cross-check")
    assert "1 5 1 5 1 5 1 5 1 25" in res.output
    assert "algebraically realizable: yes" in res.output
    assert "matches: yes" in res.output


def test_groups_command():
    res = run_cli("groups", "--name", "z6", "--upto", "6")
    assert "6 endomorphisms" in res.output
    res = run_cli("groups", "--name", "d8", "--target", "4,4,4,8,4,4,4,8")
    assert "realized by image=" in res.output
    res = run_cli("groups", "--name", "s3", "--target", "1,1,1,1,6,1,1,1,1,6")
    assert "not realized" in res.output


def test_groups_from_file(tmp_path):
    path = tmp_path / "c2.cayley"
    path.write_text("2\n0\n0 1\n1 0\ne g\n")
    res = run_cli("groups", "--file", str(path), "--upto", "4")
    assert "2 endomorphisms" in res.output


def test_oracle_command():
    res = run_cli("oracle", "--max-prime", "7", "--max-r", "2", "--upto", "20")
    assert res.exit_code == 0
    assert "all oracles hold" in res.output


def test_oracle_defect_refuses_with_every_defect_line(monkeypatch):
    # tallies on stdout before the refusal would be a partial report
    bad = [CongruenceCheck("B_4 = B_2", 7, 1, 2, False), CongruenceCheck("E_2 = 1", 0, -1, 1, False)]
    monkeypatch.setattr(congruences, "run_oracle_grids", lambda **grid: {
        "kummer": [CongruenceCheck("fine", 5, 3, 3, True), bad[0]], "young": [bad[1]]})
    res = invoke(["oracle"])
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == ("error: 2 oracle defect(s): engine bug\n"
                          "  DEFECT B_4 = B_2: 1 != 2 mod 7\n"
                          "  DEFECT E_2 = 1: -1 != 1 mod 0\n")


def test_the_spec_a_command_line_builds_is_in_normal_form(monkeypatch):
    specs = []
    run = experiment.run_experiment
    monkeypatch.setattr(experiment, "run_experiment", lambda spec: specs.append(spec) or run(spec))
    invoke(["localscan", "e", "--upto", "20", "--prime", "61", "--prime", "7", "--prime", "7"])
    (spec,) = specs
    assert spec.primes == (7, 61)
    hash(spec)  # a frozen spec hashes only if its fields do
    ns = cli.parser().parse_args(["localscan", "e", "--prime", "7"])
    hash(experiment.ExperimentSpec(ns.source, primes=ns.primes))


def test_stdout_is_written_in_one_place():
    # every command returns its whole report and _run writes it, so a refusal
    # cannot follow a partial report
    def writes_stdout(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node) == "sys.stdout"
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
                and "file=sys.stderr" not in map(ast.unparse, node.keywords))

    writers = [getattr(top, "name", None) for top in ast.parse(Path(cli.__file__).read_text()).body
               for node in ast.walk(top) if writes_stdout(node)]
    assert writers == ["_run"]


def test_fetch_offline_fixture():
    res = run_cli("fetch", "A000364", "--cache-dir", "")
    assert res.exit_code == 0
    assert "offset 1" in res.output
    assert "1, 5, 61" in res.output


def test_fixtures_dir_is_read_before_the_bundled_fixture(tmp_path):
    (tmp_path / "b000032.txt").write_text("1 7\n2 9\n")
    res = invoke(["fetch", "A000032", "--fixtures-dir", str(tmp_path), "--cache-dir", ""])
    assert res.stdout == "A000032: offset 1, 2 terms: 7, 9\n"


def test_fixtures_dir_is_read_before_the_default_cache(tmp_path, monkeypatch):
    # the directory the user names is not shadowed by a copy in the cache
    cache, fixtures = tmp_path / "cache", tmp_path / "fx"
    cache.mkdir()
    fixtures.mkdir()
    (cache / "b000032.txt").write_text("1 1\n2 3\n")
    (fixtures / "b000032.txt").write_text("1 1\n2 3\n3 4\n")
    monkeypatch.setattr(cli, "DEFAULT_CACHE", cache)
    res = invoke(["check", "A000032", "--fixtures-dir", str(fixtures), "--format", "json"])
    assert (res.exit_code, json.loads(res.stdout)["depth"]) == (0, 3)
    res = invoke(["fetch", "A000032", "--fixtures-dir", str(fixtures)])
    assert res.stdout == "A000032: offset 1, 3 terms: 1, 3, 4\n"
    # without --fixtures-dir the cached copy is read, before the bundled one
    res = invoke(["check", "A000032", "--format", "json"])
    assert json.loads(res.stdout)["depth"] == 2


A010122_WHOLE = "A010122: offset 1, 60 terms: " + ", ".join(["1, 1, 1, 1, 6"] * 12) + "\n"


@pytest.mark.parametrize("argv,line", [
    (["A000032", "--terms", "0"], "A000032: offset 1, 400 terms\n"),
    (["A000032", "--terms", "3"], "A000032: offset 1, 400 terms: 1, 3, 4, ...\n"),
    (["A010122", "--terms", "60"], A010122_WHOLE),
    (["A010122", "--terms", "100"], A010122_WHOLE),
], ids=["no-terms", "some-terms", "every-term", "more-than-every-term"])
def test_fetch_line_lists_what_it_shows(argv, line):
    # no list for no terms, and no "..." once the whole file is shown
    assert invoke(["fetch", *argv, "--cache-dir", ""]).stdout == line


def test_an_empty_cache_dir_is_no_cache(tmp_path, monkeypatch):
    # Path("") is the current directory: a decoy there must not be read
    (tmp_path / "b000364.txt").write_text("1 7\n")
    monkeypatch.chdir(tmp_path)
    res = invoke(["fetch", "A000364", "--terms", "3", "--cache-dir", ""])
    assert (res.exit_code, res.stdout) == (0, "A000364: offset 1, 120 terms: 1, 5, 61, ...\n")


def test_an_empty_fixtures_dir_is_refused(tmp_path, monkeypatch):
    (tmp_path / "b000364.txt").write_text("1 7\n")
    monkeypatch.chdir(tmp_path)
    for argv in (["check", "A000364", "--upto", "1", "--fixtures-dir", ""],
                 ["fetch", "A000364", "--fixtures-dir", "", "--cache-dir", ""]):
        res = invoke(argv)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "error: argument --fixtures-dir: directory '' does not exist" in res.stderr


def test_online_reads_a_local_copy_before_the_network(monkeypatch):
    # the bundled file is found first, so the dead address is never tried
    monkeypatch.setenv("OEIS_BASE_URL", "http://127.0.0.1:9")
    offline = invoke(["localscan", "A000032", "--catalog"])
    online = invoke(["localscan", "A000032", "--catalog", "--online"])
    assert (online.exit_code, online.stdout, online.stderr) == (0, offline.stdout, "")


def test_fetch_missing_fixture_exit_code():
    res = invoke(["fetch", "A999999", "--cache-dir", ""])
    assert res.exit_code == 6  # FixtureMissingError


def test_bad_bfile_exit_code(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n5 9\n")
    res = invoke(["check", str(p)])
    assert res.exit_code == 3  # BFileError


def test_catalog_listing():
    res = run_cli("catalog")
    assert "A000032" in res.output and "A001850" in res.output


def test_offline_determinism():
    one = run_cli("localscan", "A005258", "--catalog", "--format", "json").output
    two = run_cli("localscan", "A005258", "--catalog", "--format", "json").output
    assert one == two


def test_localscan_rejects_unknown_local_checks():
    # a misspelt or unsupported check must not leave a failing prime realizable*
    for checks in ("dlod", "monotone", ""):
        res = invoke(["localscan", "e", "--upto", "20", "--prime", "61",
                      "--local-checks", checks])
        assert res.exit_code == 1, checks
        assert "local_checks" in res.output
        assert "realizable*" not in res.output


def test_regular_default_depth_covers_the_primes():
    # the default depth follows --primes, so these no longer exit 7 (DepthError)
    for kind, q_max in (("euler", "500"), ("bernoulli", "700")):
        res = run_cli("regular", "--kind", kind, "--primes", q_max)
        assert res.exit_code == 0
        ref = run_cli("regular", "--kind", kind, "--primes", q_max,
                      "--upto", str((int(q_max) - 1) // 2))
        column = [line.split()[:2] for line in res.output.splitlines()]
        assert column == [line.split()[:2] for line in ref.output.splitlines()]
        assert column[-1][0] == ("499" if kind == "euler" else "691")


def test_regular_default_depth_unchanged_below_the_floor():
    res = run_cli("regular", "--kind", "euler", "--primes", "408")
    assert res.output.splitlines()[0] == "2 regular strong-up-to-200"


def test_localscan_catalog_plain_form_runs_the_preset():
    res = run_cli("localscan", "A000032", "--catalog", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert (doc["depth"], doc["local"][-1]["prime"]) == (38, 109)


def test_localscan_catalog_narrowed_by_upto_and_primes():
    res = run_cli("localscan", "A000032", "--catalog", "--upto", "10",
                  "--primes", "20", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert (doc["depth"], doc["local"][-1]["prime"]) == (10, 19)


@pytest.mark.parametrize("flags,name", [
    (["--local-checks", "dlod"], "--local-checks"),
    (["--local-checks", "dold,sign"], "--local-checks"),  # even the default value
    (["--prime", "7"], "--prime"),
    (["--scale", "5"], "--scale"),
    (["--abs"], "--abs"),
    (["--offset-policy", "strict"], "--offset-policy"),
])
def test_localscan_catalog_rejects_flags_it_would_ignore(flags, name):
    res = invoke(["localscan", "A000032", "--catalog", *flags])
    assert res.exit_code == 1
    assert res.output.startswith("error: ")
    assert name in res.output
    assert "realizable" not in res.output


def readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines() if line.startswith("seqlab ")]


def test_readme_lists_the_commands():
    assert len(readme_commands()) >= 17


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv):
    res = invoke(argv)
    assert res.exit_code == 0, res.output
    assert res.stdout


def load_file(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_comparison_corpus_covers_the_readme_and_the_cli_pool():
    # tools/compare_outputs.py diffs these lines between two trees; this
    # only lists them and runs none
    root = Path(__file__).parent.parent
    pool = load_file(root / "perfbench" / "pool.py")
    compare = load_file(root / "tools" / "compare_outputs.py")
    lines = compare.corpus(root, extra=("seqlab fetch A000032 --online", "catalog"))
    pool_lines = [task["args"][key] for task in pool.pool("cli")
                  for key in ("argv", "ref_argv") if key in task["args"]]
    assert len(pool_lines) > len(pool.pool("cli"))  # the ref_argv lines are there too
    named = readme_commands() + pool_lines + [["fetch", "A000032", "--online"], ["catalog"]]
    helps = [["--help"]] + [[argv[0], "--help"] for argv in named]
    for argv in named + helps:
        assert argv in lines
    assert len(lines) == len({tuple(argv) for argv in lines})


# Invalid values for every command that takes options: zero, negatives, empty
# lists, non-primes and out-of-domain parameters, each with its exit code and,
# where a row gives them, words its stderr must hold (a whole "error: " line is
# the exact stderr).  bound() is the one wording of a refused lower bound, and
# ceiling() of a refused upper bound.  None starts a large search.
def bound(name, least, value):
    return f"error: {name} must be >= {least}, got {value}\n"


def ceiling(name, most, value):
    return f"error: {name} must be <= {most}, got {value}\n"


REFUSALS = [
    *[(["classical", "--what", what, "--upto", n], 1, bound("depth", 1, n))
      for what in ("e", "t", "b", "d", "bernoulli", "euler") for n in ("0", "-2")],
    (["check", "e", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["check", "e", "--upto", "-5"], 1, bound("depth", 1, -5)),
    (["check", "A000032", "--upto", "-5"], 1, bound("depth", 1, -5)),
    (["check", "e", "--shift", "-1"], 1, bound("shift", 0, -1)),
    (["check", "A000032", "--shift", "400"], 1, ceiling("shift", 399, 400)),
    (["check", "A999999", "--shift", "-1"], 1, bound("shift", 0, -1)),
    (["check", "A000032", "--scale", "0"], 1, bound("scale", 1, 0)),
    (["check", "A999999", "--scale", "0"], 1, bound("scale", 1, 0)),
    (["check", "A000032", "--scale", "-2"], 1, bound("scale", 1, -2)),
    (["check", "A001067", "--upto", "5"], 1, "--abs"),
    *[(["localscan", "e", "--upto", "20", "--prime", q], 1, f"error: prime expected, got {q}\n")
      for q in ("4", "0", "-3")],
    (["localscan", "e", "--upto", "20", "--primes", "0"], 1, bound("prime_limit", 2, 0)),
    (["localscan", "e", "--upto", "20", "--primes", "-5"], 1, bound("prime_limit", 2, -5)),
    (["localscan", "e", "--upto", "20", "--primes", "1"], 1, bound("prime_limit", 2, 1)),
    (["localscan", "e", "--upto", "20", "--primes", "50", "--prime", "7"], 1),
    (["localscan", "A000032", "--catalog", "--primes", "0"], 1, bound("prime_limit", 2, 0)),
    (["localscan", "e", "--upto", "20", "--local-checks", ""], 1),
    (["localscan", "e", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["localscan", "A000032", "--upto", "-3", "--primes", "20"], 1, bound("depth", 1, -3)),
    (["localscan", "A000032", "--catalog", "--upto", "-1"], 1, bound("depth", 1, -1)),
    (["localscan", "e", "--upto", "20", "--magical", "--max-shift", "-1"], 1,
     bound("max_shift", 0, -1)),
    (["localscan", "e", "--upto", "20", "--prime", "7", "--max-shift", "3"], 1),
    (["localscan", "A005259", "--catalog", "--magical", "--max-shift", "-3"], 1,
     bound("max_shift", 0, -3)),
    (["magical", "A000032", "--upto", "10", "--max-shift", "-1"], 1, bound("max_shift", 0, -1)),
    (["magical", "A000032", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["magical", "A000032", "--upto", "-2"], 1, bound("depth", 1, -2)),
    (["magical", "A000032", "--upto", "10", "--max-shift", "10"], 1, ceiling("max_shift", 9, 10)),
    (["regular", "--primes", "1"], 1, bound("q_max", 2, 1)),
    (["regular", "--primes", "0"], 1, bound("q_max", 2, 0)),
    (["regular", "--primes", "-5"], 1, bound("q_max", 2, -5)),
    (["regular", "--primes", "20", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["regular", "--kind", "euler", "--upto", "-1"], 1, bound("depth", 1, -1)),
    (["regular", "--kind", "euler", "--primes", "-5", "--upto", "20"], 1, bound("q_max", 2, -5)),
    (["regular", "--kind", "bernoulli", "--primes", "700", "--upto", "10"], 7),
    (["regular", "--kind", "euler", "--primes", "103", "--upto", "40"], 7),
    (["regular", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["regular", "--kind", "euler", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["regular", "--upto", "-4"], 1, bound("depth", 1, -4)),
    (["ell", "--k", "0", "--m", "1", "--p", "5"], 1, bound("k", 1, 0)),
    (["ell", "--k", "-1", "--m", "1", "--p", "5"], 1, bound("k", 1, -1)),
    (["ell", "--k", "1", "--m", "0", "--p", "5"], 1, bound("m", 1, 0)),
    (["ell", "--k", "1", "--m", "1", "--p", "4"], 1),
    (["ell", "--k", "1", "--m", "1", "--p", "-5"], 1),
    (["ell", "--k", "1", "--m", "1", "--p", "5", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["ell", "--k", "5", "--m", "1", "--p", "5"], 1),
    (["ell", "--k", "3", "--m", "1", "--p", "5", "--upto", "5", "--cross-check"], 1),
    (["ell", "--k", "3", "--m", "1", "--p", "2", "--upto", "5", "--cross-check"], 1),
    (["groups", "--name", "s3", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["groups", "--name", "s3", "--upto", "-2"], 1, bound("depth", 1, -2)),
    *[(["groups", "--name", "s3", "--target", target], 1,
       f"error: --target must be comma-separated integers >= 0, got {target!r}\n")
      for target in ("", "1,-1", "1,x")],
    (["groups"], 1),
    (["oracle", "--max-prime", "1"], 1),
    (["oracle", "--max-prime", "-3"], 1),
    (["oracle", "--max-r", "0"], 1),
    (["oracle", "--max-r", "-1"], 1),
    (["oracle", "--upto", "0"], 1, bound("depth", 1, 0)),
    (["oracle", "--family", "young", "--upto", "2"], 1),
    (["fetch", "A000032", "--terms", "-2", "--cache-dir", ""], 1, bound("--terms", 0, -2)),
    (["fetch", "", "--cache-dir", ""], 1),
    (["fetch", "A0", "--cache-dir", ""], 1, bound("a_number", 1, 0)),
    (["fetch", "A1000000", "--cache-dir", ""], 1, ceiling("a_number", 999999, 1000000)),
    (["fetch", "A999999", "--cache-dir", ""], 6),
]


@pytest.mark.parametrize("argv,code,words",
                         [(argv, code, "".join(words)) for argv, code, *words in REFUSALS],
                         ids=[" ".join(row[0]) for row in REFUSALS])
def test_refused_input_prints_nothing(argv, code, words):
    # a partial report, or a family that tested nothing reported as holding,
    # would claim more than was checked
    res = invoke(argv)
    assert res.exit_code == code
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    if words.startswith("error: "):
        assert res.stderr == words
    else:
        assert words in res.stderr


def test_an_a_number_longer_than_int_reads_is_refused_in_one_line():
    # int() refuses a digit string longer than the interpreter's limit; the
    # number is then far above 999999, and is refused as one
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter reads a digit string of any length")
    res = invoke(["fetch", "A1" + "0" * limit, "--cache-dir", ""])
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == f"error: a_number must be <= 999999, got a number of {limit + 1} digits\n"


@pytest.mark.parametrize("argv,words", [
    (["magical", "e", "--upto", "2000", "--max-shift", "2000"],
     "error: max_shift must be <= 1999, got 2000\n"),
    (["localscan", "e", "--upto", "2000", "--prime", "4"], "error: prime expected, got 4\n"),
])
def test_a_refused_survey_builds_no_table(monkeypatch, argv, words):
    # the spec refuses them before the source is read, so the Euler table of
    # depth 2000 (seconds of work) is never built
    def never(M):
        raise AssertionError("the Euler table was built")

    monkeypatch.setattr(classical._SECANT, "columns", never)
    res = invoke(argv)
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", words)


def commands() -> dict[str, argparse.ArgumentParser]:
    top = cli.parser()
    return next(action.choices for action in top._actions
                if isinstance(action, argparse._SubParsersAction))


def test_refusals_cover_every_command_with_options():
    assert {row[0][0] for row in REFUSALS} == {
        name for name, command in commands().items()
        if any(not isinstance(action, argparse._HelpAction) for action in command._actions)}


def test_ell_cross_check_at_two_is_answered():
    res = invoke(["ell", "--k", "1", "--m", "2", "--p", "2", "--upto", "6",
                  "--cross-check"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == [
        "4 16 4 64 4 16",
        "algebraically realizable: criterion not applicable at p=2",
        "torsion-module realization matches: yes",
    ]


@pytest.mark.parametrize("argv", [
    ["check", "e", "--format", "xml"],
    ["ell", "--m", "1", "--p", "5"],  # --k is required
    ["groups", "--file", "no-such-file.cayley"],
    ["check", "e", "--no-such-option"],
    ["check", "e", "--up", "5"],  # no abbreviations: --up is not --upto
    ["localscan", "e", "--prim", "7"],
    ["no-such-command"],
    [],
    ["check", "A000032", "--upto", "5", "--fixtures-dir", "no-such-dir"],
    ["localscan", "A000032", "--upto", "5", "--fixtures-dir", "no-such-dir"],
    ["magical", "A000032", "--upto", "5", "--fixtures-dir", "no-such-dir"],
    ["fetch", "A000032", "--fixtures-dir", "no-such-dir"],
    ["fetch", "A000032", "--fixtures-dir", __file__],  # a file, not a directory
])
def test_usage_errors_exit_2_before_any_output(argv):
    res = invoke(argv)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "error:" in res.stderr


def test_a_value_starting_with_a_dash_attaches_with_equals():
    # negative integers need no "=" (see REFUSALS); other such values do
    res = invoke(["groups", "--name", "s3", "--target=-1,2"])
    assert res.exit_code == 1
    assert res.stderr == "error: --target must be comma-separated integers >= 0, got '-1,2'\n"


def test_version():
    res = invoke(["--version"])
    assert (res.exit_code, res.stdout, res.stderr) == (0, "seqlab, version 0.1.0\n", "")


def test_every_command_has_help():
    for name in commands():
        res = invoke([name, "--help"])
        assert res.exit_code == 0
        assert res.stdout.startswith(f"usage: seqlab {name}")


def test_catalog_flag_refusal_names_the_flags_in_order():
    res = invoke(["localscan", "A000032", "--catalog", "--scale", "1", "--abs",
                  "--local-checks", "dold", "--prime", "7"])
    assert res.exit_code == 1
    assert res.output == ("error: --catalog fixes its own survey; --prime, --local-checks, "
                          "--abs, --scale cannot be combined with it\n")


def test_online_and_offline_share_one_flag():
    ns = cli.parser().parse_args(["fetch", "A000032", "--online", "--offline"])
    assert ns.online is False
    ns = cli.parser().parse_args(["check", "e", "--offline", "--online"])
    assert ns.online is True
    assert cli.parser().parse_args(["check", "e"]).online is False


def test_entry_point_keeps_its_main_spelling_when_functions_are_wrapped(monkeypatch, capsys):
    # a tracer that rebinds every public function of the module to a wrapper
    # carrying only its name and docstring must leave the entry point, and its
    # main(args=..., prog_name=..., standalone_mode=...) spelling, working
    copy = functools.partial(functools.wraps, assigned=("__name__", "__qualname__", "__doc__"),
                             updated=())
    for name, obj in list(vars(cli).items()):
        if inspect.isfunction(obj) and obj.__module__ == cli.__name__ and not name.startswith("_"):
            monkeypatch.setattr(cli, name, copy(obj)(lambda *a, _fn=obj, **k: _fn(*a, **k)))
    cli.main.main(args=["catalog"], prog_name="seqlab", standalone_mode=True)
    assert "A000032 [lucas]" in capsys.readouterr().out


def test_module_runs_as_a_script():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "seqlab.cli", "catalog"], capture_output=True,
                          text=True, env={"PYTHONPATH": src, "PATH": ""}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "A001850 [delannoy]" in proc.stdout
