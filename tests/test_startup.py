"""Start-up: what `import seqlab` and each command load, and the lazy package API.

The import tests run in a fresh interpreter, because the test process has
long since loaded every module.
"""

import argparse
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import seqlab
from seqlab import cli
from seqlab.algebraic import BUNDLED_GROUPS
from seqlab.bfile import SHIFT_TO_1, STRICT
from seqlab.congruences import FAMILIES
from seqlab.experiment import CSV, JSON, TABLE, ExperimentSpec
from seqlab.primes import BERNOULLI, EULER

# The package's public names, by defining module, as the eager imports of
# the package exported them.
EXPORTS = {
    "arith": ["PAdicPart", "divisors", "euler_phi", "factorize", "is_prime", "mobius",
              "p_adic", "primes_in_range"],
    "bfile": ["BFile", "fetch_oeis", "normalize_a_number", "parse_bfile", "to_sequence"],
    "classical": ["BernoulliTable", "DerivedBernoulli", "EulerTable", "b_product_formula",
                  "bernoulli_upto", "clausen_denominator", "derived_bernoulli", "euler_upto",
                  "lehmer_pierce", "secant_numbers", "sequence_e", "tangent_numbers"],
    "congruences": ["CongruenceCheck", "euler_additive_check", "good_primitive_root",
                    "kummer_check", "lemma_five_check", "multiplicative_order",
                    "staying_alive_check", "wagstaff_A", "wagstaff_identity_check",
                    "young_check"],
    "algebraic": ["BUNDLED_GROUPS", "ConstructionParams", "Endomorphism", "FiniteGroup",
                  "bundled_group", "construct_matrix", "ell_algebraically_realizable",
                  "ell_sequence", "enumerate_endomorphisms", "field_generator",
                  "find_realizing_endomorphism", "fix_counts", "parse_cayley",
                  "torsion_fix_counts"],
    "errors": ["BFileError", "DegeneratePolynomialError", "DepthError", "FetchHTTPError",
               "FetchNetworkError", "FixtureMissingError", "SeqLabError", "ZeroEntryError"],
    "experiment": ["OBSERVATION_CATALOG", "ExperimentSpec", "catalog_spec", "load_sequence",
                   "not_realizable_primes", "realizable_star_primes", "render_report",
                   "run_experiment"],
    "matrices": ["IntMatrix", "companion_matrix"],
    "primes": ["BERNOULLI", "EULER", "EulerStrength", "PrimeClassification", "Regularity",
               "classify_bernoulli", "classify_euler", "numerator_local_status", "scan_primes",
               "weak_euler_profile_check"],
    "realizability": ["MagicalReport", "OrbitCounts", "RealizabilityReport", "Sequence1",
                      "Verdict", "arias_criterion", "check_realizable", "dold_sign",
                      "least_failure", "local_report", "magical_report", "orbit_counts",
                      "p_part_sequence", "pointwise_product", "shift"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)

# Every defaulted parameter of a public function, by name: a new option is a
# reviewed change to this list.
OPTIONS = [
    "algebraic.parse_cayley(label)",
    "bfile.parse_bfile(source)",
    "bfile.to_sequence(policy)", "bfile.to_sequence(absolute)",
    "bfile.fetch_oeis(online)", "bfile.fetch_oeis(cache_dir)", "bfile.fetch_oeis(fixtures_dir)",
    "congruences.run_oracle_grids(max_prime)", "congruences.run_oracle_grids(max_r)",
    "congruences.run_oracle_grids(upto)", "congruences.run_oracle_grids(family)",
    "experiment.render_report(fmt)",
    "primes.scan_primes(depth)",
]

# The fields of ExperimentSpec, in order: each is an option of every survey, so
# a new one is a reviewed change to this list.
SPEC_FIELDS = [
    "source", "label", "depth", "prime_limit", "primes", "local_checks",
    "max_shift", "shift", "absolute", "offset_policy", "scale", "fixtures_dir", "cache_dir",
    "online",
]

ENGINES = {"seqlab.algebraic", "seqlab.primes", "seqlab.congruences", "seqlab.classical",
           "seqlab.matrices"}


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    src = str(Path(seqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def loaded_after(code: str) -> set[str]:
    """The seqlab modules a fresh interpreter holds after running ``code``."""
    return {m for m in modules_after(code) if m.split(".")[0] == "seqlab"}


def command(*argv: str) -> str:
    """Code that runs one seqlab command and requires it to succeed."""
    return (
        "import seqlab.cli\n"
        "try:\n"
        f"    seqlab.cli.main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )


def loaded_after_command(*argv: str) -> set[str]:
    return loaded_after(command(*argv))


def test_import_seqlab_loads_no_submodule():
    assert loaded_after("import seqlab") == {"seqlab"}


def test_import_cli_loads_only_the_errors():
    assert loaded_after("import seqlab.cli") == {"seqlab", "seqlab.cli", "seqlab.errors"}


def test_a_command_loads_no_click():
    code = (
        "import sys\n"
        "import seqlab.cli\n"
        "seqlab.cli.main(['catalog'])\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'click'], 'click loaded'\n"
    )
    assert "seqlab.experiment" in loaded_after(code)


@pytest.mark.parametrize("argv", [
    ("check", "A000032", "--upto", "38"),
    ("regular", "--kind", "bernoulli", "--primes", "30"),
    ("oracle", "--family", "kummer"),
    ("groups", "--name", "s3"),
    ("ell", "--k", "3", "--m", "2", "--p", "2", "--upto", "12"),
], ids=lambda argv: argv[0])
def test_a_command_loads_neither_dataclasses_nor_inspect(argv):
    # against a bare interpreter, since what ``site`` imports differs between machines
    added = modules_after(command(*argv)) - modules_after("pass")
    assert "seqlab.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_catalog_scan_loads_no_number_or_algebraic_engine():
    loaded = loaded_after_command("localscan", "A000032", "--catalog")
    assert "seqlab.experiment" in loaded
    assert not loaded & ENGINES


def test_groups_loads_neither_the_runner_nor_bfiles():
    loaded = loaded_after_command("groups", "--name", "s3")
    assert "seqlab.algebraic" in loaded
    assert not loaded & {"seqlab.experiment", "seqlab.bfile"}


def test_reading_a_name_loads_its_module_and_caches_it():
    code = "import seqlab\nassert seqlab.Sequence1 is vars(seqlab)['Sequence1']"
    loaded = loaded_after(code)
    assert "seqlab.realizability" in loaded
    assert not loaded & ENGINES


def test_a_submodule_reads_as_an_attribute_of_the_package():
    code = "import seqlab\nassert seqlab.matrices.IntMatrix is seqlab.IntMatrix"
    assert loaded_after(code) == {"seqlab", "seqlab.arith", "seqlab.errors", "seqlab.matrices"}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_public_name_is_the_defining_modules_object(module):
    defining = import_module(f"seqlab.{module}")
    for name in EXPORTS[module]:
        assert getattr(seqlab, name) is getattr(defining, name), name
    assert getattr(seqlab, module) is defining


def test_all_lists_exactly_the_public_names():
    assert sorted(seqlab.__all__) == ALL_NAMES


def test_dir_lists_the_public_names():
    assert set(ALL_NAMES) <= set(dir(seqlab))


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from seqlab import *", namespace)
    for name in ALL_NAMES:
        assert namespace[name] is getattr(seqlab, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqlab.no_such_name
    assert not hasattr(seqlab, "cli_main")
    with pytest.raises(ImportError):
        exec("from seqlab import no_such_name", {})


def test_cli_choices_are_the_library_constants():
    assert cli.FORMATS == (TABLE, JSON, CSV)
    assert cli.OFFSET_POLICIES == (SHIFT_TO_1, STRICT)
    assert cli.KINDS == (BERNOULLI, EULER)
    assert cli.GROUP_NAMES == BUNDLED_GROUPS
    commands = next(action.choices for action in cli.parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    family = next(action for action in commands["oracle"]._actions if action.dest == "family")
    assert tuple(family.choices) == (*FAMILIES, "all")


def defaulted(qualname: str, func) -> list[str]:
    return [f"{qualname}({param.name})" for param in inspect.signature(func).parameters.values()
            if param.default is not param.empty]


def test_the_spec_has_only_the_listed_fields():
    assert list(ExperimentSpec.__match_args__) == SPEC_FIELDS


def test_public_functions_take_only_the_listed_options():
    modules = [import_module(f"seqlab.{info.name}") for info in pkgutil.iter_modules(seqlab.__path__)]
    public = [(f"{module.__name__.removeprefix('seqlab.')}.{name}", obj) for module in modules
              for name, obj in vars(module).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]
    assert [option for qualname, obj in public if inspect.isfunction(obj)
            for option in defaulted(qualname, obj)] == OPTIONS
    # methods are counted apart, and constructors not at all: their parameters are fields
    methods = [(f"{qualname}.{attr}", getattr(method, "__func__", method))
               for qualname, cls in public if inspect.isclass(cls)
               for attr, method in vars(cls).items() if attr != "__init__"]
    assert [option for qualname, func in methods if inspect.isfunction(func)
            for option in defaulted(qualname, func)] == ["matrices.IntMatrix.__pow__(m)"]
