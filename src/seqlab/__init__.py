"""seqlab: a laboratory for realizability of integer sequences.

Exact arithmetic end to end: orbit counts and the Dold congruence, local
p-part analysis, Bernoulli/Euler number engines, regular-prime
classification, congruence oracles, and algebraic realization on finite
groups and p-torsion modules.
"""

import sys as _sys
from importlib import import_module as _import_module

# The lab routinely prints and parses integers with tens of thousands of
# digits (e.g. Fibonacci along squares); lift CPython's conversion guard once,
# never lowering a limit someone already raised (0 means unlimited).
if hasattr(_sys, "set_int_max_str_digits"):
    _cur = _sys.get_int_max_str_digits()
    if _cur != 0 and _cur < 300_000:
        _sys.set_int_max_str_digits(300_000)

# Public names and the module that defines each.  Nothing below the package
# is imported until a name is first read (PEP 562), so `import seqlab` and a
# command that needs one engine do not pay for the others.
_EXPORTS = {
    "arith": (
        "PAdicPart", "divisors", "euler_phi", "factorize", "is_prime", "mobius",
        "p_adic", "primes_in_range",
    ),
    "bfile": ("BFile", "fetch_oeis", "normalize_a_number", "parse_bfile", "to_sequence"),
    "classical": (
        "BernoulliTable", "DerivedBernoulli", "EulerTable", "b_product_formula",
        "bernoulli_upto", "clausen_denominator", "derived_bernoulli", "euler_upto",
        "lehmer_pierce", "secant_numbers", "sequence_e", "tangent_numbers",
    ),
    "congruences": (
        "CongruenceCheck", "euler_additive_check", "good_primitive_root",
        "kummer_check", "lemma_five_check", "multiplicative_order",
        "staying_alive_check", "wagstaff_A", "wagstaff_identity_check", "young_check",
    ),
    "algebraic": (
        "BUNDLED_GROUPS", "ConstructionParams", "Endomorphism", "FiniteGroup",
        "bundled_group", "construct_matrix", "ell_algebraically_realizable",
        "ell_sequence", "enumerate_endomorphisms", "field_generator",
        "find_realizing_endomorphism", "fix_counts", "parse_cayley",
        "torsion_fix_counts",
    ),
    "errors": (
        "BFileError", "DegeneratePolynomialError", "DepthError", "FetchHTTPError",
        "FetchNetworkError", "FixtureMissingError", "SeqLabError", "ZeroEntryError",
    ),
    "experiment": (
        "OBSERVATION_CATALOG", "ExperimentSpec", "catalog_spec", "load_sequence",
        "not_realizable_primes", "realizable_star_primes", "render_report",
        "run_experiment",
    ),
    "matrices": ("IntMatrix", "companion_matrix"),
    "primes": (
        "BERNOULLI", "EULER", "EulerStrength", "PrimeClassification", "Regularity",
        "classify_bernoulli", "classify_euler", "numerator_local_status", "scan_primes",
        "weak_euler_profile_check",
    ),
    "realizability": (
        "MagicalReport", "OrbitCounts", "RealizabilityReport", "Sequence1", "Verdict",
        "arias_criterion", "check_realizable", "dold_sign", "least_failure",
        "local_report", "magical_report", "orbit_counts", "p_part_sequence",
        "pointwise_product", "shift",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule read as an attribute of the package
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
