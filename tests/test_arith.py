from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqlab import algebraic, classical, congruences, primes, realizability
from seqlab.algebraic import (
    ConstructionParams,
    FiniteGroup,
    field_generator,
    smallest_irreducible,
    torsion_fix_counts,
)
from seqlab.arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    p_adic,
    primes_in_range,
)
from seqlab.bfile import normalize_a_number
from seqlab.congruences import euler_additive_check
from seqlab.experiment import ExperimentSpec, run_experiment
from seqlab.matrices import IntMatrix
from oracles import phi_by_count, primes_by_trial


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    # frozen from the direct-count oracle
    assert phi_by_count(25) == 20
    assert euler_phi(25) == 20


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_p_adic_examples():
    assert p_adic(8, 2) == p_adic(8, 2).__class__(3, 8)
    # frozen from the repeated-division oracle: 250 = 2 * 5^3
    assert (p_adic(250, 5).ord, p_adic(250, 5).part) == (3, 125)
    assert (p_adic(7, 3).ord, p_adic(7, 3).part) == (0, 1)


def test_p_adic_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic(0, 2)
    with pytest.raises(ValueError):
        p_adic(10, 4)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(32) == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ValueError):
        divisors(0)


def test_primes_in_range_examples():
    assert primes_in_range(2, 10) == [2, 3, 5, 7]
    assert primes_in_range(14, 16) == []
    # frozen from the trial-division oracle
    assert primes_by_trial(90, 110) == [97, 101, 103, 107, 109]
    assert primes_in_range(90, 110) == [97, 101, 103, 107, 109]


def test_mobius_divisor_sum_vanishes():
    for n in range(2, 10_001):
        assert sum(mobius(d) for d in divisors(n)) == 0
    assert sum(mobius(d) for d in divisors(1)) == 1


def test_phi_divisor_sum_is_n():
    for n in range(1, 10_001):
        assert sum(euler_phi(d) for d in divisors(n)) == n


@given(
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from(primes_in_range(2, 100)),
)
def test_p_adic_part_division_property(n, p):
    part = p_adic(n, p).part
    assert n % part == 0
    assert (n // part) % p != 0


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reassembles(n):
    out = 1
    for p, e in factorize(n):
        assert is_prime(p)
        out *= p**e
    assert out == n


@given(
    st.integers(min_value=-10**9, max_value=10**9).filter(lambda x: x != 0),
    st.integers(min_value=1, max_value=10**9),
)
def test_rational_normalization_round_trip(a, b):
    # lowest terms with positive denominator is the Fraction contract the
    # congruence oracles rely on
    f = Fraction(a, b)
    assert f.denominator >= 1
    from math import gcd

    assert gcd(abs(f.numerator), f.denominator) == 1
    assert f * Fraction(b, a) == 1


@pytest.mark.parametrize("refuse", [
    lambda p: smallest_irreducible(p, 1),
    lambda p: field_generator(p, 1),
    lambda p: ConstructionParams.create(1, 1, p),
    lambda p: torsion_fix_counts(IntMatrix([[2]]), 1, p, 3),
    lambda p: euler_additive_check(p, 1, 1),
    lambda p: p_adic(8, p),
    # before its zero term: p_part_sequence proves q, as localize takes it proven
    lambda p: realizability.p_part_sequence(realizability.Sequence1((0, 3)), p),
], ids=["smallest_irreducible", "field_generator", "ConstructionParams.create",
        "torsion_fix_counts", "euler_additive_check", "p_adic", "p_part_sequence"])
@pytest.mark.parametrize("p", [4, 1])
def test_every_prime_parameter_refuses_a_non_prime_alike(refuse, p):
    with pytest.raises(ValueError, match=f"^prime expected, got {p}$"):
        refuse(p)


def _z2(identity=0):
    return FiniteGroup(2, ((0, 1), (1, 0)), identity, ("e", "a"))


def _fix_counts(N):
    G = algebraic.bundled_group("z6")
    return algebraic.fix_counts(G, algebraic.enumerate_endomorphisms(G)[0], N)


# (call, argument name, least value): every count and depth argument the
# library takes, refused below its least value by arith._at_least
BOUNDS = {
    "factorize": (factorize, "n", 1),
    "mobius": (mobius, "n", 1),
    "euler_phi": (euler_phi, "n", 1),
    "p_adic": (lambda v: p_adic(v, 3), "n", 1),
    "divisors": (divisors, "n", 1),
    "tangent_numbers": (classical.tangent_numbers, "depth", 1),
    "secant_numbers": (classical.secant_numbers, "depth", 0),
    "bernoulli_upto": (classical.bernoulli_upto, "depth", 1),
    "euler_upto": (classical.euler_upto, "depth", 1),
    "sequence_e": (classical.sequence_e, "depth", 1),
    "derived_bernoulli": (classical.derived_bernoulli, "depth", 1),
    "clausen_denominator": (classical.clausen_denominator, "n", 1),
    "b_product_formula": (classical.b_product_formula, "n", 1),
    "lehmer_pierce": (lambda v: classical.lehmer_pierce([-1, -1, 1], v), "depth", 1),
    "smallest_irreducible": (lambda v: smallest_irreducible(5, v), "m", 1),
    "ConstructionParams.create(k)": (lambda v: ConstructionParams.create(v, 1, 5), "k", 1),
    "ConstructionParams.create(m)": (lambda v: ConstructionParams.create(1, v, 5), "m", 1),
    "ell_algebraically_realizable": (
        lambda v: algebraic.ell_algebraically_realizable(v, 1, 5), "k", 1),
    "ell_sequence": (
        lambda v: algebraic.ell_sequence(ConstructionParams.create(1, 1, 5), v), "depth", 1),
    "torsion_fix_counts(c)": (lambda v: torsion_fix_counts(IntMatrix([[2]]), v, 5, 3), "c", 1),
    "torsion_fix_counts(N)": (
        lambda v: torsion_fix_counts(IntMatrix([[2]]), 1, 5, v), "depth", 1),
    "fix_counts": (_fix_counts, "depth", 1),
    "wagstaff_A(n)": (lambda v: congruences.wagstaff_A(v, 3), "n", 0),
    "wagstaff_A(m)": (lambda v: congruences.wagstaff_A(2, v), "m", 1),
    "wagstaff_identity_check": (lambda v: congruences.wagstaff_identity_check(v, 5), "n", 1),
    "euler_additive_check": (lambda v: euler_additive_check(5, v, 1), "r", 1),
    "euler_additive_check(b)": (lambda v: euler_additive_check(5, 1, v), "b", 1),
    "run_oracle_grids": (lambda v: congruences.run_oracle_grids(upto=v), "depth", 1),
    "ExperimentSpec.depth": (lambda v: ExperimentSpec("e", depth=v), "depth", 1),
    "ExperimentSpec.max_shift": (lambda v: ExperimentSpec("e", max_shift=v), "max_shift", 0),
    "ExperimentSpec.prime_limit": (
        lambda v: ExperimentSpec("e", prime_limit=v), "prime_limit", 2),
    "ExperimentSpec.scale": (lambda v: ExperimentSpec("e", scale=v), "scale", 1),
    "ExperimentSpec.shift": (lambda v: ExperimentSpec("e", shift=v), "shift", 0),
    "scan_primes(q_max)": (lambda v: primes.scan_primes(primes.BERNOULLI, v), "q_max", 2),
    "scan_primes(depth)": (lambda v: primes.scan_primes(primes.EULER, 20, v), "depth", 1),
    "numerator_local_status": (lambda v: primes.numerator_local_status(7, v), "depth", 1),
    "shift": (lambda v: realizability.shift(realizability.Sequence1((1, 3, 4)), v), "shift", 0),
    "magical_report": (
        lambda v: realizability.magical_report(realizability.Sequence1((1, 3, 4)), v),
        "max_shift", 0),
    "field_generator": (lambda v: field_generator(5, v), "m", 1),
    "FiniteGroup(order)": (lambda v: FiniteGroup(v, (), 0, ()), "order", 1),
    "FiniteGroup(identity)": (lambda v: _z2(identity=v), "identity", 0),
    "normalize_a_number": (normalize_a_number, "a_number", 1),
    "IntMatrix.__pow__": (lambda v: IntMatrix([[2]]) ** v, "k", 0),
}


@pytest.mark.parametrize("below", [1, 4])
@pytest.mark.parametrize("guarded", BOUNDS)
def test_every_bound_is_refused_in_one_wording(guarded, below):
    call, name, least = BOUNDS[guarded]
    value = least - below  # just below the bound, then negative
    with pytest.raises(ValueError, match=rf"^{name} must be >= {least}, got {value}$"):
        call(value)


def _cyclic_search(order):
    # the cyclic group has one generator, so its search would try ``order``
    # generator-image tuples; a budget of 5 brings the ceiling within reach of
    # a small group, as no group of order <= 64 has 2**20 + 1 tuples
    table = tuple(tuple((x + y) % order for y in range(order)) for x in range(order))
    G = FiniteGroup(order, table, 0, tuple(map(str, range(order))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebraic, "MAX_SEARCH_TUPLES", 5)
        algebraic.enumerate_endomorphisms(G)


# (call, argument name, greatest value): every single-value ceiling the
# library takes, refused above its greatest value by arith._at_most
CEILINGS = {
    "field_generator": (lambda v: field_generator(5, v), "m", 8),
    "FiniteGroup(order)": (lambda v: FiniteGroup(v, (), 0, ()), "order", 64),
    "FiniteGroup(identity)": (lambda v: _z2(identity=v), "identity", 1),
    "_endomorphisms": (_cyclic_search, "generator-image tuples", 5),
    "shift": (lambda v: realizability.shift(realizability.Sequence1((1, 3, 4)), v), "shift", 2),
    "magical_report": (
        lambda v: realizability.magical_report(realizability.Sequence1((1, 3, 4)), v),
        "max_shift", 2),
    "ExperimentSpec.max_shift": (
        lambda v: ExperimentSpec("e", depth=5, max_shift=v), "max_shift", 4),
    "normalize_a_number": (normalize_a_number, "a_number", 999999),
    "primes_in_range": (lambda v: primes_in_range(v, 10), "lo", 10),
}


@pytest.mark.parametrize("far", [False, True], ids=["most+1", "far"])
@pytest.mark.parametrize("guarded", CEILINGS)
def test_every_ceiling_is_refused_in_one_wording(guarded, far):
    call, name, most = CEILINGS[guarded]
    value = 10 * most + 7 if far else most + 1
    with pytest.raises(ValueError, match=rf"^{name} must be <= {most}, got {value}$"):
        call(value)


# entries that are not ints: each is refused where it enters, never truncated
NOT_INTEGERS = {
    "Sequence1(float)": lambda: realizability.Sequence1((1.5, 3.7, 1.2)),
    "Sequence1(str)": lambda: realizability.Sequence1(("7",)),
    "Sequence1(Fraction)": lambda: realizability.Sequence1((Fraction(5, 2),)),
    "IntMatrix(float)": lambda: IntMatrix([[1.9]]),
    "ExperimentSpec.scale": lambda: run_experiment(
        ExperimentSpec("e", depth=6, scale=1.5, primes=(61,))),
}


@pytest.mark.parametrize("entered", NOT_INTEGERS)
def test_entries_that_are_not_integers_are_refused(entered):
    with pytest.raises(TypeError):
        NOT_INTEGERS[entered]()


def test_integer_entries_are_taken_exactly():
    big = 10**40 + 1
    values = realizability.Sequence1((True, False, big)).values
    assert values == (1, 0, big) and {type(v) for v in values} == {int}
    rows = IntMatrix([[True, big], [-3, 0]]).rows
    assert rows == ((1, big), (-3, 0)) and {type(x) for row in rows for x in row} == {int}


def test_the_bounds_themselves_are_accepted():
    # the guards refuse only past the bound: the greatest value still works
    assert field_generator(2, 8)[0][-1] == 1
    assert _z2(identity=0).order == 2
    assert len(realizability.shift(realizability.Sequence1((1, 3, 4)), 2)) == 1
    assert normalize_a_number(999999) == "A999999"
    assert primes_in_range(11, 11) == [11]
