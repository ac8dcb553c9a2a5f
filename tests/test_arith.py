from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqlab.algebraic import (
    ConstructionParams,
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
from seqlab.congruences import euler_additive_check
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
], ids=["smallest_irreducible", "field_generator", "ConstructionParams.create",
        "torsion_fix_counts", "euler_additive_check"])
@pytest.mark.parametrize("p", [4, 1])
def test_every_prime_parameter_refuses_a_non_prime_alike(refuse, p):
    with pytest.raises(ValueError, match=f"^prime expected, got {p}$"):
        refuse(p)
