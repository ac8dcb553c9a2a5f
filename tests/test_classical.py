from fractions import Fraction

import pytest

from seqlab.arith import primes_in_range
from seqlab.classical import (
    b_product_formula,
    bernoulli_upto,
    clausen_denominator,
    derived_bernoulli,
    euler_upto,
    lehmer_pierce,
    secant_numbers,
    sequence_e,
    tangent_numbers,
)
from seqlab.errors import DegeneratePolynomialError
from oracles import bernoulli_recurrence, det_ref, euler_series


def test_tangent_numbers_prefix():
    assert tangent_numbers(5) == [1, 2, 16, 272, 7936]


def test_zigzag_prefix():
    # zigzag numbers: a_0 = 1, a_{2n} = S_n (secant), a_{2n-1} = T_n (tangent)
    secant, tangent = secant_numbers(4), tangent_numbers(4)
    zigzag = [1] + [x for pair in zip(tangent, secant) for x in pair]
    assert zigzag == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    assert secant_numbers(0) == []
    with pytest.raises(ValueError):
        secant_numbers(-1)


def test_bernoulli_base_cases():
    tbl = bernoulli_upto(9)
    assert tbl.B(2) == Fraction(1, 6)
    assert tbl.B(12) == Fraction(-691, 2730)
    assert tbl.B(18).numerator == 43867


def test_bernoulli_agrees_with_recurrence_oracle():
    oracle = bernoulli_recurrence(120)
    tbl = bernoulli_upto(60)
    for n in range(1, 61):
        assert tbl.B(2 * n) == oracle[2 * n]


def test_bernoulli_sign_alternates(btable300):
    for n in range(1, 301):
        assert (btable300.B(2 * n) > 0) == (n % 2 == 1)


def test_von_staudt_clausen_denominators(btable300):
    for n in range(1, 301):
        assert btable300.B(2 * n).denominator == clausen_denominator(n)


def test_derived_clausen_sequence_is_the_theorem(derived300):
    # derived_bernoulli reads d_n off the table; the theorem computes it
    assert derived300.clausen_denominators.values == tuple(
        clausen_denominator(n) for n in range(1, 301)
    )


def test_euler_values():
    tbl = euler_upto(5)
    assert tbl.E(4) == 5
    assert tbl.E(6) == -61
    # frozen from the sech power-series oracle
    assert euler_series(10)[10] == -50521
    assert tbl.E(10) == -50521


def test_euler_agrees_with_series_oracle():
    oracle = euler_series(60)
    tbl = euler_upto(30)
    for n in range(1, 31):
        assert tbl.E(2 * n) == oracle[2 * n]


def test_euler_odd_and_alternating(etable200):
    for n in range(1, 201):
        v = etable200.E(2 * n)
        assert v % 2 == 1
        assert (v > 0) == (n % 2 == 0)


def test_sequence_e_prefix():
    assert sequence_e(4).values == (1, 5, 61, 1385)
    assert sequence_e(1).values == (1,)
    assert sequence_e(5)[5] == 50521


def test_derived_bernoulli_values():
    der = derived_bernoulli(9)
    assert der.denominators.values[:4] == (12, 120, 252, 240)
    assert der.numerators[6] == 691
    # d_3: primes with p-1 | 6 are [2, 3, 7]
    assert der.clausen_denominators[3] == 42
    assert bernoulli_upto(3).B(6) == Fraction(1, 42)


def test_derived_bernoulli_parity_and_coprimality(derived300):
    from math import gcd

    for n in range(1, 301):
        t, b = derived300.numerators[n], derived300.denominators[n]
        assert t % 2 == 1
        assert b % 2 == 0
        assert gcd(t, b) == 1


def test_numerator_denominator_reassemble(btable300, derived300):
    for n in range(1, 301):
        assert Fraction(derived300.numerators[n], derived300.denominators[n]) == abs(
            btable300.B(2 * n) / (2 * n)
        )


def test_b_product_formula_examples():
    assert b_product_formula(1) == 12
    # frozen by direct expansion: 2 * 2^2 * 3 * 5 and 2 * 2 * 3^2 * 7
    assert b_product_formula(2) == 2 * 4 * 3 * 5 == 120
    assert b_product_formula(3) == 2 * 2 * 9 * 7 == 252


def test_b_product_formula_matches_table(derived300):
    for n in range(1, 301):
        assert b_product_formula(n) == derived300.denominators[n]


def test_adams_divisibility(derived300):
    # p odd, p-1 not dividing 2n  =>  p does not divide the denominator
    for p in primes_in_range(3, 50):
        for n in range(1, 151):
            if (2 * n) % (p - 1) != 0:
                assert derived300.denominators[n] % p != 0


def test_lehmer_pierce_cubic_prefix():
    seq = lehmer_pierce([-1, -1, 0, 1], 17)
    assert seq.values == (1, 1, 1, 5, 1, 7, 8, 5, 19, 11, 23, 35, 27, 64, 61, 85, 137)


def test_lehmer_pierce_linear():
    assert lehmer_pierce([-2, 1], 3).values == (1, 3, 7)


def test_lehmer_pierce_fibonacci_polynomial():
    # frozen from the 2x2 companion determinant oracle
    m1 = [[0, 1], [1, 1]]

    def matpow(m, k):
        out = [[1, 0], [0, 1]]
        for _ in range(k):
            out = [
                [
                    out[0][0] * m[0][0] + out[0][1] * m[1][0],
                    out[0][0] * m[0][1] + out[0][1] * m[1][1],
                ],
                [
                    out[1][0] * m[0][0] + out[1][1] * m[1][0],
                    out[1][0] * m[0][1] + out[1][1] * m[1][1],
                ],
            ]
        return out

    expected = []
    for n in range(1, 5):
        p = matpow(m1, n)
        expected.append(abs(det_ref([[p[0][0] - 1, p[0][1]], [p[1][0], p[1][1] - 1]])))
    assert expected == [1, 1, 4, 5]
    assert lehmer_pierce([-1, -1, 1], 4).values == (1, 1, 4, 5)


def test_lehmer_pierce_rejects_cyclotomic_factor():
    # x - 1 has the root of unity 1: det vanishes immediately
    with pytest.raises(DegeneratePolynomialError) as err:
        lehmer_pierce([-1, 1], 5)
    assert err.value.n == 1


def test_lehmer_pierce_order6_recurrence():
    seq = lehmer_pierce([-1, -1, 0, 1], 200)
    a = seq.values
    for k in range(194):
        assert a[k + 6] == -a[k + 5] + a[k + 4] + 3 * a[k + 3] + a[k + 2] - a[k + 1] - a[k]
