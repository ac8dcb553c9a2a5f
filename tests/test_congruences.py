from collections import Counter
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import seqlab.classical as classical
import seqlab.congruences
from seqlab.arith import euler_phi, primes_in_range
from seqlab.congruences import (
    _residue,
    euler_additive_check,
    good_primitive_root,
    kummer_check,
    lemma_five_check,
    multiplicative_order,
    run_oracle_grids,
    staying_alive_check,
    wagstaff_A,
    wagstaff_identity_check,
    young_check,
)
from conftest import invoke
from oracles import run_oracle_grids_ref
from test_tables import fresh_tables

FAMILIES = ("kummer", "young", "five", "staying-alive", "wagstaff", "euler-additive")


def test_good_primitive_root_examples():
    assert good_primitive_root(5) == 2
    assert good_primitive_root(7) == 3
    assert good_primitive_root(3) == 2


def test_good_root_is_primitive_mod_prime_powers():
    for p in primes_in_range(3, 31):
        g = good_primitive_root(p)
        for r in range(1, 5):
            assert multiplicative_order(g, p**r) == euler_phi(p**r)


def test_kummer_examples():
    c = kummer_check(7, 1, 4, 1)
    assert c.holds and (c.lhs, c.rhs) == (3, 3)
    c = kummer_check(5, 1, 3, 1)
    assert c.holds and (c.lhs, c.rhs) == (3, 3)


def test_kummer_rejects_pole():
    # p-1 | 2n is exactly the von Staudt-Clausen pole and must be refused
    with pytest.raises(ValueError):
        kummer_check(5, 1, 3, 2)
    with pytest.raises(ValueError):
        kummer_check(5, 1, 2, 1)  # congruence 2m = 2n mod phi(p^r) violated


def test_kummer_rejects_exactly_pole_pairs():
    for p in primes_in_range(3, 13):
        for n in range(1, 20):
            pole = (2 * n) % (p - 1) == 0
            m = n + euler_phi(p) // 2
            if pole:
                with pytest.raises(ValueError):
                    kummer_check(p, 1, m, n)
            else:
                assert kummer_check(p, 1, m, n).holds


def test_young_examples():
    c = young_check(5, 10)
    assert c.holds and c.modulus == 5
    c = young_check(3, 3)
    assert c.holds
    with pytest.raises(ValueError):
        young_check(5, 4)


def test_lemma_five_examples():
    assert lemma_five_check(2).holds
    assert lemma_five_check(4).holds
    assert lemma_five_check(12).holds
    for n in (3, 0):
        with pytest.raises(ValueError, match=rf"^n must be even and >= 2, got {n}$"):
            lemma_five_check(n)


def test_staying_alive_examples():
    c = staying_alive_check(4)
    # frozen: (5^4-1)/16 = 39, (5^2-1)/8 = 3, congruent mod 4
    assert c.holds and (c.lhs, c.rhs) == (39 % 4, 3 % 4)
    c = staying_alive_check(2)
    assert c.holds and (c.lhs, c.rhs) == (1, 1)
    assert staying_alive_check(8).holds and staying_alive_check(8).modulus == 8
    for n in (5, 0):
        with pytest.raises(ValueError, match=rf"^n must be even and >= 2, got {n}$"):
            staying_alive_check(n)


def test_wagstaff_A_values():
    assert wagstaff_A(2, 2) == 3
    assert wagstaff_A(2, 1) == 1
    assert wagstaff_A(1, 3) == 2  # 3 - 2 + 1


def test_wagstaff_identity_examples():
    c = wagstaff_identity_check(1, 5)
    assert c.holds and c.lhs == 24 == c.rhs
    c = wagstaff_identity_check(2, 3)
    assert c.holds and c.lhs == 32 == c.rhs


def test_wagstaff_identity_grid():
    for n in range(1, 16):
        for p in primes_in_range(3, 13):
            assert wagstaff_identity_check(n, p).holds


def test_euler_additive_examples(etable200):
    assert euler_additive_check(3, 1, 1).holds
    assert euler_additive_check(2, 1, 1).holds
    assert euler_additive_check(5, 1, 1).holds
    assert etable200.E(6) % 3 == etable200.E(2) % 3
    with pytest.raises(ValueError):
        euler_additive_check(3, 1, 6)
    # both residues are those of the signed Euler numbers, p odd or 2
    for p, r in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2)):
        for b in range(1, 200 // p**r + 1):
            if b % p:
                hi, lo = p**r * b, p ** (r - 1) * b
                c = euler_additive_check(p, r, b)
                assert (c.lhs, c.rhs) == (etable200.E(2 * hi) % p**r, etable200.E(2 * lo) % p**r)


def test_full_grids_hold():
    results = run_oracle_grids(max_prime=31, max_r=3, upto=60)
    # a dropped check would still leave every remaining one holding
    assert {family: len(checks) for family, checks in results.items()} == {
        "kummer": 2051, "young": 29, "five": 30, "staying-alive": 30,
        "wagstaff": 75, "euler-additive": 87,
    }
    for family, checks in results.items():
        bad = [c for c in checks if not c.holds]
        assert not bad, (family, bad[:3])


def _rows(grids):
    """Each family's ordered (description, modulus, lhs, rhs, holds) tuples."""
    return [(family, [(c.description, c.modulus, c.lhs, c.rhs, c.holds) for c in checks])
            for family, checks in grids.items()]


@pytest.mark.parametrize("grid", [
    # the benchmark's grids
    dict(max_prime=31, max_r=3, upto=200),
    dict(max_prime=43, max_r=3, upto=100),
    dict(max_prime=41, max_r=3, upto=100),
    # the benchmark's `seqlab oracle` command lines
    dict(),
    dict(family="kummer"),
    dict(family="euler-additive", upto=80),
    dict(max_prime=43, upto=80),
    # each family alone
    *[dict(family=family) for family in FAMILIES],
], ids=repr)
def test_grids_match_reference(grid):
    assert _rows(run_oracle_grids(**grid)) == _rows(run_oracle_grids_ref(**grid))


def test_a_cold_grid_extends_the_bernoulli_table_once():
    # reading the columns an index at a time re-ran the Clausen pass per index
    with fresh_tables(), patch.object(classical, "primes_in_range",
                                      wraps=classical.primes_in_range) as clausen_pass:
        grid = run_oracle_grids(family="five", upto=200)
    assert clausen_pass.call_count == 1
    assert _rows(grid) == _rows(run_oracle_grids_ref(family="five", upto=200))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-2, 60),
    st.integers(-1, 5),
    st.integers(1, 80),
    st.sampled_from(FAMILIES + ("all",)),
)
def test_small_grids_match_reference(max_prime, max_r, upto, family):
    grid = dict(max_prime=max_prime, max_r=max_r, upto=upto, family=family)
    assert _rows(run_oracle_grids(**grid)) == _rows(run_oracle_grids_ref(**grid))


@pytest.mark.parametrize("family", FAMILIES + ("all",))
def test_grid_refuses_upto_below_one_for_every_family(family):
    # the grid's Bernoulli table refuses it, whichever families are wanted
    for upto in (0, -3):
        with pytest.raises(ValueError, match=rf"^depth must be >= 1, got {upto}$"):
            run_oracle_grids(upto=upto, family=family)


@pytest.mark.parametrize("large,cut", [
    (dict(max_r=2000), dict(max_r=5)),
    (dict(max_prime=200000, family="kummer", upto=10),
     dict(max_prime=19, family="kummer", upto=10)),
], ids=["max-r", "max-prime"])
def test_grid_stops_where_upto_stops_it(monkeypatch, large, cut):
    # Count the primality tests, totients and residues the grid takes.  Past
    # the cut-off every prime and r adds none of them, so the large grid must
    # take exactly what the cut-off grid takes; a call beyond that raises at
    # once instead of letting an unbounded loop run on.
    reference = _rows(run_oracle_grids_ref(**cut))
    counted_names = ("is_prime", "euler_phi", "_residue")
    calls, budget = Counter(), {}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            if name in budget and calls[name] > budget[name]:
                raise RuntimeError(f"{name} called more than {budget[name]} times")
            return f(*args)
        return wrapper

    for name in counted_names:
        monkeypatch.setattr(seqlab.congruences, name, counted(name, getattr(seqlab.congruences, name)))

    def argv(grid):
        return ["oracle", *(f"--{key.replace('_', '-')}={value}" for key, value in grid.items())]

    def fresh():
        # Kummer residues are cached per process; count every one the run needs
        calls.clear()
        seqlab.congruences._b_over_2n_mod.cache_clear()

    fresh()
    at_cut = invoke(argv(cut))
    budget.update({name: calls[name] for name in counted_names})
    fresh()
    at_large = invoke(argv(large))
    assert calls == Counter(budget)
    assert at_cut.exit_code == 0 and "all oracles hold" in at_cut.stdout
    assert (at_large.exit_code, at_large.stdout, at_large.stderr) == (
        at_cut.exit_code, at_cut.stdout, at_cut.stderr)

    fresh()
    assert _rows(run_oracle_grids(**large)) == reference
    assert calls == Counter(budget)


@given(
    st.integers(-10**30, 10**30),
    st.integers(1, 10**12),
    st.sampled_from([2**5, 3**4, 7, 11**3, 31]),
)
def test_residue_reads_ints_and_fractions_alike(numerator, denominator, modulus):
    assume(gcd(denominator, modulus) == 1)
    f = Fraction(numerator, denominator)
    r = _residue(f, modulus)
    assert 0 <= r < modulus and (r * f.denominator - f.numerator) % modulus == 0
    assert _residue(numerator, modulus) == _residue(Fraction(numerator), modulus) == numerator % modulus
