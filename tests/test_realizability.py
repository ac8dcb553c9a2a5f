import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.arith import divisors, primes_in_range
from seqlab.classical import lehmer_pierce, sequence_e
from seqlab.errors import ZeroEntryError
from seqlab.realizability import (
    Sequence1,
    arias_criterion,
    check_realizable,
    local_report,
    magical_report,
    orbit_counts,
    p_part_sequence,
    pointwise_product,
    shift,
)
from conftest import invoke
from oracles import mobius_sum

# the loaded profile's example count: 100, or 1000 under --hypothesis-profile=ci
EXAMPLES = settings.default.max_examples


def lucas_values(n):
    a, b = 2, 1
    out = []
    for _ in range(n):
        out.append(b)
        a, b = b, a + b
    return tuple(out)


def realizable_prefix(rng, length, max_orbits=5):
    """Random realizable prefix: a_n = sum_{d|n} d * c_d with c_d >= 0."""
    c = [rng.randrange(max_orbits + 1) for _ in range(length + 1)]
    return Sequence1(
        tuple(sum(d * c[d] for d in divisors(n)) for n in range(1, length + 1))
    )


# --- construction ------------------------------------------------------------


def test_sequence_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        Sequence1(())
    with pytest.raises(ValueError):
        Sequence1((1, -2))


@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=12), st.sampled_from([tuple, list, iter]))
def test_sequence_refusals_name_the_least_negative_index(values, container):
    negative = [(i, v) for i, v in enumerate(values, start=1) if v < 0]
    if not values:
        message = "Sequence1 needs at least one term"
    elif negative:
        message = "Sequence1 values must be >= 0; a_{} = {}".format(*negative[0])
    else:
        assert Sequence1(container(values)).values == tuple(values)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Sequence1(container(values))


def test_one_based_indexing():
    s = Sequence1((5, 7, 9))
    assert s[1] == 5 and s[3] == 9
    with pytest.raises(IndexError):
        s[0]
    with pytest.raises(IndexError):
        s[4]


# --- orbit counts ------------------------------------------------------------


def test_orbit_counts_numerator_sequence(derived300):
    o = orbit_counts(Sequence1(derived300.numerators.values[:9]))
    assert o.values == (1, 0, 0, 0, 0, 690, 0, 3616, 43866)


def test_orbit_counts_constant_one():
    assert orbit_counts(Sequence1((1, 1, 1, 1))).values == (1, 0, 0, 0)


def test_orbit_counts_euler_oracle():
    # frozen from the brute-force Mobius-sum oracle
    e = sequence_e(5)
    assert [mobius_sum(list(e.values), n) for n in (3, 4, 5)] == [60, 1380, 50520]
    o = orbit_counts(e)
    assert (o[3], o[4], o[5]) == (60, 1380, 50520)
    # per-orbit counts match the closed-orbit decomposition 20, 345, 10104
    assert (o[3] // 3, o[4] // 4, o[5] // 5) == (20, 345, 10104)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=256))
def test_inversion_round_trip(values):
    a = Sequence1(tuple(values))
    o = orbit_counts(a)
    for n in range(1, len(a) + 1):
        assert sum(o[d] for d in divisors(n)) == a[n]


# --- check_realizable --------------------------------------------------------


def test_euler_prefix_passes():
    rep = check_realizable(sequence_e(7))
    assert rep.dold.passed and rep.sign.passed
    assert rep.monotone.passed
    assert rep.checked_upto == 7


def test_shifted_lucas_fails_dold_at_2():
    rep = check_realizable(Sequence1((3, 4, 7, 11, 18, 29)))
    assert not rep.dold.passed
    assert (rep.dold.n, rep.dold.value) == (2, 1)


def test_periodic_sequence_passes():
    values = tuple([1, 1, 1, 1, 6] * 2)
    rep = check_realizable(Sequence1(values))
    assert rep.dold.passed and rep.sign.passed and rep.monotone.passed


def test_length_one_sequences_vacuously_pass():
    rep = check_realizable(Sequence1((0,)))
    assert rep.dold.passed and rep.sign.passed
    rep = check_realizable(Sequence1((7,)))
    assert rep.dold.passed and rep.sign.passed


def test_monotone_witness_structure():
    # a_2 = 5 > a_4 = 1 with 2 | 4
    rep = check_realizable(Sequence1((1, 5, 1, 1)))
    assert not rep.monotone.passed
    assert rep.monotone.n == 4
    assert rep.monotone.detail == {"divisor": 2, "divisor_value": 5}


def test_realizable_implies_divisor_monotone():
    rng = random.Random(7)
    for _ in range(100):
        a = realizable_prefix(rng, rng.randrange(1, 40))
        rep = check_realizable(a)
        assert rep.dold.passed and rep.sign.passed
        assert rep.monotone.passed


# --- Arias criterion ---------------------------------------------------------


def test_arias_examples(derived300):
    b50 = Sequence1(derived300.denominators.values[:50])
    assert arias_criterion(b50).passed
    v = arias_criterion(Sequence1((1, 2)))
    assert (v.n, v.detail["p"], v.detail["m"]) == (2, 2, 1)
    pow2 = Sequence1(tuple(2**n for n in range(1, 33)))
    assert arias_criterion(pow2).passed


def _assert_dold_equals_arias(a: Sequence1):
    dold = check_realizable(a).dold
    arias = arias_criterion(a)
    assert dold.passed == arias.passed
    if not dold.passed:
        assert dold.n == arias.n


def test_dold_arias_equivalence_on_suite(derived300, e200):
    N = 200
    for seq in (
        Sequence1(derived300.numerators.values[:N]),
        Sequence1(derived300.denominators.values[:N]),
        e200,
        lehmer_pierce([-1, -1, 0, 1], N),
        Sequence1(lucas_values(N)),
        Sequence1(lucas_values(N + 1)[1:]),
    ):
        _assert_dold_equals_arias(seq)


def test_dold_arias_equivalence_random():
    rng = random.Random(20260810)
    for _ in range(100):
        length = rng.randrange(1, 120)
        a = Sequence1(tuple(rng.randrange(0, 50) for _ in range(length)))
        _assert_dold_equals_arias(a)


# --- localization ------------------------------------------------------------


def test_p_part_sequence_euler_61(e200):
    e10 = Sequence1(e200.values[:10])
    assert p_part_sequence(e10, 61).values == (1, 1, 61, 1, 1, 1, 1, 1, 1, 1)


def test_p_part_all_coprime_gives_ones():
    s = Sequence1((2, 4, 8, 10))
    assert p_part_sequence(s, 3).values == (1, 1, 1, 1)


def test_p_part_lehmer_pierce_at_2():
    a = lehmer_pierce([-1, -1, 0, 1], 14)
    parts = p_part_sequence(a, 2)
    assert parts[7] == 8
    assert parts[14] == 64


def test_p_part_rejects_zero_entry():
    with pytest.raises(ZeroEntryError) as err:
        p_part_sequence(Sequence1((1, 0, 3)), 2)
    assert err.value.n == 2


def test_local_report_euler_61(e200):
    rep = local_report(Sequence1(e200.values[:20]), 61)
    # the Dold congruence carries the published witness: n = 9, value -60
    assert (rep.dold.n, rep.dold.value) == (9, -60)
    # the sign condition fails earlier (n = 6, same offending -60)
    assert (rep.sign.n, rep.sign.value) == (6, -60)
    assert not (rep.dold.passed and rep.sign.passed)


def test_local_report_numerator_37(derived300):
    t32 = Sequence1(derived300.numerators.values[:32])
    rep = local_report(t32, 37)
    assert (rep.sign.n, rep.sign.value) == (32, -36)
    assert (rep.monotone.detail["divisor"], rep.monotone.n) == (16, 32)


def test_local_report_denominators_small_primes(derived300):
    b100 = Sequence1(derived300.denominators.values[:100])
    for q in (2, 3, 5, 7):
        rep = local_report(b100, q)
        assert rep.dold.passed and rep.sign.passed


# --- shift / magical ---------------------------------------------------------


def test_shift_examples(e200):
    assert shift(e200, 1).values[:4] == (5, 61, 1385, 50521)
    s = Sequence1((1, 2, 3))
    assert shift(s, 0).values == s.values
    lucas = Sequence1(lucas_values(6))
    assert shift(lucas, 1).values[:3] == (3, 4, 7)
    with pytest.raises(ValueError):
        shift(s, 3)


def test_magical_power_of_two():
    a = Sequence1(tuple(2**n for n in range(1, 65)))
    assert magical_report(a, 10).all_pass


def test_magical_mersenne():
    a = Sequence1(tuple(2**n - 1 for n in range(1, 65)))
    assert magical_report(a, 10).all_pass


def test_magical_lucas_fails_at_shift_1():
    a = Sequence1(lucas_values(30))
    rep = magical_report(a, 1)
    assert not rep.all_pass
    k, name, v = rep.first_failure()
    assert (k, name, v.n) == (1, "dold", 2)


def _cli_json(*argv):
    res = invoke([*argv, "--format", "json"])
    assert res.exit_code == 0, res.output
    return json.loads(res.stdout)


def test_local_first_failure_is_the_least_witness(e200):
    # the sign witness at n=6 comes before the Dold witness at n=9
    name, v = local_report(Sequence1(e200.values[:20]), 61).first_failure()
    assert (name, v.n, v.value) == ("sign", 6, -60)
    row = _cli_json("localscan", "e", "--upto", "20", "--prime", "61")["local"][0]
    assert row["witness"] == {"check": name, "n": v.n, "value": v.value}


def test_magical_first_failure_is_the_least_witness(derived300):
    b = Sequence1(derived300.denominators.values[:60])
    k, name, v = magical_report(b, 1).first_failure()
    assert (k, name, v.n, v.value) == (1, "sign", 4, -120)
    entry = _cli_json("magical", "b", "--upto", "60", "--max-shift", "1")["magical"]["entries"][k]
    assert entry["witness"] == {"check": name, "n": v.n, "value": v.value}


@settings(max_examples=3 * EXAMPLES)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=30))
def test_first_failure_has_the_least_index(values):
    rep = check_realizable(Sequence1(tuple(values)))
    names = ("dold", "sign", "monotone")
    failing = [(getattr(rep, name).n, rank, name)
               for rank, name in enumerate(names) if not getattr(rep, name).passed]
    if not failing:
        assert rep.first_failure() is None
        return
    _, _, name = min(failing)
    assert rep.first_failure() == (name, getattr(rep, name))


def test_magical_negative_shift_is_refused():
    # no shift would be tested, so "all pass" would be a claim with no evidence
    with pytest.raises(ValueError, match="max_shift must be >= 0"):
        magical_report(Sequence1(lucas_values(30)), -1)


# --- products ----------------------------------------------------------------


def test_pointwise_product_basic():
    a = Sequence1((1, 2, 4))
    assert pointwise_product(a, Sequence1((1, 1, 1))).values == (1, 2, 4)
    with pytest.raises(ValueError):
        pointwise_product(a, Sequence1((1, 2)))


def test_reconstruction_from_p_parts(derived300):
    from seqlab.arith import factorize

    b = Sequence1(derived300.denominators.values[:40])
    # every prime dividing some term; localizations at all other primes are 1
    relevant = sorted({p for v in b.values for p, _ in factorize(v)})
    out = Sequence1((1,) * 40)
    for q in relevant:
        out = pointwise_product(out, p_part_sequence(b, q))
    assert out.values == b.values


def test_product_closure_of_sign_condition():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 40)
        a = realizable_prefix(rng, n)
        b = realizable_prefix(rng, n)
        rep = check_realizable(pointwise_product(a, b))
        assert rep.sign.passed


@given(
    st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=64),
    st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=64),
    st.sampled_from(primes_in_range(2, 30)),
)
def test_localization_is_multiplicative(xs, ys, q):
    n = min(len(xs), len(ys))
    a, b = Sequence1(tuple(xs[:n])), Sequence1(tuple(ys[:n]))
    lhs = p_part_sequence(pointwise_product(a, b), q)
    rhs = pointwise_product(p_part_sequence(a, q), p_part_sequence(b, q))
    assert lhs.values == rhs.values


@settings(max_examples=EXAMPLES // 2)
@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=48))
def test_global_from_local(values):
    a = Sequence1(tuple(values))
    # primes dividing any term
    relevant = set()
    for v in a.values:
        m = v
        p = 2
        while p * p <= m:
            if m % p == 0:
                relevant.add(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            relevant.add(m)
    local = (local_report(a, q) for q in sorted(relevant))
    if all(rep.dold.passed and rep.sign.passed for rep in local):
        rep = check_realizable(a)
        assert rep.dold.passed and rep.sign.passed
