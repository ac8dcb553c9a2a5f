import pytest

import seqlab.classical
import seqlab.primes
import seqlab.realizability
from seqlab.arith import p_adic, primes_in_range
from seqlab.classical import derived_bernoulli, sequence_e
from seqlab.errors import DepthError, SeqLabError
from seqlab.primes import (
    BERNOULLI,
    EULER,
    IRREGULAR,
    NOT_APPLICABLE,
    REGULAR,
    STRONG_UP_TO,
    WEAK,
    classify_bernoulli,
    classify_euler,
    numerator_local_status,
    scan_primes,
    weak_euler_profile_check,
)
from seqlab.realizability import Sequence1, Verdict, local_report

from oracles import (
    classify_bernoulli_ref,
    classify_euler_ref,
    numerator_local_status_ref,
    scan_primes_ref,
)


def test_classify_bernoulli_examples(derived300):
    t = derived300.numerators
    assert classify_bernoulli(7, t).status == REGULAR
    status = classify_bernoulli(37, t)
    assert (status.status, status.witness) == (IRREGULAR, 16)
    assert t[16] % 37 == 0
    assert classify_bernoulli(5, t).status == REGULAR


def test_classify_bernoulli_depth_guard():
    shallow = derived_bernoulli(3).numerators
    with pytest.raises(DepthError, match="^need numerators up to 17, table has 3$"):
        classify_bernoulli(37, shallow)


def test_classify_euler_examples(e200):
    status, strength = classify_euler(19, e200)
    assert (status.status, status.witness) == (IRREGULAR, 5)
    assert e200[5] % 19 == 0
    assert strength.kind == NOT_APPLICABLE

    status, strength = classify_euler(3, e200)
    assert status.status == REGULAR
    assert (strength.kind, strength.bound) == (STRONG_UP_TO, 200)

    status, strength = classify_euler(5, e200)
    assert status.status == REGULAR
    assert (strength.kind, strength.witness) == (WEAK, 2)
    assert e200[2] == 5


def test_classify_euler_depth_guard(e200):
    with pytest.raises(DepthError, match=r"^depth 30 < \(q-1\)/2 = 50$"):
        classify_euler(101, Sequence1(e200.values[:30], "e"))


def test_scan_bernoulli_small(derived300):
    out = scan_primes(BERNOULLI, 30, 15)
    assert [c.q for c in out] == primes_in_range(2, 30)
    assert all(c.bernoulli_status.status == REGULAR for c in out)


def test_scan_bernoulli_irregular_to_110(derived300):
    out = scan_primes(BERNOULLI, 110, 60)
    irregular = [c.q for c in out if c.bernoulli_status.status == IRREGULAR]
    assert irregular == [37, 59, 67, 101, 103]


def test_scan_euler_irregular_to_50(e200):
    out = scan_primes(EULER, 50, 50)
    irregular = [c.q for c in out if c.euler_status.status == IRREGULAR]
    assert irregular == [19, 31, 43, 47]


def test_scan_includes_two_as_regular(derived300, e200):
    b = scan_primes(BERNOULLI, 10, 20)
    assert b[0].q == 2 and b[0].bernoulli_status.status == REGULAR
    e = scan_primes(EULER, 10, 20)
    assert e[0].q == 2 and e[0].euler_strength.kind == STRONG_UP_TO


def test_weak_profile_examples(e200):
    e50 = Sequence1(e200.values[:50], "e")
    assert weak_euler_profile_check(5, e50).passed
    assert weak_euler_profile_check(13, e50).passed
    # spot values behind the q = 5 profile
    assert p_adic(e200[2], 5).part == 5
    assert p_adic(e200[4], 5).part == 5
    assert p_adic(e200[10], 5).part == 25


def test_weak_profile_vacuous_for_strong_prime(e200):
    # 3 and 7 divide no e_n here, but the profile expects q at n = (q-1)/2: a
    # prefix reaching that index fails there, and a shorter one passes
    e50 = Sequence1(e200.values[:50], "e")
    assert all(p_adic(v, q).part == 1 for v in e50.values for q in (3, 7))
    assert weak_euler_profile_check(3, e50) == Verdict.fail_at(1, 1, 50, expected=3)
    assert weak_euler_profile_check(7, e50) == Verdict.fail_at(3, 1, 50, expected=7)
    assert weak_euler_profile_check(7, Sequence1(e50.values[:2])) == Verdict.pass_up_to(2)


def test_numerator_local_status_regular(derived300):
    assert numerator_local_status(7, 100) == Verdict.pass_up_to(100)
    assert all(derived300.numerators[n] % 7 != 0 for n in range(1, 101))


def test_numerator_local_status_37():
    # the 37-part drops from t_16 to t_32
    assert numerator_local_status(37, 32) == \
        Verdict.fail_at(32, 1, 32, divisor=16, divisor_value=37)


def test_numerator_local_status_59(derived300):
    assert numerator_local_status(59, 150) == \
        Verdict.fail_at(44, 1, 150, divisor=22, divisor_value=59)
    assert derived300.numerators[22] % 59 == 0


@pytest.mark.parametrize("N", [20, 60, 200, 1000])
def test_numerator_local_status_is_the_monotone_verdict_of_the_q_part(N):
    # the verdict check_realizable gives t's q-part, and DepthError exactly
    # where that verdict passes at an irregular prime
    t = Sequence1(derived_bernoulli(N).numerators.values[:N], "t")
    for q in primes_in_range(3, 1000):
        monotone = local_report(t, q).monotone
        try:
            assert numerator_local_status(q, N) == monotone, q
        except DepthError:
            assert monotone.passed, q


@pytest.mark.parametrize("q,N", [(37, 32), (59, 150), (691, 400)])
def test_numerator_local_status_runs_no_inversion(monkeypatch, q, N):
    # the verdict is the monotone check of the q-part alone, so no Dold/sign
    # inversion of it is run and discarded
    calls = []
    orbit_values = seqlab.realizability._orbit_values
    monkeypatch.setattr(seqlab.realizability, "_orbit_values",
                        lambda support, N: calls.append(N) or orbit_values(support, N))
    assert not numerator_local_status(q, N).passed
    assert calls == []


@pytest.mark.parametrize("N", [0, -3])
def test_numerator_local_status_refuses_no_terms(N):
    with pytest.raises(ValueError, match=rf"^depth must be >= 1, got {N}$"):
        numerator_local_status(7, N)


def test_numerator_local_status_insufficient_depth():
    with pytest.raises(DepthError):
        numerator_local_status(37, 20)  # no multiple of 16 beyond 16


def test_theorem_b_consistency(derived300):
    # irregular at q  <=>  the numerator sequence fails locally at q
    t60 = Sequence1(derived300.numerators.values[:60], "t")
    for q in primes_in_range(3, 50):
        classification = classify_bernoulli(q, derived300.numerators)
        rep = local_report(t60, q)
        if classification.status == IRREGULAR:
            assert not (rep.dold.passed and rep.sign.passed), q
        else:
            assert rep.dold.passed and rep.sign.passed, q


def test_regular_primes_localize_trivially(derived300):
    for q in primes_in_range(2, 50):
        if q in (37,):
            continue
        for n in range(1, 151):
            assert derived300.numerators[n] % q != 0, (q, n)


def test_strong_euler_iff_trivial_p_part(e200):
    for q in primes_in_range(3, 50):
        status, strength = classify_euler(q, e200)
        trivial = all(p_adic(v, q).part == 1 for v in e200.values)
        assert trivial == (
            status.status == REGULAR and strength.kind == STRONG_UP_TO
        ), q


def test_classification_monotone_in_depth(e200):
    e60 = Sequence1(e200.values[:60], "e")
    for q in primes_in_range(3, 40):
        s1, k1 = classify_euler(q, e60)
        s2, k2 = classify_euler(q, e200)
        if s1.status == IRREGULAR:
            assert s2.status == IRREGULAR and s2.witness == s1.witness
        if k1.kind == WEAK:
            assert k2.kind == WEAK and k2.witness == k1.witness
        if k1.kind == STRONG_UP_TO and k2.kind == WEAK:
            assert k2.witness > 60


def test_one_prime_classifiers_agree_with_the_scan(derived300, e200):
    # one rule for both kinds: a classifier given the scan's prefix gives the
    # scan's verdict, Euler strength included
    bernoulli = {c.q: c.bernoulli_status for c in scan_primes(BERNOULLI, 121, 300)}
    euler = {c.q: (c.euler_status, c.euler_strength) for c in scan_primes(EULER, 121, 60)}
    e60 = Sequence1(e200.values[:60], "e")
    for q in primes_in_range(3, 121):
        assert classify_bernoulli(q, derived300.numerators) == bernoulli[q], q
        assert classify_euler(q, e60) == euler[q], q


# --- differential tests against the per-prime reference loops ----------------


def outcome(func, *args):
    """A call's result, or the type and message of the refusal it raised."""
    try:
        return func(*args)
    except (ValueError, RuntimeError, SeqLabError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", [BERNOULLI, EULER])
@pytest.mark.parametrize("depth", [599, 600, 601])
def test_scan_matches_reference_at_benchmark_depths(kind, depth):
    # every prime <= 1202, as the benchmark's scan_primes tasks classify them
    assert scan_primes(kind, 2 * depth, depth) == scan_primes_ref(kind, 2 * depth, depth)


@pytest.mark.parametrize("depth", [599, 601])
def test_one_prime_matches_reference_at_benchmark_depths(depth):
    t, e = derived_bernoulli(depth).numerators, sequence_e(depth)
    for q in primes_in_range(3, 2 * depth):
        assert outcome(classify_bernoulli, q, t) == outcome(classify_bernoulli_ref, q, t), q
        assert outcome(classify_euler, q, e) == outcome(classify_euler_ref, q, e), q


@pytest.mark.parametrize("kind", [BERNOULLI, EULER])
def test_scan_matches_reference_for_every_last_prime(kind):
    # each q_max makes a different prime the last (largest) one of the scan
    for q_max in range(2, 131):
        assert scan_primes(kind, q_max, 70) == scan_primes_ref(kind, q_max, 70), q_max


@pytest.mark.parametrize("kind", [BERNOULLI, EULER])
def test_shallow_scan_refuses_as_the_reference_does(kind):
    # too shallow for some prime: the same error, for the same least prime
    for depth in range(1, 70):
        for q_max in (2, 3, 5, 37, 103, 140):
            assert outcome(scan_primes, kind, q_max, depth) == \
                outcome(scan_primes_ref, kind, q_max, depth), (depth, q_max)


def test_one_prime_on_shallow_tables_matches_reference(e200):
    for depth in (1, 3, 8, 20):
        t = derived_bernoulli(depth).numerators
        e = Sequence1(e200.values[:depth], "e")
        for q in [-7, 0, 1, 2, 4, 9, 91] + primes_in_range(3, 60):
            assert outcome(classify_bernoulli, q, t) == outcome(classify_bernoulli_ref, q, t), \
                (depth, q)
            assert outcome(classify_euler, q, e) == outcome(classify_euler_ref, q, e), (depth, q)


# The true tables never put a prime's least dividing index at its bound:
# (q, q-3) is an irregular pair only for Wolstenholme primes (the least is
# 16843), and q never divides t_{(q-1)/2} (von Staudt-Clausen).  Tables built
# for the purpose put it there, one below and one above, for every odd prime.


def placed(bound, primes, offset, length):
    """Odd terms with each q dividing first (and only) at index bound(q) + offset."""
    terms = [1] * length
    for q in primes:
        n = bound(q) + offset
        if 1 <= n <= length:
            terms[n - 1] *= q
    return tuple(terms)


def plant(monkeypatch, primes, offset, length):
    """Make the one reader of the builtins, and so every public reader, return
    t and e with each q dividing first at index bound(q) + offset, where the
    bound is (q-3)/2 for t and (q-1)/2 for e; b and d are all ones."""
    tables = {"t": placed(lambda q: (q - 3) // 2, primes, offset, length),
              "e": placed(lambda q: (q - 1) // 2, primes, offset, length)}
    for module in (seqlab.classical, seqlab.primes):
        monkeypatch.setattr(module, "_builtin", lambda name, N: tables.get(name, (1,) * length))
    return Sequence1(tables["t"], "t"), Sequence1(tables["e"], "e")


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_scan_of_placed_divisors_matches_reference(monkeypatch, offset):
    for q_max in range(2, 90):
        odd = primes_in_range(2, q_max)[1:]
        depth = (q_max - 1) // 2 + 2
        plant(monkeypatch, odd, offset, depth)
        for kind in (BERNOULLI, EULER):
            assert scan_primes(kind, q_max, depth) == scan_primes_ref(kind, q_max, depth), \
                (kind, q_max)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_one_prime_on_placed_divisors_matches_reference(monkeypatch, offset):
    odd = primes_in_range(3, 90)
    t, e = plant(monkeypatch, odd, offset, 48)
    for q in odd:
        assert outcome(classify_bernoulli, q, t) == outcome(classify_bernoulli_ref, q, t), q
        assert outcome(classify_euler, q, e) == outcome(classify_euler_ref, q, e), q
        for N in range(0, 48):
            assert outcome(numerator_local_status, q, N) == \
                outcome(numerator_local_status_ref, q, N), (q, N)


def test_numerator_local_status_matches_reference():
    for q in [-3, 1, 2, 4, 91] + primes_in_range(3, 130):
        for N in (0, 1, 10, 16, 20, 22, 31, 32, 44, 60, 150, 300, 301):
            assert outcome(numerator_local_status, q, N) == \
                outcome(numerator_local_status_ref, q, N), (q, N)


@pytest.mark.parametrize("q,N", [(4000, 1), (4001 * 3, 1), (91, 300), (1, 5), (2, 5)])
def test_numerator_local_status_checks_the_prime_before_building(monkeypatch, q, N):
    # a non-prime q is refused without a Bernoulli table of depth (q-3)/2
    def unbuilt(name, N):
        raise AssertionError("_builtin called")

    monkeypatch.setattr(seqlab.primes, "_builtin", unbuilt)
    with pytest.raises(ValueError, match=rf"^odd prime expected, got {q}$"):
        numerator_local_status(q, N)


def test_numerator_local_status_below_the_witness():
    # N = 10 < 16, the witness of 37: no multiple to compare, so DepthError
    with pytest.raises(DepthError, match="no monotonicity witness"):
        numerator_local_status(37, 10)
    assert outcome(numerator_local_status, 37, 10) == outcome(numerator_local_status_ref, 37, 10)


def test_scan_default_depth_follows_the_largest_prime():
    assert scan_primes(BERNOULLI, 100)[0].depth == 300
    assert scan_primes(EULER, 100)[0].depth == 200
    assert scan_primes(BERNOULLI, 700)[-1].depth == (691 - 3) // 2
    assert scan_primes(EULER, 500)[-1].depth == (499 - 1) // 2


@pytest.mark.parametrize("kind", [BERNOULLI, EULER])
@pytest.mark.parametrize("q_max", [1, 0, -5])
def test_scan_refuses_a_bound_below_two(kind, q_max):
    # no prime lies below 2; the refusal names the bound, with or without a depth
    for depth in (None, 20):
        with pytest.raises(ValueError, match=rf"^q_max must be >= 2, got {q_max}$"):
            scan_primes(kind, q_max, depth)
