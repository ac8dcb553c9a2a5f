"""Differential tests: the shared push-form inversion and the batched
localization against the references.

The reference (``oracles``) rebuilds divisors and Mobius values for every
index; the package inverts once over a Mobius table, pushing only from the
terms other than 1 (the support), and finds its monotone witness in one pass
over multiples.  The p-part reference strips each prime from each term; the
package reduces each term once modulo the product of the primes, clears each
block of terms prime to it with one gcd, finds each valuation by a squaring
ladder, and returns only the support of each q-part.  Verdicts, witnesses,
q-parts, errors and whole reports must agree.
"""

import os
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import seqlab.experiment as experiment
import seqlab.primes as primes_module
import seqlab.realizability as realizability
from seqlab.experiment import OBSERVATION_CATALOG, ExperimentSpec, catalog_spec, run_experiment
from seqlab.primes import weak_euler_profile_check
from seqlab.realizability import (
    Sequence1,
    arias_criterion,
    check_realizable,
    dold_sign,
    localize,
    magical_report,
    orbit_counts,
    p_part_sequence,
)
import oracles

# the loaded profile's example count: 100, or 1000 under --hypothesis-profile=ci
EXAMPLES = settings.default.max_examples

dense = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)


@st.composite
def p_part_like(draw):
    # mostly 1s with a few powers of q, the shape a local scan inverts
    q = draw(st.sampled_from([2, 3, 5, 7]))
    exps = st.sampled_from([0] * 8 + [1, 1, 2, 3])
    return [q**e for e in draw(st.lists(exps, min_size=1, max_size=72))]


@st.composite
def late_monotone_failures(draw):
    # strictly increasing but for one late composite n, whose term drops below
    # a_c for its divisors c <= d < n: several bad divisors, the least is c;
    # sometimes a second failure at a larger index that must not win
    N = draw(st.integers(min_value=12, max_value=80))
    steps = draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=N, max_size=N))
    values = [sum(steps[: i + 1]) for i in range(N)]
    late = [m for m in range(N // 2, N + 1) if sum(m % d == 0 for d in range(2, m)) >= 2]
    for n in sorted(draw(st.lists(st.sampled_from(late), min_size=1, max_size=2, unique=True))):
        c = draw(st.sampled_from([d for d in range(2, n) if n % d == 0]))
        values[n - 1] = values[c - 1] - 1
    return values


prefixes = st.one_of(dense, p_part_like(), late_monotone_failures())


@settings(max_examples=2 * EXAMPLES)
@given(prefixes)
def test_orbit_counts_match_reference(values):
    got = orbit_counts(Sequence1(values)).values
    assert got == oracles.orbit_counts_ref(values)
    assert got == tuple(oracles.mobius_sum(values, n) for n in range(1, len(values) + 1))


@settings(max_examples=2 * EXAMPLES)
@given(prefixes)
def test_checks_match_reference(values):
    ref = oracles.check_realizable_ref(values)
    assert check_realizable(Sequence1(values)) == ref
    assert dold_sign(tuple(values)) == (ref.dold, ref.sign)
    assert arias_criterion(Sequence1(values)) == oracles.arias_criterion_ref(values)


@st.composite
def shifted_prefixes(draw):
    values = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40))
    return values, draw(st.integers(min_value=0, max_value=len(values) - 1))


@settings(max_examples=2 * EXAMPLES)
@given(shifted_prefixes())
def test_magical_report_matches_reference(case):
    values, max_shift = case
    entries, all_pass, first_failure = oracles.magical_report_ref(values, max_shift)
    rep = magical_report(Sequence1(values), max_shift)
    assert rep.entries == entries
    assert rep.all_pass == all_pass
    assert rep.first_failure() == first_failure


@given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=30),
    st.sampled_from([2, 3, 5, 7, 11, 61]),
)
def test_p_part_sequence_matches_gcd(values, q):
    expected = tuple(gcd(v, q ** v.bit_length()) for v in values)
    assert p_part_sequence(Sequence1(values), q).values == expected


@settings(max_examples=2 * EXAMPLES)
@given(late_monotone_failures())
def test_late_monotone_witness_matches_reference(values):
    monotone = check_realizable(Sequence1(values)).monotone
    assert not monotone.passed
    assert monotone == oracles.check_realizable_ref(values).monotone


SMALL_PRIMES = oracles.primes_by_trial(2, 250)


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared field by field
        return type(exc), str(exc)


def localize_ref(values, primes):
    """The per-prime loop: every prime in ascending order, all-ones parts dropped."""
    out = {}
    for q in sorted(primes):
        parts = oracles.p_part_sequence_ref(values, q)
        if any(part != 1 for part in parts):
            out[q] = parts
    return out


def expand(support, N):
    """The N terms whose (n, a_n) other than 1 are ``support``."""
    a = [1] * N
    for n, v in support:
        a[n - 1] = v
    return tuple(a)


def localize_dense(values, primes):
    """``localize`` with each support expanded with ones to the prefix length."""
    return {q: expand(support, len(values)) for q, support in localize(tuple(values), primes).items()}


BLOCK = realizability._BLOCK


@st.composite
def localization_inputs(draw):
    # a window of consecutive primes, terms divisible by high powers of several
    # window primes, of the primes at its edges and of the primes just outside,
    # and one term by powers up to a few hundred; the terms come in runs, some
    # prime to the window, so that blocks localize skips meet blocks it
    # strips, and a prefix may run past four blocks
    i = draw(st.integers(min_value=0, max_value=len(SMALL_PRIMES) - 1))
    j = draw(st.integers(min_value=i + 1, max_value=min(len(SMALL_PRIMES), i + 12)))
    window = SMALL_PRIMES[i:j]
    near = window + [window[0], window[-1]] + SMALL_PRIMES[max(i - 1, 0) : i] + SMALL_PRIMES[j : j + 1]
    powers = st.sampled_from([q**e for q in near for e in range(1, 61)])
    values = []
    for coprime, length in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 2 * BLOCK)),
                                         min_size=1, max_size=5)):
        for v in draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=length, max_size=length)):
            if coprime:
                v //= gcd(v, prod(window) ** 20)
            else:
                v *= prod(draw(st.lists(powers, max_size=4)))
            values.append(v)
    deep = draw(st.integers(min_value=0, max_value=len(values) - 1))
    for q in draw(st.lists(st.sampled_from(near), max_size=2)):
        values[deep] *= q ** draw(st.sampled_from([127, 128, 255, 256]) | st.integers(1, 300))
    primes = window + draw(st.lists(st.sampled_from(window), max_size=3))  # duplicates
    return values, draw(st.permutations(primes))


@settings(max_examples=3 * EXAMPLES)
@given(localization_inputs())
def test_localize_matches_reference(args):
    values, primes = args
    assert localize_dense(values, primes) == localize_ref(values, primes)


@settings(max_examples=3 * EXAMPLES)
@given(localization_inputs())
def test_localize_supports_ascend_and_start_at_the_least_dividing_index(args):
    values, primes = args
    parts = localize(tuple(values), primes)
    for support in parts.values():
        assert support
        ns = [n for n, _ in support]
        assert ns == sorted(set(ns)) and 1 <= ns[0] and ns[-1] <= len(values)
        assert all(part > 1 for _, part in support)
    for q in set(primes):
        ref = oracles.p_part_sequence_ref(values, q)
        least = next((n for n, part in enumerate(ref, start=1) if part > 1), None)
        assert primes_module._least_index(parts.get(q, [])) == least


@settings(max_examples=2 * EXAMPLES)
@given(localization_inputs())
def test_support_inversion_matches_reference_on_localized_parts(args):
    values, primes = args
    N = len(values)
    parts = localize(tuple(values), primes)
    for q in set(primes):
        ref = oracles.check_realizable_ref(oracles.p_part_sequence_ref(values, q))
        assert realizability._dold_sign(parts.get(q, []), N) == (ref.dold, ref.sign)


@settings(max_examples=2 * EXAMPLES)
@given(p_part_like(), st.integers(min_value=0, max_value=8))
def test_support_inversion_matches_reference_on_q_part_shapes(values, ones):
    # trailing ones: the prefix runs past the last term of its support
    values = values + [1] * ones
    support = [(n, v) for n, v in enumerate(values, start=1) if v > 1]
    ref = oracles.check_realizable_ref(values)
    assert realizability._dold_sign(support, len(values)) == (ref.dold, ref.sign)
    assert realizability._orbit_values(support, len(values))[1:] == list(oracles.orbit_counts_ref(values))


@settings(max_examples=3 * EXAMPLES)
@given(
    localization_inputs(),
    st.lists(st.sampled_from([0, 1, 4, 9, 1000, -1, -2, -7]), max_size=2),
    st.lists(st.integers(min_value=0, max_value=12 * BLOCK - 1), max_size=2),
)
def test_localize_errors_match_reference(args, non_primes, zeros):
    # localize takes proven primes, so only p_part_sequence meets the non-primes
    values, primes = args
    for i in zeros:
        if i < len(values):
            values[i] = 0
    got = outcome(localize_dense, values, primes)
    assert got == outcome(localize_ref, values, primes)
    for q in list(primes) + non_primes:
        want = outcome(oracles.p_part_sequence_ref, values, q)
        got = outcome(lambda: p_part_sequence(Sequence1(values), q).values)
        assert got == want


def test_skipped_and_stripped_blocks_meet_at_every_boundary():
    # five whole blocks and one term: each block is prime to the window or
    # holds one term a window prime divides, at its first or last place
    window = [5, 7, 11]
    N = 5 * BLOCK + 1
    for pattern in range(2**6):
        for place in (0, BLOCK - 1):
            values = [3 * 2 ** (i % 9) for i in range(N)]
            for b in range(6):
                if pattern >> b & 1:
                    values[min(b * BLOCK + place, N - 1)] *= window[b % 3] ** (b + 1)
            assert localize_dense(values, window) == localize_ref(values, window)


@pytest.mark.parametrize("q", [2, 3, 61, 251])
def test_q_part_finds_every_valuation_up_to_a_few_hundred(q):
    for e in range(1, 301):
        for unit in (1, q - 1, q + 1, (q + 1) ** 40):
            assert realizability._q_part(unit * q**e, q) == q**e


def test_localize_strips_each_duplicate_prime_once():
    assert localize((61, 1, 61**3), [61, 61, 7]) == {61: [(1, 61), (3, 61**3)]}


@pytest.mark.parametrize("q", [1, 0, -3])
def test_localize_refuses_a_number_below_two_in_bounded_time(q):
    # _q_part(v, 1) never returns, so the call runs in a child process that
    # the timeout stops, and a hang fails this test instead of the suite
    src = str(Path(realizability.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"from seqlab.realizability import localize\nlocalize((5, 10), ({q}, 5))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"ValueError: prime expected, got {q}"


def test_localize_takes_the_primes_its_callers_proved(monkeypatch, derived300, e200):
    # every caller proves its primes where they enter (the spec, primes_in_range,
    # _odd_prime), so localize proves none again: with realizability._prime
    # refusing everything, each result is the one it gives unpatched
    calls = [
        lambda: run_experiment(ExperimentSpec("e", depth=40, primes=(2, 5, 61))),
        lambda: run_experiment(ExperimentSpec("e", depth=40, prime_limit=100)),
        lambda: primes_module.scan_primes(primes_module.BERNOULLI, 80),
        lambda: primes_module.scan_primes(primes_module.EULER, 80),
        lambda: primes_module.classify_bernoulli(37, derived300.numerators),
        lambda: primes_module.classify_euler(61, e200),
        lambda: weak_euler_profile_check(5, e200),
        lambda: primes_module.numerator_local_status(37, 32),
        lambda: primes_module.numerator_local_status(7, 30),
    ]
    want = [call() for call in calls]

    def refuse(q):
        raise AssertionError(f"prime {q} proved again")

    monkeypatch.setattr(realizability, "_prime", refuse)
    assert [call() for call in calls] == want


def test_all_ones_prefix_passes_everything():
    ref = oracles.check_realizable_ref([1] * 300)
    assert dold_sign((1,) * 300) == (ref.dold, ref.sign)
    assert ref.dold.passed and ref.sign.passed


# --- the weak Euler profile, compared support to support -----------------------


def test_weak_euler_profile_matches_reference_at_every_odd_prime(e200):
    for q in oracles.primes_by_trial(3, 400):
        assert weak_euler_profile_check(q, e200) == oracles.weak_euler_profile_check_ref(q, e200)


@st.composite
def perturbed_profiles(draw):
    # a prefix with the conjectured q-part profile, q^(1 + ord_q(n)) at the
    # multiples of (q-1)/2 and 1 elsewhere, times units prime to q, with at
    # most one term perturbed: a profile part times q, a factor q at a
    # non-multiple, or a profile part dropped to 1, often the last one of a
    # prefix that ends at a multiple
    q = draw(st.sampled_from(oracles.primes_by_trial(3, 80)))
    half = (q - 1) // 2
    N = draw(st.integers(min_value=1, max_value=120) | st.integers(1, 120 // half).map(half.__mul__))
    units = draw(st.lists(st.integers(min_value=1, max_value=10**6), min_size=N, max_size=N))
    values = []
    for n, unit in enumerate(units, start=1):
        while unit % q == 0:
            unit //= q
        values.append(unit * q * oracles.p_part_sequence_ref((n,), q)[0] if n % half == 0 else unit)
    multiples = list(range(half, N + 1, half))
    others = [n for n in range(1, N + 1) if n % half]
    kinds = ["none"] + ["times q", "dropped"] * bool(multiples) + ["off profile"] * bool(others)
    kind = draw(st.sampled_from(kinds))
    if kind == "times q":
        values[draw(st.sampled_from(multiples)) - 1] *= q
    elif kind == "dropped":
        n = draw(st.sampled_from(multiples) | st.just(multiples[-1]))
        values[n - 1] //= oracles.p_part_sequence_ref((values[n - 1],), q)[0]
    elif kind == "off profile":
        values[draw(st.sampled_from(others)) - 1] *= q ** draw(st.integers(min_value=1, max_value=3))
    return q, Sequence1(values, "e")


@settings(max_examples=2 * EXAMPLES)
@given(perturbed_profiles())
def test_weak_euler_profile_matches_reference_on_perturbed_profiles(case):
    q, e = case
    assert weak_euler_profile_check(q, e) == oracles.weak_euler_profile_check_ref(q, e)


SPECS = [catalog_spec(a) for a in OBSERVATION_CATALOG] + [
    ExperimentSpec(source="e", depth=60, prime_limit=200, max_shift=5),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.source)
def test_reports_match_reference_verdicts(spec, monkeypatch):
    # the reference localizes at every prime, the trivial ones included, so
    # every prime's all-ones part goes through the reference inversion too
    doc = run_experiment(spec)

    def reference_localize(values, primes):
        return {q: [(n, part) for n, part in enumerate(oracles.p_part_sequence_ref(values, q), start=1)
                    if part > 1]
                for q in sorted(primes)}

    def reference_dold_sign(values):
        ref = oracles.check_realizable_ref(values)
        return ref.dold, ref.sign

    def reference_support_dold_sign(support, N):
        return reference_dold_sign(expand(support, N))

    def reference_check(seq):
        return oracles.check_realizable_ref(seq.values)

    monkeypatch.setattr(experiment, "localize", reference_localize)
    monkeypatch.setattr(experiment, "_dold_sign", reference_support_dold_sign)
    monkeypatch.setattr(experiment, "check_realizable", reference_check)
    monkeypatch.setattr(realizability, "dold_sign", reference_dold_sign)
    assert run_experiment(spec) == doc


# --- one Möbius table per process ---------------------------------------------


def test_one_mobius_table_serves_every_depth(monkeypatch):
    # a table per depth would call mobius 60 + 30 + 90 = 180 times
    calls = []
    mobius = realizability.mobius
    monkeypatch.setattr(realizability, "_MU", ())
    monkeypatch.setattr(realizability, "mobius", lambda m: calls.append(m) or mobius(m))
    for N in (60, 30, 90):
        assert realizability._mobius_table(N)[:N] == tuple(map(mobius, range(1, N + 1)))
    assert calls == list(range(1, 91))


def test_an_interrupted_mobius_extension_keeps_the_previous_table(monkeypatch):
    mobius = realizability.mobius
    monkeypatch.setattr(realizability, "_MU", ())
    before = realizability._mobius_table(20)

    def failing(m):
        if m == 35:
            raise KeyboardInterrupt("interrupted part-way")
        return mobius(m)

    monkeypatch.setattr(realizability, "mobius", failing)
    with pytest.raises(KeyboardInterrupt):
        realizability._mobius_table(50)
    assert realizability._MU is before
    monkeypatch.setattr(realizability, "mobius", mobius)
    assert realizability._mobius_table(50) == tuple(map(mobius, range(1, 51)))
    values = [1, 3, 4, 7, 11] * 10
    assert orbit_counts(Sequence1(values)).values == oracles.orbit_counts_ref(values)
