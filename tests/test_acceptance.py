"""Acceptance suite: one test per criterion, exact integer equality throughout.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion lines.
"""

import random
import time

from seqlab.algebraic import (
    ConstructionParams,
    construct_matrix,
    ell_sequence,
    enumerate_endomorphisms,
    find_realizing_endomorphism,
    fix_counts,
    bundled_group,
    torsion_fix_counts,
)
from seqlab.arith import divisors, p_adic, primes_in_range
from seqlab.classical import (
    b_product_formula,
    lehmer_pierce,
    sequence_e,
)
from seqlab.congruences import run_oracle_grids, wagstaff_identity_check
from seqlab.experiment import (
    ExperimentSpec,
    catalog_spec,
    not_realizable_primes,
    realizable_star_primes,
    run_experiment,
)
from seqlab.matrices import IntMatrix
from seqlab.primes import (
    BERNOULLI,
    EULER,
    IRREGULAR,
    REGULAR,
    STRONG_UP_TO,
    WEAK,
    scan_primes,
    weak_euler_profile_check,
)
from seqlab.realizability import (
    Sequence1,
    arias_criterion,
    check_realizable,
    local_report,
    magical_report,
    orbit_counts,
    p_part_sequence,
)
from oracles import bernoulli_recurrence


def report(num: int, ok: bool, message: str):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {message}"
    print(line)
    assert ok, line


def test_criterion_01_classical_engines(btable300, derived300):
    e = sequence_e(7)
    ok = e.values == (1, 5, 61, 1385, 50521, 2702765, 199360981)
    ok = ok and derived300.denominators.values[:4] == (12, 120, 252, 240)
    ok = ok and derived300.numerators[6] == 691
    start = time.time()
    oracle = bernoulli_recurrence(600)
    agree = all(btable300.B(2 * n) == oracle[2 * n] for n in range(1, 301))
    elapsed = time.time() - start
    ok = ok and agree and elapsed < 60
    report(1, ok, f"e/b/t prefixes exact; two Bernoulli engines agree to 2n=600 "
                  f"({elapsed:.1f}s)")


def test_criterion_02_product_formula(derived300):
    ok = all(
        b_product_formula(n) == derived300.denominators[n] for n in range(1, 301)
    )
    report(2, ok, "denominator product formula matches table for n <= 300")


def test_criterion_03_orbit_counts(derived300):
    t = Sequence1(derived300.numerators.values[:9], "t")
    o_t = orbit_counts(t)
    ok = (o_t[6], o_t[8], o_t[9]) == (690, 3616, 43866)
    e = sequence_e(5)
    o_e = orbit_counts(e)
    ok = ok and (o_e[3] // 3, o_e[4] // 4, o_e[5] // 5) == (20, 345, 10104)
    rng = random.Random(1234)
    for _ in range(1000):
        length = rng.randrange(1, 64)
        a = Sequence1(tuple(rng.randrange(0, 10**6) for _ in range(length)))
        o = orbit_counts(a)
        for n in range(1, length + 1):
            if sum(o[d] for d in divisors(n)) != a[n]:
                ok = False
    report(3, ok, "orbit counts of t and e; inversion round-trip on 1000 random "
                  "sequences")


def test_criterion_04_global_realizability(derived300, e200):
    ok = True
    for label, values in (
        ("t", derived300.numerators.values[:200]),
        ("b", derived300.denominators.values[:200]),
        ("e", e200.values),
    ):
        rep = check_realizable(Sequence1(values, label))
        ok = ok and rep.dold.passed and rep.sign.passed and rep.monotone.passed
    report(4, ok, "t, b, e pass Dold + sign + monotone up to 200")


def test_criterion_05_local_witnesses(derived300, e200):
    rep = local_report(Sequence1(e200.values[:20], "e"), 61)
    ok = (rep.dold.n, rep.dold.value) == (9, -60) and not (rep.dold.passed and rep.sign.passed)
    t32 = Sequence1(derived300.numerators.values[:32], "t")
    rep = local_report(t32, 37)
    ok = ok and (rep.sign.n, rep.sign.value) == (32, -36)
    ok = ok and (rep.monotone.detail["divisor"], rep.monotone.n) == (16, 32)
    b150 = Sequence1(derived300.denominators.values[:150], "b")
    for q in primes_in_range(2, 37):
        rep = local_report(b150, q)
        ok = ok and rep.dold.passed and rep.sign.passed
    report(5, ok, "|e|_61 fails at 9 (-60); |t|_37 fails by 32 (sign -36, "
                  "monotone 16|32); |b|_q passes to 150 for q <= 37")


def test_criterion_06_prime_classifications(derived300, e200):
    scan_b = scan_primes(BERNOULLI, 150, 300)
    irregular_b = [c.q for c in scan_b if c.bernoulli_status.status == IRREGULAR]
    ok = irregular_b == [37, 59, 67, 101, 103, 131, 149]
    scan_e = scan_primes(EULER, 103, 200)
    irregular_e = [c.q for c in scan_e if c.euler_status.status == IRREGULAR]
    ok = ok and irregular_e == [19, 31, 43, 47, 61, 67, 71, 79, 101]
    strong = [c.q for c in scan_e
              if c.euler_status.status == REGULAR
              and c.euler_strength.kind == STRONG_UP_TO]
    ok = ok and strong == [2, 3, 7, 11, 23, 59, 83, 103]
    weak = [c.q for c in scan_e if c.euler_strength.kind == WEAK]
    ok = ok and weak[:7] == [5, 13, 17, 29, 37, 41, 53]
    report(6, ok, "Bernoulli irregular <150 = {37,59,67,101,103,131,149}; Euler "
                  "irregular <102, strong-up-to-200 and weak prefixes exact")


def test_criterion_07_weak_euler_profile(e200):
    e100 = Sequence1(e200.values[:100], "e")
    ok = all(
        weak_euler_profile_check(q, e100).passed
        for q in (5, 13, 17, 29, 37, 41, 53)
    )
    report(7, ok, "conjectured weak-regular q-part profile holds to N=100 "
                  "(evidence only, not a theorem)")


def test_criterion_08_matrix_constructions():
    ok = True
    for p, m in ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (5, 2), (3, 3)):
        A, B = construct_matrix(p, m)
        q = p**m
        I = IntMatrix.identity(m)
        ok = ok and A ** (q - 1) == I + p * B and B.det() % p != 0
        ok = ok and all((A**n - I).det() % p != 0 for n in range(1, q - 1))
    for p in (3, 5, 7, 11, 13):
        A, _ = construct_matrix(p, 1)
        for k in divisors(p - 1):
            got = torsion_fix_counts(A, (p - 1) // k, p, 60)
            want = ell_sequence(ConstructionParams.create(k, 1, p), 60)
            ok = ok and got.values == want.values
    five_map = torsion_fix_counts(IntMatrix([[5]]), 1, 2, 40)
    ok = ok and all(
        five_map[n] == 2 ** (2 + p_adic(n, 2).ord) for n in range(1, 41)
    )
    report(8, ok, "matrix postconditions for 10 prime powers; torsion realization "
                  "equals ell(k,1,p); the 5x map gives 2^(2+ord_2 n) to n=40")


def test_criterion_09_group_engine():
    d8 = bundled_group("d8")
    target = Sequence1((4, 4, 4, 8))
    theta = find_realizing_endomorphism(d8, target)
    ok = theta is not None and fix_counts(d8, theta, 8).values == (
        4, 4, 4, 8, 4, 4, 4, 8)
    z6, s3 = bundled_group("z6"), bundled_group("s3")
    ok = ok and len(enumerate_endomorphisms(z6)) == 6
    ok = ok and len(enumerate_endomorphisms(s3)) == 10
    prefix = Sequence1((1, 1, 1, 1, 6, 1, 1, 1, 1, 6))
    ok = ok and find_realizing_endomorphism(z6, prefix) is None
    ok = ok and find_realizing_endomorphism(s3, prefix) is None
    for name in ("z6", "s3", "d8", "c2c2c2", "q8"):
        G = bundled_group(name)
        for th in enumerate_endomorphisms(G):
            fc = fix_counts(G, th, 12)
            for n in range(1, 13):
                for m in divisors(n):
                    ok = ok and fc[n] % fc[m] == 0
    report(9, ok, "D8 automorphism gives (4,4,4,8) period 4; 6 + 10 endomorphisms "
                  "realize nothing for the period-5 sequence; divisibility law holds")


def test_criterion_10_lehmer_pierce():
    seq = lehmer_pierce([-1, -1, 0, 1], 200)
    ok = seq.values[:17] == (1, 1, 1, 5, 1, 7, 8, 5, 19, 11, 23, 35, 27, 64, 61,
                            85, 137)
    a = seq.values
    for k in range(194):
        ok = ok and a[k + 6] == (-a[k + 5] + a[k + 4] + 3 * a[k + 3] + a[k + 2]
                                 - a[k + 1] - a[k])
    for n in range(1, 201):
        two = p_adic(a[n - 1], 2).part
        ok = ok and two == (2 ** (3 * (1 + p_adic(n, 2).ord)) if n % 7 == 0 else 1)
        three = p_adic(a[n - 1], 3).part
        ok = ok and three == (3 ** (3 * (1 + p_adic(n, 3).ord)) if n % 13 == 0 else 1)
        five = p_adic(a[n - 1], 5).part
        bn = 5 ** (1 + p_adic(n, 5).ord) if n % 4 == 0 else 1
        cn = 5 ** (2 * (1 + p_adic(n, 5).ord)) if n % 24 == 0 else 1
        ok = ok and five == bn * cn
    report(10, ok, "17-term prefix exact; order-6 recurrence to n=194; 2-, 3- "
                   "(ord_3 reading), and 5-part laws to n=200")


def test_criterion_11_congruence_oracles():
    grids = run_oracle_grids(max_prime=31, max_r=3, upto=60)
    ok = all(c.holds for checks in grids.values() for c in checks)
    total = sum(len(v) for v in grids.values())
    for n in range(1, 16):
        for p in primes_in_range(3, 13):
            ok = ok and wagstaff_identity_check(n, p).holds
    report(11, ok, f"all {total} grid checks hold (p<=31, r<=3, n<=60); Wagstaff "
                   "identity exact for n<=15, odd p<=13")


SECTION_LISTS = {
    "A000032": ([2, 3, 7, 23, 43, 47, 67, 107],
                [5, 11, 13, 17, 19, 29, 31, 37, 41, 53, 59, 61, 71, 73, 79, 83,
                 89, 97]),
    "A002895": ([2, 7, 11, 19, 23, 179],
                [3, 5, 13, 17, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
                 79]),
    "A005259": ([5, 11, 17, 19, 31, 41, 59, 73],
                [2, 3, 7, 13, 23, 29, 37, 43, 47, 53, 61, 67, 71]),
    "A005258": ([3, 7, 11, 19, 31, 71, 83, 139, 157],
                [2, 5, 13, 17, 23, 29, 37, 41, 43, 47, 53, 59, 61, 67, 73, 79,
                 89]),
    "A005725": ([2, 3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 43, 47, 53, 59, 67],
                [23, 41, 61]),
    "A054783": ([2, 7, 13, 17, 23, 47, 53, 97, 107],
                [3, 5, 11, 19, 29, 31, 37, 41, 43, 59, 61, 67, 71, 73, 79]),
    "A053175": ([2, 5, 7, 13, 23, 29, 31, 37, 41, 47, 53, 61, 67, 71, 79, 97],
                [3, 11, 17, 19, 43, 59, 73, 83, 89]),
    "A001850": ([3, 7, 11, 13, 17, 19, 23, 31, 43, 47, 53, 71, 79, 89, 97],
                [2, 5, 29, 37, 41, 59, 61, 67, 73, 83]),
}


def test_criterion_12_catalog_experiments():
    import json

    from seqlab.experiment import render_report

    ok = True
    for a_number, (failing, stars) in SECTION_LISTS.items():
        doc = run_experiment(catalog_spec(a_number))
        ok = ok and json.loads(render_report(doc, "json")) == doc
        got = not_realizable_primes(doc)
        got_stars = set(realizable_star_primes(doc))
        if got != failing:
            ok = False
        for q in stars:
            if q <= doc["local"][-1]["prime"] and q not in got_stars:
                ok = False
    report(12, ok, "all eight catalogued not-realizable lists match the published "
                   "primes exactly; published realizable* primes all pass")


def test_criterion_13_magical():
    pow2 = Sequence1(tuple(2**n for n in range(1, 65)), "2^n")
    mers = Sequence1(tuple(2**n - 1 for n in range(1, 65)), "2^n-1")
    ok = magical_report(pow2, 10).all_pass and magical_report(mers, 10).all_pass
    from seqlab.experiment import load_sequence

    lucas_seq = load_sequence(ExperimentSpec("A000032", depth=38, label="lucas"))
    rep = magical_report(lucas_seq, 1)
    k, name, v = rep.first_failure()
    ok = ok and (k, v.n) == (1, 2)
    for a_number in SECTION_LISTS:
        rep = magical_report(load_sequence(catalog_spec(a_number)), 5)
        if rep.all_pass:
            ok = False
        else:
            shift_k, _, verdict = rep.first_failure()
            ok = ok and shift_k <= 5 and verdict.n is not None
    report(13, ok, "(2^n) and (2^n - 1) magical for shifts <= 10 over n <= 64; "
                   "Lucas fails at shift 1, n=2; every catalogued sequence fails "
                   "a shift <= 5 with a witness")


def test_criterion_14_dold_arias_equivalence(derived300, e200):
    ok = True

    def agree(seq):
        dold = check_realizable(seq).dold
        arias = arias_criterion(seq)
        if dold.passed != arias.passed:
            return False
        return dold.passed or dold.n == arias.n

    from seqlab.experiment import load_sequence

    suite = [
        Sequence1(derived300.numerators.values[:200], "t"),
        Sequence1(derived300.denominators.values[:200], "b"),
        e200,
        lehmer_pierce([-1, -1, 0, 1], 200),
        load_sequence(ExperimentSpec("A000032", depth=200, label="lucas")),
    ]
    for seq in suite:
        ok = ok and agree(seq)
        for q in primes_in_range(2, 20):
            ok = ok and agree(p_part_sequence(seq, q))
    rng = random.Random(42)
    for _ in range(100):
        length = rng.randrange(1, 200)
        a = Sequence1(tuple(rng.randrange(0, 40) for _ in range(length)))
        ok = ok and agree(a)
    report(14, ok, "Dold <=> Arias (same failing index) on the suite sequences, "
                   "their localizations, and 100 random sequences")
