"""Differential tests for the algebraic fast paths.

The endomorphism search yields candidates lazily, already in image order, and
stops at the first realizing one; the reference (``oracles``) builds every
candidate and sorts.  ``IntMatrix.det`` is the one determinant, exact by
Bareiss elimination; the reference is a cofactor expansion.
``construct_matrix`` checks its unit condition by one order test; the
reference takes a determinant at every exponent below q-1.
``torsion_fix_counts`` takes its determinants mod p^K; the reference takes
them exactly.  ``FiniteGroup`` checks associativity on generators only
(Light's test); the reference tries every triple.  ``fix_counts`` reads
the counts off the cycle lengths of the map; the reference composes its
powers.  ``generating_set`` grows each span by right products; the reference
recomputes a two-sided closure for every generator.
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import seqlab.algebraic as algebraic
from seqlab.algebraic import (
    BUNDLED_GROUPS,
    MAX_SEARCH_TUPLES,
    Endomorphism,
    FiniteGroup,
    bundled_group,
    enumerate_endomorphisms,
    find_realizing_endomorphism,
    fix_counts,
)
from seqlab.arith import divisors, factorize, primes_in_range
from seqlab.errors import DegeneratePolynomialError
from seqlab.matrices import IntMatrix
from seqlab.realizability import Sequence1
import oracles
from conftest import invoke

# the loaded profile's example count: 100, or 1000 under --hypothesis-profile=ci
EXAMPLES = settings.default.max_examples


def _group(order, mul, label):
    table = tuple(tuple(mul(x, y) for y in range(order)) for x in range(order))
    return FiniteGroup(order, table, 0, tuple(str(i) for i in range(order)), label)


def cyclic(n):
    return _group(n, lambda x, y: (x + y) % n, f"z{n}")


def elementary_abelian(k):
    return _group(2**k, lambda x, y: x ^ y, f"c2^{k}")


def relabel(G, seed):
    """G with its indices permuted at random, the identity moved off index 0."""
    rng = random.Random(seed)
    perm = list(range(G.order))
    while perm[G.identity] == 0:
        rng.shuffle(perm)
    table = [[0] * G.order for _ in range(G.order)]
    names = [""] * G.order
    for x in range(G.order):
        names[perm[x]] = G.names[x]
        for y in range(G.order):
            table[perm[x]][perm[y]] = perm[G.table[x][y]]
    return FiniteGroup(G.order, tuple(map(tuple, table)), perm[G.identity],
                       tuple(names), f"{G.label}~{seed}")


BASE = [bundled_group(name) for name in BUNDLED_GROUPS] + [
    cyclic(16), cyclic(40), cyclic(64), elementary_abelian(3)]
GROUPS = BASE + [relabel(G, seed) for G in BASE for seed in (1, 2, 3)]
C2_4 = [elementary_abelian(4), relabel(elementary_abelian(4), 1)]
SMALL = [cyclic(n) for n in range(1, 7)] + [elementary_abelian(2), bundled_group("s3")]
SMALL += [relabel(G, 5) for G in SMALL if G.order > 1]


@lru_cache(maxsize=None)
def reference(G):
    return oracles.enumerate_endomorphisms_ref(G)


@lru_cache(maxsize=None)
def search(G):
    return enumerate_endomorphisms(G)


def _targets(G, endos):
    # the zero map's and identity's counts, two realized profiles from the
    # middle and the end of the order, and one nothing realizes (fixed sets
    # are nested subgroups, and 2 does not divide 5)
    picks = [endos[len(endos) // 2], endos[-1]]
    return [Sequence1((1,) * 6), Sequence1((G.order,) * 6), Sequence1((2, 5) * 3)] + [
        fix_counts(G, theta, 8) for theta in picks]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.label)
def test_search_matches_reference(G):
    endos = search(G)
    ref = reference(G)
    assert [t.image for t in endos] == [t.image for t in ref]
    for target in _targets(G, ref):
        found = find_realizing_endomorphism(G, target)
        want = oracles.find_realizing_endomorphism_ref(G, target, ref)
        assert (found and found.image) == (want and want.image), target.values


# C2^4 has 65,536 endomorphisms and takes seconds to enumerate either way, so
# only its plain labelling is enumerated in full; the targets are realized
# early in the order, as in the benchmark's searches
C2_4_TARGETS = [(1,) * 6, (2,) * 6, (4, 8) * 3]


@pytest.mark.parametrize("G", C2_4, ids=lambda G: G.label)
def test_search_matches_reference_on_c2_4(G):
    ref = reference(G)
    if G is C2_4[0]:
        assert [t.image for t in search(G)] == [t.image for t in ref]
    for values in C2_4_TARGETS:
        target = Sequence1(values)
        want = oracles.find_realizing_endomorphism_ref(G, target, ref)
        assert find_realizing_endomorphism(G, target).image == want.image


@pytest.mark.parametrize("G", GROUPS + C2_4[:1], ids=lambda G: G.label)
def test_enumeration_is_sorted_by_image(G):
    images = [t.image for t in search(G)]
    assert all(a < b for a, b in zip(images, images[1:]))


@pytest.mark.parametrize("G", SMALL, ids=lambda G: G.label)
def test_search_matches_brute_force(G):
    brute = oracles.all_endomorphisms_brute(G.order, G.table, G.identity)
    assert [t.image for t in enumerate_endomorphisms(G)] == sorted(brute)


def test_find_stops_at_the_first_match(monkeypatch):
    G = elementary_abelian(4)
    calls = []
    extend = algebraic._extend_from_generators

    def counting(group, gens, images):
        calls.append(images)
        return extend(group, gens, images)

    monkeypatch.setattr(algebraic, "_extend_from_generators", counting)
    theta = find_realizing_endomorphism(G, Sequence1((1,) * 6))
    assert theta.image == (0,) * 16
    assert 0 < len(calls) < 100


@pytest.mark.parametrize(
    "G", [bundled_group(name) for name in BUNDLED_GROUPS] + [cyclic(64)] + C2_4,
    ids=lambda G: G.label)
def test_every_yielded_map_passes_the_full_check(G):
    # the search skips the check of every product (see algebraic._endomorphisms);
    # that O(|G|^2) check must still accept everything it yields
    for theta in search(G):
        assert oracles.verified_endomorphism(G, theta.image) == theta


def test_search_budget_refuses_c2_5_up_front(monkeypatch):
    G = elementary_abelian(5)
    assert 16**4 <= MAX_SEARCH_TUPLES < 32**5

    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(algebraic, "_extend_from_generators", never)
    with pytest.raises(ValueError, match="33554432"):
        enumerate_endomorphisms(G)
    with pytest.raises(ValueError, match="33554432"):
        find_realizing_endomorphism(G, Sequence1((1,) * 6))


@pytest.mark.parametrize("target", ["1,2,3", "4,4,4,8,4,4,4,8"])
def test_groups_target_searches_once(monkeypatch, target):
    # d8 has 8^2 = 64 generator-image tuples; the target is matched in the
    # list the command has already built, in the same order
    G = bundled_group("d8")
    want = find_realizing_endomorphism(G, Sequence1(tuple(int(x) for x in target.split(","))))
    calls = []
    extend = algebraic._extend_from_generators

    def counting(group, gens, images):
        calls.append(images)
        return extend(group, gens, images)

    monkeypatch.setattr(algebraic, "_extend_from_generators", counting)
    res = invoke(["groups", "--name", "d8", "--target", target])
    assert res.exit_code == 0
    assert len(calls) == 64
    last = res.output.splitlines()[-1]
    if want is None:
        assert last == "target: not realized by any endomorphism"
    else:
        assert last == f"target: realized by image={list(want.image)}"


@pytest.mark.parametrize("options,words", [
    *[pytest.param(["--target", target],
                   f"--target must be comma-separated integers >= 0, got {target!r}", id=target)
      for target in ("1,x", "", "1,-1")],
    pytest.param(["--upto", "0"], "depth must be >= 1, got 0", id="upto-0"),
])
def test_groups_target_is_parsed_before_the_search(monkeypatch, options, words):
    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(algebraic, "_extend_from_generators", never)
    res = invoke(["groups", "--name", "d8", *options])
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {words}\n")


def test_groups_command_refuses_over_budget(tmp_path):
    G = elementary_abelian(5)
    path = tmp_path / "c2-5.cayley"
    path.write_text("32\n0\n" + "\n".join(" ".join(map(str, row)) for row in G.table) + "\n")
    res = invoke(["groups", "--file", str(path), "--target", "1,1,1"])
    assert res.exit_code == 1
    assert "33554432" in res.output
    assert not res.output.startswith("group ")


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-60, 60), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=3 * EXAMPLES)
@given(rows=matrices, p=st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
def test_det_matches_cofactor_expansion(rows, p):
    # raw entries, and entries reduced below p as construct_matrix passes them
    M = IntMatrix(rows)
    assert M.det() == oracles.det_ref(M.rows)
    assert M.mod(p).det() == oracles.det_ref(M.mod(p).rows)
    assert M.mod(p).det() % p == M.det() % p


@pytest.mark.parametrize("p", [2, 3, 7])
def test_det_mod_singular_mod_p(p):
    # invertible over Q, singular mod p
    M = IntMatrix([[p, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert M.det() == p
    assert M.mod(p).det() % p == 0


@settings(max_examples=2 * EXAMPLES)
@given(rows=matrices, k=st.integers(0, 40), p=st.sampled_from([2, 3, 5, 7, 101]))
def test_modular_power_matches_the_exact_power(rows, k, p):
    M = IntMatrix(rows)
    assert pow(M, k, p) == (M**k).mod(p)


# --- matrix construction: order test against every exponent -----------------

FIELDS = [(p, m) for p in primes_in_range(2, 49) for m in range(1, 9) if p**m <= 2300]


@pytest.mark.parametrize("p,m", FIELDS)
def test_construct_matrix_matches_reference(p, m):
    assert algebraic.construct_matrix(p, m) == oracles.construct_matrix_ref(p, m)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_construct_matrix_refuses_a_non_generator(monkeypatch, p, m):
    # g^2 has order (q-1)/2, so det(A^((q-1)/2) - I) = 0 mod p
    f, g = algebraic.field_generator(p, m)
    g2 = algebraic._poly_rem(algebraic._poly_mul(g, g, p), f, p)
    monkeypatch.setattr(algebraic, "field_generator", lambda p, m: (f, g2))
    with pytest.raises(RuntimeError, match=r"det\(A\^n - I\) = 0"):
        algebraic.construct_matrix(p, m)
    with pytest.raises(RuntimeError, match=rf"det\(A\^{(p**m - 1) // 2} - I\) = 0"):
        oracles.construct_matrix_ref(p, m)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (13, 3), (47, 2), (11, 3),
                                 (43, 2), (2, 8), (5, 4), (31, 3)])
def test_construct_matrix_takes_few_determinants(monkeypatch, p, m):
    calls = []
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda M: calls.append(M) or det(M))
    algebraic.construct_matrix(p, m)
    # one per prime factor of q-1, and one or two for det(B)
    assert len(factorize(p**m - 1)) + 1 <= len(calls) <= len(factorize(p**m - 1)) + 2


# --- torsion counts mod p^K against the exact determinants ------------------


def _torsion(count, A, c, p, N):
    """The counts, or the n at which the determinant vanished."""
    try:
        return count(A, c, p, N).values
    except DegeneratePolynomialError as exc:
        return f"degenerate at n = {exc.n}"


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=3 * EXAMPLES)
@given(rows=small_matrices, c=st.integers(1, 4), p=st.sampled_from([2, 3, 5, 7]),
       N=st.integers(1, 8))
def test_torsion_counts_match_the_exact_determinants(rows, c, p, N):
    A = IntMatrix(rows)
    got = _torsion(algebraic.torsion_fix_counts, A, c, p, N)
    assert got == _torsion(oracles.torsion_fix_counts_ref, A, c, p, N)


ELL_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("p,m", ELL_FIELDS)
def test_torsion_counts_of_the_constructed_matrix_match_the_exact_determinants(p, m):
    A, _ = algebraic.construct_matrix(p, m)
    for k in divisors(p**m - 1):
        c = (p**m - 1) // k
        want = oracles.torsion_fix_counts_ref(A, c, p, 12)
        assert algebraic.torsion_fix_counts(A, c, p, 12) == want, k


def test_a_zero_residue_doubles_the_precision():
    # K starts at 1 * (1 + 1) + 1 = 3; det(A - I) = 3^5 is 0 mod 3^3, so K
    # doubles to 6, and det(A^3 - I), of valuation 6, doubles it to 12
    assert algebraic.torsion_fix_counts(IntMatrix([[1 + 3**5]]), 1, 3, 3).values == (243, 243, 729)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_vanishing_determinant_raises_at_its_n(p):
    # a quarter turn: det(A^n - I) = 2, 4, 2 for n = 1..3, and A^4 = I
    with pytest.raises(DegeneratePolynomialError) as err:
        algebraic.torsion_fix_counts(IntMatrix([[0, -1], [1, 0]]), 1, p, 8)
    assert err.value.n == 4


def test_the_constructed_matrix_takes_one_determinant_per_term(monkeypatch):
    # K = m(1 + max ord_p n) + 1 exceeds the valuation of ell(1,3,13), so no
    # residue is zero and no determinant is taken twice
    A, _ = algebraic.construct_matrix(13, 3)
    calls = []
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda M: calls.append(M) or det(M))
    got = algebraic.torsion_fix_counts(A, 13**3 - 1, 13, 200)
    assert got.values == algebraic.ell_sequence(algebraic.ConstructionParams.create(1, 3, 13), 200).values
    assert len(calls) == 200


# --- associativity by Light's test against every triple ----------------------


def permutation_group(perms, label):
    """The group of the given permutations (a closed set, identity first)."""
    index = {perm: i for i, perm in enumerate(perms)}
    return _group(len(perms), lambda x, y: index[tuple(perms[x][i] for i in perms[y])], label)


def dihedral(n):
    # r^i s^j is index i + n j, and s r = r^-1 s
    return _group(2 * n, lambda x, y: ((x % n + (-1) ** (x // n) * (y % n)) % n
                                       + n * ((x // n) ^ (y // n))), f"dih{n}")


def direct_product(a, b):
    return _group(a * b, lambda x, y: (x // b + y // b) % a * b + (x % b + y % b) % b,
                  f"z{a}xz{b}")


def _even(perm):
    return sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))) % 2 == 0


UP_TO_12 = ([cyclic(n) for n in range(1, 13)]
            + [bundled_group(name) for name in BUNDLED_GROUPS]
            + [dihedral(n) for n in (3, 4, 5, 6)]
            + [direct_product(2, 2), direct_product(2, 4), direct_product(2, 6),
               direct_product(3, 3)]
            + [permutation_group([q for q in itertools.permutations(range(4)) if _even(q)], "a4")])
UP_TO_12 += [relabel(G, 7) for G in UP_TO_12 if G.order > 1]


def _refusal(table, identity):
    """The words FiniteGroup refuses the table in, or None if it accepts it."""
    n = len(table)
    try:
        FiniteGroup(n, table, identity, tuple(map(str, range(n))))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("G", UP_TO_12, ids=lambda G: G.label)
def test_a_group_table_is_accepted(G):
    assert oracles.associativity_failure_ref(G.table) is None
    assert _refusal(G.table, G.identity) is None


@settings(max_examples=3 * EXAMPLES)
@given(G=st.sampled_from([G for G in UP_TO_12 if G.order > 2]), data=st.data())
def test_a_swapped_table_is_refused_at_the_least_failing_triple(G, data):
    # two entries of one row swapped, both off the identity's row and column:
    # the identity and every right inverse survive, associativity does not
    others = [v for v in range(G.order) if v != G.identity]
    x = data.draw(st.sampled_from(others))
    y1, y2 = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
    table = [list(row) for row in G.table]
    table[x][y1], table[x][y2] = table[x][y2], table[x][y1]
    table = tuple(map(tuple, table))
    want = oracles.associativity_failure_ref(table)
    assert _refusal(table, G.identity) == (
        None if want is None else "associativity fails at ({},{},{})".format(*want))


# --- fixed points from cycle lengths, generating sets from right products ----


@pytest.mark.parametrize("G", BASE[:-1] + C2_4[:1], ids=lambda G: G.label)
def test_fix_counts_match_the_composed_powers(G):
    # the reference's counts to depth N are the first N of its counts to 40
    for theta in search(G):
        want = oracles.fix_counts_ref(G, theta, 40)
        for N in (1, 5, 12, 40):
            got = fix_counts(G, theta, N)
            assert (got.values, got.label) == (want.values[:N], want.label), theta.image


_cyclic = lru_cache(maxsize=None)(cyclic)
self_maps = st.integers(1, 64).flatmap(lambda n: st.one_of(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.permutations(range(n))))


@settings(max_examples=3 * EXAMPLES)
@given(image=self_maps, N=st.integers(1, 40))
def test_fix_counts_of_any_self_map_match_the_composed_powers(image, N):
    # fix_counts reads only the order of the group, so any self-map will do
    G = _cyclic(len(image))
    theta = Endomorphism(tuple(image))
    assert fix_counts(G, theta, N) == oracles.fix_counts_ref(G, theta, N)


@pytest.mark.parametrize("G", UP_TO_12 + [cyclic(64)] + C2_4, ids=lambda G: G.label)
def test_generating_set_matches_the_two_sided_closure(G):
    assert G.generating_set() == oracles.generating_set_ref(G)
