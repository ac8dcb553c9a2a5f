"""Differential tests for the algebraic fast paths.

The endomorphism search yields candidates lazily, already in image order, and
stops at the first realizing one; the reference (``oracles``) builds every
candidate and sorts.  ``IntMatrix.det`` is the one determinant, exact by
Bareiss elimination; the reference is a cofactor expansion.
``construct_matrix`` checks its unit condition by one order test; the
reference takes a determinant at every exponent below q-1.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import seqlab.algebraic as algebraic
from seqlab.algebraic import (
    BUNDLED_GROUPS,
    MAX_SEARCH_TUPLES,
    FiniteGroup,
    bundled_group,
    enumerate_endomorphisms,
    find_realizing_endomorphism,
    fix_counts,
)
from seqlab.arith import factorize, primes_in_range
from seqlab.matrices import IntMatrix
from seqlab.realizability import Sequence1
import oracles
from conftest import invoke


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


@pytest.mark.parametrize("target", ["1,x", "", "1,-1"])
def test_groups_target_is_parsed_before_the_search(monkeypatch, target):
    def never(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(algebraic, "_extend_from_generators", never)
    res = invoke(["groups", "--name", "d8", "--target", target])
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == (f"error: --target must be comma-separated integers >= 0, "
                          f"got {target!r}\n")


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


@settings(max_examples=300)
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


@settings(max_examples=200)
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
