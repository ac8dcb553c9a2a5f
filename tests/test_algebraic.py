import pytest

from seqlab.algebraic import (
    BUNDLED_GROUPS,
    ConstructionParams,
    Endomorphism,
    FiniteGroup,
    bundled_group,
    construct_matrix,
    ell_algebraically_realizable,
    ell_sequence,
    enumerate_endomorphisms,
    field_generator,
    find_realizing_endomorphism,
    fix_counts,
    parse_cayley,
    smallest_irreducible,
    torsion_fix_counts,
    _poly_powmod,
)
from seqlab.arith import divisors, p_adic, primes_in_range
from seqlab.classical import lehmer_pierce
from seqlab.errors import DegeneratePolynomialError
from seqlab.matrices import IntMatrix
from seqlab.realizability import Sequence1, p_part_sequence
from oracles import all_endomorphisms_brute


# --- finite fields -----------------------------------------------------------


def test_field_generator_trivial_case():
    f, g = field_generator(2, 1)
    assert g == (1,)  # the 1-element multiplicative group


def test_field_generator_gf9_order8():
    f, g = field_generator(3, 2)
    # oracle: exhaustive order computation over all 8 nonzero elements
    orders = {}
    for v in range(1, 9):
        elt = (v % 3, v // 3)
        elt = tuple(x for x in elt)
        k = 1
        acc = _poly_powmod(elt, 1, f, 3)
        while acc != (1,):
            k += 1
            acc = _poly_powmod(elt, k, f, 3)
            assert k <= 8
        orders[elt] = k
    assert max(orders.values()) == 8
    assert orders[tuple(x for x in g) if len(g) == 2 else (g + (0,))] == 8


def test_field_generator_gf5():
    f, g = field_generator(5, 1)
    assert g == (2,)  # 2, 4, 3, 1 cycle of order 4


@pytest.mark.parametrize("p,m,message", [
    (5, 0, "degree m >= 1 required, got 0"),
    (5, -2, "degree m >= 1 required, got -2"),
    (4, 2, "prime expected, got 4"),
    (1, 2, "prime expected, got 1"),
    (0, 1, "prime expected, got 0"),
])
def test_smallest_irreducible_refuses_bad_input(p, m, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        smallest_irreducible(p, m)


def test_smallest_irreducibles():
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1


# --- matrix construction -----------------------------------------------------


def test_construct_matrix_5_1():
    A, B = construct_matrix(5, 1)
    assert A.rows == ((2,),)
    assert B.rows == ((3,),)  # 2^4 = 16 = 1 + 5*3


def test_construct_matrix_2_1_adjustment():
    # raw generator matrix [1] fails det(B) != 0 mod 2; the shift yields [3]
    A, B = construct_matrix(2, 1)
    assert A.rows == ((3,),)
    assert B.rows == ((1,),)


def test_construct_matrix_3_2_predicates():
    A, B = construct_matrix(3, 2)
    I = IntMatrix.identity(2)
    for n in range(1, 17):
        if n % 8 != 0:
            assert (A**n - I).det() % 3 != 0
    assert (A**8 - I).divide_exact(3) == B
    assert B.det() % 3 != 0


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)])
def test_construct_matrix_postconditions(p, m):
    A, B = construct_matrix(p, m)
    q = p**m
    I = IntMatrix.identity(m)
    assert A ** (q - 1) == I + p * B
    assert B.det() % p != 0
    for n in range(1, q - 1):
        assert (A**n - I).det() % p != 0, n


# --- ell sequences -----------------------------------------------------------


def test_ell_sequence_values():
    assert ell_sequence(ConstructionParams.create(1, 1, 2), 8).values == (
        2, 4, 2, 8, 2, 4, 2, 16)
    assert ell_sequence(ConstructionParams.create(2, 1, 5), 10).values == (
        1, 5, 1, 5, 1, 5, 1, 5, 1, 25)
    assert ell_sequence(ConstructionParams.create(3, 1, 7), 6).values == (
        1, 1, 7, 1, 1, 7)


def test_ell_realizability_criterion():
    assert ell_algebraically_realizable(2, 1, 5) is True
    assert ell_algebraically_realizable(5, 1, 3) is False
    assert ell_algebraically_realizable(4, 2, 3) is True
    with pytest.raises(ValueError):
        ell_algebraically_realizable(1, 1, 2)
    with pytest.raises(ValueError):
        ell_algebraically_realizable(3, 1, 3)


@pytest.mark.parametrize("k,m,p", [(-1, 3, 5), (2, 0, 5), (2, -1, 5), (0, 1, 5)])
def test_ell_realizability_refuses_what_the_params_refuse(k, m, p):
    # one guard: the criterion refuses exactly what ConstructionParams refuses
    for f in (ell_algebraically_realizable, ConstructionParams.create):
        with pytest.raises(ValueError, match=r"^k >= 1 and m >= 1 required$"):
            f(k, m, p)


def test_construction_params_validation():
    params = ConstructionParams.create(2, 1, 5)
    assert (params.q, params.c) == (5, 2)
    assert ConstructionParams.create(3, 1, 5).c is None


# --- torsion fix counts ------------------------------------------------------


def test_torsion_five_map():
    # 2-parts of 5^n - 1 = 4, 24, 124, 624: the doubling pattern 2^(2+ord_2(n))
    seq = torsion_fix_counts(IntMatrix([[5]]), 1, 2, 4)
    assert seq.values == (4, 8, 4, 16)
    for n, v in enumerate(seq.values, start=1):
        assert v == 2 ** (2 + p_adic(n, 2).ord)


def test_torsion_reproduces_ell_5():
    A, _ = construct_matrix(5, 1)
    assert (
        torsion_fix_counts(A, 2, 5, 10).values
        == ell_sequence(ConstructionParams.create(2, 1, 5), 10).values
    )


def test_torsion_identity_degenerate():
    with pytest.raises(DegeneratePolynomialError) as err:
        torsion_fix_counts(IntMatrix.identity(2), 1, 3, 4)
    assert err.value.n == 1


def test_torsion_matches_ell_across_divisors():
    for p in (3, 5, 7, 11, 13):
        A, _ = construct_matrix(p, 1)
        for k in divisors(p - 1):
            c = (p - 1) // k
            got = torsion_fix_counts(A, c, p, 60)
            want = ell_sequence(ConstructionParams.create(k, 1, p), 60)
            assert got.values == want.values, (p, k)


def test_denominator_p_parts_are_ell(derived300):
    b150 = Sequence1(derived300.denominators.values[:150], "b")
    for p in primes_in_range(3, 37):
        want = ell_sequence(ConstructionParams.create((p - 1) // 2, 1, p), 150)
        assert p_part_sequence(b150, p).values == want.values, p
    two_part = p_part_sequence(b150, 2)
    for n in range(1, 151):
        assert two_part[n] == 2 ** (2 + p_adic(n, 2).ord)


def test_lehmer_pierce_p_part_laws():
    a = lehmer_pierce([-1, -1, 0, 1], 200)
    for n in range(1, 201):
        two = p_part_sequence(a, 2)[n]
        assert two == (2 ** (3 * (1 + p_adic(n, 2).ord)) if n % 7 == 0 else 1), n
        three = p_part_sequence(a, 3)[n]
        assert three == (3 ** (3 * (1 + p_adic(n, 3).ord)) if n % 13 == 0 else 1), n
        five = p_part_sequence(a, 5)[n]
        b_n = 5 ** (1 + p_adic(n, 5).ord) if n % 4 == 0 else 1
        c_n = 5 ** (2 * (1 + p_adic(n, 5).ord)) if n % 24 == 0 else 1
        assert five == b_n * c_n, n


# --- groups ------------------------------------------------------------------


def test_bundled_groups_load_and_validate():
    for name in BUNDLED_GROUPS:
        G = bundled_group(name)
        assert G.label == name
        assert G.order in (6, 8)


def test_enumerate_z6_and_s3_match_brute_force():
    z6 = bundled_group("z6")
    endos = enumerate_endomorphisms(z6)
    brute = all_endomorphisms_brute(z6.order, z6.table, z6.identity)
    assert sorted(t.image for t in endos) == sorted(brute)
    assert len(endos) == 6

    s3 = bundled_group("s3")
    endos = enumerate_endomorphisms(s3)
    brute = all_endomorphisms_brute(s3.order, s3.table, s3.identity)
    assert sorted(t.image for t in endos) == sorted(brute)
    assert len(endos) == 10


def test_trivial_group_has_one_endomorphism():
    G = FiniteGroup(1, ((0,),), 0, ("e",))
    assert len(enumerate_endomorphisms(G)) == 1


def test_fix_counts_dihedral_outer():
    d8 = bundled_group("d8")
    # u -> u, v -> uv in the bundled index order e,u,u2,u3,v,uv,u2v,u3v
    theta = Endomorphism.verified(d8, (0, 1, 2, 3, 5, 6, 7, 4))
    assert fix_counts(d8, theta, 8).values == (4, 4, 4, 8, 4, 4, 4, 8)


def test_fix_counts_identity_and_zero():
    z6 = bundled_group("z6")
    ident = Endomorphism.verified(z6, tuple(range(6)))
    assert fix_counts(z6, ident, 5).values == (6,) * 5
    zero = Endomorphism.verified(z6, (0,) * 6)
    assert fix_counts(z6, zero, 5).values == (1,) * 5


def test_find_realizing_endomorphism_dihedral():
    d8 = bundled_group("d8")
    target = Sequence1((4, 4, 4, 8, 4, 4, 4, 8))
    theta = find_realizing_endomorphism(d8, target)
    assert theta is not None
    assert fix_counts(d8, theta, 8).values == target.values
    # it is a bijection and not inner: conjugation never realizes this profile
    assert sorted(theta.image) == list(range(8))
    inner = set()
    for g in range(8):
        ginv = next(h for h in range(8) if d8.mul(g, h) == d8.identity)
        inner.add(tuple(d8.mul(d8.mul(g, x), ginv) for x in range(8)))
    assert theta.image not in inner


def test_periodic_sequence_not_algebraic_on_order6_groups():
    target = Sequence1((1, 1, 1, 1, 6, 1, 1, 1, 1, 6))
    assert find_realizing_endomorphism(bundled_group("z6"), target) is None
    assert find_realizing_endomorphism(bundled_group("s3"), target) is None


def test_divisibility_law_and_lagrange():
    for name in BUNDLED_GROUPS:
        G = bundled_group(name)
        for theta in enumerate_endomorphisms(G):
            fc = fix_counts(G, theta, 12)
            for n in range(1, 13):
                assert G.order % fc[n] == 0
                for m in divisors(n):
                    assert fc[n] % fc[m] == 0, (name, theta.image, m, n)


def test_parse_cayley_rejects_malformed():
    with pytest.raises(ValueError):
        parse_cayley("2\n0\n0 1\n")  # missing a table row
    with pytest.raises(ValueError):
        parse_cayley("2\n0\n0 1\n1 0\nx y z\n")  # wrong name count
    # a latin square that is not associative must be rejected
    bad = "5\n0\n" + "\n".join(
        " ".join(str((i * j + i + j) % 5) for j in range(5)) for i in range(5)
    )
    with pytest.raises(ValueError):
        parse_cayley(bad + "\n")


def test_cayley_round_trip_matches_bundled():
    z6 = bundled_group("z6")
    text = "6\n0\n" + "\n".join(
        " ".join(str(v) for v in row) for row in z6.table
    ) + "\n" + " ".join(z6.names) + "\n"
    again = parse_cayley(text)
    assert again.table == z6.table and again.identity == z6.identity
