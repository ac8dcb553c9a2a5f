"""Exact Bernoulli and Euler number engines and the derived integer sequences.

Bernoulli numbers are produced from the tangent numbers (integer arithmetic
throughout, each reassembled as a Fraction over its von Staudt-Clausen
denominator), Euler numbers from the secant numbers; one recurrence gives
both.  It is O(N^2) big-integer additions/multiplications and comfortably
reaches B_600 / E_400 in seconds.  Each engine keeps one table per process
and extends it column by column, so a deeper request pays only for the new
columns and a shallower one is a slice.  The tangent table keeps B_2n with
the numerator and denominator of |B_2n / (2n)| beside it, committed together,
and the von Staudt-Clausen denominators are a table of their own.

Derived sequences, all indexed from 1:

* numerators/denominators of |B_{2n} / (2n)| in lowest terms (numerator odd,
  denominator even, coprime);
* the von Staudt-Clausen denominator of B_{2n} itself, prod of primes p with
  p-1 | 2n;
* the positive Euler sequence (-1)^n E_{2n};
* Lehmer-Pierce sequences |det(M^n - I)| for a companion matrix M.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import _at_least, _record, divisors, is_prime, p_adic, primes_in_range
from .realizability import Sequence1


class _Recurrence:
    """Brent & Harvey's tangent/secant recurrence (arXiv:1108.0286), resumable.

    In their in-place form column j starts at j! and pass k = 1..j sets
    X_j <- (j-k) X_{j-1} + (j-k+c) X_j, where X_{j-1} has already had pass k;
    after pass j, X_j is final: the tangent number T_{j+1} for c = 2, the
    secant number |E_{2j}| for c = 1.  Column j after pass k is divisible by
    (j-k)!, and the quotients G_j[k] obey the same passes on smaller integers:

        G_j[0] = 1,   G_j[k] = G_{j-1}[k] + (j-k+1)(j-k+c) G_j[k-1],

    with G_{j-1}[j] = 0 and G_j[j] the final X_j.  Column j after every pass
    is a function of column j-1 after every pass alone, so the only state an
    extension needs besides the outputs is G_M[1..M] of the last column M,
    and one list holds it, each G_{j-1}[k] overwritten by G_j[k].

    One instance per engine lives for the whole process.  Each column keeps
    a tuple of values, one per kept sequence, and each sequence is a tuple of
    its own, so a reader slices it.  An extension works on copies of every
    list and commits them by one assignment, so an exception part-way through
    (KeyboardInterrupt included) leaves the previous table, and threads
    extending at once each commit a consistent table (the last commit wins).
    """

    def __init__(self, c: int, output, width: int) -> None:
        self._c = c
        self._output = output  # (j, final X_j) -> the ``width`` values kept for column j
        self._state: tuple[tuple[tuple, ...], list[int]] = (((),) * width, [])  # kept, G_M[1..M]

    def columns(self, M: int) -> tuple[tuple, ...]:
        """The kept sequences, each over columns 0..M at least (the whole table so far)."""
        kept, column = self._state
        if M < len(kept[0]):
            return kept
        c, output = self._c, self._output
        rows, column = [], list(column)
        for j in range(len(kept[0]), M + 1):
            x = 1
            for i, a in enumerate(range(j, 1, -1)):  # G_{j-1}[k] -> G_j[k], k = i + 1
                x = column[i] + a * (a - 1 + c) * x
                column[i] = x
            if j:
                x *= c
                column.append(x)
            rows.append(output(j, x))
        kept = tuple(old + new for old, new in zip(kept, zip(*rows)))
        self._state = (kept, column)
        return kept


_CLAUSEN: tuple[int, ...] = ()  # D_1, D_2, ...: the denominators of B_2, B_4, ...


def _clausen_table(N: int) -> tuple[int, ...]:
    # D_n = prod of the primes p with p - 1 | 2n (von Staudt-Clausen); the
    # missing D_n come from one pass over the primes p <= 2N + 1, each
    # multiplying into the n that max((p - 1)/2, 1) divides, and are
    # committed by one assignment, as ``realizability._mobius_table`` is
    global _CLAUSEN
    table = _CLAUSEN
    M = len(table)
    if M < N:
        new = [1] * (N - M)  # D_{M+1}, ..., D_N
        for p in primes_in_range(2, 2 * N + 1):
            step = max((p - 1) // 2, 1)
            for n in range(M // step * step + step, N + 1, step):
                new[n - M - 1] *= p
        table = _CLAUSEN = table + tuple(new)
    return table


def _bernoulli_from_tangent(k: int, t: int) -> tuple[Fraction, int, int]:
    # column k holds T_n, n = k + 1; T_n = (-1)^(n-1) 4^n (4^n - 1) B_{2n} / (2n)
    # and B_{2n} = a / D_n in lowest terms, so |a| = 2n T_n D_n / (4^n (4^n - 1))
    # exactly: a shift by 2n and one exact division, with no gcd.  Then
    # |B_{2n}| / (2n) = |a| / (2n D_n) reduces by gcd(a, 2n) alone, as gcd(a, D_n) = 1
    n = k + 1
    D = _clausen_table(n)[k]
    x = 2 * n * t * D
    a, r = divmod(x >> (2 * n), (1 << (2 * n)) - 1)
    if r or x & ((1 << (2 * n)) - 1):
        raise RuntimeError(f"4^{n} (4^{n} - 1) does not divide 2n T_{n} D_{n}: engine defect")
    g = gcd(a, 2 * n)
    return Fraction(a if n % 2 else -a, D), a // g, 2 * n * D // g


_TANGENT = _Recurrence(2, _bernoulli_from_tangent, 3)  # keeps B_2n, t_n, b_n for n = 1, 2, ...
_SECANT = _Recurrence(1, lambda j, s: (s,), 1)  # keeps |E_0|, |E_2|, ...


def _bernoulli_columns(N: int) -> tuple[tuple, tuple, tuple, tuple]:
    # B_2n, t_n, b_n and d_n = D_n for n = 1..N at least; the Clausen
    # denominators of the new columns come first, in one pass
    d = _clausen_table(N)
    return (*_TANGENT.columns(N - 1), d)


def _builtin(name: str, N: int) -> tuple[int, ...]:
    # t_1..t_N, b_1..b_N, d_1..d_N or e_1..e_N: a slice of the kept table,
    # extended first if it is shorter; every caller has refused N < 0
    if name == "e":
        return _SECANT.columns(N)[0][1 : N + 1]
    return _bernoulli_columns(N)["Btbd".index(name)][:N]


def tangent_numbers(N: int) -> list[int]:
    """Tangent numbers T_1..T_N (1, 2, 16, 272, ...), exact integers."""
    _at_least("depth", N, 1)
    out = []  # from the kept B_2n = a / D_n: T_n = |a| 4^n (4^n - 1) / (2n D_n), by shifts
    for n, b in enumerate(_bernoulli_columns(N)[0][:N], start=1):
        x = abs(b.numerator) << (2 * n)
        out.append(((x << (2 * n)) - x) // (2 * n * b.denominator))
    return out


def secant_numbers(N: int) -> list[int]:
    """Secant numbers S_1..S_N = |E_2|, ..., |E_{2N}| (1, 5, 61, 1385, ...)."""
    _at_least("depth", N, 0)
    return list(_builtin("e", N))


@_record
class BernoulliTable:
    """Even-index Bernoulli numbers B_2, B_4, ..., B_{2*max_index} as Fractions."""

    max_index: int
    values: tuple[Fraction, ...]

    def B(self, two_n: int) -> Fraction:
        """B_{2n} for an even argument 2n."""
        if two_n % 2 != 0 or not 2 <= two_n <= 2 * self.max_index:
            raise ValueError(f"even index in 2..{2 * self.max_index} expected, got {two_n}")
        return self.values[two_n // 2 - 1]


@_record
class EulerTable:
    """Even-index Euler numbers E_2, E_4, ..., E_{2*max_index}, exact integers."""

    max_index: int
    values: tuple[int, ...]

    def E(self, two_n: int) -> int:
        """E_{2n} for an even argument 2n (E_0 = 1 is handled separately)."""
        if two_n == 0:
            return 1
        if two_n % 2 != 0 or not 2 <= two_n <= 2 * self.max_index:
            raise ValueError(f"even index in 2..{2 * self.max_index} expected, got {two_n}")
        return self.values[two_n // 2 - 1]


def bernoulli_upto(N: int) -> BernoulliTable:
    """Exact B_2, B_4, ..., B_{2N} from tangent numbers.

    T_n = (-1)^(n-1) 4^n (4^n - 1) B_{2n} / (2n), and B_{2n} = a / D_n with
    D_n its von Staudt-Clausen denominator, so each numerator a is one shift
    and one exact division away from the integer engine; the process-wide
    tangent table keeps these Fractions and extends them.
    """
    _at_least("depth", N, 1)
    return BernoulliTable(N, _bernoulli_columns(N)[0][:N])


def euler_upto(N: int) -> EulerTable:
    """Exact E_2, E_4, ..., E_{2N} from the secant numbers."""
    _at_least("depth", N, 1)
    values = tuple((-1) ** n * s for n, s in enumerate(_builtin("e", N), start=1))
    return EulerTable(N, values)


def sequence_e(N: int) -> Sequence1:
    """The positive Euler sequence e_n = (-1)^n E_{2n} = (1, 5, 61, 1385, ...)."""
    _at_least("depth", N, 1)
    return Sequence1(_builtin("e", N), "e")


def clausen_denominator(n: int) -> int:
    """Denominator of B_{2n} by von Staudt-Clausen: product of primes p, p-1 | 2n."""
    _at_least("n", n, 1)
    out = 1
    for d in divisors(2 * n):
        if is_prime(d + 1):
            out *= d + 1
    return out


@_record
class DerivedBernoulli:
    """Integer sequences derived from |B_{2n}/(2n)| = numerators_n / denominators_n.

    ``numerators`` and ``denominators`` are coprime with the numerator odd and
    the denominator even; ``clausen_denominators`` holds the von Staudt-Clausen
    denominator of B_{2n} itself.
    """

    max_index: int
    numerators: Sequence1
    denominators: Sequence1
    clausen_denominators: Sequence1


def derived_bernoulli(N: int) -> DerivedBernoulli:
    """Build the numerator/denominator/Clausen sequences up to index N.

    t and b are kept in the tangent table beside B_{2n}, and d is the Clausen
    table, so a request slices them (a deeper one extends both tables first).
    """
    _at_least("depth", N, 1)
    return DerivedBernoulli(N, *(Sequence1(_builtin(name, N), name) for name in "tbd"))


def b_product_formula(n: int) -> int:
    """Closed form for the denominator of |B_{2n}/(2n)|:

    2 * prod over primes p with p-1 | 2n of p^(1 + ord_p(n)).
    """
    _at_least("n", n, 1)
    out = 2
    for d in divisors(2 * n):
        p = d + 1
        if is_prime(p):
            out *= p ** (1 + p_adic(n, p).ord)
    return out


def lehmer_pierce(char_poly_coeffs: list[int], N: int) -> Sequence1:
    """a_n = |det(M^n - I)| for the companion matrix M of a monic polynomial.

    ``char_poly_coeffs`` is ascending: [c_0, ..., c_{d-1}, 1] for
    x^d + c_{d-1} x^{d-1} + ... + c_0.  Counts periodic points of the toral
    automorphism induced by M.  Raises DegeneratePolynomialError at the first
    n <= N where the determinant vanishes (a root of unity among the zeros).
    """
    _at_least("depth", N, 1)
    from .matrices import _dets_of_powers_minus_identity, companion_matrix

    dets = _dets_of_powers_minus_identity(companion_matrix(char_poly_coeffs), N)
    return Sequence1(tuple(abs(d) for d in dets), "lehmer-pierce")
