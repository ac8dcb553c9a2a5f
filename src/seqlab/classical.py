"""Exact Bernoulli and Euler number engines and the derived integer sequences.

Bernoulli numbers are produced from the tangent numbers (integer arithmetic
throughout, reassembled as Fractions at the end), Euler numbers from the
secant numbers; one in-place recurrence gives both.  It is O(N^2) big-integer
additions/multiplications and comfortably reaches B_600 / E_400 in seconds.

Derived sequences, all indexed from 1:

* numerators/denominators of |B_{2n} / (2n)| in lowest terms (numerator odd,
  denominator even, coprime);
* the von Staudt-Clausen denominator of B_{2n} itself, prod of primes p with
  p-1 | 2n;
* the positive Euler sequence (-1)^n E_{2n};
* Lehmer-Pierce sequences |det(M^n - I)| for a companion matrix M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors, is_prime, p_adic
from .errors import DegeneratePolynomialError
from .matrices import IntMatrix, companion_matrix
from .realizability import Sequence1


def _tangent_secant(M: int, c: int) -> list[int]:
    # Brent & Harvey's in-place recurrence (arXiv:1108.0286), X_0..X_M: tangent
    # numbers X_k = T_{k+1} for c = 2, secant numbers X_k = |E_{2k}| for c = 1.
    X = [1] * (M + 1)
    for k in range(1, M + 1):
        X[k] = k * X[k - 1]
    for k in range(1, M + 1):
        for j in range(k, M + 1):
            X[j] = (j - k) * X[j - 1] + (j - k + c) * X[j]
    return X


def tangent_numbers(N: int) -> list[int]:
    """Tangent numbers T_1..T_N (1, 2, 16, 272, ...), exact integers."""
    if N < 1:
        raise ValueError("N >= 1 required")
    return _tangent_secant(N - 1, 2)


def secant_numbers(N: int) -> list[int]:
    """Secant numbers S_1..S_N = |E_2|, ..., |E_{2N}| (1, 5, 61, 1385, ...)."""
    if N < 0:
        raise ValueError("N >= 0 required")
    return _tangent_secant(N, 1)[1:]


@dataclass(frozen=True)
class BernoulliTable:
    """Even-index Bernoulli numbers B_2, B_4, ..., B_{2*max_index} as Fractions."""

    max_index: int
    values: tuple[Fraction, ...]

    def B(self, two_n: int) -> Fraction:
        """B_{2n} for an even argument 2n."""
        if two_n % 2 != 0 or not 2 <= two_n <= 2 * self.max_index:
            raise ValueError(f"even index in 2..{2 * self.max_index} expected, got {two_n}")
        return self.values[two_n // 2 - 1]

    def b_over_2n(self, n: int) -> Fraction:
        """B_{2n} / (2n), the quantity entering the Kummer-type congruences."""
        return self.B(2 * n) / (2 * n)


@dataclass(frozen=True)
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

    T_n = (-1)^(n-1) 4^n (4^n - 1) B_{2n} / (2n), so each Bernoulli number is
    a single exact Fraction division away from the integer engine.
    """
    T = tangent_numbers(N)
    values = []
    four_n = 1
    for n in range(1, N + 1):
        four_n *= 4
        sign = 1 if n % 2 == 1 else -1
        values.append(Fraction(sign * 2 * n * T[n - 1], four_n * (four_n - 1)))
    return BernoulliTable(N, tuple(values))


def euler_upto(N: int) -> EulerTable:
    """Exact E_2, E_4, ..., E_{2N} from the secant numbers."""
    values = tuple((-1) ** n * s for n, s in enumerate(secant_numbers(N), start=1))
    return EulerTable(N, values)


def sequence_e(N: int) -> Sequence1:
    """The positive Euler sequence e_n = (-1)^n E_{2n} = (1, 5, 61, 1385, ...)."""
    return Sequence1(tuple(secant_numbers(N)), "e")


def clausen_denominator(n: int) -> int:
    """Denominator of B_{2n} by von Staudt-Clausen: product of primes p, p-1 | 2n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    out = 1
    for d in divisors(2 * n):
        if is_prime(d + 1):
            out *= d + 1
    return out


@dataclass(frozen=True)
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


def derived_bernoulli(N: int, table: BernoulliTable | None = None) -> DerivedBernoulli:
    """Build the numerator/denominator/Clausen sequences up to index N."""
    if table is None:
        table = bernoulli_upto(N)
    if table.max_index < N:
        raise ValueError(f"table depth {table.max_index} < requested {N}")
    nums, dens, claus = [], [], []
    for n in range(1, N + 1):
        f = abs(table.B(2 * n) / (2 * n))
        nums.append(f.numerator)
        dens.append(f.denominator)
        claus.append(clausen_denominator(n))
    return DerivedBernoulli(
        N,
        Sequence1(tuple(nums), "t"),
        Sequence1(tuple(dens), "b"),
        Sequence1(tuple(claus), "d"),
    )


def b_product_formula(n: int) -> int:
    """Closed form for the denominator of |B_{2n}/(2n)|:

    2 * prod over primes p with p-1 | 2n of p^(1 + ord_p(n)).
    """
    if n < 1:
        raise ValueError("n >= 1 required")
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
    if N < 1:
        raise ValueError("N >= 1 required")
    M = companion_matrix(char_poly_coeffs)
    I = IntMatrix.identity(M.n)
    values = []
    power = I
    for n in range(1, N + 1):
        power = power * M
        d = (power - I).det()
        if d == 0:
            raise DegeneratePolynomialError(n)
        values.append(abs(d))
    return Sequence1(tuple(values), "lehmer-pierce")
