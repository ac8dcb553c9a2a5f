"""Executable congruence oracles certifying the Bernoulli/Euler engines.

Each check evaluates a known congruence on exact rationals or integers and
reports both residues.  The statements are theorems, so ``holds = False``
always means an engine defect, never mathematical news; the test suite treats
any False as a failure.

Rational inputs are reduced modulo p^r only after verifying the denominator
is invertible; checks whose hypotheses would hit the von Staudt-Clausen pole
are rejected loudly rather than coerced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .arith import _at_least, _odd_prime, _prime, _record, euler_phi, factorize, is_prime, p_adic
from .classical import _SECANT, _bernoulli_columns, euler_upto


@_record
class CongruenceCheck:
    """Two residues modulo ``modulus`` and whether they agree.

    ``modulus == 0`` denotes an exact integer identity: lhs and rhs are the
    full values rather than residues.
    """

    description: str
    modulus: int
    lhs: int
    rhs: int
    holds: bool


def _residue(f: Fraction | int, modulus: int) -> int:
    """f mod modulus for an integer or a rational with invertible denominator."""
    if gcd(f.denominator, modulus) != 1:
        raise ValueError(
            f"denominator {f.denominator} not invertible mod {modulus}"
        )
    return f.numerator * pow(f.denominator, -1, modulus) % modulus


def _compare(description: str, modulus: int, lhs: Fraction | int, rhs: Fraction | int) -> CongruenceCheck:
    l = _residue(lhs, modulus)
    r = _residue(rhs, modulus)
    return CongruenceCheck(description, modulus, l, r, l == r)


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)^*; requires gcd(a, modulus) = 1."""
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    group = euler_phi(modulus)
    order = group
    for p, _ in factorize(group):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def good_primitive_root(p: int) -> int:
    """Least primitive root g > 1 mod an odd prime p with p^2 not dividing g^(p-1)-1.

    Such a root is primitive modulo every p^r, which is what the Young-type
    congruences need.
    """
    _odd_prime(p)
    for g in range(2, p * p):
        if g % p == 0:
            continue
        if multiplicative_order(g % p, p) == p - 1 and pow(g, p - 1, p * p) != 1:
            return g
    raise RuntimeError(f"no good primitive root found for {p}")  # unreachable


@lru_cache(maxsize=None)
def _b_over_2n_mod(k: int, modulus: int) -> int:
    """B_{2k}/2k mod modulus, reduced once per (k, modulus) per process."""
    return _residue(_bernoulli_columns(k)[0][k - 1] / (2 * k), modulus)


def kummer_check(p: int, r: int, m: int, n: int) -> CongruenceCheck:
    """Kummer congruence: B_{2m}/2m = B_{2n}/2n (mod p^r).

    Hypotheses: p odd prime, 1 <= r <= 2n-1 <= 2m-1, p-1 does not divide 2n,
    and 2m = 2n (mod phi(p^r)).  Violations are rejected, in particular the
    p-1 | 2n pole case.
    """
    _odd_prime(p)
    if not 1 <= r <= 2 * n - 1 <= 2 * m - 1:
        raise ValueError(f"need 1 <= r <= 2n-1 <= 2m-1, got r={r}, n={n}, m={m}")
    if (2 * n) % (p - 1) == 0:
        raise ValueError(
            f"p-1 = {p - 1} divides 2n = {2 * n}: von Staudt-Clausen pole, check rejected"
        )
    # phi(p^r) = p^(r-1)(p-1), as p is prime and r >= 1
    if (2 * m - 2 * n) % (p ** (r - 1) * (p - 1)) != 0:
        raise ValueError(f"2m and 2n not congruent mod phi({p}^{r})")
    lhs, rhs = _b_over_2n_mod(m, p**r), _b_over_2n_mod(n, p**r)
    return CongruenceCheck(
        f"Kummer: B_{2 * m}/{2 * m} = B_{2 * n}/{2 * n} mod {p}^{r}", p**r, lhs, rhs, lhs == rhs
    )


def _young_type(description: str, u: int, modulus: int, n: int, k: int) -> CongruenceCheck:
    """(u^n - 1) B_{2n}/2n = (u^k - 1) B_{2k}/2k (mod modulus)."""
    B = _bernoulli_columns(n)[0]  # B_2, B_4, ..., read in place; 1 <= k < n
    return _compare(description, modulus, (u**n - 1) * B[n - 1] / (2 * n),
                    (u**k - 1) * B[k - 1] / (2 * k))


def young_check(p: int, n: int) -> CongruenceCheck:
    """Young congruence at the pole case p-1 | 2n, with r = ord_p(n) >= 1:

    (g^{2n} - 1) B_{2n}/2n = (g^{2k} - 1) B_{2k}/2k (mod p^r),   k = n/p,

    for a good primitive root g.  The power factors soak up the p's of the
    Bernoulli denominators, so both sides reduce to honest residues.
    """
    _odd_prime(p)
    if (2 * n) % (p - 1) != 0:
        raise ValueError(f"need p-1 | 2n, got p={p}, n={n}")
    r = p_adic(n, p).ord
    if r < 1:
        raise ValueError(f"need ord_{p}({n}) >= 1")
    g = good_primitive_root(p)
    k = n // p
    return _young_type(
        f"Young: (g^{2 * n}-1)B_{2 * n}/{2 * n} = (g^{2 * k}-1)B_{2 * k}/{2 * k} mod {p}^{r}, g={g}",
        g * g, p**r, n, k,
    )


def lemma_five_check(n: int) -> CongruenceCheck:
    """Prime-2 analogue of the Young congruence, with 5 as the modular unit:

    (5^n - 1) B_{2n}/2n = (5^k - 1) B_{2k}/2k (mod 2^r),   r = ord_2(n), k = n/2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    r = p_adic(n, 2).ord
    k = n // 2
    return _young_type(
        f"(5^{n}-1)B_{2 * n}/{2 * n} = (5^{k}-1)B_{2 * k}/{2 * k} mod 2^{r}", 5, 2**r, n, k
    )


def staying_alive_check(n: int) -> CongruenceCheck:
    """Oddness and congruence of the normalized 2-power quotients of 5^n - 1:

    (5^n - 1)/2^(r+2) and (5^k - 1)/2^(r+1) are odd and congruent mod 2^r,
    where n = 2^r m with m odd, r >= 1, k = n/2.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    r = p_adic(n, 2).ord
    k = n // 2
    x, rem_x = divmod(5**n - 1, 2 ** (r + 2))
    y, rem_y = divmod(5**k - 1, 2 ** (r + 1))
    exact = rem_x == 0 and rem_y == 0
    odd = x % 2 == 1 and y % 2 == 1
    mod = 2**r
    check = CongruenceCheck(
        f"(5^{n}-1)/2^{r + 2} = (5^{k}-1)/2^{r + 1} mod 2^{r}, both odd",
        mod,
        x % mod,
        y % mod,
        exact and odd and x % mod == y % mod,
    )
    return check


def wagstaff_A(n: int, m: int) -> int:
    """Alternating power sum A_n(m) = sum_{k=1..m} (-1)^(m-k) k^n."""
    _at_least("n", n, 0)
    _at_least("m", m, 1)
    return sum((-1) ** (m - k) * k**n for k in range(1, m + 1))


def wagstaff_identity_check(n: int, p: int) -> CongruenceCheck:
    """Exact integer identity tying Euler numbers to alternating power sums:

    2^(2n+1) A_{2n}((p-1)/2) = sum_{k=0..2n} C(2n,k) E_k p^(2n-k),

    for odd primes p (odd-index Euler numbers vanish).  Compared as exact
    integers; modulus 0 marks the equality convention.
    """
    _at_least("n", n, 1)
    _odd_prime(p)
    table = euler_upto(n)
    lhs = 2 ** (2 * n + 1) * wagstaff_A(2 * n, (p - 1) // 2)
    rhs = sum(
        comb(2 * n, k) * table.E(k) * p ** (2 * n - k)
        for k in range(0, 2 * n + 1, 2)
    )
    return CongruenceCheck(
        f"2^{2 * n + 1} A_{2 * n}(({p}-1)/2) = sum C({2 * n},k) E_k {p}^({2 * n}-k)",
        0,
        lhs,
        rhs,
        lhs == rhs,
    )


FAMILIES = ("kummer", "young", "five", "staying-alive", "wagstaff", "euler-additive")
"""The oracle families ``run_oracle_grids`` runs, in the order it reports them."""


def run_oracle_grids(
    max_prime: int = 31,
    max_r: int = 3,
    upto: int = 60,
    family: str = "all",
) -> dict[str, list[CongruenceCheck]]:
    """Evaluate every oracle over its full precondition grid.

    Returns {family: [checks...]}.  The Wagstaff identity grid is capped at
    n <= 15 and p <= 13 (it compares exact integers that grow fast); every
    other family runs to the given bounds.  All checks must hold; a False
    anywhere is an engine defect.

    Every index is at most upto, so the grid stops where upto stops it:
    - a prime p makes checks only if p <= upto (Young, euler-additive),
      (p-1)/2 <= upto-1 (Kummer) or p <= 13 (Wagstaff), so primes above
      max(2*upto - 1, 13) are never tried;
    - Kummer makes checks at p^r only while phi(p^r)/2 = p^(r-1)(p-1)/2
      <= upto-1, and euler-additive only while p^r <= upto.
    A larger max_prime or max_r than these bounds changes nothing.
    """
    if family != "all" and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    wanted = FAMILIES if family == "all" else (family,)
    _at_least("depth", upto, 1)  # whichever families are wanted
    if {"kummer", "young", "five"} & set(wanted):
        _bernoulli_columns(upto)  # one extension, not one per index read
    prime_bound = min(max_prime, max(2 * upto - 1, 13))
    odd_primes = [p for p in range(3, prime_bound + 1) if is_prime(p)]
    out: dict[str, list[CongruenceCheck]] = {}

    if "kummer" in wanted:
        checks = []
        for p in odd_primes:
            for r in range(1, max_r + 1):
                half_phi = euler_phi(p**r) // 2  # the step from n to each partner m
                if half_phi > upto - 1:
                    break  # no m = n + half_phi <= upto, here or at any larger r
                # r // 2 + 1 is the least n with r <= 2n - 1
                for n in range(r // 2 + 1, upto + 1):
                    if (2 * n) % (p - 1) != 0:
                        for m in range(n + half_phi, upto + 1, half_phi):
                            checks.append(kummer_check(p, r, m, n))
        out["kummer"] = checks

    if "young" in wanted:
        checks = []
        for p in odd_primes:
            for n in range(p, upto + 1, p):
                if (2 * n) % (p - 1) == 0:
                    checks.append(young_check(p, n))
        out["young"] = checks

    if "five" in wanted:
        out["five"] = [lemma_five_check(n) for n in range(2, upto + 1, 2)]

    if "staying-alive" in wanted:
        out["staying-alive"] = [staying_alive_check(n) for n in range(2, upto + 1, 2)]

    if "wagstaff" in wanted:
        checks = []
        for n in range(1, min(upto, 15) + 1):
            for p in odd_primes:
                if p <= 13:
                    checks.append(wagstaff_identity_check(n, p))
        out["wagstaff"] = checks

    if "euler-additive" in wanted:
        checks = []
        for p in [2] + odd_primes:
            for r in range(1, max_r + 1):
                if p**r > upto:
                    break  # b >= 1 needs p^r b <= upto
                for b in range(1, upto // p**r + 1):
                    if b % p != 0:
                        checks.append(euler_additive_check(p, r, b))
        out["euler-additive"] = checks

    return out


def euler_additive_check(p: int, r: int, b: int) -> CongruenceCheck:
    """Euler-number index-scaling congruence: E_{2 p^r b} = E_{2 p^(r-1) b} (mod p^r).

    Holds for every prime p (including 2) and b coprime to p.
    """
    _prime(p)
    _at_least("r", r, 1)
    _at_least("b", b, 1)
    if b % p == 0:
        raise ValueError(f"b = {b} must be coprime to p = {p}")
    hi = p**r * b
    lo = p ** (r - 1) * b
    s = _SECANT.columns(hi)[0]  # |E_0|, |E_2|, ...; E_{2k} = (-1)^k |E_{2k}|
    mod = p**r
    lhs = (-1) ** hi * s[hi] % mod
    rhs = (-1) ** lo * s[lo] % mod
    return CongruenceCheck(
        f"E_{2 * hi} = E_{2 * lo} mod {p}^{r}", mod, lhs, rhs, lhs == rhs
    )
