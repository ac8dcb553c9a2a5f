"""Regular/irregular prime classification from the exact number engines.

Bernoulli and Euler regularity follow one rule: a prime q is irregular when
it divides a term a_n with 2n <= q-3, of the reduced Bernoulli numerators t
or of the Euler numbers e_n = |E_{2n}|, and regular otherwise.  Euler-regular
primes split further: "strong" primes never divide any e_n up to the searched
depth (a semidecidable property, so the verdict always carries its bound),
"weak" ones divide some later term.  These classifications are exactly the
local realizability behaviour of the numerator and Euler sequences, which the
consistency tests exercise both ways, and they are computed that way: one
``localize`` call serves a whole scan, and returns for each prime only the
support of its q-parts, the (n, q-part) pairs with q-part > 1 in ascending n,
so the least index at which q divides a term is the first n of its support.
"""

from __future__ import annotations

from .arith import _at_least, _odd_prime, _record, p_adic, primes_in_range
from .classical import _builtin
from .errors import DepthError
from .realizability import Sequence1, Verdict, _dense, _monotone, localize

BERNOULLI = "bernoulli"
EULER = "euler"

REGULAR = "regular"
IRREGULAR = "irregular"
STRONG_UP_TO = "strong-up-to"
WEAK = "weak"
NOT_APPLICABLE = "not-applicable"


@_record
class Regularity:
    """Bernoulli or Euler regularity of a prime q: irregular exactly when q
    divides a term a_n with 2n <= q-3, the least such n being the witness."""

    status: str  # REGULAR | IRREGULAR
    witness: int | None = None

    def __str__(self) -> str:
        return REGULAR if self.status == REGULAR else f"{IRREGULAR}({self.witness})"


@_record
class EulerStrength:
    kind: str  # STRONG_UP_TO | WEAK | NOT_APPLICABLE
    bound: int | None = None  # search depth backing a strong verdict
    witness: int | None = None  # least n with q | e_n, for weak primes

    def __str__(self) -> str:
        if self.kind == STRONG_UP_TO:
            return f"{STRONG_UP_TO}-{self.bound}"
        if self.kind == WEAK:
            return f"{WEAK}({self.witness})"
        return self.kind


@_record
class PrimeClassification:
    q: int
    depth: int
    bernoulli_status: Regularity | None = None
    euler_status: Regularity | None = None
    euler_strength: EulerStrength | None = None


def _least_index(support: list[tuple[int, int]]) -> int | None:
    """The least n whose q-part exceeds 1: the first n of a ``localize`` support."""
    return support[0][0] if support else None


def _least_dividing(values: tuple[int, ...], primes: list[int]) -> list[int | None]:
    """Each prime's least n with q | a_n in the prefix, from one localization."""
    parts = localize(values, primes)
    return [_least_index(parts.get(q, [])) for q in primes]


def _regularity(q: int, least: int | None) -> Regularity:
    if least is not None and least <= (q - 3) // 2:
        return Regularity(IRREGULAR, least)
    return Regularity(REGULAR)


def _classify(kind: str, primes: list[int], values: tuple[int, ...]) -> list[PrimeClassification]:
    """Classify ascending primes from one localization of a prefix of t or e;
    the least prime the prefix is too short for is the one refused.

    Bernoulli regularity reads t_1..t_{(q-3)/2}.  The Euler strength of a
    regular prime reads all of e, so the Euler prefix must reach (q-1)/2.
    """
    depth = len(values)
    if kind == BERNOULLI:
        late = next((q for q in primes if (q - 3) // 2 > depth), None)
        if late is not None:
            raise DepthError(f"need numerators up to {(late - 3) // 2}, table has {depth}")
        least = _least_dividing(values[: max(0, (primes[-1] - 3) // 2)], primes)
        return [PrimeClassification(q, depth, _regularity(q, n)) for q, n in zip(primes, least)]
    late = next((q for q in primes if (q - 1) // 2 > depth), None)
    if late is not None:
        raise DepthError(f"depth {depth} < (q-1)/2 = {(late - 1) // 2}")
    out = []
    for q, n in zip(primes, _least_dividing(values, primes)):
        status = _regularity(q, n)
        if status.status == IRREGULAR:
            strength = EulerStrength(NOT_APPLICABLE)
        elif n is None:
            strength = EulerStrength(STRONG_UP_TO, bound=depth)
        else:
            strength = EulerStrength(WEAK, witness=n)
        out.append(PrimeClassification(q, depth, euler_status=status, euler_strength=strength))
    return out


def classify_bernoulli(q: int, t: Sequence1) -> Regularity:
    """Bernoulli regularity of an odd prime q >= 3 from a prefix of the
    numerator sequence t, which must reach index (q-3)/2."""
    _odd_prime(q)
    return _classify(BERNOULLI, [q], t.values)[0].bernoulli_status


def classify_euler(q: int, e: Sequence1) -> tuple[Regularity, EulerStrength]:
    """Euler regularity and strength of an odd prime from an e-sequence prefix.

    The prefix must reach index (q-1)/2, and its length is the search depth.
    Strength is meaningful only for regular primes: strong means q divides no
    e_n with n <= len(e) (reported with that bound), weak carries the least
    dividing index, which necessarily sits at or beyond (q-1)/2.
    """
    _odd_prime(q)
    c = _classify(EULER, [q], e.values)[0]
    return c.euler_status, c.euler_strength


def scan_primes(kind: str, q_max: int, depth: int | None = None) -> list[PrimeClassification]:
    """Classify every prime <= q_max from one localization of t or e.

    The numerators and the Euler numbers are odd, so 2 divides no term and
    comes out regular (strong for Euler) by the same rule as every other
    prime.  The default depth reaches the index the largest prime q <= q_max
    needs: max(300, (q-3)/2) for Bernoulli, max(200, (q-1)/2) for Euler.
    """
    if kind not in (BERNOULLI, EULER):
        raise ValueError(f"kind must be {BERNOULLI!r} or {EULER!r}")
    _at_least("q_max", q_max, 2)
    if depth is not None:
        _at_least("depth", depth, 1)
    primes = primes_in_range(2, q_max)
    if depth is None:
        q = primes[-1]
        depth = max(300, (q - 3) // 2) if kind == BERNOULLI else max(200, (q - 1) // 2)
    return _classify(kind, primes, _builtin("t" if kind == BERNOULLI else "e", depth))


def weak_euler_profile_check(q: int, e: Sequence1) -> Verdict:
    """Conjectured q-part profile of e at a weak Euler regular prime.

    Checks that the q-part of e_n is q^(1+ord_q(n)) when (q-1)/2 | n and 1
    otherwise, over the whole prefix: the profile's support is the multiples
    of (q-1)/2, and it is compared with the support ``localize`` returns, so
    the least n whose q-part differs fails, with the part the profile
    expected: a prefix reaching (q-1)/2 that q divides nowhere fails there.
    This is evidence gathering for an observed pattern, not a theorem check;
    callers must not promote a PASS into a property of the infinite sequence.
    """
    _odd_prime(q)
    half = (q - 1) // 2
    N = len(e)
    support = localize(e.values, (q,)).get(q, [])
    # the profile's support is the multiples of half; the least n where the
    # two supports differ, or where they meet with different parts, fails
    m = half  # the least multiple of half not yet met
    for n, actual in support:
        if m < n:
            break
        expected = 1 if n < m else q ** (1 + p_adic(n, q).ord)
        if actual != expected:  # always so off the multiples, where actual > 1
            return Verdict.fail_at(n, actual, N, expected=expected)
        m += half
    if m <= N:
        return Verdict.fail_at(m, 1, N, expected=q ** (1 + p_adic(m, q).ord))
    return Verdict.pass_up_to(N)


def numerator_local_status(q: int, N: int) -> Verdict:
    """The monotone verdict ``check_realizable`` gives t's q-part over t_1..t_N.

    A regular q localizes trivially: pass-up-to(N).  An irregular q fails
    where that check fails; if it passes up to N, DepthError.
    """
    _odd_prime(q)
    _at_least("depth", N, 1)
    support = localize(_builtin("t", max(N, (q - 3) // 2)), (q,)).get(q, [])
    least = _least_index(support)
    if _regularity(q, least).status == REGULAR:
        if least is not None and least <= N:
            raise RuntimeError(f"regular prime {q} divides numerator at {least}: engine defect")
        return Verdict.pass_up_to(N)
    monotone = _monotone(_dense(support, N))
    if monotone.passed:
        raise DepthError(f"no monotonicity witness for irregular prime {q} within N={N}")
    return monotone
