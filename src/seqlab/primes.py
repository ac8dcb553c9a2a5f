"""Regular/irregular prime classification from the exact number engines.

A prime q is Bernoulli-regular when it divides none of the reduced Bernoulli
numerators with index k <= (q-3)/2, and Euler-irregular when it divides some
e_n = |E_{2n}| with 0 < n < (q-1)/2.  Euler-regular primes split further:
"strong" primes never divide any e_n up to the searched depth (a semidecidable
property, so the verdict always carries its bound), "weak" ones divide some
later term.  These classifications are exactly the local realizability
behaviour of the numerator and Euler sequences, which the consistency tests
exercise both ways, and they are computed that way: each reads the least index
at which q divides a term off one ``localize`` call, which serves a whole scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _odd_prime, p_adic, primes_in_range
from .classical import DerivedBernoulli, derived_bernoulli, sequence_e
from .errors import DepthError
from .realizability import Sequence1, Verdict, localize

BERNOULLI = "bernoulli"
EULER = "euler"

REGULAR = "regular"
IRREGULAR = "irregular"
STRONG_UP_TO = "strong-up-to"
WEAK = "weak"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class BernoulliStatus:
    status: str  # REGULAR | IRREGULAR
    witness: int | None = None  # least k with q | numerator_k, k <= (q-3)/2

    def __str__(self) -> str:
        return REGULAR if self.status == REGULAR else f"{IRREGULAR}({self.witness})"


@dataclass(frozen=True)
class EulerStatus:
    status: str
    witness: int | None = None  # least n < (q-1)/2 with q | e_n

    def __str__(self) -> str:
        return REGULAR if self.status == REGULAR else f"{IRREGULAR}({self.witness})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PrimeClassification:
    q: int
    depth: int
    bernoulli_status: BernoulliStatus | None = None
    euler_status: EulerStatus | None = None
    euler_strength: EulerStrength | None = None


def _least_dividing(parts: tuple[int, ...]) -> int | None:
    # the least n whose q-part exceeds 1, that is the least n with q | a_n
    return next((n for n, part in enumerate(parts, start=1) if part > 1), None)


def _bernoulli_status(q: int, least: int | None) -> BernoulliStatus:
    if least is not None and least <= (q - 3) // 2:
        return BernoulliStatus(IRREGULAR, least)
    return BernoulliStatus(REGULAR)


def _euler_status(q: int, least: int | None, depth: int) -> tuple[EulerStatus, EulerStrength]:
    if least is None:
        return EulerStatus(REGULAR), EulerStrength(STRONG_UP_TO, bound=depth)
    if least < (q - 1) // 2:
        return EulerStatus(IRREGULAR, least), EulerStrength(NOT_APPLICABLE)
    return EulerStatus(REGULAR), EulerStrength(WEAK, witness=least)


def _bernoulli_statuses(primes: list[int], tbl: DerivedBernoulli) -> list[BernoulliStatus]:
    # ascending primes; the least prime beyond the table is the one refused
    late = next((q for q in primes if (q - 3) // 2 > tbl.max_index), None)
    if late is not None:
        raise DepthError(f"need numerators up to {(late - 3) // 2}, table has {tbl.max_index}")
    # one localization of t_1..t_L, L the largest prime's bound, serves every prime
    parts = localize(tbl.numerators.values[: max(0, (primes[-1] - 3) // 2)], primes)
    return [_bernoulli_status(q, _least_dividing(parts.get(q, ()))) for q in primes]


def _euler_statuses(
    primes: list[int], e: Sequence1, depth: int
) -> list[tuple[EulerStatus, EulerStrength]]:
    late = next((q for q in primes if (q - 1) // 2 > depth), None)
    if late is not None:
        raise DepthError(f"depth {depth} < (q-1)/2 = {(late - 1) // 2}")
    if len(e) < depth:
        raise DepthError(f"e-sequence has {len(e)} terms, depth {depth} requested")
    parts = localize(e.values[:depth], primes)
    return [_euler_status(q, _least_dividing(parts.get(q, ())), depth) for q in primes]


def classify_bernoulli(q: int, tbl: DerivedBernoulli) -> BernoulliStatus:
    """Bernoulli regularity of an odd prime q >= 3 from a numerator table."""
    _odd_prime(q)
    return _bernoulli_statuses([q], tbl)[0]


def classify_euler(q: int, e: Sequence1, depth: int) -> tuple[EulerStatus, EulerStrength]:
    """Euler regularity and strength of an odd prime from an e-sequence prefix.

    Strength is meaningful only for regular primes: strong means q divides no
    e_n with n <= depth (reported with that bound), weak carries the least
    dividing index, which necessarily sits at or beyond (q-1)/2.
    """
    _odd_prime(q)
    return _euler_statuses([q], e, depth)[0]


def scan_primes(kind: str, q_max: int, depth: int | None = None) -> list[PrimeClassification]:
    """Classify every prime <= q_max from one localization of t or e.

    The numerators and the Euler numbers are odd, so 2 divides no term and
    comes out regular (strong for Euler) by the same rule as every other
    prime.  The default depth reaches the index the largest prime q <= q_max
    needs: max(300, (q-3)/2) for Bernoulli, max(200, (q-1)/2) for Euler.
    """
    if kind not in (BERNOULLI, EULER):
        raise ValueError(f"kind must be {BERNOULLI!r} or {EULER!r}")
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    primes = primes_in_range(2, q_max)
    if depth is None:
        q = primes[-1]
        depth = max(300, (q - 3) // 2) if kind == BERNOULLI else max(200, (q - 1) // 2)
    if kind == BERNOULLI:
        derived = derived_bernoulli(depth)
        return [PrimeClassification(q, depth, status)
                for q, status in zip(primes, _bernoulli_statuses(primes, derived))]
    e = sequence_e(depth)
    return [PrimeClassification(q, depth, euler_status=status, euler_strength=strength)
            for q, (status, strength) in zip(primes, _euler_statuses(primes, e, depth))]


def weak_euler_profile_check(q: int, e: Sequence1) -> Verdict:
    """Conjectured q-part profile of e at a weak Euler regular prime.

    Checks that the q-part of e_n is q^(1+ord_q(n)) when (q-1)/2 | n and 1
    otherwise, over the whole prefix.  A prime dividing no term of the prefix
    (strong regular as far as this depth shows) has the all-ones profile and
    passes vacuously.  This is evidence gathering for an observed pattern,
    not a theorem check; callers must not promote a PASS into a property of
    the infinite sequence.
    """
    _odd_prime(q)
    half = (q - 1) // 2
    N = len(e)
    parts = localize(e.values, (q,)).get(q)
    if parts is None:
        return Verdict.pass_up_to(N)
    for n, actual in enumerate(parts, start=1):
        expected = q ** (1 + p_adic(n, q).ord) if n % half == 0 else 1
        if actual != expected:
            return Verdict.fail_at(n, actual, N, expected=expected)
    return Verdict.pass_up_to(N)


@dataclass(frozen=True)
class NumeratorLocalStatus:
    """How the Bernoulli-numerator sequence localizes at a prime q.

    Regular primes localize trivially (all q-parts are 1); irregular primes
    exhibit a divisor-monotonicity failure pair (k, m) with k | m and the
    q-part dropping from index k to index m.
    """

    q: int
    checked_upto: int
    kind: str  # "trivial-localization" | "monotone-failure"
    witness_k: int | None = None
    witness_m: int | None = None
    part_k: int | None = None
    part_m: int | None = None


def numerator_local_status(q: int, N: int) -> NumeratorLocalStatus:
    """Trivial localization for regular q; least failure pair for irregular q."""
    t = derived_bernoulli(max(N, (q - 3) // 2)).numerators
    _odd_prime(q)
    parts = localize(t.values, (q,)).get(q, ())
    least = _least_dividing(parts)
    k = _bernoulli_status(q, least).witness
    if k is None:
        if least is not None and least <= N:
            raise RuntimeError(f"regular prime {q} divides numerator at {least}: engine defect")
        return NumeratorLocalStatus(q, N, "trivial-localization")
    for m in range(2 * k, N + 1, k):
        if parts[k - 1] > parts[m - 1]:
            return NumeratorLocalStatus(
                q, N, "monotone-failure", k, m, parts[k - 1], parts[m - 1]
            )
    raise DepthError(f"no monotonicity witness for irregular prime {q} within N={N}")
