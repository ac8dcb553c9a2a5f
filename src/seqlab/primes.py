"""Regular/irregular prime classification from the exact number engines.

Bernoulli and Euler regularity follow one rule: a prime q is irregular when
it divides a term a_n with 2n <= q-3, of the reduced Bernoulli numerators t
or of the Euler numbers e_n = |E_{2n}|, and regular otherwise.  Euler-regular
primes split further: "strong" primes never divide any e_n up to the searched
depth (a semidecidable property, so the verdict always carries its bound),
"weak" ones divide some later term.  These classifications are exactly the
local realizability behaviour of the numerator and Euler sequences, which the
consistency tests exercise both ways, and they are computed that way: each
reads the least index at which q divides a term off one ``localize`` call,
which serves a whole scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _odd_prime, p_adic, primes_in_range
from .classical import derived_bernoulli, sequence_e
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
class Regularity:
    """Bernoulli or Euler regularity of a prime q: irregular exactly when q
    divides a term a_n with 2n <= q-3, the least such n being the witness."""

    status: str  # REGULAR | IRREGULAR
    witness: int | None = None

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
    bernoulli_status: Regularity | None = None
    euler_status: Regularity | None = None
    euler_strength: EulerStrength | None = None


def _least_dividing(values: tuple[int, ...], primes: list[int]) -> list[int | None]:
    """Each prime's least n with q | a_n in the prefix, from one localization."""
    parts = localize(values, primes)
    return [next((n for n, part in enumerate(parts.get(q, ()), start=1) if part > 1), None)
            for q in primes]


def _regularity(q: int, least: int | None) -> Regularity:
    if least is not None and least <= (q - 3) // 2:
        return Regularity(IRREGULAR, least)
    return Regularity(REGULAR)


def _classify(kind: str, primes: list[int], a: Sequence1) -> list[PrimeClassification]:
    """Classify ascending primes from one localization of the prefix a of t or
    e; the least prime the prefix is too short for is the one refused.

    Bernoulli regularity reads t_1..t_{(q-3)/2}.  The Euler strength of a
    regular prime reads all of e, so the Euler prefix must reach (q-1)/2.
    """
    depth = len(a)
    if kind == BERNOULLI:
        late = next((q for q in primes if (q - 3) // 2 > depth), None)
        if late is not None:
            raise DepthError(f"need numerators up to {(late - 3) // 2}, table has {depth}")
        least = _least_dividing(a.values[: max(0, (primes[-1] - 3) // 2)], primes)
        return [PrimeClassification(q, depth, _regularity(q, n)) for q, n in zip(primes, least)]
    late = next((q for q in primes if (q - 1) // 2 > depth), None)
    if late is not None:
        raise DepthError(f"depth {depth} < (q-1)/2 = {(late - 1) // 2}")
    out = []
    for q, n in zip(primes, _least_dividing(a.values, primes)):
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
    return _classify(BERNOULLI, [q], t)[0].bernoulli_status


def classify_euler(q: int, e: Sequence1) -> tuple[Regularity, EulerStrength]:
    """Euler regularity and strength of an odd prime from an e-sequence prefix.

    The prefix must reach index (q-1)/2, and its length is the search depth.
    Strength is meaningful only for regular primes: strong means q divides no
    e_n with n <= len(e) (reported with that bound), weak carries the least
    dividing index, which necessarily sits at or beyond (q-1)/2.
    """
    _odd_prime(q)
    c = _classify(EULER, [q], e)[0]
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
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    primes = primes_in_range(2, q_max)
    if depth is None:
        q = primes[-1]
        depth = max(300, (q - 3) // 2) if kind == BERNOULLI else max(200, (q - 1) // 2)
    prefix = derived_bernoulli(depth).numerators if kind == BERNOULLI else sequence_e(depth)
    return _classify(kind, primes, prefix)


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
    depth = max(N, (q - 3) // 2)
    if depth >= 1:  # a depth below 1 is refused first, by the table build
        _odd_prime(q)
    t = derived_bernoulli(depth).numerators
    [least] = _least_dividing(t.values, [q])
    k = _regularity(q, least).witness
    if k is None:
        if least is not None and least <= N:
            raise RuntimeError(f"regular prime {q} divides numerator at {least}: engine defect")
        return NumeratorLocalStatus(q, N, "trivial-localization")
    part_k = p_adic(t[k], q).part
    for m in range(2 * k, N + 1, k):
        part_m = p_adic(t[m], q).part
        if part_k > part_m:
            return NumeratorLocalStatus(q, N, "monotone-failure", k, m, part_k, part_m)
    raise DepthError(f"no monotonicity witness for irregular prime {q} within N={N}")
