"""Regular/irregular prime classification from the exact number engines.

A prime q is Bernoulli-regular when it divides none of the reduced Bernoulli
numerators with index k <= (q-3)/2, and Euler-irregular when it divides some
e_n = |E_{2n}| with 0 < n < (q-1)/2.  Euler-regular primes split further:
"strong" primes never divide any e_n up to the searched depth (a semidecidable
property, so the verdict always carries its bound), "weak" ones divide some
later term.  These classifications are exactly the local realizability
behaviour of the numerator and Euler sequences, which the consistency tests
exercise both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime, p_adic, primes_in_range
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


def classify_bernoulli(q: int, tbl: DerivedBernoulli) -> BernoulliStatus:
    """Bernoulli regularity of an odd prime q >= 3 from a numerator table."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"odd prime expected, got {q}")
    bound = (q - 3) // 2
    if tbl.max_index < bound:
        raise DepthError(f"need numerators up to {bound}, table has {tbl.max_index}")
    for k in range(1, bound + 1):
        if tbl.numerators[k] % q == 0:
            return BernoulliStatus(IRREGULAR, k)
    return BernoulliStatus(REGULAR)


def classify_euler(q: int, e: Sequence1, depth: int) -> tuple[EulerStatus, EulerStrength]:
    """Euler regularity and strength of an odd prime from an e-sequence prefix.

    Strength is meaningful only for regular primes: strong means q divides no
    e_n with n <= depth (reported with that bound), weak carries the least
    dividing index, which necessarily sits at or beyond (q-1)/2.
    """
    if q < 3 or not is_prime(q):
        raise ValueError(f"odd prime expected, got {q}")
    bound = (q - 1) // 2
    if depth < bound:
        raise DepthError(f"depth {depth} < (q-1)/2 = {bound}")
    if len(e) < depth:
        raise DepthError(f"e-sequence has {len(e)} terms, depth {depth} requested")
    for n in range(1, bound):
        if e[n] % q == 0:
            return EulerStatus(IRREGULAR, n), EulerStrength(NOT_APPLICABLE)
    for n in range(bound, depth + 1):
        if e[n] % q == 0:
            return EulerStatus(REGULAR), EulerStrength(WEAK, witness=n)
    return EulerStatus(REGULAR), EulerStrength(STRONG_UP_TO, bound=depth)


def scan_primes(
    kind: str,
    q_max: int,
    depth: int,
    *,
    derived: DerivedBernoulli | None = None,
    e: Sequence1 | None = None,
) -> list[PrimeClassification]:
    """Classify every prime <= q_max (2 included, reported regular).

    Prebuilt tables may be passed in to avoid rebuilding; they must cover
    ``depth``.
    """
    if kind not in (BERNOULLI, EULER):
        raise ValueError(f"kind must be {BERNOULLI!r} or {EULER!r}")
    out: list[PrimeClassification] = []
    if kind == BERNOULLI:
        if derived is None:
            derived = derived_bernoulli(depth)
        for q in primes_in_range(2, q_max):
            if q == 2:
                out.append(PrimeClassification(2, depth, BernoulliStatus(REGULAR)))
            else:
                out.append(
                    PrimeClassification(q, depth, classify_bernoulli(q, derived))
                )
    else:
        if e is None:
            e = sequence_e(depth)
        for q in primes_in_range(2, q_max):
            if q == 2:
                # every e_n is odd, so 2 never divides: strong by parity
                out.append(
                    PrimeClassification(
                        2,
                        depth,
                        euler_status=EulerStatus(REGULAR),
                        euler_strength=EulerStrength(STRONG_UP_TO, bound=depth),
                    )
                )
            else:
                status, strength = classify_euler(q, e, depth)
                out.append(
                    PrimeClassification(
                        q, depth, euler_status=status, euler_strength=strength
                    )
                )
    return out


def weak_euler_profile_check(q: int, e: Sequence1) -> Verdict:
    """Conjectured q-part profile of e at a weak Euler regular prime.

    Checks that the q-part of e_n is q^(1+ord_q(n)) when (q-1)/2 | n and 1
    otherwise, over the whole prefix.  A prime dividing no term of the prefix
    (strong regular as far as this depth shows) has the all-ones profile and
    passes vacuously.  This is evidence gathering for an observed pattern,
    not a theorem check; callers must not promote a PASS into a property of
    the infinite sequence.
    """
    if q < 3 or not is_prime(q):
        raise ValueError(f"odd prime expected, got {q}")
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


def numerator_local_status(
    q: int, N: int, derived: DerivedBernoulli | None = None
) -> NumeratorLocalStatus:
    """Trivial localization for regular q; least failure pair for irregular q."""
    if derived is None:
        derived = derived_bernoulli(max(N, (q - 3) // 2))
    if derived.max_index < N or derived.max_index < (q - 3) // 2:
        raise DepthError(
            f"need numerators up to {max(N, (q - 3) // 2)}, table has {derived.max_index}"
        )
    t = derived.numerators
    status = classify_bernoulli(q, derived)
    if status.status == REGULAR:
        for n in range(1, N + 1):
            if t[n] % q == 0:
                raise RuntimeError(
                    f"regular prime {q} divides numerator at {n}: engine defect"
                )
        return NumeratorLocalStatus(q, N, "trivial-localization")
    k = status.witness
    part_k = p_adic(t[k], q).part
    for m in range(2 * k, N + 1, k):
        part_m = p_adic(t[m], q).part
        if part_k > part_m:
            return NumeratorLocalStatus(q, N, "monotone-failure", k, m, part_k, part_m)
    raise DepthError(f"no monotonicity witness for irregular prime {q} within N={N}")
