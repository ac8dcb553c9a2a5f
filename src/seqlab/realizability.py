"""Realizability checks for finite integer-sequence prefixes.

A non-negative sequence is realizable when it counts periodic points of some
map: a_n = #{x : T^n x = x}.  Over a finite prefix this is decidable via the
orbit counts o_n = sum_{d|n} mu(n/d) a_d, which must be divisible by n (the
Dold congruence) and non-negative (the sign condition).  Verdicts here never
claim more than the prefix shows: a passing check is PASS-UP-TO(N), a failing
one carries its least witness index.  Where several checks fail,
``least_failure`` reports the one with the least witness index, the earlier
check winning a tie.
"""

from __future__ import annotations

import operator
from itertools import compress
from math import gcd, prod
from typing import Iterable, Iterator

from .arith import _at_least, _at_most, _prime, _record, factorize, mobius
from .errors import ZeroEntryError

PASS = "pass-up-to"
FAIL = "fail-at"

# The checks of a report, in the order every report lists them and in which
# the earlier check wins a tie for the least witness; the magical and local
# checks are the first two.
CHECKS = ("dold", "sign", "monotone")


@_record
class Sequence1:
    """Finite prefix of a non-negative integer sequence, indexed from 1."""

    values: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        values = tuple(map(operator.index, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("Sequence1 needs at least one term")
        if min(values) < 0:
            i, v = next((i, v) for i, v in enumerate(values, start=1) if v < 0)
            raise ValueError(f"Sequence1 values must be >= 0; a_{i} = {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        """1-based term access: seq[n] is a_n."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


@_record
class OrbitCounts:
    """Mobius inversion of a sequence prefix; entries may be negative."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]


@_record
class Verdict:
    """Outcome of one check over a prefix: pass up to N, or fail at a witness.

    ``value`` is the quantity that exhibits the failure (the offending orbit
    count, residue difference, or sequence entry); ``detail`` carries any
    extra witness coordinates (e.g. the divisor of a monotonicity violation).
    """

    status: str
    checked_upto: int
    n: int | None = None
    value: int | None = None
    detail: dict = {}  # _record copies it for each instance

    @classmethod
    def pass_up_to(cls, checked_upto: int) -> "Verdict":
        return cls(PASS, checked_upto)

    @classmethod
    def fail_at(cls, n: int, value: int, checked_upto: int, **detail) -> "Verdict":
        return cls(FAIL, checked_upto, n, value, dict(detail))

    @property
    def passed(self) -> bool:
        return self.status == PASS


@_record
class RealizabilityReport:
    """Dold, sign, and divisor-monotonicity verdicts for one prefix."""

    checked_upto: int
    dold: Verdict
    sign: Verdict
    monotone: Verdict

    @property
    def verdicts(self) -> tuple[tuple[str, Verdict], ...]:
        """(name, verdict) for each check, in ``CHECKS`` order."""
        return tuple((name, getattr(self, name)) for name in CHECKS)

    def first_failure(self) -> tuple[str, Verdict] | None:
        """The least witness among the verdicts, if any check fails."""
        return least_failure(self.verdicts)


def least_failure(verdicts: Iterable[tuple[str, Verdict]]) -> tuple[str, Verdict] | None:
    """The failing (name, verdict) with the least witness index ``n``, the
    earlier name winning a tie; None when every verdict passes."""
    least = None
    for name, v in verdicts:
        if not v.passed and (least is None or v.n < least[1].n):
            least = name, v
    return least


_MU: tuple[int, ...] = ()  # (mu(1), mu(2), ...), as far as any inversion read


def _mobius_table(N: int) -> tuple[int, ...]:
    # one table per process serves every depth; it is extended by its missing
    # entries and committed by one assignment, so an exception part-way
    # through (KeyboardInterrupt included) leaves the previous table
    global _MU
    if len(_MU) < N:
        _MU = _MU + tuple(mobius(m) for m in range(len(_MU) + 1, N + 1))
    return _MU


def _support(a: tuple[int, ...]) -> list[tuple[int, int]]:
    # the (n, a_n) with a_n != 1, ascending: all an inversion needs of a prefix
    return [(n, v) for n, v in enumerate(a, start=1) if v != 1]


def _orbit_values(support: Iterable[tuple[int, int]], N: int) -> list[int]:
    # [0, o_1, ..., o_N] of the prefix of length N whose terms other than 1
    # are the (d, a_d) of ``support``: o_n = [n = 1] + sum_{d|n, a_d != 1}
    # mu(n/d) (a_d - 1), because sum_{d|n} mu(n/d) = [n = 1]; each push adds
    # or subtracts a_d - 1, as mu(n/d) = +-1
    mu = _mobius_table(N)
    o = [0, 1] + [0] * (N - 1)  # o[0] = 0 pads the 1-based indices
    for d, ad in support:
        x = ad - 1
        for i, u in zip(range(d, N + 1, d), mu):
            if u:
                if u > 0:
                    o[i] += x
                else:
                    o[i] -= x
    return o


def orbit_counts(a: Sequence1) -> OrbitCounts:
    """o_n = sum_{d|n} mu(n/d) a_d for 1 <= n <= len(a).

    When a is realizable, o_n/n counts the closed orbits of length n of any
    realizing map; inverting back always recovers a (sum_{d|n} o_d = a_n).
    """
    return OrbitCounts(tuple(_orbit_values(_support(a.values), len(a))[1:]))


def dold_sign(a: tuple[int, ...]) -> tuple[Verdict, Verdict]:
    """Dold and sign verdicts, each with its least witness, of (a_1, ..., a_N)."""
    return _dold_sign(_support(a), len(a))


def _dold_sign(support: Iterable[tuple[int, int]], N: int) -> tuple[Verdict, Verdict]:
    # ``dold_sign`` of the prefix of length N whose terms other than 1 are
    # the (n, a_n) of ``support``, such as a column of ``localize``
    o = _orbit_values(support, N)
    dold = sign = None
    # one pass over the nonzero orbit counts: o_n = 0 passes both checks
    for n in compress(range(N + 1), o):
        v = o[n]
        if dold is None and v % n:
            dold = Verdict.fail_at(n, v, N)
        if sign is None and v < 0:
            sign = Verdict.fail_at(n, v, N)
        if dold is not None and sign is not None:
            break
    return dold or Verdict.pass_up_to(N), sign or Verdict.pass_up_to(N)


def check_realizable(a: Sequence1) -> RealizabilityReport:
    """Dold congruence, sign condition, and divisor-monotonicity over the prefix.

    Each verdict carries the least failing index.  Monotonicity (a_d <= a_n
    whenever d | n) is a separate necessary condition: fixed-point sets nest
    under divisibility, and it often witnesses local failures more cheaply
    than full inversion.
    """
    dold, sign = dold_sign(a.values)
    return RealizabilityReport(len(a), dold, sign, _monotone(a.values))


def _monotone(values) -> Verdict:
    # one pass over multiples: d ascends, so the first d recorded for m is
    # the least proper divisor of m with a_d > a_m; a d no larger than the
    # least of its proper multiples' terms records nothing and is skipped
    N = len(values)
    bad: dict[int, int] = {}
    for d, ad in enumerate(values[: N // 2], start=1):
        if ad <= min(values[2 * d - 1 :: d]):
            continue
        for m, am in zip(range(2 * d, N + 1, d), values[2 * d - 1 :: d]):
            if ad > am and m not in bad:
                bad[m] = d
    if not bad:
        return Verdict.pass_up_to(N)
    n = min(bad)
    d = bad[n]
    return Verdict.fail_at(n, values[n - 1], N, divisor=d, divisor_value=values[d - 1])


def arias_criterion(a: Sequence1) -> Verdict:
    """Congruence criterion equivalent to the Dold congruence.

    Checks a_{n p^m} = a_{n p^{m-1}} (mod p^m) for every prime p and every
    n coprime to p with n p^m <= len(a).  Fails at the same least index as
    the Dold check; the verdict's ``n`` is the composite index n*p^m and the
    value is the nonzero residue difference mod p^m.
    """
    N = len(a)
    for c in range(2, N + 1):
        for p, m in factorize(c):
            mod = p**m
            diff = (a[c] - a[c // p]) % mod
            if diff != 0:
                return Verdict.fail_at(c, diff, N, base=c // mod, p=p, m=m)
    return Verdict.pass_up_to(N)


# terms per coprimality test in ``localize``: one gcd clears a block of terms
# that no scanned prime divides
_BLOCK = 16


def localize(values: tuple[int, ...],
             primes: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """The support of the entrywise q-parts of a strictly positive prefix, for
    each q in ``primes`` that divides some term: the pairs (n, q-part of a_n)
    with q-part > 1, in ascending n.  A prime dividing no term has no entry,
    and every term missing from a support has q-part 1.

    Each term v is reduced once modulo P, the product of the distinct primes
    (the batch step of D. J. Bernstein, "How to find smooth parts of
    integers", 2004).  P is squarefree, so a block of ``_BLOCK`` terms holds a
    term some q divides exactly when G = gcd(product of their residues mod P,
    P) exceeds 1; only the terms of such a block get a gcd of their own,
    g = gcd(v mod P, G) = gcd(v, P), and only the q dividing g are stripped
    from v, by ``_q_part``.  The caller proves the primes (only one below 2
    is refused here), which may come repeated and in any order; a zero term
    raises ZeroEntryError at its least index.
    """
    distinct = sorted(set(primes))
    if not distinct:
        return {}
    if distinct[0] < 2:  # _q_part(v, 1) would never return
        raise ValueError(f"prime expected, got {distinct[0]}")
    if 0 in values:
        raise ZeroEntryError(values.index(0) + 1)
    P = prod(distinct)
    N = len(values)
    residues = [v % P for v in values]
    parts: dict[int, list[tuple[int, int]]] = {}
    for start in range(0, N, _BLOCK):
        x = 1
        for r in residues[start : start + _BLOCK]:
            x = x * r % P
        G = gcd(x, P)
        if G == 1:
            continue
        for i in range(start, min(start + _BLOCK, N)):
            g = gcd(residues[i], G)
            for q in distinct:
                if g == 1:
                    break
                if g % q == 0:
                    g //= q
                    parts.setdefault(q, []).append((i + 1, _q_part(values[i], q)))
    return parts


def _dense(support: Iterable[tuple[int, int]], N: int) -> list[int]:
    # a_1..a_N from the (n, a_n) of a support, every other term 1; pairs past
    # N, from the support of a longer prefix, are left out
    a = [1] * N
    for n, v in support:
        if n > N:
            break
        a[n - 1] = v
    return a


def _q_part(v: int, q: int) -> int:
    # q^e, e = ord_q(v) >= 1, by a squaring ladder: find the largest q^(2^K)
    # dividing v, then take e - 2^K < 2^K from the lower rungs, largest first;
    # at e = 1 that is the one remainder v % q^2
    ladder = [q]
    while v % (square := ladder[-1] * ladder[-1]) == 0:
        ladder.append(square)
    part = ladder.pop()
    if ladder:
        v //= part
        for rung in reversed(ladder):
            w, r = divmod(v, rung)
            if not r:
                v, part = w, part * rung
    return part


def p_part_sequence(a: Sequence1, q: int) -> Sequence1:
    """Entrywise q-part of a strictly positive prefix (localization at q)."""
    _prime(q)
    parts = _dense(localize(a.values, (q,)).get(q, ()), len(a))
    label = f"{a.label}@{q}" if a.label else f"@{q}"
    return Sequence1(parts, label)


def local_report(a: Sequence1, q: int) -> RealizabilityReport:
    """Realizability report of the q-part sequence ("realizable at q")."""
    return check_realizable(p_part_sequence(a, q))


def shift(a: Sequence1, k: int) -> Sequence1:
    """Drop the first k terms: (a_{1+k}, ..., a_N)."""
    return Sequence1(*_shift_terms(a.values, a.label, k))


def _shift_terms(values, label: str, k: int) -> tuple:
    """``shift`` on bare terms and a label, as (values, label), for a caller
    that validates only the prefix it builds from them."""
    _at_least("shift", k, 0)
    _at_most("shift", k, len(values) - 1)  # a shift must leave a term
    return values[k:], (f"{label}>>{k}" if k and label else label)


@_record
class MagicalReport:
    """Dold and sign verdicts, as (shift, dold, sign), for every shift
    0..max_shift of one prefix."""

    entries: tuple[tuple[int, Verdict, Verdict], ...]

    @property
    def all_pass(self) -> bool:
        return all(dold.passed and sign.passed for _, dold, sign in self.entries)

    def first_failure(self) -> tuple[int, str, Verdict] | None:
        """(shift, check name, verdict) of the least witness of the first
        failing shift, if any."""
        for k, dold, sign in self.entries:
            failure = least_failure(zip(CHECKS, (dold, sign)))
            if failure is not None:
                return (k, *failure)
        return None


def magical_report(a: Sequence1, max_shift: int) -> MagicalReport:
    """Dold and sign verdicts of each shifted prefix (a_{n+k}) for k <= max_shift."""
    return _magical_report(a, max_shift, None)


def _magical_report(a: Sequence1, max_shift: int,
                    unshifted: tuple[Verdict, Verdict] | None) -> MagicalReport:
    # ``unshifted``: the Dold and sign verdicts of shift 0, the whole prefix,
    # when the caller has them from its global checks; None inverts it here
    _at_least("max_shift", max_shift, 0)
    _at_most("max_shift", max_shift, len(a) - 1)
    first = dold_sign(a.values) if unshifted is None else unshifted
    rest = tuple((k, *dold_sign(a.values[k:])) for k in range(1, max_shift + 1))
    return MagicalReport(((0, *first),) + rest)


def pointwise_product(a: Sequence1, b: Sequence1) -> Sequence1:
    """Termwise product; realizability is preserved under this operation."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    label = f"{a.label}*{b.label}" if a.label and b.label else (a.label or b.label)
    return Sequence1(tuple(x * y for x, y in zip(a.values, b.values)), label)
