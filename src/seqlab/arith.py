"""Exact elementary number theory: primes, factorization, Mobius, phi, p-parts.

Everything here works on plain Python ints (arbitrary precision) and is pure.
Primality is deterministic trial division; intended scale is n <= ~10**9.
"""

from __future__ import annotations

from operator import attrgetter


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    _at_least("n", n, 1)
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of prime factors)."""
    _at_least("n", n, 1)
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    _at_least("n", n, 1)
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def _record(cls):
    """Make ``cls`` a frozen record of its annotated fields, as a frozen
    dataclass does, without the dataclass module and its import of ``inspect``;
    the generated ``__init__`` ends with ``self.__post_init__()`` if there is one."""
    names = cls.__match_args__ = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    env = {"_set": object.__setattr__, **{f"_d_{n}": d for n, d in defaults.items()}}
    # a mutable default (a dict) is copied for each instance, never shared
    values = {n: f"{n}.copy() if {n} is _d_{n} else {n}" for n, d in defaults.items() if d.__hash__ is None}
    params = ", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {values.get(n, n)})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {params}):{body}{post}", env)
    key = attrgetter(*names) if len(names) > 1 else lambda self, get=attrgetter(*names): (get(self),)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (env["__init__"], __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@_record
class PAdicPart:
    """p-adic valuation data of an integer: part == p**ord exactly."""

    ord: int
    part: int


def p_adic(n: int, p: int) -> PAdicPart:
    """Largest power of the prime p dividing n >= 1, as (ord, p**ord)."""
    _at_least("n", n, 1)
    _prime(p)
    ord_ = 0
    part = 1
    while n % p == 0:
        n //= p
        ord_ += 1
        part *= p
    return PAdicPart(ord_, part)


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending (1 first, n last)."""
    _at_least("n", n, 1)
    out = [1]
    for p, e in factorize(n):
        out = [d * pk for d in out for pk in _prime_powers(p, e)]
    out.sort()
    return out


def _prime_powers(p: int, e: int) -> list[int]:
    pows = [1]
    for _ in range(e):
        pows.append(pows[-1] * p)
    return pows


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Ascending primes p with lo <= p <= hi (empty list if none)."""
    _at_most("lo", lo, hi)
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


def _at_least(name: str, value: int, least: int) -> None:
    """Refuse an integer argument below its least value, in one wording."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _at_most(name: str, value: int, most: int) -> None:
    """Refuse an integer argument above its greatest value, in one wording."""
    if value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")


def _prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"prime expected, got {p}")


def _odd_prime(q: int) -> None:
    if q < 3 or not is_prime(q):
        raise ValueError(f"odd prime expected, got {q}")
