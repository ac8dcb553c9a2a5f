"""Constructive realization of sequences by group endomorphisms.

Two engines live here.  The matrix engine builds, for a prime power q = p^m,
an integer matrix A acting as multiplication by a generator of GF(q)^* and
realizes the p-power sequences ell^(k,m,p) on the m-fold p-torsion module
(fixed points of x -> A^c x are counted by the p-part of det(A^{cn} - I)).
The group engine works with explicit Cayley tables: endomorphism enumeration
(lazy, in image order, within a stated search budget), fixed-point counting,
and search for an endomorphism realizing a target prefix.

Construction postconditions are re-verified at build time; a verification
failure is an implementation bug and raises, it is never a data outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator

from .arith import _odd_prime, factorize, is_prime, p_adic
from .matrices import IntMatrix, _dets_of_powers_minus_identity
from .realizability import Sequence1

# ---------------------------------------------------------------------------
# polynomials over GF(p): ascending coefficient tuples, trimmed, entries 0..p-1


def _trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(tuple(out))


def _poly_rem(a, f, p):
    # remainder of a modulo the monic polynomial f
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - df
        for i, c in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * c) % p
        a.pop()
    return _trim(tuple(a))


def _poly_powmod(base, e, f, p):
    result = (1,)
    base = _poly_rem(base, f, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p)."""
    m = len(f) - 1
    if m < 1:
        return False
    x = (0, 1)
    # x^(p^m) must equal x mod f
    if _poly_powmod(x, p**m, f, p) != _poly_rem(x, f, p):
        return False
    for ell in {q for q, _ in factorize(m)}:
        h = _poly_powmod(x, p ** (m // ell), f, p)
        diff = _trim(tuple((a - b) % p for a, b in itertools.zip_longest(h, x, fillvalue=0)))
        if len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _digits(v: int, p: int, m: int) -> tuple[int, ...]:
    """The m base-p digits of v, least significant first."""
    digits = []
    for _ in range(m):
        v, d = divmod(v, p)
        digits.append(d)
    return tuple(digits)


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    Candidates are ordered by their non-leading coefficient vector read as a
    base-p integer, which makes the construction reproducible.
    """
    if not is_prime(p):
        raise ValueError(f"prime expected, got {p}")
    if m < 1:
        raise ValueError(f"degree m >= 1 required, got {m}")
    for v in range(p**m):
        f = _digits(v, p, m) + (1,)
        if _is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def _has_order(n: int, is_one: Callable[[int], bool]) -> bool:
    """Whether x, known to satisfy x^n = 1, has order exactly n.

    ``is_one(e)`` says whether x^e = 1.  The order of x divides n, and it is a
    proper divisor exactly when it divides n/r for some prime r | n, so one
    test per prime factor of n decides it.
    """
    return not any(is_one(n // r) for r, _ in factorize(n))


def field_generator(p: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Defining polynomial and a multiplicative generator of GF(p^m).

    Returns (f, g): f the least monic irreducible of degree m, g the least
    nonzero field element (coefficient vectors ordered as base-p integers)
    of order exactly p^m - 1.  Every nonzero g has g^(p^m - 1) = 1 (f is
    irreducible, so GF(p)[x]/(f) is the field), and the order is tested
    against the prime factors of p^m - 1.
    """
    if not is_prime(p):
        raise ValueError(f"prime expected, got {p}")
    if not 1 <= m <= 8:
        raise ValueError(f"degree 1..8 supported, got {m}")
    f = smallest_irreducible(p, m)
    q1 = p**m - 1
    for v in range(1, p**m):
        g = _trim(_digits(v, p, m))
        if _has_order(q1, lambda e: _poly_powmod(g, e, f, p) == (1,)):
            return f, g
    raise RuntimeError(f"no generator found for GF({p}^{m})")  # unreachable


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (p, m, k) of an ell-sequence, with q = p^m and c = (q-1)/k."""

    p: int
    m: int
    k: int
    q: int
    c: int | None

    @classmethod
    def create(cls, k: int, m: int, p: int) -> "ConstructionParams":
        if not is_prime(p):
            raise ValueError(f"prime expected, got {p}")
        if m < 1 or k < 1:
            raise ValueError("k >= 1 and m >= 1 required")
        if gcd(k, p) != 1:
            raise ValueError(f"k = {k} must be coprime to p = {p}")
        q = p**m
        c = (q - 1) // k if (q - 1) % k == 0 else None
        return cls(p, m, k, q, c)


def construct_matrix(p: int, m: int) -> tuple[IntMatrix, IntMatrix]:
    """Integer matrix pair (A, B) with A^{q-1} = I + pB, q = p^m, satisfying:

    1. det(A^n - I) is a unit mod p whenever q-1 does not divide n, and
    2. det(B) is a unit mod p.

    A starts as the multiplication-by-generator matrix of GF(q) with entries
    lifted to {0..p-1}; when the raw B fails condition 2 the shift
    A' = A + p(I + AB) is applied.  B is defined as (A^(q-1) - I)/p, so the
    identity holds by construction.  Both conditions are verified before
    returning; failure raises (an implementation bug, not a valid outcome).

    Condition 1 takes one determinant mod p per prime factor r of q-1, not
    one per n < q-1.  ``divide_exact`` shows A^(q-1) = I mod p, so every
    eigenvalue t of A mod p (in an algebraic closure of GF(p)) has
    t^(q-1) = 1, and det(A^n - I) = prod (t^n - 1) mod p.  If
    det(A^((q-1)/r) - I) is nonzero mod p for every r, no t has order
    dividing (q-1)/r, so every t has order exactly q-1; then t^n != 1 for
    each t whenever q-1 does not divide n, and condition 1 holds.
    Conversely (q-1)/r is itself an n that q-1 does not divide, so the test
    refuses exactly the pairs that break condition 1.
    """
    f, g = field_generator(p, m)
    q = p**m
    # column j of A = coefficients of g * x^j reduced mod f
    cols = []
    for j in range(m):
        xj = tuple([0] * j + [1])
        prod = _poly_rem(_poly_mul(g, xj, p), f, p)
        cols.append(tuple(prod) + (0,) * (m - len(prod)))
    A = IntMatrix([[cols[j][i] for j in range(m)] for i in range(m)])
    I = IntMatrix.identity(m)

    B = (A ** (q - 1) - I).divide_exact(p)
    if B.mod(p).det() % p == 0:
        A = A + p * (I + A * B)
        B = (A ** (q - 1) - I).divide_exact(p)
        if B.mod(p).det() % p == 0:
            raise RuntimeError(f"construct_matrix({p},{m}): det(B) = 0 mod {p}")
    if not _has_order(q - 1, lambda e: (pow(A, e, p) - I).det() % p == 0):
        raise RuntimeError(
            f"construct_matrix({p},{m}): det(A^n - I) = 0 mod {p} for some n < {q - 1}"
        )
    return A, B


def ell_sequence(params: ConstructionParams, N: int) -> Sequence1:
    """The sequence with value p^(m(1+ord_p(n))) at multiples of k and 1 elsewhere."""
    if N < 1:
        raise ValueError("N >= 1 required")
    p, m, k = params.p, params.m, params.k
    values = (p ** (m * (1 + p_adic(n, p).ord)) if n % k == 0 else 1 for n in range(1, N + 1))
    return Sequence1(tuple(values), f"ell({k},{m},{p})")


def ell_algebraically_realizable(k: int, m: int, p: int) -> bool:
    """Whether ell^(k,m,p) is realizable by a group endomorphism (odd p only).

    The criterion is k | p^m - 1.  The prime 2 needs its own construction and
    is rejected here.
    """
    if p == 2:
        raise ValueError("p = 2 is not covered by this criterion; it has a separate construction")
    _odd_prime(p)
    return ConstructionParams.create(k, m, p).c is not None


def torsion_fix_counts(A: IntMatrix, c: int, p: int, N: int) -> Sequence1:
    """Fixed-point counts of x -> A^c x on the (dim A)-fold p-torsion module.

    fix_n is the p-part of |det(A^{cn} - I)|; a vanishing determinant means
    the map has infinitely many periodic points at that n and raises.
    """
    if c < 1 or N < 1:
        raise ValueError("c >= 1 and N >= 1 required")
    if not is_prime(p):
        raise ValueError(f"prime expected, got {p}")
    values = (p_adic(abs(d), p).part for d in _dets_of_powers_minus_identity(A**c, N))
    return Sequence1(tuple(values), f"torsion-fix(c={c},p={p})")


# ---------------------------------------------------------------------------
# finite groups from Cayley tables


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group presented by its full multiplication table.

    The table is validated on construction: identity axioms, associativity,
    and existence of inverses are all checked exhaustively.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    names: tuple[str, ...]
    label: str = ""

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be order x order")
        if any(not 0 <= v < n for row in self.table for v in row):
            raise ValueError("Cayley table entries must be element indices")
        if len(self.names) != n:
            raise ValueError("need one name per element")
        e = self.identity
        if not 0 <= e < n:
            raise ValueError("identity index out of range")
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise ValueError(f"index {e} is not an identity")
        for x in range(n):
            if e not in self.table[x]:
                raise ValueError(f"element {x} has no right inverse")
        for x in range(n):
            for y in range(n):
                xy = self.table[x][y]
                for z in range(n):
                    if self.table[xy][z] != self.table[x][self.table[y][z]]:
                        raise ValueError(
                            f"associativity fails at ({x},{y},{z})"
                        )

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def generating_set(self) -> list[int]:
        """Small generating set found greedily (deterministic)."""
        gens: list[int] = []
        span = {self.identity}
        while len(span) < self.order:
            x = min(i for i in range(self.order) if i not in span)
            gens.append(x)
            span = self._closure(span | {x})
        return gens

    def _closure(self, seed: set[int]) -> set[int]:
        span = set(seed) | {self.identity}
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for y in list(span):
                for z in (self.table[x][y], self.table[y][x]):
                    if z not in span:
                        span.add(z)
                        frontier.append(z)
        return span


@dataclass(frozen=True)
class Endomorphism:
    """A verified group self-map respecting multiplication."""

    image: tuple[int, ...]

    @classmethod
    def verified(cls, G: FiniteGroup, image) -> "Endomorphism":
        image = tuple(image)
        if len(image) != G.order:
            raise ValueError("image must assign every element")
        if image[G.identity] != G.identity:
            raise ValueError("endomorphism must fix the identity")
        for x in range(G.order):
            for y in range(G.order):
                if image[G.table[x][y]] != G.table[image[x]][image[y]]:
                    raise ValueError(f"not multiplicative at ({x},{y})")
        return cls(image)

    def __call__(self, x: int) -> int:
        return self.image[x]


MAX_SEARCH_TUPLES = 2**20
"""Most generator-image tuples (|G|^#generators) an endomorphism search tries.

C2^4 (16^4 = 65,536 tuples) is well inside; C2^5 (32^5, about 33.5 million)
is refused up front rather than left to run for hours.
"""


def _endomorphisms(G: FiniteGroup) -> Iterator[Endomorphism]:
    """Endomorphisms of G, lazily, in increasing order of their image tuples.

    Candidates are generator images in ``itertools.product`` order, extended
    by word propagation.  That order is already sorted by image tuple:
    ``generating_set`` takes greedily the least index outside the span, so
    every index below g_{i+1} lies in span(g_1..g_i).  Two candidates first
    differing at g_i therefore agree on every index below g_i, and their image
    tuples compare as their images of g_i do.

    A completed extension is an endomorphism, so it is yielded without the
    O(|G|^2) check of ``Endomorphism.verified``.  ``_extend_from_generators``
    pops every element x once and checks or sets theta(xg) = theta(x)theta(g)
    for every generator g, with theta(e) = e.  Every y in G is a product of
    generators (``generating_set`` closes under products only), and G is
    associative (``FiniteGroup`` validates it), so by induction on the length
    of y: theta(x y'g) = theta(x y')theta(g) = theta(x)theta(y')theta(g)
    = theta(x)theta(y'g).

    Refused with ValueError, before any candidate is tried, when |G| > 64 or
    the search would try more than MAX_SEARCH_TUPLES generator-image tuples.
    """
    if G.order > 64:
        raise ValueError("endomorphism search supported for |G| <= 64 only")
    gens = G.generating_set()
    tuples = G.order ** len(gens)
    if tuples > MAX_SEARCH_TUPLES:
        raise ValueError(
            f"endomorphism search would try {G.order}^{len(gens)} = {tuples} "
            f"generator-image tuples, more than the budget of {MAX_SEARCH_TUPLES}"
        )
    if not gens:  # trivial group
        yield Endomorphism((G.identity,))
        return
    for images in itertools.product(range(G.order), repeat=len(gens)):
        image = _extend_from_generators(G, gens, images)
        if image is not None:
            yield Endomorphism(image)


def enumerate_endomorphisms(G: FiniteGroup) -> list[Endomorphism]:
    """All endomorphisms of G, sorted by image tuple (see ``_endomorphisms``)."""
    return list(_endomorphisms(G))


def _extend_from_generators(G, gens, images) -> tuple[int, ...] | None:
    """Propagate generator images along words; None on early contradiction."""
    theta = {G.identity: G.identity}
    for g, h in zip(gens, images):
        if theta.get(g, h) != h:
            return None
        theta[g] = h
    frontier = list(theta)
    while frontier:
        x = frontier.pop()
        for g, h in zip(gens, images):
            y = G.table[x][g]
            fy = G.table[theta[x]][h]
            if y in theta:
                if theta[y] != fy:
                    return None
            else:
                theta[y] = fy
                frontier.append(y)
    if len(theta) != G.order:
        return None
    return tuple(theta[x] for x in range(G.order))


def fix_counts(G: FiniteGroup, theta: Endomorphism, N: int) -> Sequence1:
    """fix_n = #{x : theta^n(x) = x} for n <= N, with cycle shortcutting.

    Iterated self-maps of a finite set are eventually periodic, so once a
    composed power repeats the remaining counts are read off the cycle.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    m = theta.image
    counts: list[int] = []
    seen: dict[tuple[int, ...], int] = {}
    cur = m
    n = 1
    while n <= N:
        if cur in seen:
            start = seen[cur]
            period = n - start
            while len(counts) < N:
                j = len(counts) + 1
                counts.append(counts[start - 1 + (j - start) % period])
            break
        seen[cur] = n
        counts.append(sum(1 for i in range(G.order) if cur[i] == i))
        cur = tuple(m[cur[i]] for i in range(G.order))
        n += 1
    return Sequence1(tuple(counts), f"fix({G.label})" if G.label else "fix")


def find_realizing_endomorphism(
    G: FiniteGroup, target: Sequence1
) -> Endomorphism | None:
    """First endomorphism (in enumeration order) whose fixed-point counts
    match the target over its full length, or None.

    The search stops at the first match; it is refused up front on the same
    terms as ``enumerate_endomorphisms``."""
    for theta in _endomorphisms(G):
        if fix_counts(G, theta, len(target)).values == target.values:
            return theta
    return None


# ---------------------------------------------------------------------------
# Cayley table text format + bundled groups

CAYLEY_FORMAT = """\
line 1: order n / line 2: identity index / next n lines: n indices each
(row x, column y holds the index of x*y) / optional final line: element names.
'#' starts a comment; blank lines are ignored."""


def parse_cayley(text: str, label: str = "") -> FiniteGroup:
    """Parse the Cayley-table text format (see CAYLEY_FORMAT)."""
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if len(rows) < 2:
        raise ValueError("Cayley file needs an order line and an identity line")
    try:
        order = int(rows[0][0])
        identity = int(rows[1][0])
    except ValueError as exc:
        raise ValueError(f"bad order/identity header: {exc}") from None
    if len(rows) < 2 + order:
        raise ValueError(f"expected {order} table rows, found {len(rows) - 2}")
    table = []
    for i in range(order):
        row = rows[2 + i]
        if len(row) != order:
            raise ValueError(f"table row {i} has {len(row)} entries, expected {order}")
        table.append(tuple(int(v) for v in row))
    rest = rows[2 + order :]
    if len(rest) > 1:
        raise ValueError("unexpected trailing content after names line")
    if rest:
        names = tuple(rest[0])
        if len(names) != order:
            raise ValueError(f"names line has {len(names)} entries, expected {order}")
    else:
        names = tuple(str(i) for i in range(order))
    return FiniteGroup(order, tuple(table), identity, names, label)


def bundled_group(name: str) -> FiniteGroup:
    """Load one of the groups shipped with the package (z6, s3, d8, c2c2c2, q8)."""
    from importlib.resources import files

    path = files("seqlab") / "fixtures" / "groups" / f"{name}.cayley"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"no bundled group named {name!r}") from None
    return parse_cayley(text, label=name)


BUNDLED_GROUPS = ("z6", "s3", "d8", "c2c2c2", "q8")
