"""Independent oracle implementations used to freeze expected test values.

Nothing here shares code paths with the package: Bernoulli numbers come from
the defining generating-function recurrence, Euler numbers from inverting the
cosh power series, and the combinatorial helpers are direct enumerations.
The realizability reference is the original divisor-by-divisor inversion; it
only borrows the package's verdict containers, so results compare field by
field.  The tangent/secant reference is the original one-shot in-place
recurrence, rebuilt from scratch on every call, and the Bernoulli reference
reduces 2n T_n / (4^n (4^n - 1)) by a full gcd, as the engine did before it
divided by its von Staudt-Clausen denominator.  The matrix-construction
reference checks the unit condition at every exponent below q-1, and the
torsion-count reference takes every determinant exactly; the associativity
reference tries every triple.  The p-part reference strips one prime from
every term, as localization did before the batched reduction.  The prime-classification references try one prime and
one term at a time, as the classification did before it read every prime's
least dividing index from one localization; they borrow the package's
status containers and its number tables.  The congruence-grid reference is
the grid as it was before it reduced each B_{2n}/2n once per modulus: one
public Kummer and Young check per grid point, over every prime up to
max_prime and every r up to max_r; it borrows the package's other checks.
The magical reference runs the full realizability reference on every shift
and picks each least witness with its own loop.  ``verified_endomorphism``
checks a map built by hand against every product of the group.  The
fixed-point reference composes whole powers of the map until one repeats,
and the generating-set reference recomputes a two-sided closure of the span
for every generator it adds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd


def bernoulli_recurrence(max_even: int) -> dict[int, Fraction]:
    """B_0..B_max_even via sum_{k<n} C(n+1,k) B_k = 0 (exact Fractions)."""
    B: dict[int, Fraction] = {0: Fraction(1)}
    if max_even >= 1:
        B[1] = Fraction(-1, 2)
    for n in range(2, max_even + 1):
        if n % 2 == 1:
            B[n] = Fraction(0)
            continue
        s = Fraction(0)
        for k in range(0, n):
            if k > 1 and k % 2 == 1:
                continue
            s += comb(n + 1, k) * B[k]
        B[n] = -s / (n + 1)
    return B


def euler_series(max_even: int) -> dict[int, int]:
    """E_0, E_2, ..., E_max_even by inverting cosh t as a power series.

    With c_k = 1/(2k)! the coefficients of cosh, sech = sum E_{2n} t^{2n}/(2n)!
    satisfies sum_{j<=n} E_{2j}/(2j)! * c_{n-j} = [n = 0].
    """
    half = max_even // 2
    e_frac: list[Fraction] = []
    for n in range(half + 1):
        s = Fraction(1 if n == 0 else 0)
        for j in range(n):
            s -= e_frac[j] * Fraction(1, _factorial(2 * (n - j)))
        e_frac.append(s)
    out = {}
    for n in range(half + 1):
        v = e_frac[n] * _factorial(2 * n)
        assert v.denominator == 1
        out[2 * n] = v.numerator
    return out


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def tangent_secant_ref(M: int, c: int) -> list[int]:
    """Brent & Harvey's in-place recurrence, one shot: X_0..X_M.

    Tangent numbers X_k = T_{k+1} for c = 2, secant numbers X_k = |E_{2k}|
    for c = 1.
    """
    X = [1] * (M + 1)
    for k in range(1, M + 1):
        X[k] = k * X[k - 1]
    for k in range(1, M + 1):
        for j in range(k, M + 1):
            X[j] = (j - k) * X[j - 1] + (j - k + c) * X[j]
    return X


def bernoulli_from_tangent_ref(k: int, t: int) -> Fraction:
    """B_{2n}, n = k + 1, from the tangent number t = T_n, by one Fraction
    division that a full gcd reduces: T_n = (-1)^(n-1) 4^n (4^n - 1) B_{2n} / (2n)."""
    n = k + 1
    four_n = 1 << (2 * n)
    return Fraction((1 if n % 2 else -1) * 2 * n * t, four_n * (four_n - 1))


def phi_by_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def primes_by_trial(lo: int, hi: int) -> list[int]:
    out = []
    for n in range(max(2, lo), hi + 1):
        if all(n % d for d in range(2, n)) and n >= 2:
            out.append(n)
    return out


def _mu(m: int) -> int:
    if m == 1:
        return 1
    out = 1
    for p in range(2, m + 1):
        if m % p == 0:
            if m % (p * p) == 0:
                return 0
            out = -out
            m //= p
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_sum(values: list[int], n: int) -> int:
    """sum_{d|n} mu(n/d) a_d computed with a from-scratch Mobius function."""
    return sum(_mu(n // d) * values[d - 1] for d in _divisors(n))


# --- reference realizability checks: one divisor sum per index ---------------


def orbit_counts_ref(values) -> tuple[int, ...]:
    """o_n = sum_{d|n} mu(n/d) a_d, rebuilt from the divisors of every n."""
    return tuple(
        sum(_mu(n // d) * values[d - 1] for d in _divisors(n))
        for n in range(1, len(values) + 1)
    )


def check_realizable_ref(values):
    """Dold, sign and divisor-monotone verdicts with their least witnesses."""
    from seqlab.realizability import RealizabilityReport, Verdict

    a = [None, *values]
    N = len(values)
    o = (None, *orbit_counts_ref(values))
    dold = Verdict.pass_up_to(N)
    for n in range(1, N + 1):
        if o[n] % n != 0:
            dold = Verdict.fail_at(n, o[n], N)
            break
    sign = Verdict.pass_up_to(N)
    for n in range(1, N + 1):
        if o[n] < 0:
            sign = Verdict.fail_at(n, o[n], N)
            break
    monotone = Verdict.pass_up_to(N)
    for n in range(1, N + 1):
        bad = [d for d in _divisors(n) if d < n and a[d] > a[n]]
        if bad:
            d = bad[0]
            monotone = Verdict.fail_at(n, a[n], N, divisor=d, divisor_value=a[d])
            break
    return RealizabilityReport(N, dold, sign, monotone)


def least_failure_ref(verdicts):
    """The failing (name, verdict) first in order of (n, position): the least
    witness index, the earlier name on a tie."""
    failing = [(v.n, i, name, v) for i, (name, v) in enumerate(verdicts) if not v.passed]
    if not failing:
        return None
    _, _, name, v = sorted(failing, key=lambda f: f[:2])[0]
    return name, v


def magical_report_ref(values, max_shift):
    """(entries, all_pass, first_failure) of the shifts 0..max_shift, from a
    full reference report per shift: entries are (shift, dold, sign), and
    first_failure is (shift, name, verdict) of the first failing shift's least
    Dold or sign witness."""
    entries = []
    for k in range(max_shift + 1):
        report = check_realizable_ref(values[k:])
        entries.append((k, report.dold, report.sign))
    first = None
    for k, dold, sign in entries:
        failure = least_failure_ref((("dold", dold), ("sign", sign)))
        if failure is not None:
            first = (k, *failure)
            break
    return tuple(entries), first is None, first


def p_part_sequence_ref(values, q) -> tuple[int, ...]:
    """Entrywise q-part, one term and one division by q at a time."""
    from seqlab.errors import ZeroEntryError

    if q < 2 or any(q % d == 0 for d in range(2, q)):
        raise ValueError(f"prime expected, got {q}")
    parts = []
    for n, v in enumerate(values, start=1):
        if v == 0:
            raise ZeroEntryError(n)
        part = 1
        while v % q == 0:
            v //= q
            part *= q
        parts.append(part)
    return tuple(parts)


def arias_criterion_ref(values):
    """a_{n p^m} = a_{n p^(m-1)} (mod p^m), least failing composite index."""
    from seqlab.realizability import Verdict

    a = [None, *values]
    N = len(values)
    for c in range(2, N + 1):
        rest = c
        for p in range(2, c + 1):
            m = 0
            while rest % p == 0:
                rest //= p
                m += 1
            if m and (a[c] - a[c // p]) % p**m != 0:
                mod = p**m
                return Verdict.fail_at(
                    c, (a[c] - a[c // p]) % mod, N, base=c // mod, p=p, m=m
                )
    return Verdict.pass_up_to(N)


def det_ref(m):
    """Determinant of a square list of rows by cofactor expansion along row 0."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det_ref([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def all_endomorphisms_brute(order, table, identity):
    """Every self-map preserving multiplication, by full n^n enumeration."""
    found = []
    for img in itertools.product(range(order), repeat=order):
        if img[identity] != identity:
            continue
        if all(
            img[table[x][y]] == table[img[x]][img[y]]
            for x in range(order)
            for y in range(order)
        ):
            found.append(img)
    return found


# --- reference endomorphism search: build every candidate, then sort ---------


def verified_endomorphism(G, image):
    """The Endomorphism with this image, after checking every product: raises
    ValueError unless the map fixes the identity and respects multiplication."""
    from seqlab.algebraic import Endomorphism

    image = tuple(image)
    if len(image) != G.order:
        raise ValueError("image must assign every element")
    if image[G.identity] != G.identity:
        raise ValueError("endomorphism must fix the identity")
    for x in range(G.order):
        for y in range(G.order):
            if image[G.table[x][y]] != G.table[image[x]][image[y]]:
                raise ValueError(f"not multiplicative at ({x},{y})")
    return Endomorphism(image)


def enumerate_endomorphisms_ref(G):
    """Every endomorphism of G, all candidates built first, sorted by image."""
    from seqlab.algebraic import Endomorphism, _extend_from_generators

    gens = G.generating_set()
    if not gens:  # trivial group
        return [Endomorphism((G.identity,))]
    found = []
    for images in itertools.product(range(G.order), repeat=len(gens)):
        image = _extend_from_generators(G, gens, images)
        if image is None:
            continue
        try:
            found.append(verified_endomorphism(G, image))
        except ValueError:
            continue
    found.sort(key=lambda t: t.image)
    return found


def fix_counts_ref(G, theta, N):
    """``fix_counts`` by composed powers: theta^n as an |G|-tuple, its fixed
    points counted, and the counts read off the cycle once a power repeats."""
    from seqlab.realizability import Sequence1

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


def generating_set_ref(G):
    """``generating_set`` with every span recomputed from scratch as the
    closure under products on both sides, all pairs at a time."""
    gens: list[int] = []
    span = {G.identity}
    while len(span) < G.order:
        x = min(i for i in range(G.order) if i not in span)
        gens.append(x)
        span = _closure_ref(G, span | {x})
    return gens


def _closure_ref(G, seed):
    span = set(seed) | {G.identity}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for y in list(span):
            for z in (G.table[x][y], G.table[y][x]):
                if z not in span:
                    span.add(z)
                    frontier.append(z)
    return span


def find_realizing_endomorphism_ref(G, target, endos=None):
    """First endomorphism of the full sorted list realizing the target, or None.

    ``endos`` is the reference enumeration of G when it is already at hand.
    """
    from seqlab.algebraic import fix_counts

    for theta in endos if endos is not None else enumerate_endomorphisms_ref(G):
        if fix_counts(G, theta, len(target)).values == target.values:
            return theta
    return None


# --- reference matrix construction: unit condition checked at every n < q-1 --


def construct_matrix_ref(p, m):
    """The pair (A, B) built as ``construct_matrix`` does, verified the long way:
    the identity A^(q-1) = I + pB recomputed exactly, and det(A^n - I) mod p
    taken at each of the q-2 exponents 0 < n < q-1."""
    from seqlab.algebraic import _poly_mul, _poly_rem, field_generator
    from seqlab.matrices import IntMatrix

    f, g = field_generator(p, m)
    q = p**m
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
    if A ** (q - 1) != I + p * B:
        raise RuntimeError(f"construct_matrix({p},{m}): A^(q-1) != I + pB")
    step = A.mod(p)
    power = I
    for n in range(1, q - 1):
        power = (power * step).mod(p)
        if (power - I).det() % p == 0:
            raise RuntimeError(
                f"construct_matrix({p},{m}): det(A^{n} - I) = 0 mod {p}"
            )
    return A, B


def torsion_fix_counts_ref(A, c, p, N):
    """``torsion_fix_counts`` the exact way: det(A^(cn) - I) taken exactly,
    with entries growing with c*n, and its p-part stripped one p at a time."""
    from seqlab.errors import DegeneratePolynomialError
    from seqlab.matrices import IntMatrix
    from seqlab.realizability import Sequence1

    step = A**c
    I = IntMatrix.identity(A.n)
    power = I
    values = []
    for n in range(1, N + 1):
        power = power * step
        d = abs((power - I).det())
        if d == 0:
            raise DegeneratePolynomialError(n)
        part = 1
        while d % p == 0:
            d //= p
            part *= p
        values.append(part)
    return Sequence1(tuple(values), f"torsion-fix(c={c},p={p})")


def associativity_failure_ref(table):
    """The least triple (x, y, z) with (xy)z != x(yz), or None: all |G|^3 tried."""
    n = len(table)
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return x, y, z
    return None


# --- reference prime classification: one prime and one term at a time -------


def _odd_prime_ref(q):
    if q < 3 or any(q % d == 0 for d in range(2, q)):
        raise ValueError(f"odd prime expected, got {q}")


def classify_bernoulli_ref(q, t):
    """Least k <= (q-3)/2 with q | t_k, found by trying each k in turn."""
    from seqlab.errors import DepthError
    from seqlab.primes import IRREGULAR, REGULAR, Regularity

    _odd_prime_ref(q)
    bound = (q - 3) // 2
    if len(t) < bound:
        raise DepthError(f"need numerators up to {bound}, table has {len(t)}")
    for k in range(1, bound + 1):
        if t[k] % q == 0:
            return Regularity(IRREGULAR, k)
    return Regularity(REGULAR)


def classify_euler_ref(q, e):
    """Least n < (q-1)/2 with q | e_n (irregular), else the least n <= len(e)
    (weak), else strong up to len(e), each found by trying every n in turn."""
    from seqlab.errors import DepthError
    from seqlab.primes import (
        IRREGULAR, NOT_APPLICABLE, REGULAR, STRONG_UP_TO, WEAK, EulerStrength, Regularity,
    )

    _odd_prime_ref(q)
    bound = (q - 1) // 2
    depth = len(e)
    if depth < bound:
        raise DepthError(f"depth {depth} < (q-1)/2 = {bound}")
    for n in range(1, bound):
        if e[n] % q == 0:
            return Regularity(IRREGULAR, n), EulerStrength(NOT_APPLICABLE)
    for n in range(bound, depth + 1):
        if e[n] % q == 0:
            return Regularity(REGULAR), EulerStrength(WEAK, witness=n)
    return Regularity(REGULAR), EulerStrength(STRONG_UP_TO, bound=depth)


def scan_primes_ref(kind, q_max, depth):
    """Every prime <= q_max classified by the references above, with 2 put in
    by hand (regular; strong for Euler, as every e_n is odd)."""
    from seqlab.classical import derived_bernoulli, sequence_e
    from seqlab.primes import (
        BERNOULLI, REGULAR, STRONG_UP_TO, EulerStrength, PrimeClassification, Regularity,
    )

    out = []
    if kind == BERNOULLI:
        t = derived_bernoulli(depth).numerators
        for q in primes_by_trial(2, q_max):
            status = Regularity(REGULAR) if q == 2 else classify_bernoulli_ref(q, t)
            out.append(PrimeClassification(q, depth, status))
    else:
        e = sequence_e(depth)
        for q in primes_by_trial(2, q_max):
            if q == 2:
                status, strength = Regularity(REGULAR), EulerStrength(STRONG_UP_TO, bound=depth)
            else:
                status, strength = classify_euler_ref(q, e)
            out.append(PrimeClassification(q, depth, euler_status=status, euler_strength=strength))
    return out


def numerator_local_status_ref(q, N):
    """The monotone verdict of t's q-part.  Regular q: check q divides no t_n,
    n <= N.  Irregular q with witness k: the first multiple m of k whose q-part
    is below that of t_k."""
    from seqlab.classical import derived_bernoulli
    from seqlab.errors import DepthError
    from seqlab.primes import REGULAR
    from seqlab.realizability import Verdict

    _odd_prime_ref(q)
    if N < 1:
        raise ValueError(f"depth must be >= 1, got {N}")
    t = derived_bernoulli(max(N, (q - 3) // 2)).numerators
    status = classify_bernoulli_ref(q, t)
    if status.status == REGULAR:
        for n in range(1, N + 1):
            if t[n] % q == 0:
                raise RuntimeError(f"regular prime {q} divides numerator at {n}: engine defect")
        return Verdict.pass_up_to(N)
    k = status.witness
    part_k = p_part_sequence_ref((t[k],), q)[0]
    for m in range(2 * k, N + 1, k):
        part_m = p_part_sequence_ref((t[m],), q)[0]
        if part_k > part_m:
            return Verdict.fail_at(m, part_m, N, divisor=k, divisor_value=part_k)
    raise DepthError(f"no monotonicity witness for irregular prime {q} within N={N}")


def weak_euler_profile_check_ref(q, e):
    """The first n where the q-part of e_n is not q^(1+ord_q(n)) at a multiple
    of (q-1)/2, or not 1 elsewhere, comparing every term."""
    from seqlab.realizability import Verdict

    _odd_prime_ref(q)
    parts = p_part_sequence_ref(e.values, q)
    N = len(parts)
    half = (q - 1) // 2
    for n, actual in enumerate(parts, start=1):
        expected = q * p_part_sequence_ref((n,), q)[0] if n % half == 0 else 1
        if actual != expected:
            return Verdict.fail_at(n, actual, N, expected=expected)
    return Verdict.pass_up_to(N)


# --- reference builtin loads: the public readers, composed step by step ----


def load_builtin_ref(name, depth, shift, scale, label):
    """(values, label) of a builtin survey prefix, or (ValueError, message):
    the public reader's result to depth + shift terms (200 without a depth),
    scaled, relabelled, shifted by ``realizability.shift`` and cut to the
    depth (at most 400 terms without one)."""
    from seqlab.classical import derived_bernoulli, sequence_e
    from seqlab.realizability import Sequence1, shift as shift_sequence

    N = 200 if depth is None else depth + shift
    if name == "e":
        seq = sequence_e(N)
    else:
        der = derived_bernoulli(N)
        seq = {"t": der.numerators, "b": der.denominators, "d": der.clausen_denominators}[name]
    if scale != 1:
        seq = Sequence1(tuple(scale * v for v in seq.values), f"{scale}x{seq.label}")
    if label is not None:
        seq = Sequence1(seq.values, label)
    try:
        seq = shift_sequence(seq, shift)
    except ValueError as exc:
        return ValueError, str(exc)
    cut = seq.values[: min(len(seq), 400) if depth is None else depth]
    return cut, seq.label or name


# --- reference congruence grids: one full check per grid point, no cut-off --


def kummer_check_ref(p, r, m, n, table=None):
    """B_{2m}/2m = B_{2n}/2n mod p^r, each side reduced on its own."""
    from seqlab.arith import euler_phi, is_prime
    from seqlab.classical import bernoulli_upto
    from seqlab.congruences import _compare

    if p < 3 or not is_prime(p):
        raise ValueError(f"odd prime expected, got {p}")
    if not 1 <= r <= 2 * n - 1 <= 2 * m - 1:
        raise ValueError(f"need 1 <= r <= 2n-1 <= 2m-1, got r={r}, n={n}, m={m}")
    if (2 * n) % (p - 1) == 0:
        raise ValueError(
            f"p-1 = {p - 1} divides 2n = {2 * n}: von Staudt-Clausen pole, check rejected"
        )
    if (2 * m - 2 * n) % euler_phi(p**r) != 0:
        raise ValueError(f"2m and 2n not congruent mod phi({p}^{r})")
    if table is None:
        table = bernoulli_upto(m)
    return _compare(
        f"Kummer: B_{2 * m}/{2 * m} = B_{2 * n}/{2 * n} mod {p}^{r}",
        p**r,
        table.B(2 * m) / (2 * m),
        table.B(2 * n) / (2 * n),
    )


def young_check_ref(p, n, table=None):
    """(g^{2n}-1)B_{2n}/2n = (g^{2k}-1)B_{2k}/2k mod p^ord_p(n), g found per call."""
    from seqlab.arith import is_prime, p_adic
    from seqlab.classical import bernoulli_upto
    from seqlab.congruences import _compare, good_primitive_root

    if p < 3 or not is_prime(p):
        raise ValueError(f"odd prime expected, got {p}")
    if (2 * n) % (p - 1) != 0:
        raise ValueError(f"need p-1 | 2n, got p={p}, n={n}")
    r = p_adic(n, p).ord
    if r < 1:
        raise ValueError(f"need ord_{p}({n}) >= 1")
    k = n // p
    g = good_primitive_root(p)
    if table is None:
        table = bernoulli_upto(n)
    lhs = (Fraction(g) ** (2 * n) - 1) * table.B(2 * n) / (2 * n)
    rhs = (Fraction(g) ** (2 * k) - 1) * table.B(2 * k) / (2 * k)
    return _compare(
        f"Young: (g^{2 * n}-1)B_{2 * n}/{2 * n} = (g^{2 * k}-1)B_{2 * k}/{2 * k} mod {p}^{r}, g={g}",
        p**r,
        lhs,
        rhs,
    )


def run_oracle_grids_ref(max_prime=31, max_r=3, upto=60, family="all"):
    """{family: [checks...]} over every prime <= max_prime and r <= max_r."""
    from seqlab.arith import euler_phi, is_prime
    from seqlab.classical import bernoulli_upto
    from seqlab.congruences import (
        euler_additive_check, lemma_five_check, staying_alive_check, wagstaff_identity_check,
    )

    families = ("kummer", "young", "five", "staying-alive", "wagstaff", "euler-additive")
    if family != "all" and family not in families:
        raise ValueError(f"unknown family {family!r}")
    wanted = families if family == "all" else (family,)
    btable = bernoulli_upto(upto)
    odd_primes = [p for p in range(3, max_prime + 1) if is_prime(p)]
    out = {}

    if "kummer" in wanted:
        checks = []
        for p in odd_primes:
            for r in range(1, max_r + 1):
                half_phi = euler_phi(p**r) // 2
                for n in range(1, upto + 1):
                    if r > 2 * n - 1 or (2 * n) % (p - 1) == 0:
                        continue
                    for m in range(n + half_phi, upto + 1, half_phi):
                        checks.append(kummer_check_ref(p, r, m, n, btable))
        out["kummer"] = checks

    if "young" in wanted:
        checks = []
        for p in odd_primes:
            for n in range(p, upto + 1, p):
                if (2 * n) % (p - 1) == 0:
                    checks.append(young_check_ref(p, n, btable))
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
                for b in range(1, upto // p**r + 1):
                    if b % p != 0:
                        checks.append(euler_additive_check(p, r, b))
        out["euler-additive"] = checks

    return out
