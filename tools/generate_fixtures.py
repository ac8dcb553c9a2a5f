"""Regenerate the bundled fixtures under src/seqlab/fixtures/.

Every b-file is computed exactly from first principles (closed forms or
recurrences); the first entry of each file is pinned to the first term the
experiments test, with the sequence's own index for that term as the offset.
Run from the repository root:

    python3 tools/generate_fixtures.py           # overwrite every fixture
    python3 tools/generate_fixtures.py --check   # compare only, write nothing

``--check`` regenerates every fixture in memory and exits 1, naming each file
whose bundled text differs (or is missing), and 0 when all match.
"""

from __future__ import annotations

import argparse
import itertools
import sys

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(300_000)
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqlab.classical import bernoulli_upto, lehmer_pierce, sequence_e  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "seqlab" / "fixtures"


# --- sequence generators ----------------------------------------------------


def lucas(n: int) -> int:
    # L(1) = 1, L(2) = 3
    a, b = 2, 1  # L(0), L(1)
    for _ in range(n):
        a, b = b, a + b
    return a


def domb(n: int) -> int:
    return sum(
        comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * (n - k), n - k)
        for k in range(n + 1)
    )


def apery1(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def apery2(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def quadrinomials(count: int) -> list[int]:
    # a_n = [x^n] (1 + x + x^2 + x^3)^n for n = 1..count
    out = []
    poly = [1]
    base = [1, 1, 1, 1]
    for n in range(1, count + 1):
        new = [0] * (len(poly) + 3)
        for i, c in enumerate(poly):
            if c:
                for j in range(4):
                    new[i + j] += c
        poly = new
        out.append(poly[n])
    return out


def fibonacci(n: int) -> int:
    # fast doubling
    def fd(k: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        a, b = fd(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        if k & 1:
            return d, c + d
        return c, d

    return fd(n)[0]


def catalan_larcombe_french(count: int) -> list[int]:
    # n^2 P_n = 8(3n^2 - 3n + 1) P_{n-1} - 128 (n-1)^2 P_{n-2}
    p0, p1 = 1, 8
    out = [p1]
    for n in range(2, count + 1):
        num = 8 * (3 * n * n - 3 * n + 1) * p1 - 128 * (n - 1) ** 2 * p0
        q, r = divmod(num, n * n)
        assert r == 0, f"CLF recurrence not exact at {n}"
        p0, p1 = p1, q
        out.append(p1)
    return out


def delannoy(n: int) -> int:
    return sum(comb(n, k) * comb(n + k, k) for k in range(n + 1))


# --- b-files ----------------------------------------------------------------


def bfile(a_number: str, start_index: int, values, note: str) -> tuple[str, str]:
    """(file name, text) of one b-file."""
    lines = [f"# {a_number}: {note}", "# generated by tools/generate_fixtures.py"]
    for i, v in enumerate(values, start=start_index):
        lines.append(f"{i} {v}")
    return f"b{a_number[1:]}.txt", "\n".join(lines) + "\n"


def generate_bfiles():
    yield bfile("A000032", 1, [lucas(n) for n in range(1, 401)],
                "Lucas numbers from L(1) = 1 (L(0) = 2 dropped)")
    yield bfile("A002895", 1, [domb(n) for n in range(1, 401)],
                "Domb numbers from a(1) = 4 (a(0) = 1 dropped)")
    yield bfile("A005259", 0, [apery1(n) for n in range(0, 400)],
                "Apery numbers sum C(n,k)^2 C(n+k,k)^2, from a(0) = 1")
    yield bfile("A005258", 0, [apery2(n) for n in range(0, 400)],
                "Apery numbers sum C(n,k)^2 C(n+k,k), from a(0) = 1")
    yield bfile("A005725", 1, quadrinomials(400),
                "quadrinomial coefficients [x^n](1+x+x^2+x^3)^n, from a(1) = 1")
    yield bfile("A054783", 1, [fibonacci(n * n) for n in range(1, 201)],
                "Fibonacci along the squares F(n^2), from n = 1 (F(0) = 0 dropped)")
    yield bfile("A053175", 1, catalan_larcombe_french(400),
                "Catalan-Larcombe-French numbers from a(1) = 8 (a(0) = 1 dropped)")
    yield bfile("A001850", 0, [delannoy(n) for n in range(0, 400)],
                "central Delannoy numbers from a(0) = 1")

    e = sequence_e(120)
    yield bfile("A000364", 1, list(e.values),
                "positive Euler numbers |E(2n)| from n = 1 (|E_0| = 1 dropped)")

    table = bernoulli_upto(320)
    nums, dens = [], []
    for n in range(1, 321):
        f = table.B(2 * n) / (2 * n)
        nums.append(f.numerator)
        dens.append(f.denominator)
    yield bfile("A001067", 1, nums,
                "numerator of B(2n)/(2n), signed")
    yield bfile("A006953", 1, dens,
                "denominator of B(2n)/(2n)")

    yield bfile("A010122", 1,
                list(itertools.islice(itertools.cycle([1, 1, 1, 1, 6]), 60)),
                "periodic sequence (1,1,1,1,6), period 5")
    yield bfile("A001945", 1, list(lehmer_pierce([-1, -1, 0, 1], 200).values),
                "|det(M^n - I)| for the companion matrix of x^3 - x - 1")


# --- Cayley tables ----------------------------------------------------------


def cyclic_table(n: int):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [str(i) for i in range(n)]
    return table, 0, names


def symmetric3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]

    def perm_name(p):
        if p == (0, 1, 2):
            return "e"
        moved = [x for x in range(3) if p[x] != x]
        if len(moved) == 2:
            return f"({moved[0]}{moved[1]})"
        # 3-cycle starting at 0
        return f"(0{p[0]}{p[p[0]]})"

    return table, index[(0, 1, 2)], [perm_name(p) for p in perms]


def dihedral8_table():
    # elements u^a v^b, index a + 4b; u^4 = v^2 = e, v u = u^-1 v
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        if b == 0:
            return (a + c) % 4 + 4 * d
        return (a - c) % 4 + 4 * ((1 + d) % 2)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = ["e", "u", "u2", "u3", "v", "uv", "u2v", "u3v"]
    return table, 0, names


def elementary_abelian8_table():
    table = [[x ^ y for y in range(8)] for x in range(8)]
    names = [format(i, "03b") for i in range(8)]
    return table, 0, names


def quaternion8_table():
    # indices: 1, -1, i, -i, j, -j, k, -k
    axes = ["1", "i", "j", "k"]
    rules = {
        ("1", "1"): (1, "1"),
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def mul(x, y):
        sx, ax = 1 - 2 * (x % 2), axes[x // 2]
        sy, ay = 1 - 2 * (y % 2), axes[y // 2]
        if ax == "1":
            sr, a = 1, ay
        elif ay == "1":
            sr, a = 1, ax
        else:
            sr, a = rules[(ax, ay)]
        s = sr * sx * sy
        return axes.index(a) * 2 + (0 if s > 0 else 1)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return table, 0, names


def cayley(name: str, builder, note: str) -> tuple[str, str]:
    """(path under the fixtures directory, text) of one Cayley table."""
    table, identity, names = builder if isinstance(builder, tuple) else builder()
    n = len(table)
    lines = [f"# {name}: {note}", str(n), str(identity)]
    for row in table:
        lines.append(" ".join(str(v) for v in row))
    lines.append(" ".join(names))
    return f"groups/{name}.cayley", "\n".join(lines) + "\n"


def generate_groups():
    yield cayley("z6", cyclic_table(6), "cyclic group of order 6")
    yield cayley("s3", symmetric3_table, "symmetric group on 3 letters")
    yield cayley("d8", dihedral8_table, "dihedral group of order 8")
    yield cayley("c2c2c2", elementary_abelian8_table,
                 "elementary abelian group (Z/2)^3")
    yield cayley("q8", quaternion8_table, "quaternion group of order 8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the regenerated fixtures with the bundled ones; write nothing")
    args = parser.parse_args(argv)
    differing = []
    for name, text in itertools.chain(generate_bfiles(), generate_groups()):
        path = FIXTURES / name
        if args.check:
            if not path.is_file() or path.read_text() != text:
                differing.append(name)
                print(f"differs: {name}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {name}")
    if args.check:
        print(f"{len(differing)} of the fixtures differ" if differing else "all fixtures match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
