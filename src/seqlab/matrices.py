"""Square integer matrices with exact arithmetic (no floats anywhere)."""

from __future__ import annotations


class IntMatrix:
    """Immutable square matrix over the integers.

    Supports +, -, *, integer powers (also mod m, by ``pow``), an exact
    determinant via fraction-free (Bareiss) elimination, so entries may grow
    without bound.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("IntMatrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check(other)
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check(other)
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[a * other for a in row] for row in self.rows])
        self._check(other)
        cols = list(zip(*other.rows))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.rows
            ]
        )

    __rmul__ = __mul__

    def __pow__(self, k: int, m: int | None = None) -> "IntMatrix":
        """self**k by square and multiply; ``pow(M, k, m)`` reduces every
        product mod m, so its entries stay below m."""
        if k < 0:
            raise ValueError("only non-negative matrix powers are supported")

        def reduce(M: IntMatrix) -> IntMatrix:
            return M if m is None else M.mod(m)

        result = reduce(IntMatrix.identity(self.n))
        base = reduce(self)
        while k:
            if k & 1:
                result = reduce(result * base)
            k >>= 1
            if k:
                base = reduce(base * base)
        return result

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix([[a % m for a in row] for row in self.rows])

    def divide_exact(self, c: int) -> "IntMatrix":
        """Divide every entry by c, requiring exactness."""
        for row in self.rows:
            for a in row:
                if a % c != 0:
                    raise ValueError(f"entry {a} not divisible by {c}")
        return IntMatrix([[a // c for a in row] for row in self.rows])

    def det(self) -> int:
        """Exact determinant by Bareiss fraction-free elimination."""
        n = self.n
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def _check(self, other: "IntMatrix") -> None:
        if not isinstance(other, IntMatrix):
            raise TypeError("expected IntMatrix")
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")


def companion_matrix(coeffs: list[int]) -> IntMatrix:
    """Companion matrix of a monic polynomial given by ascending coefficients.

    ``coeffs`` is [c_0, c_1, ..., c_{d-1}, 1] for x^d + c_{d-1} x^{d-1} + ... + c_0.
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic (leading coefficient 1)")
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return IntMatrix(rows)


def _dets_of_powers_minus_identity(M: IntMatrix, N: int) -> list[int]:
    """Exact det(M^n - I) for n = 1..N.

    Raises DegeneratePolynomialError(n) at the first n whose determinant
    vanishes: M^n then fixes a nonzero vector.
    """
    I = IntMatrix.identity(M.n)
    power = I
    dets = []
    for n in range(1, N + 1):
        power = power * M
        d = (power - I).det()
        if d == 0:
            from .errors import DegeneratePolynomialError  # loaded only to raise

            raise DegeneratePolynomialError(n)
        dets.append(d)
    return dets
