"""Small exact dense linear algebra over an arbitrary coefficient field.

Entries only need +, -, *, / and truthiness (nonzero test), so the helpers
work for Fraction and CyclotomicNumber alike.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    """The linear system has no unique solution."""


def _eliminate(rows, ncols: int) -> int:
    """Reduce rows in place to reduced row echelon form on the first ncols
    columns; return the number of pivots, the rank of those columns."""
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [c / inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def solve_linear(matrix, rhs):
    """Solve the square system matrix * x = rhs by Gaussian elimination."""
    n = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if any(len(row) != n + 1 for row in rows) or len(rhs) != n:
        raise ValueError("system dimensions do not match")
    found = _eliminate(rows, n)
    if found < n:
        raise SingularMatrixError(f"matrix of size {n} has rank {found}")
    return [row[n] for row in rows]


def rank(matrix) -> int:
    """Rank of an integer or rational matrix, computed over Q."""
    rows = [[Fraction(c) for c in row] for row in matrix]
    return _eliminate(rows, len(rows[0])) if rows else 0


def matmul(a, b):
    """Product of two matrices given as sequences of rows."""
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]
