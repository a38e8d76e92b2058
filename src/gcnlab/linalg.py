"""Fraction-free exact linear algebra over the rationals.

Rows are rescaled to integers up front (an elementary row operation, so
ranks and solution sets are untouched) and elimination then follows the
Bareiss two-step recurrence: every intermediate entry is a minor of the
scaled matrix, so the divisions are exact and integer growth stays
polynomial instead of exponential.  A failed exact division would mean the
invariant broke, so it raises immediately rather than rounding.
:func:`rank_mod_p` alone works modulo a fixed prime: it is a lower bound
on the rank, so it can prove full rank cheaply but never deny it.

All functions take sequences of rows of Fractions (or ints) and none of
them mutate their inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Row = Sequence[Fraction]


def _integer_rows(rows: Sequence[Row]) -> list[list[int]]:
    out = []
    for row in rows:
        scaled = [Fraction(v) for v in row]
        m = lcm(*(v.denominator for v in scaled)) if scaled else 1
        out.append([int(v * m) for v in scaled])
    return out


def _echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon form; returns (matrix, pivot columns)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, ncols):
                num = piv * row_i[j] - mic * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[c] = 0
        prev = piv
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def rank(rows: Sequence[Row]) -> int:
    if not rows:
        return 0
    _, pivot_cols = _echelon(_integer_rows(rows))
    return len(pivot_cols)


#: The Mersenne prime 2^61 - 1, the modulus of :func:`rank_mod_p`.
PRIME = (1 << 61) - 1


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows modulo :data:`PRIME`; never above their rank over Q.

    A minor that is nonzero modulo the prime is a nonzero integer, so full
    rank here proves full rank over Q.  A deficiency proves nothing: the
    prime may divide every maximal minor, and only :func:`rank` decides.
    """
    p = PRIME
    m = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        pivot = [v * inv % p for v in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], pivot)]
        r += 1
        if r == len(m):
            break
    return r


def unit_consistency(rows: Sequence[Row]) -> list[bool]:
    """For each k, whether ``A x = e_k`` has a solution.

    Decided by comparing augmented against plain rank; all comparisons
    share one elimination of ``[A | I]``.  A unit column is consistent
    exactly when its transform vanishes on the rows below A's rank (further pivoting inside that block only re-mixes
    its row span, which leaves the all-zero test untouched).  Row scaling
    during integerization multiplies the identity part by an invertible
    diagonal, which changes no rank.
    """
    s = len(rows)
    if s == 0:
        return []
    ncols_a = len(rows[0])
    aug = [list(row) + [1 if j == i else 0 for j in range(s)] for i, row in enumerate(rows)]
    m, pivot_cols = _echelon(_integer_rows(aug))
    rank_a = sum(1 for c in pivot_cols if c < ncols_a)
    return [
        all(m[r][ncols_a + k] == 0 for r in range(rank_a, s)) for k in range(s)
    ]


def solve_square(rows: Sequence[Row], rhs_columns: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Solve ``A x = b`` for a square A and several right-hand sides at once.

    Returns one solution vector per rhs column, or None when A is singular.
    Sharing a single elimination across all right-hand sides is what makes
    computing every fundamental polynomial of a node set affordable.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if any(len(col) != n for col in rhs_columns):
        raise ValueError("rhs columns must have one entry per row")
    k = len(rhs_columns)
    aug = [list(rows[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    m, pivot_cols = _echelon(_integer_rows(aug))
    if len(pivot_cols) < n or pivot_cols[:n] != list(range(n)):
        return None
    solutions = []
    for t in range(k):
        x: list[Fraction] = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            acc = Fraction(m[r][n + t])
            row = m[r]
            for j in range(r + 1, n):
                if row[j] and x[j]:
                    acc -= row[j] * x[j]
            x[r] = acc / row[r]
        solutions.append(x)
    return solutions


def nullspace_basis(rows: Sequence[Row], ncols: int | None = None) -> list[list[Fraction]]:
    """A basis of the right kernel of A; empty when A has full column rank."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for f in range(ncols):
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            basis.append(v)
        return basis
    m, pivot_cols = _echelon(_integer_rows(rows))
    ncols = len(m[0])
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[r]
            if pc > f:
                continue
            acc = Fraction(0)
            row = m[r]
            for j in range(pc + 1, ncols):
                if row[j] and v[j]:
                    acc -= row[j] * v[j]
            v[pc] = acc / row[pc]
        basis.append(v)
    return basis


def nullspace_vector(rows: Sequence[Row]) -> list[Fraction] | None:
    """A nonzero kernel vector, or None when the kernel is trivial."""
    basis = nullspace_basis(rows)
    return basis[0] if basis else None
