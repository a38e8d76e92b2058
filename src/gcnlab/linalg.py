"""Fraction-free exact linear algebra over the rationals.

Rows hold ints or Fractions; each is cleared to integers up front by
:func:`~gcnlab.geometry._clear` (an elementary row operation, so ranks
and solution sets are untouched) and elimination then follows the
Bareiss two-step recurrence: every intermediate entry is a minor of the
scaled matrix, so the divisions are exact and integer growth stays
polynomial instead of exponential.  A failed exact division would mean the
invariant broke, so it raises immediately rather than rounding.

Solutions are read off the echelon rows by one integer back-substitution,
``_back_substitute``, scaled by the last pivot d (up to sign the
determinant of the pivot block), which makes every unknown an integer;
:func:`solve_square` and :func:`nullspace_basis` divide by d once per entry
at the end.  :func:`unit_consistency` decides every ``A x = e_k`` from an
integer basis of A's left kernel: ``e_k`` lies in the column space exactly
when every left-kernel vector is 0 at k.  It finds A's pivot columns
modulo a fixed prime, in the elimination :func:`rank_mod_p` runs, takes
the kernel of those columns alone, and proves it is A's kernel by checking
it against the other columns before it answers.

The modular elimination, :func:`_pivots_mod_p`, holds each row as one
int of fixed-width slots, one slot per column.  A row update is one
big-int multiply-add by the reduced pivot row, and the other rows are not
reduced between updates (delayed modular reduction, as in Dumas, Giorgi
and Pernet, "Dense linear algebra over word-size prime fields", ACM TOMS
35(3), 2008).  A slot of ``61 + s.bit_length()`` bits for s rows cannot
carry into the next; the proof is in the function's docstring.

The prime :data:`PRIME` is below 2^30, so every residue is a one-digit
CPython int and every product of two stays below 2^60.  No answer depends
on its size: a modular rank is only ever used to prove full rank, and
modular pivot columns are checked exactly before they are trusted.

Solutions and kernel vectors are Fractions, and :mod:`fractions` is
imported when the first one is made, so a rank or a consistency verdict
never loads it.  No function mutates its input.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .geometry import _clear, _fraction

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Union

    Row = Sequence[Union[int, Fraction]]


def _integer_rows(rows: Sequence[Row]) -> list[list[int]]:
    return [_clear(row)[1] for row in rows]


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


#: 1073741789, the largest prime below 2^30 and the modulus of
#: :func:`rank_mod_p`.  Residues fit in one 30-bit CPython digit, so the
#: elimination multiplies small ints; a larger prime would only make a
#: fallback to exact work rarer, never change an answer.
PRIME = 1073741789


def _pivots_mod_p(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of the row echelon form of integer rows modulo :data:`PRIME`.

    Their minor is nonzero modulo the prime, so these columns are
    independent over Q too.  They are the columns that are not in the span
    of the columns before them, so no choice of pivot rows changes them.

    Each row is one int of fixed-width slots, and every slot is reduced
    modulo p = PRIME to start with.  Slot 0 is always the column being
    eliminated: once a column is done, every row moves one slot down.  The
    pivot row alone is unpacked, reduced and scaled by the inverse of its
    pivot to P.  Every other row R, with f its slot 0 modulo p, takes one
    big-int multiply-add, ``R += (p - f) * P``.  That makes its slot 0 a
    multiple of p, so the code skips that slot and adds ``(p - f)`` times
    the rest of P to the row moved down.  No other slot is ever reduced.

    No slot carries into the next.  A slot starts below p, and one update
    adds ``(p - f) * P_j`` with ``p - f`` and ``P_j`` at most p - 1, so
    less than p**2 < 2**60.  A row gets at most one update per pivot
    taken from another row, so at most s - 1 for s rows, and its slots
    stay below ``s * p**2 < 2**(60 + s.bit_length())``.  The width is
    ``61 + s.bit_length()`` bits rounded up to whole bytes, so rows pack
    and unpack with ``to_bytes`` and ``int.from_bytes``.
    """
    if not rows:
        return []
    p = PRIME
    nbytes = (61 + len(rows).bit_length() + 7) // 8
    width = 8 * nbytes
    low = (1 << width) - 1
    unpack = int.from_bytes

    def pack(values, scale=1):
        """One int whose slot j holds ``values[j] * scale`` modulo p."""
        return unpack(b"".join([(v * scale % p).to_bytes(nbytes, "little") for v in values]), "little")

    ncols = len(rows[0])
    m = [pack(row) for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        for k, row in enumerate(m):
            f = (row & low) % p
            if f:
                break
        else:
            m = [row >> width for row in m]
            continue
        raw = m.pop(k).to_bytes((ncols - c) * nbytes, "little")
        # the pivot row right of column c, reduced and scaled so its pivot is 1
        pivot = pack([unpack(raw[i : i + nbytes], "little") for i in range(nbytes, len(raw), nbytes)],
                     pow(f, -1, p))
        m = [(row >> width) + (p - g) * pivot if (g := (row & low) % p) else row >> width
             for row in m]
        pivots.append(c)
        if not m:
            break
    return pivots


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows modulo :data:`PRIME`; never above their rank over Q.

    A minor that is nonzero modulo the prime is a nonzero integer, so full
    rank here proves full rank over Q.  A deficiency proves nothing: the
    prime may divide every maximal minor, and only :func:`rank` decides.
    The elimination is the one :func:`unit_consistency` takes its pivot
    columns from.
    """
    return len(_pivots_mod_p(rows))


def _back_substitute(
    m: list[list[int]], pivot_cols: list[int], x: list[int], rhs: Sequence[int]
) -> list[int]:
    """Solve echelon rows for the pivot unknowns of ``x``, bottom row first, in integers.

    Row r of ``m`` reads ``sum(m[r][j] * x[j]) = rhs[r]`` over the columns of
    ``x``; the entries of ``x`` off the pivot columns are given and kept.
    The caller scales ``x`` and ``rhs`` by the last pivot, so every
    division is exact.
    """
    n = len(x)
    for r in range(len(pivot_cols) - 1, -1, -1):
        pc = pivot_cols[r]
        row = m[r]
        q, rem = divmod(rhs[r] - sum(map(mul, row[pc + 1 : n], x[pc + 1 :])), row[pc])
        if rem:
            raise ArithmeticError("fraction-free back-substitution lost exactness")
        x[pc] = q
    return x


def _last_pivot(m: list[list[int]], pivot_cols: list[int]) -> int:
    return m[len(pivot_cols) - 1][pivot_cols[-1]] if pivot_cols else 1


def _kernel(m: list[list[int]], pivot_cols: list[int], ncols: int) -> tuple[int, list[list[int]]]:
    """The last pivot d and an integer basis of the right kernel of echelon rows.

    Free column f gives d times the vector that is 1 at f and 0 at the
    other free columns.
    """
    d = _last_pivot(m, pivot_cols)
    zeros = [0] * len(pivot_cols)
    pivots = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [0] * ncols
            x[f] = d
            basis.append(_back_substitute(m, pivot_cols, x, zeros))
    return d, basis


def _left_kernel(cols: list[tuple[int, ...]], which: Sequence[int], s: int) -> list[list[int]]:
    """An integer basis of the y of length s with ``y . cols[c] == 0`` for every c in ``which``."""
    m, pivot_cols = _echelon([list(cols[c]) for c in which])
    return _kernel(m, pivot_cols, s)[1]


def unit_consistency(rows: Sequence[Row]) -> list[bool]:
    """For each k, whether ``A x = e_k`` has a solution.

    ``e_k`` lies in A's column space exactly when every vector of A's left
    kernel is 0 at k.  A's pivot columns modulo :data:`PRIME` are
    independent over Q; when there are as many as rows, A has full row
    rank and every system is consistent.  Otherwise the left kernel of
    those r columns comes from one elimination of their r x s transpose.
    It is A's left kernel exactly when it annihilates A's other columns
    too; if it does not (the prime divided a minor, so A's rank over Q is
    above r), the kernel is computed again from all columns.  Every
    verdict is therefore exact.
    """
    s = len(rows)
    if s == 0:
        return []
    # nothing below changes m, so rows of ints are used as they are
    m = rows if set(map(type, chain.from_iterable(rows))) <= {int} else _integer_rows(rows)
    pivots = _pivots_mod_p(m)
    if len(pivots) == s:
        return [True] * s
    cols = list(zip(*m))
    basis = _left_kernel(cols, pivots, s)
    others = set(range(len(cols))).difference(pivots)
    if any(sum(map(mul, y, cols[j])) for y in basis for j in others):
        basis = _left_kernel(cols, range(len(cols)), s)
    return [not any(y[k] for y in basis) for k in range(s)]


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
    aug = [list(rows[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    m, pivot_cols = _echelon(_integer_rows(aug))
    if len(pivot_cols) < n or pivot_cols[:n] != list(range(n)):
        return None
    d = _last_pivot(m, pivot_cols)
    Fraction = _fraction()
    solutions = []
    for t in range(len(rhs_columns)):
        x = _back_substitute(m, pivot_cols, [0] * n, [d * row[n + t] for row in m])
        solutions.append([Fraction(v, d) for v in x])
    return solutions


def nullspace_basis(rows: Sequence[Row], ncols: int | None = None) -> list[list[Fraction]]:
    """A basis of the right kernel of A; empty when A has full column rank.

    Free column f gives the vector that is 1 at f and 0 at the other free
    columns.  ``ncols`` is the width when there are no rows.
    """
    m, pivot_cols = _echelon(_integer_rows(rows))
    if m:
        ncols = len(m[0])
    d, basis = _kernel(m, pivot_cols, ncols or 0)
    Fraction = _fraction()
    return [[Fraction(v, d) for v in x] for x in basis]


def nullspace_vector(rows: Sequence[Row]) -> list[Fraction] | None:
    """A nonzero kernel vector, or None when the kernel is trivial."""
    basis = nullspace_basis(rows)
    return basis[0] if basis else None
