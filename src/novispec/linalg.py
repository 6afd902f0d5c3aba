"""Exact linear algebra over Fraction.

`Reduction` serves the engine, membership, the dual invariant and the
pairing check of a class basis: one sparse column reduction of a filtered
boundary matrix, which keeps only the reduced columns R and their pivots.
Rows are numbered from the top of the filtration (a smaller number has a
higher action) and the pivot of a column is its first nonzero row.  Cut
down to any row prefix, the reduced columns stay reduced, so one reduction
answers the cancellation system at every action level.  Its one walk,
`reduce`, subtracts pivot columns from a vector until its top row lies past
a given row prefix or heads no reduced column, and returns the residual:
the vector is a boundary on the prefix exactly when the residual vanishes
there.  The reduction itself walks each column down the columns before it,
except a column that is reduced as it stands: empty, or with no zero
coefficient and a top row that heads no reduced column yet.  Such a column
is its own reduced column, taken without a copy or a walk (the "emergent
pairs" of Ripser), so R may share its dicts with the caller's columns;
columns are never mutated, since `reduce` copies its input.

`add_terms` is the one sparse sum of the package: chains, scalars,
quantum classes, dual functionals and reduction columns are all finite
combinations whose equal keys add and whose cancelled terms drop.

`first_inconsistent_row`, the one sparse row elimination over
{column: Fraction} rows, serves the oracle, which cross-checks the
reduction and so shares no code with it beyond `add_terms`.  It names the
first row that makes the rows before it inconsistent: for rows in
descending action, where the rows above any level are a prefix, that one
index answers every level.
"""

from __future__ import annotations

import math
from fractions import Fraction


def first_inconsistent_row(rows, rhs):
    """The least k with rows[:k+1] infeasible, or None if A x = b is feasible.

    `rows` is a list of sparse rows {column: coefficient} and `rhs` the list
    of their right-hand sides.  Rows are eliminated in the order given; the
    pivot of a row is its smallest column left, and a pivot row is kept as
    it reduced, unscaled.  The elimination stops at the first row that
    reduces to zero against the rows before it with a nonzero right-hand
    side: `rows[:k]` is feasible, so the leading rows are solvable exactly
    when they number at most k.
    """
    echelon = {}  # pivot column -> (pivot row, right-hand side)
    for k, (row, b) in enumerate(zip(rows, rhs)):
        r = {c: v for c, v in row.items() if v}
        while r and (p := min(r)) in echelon:
            pivot_row, pivot_b = echelon[p]
            f = Fraction(-r[p], pivot_row[p])  # exact on integer input too
            add_terms(r, ((c, f * v) for c, v in pivot_row.items()))
            b += f * pivot_b
        if r:
            echelon[p] = (r, b)
        elif b:
            return k
    return None


def add_terms(y, pairs):
    """Add (key, value) pairs into the sparse dict y and return y.

    Values of equal keys sum; an entry whose sum cancels is dropped.
    """
    for k, v in pairs:
        s = y.get(k)
        s = v if s is None else s + v
        if s:
            y[k] = s
        else:
            y.pop(k, None)
    return y


class Reduction:
    """Column reduction of sparse columns {row: Fraction}, left to right.

    Each column is walked down the pivots of the reduced columns before it
    (`reduce` with no row bound); a column left nonzero heads its top row.
    `R[j]` is the reduced column and `pivots` maps each pivot row to the
    one nonzero reduced column it heads.  An empty column, or one with no
    zero coefficient whose top row heads nothing yet, is reduced as it
    stands: `R[j]` is then the caller's own dict, with no copy or walk, so
    neither the caller nor a reader of `R` may mutate it.
    """

    def __init__(self, columns):
        R, pivots = self.R, self.pivots = [], {}
        for j, col in enumerate(columns):
            if col and ((p := min(col)) in pivots or not all(col.values())):
                if col := self.reduce(col):
                    pivots[min(col)] = j
            elif col:
                pivots[p] = j  # reduced as it stands: R[j] is the column itself
            R.append(col)

    def reduce(self, b, k=math.inf):
        """The residual of the sparse vector b walked down the pivots.

        While the top row p of the residual is < k and heads a reduced
        column, that column's multiple cancelling row p is subtracted.  The
        residual r = b - D x, for some x, has its top row at the first
        row >= k or at the first row with no pivot: b is a boundary on the
        rows < k exactly when r vanishes there.
        """
        r = {i: c for i, c in b.items() if c}
        while r and (p := min(r)) < k and (j := self.pivots.get(p)) is not None:
            f = -r[p] / self.R[j][p]
            add_terms(r, ((i, f * c) for i, c in self.R[j].items()))
        return r
