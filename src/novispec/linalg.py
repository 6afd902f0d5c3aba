"""Exact linear algebra over Fraction.

`Reduction` serves the engine, membership, the dual invariant and the
pairing check of a class basis: one sparse column reduction R = D V of a
filtered boundary matrix, with V unitriangular.  Rows are numbered from
the top of the filtration (row 0 has the highest action) and the pivot
of a column is its first nonzero row.  Cut down to any row prefix, the
reduced columns stay reduced, so one reduction answers the cancellation
system at every action level; and the zero reduced columns carry a
kernel basis of every column prefix.  `Reduction.solve` returns the
solution with its residual r = b - D x, so a caller reads the cancelled
vector off the reduction itself.

`add_terms` is the one sparse sum of the package: chains, scalars,
quantum classes, dual functionals and reduction columns are all finite
combinations whose equal keys add and whose cancelled terms drop.

`_eliminate`, the one sparse row elimination over {column: Fraction} rows,
serves the oracle, which cross-checks the reduction and so shares no code
with it beyond `add_terms`.  `solve` back-substitutes one solution, and
`first_inconsistent_row` names the first row that makes the rows before it
inconsistent: for rows in descending action, where the rows above any
level are a prefix, that one index answers every level.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(rows, rhs):
    """(echelon, k): row elimination of A x = b, stopped at its first
    inconsistent row k, or k None if every row is consistent.

    Rows are eliminated in the order given; the pivot of a row is its
    smallest column left, scaled to a leading 1.  `echelon` maps each pivot
    column to its (row with leading 1, right-hand side), for rows < k.
    """
    echelon = {}
    for k, (row, b) in enumerate(zip(rows, rhs)):
        r = {c: v for c, v in row.items() if v}
        while r and (p := min(r)) in echelon:
            pivot_row, pivot_b = echelon[p]
            f = -r[p]
            add_terms(r, ((c, f * v) for c, v in pivot_row.items()))
            b += f * pivot_b
        if r:
            inv = 1 / Fraction(r[p])
            echelon[p] = ({c: v * inv for c, v in r.items()}, b * inv)
        elif b:
            return echelon, k
    return echelon, None


def solve(rows, rhs):
    """One solution x of A x = b over Q, or None if the system is infeasible.

    `rows` is a list of sparse rows {column: coefficient} and `rhs` the list
    of their right-hand sides, eliminated by `_eliminate`.  x is read off by
    back substitution in descending pivot column, as a sparse dict with the
    free variables zero: the solution of the reduced row echelon form, which
    is unique.
    """
    echelon, k = _eliminate(rows, rhs)
    if k is not None:
        return None
    x = {}
    for p in sorted(echelon, reverse=True):
        row, b = echelon[p]
        v = b - sum(c * x[j] for j, c in row.items() if j in x)
        if v:
            x[p] = v
    return x


def first_inconsistent_row(rows, rhs):
    """The least k with rows[:k+1] infeasible, or None if A x = b is feasible.

    `rows[:k]` is then feasible: the leading rows are solvable exactly when
    they number at most k.
    """
    return _eliminate(rows, rhs)[1]


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

    While a column's pivot is the pivot of an earlier reduced column, that
    column's multiple is subtracted.  `R[j]` is the reduced column, `V[j]`
    its combination of input columns ({column: coefficient}, V[j][j] = 1,
    support in columns <= j) and `pivots` maps each pivot row to the one
    nonzero reduced column it heads.
    """

    def __init__(self, columns):
        self.R, self.V, self.pivots = [], [], {}
        for j, col in enumerate(columns):
            r = {i: c for i, c in col.items() if c != 0}
            v = {j: Fraction(1)}
            while r:
                p = min(r)
                i = self.pivots.get(p)
                if i is None:
                    self.pivots[p] = j
                    break
                f = -r[p] / self.R[i][p]
                add_terms(r, ((k, f * c) for k, c in self.R[i].items()))
                add_terms(v, ((k, f * c) for k, c in self.V[i].items()))
            self.R.append(r)
            self.V.append(v)

    def solve(self, b, k):
        """(x, r) with r = b - D x vanishing on every row i < k.

        `b`, `x` and `r` are sparse dicts; x is None if no x cancels b on
        the rows < k.  x is the solution that Gauss-Jordan elimination of
        D[:k] gives with free variables zero: it combines the V[j] with
        pivot row < k, and each V[j] involves only columns with pivot rows
        above its own, so x vanishes on every column that depends on the
        columns left of it over rows < k.
        """
        r = {i: c for i, c in b.items() if c}
        x = {}
        while r:
            p = min(r)
            if p >= k:
                break
            j = self.pivots.get(p)
            if j is None:
                return None, r
            f = r[p] / self.R[j][p]
            a = -f
            add_terms(r, ((k, a * c) for k, c in self.R[j].items()))
            add_terms(x, ((k, f * c) for k, c in self.V[j].items()))
        return x, r
