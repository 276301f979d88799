"""Dense phase-1 simplex: the least-violation nonnegative point of a small equality system.

Finds the x >= 0 of least total violation of A x = b, for b >= 0 and
tens of rows and columns, and gives no verdict on whether A x = b has a
solution.  Bland's rule, with ratio ties only to rounding, keeps it cycle-free.
An artificial variable left in the basis at level zero is harmless, so
redundant rows (the vertices' 16 cells span 13 dimensions) need no
special care.  Each pivot writes its rank-1 update into one buffer made per
call, so a pivot allocates no tableau-sized array.

Its one caller is `decompose.min_comm_cost` (behind the `decompose`
command), for a decomposition's weights: it solves the box's 16 cell
equations over the columns where the tables' argmax cost row is tight, less
the zero cells' rows and the columns with a 1 in one: exact, since with 0/1
columns and x >= 0 a row with b_i = 0 forces x_j = 0 wherever a_ij = 1.  The
tables' facet rows alone decide 1-bit feasibility, and the tables give C.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000


def _run(tableau, basis, ncols, buf):
    """Bland-rule pivoting until no reduced cost is negative. Entering columns < ncols."""
    reduced, rhs = tableau[-1, :ncols], tableau[:-1, -1]  # views, which each pivot updates
    for _ in range(MAX_PIVOTS):
        negative = reduced < -PIVOT_TOL
        col = int(negative.argmax())  # the first such column, or 0
        if not negative[col]:
            return
        colvals = tableau[:, col].copy()
        column = colvals.tolist()  # the ratio test in Python floats, which round as float64
        ratios = [(r / column[i], i) for i, r in enumerate(rhs.tolist()) if column[i] > PIVOT_TOL]
        if not ratios:
            raise NumericalError("unbounded direction in a bounded polytope")
        # ties are ratios within rounding of the least, and Bland takes the lowest basic variable;
        # a wider window takes rows whose ratio is not the least, driving others negative
        least = min(ratios)[0] + 1e-15
        row = min((i for r, i in ratios if r <= least), key=basis.__getitem__)
        tableau[row] /= column[row]
        colvals[row] = 0.0
        np.multiply.outer(colvals, tableau[row], out=buf)
        tableau -= buf
        basis[row] = col
    raise NumericalError(f"simplex did not converge in {MAX_PIVOTS} pivots")


def solve_lp(a_eq, b_eq):
    """An x >= 0 with A x <= b and the least total shortfall sum(b - A x), for b >= 0.

    This is phase 1 of the simplex method: min 1's over A x + s = b with
    x, s >= 0.  The shortfall is 0, to rounding, exactly when A x = b has a
    nonnegative solution; judging that is the caller's.  Raises
    NumericalError on convergence failure.
    """
    a = np.array(a_eq, dtype=np.float64)
    b = np.array(b_eq, dtype=np.float64)
    m, n = a.shape

    # columns x, then the artificials s; the last row is minus the column sums (the
    # artificials' total).  An artificial that leaves may enter again: without that,
    # phase 1 can stop above the least shortfall when A x = b has no solution
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:-1] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    _run(tableau, basis, n + m, np.empty_like(tableau))
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    return x
