"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0.  Sized for problems with tens
of rows and ~100 columns; Bland's rule keeps it cycle-free, and redundant
constraint rows (the polytope descriptions here are rank-deficient) are
dropped after phase 1.  Each pivot writes its rank-1 update into one buffer
made per call, so a pivot allocates no tableau-sized array.

Its one caller is `decompose.min_comm_cost` (behind the `decompose`
command), because it reports a decomposition's weights.  `comm_cost_many`,
and so `analyze` and `verify`, read C and 1-bit feasibility from two
integer inequality tables instead, and `verify`'s zero-signal check reads
an integer identity of the catalogue's marginals.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, NumericalError

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000


def _pivot(tableau, basis, row, col, buf):
    """Pivot on (row, col); the rank-1 update is written into buf, tableau's shape."""
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    np.multiply(colvals[:, None], tableau[row], out=buf)
    tableau -= buf
    basis[row] = col


def _run(tableau, basis, ncols, buf):
    """Bland-rule pivoting until no reduced cost is negative. Entering columns < ncols."""
    for _ in range(MAX_PIVOTS):
        reduced = tableau[-1, :ncols]
        col = int((reduced < -PIVOT_TOL).argmax())  # the first such column, or 0
        if not reduced[col] < -PIVOT_TOL:
            return
        rhs = tableau[:-1, -1].tolist()  # the ratio test in Python floats, which round as float64
        ratios = [(rhs[i] / v, i) for i, v in enumerate(tableau[:-1, col].tolist()) if v > PIVOT_TOL]
        if not ratios:
            raise NumericalError("unbounded direction in a bounded polytope")
        least = min(ratios)[0] + 1e-12  # of the ties, Bland takes the lowest basic variable
        row = min((i for r, i in ratios if r <= least), key=basis.__getitem__)
        _pivot(tableau, basis, row, col, buf)
    raise NumericalError(f"simplex did not converge in {MAX_PIVOTS} pivots")


def solve_lp(c, a_eq, b_eq, tol=1e-9):
    """Minimize c.x over A x = b, x >= 0; returns (x, objective).

    Raises Infeasible when no nonnegative solution fits b within tol, and
    NumericalError on convergence failure.
    """
    a = np.array(a_eq, dtype=np.float64)
    b = np.array(b_eq, dtype=np.float64)
    cost = np.asarray(c, dtype=np.float64)
    m, n = a.shape

    # phase 1: rows with b < 0 negated, the last row minus the column sums (the
    # artificials' total); the artificial columns are never read, so none are stored
    flip = b < 0.0
    b = np.where(flip, -b, b)
    tableau = np.zeros((m + 1, n + 1))
    rows = tableau[:m, :n]
    rows[...] = a
    rows[flip] *= -1.0
    tableau[:m, -1] = b
    tableau[m, :n] = -rows.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    buf = np.empty_like(tableau)
    _run(tableau, basis, n, buf)
    if -tableau[m, -1] > tol:
        raise Infeasible(f"phase-1 residual {-tableau[m, -1]:.3e} exceeds {tol:.1e}")

    # drive leftover artificials out of the basis; rows that offer no pivot
    # are linear combinations of others and get dropped
    drop = []
    for i in range(m):
        if basis[i] < n:
            continue
        row = tableau[i, :n]
        pivots = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
        if pivots.size:
            _pivot(tableau, basis, i, int(pivots[0]), buf)
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        tableau = tableau[keep + [m]]
        basis = [basis[i] for i in keep]
        buf = buf[:len(tableau)]

    # phase 2 on the original columns: the last row becomes the reduced costs
    tableau[-1, :n] = cost
    tableau[-1, -1] = 0.0
    for i, var in enumerate(basis):
        tableau[-1] -= cost[var] * tableau[i]
    _run(tableau, basis, n, buf)
    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = max(tableau[i, -1], 0.0)
    return x, float(cost @ x)
