"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0.  Sized for problems with tens
of rows and ~100 columns; Bland's rule keeps it cycle-free, and redundant
constraint rows (the polytope descriptions here are rank-deficient) are
dropped after phase 1.

A (K, m) stack of right-hand sides that share c and A is solved in
lockstep, CHUNK LPs at a time: each round pivots every unfinished LP of the
chunk once.  Each LP goes through exactly the float operations it goes
through alone (the same Bland entering column and lowest-basis-index
tie-break, the same drive-out and dropped rows, the same row-by-row phase-2
cost row), so its x and objective are bit-identical to the one-LP loop.  A
dropped row stays in the stack as a row of zeros, which no ratio test picks.
A chunk in which any LP fails is solved again LP by LP, so the one-LP loop
alone decides which error an LP raises.  A single LP keeps the one-LP loop,
which is faster than a stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, NumericalError

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000
CHUNK = 16  # LPs per lockstep stack; bounds the stacked tableaux' memory

_NO_ROW = np.iinfo(np.intp).max  # tie-break key of the rows a ratio test cannot pick


def _phase1(a, b):
    """Phase-1 tableau (m + 1, n + 1) of A x = b, or a stack of them for a (K, m) b.

    Rows with b < 0 are negated; the last row is minus the column sums, the
    artificials' total.  The artificial columns are never read, so none are stored.
    """
    m, n = a.shape
    flip = b < 0.0
    b = np.where(flip, -b, b)
    tableau = np.zeros(b.shape[:-1] + (m + 1, n + 1))
    rows = tableau[..., :m, :n]
    rows[...] = a
    rows[flip] *= -1.0
    tableau[..., :m, -1] = b
    tableau[..., m, :n] = -rows.sum(axis=-2)
    tableau[..., m, -1] = -b.sum(axis=-1)
    return tableau


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    basis[row] = col


def _run(tableau, basis, ncols):
    """Bland-rule pivoting until no reduced cost is negative. Entering columns < ncols."""
    for _ in range(MAX_PIVOTS):
        reduced = tableau[-1, :ncols]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return
        col = int(candidates[0])
        colvals = tableau[:-1, col]
        rows = np.nonzero(colvals > PIVOT_TOL)[0]
        if rows.size == 0:
            raise NumericalError("unbounded direction in a bounded polytope")
        ratios = tableau[rows, -1] / colvals[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        row = int(min(ties, key=lambda i: basis[i]))
        _pivot(tableau, basis, row, col)
    raise NumericalError(f"simplex did not converge in {MAX_PIVOTS} pivots")


def _solve(cost, a, b, tol):
    m, n = a.shape
    tableau = _phase1(a, b)
    basis = list(range(n, n + m))
    _run(tableau, basis, n)
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
            _pivot(tableau, basis, i, int(pivots[0]))
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        tableau = tableau[keep + [m]]
        basis = [basis[i] for i in keep]

    # phase 2 on the original columns: the last row becomes the reduced costs
    tableau[-1, :n] = cost
    tableau[-1, -1] = 0.0
    for i, var in enumerate(basis):
        tableau[-1] -= cost[var] * tableau[i]
    _run(tableau, basis, n)

    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = max(tableau[i, -1], 0.0)
    return x, float(cost @ x)


def _pivot_many(tableau, basis, rows, cols, active):
    """`_pivot` on each active stacked tableau j at (rows[j], cols[j]), with the same float ops.

    Each inactive tableau is divided by 1 and has +0 subtracted, which
    leaves every bit of it as it was.
    """
    at = np.arange(len(tableau))
    tableau[at, rows] /= np.where(active, tableau[at, rows, cols], 1.0)[:, None]
    pivot_rows = np.where(active[:, None], tableau[at, rows], 0.0)
    colvals = np.where(active[:, None], tableau[at, :, cols], 0.0)
    colvals[at, rows] = 0.0
    tableau -= colvals[:, :, None] * pivot_rows[:, None, :]
    basis[at[active], rows[active]] = cols[active]


def _run_many(tableau, basis, ncols):
    """`_run` on the stacked tableaux in lockstep, one pivot per unfinished LP per round.

    Returns False as soon as any LP would make `_run` raise.  A finished LP
    has no entering column, and the others' pivots leave it as it was.
    """
    at = np.arange(len(tableau))
    for _ in range(MAX_PIVOTS):
        entering = tableau[:, -1, :ncols] < -PIVOT_TOL
        active = entering.any(axis=1)
        if not active.any():
            return True
        cols = entering.argmax(axis=1)
        colvals = tableau[at, :-1, cols]
        eligible = colvals > PIVOT_TOL
        if (active & ~eligible.any(axis=1)).any():
            return False
        # rows that are not eligible divide by zero or a negative; they are masked out
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(eligible, tableau[:, :-1, -1] / colvals, np.inf)
        best = ratios.min(axis=1)
        ties = eligible & (ratios <= best[:, None] + 1e-12)
        rows = np.where(ties, basis, _NO_ROW).argmin(axis=1)
        _pivot_many(tableau, basis, rows, cols, active)
    return False


def _solve_chunk(cost, a, b, tol):
    """Solve the (k, m) stack b in lockstep; returns (x, values), or None if any LP fails."""
    k, m = b.shape
    n = a.shape[1]
    tableau = _phase1(a, b)
    basis = np.tile(np.arange(n, n + m), (k, 1))
    if not _run_many(tableau, basis, n) or (-tableau[:, m, -1] > tol).any():
        return None

    keep = np.ones((k, m), dtype=bool)
    for i in range(m):
        artificial = basis[:, i] >= n
        pivots = np.abs(tableau[:, i, :n]) > PIVOT_TOL
        offers = pivots.any(axis=1)
        if (artificial & offers).any():
            _pivot_many(tableau, basis, np.full(k, i), pivots.argmax(axis=1), artificial & offers)
        keep[:, i] = ~artificial | offers

    tableau[:, :m][~keep] = 0.0
    tableau[:, m, :n] = cost
    tableau[:, m, -1] = 0.0
    for i in range(m):
        lps = np.flatnonzero(keep[:, i])
        tableau[lps, m] -= cost[basis[lps, i]][:, None] * tableau[lps, i]
    if not _run_many(tableau, basis, n):
        return None

    x = np.zeros((k, n))
    lps, rows = np.nonzero(keep)
    rhs = tableau[lps, rows, -1]
    x[lps, basis[lps, rows]] = np.where(rhs < 0.0, 0.0, rhs)  # max(rhs, 0.0), signed zeros kept
    # one dot per LP, as alone: a matrix product may sum in another order
    return x, np.array([cost @ x_j for x_j in x])


def solve_lp(c, a_eq, b_eq, tol=1e-9):
    """Minimize c.x over A x = b, x >= 0; returns (x, objective).

    b_eq may also be a (K, m) stack of right-hand sides.  Then x is (K, n)
    and the objective a (K,) array, each row bit-identical to solving that
    LP alone.  Raises Infeasible when no nonnegative solution fits b within
    tol, and NumericalError on convergence failure; for a stack, that of
    the first failing LP, named by its stack index.
    """
    a = np.array(a_eq, dtype=np.float64)
    b = np.array(b_eq, dtype=np.float64)
    cost = np.asarray(c, dtype=np.float64)
    if b.ndim == 1:
        return _solve(cost, a, b, tol)
    x = np.zeros((len(b), a.shape[1]))
    values = np.zeros(len(b))
    for start in range(0, len(b), CHUNK):
        stop = min(start + CHUNK, len(b))
        solved = _solve_chunk(cost, a, b[start:stop], tol)
        if solved is not None:
            x[start:stop], values[start:stop] = solved
            continue
        for j in range(start, stop):  # some LP fails: solve LP by LP, so each raises as alone
            try:
                x[j], values[j] = _solve(cost, a, b[j], tol)
            except (Infeasible, NumericalError) as error:
                raise type(error)(f"stack index {j}: {error}") from None
    return x, values
