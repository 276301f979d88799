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
A single LP keeps the one-LP loop, which is faster than a stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import Infeasible, NumericalError

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000
CHUNK = 16  # LPs per lockstep stack; bounds the stacked tableaux' memory

_UNBOUNDED = "unbounded direction in a bounded polytope"
_NO_CONVERGENCE = f"simplex did not converge in {MAX_PIVOTS} pivots"
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
            raise NumericalError(_UNBOUNDED)
        ratios = tableau[rows, -1] / colvals[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        row = int(min(ties, key=lambda i: basis[i]))
        _pivot(tableau, basis, row, col)
    raise NumericalError(_NO_CONVERGENCE)


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


def _run_many(tableau, basis, ncols, active, failures):
    """`_run` on the stacked tableaux in lockstep, one pivot per active LP per round.

    An LP that fails is recorded in failures (index -> (error, message)) and
    drops out; the others go on.
    """
    at = np.arange(len(tableau))
    active = active.copy()
    for _ in range(MAX_PIVOTS):
        entering = tableau[:, -1, :ncols] < -PIVOT_TOL
        cols = entering.argmax(axis=1)
        colvals = tableau[at, :-1, cols]
        eligible = colvals > PIVOT_TOL
        going, bounded = entering.any(axis=1), eligible.any(axis=1)
        for k in np.flatnonzero(active & going & ~bounded):
            failures[int(k)] = (NumericalError, _UNBOUNDED)
        active &= going & bounded
        if not active.any():
            return
        # rows that are not eligible divide by zero or a negative; they are masked out
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(eligible, tableau[:, :-1, -1] / colvals, np.inf)
        best = ratios.min(axis=1)
        ties = eligible & (ratios <= best[:, None] + 1e-12)
        rows = np.where(ties, basis, _NO_ROW).argmin(axis=1)
        _pivot_many(tableau, basis, rows, cols, active)
    for k in np.flatnonzero(active):
        failures[int(k)] = (NumericalError, _NO_CONVERGENCE)


def _solve_chunk(cost, a, b, tol, x, values):
    """Solve the (k, m) stack b in lockstep into x and values; returns the failures.

    Failures map a stack index to the (error, message) that `_solve` raises
    for it; the LPs that do not fail are solved regardless.
    """
    k, m = b.shape
    n = a.shape[1]
    tableau = _phase1(a, b)
    basis = np.tile(np.arange(n, n + m), (k, 1))
    failures = {}
    _run_many(tableau, basis, n, np.ones(k, dtype=bool), failures)
    residual = -tableau[:, m, -1]
    for j in np.flatnonzero(residual > tol):
        failures.setdefault(int(j), (Infeasible, f"phase-1 residual {residual[j]:.3e} exceeds {tol:.1e}"))
    live = np.ones(k, dtype=bool)
    live[list(failures)] = False

    keep = np.ones((k, m), dtype=bool)
    for i in range(m):
        artificial = live & (basis[:, i] >= n)
        pivots = np.abs(tableau[:, i, :n]) > PIVOT_TOL
        offers = pivots.any(axis=1)
        if (artificial & offers).any():
            _pivot_many(tableau, basis, np.full(k, i), pivots.argmax(axis=1), artificial & offers)
        keep[:, i] = ~artificial | offers

    tableau[:, :m][~keep] = 0.0
    tableau[:, m, :n] = cost
    tableau[:, m, -1] = 0.0
    keep &= live[:, None]
    for i in range(m):
        lps = np.flatnonzero(keep[:, i])
        tableau[lps, m] -= cost[basis[lps, i]][:, None] * tableau[lps, i]
    _run_many(tableau, basis, n, live, failures)

    lps, rows = np.nonzero(keep)
    rhs = tableau[lps, rows, -1]
    x[lps, basis[lps, rows]] = np.where(rhs < 0.0, 0.0, rhs)  # max(rhs, 0.0), signed zeros kept
    for j in range(k):  # one dot per LP, as alone: a matrix product may sum in another order
        values[j] = cost @ x[j]
    return failures


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
        stop = start + CHUNK
        failures = _solve_chunk(cost, a, b[start:stop], tol, x[start:stop], values[start:stop])
        if failures:
            j = min(failures)
            error, message = failures[j]
            raise error(f"stack index {start + j}: {message}")
    return x, values
