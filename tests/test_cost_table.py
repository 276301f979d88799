"""The cost and facet tables of `decompose`, certified in exact integer arithmetic.

The cost LP is min c.x over A x = (p, 1), x >= 0, with one column per local
(c = 0) or one-way (c = 1) vertex.  A table row (T, k) is a dual point y,
and its value on a vertex is that vertex's row of A^T y.  The dual
polyhedron {y : A^T y <= c} has a 4-dimensional lineality, one shift per
setting, which the tables remove by T[xy][00] = 0.  Here a row is therefore
its 13 free integers: T[xy][ab] for ab != 00, then k.  `M` holds each
vertex's row of A^T in those coordinates and has rank 13, so the polyhedron
{z : M z <= c} is pointed.

The cost rows are all of its vertices, by adjacency decomposition up to
symmetry (Bremner, Dutour Sikiric & Schurmann, arXiv:math/0702239).  The
128 symmetries map the LP to itself and the table to itself, so each
orbit's neighbours are those of its representative.  If every edge at
every representative ends at a table row or runs off along a recession
ray, the table is closed under adjacency.  The edge graph of a pointed
polyhedron is connected, so then the table holds every vertex, and
C(p), the LP's optimum, is the largest row value by duality.  The extreme
rays of the recession cone {d : M d <= 0} are the Farkas certificates.  A
box lies in the 1-bit polytope exactly when none of them is positive on
it, and they are the facet rows plus cell positivity.
"""

import math
from fractions import Fraction

import numpy as np

import boxcomp as bc
from _helpers import random_feasible_box, row_values
from boxcomp import decompose

FREE = [c for c in range(16) if c % 4] + [16]  # the 12 cells with ab != 00, then k
A_T = np.column_stack([decompose.VERTEX_BOXES.reshape(-1, 16), np.ones(112)]).astype(np.int64)
M = [tuple(int(v) for v in row) for row in A_T[:, FREE]]
COST = [0 if s.kind == "local" else 1 for s in decompose.VERTICES]


def _free(rows):
    """The rows' 13 free integers each, checking that T[xy][00] = 0."""
    rows = np.asarray(rows)
    assert not rows[:, [0, 4, 8, 12]].any()
    return [tuple(int(v) for v in row) for row in rows[:, FREE]]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _eliminate(rows):
    """Indices of a maximal independent subset of integer rows, picked in order."""
    echelon, picked = [], []
    for i, row in enumerate(rows):
        row = [Fraction(v) for v in row]
        for pivot, base in echelon:
            if row[pivot]:
                f = row[pivot] / base[pivot]
                row = [a - f * b for a, b in zip(row, base)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            echelon.append((lead, row))
            picked.append(i)
    return picked


def _inverse_columns(square):
    """The columns of minus the inverse of an invertible integer matrix, as primitive integer rays."""
    n = len(square)
    aug = [[Fraction(v) for v in row] + [Fraction(-(i == j)) for j in range(n)]
           for i, row in enumerate(square)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    rays = []
    for j in range(n):
        column = [aug[i][n + j] for i in range(n)]
        den = math.lcm(*(v.denominator for v in column))
        rays.append(_primitive([int(v * den) for v in column]))
    return rays


def _extreme_rays(rows):
    """Extreme rays of the pointed cone {d : rows d <= 0}, by double description.

    Starts from the simplicial cone of n independent rows, then adds the
    others one at a time.  A ray's zero set is a bit mask of the rows added so
    far on which it vanishes; two rays are adjacent when no third ray's zero
    set holds their common one.
    """
    n = len(rows[0])
    start = _eliminate(rows)
    assert len(start) == n, "the cone is not pointed"
    rays = _inverse_columns([rows[i] for i in start])
    zeros = [sum(1 << start[i] for i in range(n) if i != j) for j in range(n)]
    for idx in sorted(set(range(len(rows))) - set(start)):
        vals = [_dot(rows[idx], r) for r in rays]
        kept = [(r, z | (1 << idx) if v == 0 else z) for r, z, v in zip(rays, zeros, vals) if v <= 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for m, vm in enumerate(vals):
                if vm >= 0:
                    continue
                common = zeros[p] & zeros[m]
                if bin(common).count("1") < n - 2 or any(
                        k not in (p, m) and common & z == common for k, z in enumerate(zeros)):
                    continue
                ray = _primitive([vp * a - vm * b for a, b in zip(rays[m], rays[p])])
                kept.append((ray, common | (1 << idx)))
        rays, zeros = [r for r, _ in kept], [z for _, z in kept]
    return set(rays)


def _positivity_rows():
    """The 16 rows -p(ab|xy), one per cell, in the tables' form."""
    minus_first_cell = np.zeros((4, 4), dtype=np.int64)
    minus_first_cell[0, 0] = -1
    return decompose._orbit_rows([(minus_first_cell, 0)])


def test_symmetries_form_a_group_that_keeps_the_lp():
    perms = {tuple(g) for g in decompose.SYMMETRIES.tolist()}
    assert len(perms) == 128
    assert all(tuple(np.array(g)[list(h)]) in perms for g in perms for h in perms)
    cost_of = {tuple(row): c for row, c in zip(A_T[:, :16].tolist(), COST)}
    for g in decompose.SYMMETRIES:
        assert all(cost_of.get(tuple(row)) == c for row, c in zip(A_T[:, g].tolist(), COST))


def test_cost_table_is_complete():
    cost_rows, facet_rows = decompose.COST_ROWS, decompose.FACET_ROWS
    assert (len(cost_rows), len(facet_rows)) == (344, 32)
    # dual feasible: no row exceeds the cost of any vertex; facet rows are recession directions
    assert (cost_rows @ A_T.T <= np.array(COST)).all()
    assert (facet_rows @ A_T.T <= 0).all()
    # closed under the symmetries, which keep the LP (checked above)
    for rows in (cost_rows, facet_rows):
        orbits = [(row[:16].reshape(4, 4), row[16]) for row in rows]
        assert np.array_equal(decompose._orbit_rows(orbits), rows)

    table = set(_free(cost_rows))
    recession = {_primitive(r) for r in _free(facet_rows) + _free(_positivity_rows())}
    assert len(recession) == 48
    edges = 0
    for t, k in decompose._COST_ORBITS:
        z = _free([np.append(np.ravel(t), k)])[0]
        tight = [i for i in range(112) if _dot(M[i], z) == COST[i]]
        assert len(_eliminate([M[i] for i in tight])) == 13, "not a vertex"
        for d in _extreme_rays([M[i] for i in tight]):
            edges += 1
            steps = [Fraction(COST[i] - _dot(M[i], z), _dot(M[i], d))
                     for i in range(112) if _dot(M[i], d) > 0]
            if not steps:
                assert d in recession, "an unbounded edge off the recession rays"
                continue
            step = min(steps)
            neighbour = tuple(a + step * b for a, b in zip(z, d))
            assert all(v.denominator == 1 for v in neighbour) and neighbour in table, neighbour
    assert edges == 222

    # the recession cone's extreme rays are the facet rows and cell positivity
    assert _extreme_rays(M) == recession


def test_chsh_orbit_is_the_pironio_floor():
    # its 8 rows are the sign variants of CHSH, so their largest value is chsh_max/2 - 1
    chsh_rows = decompose._orbit_rows([decompose._COST_ORBITS[5]])
    assert len(chsh_rows) == 8
    rng = np.random.default_rng(48)
    boxes = [random_feasible_box(rng)[0].p for _ in range(200)]
    boxes += [bc.pr_box(scope).p for scope in bc.all_scopes()]
    boxes = np.stack(boxes)
    floor = row_values(chsh_rows, boxes.reshape(-1, 16)).max(axis=1)
    assert np.abs(floor - (bc.chsh_max(boxes) / 2.0 - 1.0)).max() <= 1e-12


def test_every_cost_row_is_tight_on_a_vertex_set_that_covers_the_polytope():
    # row r is tight on vertex v when its integer value there is v's cost; min_comm_cost
    # runs phase 1 on the tight columns of the argmax row, which complementary slackness
    # allows because every row is a vertex of the dual polyhedron (checked above)
    tight = decompose.COST_ROWS @ A_T.T == np.array(COST)
    assert np.array_equal(decompose._TIGHT, tight) and not decompose._TIGHT.flags.writeable
    per_row = tight.sum(axis=1)
    assert per_row.min() >= 16 and per_row.max() <= 48
    assert tight.any(axis=0).all()
