"""Decomposing boxes over deterministic strategies and bounding their cost.

A box is representable with at most one bit of communication when it is a
convex mixture of the 16 local and 96 strictly one-way deterministic
vertices.  The least total weight on one-way vertices over such mixtures is
the communication cost C.  The vertices' boxes are one stack,
VERTEX_BOXES, built once at import.

C and 1-bit feasibility are read from two integer inequality tables.  A row
is a 4x4 integer table T over (xy, ab) and a constant k; its value on a box
is L(p) = sum T[xy][ab] p(ab|xy) + k.  The rows are the orbits of a few
representatives under `boxcore.SYMMETRIES`, the 128 cell permutations of
the 64 local relabellings, each with and without the A<->B swap:

- COST_ROWS (8 orbits, 344 rows) are the vertices of the cost LP's dual
  polyhedron, so C(p) is the largest of their values.  The size-8 orbit is
  the CHSH floor C >= chsh_max/2 - 1 of Pironio (PRA 68, 062102, 2003).
- FACET_ROWS (2 orbits, 32 rows) are the 1-bit polytope's facets besides
  cell positivity, which CorrelationBox enforces: a box is outside the
  polytope when one of them is positive.

`comm_cost_many` and `min_comm_cost` read them, as float matrices made once
at import; the facet rows decide feasibility and C is the tables' value.
The argmax cost row r* is an optimal dual solution, so by complementary
slackness a cheapest decomposition uses only the 16 to 48 vertices on which
r* is tight (_TIGHT), and `min_comm_cost` finds its weights by one phase-1
solve of the box's 16 cell equations on those columns, which gives no
verdict of its own; a box that a facet row puts more than a rounding
outside the polytope is first pulled onto it, toward the uniform box.
Phase 1 runs on the box's support, exactly: weights are nonnegative, so a
zero cell gives weight 0 to every vertex with a 1 there, and its row and
those vertices are dropped.  The tests certify the tables complete in exact
integer arithmetic.

`ResourceSpec` fixes a scope and distributes weight over its 16 catalogued
strategies, whose boxes `resource_box` mixes from the scope's catalogue
stack.  `signed_signals` evaluates the four directed marginal shifts such a
mixture produces, with coefficients read from the canonical catalogue's
outputs; it is the stack of one of `_signed_signal_rows`, which the
`verify` suite runs over all its weight rows at once.  Each signal is a
difference of two `math.fsum`s, and `_fsum_rows` takes all 8K of them in
one cascade of error-free sums over the stack, bit for bit; only rows that
it cannot certify go to `math.fsum` one by one.  Their alternating-sum
structure yields certified per-cell lower bounds via
`conditional_lower_bounds`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .boxcore import (
    DeterministicStrategy,
    INPUT_PAIRS,
    PRScope,
    STRATEGY_NAMES,
    SYMMETRIES,
    _DETERMINISTIC,
    _of_type,
    _real,
    check_tolerance,
    check_weights,
    checked_boxes,
    enumerate_deterministic,
    mix,
    scope_boxes,
    scope_strategies,
    strategy_boxes,
    strategy_name,
)
from .errors import Infeasible, NumericalError, WeightError
from .simplex import solve_lp

SUPPORT_EPS = 1e-12
WEIGHT_TOL = 1e-9
_ROUNDING = 8.0 * math.ulp(1.0)  # a rounding at the cells' scale, 1, whatever tol is
_COST_BLOCK = 4096  # boxes per table product: 11 MB of cost values, not 721 MB at 2**18 boxes

# the 16 local vertices first, then the 96 one-way ones
VERTICES = tuple(enumerate_deterministic("local") + enumerate_deterministic("all_one_bit"))
VERTEX_BOXES = strategy_boxes(VERTICES)
_COLUMNS = np.ascontiguousarray(VERTEX_BOXES.reshape(len(VERTICES), 16).T)
_ONEWAY = np.array([0.0 if s.kind == "local" else 1.0 for s in VERTICES])
_COLUMNS.flags.writeable = _ONEWAY.flags.writeable = False

# Orbit representatives (T, k) of the two tables; T's rows run over
# xy = 00, 01, 10, 11 and its columns over ab = 00, 01, 10, 11
_COST_ORBITS = (
    ([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, -1, -1, -2]], 0),
    ([[0, 1, 1, 2], [0, 1, 0, 0], [0, -1, 1, 0], [0, -1, -1, -1]], -1),
    ([[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, -1], [0, -1, 0, 0]], -1),
    ([[0, 0, 1, 1], [0, 2, 0, 1], [0, 0, 1, 1], [0, -2, -1, -2]], -1),
    ([[0, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, -1], [0, -1, 0, 0]], -1),
    ([[0, 1, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, -1, -1, 0]], -2),  # CHSH
    ([[0, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, -1, -1]], -1),
    ([[0, 1, 1, 2], [0, 2, 0, 1], [0, 0, 2, 1], [0, -2, -2, -2]], -2),
)
_FACET_ORBITS = (
    ([[0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], -2),
    ([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, -1, -1, -1]], -1),
)


def _orbit_rows(orbits):
    """The distinct images of the orbits' rows under SYMMETRIES, as a read-only (R, 17) int array.

    A row is T's 16 cells in flat box order, then k.  Each image is shifted
    within its settings to T[xy][00] = 0, which keeps its value on every box,
    so that equal rows are equal arrays.
    """
    tables = np.array([t for t, _ in orbits]).reshape(-1, 16)[:, SYMMETRIES].reshape(-1, 4, 4)
    k = np.repeat([k for _, k in orbits], len(SYMMETRIES)) + tables[:, :, 0].sum(axis=1)
    images = np.column_stack([(tables - tables[:, :, :1]).reshape(-1, 16), k]).tolist()
    rows = np.array(sorted(set(map(tuple, images))))
    rows.flags.writeable = False
    return rows


COST_ROWS = _orbit_rows(_COST_ORBITS)
FACET_ROWS = _orbit_rows(_FACET_ORBITS)

# (344, 112): cost row r is tight on vertex v when its value there is v's cost; in int8,
# which holds every value (all lie within +-10) exactly, so no temporary outgrows the table
_TIGHT = (COST_ROWS[:, :16].astype(np.int8) @ VERTEX_BOXES.reshape(-1, 16).astype(np.int8).T
          + COST_ROWS[:, 16:].astype(np.int8) == _ONEWAY.astype(np.int8))
_TIGHT.flags.writeable = False


# each table's int rows as a float (16, R) matrix and (R,) constants, cast once; products
# with them are bit-equal to cells @ rows[:, :16].T + rows[:, 16], which casts per call
_COST_T, _COST_K, _FACET_T, _FACET_K = (np.ascontiguousarray(part, dtype=np.float64)
                                        for rows in (COST_ROWS, FACET_ROWS)
                                        for part in (rows[:, :16].T, rows[:, 16]))


def _values(cells, table, k):
    """Each flat box's values of one float table's rows, as a (K, R) array."""
    values = cells @ table
    values += k  # in place: a second (K, R) array made a 200-box call four times slower
    return values


# each facet row's value on the uniform box, all cells 1/4: -3/4 or -1
_FACET_AT_UNIFORM = _values(np.full((1, 16), 0.25), _FACET_T, _FACET_K)[0]


# each strategy's (name, kind) in a Decomposition's report: its name when the canonical
# scope's catalogue has one, which is unambiguous only there, and its output table otherwise
_ROW_LABELS = {s: (strategy_name(s) or s.table_str(), s.kind) for s in _DETERMINISTIC}


@dataclass(frozen=True)
class Decomposition:
    """Convex decomposition over local + one-way vertices with cost C."""

    weights: dict
    C: float

    def to_json(self):
        try:
            labels = [_ROW_LABELS[s] for s in self.weights]
        except KeyError as exc:  # not a strategy: refused as a strategy argument is
            _of_type(exc.args[0], DeterministicStrategy, "strategy must be a DeterministicStrategy")
            raise
        rows = [{"strategy": name, "kind": kind, "w": w}
                for (name, kind), w in zip(labels, self.weights.values())]
        rows.sort(key=lambda r: (-r["w"], r["strategy"]))
        return {"C": self.C, "weights": rows}


def min_comm_cost(box, tol=WEIGHT_TOL):
    """Cheapest 1-bit decomposition of a box, with comm_cost_many's verdict and C.

    Raises Infeasible when a facet row value exceeds tol, and only then.  C
    is the box's largest cost row value, clamped to [0, 1], bit for bit.
    The weights are fitted to a point of the polytope: the box itself when
    no facet row exceeds a rounding (8 ulps of 1.0, the cells' scale), and
    otherwise the box pulled toward the uniform box by the least mu that
    makes every facet row nonpositive, mu = max e_r / (e_r - L_r(uniform))
    over the positive rows e_r.  Every facet row is at most -3/4 on the
    uniform box, so each cell moves by less than the largest facet value,
    which is at most tol.  The weights are phase 1's least-violation point
    of the point's 16 cell equations (each setting's four fix their sum)
    over the vertices on which the point's argmax cost row is tight, less
    those up to tol / 1000.  Phase 1 sees only the point's nonzero cells and
    the tight vertices with no 1 in a zero cell; this is exact, since a zero
    cell gives weight 0 to every vertex with a 1 there.  NumericalError is
    raised if the weights reproduce the given box only beyond tol and a
    rounding.  Their one-way total is the point's C, which misses the box's
    by up to a few tol: 2.43 tol at most over 20,000 near-boundary boxes per
    tol (a tier-1 test holds 2.5 tol).  Anything but a CorrelationBox is
    first checked as one.
    """
    check_tolerance(tol)
    cells = checked_boxes(box, ndim=4).reshape(1, 16)
    facets = _values(cells, _FACET_T, _FACET_K)[0]
    excess = float(facets.max())
    if excess > tol:
        raise Infeasible(f"facet row value {excess:.3e} exceeds {tol:.1e}")
    costs = point_costs = _values(cells, _COST_T, _COST_K)
    point = cells
    if excess > _ROUNDING:
        e, at_uniform = facets[facets > 0.0], _FACET_AT_UNIFORM[facets > 0.0]
        mu = float((e / (e - at_uniform)).max())
        point = (1.0 - mu) * cells + 0.25 * mu
        point_costs = _values(point, _COST_T, _COST_K)
    zero = point[0] == 0.0  # a zero cell gives weight 0 to each vertex with a 1 there
    columns = (_TIGHT[point_costs.argmax()] & (zero @ _COLUMNS == 0.0)).nonzero()[0]
    a = _COLUMNS.take(columns, axis=1)[~zero]
    x = solve_lp(a, point[0][~zero])
    x[x <= 1e-3 * tol] = 0.0  # weights to tol / 1000 are dropped; the rest are checked
    residual = float(np.abs(a @ x - cells[0][~zero]).max())  # 0 - 0 on the zero cells
    if residual > tol + _ROUNDING:
        raise NumericalError(f"decomposition reproduces the box only to {residual:.3e}")
    weights = {VERTICES[j]: w for j, w in zip(columns.tolist(), x.tolist()) if w > 0.0}
    return Decomposition(weights=weights, C=min(max(float(costs.max(axis=1)[0]), 0.0), 1.0))


def comm_cost_many(boxes, tol=WEIGHT_TOL):
    """The communication cost C of each box, as one array, read from the tables.

    `boxes` is a box, a (..., 2, 2, 2, 2) stack or a sequence of boxes,
    checked once as a stack by `checked_boxes`.  C is the largest COST_ROWS
    value, clamped to [0, 1], as min_comm_cost(box).C is.  Raises
    Infeasible naming the first box, by index, on which a FACET_ROWS value
    exceeds tol.
    """
    check_tolerance(tol)
    return _comm_costs(checked_boxes(boxes).reshape(-1, 16), tol)


def _comm_costs(cells, tol=WEIGHT_TOL):
    """comm_cost_many on a (K, 16) stack of flat boxes that is already checked, tol too.

    _COST_BLOCK boxes at a time: a box's values are the same bits at any stack height.
    """
    costs = np.empty(len(cells))
    for lo in range(0, len(cells), _COST_BLOCK):
        block = cells[lo:lo + _COST_BLOCK]
        excess = _values(block, _FACET_T, _FACET_K).max(axis=1)
        outside = np.flatnonzero(excess > tol)
        if outside.size:
            k = int(outside[0])
            raise Infeasible(f"stack index {lo + k}: facet row value {excess[k]:.3e} "
                             f"exceeds {tol:.1e}")
        costs[lo:lo + _COST_BLOCK] = _values(block, _COST_T, _COST_K).max(axis=1)
    return np.clip(costs, 0.0, 1.0)


@dataclass(frozen=True)
class ResourceSpec:
    """Weights over the 16 catalogued strategies of one scope.

    `weights` aligns with STRATEGY_NAMES order for the scope's catalogue.
    A scope that is not a PRScope raises DomainError.
    """

    scope: PRScope
    weights: tuple

    def __post_init__(self):
        _of_type(self.scope, PRScope, "scope must be a PRScope")
        w = check_weights(self.weights, 16)
        object.__setattr__(self, "weights", tuple(w.tolist()))

    @classmethod
    def from_mapping(cls, mapping, scope=PRScope()):
        if not isinstance(mapping, Mapping):
            raise WeightError(f"expected a mapping of strategy names to weights, got {mapping!r}")
        unknown = sorted(set(mapping) - set(STRATEGY_NAMES), key=repr)
        if unknown:
            raise WeightError(f"unknown strategy names {unknown}")
        return cls(scope=scope, weights=[mapping.get(name, 0.0) for name in STRATEGY_NAMES])

    @classmethod
    def parse(cls, text):
        """Parse the compact form "scope=000;S1+:0.75,S1-:0.25"."""
        text = _of_type(text, str, "resource spec must be a str").strip()
        scope = PRScope()
        weights_part = text
        if ";" in text:
            head, weights_part = text.split(";", 1)
            head = head.strip()
            if not head.startswith("scope="):
                raise WeightError(f"expected scope=<bits> before ';' in {text!r}")
            scope = PRScope.from_label(head[len("scope="):])
        elif text.startswith("scope="):
            raise WeightError("resource spec lists no strategy weights")
        mapping = {}
        for item in weights_part.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise WeightError(f"expected NAME:WEIGHT, got {item!r}")
            name, _, val = item.partition(":")
            name = name.strip()
            if name in mapping:
                raise WeightError(f"duplicate strategy {name!r}")
            try:
                mapping[name] = float(val)
            except ValueError:
                raise WeightError(f"bad weight {val!r} for {name!r}") from None
        if not mapping:
            raise WeightError("resource spec lists no strategy weights")
        return cls.from_mapping(mapping, scope=scope)

    @property
    def one_way_support(self):
        """True when all weight sits on the one-way half of the catalogue."""
        return all(w <= SUPPORT_EPS for w in self.weights[8:])


def resource_box(spec, label=None):
    """The box realized by mixing the spec's strategies with its weights."""
    _of_type(spec, ResourceSpec, "spec must be a ResourceSpec", type(spec).__name__)
    return mix(spec.weights, scope_boxes(spec.scope), label=label)


def _random_feasible_boxes(rng, n):
    """n random mixtures of the 112 vertices, as one checked stack, and their (n, 112) weights.

    Each box is the product _COLUMNS @ w[i], taken as one stacked product:
    numpy hands each (16, 112) @ (112, 1) item to the matrix-vector routine
    the single product uses, so every box has its bits.
    """
    w = rng.dirichlet(np.ones(len(VERTICES)), size=n)
    cells = np.matmul(_COLUMNS, w[:, :, None])  # w @ _COLUMNS.T differs in the last bit
    return checked_boxes(cells.reshape(n, 2, 2, 2, 2)), w


@dataclass(frozen=True)
class SignedSignals:
    """Directed marginal shifts of a 16-strategy mixture, with sign.

    s1, s2: shift of B's outcome-1 marginal at y = 0, 1 when x flips 0 -> 1;
    s3, s4: shift of A's outcome-1 marginal at x = 0, 1 when y flips 0 -> 1;
    each of the canonical-scope (0,0,0) box with the spec's weights.  On the
    box of a scope (mu1, mu2, mu3) spec, s2, s3, s4 flip sign where mu2, mu3, mu1 ^ mu3 is 1.
    """

    s1: float
    s2: float
    s3: float
    s4: float

    def as_tuple(self):
        return (self.s1, self.s2, self.s3, self.s4)


def _signal_coefficients():
    """(4, 16) signs with which each catalogue weight enters s1..s4.

    Read from the canonical catalogue's output tables (flat input index
    2*x + y): s1, s2 take P(b=1) at x = 1 minus x = 0, for y = 0, 1; s3, s4
    take P(a=1) at y = 1 minus y = 0, for x = 0, 1.
    """
    table = scope_strategies()
    fa = np.array([s.fa for s in table], dtype=np.int8)
    fb = np.array([s.fb for s in table], dtype=np.int8)
    coeff = np.stack([fb[:, 2] - fb[:, 0], fb[:, 3] - fb[:, 1],
                      fa[:, 1] - fa[:, 0], fa[:, 3] - fa[:, 2]]).astype(np.float64)
    coeff.flags.writeable = False
    return coeff


SIGNAL_COEFFICIENTS = _signal_coefficients()
# (2, 4, 4): per sign +1, -1 and per signal, the catalogue indices with that coefficient
_SIGNAL_TERMS = np.array([[np.flatnonzero(row == sign) for row in SIGNAL_COEFFICIENTS]
                          for sign in (1.0, -1.0)])
# per setting in INPUT_PAIRS order, the sign of s1..s4 in its alternating sum T
_T_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1], [-1, 1, 1, -1]], dtype=np.float64)


def _two_sum(a, b):
    """(s, e) with s = a + b rounded and s + e = a + b exactly (Knuth's TwoSum), elementwise."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fsum_rows(x):
    """math.fsum of each row of a (K, n) float stack, bit for bit, as a (K,) array.

    A TwoSum cascade (Knuth; Ogita, Rump & Oishi 2005) gives each row's
    float sum s and the exact error of every step; their float sum E is
    itself a TwoSum cascade, and a last TwoSum splits s + E exactly into
    r + t.  When E lost nothing, r + t is the exact sum, so r is its
    rounding to nearest even, which is what fsum returns.  Otherwise the
    exact sum lies within n * 2**-52 * sum|e| of r + t, and r is still
    fsum's value when that and |t| fall short of half the gap at r (the
    smaller gap, below a power of two).  The few rows that pass neither
    check, or whose magnitudes could overflow, go to math.fsum one by one,
    which also raises or returns what fsum does for them.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = x.T.copy()
    if not len(cols):
        return np.zeros(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        s, (err, mag, lost) = cols[0], np.zeros((3, len(x)))
        for v in cols[1:]:
            s, e = _two_sum(s, v)
            err, f = _two_sum(err, e)
            mag += np.abs(e)
            lost += np.abs(f)
        r, t = _two_sum(s, err)
        m, k = np.frexp(np.abs(r))
        half = np.ldexp(np.where(m == 0.5, 0.25, 0.5), k - 53)
        exact = (lost == 0.0) | (np.abs(t) + len(cols) * 2.0**-52 * mag < half)
        exact &= np.abs(cols).sum(axis=0) < 2.0**1023  # no partial sum of fsum's can overflow
    rest = np.flatnonzero(~exact)
    if rest.size:
        r[rest] = [math.fsum(row) for row in x[rest].tolist()]
    return r


def _signed_signal_rows(weights):
    """The four signed signals of each row of a (K, 16) weight stack, as a (K, 4) array.

    Each is math.fsum of the row's weights with coefficient +1 in
    SIGNAL_COEFFICIENTS minus math.fsum of its weights with coefficient -1,
    bit for bit; the 8K sums are one `_fsum_rows` call.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 16)
    sums = _fsum_rows(w[:, _SIGNAL_TERMS].reshape(-1, 4)).reshape(len(w), 2, 4)
    return sums[:, 0] - sums[:, 1]


def signed_signals(spec):
    """The four signed marginal shifts of a resource spec, as SignedSignals defines them.

    Its row of `_signed_signal_rows`; their absolute values match the
    per-setting directed signals of the mixed box.
    """
    _of_type(spec, ResourceSpec, "spec must be a ResourceSpec", type(spec).__name__)
    return SignedSignals(*_signed_signal_rows(spec.weights)[0].tolist())


def _conditional_bounds(signed, nonlocal_weight, scope):
    """The rule of `conditional_lower_bounds` over a stack of K specs of one scope.

    Takes (K, 4) signed signals and (K,) nonlocal weights in [0, 1]; returns
    the (K, 8) bounds and the 8 (x, y, a, b) cells they bound, fixed by the
    scope's anchor.
    """
    c = nonlocal_weight[:, None]
    v = signed[:, None, :] * _T_SIGNS  # sign flips are exact; T sums s1..s4 left to right
    t = c * (((v[..., 0] + v[..., 1]) + v[..., 2]) + v[..., 3])
    anchor = scope_strategies(scope)[0]  # the catalogue's first strategy fixes the cell pairing
    cells = []
    for x, y in INPUT_PAIRS:
        a0, b0 = anchor.a(x, y), anchor.b(x, y)
        cells += [(x, y, a0, b0), (x, y, 1 ^ a0, 1 ^ b0)]
    return np.stack([(c + t) / 2.0, (c - t) / 2.0], axis=-1).reshape(-1, 8), tuple(cells)


def conditional_lower_bounds(spec, nonlocal_weight=1.0):
    """Certified per-setting lower bounds on two output-pair probabilities.

    For a box carrying the spec's mixture with total weight `nonlocal_weight`
    (the rest arbitrary local noise), returns 8 rows (x, y, a, b, bound):
    at each setting the two output pairs allowed by the scope relation are
    guaranteed at least (nonlocal_weight +/- T)/2 where T is the setting's
    alternating sum of signed signals scaled by nonlocal_weight, a real
    number in [0, 1].
    """
    c = _real(nonlocal_weight, 0, 1, "nonlocal weight", scalar=True)
    bounds, cells = _conditional_bounds(np.array([signed_signals(spec).as_tuple()]),
                                        c.reshape(1), spec.scope)
    return [(*cell, bound) for cell, bound in zip(cells, bounds[0].tolist())]
