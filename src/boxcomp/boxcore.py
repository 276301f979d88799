"""Bipartite correlation boxes with binary inputs and outputs.

A box is the conditional distribution P(a,b|x,y) for inputs x,y in {0,1}
(party A receives x, party B receives y) and outputs a,b in {0,1}.  It is
stored as a read-only float64 array of shape (2,2,2,2) indexed [x,y,a,b]
and normalized per input pair.  Many boxes at once are a stack: an array
of shape (..., 2, 2, 2, 2), which `measures` reads like a single box.  The
rules of a box are written once over a stack, in `checked_boxes`, and a
`CorrelationBox` is its stack of one; `check_weights` likewise checks one
row of mixture weights or a stack of rows at once.
`strategy_boxes` builds the stack of a list of deterministic strategies by
index assignment, `scope_boxes` holds each catalogue's stack, and
`mixtures` mixes a stack by rows of weights (`mix` is the single-box case).

Each kind of input has one coercion here, which returns the value in the
form its readers use or raises the documented error naming it: bits, bit
tables, instances of a type (scopes, specs, directions, strategies), boxes
and stacks, weight rows and stacks, real numbers in a range, counts and
seeds, tolerances, iterables and angle lists.  Public functions of every
module call them at their edge; internal stack paths, such as the
`verify` suites and `_mixtures`, trust what they are given.

Deterministic strategies are pairs of response functions a = fA(x,y),
b = fB(x,y); they are classified as local (each output ignores the remote
input), one-way signaling (exactly one output reads the remote input), or
two-way.  The sixteen strategies whose outputs satisfy the PR-type relation

    a xor b = x*y xor mu1*x xor mu2*y xor mu3

for a fixed scope (mu1,mu2,mu3) are catalogued by `scope_strategies`; their
uniform mixture is the PR box of that scope.  Local reversible relabellings
(input flips plus input-conditioned output flips) form a group of 64.  Each
permutes a box's 16 cells, an action written once as index arithmetic, and
`SYMMETRIES` holds the 64 cell maps and each after the A<->B swap.
`apply_relabelling` is one gather by such a map, and each scope's catalogue
is one gather of the canonical stack.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .errors import BoxFormatError, BoxInvariantError, DomainError, WeightError

NORM_TOL = 1e-12

# input pairs (x, y) in storage order; flat index is 2*x + y
INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

STRATEGY_KINDS = ("local", "signal_A_to_B", "signal_B_to_A", "two_way")


class CorrelationBox:
    """Conditional distribution P(a,b|x,y), immutable after construction."""

    __slots__ = ("p", "label")

    def __init__(self, p, label=None):
        if label is not None:
            if not isinstance(label, str):
                raise BoxFormatError(f'"label" must be a string, got {type(label).__name__}')
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which JSON's \u escapes allow
                raise BoxFormatError('"label" is not valid Unicode text') from None
        self.p = checked_boxes(p, ndim=4)
        self.label = label

    def __eq__(self, other):
        if not isinstance(other, CorrelationBox):
            return NotImplemented
        return bool(np.array_equal(self.p, other.p))

    __hash__ = None

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<CorrelationBox{tag}>"

    def to_json(self):
        data = {"P": self.p.tolist()}
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise BoxFormatError(f"box JSON must be an object, got {type(data).__name__}")
        if "P" not in data:
            raise BoxFormatError('box JSON is missing the "P" key')
        if not _json_numbers(data["P"]):
            raise BoxFormatError('"P" entries must be JSON numbers')
        return cls(data["P"], label=data.get("label"))


def _json_numbers(value):
    """True when every leaf of nested lists is an int or float (bools excluded).

    The walk keeps its own stack, so no nesting depth can exhaust Python's.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            return False
    return True


def load_box(path):
    """Read a box from a JSON file ({"P": nested [x][y][a][b] lists, "label": optional}).

    DomainError unless path is a str, bytes or os.PathLike (open reads an int as a descriptor).
    """
    with open(_of_type(path, _PATH, _PATH_RULE), "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad syntax or encoding, or an int literal too long
            raise BoxFormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise BoxFormatError("invalid JSON: nested too deeply") from None
    return CorrelationBox.from_json(data)


def dump_box(box, path):
    """Write a CorrelationBox to a JSON file in the form `load_box` reads, with sorted keys."""
    text = _json_text(_of_type(box, CorrelationBox, "box must be a CorrelationBox").to_json())
    _write_text(_of_type(path, _PATH, _PATH_RULE), text + "\n")


def _write_text(path, text):
    """Write text to path as UTF-8 over what it held, then cut a regular file to length.

    Unlike open(path, "w") it does not truncate first, which on ext4 costs
    several times a small report's write; inode and new-file mode are the same.
    As in a text file, "\n" becomes os.linesep.  The bytes go to the descriptor
    by os.write, again after each short write, and the descriptor is closed
    whatever is raised.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        data = text.replace("\n", os.linesep).encode("utf-8")
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _json_text(value):
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, written in one call per value.

    With indent set, json writes through a chain of pure-Python generators.
    Here each value of exactly a JSON type is written in one call: strings
    and keys by json's own `encode_basestring_ascii`, floats by
    `float.__repr__` with json's NaN and Infinity, dict items sorted.  Any
    other value, and a dict with a key that is not a str or a value json
    refuses, is handed to `json.dumps` itself, which writes it or raises its
    TypeError.  A value that holds itself raises RecursionError, not json's
    ValueError; no report nests more than a few levels.
    """
    return _JSON_WRITERS.get(type(value), _json_other)(value, "\n")


def _json_float(value, newline):
    """A float as json writes it: its repr, but NaN, Infinity and -Infinity."""
    text = float.__repr__(value)
    return _JSON_SPECIAL_FLOATS.get(text, text)


def _json_list(items, newline):
    inner = newline + "  "
    texts = [_JSON_WRITERS.get(type(item), _json_other)(item, inner) for item in items]
    return f"[{inner}{(',' + inner).join(texts)}{newline}]" if texts else "[]"


def _json_dict(items, newline):
    inner = newline + "  "
    try:
        texts = [f"{_json_str(key)}: {_JSON_WRITERS.get(type(item), _json_other)(item, inner)}"
                 for key, item in sorted(items.items())]
    except TypeError:  # a key that is not a str, or a value json refuses
        return _json_other(items, newline)
    return f"{{{inner}{(',' + inner).join(texts)}{newline}}}" if texts else "{}"


def _json_other(value, newline):
    """json's own text for a value, indented to `newline`, or json's TypeError."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


# the text of each JSON type, by exact type; (value, newline), newline indenting nested lines
_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_WRITERS = {
    str: lambda value, newline: _json_str(value),
    float: _json_float,
    int: lambda value, newline: int.__repr__(value),
    bool: lambda value, newline: "true" if value else "false",
    type(None): lambda value, newline: "null",
    list: _json_list,
    tuple: _json_list,
    dict: _json_dict,
}


_PATH = (str, bytes, os.PathLike)
_PATH_RULE = "a path must be a str, bytes or os.PathLike"


def _bit(value, name):
    """`value` as an int; DomainError, naming it, unless it is 0 or 1 (an array of bits is not)."""
    if getattr(value, "ndim", 0) != 0 or value not in (0, 1):
        raise DomainError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _bits(bits, n, name):
    """`bits` as a tuple; DomainError unless it is a sequence of n bits, each 0 or 1."""
    try:
        if len(bits) == n and all(v in (0, 1) for v in bits):
            return tuple(int(v) for v in bits)
    except (TypeError, ValueError):  # no length or items, or an array for an item
        pass
    raise DomainError(f"{name} must hold {n} bits, each 0 or 1, got {bits!r}")


def _of_type(value, kind, rule, shown=None):
    """`value`, unless it is not a `kind`: DomainError "<rule>, got <its repr, or shown>"."""
    if not isinstance(value, kind):
        raise DomainError(f"{rule}, got {repr(value) if shown is None else shown}")
    return value


def _items(values, rule):
    """`values` as a list; DomainError "<rule>, got <repr>" unless an iterable, not text."""
    try:
        if not isinstance(values, (str, bytes)):
            return list(values)
    except TypeError:
        pass
    raise DomainError(f"{rule}, got {values!r}")


def _angles(angles):
    """`angles` as a nonempty list of the finite floats float() reads; DomainError naming them."""
    angles = _items(angles, "angles must be an iterable of numbers")
    for i, angle in enumerate(angles):
        try:
            angles[i] = float(angle)
        except (TypeError, ValueError, OverflowError):
            angles[i] = math.nan
        if not math.isfinite(angles[i]):
            raise DomainError(f"angle must be a finite number, got {angle!r}")
    if not angles:
        raise DomainError("empty angle list")
    return angles


def _real(value, lo, hi, what, scalar=False):
    """`value` as a float64 array with every entry in [lo, hi], up to 1e-12 either side.

    DomainError naming the value unless numpy reads it as real numbers and,
    when `scalar`, it is one real number (not a string or an array).  NaN,
    as None reads, lies in no range, and the error shows the value as given.
    """
    try:
        if scalar and not isinstance(value, numbers.Real):
            raise TypeError
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be real, got {value!r}") from None
    if arr.size and not (arr.min() >= lo - 1e-12 and arr.max() <= hi + 1e-12):
        shown = repr(value) if np.isnan(arr).any() else f"{arr.min()}..{arr.max()}"
        raise DomainError(f"{what} outside [{lo},{hi}]: {shown}")
    return arr


def check_tolerance(tol):
    """Accept a solver tolerance only as a real number in the open interval (0, 1).

    A tolerance of 1 or more lets the facet and reconstruction checks pass
    any box, so it is refused like NaN, infinity and non-real values.
    """
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < 1.0):
        raise DomainError(f"tolerance must lie in (0, 1), got {tol!r}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """Response functions a = fA(x,y), b = fB(x,y), tabulated in INPUT_PAIRS order."""

    fa: tuple
    fb: tuple

    def __post_init__(self):
        object.__setattr__(self, "fa", _bits(self.fa, 4, "fa"))
        object.__setattr__(self, "fb", _bits(self.fb, 4, "fb"))

    def a(self, x, y):
        return self.fa[2 * x + y]

    def b(self, x, y):
        return self.fb[2 * x + y]

    @property
    def kind(self):
        a_reads_y = self.fa[0] != self.fa[1] or self.fa[2] != self.fa[3]
        b_reads_x = self.fb[0] != self.fb[2] or self.fb[1] != self.fb[3]
        if a_reads_y and b_reads_x:
            return "two_way"
        if a_reads_y:
            return "signal_B_to_A"
        if b_reads_x:
            return "signal_A_to_B"
        return "local"

    def table_str(self):
        """Output pairs "ab" per input pair, e.g. "00,00,00,01"."""
        return ",".join(f"{self.fa[i]}{self.fb[i]}" for i in range(4))


def strategy_boxes(strategies):
    """The strategies' deterministic boxes as one read-only (n, 2, 2, 2, 2) stack.

    Built by index assignment from the output tables: entry [k, x, y, a, b]
    is 1 exactly where strategy k answers (a, b) to inputs (x, y).
    """
    strategies = [_of_type(s, DeterministicStrategy, "strategy must be a DeterministicStrategy")
                  for s in _items(strategies, "strategies must be an iterable")]
    fa = np.array([s.fa for s in strategies], dtype=np.intp).reshape(-1, 2, 2)
    fb = np.array([s.fb for s in strategies], dtype=np.intp).reshape(-1, 2, 2)
    k, x, y = np.indices(fa.shape)
    stack = np.zeros(fa.shape + (2, 2))
    stack[k, x, y, fa, fb] = 1.0
    stack.flags.writeable = False
    return stack


def strategy_box(strategy, label=None):
    """Deterministic box with all weight on the strategy's outputs."""
    return CorrelationBox(strategy_boxes([strategy])[0], label=label)


def mixtures(weights, boxes):
    """Mixtures sum_k weights[..., k] * boxes[k] of a (n, 2, 2, 2, 2) stack, one per weight row.

    `weights` is a row or a (K, n) stack of rows of finite, nonnegative
    weights, which need not sum to 1; each mixture is summed in k order,
    from 0, as one cell-major pass: box k's 16 cells times every row's
    weight k are added to the running sums of all rows at once.  The boxes
    are checked as `mix` checks them.
    """
    stack = checked_boxes(boxes, ndim=5)
    w = check_weights(weights)
    if w.shape[-1] != len(stack):
        raise WeightError(f"expected rows of {len(stack)} weights, got {weights!r}")
    return _mixtures(w, stack)


def _mixtures(w, boxes):
    """`mixtures` of a float weight array and a stack that are already checked."""
    n, lead = len(boxes), w.shape[:-1]
    # (n, 16, K): the rows on the inner axis; the sum over axis 0 runs in k order
    terms = boxes.reshape(n, 16, 1) * w.reshape(math.prod(lead), n).T[:, None, :]
    return terms.sum(axis=0).T.reshape(*lead, 2, 2, 2, 2)


def _box_array(boxes, ndim=None):
    """The float64 array of a box, a stack, or a sequence of boxes or tables.

    BoxFormatError, naming the value or its type, unless numpy reads numbers
    whose last four axes are (2, 2, 2, 2), with `ndim` axes in all when it
    is given: 4 for one box, 5 for a stack.  An empty sequence is an empty
    stack.  Only the form is checked, not the rules of a box.
    """
    p = getattr(boxes, "p", boxes)
    if isinstance(p, (list, tuple)):
        p = [getattr(box, "p", box) for box in p] or np.empty((0, 2, 2, 2, 2))
    try:
        arr = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        # a box file's whole table would make a long error line: its start names it
        raise BoxFormatError(f"a box must be an array of numbers, got {boxes!r:.200}") from None
    if ndim == 5 and arr.ndim != 5:
        raise BoxFormatError(f"expected a stack or a sequence of boxes, got {boxes!r}")
    if arr.shape[-4:] != (2, 2, 2, 2):
        raise BoxFormatError(f"{type(boxes).__name__} is not a box or a stack of boxes "
                             f"of shape (2,2,2,2): got shape {arr.shape}")
    if ndim == 4 and arr.ndim != 4:
        raise BoxFormatError(f"expected one box of shape (2,2,2,2), got {arr.shape}")
    return arr


def checked_boxes(p, ndim=None):
    """The rules of a box, checked once over a (..., 2, 2, 2, 2) stack; a read-only copy of it.

    `_box_array` reads p (ndim 4 is one box, 5 a stack of them).  Entries
    must be finite and at least -NORM_TOL; sub-tolerance negative dust is
    cleared to 0; each setting's four cells must sum to 1 within NORM_TOL.
    Raises BoxFormatError or BoxInvariantError, naming the stack's worst
    value.  A CorrelationBox, checked when it was made, is its own table.
    """
    if isinstance(p, CorrelationBox) and ndim != 5:
        return p.p
    arr = _box_array(p, ndim)
    if not np.all(np.isfinite(arr)):
        raise BoxInvariantError("box entries must be finite")
    lo = float(arr.min(initial=0.0))
    if lo < -NORM_TOL:
        raise BoxInvariantError(f"negative probability {lo}")
    if lo < 0.0:
        arr = np.where(arr < 0.0, 0.0, arr)  # clear sub-tolerance float dust
    err = float(np.abs(arr.sum(axis=(-2, -1)) - 1.0).max(initial=0.0))
    if err > NORM_TOL:
        raise BoxInvariantError(f"per-setting normalization off by {err}")
    # a copy, so the caller's array stays writable and its later writes miss the box
    arr = np.array(arr, order="C")
    arr.flags.writeable = False
    return arr


def check_weights(weights, n=None):
    """`weights` as a float64 row, or a (K, m) stack of rows, of finite nonnegative numbers.

    WeightError, naming the value or its first bad row, unless numpy reads
    numbers in a row or a stack of rows; or, when `n` is given, one row of
    n numbers whose `math.fsum` is 1 within NORM_TOL.  That is the slack
    CorrelationBox allows its normalization, so that `mix` and
    `ResourceSpec` accept the same weights and every mixture they allow is
    a box.
    """
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        w = np.empty(())
    if w.ndim not in (1, 2) or n is not None and w.shape != (n,):
        rule = "a row or rows of numbers" if n is None else f"numbers of shape {(n,)}"
        raise WeightError(f"weights must be {rule}, got {weights!r}")
    arr, rows = np.atleast_2d(w), [weights] if w.ndim == 1 else weights
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise WeightError(f"non-finite weight in {rows[int(np.argmin(finite))]!r}")
    lo = arr.min(axis=1, initial=0.0)
    if lo.min(initial=0.0) < 0.0:
        raise WeightError(f"negative weight {float(lo[lo < 0.0][0])}")
    if n is not None:
        try:
            total = math.fsum(w.tolist())
        except OverflowError:  # the exact sum is past float range
            raise WeightError(f"weights sum past float range, not 1: {weights!r}") from None
        if abs(total - 1.0) > NORM_TOL:
            raise WeightError(f"weights sum to {total!r}, not 1")
    return w


def checked_count_and_seed(count, seed, most, what):
    """(count, seed) as ints; DomainError unless both are integers, 1 <= count <= most, seed >= 0.

    `what` names the count and its range in the message.
    """
    try:
        if 1 <= operator.index(count) <= most and operator.index(seed) >= 0:
            return operator.index(count), operator.index(seed)
    except TypeError:
        pass
    raise DomainError(f"need integer {what} and seed >= 0, got {count!r}, {seed!r}")


def mix(weights, boxes, label=None):
    """Convex mixture of boxes: a (n, 2, 2, 2, 2) stack, or a sequence of boxes or tables.

    Raises WeightError on bad weights.  The boxes are checked once, as a
    stack, by `checked_boxes`, so an invalid box is refused even where the
    mixture would be a valid one.
    """
    stack = checked_boxes(boxes, ndim=5)
    return CorrelationBox(_mixtures(check_weights(weights, len(stack)), stack), label=label)


@dataclass(frozen=True)
class PRScope:
    """Parity relation a xor b = x*y xor mu1*x xor mu2*y xor mu3."""

    mu1: int = 0
    mu2: int = 0
    mu3: int = 0

    def __post_init__(self):
        for name in ("mu1", "mu2", "mu3"):
            object.__setattr__(self, name, _bit(getattr(self, name), name))

    def relation(self, x, y):
        """Required output parity a xor b at inputs (x, y)."""
        return (x & y) ^ (self.mu1 & x) ^ (self.mu2 & y) ^ self.mu3

    def holds_for(self, strategy):
        return all(strategy.a(x, y) ^ strategy.b(x, y) == self.relation(x, y)
                   for x, y in INPUT_PAIRS)

    @classmethod
    def from_label(cls, text):
        text = text.strip() if isinstance(text, str) else text
        if not isinstance(text, str) or len(text) != 3 or set(text) - {"0", "1"}:
            raise DomainError(f"scope label must be 3 bits, got {text!r}")
        return cls(int(text[0]), int(text[1]), int(text[2]))


def all_scopes():
    """The 8 PR-type scopes, mu1 mu2 mu3 counting up in binary from (0,0,0)."""
    return [PRScope(m1, m2, m3) for m1, m2, m3 in itertools.product((0, 1), repeat=3)]


def pr_box(scope=PRScope(), label=None):
    """Maximally nonlocal box: weight 1/2 on each output pair obeying the scope relation."""
    return CorrelationBox(scope_boxes(scope).mean(axis=0), label=label)


@dataclass(frozen=True)
class Relabelling:
    """Reversible local symmetry: flip inputs, flip outputs conditioned on own input.

    Acting on a box, Q(a,b|x,y) = P(a ^ a_offset[x], b ^ b_offset[y] | x ^ flip_x, y ^ flip_y).
    """

    flip_x: int = 0
    flip_y: int = 0
    a_offset: tuple = (0, 0)
    b_offset: tuple = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "flip_x", _bit(self.flip_x, "flip_x"))
        object.__setattr__(self, "flip_y", _bit(self.flip_y, "flip_y"))
        for name in ("a_offset", "b_offset"):
            object.__setattr__(self, name, _bits(getattr(self, name), 2, name))


def all_relabellings():
    """The full group of 64 local reversible relabellings."""
    bits = list(itertools.product((0, 1), repeat=2))
    return [Relabelling(fx, fy, ao, bo) for fx, fy in bits for ao in bits for bo in bits]


def _cell_maps(rels):
    """The relabellings' action as (n, 16) maps of flat cells: row i carries cells p to p[row].

    Flat cell 8*x + 4*y + 2*a + b holds P(a,b|x,y), and the image is
    Q(a,b|x,y) = P(a ^ a_offset[x], b ^ b_offset[y] | x ^ flip_x, y ^ flip_y).
    """
    x, y, a, b = np.indices((2, 2, 2, 2)).reshape(4, 16)
    fx = np.array([[r.flip_x] for r in rels])
    fy = np.array([[r.flip_y] for r in rels])
    ao = np.array([r.a_offset for r in rels])
    bo = np.array([r.b_offset for r in rels])
    return 8 * (x ^ fx) + 4 * (y ^ fy) + 2 * (a ^ ao[:, x]) + (b ^ bo[:, y])


_RELABEL_MAPS = _cell_maps(all_relabellings()).reshape(64, 2, 2, 2, 2)
# the 64 relabellings in all_relabellings order, then each after the swap p[x,y,a,b] -> p[y,x,b,a]
SYMMETRIES = np.concatenate([_RELABEL_MAPS, _RELABEL_MAPS.transpose(0, 2, 1, 4, 3)]).reshape(128, 16)
SYMMETRIES.flags.writeable = False


def apply_relabelling(box, rel, label=None):
    """The box relabelled by `rel`, as Relabelling defines it: one gather of its 16 cells."""
    maps = _cell_maps([_of_type(rel, Relabelling, "rel must be a Relabelling")])
    return CorrelationBox(checked_boxes(box, ndim=4).ravel()[maps[0]].reshape(2, 2, 2, 2),
                          label=label)


def _read_strategies(cells):
    """Inverse of `strategy_boxes`: the strategies of deterministic boxes, flat or not.

    Each output is the one that carries the box's weight: A's sums over b, B's over a.
    """
    p = cells.reshape(-1, 2, 2, 2, 2)
    fa = p.sum(axis=-1).argmax(axis=-1).reshape(-1, 4).tolist()
    fb = p.sum(axis=-2).argmax(axis=-1).reshape(-1, 4).tolist()
    return [DeterministicStrategy(tuple(a), tuple(b)) for a, b in zip(fa, fb)]


_TABLES = tuple(itertools.product((0, 1), repeat=4))
_DETERMINISTIC = tuple(DeterministicStrategy(fa, fb) for fa in _TABLES for fb in _TABLES)


def enumerate_deterministic(kind_filter):
    """Deterministic strategies of one kind, in a fixed order.

    Filters the 256 strategies by `DeterministicStrategy.kind`, with fA in
    the outer loop and fB in the inner: any of STRATEGY_KINDS ("local" 16,
    "signal_A_to_B" 48, "signal_B_to_A" 48, "two_way" 144), or
    "all_one_bit" (96, the A->B family then the B->A one).
    """
    if kind_filter == "all_one_bit":
        return enumerate_deterministic("signal_A_to_B") + enumerate_deterministic("signal_B_to_A")
    if kind_filter not in STRATEGY_KINDS:
        raise DomainError(f"unknown strategy filter {kind_filter!r}")
    return [s for s in _DETERMINISTIC if s.kind == kind_filter]


# Names of the canonical scope's sixteen strategies, in "+"/"-" pairs of output
# complements; S1..S4 are one-way, S5..S8 two-way.
STRATEGY_NAMES = ("S1+", "S1-", "S2+", "S2-", "S3+", "S3-", "S4+", "S4-",
                  "S5+", "S5-", "S6+", "S6-", "S7+", "S7-", "S8+", "S8-")

# A's outputs of the eight "+" strategies, in name order, over INPUT_PAIRS;
# B answers a xor xy, and each "-" strategy (c = 1) complements both outputs of its "+"
_CANONICAL_A = ("0000", "0001", "0011", "0100", "0101", "0010", "0110", "0111")
_CANONICAL_TABLE = tuple(
    DeterministicStrategy(tuple(int(a) ^ c for a in row),
                          tuple(int(a) ^ c ^ PRScope().relation(x, y)
                                for a, (x, y) in zip(row, INPUT_PAIRS)))
    for row in _CANONICAL_A for c in (0, 1))
_CANONICAL_NAMES = dict(zip(_CANONICAL_TABLE, STRATEGY_NAMES))


def scope_relabelling(scope):
    """Relabelling carrying the canonical scope (0,0,0) onto `scope`."""
    _of_type(scope, PRScope, "scope must be a PRScope")
    return Relabelling(flip_x=0, flip_y=0,
                       a_offset=(scope.mu3, scope.mu1 ^ scope.mu3),
                       b_offset=(0, scope.mu2))


# one gather of the canonical stack's flat cells per scope, contiguous as strategy_boxes makes it
_SCOPE_MAPS = _cell_maps([scope_relabelling(scope) for scope in all_scopes()])
_STACKS = strategy_boxes(_CANONICAL_TABLE).reshape(16, 16)[:, _SCOPE_MAPS].swapaxes(0, 1)
_STACKS = np.ascontiguousarray(_STACKS).reshape(8, 16, 2, 2, 2, 2)
_STACKS.flags.writeable = False
_CATALOGUE_BOXES = dict(zip(all_scopes(), _STACKS))
_CATALOGUE = {scope: tuple(_read_strategies(stack)) for scope, stack in _CATALOGUE_BOXES.items()}


def scope_strategies(scope=PRScope()):
    """The 16 deterministic strategies satisfying the scope's parity relation.

    Ordered and named per STRATEGY_NAMES; the first 8 are one-way, the last 8
    two-way, and consecutive +/- entries are output complements.  Each call
    returns a new list, which the caller may change.
    """
    return list(_CATALOGUE[_of_type(scope, PRScope, "scope must be a PRScope")])


def scope_boxes(scope=PRScope()):
    """The scope's catalogue as one (16, 2, 2, 2, 2) stack, in STRATEGY_NAMES order.

    Built once per scope; it always matches scope_strategies(scope).
    """
    return _CATALOGUE_BOXES[_of_type(scope, PRScope, "scope must be a PRScope")]


def strategy_name(strategy):
    """Name of a strategy in the canonical scope (0,0,0) catalogue, or None if unnamed."""
    _of_type(strategy, DeterministicStrategy, "strategy must be a DeterministicStrategy")
    return _CANONICAL_NAMES.get(strategy)
