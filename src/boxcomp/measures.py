"""Statistical and entropic measures on correlation boxes, over stacks.

Every measure takes a box or a stack of boxes: a CorrelationBox, or an
array of shape (..., 2, 2, 2, 2) indexed [..., x, y, a, b].  Each is written
once over the leading axes, so a single box is just a stack of one.  A
single box's values are Python floats (per-setting pairs are tuples, tables
are (2, 2) arrays); a stack's are arrays with the stack's leading shape.

Correlators are E(x,y) = P(a=b|x,y) - P(a!=b|x,y).  The fixed CHSH value is
E(0,0) + E(0,1) + E(1,0) - E(1,1); `chsh_max` maximizes over the position of
the minus sign and an overall sign.

Signal strength S is the largest shift of one party's outcome marginal when
the remote input flips, maximized over direction, own input, and outcome.
Indeterminacy I is the sup over settings of the smallest outcome-marginal
probability, so I = 0 marks a deterministic box and I = 1/2 an unbiased one.
H_S and H_I are their entropic counterparts: the best mutual information a
remote party can extract about the flipped input under a chosen prior, and
the largest output Shannon entropy over settings and parties.

A box measure checks the box and applies a private core to `marginals(box)`
(`_signal`, `_indeterminacy_per_setting`, `_entropic_per_setting`,
`_entropic_signal`, `_entropic_indeterminacy`) or to `correlators(box)`
(`_chsh`, `_chsh_max`); `certify` calls the cores on arrays it builds
once.  `marginals` sums cells (never 1 - x), which keeps every measure exact
on exactly-normalized dyadic tables.  A max or min over a 2-long axis is an
elementwise np.maximum/np.minimum of its two halves, which gives the bits of
the `.max(axis=...)` reduction, sign of zero included, without length-2
inner loops.  `binary_entropy` lays p and 1 - p out as two contiguous halves
of one array and takes one log2 over both, with no masked log2 for p = 0.

Measures read boxes; bounds read measured values.  `pironio_bound` takes
sign-maximized CHSH values and `entropic_signal_lower_bound` signal
strengths, elementwise like `certify.certified_indeterminacy_bound`; each
raises DomainError on a value outside its range, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxcore import _box_array, _real
from .errors import DomainError

_ENTROPY_SLACK = 1e-12
_SMALLEST = np.nextafter(0.0, 1.0)


def _value(v):
    """A single box's value as a Python float; a stack's as an array."""
    return float(v) if v.ndim == 0 else v


def _max2(v):
    """The larger entry of each pair on the last axis, bit for bit v.max(axis=-1).

    Applied twice it is v.max(axis=(-2, -1)): the entries meet in the same
    order, so +0.0/-0.0 ties end the same way.
    """
    return np.maximum(v[..., 0], v[..., 1])


def _entropy(m):
    """Shannon entropy (bits) of two-outcome distributions along the last axis.

    Each term is m log2 m, and 0 where m <= 0: log2 reads the smallest
    subnormal in place of such an m, and the product then a zero.
    """
    t = np.maximum(m, _SMALLEST)
    np.log2(t, out=t)
    t *= np.maximum(m, 0.0)
    return (0.0 - t[..., 0]) - t[..., 1]


def binary_entropy(p):
    """H(p) = -p log2 p - (1-p) log2 (1-p), elementwise, with H(0) = H(1) = 0."""
    arr = _real(p, 0, 1, "probability")
    # p and 1 - p as two contiguous halves, read as one last axis of length 2
    halves = np.empty((2,) + arr.shape).transpose(*range(1, arr.ndim + 1), 0)
    np.clip(arr, 0.0, 1.0, out=halves[..., 0])
    np.subtract(1.0, halves[..., 0], out=halves[..., 1])
    return _value(_entropy(halves))


def marginals(box):
    """Outcome marginals as cell sums, indexed [..., party, x, y, outcome].

    Party 0 is A, with P(a|x,y) = P(a,0|x,y) + P(a,1|x,y); party 1 is B, with
    P(b|x,y) = P(0,b|x,y) + P(1,b|x,y).
    """
    p = _box_array(box)
    m = np.empty(p.shape[:-4] + (2, 2, 2, 2))
    np.add(p[..., 0], p[..., 1], out=m[..., 0, :, :, :])
    np.add(p[..., 0, :], p[..., 1, :], out=m[..., 1, :, :, :])
    return m


def correlators(box):
    """E(x,y) indexed [..., x, y]."""
    p = _box_array(box)
    return (p[..., 0, 0] + p[..., 1, 1]) - (p[..., 0, 1] + p[..., 1, 0])


def chsh(box):
    """Fixed-form CHSH value E(0,0) + E(0,1) + E(1,0) - E(1,1)."""
    return _chsh(correlators(box))


def _chsh(e):
    return _value(e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] - e[..., 1, 1])


def chsh_max(box):
    """CHSH maximized over the 8 sign choices (minus-sign position and global sign)."""
    return _chsh_max(correlators(box))


def _chsh_max(e):
    total = e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] + e[..., 1, 1]
    return _value(_max2(_max2(np.abs(total[..., None, None] - 2.0 * e))))


def pironio_bound(lam_max):
    """Communication lower bound from a sign-maximized CHSH value: max(lam_max/2 - 1, 0).

    Arrays of values give an array of bounds.
    """
    lam = _real(lam_max, 0, 4, "CHSH value")
    return _value(np.maximum(lam / 2.0 - 1.0, 0.0))


@dataclass(frozen=True)
class SignalReport:
    """Directed marginal shifts: per remote-facing setting and their maxima.

    For a stack, each field is an array over the stack's leading axes, with
    the per-setting pairs on a last axis of length 2.
    """

    s_A_to_B_per_y: tuple  # shift of B's marginal at y when x flips, y = 0, 1
    s_B_to_A_per_x: tuple  # shift of A's marginal at x when y flips, x = 0, 1
    S_A_to_B: float
    S_B_to_A: float
    S: float


def signal(box):
    """Marginal-shift signal strengths in both directions."""
    return _signal(marginals(box))


def _signal(m):
    s_ab = _max2(np.abs(m[..., 1, 1, :, :] - m[..., 1, 0, :, :]))
    s_ba = _max2(np.abs(m[..., 0, :, 1, :] - m[..., 0, :, 0, :]))
    s_a_to_b, s_b_to_a = _max2(s_ab), _max2(s_ba)
    if s_ab.ndim == 1:
        s_ab, s_ba = tuple(s_ab.tolist()), tuple(s_ba.tolist())
    return SignalReport(s_A_to_B_per_y=s_ab, s_B_to_A_per_x=s_ba, S_A_to_B=_value(s_a_to_b),
                        S_B_to_A=_value(s_b_to_a), S=_value(np.maximum(s_a_to_b, s_b_to_a)))


def indeterminacy_per_setting(box):
    """Smallest outcome-marginal probability at each setting, indexed [..., x, y]."""
    return _indeterminacy_per_setting(marginals(box))


def _indeterminacy_per_setting(m):
    r = np.minimum(m[..., 0], m[..., 1])  # over the outcome, then the party
    return np.minimum(r[..., 0, :, :], r[..., 1, :, :])


def indeterminacy(box):
    """Sup over settings of the per-setting indeterminacy; 0 deterministic, 1/2 unbiased."""
    return _value(_max2(_max2(indeterminacy_per_setting(box))))


def entropic_indeterminacy_per_setting(box):
    """Largest output Shannon entropy (bits) over the two parties, per setting."""
    return _entropic_per_setting(marginals(box))


def _entropic_per_setting(m):
    h = _entropy(m)
    return np.maximum(h[..., 0, :, :], h[..., 1, :, :])


def entropic_indeterminacy(box):
    """H_I: sup over settings and parties of the output Shannon entropy."""
    return _entropic_indeterminacy(marginals(box))


def _entropic_indeterminacy(m):
    return _value(_max2(_max2(_entropic_per_setting(m))))


def entropic_signal(box, prior=(0.5, 0.5)):
    """H_S: best extractable information (bits) about the remote input flip.

    The remote input is drawn with the given prior; the value is maximized
    over direction and the receiving party's own setting.  DomainError unless
    the prior is a sized pair of nonnegative numbers that sums to 1.
    """
    try:
        pi0, pi1 = map(float, prior) if len(prior) == 2 and not isinstance(prior, str) else ()
    except (TypeError, ValueError, OverflowError):
        pi0 = pi1 = np.nan
    if not (pi0 >= 0.0 and pi1 >= 0.0 and abs(pi0 + pi1 - 1.0) <= _ENTROPY_SLACK):
        raise DomainError(f"prior must be a distribution over the two inputs, got {prior!r}")
    return _entropic_signal(marginals(box), pi0, pi1)


def _entropic_signal(m, pi0=0.5, pi1=0.5):
    # the receiver's outcome rows for remote input 0, 1 and their mixture, indexed
    # [row, ..., direction, own setting, outcome]: B at y = 0, 1, then A at x = 0, 1
    rows = np.empty((3,) + m.shape[:-4] + (2, 2, 2))
    rows[0, ..., 0, :, :] = m[..., 1, 0, :, :]
    rows[0, ..., 1, :, :] = m[..., 0, :, 0, :]
    rows[1, ..., 0, :, :] = m[..., 1, 1, :, :]
    rows[1, ..., 1, :, :] = m[..., 0, :, 1, :]
    np.multiply(pi0, rows[0], out=rows[2])
    rows[2] += pi1 * rows[1]
    h = _entropy(rows)
    info = (h[2] - pi0 * h[0]) - pi1 * h[1]
    return _value(np.maximum(0.0, _max2(_max2(info))))


def two_point_mutual_information(p, shift):
    """Information carried by a marginal sitting at p or p + shift.

    Vectorized over p: the remote bit is uniform, and the receiver sees
    outcome probability p when it is 0 and p + shift when it is 1.
    """
    p, shift = _real(p, 0, 1, "probability"), _real(shift, -1, 1, "shift")
    mixed = binary_entropy(p + 0.5 * shift)
    return mixed - 0.5 * binary_entropy(p) - 0.5 * binary_entropy(p + shift)


def entropic_signal_lower_bound(s):
    """Least H_S compatible with signal strength s: 1 - H((1 - s)/2), elementwise."""
    arr = _real(s, 0, 1, "signal strength")
    return 1.0 - binary_entropy((1.0 - np.clip(arr, 0.0, 1.0)) / 2.0)
