"""Min-plus polyhedra attached to a directed metric.

The lower-side polyhedron is the set of vectors x (not all +inf) with
x_i <= d_ij + x_j for all i,j; equivalently the fixed points, and also the
image, of the (min,+) projector x -> d x.  No product decides either
fact: `membership`, its witness `violation` and `model.check_projector`
(d o d == d, which holds exactly when every column of d is a member)
read one walk of the inequalities themselves, `model._failures`, which
reads only the metric's entries that can fail.  `yoneda_isometric`
decides the isometry of one text's Yoneda row from the triangles
through that text.  The upper side is the same thing for the
transposed metric.
Multiplicative-domain points z = exp(-x) form the corresponding cone; a
`TropVector` with no -inf coordinate, not all +inf, is such a point, read
exactly by its `mults`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .model import DirectedMetric, _failures, reach
from .tropical import (
    NEG_INF,
    POS_INF,
    ExtReal,
    TropVector,
    _index0,
    _rescaled,
    neg,
    verify,
)


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


def side_metric(d: DirectedMetric, side: Side) -> DirectedMetric:
    """The metric whose lower side is the requested side of d."""
    return d if side is Side.LOWER else d.transpose()


def simplex_scale(z: TropVector) -> tuple[int, int]:
    """The reduced pair (a, b) with a/b the inverse of the sum of z's mirrors.

    The sum of the pairs num/den that are not +inf, the listed ones of a
    vector with fill +inf, is kept as one integer pair over the least
    common denominator; the scale is its inverse, which the all-(+inf)
    vector, with sum 0, does not have.  A fill of -inf is held by some
    coordinate.  So a scale is returned only for a fill of +inf and
    finite listed entries, and it is finite and positive.
    """
    if z.fill is NEG_INF:
        raise OverflowError("-inf has no finite multiplicative value")
    num, den = 0, 1
    for _, c in z.entries:
        if c is NEG_INF:
            raise OverflowError("-inf has no finite multiplicative value")
        if c.den == den:
            num += c.num
        else:
            lcm = den // gcd(den, c.den) * c.den
            num = num * (lcm // den) + c.num * (lcm // c.den)
            den = lcm
    if not num:
        raise ZeroDivisionError("the all-(+inf) vector has no simplex point")
    g = gcd(den, num)
    return den // g, num // g


def normalize_to_simplex(z: TropVector) -> TropVector:
    """Scale z so its multiplicative coordinates sum to 1 (the simplex point).

    Each listed mirror is multiplied by `simplex_scale(z)`.  That returns
    only for a fill of +inf and finite listed entries, and its scale is
    finite and positive, so `tropical._rescaled` keeps z's mask and the
    fill +inf, and the result is in its one form: no entry turns +inf or
    -inf, and with no -inf coordinate the fill rule picks +inf.
    """
    return _rescaled(z, *simplex_scale(z))


def membership(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> bool:
    """Exact test of all defining inequalities x_i <= d_ij + x_j of the side's metric.

    The test is `model._failures`, the one walk of these inequalities,
    stopped at its first failing pair.  It costs the entries of the side
    metric's columns at x's listed indices, for a cone point the columns
    at its support, or with fill -inf the entries of its rows there; no
    vector and no `Fraction` is built.  The all-(+inf) vector is no
    member; a fill of -inf is held by some coordinate, so no such vector
    is all +inf.

    Every member is a fixed point of the side's projector x -> D x, and
    every other vector that is not all +inf is not, fill -inf included:
    with D's zero diagonal, (D x)_i = min_j D_ij + x_j (``tmul``) is at
    most D_ii + x_i = x_i, and it equals x_i exactly when every term is
    at least x_i, which are the inequalities of row i.  So for x not all
    +inf, ``membership(x, d, side)`` is ``project(x, d, side) == x``.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if x.fill is POS_INF and not x.entries:
        return False
    return next(_failures(side_metric(d, side).mat, x.fill, x.entries), None) is None


def violation(x: TropVector, d: DirectedMetric) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with x_i > d_ij + x_j, or None.

    The witness to a "no" from `membership` on the lower side: x is a member
    exactly when it is not all +inf and this is None.  It is the least
    pair that `model._failures` yields, so it costs the walk of d's
    columns at x's listed indices (rows, with fill -inf), not every entry.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    return min(_failures(d.mat, x.fill, x.entries), default=None)


def project(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> TropVector:
    """Nearest-point projection: one (min,+) application of the metric."""
    return side_metric(d, side).mat.apply_min(x)


def yoneda(d: DirectedMetric, k: int) -> TropVector:
    """Column k of the metric: distances into a_k, +inf off the down-set of k."""
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    return d.mat.column(k)


def co_yoneda(d: DirectedMetric, k: int) -> TropVector:
    """Row k of the metric: distances out of a_k, +inf off the up-set of k."""
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    return d.mat.row(k)


def generator(d: DirectedMetric, k: int, side: Side = Side.LOWER) -> TropVector:
    return yoneda(d, k) if side is Side.LOWER else co_yoneda(d, k)


def yoneda_isometric(d: DirectedMetric, m: int, side: Side = Side.LOWER) -> bool:
    """Whether text m's Yoneda row is isometric: R(D[:,m]) == D[m,:] for the side's metric D.

    R(x)_j = max_k (D_kj - x_k) is `isbell.map_r` on D, whose upper twin
    `isbell.map_l` on d is R on d's transpose: ``map_r(D, yoneda(D, m)) ==
    co_yoneda(D, m)`` is the lower side, and ``map_l(d, co_yoneda(d, m))
    == yoneda(d, m)`` the upper.  Term by term R(D[:,m])_j is the Funk
    distance from D[:,m] to D[:,j], so the row holds for every m exactly
    when the triangle inequality does (Lawvere 1973).

    With x = D[:,m], a term with x_k = +inf is -inf, which (max,+)
    absorbs, so only the k that column m lists count, and each has
    D_km finite, as D has no -inf entry.  Their terms D_kj - D_km are +inf
    where row k leaves j out, finite elsewhere.  D's zero diagonal lists
    k = m, whose term is D_mj - 0 = D_mj, so no j can fall below D_mj:

    * a j that row m leaves out has R_j = +inf = D_mj, by the term k = m;
    * a j that row m lists has D_mj finite, so R_j = D_mj exactly when
      (a) each k that column m lists has a row mask holding row m's, and
      (b) D_kj <= D_km + D_mj for each such k other than m.

    (a) is one mask test per k.  Then each D_kj is listed in row k, and
    is found by bisection in its sorted list, resumed where the last j
    was found, as row m's j ascend.  (b) is then one cross-multiplied
    integer comparison of mirrors: with p/q for D_km, r/s for D_mj and
    c/e for D_kj, it reads c * q * s >= p * r * e.  The walk stops at the
    first failure.  It builds no vector and no dict of row k, since at
    corpus scale a word's row lists every text above it: the cost is one
    bisection in row k per k that column m lists and j that row m lists.
    """
    if not 0 <= m < d.n:
        raise IndexError(f"index {m} out of range")
    mat = side_metric(d, side).mat
    rows, row_masks = mat.row_entries, mat.row_masks
    line, need = rows[m], row_masks[m]
    for k, a in mat.col_entries[m]:
        if k == m:
            continue
        if need & ~row_masks[k]:
            return False  # row k misses a j that row m lists: R_j = +inf
        row = rows[k]
        an, ad = a.num, a.den
        at = 0
        for j, b in line:
            at = bisect_left(row, j, at, key=_index0)
            c = row[at][1]
            if c.num * ad * b.den < an * b.num * c.den:
                return False
    return True


def residuate(
    x: TropVector, d: DirectedMetric, subset: Iterable[int], side: Side = Side.LOWER
) -> tuple[tuple[ExtReal, ...], TropVector]:
    """The least weights lam* on the generators S, in ascending s, and D_S lam*.

    With D the side's metric and D_S lam = min_s D_is + lam_s (``tmul``), lam*_s =
    max_i (x_i - D_is) (``tmax_mul``) = -(D^t (-x))_s: ``duality``'s -B(x) on S, -A(x) upper.
    * lam* is the least lam with D_S lam >= x, which asks lam_s >= x_i - D_is
      wherever D_is is finite.  D_S is monotone, so D_S lam* is the least span
      point above x, and x is in the span of S exactly when D_S lam* = x.
    * On a member, lam*_s = x_s: by the zero diagonal the term i = s is x_s,
      and membership, x_i <= D_is + x_s, bounds every other term by it.
    * With S all texts, that fact is B(x) = -x, or A(x) = -x: ``check_fixed_negation``.
    """
    sub = sorted(set(subset))
    if not sub or sub[0] < 0 or sub[-1] >= d.n:
        raise ValueError("subset must be nonempty and in range")
    mat = side_metric(d, side).mat
    b = mat.transpose().apply_min(x.negated())
    listed = dict(b.entries)
    lams = tuple(neg(listed.get(s, b.fill)) for s in sub)
    return lams, mat.apply_min(TropVector.from_entries(d.n, POS_INF, zip(sub, lams)))


Constraint = tuple[int, int, ExtReal]  # (i, j, e): x_i <= e + x_j, so z_i >= exp(-e) z_j


def metric_cone_constraints(d: DirectedMetric, side: Side = Side.LOWER) -> list[Constraint]:
    """One row per off-diagonal finite entry of the side's metric: the entry itself."""
    return [
        (i, j, e)
        for i, entries in enumerate(side_metric(d, side).mat.row_entries)
        for j, e in entries
        if i != j
    ]


def tight_graph(z: TropVector, d: DirectedMetric) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of z's tight inequalities on its support.

    d is the side metric.  An edge i -> j is an off-diagonal entry d_ij
    that d lists, with i and j in the support of z (the coordinates that
    are not +inf) and x_i = d_ij + x_j for z read as a log-domain point.
    The test is exact: with z_k = num_k/den_k (-inf is 1/0) and the
    entry's mirror exp(-d_ij) = a/b, z_i = (a/b) z_j is num_i den_j b ==
    a num_j den_i.  Only the columns at the support are read, each
    entry's row looked up in z: the cost is those columns' entries.  The
    bitmasks of the indices off the support are 0.

    Walking every listed entry instead gives the same edges inside the
    support: a row between the support and a +inf coordinate is never
    tight, as one side of the test is 0 and the other is not, so the
    only tight rows that this walk leaves out join two +inf
    coordinates.  Every caller reads the graph inside the support.
    """
    get = dict(z.entries).get
    fill = z.fill
    # with fill +inf the support is the listed entries; with fill -inf, it
    # is every index but the listed +inf ones
    support = z.entries if fill is POS_INF else [(j, get(j, fill)) for j in z.support]
    cols = d.mat.col_entries
    out = [0] * z.n
    into = [0] * z.n
    for j, zj in support:
        jn, jd = zj.num, zj.den
        for i, a in cols[j]:
            zi = get(i, fill)
            # a +inf z_i, (0, 1), fails the test, since z_j is not +inf
            if i != j and zi.num * a.den * jd == a.num * jn * zi.den:
                out[i] |= 1 << j
                into[j] |= 1 << i
    return out, into


@dataclass(frozen=True)
class TerminalDecomposition:
    """x as a (min,+) combination over one text per sink of its tight graph."""

    terminals: tuple[int, ...]
    weights: tuple[ExtReal, ...]


def terminal_decompose(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> TerminalDecomposition:
    """x as the (min,+) span, weights x_t, of one text t per sink of its tight graph.

    Along a tight path from i to t, x_i is the path's length plus x_t, so
    at least d_it + x_t, and membership gives at most.  Each support text
    has such a path into a sink class (strongly connected, no tight edge
    out), whose least text is taken.  In a model's metric no two texts
    are 0 apart both ways, so the sinks are the texts with no out-edge.
    """
    if not membership(x, d, side):
        raise ValueError("vector is not in the polyhedron")
    out, into = tight_graph(x, side_metric(d, side))
    support = sum(1 << i for i in x.support)
    terms = []
    for i in x.support:
        ahead = reach(out, 1 << i, support)
        if ahead & -ahead == 1 << i and not ahead & ~reach(into, 1 << i, support):
            terms.append(i)
    weights, rebuilt = residuate(x, d, terms, side)
    verify(rebuilt == x)
    return TerminalDecomposition(terminals=tuple(terms), weights=weights)

