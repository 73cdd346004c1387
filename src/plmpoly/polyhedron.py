"""Min-plus polyhedra attached to a directed metric.

The lower-side polyhedron is the set of vectors x (not all +inf) with
x_i <= d_ij + x_j for all i,j; equivalently the fixed points, and also the
image, of the (min,+) projector x -> d x; `membership` tests it as that
fixed point.  The upper side is the same thing for the transposed metric.
Multiplicative-domain points z = exp(-x) form the corresponding cone; a
`TropVector` with no -inf coordinate, not all +inf, is such a point, read
exactly by its `mults`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isinf
from typing import Iterable, Sequence

from .model import DirectedMetric, reach, read_rational
from .tropical import NEG_INF, POS_INF, ExtReal, TropVector, _pair, neg, tmul, verify


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


def side_metric(d: DirectedMetric, side: Side) -> DirectedMetric:
    """The metric whose lower side is the requested side of d."""
    return d if side is Side.LOWER else d.transpose()


def normalize_to_simplex(z: TropVector) -> TropVector:
    """Scale z so its multiplicative coordinates sum to 1 (the simplex point).

    The sum of the pairs num/den that are not +inf, the listed ones of a
    vector with fill +inf, is kept as one integer pair over the least
    common denominator; the scale is its inverse, which the all-(+inf)
    vector, with sum 0, does not have.  A fill of -inf is held by some
    coordinate.
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
    return z.scaled(_pair(den // g, num // g))


def membership(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> bool:
    """Exact test of all defining inequalities x_i <= d_ij + x_j, as d x == x.

    The zero diagonal makes the term j = i of (d x)_i = min_j tmul(d_ij, x_j)
    equal x_i, so (d x)_i <= x_i, with equality exactly when x_i <= d_ij + x_j
    for every j.  Both use ``tmul``, so this holds at -inf and +inf too.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if x.fill is POS_INF and not x.entries:
        return False
    return project(x, d, side) == x


def violation(x: TropVector, d: DirectedMetric) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with x_i > d_ij + x_j, or None.

    The witness to a "no" from `membership` on the lower side: x is a member
    exactly when it is not all +inf and this is None.  A term with d_ij =
    +inf is +inf under ``tmul`` and bounds nothing, and j = i gives x_i
    itself, so only the other listed entries of row i are tested.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    listed, fill = dict(x.entries), x.fill
    for i, entries in enumerate(d.mat.row_entries):
        xi = listed.get(i, fill)
        for j, a in entries:
            if j != i and tmul(a, listed.get(j, fill)) < xi:
                return i, j
    return None


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


Constraint = tuple[int, int, Fraction]  # (i, j, p): z_i >= p * z_j


def metric_cone_constraints(d: DirectedMetric, side: Side = Side.LOWER) -> list[Constraint]:
    """One row z_i >= p z_j per off-diagonal finite entry, p = exp(-d_ij)."""
    return [
        (i, j, e.mult)
        for i, entries in enumerate(side_metric(d, side).mat.row_entries)
        for j, e in entries
        if i != j
    ]


def tight_graph(
    z: TropVector, constraints: Sequence[Constraint], n: int
) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of the rows z_i >= p z_j that z makes tight.

    For the rows of `metric_cone_constraints` this is the graph of tight
    inequalities x_i = d_ij + x_j of z read as a log-domain point.  The
    test is exact: with z_k = num_k/den_k (+inf is 0/1, -inf 1/0) and
    p = a/b, z_i = p z_j is num_i den_j b == a num_j den_i.  A row from
    the support to a +inf coordinate is never tight, so the out-edges of
    the support stay on it.  A row reads its two coordinates from z's
    entries.  When both ends are unlisted, both hold the fill, (0, 1) or
    (1, 0), and the test reads 0 == 0: tight.  When one end is unlisted,
    one side of the test is 0 and the other is not, as the listed end
    differs from the fill: not tight.
    """
    get = dict(z.entries).get
    out = [0] * n
    into = [0] * n
    for i, j, p in constraints:
        zi, zj = get(i), get(j)
        if zi is None or zj is None:
            if zi is not zj:
                continue
        elif zi.num * zj.den * p.denominator != p.numerator * zj.num * zi.den:
            continue
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
    out, into = tight_graph(x, metric_cone_constraints(d, side), d.n)
    support = sum(1 << i for i in x.support)
    terms = []
    for i in x.support:
        ahead = reach(out, 1 << i, support)
        if ahead & -ahead == 1 << i and not ahead & ~reach(into, 1 << i, support):
            terms.append(i)
    weights, rebuilt = residuate(x, d, terms, side)
    verify(rebuilt == x)
    return TerminalDecomposition(terminals=tuple(terms), weights=weights)


# ---------------------------------------------------------------------------
# vector files: log-domain entries, finite ones written multiplicatively


def float_string(x: float) -> str:
    if isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def ratio_string(num: int, den: int, as_float: bool = False) -> str:
    """The reduced ratio num/den as `Fraction` prints it, or as a decimal."""
    if not as_float:
        return str(num) if den == 1 else f"{num}/{den}"
    try:
        return float_string(num / den)
    except OverflowError:
        return "inf"


def cell_string(c: ExtReal, as_float: bool = False) -> str:
    """A log-domain value: inf, -inf, or its multiplicative mirror."""
    if c is POS_INF:
        return "inf"
    if c is NEG_INF:
        return "-inf"
    return ratio_string(c.num, c.den, as_float)


def vector_to_strings(x: TropVector, cell=cell_string) -> list[str]:
    """cell(c) for each coordinate c: the fill's string, repeated, then each listed entry's."""
    out = [cell(x.fill)] * x.n
    for i, c in x.entries:
        out[i] = cell(c)
    return out


def vector_from_strings(items: Sequence) -> TropVector:
    """A vector from its file items: the strings inf and -inf, or multiplicative values.

    Only a string names an infinity: a JSON number beyond float range is
    read as the float inf, which no rational equals, and is refused.
    """
    coords = []
    for s in items:
        token = s.strip() if isinstance(s, str) else s
        if token == "inf":
            coords.append(POS_INF)
        elif token == "-inf":
            coords.append(NEG_INF)
        else:
            coords.append(ExtReal.from_prob(read_rational(token)))
    return TropVector(coords)
