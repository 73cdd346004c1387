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
from math import gcd
from typing import Sequence

from .model import DirectedMetric
from .tropical import NEG_INF, POS_INF, ExtReal, TropVector, funk, tmul, verify


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


def side_metric(d: DirectedMetric, side: Side) -> DirectedMetric:
    """The metric whose lower side is the requested side of d."""
    return d if side is Side.LOWER else d.transpose()


def normalize_to_simplex(z: TropVector) -> TropVector:
    """Scale z so its multiplicative coordinates sum to 1 (the simplex point).

    The sum of the pairs num/den that are not +inf is kept as one integer
    pair over the least common denominator; the scale is its inverse.
    """
    num, den = 0, 1
    for c in z.coords:
        if c is POS_INF:
            continue
        if c is NEG_INF:
            raise OverflowError("-inf has no finite multiplicative value")
        if c.den == den:
            num += c.num
        else:
            lcm = den // gcd(den, c.den) * c.den
            num = num * (lcm // den) + c.num * (lcm // c.den)
            den = lcm
    return z.scaled(ExtReal(Fraction(den, num)))


def membership(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> bool:
    """Exact test of all defining inequalities x_i <= d_ij + x_j, as d x == x.

    The zero diagonal makes the term j = i of (d x)_i = min_j tmul(d_ij, x_j)
    equal x_i, so (d x)_i <= x_i, with equality exactly when x_i <= d_ij + x_j
    for every j.  Both use ``tmul``, so this holds at -inf and +inf too.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if all(c is POS_INF for c in x.coords):
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
    for i, entries in enumerate(d.mat.row_entries):
        for j, a in entries:
            if j != i and tmul(a, x[j]) < x[i]:
                return i, j
    return None


def project(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> TropVector:
    """Nearest-point projection: one (min,+) application of the metric."""
    return TropVector(side_metric(d, side).mat.apply_min(x.coords))


def yoneda(d: DirectedMetric, k: int) -> TropVector:
    """Column k of the metric: distances into a_k."""
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    return TropVector(d.mat.column(k))


def co_yoneda(d: DirectedMetric, k: int) -> TropVector:
    """Row k of the metric: distances out of a_k."""
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    return TropVector(d.mat.rows[k])


def generator(d: DirectedMetric, k: int, side: Side = Side.LOWER) -> TropVector:
    return yoneda(d, k) if side is Side.LOWER else co_yoneda(d, k)


def coordinates_as_distances(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> TropVector:
    """Each member's coordinates are its Funk distances from the generators."""
    if not membership(x, d, side):
        raise ValueError("vector is not in the polyhedron")
    dists = tuple(funk(generator(d, i, side), x) for i in range(d.n))
    verify(dists == x.coords)
    return TropVector(dists)


def span_decompose(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> list[ExtReal]:
    """Coefficients writing x as a (min,+) combination of the generators."""
    if not membership(x, d, side):
        raise ValueError("vector is not in the polyhedron")
    verify(project(x, d, side) == x)
    return list(x.coords)


@dataclass(frozen=True)
class SaturationGraph:
    """Directed graph of tight inequalities x_i = d_ij + x_j.

    Loops sit on every vertex and are left implicit; recorded edges run
    between support elements at finite distance only.
    """

    n: int
    support: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def terminals(self) -> tuple[int, ...]:
        outs = {i for i, _ in self.edges}
        return tuple(sorted(i for i in self.support if i not in outs))


def saturation_graph(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> SaturationGraph:
    if not membership(x, d, side):
        raise ValueError("vector is not in the polyhedron")
    dm = side_metric(d, side)
    support = frozenset(x.support)
    edges = frozenset(
        (i, j)
        for i in support
        for j in support
        if i != j and dm[i, j].is_finite and x[i] == tmul(dm[i, j], x[j])
    )
    return SaturationGraph(n=d.n, support=support, edges=edges)


@dataclass(frozen=True)
class TerminalDecomposition:
    """x as a (min,+) combination over the terminals of its saturation graph."""

    terminals: tuple[int, ...]
    weights: tuple[ExtReal, ...]
    graph: SaturationGraph


def terminal_decompose(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> TerminalDecomposition:
    g = saturation_graph(x, d, side)
    terms = g.terminals
    weights = tuple(x[i] for i in terms)
    lams = [x[i] if i in terms else POS_INF for i in range(d.n)]
    rebuilt = side_metric(d, side).mat.apply_min(lams)
    verify(rebuilt == x.coords)
    return TerminalDecomposition(terminals=terms, weights=weights, graph=g)


# ---------------------------------------------------------------------------
# vector files: log-domain entries, finite ones written multiplicatively


def vector_to_strings(x: TropVector) -> list[str]:
    out = []
    for c in x.coords:
        if c.is_pos_inf:
            out.append("inf")
        elif c.is_neg_inf:
            out.append("-inf")
        else:
            out.append(str(c.mult))
    return out


def vector_from_strings(items: Sequence) -> TropVector:
    coords = []
    for s in items:
        token = str(s).strip()
        if token == "inf":
            coords.append(POS_INF)
        elif token == "-inf":
            coords.append(ExtReal(None))
        else:
            coords.append(ExtReal.from_prob(Fraction(token)))
    return TropVector(coords)
