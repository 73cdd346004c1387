"""Min-plus polyhedra attached to a directed metric.

The lower-side polyhedron is the set of vectors x (not all +inf) with
x_i <= d_ij + x_j for all i,j; equivalently the fixed points, and also the
image, of the (min,+) projector x -> d x.  The upper side is the same thing
for the transposed metric.  Multiplicative-domain points z = exp(-x) form
the corresponding cone and are kept as exact rational vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import DirectedMetric, components_of
from .tropical import (
    ExtReal,
    POS_INF,
    Rational,
    TropVector,
    _as_fraction,
    funk,
    min_plus_apply,
    tmul,
)


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"

    @staticmethod
    def parse(s: str) -> "Side":
        try:
            return Side(s)
        except ValueError:
            raise ValueError(f"side must be 'lower' or 'upper', got {s!r}") from None


def side_metric(d: DirectedMetric, side: Side) -> DirectedMetric:
    """The metric whose lower side is the requested side of d."""
    return d if side is Side.LOWER else d.transpose()


class QVector:
    """Exact rational point of the multiplicative cone (nonneg, not all zero)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rational]):
        cs = tuple(_as_fraction(c) for c in coords)
        if not cs:
            raise ValueError("empty vector")
        if all(c == 0 for c in cs):
            raise ValueError("all-zero vector")
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, *a):
        raise AttributeError("QVector is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "QVector(%s)" % ", ".join(str(c) for c in self.coords)

    def total(self) -> Fraction:
        return sum(self.coords, Fraction(0))

    def scaled(self, factor: Rational) -> "QVector":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return QVector(c * f for c in self.coords)

    def canonical(self) -> "QVector":
        """Representative of the ray through self with largest coordinate 1."""
        return self.scaled(1 / max(self.coords))

    def proportional(self, other: "QVector") -> bool:
        return len(self) == len(other) and self.canonical() == other.canonical()

    def to_trop(self) -> TropVector:
        return TropVector(ExtReal(c) for c in self.coords)

    @staticmethod
    def from_trop(x: TropVector) -> "QVector":
        return QVector(c.mult for c in x.coords)


def normalize_to_simplex(z: QVector) -> QVector:
    """Scale z so its coordinates sum to 1 (the simplex cross-section point)."""
    return z.scaled(1 / z.total())


def membership(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> bool:
    """Exact test of all defining inequalities x_i <= d_ij + x_j."""
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if all(c.is_pos_inf for c in x.coords):
        return False
    dm = side_metric(d, side)
    ok = all(
        x[i] <= tmul(dm[i, j], x[j])
        for i in range(d.n)
        for j in range(d.n)
        if i != j
    )
    assert ok == (project(x, d, side) == x)
    return ok


def project(x: TropVector, d: DirectedMetric, side: Side = Side.LOWER) -> TropVector:
    """Nearest-point projection: one (min,+) application of the metric."""
    return min_plus_apply(side_metric(d, side).mat, x)


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
    assert dists == x.coords
    return TropVector(dists, extended=x.extended)


def span_decompose(
    x: TropVector, d: DirectedMetric, side: Side = Side.LOWER
) -> list[ExtReal]:
    """Coefficients writing x as a (min,+) combination of the generators."""
    if not membership(x, d, side):
        raise ValueError("vector is not in the polyhedron")
    lams = list(x.coords)
    combo = combine(d, lams, side)
    assert combo == x
    return lams


def combine(
    d: DirectedMetric, lams: Sequence[ExtReal], side: Side = Side.LOWER
) -> TropVector:
    """(min,+) combination of generators with the given coefficients."""
    if len(lams) != d.n:
        raise ValueError("dimension mismatch")
    dm = side_metric(d, side)
    coords = dm.mat.apply_min(tuple(lams))
    extended = any(c.is_neg_inf for c in coords)
    return TropVector(coords, extended=extended)


@dataclass(frozen=True)
class SaturationGraph:
    """Directed graph of tight inequalities x_i = d_ij + x_j.

    Loops sit on every vertex and are left implicit; recorded edges run
    between support elements at finite distance only.  Component counts
    come in two flavors: within the support, and with the off-support
    vertices counted as isolated.
    """

    n: int
    support: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def terminals(self) -> tuple[int, ...]:
        outs = {i for i, _ in self.edges}
        return tuple(sorted(i for i in self.support if i not in outs))

    @property
    def components_support(self) -> int:
        return self._count(self.support)

    @property
    def components_total(self) -> int:
        return self._count(self.support) + (self.n - len(self.support))

    def _count(self, verts: frozenset[int]) -> int:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return len(components_of(adj, sum(1 << v for v in verts)))


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
    assert rebuilt == x.coords
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


def vector_from_strings(items: Sequence, extended: bool = True) -> TropVector:
    coords = []
    for s in items:
        token = str(s).strip()
        if token == "inf":
            coords.append(POS_INF)
        elif token == "-inf":
            coords.append(ExtReal(None))
        else:
            coords.append(ExtReal.from_prob(Fraction(token)))
    return TropVector(coords, extended=extended)
