"""Order-reversing duality between the lower and upper polyhedra.

Over the extended reals (-inf legal, (min,+) convention) the maps
A(y) = d_min(-y) and B(x) = d_min^t(-x) form an adjoint pair,
D(A y, x) = D^t(y, B x), restrict to mutually inverse anti-isometries
between the two extended polyhedra, and act there as plain negation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DirectedMetric
from .polyhedron import Side, membership
from .tropical import TropVector, verify


def map_a(d: DirectedMetric, y: TropVector) -> TropVector:
    """A(y) = d applied (min,+) to the negated vector."""
    return TropVector(d.mat.apply_min(y.negated().coords))


def map_b(d: DirectedMetric, x: TropVector) -> TropVector:
    """B(x) = transposed d applied (min,+) to the negated vector."""
    return TropVector(d.mat.transpose().apply_min(x.negated().coords))


def check_fixed_negation(d: DirectedMetric, x: TropVector, side: Side) -> bool:
    """On members of a side's extended polyhedron, B (lower) or A (upper) is negation."""
    if not membership(x, d, side):
        raise ValueError("vector is not in the side's extended polyhedron")
    return (map_b if side is Side.LOWER else map_a)(d, x) == x.negated()


@dataclass(frozen=True)
class DualityReport:
    """Both linear-system identities for one generator, already verified."""

    index: int
    yoneda: TropVector  # column of d, written as a span of columns
    negated: TropVector  # its negation, written as a span of rows


def dual_decompose(d: DirectedMetric, k: int) -> DualityReport:
    """Exactly verify both decompositions attached to generator k.

    Column identity: d[:,k] equals the (min,+) span of the columns d[:,j]
    with coefficients d[j,k].  Negated identity: -d[:,k] equals the span of
    the *rows* d[j,:] with the negated coefficients -d[j,k]; in it the term
    j = i supplies the -inf coordinates wherever d[i,k] = +inf.
    """
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    col = TropVector(d.mat.column(k))
    primal = TropVector(d.mat.apply_min(col.coords))
    verify(primal.coords == d.mat.column(k), f"column identity fails at index {k}")

    negated = map_b(d, col)
    expected = col.negated()
    verify(negated == expected, f"negated identity fails at index {k}")
    return DualityReport(index=k, yoneda=primal, negated=negated)
