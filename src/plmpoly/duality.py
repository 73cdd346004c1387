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
    return d.mat.apply_min(y.negated())


def map_b(d: DirectedMetric, x: TropVector) -> TropVector:
    """B(x) = transposed d applied (min,+) to the negated vector."""
    return d.mat.transpose().apply_min(x.negated())


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

    Column identity: y = d[:,k] equals the (min,+) span of the columns
    d[:,j] with coefficients d[j,k], the product d y.  Negated identity:
    -y equals the span of the *rows* d[j,:] with the negated coefficients
    -d[j,k], the product d^t (-y), which is B(y); in it the term j = i
    supplies the -inf coordinates wherever d[i,k] = +inf.

    Neither product is built.  By `membership`'s docstring, a vector x
    not all +inf is a fixed point of a side's projector exactly when it
    is a member of that side: with the zero diagonal, (D x)_i is at most
    D_ii + x_i = x_i, and equals it exactly when row i's inequalities
    hold.  y lists k itself, at 0, so neither y nor -y is all +inf.  So
    d y == y is ``membership(y, d, LOWER)``, and d^t (-y) == -y, the upper
    projector fixing -y, is ``membership(-y, d, UPPER)``.  Both products
    equal the vectors they are compared with once the identities hold, so
    the report holds y and -y.

    y has fill +inf and lists the down-set of k, and -y has fill -inf and
    lists the same indices: the first test reads the columns of d at the
    down-set, the second the rows of d^t there, which are the same
    columns.  Each stops at its first failing inequality.
    """
    if not 0 <= k < d.n:
        raise IndexError(f"index {k} out of range")
    col = d.mat.column(k)
    verify(membership(col, d, Side.LOWER), f"column identity fails at index {k}")
    negated = col.negated()
    verify(membership(negated, d, Side.UPPER), f"negated identity fails at index {k}")
    return DualityReport(index=k, yoneda=col, negated=negated)
