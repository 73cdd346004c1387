"""Isbell conjugation pair built from the (max,+) action of the metric.

L sends an upper-side vector y to d_max(-y) on the lower side, R sends a
lower-side vector back; LRL = L and RLR = R, and the joint fixed vectors
Fix(LR) form the (max,+) span of the generators, sitting strictly inside
the lower polyhedron in general.  The polyhedron itself is closed under
pointwise min and max, making it the lattice completion of that span.

`map_l` and `map_r` build the maps' vectors through `apply_max`, for the
hull `isbell --vector` prints.  The isometry rows of `check`, R of a
column against its row and L of a row against its column, are decided
without them by `polyhedron.yoneda_isometric`.  `isbell_member` decides
x == L(R(x)) without them too, in integer pairs read off the metric's
rows at x's support, and `max_closure` lists the lattice closure from
its join-irreducibles, each built as a running meet.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .model import DirectedMetric, PartialOrder
from .polyhedron import Side, membership
from .rays import ResourceCapExceeded, enumerate_connected_lower_sets
from .tropical import NEG_INF, ExtReal, TropVector, bits, verify


def map_l(d: DirectedMetric, y: TropVector) -> TropVector:
    """L(y)_i = max_j (d_ij - y_j), differences in the (max,+) convention."""
    return d.mat.apply_max(y.negated())


def map_r(d: DirectedMetric, x: TropVector) -> TropVector:
    """R(x)_j = max_i (d_ij - x_i)."""
    return d.mat.transpose().apply_max(x.negated())


def isbell_member(d: DirectedMetric, x: TropVector) -> bool:
    """Exact fixed-point test x == L(R(x)), in one pass over d's rows at x's support.

    Write S for x's support (the i with x_i not +inf) and N for its -inf
    coordinates.  The terms are those of `apply_max` on -x: a term d_ij -
    x_i is -inf when x_i = +inf, +inf when it is not and d_ij = +inf or
    x_i = -inf, and finite otherwise; a metric has no -inf entry.  In
    mirror pairs, -x_i is x_i's pair swapped, so a finite d_ij - x_i is
    the pair (a.num * v.den, a.den * v.num) for the pairs a of d_ij and v
    of x_i, and the greatest term has the least pair.

    * N not empty: every R(x)_j has a +inf term, so R(x) is all +inf,
      L(R(x)) all -inf, and x is fixed exactly when it is all -inf.  A
      fill of -inf is held by some coordinate, so such an x is fixed
      exactly when it lists nothing, and a fill of +inf with a listed
      -inf entry is not fixed.
    * S empty (all +inf): R(x) is all -inf, each L(R(x))_i then has a
      +inf term, and x is fixed.
    * Otherwise R(x)_j is +inf unless j lies in T, the AND of the row
      masks over S, and for j in T it is the finite max over i in S of
      d_ij - x_i.  In L(R(x))_i only the j in T add terms that are not
      -inf.  L(R(x))_i is +inf exactly when row i misses some j in T,
      so x_i = +inf must hold exactly off the AND of T's column masks:
      that AND must be the mask of S.  With T empty the AND over no
      masks holds every index, and it fails; L(R(x)) is then all -inf,
      and x, finite on S, is not fixed.  For i in S every term
      d_ij - R(x)_j with j in T is at most x_i, as R(x)_j >= d_ij - x_i,
      so L(R(x))_i = x_i exactly when one term equals it.

    The walk forms R(x) as integer pairs from the rows at S, then stops
    at the first i in S with no term equal to x_i.  It builds no vector
    and no `Fraction`, and costs the listed entries of S's rows twice.
    """
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if x.fill is NEG_INF:
        return not x.entries
    if not x.entries:
        return True
    rows, row_masks, col_masks = d.mat.row_entries, d.mat.row_masks, d.mat.col_masks
    live = -1  # T: the j that every row at x's support lists
    for i, v in x.entries:
        if v is NEG_INF:
            return False
        live &= row_masks[i]
    reached = -1  # with T empty, every index: never x's mask
    for j in bits(live):
        reached &= col_masks[j]
    if reached != x.mask:
        return False
    r: dict[int, tuple[int, int]] = {}  # R(x)_j as the least mirror pair of its terms
    get = r.get
    for i, v in x.entries:
        vn, vd = v.num, v.den
        for j, a in rows[i]:
            if live >> j & 1:
                tn, td = a.num * vd, a.den * vn
                cur = get(j)
                if cur is None or tn * cur[1] < cur[0] * td:
                    r[j] = tn, td
    for i, v in x.entries:
        vn, vd = v.num, v.den
        for j, a in rows[i]:
            y = get(j)
            if y is not None and a.num * y[1] * vd == a.den * y[0] * vn:
                break
        else:
            return False
    return True


def closure_candidates(family: list[TropVector], n: int) -> list[TropVector]:
    """The distinct y(i, t) = ^{s in family : s_i >= t}, t a value s_i, as running meets.

    See `max_closure`, whose candidates these are, for the proof.
    """
    listed = [dict(s.entries) for s in family]
    cands: dict[TropVector, None] = {}
    for i in range(n):
        column: dict[ExtReal, list[TropVector]] = {}
        for s, at in zip(family, listed):
            column.setdefault(at.get(i, s.fill), []).append(s)
        meet = None
        for t in sorted(column, reverse=True):
            for s in column[t]:
                meet = s if meet is None else meet.min_with(s)
            cands[meet] = None  # y(i, t): the meet of every s with s_i >= t
    return list(cands)


def max_closure(
    vectors: Iterable[TropVector], d: DirectedMetric, cap: int = 10000
) -> list[TropVector]:
    """Close a family of members under pointwise min and max.

    Write ^ for pointwise min (meet), v for pointwise max (join), S for the
    distinct inputs and L for the lattice they generate.  As min and max
    distribute, each x in L is x = v_a ^A_a over nonempty subsets A_a of S.
    Then x = v_i y(i, x_i) with y(i, t) = ^{s in S : s_i >= t}: for each i
    some a has (^A_a)_i = x_i, so each s in A_a has s_i >= x_i, and
    y(i, x_i) <= ^A_a <= x with equality in coordinate i.  So the
    candidates y(i, t), t a value s_i, lie in L and join to each x in L.
    A candidate c = y(i, t) other than ^S is join-irreducible: were c the
    join of elements of L below it, one of them, u, would have
    u_i = c_i >= t, and the same step would give c <= ^A_a <= u < c.  By
    Birkhoff's representation theorem (Davey & Priestley, *Introduction to
    Lattices and Order*, ch. 5), x -> {join-irreducibles <= x} maps the
    finite distributive L one-to-one onto the down-sets of its
    join-irreducibles, the empty one to ^S: joining each down-set lists L
    once, and no duplicate is formed.  ^S is a candidate, y(i, min of the
    s_i), and the least one, so the nonempty connected lower sets of the
    candidates are ^S with each down-set, which
    `enumerate_connected_lower_sets` lists.

    The candidates of coordinate i are built as running meets.  Group S by
    the value s_i and walk the distinct values t in descending order,
    meeting each group into one running meet.  After t's group, the meet
    has taken in exactly the groups at values t' >= t, which are the s
    with s_i >= t, and as ^ is associative and commutative it is then
    y(i, t).  So each coordinate costs one `min_with` per input, not one
    meet over {s : s_i >= t} for each of its values t.

    Numbered by a linear extension (fewest candidates below first), the
    highest index k of a down-set D is maximal in it, so D minus k is a
    down-set again, nonempty (holding ^S, index 0) unless D = {^S}, and
    listed before D, whose mask it precedes.  Each join is then that
    parent's join with the one candidate k: one `max_with` per vector.

    The all-(+inf) top, outside the polyhedron by definition, may be such a
    join and is skipped.  Every vector that is not an input is re-verified
    to be a member.  The closure raises exactly when it holds more than
    max(cap, number of distinct inputs) vectors, inputs included.
    """
    inputs: dict[TropVector, None] = {}
    for v in vectors:
        if not membership(v, d, Side.LOWER):
            raise ValueError("closure input is not in the polyhedron")
        inputs[v] = None
    if not inputs:
        raise ValueError("empty input family")
    family = list(inputs)
    elems = closure_candidates(family, d.n)
    ups = [sum(1 << b for b, z in enumerate(elems) if y.leq(z)) for y in elems]
    # renumber by a linear extension, fewest elements below first
    rank = sorted(range(len(elems)), key=lambda b: sum(u >> b & 1 for u in ups))
    at = {b: k for k, b in enumerate(rank)}
    elems = [elems[b] for b in rank]
    ups = [sum(1 << at[b] for b in bits(ups[a])) for a in rank]
    # the top, when it is in L, is one more down-set, listed and then dropped
    limit = max(cap, len(family)) + (not reduce(TropVector.max_with, family).support)
    try:
        down_sets = enumerate_connected_lower_sets(PartialOrder(len(elems), ups), limit)
    except ResourceCapExceeded:
        raise ResourceCapExceeded(f"closure exceeded {cap} vectors") from None
    joins: dict[tuple[int, ...], TropVector] = {}
    for ks in down_sets:
        top = elems[ks[-1]]
        joins[ks] = joins[ks[:-1]].max_with(top) if len(ks) > 1 else top
    closure = [x for x in joins.values() if x.support]  # the all-(+inf) top has none
    for x in closure:
        verify(x in inputs or membership(x, d, Side.LOWER), "a closure vector is not a member")
    return closure
