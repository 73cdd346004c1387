"""Isbell conjugation pair built from the (max,+) action of the metric.

L sends an upper-side vector y to d_max(-y) on the lower side, R sends a
lower-side vector back; LRL = L and RLR = R, and the joint fixed vectors
Fix(LR) form the (max,+) span of the generators, sitting strictly inside
the lower polyhedron in general.  The polyhedron itself is closed under
pointwise min and max, making it the lattice completion of that span.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .model import DirectedMetric, PartialOrder
from .polyhedron import Side, membership
from .rays import ResourceCapExceeded, enumerate_connected_lower_sets
from .tropical import TropVector, verify


def map_l(d: DirectedMetric, y: TropVector) -> TropVector:
    """L(y)_i = max_j (d_ij - y_j), differences in the (max,+) convention."""
    return d.mat.apply_max(y.negated())


def map_r(d: DirectedMetric, x: TropVector) -> TropVector:
    """R(x)_j = max_i (d_ij - x_i)."""
    return d.mat.transpose().apply_max(x.negated())


def isbell_member(d: DirectedMetric, x: TropVector) -> bool:
    """Exact fixed-point test x == L(R(x))."""
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    return map_l(d, map_r(d, x)) == x


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
    listed = [dict(s.entries) for s in family]
    cands: dict[TropVector, None] = {}
    for i in range(d.n):
        column = [(s, at.get(i, s.fill)) for s, at in zip(family, listed)]
        for t in {c for _, c in column}:
            cands[reduce(TropVector.min_with, [s for s, c in column if c >= t])] = None
    elems = list(cands)
    ups = [sum(1 << b for b, z in enumerate(elems) if y.leq(z)) for y in elems]
    # the top, when it is in L, is one more down-set, listed and then dropped
    limit = max(cap, len(family)) + (not reduce(TropVector.max_with, family).support)
    try:
        down_sets = enumerate_connected_lower_sets(PartialOrder(len(elems), ups), limit)
    except ResourceCapExceeded:
        raise ResourceCapExceeded(f"closure exceeded {cap} vectors") from None
    joins = (reduce(TropVector.max_with, [elems[k] for k in ks]) for ks in down_sets)
    closure = [x for x in joins if x.support]  # the all-(+inf) top has none
    for x in closure:
        verify(x in inputs or membership(x, d, Side.LOWER), "a closure vector is not a member")
    return closure
