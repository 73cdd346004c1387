"""Isbell conjugation pair built from the (max,+) action of the metric.

L sends an upper-side vector y to d_max(-y) on the lower side, R sends a
lower-side vector back; LRL = L and RLR = R, and the joint fixed vectors
Fix(LR) form the (max,+) span of the generators, sitting strictly inside
the lower polyhedron in general.  The polyhedron itself is closed under
pointwise min and max, making it the lattice completion of that span.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .model import DirectedMetric
from .polyhedron import Side, membership
from .rays import ResourceCapExceeded
from .tropical import TropVector, verify


def map_l(d: DirectedMetric, y: TropVector) -> TropVector:
    """L(y)_i = max_j (d_ij - y_j), differences in the (max,+) convention."""
    return TropVector(d.mat.apply_max(y.negated().coords))


def map_r(d: DirectedMetric, x: TropVector) -> TropVector:
    """R(x)_j = max_i (d_ij - x_i)."""
    return TropVector(d.mat.transpose().apply_max(x.negated().coords))


def isbell_member(d: DirectedMetric, x: TropVector) -> bool:
    """Exact fixed-point test x == L(R(x))."""
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    return map_l(d, map_r(d, x)) == x


def max_closure(
    vectors: Iterable[TropVector], d: DirectedMetric, cap: int = 10000
) -> list[TropVector]:
    """Close a family of members under pointwise min and max: meets, then joins.

    Write a ^ b for the pointwise min (meet) and a v b for the pointwise max
    (join).  R^n under them is a distributive lattice, so the sublattice a
    family generates is the set of joins of its meets (Birkhoff): the meet
    of two joins of meets is again one, as x ^ (y v z) = (x ^ y) v (x ^ z).
    Stage one closes the distinct inputs under min, meeting each new input
    g with every meet held so far, M <- M + {g} + {m ^ g : m in M}, so M
    ends holding the meet of every nonempty subset of the inputs.  Stage two closes M under max the same way, J <- J + {m} +
    {j v m : j in J}, and returns J.  The pair work is about
    n |M| + |M| |J| for n inputs.

    A coordinate of a meet is +inf only where both are, and of a join where
    either is, so each vector carries its support (its coordinates that are
    not +inf) as a bitmask: a meet's is the union of the two, a join's the
    intersection.  A join of disjoint supports is therefore the all-(+inf)
    top, outside the polyhedron by definition, and it is the only top: the
    inputs are members, so no support is empty.  It is skipped, and with it
    nothing else, as the top joined with anything is the top again.

    A candidate already seen is skipped too.  Every seen vector is either
    held or still pending: an input not yet met in stage one, a meet not
    yet joined in stage two.  So after each step, each combination of the
    vectors taken so far is held, or combines pending vectors with at most
    one held vector; each pending vector is combined with every vector held
    when its turn comes, so when nothing is pending, every one is held.

    Every new vector is re-verified to be a member.  The cap counts the
    distinct vectors held, inputs included, and the closure raises as soon
    as a vector is added while more than `cap` are held: exactly when its
    size exceeds max(cap, number of distinct inputs).
    """
    inputs: list[tuple[TropVector, int]] = []
    seen: set[tuple] = set()
    for v in vectors:
        if not membership(v, d, Side.LOWER):
            raise ValueError("closure input is not in the polyhedron")
        if v.coords not in seen:
            seen.add(v.coords)
            inputs.append((v, sum(1 << i for i in v.support)))
    if not inputs:
        raise ValueError("empty input family")

    def close(family, combine, combine_support):
        held: list[tuple[TropVector, int]] = []
        for g, g_support in family:
            fresh = [(g, g_support)]
            for h, h_support in held:
                support = combine_support(h_support, g_support)
                if not support:  # a join of disjoint supports: the top
                    continue
                cand = combine(h, g)
                if cand.coords in seen:
                    continue
                verify(membership(cand, d, Side.LOWER))
                seen.add(cand.coords)
                if len(seen) > cap:
                    raise ResourceCapExceeded(f"closure exceeded {cap} vectors")
                fresh.append((cand, support))
            held += fresh
        return held

    meets = close(inputs, TropVector.min_with, operator.or_)
    return [j for j, _ in close(meets, TropVector.max_with, operator.and_)]
