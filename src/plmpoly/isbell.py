"""Isbell conjugation pair built from the (max,+) action of the metric.

L sends an upper-side vector y to d_max(-y) on the lower side, R sends a
lower-side vector back; LRL = L and RLR = R, and the joint fixed vectors
Fix(LR) form the (max,+) span of the generators, sitting strictly inside
the lower polyhedron in general.  The polyhedron itself is closed under
pointwise min and max, making it the lattice completion of that span.
"""

from __future__ import annotations

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
    """Close a family of members under pointwise max and min.

    Each vector is paired once with every vector listed before it, and new
    vectors join the end of the list.  Each new vector is re-verified to be
    a member; blowing past `cap` distinct vectors aborts the closure.
    """
    work: list[TropVector] = []
    seen: set[tuple] = set()
    for v in vectors:
        if not membership(v, d, Side.LOWER):
            raise ValueError("closure input is not in the polyhedron")
        if v.coords not in seen:
            seen.add(v.coords)
            work.append(v)
    if not work:
        raise ValueError("empty input family")
    supports = [set(v.support) for v in work]
    for b, v in enumerate(work):  # `work` grows inside the loop
        for a, u in enumerate(work[:b]):
            cands = [u.min_with(v)]
            if not supports[a].isdisjoint(supports[b]):
                cands.append(u.max_with(v))
            # disjoint supports: the pointwise max is the all-(+inf)
            # point, which sits outside the polyhedron by definition
            for cand in cands:
                if cand.coords in seen:
                    continue
                verify(membership(cand, d, Side.LOWER))
                seen.add(cand.coords)
                work.append(cand)
                supports.append(set(cand.support))
                if len(work) > cap:
                    raise ResourceCapExceeded(f"closure exceeded {cap} vectors")
    return work
