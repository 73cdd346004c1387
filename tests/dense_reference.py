"""Slow exact references for `membership` and `max_closure`.

`membership_reference` scans every defining inequality x_i <= d_ij + x_j
by hand, with no (min,+) product.  `closure_reference` closes a family
under pointwise min and max in rounds, re-pairing every vector each round
until a round adds nothing; it checks candidates with
`membership_reference`.
"""

from __future__ import annotations

from plmpoly import ResourceCapExceeded, Side, side_metric
from plmpoly.tropical import tmul


def membership_reference(x, d, side=Side.LOWER) -> bool:
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if all(c.is_pos_inf for c in x.coords):
        return False
    dm = side_metric(d, side)
    return all(
        x[i] <= tmul(dm[i, j], x[j])
        for i in range(d.n)
        for j in range(d.n)
        if i != j
    )


def closure_reference(vectors, d, cap: int = 10000) -> list:
    work = []
    seen = set()
    for v in vectors:
        if not membership_reference(v, d):
            raise ValueError("closure input is not in the polyhedron")
        if v.coords not in seen:
            seen.add(v.coords)
            work.append(v)
    if not work:
        raise ValueError("empty input family")
    changed = True
    while changed:
        changed = False
        k = len(work)
        for a in range(k):
            for b in range(a + 1, k):
                u, v = work[a], work[b]
                cands = [u.min_with(v)]
                if set(u.support) & set(v.support):
                    cands.append(u.max_with(v))
                for cand in cands:
                    if cand.coords in seen:
                        continue
                    if not membership_reference(cand, d):
                        raise AssertionError("closure left the polyhedron")
                    seen.add(cand.coords)
                    work.append(cand)
                    changed = True
                    if len(work) > cap:
                        raise ResourceCapExceeded(f"closure exceeded {cap} vectors")
    return work
