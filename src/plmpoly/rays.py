"""Extremal rays of the multiplicative cones.

On the lower side the cone is {z >= 0 : z_i >= Pr(a_j|a_i) z_j for a_i <= a_j};
its extremal rays correspond one-to-one with the nonempty connected lower
sets of the order.  The upper side is the same statement in the opposite
order.  `oracle_rays` recomputes rays of an arbitrary such constraint system
from scratch (saturated-subset enumeration over exact rationals) and knows
nothing about orders, so the two routes check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .model import (
    DirectedMetric,
    PartialOrder,
    Plm,
    bits,
    metric_from_plm,
    potential,
    potentials,
)
from .polyhedron import QVector, SaturationGraph, Side, saturation_graph, membership
from .tropical import POS_INF, ExtReal, TropVector, neg

Constraint = tuple[int, int, Fraction]  # (i, j, p): z_i >= p * z_j


class ResourceCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class LowerSet:
    members: tuple[int, ...]
    mask: int


def enumerate_connected_lower_sets(order: PartialOrder, cap: int = 24) -> list[LowerSet]:
    """All nonempty downward-closed subsets whose comparability graph connects."""
    n = order.n
    if n > cap:
        raise ResourceCapExceeded(f"{n} elements exceeds the enumeration cap {cap}")
    topo = sorted(range(n), key=lambda i: bin(order.down_mask(i)).count("1"))
    masks: list[int] = []

    def rec(pos: int, mask: int) -> None:
        if pos == n:
            if mask and order.connected(mask):
                masks.append(mask)
            return
        e = topo[pos]
        rec(pos + 1, mask)
        need = order.down_mask(e) & ~(1 << e)
        if need & ~mask == 0:
            rec(pos + 1, mask | (1 << e))

    rec(0, 0)
    masks.sort()
    return [LowerSet(members=bits(m), mask=m) for m in masks]


@dataclass(frozen=True)
class Ray:
    """One extremal ray: exact generator plus its combinatorial certificate."""

    generator: QVector  # canonical: largest coordinate is 1
    carrier: frozenset[int]
    side: Side
    principal_of: int | None
    certificate_rank: int


def _side_order_pr(m: Plm, side: Side) -> tuple[PartialOrder, dict[tuple[int, int], Fraction]]:
    if side is Side.LOWER:
        return m.order, dict(m.pr)
    return m.order.opposite(), {(j, i): p for (i, j), p in m.pr.items()}


def plm_cone_constraints(m: Plm, side: Side = Side.LOWER) -> list[Constraint]:
    order, pr = _side_order_pr(m, side)
    return [(i, j, pr[(i, j)]) for i, j in order.strict_pairs()]


def metric_cone_constraints(d: DirectedMetric, side: Side = Side.LOWER) -> list[Constraint]:
    dm = d if side is Side.LOWER else d.transpose()
    return [
        (i, j, dm[i, j].mult)
        for i in range(d.n)
        for j in range(d.n)
        if i != j and not dm[i, j].is_pos_inf
    ]


def diagonal_scaling(
    m: Plm, refs: Mapping[int, int] | None = None
) -> dict[int, Fraction]:
    """Per-text weights w with w_j = Pr(a_j|a_i) w_i on every order edge.

    Rescaling z_i -> z_i / w_i turns every cone constraint into plain
    z~_i >= z~_j; the verification below is exact on all constraints.
    """
    w: dict[int, Fraction] = {}
    for pot in potentials(m, refs):
        w.update(pot.values)
    for (i, j), p in m.pr.items():
        if i != j:
            assert w[j] == p * w[i], f"scaling fails on edge ({i},{j})"
    return w


def ray_from_lower_set(m: Plm, members: Iterable[int], side: Side = Side.LOWER) -> Ray:
    """Characteristic vector of the carrier, diagonally rescaled, with certificate."""
    order, pr = _side_order_pr(m, side)
    mem = tuple(sorted(set(members)))
    if not mem:
        raise ValueError("carrier must be nonempty")
    mask = 0
    for i in mem:
        if not 0 <= i < m.n:
            raise ValueError(f"index {i} out of range")
        mask |= 1 << i
    for i in mem:
        if order.down_mask(i) & ~mask:
            raise ValueError("carrier is not downward closed on this side")
    if not order.connected(mask):
        raise ValueError("carrier is not connected")

    pot = potential(order, pr, mask, mem[0])
    coords = [Fraction(0)] * m.n
    for i in mem:
        coords[i] = 1 / pot[i]
    gen = QVector(coords).canonical()

    rank = _saturated_rank(gen, order, pr, mask)
    expected = m.n - 1
    assert rank == expected, f"certificate rank {rank} != {expected}"

    principal = None
    for k in mem:
        if order.down_mask(k) == mask:
            principal = k
            break
    return Ray(
        generator=gen,
        carrier=frozenset(mem),
        side=side,
        principal_of=principal,
        certificate_rank=rank,
    )


def _saturated_rank(
    z: QVector, order: PartialOrder, pr: Mapping[tuple[int, int], Fraction], mask: int
) -> int:
    n = len(z)
    rows: list[tuple[Fraction, ...]] = []
    for i in range(n):
        if not (mask >> i) & 1:
            row = [Fraction(0)] * n
            row[i] = Fraction(1)
            rows.append(tuple(row))
    for i, j in order.strict_pairs():
        if z[i] == pr[(i, j)] * z[j]:
            row = [Fraction(0)] * n
            row[i] = Fraction(1)
            row[j] = -pr[(i, j)]
            rows.append(tuple(row))
    return _rank(rows, n)


def _rank(rows: list[tuple[Fraction, ...]], n: int) -> int:
    ech: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        r = list(row)
        for col, piv in ech:
            if r[col]:
                f = r[col] / piv[col]
                r = [a - f * b for a, b in zip(r, piv)]
        lead = next((c for c in range(n) if r[c]), None)
        if lead is not None:
            ech.append((lead, r))
    return len(ech)


def enumerate_rays(m: Plm, side: Side = Side.LOWER, cap: int = 24) -> list[Ray]:
    """Theory route: one ray per nonempty connected lower set of the side's order."""
    d = metric_from_plm(m)
    order, _ = _side_order_pr(m, side)
    rays = [
        ray_from_lower_set(m, ls.members, side)
        for ls in enumerate_connected_lower_sets(order, cap)
    ]
    for r in rays:
        assert membership(r.generator.to_trop(), d, side)
    return rays


# ---------------------------------------------------------------------------
# the oracle: saturated-subset enumeration, independent of any order theory


def oracle_rays(
    constraints: Sequence[Constraint], n: int, bound: int = 12
) -> list[QVector]:
    """Extremal rays of {z >= 0 : z_i >= p z_j for each constraint}.

    Every linearly independent (n-1)-subset of saturated-constraint
    gradients (facets z_i = 0 included) pins down a candidate line; the
    feasible nonnegative ones, deduped, are exactly the extremal rays.
    Integer fraction-free elimination keeps everything exact.
    """
    if n > bound:
        raise ResourceCapExceeded(f"dimension {n} exceeds the oracle bound {bound}")
    rows: list[tuple[int, ...]] = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
    cons = [(i, j, Fraction(p)) for i, j, p in constraints]
    for i, j, p in cons:
        if p <= 0:
            raise ValueError("constraint coefficients must be positive")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("constraint index out of range")
        row = [0] * n
        row[i] = p.denominator
        row[j] += -p.numerator  # i == j allowed: collapses to one coefficient
        rows.append(tuple(r for r in row))
    m_rows = len(rows)
    target = n - 1
    found: dict[tuple[Fraction, ...], QVector] = {}

    def emit(candidate: list[Fraction]) -> None:
        if all(c <= 0 for c in candidate):
            candidate = [-c for c in candidate]
        if any(c < 0 for c in candidate):
            return
        if all(c == 0 for c in candidate):
            return
        for i, j, p in cons:
            if candidate[i] < p * candidate[j]:
                return
        q = QVector(candidate).canonical()
        found[q.coords] = q

    def nullvec(ech: list[tuple[int, tuple[int, ...]]]) -> list[Fraction]:
        pivots = {col for col, _ in ech}
        free = next(c for c in range(n) if c not in pivots)
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for col, row in reversed(ech):
            s = sum((Fraction(row[c]) * v[c] for c in range(n) if c != col), Fraction(0))
            v[col] = -s / row[col]
        return v

    def reduced(ech: list[tuple[int, tuple[int, ...]]], row: tuple[int, ...]):
        r = list(row)
        for col, piv in ech:
            if r[col]:
                a, b = piv[col], r[col]
                r = [a * x - b * y for x, y in zip(r, piv)]
        lead = next((c for c in range(n) if r[c]), None)
        if lead is None:
            return None
        g = 0
        for x in r:
            g = gcd(g, abs(x))
        if g > 1:
            r = [x // g for x in r]
        return (lead, tuple(r))

    def rec(start: int, ech: list[tuple[int, tuple[int, ...]]]) -> None:
        if len(ech) == target:
            emit(nullvec(ech))
            return
        for idx in range(start, m_rows - (target - len(ech)) + 1):
            nr = reduced(ech, rows[idx])
            if nr is None:
                continue
            ech.append(nr)
            rec(idx + 1, ech)
            ech.pop()

    rec(0, [])
    return [found[key] for key in sorted(found)]


def certify_ray(z: QVector, constraints: Sequence[Constraint], n: int) -> int:
    """Rank of the saturated system at z (n-1 exactly when z is extremal)."""
    rows: list[tuple[Fraction, ...]] = []
    for i in range(n):
        if z[i] == 0:
            row = [Fraction(0)] * n
            row[i] = Fraction(1)
            rows.append(tuple(row))
    for i, j, p in constraints:
        if z[i] == Fraction(p) * z[j]:
            row = [Fraction(0)] * n
            row[i] += Fraction(1)
            row[j] += -Fraction(p)
            rows.append(tuple(row))
    return _rank(rows, n)


def cross_check_rays(rays: Sequence[Ray], oracle: Sequence[QVector]) -> bool:
    """Same ray sets up to scale (both routes canonicalize, so: equality)."""
    mine = sorted(r.generator.canonical().coords for r in rays)
    theirs = sorted(q.canonical().coords for q in oracle)
    return mine == theirs


def ray_saturation_edges(r: Ray, m: Plm) -> SaturationGraph:
    """Saturation graph of a ray: all comparable pairs inside its carrier."""
    d = metric_from_plm(m)
    g = saturation_graph(r.generator.to_trop(), d, r.side)
    order, _ = _side_order_pr(m, r.side)
    expected = frozenset(
        (i, j)
        for i in r.carrier
        for j in r.carrier
        if i != j and order.leq(i, j)
    )
    assert g.edges == expected
    return g


def ray_as_text_combination(r: Ray, m: Plm) -> list[tuple[int, ExtReal]]:
    """Write a lower ray as a weighted (min,+) span of its maximal texts.

    Weights are log-probabilities of the maximal texts given the empty
    text; the combination reproduces -log(generator) up to a shift.
    """
    if not m.has_empty_text:
        raise ValueError("model has no empty text")
    if r.side is not Side.LOWER:
        raise ValueError("text combinations are defined for lower rays")
    d = metric_from_plm(m)
    maximal = [
        i for i in r.carrier if not any(j != i and m.order.leq(i, j) for j in r.carrier)
    ]
    maximal.sort()
    a0 = m.texts.index(())
    out = [(b, neg(d[a0, b])) for b in maximal]
    weights = [neg(d[a0, i]) if i in maximal else POS_INF for i in range(m.n)]
    combo = d.mat.apply_min(weights)
    rebuilt = QVector.from_trop(TropVector(combo, extended=True))
    assert rebuilt.proportional(r.generator)
    return out
