"""Extremal rays of the multiplicative cones.

On the lower side the cone is {z >= 0 : z_i >= Pr(a_j|a_i) z_j for a_i <= a_j};
its extremal rays correspond one-to-one with the nonempty connected lower
sets of the order.  The upper side is the same statement in the opposite
order.  `oracle_rays` recomputes rays of an arbitrary such constraint system
from scratch by the double description method: it starts from the unit
rays of the orthant and adds one constraint at a time, combining a ray on
the constraint's positive side with one on its negative side whenever the
two are adjacent, which a bitmask of their tight constraints decides
exactly.  It works in integers and knows nothing about orders, so the two
routes check each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .model import (
    PartialOrder,
    Plm,
    ValidationFailed,
    bits,
    components_of,
    metric_from_plm,
    reach,
    validate_plm,
)
from .polyhedron import Constraint, Side, membership, residuate, tight_graph
from .tropical import POS_INF, ExtReal, TropVector, _pair, neg, verify


class ResourceCapExceeded(RuntimeError):
    pass


LOWER_SET_CAP = 100_000  # connected lower sets one enumeration may emit
ORACLE_CAP = 2000  # rays held between two double-description steps


def enumerate_connected_lower_sets(
    order: PartialOrder, cap: int = LOWER_SET_CAP
) -> list[tuple[int, ...]]:
    """All nonempty downward-closed subsets whose comparability graph connects.

    A flashlight search over pairs (low, ban): `low` is the down-closure of
    the elements taken, `ban` the up-closure of those refused, and the
    sets still possible are the connected lower sets L with
    low <= L <= ~ban.  When `low` is nonempty there is one exactly when
    `low` lies in a single component C of the comparability graph on ~ban,
    and then C is such an L: ~ban is a lower set, so is each of its
    components, and any L holding `low` lies in C.  So one `reach` either
    prunes the node or bans ~ban minus C.  A node with `low` empty needs
    only a nonempty ~ban.  The search branches on the lowest undecided x,
    by taking it (adding its down-set to `low`) or refusing it (adding its
    up-set to `ban`).  Both are always allowed: ~ban is a lower set that
    holds x, so nothing below x is banned, and `low` is a lower set
    without x, so nothing above x is taken.  A node with nothing
    undecided is a set to emit.  Taking x keeps C as a witness, so every
    node that passes its test has an output below it; with depth at most
    n, the delay between two outputs is polynomial, the bound that
    reverse search (Avis & Fukuda 1996) gives.

    `ResourceCapExceeded` is raised as soon as one more set would go past
    `cap`.  The result is sorted by bitmask.  Besides `enumerate_rays`,
    `isbell.max_closure` calls it, to list the down-sets of a lattice's
    join-irreducibles.
    """
    adj, up, down = order._adj, order._up, order._down
    full = (1 << order.n) - 1
    masks: list[int] = []
    stack = [(0, 0)]
    while stack:
        low, ban = stack.pop()
        free = full & ~ban
        if low:
            comp = reach(adj, low & -low, free)
            if low & ~comp:
                continue
            ban |= free & ~comp
            free = comp
        elif not free:
            continue
        undecided = free & ~low
        if not undecided:
            if len(masks) == cap:
                raise ResourceCapExceeded(
                    f"more than {cap} connected lower sets (enumeration cap)"
                )
            masks.append(low)
            continue
        x = (undecided & -undecided).bit_length() - 1
        stack.append((low, ban | up[x]))
        stack.append((low | down[x], ban))
    masks.sort()
    return [bits(m) for m in masks]


@dataclass(frozen=True)
class Ray:
    """One extremal ray: exact generator plus its combinatorial certificate."""

    generator: TropVector  # canonical: largest multiplicative coordinate is 1
    carrier: frozenset[int]
    side: Side
    principal_of: int | None
    certificate_rank: int


def _side_order(m: Plm, side: Side) -> PartialOrder:
    return m.order if side is Side.LOWER else m.order.opposite()


def plm_cone_constraints(m: Plm, side: Side = Side.LOWER) -> list[Constraint]:
    rows = [(i, j, m.pr[(i, j)]) for i, j in m.order.strict_pairs()]
    return rows if side is Side.LOWER else sorted((j, i, p) for i, j, p in rows)


def certify_ray(z: TropVector, constraints: Sequence[Constraint], n: int) -> int:
    """Rank of the rows of {z_k >= 0} and the constraints that z makes tight.

    The rank is n-1 exactly when z spans an extremal ray, and it is
    n minus the number of components of the `tight_graph` of z, made
    undirected and induced on the support of z:

    * each zero coordinate k gives the unit row e_k;
    * a tight row z_i = p z_j (p > 0) with one zero end has both ends zero,
      so its row e_i - p e_j lies in the span of the unit rows;
    * on a component C the remaining rows form a weighted incidence matrix
      of a connected graph; v_i = p v_j on every edge fixes v on C from one
      coordinate, so its kernel on C is spanned by z|C and its rank is
      |C| - 1 (a row with i == j is then the zero row).

    The unit rows and the blocks of the components act on disjoint
    coordinates, so the ranks add up to (n - |supp z|) + sum (|C| - 1).
    """
    out, into = tight_graph(z, constraints, n)
    support = sum(1 << k for k in z.support)
    return n - len(components_of([a | b for a, b in zip(out, into)], support))


def _side_cone(m: Plm, side: Side) -> tuple[list[ExtReal], list[Constraint]]:
    """The side's generator values and cone constraints, kept on the model.

    With the model's potential w (validation walks it once), the value
    of text i is 1/w_i on the lower side and w_i on the upper side.
    """
    cone = m._side_cones.get(side)
    if cone is None:
        if m._potential is None:
            rep = validate_plm(m)
            if not rep.ok:
                raise ValidationFailed(rep)
        w = m._potential  # w_i = a/b as its reduced pair (a, b); 1/w_i swaps it
        lower = side is Side.LOWER
        pairs = (w[i] for i in range(m.n))
        values = [_pair(b, a) if lower else _pair(a, b) for a, b in pairs]
        cone = m._side_cones[side] = (values, plm_cone_constraints(m, side))
    return cone


def ray_from_lower_set(m: Plm, members: Iterable[int], side: Side = Side.LOWER) -> Ray:
    """Characteristic vector of the carrier, diagonally rescaled, with certificate.

    With the model's potential w, z_i = 1/w_i on the lower side and
    z_i = w_i on the upper side turns every cone constraint inside the
    carrier tight.  On a connected carrier a potential is unique up to
    scale, so the restriction of the model's one potential is the
    carrier's own, and a model that no one potential reproduces (the
    crown) is refused whatever the carrier.
    """
    values, constraints = _side_cone(m, side)
    order = _side_order(m, side)
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

    gen = TropVector.from_entries(m.n, POS_INF, ((i, values[i]) for i in mem)).canonical()

    rank = certify_ray(gen, constraints, m.n)
    expected = m.n - 1
    verify(rank == expected, f"certificate rank {rank} != {expected}")

    principal = next((k for k in mem if order.down_mask(k) == mask), None)
    return Ray(
        generator=gen,
        carrier=frozenset(mem),
        side=side,
        principal_of=principal,
        certificate_rank=rank,
    )


def enumerate_rays(m: Plm, side: Side = Side.LOWER) -> list[Ray]:
    """Theory route: one ray per nonempty connected lower set of the side's order.

    Each ray is re-tested for membership.  Its generator has fill +inf and
    lists its carrier, a lower set, so the projection reaches only the
    carrier's columns, each listing a down-set inside it: the test costs
    the order's pairs within the carrier.
    """
    d = metric_from_plm(m)
    rays = [
        ray_from_lower_set(m, members, side)
        for members in enumerate_connected_lower_sets(_side_order(m, side))
    ]
    for r in rays:
        verify(membership(r.generator, d, side), "a certified ray is not a member")
    return rays


# ---------------------------------------------------------------------------
# the oracle: double description, independent of any order theory


def oracle_rays(
    constraints: Sequence[Constraint], n: int, cap: int = ORACLE_CAP
) -> list[TropVector]:
    """Extremal rays of {z >= 0 : z_i >= p z_j for each constraint}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996).  The
    orthant's n unit rays generate {z >= 0}; the rows den*z_i - num*z_j >= 0
    (p = num/den) are then added one at a time, each step taking the
    pending row with the fewest positive-negative ray pairs.  Every ray is
    an integer vector divided by its gcd and carries a bitmask of the
    facets z_i >= 0 and rows it makes tight.  A row keeps the rays on its
    nonnegative side and replaces the negative ones by the points where it
    cuts the edges between a positive and a negative ray.  Two rays span
    an edge exactly when no third ray is tight on every constraint the two
    share (they must share at least n-2, which is checked first).  Nothing
    here knows about orders, so this is an independent second route.

    The result is canonical (largest coordinate 1), deduplicated and
    sorted.  `ResourceCapExceeded` is raised when more than `cap` rays
    would be held between two steps; that bounds memory and the
    pairs-times-rays work of a step.
    """
    rows: list[tuple[int, int, int, int]] = []
    for i, j, p in constraints:
        p = Fraction(p)
        if p <= 0:
            raise ValueError("constraint coefficients must be positive")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("constraint index out of range")
        rows.append((i, j, p.denominator, p.numerator))  # i == j allowed
    # Largest p first among equally cheap rows: where probabilities
    # multiply along chains, a row implied by two others has a smaller p
    # than both, so it comes after them and cuts nothing.
    rows.sort(key=lambda r: Fraction(r[3], r[2]), reverse=True)
    if n > cap:
        raise ResourceCapExceeded(f"{n} unit rays exceed the oracle cap {cap}")
    facets = (1 << n) - 1
    rays = [
        (tuple(int(k == i) for k in range(n)), facets & ~(1 << i)) for i in range(n)
    ]
    for step in range(len(rows)):
        i, j, den, num = rows.pop(_next_row(rows, rays))
        bit = 1 << (n + step)
        kept: list[tuple[tuple[int, ...], int]] = []
        pos: list[tuple[int, tuple[int, ...], int]] = []
        negs: list[tuple[int, tuple[int, ...], int]] = []
        for z, tight in rays:
            v = den * z[i] - num * z[j]
            if v > 0:
                pos.append((v, z, tight))
                kept.append((z, tight))
            elif v < 0:
                negs.append((v, z, tight))
            else:
                kept.append((z, tight | bit))
        holders = _holders(rays) if pos and negs else {}
        everyone = (1 << len(rays)) - 1
        for vp, zp, tp in pos:
            for vq, zq, tq in negs:
                common = tp & tq
                if common.bit_count() < n - 2:
                    continue
                if not _spans_edge(common, holders, everyone):
                    continue
                w = [vp * b - vq * a for a, b in zip(zp, zq)]
                g = gcd(*w)
                kept.append((tuple(x // g for x in w), common | bit))
                if len(kept) > cap:
                    raise ResourceCapExceeded(
                        f"more than {cap} rays after {step + 1} of "
                        f"{step + 1 + len(rows)} constraints (oracle cap)"
                    )
        rays = kept
    found = {TropVector.from_probs(z).canonical() for z, _ in rays}
    return sorted(found, key=TropVector.mults)


def _next_row(rows, rays) -> int:
    """Index of the row with fewest positive-negative ray pairs to combine."""
    best, best_idx = None, 0
    for idx, (i, j, den, num) in enumerate(rows):
        npos = nneg = 0
        for z, _ in rays:
            v = den * z[i] - num * z[j]
            if v > 0:
                npos += 1
            elif v < 0:
                nneg += 1
        score = npos * nneg
        if score == 0:
            return idx
        if best is None or score < best:
            best, best_idx = score, idx
    return best_idx


def _holders(rays) -> dict[int, int]:
    """Constraint bit -> bitmask of the indices of the rays tight on it."""
    holders: dict[int, int] = {}
    for k, (_, tight) in enumerate(rays):
        for c in bits(tight):
            holders[c] = holders.get(c, 0) | (1 << k)
    return holders


def _spans_edge(common: int, holders: Mapping[int, int], everyone: int) -> bool:
    """Only the two rays that share `common` are tight on all of it."""
    shared = everyone
    for c in bits(common):
        shared &= holders[c]
    return shared.bit_count() == 2


def cross_check_rays(rays: Sequence[Ray], oracle: Sequence[TropVector]) -> bool:
    """Same ray multisets up to scale: the canonical coordinates, counted.

    Coordinates are reduced integer pairs, equal exactly when the values are,
    and each vector has one form, so counting the canonical vectors compares
    the rays exactly.
    """
    mine = Counter(r.generator.canonical() for r in rays)
    return mine == Counter(q.canonical() for q in oracle)


def ray_saturation_edges(r: Ray, m: Plm) -> dict[int, int]:
    """Tight graph of a ray: inside its carrier, every comparable pair.

    Returns each carrier text's out-neighbour bitmask, which is checked to
    be its strict up-set in the side's order, cut to the carrier.
    """
    _, constraints = _side_cone(m, r.side)
    out, _ = tight_graph(r.generator, constraints, m.n)
    order = _side_order(m, r.side)
    edges = {i: out[i] for i in sorted(r.carrier)}
    expected = {i: sum(1 << j for j in r.carrier if j != i and order.leq(i, j)) for i in edges}
    verify(edges == expected)
    return edges


def ray_as_text_combination(r: Ray, m: Plm) -> list[tuple[int, ExtReal]]:
    """Write a lower ray as a weighted (min,+) span of its maximal texts.

    Weights are log-probabilities of the maximal texts given the empty
    text, one shift from `residuate`'s least weights, whose span is the generator.
    """
    if not m.has_empty_text:
        raise ValueError("model has no empty text")
    if r.side is not Side.LOWER:
        raise ValueError("text combinations are defined for lower rays")
    d = metric_from_plm(m)
    maximal = sorted(
        i for i in r.carrier if not any(j != i and m.order.leq(i, j) for j in r.carrier)
    )
    a0 = m.texts.index(())
    out = [(b, neg(d[a0, b])) for b in maximal]
    lams, span = residuate(r.generator, d, maximal)
    verify(span == r.generator and TropVector(lams).proportional(TropVector(w for _, w in out)))
    return out
