"""Extremal rays of the multiplicative cones.

On the lower side the cone is {z >= 0 : z_i >= Pr(a_j|a_i) z_j for a_i <= a_j};
its extremal rays correspond one-to-one with the nonempty connected lower
sets of the order.  The upper side is the same statement in the opposite
order.  Each constraint is one off-diagonal entry d_ij = -log Pr(a_j|a_i)
of the side's metric, read as x_i <= d_ij + x_j.  `oracle_rays`
recomputes rays of an arbitrary such constraint system from scratch by
the double description method: it starts from the unit rays of the
orthant and adds one constraint at a time, combining a ray on the
constraint's positive side with one on its negative side whenever the two
are adjacent, which a bitmask of their tight constraints decides exactly.
It works in integers and knows nothing about orders, so the two routes
check each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .model import DirectedMetric, PartialOrder, Plm, bits, components_of, metric_from_plm, reach
from .polyhedron import Constraint, Side, membership, residuate, side_metric, tight_graph
from .tropical import POS_INF, ExtReal, TropVector, _make, _pair, _rescaled_entries, neg, verify


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
    carrier: tuple[int, ...]  # ascending members, the generator's support
    side: Side
    principal_of: int | None
    certificate_rank: int


def certify_ray(z: TropVector, d: DirectedMetric) -> int:
    """Rank of the rows of {z_k >= 0} and the side metric's cone rows that z makes tight.

    Each off-diagonal entry d_ij of the side metric d is the row
    z_i >= p z_j, p = exp(-d_ij) > 0.  The rank is n-1 exactly when z
    spans an extremal ray, and it is n minus the number of components of
    the `tight_graph` of z, made undirected and induced on the support of z:

    * each zero coordinate k gives the unit row e_k;
    * a tight row z_i = p z_j with one zero end has both ends zero, so
      its row e_i - p e_j lies in the span of the unit rows, and the
      graph, which reads only the support, leaves it out;
    * on a component C the remaining rows form a weighted incidence matrix
      of a connected graph; v_i = p v_j on every edge fixes v on C from one
      coordinate, so its kernel on C is spanned by z|C and its rank is
      |C| - 1.

    The unit rows and the blocks of the components act on disjoint
    coordinates, so the ranks add up to (n - |supp z|) + sum (|C| - 1).
    It costs what `tight_graph` costs: the entries of the side metric's
    columns at the support, for a ray the pairs inside its carrier.

    z is a cone point: no coordinate is -inf (an infinite multiplicative
    coordinate), so by the one-form rule its fill is +inf and its support
    is the listed indices, `z.mask`.  A vector with fill -inf, which
    holds a -inf coordinate, is refused.
    """
    if z.fill is not POS_INF:
        raise ValueError("not a cone point: a coordinate is -inf")
    out, into = tight_graph(z, d)
    return z.n - len(components_of([a | b for a, b in zip(out, into)], z.mask))


def _side_cone(m: Plm, side: Side) -> tuple[list[ExtReal], PartialOrder, DirectedMetric]:
    """The side's generator values, order and metric, kept on the model.

    `metric_from_plm` validates the model, which keeps its potential w on
    it; the value of text i is 1/w_i on the lower side and w_i on the
    upper side.  The upper side's order and metric are the opposite order
    and the transposed metric, each built once here.  The metric is built
    once per model: the second side transposes the first side's.
    """
    cone = m._side_cones.get(side)
    if cone is None:
        lower = side is Side.LOWER
        other = m._side_cones.get(Side.UPPER if lower else Side.LOWER)
        d = other[2].transpose() if other else side_metric(metric_from_plm(m), side)
        w = m._potential  # w_i = a/b as its reduced pair (a, b); 1/w_i swaps it
        pairs = (w[i] for i in range(m.n))
        values = [_pair(b, a) if lower else _pair(a, b) for a, b in pairs]
        order = m.order if lower else m.order.opposite()
        cone = m._side_cones[side] = (values, order, d)
    return cone


def ray_from_lower_set(m: Plm, members: Iterable[int], side: Side = Side.LOWER) -> Ray:
    """Characteristic vector of the carrier, diagonally rescaled, with certificate.

    With the model's potential w, z_i = 1/w_i on the lower side and
    z_i = w_i on the upper side turns every cone constraint inside the
    carrier tight.  On a connected carrier a potential is unique up to
    scale, so the restriction of the model's one potential is the
    carrier's own, and a model that no one potential reproduces (the
    crown) is refused whatever the carrier.

    The values are finite and positive, so their restriction to the
    carrier, fill +inf with the carrier listed, is in its one form, and
    dividing by the largest value is `canonical()` without its checks:
    each quotient of two finite positive mirrors is finite and positive,
    so the listed indices stay the carrier and the fill rule still gives
    +inf (it holds n - |carrier| >= 0 coordinates, at least as many as
    -inf, and wins a tie).  So each value is divided and reduced by
    `_rescaled_entries` in one pass and the generator is made once.  The
    carrier stays the ascending member tuple, the generator's support.
    """
    values, order, d = _side_cone(m, side)
    mem = tuple(sorted(set(members)))
    if not mem:
        raise ValueError("carrier must be nonempty")
    if mem[0] < 0 or mem[-1] >= m.n:
        bad = next(i for i in mem if not 0 <= i < m.n)
        raise ValueError(f"index {bad} out of range")
    down = order._down
    mask = below = 0
    top = values[mem[0]]
    for i in mem:
        mask |= 1 << i
        below |= down[i]
        v = values[i]
        if v.num * top.den > top.num * v.den:
            top = v
    if below & ~mask:
        raise ValueError("carrier is not downward closed on this side")
    if not order.connected(mask):
        raise ValueError("carrier is not connected")

    entries = _rescaled_entries([(i, values[i]) for i in mem], top.den, top.num)
    gen = _make(m.n, POS_INF, entries, mask)

    rank = certify_ray(gen, d)
    expected = m.n - 1
    verify(rank == expected, f"certificate rank {rank} != {expected}")

    principal = next((k for k in mem if down[k] == mask), None)
    return Ray(
        generator=gen,
        carrier=mem,
        side=side,
        principal_of=principal,
        certificate_rank=rank,
    )


def enumerate_rays(m: Plm, side: Side = Side.LOWER) -> list[Ray]:
    """Theory route: one ray per nonempty connected lower set of the side's order.

    Each ray is certified by `certify_ray` and re-tested for membership
    on the lower side of the side's metric, kept on the model.  Its
    generator has fill +inf and lists its carrier, a lower set, so both
    read only the side metric's columns at the carrier, each listing a
    down-set inside it: each ray costs the order's pairs within its
    carrier, twice.
    """
    _, order, d = _side_cone(m, side)
    rays = [
        ray_from_lower_set(m, members, side) for members in enumerate_connected_lower_sets(order)
    ]
    for r in rays:
        verify(membership(r.generator, d, Side.LOWER), "a certified ray is not a member")
    return rays


# ---------------------------------------------------------------------------
# the oracle: double description, independent of any order theory


def oracle_rays(constraints: Sequence[Constraint], n: int) -> list[TropVector]:
    """Extremal rays of {z >= 0 : z_i >= exp(-e) z_j for each row (i, j, e)}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996).  The
    orthant's n unit rays generate {z >= 0}; the rows den*z_i - num*z_j >= 0
    (exp(-e) = num/den, the entry's mirror) are then added one at a time,
    each step taking the pending row with the fewest positive-negative ray
    pairs.  Every ray is an integer vector divided by its gcd and carries
    a bitmask of the facets z_i >= 0 and rows it makes tight.  A row keeps
    the rays on its nonnegative side and replaces the negative ones by the
    points where it cuts the edges between a positive and a negative ray.
    Two rays span an edge exactly when no third ray is tight on every
    constraint the two share (they must share at least n-2, which is
    checked first).  Nothing here knows about orders, so this is an
    independent second route.

    In and out, the work stays in integers.  Each row is read once as its
    entry's reduced pair, p = num/den, which must be finite and positive.
    Among equally cheap rows the largest p goes first, ordered by the
    exact integer key num * (L // den), L the lcm of the row denominators.
    Each ray held at the end is a nonnegative primitive integer vector,
    and `_canonical_rays` turns them into the canonical rays (largest
    coordinate 1): deduplicated as those vectors and sorted by their
    multiplicative coordinates through an exact integer key, with no
    `Fraction` built.

    The edge test reads `_holders`, each constraint's tight rays as one
    bitmask, built once per step.  Scanning the held rays once per pair
    instead is faster on small cones but far slower on cones with
    thousands of rays: on 25 cones with 6,043 rays in all (n 6-20), it
    took 29 s where `_holders` takes 3.4 s (2-core x86-64, Python 3.11).

    `ResourceCapExceeded` is raised when more than `ORACLE_CAP` rays
    would be held between two steps; that bounds memory and the
    pairs-times-rays work of a step.
    """
    cap = ORACLE_CAP
    rows: list[tuple[int, int, int, int]] = []
    for i, j, e in constraints:
        num, den = e.num, e.den
        if not (num and den):  # +inf is (0, 1), -inf (1, 0)
            raise ValueError("constraint coefficients must be positive")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("constraint index out of range")
        rows.append((i, j, den, num))  # i == j allowed
    # Largest p first among equally cheap rows: where probabilities
    # multiply along chains, a row implied by two others has a smaller p
    # than both, so it comes after them and cuts nothing.
    scale = lcm(*(den for _, _, den, _ in rows))
    rows.sort(key=lambda r: r[3] * (scale // r[2]), reverse=True)
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
    return _canonical_rays(z for z, _ in rays)


def _canonical_rays(zs: Iterable[tuple[int, ...]]) -> list[TropVector]:
    """The canonical vectors of the rays that nonnegative primitive integer
    vectors span, once each, in `TropVector.mults` order.

    Two such vectors span one ray exactly when they are equal, so keying
    them deduplicates the rays.  Each z gives what
    `TropVector.from_probs(z).canonical()` returns: coordinate z_i/M with
    M = max z, the largest mirror, reduced by gcd(z_i, M); fill +inf; the
    support listed, as those values are finite and positive.  Its mults
    are z_i/M, and times L, the lcm of the maxima, they are the integers
    z_i * (L // M), which sort the rays as their mults do.
    """
    tops = {z: max(z) for z in zs}
    scale = lcm(*tops.values())

    def key(z: tuple[int, ...]) -> tuple[int, ...]:
        k = scale // tops[z]
        return tuple([x * k for x in z])

    out = []
    for z in sorted(tops, key=key):
        top = tops[z]
        entries = []
        mask = 0
        for i, x in enumerate(z):
            if x:
                g = gcd(x, top)
                entries.append((i, _pair(x // g, top // g)))
                mask |= 1 << i
        out.append(_make(len(z), POS_INF, tuple(entries), mask))
    return out


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
    """Each constraint's bit (1 << c) -> bitmask of the indices of the rays tight on it."""
    holders: dict[int, int] = {}
    get = holders.get
    for k, (_, tight) in enumerate(rays):
        mine = 1 << k
        while tight:
            c = tight & -tight
            holders[c] = get(c, 0) | mine
            tight ^= c
    return holders


def _spans_edge(common: int, holders: Mapping[int, int], everyone: int) -> bool:
    """Only the two rays that share `common` are tight on all of it."""
    shared = everyone
    while common:
        c = common & -common
        shared &= holders[c]
        common ^= c
    return shared.bit_count() == 2


def cross_check_rays(rays: Sequence[Ray], oracle: Sequence[TropVector]) -> bool:
    """Same ray multisets up to scale: the canonical vectors' integer keys, counted.

    Each vector has one form, and its coordinates are reduced integer
    pairs, equal exactly when the values are, so counting `ray_key`s
    compares the rays exactly.
    """
    return Counter(ray_key(r.generator) for r in rays) == Counter(map(ray_key, oracle))


def ray_key(v: TropVector) -> tuple:
    """(n, fill is +inf, ((i, num, den), ...)) of v's canonical form, all integers."""
    c = v.canonical()
    return c.n, c.fill is POS_INF, tuple([(i, e.num, e.den) for i, e in c.entries])


def ray_saturation_edges(r: Ray, m: Plm) -> dict[int, int]:
    """Tight graph of a ray: inside its carrier, every comparable pair.

    Returns each carrier text's out-neighbour bitmask, which is checked to
    be its strict up-set in the side's order, cut to the carrier.
    """
    _, order, d = _side_cone(m, r.side)
    out, _ = tight_graph(r.generator, d)
    edges = {i: out[i] for i in r.carrier}
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
    d = _side_cone(m, Side.LOWER)[2]
    maximal = [i for i in r.carrier if not any(j != i and m.order.leq(i, j) for j in r.carrier)]
    a0 = m.texts.index(())
    out = [(b, neg(d[a0, b])) for b in maximal]
    lams, span = residuate(r.generator, d, maximal)
    verify(span == r.generator and TropVector(lams).proportional(TropVector(w for _, w in out)))
    return out
