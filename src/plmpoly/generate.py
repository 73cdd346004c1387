"""Seeded random model and vector generators used by tests and sweeps."""

from __future__ import annotations

import random
from fractions import Fraction

from .model import DirectedMetric, PartialOrder, Plm
from .polyhedron import Side, project
from .tropical import ExtReal, POS_INF, NEG_INF, TropVector


def _rand_prob(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), 8)


def random_forest_plm(rng: random.Random, n: int) -> Plm:
    """Rooted-forest order realized by genuine prefix texts.

    Node i's text is its root path; per-node tokens are unique, so prefix
    (and substring) containment is exactly ancestry.
    """
    if n < 1:
        raise ValueError("need at least one node")
    parents: list[int | None] = [None]
    for i in range(1, n):
        parents.append(None if rng.random() < 0.25 else rng.randrange(i))
    texts: list[tuple[str, ...]] = []
    pot: list[Fraction] = []
    for i in range(n):
        p = parents[i]
        if p is None:
            texts.append((f"w{i}",))
            pot.append(_rand_prob(rng))
        else:
            texts.append(texts[p] + (f"w{i}",))
            pot.append(pot[p] * _rand_prob(rng))
    mode = rng.choice(("one-sided", "two-sided"))
    order = PartialOrder.from_texts(tuple(texts), mode)
    pr = {(i, j): pot[j] / pot[i] for i, j in order.strict_pairs()}
    return Plm(texts, mode, pr)


def random_layered_plm(rng: random.Random, n: int) -> Plm:
    """Random graded order (2-3 layers) with an explicit closure.

    Not every such order embeds as a subtext order, so the texts are
    opaque single tokens and the order is passed explicitly.
    """
    if n < 1:
        raise ValueError("need at least one node")
    n_layers = min(n, rng.choice((2, 3)))
    layer_of = sorted(
        [i % n_layers for i in range(n_layers)]
        + [rng.randrange(n_layers) for _ in range(n - n_layers)]
    )
    pairs = []
    for i in range(n):
        for j in range(n):
            if layer_of[j] == layer_of[i] + 1 and rng.random() < 0.5:
                pairs.append((i, j))
    order = PartialOrder.from_pairs(n, pairs)
    texts = tuple((f"t{i}",) for i in range(n))
    # a potential that shrinks by at least the per-step spread keeps
    # every ratio in (0, 1]
    pot = [
        Fraction(rng.randint(1, 8), 8) * Fraction(1, 8) ** layer_of[i]
        for i in range(n)
    ]
    pr = {(i, j): pot[j] / pot[i] for i, j in order.strict_pairs()}
    return Plm(texts, "explicit", pr, order=order)


def random_plm(rng: random.Random, n: int | None = None, kind: str | None = None) -> Plm:
    if n is None:
        n = rng.randint(3, 7)
    if kind is None:
        kind = rng.choice(("forest", "layered"))
    if kind == "forest":
        return random_forest_plm(rng, n)
    if kind == "layered":
        return random_layered_plm(rng, n)
    raise ValueError(f"unknown kind {kind!r}")


def random_weight(rng: random.Random) -> ExtReal:
    if rng.random() < 0.3:
        return POS_INF
    return ExtReal(Fraction(rng.randint(1, 12), rng.randint(1, 12)))


def random_member(
    rng: random.Random, d: DirectedMetric, side: Side = Side.LOWER
) -> TropVector:
    """Random point of the side's polyhedron: a weighted span of generators."""
    while True:
        lams = [random_weight(rng) for _ in range(d.n)]
        if any(not l.is_pos_inf for l in lams):
            return project(TropVector(lams), d, side)


def random_extended_vector(rng: random.Random, n: int) -> TropVector:
    """Coordinates drawn from {-inf} | finite | {+inf}."""
    coords = []
    for _ in range(n):
        u = rng.random()
        if u < 0.15:
            coords.append(NEG_INF)
        elif u < 0.30:
            coords.append(POS_INF)
        else:
            coords.append(ExtReal(Fraction(rng.randint(1, 12), rng.randint(1, 12))))
    return TropVector(coords)
