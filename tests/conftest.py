import random
from fractions import Fraction as F

import pytest

from plmpoly import (
    NEG_INF,
    POS_INF,
    ZERO,
    DirectedMetric,
    ExtReal,
    PartialOrder,
    Plm,
    TropMatrix,
    ingest_corpus,
    kleene_closure,
    metric_from_plm,
    random_forest_plm,
    random_plm,
)


@pytest.fixture
def ex1():
    """Three texts r, c, rc with Pr(rc|r)=1/2, Pr(rc|c)=1/3."""
    return Plm(
        [("r",), ("c",), ("r", "c")],
        "two-sided",
        {(0, 2): F(1, 2), (1, 2): F(1, 3)},
    )


@pytest.fixture
def ex1_full():
    """Same model with the empty text adjoined below everything."""
    return Plm(
        [(), ("r",), ("c",), ("r", "c")],
        "two-sided",
        {
            (0, 1): F(1, 3),
            (0, 2): F(1, 2),
            (0, 3): F(1, 6),
            (1, 3): F(1, 2),
            (2, 3): F(1, 3),
        },
    )


@pytest.fixture
def crown():
    """The crown a, b <= c, d.  Every chain is one edge, so the chain rule
    holds, yet the cycle a-c-b-d-a multiplies its ratios to 2/3, not 1:
    no potential reproduces these probabilities."""
    return Plm(
        [("a",), ("b",), ("c",), ("d",)],
        "explicit",
        {(0, 2): F(1, 2), (0, 3): F(1, 2), (1, 2): F(1, 2), (1, 3): F(1, 3)},
        order=PartialOrder.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    )


def make_d2(t, n=3) -> DirectedMetric:
    """All off-diagonal distances equal to -log t, 0 < t < 1."""
    t = F(t)
    assert 0 < t < 1
    rows = [
        [ExtReal.from_prob(1 if i == j else t) for j in range(n)]
        for i in range(n)
    ]
    return DirectedMetric(TropMatrix(rows))


@pytest.fixture(params=[F(1, 3), F(1, 2), F(9, 10)])
def d2(request):
    return make_d2(request.param)


def metric_to_dict(d: DirectedMetric, labels=None) -> dict:
    """A metric file's contents: labels, and each entry as a probability."""
    return {
        "labels": list(labels) if labels else [str(i) for i in range(d.n)],
        "metric": [["0" if e.is_pos_inf else str(e.mult) for e in row] for row in d.mat.rows],
    }


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


METRIC_KINDS = ("plm", "forest", "kleene")


def random_metric(rng: random.Random, kind: str) -> DirectedMetric:
    """A directed metric on 1-6 points: of a `random_plm` model, of a
    `random_forest_plm` model, or the Kleene closure of a random matrix
    with zero diagonal and entries in {+inf} | [0, log 8].  Kind "corpus",
    not in `METRIC_KINDS`, is the metric of a short random corpus over
    four words."""
    if kind == "corpus":
        tokens = [rng.choice("abcd") for _ in range(rng.randint(2, 12))]
        return metric_from_plm(ingest_corpus(tokens, max_len=2))
    n = rng.randint(1, 6)
    if kind == "plm":
        return metric_from_plm(random_plm(rng, n))
    if kind == "forest":
        return metric_from_plm(random_forest_plm(rng, n))

    def entry(i: int, j: int) -> ExtReal:
        if i == j:
            return ZERO
        if rng.random() < 0.4:
            return POS_INF
        return ExtReal.from_prob(F(rng.randint(1, 8), 8))

    return kleene_closure(TropMatrix([[entry(i, j) for j in range(n)] for i in range(n)]))


def perturbed_metric(rng: random.Random, d: DirectedMetric) -> DirectedMetric:
    """d with one or two off-diagonal entries redrawn, +inf among the choices.

    The result keeps the zero diagonal and has no -inf entry, but most
    such metrics break the triangle inequality, so it is built with
    ``require_projector=False``, as `check` reads a general metric file.
    """
    rows = [list(row) for row in d.mat.rows]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(d.n), rng.randrange(d.n)
        if i != j:
            rows[i][j] = ExtReal(rng.choice([0, F(1, 8), F(1, 3), F(1, 2), 1, 2]))
    return DirectedMetric(TropMatrix(rows), require_projector=False)


def fill_rule(coords):
    """The fill the docstring's rule picks for a dense tuple."""
    pos = sum(c is POS_INF for c in coords)
    negs = sum(c is NEG_INF for c in coords)
    if pos != negs:
        return POS_INF if pos > negs else NEG_INF
    return next((c for c in coords if c is POS_INF or c is NEG_INF), POS_INF)


def assert_form(x, coords):
    """x is the one form of the dense tuple coords."""
    coords = tuple(coords)
    fill = fill_rule(coords)
    assert x.coords == coords and x.n == len(coords)
    assert x.fill is fill
    assert x.entries == tuple((i, c) for i, c in enumerate(coords) if c is not fill)
    assert x.mask == sum(1 << i for i, _ in x.entries)
