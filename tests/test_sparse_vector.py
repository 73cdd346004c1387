"""The sparse vector form against dense references.

A `TropVector` is a fill (+inf or -inf) and its listed entries.  Every
vector here is drawn dense, as all +inf, all -inf, all finite, mostly one
infinity or mixed, and each product and operation is compared with a
reference that forms every coordinate of the dense tuples.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import Side, membership, residuate
from plmpoly.tropical import (
    NEG_INF,
    POS_INF,
    ExtReal,
    TropVector,
    funk,
    neg,
    tmax,
    tmax_all,
    tmax_mul,
    tmin,
    tmin_all,
    tmul,
)
from conftest import METRIC_KINDS, random_metric, seeded
from dense_reference import (
    dense_apply_max,
    dense_apply_min,
    membership_reference,
    residuate_reference,
)

finite = st.fractions(min_value=F(1, 20), max_value=F(20)).map(ExtReal.from_prob)
SHAPES = ("all +inf", "all -inf", "all finite", "mostly +inf", "mostly -inf", "mixed")


@st.composite
def vectors(draw, n):
    shape = draw(st.sampled_from(SHAPES))
    if shape == "all +inf":
        coords = [POS_INF] * n
    elif shape == "all -inf":
        coords = [NEG_INF] * n
    elif shape == "all finite":
        coords = draw(st.lists(finite, min_size=n, max_size=n))
    else:
        base = {"mostly +inf": [POS_INF] * 4, "mostly -inf": [NEG_INF] * 4}.get(shape, [])
        value = st.one_of(st.sampled_from(base + [POS_INF, NEG_INF]), finite)
        coords = draw(st.lists(value, min_size=n, max_size=n))
    return TropVector(coords)


def sized(n):
    return st.tuples(vectors(n), vectors(n))


pairs = st.integers(1, 9).flatmap(sized)


def fill_rule(coords):
    """The fill the docstring's rule picks for a dense tuple."""
    pos = sum(c is POS_INF for c in coords)
    negs = sum(c is NEG_INF for c in coords)
    if pos != negs:
        return POS_INF if pos > negs else NEG_INF
    return next((c for c in coords if c is POS_INF or c is NEG_INF), POS_INF)


def relisted(x, fill):
    """x built from its dense coordinates with the given fill, before the rule applies."""
    entries = [(i, c) for i, c in enumerate(x.coords) if c is not fill]
    return TropVector.from_entries(x.n, fill, entries)


def assert_form(x, coords):
    """x is the one form of the dense tuple coords."""
    coords = tuple(coords)
    fill = fill_rule(coords)
    assert x.coords == coords and x.n == len(coords)
    assert x.fill is fill
    assert x.entries == tuple((i, c) for i, c in enumerate(coords) if c is not fill)
    assert x.mask == sum(1 << i for i, _ in x.entries)


@given(pairs)
def test_each_dense_vector_has_one_form(xy):
    x, y = xy
    assert_form(x, x.coords)
    for fill in (POS_INF, NEG_INF):
        again = relisted(x, fill)
        assert again == x and hash(again) == hash(x)
        assert (again.fill, again.entries, again.mask) == (x.fill, x.entries, x.mask)
    assert (x == y) == (x.coords == y.coords)
    if x == y:
        assert hash(x) == hash(y)
    assert tuple(x[i] for i in range(x.n)) == x.coords


def test_from_entries_refuses_bad_lists():
    one = ExtReal.from_prob(1)
    for n, fill, entries in [
        (0, POS_INF, []),
        (2, one, []),  # the fill is an infinity
        (2, POS_INF, [(1, one), (0, one)]),  # descending
        (2, POS_INF, [(0, one), (0, one)]),
        (2, POS_INF, [(2, one)]),
        (2, POS_INF, [(-1, one)]),
    ]:
        with pytest.raises(ValueError):
            TropVector.from_entries(n, fill, entries)


@given(pairs, finite, st.sampled_from([POS_INF, NEG_INF, None]))
def test_operations_match_dense(xy, lam, infinite):
    x, y = xy
    xs, ys = x.coords, y.coords
    assert_form(x.negated(), map(neg, xs))
    lam = infinite or lam
    assert_form(x.scaled(lam), (tmul(lam, c) for c in xs))
    assert_form(x.min_with(y), map(tmin, xs, ys))
    assert_form(x.max_with(y), map(tmax, xs, ys))
    assert x.leq(y) == all(a <= b for a, b in zip(xs, ys))
    assert x.leq(x.max_with(y)) and x.min_with(y).leq(x)
    assert funk(x, y) == tmax_all(tmax_mul(b, neg(a)) for a, b in zip(xs, ys) if a is not POS_INF)
    assert x.support == tuple(i for i, c in enumerate(xs) if c is not POS_INF)
    top = tmin_all(xs)
    if top.is_finite:
        assert_form(x.canonical(), (tmul(neg(top), c) for c in xs))
    else:
        with pytest.raises(ValueError, match="not a cone point"):
            x.canonical()


metric_kinds = st.sampled_from(METRIC_KINDS + ("corpus",))


@settings(deadline=None)
@given(st.integers(0, 10**6), metric_kinds, st.data())
def test_products_match_dense_on_metrics(seed, kind, data):
    d = random_metric(seeded(seed), kind)
    for _ in range(4):
        x = data.draw(vectors(d.n))
        for m in (d.mat, d.mat.transpose()):
            rows = m.rows
            assert_form(m.apply_min(x), dense_apply_min(rows, x.coords))
            assert_form(m.apply_max(x), dense_apply_max(rows, x.coords))


@settings(deadline=None)
@given(st.integers(0, 10**6), metric_kinds, st.sampled_from(list(Side)), st.data())
def test_membership_and_residuate_match_dense(seed, kind, side, data):
    d = random_metric(seeded(seed), kind)
    subset = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    for _ in range(4):
        x = data.draw(vectors(d.n))
        assert membership(x, d, side) == membership_reference(x, d, side)
        lams, span = residuate(x, d, subset, side)
        ref_lams, ref_span = residuate_reference(x, d, subset, side)
        assert lams == ref_lams
        assert_form(span, ref_span)
