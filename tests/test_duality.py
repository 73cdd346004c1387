from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    ExtReal,
    NEG_INF,
    POS_INF,
    Side,
    TropVector,
    check_fixed_negation,
    co_yoneda,
    dual_decompose,
    funk,
    map_a,
    map_b,
    map_l,
    map_r,
    membership,
    metric_from_plm,
    project,
    random_extended_vector,
    random_member,
    random_plm,
    residuate,
    vector_to_strings,
    yoneda,
)
from conftest import METRIC_KINDS, perturbed_metric, random_metric, seeded
from dense_reference import dense_apply_max, dense_apply_min


def test_map_a_frozen(ex1):
    d = metric_from_plm(ex1)
    # A applied to the co-generator of r: (0, -inf, -log 2)
    out = map_a(d, co_yoneda(d, 0))
    assert out.coords == (
        ExtReal.from_prob(1),
        NEG_INF,
        ExtReal.from_prob(2),
    )


def test_negated_yoneda_frozen(ex1):
    d = metric_from_plm(ex1)
    x = yoneda(d, 2).negated()
    assert vector_to_strings(x) == ["2", "3", "1"]


def test_adjunction_exact_random():
    rng = seeded(17)
    for _ in range(50):
        m = random_plm(rng)
        d = metric_from_plm(m)
        for _ in range(8):
            y = random_extended_vector(rng, d.n)
            x = random_extended_vector(rng, d.n)
            assert funk(map_a(d, y), x) == funk(map_b(d, x), y)


def test_fixed_negation_on_members(ex1):
    d = metric_from_plm(ex1)
    for k in range(3):
        assert check_fixed_negation(d, yoneda(d, k), Side.LOWER)
        assert check_fixed_negation(d, co_yoneda(d, k), Side.UPPER)
    # a member off the generators: coordinate i is its Funk distance from
    # generator i, which is -B(x)_i, and residuation on all texts returns x
    x = TropVector.from_probs([F(1, 2), F(1, 3), 1])
    assert check_fixed_negation(d, x, Side.LOWER)
    assert tuple(funk(yoneda(d, i), x) for i in range(3)) == x.coords
    assert residuate(x, d, range(3)) == (x.coords, x)
    with pytest.raises(ValueError):
        check_fixed_negation(d, TropVector.from_probs([F(1, 4), F(1, 3), 1]), Side.LOWER)


def test_fixed_negation_random():
    rng = seeded(23)
    for _ in range(30):
        m = random_plm(rng, n=rng.randint(3, 6))
        d = metric_from_plm(m)
        for side in (Side.LOWER, Side.UPPER):
            dm = d if side is Side.LOWER else d.transpose()
            x = random_member(rng, dm)
            assert membership(x, d, side)
            assert check_fixed_negation(d, x, side)


def test_maps_interchange_polyhedra():
    rng = seeded(29)
    for _ in range(25):
        m = random_plm(rng, n=rng.randint(3, 6))
        d = metric_from_plm(m)
        x = random_member(rng, d)  # lower member
        y = map_b(d, x)
        assert y == x.negated()
        # round trip A(B(x)) returns x on the lower polyhedron
        assert map_a(d, y) == x


def test_dual_decompose_verifies(ex1, ex1_full):
    for m in (ex1, ex1_full):
        d = metric_from_plm(m)
        for k in range(d.n):
            rep = dual_decompose(d, k)
            assert rep.yoneda == yoneda(d, k)
            assert rep.negated == yoneda(d, k).negated()
    with pytest.raises(IndexError):
        dual_decompose(metric_from_plm(ex1), 7)


def test_dual_decompose_random():
    rng = seeded(31)
    for _ in range(30):
        m = random_plm(rng)
        d = metric_from_plm(m)
        for k in range(d.n):
            dual_decompose(d, k)  # internal exact asserts


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS + ("corpus",)), st.booleans())
def test_dual_identities_are_memberships(seed, kind, perturb):
    """Each product identity `dual` states is the membership it decides, failures included."""
    rng = seeded(seed)
    d = random_metric(rng, kind)
    if perturb:
        d = perturbed_metric(rng, d)
    for k in range(d.n):
        y = yoneda(d, k)
        assert membership(y, d, Side.LOWER) == (d.mat.apply_min(y) == y)
        assert membership(y.negated(), d, Side.UPPER) == (map_b(d, y) == y.negated())


def test_negation_pairs_off_order_coordinates(ex1):
    d = metric_from_plm(ex1)
    # Y(r) = (0, +inf, +inf): its negation must flip the +inf to -inf
    out = map_b(d, yoneda(d, 0))
    assert out.coords == (ExtReal.from_prob(1), NEG_INF, NEG_INF)
    assert out == yoneda(d, 0).negated()
    assert check_fixed_negation(d, yoneda(d, 0), Side.LOWER)
    assert POS_INF not in out.coords


@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS + ("corpus",)))
def test_maps_are_dense_products_of_the_transpose(seed, kind):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    rows = d.mat.rows
    t_rows = tuple(zip(*rows))
    vectors = [random_extended_vector(rng, d.n) for _ in range(4)]
    vectors += [yoneda(d, k) for k in range(d.n)] + [co_yoneda(d, k) for k in range(d.n)]
    for x in vectors:
        minus_x = x.negated().coords
        assert map_b(d, x).coords == dense_apply_min(t_rows, minus_x)
        assert map_r(d, x).coords == dense_apply_max(t_rows, minus_x)
        assert map_l(d, x).coords == dense_apply_max(rows, minus_x)
        assert project(x, d, Side.UPPER).coords == dense_apply_min(t_rows, x.coords)
