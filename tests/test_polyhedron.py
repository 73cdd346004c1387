import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    ExtReal,
    NEG_INF,
    POS_INF,
    Side,
    TropVector,
    co_yoneda,
    funk,
    generator,
    membership,
    metric_cone_constraints,
    metric_from_plm,
    normalize_to_simplex,
    project,
    random_extended_vector,
    random_member,
    random_plm,
    random_weight,
    residuate,
    retraction_from_subset,
    terminal_decompose,
    tight_graph,
    vector_from_strings,
    vector_to_strings,
    yoneda,
)
from conftest import METRIC_KINDS, random_metric, seeded
from dense_reference import (
    membership_reference,
    residuate_reference,
    saturation_edges_reference,
    sink_texts_reference,
)


class TestConePoint:
    """Vectors read as points z = exp(-x) of the multiplicative cone."""

    def test_constraints(self):
        with pytest.raises(ValueError):
            TropVector.from_probs([])
        with pytest.raises(ValueError):
            TropVector.from_probs([0, 0]).canonical()
        with pytest.raises(ValueError):
            TropVector.from_probs([1, F(-1, 2)])

    def test_canonical_and_proportional(self):
        q = TropVector.from_probs([F(1, 2), F(1, 3), 1])
        assert q.canonical() == q
        assert q.scaled(ExtReal.from_prob(7)).canonical() == q
        assert q.proportional(q.scaled(ExtReal.from_prob(F(3, 5))))
        assert not q.proportional(TropVector.from_probs([1, 1, 1]))

    def test_simplex_frozen(self):
        v = normalize_to_simplex(TropVector.from_probs([F(1, 2), F(1, 3), 1]))
        assert v.mults() == (F(3, 11), F(2, 11), F(6, 11))
        assert sum(v.mults()) == 1

    @given(
        st.lists(
            st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 10**9), max_value=F(10**9))),
            min_size=1,
            max_size=8,
        ).filter(any)
    )
    def test_simplex_matches_fraction_sum(self, ps):
        z = TropVector.from_probs(ps)
        assert normalize_to_simplex(z) == z.scaled(ExtReal(1 / sum(z.mults())))
        assert normalize_to_simplex(z.canonical()) == normalize_to_simplex(z)

    def test_simplex_refuses_non_cone_points(self):
        with pytest.raises(ZeroDivisionError):
            normalize_to_simplex(TropVector.from_probs([0, 0]))
        with pytest.raises(OverflowError):
            normalize_to_simplex(TropVector([ExtReal(1), ExtReal(None)]))


class TestMembership:
    def test_generators_are_members(self, ex1):
        d = metric_from_plm(ex1)
        for k in range(3):
            assert membership(yoneda(d, k), d, Side.LOWER)
            assert membership(co_yoneda(d, k), d, Side.UPPER)

    def test_frozen_cases(self, ex1):
        d = metric_from_plm(ex1)
        assert membership(TropVector.from_probs([F(1, 2), F(1, 3), 1]), d)
        assert membership(TropVector.from_probs([1, 1, 1]), d)
        # violates z_r >= 1/2 z_rc (log: x_r <= log 2 + x_rc)
        assert not membership(TropVector.from_probs([F(1, 4), F(1, 3), 1]), d)
        assert not membership(TropVector([POS_INF] * 3), d)

    def test_upper_side_transposes(self, ex1):
        d = metric_from_plm(ex1)
        x = TropVector.from_probs([F(1, 4), 1, 1])
        assert membership(x, d, Side.UPPER)
        assert not membership(x, d, Side.LOWER)  # violates z_r >= z_rc / 2

    def test_projection_is_identity_on_members(self, ex1):
        d = metric_from_plm(ex1)
        x = TropVector.from_probs([F(1, 2), F(1, 3), 1])
        assert project(x, d) == x
        y = TropVector.from_probs([F(1, 4), F(1, 3), 1])
        py = project(y, d)
        assert membership(py, d)
        assert py != y


def _perturbed(rng, x: TropVector) -> TropVector:
    """x with one coordinate halved, doubled, redrawn or set to -inf."""
    coords = list(x.coords)
    i = rng.randrange(len(coords))
    c = coords[i]
    choice = rng.randrange(4)
    if choice < 2 and c.is_finite:
        coords[i] = ExtReal(c.mult * (F(1, 2) if choice else 2))
    elif choice == 3:
        coords[i] = NEG_INF
    else:
        coords[i] = random_weight(rng)
    return TropVector(coords)


@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS), st.sampled_from(list(Side)))
def test_membership_matches_reference(seed, kind, side):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    xs = [TropVector([POS_INF] * d.n), random_extended_vector(rng, d.n)]
    for _ in range(3):
        x = random_member(rng, d, side)
        xs += [x, _perturbed(rng, x)]
    for x in xs:
        assert membership(x, d, side) == membership_reference(x, d, side)


def test_projection_random_idempotent():
    rng = seeded(3)
    for _ in range(30):
        m = random_plm(rng, n=rng.randint(3, 6))
        d = metric_from_plm(m)
        for side in (Side.LOWER, Side.UPPER):
            x = TropVector(
                (
                    ExtReal.from_prob(F(rng.randint(1, 9), rng.randint(1, 9)))
                    for _ in range(d.n)
                )
            )
            p = project(x, d, side)
            assert project(p, d, side) == p
            assert membership(p, d, side)


class TestIsometry:
    def test_yoneda_columns(self, ex1):
        d = metric_from_plm(ex1)
        for i in range(3):
            for j in range(3):
                assert funk(yoneda(d, i), yoneda(d, j)) == d[i, j]

    def test_co_yoneda_rows_contravariant(self, ex1):
        d = metric_from_plm(ex1)
        for i in range(3):
            for j in range(3):
                assert funk(co_yoneda(d, j), co_yoneda(d, i)) == d[i, j]

    def test_random_models(self):
        rng = seeded(5)
        for _ in range(20):
            m = random_plm(rng)
            d = metric_from_plm(m)
            for i in range(d.n):
                for j in range(d.n):
                    assert funk(yoneda(d, i), yoneda(d, j)) == d[i, j]
                    assert funk(co_yoneda(d, j), co_yoneda(d, i)) == d[i, j]


class TestDecompositions:
    def test_span_decompose_round_trip(self, ex1):
        # a member is the (min,+) span of the generators with its own
        # coordinates as coefficients
        d = metric_from_plm(ex1)
        x = TropVector.from_probs([F(1, 2), F(1, 6), F(1, 2)])
        assert membership(x, d)
        assert project(x, d) == x

    def test_random_span(self):
        rng = seeded(9)
        for _ in range(25):
            m = random_plm(rng, n=rng.randint(3, 6))
            d = metric_from_plm(m)
            x = random_member(rng, d)
            assert project(x, d) == x


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(METRIC_KINDS + ("corpus",)),
    st.sampled_from(list(Side)),
    st.data(),
)
def test_residuate_matches_dense_reference(seed, kind, side, data):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    members = [random_member(rng, d, side) for _ in range(2)]
    members += [generator(d, k, side) for k in range(d.n)]
    vectors = members + [random_extended_vector(rng, d.n) for _ in range(3)]
    subset = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    sub = sorted(subset)
    for x in vectors:
        lams, span = residuate(x, d, subset, side)
        assert (lams, span.coords) == residuate_reference(x, d, subset, side)
        assert all(p >= c for p, c in zip(span.coords, x.coords))
        if x in members:
            assert lams == tuple(x[s] for s in sub)
    if side is Side.LOWER:
        r = retraction_from_subset(d, subset)
        for k in range(d.n):
            assert residuate(yoneda(d, k), d, subset)[1] == r.matrix.column(k)
    for bad in ([], [d.n], [-1, 0]):
        with pytest.raises(ValueError):
            residuate(vectors[0], d, bad, side)


class TestSaturation:
    def test_frozen_graph(self, ex1):
        d = metric_from_plm(ex1)
        x = TropVector.from_probs([F(1, 2), F(1, 3), 1])
        out, into = tight_graph(x, metric_cone_constraints(d), d.n)
        assert out == [0b100, 0b100, 0]
        assert into == [0, 0, 0b011]

    def test_isolated_off_support(self, ex1):
        d = metric_from_plm(ex1)
        x = TropVector([ExtReal.from_prob(1), POS_INF, POS_INF])
        out, into = tight_graph(x, metric_cone_constraints(d), d.n)
        assert out[0] == into[0] == 0
        # off the support, z_1 = 0 = (1/3) z_2 is tight as well
        assert out == [0, 0b100, 0]

    def test_terminal_decompose(self, ex1):
        d = metric_from_plm(ex1)
        x = TropVector.from_probs([F(1, 2), F(1, 3), 1])
        td = terminal_decompose(x, d)
        assert td.terminals == (2,)
        assert [w.mult for w in td.weights] == [1]

    def test_terminal_decompose_random(self):
        rng = seeded(13)
        for _ in range(25):
            m = random_plm(rng, n=rng.randint(3, 6))
            d = metric_from_plm(m)
            x = random_member(rng, d)
            td = terminal_decompose(x, d)  # internal re-assembly asserts exactness
            assert td.terminals


@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS), st.sampled_from(list(Side)))
def test_tight_graph_matches_saturation_reference(seed, kind, side):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    cons = metric_cone_constraints(d, side)
    xs = [random_extended_vector(rng, d.n)]
    for _ in range(3):
        x = random_member(rng, d, side)
        xs += [x, _perturbed(rng, x)]
    for x in xs:
        out, into = tight_graph(x, cons, d.n)
        support = x.support
        mask = sum(1 << i for i in support)
        assert all(out[i] & ~mask == 0 for i in support)
        edges = {(i, j) for i in support for j in support if out[i] >> j & 1}
        assert edges == {(i, j) for i in support for j in support if into[j] >> i & 1}
        reference = saturation_edges_reference(x, d, side)
        assert edges == reference
        if membership(x, d, side):
            assert terminal_decompose(x, d, side).terminals == sink_texts_reference(
                support, reference
            )


class TestVectorStrings:
    def test_round_trip(self):
        x = TropVector([ExtReal.from_prob(F(1, 2)), POS_INF, ExtReal(None)])
        s = vector_to_strings(x)
        assert s == ["1/2", "inf", "-inf"]
        y = vector_from_strings(s)
        assert y.coords == x.coords

    @given(st.lists(st.fractions(min_value=F(1, 50), max_value=F(50)), min_size=1, max_size=6))
    def test_round_trip_random(self, ps):
        x = TropVector.from_probs(ps)
        assert vector_from_strings(vector_to_strings(x)).coords == x.coords
