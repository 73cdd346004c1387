import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plmpoly import (
    ExtReal,
    NEG_INF,
    POS_INF,
    ZERO,
    TropMatrix,
    TropVector,
    close_log,
    funk,
    funk_q,
    min_plus_apply,
    neg,
    tmax,
    tmax_mul,
    tmin,
    tmul,
)

FINITE = [ExtReal.from_prob(p) for p in (F(1), F(1, 2), F(1, 3), F(2), F(7, 5))]
ALL = [POS_INF, NEG_INF] + FINITE

rationals = st.fractions(min_value=F(1, 1000), max_value=F(1000))
extreals = st.one_of(
    st.just(POS_INF), st.just(NEG_INF), rationals.map(ExtReal.from_prob)
)


def test_sentinels():
    assert POS_INF.is_pos_inf and not POS_INF.is_finite
    assert NEG_INF.is_neg_inf and not NEG_INF.is_finite
    assert ZERO.is_finite and ZERO.mult == 1 and ZERO.log == 0.0
    assert POS_INF.log == math.inf and NEG_INF.log == -math.inf
    with pytest.raises(OverflowError):
        NEG_INF.mult


def test_from_prob_rejects_negative():
    with pytest.raises(ValueError):
        ExtReal.from_prob(F(-1, 2))


def test_from_log_round_trip():
    for x in (0.0, 1.0, -2.5, 700.0, math.inf, -math.inf):
        e = ExtReal.from_log(x)
        assert close_log(e.log, x)
    # beyond float exp range: the power-of-two fallback stays exact
    e = ExtReal.from_log(1000.0)
    assert e.is_finite and close_log(e.log, 1000.0, tol=1e-3)


def test_order_total_on_log_domain():
    # log order: -inf < -log 2 < 0 < log 2 < +inf
    chain = [NEG_INF, ExtReal.from_prob(2), ZERO, ExtReal.from_prob(F(1, 2)), POS_INF]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert (a <= b) == (i <= j)
            assert (a < b) == (i < j)


def test_tmul_convention_exhaustive():
    # (min,+): +inf absorbs, so (+inf)+(-inf) = +inf
    assert tmul(POS_INF, NEG_INF) == POS_INF
    assert tmul(NEG_INF, POS_INF) == POS_INF
    for a in ALL:
        assert tmul(a, POS_INF) == POS_INF
        assert tmul(POS_INF, a) == POS_INF
    for a in FINITE:
        assert tmul(a, NEG_INF) == NEG_INF
        assert tmul(NEG_INF, a) == NEG_INF
    assert tmul(FINITE[1], FINITE[2]).mult == F(1, 6)


def test_tmax_mul_convention_exhaustive():
    # (max,+): -inf absorbs, so (+inf)+(-inf) = -inf
    assert tmax_mul(POS_INF, NEG_INF) == NEG_INF
    assert tmax_mul(NEG_INF, POS_INF) == NEG_INF
    for a in ALL:
        assert tmax_mul(a, NEG_INF) == NEG_INF
        assert tmax_mul(NEG_INF, a) == NEG_INF
    for a in FINITE:
        assert tmax_mul(a, POS_INF) == POS_INF
        assert tmax_mul(POS_INF, a) == POS_INF
    assert tmax_mul(FINITE[1], FINITE[2]) == tmul(FINITE[1], FINITE[2])


def test_neg_exhaustive():
    assert neg(POS_INF) == NEG_INF
    assert neg(NEG_INF) == POS_INF
    assert neg(ZERO) == ZERO
    e = ExtReal.from_prob(F(1, 2))
    assert neg(e).mult == 2
    for a in ALL:
        assert neg(neg(a)) == a


@given(extreals, extreals, extreals)
def test_semiring_laws(a, b, c):
    assert tmin(a, b) == tmin(b, a)
    assert tmin(tmin(a, b), c) == tmin(a, tmin(b, c))
    assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
    assert tmul(a, b) == tmul(b, a)
    assert tmin(a, POS_INF) == a
    assert tmul(a, ZERO) == a
    # distributivity a+(b min c) = (a+b) min (a+c)
    assert tmul(a, tmin(b, c)) == tmin(tmul(a, b), tmul(a, c))
    # the dual convention distributes over max
    assert tmax_mul(a, tmax(b, c)) == tmax(tmax_mul(a, b), tmax_mul(a, c))


@given(extreals, extreals)
def test_neg_antitone(a, b):
    if a <= b:
        assert neg(b) <= neg(a)


def test_vector_constraints():
    with pytest.raises(ValueError):
        TropVector([])
    with pytest.raises(ValueError):
        TropVector([POS_INF, POS_INF])
    with pytest.raises(ValueError):
        TropVector([ZERO, NEG_INF])
    v = TropVector([POS_INF, POS_INF], extended=True)
    assert v.support == ()
    w = TropVector([ZERO, NEG_INF], extended=True)
    assert w.negated().coords == (ZERO, POS_INF)


def test_vector_ops():
    x = TropVector.from_probs([F(1, 2), 1])
    y = TropVector.from_probs([1, F(1, 3)])
    # log-domain min is the multiplicative max and vice versa
    assert x.min_with(y).coords == (ZERO, ZERO)
    assert x.max_with(y).coords == (ExtReal.from_prob(F(1, 2)), ExtReal.from_prob(F(1, 3)))
    assert x.scaled(ExtReal.from_prob(F(1, 5))).coords == (
        ExtReal.from_prob(F(1, 10)),
        ExtReal.from_prob(F(1, 5)),
    )
    assert x.logs() == (math.log(2), 0.0)


def test_matrix_products():
    m = TropMatrix.from_probs([["1", "1/2"], ["0", "1"]])
    assert m[0, 1].mult == F(1, 2)
    assert m.transpose()[1, 0].mult == F(1, 2)
    assert m.compose_min(m) == m
    x = TropVector.from_probs([1, 1])
    assert min_plus_apply(m, x).coords == (ZERO, ZERO)
    ident = TropMatrix.identity(2)
    assert ident.compose_min(m) == m


# Dense references for the sparse (min,+) products: every term, no skipping.


def dense_min(terms):
    best = POS_INF
    for t in terms:
        best = tmin(best, t)
    return best


def dense_apply_min(m, coords):
    return tuple(dense_min(tmul(a, x) for a, x in zip(row, coords)) for row in m.rows)


def dense_compose_min(a, b):
    n = a.n
    return tuple(
        tuple(dense_min(tmul(a[i, j], b[j, k]) for j in range(n)) for k in range(n))
        for i in range(n)
    )


@st.composite
def square_matrices(draw, n):
    row = st.lists(extreals, min_size=n, max_size=n)
    return TropMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def matrix_and_vector(draw):
    n = draw(st.integers(1, 5))
    coords = draw(
        st.one_of(st.just([POS_INF] * n), st.lists(extreals, min_size=n, max_size=n))
    )
    return draw(square_matrices(n)), coords


@st.composite
def matrix_pair(draw):
    n = draw(st.integers(1, 5))
    return draw(square_matrices(n)), draw(square_matrices(n))


@given(matrix_and_vector())
def test_sparse_apply_min_matches_dense(mx):
    m, coords = mx
    assert m.apply_min(coords) == dense_apply_min(m, coords)


@given(matrix_pair())
def test_sparse_compose_min_matches_dense(ab):
    a, b = ab
    assert a.compose_min(b).rows == dense_compose_min(a, b)


def test_funk_frozen_values():
    # max{y_i - x_i over x_i finite}; empty admissible set gives -inf
    x = TropVector.from_logs([0.0, math.inf])
    y = TropVector.from_logs([5.0, 1.0])
    assert close_log(funk(x, y).log, 5.0)
    x2 = TropVector([POS_INF, POS_INF], extended=True)
    assert funk(x2, y) == NEG_INF
    # one-sided: funk is not symmetric
    a = TropVector.from_probs([1, F(1, 2)])
    b = TropVector.from_probs([F(1, 2), 1])
    assert funk(a, b).mult == F(1, 2)  # value log 2
    assert funk(b, a).mult == F(1, 2)
    assert funk(a, a) == ZERO


def test_funk_q_frozen():
    # admissible set keyed on the first argument's nonzero coordinates
    v = funk_q([1, 0, F(1, 2)], [F(1, 2), F(1, 3), 1])
    assert v.mult == F(1, 2)  # log 2
    assert funk_q([0, 0], [1, 1]) == NEG_INF
    assert funk_q([1, 1], [0, 1]) == POS_INF


@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)
def test_funk_q_matches_funk(zs, ws):
    n = min(len(zs), len(ws))
    zs, ws = zs[:n], ws[:n]
    x = TropVector.from_probs(zs)
    y = TropVector.from_probs(ws)
    assert funk_q(zs, ws) == funk(x, y)


@given(
    st.lists(rationals, min_size=2, max_size=5),
    st.lists(rationals, min_size=2, max_size=5),
    st.lists(rationals, min_size=2, max_size=5),
)
def test_funk_triangle(a, b, c):
    n = min(len(a), len(b), len(c))
    x = TropVector.from_probs(a[:n])
    y = TropVector.from_probs(b[:n])
    z = TropVector.from_probs(c[:n])
    assert funk(x, z) <= tmul(funk(x, y), funk(y, z))


def test_close_log():
    assert close_log(1.0, 1.0 + 5e-10)
    assert not close_log(1.0, 1.1)
    assert close_log(math.inf, math.inf)
    assert not close_log(math.inf, 1.0)
    assert close_log(1e12, 1e12 + 1.0)  # relative scaling kicks in
