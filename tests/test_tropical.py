import math
import pickle
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from plmpoly import (
    ExtReal,
    NEG_INF,
    POS_INF,
    ZERO,
    TropMatrix,
    TropVector,
    funk,
    neg,
    tmax,
    tmax_mul,
    tmin,
    tmul,
)
from plmpoly.tropical import tmax_all, tmin_all
from dense_reference import (
    FractionExtReal,
    close_log,
    dense_apply_max,
    dense_apply_min,
    dense_compose_min,
    frac_neg,
    frac_tmax,
    frac_tmax_mul,
    frac_tmin,
    frac_tmul,
    funk_q,
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


def test_constructor_refuses_negative_mirror():
    for bad in (F(-1, 2), -1, "-3/4"):
        with pytest.raises(ValueError, match="nonnegative"):
            ExtReal(bad)


def test_infinities_are_singletons():
    assert ExtReal(F(0)) is POS_INF and ExtReal(0) is POS_INF and ExtReal("0/5") is POS_INF
    assert ExtReal(None) is NEG_INF
    assert ExtReal.from_prob(0) is POS_INF
    assert ExtReal.from_log(math.inf) is POS_INF and ExtReal.from_log(-math.inf) is NEG_INF
    for x in ALL:
        assert pickle.loads(pickle.dumps(x)) == x
    assert pickle.loads(pickle.dumps(POS_INF)) is POS_INF
    assert pickle.loads(pickle.dumps(NEG_INF)) is NEG_INF


def test_from_log_round_trip():
    for x in (0.0, 1.0, -2.5, 700.0, math.inf, -math.inf):
        e = ExtReal.from_log(x)
        assert close_log(e.log, x)
    # beyond float exp range: the power-of-two fallback stays exact
    e = ExtReal.from_log(1000.0)
    assert e.is_finite and close_log(e.log, 1000.0, tol=1e-3)
    # up to 2**14000, whose digits still print; past that it refuses
    assert len(str(ExtReal.from_log(9700.0).mult.denominator)) < 4300
    with pytest.raises(ValueError, match="beyond 2\\*\\*14000"):
        ExtReal.from_log(1e308)


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


# wide rationals, so that products need reducing and cross products grow
wide_extreals = st.one_of(
    st.just(POS_INF),
    st.just(NEG_INF),
    st.just(ZERO),
    st.fractions(min_value=F(1, 10**12), max_value=F(10**12)).map(ExtReal),
    st.sampled_from(FINITE),
)


def assert_encoded(x: ExtReal) -> None:
    """An infinity is the shared object; a finite pair is reduced, den > 0."""
    if x.num == 0:
        assert x is POS_INF
    elif x.den == 0:
        assert x is NEG_INF
    else:
        assert x.num > 0 and x.den > 0 and math.gcd(x.num, x.den) == 1


@given(wide_extreals, wide_extreals)
def test_scalar_ops_match_fraction_reference(a, b):
    ra, rb = FractionExtReal.of(a), FractionExtReal.of(b)
    for op, ref in [
        (tmin, frac_tmin),
        (tmax, frac_tmax),
        (tmul, frac_tmul),
        (tmax_mul, frac_tmax_mul),
    ]:
        got = op(a, b)
        assert_encoded(got)
        assert FractionExtReal.of(got) == ref(ra, rb)
    assert_encoded(neg(a))
    assert FractionExtReal.of(neg(a)) == frac_neg(ra)
    assert (a <= b) == (ra <= rb)
    assert (a < b) == (ra < rb)
    assert (a >= b) == (ra >= rb)
    assert (a > b) == (ra > rb)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    # rebuilt from the reference: equal, with an equal hash
    again = ra.to_ext()
    assert_encoded(again)
    assert again == a and hash(again) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


@given(st.lists(wide_extreals, max_size=6))
def test_folds_match_fraction_reference(xs):
    refs = [FractionExtReal.of(x) for x in xs]
    assert FractionExtReal.of(tmin_all(xs)) == reduce(frac_tmin, refs, FractionExtReal(F(0)))
    assert FractionExtReal.of(tmax_all(xs)) == reduce(frac_tmax, refs, FractionExtReal(None))


def test_vector_constraints():
    with pytest.raises(ValueError):
        TropVector([])
    v = TropVector([POS_INF, POS_INF])
    assert v.support == ()
    w = TropVector([ZERO, NEG_INF])
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


# Cone points: a vector x with no -inf coordinate, not all +inf, is the
# point z = exp(-x) of the cone, nonnegative and not all 0.

cone_points = (
    st.lists(st.sampled_from([0, 0, 1, 2, 3, F(1, 2), F(2, 3), F(7, 5)]), min_size=1, max_size=6)
    .filter(any)
    .map(TropVector.from_probs)
)


def canonical_reference(z):
    """Fraction reference: divide by the largest coordinate."""
    top = max(z.mults())
    return tuple(c / top for c in z.mults())


def proportional_reference(a, b):
    """Fraction reference: every cross product a_i b_j equals a_j b_i."""
    za, zb = a.mults(), b.mults()
    return len(za) == len(zb) and all(
        x * zb[j] == za[j] * y for x, y in zip(za, zb) for j in range(len(za))
    )


@st.composite
def cone_point_pairs(draw):
    """A cone point and a second one: rescaled, rescaled and altered, or drawn anew."""
    a = draw(cone_points)
    b = a.scaled(ExtReal.from_prob(draw(rationals)))
    how = draw(st.sampled_from(["scaled", "altered", "fresh"]))
    if how == "altered":
        zb = list(b.mults())
        zb[draw(st.integers(0, len(zb) - 1))] = draw(st.sampled_from([0, 1, F(5, 3)]))
        b = TropVector.from_probs(zb) if any(zb) else b
    elif how == "fresh":
        b = draw(cone_points)
    return a, b


@given(cone_points, rationals)
def test_canonical_matches_fraction_reference(z, factor):
    c = z.canonical()
    assert c.mults() == canonical_reference(z)
    assert [k for k, m in enumerate(c.mults()) if m == 0] == [
        k for k, x in enumerate(z.coords) if x.is_pos_inf
    ]
    assert z.scaled(ExtReal.from_prob(factor)).canonical() == c


@given(st.lists(st.sampled_from([POS_INF, NEG_INF, ZERO, FINITE[1]]), min_size=1, max_size=5))
@example([POS_INF, POS_INF])
def test_canonical_rejects_exactly_non_cone_points(coords):
    x = TropVector(coords)
    cone_point = not any(c.is_neg_inf for c in coords) and not all(
        c.is_pos_inf for c in coords
    )
    if cone_point:
        assert x.canonical().mults() == canonical_reference(x)
    else:
        with pytest.raises(ValueError, match="not a cone point"):
            x.canonical()


@given(cone_point_pairs())
def test_proportional_matches_fraction_reference(ab):
    a, b = ab
    assert a.proportional(b) == proportional_reference(a, b) == b.proportional(a)


def test_matrix_products():
    m = TropMatrix.from_probs([["1", "1/2"], ["0", "1"]])
    assert m[0, 1].mult == F(1, 2)
    assert m.transpose()[1, 0].mult == F(1, 2)
    assert m.compose_min(m) == m
    x = TropVector.from_probs([1, 1])
    assert m.apply_min(x.coords) == (ZERO, ZERO)
    ident = TropMatrix.from_probs([["1", "0"], ["0", "1"]])
    assert ident.compose_min(m) == m


# Sparse inputs: n up to 9, mostly +inf, some -inf, and +inf also as a
# fresh object rather than the POS_INF singleton, so the index must test
# the value.  The dense references take the drawn rows, never the
# matrix's own `rows`, which it builds from its entry lists.

pos_infs = st.one_of(st.just(POS_INF), st.builds(ExtReal, st.just(F(0))))
sparse_entries = st.one_of(
    pos_infs, pos_infs, pos_infs, st.just(NEG_INF), rationals.map(ExtReal.from_prob)
)


@st.composite
def square_rows(draw, n, entries=extreals):
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return tuple(draw(st.lists(row, min_size=n, max_size=n)))


def sparse_rows(n):
    return square_rows(n, sparse_entries)


@st.composite
def rows_and_vector(draw, entries=extreals, max_n=5):
    n = draw(st.integers(1, max_n))
    constant = st.sampled_from([POS_INF, NEG_INF]).map(lambda c: [c] * n)
    coords = draw(st.one_of(constant, st.lists(entries, min_size=n, max_size=n)))
    return draw(square_rows(n, entries)), coords


@st.composite
def rows_pair(draw, entries=extreals, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(square_rows(n, entries)), draw(square_rows(n, entries))


dense_or_sparse_mx = st.one_of(rows_and_vector(), rows_and_vector(sparse_entries, 9))


def columns(rows):
    return tuple(zip(*rows))


@given(dense_or_sparse_mx)
def test_sparse_apply_min_matches_dense(mx):
    rows, coords = mx
    m = TropMatrix(rows)
    assert m.apply_min(coords) == dense_apply_min(rows, coords)
    assert m.transpose().apply_min(coords) == dense_apply_min(columns(rows), coords)


@given(dense_or_sparse_mx)
def test_sparse_apply_max_matches_dense(mx):
    rows, coords = mx
    m = TropMatrix(rows)
    assert m.apply_max(coords) == dense_apply_max(rows, coords)
    assert m.transpose().apply_max(coords) == dense_apply_max(columns(rows), coords)


@given(st.one_of(rows_pair(), rows_pair(sparse_entries, 9)))
def test_sparse_compose_min_matches_dense(ab):
    a, b = ab
    product = dense_compose_min(a, b)
    out = TropMatrix(a).compose_min(TropMatrix(b))
    # the entry lists, built without a dense grid, are the product's index
    assert (out.row_entries, out.row_masks) == index_reference(product)
    assert (out.col_entries, out.col_masks) == index_reference(columns(product))
    assert out == TropMatrix(product) and hash(out) == hash(TropMatrix(product))
    assert out.rows == product
    flipped = TropMatrix(columns(b)).compose_min(TropMatrix(columns(a)))
    assert flipped == out.transpose()


def index_reference(lines):
    """Each line's (index, entry) pairs that are not +inf, and their bitmask."""
    entries = tuple(tuple((j, e) for j, e in enumerate(r) if not e.is_pos_inf) for r in lines)
    return entries, tuple(sum(1 << j for j, _ in es) for es in entries)


@given(st.integers(1, 9).flatmap(sparse_rows))
def test_sparse_index_and_transpose(rows):
    n, cols = len(rows), columns(rows)
    m = TropMatrix(rows)
    assert m.rows == rows and m.cols == cols
    assert (m.row_entries, m.row_masks) == index_reference(rows)
    assert (m.col_entries, m.col_masks) == index_reference(cols)
    t = m.transpose()
    assert t.rows == cols and t.cols == rows
    assert (t.row_entries, t.row_masks) == index_reference(cols)
    assert (t.col_entries, t.col_masks) == index_reference(rows)
    assert t.transpose() == m and t == TropMatrix(cols)
    assert all(m.column(j) == cols[j] for j in range(n))
    assert all(m[i, j] == rows[i][j] == t[j, i] for i in range(n) for j in range(n))


@given(st.integers(1, 9).flatmap(sparse_rows))
def test_from_entries_equals_dense_build(rows):
    # index_reference lists ascending indices and no +inf entry
    listed = TropMatrix.from_entries(len(rows), index_reference(rows)[0])
    dense = TropMatrix(rows)
    assert listed == dense and hash(listed) == hash(dense)
    # one entry moved to another value: a different matrix
    i, j = len(rows) - 1, 0
    other = ZERO if rows[i][j] != ZERO else POS_INF
    moved = rows[:i] + ((other,) + rows[i][1:],)
    assert TropMatrix(moved) != listed
    assert (listed.row_entries, listed.row_masks) == index_reference(rows)
    assert (listed.col_entries, listed.col_masks) == index_reference(columns(rows))
    assert listed.rows == rows


def test_from_entries_refuses_bad_lists():
    half = ExtReal.from_prob(F(1, 2))
    for n, lines in [
        (2, [[(1, half), (0, half)], []]),  # descending
        (2, [[(0, half), (0, half)], []]),  # repeated index
        (2, [[(2, half)], []]),  # out of range
        (2, [[(-1, half)], []]),
        (2, [[(0, POS_INF)], []]),  # +inf is left out, never listed
        (2, [[]]),  # one row short
        (0, []),
    ]:
        with pytest.raises(ValueError):
            TropMatrix.from_entries(n, lines)
    m = TropMatrix.from_entries(2, [[(1, half)], []])
    assert m[0, 1] == half and m[0, 0] is POS_INF
    for ij in [(0, 2), (2, 0), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            m[ij]


def test_funk_frozen_values():
    # max{y_i - x_i over x_i finite}; empty admissible set gives -inf
    x = TropVector(map(ExtReal.from_log, [0.0, math.inf]))
    y = TropVector(map(ExtReal.from_log, [5.0, 1.0]))
    assert close_log(funk(x, y).log, 5.0)
    x2 = TropVector([POS_INF, POS_INF])
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
