from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    ExtReal,
    ResourceCapExceeded,
    Side,
    TropVector,
    co_yoneda,
    funk,
    isbell_member,
    map_l,
    map_r,
    max_closure,
    membership,
    metric_from_plm,
    random_extended_vector,
    random_forest_plm,
    random_member,
    random_plm,
    tmul,
    violation,
    yoneda,
)
from plmpoly.isbell import closure_candidates
from plmpoly.tropical import NEG_INF, POS_INF
from conftest import METRIC_KINDS, make_d2, random_metric, seeded
from dense_reference import (
    closure_candidates_reference,
    closure_reference,
    isbell_member_reference,
    join_per_down_set_reference,
    membership_reference,
)


def test_triple_composites_random():
    rng = seeded(37)
    for _ in range(40):
        m = random_plm(rng)
        d = metric_from_plm(m)
        for _ in range(6):
            x = random_extended_vector(rng, d.n)
            assert map_l(d, map_r(d, map_l(d, x))) == map_l(d, x)
            assert map_r(d, map_l(d, map_r(d, x))) == map_r(d, x)


@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS))
def test_isometry_rows_are_funk_rows(seed, kind):
    d = random_metric(seeded(seed), kind)
    ys = [yoneda(d, i) for i in range(d.n)]
    cs = [co_yoneda(d, i) for i in range(d.n)]
    for i in range(d.n):
        assert map_r(d, ys[i]).coords == tuple(funk(ys[i], y) for y in ys)
        assert map_l(d, cs[i]).coords == tuple(funk(cs[i], c) for c in cs)


def test_generators_are_isbell_fixed(ex1):
    d = metric_from_plm(ex1)
    for k in range(3):
        assert isbell_member(d, yoneda(d, k))
        # scaled generators stay fixed
        assert isbell_member(d, yoneda(d, k).scaled(ExtReal.from_prob(F(1, 2))))
    with pytest.raises(ValueError):
        isbell_member(d, TropVector.from_probs([1, 1]))


def _finite(rng):
    return ExtReal.from_prob(F(rng.randint(1, 12), rng.randint(1, 12)))


def _with_infinities(rng, n, first, other):
    """first at index 0, other at one more index, finite elsewhere: first is the fill."""
    coords = [_finite(rng) for _ in range(n)]
    coords[0] = first
    coords[rng.randint(1, n - 1)] = other
    return TropVector(coords)


VECTOR_FORMS = (
    "yoneda",
    "closure",
    "member",
    "hull",
    "moved hull",
    "hull less one",
    "extended",
    "fill -inf",
    "listed -inf",
    "listed +inf",
    "all listed",
    "all +inf",
    "all -inf",
)


def isbell_draw(rng, d, form, data):
    """A vector of the named form for the metric d."""
    n = d.n
    if form == "yoneda":
        return yoneda(d, rng.randrange(n)).scaled(_finite(rng))
    if form == "closure":  # of at most four columns, at most 15 vectors
        picked = rng.sample(range(n), min(n, 4))
        return data.draw(st.sampled_from(max_closure([yoneda(d, k) for k in picked], d)))
    if form == "member":
        return random_member(rng, d)
    if form in ("hull", "moved hull", "hull less one"):
        x = map_l(d, map_r(d, random_extended_vector(rng, n)))  # a fixed vector
        coords = list(x.coords)
        if form == "moved hull":  # one coordinate moved to any value
            coords[rng.randrange(n)] = rng.choice([POS_INF, NEG_INF, _finite(rng)])
        elif form == "hull less one" and x.support:  # one support coordinate moved to +inf
            coords[rng.choice(x.support)] = POS_INF
        return TropVector(coords)
    if form == "extended":
        return random_extended_vector(rng, n)
    if form == "fill -inf":
        k = rng.randint(1, n)  # more -inf than +inf coordinates
        pos = rng.randint(0, min(k - 1, n - k))
        coords = [NEG_INF] * k + [POS_INF] * pos + [_finite(rng) for _ in range(n - k - pos)]
        rng.shuffle(coords)
        return TropVector(coords)
    if form == "listed -inf" and n > 1:
        return _with_infinities(rng, n, POS_INF, NEG_INF)
    if form == "listed +inf" and n > 1:
        return _with_infinities(rng, n, NEG_INF, POS_INF)
    if form == "all +inf":
        return TropVector([POS_INF] * n)
    if form == "all -inf":
        return TropVector([NEG_INF] * n)
    return TropVector(_finite(rng) for _ in range(n))  # all listed


@settings(deadline=None, max_examples=300)
@given(
    st.integers(0, 10**6),
    st.sampled_from(METRIC_KINDS + ("corpus",)),
    st.sampled_from(VECTOR_FORMS),
    st.data(),
)
def test_isbell_member_matches_the_composition(seed, kind, form, data):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    x = isbell_draw(rng, d, form, data)
    if form == "fill -inf" or form == "listed +inf" and d.n > 1:
        assert x.fill is NEG_INF and (form == "fill -inf" or POS_INF in dict(x.entries).values())
    if form == "listed -inf" and d.n > 1:
        assert x.fill is POS_INF and NEG_INF in dict(x.entries).values()
    assert isbell_member(d, x) == isbell_member_reference(d, x)
    with pytest.raises(ValueError, match="dimension mismatch"):
        isbell_member(d, TropVector(list(x.coords) + [POS_INF]))


def test_isbell_member_on_each_form(ex1):
    """The worked example's fixed and non-fixed vectors, one of each form."""
    d = metric_from_plm(ex1)
    half = ExtReal.from_prob(F(1, 2))
    one = ExtReal.from_prob(1)
    cases = [
        ([POS_INF] * 3, True),
        ([NEG_INF] * 3, True),
        ([NEG_INF, NEG_INF, one], False),  # fill -inf, one listed entry
        ([one, NEG_INF, POS_INF], False),  # fill -inf, listed +inf
        ([POS_INF, POS_INF, NEG_INF], False),  # fill +inf, listed -inf
        ([half, half, half], False),  # all listed
    ]
    cases += [(yoneda(d, k).coords, True) for k in range(3)]
    for coords, fixed in cases:
        x = TropVector(coords)
        assert isbell_member(d, x) == isbell_member_reference(d, x) == fixed, coords


def test_closure_frozen(ex1):
    d = metric_from_plm(ex1)
    closure = max_closure([yoneda(d, k) for k in range(3)], d)
    assert len(closure) == 12
    coords = {tuple(str(c.mult) if c.is_finite else "inf" for c in v.coords) for v in closure}
    assert ("1", "1", "1") in coords  # the min of all three generators
    assert ("1", "1", "inf") in coords
    # every closure vector is a member; some fall outside the Isbell span
    outside = [v for v in closure if not isbell_member(d, v)]
    assert len(outside) == 7
    for v in closure:
        assert membership(v, d, Side.LOWER)


def test_closure_rejects_non_members(ex1):
    d = metric_from_plm(ex1)
    with pytest.raises(ValueError):
        max_closure([TropVector.from_probs([F(1, 4), F(1, 3), 1])], d)
    with pytest.raises(ValueError):
        max_closure([], d)


def test_closure_cap(ex1):
    d = metric_from_plm(ex1)
    with pytest.raises(ResourceCapExceeded):
        max_closure([yoneda(d, k) for k in range(3)], d, cap=4)


def _closure_or_cap(closure, gens, d, cap):
    try:
        return {v.coords for v in closure(gens, d, cap=cap)}
    except ResourceCapExceeded:
        return None


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([random_plm, random_forest_plm]),
    st.integers(1, 6),
    st.data(),
)
def test_closure_matches_round_reference(seed, family, n, data):
    rng = seeded(seed)
    d = metric_from_plm(family(rng, n))
    picked = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    gens = [yoneda(d, k).scaled(ExtReal.from_prob(F(rng.randint(1, 4), 4))) for k in picked]
    # inputs that are already a meet or a join of two others, and repeated
    # inputs, in any order
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)))):
        gens.append(a.min_with(b))
        if set(a.support) & set(b.support):
            gens.append(a.max_with(b))
    gens += data.draw(st.lists(st.sampled_from(gens), max_size=2))
    gens = data.draw(st.permutations(gens))
    ref = closure_reference(gens, d)
    got = max_closure(gens, d)
    assert len(got) == len(ref) == len({v.coords for v in got})
    assert {v.coords for v in got} == {v.coords for v in ref}
    # the cap: raise iff the closure adds a vector beyond `cap` distinct ones,
    # so iff it ends with more than max(cap, distinct inputs); the
    # reference's count only grows, from the distinct inputs to len(ref)
    inputs = len({v.coords for v in gens})
    for cap in range(1, len(ref) + 2):
        outcome = _closure_or_cap(max_closure, gens, d, cap)
        assert outcome == (None if len(ref) > max(cap, inputs) else {v.coords for v in ref})
    cap = data.draw(st.integers(1, len(ref) + 1))
    assert _closure_or_cap(max_closure, gens, d, cap) == _closure_or_cap(
        closure_reference, gens, d, cap
    )


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([random_plm, random_forest_plm]),
    st.integers(1, 7),
    st.data(),
)
def test_one_join_per_vector_matches_joining_each_down_set(seed, family, n, data):
    """Each down-set's join from its parent's equals its join from scratch."""
    rng = seeded(seed)
    d = metric_from_plm(family(rng, n))
    picked = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    gens = [yoneda(d, k).scaled(ExtReal.from_prob(F(rng.randint(1, 4), 4))) for k in picked]
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)))):
        gens.append(a.min_with(b))
    gens = data.draw(st.permutations(gens))
    ref = join_per_down_set_reference(gens, d)
    got = max_closure(gens, d)
    assert len(got) == len(ref) and set(got) == set(ref)
    cap = data.draw(st.integers(1, len(ref) + 1))
    assert _closure_or_cap(max_closure, gens, d, cap) == _closure_or_cap(
        join_per_down_set_reference, gens, d, cap
    )


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([random_plm, random_forest_plm]),
    st.integers(1, 6),
    st.data(),
)
def test_closure_vectors_are_joins_of_meets_above_them(seed, family, n, data):
    """Each x in the closure of S is the join over i of the meet of {s in S : s_i >= x_i}."""
    rng = seeded(seed)
    d = metric_from_plm(family(rng, n))
    picked = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    gens = [yoneda(d, k).scaled(ExtReal.from_prob(F(rng.randint(1, 4), 4))) for k in picked]
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)))):
        gens.append(a.min_with(b))
        if set(a.support) & set(b.support):
            gens.append(a.max_with(b))
    for x in closure_reference(gens, d):
        meets = [reduce(TropVector.min_with, [s for s in gens if s[i] >= x[i]]) for i in range(n)]
        assert reduce(TropVector.max_with, meets) == x


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([random_plm, random_forest_plm]),
    st.integers(1, 6),
    st.data(),
)
def test_running_meet_candidates_match_the_threshold_meets(seed, family, n, data):
    """The running meets give the candidates that one meet per threshold gives."""
    rng = seeded(seed)
    d = metric_from_plm(family(rng, n))
    picked = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    gens = [yoneda(d, k).scaled(ExtReal.from_prob(F(rng.randint(1, 4), 4))) for k in picked]
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)))):
        gens.append(a.min_with(b))
        gens.append(a.max_with(b))
    # any vectors, -inf and +inf coordinates and fills included
    gens += [random_extended_vector(rng, n) for _ in range(data.draw(st.integers(0, 3)))]
    gens = list(dict.fromkeys(data.draw(st.permutations(gens))))
    got = closure_candidates(gens, n)
    assert len(got) == len(set(got))
    assert set(got) == set(closure_candidates_reference(gens, n))


@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS), st.data())
def test_violation_is_the_first_failing_inequality(seed, kind, data):
    rng = seeded(seed)
    d = random_metric(rng, kind)
    x = data.draw(
        st.sampled_from([random_extended_vector(rng, d.n), random_member(rng, d)])
    )
    if data.draw(st.booleans()):  # move one coordinate of the draw
        k = data.draw(st.integers(0, d.n - 1))
        coords = list(x.coords)
        coords[k] = ExtReal.from_prob(F(data.draw(st.integers(1, 12)), 4))
        x = TropVector(coords)
    pair = violation(x, d)
    if pair is None:
        assert membership_reference(x, d) or all(c.is_pos_inf for c in x.coords)
    else:
        i, j = pair
        assert x[i] > tmul(d[i, j], x[j]) and not membership_reference(x, d)
        # no pair before (i, j) in row-major order fails
        assert all(
            x[a] <= tmul(d[a, b], x[b])
            for a in range(d.n)
            for b in range(d.n)
            if a != b and (a, b) < (i, j)
        )
    assert membership(x, d, Side.LOWER) == (
        pair is None and not all(c.is_pos_inf for c in x.coords)
    )


def test_d2_witnesses(d2):
    t = d2[0, 1].mult
    # the all-zeros vector is a joint fixed point
    zero = TropVector.from_probs([1, 1, 1])
    assert membership(zero, d2, Side.LOWER)
    assert isbell_member(d2, zero)
    # (0, 0, c) with 0 < c < -log t: a member, but LR collapses it to zero
    c = (1 + t) / 2  # multiplicative value strictly between t and 1
    w = TropVector.from_probs([1, 1, c])
    assert membership(w, d2, Side.LOWER)
    assert not isbell_member(d2, w)
    assert map_l(d2, map_r(d2, w)) == zero


def test_d2_closure_is_small(d2):
    gens = [yoneda(d2, k) for k in range(3)]
    closure = max_closure(gens, d2)
    # min of any two generators is the all-t vector... closure stays finite
    assert all(membership(v, d2, Side.LOWER) for v in closure)
    for v in gens:
        assert isbell_member(d2, v)


def test_lr_is_decreasing_projection():
    rng = seeded(41)
    for _ in range(30):
        m = random_plm(rng, n=rng.randint(3, 6))
        d = metric_from_plm(m)
        x = random_member(rng, d)
        lr = map_l(d, map_r(d, x))
        # LR is idempotent on its image
        assert map_l(d, map_r(d, lr)) == lr
        assert isbell_member(d, lr)
