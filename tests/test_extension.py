import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    ExtReal,
    IsometryError,
    Plm,
    Side,
    TropVector,
    boltzmann,
    embed_model,
    filtration_retractions,
    funk,
    membership,
    metric_from_dict,
    metric_from_plm,
    random_forest_plm,
    random_member,
    random_plm,
    retraction_from_subset,
    vector_to_strings,
    word_decompose,
    yoneda,
)
from plmpoly.tropical import POS_INF, tmin, tmul
from conftest import METRIC_KINDS, random_metric, seeded
from dense_reference import boltzmann_reference, close_log


@given(st.integers(0, 10**6), st.integers(1, 7), st.data())
def test_retraction_matches_subset_formula(seed, n, data):
    d = metric_from_plm(random_plm(seeded(seed), n))
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    mat = retraction_from_subset(d, subset).matrix
    for i in range(n):
        for k in range(n):
            best = POS_INF
            for s in subset:
                best = tmin(best, tmul(d[i, s], d[s, k]))
            assert mat[i, k] == best


@settings(deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS), st.data())
def test_retracted_generator_is_the_retraction_column(seed, kind, data):
    # d is a projector, so d_S o d = d_S: R applied to d[:,k] is R[:,k]
    d = random_metric(seeded(seed), kind)
    subset = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1))
    mat = retraction_from_subset(d, subset).matrix
    for k in range(d.n):
        assert mat.apply_min(yoneda(d, k)) == mat.column(k)


class TestRetraction:
    def test_frozen(self, ex1):
        d = metric_from_plm(ex1)
        r = retraction_from_subset(d, [0, 1])
        out = r.apply(yoneda(d, 2))
        assert vector_to_strings(out) == ["1/2", "1/3", "inf"]

    def test_all_top_sentinel(self, ex1_full):
        d = metric_from_plm(ex1_full)
        r = retraction_from_subset(d, [1, 2])  # r and c: nothing reaches the empty text
        assert r.apply(yoneda(d, 0)) is None

    def test_fixes_subset_columns(self, ex1_full):
        d = metric_from_plm(ex1_full)
        r = retraction_from_subset(d, [0, 3])
        for k in (0, 3):
            assert r.apply(yoneda(d, k)) == yoneda(d, k)

    def test_bad_subset(self, ex1):
        d = metric_from_plm(ex1)
        with pytest.raises(ValueError):
            retraction_from_subset(d, [])
        with pytest.raises(ValueError):
            retraction_from_subset(d, [9])

    def test_idempotent_random(self):
        rng = seeded(43)
        for _ in range(30):
            m = random_plm(rng, n=rng.randint(3, 6))
            d = metric_from_plm(m)
            subset = sorted(rng.sample(range(d.n), rng.randint(1, d.n)))
            r = retraction_from_subset(d, subset)  # construction asserts R o R == R
            x = random_member(rng, d)
            rx = r.apply(x)
            if rx is not None:
                assert r.apply(rx) == rx

    def test_non_expansive_random(self):
        rng = seeded(47)
        checked = 0
        while checked < 100:
            m = random_plm(rng, n=rng.randint(3, 6))
            d = metric_from_plm(m)
            subset = sorted(rng.sample(range(d.n), rng.randint(1, d.n)))
            r = retraction_from_subset(d, subset)
            x, y = random_member(rng, d), random_member(rng, d)
            rx, ry = r.apply(x), r.apply(y)
            if rx is None or ry is None:
                continue
            assert funk(rx, ry) <= funk(x, y)
            checked += 1


class TestEmbedding:
    def test_frozen(self, ex1, ex1_full):
        emb = embed_model(ex1, ex1_full, [1, 2, 3])
        assert emb.mapping == (1, 2, 3)
        ext = emb.extend(yoneda(metric_from_plm(ex1), 2))
        assert ext == yoneda(metric_from_plm(ex1_full), 3)

    def test_isometry_error(self, ex1):
        other = Plm(
            [("r",), ("c",), ("r", "c")],
            "two-sided",
            {(0, 2): F(1, 4), (1, 2): F(1, 3)},
        )
        with pytest.raises(IsometryError) as ei:
            embed_model(ex1, other, [0, 1, 2])
        assert ei.value.pair == (0, 2)

    def test_mapping_validation(self, ex1, ex1_full):
        with pytest.raises(ValueError):
            embed_model(ex1, ex1_full, [1, 1, 2])
        with pytest.raises(ValueError):
            embed_model(ex1, ex1_full, [1, 2, 9])

    def test_extend_preserves_funk(self, ex1, ex1_full):
        emb = embed_model(ex1, ex1_full, [1, 2, 3])
        ds = metric_from_plm(ex1)
        rng = seeded(53)
        for _ in range(20):
            x, y = random_member(rng, ds), random_member(rng, ds)
            assert funk(emb.extend(x), emb.extend(y)) == funk(x, y)


class TestWordDecompose:
    def test_frozen(self, ex1):
        out = word_decompose(ex1, [0, 1], 2)
        assert [(i, w.mult) for i, w in out] == [(0, F(1, 2)), (1, F(1, 3))]

    def test_requires_incomparable(self, ex1_full):
        with pytest.raises(ValueError, match="comparable"):
            word_decompose(ex1_full, [0, 1], 3)

    def test_bad_words(self, ex1):
        for words in ([0, 9], [-1], []):
            with pytest.raises(ValueError):
                word_decompose(ex1, words, 2)

    def test_requires_coverage(self, ex1):
        m = Plm(
            [("r",), ("c",), ("z",)],
            "two-sided",
            {},
        )
        with pytest.raises(ValueError, match="none of the listed words"):
            word_decompose(m, [0, 1], 2)


class TestBoltzmann:
    def test_t1_exact(self, ex1):
        d = metric_from_plm(ex1)
        res = boltzmann([(d[0, 2], yoneda(d, 0)), (d[1, 2], yoneda(d, 1))], 1.0)
        assert res.mult == (F(1, 2), F(1, 3), F(0))
        assert res.readback[2] == math.inf
        assert close_log(res.readback[0], math.log(2))

    def test_small_t_tracks_hard_min(self, ex1):
        d = metric_from_plm(ex1)
        terms = [(d[0, 2], yoneda(d, 0)), (d[1, 2], yoneda(d, 1))]
        for t in (1.0, 0.1, 0.001):
            res = boltzmann(terms, t)
            assert res.bound == pytest.approx(t * math.log(2))
            for c in range(3):
                target = res.target[c].log
                if math.isinf(target):
                    assert res.readback[c] == math.inf
                else:
                    assert res.readback[c] <= target + 1e-9
                    assert target - res.readback[c] <= res.bound + 1e-9

    def test_reading_past_float_range_is_inf(self):
        # Pr(b|a) = 2: at T = 1e-4 the reading 2**(1/T) is past float range
        d, _ = metric_from_dict({"metric": [["1", "2"], ["0", "1"]]})
        res = boltzmann([(d[0, 1], yoneda(d, 0))], 1e-4)
        assert res.mult == (math.inf, 0.0)
        assert close_log(res.readback[0], -math.log(2))
        assert res.target.coords == (d[0, 1], POS_INF)

    def test_validation(self, ex1):
        d = metric_from_plm(ex1)
        terms = [(d[0, 2], yoneda(d, 0))]
        with pytest.raises(ValueError):
            boltzmann(terms, 0.0)
        with pytest.raises(ValueError):
            boltzmann([], 1.0)
        with pytest.raises(ValueError):
            boltzmann([(ExtReal(None), yoneda(d, 0))], 1.0)
        # a -inf coordinate is refused, under a +inf weight too
        below = TropVector((ExtReal(None), POS_INF, POS_INF))
        for lam in (d[0, 2], POS_INF):
            with pytest.raises(ValueError, match="-inf"):
                boltzmann([(lam, below)], 1.0)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from([1.0, 0.1]))
    def test_inf_weight_terms_change_only_the_bound(self, seed, n, t):
        # the terms `retract --temperature` passes: one per text, most at +inf
        rng = seeded(seed)
        d = metric_from_plm(random_plm(rng, n))
        k = rng.randrange(n)
        terms = [(d[s, k], yoneda(d, s)) for s in range(n)]
        finite = [(lam, v) for lam, v in terms if not lam.is_pos_inf]
        res = boltzmann(terms, t)
        assert res == dataclasses.replace(boltzmann(finite, t), bound=t * math.log(n))

    @settings(deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([random_plm, random_forest_plm]),
        st.integers(1, 6),
        st.sampled_from([1.0, 0.1]),
        st.data(),
    )
    def test_live_terms_match_the_dense_reference(self, seed, family, n, t, data):
        # `retract --temperature` passes the live terms; the reference takes all of S
        d = metric_from_plm(family(seeded(seed), n))
        subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        mat = retraction_from_subset(d, subset).matrix
        for k in range(n):
            terms = [(d[s, k], yoneda(d, s)) for s in subset]
            live = [(lam, v) for lam, v in terms if not lam.is_pos_inf]
            ref = boltzmann_reference(terms, t)
            if not live:
                assert all(c.is_pos_inf for c in mat.column(k))
                assert ref.mult == (0,) * n
                continue
            res = boltzmann(live, t)
            assert res.target == mat.column(k)
            assert res.mult == ref.mult
            assert list(map(type, res.mult)) == list(map(type, ref.mult))
            assert res.readback == ref.readback
            assert res.bound <= ref.bound

    def test_random_bound(self):
        rng = seeded(59)
        for _ in range(15):
            m = random_plm(rng, n=rng.randint(3, 5))
            d = metric_from_plm(m)
            terms = [(d[s, 0], yoneda(d, s)) for s in range(d.n)]
            for t in (1.0, 0.25):
                boltzmann(terms, t)  # asserts the two-sided bound internally


class TestFiltration:
    def test_nested(self, ex1_full):
        fr = filtration_retractions(ex1_full)
        assert [k for k, _ in fr] == [0, 1, 2]
        # deepest level keeps everything: identity on generators
        d = metric_from_plm(ex1_full)
        _, last = fr[-1]
        for k in range(d.n):
            assert last.apply(yoneda(d, k)) == yoneda(d, k)

    def test_random(self):
        rng = seeded(61)
        for _ in range(10):
            m = random_plm(rng, kind="forest")
            filtration_retractions(m)  # nesting asserted internally
