import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plmpoly import (
    ExtReal,
    IsometryError,
    Plm,
    Side,
    boltzmann,
    close_log,
    embed_model,
    filtration_retractions,
    funk,
    membership,
    metric_from_plm,
    random_member,
    random_plm,
    retraction_from_subset,
    vector_to_strings,
    word_decompose,
    yoneda,
)
from plmpoly.tropical import POS_INF, tmin, tmul
from conftest import seeded


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
        assert emb.retraction.subset == (1, 2, 3)
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

    def test_validation(self, ex1):
        d = metric_from_plm(ex1)
        terms = [(d[0, 2], yoneda(d, 0))]
        with pytest.raises(ValueError):
            boltzmann(terms, 0.0)
        with pytest.raises(ValueError):
            boltzmann([], 1.0)
        with pytest.raises(ValueError):
            boltzmann([(ExtReal(None), yoneda(d, 0))], 1.0)

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
