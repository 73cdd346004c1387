import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    NEG_INF,
    POS_INF,
    ZERO,
    ExtReal,
    PartialOrder,
    Plm,
    ResourceCapExceeded,
    Side,
    TropMatrix,
    TropVector,
    ValidationFailed,
    certify_ray,
    cross_check_rays,
    enumerate_connected_lower_sets,
    enumerate_rays,
    ingest_corpus,
    metric_cone_constraints,
    metric_from_plm,
    oracle_rays,
    potential,
    random_forest_plm,
    random_layered_plm,
    random_plm,
    ray_as_text_combination,
    ray_from_lower_set,
    ray_saturation_edges,
    side_metric,
    truncate_big_m,
)
from plmpoly import cli
import plmpoly.rays as rays_module
from plmpoly.model import DirectedMetric
from plmpoly.rays import _canonical_rays
from basis_reference import MAX_N, basis_rays, saturated_rank
from dense_reference import (
    canonical_rays_reference,
    certify_ray_reference,
    cone_rows_reference,
    cross_check_reference,
    generator_reference,
    lower_sets_reference,
    saturation_edges_reference,
    simplex_reference,
    two_pass_generator_reference,
)
from conftest import assert_form, make_d2, seeded


class TestLowerSets:
    def test_chain(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        ls = enumerate_connected_lower_sets(o)
        assert ls == [(0,), (0, 1), (0, 1, 2)]

    def test_antichain(self):
        o = PartialOrder.from_pairs(3, [])
        ls = enumerate_connected_lower_sets(o)
        assert ls == [(0,), (1,), (2,)]

    def test_vee(self, ex1):
        # r, c incomparable below rc: lower sets {r},{c},{r,c,rc}
        ls = enumerate_connected_lower_sets(ex1.order)
        assert ls == [(0,), (1,), (0, 1, 2)]
        # {r, c} is downward closed but disconnected, hence absent

    def test_cap(self):
        # the cap bounds the sets emitted, not the number of elements
        o = PartialOrder.from_pairs(30, [])
        assert enumerate_connected_lower_sets(o) == [(i,) for i in range(30)]
        assert len(enumerate_connected_lower_sets(o, cap=30)) == 30
        with pytest.raises(ResourceCapExceeded):
            enumerate_connected_lower_sets(o, cap=29)


@st.composite
def random_orders(draw):
    """`from_pairs` orders on up to 9 elements, relabelled at random."""
    n = draw(st.integers(1, 9))
    label = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    return PartialOrder.from_pairs(n, [(label[i], label[j]) for i, j in pairs if i < j])


class TestLowerSetsAgainstReference:
    @settings(deadline=None)
    @given(random_orders())
    def test_random_orders(self, order):
        for o in (order, order.opposite()):
            assert enumerate_connected_lower_sets(o) == lower_sets_reference(o)


class TestExampleRays:
    def test_lower_frozen(self, ex1):
        rays = enumerate_rays(ex1, Side.LOWER)
        got = {
            r.carrier: (r.generator.mults(), r.principal_of)
            for r in rays
        }
        assert got == {
            (0,): ((F(1), F(0), F(0)), 0),
            (1,): ((F(0), F(1), F(0)), 1),
            (0, 1, 2): ((F(1, 2), F(1, 3), F(1)), 2),
        }
        assert all(r.certificate_rank == 2 for r in rays)

    def test_upper_frozen(self, ex1):
        rays = enumerate_rays(ex1, Side.UPPER)
        got = {
            r.carrier: (r.generator.mults(), r.principal_of)
            for r in rays
        }
        # the full-carrier upper ray (2,3,1) is extremal but not principal
        assert got == {
            (2,): ((F(0), F(0), F(1)), 2),
            (0, 2): ((F(1), F(0), F(1, 2)), 0),
            (1, 2): ((F(0), F(1), F(1, 3)), 1),
            (0, 1, 2): ((F(2, 3), F(1), F(1, 3)), None),
        }

    def test_oracle_agrees(self, ex1):
        for side in (Side.LOWER, Side.UPPER):
            rays = enumerate_rays(ex1, side)
            qs = oracle_rays(cone_rows_reference(ex1, side), 3)
            assert cross_check_rays(rays, qs)

    def test_side_objects_are_built_once(self, monkeypatch):
        # the upper side's order and metric once per model
        built = Counter()
        for cls, name in ((PartialOrder, "opposite"), (DirectedMetric, "transpose")):
            real = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda self, real=real, name=name: built.update([name]) or real(self)
            )
        m = random_forest_plm(seeded(5), 10)
        assert len(enumerate_rays(m, Side.UPPER)) > 1
        assert built == {"opposite": 1, "transpose": 1}
        enumerate_rays(m, Side.UPPER)
        assert built == {"opposite": 1, "transpose": 1}

    def test_full_model_counts(self, ex1_full):
        # diamond-with-bottom: 5 connected downward-closed sets either way up
        assert len(enumerate_rays(ex1_full, Side.LOWER)) == 5
        assert len(enumerate_rays(ex1_full, Side.UPPER)) == 5


class TestRayFromLowerSet:
    def test_rejects_bad_carriers(self):
        # a <= ab, and c apart: on each side `below` lacks an element under
        # it, and `apart` is downward closed but falls in two pieces
        m = Plm([("a",), ("a", "b"), ("c",)], "two-sided", {(0, 1): F(1, 2)})
        for side, below, apart in ((Side.LOWER, [1], [0, 2]), (Side.UPPER, [0], [1, 2])):
            for members, message in (
                ([], "carrier must be nonempty"),
                ([0, 3], "index 3 out of range"),
                ([-1, 0], "index -1 out of range"),
                (below, "carrier is not downward closed on this side"),
                (apart, "carrier is not connected"),
            ):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    ray_from_lower_set(m, members, side)

    @pytest.mark.parametrize("side", list(Side))
    def test_crown_has_no_potential(self, crown, side):
        # the walk's closing-edge check keeps a non-ray from coming out
        with pytest.raises(ValueError, match="path-dependent"):
            ray_from_lower_set(crown, [0, 1, 2, 3], side)
        # a, b <= c holds no cycle, but no one potential reproduces the
        # model, so this carrier is refused as well
        with pytest.raises(ValueError, match="path-dependent"):
            ray_from_lower_set(crown, [0, 1, 2], side)

    @pytest.mark.parametrize("side", list(Side))
    def test_member_forms_give_one_ray(self, ex1_full, side):
        for members in enumerate_connected_lower_sets(_side_order(ex1_full, side)):
            r = ray_from_lower_set(ex1_full, members, side)
            for given in (members[::-1], members + members, set(members), iter(members)):
                assert ray_from_lower_set(ex1_full, given, side) == r

    def test_principal_down_sets(self, ex1):
        r = ray_from_lower_set(ex1, [0, 1, 2])
        assert r.principal_of == 2
        assert r.certificate_rank == 2

    def test_invalid_model_refused(self):
        m = Plm([("a",), ("a", "b")], "one-sided", {})
        with pytest.raises(ValidationFailed):
            enumerate_rays(m)


class TestOracle:
    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(rays_module, "ORACLE_CAP", 12)
        with pytest.raises(ResourceCapExceeded, match="13 unit rays exceed the oracle cap 12"):
            oracle_rays([], 13)

    def test_cap_counts_rays_not_dimension(self, monkeypatch):
        assert len(oracle_rays([], 13)) == 13
        # all distances equal: 2^n - 2 rays, refused by a cap below that
        cons = metric_cone_constraints(make_d2(F(1, 2), n=6), Side.LOWER)
        assert len(oracle_rays(cons, 6)) == 62
        monkeypatch.setattr(rays_module, "ORACLE_CAP", 40)
        with pytest.raises(ResourceCapExceeded, match=r"more than 40 rays after \d+ of 30"):
            oracle_rays(cons, 6)

    def test_bad_constraints(self):
        # an infinite entry is no row: +inf is the pair (0, 1), -inf (1, 0)
        for e in (POS_INF, NEG_INF):
            with pytest.raises(ValueError, match="coefficients must be positive"):
                oracle_rays([(0, 1, e)], 2)
        with pytest.raises(ValueError, match="index out of range"):
            oracle_rays([(0, 5, ExtReal(F(1, 2)))], 2)

    def test_free_cone(self):
        qs = oracle_rays([], 3)
        assert [q.mults() for q in qs] == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_certify(self, ex1):
        d = metric_from_plm(ex1)
        for q in oracle_rays(cone_rows_reference(ex1, Side.LOWER), 3):
            assert certify_ray(q, d) == 2
        # an interior point saturates nothing beyond its own positivity
        assert certify_ray(TropVector.from_probs([1, 1, 1]), d) == 0
        # a -inf coordinate is an infinite multiplicative one: no cone point
        with pytest.raises(ValueError, match="not a cone point"):
            certify_ray(TropVector.from_entries(3, NEG_INF, [(0, ExtReal(F(0)))]), d)

    def test_random_equivalence(self):
        rng = seeded(21)
        for _ in range(40):
            m = random_plm(rng, n=rng.randint(3, 6))
            side = Side.LOWER if rng.random() < 0.5 else Side.UPPER
            rays = enumerate_rays(m, side)
            qs = oracle_rays(cone_rows_reference(m, side), m.n)
            assert cross_check_rays(rays, qs)


class TestConeRows:
    """The side metric's entries are the cone rows that the model's probabilities give."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.sampled_from(["plm", "forest", "layered", "corpus"]),
        st.sampled_from(list(Side)),
    )
    def test_metric_rows_are_the_model_rows(self, seed, n, kind, side):
        rng = random.Random(seed)
        if kind == "corpus":
            tokens = [rng.choice("abc") for _ in range(rng.randint(3, 4 * n))]
            m = ingest_corpus(
                tokens,
                order_mode=rng.choice(["one-sided", "two-sided"]),
                max_len=rng.randint(1, 3),
                include_empty=rng.random() < 0.5,
            )
        else:
            draws = {"plm": random_plm, "forest": random_forest_plm, "layered": random_layered_plm}
            m = draws[kind](rng, n)
        rows = metric_cone_constraints(metric_from_plm(m), side)
        assert rows == cone_rows_reference(m, side)
        assert all(type(e) is ExtReal and e.is_finite for _, _, e in rows)


class TestSideCone:
    """Both sides' metrics come from one `metric_from_plm` call per model."""

    @pytest.mark.parametrize("first", list(Side))
    def test_one_metric_build_for_both_sides(self, monkeypatch, first):
        built = []

        def counting(m):
            built.append(m)
            return metric_from_plm(m)

        monkeypatch.setattr(rays_module, "metric_from_plm", counting)
        for seed in range(20):
            m = random_plm(seeded(seed), n=random.Random(seed).randint(1, 7))
            built.clear()
            sides = [first, Side.UPPER if first is Side.LOWER else Side.LOWER]
            for side in sides:
                enumerate_rays(m, side)
            assert built == [m]
            for side in sides:
                kept = rays_module._side_cone(m, side)[2]
                assert kept == side_metric(metric_from_plm(m), side)


@st.composite
def constraint_systems(draw, max_n=MAX_N):
    """Random systems with i == j rows, mutual p = 1 pairs and duplicates."""
    n = draw(st.integers(1, max_n))
    index = st.integers(0, n - 1)
    prob = st.builds(F, st.integers(1, 9), st.integers(1, 9)).map(ExtReal)
    cons = draw(st.lists(st.tuples(index, index, prob), max_size=8))
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
        cons += [(i, j, ZERO), (j, i, ZERO)]
    if cons:
        cons += draw(st.lists(st.sampled_from(cons), max_size=2))
    return draw(st.permutations(cons)), n


class TestOracleAgainstBasisReference:
    @settings(deadline=None)
    @given(constraint_systems())
    def test_random_systems(self, system):
        cons, n = system
        assert oracle_rays(cons, n) == basis_rays(cons, n)

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, MAX_N),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
    )
    def test_model_cones(self, seed, n, draw_model, side):
        m = draw_model(random.Random(seed), n)
        cons = cone_rows_reference(m, side)
        assert oracle_rays(cons, n) == basis_rays(cons, n)


def assert_oracle_output(qs):
    """Distinct canonical vectors in `mults` order."""
    assert len(set(qs)) == len(qs)
    for q in qs:
        assert q.canonical() == q
        assert_form(q, q.coords)
    assert [q.mults() for q in qs] == sorted(q.mults() for q in qs)


@st.composite
def primitive_vectors(draw):
    """Nonnegative integer vectors divided by their gcd, some repeated."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.integers(0, 12), st.integers(0, 10**30))
    vector = st.lists(value, min_size=n, max_size=n).filter(any)
    zs = [tuple(x // math.gcd(*z) for x in z) for z in draw(st.lists(vector, max_size=12))]
    if zs:
        zs += draw(st.lists(st.sampled_from(zs), max_size=3))
    return draw(st.permutations(zs))


class TestOracleOutput:
    """Beyond the basis reference: the output step on larger cones and on its own."""

    @settings(deadline=None)
    @given(primitive_vectors())
    def test_builder_matches_the_from_probs_route(self, zs):
        assert _canonical_rays(zs) == canonical_rays_reference(zs)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 2**32),
        st.integers(6, 9),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
    )
    def test_model_cones(self, seed, n, draw_model, side):
        m = draw_model(random.Random(seed), n)
        assert_oracle_output(oracle_rays(cone_rows_reference(m, side), n))

    @settings(deadline=None)
    @given(constraint_systems(max_n=9))
    def test_random_systems(self, system):
        cons, n = system
        assert_oracle_output(oracle_rays(cons, n))


@st.composite
def tight_systems(draw):
    """z >= 0 with zeros and ties, and a side metric whose rows z often makes tight.

    The metric is any matrix with a zero diagonal and no -inf entry,
    listed through `TropMatrix.from_entries` and taken without the
    triangle test.  Each off-diagonal entry d_ij is drawn as the ratio
    z_i / z_j, which makes its row tight, as the ratio of another pair,
    or at random; mutual p = 1 pairs are drawn too.
    """
    n = draw(st.integers(1, 7))
    values = st.sampled_from([0, 0, 1, 1, 2, 3, F(1, 2)])
    coords = draw(st.lists(values, min_size=n, max_size=n))
    if not any(coords):
        coords[draw(st.integers(0, n - 1))] = 1
    z = TropVector.from_probs(coords)
    zm = z.mults()

    def ratio(i, j):
        return zm[i] / zm[j] if zm[i] and zm[j] else F(1)

    index = st.integers(0, n - 1)
    pair = st.tuples(index, index).filter(lambda ij: ij[0] != ij[1])
    probs = {}
    for i, j in draw(st.lists(pair, max_size=12)):
        kind = draw(st.sampled_from(["tight", "tight", "other", "random"]))
        if kind == "tight":
            probs[i, j] = ratio(i, j)
        elif kind == "other":
            probs[i, j] = ratio(*draw(st.tuples(index, index)))
        else:
            probs[i, j] = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    for i, j in draw(st.lists(pair, max_size=2)):
        probs[i, j] = probs[j, i] = F(1)
    rows = [[(i, ZERO)] for i in range(n)]
    for (i, j), p in sorted(probs.items()):
        rows[i].append((j, ExtReal(p)))
    mat = TropMatrix.from_entries(n, [sorted(row, key=lambda e: e[0]) for row in rows])
    return z, DirectedMetric(mat, require_projector=False), n


def bent_vectors(data, z: TropVector) -> list[TropVector]:
    """z with one coordinate set to 0, scaled or redrawn; none if that leaves only zeros."""
    zm = list(z.mults())
    k = data.draw(st.integers(0, len(zm) - 1))
    zm[k] = data.draw(st.sampled_from([F(0), 2 * zm[k], zm[k] / 3, F(1), F(5, 7)]))
    return [TropVector.from_probs(zm)] if any(zm) else []


class TestCertifyAgainstRankReference:
    @settings(deadline=None)
    @given(tight_systems())
    def test_random_systems(self, system):
        z, d, n = system
        assert certify_ray(z, d) == saturated_rank(z, metric_cone_constraints(d), n)

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 8),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
        st.data(),
    )
    def test_model_cones(self, seed, n, draw_model, side, data):
        """Rays, midpoints of neighbouring rays and bent rays, against both references."""
        m = draw_model(random.Random(seed), n)
        d = side_metric(metric_from_plm(m), side)
        cons = cone_rows_reference(m, side)
        qs = oracle_rays(cons, n)
        for q in qs:
            assert certify_ray(q, d) == certify_ray_reference(q, cons, n) == n - 1
            assert saturated_rank(q, cons, n) == n - 1
            for bent in bent_vectors(data, q):
                rank = certify_ray(bent, d)
                assert rank == certify_ray_reference(bent, cons, n)
                assert rank == saturated_rank(bent, cons, n)
        for a, b in zip(qs, qs[1:]):
            mid = TropVector.from_probs([x + y for x, y in zip(a.mults(), b.mults())])
            rank = certify_ray(mid, d)
            assert rank == certify_ray_reference(mid, cons, n)
            assert rank == saturated_rank(mid, cons, n) < n - 1


class TestCertifyAgainstFractionReference:
    """The integer-pair test of z_i = p z_j against the test on `z.mults()`."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
        st.data(),
    )
    def test_rays_and_perturbed(self, seed, n, draw_model, side, data):
        m = draw_model(random.Random(seed), n)
        d = side_metric(metric_from_plm(m), side)
        cons = metric_cone_constraints(d)
        for r in enumerate_rays(m, side):
            z = r.generator
            assert certify_ray(z, d) == certify_ray_reference(z, cons, n) == n - 1
            for bent in bent_vectors(data, z):
                assert certify_ray(bent, d) == certify_ray_reference(bent, cons, n)


class TestCrossCheckAgainstFractionReference:
    """Counting canonical coordinate tuples against sorting `mults()` tuples."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 7),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
        st.data(),
    )
    def test_rays_and_edits(self, seed, n, draw_model, side, data):
        m = draw_model(random.Random(seed), n)
        rays = enumerate_rays(m, side)
        qs = oracle_rays(cone_rows_reference(m, side), n)
        k = data.draw(st.integers(0, len(qs) - 1))
        lam = ExtReal.from_prob(F(data.draw(st.integers(1, 9)), 7))
        zm = list(qs[k].mults())
        i = data.draw(st.integers(0, n - 1))
        zm[i] = data.draw(st.sampled_from([F(0), 2 * zm[i], zm[i] / 3, F(1), F(5, 7)]))
        pairs = [
            (rays, qs),
            (rays, [q.scaled(lam) for q in reversed(qs)]),
            (rays, qs[:k] + qs[k + 1 :]),
            (rays, qs + [qs[k]]),
            (rays + [rays[k]], qs),
            (rays + [rays[k]], qs + [qs[k]]),
        ]
        if any(zm):
            pairs.append((rays, qs[:k] + [TropVector.from_probs(zm)] + qs[k + 1 :]))
        for mine, theirs in pairs:
            assert cross_check_rays(mine, theirs) == cross_check_reference(mine, theirs)
        assert cross_check_rays(*pairs[0]) and cross_check_rays(*pairs[1])
        assert not any(cross_check_rays(*pair) for pair in pairs[2:5])


class TestGeneratorsAgainstCarrierPotential:
    """The model's one potential gives the generators a walk per carrier gives,
    in their one form, and the output strings `normalize_to_simplex` gives
    through `scaled`."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
    )
    def test_random_models(self, seed, n, draw_model, side):
        m = draw_model(random.Random(seed), n)
        rays = enumerate_rays(m, side)
        assert rays
        for r in rays:
            ref = generator_reference(m, r.carrier, side)
            assert r.generator == ref
            assert_form(r.generator, ref.coords)
            for as_float in (False, True):
                assert cli._ray_out(r.generator, as_float) == (
                    cli._mult_out(ref, as_float),
                    cli._mult_out(simplex_reference(ref), as_float),
                )


class TestOnePassGenerator:
    """`ray_from_lower_set` forms each generator in one pass; the restricted
    vector and its `_rescaled` copy, the route it replaced, give the same form."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
    )
    def test_against_two_pass_route(self, seed, n, draw_model, side):
        m = draw_model(random.Random(seed), n)
        lower_sets = enumerate_connected_lower_sets(_side_order(m, side))
        for members, r in zip(lower_sets, enumerate_rays(m, side), strict=True):
            ref = two_pass_generator_reference(m, members, side)
            assert r.generator.entries == ref.entries
            assert r.generator.mask == ref.mask and r.generator.fill is ref.fill is POS_INF
            assert_form(r.generator, ref.coords)
            # the carrier is the ascending member tuple, the generator's support
            assert type(r.carrier) is tuple and r.carrier == tuple(sorted(members))
            assert r.carrier == r.generator.support


def _side_order(m, side):
    return m.order if side is Side.LOWER else m.order.opposite()


class TestDiagonalScaling:
    def test_frozen(self, ex1):
        w = potential(ex1, 0b111)
        assert w == {0: F(1), 1: F(3, 2), 2: F(1, 2)}

    def test_rescaled_constraints_trivial(self, ex1):
        w = potential(ex1, 0b111)
        for i, j, e in metric_cone_constraints(metric_from_plm(ex1), Side.LOWER):
            # substituting z_i = ztilde_i / w_i turns z_i >= p z_j (p = e.mult)
            # into ztilde_i >= ztilde_j exactly when w_j == p w_i
            assert w[j] == e.mult * w[i]


class TestD2:
    @pytest.mark.parametrize("t", [F(1, 3), F(1, 2), F(9, 10)])
    def test_six_rays_both_sides(self, t):
        d = make_d2(t)
        for side in (Side.LOWER, Side.UPPER):
            qs = oracle_rays(metric_cone_constraints(d, side), 3)
            assert len(qs) == 6
            # three principal rays (columns) and three extra ones
            cols = {
                tuple(1 if i == k else t for i in range(3)) for k in range(3)
            }
            got = {q.mults() for q in qs}
            assert cols <= got
            extras = got - cols
            assert all(sorted(q) == sorted((t, 1, 1)) for q in extras)

    def test_count_invariant_across_t(self):
        counts = {
            t: len(oracle_rays(metric_cone_constraints(make_d2(F(t)), Side.LOWER), 3))
            for t in ("1/3", "1/2", "9/10")
        }
        assert set(counts.values()) == {6}


class TestBigMRays:
    def test_hexagon_frozen(self, ex1):
        d = metric_from_plm(ex1)
        dm = truncate_big_m(d, 10.0)
        eps = dm[1, 0].mult
        lower = oracle_rays(metric_cone_constraints(dm, Side.LOWER), 3)
        upper = oracle_rays(metric_cone_constraints(dm, Side.UPPER), 3)
        assert len(lower) == 6 and len(upper) == 6
        expected_upper = {
            (eps, eps, F(1)),
            (eps, F(1), F(1, 3)),
            (eps, F(1), F(1)),
            (F(2, 3), F(1), F(1, 3)),
            (F(1), eps, F(1, 2)),
            (F(1), eps, F(1)),
        }
        assert {q.mults() for q in upper} == expected_upper
        expected_lower = {
            (eps, F(1), eps),
            (eps, F(1), 2 * eps),
            (F(1, 2), F(1, 3), F(1)),
            (F(1), eps, eps),
            (F(1), eps, 3 * eps),
            (F(1), F(1), eps),
        }
        assert {q.mults() for q in lower} == expected_lower

    def test_original_rays_survive_within_eps(self, ex1):
        d = metric_from_plm(ex1)
        for big_m in (10.0, 100.0):
            dm = truncate_big_m(d, big_m)
            eps = dm[1, 0].mult
            originals = [r.generator for r in enumerate_rays(ex1, Side.LOWER)]
            truncated = oracle_rays(metric_cone_constraints(dm, Side.LOWER), 3)
            for orig in originals:
                # some truncated ray matches coordinatewise within a few eps
                assert any(
                    all(abs(a - b) <= 3 * eps for a, b in zip(q.mults(), orig.mults()))
                    for q in truncated
                )


class TestStructure:
    def test_saturation_edges_cover_carrier(self, ex1):
        for r in enumerate_rays(ex1, Side.LOWER):
            edges = ray_saturation_edges(r, ex1)
            assert tuple(edges) == r.carrier

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 8),
        st.sampled_from([random_plm, random_forest_plm]),
        st.sampled_from(list(Side)),
    )
    def test_saturation_edges_random_models(self, seed, n, draw_model, side):
        m = draw_model(random.Random(seed), n)
        d = metric_from_plm(m)
        for r in enumerate_rays(m, side):
            edges = ray_saturation_edges(r, m)  # verifies the side order in the carrier
            pairs = {(i, j) for i, out in edges.items() for j in range(n) if out >> j & 1}
            assert pairs == saturation_edges_reference(r.generator, d, side)

    def test_text_combination_frozen(self, ex1_full):
        rays = enumerate_rays(ex1_full, Side.LOWER)
        full = next(r for r in rays if len(r.carrier) == 4)
        combo = ray_as_text_combination(full, ex1_full)
        # one maximal text (rc), weighted by -(-log Pr(rc|empty)) = log 6
        assert [(i, w.mult) for i, w in combo] == [(3, F(6))]

    def test_text_combination_needs_empty(self, ex1):
        r = enumerate_rays(ex1, Side.LOWER)[0]
        with pytest.raises(ValueError, match="empty text"):
            ray_as_text_combination(r, ex1)
