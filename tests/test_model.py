import json
import math
import os
import random
import stat
import tracemalloc
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    DirectedMetric,
    ExtReal,
    PartialOrder,
    Plm,
    TropMatrix,
    ValidationFailed,
    ZERO,
    check_projector,
    ingest_corpus,
    is_subtext,
    kleene_closure,
    load_model_file,
    metric_from_dict,
    metric_from_plm,
    model_from_dict,
    model_to_dict,
    order_from_metric,
    plm_from_metric,
    potential,
    random_forest_plm,
    random_plm,
    truncate_big_m,
    validate_plm,
    write_text_atomic,
)
from plmpoly.files import MAX_DIGITS, read_rational
from plmpoly.model import ValidationReport, bits, components_of
from conftest import METRIC_KINDS, metric_to_dict, random_metric, seeded
from dense_reference import (
    chain_scan,
    metric_rows_reference,
    potential_reference,
    read_rational_reference,
    top_potential_reproduces,
    validate_reference,
)


def test_is_subtext():
    assert is_subtext((), ("a",), "one-sided")
    assert is_subtext(("a",), ("a", "b"), "one-sided")
    assert not is_subtext(("b",), ("a", "b"), "one-sided")
    assert is_subtext(("b",), ("a", "b"), "two-sided")
    assert is_subtext(("a", "b"), ("c", "a", "b"), "two-sided")
    assert not is_subtext(("a", "c"), ("a", "b", "c"), "two-sided")
    with pytest.raises(ValueError):
        is_subtext((), (), "explicit")


@given(
    st.lists(st.lists(st.sampled_from("ab"), max_size=4).map(tuple), min_size=1, unique=True),
    st.sampled_from(["one-sided", "two-sided"]),
)
def test_from_texts_matches_all_pairs_reference(texts, mode):
    order = PartialOrder.from_texts(texts, mode)
    for i, a in enumerate(texts):
        for j, b in enumerate(texts):
            assert order.leq(i, j) == is_subtext(a, b, mode)
    # from_texts skips the checks; the checked constructor, given the
    # reference up-sets, sets the same slots
    up = [sum(1 << j for j, b in enumerate(texts) if is_subtext(a, b, mode)) for a in texts]
    checked = PartialOrder(len(texts), up)
    slots = PartialOrder.__slots__
    assert [getattr(order, s) for s in slots] == [getattr(checked, s) for s in slots]


class TestPartialOrder:
    def test_from_pairs_validates(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            PartialOrder.from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="transitive"):
            PartialOrder(3, [0b011, 0b110, 0b100])
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert o.leq(0, 2)

    def test_covers_strict_pairs(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert set(o.strict_pairs()) == {(0, 1), (1, 2), (0, 2)}
        opp = o.opposite()
        assert opp.leq(2, 0)

    def test_connectivity(self):
        o = PartialOrder.from_pairs(4, [(0, 1), (2, 3)])
        assert o.connected(0b0011) and o.connected(0b1100)
        assert not o.connected(0b0101)
        assert not o.connected(0)
        assert o.components() == [(0, 1), (2, 3)]


def set_components(n, edges, verts):
    """Set-based reference: components of the undirected graph on verts."""
    nbrs = {v: set() for v in verts}
    for i, j in edges:
        if i in nbrs and j in nbrs:
            nbrs[i].add(j)
            nbrs[j].add(i)
    comps, seen = [], set()
    for v in sorted(verts):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in nbrs[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=2 * n))
    verts = draw(st.sets(st.integers(0, n - 1)))
    return n, edges, verts


@given(graphs())
def test_components_of_matches_set_reference(g):
    n, edges, verts = g
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    comps = components_of(adj, sum(1 << v for v in verts))
    assert [set(bits(c)) for c in comps] == set_components(n, edges, verts)


@given(graphs())
def test_order_connectivity_matches_set_reference(g):
    n, edges, verts = g
    order = PartialOrder.from_pairs(n, [(min(e), max(e)) for e in edges])
    comparable = order.strict_pairs()
    mask = sum(1 << v for v in verts)
    assert order.connected(mask) == (len(set_components(n, comparable, verts)) == 1)
    assert [set(c) for c in order.components()] == set_components(n, comparable, range(n))


class TestPlm:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Plm([("a",), ("a",)], "one-sided", {})
        with pytest.raises(ValueError):
            Plm([], "one-sided", {})

    def test_explicit_mode_needs_order(self):
        with pytest.raises(ValueError):
            Plm([("a",), ("b",)], "explicit", {})
        o = PartialOrder.from_pairs(2, [(0, 1)])
        m = Plm([("a",), ("b",)], "explicit", {(0, 1): F(1, 2)}, order=o)
        assert m.order.leq(0, 1)
        with pytest.raises(ValueError):
            Plm([("a",), ("b",)], "one-sided", {}, order=o)

    def test_labels(self, ex1):
        assert ex1.labels() == ["r", "c", "r c"]


class TestValidation:
    def test_valid(self, ex1, ex1_full):
        assert validate_plm(ex1).ok
        assert validate_plm(ex1_full).ok
        assert validate_plm(ex1).summary() == "valid"

    def test_reflexivity(self):
        m = Plm([("a",)], "one-sided", {(0, 0): F(1, 2)})
        rep = validate_plm(m)
        assert rep.reflexivity == [(0, F(1, 2))]

    def test_extraneous_and_missing(self):
        m = Plm([("a",), ("b",)], "one-sided", {(0, 1): F(1, 2)})
        rep = validate_plm(m)
        assert rep.extraneous == [(0, 1)]
        m2 = Plm([("a",), ("a", "b")], "one-sided", {})
        assert validate_plm(m2).missing == [(0, 1)]

    def test_nonpositive(self):
        m = Plm([("a",), ("a", "b")], "one-sided", {(0, 1): F(0)})
        assert validate_plm(m).nonpositive == [(0, 1, F(0))]

    def test_multiplicativity(self):
        m = Plm(
            [("a",), ("a", "b"), ("a", "b", "c")],
            "one-sided",
            {(0, 1): F(1, 2), (1, 2): F(1, 2), (0, 2): F(1, 3)},
        )
        rep = validate_plm(m)
        # the walk from 0 sets w = 1, 1/2, 1/3; edge (1,2) then reads 2/3, not 1/2
        assert rep.multiplicativity == [(1, 2, F(1, 2), F(2, 3))]
        assert rep.summary() == (
            "multiplicativity fails on edge (1,2): "
            "Pr is 1/2, the path-dependent potential gives 2/3"
        )


    def test_crown_passes_only_the_chain_scan(self, crown):
        assert chain_scan(crown) == []
        assert validate_plm(crown).multiplicativity == [(1, 2, F(1, 2), F(1, 3))]


def random_crown(rng: random.Random) -> Plm:
    """Every one of 2-3 bottoms below every one of 2-3 tops; ratios of a
    potential half the time, independent draws otherwise."""
    lo, hi = rng.randint(2, 3), rng.randint(2, 3)
    n = lo + hi
    pairs = [(i, j) for i in range(lo) for j in range(lo, n)]
    w = [F(rng.randint(1, 8), 8) for _ in range(n)]
    consistent = rng.random() < 0.5
    pr = {
        (i, j): w[j] / w[i] if consistent else F(rng.randint(1, 8), 8) for i, j in pairs
    }
    texts = [(f"t{i}",) for i in range(n)]
    return Plm(texts, "explicit", pr, order=PartialOrder.from_pairs(n, pairs))


def random_model(rng: random.Random, kind: str) -> Plm:
    if kind == "plm":
        return random_plm(rng, rng.randint(1, 8))
    if kind == "forest":
        return random_forest_plm(rng, rng.randint(1, 8))
    if kind == "corpus":
        tokens = [rng.choice("abc") for _ in range(rng.randint(2, 12))]
        return ingest_corpus(
            tokens,
            order_mode=rng.choice(["one-sided", "two-sided"]),
            max_len=rng.randint(1, 2),
            include_empty=rng.random() < 0.5,
        )
    return random_crown(rng)


def perturbed_model(rng: random.Random, kind: str, perturb: bool) -> Plm:
    m = random_model(rng, kind)
    pr = dict(m.pr)
    if perturb and pr:
        key = rng.choice(sorted(pr))
        pr[key] *= rng.choice([F(1, 2), F(2, 3), F(3)])
        m = Plm(m.texts, m.order_mode, pr, m.order if m.order_mode == "explicit" else None)
    return m


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["plm", "forest", "corpus", "crown"]),
    st.booleans(),
)
def test_potential_validation_matches_references(seed, kind, perturb):
    m = perturbed_model(random.Random(seed), kind, perturb)
    ok = validate_plm(m).ok
    if ok:
        assert chain_scan(m) == []
    assert ok == top_potential_reproduces(m)


def broken_model(rng: random.Random, kind: str) -> Plm:
    """A `random_model` with its rows listed in a random order and up to four
    of them changed: a row set on the diagonal, off the order or to 0 gives
    a reflexive, extraneous or nonpositive entry, a dropped row a missing
    one, and a row scaled by 1/2 or 3 may leave no potential."""
    m = random_model(rng, kind)
    pr = dict(rng.sample(sorted(m.pr.items()), len(m.pr)))
    for _ in range(rng.randint(0, 4)):
        action = rng.random()
        if action < 0.6 or not pr:
            pr[rng.randrange(m.n), rng.randrange(m.n)] = rng.choice([F(0), F(1), F(1, 2), F(3)])
        elif action < 0.8:
            pr[rng.choice(sorted(pr))] *= rng.choice([F(0), F(1, 2), F(3)])
        else:
            del pr[rng.choice(sorted(pr))]
    return Plm(m.texts, m.order_mode, pr, m.order if m.order_mode == "explicit" else None)


@pytest.mark.parametrize("kind", ["plm", "forest", "corpus", "crown"])
def test_validation_report_matches_the_sorted_scan(kind):
    filled = set()
    for seed in range(200):
        m = broken_model(random.Random(seed), kind)
        expected = validate_reference(m)
        assert validate_plm(m) == expected
        if expected.ok:  # a valid model may list diagonal pairs, each 1
            assert metric_from_plm(m).mat.rows == metric_rows_reference(m)
        filled |= {name for name, value in vars(expected).items() if value}
    # every list of the report was filled by some model
    assert filled == set(vars(ValidationReport()))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["plm", "forest", "corpus", "crown"]),
    st.booleans(),
)
def test_potential_matches_fraction_walk(seed, kind, perturb):
    rng = random.Random(seed)
    m = perturbed_model(rng, kind, perturb)
    mask = rng.choice([(1 << m.n) - 1, rng.randrange(1 << m.n)])
    try:
        expected = potential_reference(m, mask)
    except ValidationFailed as exc:
        with pytest.raises(ValidationFailed) as got:
            potential(m, mask)
        assert got.value.report.multiplicativity == exc.report.multiplicativity
        assert str(got.value) == str(exc)
    else:
        assert potential(m, mask) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(["plm", "forest", "corpus", "crown"]),
    st.booleans(),
)
def test_metric_matches_dense_build(seed, kind, perturb):
    m = perturbed_model(random.Random(seed), kind, perturb)
    if not validate_plm(m).ok:
        with pytest.raises(ValidationFailed):
            metric_from_plm(m)
        return
    rows = metric_rows_reference(m)
    d = metric_from_plm(m)
    assert d.mat == TropMatrix(rows) and hash(d.mat) == hash(TropMatrix(rows))
    assert d.mat.rows == rows


def test_star_metric_stays_within_its_entries():
    # 4,999 pairs below one root: the dense build took 94 MB already at n = 2,000
    n = 5000
    order = PartialOrder.from_pairs(n, [(0, j) for j in range(1, n)])
    pr = {(0, j): F(1, j + 1) for j in range(1, n)}
    m = Plm([(f"t{i}",) for i in range(n)], "explicit", pr, order=order)
    tracemalloc.start()
    try:
        d = metric_from_plm(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert d.n == n and len(d.mat.row_entries[0]) == n
    assert d[0, n - 1] == ExtReal(F(1, n)) and d[1, 2].is_pos_inf


class TestMetric:
    def test_frozen_example(self, ex1):
        d = metric_from_plm(ex1)
        probs = [[d.prob(i, j) for j in range(3)] for i in range(3)]
        assert probs == [
            [F(1), F(0), F(1, 2)],
            [F(0), F(1), F(1, 3)],
            [F(0), F(0), F(1)],
        ]
        assert math.isclose(d[0, 2].log, math.log(2))
        assert d.min_finite_prob() == F(1, 3)

    def test_invalid_model_raises(self):
        m = Plm([("a",), ("a", "b")], "one-sided", {})
        with pytest.raises(ValidationFailed):
            metric_from_plm(m)

    def test_transpose_round_trip(self, ex1):
        d = metric_from_plm(ex1)
        assert d.transpose().transpose() == d
        assert d.transpose()[2, 0] == d[0, 2]

    def test_names_a_bad_diagonal_before_the_first_neg_inf_entry(self):
        z, ninf = ZERO, ExtReal(None)
        with pytest.raises(ValueError, match=r"^diagonal entry 2 is not 0$"):
            DirectedMetric(TropMatrix([[z, z, z], [z, z, z], [ninf, z, ExtReal(2)]]))
        with pytest.raises(ValueError, match=r"^-inf entry at \(1,0\)$"):
            DirectedMetric(TropMatrix([[z, z, z], [ninf, z, ninf], [ninf, ninf, z]]))

    def test_rejects_bad_diagonal_and_triangle(self):
        with pytest.raises(ValueError, match="diagonal"):
            DirectedMetric(TropMatrix.from_probs([["1/2", "1"], ["0", "1"]]))
        with pytest.raises(ValueError, match="triangle"):
            DirectedMetric(
                TropMatrix.from_probs(
                    [["1", "1/2", "1/16"], ["0", "1", "1/2"], ["0", "0", "1"]]
                )
            )

    def test_order_round_trip(self, ex1):
        d = metric_from_plm(ex1)
        o = order_from_metric(d)
        assert o._up == ex1.order._up
        m2 = plm_from_metric(d, ex1.texts, "two-sided")
        assert m2.pr == ex1.pr

    def test_projector_characterizes_triangle(self):
        good = TropMatrix.from_probs(
            [["1", "1/2", "1/4"], ["0", "1", "1/2"], ["0", "0", "1"]]
        )
        assert check_projector(good)
        bad = TropMatrix.from_probs(
            [["1", "1/2", "1/16"], ["0", "1", "1/2"], ["0", "0", "1"]]
        )
        assert not check_projector(bad)


def test_kleene_closure():
    c = TropMatrix.from_probs(
        [["1", "1/2", "1/16"], ["0", "1", "1/2"], ["0", "0", "1"]]
    )
    d = kleene_closure(c)
    # the two-step path 1/2 * 1/2 beats the longer direct distance 1/16
    assert d.prob(0, 2) == F(1, 4)
    assert check_projector(d.mat)
    loose = TropMatrix.from_probs(
        [["1", "1/2", "1/2"], ["0", "1", "1/2"], ["0", "0", "1"]]
    )
    d2 = kleene_closure(loose)
    assert d2.prob(0, 2) == F(1, 2)  # two-step path 1/4 loses to the direct 1/2


def test_kleene_negative_cycle():
    c = TropMatrix(
        [
            [ExtReal.from_prob(1), ExtReal.from_prob(2)],
            [ExtReal.from_prob(2), ExtReal.from_prob(1)],
        ]
    )
    with pytest.raises(ValueError, match="negative cycle"):
        kleene_closure(c)


class TestBigM:
    def test_replaces_top_entries(self, ex1):
        d = metric_from_plm(ex1)
        dm = truncate_big_m(d, 10.0)
        eps = ExtReal.from_log(10.0)
        assert dm[1, 0] == eps
        assert dm[0, 2] == d[0, 2]
        assert check_projector(dm.mat)

    def test_small_m_warns(self, ex1):
        d = metric_from_plm(ex1)
        with pytest.warns(UserWarning):
            truncate_big_m(d, 0.5)
        with pytest.raises(ValueError):
            truncate_big_m(d, -1.0)

    @given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS), st.floats(2.5, 10))
    def test_past_the_bound_is_idempotent(self, seed, kind, factor):
        # every probability is at most 1 here, so the verify runs and must hold
        d = random_metric(seeded(seed), kind)
        entries = [e for row in d.mat.row_entries for _, e in row]
        assert all(e >= ZERO for e in entries)
        big_m = factor * max(0.01, *(e.log for e in entries))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dm = truncate_big_m(d, big_m)
        assert check_projector(dm.mat)

    def test_huge_m_uses_power_of_two(self, ex1):
        d = metric_from_plm(ex1)
        dm = truncate_big_m(d, 5000.0)
        assert dm[1, 0].is_finite
        assert abs(dm[1, 0].log - 5000.0) < 1.0


class TestPotentials:
    def test_frozen_example(self, ex1):
        assert potential(ex1, 0b111) == {0: F(1), 1: F(3, 2), 2: F(1, 2)}
        # a carrier's walk starts from 1 at its own least index
        assert potential(ex1, 0b110) == {1: F(1), 2: F(1, 3)}

    def test_path_dependence_detected(self):
        # diamond with inconsistent products along the two paths
        m = Plm(
            [(), ("a",), ("b",), ("a", "b")],
            "two-sided",
            {
                (0, 1): F(1, 2),
                (0, 2): F(1, 2),
                (0, 3): F(1, 4),
                (1, 3): F(1, 2),
                (2, 3): F(1, 3),
            },
        )
        with pytest.raises(ValidationFailed, match="path-dependent"):
            potential(m, 0b1111)

    def test_components(self):
        m = Plm([("a",), ("b",)], "one-sided", {})
        assert potential(m, 0b11) == {0: F(1), 1: F(1)}


class TestIngest:
    def test_frozen_corpus(self):
        m = ingest_corpus("a b a b".split(), order_mode="two-sided", max_len=2)
        assert m.texts == (("a",), ("b",), ("a", "b"), ("b", "a"))
        i = {t: k for k, t in enumerate(m.texts)}
        assert m.pr[(i[("a",)], i[("a", "b")])] == 1
        assert m.pr[(i[("b",)], i[("a", "b")])] == 1
        assert m.pr[(i[("a",)], i[("b", "a")])] == F(1, 2)
        assert validate_plm(m).ok

    def test_empty_text_occurrences(self):
        m = ingest_corpus("a b a b".split(), max_len=2, include_empty=True)
        assert m.has_empty_text
        i0 = m.texts.index(())
        ia = m.texts.index(("a",))
        # boundaries: N+1 = 5 slots for the empty text, 2 occurrences of "a"
        assert m.pr[(i0, ia)] == F(2, 5)
        assert validate_plm(m).ok

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ingest_corpus([])
        with pytest.raises(ValueError):
            ingest_corpus(["a"], max_len=0)
        with pytest.raises(ValueError):
            ingest_corpus(["a"], max_len=2)

    def test_one_sided_mode(self):
        m = ingest_corpus("a b a b".split(), order_mode="one-sided", max_len=2)
        i = {t: k for k, t in enumerate(m.texts)}
        assert (i[("b",)], i[("a", "b")]) not in m.pr  # b is not a prefix of ab
        assert (i[("a",)], i[("a", "b")]) in m.pr


def read_outcome(read, token):
    """The value read, or the type of the exception raised."""
    try:
        return read(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@given(st.from_regex(r"[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
def test_read_rational_reads_fraction_strings_as_fraction(text):
    # leading zeros and a zero denominator included
    assert read_outcome(read_rational, text) == read_outcome(F, text)


@pytest.mark.parametrize(
    "token, expected",
    [
        (" 3/4 ", F(3, 4)),
        ("+3/4", F(3, 4)),
        ("1_000/3", F(1000, 3)),
        ("\u0663/\u0664", F(3, 4)),  # Arabic-Indic digits
        ("\u00b2", ValueError),  # a superscript digit is no decimal digit
        ("1.5", F(3, 2)),
        ("1e-3", F(1, 1000)),
        ("3/0", ZeroDivisionError),
        ("007/010", F(7, 10)),
        ("3/", ValueError),
        ("/3", ValueError),
        ("3//4", ValueError),
        ("", ValueError),
        (True, ValueError),
        (7, F(7)),
        (0.5, F(1, 2)),
        pytest.param("1" * MAX_DIGITS, F(int("1" * MAX_DIGITS)), id="at-the-limit"),
        pytest.param("1" * (MAX_DIGITS + 1), ValueError, id="past-the-limit"),
        pytest.param("1/" + "1" * (MAX_DIGITS + 1), ValueError, id="denominator-past-the-limit"),
        pytest.param("1" * 4000 + "e300", ValueError, id="exponent-past-the-limit"),
    ],
)
def test_read_rational_keeps_every_form(token, expected):
    assert read_outcome(read_rational, token) == expected
    assert read_outcome(read_rational_reference, token) == expected


@given(st.text(alphabet="0123456789/ +-_.eE\u0663\u00b2", max_size=12))
def test_read_rational_matches_the_reference(text):
    assert read_outcome(read_rational, text) == read_outcome(read_rational_reference, text)


class TestSerialization:
    def test_model_round_trip(self, ex1_full, tmp_path):
        data = model_to_dict(ex1_full)
        m2 = model_from_dict(json.loads(json.dumps(data)))
        assert m2.texts == ex1_full.texts
        assert m2.pr == ex1_full.pr
        path = tmp_path / "m.json"
        write_text_atomic(str(path), json.dumps(data))
        kind, m3, labels = load_model_file(str(path))
        assert kind == "plm" and m3.pr == ex1_full.pr
        assert labels == ex1_full.labels()

    def test_explicit_order_round_trip(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (0, 2)])
        m = Plm(
            [("x",), ("y",), ("z",)],
            "explicit",
            {(0, 1): F(1, 2), (0, 2): F(1, 3)},
            order=o,
        )
        m2 = model_from_dict(model_to_dict(m))
        assert m2.order._up == m.order._up and m2.pr == m.pr

    def test_metric_round_trip(self, ex1, tmp_path):
        d = metric_from_plm(ex1)
        data = metric_to_dict(d, ex1.labels())
        d2, labels = metric_from_dict(data)
        assert d2 == d and labels == ex1.labels()
        path = tmp_path / "d.json"
        write_text_atomic(str(path), json.dumps(data))
        kind, d3, _ = load_model_file(str(path))
        assert kind == "metric" and d3 == d

    def test_bad_data(self):
        with pytest.raises(ValueError):
            model_from_dict({"texts": [["a"]], "pr": [{"from": 0, "to": 0, "p": "x/y"}]})
        with pytest.raises(ValueError):
            metric_from_dict({"metric": [["1", "1/0"], ["0", "1"]]})

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        write_text_atomic(str(path), json.dumps({"k": 1}))
        assert json.loads(path.read_text()) == {"k": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @staticmethod
    def write_under_umask(path, text: str, umask: int) -> None:
        old = os.umask(umask)
        try:
            write_text_atomic(str(path), text)
        finally:
            os.umask(old)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
    def test_atomic_write_new_file_takes_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "new.json"
        self.write_under_umask(path, "x", umask)
        assert path.read_text() == "x"
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("mode", [0o644, 0o604, 0o600])
    def test_atomic_write_keeps_the_target_mode(self, tmp_path, mode):
        path = tmp_path / "old.json"
        path.write_text("old")
        path.chmod(mode)
        self.write_under_umask(path, "new", 0o077 if mode != 0o600 else 0o022)
        assert path.read_text() == "new"
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_atomic_write_failing_part_way_leaves_no_file(self, tmp_path, existing):
        path = tmp_path / "out.csv"
        if existing:
            path.write_text("old")
            path.chmod(0o604)

        def chunks():
            yield "a,b\n"
            yield "1,2\n" * 5000  # past the text buffer, so bytes reach the temp file
            raise RuntimeError("row 3")

        with pytest.raises(RuntimeError, match="row 3"):
            write_text_atomic(str(path), chunks())
        assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old"
            assert stat.S_IMODE(path.stat().st_mode) == 0o604

    def test_atomic_write_refuses_what_is_not_a_regular_file(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        for target in (fifo, tmp_path):
            with pytest.raises(ValueError, match="not a regular file"):
                write_text_atomic(str(target), "x")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]
