import json
import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plmpoly import (
    DirectedMetric,
    ExtReal,
    PartialOrder,
    Plm,
    TropMatrix,
    ValidationFailed,
    check_projector,
    ingest_corpus,
    is_subtext,
    kleene_closure,
    load_model_file,
    metric_from_dict,
    metric_from_plm,
    metric_to_dict,
    model_from_dict,
    model_to_dict,
    order_from_metric,
    plm_from_metric,
    potentials,
    truncate_big_m,
    validate_plm,
    write_json_atomic,
)
from plmpoly.model import bits, components_of


def test_is_subtext():
    assert is_subtext((), ("a",), "one-sided")
    assert is_subtext(("a",), ("a", "b"), "one-sided")
    assert not is_subtext(("b",), ("a", "b"), "one-sided")
    assert is_subtext(("b",), ("a", "b"), "two-sided")
    assert is_subtext(("a", "b"), ("c", "a", "b"), "two-sided")
    assert not is_subtext(("a", "c"), ("a", "b", "c"), "two-sided")
    with pytest.raises(ValueError):
        is_subtext((), (), "explicit")


class TestPartialOrder:
    def test_from_pairs_validates(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            PartialOrder.from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="transitive"):
            PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)], close=True)
        assert o.leq(0, 2)

    def test_covers_strict_pairs(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)], close=True)
        assert set(o.strict_pairs()) == {(0, 1), (1, 2), (0, 2)}
        assert set(o.covers()) == {(0, 1), (1, 2)}
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
    order = PartialOrder.from_pairs(n, [(min(e), max(e)) for e in edges], close=True)
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
        assert ex1.index_of_label("r c") == 2
        with pytest.raises(ValueError):
            ex1.index_of_label("zz")


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
        assert rep.multiplicativity == [(0, 1, 2, F(1, 3), F(1, 4))]
        assert "multiplicativity" in rep.summary()


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
        assert not d.extended
        assert d.min_finite_prob() == F(1, 3)

    def test_invalid_model_raises(self):
        m = Plm([("a",), ("a", "b")], "one-sided", {})
        with pytest.raises(ValidationFailed):
            metric_from_plm(m)

    def test_transpose_round_trip(self, ex1):
        d = metric_from_plm(ex1)
        assert d.transpose().transpose() == d
        assert d.transpose()[2, 0] == d[0, 2]

    def test_rejects_bad_diagonal_and_triangle(self):
        with pytest.raises(ValueError, match="diagonal"):
            DirectedMetric(TropMatrix.from_probs([["1/2", "1"], ["0", "1"]]))
        with pytest.raises(ValueError, match="triangle"):
            DirectedMetric(
                TropMatrix.from_probs(
                    [["1", "1/2", "1/16"], ["0", "1", "1/2"], ["0", "0", "1"]]
                )
            )

    def test_extended_flag_gate(self):
        mat = TropMatrix.from_probs([["1", "2"], ["0", "1"]])
        with pytest.raises(ValueError, match="negative entry"):
            DirectedMetric(mat)
        d = DirectedMetric(mat, extended=True)
        assert d.prob(0, 1) == 2

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

    def test_huge_m_uses_power_of_two(self, ex1):
        d = metric_from_plm(ex1)
        dm = truncate_big_m(d, 5000.0)
        assert dm[1, 0].is_finite
        assert abs(dm[1, 0].log - 5000.0) < 1.0


class TestPotentials:
    def test_frozen_example(self, ex1):
        pots = potentials(ex1)
        assert len(pots) == 1
        pot = pots[0]
        assert pot.ref == 0
        assert pot.values == {0: F(1), 1: F(3, 2), 2: F(1, 2)}

    def test_reference_choice(self, ex1):
        pot = potentials(ex1, refs={0: 2})[0]
        assert pot.values == {0: F(2), 1: F(3), 2: F(1)}

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
        with pytest.raises(ValueError, match="path-dependent"):
            potentials(m)

    def test_components(self):
        m = Plm([("a",), ("b",)], "one-sided", {})
        pots = potentials(m)
        assert len(pots) == 2
        assert all(p.values == {p.ref: F(1)} for p in pots)


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


class TestSerialization:
    def test_model_round_trip(self, ex1_full, tmp_path):
        data = model_to_dict(ex1_full)
        m2 = model_from_dict(json.loads(json.dumps(data)))
        assert m2.texts == ex1_full.texts
        assert m2.pr == ex1_full.pr
        path = tmp_path / "m.json"
        write_json_atomic(str(path), data)
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
        write_json_atomic(str(path), data)
        kind, d3, _ = load_model_file(str(path))
        assert kind == "metric" and d3 == d

    def test_bad_data(self):
        with pytest.raises(ValueError):
            model_from_dict({"texts": [["a"]], "pr": [{"from": 0, "to": 0, "p": "x/y"}]})
        with pytest.raises(ValueError):
            metric_from_dict({"metric": [["1", "1/0"], ["0", "1"]]})

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(str(path), {"k": 1})
        assert json.loads(path.read_text()) == {"k": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
