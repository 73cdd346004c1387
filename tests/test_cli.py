import argparse
import ast
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from plmpoly import (
    metric_from_dict,
    metric_from_plm,
    model_to_dict,
    write_text_atomic,
)
from plmpoly import cli, duality, isbell, rays
from plmpoly.cli import main
from plmpoly.model import read_rational
from plmpoly.tropical import POS_INF, ExtReal, TropMatrix, TropVector
from conftest import METRIC_KINDS, metric_to_dict, random_metric, seeded
from dense_reference import (
    dense_compose_min,
    first_non_isometric_reference,
    projector_witness_reference,
)

ROOT = Path(__file__).resolve().parents[1]


WORKED_EXAMPLE = str(ROOT / "data" / "worked_example.json")

# Pr(b|a) = 2, a probability above 1: d_ab = -log 2 is negative
ABOVE_ONE = [["1", "2"], ["0", "1"]]


def write_metric(tmp_path, rows, name="metric.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"labels": [str(i) for i in range(len(rows))], "metric": rows}))
    return str(path)


@pytest.fixture
def ex1_file(ex1, tmp_path):
    path = tmp_path / "ex1.json"
    write_text_atomic(str(path), json.dumps(model_to_dict(ex1)))
    return str(path)


@pytest.fixture
def ex1_full_file(ex1_full, tmp_path):
    path = tmp_path / "ex1full.json"
    write_text_atomic(str(path), json.dumps(model_to_dict(ex1_full)))
    return str(path)


@pytest.fixture
def ex1_metric_file(ex1, tmp_path):
    path = tmp_path / "ex1metric.json"
    data = metric_to_dict(metric_from_plm(ex1), ex1.labels())
    write_text_atomic(str(path), json.dumps(data))
    return str(path)


# the `crown` fixture's probabilities as a metric file: no potential
# reproduces them, yet they make a valid directed metric
CROWN_METRIC = [
    ["1", "0", "1/2", "1/2"],
    ["0", "1", "1/2", "1/3"],
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1"],
]
CROWN_FAILURE = (
    "multiplicativity fails on edge (1,2): Pr is 1/2, the path-dependent potential gives 1/3"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_valid_model(self, capsys, ex1_file):
        code, out, _ = run(capsys, "check", ex1_file)
        assert code == 0
        for row in ("validate", "projector", "yoneda-isometry", "co-yoneda-isometry"):
            assert f"{row}" in out and "PASS" in out
        assert "FAIL" not in out

    def test_metric_file(self, capsys, ex1_metric_file):
        code, out, _ = run(capsys, "check", ex1_metric_file)
        assert code == 0

    def test_invalid_model_fails(self, capsys, tmp_path):
        bad = {
            "texts": [["a"], ["a", "b"], ["a", "b", "c"]],
            "orderMode": "one-sided",
            "pr": [
                {"from": 0, "to": 1, "p": "1/2"},
                {"from": 1, "to": 2, "p": "1/2"},
                {"from": 0, "to": 2, "p": "1/3"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert "FAIL" in out and "multiplicativity" in out

    def test_triangle_violation_reported(self, capsys, tmp_path):
        data = {
            "labels": ["a", "b", "c"],
            "metric": [["1", "1/2", "1/16"], ["0", "1", "1/2"], ["0", "0", "1"]],
        }
        path = tmp_path / "nontri.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        marks = dict(line.split()[:2] for line in out.splitlines())
        for row in ("projector", "yoneda-isometry", "co-yoneda-isometry"):
            assert marks[row] == "FAIL"

    def test_triangle_violation_names_witnesses(self, capsys, tmp_path):
        rows = [["1", "1/2", "1/8"], ["0", "1", "1/2"], ["0", "0", "1"]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"], "metric": rows}))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert out.splitlines()[1:] == [
            "projector           FAIL  d[a,c] > d[a,b] + d[b,c]",
            "yoneda-isometry     FAIL  first failure at b",
            "co-yoneda-isometry  FAIL  first failure at b",
        ]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/x.json")
        assert code == 1 and "error" in err


@settings(deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(METRIC_KINDS))
def test_check_fail_lines_name_reference_witnesses(seed, kind):
    rng = seeded(seed)
    data = metric_to_dict(random_metric(rng, kind))
    n = len(data["labels"])
    for _ in range(rng.randint(1, 2)):  # perturb an off-diagonal entry
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            data["metric"][i][j] = rng.choice(["0", "1/8", "1/3", "1/2", "1", "2"])
    rows = metric_from_dict(data, require_projector=False)[0].mat.rows
    columns = [tuple(c.mult for c in col) for col in zip(*rows)]
    row_mults = [tuple(c.mult for c in row) for row in rows]
    witness = projector_witness_reference(rows)
    assert (witness is None) == (dense_compose_min(rows, rows) == rows)
    expected = {"validate": ["PASS", "general metric: no model axioms to check"]}
    if witness is None:
        expected["projector"] = ["PASS"]
    else:
        i, j, k = witness
        expected["projector"] = ["FAIL", f"d[{i},{k}] > d[{i},{j}] + d[{j},{k}]"]
    for name, bad in (
        ("yoneda-isometry", first_non_isometric_reference(columns, rows)),
        ("co-yoneda-isometry", first_non_isometric_reference(row_mults, tuple(zip(*rows)))),
    ):
        expected[name] = ["PASS"] if bad is None else ["FAIL", f"first failure at {bad}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metric.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["check", path])
    lines = buf.getvalue().splitlines()
    assert {line.split(maxsplit=2)[0]: line.split(maxsplit=2)[1:] for line in lines} == expected
    assert code == (0 if all(v[0] == "PASS" for v in expected.values()) else 2)


class TestRays:
    def test_lower_with_oracle(self, capsys, ex1_file):
        code, out, _ = run(capsys, "rays", ex1_file, "--side", "lower", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert payload["method"] == "lower-sets+oracle"
        vertices = {tuple(r["vertex"]) for r in payload["rays"]}
        assert ("3/11", "2/11", "6/11") in vertices

    def test_upper(self, capsys, ex1_file):
        code, out, _ = run(capsys, "rays", ex1_file, "--side", "upper")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        gens = {tuple(r["generator"]) for r in payload["rays"]}
        assert ("2/3", "1", "1/3") in gens
        nonprincipal = [r for r in payload["rays"] if r["principal"] is None]
        assert len(nonprincipal) == 1

    def test_metric_oracle_route(self, capsys, ex1_metric_file):
        code, out, _ = run(capsys, "rays", ex1_metric_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "oracle"
        assert payload["count"] == 3
        assert all(r["certificateRank"] == 2 for r in payload["rays"])

    def test_big_m(self, capsys, ex1_file):
        code, out, _ = run(capsys, "rays", ex1_file, "--big-m", "10", "--side", "upper")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 6 and payload["bigM"] == 10
        assert payload["method"] == "oracle"

    def test_big_m_below_a_negative_entry_warns(self, tmp_path):
        # with d_01 = -log 2 and d_10 = +inf truncated to M < log 2, entry
        # (0, 0) of the square is d_01 + M < 0: not idempotent, which warns
        path = write_metric(tmp_path, ABOVE_ONE)
        done = subprocess.run(
            [sys.executable, "-m", "plmpoly.cli", "rays", path, "--big-m", "1e-3"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0
        assert "UserWarning: truncated matrix is not idempotent" in done.stderr
        assert json.loads(done.stdout)["method"] == "oracle"

    def test_out_writes_json_and_csv(self, capsys, ex1_file, tmp_path):
        out_path = tmp_path / "rays.json"
        code, _, _ = run(capsys, "rays", ex1_file, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["count"] == 3
        csv_path = tmp_path / "rays.csv"
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == ["carrier", "r", "c", "r c"]
        assert len(rows) == 4

    def test_ray_outside_the_polyhedron_exits_2(self, capsys, ex1_file, monkeypatch):
        # the per-ray membership re-test, not the certificate, catches it
        monkeypatch.setattr(rays, "membership", lambda x, d, side: False)
        code, out, err = run(capsys, "rays", ex1_file)
        assert code == 2 and out == ""
        assert err == "verification failed: a certified ray is not a member\n"

    def test_failed_certificate_exits_2(self, capsys, ex1_file, monkeypatch):
        monkeypatch.setattr(rays, "certify_ray", lambda z, cons, n: 0)
        code, out, err = run(capsys, "rays", ex1_file)
        assert code == 2 and out == ""
        assert err == "verification failed: certificate rank 0 != 2\n"

    def test_oracle_mismatch_names_the_differing_rays(self, capsys, ex1_file, monkeypatch):
        real = cli.oracle_rays
        monkeypatch.setattr(cli, "oracle_rays", lambda cons, n: real(cons, n)[1:])
        code, out, err = run(capsys, "rays", ex1_file, "--oracle")
        assert code == 2 and "disagrees with the oracle" in err
        payload = json.loads(out)
        assert payload["oracleMismatch"] == {
            "theoryOnly": [{"carrier": ["c"], "generator": ["0", "1", "0"]}],
            "oracleOnly": [],
        }

    def test_metric_file_beyond_twelve_texts(self, capsys, tmp_path):
        # a chain of 13 texts: one ray per nonempty lower set
        rows = [
            ["0" if j < i else f"1/{2 ** (j - i)}" for j in range(13)] for i in range(13)
        ]
        code, out, _ = run(capsys, "rays", write_metric(tmp_path, rows))
        assert code == 0 and json.loads(out)["count"] == 13

    def test_float_output(self, capsys, ex1_file):
        code, out, _ = run(capsys, "rays", ex1_file, "--float")
        payload = json.loads(out)
        vals = {v for r in payload["rays"] for v in r["vertex"]}
        assert "0.272727272727" in vals  # 3/11 to 12 significant digits


class TestDual:
    def test_pairs(self, capsys, ex1_file):
        code, out, _ = run(capsys, "dual", ex1_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        by_text = {p["text"]: p for p in payload["pairs"]}
        assert by_text["r c"]["yoneda"] == ["1/2", "1/3", "1"]
        assert by_text["r c"]["negated"] == ["2", "3", "1"]
        assert by_text["r"]["negated"] == ["1", "-inf", "-inf"]

    def test_failed_identity_names_the_index(self, capsys, ex1_file, monkeypatch):
        monkeypatch.setattr(duality, "map_b", lambda d, x: x)
        code, out, err = run(capsys, "dual", ex1_file)
        assert code == 2 and out == ""
        assert err == "verification failed: negated identity fails at index 0\n"

    def test_failed_column_identity_names_the_index(self, capsys, ex1_file, monkeypatch):
        # every product off by log 2: the column identity is checked first
        half = ExtReal.from_prob(F(1, 2))
        monkeypatch.setattr(TropMatrix, "apply_min", lambda m, x: x.scaled(half))
        code, out, err = run(capsys, "dual", ex1_file)
        assert code == 2 and out == ""
        assert err == "verification failed: column identity fails at index 0\n"


class TestIsbell:
    def test_vector_member(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1/2", "1/3", "1"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert payload["member"] and payload["isbellFixed"]
        assert payload["hull"] == ["1/2", "1/3", "1"] and "violation" not in payload

    def test_vector_member_not_fixed(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1", "1", "1"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert payload["member"] and not payload["isbellFixed"]
        assert payload["hull"] == ["3/2", "1", "3"] and "violation" not in payload

    def test_non_member_names_its_violation(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        # z_r = 1/4 < Pr(rc|r) z_rc = 1/2: x_r > d(r, rc) + x_rc
        vec.write_text(json.dumps(["1/4", "1/3", "1"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert not payload["member"] and not payload["isbellFixed"]
        assert payload["violation"] == ["r", "r c"]
        assert payload["hull"] == ["1/2", "1/3", "1"]

    def test_all_inf_vector_has_no_violation(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["inf", "inf", "inf"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert not payload["member"] and payload["violation"] is None
        assert payload["hull"] == ["inf", "inf", "inf"]

    def test_compare_span(self, capsys, ex1_file):
        code, out, _ = run(capsys, "isbell", ex1_file, "--compare-span")
        payload = json.loads(out)
        assert code == 0
        assert payload["closureSize"] == 12
        assert len(payload["outsideIsbell"]) == 7

    def test_closure_cap_on_an_antichain(self, capsys, tmp_path):
        # probability 0 between distinct texts: the closure is the 2^n - 1 column meets
        def compare_span(n):
            rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
            return run(capsys, "isbell", write_metric(tmp_path, rows), "--compare-span")

        code, out, err = compare_span(10)
        assert (code, err) == (0, "") and json.loads(out)["closureSize"] == 2**10 - 1
        assert compare_span(14) == (3, "", "resource cap: closure exceeded 10000 vectors\n")

    def test_closure_vector_outside_the_polyhedron_exits_2(
        self, capsys, ex1, ex1_file, monkeypatch
    ):
        # the Yoneda columns pass as inputs; a meet or join that is not one fails
        d = metric_from_plm(ex1)
        columns = {d.mat.column(k) for k in range(d.n)}
        monkeypatch.setattr(isbell, "membership", lambda x, d, side: x in columns)
        code, out, err = run(capsys, "isbell", ex1_file, "--compare-span")
        assert code == 2 and out == ""
        assert err == "verification failed: a closure vector is not a member\n"

    def test_requires_work(self, capsys, ex1_file):
        code, _, err = run(capsys, "isbell", ex1_file)
        assert code == 1 and "nothing to do" in err

    def test_bad_vector_length(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1", "1"]))
        code, _, err = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        assert code == 1

    def test_vector_number_beyond_float_range_is_refused(self, capsys, ex1_file, tmp_path):
        # json reads 1e400 as the float inf, which must not pass for the token "inf"
        vec = tmp_path / "v.json"
        for text in ("[1e400, 1, 1]", "[-1e400, 1, 1]"):
            vec.write_text(text)
            code, out, err = run(capsys, "isbell", ex1_file, "--vector", str(vec))
            assert (code, out) == (1, "") and err.startswith("error: cannot read vector file")

    def test_vector_file_not_a_list(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text("5")
        code, _, err = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        assert code == 1 and err.startswith("error:") and "JSON list" in err


class TestEmbed:
    def test_isometric(self, capsys, ex1_file, ex1_full_file):
        code, out, _ = run(capsys, "embed", ex1_full_file, "--sub", ex1_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["isometric"]
        assert payload["mapping"] == {"r": "r", "c": "c", "r c": "r c"}
        assert payload["retractionSubset"] == ["r", "c", "r c"]

    def test_not_isometric(self, capsys, ex1_full_file, tmp_path, ex1):
        from plmpoly import Plm

        skew = Plm(
            [("r",), ("c",), ("r", "c")],
            "two-sided",
            {(0, 2): F(1, 4), (1, 2): F(1, 3)},
        )
        path = tmp_path / "skew.json"
        write_text_atomic(str(path), json.dumps(model_to_dict(skew)))
        code, _, err = run(capsys, "embed", ex1_full_file, "--sub", str(path))
        assert code == 2 and "isometry fails" in err

    def test_missing_labels(self, capsys, ex1_file, tmp_path):
        from plmpoly import Plm

        stranger = Plm([("zz",)], "two-sided", {})
        path = tmp_path / "s.json"
        write_text_atomic(str(path), json.dumps(model_to_dict(stranger)))
        code, _, err = run(capsys, "embed", ex1_file, "--sub", str(path))
        assert code == 1 and "missing" in err


class TestRetract:
    def test_subset(self, capsys, ex1_full_file):
        code, out, _ = run(capsys, "retract", ex1_full_file, "--subset", "r,c")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["text", "", "r", "c", "r c"]
        by_text = {r[0]: r[1:] for r in rows[1:]}
        assert by_text["r c"] == ["1/6", "1/2", "1/3", "inf"]
        # nothing in {r, c} sits below the empty text
        assert by_text[""] == ["inf", "inf", "inf", "inf"]

    def test_max_len(self, capsys, ex1_full_file):
        code, out, _ = run(capsys, "retract", ex1_full_file, "--max-len", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        by_text = {r[0]: r[1:] for r in rows[1:]}
        # routing through the empty text: only row 0 survives, at d(empty, rc)
        assert by_text["r c"] == ["1/6", "inf", "inf", "inf"]

    def test_temperature(self, capsys, ex1_full_file):
        code, out, _ = run(
            capsys, "retract", ex1_full_file, "--subset", "r,c", "--temperature", "1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        by_text = {r[0]: r[1:] for r in rows[1:]}
        # soft min at T=1 sums the two branch contributions exactly
        assert by_text["r c"] == ["1/3", "1/2", "1/3", "0"]

    @pytest.mark.parametrize(
        "temperature, last_row", [("0.1", "r c,0.0009765625,0,0"), ("1", "r c,1/2,0,0")]
    )
    def test_row_with_no_live_term(self, capsys, temperature, last_row):
        # d(r, c) is +inf, so no term of the subset {r} reaches c: its row is 0
        code, out, _ = run(
            capsys, "retract", WORKED_EXAMPLE, "--subset", "r", "--temperature", temperature
        )
        assert code == 0
        assert out == f"text,r,c,r c\nr,1,0,0\nc,0,0,0\n{last_row}\n"

    def test_temperature_reading_past_float_range(self, capsys, tmp_path):
        # 2**(1/T) at T = 1e-4 is past float range and prints as inf
        path = write_metric(tmp_path, ABOVE_ONE)
        code, out, _ = run(capsys, "retract", path, "--subset", "0", "--temperature", "0.0001")
        assert code == 0
        assert out == "text,0,1\n0,1,0\n1,inf,0\n"

    def test_needs_subset_or_len(self, capsys, ex1_full_file):
        code, _, err = run(capsys, "retract", ex1_full_file)
        assert code == 1

    def test_unknown_label(self, capsys, ex1_full_file):
        code, _, err = run(capsys, "retract", ex1_full_file, "--subset", "zz")
        assert code == 1 and "unknown texts" in err

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_non_finite_temperature(self, capsys, ex1_full_file, temperature):
        code, _, err = run(
            capsys, "retract", ex1_full_file, "--subset", "r,c", "--temperature", temperature
        )
        assert code == 1 and err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failure_on_a_later_row_writes_nothing(
        self, capsys, ex1_full_file, tmp_path, monkeypatch, to_file
    ):
        real, calls = cli.boltzmann, []

        def wrong_on_second_call(terms, temperature):
            res = real(terms, temperature)
            calls.append(len(terms))
            if len(calls) < 2:
                return res
            return dataclasses.replace(res, target=TropVector([POS_INF] * len(res.target)))

        monkeypatch.setattr(cli, "boltzmann", wrong_on_second_call)
        target = tmp_path / "retract.csv"
        argv = ["retract", ex1_full_file, "--subset", "r,c", "--temperature", "1"]
        code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
        assert code == 2 and out == "" and err.startswith("verification failed")
        assert len(calls) == 2  # rows "" and r came first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1full.json"]


class TestIngest:
    def test_frozen_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b")
        code, out, _ = run(capsys, "ingest", str(corpus), "--max-len", "2")
        assert code == 0
        payload = json.loads(out)
        texts = [tuple(t) for t in payload["texts"]]
        i = {t: k for k, t in enumerate(texts)}
        pr = {(row["from"], row["to"]): row["p"] for row in payload["pr"]}
        assert pr[(i[("a",)], i[("a", "b")])] == "1"
        assert pr[(i[("a",)], i[("b", "a")])] == "1/2"

    def test_one_sided(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b")
        code, out, _ = run(capsys, "ingest", str(corpus), "--order-mode", "one")
        assert code == 0
        assert json.loads(out)["orderMode"] == "one-sided"

    def test_include_empty(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b a b")
        code, out, _ = run(capsys, "ingest", str(corpus), "--include-empty")
        assert code == 0
        payload = json.loads(out)
        assert [] in payload["texts"]
        assert payload["includeEmpty"]

    def test_missing_corpus(self, capsys):
        code, _, err = run(capsys, "ingest", "/nope.txt")
        assert code == 1

    def test_round_trips_through_check(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("x y x z y x")
        out_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "ingest", str(corpus), "--max-len", "2", "--out", str(out_path))
        assert code == 0
        code2, out2, _ = run(capsys, "check", str(out_path))
        assert code2 == 0 and "FAIL" not in out2


class TestCrosssection:
    def test_drift_report_and_csv(self, capsys, ex1_file, tmp_path):
        out_path = tmp_path / "xs.csv"
        code, out, _ = run(
            capsys, "crosssection", ex1_file, "--big-m", "10", "--out", str(out_path)
        )
        assert code == 0
        assert "side lower: 6 vertices at M=10, 6 at M=100" in out
        assert "exact match" in out
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["side", "bigM", "vertex", "r", "c", "r c"]
        assert len(rows) == 1 + 6 * 4  # two sides x two M values x 6 vertices

    def test_beyond_twelve_texts(self, capsys, tmp_path):
        # all distances zero: every cone is the single ray (1, ..., 1)
        path = write_metric(tmp_path, [["1"] * 13 for _ in range(13)])
        code, out, _ = run(capsys, "crosssection", path, "--big-m", "10")
        assert code == 0
        assert "side lower: 1 vertices at M=10, 1 at M=100" in out
        assert "side upper: 1 vertices at M=10, 1 at M=100" in out

    @pytest.mark.parametrize(
        "big_m, command, line",
        [
            pytest.param(big_m, command, line, id=f"{big_m}-{command}")
            for big_m, commands, line in [
                ("-3", ("crosssection", "rays"), "M must be positive"),
                ("0", ("crosssection", "rays"), "M must be positive"),
                ("nan", ("crosssection", "rays"), "M must be positive"),
                ("1e308", ("crosssection", "rays"), "M out of representable range"),
                # crosssection also runs 10 M = 10000, past 2**14000
                ("1000", ("crosssection",), "M out of representable range"),
            ]
            for command in commands
        ],
    )
    def test_bad_m(self, capsys, ex1_file, big_m, command, line):
        code, out, err = run(capsys, command, ex1_file, "--big-m", big_m)
        assert (code, out, err) == (1, "", f"error: {line}\n")


class TestExitCodes:
    def test_resource_cap(self, capsys, tmp_path):
        data = {
            "labels": [str(i) for i in range(14)],
            "metric": [
                ["1" if i == j else "1/2" for j in range(14)] for i in range(14)
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "rays", str(path))
        assert code == 3 and "resource cap" in err

    def test_junk_json(self, capsys, tmp_path):
        path = str(tmp_path / "junk.json")
        # the second nests deeper than the recursion limit
        for text in ("not json", "[" * 100_000 + "]" * 100_000):
            Path(path).write_text(text)
            for argv in (
                ["check", path],
                ["isbell", WORKED_EXAMPLE, "--vector", path],
                ["embed", WORKED_EXAMPLE, "--sub", path],
            ):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (1, "") and err.startswith("error: cannot read")
                assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "dual", "rays"])
    def test_labels_do_not_match_metric(self, capsys, tmp_path, command):
        data = {"labels": ["a"], "metric": [["1", "1/2"], ["0", "1"]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, command, str(path))
        assert code == 1 and err.startswith("error:") and "labels" in err

    @pytest.mark.parametrize("labels", [["a", "a"], [1, "1"]], ids=["repeated", "after-str"])
    @pytest.mark.parametrize("command", ["check", "rays", "dual", "retract"])
    def test_duplicate_labels_are_refused(self, capsys, tmp_path, command, labels):
        # were they read, `retract --subset` and `embed` would take the first match
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": labels, "metric": [["1", "1/2"], ["0", "1"]]}))
        subset = ["--subset", str(labels[0])] if command == "retract" else []
        code, _, err = run(capsys, command, str(path), *subset)
        assert code == 1 and err == "error: bad metric data: labels must be distinct\n"

    @pytest.mark.parametrize("command", ["check", "retract"])
    def test_repeated_model_labels_are_refused(self, capsys, tmp_path, command):
        # distinct texts, one label: `retract --subset "a b"` could not tell them apart
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"texts": [["a b"], ["a", "b"]], "pr": []}))
        subset = ["--subset", "a b"] if command == "retract" else []
        code, out, err = run(capsys, command, str(path), *subset)
        assert (code, out) == (1, "")
        assert err == "error: bad model data: labels must be distinct: 'a b' repeats\n"

    # Fraction would expand each into an integer past the 4,300 digits Python
    # prints: 1e-99999999 into 10**8 digits, also with full-width exponent
    # digits, which Fraction reads as decimal digits too, and a 400-digit
    # mantissa into a 4,401-digit denominator
    HUGE = ["1e-99999999", "1e-" + "\uff19" * 8, "0." + "1" * 400 + "e-4000"]

    @pytest.mark.parametrize("big", HUGE, ids=["exponent", "full-width", "mantissa"])
    @pytest.mark.parametrize("kind", ["model", "metric", "vector"])
    def test_huge_decimal_exponent_is_refused(self, capsys, tmp_path, ex1_file, kind, big):
        path = tmp_path / f"{kind}.json"
        if kind == "model":
            data = {"texts": [["a"], ["a", "b"]], "orderMode": "one-sided",
                    "pr": [{"from": 0, "to": 1, "p": big}]}
            argv, line = ["check", str(path)], "bad model data"
        elif kind == "metric":
            data = {"labels": ["a", "b"], "metric": [["1", big], ["0", "1"]]}
            argv, line = ["check", str(path)], "bad metric data"
        else:
            data = ["1", big, "1"]
            argv, line = ["isbell", ex1_file, "--vector", str(path)], "cannot read vector file"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {line}: {big[:40]!r} has too many digits once its exponent is expanded\n"
        )

    def test_decimal_exponent_within_the_bound_is_read(self, capsys, tmp_path):
        data = {"texts": [["a"], ["a", "b"]], "orderMode": "one-sided",
                "pr": [{"from": 0, "to": 1, "p": "1e-4000"}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "check", str(path))[0] == 0
        # 299 digits and the exponent 4000 sum to one below the bound: the
        # denominator 10**4299 has 4,300 digits, and prints
        assert len(str(read_rational("." + "1" * 299 + "e-4000").denominator)) == 4300
        with pytest.raises(ValueError, match="too many digits"):
            read_rational("." + "1" * 300 + "e-4000")

    def test_invalid_model_via_rays(self, capsys, tmp_path):
        bad = {
            "texts": [["a"], ["a", "b"]],
            "orderMode": "one-sided",
            "pr": [],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "rays", str(path))
        assert code == 1 and "missing" in err

    # (case, file, error line); the first case keeps the ids check/rays/dual
    BAD_FILES = [
        ("", {"texts": [[1], [1, 2]]}, "bad model data: text tokens must be strings"),
        (
            "pr-from-past-end",
            {"texts": [["a"], ["b"], ["a", "b"]], "pr": [{"from": 7, "to": 2, "p": "1/2"}]},
            "bad model data: pair (7,2) out of range",
        ),
        (
            "pr-from-negative",
            {
                "texts": [["a"], ["b"], ["a", "b"]],
                "pr": [{"from": -3, "to": 2, "p": "1/5"}, {"from": 0, "to": 2, "p": "1/2"}],
            },
            "bad model data: pair (-3,2) out of range",
        ),
        (
            "pr-to-negative",
            {"texts": [["a"], ["b"], ["a", "b"]], "pr": [{"from": 0, "to": -1, "p": "1/2"}]},
            "bad model data: pair (0,-1) out of range",
        ),
        ("text-is-string", {"texts": ["ab"]}, "bad model data: texts must be a list of token lists"),
        ("texts-is-object", {"texts": {"a": 1}}, "bad model data: texts must be a list of token lists"),
        (
            "labels-is-string",
            {"labels": "ab", "metric": [["1", "0"], ["0", "1"]]},
            "bad metric data: labels must be a list",
        ),
        (
            "reflexive-pr-past-end",
            {
                "texts": [["r"], ["c"], ["r", "c"]],
                "pr": [
                    {"from": 0, "to": 2, "p": "1/2"},
                    {"from": 1, "to": 2, "p": "1/3"},
                    {"from": 7, "to": 7, "p": "1"},
                ],
            },
            "bad model data: pair (7,7) out of range",
        ),
        (
            "metric-rows-are-strings",
            {"labels": ["a", "b"], "metric": ["10", "01"]},
            "bad metric data: metric must be a list of lists",
        ),
        (
            "order-pair-is-string",
            {
                "texts": [["x"], ["y"]],
                "orderMode": "explicit",
                "order": ["01"],
                "pr": [{"from": 0, "to": 1, "p": "1/2"}],
            },
            "bad model data: order must be a list of [from, to] pairs",
        ),
        (
            "pr-index-is-float",
            {
                "texts": [["r"], ["c"], ["r", "c"]],
                "pr": [{"from": 0.9, "to": 2.5, "p": "1/2"}, {"from": 1, "to": 2, "p": "1/3"}],
            },
            "bad model data: index 0.9 is not an integer",
        ),
        (
            "pr-index-is-bool",
            {
                "texts": [["r"], ["c"], ["r", "c"]],
                "pr": [{"from": 0, "to": 2, "p": "1/2"}, {"from": True, "to": 2, "p": "1/3"}],
            },
            "bad model data: index true is not an integer",
        ),
        (
            "order-index-is-float",
            {
                "texts": [["x"], ["y"]],
                "orderMode": "explicit",
                "order": [[0, 1.0]],
                "pr": [{"from": 0, "to": 1, "p": "1/2"}],
            },
            "bad model data: index 1.0 is not an integer",
        ),
        (
            "order-index-is-bool",
            {
                "texts": [["x"], ["y"]],
                "orderMode": "explicit",
                "order": [[False, True]],
                "pr": [{"from": 0, "to": 1, "p": "1/2"}],
            },
            "bad model data: index false is not an integer",
        ),
    ]

    @pytest.mark.parametrize(
        "command, data, line",
        [
            pytest.param(command, data, line, id="-".join(filter(None, (command, case))))
            for case, data, line in BAD_FILES
            for command in ("check", "rays", "dual")
        ],
    )
    def test_non_string_tokens(self, capsys, tmp_path, command, data, line):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, command, str(path))
        assert code == 1 and err == f"error: {line}\n"

    def test_crown_model_is_refused(self, capsys, tmp_path, crown):
        path = tmp_path / "crown.json"
        write_text_atomic(str(path), json.dumps(model_to_dict(crown)))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert out == f"validate  FAIL  {CROWN_FAILURE}\n"
        for command in ("rays", "dual"):
            assert run(capsys, command, str(path)) == (1, "", f"error: {CROWN_FAILURE}\n")

    def test_crown_metric_has_six_rays(self, capsys, tmp_path):
        path = write_metric(tmp_path, CROWN_METRIC)
        code, out, _ = run(capsys, "rays", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "oracle" and payload["count"] == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "MODEL", "--bogus"],
            ["check", "MODEL", "--float"],
            ["rays", "MODEL", "--side", "middle"],
            ["nope"],
        ],
        ids=["unknown-flag", "undeclared-float", "bad-choice", "bad-command"],
    )
    def test_usage_error_is_bad_input(self, capsys, ex1_file, argv):
        code, out, err = run(capsys, *[ex1_file if a == "MODEL" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "usage: plmpoly" in capsys.readouterr().out


class TestOutTarget:
    """--out replaces its target by a rename, so a FIFO or device is refused."""

    @pytest.mark.parametrize("command", ["check", "rays", "dual", "crosssection"])
    def test_fifo_is_refused(self, capsys, ex1_file, tmp_path, command):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        big_m = ["--big-m", "10"] if command == "crosssection" else []
        code, out, err = run(capsys, command, ex1_file, *big_m, "--out", str(fifo))
        assert code == 1 and out == ""
        assert err == f"error: {fifo} exists and is not a regular file\n"
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.json", "pipe"]

    def test_rays_refuses_a_fifo_csv_before_the_json(self, capsys, ex1_file, tmp_path):
        fifo = tmp_path / "rays.csv"
        os.mkfifo(fifo)
        code, _, err = run(capsys, "rays", ex1_file, "--out", str(tmp_path / "rays.json"))
        assert code == 1 and "rays.csv exists and is not a regular file" in err
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not (tmp_path / "rays.json").exists()

    def test_write_error_names_the_target(self, capsys, ex1_file, tmp_path):
        target = tmp_path / "no" / "such" / "x.json"
        for argv in (["rays"], ["crosssection", "--big-m", "10"]):
            code, out, err = run(capsys, *argv, ex1_file, "--out", str(target))
            assert code == 1 and out == ""
            assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def json_text(value) -> str:
    """What `_emit_json` writes for value on standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_json(argparse.Namespace(out=None), value)
    return buf.getvalue()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**256), max_value=2**256)
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-7])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "caf\u00e9 \u20ac \U0001f600"])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_json_writer_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [F(1, 2), {1, 2}, {1: "a"}, {"k": [0, F(1, 3)]}, [[], {2}]])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_dispatch_uses_the_module_attribute(capsys, ex1_file, monkeypatch):
    assert run(capsys, "check", ex1_file)[0] == 0  # the parser now exists
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.model) or 5)
    assert run(capsys, "check", ex1_file)[0] == 5
    assert seen == [ex1_file]


def test_every_flag_is_read():
    """Each subcommand declares only what its cmd_* function reads."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        # _emit_json passes args on to _emit, which reads args.out
        for helper in (cli._emit_json, cli._emit):
            if re.search(rf"\b{helper.__name__}\(\s*args\b", source):
                source += inspect.getsource(helper)
        unread += [
            f"{name} {(action.option_strings or [action.dest])[0]}"
            for action in parser._actions
            if action.dest != "help" and f"args.{action.dest}" not in source
        ]
    assert unread == []


# Exports that only tests call, each the one exact statement of a paper fact
PAPER_FACTS = (
    "terminal_decompose",  # a member is the span of the sinks of its tight graph
    "ray_saturation_edges",  # a ray's tight graph is its carrier's order
    "ray_as_text_combination",  # a lower ray spans from its maximal texts
    "filtration_retractions",  # retractions onto length-capped spans are nested
    "check_fixed_negation",  # on a side's members the duality map is negation
    "plm_from_metric",  # a model is determined by its metric
    "kleene_closure",  # closing a matrix without negative cycles gives a metric
    "is_subtext",  # the subtext order, one- or two-sided
)


def test_every_export_is_called():
    """Each export has a caller outside the tests, or is a listed paper fact.

    A caller is a library module other than at the definition, a script,
    the benchmark harness or the acceptance gate.
    """
    init = ast.parse((ROOT / "src" / "plmpoly" / "__init__.py").read_text())
    exports = [
        a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names
    ]
    callers = [p for p in (ROOT / "src" / "plmpoly").glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in callers + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(PAPER_FACTS) <= set(exports)
    assert [name for name in exports if name not in used and name not in PAPER_FACTS] == []
