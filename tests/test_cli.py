import csv
import io
import json
from fractions import Fraction as F

import pytest

from plmpoly import (
    metric_from_plm,
    metric_to_dict,
    model_to_dict,
    write_json_atomic,
)
from plmpoly.cli import main


@pytest.fixture
def ex1_file(ex1, tmp_path):
    path = tmp_path / "ex1.json"
    write_json_atomic(str(path), model_to_dict(ex1))
    return str(path)


@pytest.fixture
def ex1_full_file(ex1_full, tmp_path):
    path = tmp_path / "ex1full.json"
    write_json_atomic(str(path), model_to_dict(ex1_full))
    return str(path)


@pytest.fixture
def ex1_metric_file(ex1, tmp_path):
    path = tmp_path / "ex1metric.json"
    write_json_atomic(str(path), metric_to_dict(metric_from_plm(ex1), ex1.labels()))
    return str(path)


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
        assert "projector" in out and "FAIL" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/x.json")
        assert code == 1 and "error" in err


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


class TestIsbell:
    def test_vector_member(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1/2", "1/3", "1"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert payload["member"] and payload["isbellFixed"]

    def test_vector_member_not_fixed(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1", "1", "1"]))
        code, out, _ = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        payload = json.loads(out)
        assert code == 0
        assert payload["member"] and not payload["isbellFixed"]

    def test_compare_span(self, capsys, ex1_file):
        code, out, _ = run(capsys, "isbell", ex1_file, "--compare-span")
        payload = json.loads(out)
        assert code == 0
        assert payload["closureSize"] == 12
        assert len(payload["outsideIsbell"]) == 7

    def test_requires_work(self, capsys, ex1_file):
        code, _, err = run(capsys, "isbell", ex1_file)
        assert code == 1 and "nothing to do" in err

    def test_bad_vector_length(self, capsys, ex1_file, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps(["1", "1"]))
        code, _, err = run(capsys, "isbell", ex1_file, "--vector", str(vec))
        assert code == 1


class TestEmbed:
    def test_isometric(self, capsys, ex1_file, ex1_full_file):
        code, out, _ = run(capsys, "embed", ex1_full_file, "--sub", ex1_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["isometric"]
        assert payload["mapping"] == {"r": "r", "c": "c", "r c": "r c"}

    def test_not_isometric(self, capsys, ex1_full_file, tmp_path, ex1):
        from plmpoly import Plm

        skew = Plm(
            [("r",), ("c",), ("r", "c")],
            "two-sided",
            {(0, 2): F(1, 4), (1, 2): F(1, 3)},
        )
        path = tmp_path / "skew.json"
        write_json_atomic(str(path), model_to_dict(skew))
        code, _, err = run(capsys, "embed", ex1_full_file, "--sub", str(path))
        assert code == 2 and "isometry fails" in err

    def test_missing_labels(self, capsys, ex1_file, tmp_path):
        from plmpoly import Plm

        stranger = Plm([("zz",)], "two-sided", {})
        path = tmp_path / "s.json"
        write_json_atomic(str(path), model_to_dict(stranger))
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

    def test_needs_subset_or_len(self, capsys, ex1_full_file):
        code, _, err = run(capsys, "retract", ex1_full_file)
        assert code == 1

    def test_unknown_label(self, capsys, ex1_full_file):
        code, _, err = run(capsys, "retract", ex1_full_file, "--subset", "zz")
        assert code == 1 and "unknown texts" in err


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

    def test_bad_m(self, capsys, ex1_file):
        code, _, _ = run(capsys, "crosssection", ex1_file, "--big-m", "-3")
        assert code == 1


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
        path = tmp_path / "junk.json"
        path.write_text("not json")
        code, _, _ = run(capsys, "check", str(path))
        assert code == 1

    @pytest.mark.parametrize("command", ["check", "dual", "rays"])
    def test_labels_do_not_match_metric(self, capsys, tmp_path, command):
        data = {"labels": ["a"], "metric": [["1", "1/2"], ["0", "1"]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, command, str(path))
        assert code == 1 and err.startswith("error:") and "labels" in err

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
