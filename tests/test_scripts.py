"""The scripts under scripts/ run end to end and write what they promise."""

import csv
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from plmpoly import Side, enumerate_rays

ROOT = Path(__file__).resolve().parents[1]
FIGURE_FILES = {
    "rays.csv",
    "simplex.csv",
    "crosssection_M10.csv",
    "crosssection_M100.csv",
    "crosssection_drift.txt",
    "uniform_rays.csv",
    "isbell.txt",
    "retract.csv",
    "boltzmann.csv",
    "potentials.csv",
}


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figures")
    done = run_script("reproduce_figures.py", "--out-dir", str(out_dir), cwd=out_dir)
    assert done.returncode == 0, done.stderr
    return out_dir, done.stdout


def test_reproduce_figures_writes_every_artifact(figures):
    out_dir, stdout = figures
    assert {p.name for p in out_dir.iterdir()} == FIGURE_FILES
    assert {Path(line.split()[-1]).name for line in stdout.splitlines()} == FIGURE_FILES


def test_rays_csv_matches_enumerate_rays(figures, ex1):
    out_dir, _ = figures
    with (out_dir / "rays.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    labels = ex1.labels()
    assert header[5:] == labels
    got = {
        (row[0], row[2]): ([F(c) for c in row[5:]], row[3], int(row[4])) for row in rows
    }
    expected = {
        (side.value, "|".join(labels[i] for i in sorted(r.carrier))): (
            list(r.generator.mults()),
            "" if r.principal_of is None else labels[r.principal_of],
            r.certificate_rank,
        )
        for side in Side
        for r in enumerate_rays(ex1, side)
    }
    assert len(rows) == len(got)
    assert got == expected


def test_potentials_csv_pins_the_worked_example(figures):
    out_dir, _ = figures
    assert (out_dir / "potentials.csv").read_text() == (
        "component,ref,text,value\n"
        "r|c|r c,r,r,1\n"
        "r|c|r c,r,c,3/2\n"
        "r|c|r c,r,r c,1/2\n"
    )


def test_isbell_census_is_pinned(figures):
    # closure size, the count outside the Isbell span and those vectors, sorted
    out_dir, _ = figures
    digest = hashlib.sha256((out_dir / "isbell.txt").read_bytes()).hexdigest()
    assert digest == "7d7c0fe57e88553a2802b65b7456f9590c587e3401b67513b430e17ac36bb109"


def test_oracle_sweep_matches(tmp_path):
    done = run_script(
        "oracle_sweep.py", "--models", "5", "--out", str(tmp_path / "sweep.csv"), cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    assert "5 models, 10 enumerations: all match" in done.stdout
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "match"
    assert len(rows) == 10 and all(row[-1] == "yes" for row in rows)


def test_scale_table_rows(tmp_path):
    done = run_script("scale_table.py", "--tokens", "40", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["tokens", "n", "command", "seconds", "sha256"]
    rows = [line.split() for line in lines]
    assert [row[2] for row in rows] == ["ingest", "check", "dual", "retract", "smooth"]
    assert {(row[0], row[1]) for row in rows} == {("40", rows[0][1])}
    assert all(re.fullmatch("[0-9a-f]{64}", row[4]) for row in rows)
    # every `check` row passed: the output is the four PASS lines
    passed = "".join(
        f"{name:<18}  PASS\n"
        for name in ("validate", "projector", "yoneda-isometry", "co-yoneda-isometry")
    )
    assert rows[1][4] == hashlib.sha256(passed.encode()).hexdigest()
    # the 40-token model and its duality pairs, byte for byte
    assert rows[0][4] == "42f82c93fdc59f80d47dbbc41892b0a06a061e3b64dfe337cfd827ca0648a72d"
    assert rows[2][4] == "868900a3b8f7c6ec2907981bd3cd16741bb46e279c44a85a19afea4ba0fa6ee6"
    # the 40-token retraction and smoothing, byte for byte
    assert rows[3][4] == "dc3ccf9fc06ff1cc5c07094bd94ba705b1ba55960fc9d774a6501ba6a506ac31"
    assert rows[4][4] == "6f817e8eba545c2c950027b73cc132fc585c299dd222c0b156d6d81309987220"


# `scale_table.py --tokens 300` (n = 344): every corpus command's output,
# byte for byte
SCALE_300 = {
    "ingest": "c64868285ca403ef72732d002c8d74166dc3adb6e934274b4e157bb170aa1c13",
    "check": "eb8697a65da1cfc6808f6c4259ed0e67c39f09e2b41243e8bcc6a3f2ebfb0ee2",
    "dual": "99b44bffbf1b9df63b47a370cdbc3673cad24f87008aa4f32d6efa876f44c901",
    "retract": "6c0f35687e43cbc7bba37a2496680c5919ebd6b0f5c23decc3b19679da19f3e6",
    "smooth": "a406259fe28ddd9e9042450d80d7ccb79f63a6f9760cb5526f1f55094af4da55",
}


def test_scale_table_pins_the_300_token_outputs(tmp_path):
    done = run_script("scale_table.py", "--tokens", "300", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[2] for row in rows] == list(SCALE_300)
    assert {(row[0], row[1]) for row in rows} == {("300", "344")}
    assert {row[2]: row[4] for row in rows} == SCALE_300


def test_scale_table_runs_the_chosen_commands(tmp_path):
    full = run_script("scale_table.py", "--tokens", "40", cwd=tmp_path)
    chosen = run_script(
        "scale_table.py", "--tokens", "40", "--commands", "smooth", "check", cwd=tmp_path
    )
    assert full.returncode == chosen.returncode == 0, chosen.stderr
    digests = {line.split()[2]: line.split()[4] for line in full.stdout.splitlines()[1:]}
    rows = [line.split() for line in chosen.stdout.splitlines()[1:]]
    # ingest first, then the chosen ones in table order, each with its full-run bytes
    assert [row[2] for row in rows] == ["ingest", "check", "smooth"]
    assert all(row[4] == digests[row[2]] for row in rows)
    refused = run_script("scale_table.py", "--tokens", "40", "--commands", "ingest", cwd=tmp_path)
    assert refused.returncode == 2 and "invalid choice" in refused.stderr
