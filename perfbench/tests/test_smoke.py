"""Smoke test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

TINY = {
    "corpus": {"corpus_texts": 40, "slice_texts": (8,)},
    "forest": {"slots": ((7, 1.5), (8, 3))},
    "sweep": {"slots": ((4, "forest", 2), (4, "layered", 2), (5, "forest", 3))},
}


def one_pass(workload: str, seed: int, workdir: Path, tracer=None) -> run.Runner:
    workdir.mkdir()
    ops = workloads.OP_LISTS[workload](random.Random(seed), workdir, **TINY[workload])
    runner = run.Runner(ops, tracer)
    if tracer is not None:
        tracer.install()
    try:
        runner.run_pass(traced=tracer is not None, deadline=None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return runner


def test_digest_is_deterministic_per_seed(tmp_path):
    assert set(workloads.OP_LISTS) == set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        a = one_pass(workload, 5, tmp_path / f"{workload}-a")
        b = one_pass(workload, 5, tmp_path / f"{workload}-b")
        c = one_pass(workload, 6, tmp_path / f"{workload}-c")
        assert a.failed == b.failed == c.failed == 0, a.errors + c.errors
        assert a.attempted == len(a.ops) > 0
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


def test_changed_output_is_a_failed_op(tmp_path):
    runner = one_pass("sweep", 1, tmp_path / "w")
    assert runner.failed == 0
    model_file = Path(runner.ops[0].argv[1])
    model = json.loads(model_file.read_text())
    model["pr"][0]["p"] = str(Fraction(model["pr"][0]["p"]) / 2)
    model_file.write_text(json.dumps(model))
    runner.run_pass(traced=False, deadline=None)
    assert runner.failed >= 1


def test_self_time_arithmetic_on_nested_calls():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer("plmpoly", {}, clock=lambda: next(ticks))

    inner = tracer.wrap("m.inner", lambda: None, None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body, None)()
    # outer 0..10 holds inner 1..4 and 5..6
    assert [s[:4] for s in tracer.spans] == [
        ["m.outer", 0.0, 10.0, -1],
        ["m.inner", 1.0, 4.0, 0],
        ["m.inner", 5.0, 6.0, 0],
    ]
    assert self_times(tracer.spans) == [6.0, 3.0, 1.0]


def test_tracer_sees_internal_calls_and_repeats_counts(tmp_path):
    from plmpoly import cli, polyhedron, rays

    original = polyhedron.membership
    targets = run.make_targets(rays)
    counts = []
    for k in range(2):
        tracer = Tracer("plmpoly", targets)
        runner = one_pass("forest", 3, tmp_path / f"t{k}", tracer)
        assert runner.failed == 0
        calls = sorted(s[0] for s in tracer.spans)
        counts.append((calls, dict(tracer.counts)))
        # enumerate_rays reaches membership through the rays module's own binding
        assert "polyhedron.membership" in calls
        assert "rays.ray_from_lower_set" in calls
        total = sum(self_times(tracer.spans))
        roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
        assert abs(total - roots) < 1e-9
    assert counts[0] == counts[1]
    assert rays.membership is original and cli.membership is original
    assert polyhedron.membership is original
