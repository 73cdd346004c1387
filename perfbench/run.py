"""Seeded benchmark of the plmpoly command line.

    python3 perfbench/run.py --workload corpus|forest|sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded process that calls ``plmpoly.cli.main(argv)`` in-process,
so interpreter start-up does not swamp the millisecond-scale commands.
Set-up (import, seeded input generation, input-file writes) is repeated
and its median reported.  The timed part replays the workload's operation
list in passes until `--seconds` have gone by; the first pass always
completes, and its outputs give the workload digest.  Every operation's
output is checked, and a later pass must reproduce the first pass byte
for byte.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the second pass runs under the tracer,
the others untraced, and the result carries the per-layer metrics; the
traced pass's spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary with
sample counts goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("corpus", "forest", "sweep")
SETUPS = 5
# The host this runs on swings between speed states up to 2x apart within
# seconds, so every timing is taken next to a fixed pure-Python probe and
# reported at reference speed: raw * PROBE_REF_S / probe.  PROBE_REF_S is
# the probe's time in the faster state of a 2-vCPU VM under Python 3.11.
PROBE_REF_S = 0.003
LAYERS = ("tropical", "model", "polyhedron", "rays", "duality", "isbell", "extension", "cli")
OP_KINDS = ("ingest", "check", "rays", "retract", "smooth", "dual", "isbell")
CLI_COMMANDS = ("ingest", "check", "rays", "retract", "dual", "isbell")
COUNTS = (
    "tropical.TropMatrix.compose_min.cells",
    "tropical.TropMatrix.apply_min.cells",
    "rays.enumerate_connected_lower_sets.out",
    "rays.oracle_rays.out",
    "rays.cross_check_rays.failures",
    "rays.cap_refusals",
    "isbell.max_closure.out",
)


def host_probe() -> float:
    """Seconds a fixed loop of Fraction and dict work takes right now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        table = {j: (j, acc) for j in range(5)}
    del table
    return time.perf_counter() - t0


def at_reference_speed(raw: float, probe: float) -> float:
    return raw * PROBE_REF_S / probe


def import_package() -> float:
    """Import plmpoly from this checkout's source tree.

    The import is repeated SETUPS times from a clean module table and the
    median scaled seconds returned; the last import stays loaded.
    """
    if not (SRC / "plmpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no plmpoly source under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUPS):
        for name in [m for m in sys.modules if m == "plmpoly" or m.startswith("plmpoly.")]:
            del sys.modules[name]
        probe = host_probe()
        t0 = time.perf_counter()
        cli = importlib.import_module("plmpoly.cli")
        times.append(at_reference_speed(time.perf_counter() - t0, probe))
    if Path(cli.__file__).resolve().parent != SRC / "plmpoly":
        raise SystemExit(f"perfbench: plmpoly imported from outside {SRC}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer work counts, added by the tracer's hooks


def make_targets(rays_mod) -> dict:
    """Wrapped functions, keyed by metric prefix, with their count hooks."""
    cap = rays_mod.ResourceCapExceeded

    def cells(name, power):
        def hook(counts, args, result, exc):
            counts[name + ".cells"] += args[0].n ** power

        return hook

    def out(name, capped=False):
        def hook(counts, args, result, exc):
            if result is not None:
                counts[name + ".out"] += len(result)
            if capped and isinstance(exc, cap):
                counts["rays.cap_refusals"] += 1

        return hook

    def truth(counts, args, result, exc):
        counts["polyhedron.membership.true"] += result is True

    def failures(counts, args, result, exc):
        counts["rays.cross_check_rays.failures"] += result is False

    return {
        "tropical.TropMatrix.compose_min": cells("tropical.TropMatrix.compose_min", 3),
        "tropical.TropMatrix.apply_min": cells("tropical.TropMatrix.apply_min", 2),
        "tropical.TropMatrix.apply_max": None,
        "tropical.funk": None,
        "model.ingest_corpus": None,
        "model.PartialOrder.from_texts": None,
        "model.load_model_file": None,
        "model.validate_plm": None,
        "model.metric_from_plm": None,
        "model.check_projector": None,
        "polyhedron.membership": truth,
        "polyhedron.yoneda": None,
        "polyhedron.co_yoneda": None,
        "rays.enumerate_connected_lower_sets": out("rays.enumerate_connected_lower_sets", True),
        "rays.ray_from_lower_set": None,
        "rays.enumerate_rays": None,
        "rays.oracle_rays": out("rays.oracle_rays", True),
        "rays.certify_ray": None,
        "rays.cross_check_rays": failures,
        "duality.dual_decompose": None,
        "isbell.max_closure": out("isbell.max_closure"),
        "isbell.isbell_member": None,
        "extension.retraction_from_subset": None,
        "extension.RetractionOp.apply": None,
        "extension.boltzmann": None,
        **{f"cli.cmd_{c}": None for c in CLI_COMMANDS},
    }


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Pass:
    traced: bool
    complete: bool = True
    latencies: list[float] = field(default_factory=list)  # raw seconds
    scaled: list[float] = field(default_factory=list)  # at reference speed
    rays: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, ops, tracer=None):
        from plmpoly import cli
        from workloads import digest_view

        self.main = cli.main
        self.digest_view = digest_view
        self.ops = ops
        self.tracer = tracer
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, op, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op.name}: {msg}")

    def run_op(self, idx: int, op) -> tuple[float, float, int, str]:
        """Raw seconds, probe seconds just before, rays verified, output digest."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = idx
        rc: object = None
        probe = host_probe()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except (Exception, SystemExit):  # a crash is a failed op; the run goes on
            err.write(traceback.format_exc())
        took = time.perf_counter() - t0
        self.attempted += 1
        text = out.getvalue()
        rays = 0
        if rc != 0:
            self._fail(op, f"exit {rc}: {err.getvalue().strip()[-300:]}")
        else:
            try:
                rays = op.check(text)
            except Exception as exc:  # CheckFailed, or output that does not parse
                self._fail(op, f"wrong output: {exc!r}")
        view = f"{op.name}\0{rc}\0{self.digest_view(op, text)}"
        return took, probe, rays, hashlib.sha256(view.encode()).hexdigest()

    def run_pass(self, traced: bool, deadline: float | None) -> Pass:
        p = Pass(traced=traced)
        for idx, op in enumerate(self.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                p.complete = False
                break
            took, probe, rays, digest = self.run_op(idx, op)
            if self.reference is not None and digest != self.reference[idx]:
                self._fail(op, "output differs from the first pass")
            p.latencies.append(took)
            p.scaled.append(at_reference_speed(took, probe))
            p.rays.append(rays)
            p.digests.append(digest)
        if self.reference is None:
            self.reference = p.digests
        return p

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.reference or []).encode()).hexdigest()


def run_passes(runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    """Passes until the deadline; in a traced run the second pass is the traced one."""
    deadline = time.perf_counter() + seconds
    least = 2 if trace else 1
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) == 1
        if traced:
            runner.tracer.install()
        try:
            p = runner.run_pass(traced, None if len(passes) < least else deadline)
        finally:
            if traced:
                runner.tracer.uninstall()
        passes.append(p)
        if len(passes) >= least and time.perf_counter() >= deadline:
            return passes


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def op_medians(full: list[Pass]) -> list[float]:
    """Each operation's median latency over the complete passes.

    Taking the median per operation before pooling keeps a slow or fast
    stretch of the host from moving the pooled figures.
    """
    return [statistics.median(ts) for ts in zip(*(p.scaled for p in full))]


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    full = [p for p in passes if p.complete and not p.traced]
    med = op_medians(full)
    p75 = percentile(med, 75)
    values = {
        "setup_s": setup_s,
        "pass_s": sum(med),
        "op_p50_ms": 1000 * statistics.median(med),
        "op_p75_ms": 1000 * p75,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"times at reference speed: per-op medians over {len(full)} complete passes;"
        f" raw pass times " + ", ".join(f"{p.seconds:.3f}" for p in full),
        f"op_p50_ms, op_p75_ms: {len(med)} ops, {sum(t > p75 for t in med)} beyond the p75",
    ]
    return values, notes


def per_layer(passes: list[Pass], ops, tracer, workload: str, seed: int) -> tuple[dict, list[str]]:
    from tracer import self_times

    untraced = [p for p in passes if p.complete and not p.traced]
    med = op_medians(untraced)
    traced = next(p for p in passes if p.traced)
    spans = tracer.spans
    selfs = self_times(spans)
    values: dict[str, float] = {}
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
        total_s[span[0]] += span[2] - span[1]
    for name in tracer.targets:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
        if name.startswith("cli."):
            values[f"{name}.total_s"] = total_s[name]
    for key in COUNTS:
        values[key] = tracer.counts[key]
    member_calls = calls["polyhedron.membership"]
    values["polyhedron.membership.true_ratio"] = (
        tracer.counts["polyhedron.membership.true"] / member_calls if member_calls else 0.0
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    wall = traced.seconds
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = wall - sum(selfs)
    values["trace.overhead_ratio"] = sum(traced.scaled) / sum(med)
    values["trace.spans"] = len(spans)

    by_kind: dict[str, list[float]] = {k: [] for k in OP_KINDS}
    rays = rays_time = 0.0
    for op, t, r in zip(ops, med, untraced[0].rays):
        by_kind[op.kind].append(t)
        if op.kind == "rays":
            rays += r
            rays_time += t
    for kind, ts in by_kind.items():
        values[f"cli.{kind}.p50_ms"] = 1000 * statistics.median(ts) if ts else 0.0
    values["cli.rays.rays_per_s"] = rays / rays_time if rays_time else 0.0

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    notes = [
        f"traced pass: {len(spans)} spans written to {span_file.relative_to(ROOT)}",
        f"layer self times {layer_sum:.4f} s + remainder {values['trace.remainder_s']:.4f} s"
        f" = traced wall {wall:.4f} s",
        f"untraced: {len(untraced)} complete passes",
    ]
    return values, notes


# ---------------------------------------------------------------------------


def select(values: dict, spec: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json names, in its order."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = import_package()
    import workloads
    from plmpoly import rays as rays_mod
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            probe = host_probe()
            t0 = time.perf_counter()
            workdir.mkdir()
            ops = workloads.OP_LISTS[workload](random.Random(seed), workdir)
            setups.append(at_reference_speed(time.perf_counter() - t0, probe))
        setup_s = import_s + statistics.median(setups)

        tracer = Tracer("plmpoly", make_targets(rays_mod)) if trace else None
        runner = Runner(ops, tracer)
        passes = run_passes(runner, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values, notes = per_layer(passes, ops, tracer, workload, seed)
        metrics = select(values, spec["per_layer"])
    else:
        values, notes = end_to_end(passes, setup_s)
        notes.append(
            f"setup_s: import {import_s:.4f} s + median of {SETUPS} set-ups "
            + ", ".join(f"{t:.4f}" for t in setups)
        )
        metrics = select(values, spec["end_to_end"])

    digest = runner.digest()
    pinned_seed = seed == pins["seed"]
    digest_ok = not pinned_seed or digest == pins["digests"].get(workload)
    log = sys.stderr
    print(f"workload {workload} seed {seed}: {len(ops)} ops per pass, {len(passes)} passes", file=log)
    pin = f" (pinned for seed {seed}: {'match' if digest_ok else 'MISMATCH'})" if pinned_seed else ""
    print(f"digest sha256 {digest}{pin}", file=log)
    print(
        f"fail_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4g}",
        file=log,
    )
    for line in runner.errors:
        print(f"  failed: {line}", file=log)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=log)
    for line in notes:
        print(line, file=log)
    return {
        "correct": runner.failed == 0 and digest_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics are prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {workload} exited with {proc.returncode}")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = m
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
