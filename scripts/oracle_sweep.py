#!/usr/bin/env python3
"""Randomized cross-check of combinatorial ray enumeration vs. the oracle.

Draws random models, runs both the order-theoretic enumeration (connected
lower sets) and the double-description oracle on both polyhedra, verifies the
ray sets agree exactly, and records timings per model in a CSV.  A pair of
runs that hits a resource cap (`ResourceCapExceeded`) is recorded with the
match column `cap` and counted in the summary; the sweep goes on.  Exit 2
means some compared pair disagreed; otherwise exit 3 (the CLI's code for a
resource cap) means some pair was not compared, and exit 0 that every pair
was compared and agreed.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from plmpoly import (
    ResourceCapExceeded,
    Side,
    cross_check_rays,
    enumerate_rays,
    metric_cone_constraints,
    metric_from_plm,
    oracle_rays,
    random_plm,
)
from plmpoly.files import csv_text, write_text_atomic


@dataclass
class SweepConfig:
    models: int = 100
    seed: int = 0
    n_min: int = 3
    n_max: int = 7
    out: Path | None = None


def run_sweep(cfg: SweepConfig) -> tuple[list[list[str]], bool]:
    rng = random.Random(cfg.seed)
    rows: list[list[str]] = []
    all_ok = True
    for idx in range(cfg.models):
        m = random_plm(rng, n=rng.randint(cfg.n_min, cfg.n_max))
        for side in (Side.LOWER, Side.UPPER):
            # a route stopped by its cap leaves its own and the later cells blank
            count = enum_s = oracle_s = ""
            try:
                t0 = time.perf_counter()
                rays = enumerate_rays(m, side)
                t1 = time.perf_counter()
                count, enum_s = str(len(rays)), f"{t1 - t0:.6f}"
                qs = oracle_rays(metric_cone_constraints(metric_from_plm(m), side), m.n)
                oracle_s = f"{time.perf_counter() - t1:.6f}"
            except ResourceCapExceeded:
                match = "cap"
            else:
                ok = cross_check_rays(rays, qs)
                all_ok = all_ok and ok
                match = "yes" if ok else "NO"
            rows.append(
                [str(idx), str(m.n), m.order_mode, side.value, count, enum_s, oracle_s, match]
            )
    return rows, all_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--models", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=7)
    ap.add_argument("--out", default=None, help="CSV path for per-model rows")
    args = ap.parse_args(argv)
    cfg = SweepConfig(
        models=args.models,
        seed=args.seed,
        n_min=args.n_min,
        n_max=args.n_max,
        out=Path(args.out) if args.out else None,
    )

    rows, all_ok = run_sweep(cfg)
    header = ["model", "n", "orderMode", "side", "rays", "enumSec", "oracleSec", "match"]
    if cfg.out:
        write_text_atomic(str(cfg.out), csv_text(header, rows))
        print(f"wrote {cfg.out}")

    capped = sum(r[-1] == "cap" for r in rows)
    verdict = "MISMATCH FOUND" if not all_ok else "all compared match" if capped else "all match"
    print(
        f"{cfg.models} models, {len(rows)} enumerations: {verdict}"
        + (f" ({capped} stopped at a resource cap)" if capped else "")
    )
    for name, col in (("enumeration:", 5), ("oracle:     ", 6)):
        times = [float(r[col]) for r in rows if r[col]]
        if times:
            print(f"{name} median {statistics.median(times):.4f}s, max {max(times):.4f}s")
    return 2 if not all_ok else 3 if capped else 0


if __name__ == "__main__":
    raise SystemExit(main())
