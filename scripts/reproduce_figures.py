#!/usr/bin/env python3
"""Regenerate the reference tables for the worked three-text model.

Writes CSV/text artifacts under --out-dir:

  rays.csv             extremal rays of both one-sided polyhedra, exact
  simplex.csv          the same rays normalized to the probability simplex
  crosssection_M*.csv  bounded stand-in polytope vertices at finite horizon M
  crosssection_drift.txt  per-vertex movement when M increases tenfold
  uniform_rays.csv     rays of the all-distances-equal metric for several t
  isbell.txt           size of the two-sided closure vs. the one-sided span
  retract.csv          retraction of every text onto the single-word subset
  boltzmann.csv        soft-min readings of the third column at several T
  potentials.csv       per-component multiplicative potentials

Every number is exact unless the column name says float.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from plmpoly import (
    DirectedMetric,
    Plm,
    Side,
    TropMatrix,
    TropVector,
    boltzmann,
    enumerate_rays,
    isbell_member,
    max_closure,
    metric_cone_constraints,
    metric_from_plm,
    normalize_to_simplex,
    oracle_rays,
    potential,
    retraction_from_subset,
    truncate_big_m,
    vector_to_strings,
    yoneda,
)
from plmpoly.files import csv_text, write_text_atomic


BIG_M = (10.0, 100.0)  # cross-section horizons, each also compared with 10 M
UNIFORM_T = (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))
TEMPERATURES = (1.0, 0.1, 0.001)


@dataclass
class FigureConfig:
    out_dir: Path = Path("out")
    files: list[str] = field(default_factory=list)


def worked_model() -> Plm:
    """Three texts r, c, rc with Pr(rc|r) = 1/2 and Pr(rc|c) = 1/3."""
    return Plm(
        texts=[["r"], ["c"], ["r", "c"]],
        order_mode="two-sided",
        pr={(0, 2): Fraction(1, 2), (1, 2): Fraction(1, 3)},
    )


def uniform_metric(t: Fraction, n: int = 3) -> DirectedMetric:
    rows = [[Fraction(1) if i == j else t for j in range(n)] for i in range(n)]
    return DirectedMetric(TropMatrix.from_probs(rows))


def write_csv(cfg: FigureConfig, name: str, header: list[str], rows: list[list[str]]) -> None:
    write_text(cfg, name, csv_text(header, rows))


def write_text(cfg: FigureConfig, name: str, text) -> None:
    """text is one string or an iterable of strings, as `write_text_atomic` takes."""
    write_text_atomic(str(cfg.out_dir / name), text)
    cfg.files.append(name)


def emit_rays(cfg: FigureConfig, m: Plm) -> None:
    labels = m.labels()
    header = ["side", "vertex", "carrier", "principalOf", "certificateRank"] + labels
    rows, simplex_rows = [], []
    for side in (Side.LOWER, Side.UPPER):
        rays = sorted(enumerate_rays(m, side), key=lambda r: r.carrier)
        for idx, r in enumerate(rays):
            carrier = "|".join(labels[i] for i in r.carrier)
            meta = [
                side.value,
                str(idx),
                carrier,
                "" if r.principal_of is None else labels[r.principal_of],
                str(r.certificate_rank),
            ]
            rows.append(meta + [str(c) for c in r.generator.mults()])
            simplex_rows.append(
                meta + [str(c) for c in normalize_to_simplex(r.generator).mults()]
            )
    write_csv(cfg, "rays.csv", header, rows)
    write_csv(cfg, "simplex.csv", header, simplex_rows)


def emit_crosssection(cfg: FigureConfig, m: Plm) -> None:
    d = metric_from_plm(m)
    labels = m.labels()
    runs: dict[tuple[str, float], list[TropVector]] = {}
    for big_m in sorted(set(BIG_M) | {10 * max(BIG_M)}):
        dm = truncate_big_m(d, big_m)
        rows = []
        for side in (Side.LOWER, Side.UPPER):
            qs = [
                normalize_to_simplex(q)
                for q in oracle_rays(metric_cone_constraints(dm, side), d.n)
            ]
            runs[(side.value, big_m)] = qs
            for idx, q in enumerate(qs):
                rows.append([side.value, str(idx)] + [str(c) for c in q.mults()])
        if big_m in BIG_M:
            write_csv(
                cfg,
                f"crosssection_M{big_m:g}.csv",
                ["side", "vertex"] + labels,
                rows,
            )
    lines = []
    for side in ("lower", "upper"):
        for big_m in BIG_M:
            coarse = runs[(side, big_m)]
            fine = runs[(side, 10 * big_m)] if (side, 10 * big_m) in runs else None
            lines.append(f"side {side}, M={big_m:g}: {len(coarse)} vertices")
            if fine is None:
                continue
            for idx, q in enumerate(coarse):
                drift = min(
                    max(abs(float(a) - float(b)) for a, b in zip(q.mults(), p.mults()))
                    for p in fine
                )
                exact = q in fine
                lines.append(
                    f"  vertex {idx}: drift to M={10 * big_m:g} is {drift:.3g}"
                    + (" (exact)" if exact else "")
                )
    write_text(cfg, "crosssection_drift.txt", "\n".join(lines) + "\n")


def emit_uniform_rays(cfg: FigureConfig) -> None:
    header = ["t", "vertex", "principal", "x0", "x1", "x2"]
    rows = []
    for t in UNIFORM_T:
        d2 = uniform_metric(t)
        cols = [yoneda(d2, k) for k in range(3)]
        for idx, q in enumerate(oracle_rays(metric_cone_constraints(d2, Side.LOWER), 3)):
            principal = any(q.proportional(c) for c in cols)
            rows.append(
                [str(t), str(idx), "yes" if principal else "no"]
                + [str(c) for c in q.mults()]
            )
    write_csv(cfg, "uniform_rays.csv", header, rows)


def emit_isbell(cfg: FigureConfig, m: Plm) -> None:
    d = metric_from_plm(m)
    gens = [yoneda(d, k) for k in range(d.n)]
    closed = max_closure(gens, d)
    outside = [x for x in closed if not isbell_member(d, x)]
    lines = [
        f"one-sided generators: {d.n}",
        f"two-sided closure size: {len(closed)}",
        f"closure points outside conjugation-stable family: {len(outside)}",
    ]
    for x in sorted(outside, key=lambda v: vector_to_strings(v)):
        lines.append("  " + " ".join(vector_to_strings(x)))
    write_text(cfg, "isbell.txt", "\n".join(lines) + "\n")


def emit_retraction(cfg: FigureConfig, m: Plm) -> None:
    d = metric_from_plm(m)
    labels = m.labels()
    subset = [0, 1]
    r = retraction_from_subset(d, subset)
    header = ["text"] + labels
    rows = []
    for k in range(d.n):
        col = r.matrix.column(k)
        rows.append([labels[k]] + vector_to_strings(col))
    write_csv(cfg, "retract.csv", header, rows)

    terms = [(d[s, 2], yoneda(d, s)) for s in subset]
    brows = []
    for t in TEMPERATURES:
        res = boltzmann(terms, t)
        brows.append(
            [f"{t:g}", f"{res.bound:.6g}"]
            + [("inf" if math.isinf(v) else f"{v:.9g}") for v in res.readback]
        )
    write_csv(cfg, "boltzmann.csv", ["temperature", "bound"] + labels, brows)


def emit_potentials(cfg: FigureConfig, m: Plm) -> None:
    w = potential(m, (1 << m.n) - 1)
    rows = []
    for comp in m.order.components():
        for i in comp:
            rows.append(
                ["|".join(m.label(j) for j in comp), m.label(comp[0]), m.label(i), str(w[i])]
            )
    write_csv(cfg, "potentials.csv", ["component", "ref", "text", "value"], rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out", help="directory for the artifacts")
    args = ap.parse_args(argv)
    cfg = FigureConfig(out_dir=Path(args.out_dir))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    m = worked_model()
    emit_rays(cfg, m)
    emit_crosssection(cfg, m)
    emit_uniform_rays(cfg)
    emit_isbell(cfg, m)
    emit_retraction(cfg, m)
    emit_potentials(cfg, m)

    for name in cfg.files:
        print(f"wrote {cfg.out_dir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
