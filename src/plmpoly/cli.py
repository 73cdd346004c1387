"""Command line front end.

Exit codes: 0 success, 1 unreadable or malformed input, 2 verification
mismatch, 3 resource cap hit; a usage error counts as malformed input.
Numeric output is exact rational strings in the multiplicative domain
unless --float asks for decimals; file writes go through a temp file and
a rename, and an --out target that exists but is not a regular file (a
FIFO, a device) is refused.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from fractions import Fraction

from .duality import dual_decompose
from .extension import IsometryError, boltzmann, embed_model, retraction_from_subset
from . import files
from .isbell import isbell_member, map_l, map_r, max_closure
from .model import (
    DirectedMetric,
    ValidationFailed,
    check_projector,
    ingest_corpus,
    load_model_file,
    metric_from_plm,
    model_to_dict,
    truncate_big_m,
)
from .polyhedron import (
    Side,
    generator,
    membership,
    metric_cone_constraints,
    normalize_to_simplex,
    side_metric,
    simplex_scale,
    violation,
    yoneda,
    yoneda_isometric,
)
from .rays import (
    ResourceCapExceeded,
    _side_cone,
    certify_ray,
    cross_check_rays,
    enumerate_rays,
    oracle_rays,
    ray_key,
)
from .tropical import POS_INF, TropVector, verify


def _vec_out(x: TropVector, as_float: bool) -> list[str]:
    return files.vector_to_strings(x, lambda c: files.cell_string(c, as_float))


def _mult_out(z: TropVector, as_float: bool) -> list[str]:
    """A cone point's multiplicative coordinates; +inf, the pair (0, 1), reads 0."""
    return files.vector_to_strings(z, lambda c: files.ratio_string(c.num, c.den, as_float))


def _ray_out(z: TropVector, as_float: bool) -> tuple[list[str], list[str]]:
    """`_mult_out` of z and of its simplex point, in one pass over z's pairs.

    Each vertex entry is a listed pair times `simplex_scale(z)`, reduced,
    as `normalize_to_simplex` forms it; an unlisted coordinate reads 0 in both.
    """
    a, b = simplex_scale(z)
    gen = [files.ratio_string(0, 1, as_float)] * z.n
    vertex = gen[:]
    for i, c in z.entries:
        num, den = c.num * a, c.den * b
        g = math.gcd(num, den)
        gen[i] = files.ratio_string(c.num, c.den, as_float)
        vertex[i] = files.ratio_string(num // g, den // g, as_float)
    return gen, vertex


def _indices(labels: list[str], wanted: list[str], unknown: str) -> list[int]:
    """The index of each wanted label, looked up in one dict of the distinct labels.

    Unknown labels raise ValueError, `unknown` followed by the list of them.
    """
    at = {lbl: i for i, lbl in enumerate(labels)}
    missing = [lbl for lbl in wanted if lbl not in at]
    if missing:
        raise ValueError(f"{unknown}: {missing}")
    return [at[lbl] for lbl in wanted]


def _metric_of(kind: str, obj) -> DirectedMetric:
    return metric_from_plm(obj) if kind == "plm" else obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    kind, obj, labels = load_model_file(args.model, require_projector=False)
    rows: list[tuple[str, bool, str]] = []
    d = None
    if kind == "plm":
        try:
            d = metric_from_plm(obj)
            rows.append(("validate", True, ""))
        except ValidationFailed as exc:
            rows.append(("validate", False, exc.report.summary()))
    else:
        rows.append(("validate", True, "general metric: no model axioms to check"))
        d = obj
    if d is not None:
        detail = ""
        if not check_projector(d.mat):
            # d o d != d exactly when some column of d is not a member
            k, (i, j) = next((k, v) for k in range(d.n) if (v := violation(yoneda(d, k), d)))
            a, b, c = labels[i], labels[j], labels[k]
            detail = f"d[{a},{c}] > d[{a},{b}] + d[{b},{c}]"
        rows.append(("projector", not detail, detail))
        # map_r(d, yoneda(d, k)) == co_yoneda(d, k) on the lower side, its map_l twin upper
        for name, side in (("yoneda-isometry", Side.LOWER), ("co-yoneda-isometry", Side.UPPER)):
            bad = next((k for k in range(d.n) if not yoneda_isometric(d, k, side)), None)
            detail = "" if bad is None else f"first failure at {labels[bad]}"
            rows.append((name, bad is None, detail))
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {mark}" + (f"  {detail}" if detail else ""))
    files.emit(args.out, "\n".join(lines) + "\n")
    return 0 if all(ok for _, ok, _ in rows) else 2


def cmd_rays(args) -> int:
    kind, obj, labels = load_model_file(args.model)
    side = Side(args.side)
    as_float = args.float
    mismatch = None
    # each route yields (generator, carrier, principal text or None, certificate rank)
    if kind == "metric" or args.big_m is not None:
        # a general metric has no subtext order: oracle route only
        d = _metric_of(kind, obj)
        if args.big_m is not None:
            d = truncate_big_m(d, args.big_m)
        dm = side_metric(d, side)
        found = (
            (
                q,
                q.support,
                next((k for k in range(d.n) if q.proportional(generator(d, k, side))), None),
                certify_ray(q, dm),
            )
            for q in oracle_rays(metric_cone_constraints(dm), d.n)
        )
        method = "oracle"
    else:
        rays = enumerate_rays(obj, side)
        method = "lower-sets"
        if args.oracle:
            qs = oracle_rays(metric_cone_constraints(_side_cone(obj, side)[2]), obj.n)
            if not cross_check_rays(rays, qs):
                mismatch = _ray_differences(rays, qs, labels, as_float)
            method = "lower-sets+oracle"
        rays = sorted(rays, key=lambda r: r.carrier)
        found = ((r.generator, r.carrier, r.principal_of, r.certificate_rank) for r in rays)

    entries = []
    for z, carrier, principal, rank in found:
        gen, vertex = _ray_out(z, as_float)
        entries.append(
            {
                "generator": gen,
                "vertex": vertex,
                "carrier": [labels[i] for i in carrier],
                "principal": None if principal is None else labels[principal],
                "certificateRank": rank,
            }
        )

    payload = {
        "command": "rays",
        "config": {"seed": args.seed, "float": as_float, "side": side.value},
        "method": method,
        "labels": list(labels),
        "count": len(entries),
        "rays": entries,
    }
    if args.big_m is not None:
        payload["bigM"] = args.big_m
    if mismatch is not None:
        payload["oracleMismatch"] = mismatch
        sys.stderr.write("ray enumeration disagrees with the oracle\n")
    if args.out:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        files.check_out_path(stem + ".csv")  # refused before the JSON is written
    files.emit_json(args.out, payload)
    if args.out:
        header = ["carrier"] + list(labels)
        rows = (["+".join(e["carrier"])] + e["vertex"] for e in entries)
        files.write_text_atomic(stem + ".csv", files.csv_text(header, rows))
    return 2 if mismatch is not None else 0


def _ray_differences(rays, qs, labels, as_float: bool) -> dict:
    """The rays one route found more often than the other, each with its carrier
    and generator: every surplus copy of a `ray_key` is listed, in `mults` order."""
    theory = [r.generator for r in rays]

    def listed(mine: list, other: list) -> list[dict]:
        keys = list(map(ray_key, mine))
        found = dict(zip(keys, mine))
        only = (found[k] for k in (Counter(keys) - Counter(map(ray_key, other))).elements())
        return [
            {"carrier": [labels[i] for i in v.support], "generator": _mult_out(v, as_float)}
            for v in sorted(only, key=lambda v: v.canonical().mults())
        ]

    return {"theoryOnly": listed(theory, qs), "oracleOnly": listed(qs, theory)}


def cmd_dual(args) -> int:
    kind, obj, labels = load_model_file(args.model)
    d = _metric_of(kind, obj)
    entries = []
    for k in range(d.n):
        rep = dual_decompose(d, k)
        entries.append(
            {
                "text": labels[k],
                "yoneda": _vec_out(rep.yoneda, args.float),
                "negated": _vec_out(rep.negated, args.float),
            }
        )
    files.emit_json(args.out, {"command": "dual", "count": len(entries), "pairs": entries})
    return 0


def cmd_isbell(args) -> int:
    kind, obj, labels = load_model_file(args.model)
    d = _metric_of(kind, obj)
    payload: dict = {"command": "isbell"}
    if args.vector:
        x = files.read_vector(args.vector)
        if len(x) != d.n:
            raise ValueError("vector length does not match the model")
        payload["vector"] = files.vector_to_strings(x)
        payload["member"] = membership(x, d, Side.LOWER)
        if not payload["member"]:
            # the all-(+inf) vector is the one non-member with no such pair
            pair = violation(x, d)
            verify(
                (pair is None) == (x.fill is POS_INF and not x.entries),
                "violation disagrees with membership",
            )
            payload["violation"] = None if pair is None else [labels[k] for k in pair]
        hull = map_l(d, map_r(d, x))
        payload["hull"] = files.vector_to_strings(hull)
        payload["isbellFixed"] = hull == x
    if args.compare_span:
        closure = max_closure([yoneda(d, k) for k in range(d.n)], d)
        gaps = [v for v in closure if not isbell_member(d, v)]
        payload["closureSize"] = len(closure)
        payload["outsideIsbell"] = sorted(files.vector_to_strings(v) for v in gaps)
    if not args.vector and not args.compare_span:
        raise ValueError("nothing to do: pass --vector and/or --compare-span")
    files.emit_json(args.out, payload)
    return 0


def cmd_embed(args) -> int:
    kind_b, obj_b, labels_b = load_model_file(args.model)
    kind_s, obj_s, labels_s = load_model_file(args.sub)
    mapping = _indices(labels_b, labels_s, "sub-model texts missing from the big model")
    try:
        emb = embed_model(_metric_of(kind_s, obj_s), _metric_of(kind_b, obj_b), mapping)
    except IsometryError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    files.emit_json(
        args.out,
        {
            "command": "embed",
            "mapping": {labels_s[a]: labels_b[f] for a, f in enumerate(emb.mapping)},
            "isometric": True,
            "retractionSubset": [labels_b[i] for i in sorted(emb.mapping)],
        },
    )
    return 0


def cmd_retract(args) -> int:
    kind, obj, labels = load_model_file(args.model)
    d = _metric_of(kind, obj)
    as_float = args.float
    if args.subset:
        wanted = [s.strip() for s in args.subset.split(",") if s.strip()]
        subset = _indices(labels, wanted, "unknown texts")
    elif args.max_len is not None:
        if kind != "plm":
            raise ValueError("--max-len needs a text model, not a general metric")
        subset = [i for i, t in enumerate(obj.texts) if len(t) <= args.max_len]
        if not subset:
            raise ValueError(f"no texts of length <= {args.max_len}")
    else:
        raise ValueError("pass --subset or --max-len")
    r = retraction_from_subset(d, subset)
    in_subset = set(r.subset)

    def rows():
        for k in range(d.n):
            if args.temperature is None:
                # d is a projector, so d_S o d = d_S: R applied to d[:,k] is R[:,k],
                # which is +inf off its listed entries
                cells = ["inf"] * d.n
                for c, e in r.matrix.col_entries[k]:
                    cells[c] = files.cell_string(e, as_float)
            else:
                # the live terms: s in S with d[s,k] finite, in ascending s
                terms = [(e, yoneda(d, s)) for s, e in d.mat.col_entries[k] if s in in_subset]
                # a soft sum is 0 where R[:,k] is +inf, so only R's listed entries are read
                cells = ["0"] * d.n
                if terms:
                    res = boltzmann(terms, args.temperature)
                    verify(res.target == r.matrix.column(k))
                    for c, _ in r.matrix.col_entries[k]:
                        v = res.mult[c]
                        if isinstance(v, Fraction):
                            cells[c] = files.ratio_string(v.numerator, v.denominator, as_float)
                        else:
                            cells[c] = files.float_string(v)
            yield [labels[k]] + cells

    files.emit(args.out, files.csv_text(["text"] + list(labels), rows()))
    return 0


def cmd_ingest(args) -> int:
    tokens = files.read_text(args.corpus).split()
    mode = {"one": "one-sided", "two": "two-sided"}.get(args.order_mode, args.order_mode)
    m = ingest_corpus(
        tokens, order_mode=mode, max_len=args.max_len, include_empty=args.include_empty
    )
    files.emit_json(args.out, model_to_dict(m))
    return 0


def _nearest_vertex(q: TropVector, vertices: list[TropVector]) -> tuple[float, bool]:
    """The drift from q to the nearest of `vertices`, and whether q is one of them.

    q is looked up exactly first, so an equal vertex is found even when
    another one's floats coincide with q's; its drift is 0.  Otherwise the
    drift is the least max-norm distance between the float coordinates
    (inf when there is no vertex).
    """
    if q in vertices:
        return 0.0, True
    qf = [float(c) for c in q.mults()]
    dists = (max(abs(x - float(c)) for x, c in zip(qf, p.mults())) for p in vertices)
    return min(dists, default=math.inf), False


def cmd_crosssection(args) -> int:
    kind, obj, labels = load_model_file(args.model)
    d = _metric_of(kind, obj)
    as_float = args.float
    runs: dict[tuple[str, float], list[TropVector]] = {}
    for m_val in (args.big_m, 10 * args.big_m):
        dm = truncate_big_m(d, m_val)
        for side in (Side.LOWER, Side.UPPER):
            qs = oracle_rays(metric_cone_constraints(dm, side), d.n)
            runs[(side.value, m_val)] = [normalize_to_simplex(q) for q in qs]
    header = ["side", "bigM", "vertex"] + list(labels)
    rows = []
    for (side_v, m_val), verts in sorted(runs.items()):
        for idx, q in enumerate(verts):
            rows.append([side_v, files.float_string(m_val), str(idx)] + _mult_out(q, as_float))
    drift_lines = []
    for side in ("lower", "upper"):
        a = runs[(side, args.big_m)]
        b = runs[(side, 10 * args.big_m)]
        drift_lines.append(
            f"side {side}: {len(a)} vertices at M={files.float_string(args.big_m)}, "
            f"{len(b)} at M={files.float_string(10 * args.big_m)}"
        )
        for idx, q in enumerate(a):
            drift, exact = _nearest_vertex(q, b)
            drift_lines.append(
                f"  vertex {idx}: drift {files.float_string(drift)}"
                + (" (interior: exact match)" if exact else "")
            )
    report, table = "\n".join(drift_lines) + "\n", files.csv_text(header, rows)
    files.emit(args.out, table if args.out else [report, *table])
    if args.out:  # once the file is written, so that a failed command prints nothing
        sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so that `main` exits 1 as for bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="plmpoly",
        description="Exact min-plus polyhedral geometry of extension-probability text models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="validate a model and its metric identities")
    sp.add_argument("model")

    sp = sub.add_parser("rays", help="extremal rays of a side's cone")
    sp.add_argument("model")
    sp.add_argument("--side", default="lower", choices=["lower", "upper"])
    sp.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    sp.add_argument("--big-m", type=float, default=None, help="truncate +inf to M first")
    sp.add_argument("--seed", type=int, default=0, help="recorded in the output")
    sp.add_argument("--float", action="store_true", help="decimal output")

    sp = sub.add_parser("dual", help="negation pairing and span identities per text")
    sp.add_argument("model")
    sp.add_argument("--float", action="store_true", help="decimal output")

    sp = sub.add_parser("isbell", help="Isbell membership tests")
    sp.add_argument("model")
    sp.add_argument("--vector", default=None, help="JSON vector file to test")
    sp.add_argument(
        "--compare-span",
        action="store_true",
        help="report closure vectors outside the Isbell span",
    )

    sp = sub.add_parser("embed", help="verify a sub-model embeds isometrically")
    sp.add_argument("model")
    sp.add_argument("--sub", required=True, help="sub-model file")

    sp = sub.add_parser("retract", help="retract every generator onto a sub-span")
    sp.add_argument("model")
    sp.add_argument("--subset", default=None, help="comma-separated text labels")
    sp.add_argument("--max-len", type=int, default=None, help="keep texts up to this length")
    sp.add_argument("--temperature", type=float, default=None, help="Boltzmann output")
    sp.add_argument("--float", action="store_true", help="decimal output")

    sp = sub.add_parser("ingest", help="build a model from a token corpus")
    sp.add_argument("corpus")
    sp.add_argument("--order-mode", default="two", choices=["one", "two", "one-sided", "two-sided"])
    sp.add_argument("--max-len", type=int, default=2)
    sp.add_argument("--include-empty", action="store_true")

    sp = sub.add_parser("crosssection", help="truncated-cone vertices at M and 10M")
    sp.add_argument("model")
    sp.add_argument("--big-m", type=float, required=True)
    sp.add_argument("--float", action="store_true", help="decimal output")

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to a file")
    return p


# built on the first call, so importing the module does not pay for it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up at call time, so a wrapped cmd_* module attribute is used
        return globals()[f"cmd_{args.command}"](args)
    except ResourceCapExceeded as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except AssertionError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
