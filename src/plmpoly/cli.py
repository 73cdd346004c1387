"""Command line front end.

Exit codes: 0 success, 1 unreadable or malformed input, 2 verification
mismatch, 3 resource cap hit.  Numeric output is exact rational strings
in the multiplicative domain unless --float asks for decimals; file
writes go through a temp file and a rename.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .duality import dual_decompose
from .extension import IsometryError, boltzmann, embed_model, retraction_from_subset
from .isbell import isbell_member, max_closure
from .model import (
    DirectedMetric,
    Plm,
    check_projector,
    ingest_corpus,
    load_model_file,
    metric_from_plm,
    model_to_dict,
    truncate_big_m,
    validate_plm,
    write_text_atomic,
)
from .polyhedron import (
    QVector,
    Side,
    co_yoneda,
    membership,
    normalize_to_simplex,
    vector_from_strings,
    vector_to_strings,
    yoneda,
)
from .rays import (
    ResourceCapExceeded,
    certify_ray,
    cross_check_rays,
    enumerate_rays,
    metric_cone_constraints,
    oracle_rays,
    plm_cone_constraints,
)
from .tropical import funk


def _float_str(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _frac_out(f: Fraction, as_float: bool) -> str:
    if not as_float:
        return str(f)
    try:
        return _float_str(float(f))
    except OverflowError:
        return "inf"


def _vec_out(x, as_float: bool) -> list[str]:
    strings = vector_to_strings(x)
    if not as_float:
        return strings
    out = []
    for s, c in zip(strings, x.coords):
        if s in ("inf", "-inf"):
            out.append(s)
        else:
            out.append(_frac_out(c.mult, True))
    return out


def _qvec_out(q: QVector, as_float: bool) -> list[str]:
    return [_frac_out(c, as_float) for c in q.coords]


def _emit(args, text: str) -> None:
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _load(path: str, require_projector: bool = True):
    try:
        return load_model_file(path, require_projector=require_projector)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _metric_of(kind: str, obj) -> DirectedMetric:
    return metric_from_plm(obj) if kind == "plm" else obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    kind, obj, labels = _load(args.model, require_projector=False)
    rows: list[tuple[str, bool, str]] = []
    d = None
    if kind == "plm":
        rep = validate_plm(obj)
        rows.append(("validate", rep.ok, "" if rep.ok else rep.summary()))
        if rep.ok:
            d = metric_from_plm(obj)
    else:
        rows.append(("validate", True, "general metric: no model axioms to check"))
        d = obj
    if d is not None:
        ok_proj = check_projector(d.mat)
        rows.append(("projector", ok_proj, ""))
        n = d.n
        ok_lower = all(
            funk(yoneda(d, i), yoneda(d, j)) == d[i, j]
            for i in range(n)
            for j in range(n)
        )
        rows.append(("yoneda-isometry", ok_lower, ""))
        ok_upper = all(
            funk(co_yoneda(d, j), co_yoneda(d, i)) == d[i, j]
            for i in range(n)
            for j in range(n)
        )
        rows.append(("co-yoneda-isometry", ok_upper, ""))
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {mark}" + (f"  {detail}" if detail else ""))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all(ok for _, ok, _ in rows) else 2


def _ray_payload(args, side: Side, labels, entries, method: str) -> dict:
    return {
        "command": "rays",
        "config": {"seed": args.seed, "float": bool(args.float), "side": side.value},
        "method": method,
        "labels": list(labels),
        "count": len(entries),
        "rays": entries,
    }


def cmd_rays(args) -> int:
    kind, obj, labels = _load(args.model)
    side = Side.parse(args.side)
    as_float = bool(args.float)
    if args.big_m is not None:
        d = truncate_big_m(_metric_of(kind, obj), args.big_m)
        kind = "metric"
    elif kind == "metric":
        d = obj

    entries = []
    mismatch = False
    if kind == "plm":
        rays = enumerate_rays(obj, side)
        method = "lower-sets"
        if args.oracle:
            qs = oracle_rays(plm_cone_constraints(obj, side), obj.n)
            if not cross_check_rays(rays, qs):
                mismatch = True
            method = "lower-sets+oracle"
        for r in sorted(rays, key=lambda r: tuple(sorted(r.carrier))):
            entries.append(
                {
                    "generator": _qvec_out(r.generator, as_float),
                    "vertex": _qvec_out(normalize_to_simplex(r.generator), as_float),
                    "carrier": [labels[i] for i in sorted(r.carrier)],
                    "principal": None if r.principal_of is None else labels[r.principal_of],
                    "certificateRank": r.certificate_rank,
                }
            )
    else:
        # a general metric has no subtext order: oracle route only
        cons = metric_cone_constraints(d, side)
        qs = oracle_rays(cons, d.n)
        method = "oracle"
        for q in qs:
            principal = None
            for k in range(d.n):
                col = yoneda(d, k) if side is Side.LOWER else co_yoneda(d, k)
                if q.proportional(QVector.from_trop(col)):
                    principal = labels[k]
                    break
            entries.append(
                {
                    "generator": _qvec_out(q, as_float),
                    "vertex": _qvec_out(normalize_to_simplex(q), as_float),
                    "carrier": [labels[i] for i, c in enumerate(q.coords) if c != 0],
                    "principal": principal,
                    "certificateRank": certify_ray(q, cons, d.n),
                }
            )

    payload = _ray_payload(args, side, labels, entries, method)
    if args.big_m is not None:
        payload["bigM"] = args.big_m
    if mismatch:
        payload["oracleMismatch"] = True
        sys.stderr.write("ray enumeration disagrees with the oracle\n")
    if args.out:
        write_text_atomic(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        header = ["carrier"] + list(labels)
        rows = [["+".join(e["carrier"])] + e["vertex"] for e in entries]
        write_text_atomic(stem + ".csv", _csv_text(header, rows))
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 2 if mismatch else 0


def cmd_dual(args) -> int:
    kind, obj, labels = _load(args.model)
    d = _metric_of(kind, obj)
    as_float = bool(args.float)
    entries = []
    try:
        for k in range(d.n):
            rep = dual_decompose(d, k)
            entries.append(
                {
                    "text": labels[k],
                    "yoneda": _vec_out(rep.yoneda, as_float),
                    "negated": _vec_out(rep.negated, as_float),
                }
            )
    except AssertionError:
        sys.stderr.write(f"duality identities fail at index {k}\n")
        return 2
    _emit_json(args, {"command": "dual", "count": len(entries), "pairs": entries})
    return 0


def cmd_isbell(args) -> int:
    kind, obj, labels = _load(args.model)
    d = _metric_of(kind, obj)
    payload: dict = {"command": "isbell"}
    if args.vector:
        try:
            with open(args.vector, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            x = vector_from_strings(data)
        except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot read vector file: {exc}") from exc
        if len(x) != d.n:
            raise ValueError("vector length does not match the model")
        payload["vector"] = vector_to_strings(x)
        payload["member"] = membership(x, d, Side.LOWER)
        payload["isbellFixed"] = isbell_member(d, x)
    if args.compare_span:
        closure = max_closure([yoneda(d, k) for k in range(d.n)], d)
        gaps = [v for v in closure if not isbell_member(d, v)]
        payload["closureSize"] = len(closure)
        payload["outsideIsbell"] = sorted(vector_to_strings(v) for v in gaps)
    if not args.vector and not args.compare_span:
        raise ValueError("nothing to do: pass --vector and/or --compare-span")
    _emit_json(args, payload)
    return 0


def cmd_embed(args) -> int:
    kind_b, obj_b, labels_b = _load(args.model)
    kind_s, obj_s, labels_s = _load(args.sub)
    try:
        mapping = [labels_b.index(lbl) for lbl in labels_s]
    except ValueError:
        missing = [lbl for lbl in labels_s if lbl not in labels_b]
        raise ValueError(f"sub-model texts missing from the big model: {missing}")
    try:
        emb = embed_model(_metric_of(kind_s, obj_s), _metric_of(kind_b, obj_b), mapping)
    except IsometryError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    _emit_json(
        args,
        {
            "command": "embed",
            "mapping": {labels_s[a]: labels_b[f] for a, f in enumerate(emb.mapping)},
            "isometric": True,
            "retractionSubset": [labels_b[i] for i in emb.retraction.subset],
        },
    )
    return 0


def cmd_retract(args) -> int:
    kind, obj, labels = _load(args.model)
    d = _metric_of(kind, obj)
    as_float = bool(args.float)
    if args.subset:
        wanted = [s.strip() for s in args.subset.split(",") if s.strip()]
        try:
            subset = [labels.index(lbl) for lbl in wanted]
        except ValueError:
            missing = [lbl for lbl in wanted if lbl not in labels]
            raise ValueError(f"unknown texts: {missing}")
    elif args.max_len is not None:
        if kind != "plm":
            raise ValueError("--max-len needs a text model, not a general metric")
        subset = [i for i, t in enumerate(obj.texts) if len(t) <= args.max_len]
        if not subset:
            raise ValueError(f"no texts of length <= {args.max_len}")
    else:
        raise ValueError("pass --subset or --max-len")
    r = retraction_from_subset(d, subset)
    header = ["text"] + list(labels)
    rows = []
    for k in range(d.n):
        if args.temperature is not None:
            terms = [(d[s, k], yoneda(d, s)) for s in r.subset]
            res = boltzmann(terms, args.temperature)
            cells = [
                _frac_out(v, as_float) if isinstance(v, Fraction) else _float_str(v)
                for v in res.mult
            ]
        else:
            out = r.apply(yoneda(d, k))
            cells = ["inf"] * d.n if out is None else _vec_out(out, as_float)
        rows.append([labels[k]] + cells)
    _emit(args, _csv_text(header, rows))
    return 0


def cmd_ingest(args) -> int:
    try:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ValueError(f"cannot read {args.corpus}: {exc}") from exc
    mode = {"one": "one-sided", "two": "two-sided"}.get(args.order_mode, args.order_mode)
    m = ingest_corpus(
        tokens, order_mode=mode, max_len=args.max_len, include_empty=args.include_empty
    )
    _emit_json(args, model_to_dict(m))
    return 0


def cmd_crosssection(args) -> int:
    kind, obj, labels = _load(args.model)
    d = _metric_of(kind, obj)
    if args.big_m is None or args.big_m <= 0:
        raise ValueError("--big-m must be positive")
    as_float = bool(args.float)
    runs: dict[tuple[str, float], list[QVector]] = {}
    for m_val in (args.big_m, 10 * args.big_m):
        dm = truncate_big_m(d, m_val)
        for side in (Side.LOWER, Side.UPPER):
            qs = oracle_rays(metric_cone_constraints(dm, side), d.n)
            runs[(side.value, m_val)] = [normalize_to_simplex(q) for q in qs]
    header = ["side", "bigM", "vertex"] + list(labels)
    rows = []
    for (side_v, m_val), verts in sorted(runs.items()):
        for idx, q in enumerate(verts):
            rows.append([side_v, _float_str(m_val), str(idx)] + _qvec_out(q, as_float))
    drift_lines = []
    for side in ("lower", "upper"):
        a = runs[(side, args.big_m)]
        b = runs[(side, 10 * args.big_m)]
        drift_lines.append(
            f"side {side}: {len(a)} vertices at M={_float_str(args.big_m)}, "
            f"{len(b)} at M={_float_str(10 * args.big_m)}"
        )
        for idx, q in enumerate(a):
            qf = [float(c) for c in q.coords]
            best, best_dist = None, math.inf
            for p in b:
                dist = max(abs(x - float(c)) for x, c in zip(qf, p.coords))
                if dist < best_dist:
                    best, best_dist = p, dist
            exact = best is not None and best.coords == q.coords
            drift_lines.append(
                f"  vertex {idx}: drift {_float_str(best_dist)}"
                + (" (interior: exact match)" if exact else "")
            )
    sys.stdout.write("\n".join(drift_lines) + "\n")
    if args.out:
        write_text_atomic(args.out, _csv_text(header, rows))
    else:
        sys.stdout.write(_csv_text(header, rows))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plmpoly",
        description="Exact min-plus polyhedral geometry of extension-probability text models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--seed", type=int, default=0, help="recorded in outputs")
        sp.add_argument("--float", action="store_true", help="decimal output")
        if out:
            sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("check", help="validate a model and its metric identities")
    sp.add_argument("model")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("rays", help="extremal rays of a side's cone")
    sp.add_argument("model")
    sp.add_argument("--side", default="lower", choices=["lower", "upper"])
    sp.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    sp.add_argument("--big-m", type=float, default=None, help="truncate +inf to M first")
    common(sp)
    sp.set_defaults(func=cmd_rays)

    sp = sub.add_parser("dual", help="negation pairing and span identities per text")
    sp.add_argument("model")
    common(sp)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("isbell", help="Isbell membership tests")
    sp.add_argument("model")
    sp.add_argument("--vector", default=None, help="JSON vector file to test")
    sp.add_argument(
        "--compare-span",
        action="store_true",
        help="report closure vectors outside the Isbell span",
    )
    common(sp)
    sp.set_defaults(func=cmd_isbell)

    sp = sub.add_parser("embed", help="verify a sub-model embeds isometrically")
    sp.add_argument("model")
    sp.add_argument("--sub", required=True, help="sub-model file")
    common(sp)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("retract", help="retract every generator onto a sub-span")
    sp.add_argument("model")
    sp.add_argument("--subset", default=None, help="comma-separated text labels")
    sp.add_argument("--max-len", type=int, default=None, help="keep texts up to this length")
    sp.add_argument("--temperature", type=float, default=None, help="Boltzmann output")
    common(sp)
    sp.set_defaults(func=cmd_retract)

    sp = sub.add_parser("ingest", help="build a model from a token corpus")
    sp.add_argument("corpus")
    sp.add_argument("--order-mode", default="two", choices=["one", "two", "one-sided", "two-sided"])
    sp.add_argument("--max-len", type=int, default=2)
    sp.add_argument("--include-empty", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("crosssection", help="truncated-cone vertices at M and 10M")
    sp.add_argument("model")
    sp.add_argument("--big-m", type=float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_crosssection)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
