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
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from .duality import dual_decompose
from .extension import IsometryError, boltzmann, embed_model, retraction_from_subset
from .isbell import isbell_member, map_l, map_r, max_closure
from .model import (
    DirectedMetric,
    ValidationFailed,
    check_out_path,
    check_projector,
    ingest_corpus,
    load_model_file,
    metric_from_plm,
    model_to_dict,
    truncate_big_m,
    write_text_atomic,
)
from .polyhedron import (
    Side,
    cell_string,
    co_yoneda,
    float_string,
    generator,
    membership,
    metric_cone_constraints,
    normalize_to_simplex,
    ratio_string,
    vector_from_strings,
    vector_to_strings,
    violation,
    yoneda,
)
from .rays import (
    ResourceCapExceeded,
    certify_ray,
    cross_check_rays,
    enumerate_rays,
    oracle_rays,
    plm_cone_constraints,
)
from .tropical import POS_INF, TropVector, verify


def _vec_out(x: TropVector, as_float: bool) -> list[str]:
    return vector_to_strings(x, lambda c: cell_string(c, as_float))


def _mult_out(z: TropVector, as_float: bool) -> list[str]:
    """A cone point's multiplicative coordinates; +inf, the pair (0, 1), reads 0."""
    return vector_to_strings(z, lambda c: ratio_string(c.num, c.den, as_float))


def _emit(args, chunks) -> None:
    """Write one string, or the strings of an iterable, to --out or stdout.

    Standard output gets them once all are made, so a command that fails
    part-way prints nothing, joined 256 at a time so that a large output is
    not held twice; --out writes them as they come and leaves no file on failure.
    """
    if args.out:
        write_text_atomic(args.out, chunks)
    else:
        parts = [chunks] if isinstance(chunks, str) else list(chunks)
        for k in range(0, len(parts), 256):
            sys.stdout.write("".join(parts[k : k + 256]))


def _emit_json(args, payload: dict) -> None:
    out: list[str] = []
    _json_pieces(payload, out, "\n")
    out.append("\n")
    _emit(args, out)


_json_str = json.encoder.encode_basestring_ascii


def _json_scalar(o) -> str:
    """A scalar exactly as `json.dumps` writes it; any other type raises."""
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_pieces(o, out: list[str], nl: str) -> None:
    """Append the pieces of `json.dumps(o, indent=2, sort_keys=True)` to out.

    nl is a newline and the indentation of the line o starts on.  A list
    of scalars is one piece; a dict is written in sorted key order.  A
    value other than str, int, float, bool, None, list, tuple or dict, and
    a key that is not a str, raise TypeError.
    """
    if isinstance(o, str):
        out.append(_json_str(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _json_str(k) + ": ")
            _json_pieces(o[k], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        try:  # the common case, a list of strings, in one C-level join
            body = ("," + inner).join(map(_json_str, o))
        except TypeError:
            if any(isinstance(v, (dict, list, tuple)) for v in o):
                sep = "[" + inner
                for v in o:
                    out.append(sep)
                    _json_pieces(v, out, inner)
                    sep = "," + inner
                out.append(nl + "]")
                return
            body = ("," + inner).join(map(_json_scalar, o))
        out.append("[" + inner + body + nl + "]")
    else:
        out.append(_json_scalar(o))


def _csv_text(header: list[str], rows):
    """The CSV lines of the header and then each row, one line per piece."""
    # writerow returns what its file's write returns: here the line itself
    w = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    yield w.writerow(header)
    for row in rows:
        yield w.writerow(row)


def _load(path: str, require_projector: bool = True):
    try:
        return load_model_file(path, require_projector=require_projector)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nested past the stack
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
        # term by term, map_r(d, y_i)_j = funk(y_i, y_j), map_l(d, c_j)_i = funk(c_j, c_i)
        for name, fails in (
            ("yoneda-isometry", lambda i: map_r(d, yoneda(d, i)) != co_yoneda(d, i)),
            ("co-yoneda-isometry", lambda j: map_l(d, co_yoneda(d, j)) != yoneda(d, j)),
        ):
            bad = next((k for k in range(d.n) if fails(k)), None)
            detail = "" if bad is None else f"first failure at {labels[bad]}"
            rows.append((name, bad is None, detail))
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {mark}" + (f"  {detail}" if detail else ""))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all(ok for _, ok, _ in rows) else 2


def cmd_rays(args) -> int:
    kind, obj, labels = _load(args.model)
    side = Side(args.side)
    as_float = args.float
    if args.big_m is not None:
        d = truncate_big_m(_metric_of(kind, obj), args.big_m)
        kind = "metric"
    elif kind == "metric":
        d = obj

    entries = []
    mismatch = None
    if kind == "plm":
        rays = enumerate_rays(obj, side)
        method = "lower-sets"
        if args.oracle:
            qs = oracle_rays(plm_cone_constraints(obj, side), obj.n)
            if not cross_check_rays(rays, qs):
                mismatch = _ray_differences(rays, qs, labels, as_float)
            method = "lower-sets+oracle"
        for r in sorted(rays, key=lambda r: tuple(sorted(r.carrier))):
            entries.append(
                {
                    "generator": _mult_out(r.generator, as_float),
                    "vertex": _mult_out(normalize_to_simplex(r.generator), as_float),
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
            principal = next(
                (labels[k] for k in range(d.n) if q.proportional(generator(d, k, side))), None
            )
            entries.append(
                {
                    "generator": _mult_out(q, as_float),
                    "vertex": _mult_out(normalize_to_simplex(q), as_float),
                    "carrier": [labels[i] for i in q.support],
                    "principal": principal,
                    "certificateRank": certify_ray(q, cons, d.n),
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
        check_out_path(stem + ".csv")  # refused before the JSON is written
    _emit_json(args, payload)
    if args.out:
        header = ["carrier"] + list(labels)
        rows = (["+".join(e["carrier"])] + e["vertex"] for e in entries)
        write_text_atomic(stem + ".csv", _csv_text(header, rows))
    return 2 if mismatch is not None else 0


def _ray_differences(rays, qs, labels, as_float: bool) -> dict:
    """The rays only one route found, each with its carrier and generator."""
    theory = {r.generator.canonical().mults(): r.generator for r in rays}
    oracle = {q.canonical().mults(): q for q in qs}

    def listed(only: dict, other: dict) -> list[dict]:
        return [
            {
                "carrier": [labels[i] for i in only[key].support],
                "generator": _mult_out(only[key], as_float),
            }
            for key in sorted(only.keys() - other.keys())
        ]

    return {"theoryOnly": listed(theory, oracle), "oracleOnly": listed(oracle, theory)}


def cmd_dual(args) -> int:
    kind, obj, labels = _load(args.model)
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
            if not isinstance(data, list):
                raise ValueError("the file must hold a JSON list")
            x = vector_from_strings(data)
        except (OSError, ValueError, RecursionError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot read vector file: {exc}") from exc
        if len(x) != d.n:
            raise ValueError("vector length does not match the model")
        payload["vector"] = vector_to_strings(x)
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
        payload["hull"] = vector_to_strings(hull)
        payload["isbellFixed"] = hull == x
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
            "retractionSubset": [labels_b[i] for i in sorted(emb.mapping)],
        },
    )
    return 0


def cmd_retract(args) -> int:
    kind, obj, labels = _load(args.model)
    d = _metric_of(kind, obj)
    as_float = args.float
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
    in_subset = set(r.subset)

    def rows():
        for k in range(d.n):
            if args.temperature is None:
                # d is a projector, so d_S o d = d_S: R applied to d[:,k] is R[:,k],
                # which is +inf off its listed entries
                cells = ["inf"] * d.n
                for c, e in r.matrix.col_entries[k]:
                    cells[c] = cell_string(e, as_float)
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
                            cells[c] = ratio_string(v.numerator, v.denominator, as_float)
                        else:
                            cells[c] = float_string(v)
            yield [labels[k]] + cells

    _emit(args, _csv_text(["text"] + list(labels), rows()))
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
            rows.append([side_v, float_string(m_val), str(idx)] + _mult_out(q, as_float))
    drift_lines = []
    for side in ("lower", "upper"):
        a = runs[(side, args.big_m)]
        b = runs[(side, 10 * args.big_m)]
        drift_lines.append(
            f"side {side}: {len(a)} vertices at M={float_string(args.big_m)}, "
            f"{len(b)} at M={float_string(10 * args.big_m)}"
        )
        for idx, q in enumerate(a):
            qf = [float(c) for c in q.mults()]
            best, best_dist = None, math.inf
            for p in b:
                dist = max(abs(x - float(c)) for x, c in zip(qf, p.mults()))
                if dist < best_dist:
                    best, best_dist = p, dist
            exact = best == q
            drift_lines.append(
                f"  vertex {idx}: drift {float_string(best_dist)}"
                + (" (interior: exact match)" if exact else "")
            )
    report, table = "\n".join(drift_lines) + "\n", _csv_text(header, rows)
    _emit(args, table if args.out else [report, *table])
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
