"""Seeded inputs, operation lists and output checks for the three workloads.

Set-up writes every input as a corpus or model file, so the program under
test receives only files and argv.  Each operation carries a check built
from reference values computed here, independently of the package; a check
raises CheckFailed on a wrong output and otherwise returns the number of
rays it verified (0 for commands that emit none).

Pool sizes are fixed in work rather than in model count: every slot asks
for a model of a given size *and* a given amount of the work that decides
its cost (weighted rays for `forest`, comparable pairs for `sweep`, exact
text and word counts for `corpus`), so different seeds give different
models but nearly the same run time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from plmpoly.generate import random_forest_plm, random_plm
from plmpoly.model import Plm, model_to_dict

# corpus: texts in the ingested stream, then one model per slice size
CORPUS_TEXTS = 800
SLICE_TEXTS = tuple(range(9, 37, 3))
ZIPF_VOCAB = 400
ZIPF_EXPONENT = 1.1
TEMPERATURE = "0.1"
MAX_LEN = 2  # ingest window length

# forest: (n, work target as a multiple of 3n^2).  The work of a model is
# its lower-ray count times 2n + comparable pairs, which tracks the cost of
# the per-ray certificates and self-checks.  Targets grow geometrically
# (about 1.5n to 12n rays), so op costs spread evenly and no latency
# percentile sits on a jump between groups of slots.
FOREST_SLOTS = tuple((12 + k % 5, 1.5 * 8 ** (k / 19)) for k in range(20))

# sweep: (n, kind, number of comparable pairs); the oracle's basis
# enumeration grows with n plus the constraint count
SWEEP_SLOTS = tuple(
    (n, kind, c)
    for n, per_kind in (
        (4, {"forest": (2, 3, 4), "layered": (1, 2, 3)}),
        (5, {"forest": (3, 4, 6), "layered": (2, 3, 5)}),
        (6, {"forest": (4, 6, 8), "layered": (3, 5, 7)}),
        (7, {"forest": (5, 7, 9), "layered": (5, 7)}),
    )
    for kind, counts in per_kind.items()
    for c in counts
)
ISBELL_MAX_N = 5
# every model slot takes the closest of this many draws; a fixed count keeps
# set-up time the same for every seed
DRAWS = 60
MAX_DRAWS = 100_000


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str  # ingest, check, rays, retract, smooth, dual or isbell
    name: str  # path-free label, part of the digest
    argv: list[str]
    check: Callable[[str], int]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def digest_view(op: Op, out: str) -> str:
    """The part of an output that must repeat byte for byte.

    Smoothed readings are floats, so only their label column counts.
    """
    if op.kind == "smooth":
        return "\n".join(line.split(",", 1)[0] for line in out.splitlines())
    return out


# ---------------------------------------------------------------------------
# corpus


def zipf_stream(rng: random.Random, n_texts: int, n_words: int | None = None) -> list[str]:
    """Zipf token stream with exactly `n_texts` distinct windows.

    With `n_words`, also exactly that many distinct tokens: retraction
    onto the one-token texts costs in proportion to their number.
    """
    vocab = [f"t{r}" for r in range(ZIPF_VOCAB)]
    cum, acc = [], 0.0
    for r in range(ZIPF_VOCAB):
        acc += 1.0 / (r + 1) ** ZIPF_EXPONENT
        cum.append(acc)
    for _ in range(MAX_DRAWS):
        toks: list[str] = []
        seen: set[tuple[str, ...]] = set()
        while len(seen) < n_texts:
            toks.append(rng.choices(vocab, cum_weights=cum)[0])
            for length in range(1, min(MAX_LEN, len(toks)) + 1):
                seen.add(tuple(toks[-length:]))
        if len(seen) == n_texts and n_words in (None, len(set(toks))):
            return toks
    raise RuntimeError("no stream met the requested size after many draws")


def ingest_reference(tokens: list[str]) -> dict:
    """The two-sided model `plmpoly ingest` must write, by direct sub-window listing."""
    occ: Counter = Counter(
        tuple(tokens[k : k + length])
        for length in range(1, MAX_LEN + 1)
        for k in range(len(tokens) - length + 1)
    )
    texts = sorted(occ, key=lambda t: (len(t), t))
    idx = {t: i for i, t in enumerate(texts)}
    pairs = {
        (idx[b[k : k + length]], idx[b])
        for b in texts
        for length in range(1, len(b))
        for k in range(len(b) - length + 1)
    }
    return {
        "texts": [list(t) for t in texts],
        "orderMode": "two-sided",
        "pr": [
            {"from": i, "to": j, "p": str(Fraction(occ[texts[j]], occ[texts[i]]))}
            for i, j in sorted(pairs)
        ],
        "includeEmpty": False,
    }


def _labels(model: dict) -> list[str]:
    return [" ".join(t) for t in model["texts"]]


def _pr(model: dict) -> dict[tuple[int, int], Fraction]:
    return {(e["from"], e["to"]): Fraction(e["p"]) for e in model["pr"]}


def _column(pr: dict, n: int, k: int) -> list[Fraction | None]:
    """Column k of the multiplicative metric; None stands for +inf."""
    return [Fraction(1) if i == k else pr.get((i, k)) for i in range(n)]


def _check_ingest(expected: dict) -> Callable[[str], int]:
    def check(out: str) -> int:
        _require(json.loads(out) == expected, "ingested model differs from the reference")
        return 0

    return check


def _check_pass_lines(out: str) -> int:
    rows = [line.split() for line in out.splitlines()]
    _require(len(rows) == 4, f"expected 4 check rows, got {len(rows)}")
    for row in rows:
        _require(len(row) >= 2 and row[1] == "PASS", f"check row not PASS: {' '.join(row)}")
    return 0


def _retract_cells(model: dict) -> tuple[list[str], list[list[Fraction | None]]]:
    """Retraction onto the single-token texts, per generator.

    A text lies below a one-token text only if it is that text, so the
    retracted generator k keeps d(i, k) on one-token texts i and is +inf
    elsewhere.
    """
    labels, pr, n = _labels(model), _pr(model), len(model["texts"])
    words = [len(t) <= 1 for t in model["texts"]]
    rows = [
        [c if words[i] else None for i, c in enumerate(_column(pr, n, k))]
        for k in range(n)
    ]
    return labels, rows


def _check_retract(model: dict) -> Callable[[str], int]:
    labels, rows = _retract_cells(model)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["text"] + labels)
    for label, row in zip(labels, rows):
        w.writerow([label] + ["inf" if c is None else str(c) for c in row])
    expected = buf.getvalue()

    def check(out: str) -> int:
        _require(out == expected, "retraction differs from the reference")
        return 0

    return check


def _check_smooth(model: dict) -> Callable[[str], int]:
    """Each smoothed cell has one finite term, so it reads p ** (1 / T)."""
    labels, rows = _retract_cells(model)
    power = 1 / float(TEMPERATURE)

    def check(out: str) -> int:
        got = list(csv.reader(io.StringIO(out)))
        _require(got[0] == ["text"] + labels, "smoothed table header differs")
        _require(len(got) == len(rows) + 1, "smoothed table has the wrong row count")
        for label, row, line in zip(labels, rows, got[1:]):
            _require(line[0] == label and len(line) == len(row) + 1, f"bad row {label!r}")
            for c, cell in zip(row, line[1:]):
                want = 0.0 if c is None else float(c) ** power
                _require(
                    math.isclose(float(cell), want, rel_tol=1e-9, abs_tol=0.0),
                    f"smoothed cell {cell} != {want} in row {label!r}",
                )
        return 0

    return check


def _check_dual(model: dict) -> Callable[[str], int]:
    labels, pr, n = _labels(model), _pr(model), len(model["texts"])

    def strings(col, f, inf):
        return [inf if c is None else str(f(c)) for c in col]

    expected = {
        "command": "dual",
        "count": n,
        "pairs": [
            {
                "text": labels[k],
                "yoneda": strings(_column(pr, n, k), lambda c: c, "inf"),
                "negated": strings(_column(pr, n, k), lambda c: 1 / c, "-inf"),
            }
            for k in range(n)
        ],
    }

    def check(out: str) -> int:
        _require(json.loads(out) == expected, "duality pairs differ from the reference")
        return 0

    return check


def _check_isbell(model: dict) -> Callable[[str], int]:
    n = len(model["texts"])

    def check(out: str) -> int:
        got = json.loads(out)
        _require(got.get("closureSize", 0) >= n, "closure smaller than the generator family")
        _require(isinstance(got.get("outsideIsbell"), list), "missing outsideIsbell")
        return 0

    return check


def _check_rays(model: dict, side: str, method: str, count: int | None) -> Callable[[str], int]:
    """Every ray must be a nonzero point of the cone, listed once, on its carrier."""
    labels = _labels(model)
    cons = [(e["from"], e["to"], Fraction(e["p"])) for e in model["pr"]]
    if side == "upper":
        cons = [(j, i, p) for i, j, p in cons]

    def check(out: str) -> int:
        got = json.loads(out)
        _require(got["method"] == method, f"method {got['method']} != {method}")
        _require("oracleMismatch" not in got, "oracle mismatch")
        _require(got["labels"] == labels, "labels differ")
        rays = got["rays"]
        _require(got["count"] == len(rays), "count differs from the ray list")
        if count is not None:
            _require(len(rays) == count, f"{len(rays)} rays, expected {count}")
        seen = set()
        for r in rays:
            z = [Fraction(s) for s in r["generator"]]
            _require(all(c >= 0 for c in z) and any(z), "generator outside the orthant")
            _require(
                all(z[i] >= p * z[j] for i, j, p in cons), "generator violates a constraint"
            )
            support = [labels[i] for i, c in enumerate(z) if c]
            _require(r["carrier"] == support, "carrier is not the generator's support")
            key = tuple(z)
            _require(key not in seen, "ray listed twice")
            seen.add(key)
        return len(rays)

    return check


def forest_lower_rays(texts) -> int:
    """Connected lower sets of a forest order: rooted subtrees, counted by DP.

    In a forest model a text's parent is the text minus its last token.
    """
    idx = {tuple(t): i for i, t in enumerate(texts)}
    kids: dict[int, list[int]] = {i: [] for i in range(len(texts))}
    roots = []
    for i, t in enumerate(texts):
        if len(t) == 1:
            roots.append(i)
        else:
            kids[idx[tuple(t[:-1])]].append(i)
    memo: dict[int, int] = {}
    for i in sorted(kids, key=lambda i: -len(texts[i])):  # children first
        memo[i] = math.prod(1 + memo[c] for c in kids[i])
    return sum(memo[r] for r in roots)


# ---------------------------------------------------------------------------
# pools


def _closest(make: Callable[[], Plm], size: Callable[[Plm], float], target: float) -> dict:
    """The one of DRAWS models whose size is closest to the target (first on ties)."""
    return model_to_dict(min((make() for _ in range(DRAWS)), key=lambda m: abs(size(m) - target)))


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def corpus_ops(
    rng: random.Random,
    workdir: Path,
    corpus_texts: int = CORPUS_TEXTS,
    slice_texts: tuple[int, ...] = SLICE_TEXTS,
) -> list[Op]:
    """`ingest` on a Zipf corpus, then check/retract/smooth/dual per slice model."""
    tokens = zipf_stream(rng, corpus_texts)
    corpus = workdir / "corpus.txt"
    corpus.write_text(" ".join(tokens) + "\n", encoding="utf-8")
    ops = [
        Op(
            "ingest",
            "ingest corpus",
            ["ingest", str(corpus), "--max-len", str(MAX_LEN)],
            _check_ingest(ingest_reference(tokens)),
        )
    ]
    for size in slice_texts:
        # 4/9 of the texts being single tokens is the most common split here
        model = ingest_reference(zipf_stream(rng, size, size * 4 // 9))
        path = _write_json(workdir / f"slice{size}.json", model)
        tag = f"slice{size}"
        ops += [
            Op("check", f"check {tag}", ["check", path], _check_pass_lines),
            Op("retract", f"retract {tag}", ["retract", path, "--max-len", "1"], _check_retract(model)),
            Op(
                "smooth",
                f"smooth {tag}",
                ["retract", path, "--max-len", "1", "--temperature", TEMPERATURE],
                _check_smooth(model),
            ),
            Op("dual", f"dual {tag}", ["dual", path], _check_dual(model)),
        ]
    return ops


def forest_ops(
    rng: random.Random, workdir: Path, slots: tuple = FOREST_SLOTS
) -> list[Op]:
    """`rays` on both sides of forest models, theory route, no oracle."""
    ops = []
    for s, (n, mult) in enumerate(slots):
        model = _closest(
            lambda: random_forest_plm(rng, n),
            lambda m: forest_lower_rays(m.texts) * (2 * n + len(m.pr)),
            mult * 3 * n * n,
        )
        path = _write_json(workdir / f"forest{s:03d}.json", model)
        expected = {"lower": forest_lower_rays(model["texts"]), "upper": n}
        for side in ("lower", "upper"):
            ops.append(
                Op(
                    "rays",
                    f"rays forest{s:03d} {side}",
                    ["rays", path, "--side", side],
                    _check_rays(model, side, "lower-sets", expected[side]),
                )
            )
    return ops


def sweep_ops(
    rng: random.Random, workdir: Path, slots: tuple = SWEEP_SLOTS
) -> list[Op]:
    """Small mixed models: oracle-checked rays on both sides, check, dual, Isbell closure."""
    ops = []
    for s, (n, kind, n_pairs) in enumerate(slots):
        model = _closest(lambda: random_plm(rng, n, kind), lambda m: len(m.pr), n_pairs)
        path = _write_json(workdir / f"sweep{s:03d}.json", model)
        tag = f"sweep{s:03d}"
        for side in ("lower", "upper"):
            ops.append(
                Op(
                    "rays",
                    f"rays {tag} {side}",
                    ["rays", path, "--side", side, "--oracle"],
                    _check_rays(model, side, "lower-sets+oracle", None),
                )
            )
        ops.append(Op("check", f"check {tag}", ["check", path], _check_pass_lines))
        ops.append(Op("dual", f"dual {tag}", ["dual", path], _check_dual(model)))
        if n <= ISBELL_MAX_N:
            ops.append(
                Op("isbell", f"isbell {tag}", ["isbell", path, "--compare-span"], _check_isbell(model))
            )
    return ops


OP_LISTS = {"corpus": corpus_ops, "forest": forest_ops, "sweep": sweep_ops}
