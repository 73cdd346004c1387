"""Extension-probability models over partially ordered sets of texts.

A model assigns to each comparable pair of texts (subtext <= supertext) an
exact rational extension probability, multiplicative along chains.  The
induced directed metric d(a,b) = -log Pr(b|a) (with +inf off the order) is
the object everything downstream works with.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .tropical import (
    ExtReal,
    POS_INF,
    ZERO,
    TropMatrix,
    Rational,
    _as_fraction,
)

Text = tuple[str, ...]

ORDER_MODES = ("one-sided", "two-sided", "explicit")


class ValidationFailed(ValueError):
    """Raised when an operation needs a valid model but got a broken one."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.summary())
        self.report = report


def is_subtext(a: Text, b: Text, order_mode: str) -> bool:
    """Whether a occurs in b: as a prefix (one-sided) or contiguously (two-sided)."""
    la, lb = len(a), len(b)
    if la > lb:
        return False
    if order_mode == "one-sided":
        return b[:la] == a
    if order_mode == "two-sided":
        return any(b[k : k + la] == a for k in range(lb - la + 1))
    raise ValueError(f"unknown order mode {order_mode!r}")


class PartialOrder:
    """A partial order on {0..n-1} held as per-element up-set bitmasks."""

    __slots__ = ("n", "_up", "_down", "_adj")

    def __init__(self, n: int, up_masks: Sequence[int]):
        if n <= 0 or len(up_masks) != n:
            raise ValueError("bad mask table")
        up = tuple(up_masks)
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise ValueError(f"relation not reflexive at {i}")
        for i in range(n):
            for j in range(n):
                if i != j and (up[i] >> j) & 1:
                    if (up[j] >> i) & 1:
                        raise ValueError(f"relation not antisymmetric at ({i},{j})")
                    if up[j] & ~up[i]:
                        raise ValueError(f"relation not transitive at ({i},{j})")
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                down[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(
            self, "_adj", tuple((up[i] | down[i]) & ~(1 << i) for i in range(n))
        )

    def __setattr__(self, *a):
        raise AttributeError("PartialOrder is immutable")

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]], close: bool = False) -> "PartialOrder":
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) out of range")
            up[i] |= 1 << j
        if close:
            up = [reach(up, 1 << i, (1 << n) - 1) for i in range(n)]
        return PartialOrder(n, up)

    @staticmethod
    def from_texts(texts: Sequence[Text], order_mode: str) -> "PartialOrder":
        n = len(texts)
        up = [
            sum(1 << j for j in range(n) if i == j or is_subtext(texts[i], texts[j], order_mode))
            for i in range(n)
        ]
        return PartialOrder(n, up)

    def leq(self, i: int, j: int) -> bool:
        return bool((self._up[i] >> j) & 1)

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.leq(i, j)
        ]

    def covers(self) -> list[tuple[int, int]]:
        """Edges of the Hasse diagram."""
        out = []
        for i, j in self.strict_pairs():
            between = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
            if not between:
                out.append((i, j))
        return out

    def opposite(self) -> "PartialOrder":
        return PartialOrder(self.n, self._down)

    def connected(self, mask: int) -> bool:
        """Is the comparability graph induced on the masked subset connected?"""
        return mask != 0 and reach(self._adj, mask & -mask, mask) == mask

    def components(self) -> list[tuple[int, ...]]:
        return [bits(c) for c in components_of(self._adj, (1 << self.n) - 1)]


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def reach(adj: Sequence[int], seed: int, mask: int) -> int:
    """Bitmask of the vertices of `mask` reachable from `seed` inside `mask`.

    `adj[i]` is the neighbour bitmask of vertex i; the walk advances one
    whole frontier per round.
    """
    seen = frontier = seed & mask
    while frontier:
        nxt = 0
        for i in bits(frontier):
            nxt |= adj[i]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def components_of(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the graph induced on `mask`, by least member."""
    comps = []
    while mask:
        comp = reach(adj, mask & -mask, mask)
        comps.append(comp)
        mask &= ~comp
    return comps


class Plm:
    """Texts, a subtext order, and exact rational extension probabilities.

    The order is derived from token content under `order_mode`; mode
    "explicit" instead takes the order as given (texts act as labels),
    which is how abstract posets with no subtext realization are fed in.
    """

    def __init__(
        self,
        texts: Sequence[Sequence[str]],
        order_mode: str,
        pr: Mapping[tuple[int, int], Rational],
        order: PartialOrder | None = None,
    ):
        tts = tuple(tuple(t) for t in texts)
        if not tts:
            raise ValueError("model needs at least one text")
        if len(set(tts)) != len(tts):
            raise ValueError("texts must be distinct")
        if order_mode not in ORDER_MODES:
            raise ValueError(f"unknown order mode {order_mode!r}")
        if order_mode == "explicit":
            if order is None:
                raise ValueError("explicit order mode needs an order")
        else:
            if order is not None:
                raise ValueError("derived order modes do not take an explicit order")
            order = PartialOrder.from_texts(tts, order_mode)
        if order.n != len(tts):
            raise ValueError("order size does not match text count")
        self.texts = tts
        self.order_mode = order_mode
        self.order = order
        self.pr = {(i, j): _as_fraction(p) for (i, j), p in pr.items()}

    @property
    def n(self) -> int:
        return len(self.texts)

    @property
    def has_empty_text(self) -> bool:
        return () in self.texts

    def label(self, i: int) -> str:
        return " ".join(self.texts[i])

    def labels(self) -> list[str]:
        return [self.label(i) for i in range(self.n)]

    def index_of_label(self, label: str) -> int:
        toks = tuple(label.split())
        try:
            return self.texts.index(toks)
        except ValueError:
            raise ValueError(f"no text with label {label!r}") from None


@dataclass
class ValidationReport:
    """Everything that keeps a Plm from being a model; empty means valid."""

    reflexivity: list[tuple[int, Fraction]] = field(default_factory=list)
    extraneous: list[tuple[int, int]] = field(default_factory=list)
    missing: list[tuple[int, int]] = field(default_factory=list)
    nonpositive: list[tuple[int, int, Fraction]] = field(default_factory=list)
    multiplicativity: list[tuple[int, int, int, Fraction, Fraction]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not (
            self.reflexivity
            or self.extraneous
            or self.missing
            or self.nonpositive
            or self.multiplicativity
        )

    def summary(self) -> str:
        if self.ok:
            return "valid"
        parts = []
        if self.reflexivity:
            parts.append(f"self-probability != 1 at {self.reflexivity}")
        if self.extraneous:
            parts.append(f"probability on incomparable pairs {self.extraneous}")
        if self.missing:
            parts.append(f"missing probability for comparable pairs {self.missing}")
        if self.nonpositive:
            parts.append(f"nonpositive probabilities at {self.nonpositive}")
        if self.multiplicativity:
            shown = self.multiplicativity[:5]
            parts.append(
                "multiplicativity fails at "
                + ", ".join(f"({i},{j},{k}): {a} != {b}" for i, j, k, a, b in shown)
            )
        return "; ".join(parts)


def validate_plm(m: Plm) -> ValidationReport:
    rep = ValidationReport()
    order = m.order
    for (i, j), p in sorted(m.pr.items()):
        if i == j:
            if p != 1:
                rep.reflexivity.append((i, p))
            continue
        if not order.leq(i, j):
            rep.extraneous.append((i, j))
        elif p <= 0:
            rep.nonpositive.append((i, j, p))
    have = {(i, j) for (i, j) in m.pr if i != j and order.leq(i, j)}
    for i, j in order.strict_pairs():
        if (i, j) not in have:
            rep.missing.append((i, j))
    if rep.ok:
        for i, j in order.strict_pairs():
            for k in range(m.n):
                if k != i and k != j and order.leq(j, k):
                    lhs = m.pr[(i, k)]
                    rhs = m.pr[(j, k)] * m.pr[(i, j)]
                    if lhs != rhs:
                        rep.multiplicativity.append((i, j, k, lhs, rhs))
    return rep


class DirectedMetric:
    """Square matrix of one-way distances: zero diagonal, triangle exact.

    Entries live in [0, +inf]; `extended=True` admits finite negative
    entries (probabilities above 1).
    """

    __slots__ = ("mat", "extended")

    def __init__(self, mat: TropMatrix, extended: bool = False, require_projector: bool = True):
        n = mat.n
        for i in range(n):
            if mat[i, i] != ZERO:
                raise ValueError(f"diagonal entry {i} is not 0")
        for i in range(n):
            for j in range(n):
                e = mat[i, j]
                if e.is_neg_inf:
                    raise ValueError(f"-inf entry at ({i},{j})")
                if not extended and e.is_finite and e.mult > 1:
                    raise ValueError(f"negative entry at ({i},{j}); pass extended=True")
        if require_projector and not check_projector(mat):
            raise ValueError("triangle inequality fails: d o d != d")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "extended", extended)

    def __setattr__(self, *a):
        raise AttributeError("DirectedMetric is immutable")

    @property
    def n(self) -> int:
        return self.mat.n

    def __getitem__(self, ij: tuple[int, int]) -> ExtReal:
        return self.mat[ij]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectedMetric) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def prob(self, i: int, j: int) -> Fraction:
        """Multiplicative mirror exp(-d[i,j]) of one entry."""
        return self.mat[i, j].mult

    def transpose(self) -> "DirectedMetric":
        t = DirectedMetric.__new__(DirectedMetric)
        object.__setattr__(t, "mat", self.mat.transpose())
        object.__setattr__(t, "extended", self.extended)
        return t

    def min_finite_prob(self) -> Fraction | None:
        """Smallest nonzero multiplicative entry, None if all comparable."""
        best = None
        for row in self.mat.rows:
            for e in row:
                if e.is_finite and e != ZERO and (best is None or e.mult < best):
                    best = e.mult
        return best


def check_projector(mat: TropMatrix) -> bool:
    """Exact idempotency of the (min,+) square: mat o mat == mat."""
    return mat.compose_min(mat) == mat


def metric_from_plm(m: Plm) -> DirectedMetric:
    rep = validate_plm(m)
    if not rep.ok:
        raise ValidationFailed(rep)
    n = m.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(ZERO)
            elif m.order.leq(i, j):
                row.append(ExtReal.from_prob(m.pr[(i, j)]))
            else:
                row.append(POS_INF)
        rows.append(row)
    extended = any(p > 1 for p in m.pr.values())
    return DirectedMetric(TropMatrix(rows), extended=extended)


def order_from_metric(d: DirectedMetric) -> PartialOrder:
    """Recover the order from entry finiteness; rejects non-orders."""
    n = d.n
    up = [
        sum(1 << j for j in range(n) if not d[i, j].is_pos_inf) for i in range(n)
    ]
    return PartialOrder(n, up)


def plm_from_metric(
    d: DirectedMetric, texts: Sequence[Sequence[str]], order_mode: str
) -> Plm:
    """Rebuild the model whose metric is d; exact round-trip."""
    order = order_from_metric(d)
    pr = {(i, j): d.prob(i, j) for i, j in order.strict_pairs()}
    if order_mode == "explicit":
        return Plm(texts, order_mode, pr, order=order)
    m = Plm(texts, order_mode, pr)
    if m.order._up != order._up:
        raise ValueError("metric finiteness disagrees with the subtext order of the texts")
    return m


def kleene_closure(c: TropMatrix) -> DirectedMetric:
    """Iterate C^(k+1) = C o C^k until stable; the limit is a directed metric.

    A strictly negative cycle would keep improving forever; that is
    reported instead of looping.
    """
    n = c.n
    for i in range(n):
        if c[i, i] != ZERO:
            raise ValueError(f"diagonal entry {i} is not 0")
    cur = c
    for _ in range(n + 1):
        nxt = cur.compose_min(c)
        if nxt == cur:
            extended = any(e.is_finite and e.mult > 1 for row in cur.rows for e in row)
            return DirectedMetric(cur, extended=extended)
        cur = nxt
    raise ValueError("closure does not stabilize: negative cycle present")


def truncate_big_m(d: DirectedMetric, big_m: float) -> DirectedMetric:
    """Replace +inf entries by the finite value M (an exact stand-in).

    Warns when M is not above every finite entry; the result is checked
    for idempotency and a failure there warns as well (it is guaranteed
    only for M at least twice the largest finite entry).
    """
    if big_m <= 0:
        raise ValueError("M must be positive")
    eps = ExtReal.from_log(float(big_m))
    if eps == ZERO or eps.is_pos_inf:
        raise ValueError("M out of representable range")
    minp = d.min_finite_prob()
    if minp is not None and eps.mult >= minp:
        warnings.warn("M is not above the largest finite entry", stacklevel=2)
    rows = [
        [eps if e.is_pos_inf else e for e in row] for row in d.mat.rows
    ]
    out = DirectedMetric(TropMatrix(rows), extended=d.extended, require_projector=False)
    ok = check_projector(out.mat)
    if minp is None or eps.mult <= minp * minp:
        assert ok, "idempotency must hold for M >= 2 * max finite entry"
    elif not ok:
        warnings.warn("truncated matrix is not idempotent (M too small)", stacklevel=2)
    return out


@dataclass(frozen=True)
class Potential:
    """Multiplicative potential on one comparability component.

    values[i] / values[j] reproduces every extension probability
    Pr(a_i | a_j) inside the component; values[ref] == 1.
    """

    members: tuple[int, ...]
    ref: int
    values: dict[int, Fraction]


def potential(
    order: PartialOrder,
    pr: Mapping[tuple[int, int], Fraction],
    mask: int,
    ref: int,
) -> dict[int, Fraction]:
    """Path-weight potential on the part of `mask` connected to `ref`.

    Walking up an order edge multiplies by the edge probability, walking
    down divides by it; path independence is checked on every closing edge.
    """
    values: dict[int, Fraction] = {ref: Fraction(1)}
    stack = [ref]
    while stack:
        i = stack.pop()
        for j in bits(order._adj[i] & mask):
            w = values[i] * pr[(i, j)] if order.leq(i, j) else values[i] / pr[(j, i)]
            if j in values:
                if values[j] != w:
                    raise ValueError(
                        f"path-dependent potential: cycle through edge ({i},{j})"
                    )
            else:
                values[j] = w
                stack.append(j)
    return values


def potentials(m: Plm, refs: Mapping[int, int] | None = None) -> list[Potential]:
    """Path-weight potentials per component, ref defaulting to the least index."""
    out = []
    for comp_id, mask in enumerate(components_of(m.order._adj, (1 << m.n) - 1)):
        comp = bits(mask)
        ref = comp[0] if refs is None else refs.get(comp_id, comp[0])
        if ref not in comp:
            raise ValueError(f"reference {ref} is not in component {comp}")
        values = potential(m.order, m.pr, mask, ref)
        out.append(Potential(members=comp, ref=ref, values=values))
    return out


def ingest_corpus(
    tokens: Sequence[str],
    order_mode: str = "two-sided",
    max_len: int = 2,
    include_empty: bool = False,
) -> Plm:
    """Model of all length<=max_len windows with occurrence-ratio probabilities."""
    toks = tuple(tokens)
    if not toks:
        raise ValueError("empty corpus")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > len(toks):
        raise ValueError("max_len exceeds the corpus length")
    occ: dict[Text, int] = {}
    for length in range(1, max_len + 1):
        for k in range(len(toks) - length + 1):
            w = toks[k : k + length]
            occ[w] = occ.get(w, 0) + 1
    if include_empty:
        occ[()] = len(toks) + 1  # one occurrence per boundary position
    texts = sorted(occ, key=lambda t: (len(t), t))
    idx = {t: i for i, t in enumerate(texts)}
    pr = {}
    for a in texts:
        for b in texts:
            if a != b and is_subtext(a, b, order_mode):
                pr[(idx[a], idx[b])] = Fraction(occ[b], occ[a])
    return Plm(texts, order_mode, pr)


# ---------------------------------------------------------------------------
# file formats


def _frac_str(p: Fraction) -> str:
    return str(p)


def model_to_dict(m: Plm) -> dict:
    d = {
        "texts": [list(t) for t in m.texts],
        "orderMode": m.order_mode,
        "pr": [
            {"from": i, "to": j, "p": _frac_str(p)}
            for (i, j), p in sorted(m.pr.items())
        ],
        "includeEmpty": m.has_empty_text,
    }
    if m.order_mode == "explicit":
        d["order"] = [[i, j] for i, j in m.order.strict_pairs()]
    return d


def model_from_dict(data: dict) -> Plm:
    try:
        texts = [tuple(t) for t in data["texts"]]
        order_mode = data.get("orderMode", "two-sided")
        pr = {}
        for row in data.get("pr", []):
            i, j = int(row["from"]), int(row["to"])
            p = Fraction(str(row["p"]))
            if i == j and p == 1:
                continue
            pr[(i, j)] = p
        order = None
        if order_mode == "explicit":
            order = PartialOrder.from_pairs(
                len(texts), [(int(i), int(j)) for i, j in data["order"]], close=True
            )
        return Plm(texts, order_mode, pr, order=order)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad model data: {exc}") from exc


def metric_to_dict(d: DirectedMetric, labels: Sequence[str] | None = None) -> dict:
    return {
        "labels": list(labels) if labels else [str(i) for i in range(d.n)],
        "metric": [
            ["0" if e.is_pos_inf else _frac_str(e.mult) for e in row]
            for row in d.mat.rows
        ],
    }


def metric_from_dict(
    data: dict, require_projector: bool = True
) -> tuple[DirectedMetric, list[str]]:
    try:
        rows = data["metric"]
        labels = [str(x) for x in data.get("labels", range(len(rows)))]
        mat = TropMatrix.from_probs([[Fraction(str(v)) for v in row] for row in rows])
        if len(labels) != mat.n:
            raise ValueError(f"{len(labels)} labels for a {mat.n}x{mat.n} metric")
        extended = any(e.is_finite and e.mult > 1 for row in mat.rows for e in row)
        return DirectedMetric(mat, extended=extended, require_projector=require_projector), labels
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad metric data: {exc}") from exc


def load_model_file(path: str, require_projector: bool = True):
    """Read a model or general-metric JSON file.

    Returns ("plm", Plm, labels) or ("metric", DirectedMetric, labels).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("model file must hold a JSON object")
    if "metric" in data:
        d, labels = metric_from_dict(data, require_projector=require_projector)
        return "metric", d, labels
    m = model_from_dict(data)
    return "plm", m, m.labels()


def write_json_atomic(path: str, data) -> None:
    """Serialize with a temp file + rename so readers never see partial output."""
    dir_ = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dir_, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    dir_ = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dir_, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
