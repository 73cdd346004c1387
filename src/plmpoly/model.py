"""Extension-probability models over partially ordered sets of texts.

A model assigns to each comparable pair of texts (subtext <= supertext) an
exact rational extension probability, and it is valid when one potential w
reproduces every one of them: Pr(b|a) = w_b / w_a, a ratio of text
probabilities.  The induced directed metric d(a,b) = -log Pr(b|a) (with
+inf off the order) is the object everything downstream works with.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .files import read_json, read_rational
from .tropical import (
    ExtReal,
    NEG_INF,
    POS_INF,
    ZERO,
    TropMatrix,
    Rational,
    _as_fraction,
    _index0,
    _pair,
    bits,
    verify,
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
            for j in bits(up[i] & ~(1 << i)):
                if (up[j] >> i) & 1:
                    raise ValueError(f"relation not antisymmetric at ({i},{j})")
                if up[j] & ~up[i]:
                    raise ValueError(f"relation not transitive at ({i},{j})")
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                down[j] |= 1 << i
        self._set_masks(up, down)

    def _set_masks(self, up: Sequence[int], down: Sequence[int]) -> None:
        """Set the slots from the up-sets and down-sets of a partial order."""
        adj = tuple((u | d) & ~(1 << i) for i, (u, d) in enumerate(zip(up, down)))
        self._set(len(up), tuple(up), tuple(down), adj)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("PartialOrder is immutable")

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "PartialOrder":
        """The least partial order holding every pair (i, j) as i <= j.

        The pairs are closed reflexively and transitively; a cycle among
        them leaves the closure not antisymmetric, and that is an error.
        """
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) out of range")
            up[i] |= 1 << j
        return PartialOrder(n, [reach(up, 1 << i, (1 << n) - 1) for i in range(n)])

    @staticmethod
    def from_texts(texts: Sequence[Text], order_mode: str) -> "PartialOrder":
        """Subtext order, found by listing each text's own sub-windows.

        A text's sub-windows are its prefixes (one-sided) or its contiguous
        windows (two-sided), the empty window included; the ones that are
        texts of the model lie below it.  This agrees with `is_subtext` on
        every pair, and is a partial order by construction, not re-checked.
        Each window found sets its bits in the up-sets and the down-sets at once.
        """
        if order_mode not in ("one-sided", "two-sided"):
            raise ValueError(f"unknown order mode {order_mode!r}")
        index = {t: i for i, t in enumerate(texts)}
        if not index or len(index) != len(texts):
            raise ValueError("texts must be nonempty and distinct")
        up, down = [0] * len(texts), []
        for j, t in enumerate(texts):
            lt, bit, below = len(t), 1 << j, 0
            starts = (0,) if order_mode == "one-sided" else range(lt + 1)
            for a in starts:
                for b in range(a, lt + 1):
                    i = index.get(t[a:b])
                    if i is not None:
                        up[i] |= bit
                        below |= 1 << i
            down.append(below)
        o = PartialOrder.__new__(PartialOrder)
        o._set_masks(up, down)
        return o

    def leq(self, i: int, j: int) -> bool:
        return bool((self._up[i] >> j) & 1)

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self._up[i] & ~(1 << i))]

    def opposite(self) -> "PartialOrder":
        """The reverse order; it is a partial order, so nothing is re-checked."""
        o = PartialOrder.__new__(PartialOrder)
        o._set(self.n, self._down, self._up, self._adj)
        return o

    def connected(self, mask: int) -> bool:
        """Is the comparability graph induced on the masked subset connected?"""
        return mask != 0 and reach(self._adj, mask & -mask, mask) == mask

    def components(self) -> list[tuple[int, ...]]:
        return [bits(c) for c in components_of(self._adj, (1 << self.n) - 1)]


def reach(adj: Sequence[int], seed: int, mask: int) -> int:
    """Bitmask of the vertices of `mask` reachable from `seed` inside `mask`.

    `adj[i]` is the neighbour bitmask of vertex i; the walk advances one
    whole frontier per round, taking its bits off one at a time.
    """
    seen = frontier = seed & mask
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
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

    A Plm is not changed once built: `validate_plm` keeps the potential
    it walks in `_potential`, each weight as its reduced pair (num, den),
    and the ray generators keep their per-side values, order and metric
    in `_side_cones`, so none is built twice for one model.
    """

    def __init__(
        self,
        texts: Sequence[Sequence[str]],
        order_mode: str,
        pr: Mapping[tuple[int, int], Rational],
        order: PartialOrder | None = None,
    ):
        self._setup(texts, order_mode, pr, order, None)

    def _setup(self, texts, order_mode, pr, order, subtext_order) -> None:
        """`__init__`; `ingest_corpus` alone passes a `subtext_order`, the
        derived order it already built from these texts, which `order` refuses."""
        tts = tuple(tuple(t) for t in texts)
        if not tts:
            raise ValueError("model needs at least one text")
        if len(set(tts)) != len(tts):
            raise ValueError("texts must be distinct")
        # a label joins tokens with spaces, so ("a b",) and ("a", "b") would share one
        labels = tuple(map(" ".join, tts))
        if len(set(labels)) != len(labels):
            seen: set[str] = set()
            label = next(x for x in labels if x in seen or seen.add(x))
            raise ValueError(f"labels must be distinct: {label!r} repeats")
        if order_mode not in ORDER_MODES:
            raise ValueError(f"unknown order mode {order_mode!r}")
        if order_mode == "explicit":
            if order is None:
                raise ValueError("explicit order mode needs an order")
        else:
            if order is not None:
                raise ValueError("derived order modes do not take an explicit order")
            order = subtext_order or PartialOrder.from_texts(tts, order_mode)
        if order.n != len(tts):
            raise ValueError("order size does not match text count")
        for i, j in pr:
            if not (0 <= i < len(tts) and 0 <= j < len(tts)):
                raise ValueError(f"pair ({i},{j}) out of range")
        self.texts = tts
        self._labels = labels
        self.order_mode = order_mode
        self.order = order
        self.pr = {(i, j): _as_fraction(p) for (i, j), p in pr.items()}
        self._potential: dict[int, tuple[int, int]] | None = None
        self._side_cones: dict = {}

    @property
    def n(self) -> int:
        return len(self.texts)

    @property
    def has_empty_text(self) -> bool:
        return () in self.texts

    def label(self, i: int) -> str:
        return self._labels[i]

    def labels(self) -> list[str]:
        return list(self._labels)


@dataclass
class ValidationReport:
    """Everything that keeps a Plm from being a model; empty means valid."""

    reflexivity: list[tuple[int, Fraction]] = field(default_factory=list)
    extraneous: list[tuple[int, int]] = field(default_factory=list)
    missing: list[tuple[int, int]] = field(default_factory=list)
    nonpositive: list[tuple[int, int, Fraction]] = field(default_factory=list)
    # (i, j, Pr(a_j|a_i), w_j / w_i) on the first order edge the potential misses
    multiplicativity: list[tuple[int, int, Fraction, Fraction]] = field(default_factory=list)

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
        for i, j, p, q in self.multiplicativity:
            parts.append(
                f"multiplicativity fails on edge ({i},{j}): "
                f"Pr is {p}, the path-dependent potential gives {q}"
            )
        return "; ".join(parts)


def validate_plm(m: Plm) -> ValidationReport:
    """Check the model axioms, the last being that `potential` exists.

    One pass over the probabilities masks each row's listed pairs; the bits
    where a mask and the row's up-set differ are the extraneous and the
    missing pairs.  Each list of the report is in ascending pair order.

    A potential implies the chain rule Pr(k|i) = Pr(k|j) Pr(j|i), both sides
    being w_k / w_i; it also refuses models that the chain rule lets through,
    path-dependent around a cycle that no chain explains (the crown a, b <= c, d).
    The potential of a valid model is kept on it, and read from there by
    later calls.
    """
    rep = ValidationReport()
    up = m.order._up
    listed = [1 << i for i in range(m.n)]
    zeros = []
    for (i, j), p in m.pr.items():
        if i == j:
            if p != 1:
                rep.reflexivity.append((i, p))
        else:
            listed[i] |= 1 << j
            if p.numerator <= 0:
                zeros.append((i, j, p))
    rep.reflexivity.sort()
    rep.nonpositive = [(i, j, p) for i, j, p in sorted(zeros) if (up[i] >> j) & 1]
    for i, (u, have) in enumerate(zip(up, listed)):
        if u != have:
            rep.extraneous += [(i, j) for j in bits(have & ~u)]
            rep.missing += [(i, j) for j in bits(u & ~have)]
    if rep.ok and m._potential is None:
        try:
            m._potential = _potential_pairs(m, (1 << m.n) - 1)
        except ValidationFailed as exc:
            rep.multiplicativity = exc.report.multiplicativity
    return rep


def potential(m: Plm, mask: int) -> dict[int, Fraction]:
    """Weights w on `mask` with Pr(a_j|a_i) = w_j / w_i on every order edge in it.

    One walk per component of the comparability graph induced on `mask`,
    starting from 1 at the component's least index: stepping up an edge
    multiplies by its probability, stepping down divides by it.  Every
    edge that closes a cycle is checked, and the first that disagrees
    raises `ValidationFailed` with the edge and both values.
    """
    return {i: Fraction(a, b) for i, (a, b) in _potential_pairs(m, mask).items()}


def _potential_pairs(m: Plm, mask: int) -> dict[int, tuple[int, int]]:
    """`potential`'s walk, each weight kept as its reduced pair (num, den).

    A step multiplies by a probability's own pair, or by the pair swapped
    when a bit test on the up-set says the edge points down; the product is
    reduced when it sets a weight, and an edge back to a weight already set
    is checked by cross-multiplication: a/b = c/d exactly when ad = bc.
    """
    adj, ups, pr = m.order._adj, m.order._up, m.pr
    w: dict[int, tuple[int, int]] = {}
    left = mask
    while left:
        start = (left & -left).bit_length() - 1
        w[start] = (1, 1)
        stack = [start]
        left &= left - 1
        while stack:
            i = stack.pop()
            num, den = w[i]
            up = ups[i]
            rest = adj[i] & mask
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if up & low:
                    p = pr[(i, j)]
                    a, b = num * p.numerator, den * p.denominator
                else:
                    p = pr[(j, i)]
                    a, b = num * p.denominator, den * p.numerator
                wj = w.get(j)
                if wj is None:
                    g = gcd(a, b)
                    w[j] = (a // g, b // g)
                    stack.append(j)
                    left ^= low
                elif wj[0] * b != a * wj[1]:
                    lo, hi = (i, j) if up & low else (j, i)
                    q = Fraction(*w[hi]) / Fraction(*w[lo])
                    edge = (lo, hi, pr[(lo, hi)], q)
                    raise ValidationFailed(ValidationReport(multiplicativity=[edge]))
    return w


class DirectedMetric:
    """Square matrix of one-way distances: zero diagonal, triangle exact.

    Entries live in (-inf, +inf]; a finite negative entry is a probability
    above 1.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: TropMatrix, require_projector: bool = True):
        if not require_projector:
            _refuse_non_metric(mat)
        elif not check_projector(mat):
            raise ValueError("triangle inequality fails: d o d != d")
        object.__setattr__(self, "mat", mat)

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
        return t

    def min_finite_prob(self) -> Fraction | None:
        """Smallest nonzero multiplicative entry, None if all comparable."""
        mults = [e.mult for entries in self.mat.row_entries for _, e in entries if e != ZERO]
        return min(mults, default=None)


def _refuse_non_metric(mat: TropMatrix) -> None:
    """Raise `ValueError` at the first row with a diagonal entry not 0 or a -inf entry."""
    for i, entries in enumerate(mat.row_entries):
        diagonal, neg_inf_at = POS_INF, None
        for j, e in entries:
            if j == i:
                diagonal = e
            elif e is NEG_INF and neg_inf_at is None:
                neg_inf_at = j
        if diagonal != ZERO:
            raise ValueError(f"diagonal entry {i} is not 0")
        if neg_inf_at is not None:
            raise ValueError(f"-inf entry at ({i},{neg_inf_at})")


def _failures(
    mat: TropMatrix, fill: ExtReal, entries: Sequence[tuple[int, ExtReal]]
) -> Iterator[tuple[int, int]]:
    """Each (i, j) with x_i > d_ij + x_j, for d = mat and x given by its fill and entries.

    The one walk of the inequalities: `polyhedron.membership` asks it
    for a first failure, `polyhedron.violation` for the least one in
    row-major order, and `check_projector` for one in any column of d.
    d has no -inf entry.  An entry it leaves out, d_ij = +inf, gives
    x_i <= +inf and holds, and so does the diagonal, x_i <= 0 + x_i.

    With fill +inf, an inequality whose x_j is unlisted reads x_i <= +inf
    and holds, so only d's columns j at x's listed indices are read; each
    entry (i, d_ij) there has a right side that is finite or -inf, and an
    unlisted x_i = +inf fails it.  Each is one cross-multiplied integer
    comparison of mirrors: with x_k = num_k/den_k (+inf is 0/1, -inf
    1/0) and d_ij's mirror a/b, it reads num_i * b * den_j >= a * num_j *
    den_i, infinities included, as (min,+) adds logs by multiplying
    mirrors and +inf then absorbs.

    With fill -inf, d's rows i at x's listed indices are read instead.
    An unlisted x_i = -inf satisfies every inequality.  A listed x_i is
    not -inf, and an entry d_ij of its row whose x_j is unlisted gives
    the right side d_ij + (-inf) = -inf: x_i fails it at once.  Every
    other entry of the row has x_j listed, and is one such comparison.

    Each pair is yielded as it is found, so a caller that stops at the
    first reads no further; no vector and no `Fraction` is built.
    """
    get = dict(entries).get
    if fill is POS_INF:
        cols = mat.col_entries
        for j, xj in entries:
            jn, jd = xj.num, xj.den
            for i, a in cols[j]:
                xi = get(i, POS_INF)
                if xi.num * a.den * jd < a.num * jn * xi.den:
                    yield i, j
    else:
        rows = mat.row_entries
        for i, xi in entries:
            inn, ind = xi.num, xi.den
            for j, a in rows[i]:
                xj = get(j)
                if xj is None or inn * a.den * xj.den < a.num * xj.num * ind:
                    yield i, j


def check_projector(mat: TropMatrix) -> bool:
    """Exact idempotency of the (min,+) square, mat o mat == mat, with no product built.

    mat must have a zero diagonal and no -inf entry, as a metric does;
    any other matrix is refused with `ValueError`.  Then (mat o mat)_ik =
    min_j mat_ij + mat_jk has the term j = i, mat_ii + mat_ik = mat_ik,
    so it is at most mat_ik, and equal to it exactly when every term is
    at least mat_ik: mat_ik <= mat_ij + mat_jk for every j.  Those are
    the inequalities x_i <= mat_ij + x_j of the polyhedron, for x the
    column mat[:,k].  So mat o mat == mat exactly when no column of mat
    fails one, which the walk of `_failures` decides column by column,
    each a vector with fill +inf, as no entry is -inf.

    The zero diagonal is needed: the 1x1 matrix [a] with a > 0 has the
    square [2a] != [a], yet its column meets x_0 <= a + x_0.
    """
    _refuse_non_metric(mat)
    return all(next(_failures(mat, POS_INF, col), None) is None for col in mat.col_entries)


def metric_from_plm(m: Plm) -> DirectedMetric:
    """The metric d(i,k) = -log Pr(a_k|a_i) of a valid model, +inf off the order.

    d is a projector (d o d == d) by validation alone, so it is not checked
    again.  Validation found a potential w with d(i,k) = log w_i - log w_k
    for i <= k.  A finite term d(i,j) + d(j,k) of (d o d)(i,k) needs a chain
    i <= j <= k, and then it telescopes to log w_i - log w_k = d(i,k).  The
    term j = i is always there, so the minimum is d(i,k) when i <= k.  When
    i is not below k, no chain exists, every term is +inf and so is the
    entry.

    Validation also found a probability on every comparable pair and on
    no other, and 1 on a listed diagonal pair, so row i, read off the
    listed pairs (i, k) and sorted, lists exactly the up-set of i: 0 on the
    diagonal and each Pr(a_k|a_i), a reduced positive Fraction, as its pair.
    """
    rep = validate_plm(m)
    if not rep.ok:
        raise ValidationFailed(rep)
    lines = [[(i, ZERO)] for i in range(m.n)]
    for (i, k), p in m.pr.items():
        if i != k:
            lines[i].append((k, _pair(p.numerator, p.denominator)))
    for line in lines:
        line.sort(key=_index0)
    return DirectedMetric(TropMatrix.from_entries(m.n, lines), require_projector=False)


def order_from_metric(d: DirectedMetric) -> PartialOrder:
    """Recover the order from entry finiteness; rejects non-orders."""
    return PartialOrder(d.n, d.mat.row_masks)


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
            return DirectedMetric(cur)
        cur = nxt
    raise ValueError("closure does not stabilize: negative cycle present")


def truncate_big_m(d: DirectedMetric, big_m: float) -> DirectedMetric:
    """Replace +inf entries by the finite value M (an exact stand-in).

    Warns when M is not above every finite entry; the result is checked
    for idempotency and a failure there warns as well.  It is guaranteed,
    and verified, only when no finite entry is negative (no probability
    above 1) and M is at least twice the largest finite entry.
    """
    if not big_m > 0:  # NaN fails this test too
        raise ValueError("M must be positive")
    try:
        eps = ExtReal.from_log(float(big_m))
    except ValueError:  # no exact stand-in of printable size
        eps = POS_INF
    if eps == ZERO or eps.is_pos_inf:
        raise ValueError("M out of representable range")
    minp = d.min_finite_prob()
    if minp is not None and eps.mult >= minp:
        warnings.warn("M is not above the largest finite entry", stacklevel=2)
    rows = []
    for line in d.mat.row_entries:
        row = [eps] * d.n
        for j, e in line:
            row[j] = e
        rows.append(row)
    out = DirectedMetric(TropMatrix(rows), require_projector=False)
    ok = check_projector(out.mat)
    nonneg = all(e >= ZERO for entries in d.mat.row_entries for _, e in entries)
    if nonneg and (minp is None or eps.mult <= minp * minp):
        verify(ok, "idempotency must hold for M >= 2 * max finite entry")
    elif not ok:
        warnings.warn("truncated matrix is not idempotent (M too small)", stacklevel=2)
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
    order = PartialOrder.from_texts(texts, order_mode)
    pr = {(i, j): Fraction(occ[texts[j]], occ[texts[i]]) for i, j in order.strict_pairs()}
    m = Plm.__new__(Plm)
    m._setup(texts, order_mode, pr, None, order)
    return m


# ---------------------------------------------------------------------------
# the model and metric file schemas


def model_to_dict(m: Plm) -> dict:
    d = {
        "texts": [list(t) for t in m.texts],
        "orderMode": m.order_mode,
        "pr": [
            {"from": i, "to": j, "p": str(p)}
            for (i, j), p in sorted(m.pr.items())
        ],
        "includeEmpty": m.has_empty_text,
    }
    if m.order_mode == "explicit":
        d["order"] = [[i, j] for i, j in m.order.strict_pairs()]
    return d


def model_from_dict(data: dict) -> Plm:
    def index(v) -> int:
        if type(v) is not int:  # bool and float are refused, not rounded
            raise ValueError(f"index {json.dumps(v)} is not an integer")
        return v

    try:
        texts = data["texts"]
        if not isinstance(texts, list) or not all(isinstance(t, list) for t in texts):
            raise ValueError("texts must be a list of token lists")
        texts = [tuple(t) for t in texts]
        if not all(isinstance(tok, str) for t in texts for tok in t):
            raise ValueError("text tokens must be strings")
        order_mode = data.get("orderMode", "two-sided")
        pr = {}
        for row in data.get("pr", []):
            i, j = index(row["from"]), index(row["to"])
            p = read_rational(row["p"])
            # a reflexive row says nothing; one past the texts is kept for Plm to refuse
            if i == j and p == 1 and 0 <= i < len(texts):
                continue
            pr[(i, j)] = p
        order = None
        if order_mode == "explicit":
            pairs = data["order"]
            if not isinstance(pairs, list) or not all(
                isinstance(ij, list) and len(ij) == 2 for ij in pairs
            ):
                raise ValueError("order must be a list of [from, to] pairs")
            order = PartialOrder.from_pairs(len(texts), [(index(i), index(j)) for i, j in pairs])
        return Plm(texts, order_mode, pr, order=order)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad model data: {exc}") from exc


def metric_from_dict(
    data: dict, require_projector: bool = True
) -> tuple[DirectedMetric, list[str]]:
    try:
        rows = data["metric"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("metric must be a list of lists")
        labels = data.get("labels", list(range(len(rows))))
        if not isinstance(labels, list):
            raise ValueError("labels must be a list")
        labels = [str(x) for x in labels]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        mat = TropMatrix.from_probs([[read_rational(v) for v in row] for row in rows])
        if len(labels) != mat.n:
            raise ValueError(f"{len(labels)} labels for a {mat.n}x{mat.n} metric")
        return DirectedMetric(mat, require_projector=require_projector), labels
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad metric data: {exc}") from exc


def load_model_file(path: str, require_projector: bool = True):
    """Read a model or general-metric JSON file.

    Returns ("plm", Plm, labels) or ("metric", DirectedMetric, labels).
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError("model file must hold a JSON object")
    if "metric" in data:
        d, labels = metric_from_dict(data, require_projector=require_projector)
        return "metric", d, labels
    m = model_from_dict(data)
    return "plm", m, m.labels()

