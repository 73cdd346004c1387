"""Slow exact references for the products, `membership`, `residuate`,
`max_closure`, `isbell_member`, `validate_plm`, `boltzmann`, the ray generators,
`canonical`, `normalize_to_simplex`, `cross_check_rays` and `tight_graph`.

`dense_apply_min`, `dense_apply_max` and `dense_compose_min` take dense
rows and form every term, +inf ones included, with no index to skip by.

`membership_reference` scans every defining inequality x_i <= d_ij + x_j
by hand, with no (min,+) product.  `residuate_reference` forms every term
x_i - D_is, in the (max,+) convention, and every term of the span.
`saturation_edges_reference` looks up
d_ij densely for every support pair and keeps those with x_i = d_ij + x_j;
`tight_graph_reference` is `tight_graph` before it read only the columns
at the support: one integer-pair test per constraint row, on every row;
`sink_texts_reference` closes such an edge set transitively and keeps
the least text of each class that reaches only texts reaching it back.
`closure_reference` closes a family under pointwise min and max in
rounds, re-pairing every vector each round until a round adds nothing;
it checks candidates with `membership_reference`.  `chain_scan` is the chain rule checked on every
chain i < j < k, and `top_potential_reproduces` walks a potential from
each component's largest index and tests it on every pair.
`boltzmann_reference` forms every term's product at every coordinate,
+inf ones included, and scans every vector for -inf.

`FractionExtReal` stores a value's mirror as one `Fraction` (0 for +inf,
None for -inf), with the scalar operations `frac_tmin`, `frac_tmax`,
`frac_tmul`, `frac_tmax_mul` and `frac_neg` on it; the integer pairs of
`ExtReal` are tested against it.  `certify_ray_reference` tests each
constraint's `Fraction` mirror on the exact coordinates `z.mults()`, and
`cross_check_reference` compares two ray lists as sorted lists of them.
`funk_q` is the Funk distance restated on multiplicative coordinates, and
`close_log` a float tolerance test for log readings.
`projector_witness_reference` scans every triple for d_ik > d_ij + d_jk,
and `first_non_isometric_reference` compares `funk_q` on every pair of
vectors with its target distance.

`lower_sets_reference` walks every lower set of the order, connected or
not, and keeps the connected ones; `generator_reference` walks a fresh
potential on each carrier, as the ray generators did before they read the
model's one potential, and scales it by `canonical_reference`.
`two_pass_generator_reference` is `ray_from_lower_set`'s generator as it
was built before its one pass: the restricted vector, then `_rescaled`.
`canonical_reference` and `simplex_reference` rescale a cone point
through the general `TropVector.scaled` (a `tmul` per entry, then the fill
rule), the first by the negated smallest coordinate, the second by the
inverse of the `Fraction` sum of `mults()`.  `canonical_rays_reference`
is `oracle_rays`' output step before it stayed in integers: each
primitive integer vector through `TropVector.from_probs` and `canonical`,
a set of the vectors, sorted by their `Fraction` `mults()`.
`join_per_down_set_reference`
is `max_closure` joining each down-set of the candidates from scratch,
and `closure_candidates_reference` forms each candidate y(i, t) with its
own meet over every s with s_i >= t, one `reduce` per threshold.
`isbell_member_reference` is the fixed-point test as the composition
L(R(x)) == x, through `map_l` and `map_r` and so two `apply_max` products
on negated vectors.

`potential_reference` is the potential walk in `Fraction` arithmetic, as
`model.potential` walked it before it took integer pairs, and
`metric_rows_reference` fills a dense n x n grid from the model's
probabilities through `ExtReal.from_prob`, and `cone_rows_reference`
lists the cone rows straight from the model's strict pairs, as the rays
layer built them before it read the side metric's entries.
`validate_reference` is
`validate_plm` as a sorted scan of the listed pairs with an `order.leq`
test each, a set of the comparable ones and the list of strict pairs, and
`potential_reference` for the last axiom.  `read_rational_reference` is
`files.read_rational` before its fast path: the digit bound, then
`Fraction(text)` on every form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Sequence

from plmpoly import (
    PartialOrder,
    ResourceCapExceeded,
    Side,
    ValidationFailed,
    enumerate_connected_lower_sets,
    map_l,
    map_r,
    potential,
    side_metric,
)
from plmpoly.files import MAX_DIGITS
from plmpoly.model import ValidationReport, bits, components_of, validate_plm
from plmpoly.extension import BoltzmannResult
from plmpoly.rays import _side_cone
from plmpoly.tropical import (
    NEG_INF,
    POS_INF,
    ZERO,
    ExtReal,
    TropVector,
    _make,
    _rescaled,
    neg,
    tmax,
    tmax_mul,
    tmin,
    tmin_all,
    tmul,
    verify,
)


def dense_min(terms):
    best = POS_INF
    for t in terms:
        best = tmin(best, t)
    return best


def dense_max(terms):
    best = NEG_INF
    for t in terms:
        best = tmax(best, t)
    return best


def dense_apply_min(rows, coords):
    return tuple(dense_min(tmul(a, x) for a, x in zip(row, coords)) for row in rows)


def dense_apply_max(rows, coords):
    return tuple(dense_max(tmax_mul(a, x) for a, x in zip(row, coords)) for row in rows)


def dense_compose_min(a, b):
    n = len(a)
    return tuple(
        tuple(dense_min(tmul(a[i][j], b[j][k]) for j in range(n)) for k in range(n))
        for i in range(n)
    )


def residuate_reference(x, d, subset, side=Side.LOWER):
    """Least weights max_i (x_i - D_is) on s in S and their span, every term formed."""
    rows = side_metric(d, side).mat.rows
    sub = sorted(set(subset))
    lams = tuple(dense_max(tmax_mul(x[i], neg(rows[i][s])) for i in range(d.n)) for s in sub)
    span = tuple(dense_min(tmul(rows[i][s], lam) for s, lam in zip(sub, lams)) for i in range(d.n))
    return lams, span


def membership_reference(x, d, side=Side.LOWER) -> bool:
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    if all(c.is_pos_inf for c in x.coords):
        return False
    dm = side_metric(d, side)
    return all(
        x[i] <= tmul(dm[i, j], x[j])
        for i in range(d.n)
        for j in range(d.n)
        if i != j
    )


def closure_reference(vectors, d, cap: int = 10000) -> list:
    work = []
    seen = set()
    for v in vectors:
        if not membership_reference(v, d):
            raise ValueError("closure input is not in the polyhedron")
        if v.coords not in seen:
            seen.add(v.coords)
            work.append(v)
    if not work:
        raise ValueError("empty input family")
    changed = True
    while changed:
        changed = False
        k = len(work)
        for a in range(k):
            for b in range(a + 1, k):
                u, v = work[a], work[b]
                cands = [u.min_with(v)]
                if set(u.support) & set(v.support):
                    cands.append(u.max_with(v))
                for cand in cands:
                    if cand.coords in seen:
                        continue
                    if not membership_reference(cand, d):
                        raise AssertionError("closure left the polyhedron")
                    seen.add(cand.coords)
                    work.append(cand)
                    changed = True
                    if len(work) > cap:
                        raise ResourceCapExceeded(f"closure exceeded {cap} vectors")
    return work


def chain_scan(m) -> list:
    """Every chain i < j < k with Pr(k|i) != Pr(k|j) Pr(j|i), as (i, j, k, lhs, rhs)."""
    out = []
    for i, j in m.order.strict_pairs():
        for k in range(m.n):
            if k != i and k != j and m.order.leq(j, k):
                lhs = m.pr[(i, k)]
                rhs = m.pr[(j, k)] * m.pr[(i, j)]
                if lhs != rhs:
                    out.append((i, j, k, lhs, rhs))
    return out


def top_potential_reproduces(m) -> bool:
    """Some potential gives Pr(j|i) = w_j / w_i on every comparable pair."""
    w = {}
    for comp in m.order.components():
        w[comp[-1]] = Fraction(1)
        todo = [comp[-1]]
        while todo:
            i = todo.pop()
            for j in comp:
                if j in w:
                    continue
                if m.order.leq(i, j):
                    w[j] = w[i] * m.pr[(i, j)]
                elif m.order.leq(j, i):
                    w[j] = w[i] / m.pr[(j, i)]
                else:
                    continue
                todo.append(j)
    return all(w[j] == w[i] * m.pr[(i, j)] for i, j in m.order.strict_pairs())


def boltzmann_reference(
    terms: Sequence[tuple[ExtReal, TropVector]], temperature: float
) -> BoltzmannResult:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if not terms:
        raise ValueError("no terms")
    n = len(terms[0][1])
    for lam, v in terms:
        if lam.is_neg_inf or any(c.is_neg_inf for c in v.coords):
            raise ValueError("weights and vectors must avoid -inf")
        if len(v) != n:
            raise ValueError("dimension mismatch")
    # a +inf weight adds only +inf entries; the bound still counts its term
    live = [(lam, v) for lam, v in terms if not lam.is_pos_inf]
    entries = [[tmul(lam, v[c]) for lam, v in live] for c in range(n)]
    # the hard limit: all +inf when every weight is +inf, since no term survives
    target = TropVector(tmin_all(es) for es in entries)
    t = float(temperature)
    bound = t * math.log(len(terms))
    mult: list = []
    readback: list[float] = []
    for c in range(n):
        m = target[c]
        if m.is_pos_inf:
            mult.append(Fraction(0) if t == 1.0 else 0.0)
            readback.append(math.inf)
            continue
        if t == 1.0:
            total = sum((e.mult for e in entries[c]), Fraction(0))
            mult.append(total)
            readback.append(ExtReal(total).log)
        else:
            # shift by the hard minimum so the largest summand is exactly 1
            s = sum(
                math.exp(-tmul(e, neg(m)).log / t)
                for e in entries[c]
                if not e.is_pos_inf
            )
            mult.append(math.exp(-m.log / t) * s)
            readback.append(m.log - t * math.log(s))
        slack = 1e-9 * max(1.0, abs(m.log))
        verify(readback[c] <= m.log + slack)
        verify(m.log - readback[c] <= bound + slack)
    return BoltzmannResult(
        temperature=t,
        mult=tuple(mult),
        readback=tuple(readback),
        target=target,
        bound=bound,
    )


class FractionExtReal:
    """[-inf, +inf] with the mirror exp(-value) as one Fraction, None for -inf."""

    __slots__ = ("m",)

    def __init__(self, m: Fraction | None):
        self.m = m

    @staticmethod
    def of(x: ExtReal) -> "FractionExtReal":
        return FractionExtReal(None if x.is_neg_inf else x.mult)

    def to_ext(self) -> ExtReal:
        return ExtReal(self.m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FractionExtReal) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __le__(self, other: "FractionExtReal") -> bool:
        # log order reverses the multiplicative order; None is the largest mirror
        if self.m is None:
            return True
        if other.m is None:
            return False
        return self.m >= other.m

    def __lt__(self, other: "FractionExtReal") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "FractionExtReal") -> bool:
        return other <= self

    def __gt__(self, other: "FractionExtReal") -> bool:
        return other < self


def frac_tmin(a: FractionExtReal, b: FractionExtReal) -> FractionExtReal:
    return a if a <= b else b


def frac_tmax(a: FractionExtReal, b: FractionExtReal) -> FractionExtReal:
    return b if a <= b else a


def frac_tmul(a: FractionExtReal, b: FractionExtReal) -> FractionExtReal:
    if a.m == 0 or b.m == 0:
        return FractionExtReal(Fraction(0))
    if a.m is None or b.m is None:
        return FractionExtReal(None)
    return FractionExtReal(a.m * b.m)


def frac_tmax_mul(a: FractionExtReal, b: FractionExtReal) -> FractionExtReal:
    if a.m is None or b.m is None:
        return FractionExtReal(None)
    if a.m == 0 or b.m == 0:
        return FractionExtReal(Fraction(0))
    return FractionExtReal(a.m * b.m)


def frac_neg(a: FractionExtReal) -> FractionExtReal:
    if a.m is None:
        return FractionExtReal(Fraction(0))
    if a.m == 0:
        return FractionExtReal(None)
    return FractionExtReal(1 / a.m)


def certify_ray_reference(z: TropVector, constraints, n: int) -> int:
    support = sum(1 << k for k in z.support)
    zm = z.mults()
    adj = [0] * n
    for i, j, e in constraints:
        if zm[i] == e.mult * zm[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n - len(components_of(adj, support))


def tight_graph_reference(z: TropVector, constraints) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of every row (i, j, e) that z makes tight.

    With z_k = num_k/den_k (+inf is 0/1, -inf 1/0) and exp(-e) = a/b, the
    row is tight when num_i den_j b == a num_j den_i.  A row reads its two
    coordinates from z's entries: when both ends are unlisted, both hold
    the fill and the row is tight; when one end is unlisted, it is not.
    """
    get = dict(z.entries).get
    out = [0] * z.n
    into = [0] * z.n
    for i, j, e in constraints:
        zi, zj = get(i), get(j)
        if zi is None or zj is None:
            if zi is not zj:
                continue
        elif zi.num * zj.den * e.den != e.num * zj.num * zi.den:
            continue
        out[i] |= 1 << j
        into[j] |= 1 << i
    return out, into


def saturation_edges_reference(
    x: TropVector, d, side=Side.LOWER
) -> frozenset[tuple[int, int]]:
    """Support pairs i != j with d_ij finite and x_i = d_ij + x_j, by dense lookups."""
    dm = side_metric(d, side)
    support = x.support
    return frozenset(
        (i, j)
        for i in support
        for j in support
        if i != j and dm[i, j].is_finite and x[i] == tmul(dm[i, j], x[j])
    )


def sink_texts_reference(support, edges) -> tuple[int, ...]:
    """Least text of each strongly connected class with no edge leaving it."""
    ahead = {i: {i} | {j for a, j in edges if a == i} for i in support}
    for k in support:  # Warshall: ahead[i] gains ahead[k] once k is in it
        for i in support:
            if k in ahead[i]:
                ahead[i] |= ahead[k]
    return tuple(
        i
        for i in support
        if min(ahead[i]) == i and all(i in ahead[j] for j in ahead[i])
    )


def cross_check_reference(rays, oracle) -> bool:
    mine = sorted(r.generator.canonical().mults() for r in rays)
    theirs = sorted(q.canonical().mults() for q in oracle)
    return mine == theirs


def funk_q(z: Sequence, z2: Sequence) -> ExtReal:
    """Multiplicative-domain Funk distance max{ log(z_i / z2_i) : z_i != 0 }.

    Restricting to indices where the *first* argument is nonzero makes this
    agree exactly with funk(-log z, -log z2).
    """
    if len(z) != len(z2):
        raise ValueError("length mismatch")
    zs = [Fraction(v) for v in z]
    ws = [Fraction(v) for v in z2]
    if any(v < 0 for v in zs + ws):
        raise ValueError("multiplicative values must be nonnegative")
    best: Fraction | None = None  # min of w_i/z_i over admissible i
    for zi, wi in zip(zs, ws):
        if zi == 0:
            continue
        r = wi / zi
        if best is None or r < best:
            best = r
    if best is None:
        return NEG_INF
    return ExtReal(best)


def projector_witness_reference(rows) -> tuple[int, int, int] | None:
    """First (i, j, k), by k, then i, then j, with d_ik > d_ij + d_jk."""
    n = len(rows)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if tmul(rows[i][j], rows[j][k]) < rows[i][k]:
                    return i, j, k
    return None


def first_non_isometric_reference(vecs, target) -> int | None:
    """First a with funk_q(vecs[a], vecs[b]) != target[a][b] for some b."""
    n = len(vecs)
    for a in range(n):
        if any(funk_q(vecs[a], vecs[b]) != target[a][b] for b in range(n)):
            return a
    return None


def close_log(a: float, b: float, tol: float = 1e-9) -> bool:
    """Log-domain comparison: absolute tolerance scaled by magnitude."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def lower_sets_reference(order) -> list[tuple[int, ...]]:
    """Nonempty connected lower sets, sorted by bitmask, from all lower sets."""
    n = order.n
    topo = sorted(range(n), key=lambda i: bin(order.down_mask(i)).count("1"))
    masks: list[int] = []

    def rec(pos: int, mask: int) -> None:
        if pos == n:
            if mask and order.connected(mask):
                masks.append(mask)
            return
        e = topo[pos]
        rec(pos + 1, mask)
        need = order.down_mask(e) & ~(1 << e)
        if need & ~mask == 0:
            rec(pos + 1, mask | (1 << e))

    rec(0, 0)
    masks.sort()
    return [bits(m) for m in masks]


def generator_reference(m, members, side=Side.LOWER) -> TropVector:
    """Canonical generator from the potential walked on the carrier alone."""
    mask = sum(1 << i for i in members)
    w = potential(m, mask)
    coords = [POS_INF] * m.n
    for i in members:
        coords[i] = ExtReal(1 / w[i] if side is Side.LOWER else w[i])
    return canonical_reference(TropVector(coords))


def two_pass_generator_reference(m, members, side=Side.LOWER) -> TropVector:
    """The generator as `ray_from_lower_set` built it before its one pass: the
    carrier's values as a vector, then that vector divided by the largest value."""
    values = _side_cone(m, side)[0]
    mem = sorted(set(members))
    top = max((values[i] for i in mem), key=lambda v: v.mult)
    restricted = _make(m.n, POS_INF, tuple((i, values[i]) for i in mem), sum(1 << i for i in mem))
    return _rescaled(restricted, top.den, top.num)


def canonical_reference(z: TropVector) -> TropVector:
    """z scaled by its negated smallest coordinate through `scaled`."""
    top = tmin_all(z.coords)
    if not top.is_finite:
        raise ValueError("not a cone point")
    return z.scaled(neg(top))


def canonical_rays_reference(zs) -> list[TropVector]:
    """The canonical rays of integer vectors, once each, in `mults` order."""
    return sorted({TropVector.from_probs(z).canonical() for z in zs}, key=TropVector.mults)


def simplex_reference(z: TropVector) -> TropVector:
    """z scaled through `scaled` so that its `Fraction` mults sum to 1."""
    return z.scaled(ExtReal(1 / sum(z.mults())))


def join_per_down_set_reference(vectors, d, cap: int = 10000) -> list:
    """`max_closure` with each down-set's join formed from scratch by `reduce`."""
    inputs: dict = {}
    for v in vectors:
        if not membership_reference(v, d):
            raise ValueError("closure input is not in the polyhedron")
        inputs[v] = None
    if not inputs:
        raise ValueError("empty input family")
    family = list(inputs)
    elems = closure_candidates_reference(family, d.n)
    ups = [sum(1 << b for b, z in enumerate(elems) if y.leq(z)) for y in elems]
    limit = max(cap, len(family)) + (not reduce(TropVector.max_with, family).support)
    try:
        down_sets = enumerate_connected_lower_sets(PartialOrder(len(elems), ups), limit)
    except ResourceCapExceeded:
        raise ResourceCapExceeded(f"closure exceeded {cap} vectors") from None
    joins = (reduce(TropVector.max_with, [elems[k] for k in ks]) for ks in down_sets)
    return [x for x in joins if x.support]


def closure_candidates_reference(family, n: int) -> list:
    """The distinct y(i, t) = meet of {s : s_i >= t}, t a value s_i, one meet per threshold."""
    cands: dict = {}
    for i in range(n):
        for t in {s[i] for s in family}:
            cands[reduce(TropVector.min_with, [s for s in family if s[i] >= t])] = None
    return list(cands)


def isbell_member_reference(d, x) -> bool:
    """The fixed-point test x == L(R(x)) as the composition of the two maps."""
    if len(x) != d.n:
        raise ValueError("dimension mismatch")
    return map_l(d, map_r(d, x)) == x


def potential_reference(m, mask: int) -> dict[int, Fraction]:
    """Weights w on `mask`, walked in `Fraction`s, or the first failing edge raised."""
    order, pr = m.order, m.pr
    w: dict[int, Fraction] = {}
    left = mask
    while left:
        start = (left & -left).bit_length() - 1
        w[start] = Fraction(1)
        stack = [start]
        left &= left - 1
        while stack:
            i = stack.pop()
            for j in bits(order._adj[i] & mask):
                up = order.leq(i, j)
                wj = w[i] * pr[(i, j)] if up else w[i] / pr[(j, i)]
                if j not in w:
                    w[j] = wj
                    stack.append(j)
                    left &= ~(1 << j)
                elif w[j] != wj:
                    lo, hi = (i, j) if up else (j, i)
                    edge = (lo, hi, pr[(lo, hi)], w[hi] / w[lo])
                    raise ValidationFailed(ValidationReport(multiplicativity=[edge]))
    return w


def validate_reference(m) -> ValidationReport:
    """The model axioms, each list in sorted pair order; `m` is left as it was."""
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
    rep.missing = [ij for ij in order.strict_pairs() if ij not in have]
    if rep.ok:
        try:
            potential_reference(m, (1 << m.n) - 1)
        except ValidationFailed as exc:
            rep.multiplicativity = exc.report.multiplicativity
    return rep


def read_rational_reference(token) -> Fraction:
    text = str(token)
    head, e, tail = text.replace("E", "e").rpartition("e")
    if e:
        exponent = "".join(c for c in tail if c.isdecimal()).lstrip("0")
        size = sum(c.isdecimal() for c in head)
        if len(exponent) > 4 or size + int(exponent or "0") >= MAX_DIGITS:
            raise ValueError("too many digits once the exponent is expanded")
    return Fraction(text)


def metric_rows_reference(m) -> tuple[tuple[ExtReal, ...], ...]:
    """Dense rows of a valid model's metric: 0 on the diagonal, +inf off the order."""
    if not validate_plm(m).ok:
        raise ValueError("model is not valid")
    rows = [[ZERO if i == j else POS_INF for j in range(m.n)] for i in range(m.n)]
    for (i, j), p in m.pr.items():
        rows[i][j] = ExtReal.from_prob(p)
    return tuple(map(tuple, rows))


def cone_rows_reference(m, side=Side.LOWER) -> list[tuple[int, int, ExtReal]]:
    """(i, j, Pr(a_j|a_i)) over the order's strict pairs; swapped and sorted upper."""
    rows = [(i, j, ExtReal(m.pr[i, j])) for i, j in m.order.strict_pairs()]
    return rows if side is Side.LOWER else sorted((j, i, e) for i, j, e in rows)
