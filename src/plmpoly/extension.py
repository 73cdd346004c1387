"""Embedding small models into larger ones and retracting back.

The retraction onto the span of a chosen subset S of generators is itself
a (min,+) matrix, R[i,k] = min over s in S of d[i,s] + d[s,k]: the product
of d with the copy of d whose rows outside S are set to +inf.  It is
idempotent, fixes the chosen generators, and never increases Funk
distances.

Boltzmann smoothing replaces the hard minimum in a span by a temperature-T
soft minimum with an explicit error bound, T log(#terms).  Its hard limit
for the terms (d[s,k], d[:,s]), s in S, is the retraction's column R[:,k].
A term is formed only where both its weight and its vector's coordinate
are finite, so smoothing costs what the terms' finite entries cost, and a
caller that passes only the s with d[s,k] finite tightens the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import DirectedMetric, Plm, metric_from_plm
from .polyhedron import residuate, yoneda
from .tropical import (
    NEG_INF,
    POS_INF,
    ExtReal,
    TropMatrix,
    TropVector,
    neg,
    tmin_all,
    tmul,
    verify,
)


class IsometryError(ValueError):
    def __init__(self, pair: tuple[int, int], msg: str):
        super().__init__(f"isometry fails at pair {pair}: {msg}")
        self.pair = pair


def _as_metric(m: Plm | DirectedMetric) -> DirectedMetric:
    return m if isinstance(m, DirectedMetric) else metric_from_plm(m)


class RetractionOp:
    """Idempotent (min,+) projection onto the span of a generator subset."""

    __slots__ = ("matrix", "subset")

    def __init__(self, matrix: TropMatrix, subset: tuple[int, ...]):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "subset", subset)

    def __setattr__(self, *a):
        raise AttributeError("RetractionOp is immutable")

    def apply(self, x: TropVector) -> TropVector | None:
        """Retract x; None flags the all-(+inf) result (nothing survives)."""
        coords = self.matrix.apply_min(x.coords)
        if all(c is POS_INF for c in coords):
            return None
        return TropVector(coords)


def retraction_from_subset(
    m: Plm | DirectedMetric, subset: Sequence[int]
) -> RetractionOp:
    d = _as_metric(m)
    sub = tuple(sorted(set(subset)))
    if not sub:
        raise ValueError("subset must be nonempty")
    for s in sub:
        if not 0 <= s < d.n:
            raise ValueError(f"index {s} out of range")
    keep = set(sub)
    rows_in_s = TropMatrix.from_entries(
        d.n, (line if i in keep else () for i, line in enumerate(d.mat.row_entries))
    )
    mat = d.mat.compose_min(rows_in_s)
    verify(mat.compose_min(mat) == mat)
    for k in sub:
        verify(mat.col_entries[k] == d.mat.col_entries[k])
    return RetractionOp(matrix=mat, subset=sub)


@dataclass(frozen=True)
class Embedding:
    """An isometric inclusion of one metric into another."""

    mapping: tuple[int, ...]
    sub: DirectedMetric
    big: DirectedMetric

    def extend(self, x: TropVector) -> TropVector:
        """Push a lower-side vector along the inclusion: span with x's weights."""
        if len(x) != self.sub.n:
            raise ValueError("dimension mismatch")
        weights = [POS_INF] * self.big.n
        for xm, f in zip(x.coords, self.mapping):
            weights[f] = xm
        return TropVector(self.big.mat.apply_min(weights))


def embed_model(
    sub: Plm | DirectedMetric,
    big: Plm | DirectedMetric,
    mapping: Sequence[int],
) -> Embedding:
    ds, db = _as_metric(sub), _as_metric(big)
    phi = tuple(mapping)
    if len(phi) != ds.n or len(set(phi)) != ds.n:
        raise ValueError("mapping must be injective and cover the small model")
    for f in phi:
        if not 0 <= f < db.n:
            raise ValueError(f"mapped index {f} out of range")
    for a in range(ds.n):
        for b in range(ds.n):
            if ds[a, b] != db[phi[a], phi[b]]:
                raise IsometryError(
                    (a, b), f"{ds[a, b]!r} != {db[phi[a], phi[b]]!r}"
                )
    emb = Embedding(mapping=phi, sub=ds, big=db)
    for a in range(ds.n):
        verify(emb.extend(yoneda(ds, a)) == yoneda(db, phi[a]))
    return emb


def word_decompose(
    m: Plm, words: Sequence[int], text: int
) -> list[tuple[int, ExtReal]]:
    """Weights writing the retracted text generator over single-word generators.

    The words must be pairwise incomparable.  The weights are `residuate`'s,
    d(w, text) on that member, and span its retraction onto the words.
    """
    d = metric_from_plm(m)
    if not 0 <= text < m.n:
        raise ValueError("text index out of range")
    col = d.mat.column(text)
    ws = sorted(set(words))
    weights, _ = residuate(TropVector(col), d, ws)  # refuses bad words first
    for a in ws:
        for b in ws:
            if a != b and not d[a, b].is_pos_inf:
                raise ValueError(f"words {a} and {b} are comparable")
    verify(weights == tuple(col[w] for w in ws))
    below = [(w, e) for w, e in zip(ws, weights) if e is not POS_INF]
    if not below:
        raise ValueError("text contains none of the listed words")
    return below


@dataclass(frozen=True)
class BoltzmannResult:
    """Soft (min,+) combination at temperature T.

    `mult` is the multiplicative-domain vector (exact rationals at T=1,
    floats otherwise), `readback` its log-domain reading -T log(.), and
    `target` the hard (min,+) combination the readback approaches from
    below with error at most `bound` = T log(#terms).
    """

    temperature: float
    mult: tuple
    readback: tuple[float, ...]
    target: TropVector
    bound: float


def boltzmann(
    terms: Sequence[tuple[ExtReal, TropVector]], temperature: float
) -> BoltzmannResult:
    """Soft (min,+) combination of the weighted vectors `terms` at T.

    A term lam + v_c is formed only where both lam and v_c are finite.
    Under `tmul` a +inf weight or coordinate makes the term +inf, which adds
    0 to every soft sum and never wins the hard minimum.  So a coordinate
    that no term reaches is +inf in `target`, 0 in `mult` and `inf` in
    `readback`.  Passed the terms (d[s,k], d[:,s]) for s in a subset S,
    `target` is column k of the retraction onto S.  The bound counts the
    terms passed, +inf weights included, so a caller that passes only the
    finite weights gets the tighter bound.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if not terms:
        raise ValueError("no terms")
    n = len(terms[0][1])
    # each reached coordinate's finite terms, in the order of `terms`
    reached: dict[int, list[ExtReal]] = {}
    for lam, v in terms:
        if lam.is_neg_inf:
            raise ValueError("weights and vectors must avoid -inf")
        if len(v) != n:
            raise ValueError("dimension mismatch")
        live = not lam.is_pos_inf
        for c, x in enumerate(v.coords):
            if x is POS_INF:
                continue
            if x is NEG_INF:
                raise ValueError("weights and vectors must avoid -inf")
            if live:
                reached.setdefault(c, []).append(tmul(lam, x))
    t = float(temperature)
    bound = t * math.log(len(terms))
    target = [POS_INF] * n
    mult: list = [Fraction(0) if t == 1.0 else 0.0] * n
    readback = [math.inf] * n
    for c, es in reached.items():
        m = target[c] = tmin_all(es)
        if t == 1.0:
            total = sum((e.mult for e in es), Fraction(0))
            mult[c] = total
            readback[c] = ExtReal(total).log
        else:
            # shift by the hard minimum so the largest summand is exactly 1
            s = sum(math.exp(-tmul(e, neg(m)).log / t) for e in es)
            try:
                mult[c] = math.exp(-m.log / t) * s
            except OverflowError:  # a reading past float range
                mult[c] = math.inf
            readback[c] = m.log - t * math.log(s)
        slack = 1e-9 * max(1.0, abs(m.log))
        verify(readback[c] <= m.log + slack)
        verify(m.log - readback[c] <= bound + slack)
    return BoltzmannResult(
        temperature=t,
        mult=tuple(mult),
        readback=tuple(readback),
        target=TropVector(target),
        bound=bound,
    )


def filtration_retractions(m: Plm) -> list[tuple[int, RetractionOp]]:
    """Retractions onto spans of length-capped texts, one per present length.

    Successive images are nested: composing a later retraction with an
    earlier one leaves the earlier one unchanged.
    """
    d = metric_from_plm(m)
    lengths = sorted({len(t) for t in m.texts})
    out: list[tuple[int, RetractionOp]] = []
    for k in lengths:
        subset = [i for i, t in enumerate(m.texts) if len(t) <= k]
        out.append((k, retraction_from_subset(d, subset)))
    for (_, r1), (_, r2) in zip(out, out[1:]):
        verify(r2.matrix.compose_min(r1.matrix) == r1.matrix)
    return out
