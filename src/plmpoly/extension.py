"""Embedding small models into larger ones and retracting back.

The retraction onto the span of a chosen subset S of generators is itself
a (min,+) matrix, R[i,k] = min over s in S of d[i,s] + d[s,k]: the product
of d with the copy of d whose rows outside S are set to +inf.  It is
idempotent, fixes the chosen generators, and never increases Funk
distances.  Boltzmann smoothing replaces the hard minimum in a span by a
temperature-T soft minimum with an explicit error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import DirectedMetric, Plm, metric_from_plm
from .polyhedron import yoneda
from .tropical import (
    ExtReal,
    POS_INF,
    TropMatrix,
    TropVector,
    neg,
    tmin_all,
    tmul,
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
        if all(c.is_pos_inf for c in coords):
            return None
        return TropVector(coords, extended=x.extended)


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
    rows_in_s = TropMatrix(
        row if i in sub else (POS_INF,) * d.n for i, row in enumerate(d.mat.rows)
    )
    mat = d.mat.compose_min(rows_in_s)
    assert mat.compose_min(mat) == mat
    for k in sub:
        assert mat.column(k) == d.mat.column(k)
    return RetractionOp(matrix=mat, subset=sub)


@dataclass(frozen=True)
class Embedding:
    """An isometric inclusion of one metric into another, with its retraction."""

    mapping: tuple[int, ...]
    sub: DirectedMetric
    big: DirectedMetric
    retraction: RetractionOp

    def extend(self, x: TropVector) -> TropVector:
        """Push a lower-side vector along the inclusion: span with x's weights."""
        if len(x) != self.sub.n:
            raise ValueError("dimension mismatch")
        weights = [POS_INF] * self.big.n
        for xm, f in zip(x.coords, self.mapping):
            weights[f] = xm
        return TropVector(self.big.mat.apply_min(weights), extended=x.extended)


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
    emb = Embedding(
        mapping=phi, sub=ds, big=db, retraction=retraction_from_subset(db, phi)
    )
    for a in range(ds.n):
        assert emb.extend(yoneda(ds, a)) == yoneda(db, phi[a])
    return emb


def word_decompose(
    m: Plm, words: Sequence[int], text: int
) -> list[tuple[int, ExtReal]]:
    """Weights writing the retracted text generator over single-word generators.

    The words must be pairwise incomparable (distance +inf both ways); the
    weight of word w is d(w, text), and the weighted span reproduces the
    retraction of the text's generator exactly.
    """
    d = metric_from_plm(m)
    ws = tuple(sorted(set(words)))
    if not ws:
        raise ValueError("empty word list")
    if not 0 <= text < m.n:
        raise ValueError("text index out of range")
    for a in ws:
        for b in ws:
            if a != b and not d[a, b].is_pos_inf:
                raise ValueError(f"words {a} and {b} are comparable")
    below = [(w, d[w, text]) for w in ws if not d[w, text].is_pos_inf]
    if not below:
        raise ValueError("text contains none of the listed words")
    r = retraction_from_subset(d, ws)
    expected = r.matrix.column(text)
    weights = [d[w, text] if w in ws else POS_INF for w in range(m.n)]
    combo = d.mat.apply_min(weights)
    assert combo == expected
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
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not terms:
        raise ValueError("no terms")
    n = len(terms[0][1])
    for lam, v in terms:
        if lam.is_neg_inf or any(c.is_neg_inf for c in v.coords):
            raise ValueError("weights and vectors must avoid -inf")
        if len(v) != n:
            raise ValueError("dimension mismatch")
    entries = [[tmul(lam, v[c]) for lam, v in terms] for c in range(n)]
    target = TropVector(
        (tmin_all(es) for es in entries),
        extended=True,  # tolerate all-(+inf) coordinates in the hard limit
    )
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
        assert readback[c] <= m.log + slack
        assert m.log - readback[c] <= bound + slack
    return BoltzmannResult(
        temperature=t,
        mult=tuple(mult),
        readback=tuple(readback),
        target=target,
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
        assert r2.matrix.compose_min(r1.matrix) == r1.matrix
    return out
