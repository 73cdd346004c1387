"""Slow exact references for `oracle_rays` and `certify_ray`.

`basis_rays` enumerates constraint bases: every linearly independent
(n-1)-subset of constraint gradients (facets z_i = 0 included) pins down
a line; the feasible nonnegative ones, deduplicated, are exactly the
extremal rays.  Fraction-free integer elimination keeps it exact.  The
number of subsets grows as C(rows, n-1), so it is only used for n <= 5.

`saturated_rank` is the rank of the rows that a cone point z (a
`TropVector` with no -inf coordinate, not all +inf) makes tight, by `Fraction` Gaussian elimination.

Both take rows (i, j, e) and read each entry e through its `Fraction`
mirror `e.mult`, not through the integer pairs that `oracle_rays` and
`certify_ray` read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from plmpoly import TropVector

MAX_N = 5


def basis_rays(constraints, n: int) -> list[TropVector]:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"the basis reference is for 1 <= n <= {MAX_N}")
    rows: list[tuple[int, ...]] = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
    cons = [(i, j, e.mult) for i, j, e in constraints]
    for i, j, p in cons:
        if p <= 0:
            raise ValueError("constraint coefficients must be positive")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("constraint index out of range")
        row = [0] * n
        row[i] = p.denominator
        row[j] += -p.numerator  # i == j collapses to one coefficient
        rows.append(tuple(row))
    target = n - 1
    found: set[TropVector] = set()

    def emit(candidate: list[Fraction]) -> None:
        if all(c <= 0 for c in candidate):
            candidate = [-c for c in candidate]
        if any(c < 0 for c in candidate) or all(c == 0 for c in candidate):
            return
        if any(candidate[i] < p * candidate[j] for i, j, p in cons):
            return
        found.add(TropVector.from_probs(candidate).canonical())

    def nullvec(ech: list[tuple[int, tuple[int, ...]]]) -> list[Fraction]:
        pivots = {col for col, _ in ech}
        free = next(c for c in range(n) if c not in pivots)
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for col, row in reversed(ech):
            s = sum((row[c] * v[c] for c in range(n) if c != col), Fraction(0))
            v[col] = -s / row[col]
        return v

    def reduced(ech, row):
        r = list(row)
        for col, piv in ech:
            if r[col]:
                a, b = piv[col], r[col]
                r = [a * x - b * y for x, y in zip(r, piv)]
        lead = next((c for c in range(n) if r[c]), None)
        if lead is None:
            return None
        g = gcd(*r)
        return (lead, tuple(x // g for x in r))

    def rec(start: int, ech) -> None:
        if len(ech) == target:
            emit(nullvec(ech))
            return
        for idx in range(start, len(rows) - (target - len(ech)) + 1):
            nr = reduced(ech, rows[idx])
            if nr is not None:
                rec(idx + 1, ech + [nr])

    rec(0, [])
    return sorted(found, key=TropVector.mults)


def saturated_rank(z, constraints, n: int) -> int:
    z = z.mults()
    rows: list[list[Fraction]] = []
    for i in range(n):
        if z[i] == 0:
            row = [Fraction(0)] * n
            row[i] = Fraction(1)
            rows.append(row)
    for i, j, e in constraints:
        p = e.mult
        if z[i] == p * z[j]:
            row = [Fraction(0)] * n
            row[i] += 1
            row[j] -= p
            rows.append(row)
    ech: list[tuple[int, list[Fraction]]] = []
    for r in rows:
        for col, piv in ech:
            if r[col]:
                f = r[col] / piv[col]
                r = [a - f * b for a, b in zip(r, piv)]
        lead = next((c for c in range(n) if r[c]), None)
        if lead is not None:
            ech.append((lead, r))
    return len(ech)
