"""Exact tropical arithmetic over the extended reals [-inf, +inf].

Every finite value handled here is the negative log of a positive rational,
so each number is stored as that rational (the "multiplicative mirror") and
all decisions (comparisons, equality, saturation) are exact.  The mirror is
a reduced pair of integers (num, den): +inf is (0, 1) and -inf is (1, 0),
each one shared object that every construction returns, so an infinity test
is an identity test.  The log order reverses the order of num/den, and with
this encoding x <= y is the one integer comparison x.num * y.den >=
y.num * x.den, infinities included.  ``fractions.Fraction`` appears only at
the edges: ``ExtReal.mult``, ``TropVector.mults`` and file input and output.
Floats only appear when a caller asks for the log-domain reading of a value.

Two addition conventions coexist and are kept as separate operations:

* ``tmul``     -- (min,+): +inf is absorbing, (+inf) + (-inf) = +inf.
* ``tmax_mul`` -- (max,+): -inf is absorbing, (+inf) + (-inf) = -inf.

In the multiplicative mirror these read "zero absorbs" vs "infinity absorbs".

A ``TropMatrix`` stores only its finite-entry index: ``n`` and each row's
and each column's entries that are not +inf, listed in ascending index with
their bitmasks, which the transpose shares with the roles swapped.  A +inf
entry is implicit, as in GraphBLAS.  The dense rows, columns and single
entries are built from the lists on demand, so a text model's metric, +inf
off the order, holds as many entries as the order has pairs.

``_min_plus`` is the one (min,+) kernel.  ``TropMatrix.apply_min`` runs it
on a vector, and projection (and with it membership), spans, retractions,
extensions and the duality identities go through that;
``TropMatrix.compose_min`` runs it on each listed column of its right
factor and lists the product's entries directly.  ``TropMatrix.apply_max``
is the one (max,+) product, behind the Isbell maps.  The kernel forms a
term only where neither the entry nor the coordinate is +inf: +inf absorbs
any other term under ``tmul``, even against -inf, and a minimum over no
terms is +inf.  ``apply_max`` gives +inf in a row where a coordinate other
than -inf meets a +inf entry; elsewhere every +inf entry meets -inf, which
absorbs under ``tmax_mul``, so the maximum runs over the row's listed
entries.  So on a text model's metric every product costs as many terms as
the order has pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str]


class VerificationError(AssertionError):
    """A self-check of an exact identity failed: the library has a fault."""


def verify(ok: bool, message: str = "") -> None:
    """Raise `VerificationError` unless `ok`; unlike `assert`, -O keeps it."""
    if not ok:
        raise VerificationError(message)


def _as_fraction(value: Rational) -> Fraction:
    f = value if type(value) is Fraction else Fraction(value)
    if f.numerator < 0:
        raise ValueError(f"multiplicative values must be nonnegative, got {value!r}")
    return f


class ExtReal:
    """A point of [-inf, +inf], stored as the exact rational exp(-value).

    ``num`` and ``den`` are the multiplicative mirror num/den, reduced:
    (0, 1) encodes +inf, (1, 0) encodes -inf (an infinite multiplicative
    value), and a finite log value -log(num/den) has num > 0, den > 0 and
    gcd 1.  ``ExtReal(mult)`` takes a nonnegative rational, or None for
    -inf, and returns the shared ``POS_INF`` or ``NEG_INF`` for either
    infinity.
    """

    __slots__ = ("num", "den")

    def __new__(cls, mult: Rational | None):
        if mult is None:
            return NEG_INF
        f = _as_fraction(mult)
        if not f:
            return POS_INF
        return _pair(f.numerator, f.denominator)

    @staticmethod
    def from_prob(p: Rational) -> "ExtReal":
        return ExtReal(Fraction(p))

    @staticmethod
    def from_log(x: float) -> "ExtReal":
        """Nearest representable value for a float log reading."""
        if x == math.inf:
            return POS_INF
        if x == -math.inf:
            return NEG_INF
        m = math.exp(-x)
        if m == 0.0 or m == math.inf:
            # beyond float range: fall back to an exact power of two, one
            # that still prints under Python's default 4300-digit limit
            k = round(x / math.log(2.0))
            if abs(k) > 14000:
                raise ValueError(f"log reading {x:g} is beyond 2**14000")
            return _pair(1, 2**k) if k >= 0 else _pair(2 ** (-k), 1)
        return ExtReal(Fraction(m))

    @property
    def is_pos_inf(self) -> bool:
        return self is POS_INF

    @property
    def is_neg_inf(self) -> bool:
        return self is NEG_INF

    @property
    def is_finite(self) -> bool:
        return self is not POS_INF and self is not NEG_INF

    @property
    def mult(self) -> Fraction:
        """Exact multiplicative value exp(-self); undefined at -inf."""
        if self is NEG_INF:
            raise OverflowError("-inf has no finite multiplicative value")
        return Fraction(self.num, self.den)

    @property
    def log(self) -> float:
        """Float reading of the value itself (log domain)."""
        if self is NEG_INF:
            return -math.inf
        if self is POS_INF:
            return math.inf
        return math.log(self.den) - math.log(self.num)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ExtReal) and self.num == other.num and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # the log order reverses num/den, and (1, 0) is the largest mirror
    def __le__(self, other: "ExtReal") -> bool:
        return self.num * other.den >= other.num * self.den

    def __lt__(self, other: "ExtReal") -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: "ExtReal") -> bool:
        return other.num * self.den >= self.num * other.den

    def __gt__(self, other: "ExtReal") -> bool:
        return other.num * self.den > self.num * other.den

    def __reduce__(self):
        return ExtReal, (None if self is NEG_INF else self.mult,)

    def __repr__(self) -> str:
        if self is NEG_INF:
            return "ExtReal(-inf)"
        if self is POS_INF:
            return "ExtReal(+inf)"
        return f"ExtReal({self.log:.6g}, mult={self.mult})"


_new = object.__new__


def _pair(num: int, den: int) -> ExtReal:
    """Unchecked constructor: a finite value's reduced pair, num > 0 and den > 0.

    The two infinity pairs are built once, here below, and never again.
    """
    e = _new(ExtReal)
    e.num = num
    e.den = den
    return e


POS_INF = _pair(0, 1)
NEG_INF = _pair(1, 0)
ZERO = _pair(1, 1)


def tmin(a: ExtReal, b: ExtReal) -> ExtReal:
    return a if a.num * b.den >= b.num * a.den else b


def tmax(a: ExtReal, b: ExtReal) -> ExtReal:
    return b if a.num * b.den >= b.num * a.den else a


def _product(a: ExtReal, b: ExtReal) -> ExtReal:
    """a + b for finite a and b: the mirrors multiply."""
    num = a.num * b.num
    den = a.den * b.den
    g = math.gcd(num, den)
    return _pair(num // g, den // g)


def tmul(a: ExtReal, b: ExtReal) -> ExtReal:
    """a + b with the (min,+) convention: any +inf operand wins."""
    if a is POS_INF or b is POS_INF:
        return POS_INF
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return _product(a, b)


def tmax_mul(a: ExtReal, b: ExtReal) -> ExtReal:
    """a + b with the (max,+) convention: any -inf operand wins."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF or b is POS_INF:
        return POS_INF
    return _product(a, b)


def neg(a: ExtReal) -> ExtReal:
    """-a: the mirror's reciprocal, the same pair swapped."""
    if a is NEG_INF:
        return POS_INF
    if a is POS_INF:
        return NEG_INF
    return _pair(a.den, a.num)


def tmin_all(values: Iterable[ExtReal]) -> ExtReal:
    out = POS_INF
    for v in values:
        if v.num * out.den > out.num * v.den:
            out = v
    return out


def tmax_all(values: Iterable[ExtReal]) -> ExtReal:
    out = NEG_INF
    for v in values:
        if out.num * v.den > v.num * out.den:
            out = v
    return out


class TropVector:
    """Immutable coordinate vector over ExtReal: any nonempty tuple of them.

    Coordinates may be -inf or +inf; the duality and Isbell maps produce
    both.  A vector with no -inf coordinate and not all +inf is at once the
    point z = exp(-x) of the multiplicative cone (nonnegative, not all
    zero), which ``mults`` reads exactly and ``canonical`` checks; ray
    generators are kept so.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[ExtReal]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("empty vector")
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TropVector is immutable")

    @staticmethod
    def from_probs(ps: Sequence[Rational]) -> "TropVector":
        return TropVector(ExtReal.from_prob(p) for p in ps)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> ExtReal:
        return self.coords[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "TropVector(%s)" % ", ".join(f"{c.log:.4g}" for c in self.coords)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c is not POS_INF)

    def min_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        return TropVector(map(tmin, self.coords, other.coords))

    def max_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        return TropVector(map(tmax, self.coords, other.coords))

    def scaled(self, lam: ExtReal) -> "TropVector":
        """lam + self coordinatewise, (min,+) convention."""
        return TropVector(tmul(lam, c) for c in self.coords)

    def negated(self) -> "TropVector":
        return TropVector(neg(c) for c in self.coords)

    def canonical(self) -> "TropVector":
        """The same ray scaled so its largest multiplicative coordinate is 1.

        The smallest log coordinate is the largest multiplicative one, so
        adding its negation makes that coordinate 0; +inf ones stay +inf.
        Only a cone point has one: the smallest coordinate is -inf when any
        is, and +inf when all are, and either raises.
        """
        top = tmin_all(self.coords)
        if not top.is_finite:
            raise ValueError("not a cone point")
        return self.scaled(neg(top))

    def proportional(self, other: "TropVector") -> bool:
        """Whether both span the same ray (differ by one additive shift)."""
        return len(self) == len(other) and self.canonical() == other.canonical()

    def mults(self) -> tuple[Fraction, ...]:
        """Exact multiplicative coordinates exp(-x_i): +inf reads 0."""
        return tuple(c.mult for c in self.coords)


def _check_len(x, y) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


class TropMatrix:
    """Square matrix over ExtReal with (min,+) and (max,+) products.

    Only its finite-entry index is stored: ``n`` and, per row and per
    column, the ``(index, entry)`` pairs whose entry is not +inf, listed in
    ascending index, with the bitmask of the indices.  A +inf entry is
    implicit, as in GraphBLAS: it is every entry the lists leave out, so
    two matrices are equal exactly when their row lists are.  The dense
    ``rows``, ``cols``, ``column(j)`` and ``m[i, j]`` are built from the
    lists when asked for, for file output and the dense test references.

    ``TropMatrix(rows)`` takes dense rows; ``TropMatrix.from_entries``
    takes the row lists themselves.
    """

    __slots__ = ("n", "row_entries", "row_masks", "col_entries", "col_masks")

    def __init__(self, rows: Iterable[Iterable[ExtReal]]):
        rs = tuple(tuple(r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        lines = tuple(tuple((j, e) for j, e in enumerate(r) if e is not POS_INF) for r in rs)
        self._index(n, lines)

    @staticmethod
    def from_entries(n: int, row_entries: Iterable[Iterable[tuple[int, ExtReal]]]) -> "TropMatrix":
        """The n x n matrix whose row i lists ``row_entries[i]``, +inf elsewhere.

        Each row lists ``(j, entry)`` tuples in strictly ascending j, none
        of them +inf.
        """
        lines = tuple(map(tuple, row_entries))
        if n <= 0 or len(lines) != n:
            raise ValueError("matrix must be square and nonempty")
        for line in lines:
            last = -1
            for j, e in line:
                if not last < j < n or e is POS_INF:
                    raise ValueError("row entries must ascend in range and leave +inf out")
                last = j
        m = TropMatrix.__new__(TropMatrix)
        m._index(n, lines)
        return m

    def _index(self, n: int, row_entries: tuple) -> None:
        """Set every slot from the row lists: the column lists are their transpose."""
        cols: list[list] = [[] for _ in range(n)]
        col_masks = [0] * n
        row_masks = []
        for i, line in enumerate(row_entries):
            bit = 1 << i
            mask = 0
            for j, e in line:
                cols[j].append((i, e))
                col_masks[j] |= bit
                mask |= 1 << j
            row_masks.append(mask)
        self._set(n, row_entries, tuple(row_masks), tuple(map(tuple, cols)), tuple(col_masks))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("TropMatrix is immutable")

    @staticmethod
    def from_probs(rows: Sequence[Sequence[Rational]]) -> "TropMatrix":
        return TropMatrix((ExtReal.from_prob(p) for p in row) for row in rows)

    def _dense(self, line: Sequence[tuple[int, ExtReal]]) -> tuple[ExtReal, ...]:
        out = [POS_INF] * self.n
        for j, e in line:
            out[j] = e
        return tuple(out)

    @property
    def rows(self) -> tuple[tuple[ExtReal, ...], ...]:
        return tuple(map(self._dense, self.row_entries))

    @property
    def cols(self) -> tuple[tuple[ExtReal, ...], ...]:
        return tuple(map(self._dense, self.col_entries))

    def column(self, j: int) -> tuple[ExtReal, ...]:
        return self._dense(self.col_entries[j])

    def __getitem__(self, ij: tuple[int, int]) -> ExtReal:
        i, j = ij
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i},{j}) out of range")
        if not (self.row_masks[i] >> j) & 1:
            return POS_INF
        line = self.row_entries[i]
        return line[bisect_left(line, j, key=itemgetter(0))][1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropMatrix) and self.row_entries == other.row_entries

    def __hash__(self) -> int:
        return hash(self.row_entries)

    def transpose(self) -> "TropMatrix":
        """The same lists with the roles of rows and columns swapped."""
        t = TropMatrix.__new__(TropMatrix)
        t._set(self.n, self.col_entries, self.col_masks, self.row_entries, self.row_masks)
        return t

    def apply_min(self, coords: Sequence[ExtReal]) -> tuple[ExtReal, ...]:
        """(min,+) matrix-vector product, returned as raw coordinates.

        Each coordinate that is not +inf adds one term per listed entry of
        its column; every other term is +inf.
        """
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        out = [POS_INF] * self.n
        _min_plus(self.col_entries, [(j, x) for j, x in enumerate(coords) if x is not POS_INF], out)
        return tuple(out)

    def apply_max(self, coords: Sequence[ExtReal]) -> tuple[ExtReal, ...]:
        """(max,+) matrix-vector product, returned as raw coordinates.

        A row with a +inf entry where the coordinate is not -inf is +inf;
        any other row is the maximum over its listed entries.
        """
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        live = sum(1 << j for j, x in enumerate(coords) if x is not NEG_INF)
        return tuple(
            POS_INF if live & ~mask else tmax_all(tmax_mul(a, coords[j]) for j, a in entries)
            for entries, mask in zip(self.row_entries, self.row_masks)
        )

    def compose_min(self, other: "TropMatrix") -> "TropMatrix":
        """(min,+) matrix product self * other, listed column by column.

        Column k of the product is self applied to column k of other, and
        `_min_plus` forms its terms from the listed entries (j, b) of that
        column and (i, a) of column j of self.  The product lists exactly
        its entries that are not +inf: entry (i, k) is the minimum over j
        of a_ij + b_jk; a term with a +inf factor is +inf under ``tmul``
        and two factors that are not +inf never sum to +inf, so the entry
        is not +inf exactly when some j has both factors listed.  Those i
        are the union of the masks of the columns j that column k lists;
        they are read in ascending order, and the accumulator is reset
        there for the next column.
        """
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        acc = [POS_INF] * self.n
        masks = self.col_masks
        cols = []
        for line in other.col_entries:
            _min_plus(self.col_entries, line, acc)
            reached = 0
            for j, _ in line:
                reached |= masks[j]
            col = []
            for i in bits(reached):
                col.append((i, acc[i]))
                acc[i] = POS_INF
            cols.append(tuple(col))
        t = TropMatrix.__new__(TropMatrix)
        t._index(self.n, tuple(cols))
        return t.transpose()


def _min_plus(
    col_entries: Sequence[Sequence[tuple[int, ExtReal]]],
    pairs: Iterable[tuple[int, ExtReal]],
    out: list[ExtReal],
) -> None:
    """The one (min,+) kernel: out_i = min(out_i, a_ij + x_j) on listed terms.

    `pairs` lists the (j, x_j) with x_j not +inf, and each column j lists
    its (i, a_ij) with a_ij not +inf; every other term is +inf and leaves
    out unchanged.
    """
    for j, x in pairs:
        for i, a in col_entries[j]:
            out[i] = tmin(out[i], tmul(a, x))


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def funk(x: TropVector, y: TropVector) -> ExtReal:
    """Directed Funk distance max{ y_i - x_i : x_i != +inf }.

    Differences use the (max,+) convention; an empty index set gives -inf.
    """
    _check_len(x, y)
    return tmax_all(
        tmax_mul(yi, neg(xi)) for xi, yi in zip(x, y) if xi is not POS_INF
    )

