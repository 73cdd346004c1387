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

A ``TropVector`` is stored the same way: ``n``, a fill (+inf or -inf) and
the ``(index, value)`` entries that differ from it, ascending, with their
bitmask.  Each dense vector has one form: the fill is the infinity that
more coordinates hold, on a tie the one at the lowest index holding
either, and +inf when none is infinite.  A column of a metric, +inf off a
down-set, lists that down-set; its negation, -inf there, has fill -inf and
lists the same indices; negation swaps the fill.

``_min_plus`` is the one (min,+) kernel.  ``TropMatrix.apply_min`` runs it
on a vector with fill +inf, and projection (and with it membership),
spans, retractions, extensions and the duality identities go through
``apply_min``; ``TropMatrix.compose_min`` runs it on each listed column of
its right factor and lists the product's entries directly.
``TropMatrix.apply_max`` is the one (max,+) product, behind the Isbell
maps.  Each product proves its output fill in its docstring:

* ``apply_min`` keeps the fill.  With fill +inf a row no listed term
  reaches is +inf, since +inf absorbs under ``tmul``, even against -inf;
  with fill -inf a row that lists an unlisted index is -inf.
* ``apply_max`` gives fill +inf: a row that misses (is +inf at) an index
  whose coordinate is not -inf is +inf, and with fill -inf the rows that
  miss no listed index are the AND of their column masks.

So on a text model's metric every product costs the entries of the order
that its listed indices reach, not n per product.
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
_index0 = itemgetter(0)  # the index of an (index, value) entry


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
    """Immutable vector over ExtReal, stored as a fill and its listed entries.

    A vector of length ``n`` keeps its ``fill``, ``POS_INF`` or ``NEG_INF``,
    and its ``entries``: the ``(index, value)`` pairs whose value is not the
    fill, in ascending index, with ``mask``, the bitmask of their indices.
    Every coordinate the list leaves out holds the fill, as in GraphBLAS.
    Each dense vector has exactly one such form, so ``==`` and ``hash``
    compare forms.  The rule: the fill is the infinity that more
    coordinates hold; on a tie, the one at the lowest index that holds
    either; and +inf when no coordinate is infinite.  Negation swaps the
    two counts and the sign at each index, so it swaps the fill whenever
    some coordinate is infinite.

    Coordinates may be -inf or +inf; the duality and Isbell maps produce
    both.  A vector with no -inf coordinate and not all +inf is at once the
    point z = exp(-x) of the multiplicative cone (nonnegative, not all
    zero), which ``mults`` reads exactly and ``canonical`` checks; ray
    generators are kept so.  Such a vector has fill +inf and lists its
    support.  ``TropVector(coords)`` takes the dense coordinates, and
    ``TropVector.from_entries`` a fill and entries; ``coords`` builds the
    dense tuple on demand, for file output and the dense test references.
    """

    __slots__ = ("n", "fill", "entries", "mask")

    def __init__(self, coords: Iterable[ExtReal]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("empty vector")
        _assign(self, *_form(len(cs), POS_INF, enumerate(cs)))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TropVector is immutable")

    @staticmethod
    def from_probs(ps: Sequence[Rational]) -> "TropVector":
        return TropVector(ExtReal.from_prob(p) for p in ps)

    @staticmethod
    def from_entries(
        n: int, fill: ExtReal, entries: Iterable[tuple[int, ExtReal]]
    ) -> "TropVector":
        """The vector of length n that holds `fill` (+inf or -inf) off `entries`.

        `entries` lists ``(index, value)`` pairs in strictly ascending index
        in range(n); a value equal to the fill may be listed.
        """
        if n <= 0:
            raise ValueError("empty vector")
        if fill is not POS_INF and fill is not NEG_INF:
            raise ValueError("the fill must be +inf or -inf")
        es = tuple(entries)
        last = -1
        for i, _ in es:
            if not last < i < n:
                raise ValueError("entries must ascend in range")
            last = i
        return _vector(n, fill, es)

    @property
    def coords(self) -> tuple[ExtReal, ...]:
        """The dense coordinates, built from the entries."""
        out = [self.fill] * self.n
        for i, v in self.entries:
            out[i] = v
        return tuple(out)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> ExtReal:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range")
        if not (self.mask >> i) & 1:
            return self.fill
        es = self.entries
        return es[bisect_left(es, i, key=_index0)][1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TropVector)
            and self.mask == other.mask
            and self.n == other.n
            and self.fill is other.fill
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.n, self.fill is POS_INF, self.entries))

    def __repr__(self) -> str:
        return "TropVector(%s)" % ", ".join(f"{c.log:.4g}" for c in self.coords)

    @property
    def support(self) -> tuple[int, ...]:
        """The indices whose coordinate is not +inf, ascending."""
        if self.fill is POS_INF:
            return tuple(i for i, _ in self.entries)
        gaps = {i for i, v in self.entries if v is POS_INF}
        return tuple(i for i in range(self.n) if i not in gaps)

    def min_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        pairs = [(i, tmin(a, b)) for i, a, b in _aligned(self, other)]
        return _vector(self.n, tmin(self.fill, other.fill), pairs)

    def max_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        pairs = [(i, tmax(a, b)) for i, a, b in _aligned(self, other)]
        return _vector(self.n, tmax(self.fill, other.fill), pairs)

    def leq(self, other: "TropVector") -> bool:
        """Whether self <= other in every coordinate."""
        _check_len(self, other)
        if (self.mask | other.mask) != (1 << self.n) - 1 and not self.fill <= other.fill:
            return False  # some index that neither lists compares the fills
        return all(a <= b for _, a, b in _aligned(self, other))

    def scaled(self, lam: ExtReal) -> "TropVector":
        """lam + self coordinatewise, (min,+) convention."""
        entries = [(i, tmul(lam, c)) for i, c in self.entries]
        return _vector(self.n, tmul(lam, self.fill), entries)

    def negated(self) -> "TropVector":
        """-self: the entries negated and, unless every coordinate is listed, the fill swapped.

        A vector that lists all n coordinates has fill +inf and no infinite
        coordinate (otherwise the infinities would outnumber the fill's
        zero), and so has its negation.
        """
        fill = self.fill
        if len(self.entries) < self.n:
            fill = NEG_INF if fill is POS_INF else POS_INF
        return _make(self.n, fill, tuple((i, neg(c)) for i, c in self.entries), self.mask)

    def canonical(self) -> "TropVector":
        """The same ray scaled so its largest multiplicative coordinate is 1.

        The smallest log coordinate is the largest multiplicative one, so
        adding its negation makes that coordinate 0; +inf ones stay +inf.
        Only a cone point has one: the smallest coordinate is -inf when any
        is, and +inf when all are, and either raises.  A fill of -inf is
        held by some coordinate, and with a fill of +inf the smallest
        coordinate is the smallest listed one, +inf when none is listed.
        A vector whose smallest coordinate is 0 already is returned as it
        is: most of the ray generators that reach here are, and scaling
        them again made perfbench's sweep pass 3% slower.
        """
        top = NEG_INF if self.fill is NEG_INF else tmin_all(c for _, c in self.entries)
        if not top.is_finite:
            raise ValueError("not a cone point")
        return self if top.num == top.den else self.scaled(neg(top))

    def proportional(self, other: "TropVector") -> bool:
        """Whether both span the same ray (differ by one additive shift)."""
        return len(self) == len(other) and self.canonical() == other.canonical()

    def mults(self) -> tuple[Fraction, ...]:
        """Exact multiplicative coordinates exp(-x_i): +inf reads 0."""
        return tuple(c.mult for c in self.coords)


# Every vector is built here, through the slots' own setters, which get past
# the guard in `__setattr__`: `object.__setattr__`, a lookup by name per slot,
# made perfbench's corpus pass 6% slower (2-core x86-64, Python 3.11).
_SET_N, _SET_FILL, _SET_ENTRIES, _SET_MASK = (
    TropVector.__dict__[name].__set__ for name in TropVector.__slots__
)


def _assign(v: TropVector, n: int, fill: ExtReal, entries: tuple, mask: int) -> None:
    _SET_N(v, n)
    _SET_FILL(v, fill)
    _SET_ENTRIES(v, entries)
    _SET_MASK(v, mask)


def _make(n: int, fill: ExtReal, entries: tuple, mask: int) -> TropVector:
    """Unchecked constructor from a form that already follows the fill rule."""
    v = _new(TropVector)
    _assign(v, n, fill, entries, mask)
    return v


def _vector(n: int, fill: ExtReal, entries: Iterable[tuple[int, ExtReal]]) -> TropVector:
    """The vector of length n that holds `fill` off `entries`, in its one form."""
    return _make(*_form(n, fill, entries))


def _form(n: int, fill: ExtReal, entries: Iterable[tuple[int, ExtReal]]) -> tuple:
    """(n, fill, entries, mask) of the vector that holds `fill` off `entries`.

    `entries` lists (index, value) pairs in ascending index; those whose
    value is the fill are dropped.  When the other infinity wins the fill
    rule, it holds at least as many coordinates as the fill does, all of
    them listed, so the unlisted indices that become entries number at
    most the listed ones, and the swap costs O(listed).
    """
    other = NEG_INF if fill is POS_INF else POS_INF
    listed = [e for e in entries if e[1] is not fill]
    mask = count = 0
    first = n  # the lowest index that holds the other infinity
    for i, v in listed:
        mask |= 1 << i
        if v is other:
            if not count:
                first = i
            count += 1
    held = n - len(listed)
    if count > held or count == held and (
        first < ((mask + 1) & ~mask).bit_length() - 1 if count else fill is NEG_INF
    ):
        gaps = [(i, fill) for i in bits(((1 << n) - 1) & ~mask)]
        kept = [e for e in listed if e[1] is not other]
        listed = sorted(gaps + kept)
        fill = other
        mask = 0
        for i, _ in listed:
            mask |= 1 << i
    return n, fill, tuple(listed), mask


def _aligned(x: TropVector, y: TropVector):
    """(i, x_i, y_i) for each index that x or y lists, ascending."""
    a, b = x.entries, y.entries
    p = q = 0
    while p < len(a) and q < len(b):
        (i, u), (j, v) = a[p], b[q]
        if i == j:
            yield i, u, v
            p += 1
            q += 1
        elif i < j:
            yield i, u, y.fill
            p += 1
        else:
            yield j, x.fill, v
            q += 1
    for i, u in a[p:]:
        yield i, u, y.fill
    for j, v in b[q:]:
        yield j, x.fill, v


def _check_len(x: TropVector, y: TropVector) -> None:
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")


class TropMatrix:
    """Square matrix over ExtReal with (min,+) and (max,+) products.

    Only its finite-entry index is stored: ``n`` and, per row and per
    column, the ``(index, entry)`` pairs whose entry is not +inf, listed in
    ascending index, with the bitmask of the indices.  A +inf entry is
    implicit, as in GraphBLAS: it is every entry the lists leave out, so
    two matrices are equal exactly when their row lists are.  ``gaps``
    lists the indices whose diagonal entry is +inf, none in a metric.
    ``column(j)`` and ``row(i)`` are vectors, and the dense ``rows`` and
    ``cols`` and ``m[i, j]`` are built from the lists when asked for, for
    file output and the dense test references.

    ``TropMatrix(rows)`` takes dense rows; ``TropMatrix.from_entries``
    takes the row lists themselves.
    """

    __slots__ = (
        "n",
        "row_entries",
        "row_masks",
        "col_entries",
        "col_masks",
        "gaps",
    )

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
        gaps = []
        for i, line in enumerate(row_entries):
            bit = 1 << i
            mask = 0
            for j, e in line:
                cols[j].append((i, e))
                col_masks[j] |= bit
                mask |= 1 << j
            row_masks.append(mask)
            if not mask & bit:
                gaps.append(i)
        cols = tuple(map(tuple, cols))
        self._set(n, row_entries, tuple(row_masks), cols, tuple(col_masks), tuple(gaps))

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

    def column(self, j: int) -> TropVector:
        """Column j as a vector: +inf off its listed entries."""
        return _vector(self.n, POS_INF, self.col_entries[j])

    def row(self, i: int) -> TropVector:
        """Row i as a vector: +inf off its listed entries."""
        return _vector(self.n, POS_INF, self.row_entries[i])

    def __getitem__(self, ij: tuple[int, int]) -> ExtReal:
        i, j = ij
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i},{j}) out of range")
        if not (self.row_masks[i] >> j) & 1:
            return POS_INF
        line = self.row_entries[i]
        return line[bisect_left(line, j, key=_index0)][1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropMatrix) and self.row_entries == other.row_entries

    def __hash__(self) -> int:
        return hash(self.row_entries)

    def transpose(self) -> "TropMatrix":
        """The same lists with the roles of rows and columns swapped."""
        t = TropMatrix.__new__(TropMatrix)
        t._set(self.n, self.col_entries, self.col_masks, self.row_entries, self.row_masks, self.gaps)
        return t

    def apply_min(self, x: TropVector) -> TropVector:
        """(min,+) matrix-vector product: row i is min_j a_ij + x_j (``tmul``).

        A term is +inf when either factor is, since +inf absorbs under
        ``tmul``, and -inf when neither is +inf and one is -inf.

        * Fill +inf: only a listed x_j adds terms, one per listed entry of
          column j, and a row that none of them reaches is +inf.  The
          output has fill +inf, and costs the listed entries of x's
          columns.
        * Fill -inf: a row that lists an index x leaves out has the term
          a_ij + (-inf) = -inf, so it is -inf, the output's fill.  Any
          other row lists only indices that x lists; it lists its own
          index, which x lists then, unless it is one of ``gaps``.  Each
          such row is the minimum over its entries, so the product costs
          the entries of the rows x lists.
        """
        n = self.n
        if x.n != n:
            raise ValueError("dimension mismatch")
        if x.fill is POS_INF:
            return _vector(n, POS_INF, _min_plus(self.col_entries, x.entries))
        listed = dict(x.entries)
        rows = self.row_entries
        out = []
        for i in sorted(listed.keys() | set(self.gaps)):
            num, den = 0, 1  # the mirror of the least term so far, +inf
            for j, a in rows[i]:
                v = listed.get(j)
                if v is None:  # x_j = -inf
                    num, den = 1, 0
                    break
                # a + x_j multiplies the mirrors; +inf (0, 1) never wins
                tn, td = a.num * v.num, a.den * v.den
                if tn * den > num * td:
                    num, den = tn, td
            out.append((i, _reduced(num, den)))
        return _vector(n, NEG_INF, out)

    def apply_max(self, x: TropVector) -> TropVector:
        """(max,+) matrix-vector product: row i is max_j a_ij + x_j (``tmax_mul``).

        A term is -inf when either factor is, since -inf absorbs under
        ``tmax_mul``, and +inf when neither is -inf and one is +inf.  Call
        j live when x_j is not -inf.  A row that misses a live j (a_ij =
        +inf) has a +inf term and is +inf, the output's fill; in any other
        row the terms off the live indices are -inf, so the row is the
        maximum over its live terms, each of them listed in the row.

        * Fill -inf: the live indices are the listed ones, and the rows
          that miss none are the AND of their column masks.  With none
          listed, every term is -inf and so is every row.
        * Fill +inf: every unlisted index is live, and the rows that miss
          none lie in the column mask of the least live index.
        """
        n = self.n
        if x.n != n:
            raise ValueError("dimension mismatch")
        masks = self.col_masks
        fill = x.fill
        if fill is NEG_INF:
            if not x.entries:
                return x
            live = x.mask
            reached = masks[x.entries[0][0]]
            for j, _ in x.entries:
                reached &= masks[j]
        else:
            live = (1 << n) - 1
            for j, v in x.entries:
                if v is NEG_INF:
                    live ^= 1 << j
            reached = masks[(live & -live).bit_length() - 1]
        listed = dict(x.entries)
        rows, row_masks = self.row_entries, self.row_masks
        out = []
        for i in bits(reached):
            if fill is POS_INF and live & ~row_masks[i]:
                continue  # row i misses a live index
            out.append((i, _max_sum([(a, listed.get(j, fill)) for j, a in rows[i]])))
        return _vector(n, POS_INF, out)

    def compose_min(self, other: "TropMatrix") -> "TropMatrix":
        """(min,+) matrix product self * other, listed column by column.

        Column k of the product is self applied to column k of other, and
        `_min_plus` forms its terms from the listed entries (j, b) of that
        column and (i, a) of column j of self.  The product lists exactly
        its entries that are not +inf: entry (i, k) is the minimum over j
        of a_ij + b_jk; a term with a +inf factor is +inf under ``tmul``
        and two factors that are not +inf never sum to +inf, so the entry
        is not +inf exactly when some j has both factors listed, which is
        when `_min_plus` reaches row i.
        """
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(tuple(_min_plus(self.col_entries, line)) for line in other.col_entries)
        t = TropMatrix.__new__(TropMatrix)
        t._index(self.n, cols)
        return t.transpose()


def _min_plus(
    col_entries: Sequence[Sequence[tuple[int, ExtReal]]],
    pairs: Sequence[tuple[int, ExtReal]],
) -> list[tuple[int, ExtReal]]:
    """The one (min,+) kernel: (i, min_j a_ij + x_j) for each row the terms reach.

    `pairs` lists the (j, x_j) with x_j not +inf, and each column j lists
    its (i, a_ij) with a_ij not +inf; every other term is +inf, and a row
    that no listed term reaches is left out.  The rows come in ascending
    order.  Each term is the product of the two mirrors, -inf's (1, 0)
    included, and only each row's least term is reduced.
    """
    acc: dict[int, tuple[int, int]] = {}
    get = acc.get
    for j, x in pairs:
        xn, xd = x.num, x.den
        for i, a in col_entries[j]:
            num, den = a.num * xn, a.den * xd
            cur = get(i)
            if cur is None or num * cur[1] > cur[0] * den:
                acc[i] = num, den
    return [(i, _reduced(*acc[i])) for i in sorted(acc)]


def _max_sum(pairs: Iterable[tuple[ExtReal, ExtReal]]) -> ExtReal:
    """max over the pairs of a + v, (max,+) convention; -inf when there are none."""
    num, den = 1, 0  # the mirror of the greatest term so far, -inf
    for a, v in pairs:
        if a is NEG_INF or v is NEG_INF:
            continue
        if a is POS_INF or v is POS_INF:
            return POS_INF
        tn, td = a.num * v.num, a.den * v.den
        if tn * den < num * td:
            num, den = tn, td
    return _reduced(num, den)


def _reduced(num: int, den: int) -> ExtReal:
    """The value whose mirror is num/den, not 0/0: a shared infinity or a reduced pair."""
    if not num:
        return POS_INF
    if not den:
        return NEG_INF
    g = math.gcd(num, den)
    return _pair(num // g, den // g)


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
