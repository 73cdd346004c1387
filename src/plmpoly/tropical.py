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

``TropMatrix.apply_min`` is the one (min,+) product: projection (and with
it membership), spans, retractions, extensions, the duality identities and
``compose_min`` (one ``apply_min`` per column) all go through it.
``TropMatrix.apply_max`` is the one (max,+) product, behind the Isbell maps.
Both walk a finite-entry index: each row's and each column's entries that
are not +inf, listed once, which the transpose shares with the roles
swapped.  ``apply_min`` forms a term only where neither the entry nor the
coordinate is +inf: +inf absorbs any other term under ``tmul``, even
against -inf, and a minimum over no terms is +inf.  ``apply_max`` gives +inf
in a row where a coordinate other than -inf meets a +inf entry; elsewhere
every +inf entry meets -inf, which absorbs under ``tmax_mul``, so the
maximum runs over the row's listed entries.  A text model's metric is +inf
off the order, so both cost as many terms as the order has pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    if f < 0:
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

    Beside ``rows`` and ``cols``, per row and per column: the ``(index,
    entry)`` pairs whose entry is not +inf, and the bitmask of the indices.
    """

    __slots__ = ("rows", "cols", "row_entries", "row_masks", "col_entries", "col_masks")

    def __init__(self, rows: Iterable[Iterable[ExtReal]]):
        rs = tuple(tuple(r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        row_entries = tuple(tuple((j, e) for j, e in enumerate(r) if e is not POS_INF) for r in rs)
        cols: list[list] = [[] for _ in rs]
        for i, entries in enumerate(row_entries):
            for j, e in entries:
                cols[j].append((i, e))
        col_entries = tuple(map(tuple, cols))
        self._set(
            rs, tuple(zip(*rs)), row_entries, _masks(row_entries), col_entries, _masks(col_entries)
        )

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("TropMatrix is immutable")

    @staticmethod
    def from_probs(rows: Sequence[Sequence[Rational]]) -> "TropMatrix":
        return TropMatrix((ExtReal.from_prob(p) for p in row) for row in rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> ExtReal:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TropMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def transpose(self) -> "TropMatrix":
        """The same tuples with the roles of rows and columns swapped."""
        t = TropMatrix.__new__(TropMatrix)
        t._set(
            self.cols, self.rows, self.col_entries, self.col_masks, self.row_entries, self.row_masks
        )
        return t

    def apply_min(self, coords: Sequence[ExtReal]) -> tuple[ExtReal, ...]:
        """(min,+) matrix-vector product, returned as raw coordinates.

        Each coordinate that is not +inf adds one term per listed entry of
        its column; every other term is +inf.
        """
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        out = [POS_INF] * self.n
        for j, x in enumerate(coords):
            if x is not POS_INF:
                for i, a in self.col_entries[j]:
                    out[i] = tmin(out[i], tmul(a, x))
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
        """(min,+) matrix product self * other, one apply_min per column."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return TropMatrix(zip(*(self.apply_min(col) for col in other.cols)))

    def column(self, j: int) -> tuple[ExtReal, ...]:
        return self.cols[j]


def _masks(entries: Sequence[Sequence[tuple[int, ExtReal]]]) -> tuple[int, ...]:
    """Bitmask of the listed indices of each line."""
    return tuple(sum(1 << j for j, _ in line) for line in entries)


def funk(x: TropVector, y: TropVector) -> ExtReal:
    """Directed Funk distance max{ y_i - x_i : x_i != +inf }.

    Differences use the (max,+) convention; an empty index set gives -inf.
    """
    _check_len(x, y)
    return tmax_all(
        tmax_mul(yi, neg(xi)) for xi, yi in zip(x, y) if xi is not POS_INF
    )

