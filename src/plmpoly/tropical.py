"""Exact tropical arithmetic over the extended reals [-inf, +inf].

Every finite value handled here is the negative log of a positive rational,
so each number is stored as that rational (the "multiplicative mirror") and
all decisions (comparisons, equality, saturation) are exact.  Floats only
appear when a caller asks for the log-domain reading of a value.

Two addition conventions coexist and are kept as separate operations:

* ``tmul``     -- (min,+): +inf is absorbing, (+inf) + (-inf) = +inf.
* ``tmax_mul`` -- (max,+): -inf is absorbing, (+inf) + (-inf) = -inf.

In the multiplicative mirror these read "zero absorbs" vs "infinity absorbs".

``TropMatrix.apply_min`` is the one (min,+) product: projection, spans,
retractions, extensions, the duality identities and ``compose_min`` (one
``apply_min`` per column) all go through it.  It iterates only over the
argument's coordinates that are not +inf.  Skipping them is exact: under
``tmul`` a +inf operand absorbs the term, even against -inf, and a minimum
over no terms is +inf, so those terms never change a coordinate.  For the
metric of a text model, which is +inf off the order, this makes the
product sparse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str]


def _as_fraction(value: Rational) -> Fraction:
    f = Fraction(value)
    if f < 0:
        raise ValueError(f"multiplicative values must be nonnegative, got {value!r}")
    return f


class ExtReal:
    """A point of [-inf, +inf], stored as the exact rational exp(-value).

    ``_m`` is the multiplicative mirror: ``Fraction(0)`` encodes +inf,
    ``None`` encodes -inf (an infinite multiplicative value), and any
    positive Fraction encodes the finite log value -log(_m).
    """

    __slots__ = ("_m",)

    def __init__(self, mult: Fraction | None):
        self._m = mult

    @staticmethod
    def from_prob(p: Rational) -> "ExtReal":
        return ExtReal(_as_fraction(p))

    @staticmethod
    def from_log(x: float) -> "ExtReal":
        """Nearest representable value for a float log reading."""
        if x == math.inf:
            return POS_INF
        if x == -math.inf:
            return NEG_INF
        m = math.exp(-x)
        if m == 0.0 or m == math.inf:
            # beyond float range: fall back to an exact power of two
            k = round(x / math.log(2.0))
            return ExtReal(Fraction(1, 2**k) if k >= 0 else Fraction(2 ** (-k)))
        return ExtReal(Fraction(m))

    @property
    def is_pos_inf(self) -> bool:
        return self._m == 0

    @property
    def is_neg_inf(self) -> bool:
        return self._m is None

    @property
    def is_finite(self) -> bool:
        return self._m is not None and self._m != 0

    @property
    def mult(self) -> Fraction:
        """Exact multiplicative value exp(-self); undefined at -inf."""
        if self._m is None:
            raise OverflowError("-inf has no finite multiplicative value")
        return self._m

    @property
    def log(self) -> float:
        """Float reading of the value itself (log domain)."""
        if self._m is None:
            return -math.inf
        if self._m == 0:
            return math.inf
        return math.log(self._m.denominator) - math.log(self._m.numerator)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtReal) and self._m == other._m

    def __hash__(self) -> int:
        return hash(self._m)

    def __le__(self, other: "ExtReal") -> bool:
        # log order reverses the multiplicative order; None is the largest mirror
        if self._m is None:
            return True
        if other._m is None:
            return False
        return self._m >= other._m

    def __lt__(self, other: "ExtReal") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "ExtReal") -> bool:
        return other <= self

    def __gt__(self, other: "ExtReal") -> bool:
        return other < self

    def __repr__(self) -> str:
        if self._m is None:
            return "ExtReal(-inf)"
        if self._m == 0:
            return "ExtReal(+inf)"
        return f"ExtReal({self.log:.6g}, mult={self._m})"


POS_INF = ExtReal(Fraction(0))
NEG_INF = ExtReal(None)
ZERO = ExtReal(Fraction(1))


def tmin(a: ExtReal, b: ExtReal) -> ExtReal:
    return a if a <= b else b


def tmax(a: ExtReal, b: ExtReal) -> ExtReal:
    return b if a <= b else a


def tmul(a: ExtReal, b: ExtReal) -> ExtReal:
    """a + b with the (min,+) convention: any +inf operand wins."""
    if a._m == 0 or b._m == 0:
        return POS_INF
    if a._m is None or b._m is None:
        return NEG_INF
    return ExtReal(a._m * b._m)


def tmax_mul(a: ExtReal, b: ExtReal) -> ExtReal:
    """a + b with the (max,+) convention: any -inf operand wins."""
    if a._m is None or b._m is None:
        return NEG_INF
    if a._m == 0 or b._m == 0:
        return POS_INF
    return ExtReal(a._m * b._m)


def neg(a: ExtReal) -> ExtReal:
    if a._m is None:
        return POS_INF
    if a._m == 0:
        return NEG_INF
    return ExtReal(1 / a._m)


def tmin_all(values: Iterable[ExtReal]) -> ExtReal:
    out = POS_INF
    for v in values:
        if v < out:
            out = v
    return out


def tmax_all(values: Iterable[ExtReal]) -> ExtReal:
    out = NEG_INF
    for v in values:
        if out < v:
            out = v
    return out


def close_log(a: float, b: float, tol: float = 1e-9) -> bool:
    """Log-domain comparison: absolute tolerance scaled by magnitude."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TropVector:
    """Immutable coordinate vector over ExtReal.

    Standard vectors forbid -inf coordinates and the all-(+inf) point;
    ``extended=True`` lifts both restrictions (the scratch space used by
    the duality and Isbell maps).
    """

    __slots__ = ("coords", "extended")

    def __init__(self, coords: Iterable[ExtReal], extended: bool = False):
        cs = tuple(coords)
        if not cs:
            raise ValueError("empty vector")
        if not extended:
            if any(c.is_neg_inf for c in cs):
                raise ValueError("-inf coordinate in a standard vector")
            if all(c.is_pos_inf for c in cs):
                raise ValueError("all-(+inf) vector")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "extended", extended)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TropVector is immutable")

    @staticmethod
    def from_probs(ps: Sequence[Rational], extended: bool = False) -> "TropVector":
        return TropVector((ExtReal.from_prob(p) for p in ps), extended)

    @staticmethod
    def from_logs(xs: Sequence[float], extended: bool = False) -> "TropVector":
        return TropVector((ExtReal.from_log(x) for x in xs), extended)

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
        return tuple(i for i, c in enumerate(self.coords) if not c.is_pos_inf)

    def min_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        ext = self.extended or other.extended
        return TropVector((tmin(a, b) for a, b in zip(self, other)), ext)

    def max_with(self, other: "TropVector") -> "TropVector":
        _check_len(self, other)
        ext = self.extended or other.extended
        return TropVector((tmax(a, b) for a, b in zip(self, other)), ext)

    def scaled(self, lam: ExtReal) -> "TropVector":
        """lam + self coordinatewise, (min,+) convention."""
        return TropVector((tmul(lam, c) for c in self.coords), self.extended)

    def negated(self) -> "TropVector":
        return TropVector((neg(c) for c in self.coords), extended=True)

    def logs(self) -> tuple[float, ...]:
        return tuple(c.log for c in self.coords)


def _check_len(x, y) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


class TropMatrix:
    """Square matrix over ExtReal with (min,+) and (max,+) products."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[ExtReal]]):
        rs = tuple(tuple(r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *a):
        raise AttributeError("TropMatrix is immutable")

    @staticmethod
    def from_probs(rows: Sequence[Sequence[Rational]]) -> "TropMatrix":
        return TropMatrix((ExtReal.from_prob(p) for p in row) for row in rows)

    @staticmethod
    def identity(n: int) -> "TropMatrix":
        return TropMatrix(
            ((ZERO if i == j else POS_INF) for j in range(n)) for i in range(n)
        )

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
        return TropMatrix(zip(*self.rows))

    def apply_min(self, coords: Sequence[ExtReal]) -> tuple[ExtReal, ...]:
        """(min,+) matrix-vector product, returned as raw coordinates.

        Only the coordinates that are not +inf contribute a term.
        """
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        live = [(j, x) for j, x in enumerate(coords) if not x.is_pos_inf]
        return tuple(tmin_all(tmul(row[j], x) for j, x in live) for row in self.rows)

    def apply_max(self, coords: Sequence[ExtReal]) -> tuple[ExtReal, ...]:
        """(max,+) matrix-vector product, returned as raw coordinates."""
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(
            tmax_all(tmax_mul(a, x) for a, x in zip(row, coords)) for row in self.rows
        )

    def compose_min(self, other: "TropMatrix") -> "TropMatrix":
        """(min,+) matrix product self * other, one apply_min per column."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return TropMatrix(zip(*(self.apply_min(col) for col in zip(*other.rows))))

    def column(self, j: int) -> tuple[ExtReal, ...]:
        return tuple(row[j] for row in self.rows)


def min_plus_apply(m: TropMatrix, x: TropVector) -> TropVector:
    """(min,+) product m x as a vector; inherits x's arithmetic mode."""
    return TropVector(m.apply_min(x.coords), extended=x.extended)


def max_plus_apply(m: TropMatrix, x: TropVector) -> TropVector:
    return TropVector(m.apply_max(x.coords), extended=x.extended)


def funk(x: TropVector, y: TropVector) -> ExtReal:
    """Directed Funk distance max{ y_i - x_i : x_i != +inf }.

    Differences use the (max,+) convention; an empty index set gives -inf.
    """
    _check_len(x, y)
    return tmax_all(
        tmax_mul(yi, neg(xi)) for xi, yi in zip(x, y) if not xi.is_pos_inf
    )


def funk_q(z: Sequence[Rational], z2: Sequence[Rational]) -> ExtReal:
    """Multiplicative-domain Funk distance max{ log(z_i / z2_i) : z_i != 0 }.

    Restricting to indices where the *first* argument is nonzero makes this
    agree exactly with funk(-log z, -log z2).
    """
    if len(z) != len(z2):
        raise ValueError("length mismatch")
    zs = [_as_fraction(v) for v in z]
    ws = [_as_fraction(v) for v in z2]
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
