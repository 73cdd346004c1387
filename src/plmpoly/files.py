"""Number, vector, JSON and CSV text, and the reads and writes of every file.

Numbers are exact rational strings in the multiplicative domain, with
``inf`` and ``-inf`` for the infinities of the log domain.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import sys
from fractions import Fraction
from math import inf, isinf
from types import SimpleNamespace
from typing import Iterable, Sequence

from .tropical import NEG_INF, POS_INF, ExtReal, TropVector

# ---------------------------------------------------------------------------
# number text

# Python's default limit on the digits of an integer read from or printed as
# a string
MAX_DIGITS = 4300


def read_rational(token) -> Fraction:
    """A number as a file writes it: any `Fraction` literal, its size bounded.

    `Fraction` expands a decimal exponent, so ``"1e-99999999"`` would build
    a 10**8-digit integer.  Once expanded, the numerator and the
    denominator have at most one digit more than the mantissa's digits
    plus the exponent's size; a number where that sum reaches
    ``MAX_DIGITS`` is refused with a ValueError before `Fraction` reads it,
    so a value read can be written back.  Digits are counted as `Fraction`
    reads them: any Unicode decimal digit.
    """
    text = str(token)
    num, slash, den = text.partition("/")
    if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
        # the form `str(Fraction)` writes; `int` keeps the digit limit
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    head, e, tail = text.replace("E", "e").rpartition("e")
    if e:
        exponent = "".join(c for c in tail if c.isdecimal()).lstrip("0")
        size = sum(c.isdecimal() for c in head)
        if len(exponent) > 4 or size + int(exponent or "0") >= MAX_DIGITS:
            raise ValueError(f"{text[:40]!r} has too many digits once its exponent is expanded")
    return Fraction(text)


def float_string(x: float) -> str:
    if isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def ratio_string(num: int, den: int, as_float: bool = False) -> str:
    """The reduced ratio num/den as `Fraction` prints it, or as a decimal."""
    if not as_float:
        return str(num) if den == 1 else f"{num}/{den}"
    try:
        return float_string(num / den)
    except OverflowError:
        return "inf"


def cell_string(c: ExtReal, as_float: bool = False) -> str:
    """A log-domain value: inf, -inf, or its multiplicative mirror."""
    if c is POS_INF:
        return "inf"
    if c is NEG_INF:
        return "-inf"
    return ratio_string(c.num, c.den, as_float)


# ---------------------------------------------------------------------------
# vector text: log-domain entries, finite ones written multiplicatively


def vector_to_strings(x: TropVector, cell=cell_string) -> list[str]:
    """cell(c) for each coordinate c: the fill's string, repeated, then each listed entry's."""
    out = [cell(x.fill)] * x.n
    for i, c in x.entries:
        out[i] = cell(c)
    return out


def vector_from_strings(items: Sequence) -> TropVector:
    """A vector from its file items: the strings inf and -inf, or multiplicative values.

    Only a string names an infinity: a JSON number beyond float range is
    read as the float inf, which no rational equals, and is refused.
    """
    coords = []
    for s in items:
        token = s.strip() if isinstance(s, str) else s
        if token == "inf":
            coords.append(POS_INF)
        elif token == "-inf":
            coords.append(NEG_INF)
        else:
            coords.append(ExtReal.from_prob(read_rational(token)))
    return TropVector(coords)


# ---------------------------------------------------------------------------
# JSON and CSV text

_json_str = json.encoder.encode_basestring_ascii


def _json_scalar(o) -> str:
    """A scalar exactly as `json.dumps` writes it; any other type raises."""
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == inf:
            return "Infinity"
        if o == -inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_pieces(o, out: list[str], nl: str) -> None:
    """Append the pieces of `json.dumps(o, indent=2, sort_keys=True)` to out.

    nl is a newline and the indentation of the line o starts on.  A list
    of scalars is one piece; a dict is written in sorted key order, its
    str, int and None values and its lists of strings each in one piece
    with their key.  A value other than str, int, float, bool, None,
    list, tuple or dict, and a key that is not a str, raise TypeError.
    """
    t = type(o)
    if t is str:
        out.append(_json_str(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        items = inner + "  "
        sep = "{" + inner
        for k in sorted(o):
            v = o[k]
            head = sep + _json_str(k) + ": "
            sep = "," + inner
            t = type(v)
            if t is str:
                out.append(head + _json_str(v))
            elif t is int:
                out.append(head + int.__repr__(v))
            elif v is None:
                out.append(head + "null")
            elif t is list and v and type(v[0]) is str:
                try:
                    text = "[" + items + ("," + items).join(map(_json_str, v)) + inner + "]"
                except TypeError:  # a later item is not a string
                    out.append(head)
                    _json_pieces(v, out, inner)
                else:
                    out.append(head + text)
            else:
                out.append(head)
                _json_pieces(v, out, inner)
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        first = type(o[0])
        if first is not dict and first is not list:
            try:  # the common case, a list of strings, in one C-level join
                body = ("," + inner).join(map(_json_str, o))
            except TypeError:
                body = None
                if not any(isinstance(v, (dict, list, tuple)) for v in o):
                    body = ("," + inner).join(map(_json_scalar, o))
            if body is not None:
                out.append("[" + inner + body + nl + "]")
                return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _json_pieces(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_json_scalar(o))


def csv_text(header: list[str], rows: Iterable[list[str]]):
    """The CSV lines of the header and then each row, one line per piece."""
    # writerow returns what its file's write returns: here the line itself
    w = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    yield w.writerow(header)
    for row in rows:
        yield w.writerow(row)


# ---------------------------------------------------------------------------
# files


def read_text(path: str, name: str | None = None) -> str:
    """A UTF-8 file's text; a fault is ValueError "cannot read", name (or path) and cause."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {name or path}: {exc}") from exc


def read_json(path: str, name: str | None = None):
    """The JSON value of a file read by `read_text`; bad JSON raises the same way."""
    text = read_text(path, name)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested past the stack
        raise ValueError(f"cannot read {name or path}: {exc}") from exc


def read_vector(path: str) -> TropVector:
    """A JSON list of `vector_from_strings` items; any fault is "cannot read vector file"."""
    data = read_json(path, "vector file")
    try:
        if not isinstance(data, list):
            raise ValueError("the file must hold a JSON list")
        return vector_from_strings(data)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read vector file: {exc}") from exc


def check_out_path(path: str) -> os.stat_result | None:
    """The status of an existing output target, or None when there is none.

    Output replaces its target by a rename, which would turn a FIFO or a
    device into a regular file, so a target that exists and is not a
    regular file is refused with ValueError.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    if not stat.S_ISREG(st.st_mode):
        raise ValueError(f"{path} exists and is not a regular file")
    return st


def write_text_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write through a temp file + rename so readers never see partial output.

    text is one string or an iterable of strings, written to the temp file
    as they come; if the iterable raises, the temp file is removed and an
    existing target keeps its bytes.  The target passes `check_out_path`
    before anything is written.  An existing target keeps its permission
    bits; a new file gets 0o666 less the umask, as `open` would give it.
    An OSError names the target, never the temp file.
    """
    st = check_out_path(path)
    dir_, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(dir_, f".{base}.{os.urandom(8).hex()}.tmp")
    try:
        # O_EXCL: a name that already exists is an error, never a file to reuse
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if st is not None:
                    os.fchmod(fh.fileno(), st.st_mode & 0o777)
                fh.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def emit(path: str | None, chunks: str | Iterable[str]) -> None:
    """Write one string, or the strings of an iterable, to path or stdout.

    Standard output gets them once all are made, so a command that fails
    part-way prints nothing, joined 256 at a time so that a large output is
    not held twice; a path is written as they come and left as it was on failure.
    """
    if path:
        write_text_atomic(path, chunks)
    else:
        parts = [chunks] if isinstance(chunks, str) else list(chunks)
        for k in range(0, len(parts), 256):
            sys.stdout.write("".join(parts[k : k + 256]))


def emit_json(path: str | None, payload: dict) -> None:
    """`emit` of `json.dumps(payload, indent=2, sort_keys=True)` and a newline."""
    out: list[str] = []
    _json_pieces(payload, out, "\n")
    out.append("\n")
    emit(path, out)
