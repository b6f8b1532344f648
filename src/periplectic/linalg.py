"""Exact linear algebra over the Gaussian rationals Q(i).

A scalar is three Python ints (a, b, d) standing for (a + b*i)/d, kept
normalised with gcd(a, b, d) = 1 and d > 0, so equal values have equal
triples.  Every computation in this package is exact and equality tests
never need a tolerance.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CodecError, PreconditionError, ShapeError

__all__ = [
    "GaussRat",
    "Mat",
    "ZERO",
    "ONE",
    "I",
    "as_gauss",
    "gauss_to_json",
    "gauss_from_json",
    "mat_to_json",
    "mat_from_json",
    "kernel_basis",
    "kernel_and_pivots",
    "row_basis",
    "rank",
    "commutant_basis",
]


def _as_fraction(value: Fraction | int | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@total_ordering
class GaussRat:
    """An element re + im*i of Q(i), stored as ints (a, b, d) meaning (a + b*i)/d.

    The ordering compares (re, im) lexicographically.  It is a total order
    compatible with equality, used for deterministic sorting; it is of
    course not compatible with the field structure.  A GaussRat equals only
    a GaussRat, not an int or a Fraction, though +, -, * and / accept both.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(
        cls, re: Fraction | int | str = 0, im: Fraction | int | str = 0
    ) -> "GaussRat":
        x, y = _as_fraction(re), _as_fraction(im)
        q, s = x.denominator, y.denominator
        return _reduce(x.numerator * s, y.numerator * q, q * s)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussRat is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        return (GaussRat, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        # (re, im) order: with positive denominators, comparing a/d with c/f
        # is comparing a*f with c*d, for both parts at once
        d, f = self._d, other._d
        return (self._a * f, self._b * f) < (other._a * d, other._b * d)

    def __neg__(self) -> "GaussRat":
        return _make(-self._a, -self._b, self._d)

    def __add__(self, other: object) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _reduce(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other: object) -> "GaussRat":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _reduce(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduce(a * d, -b * d, norm)

    def __truediv__(self, other: object) -> "GaussRat":
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "GaussRat":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __repr__(self) -> str:
        return f"GaussRat(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        try:
            if not im:
                return str(re)
            imag = "i" if abs(im) == 1 else f"{abs(im)}i"
            if not re:
                return imag if im > 0 else f"-{imag}"
            sign = "+" if im > 0 else "-"
            return f"{re}{sign}{imag}"
        except ValueError:
            raise _too_many_digits() from None


# GaussRat.__setattr__ refuses every write, so results fill their slots
# through the slot descriptors
_new_scalar = object.__new__
_set_a = GaussRat._a.__set__
_set_b = GaussRat._b.__set__
_set_d = GaussRat._d.__set__


def _make(a: int, b: int, d: int) -> GaussRat:
    """GaussRat from a triple that is already normalised; no checks."""
    x = _new_scalar(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduce(a: int, b: int, d: int) -> GaussRat:
    """GaussRat (a + b*i)/d for ints with d > 0, divided by gcd(a, b, d).
    It fills the slots itself, so a normalised result costs one call."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new_scalar(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _coerce(value: object) -> GaussRat | None:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


def as_gauss(value: object) -> GaussRat:
    """Coerce ints, Fractions, and 'p/q' strings to GaussRat. Floats are rejected."""
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction, str)):
        return GaussRat(value)
    raise TypeError(f"cannot interpret {value!r} as an exact Gaussian rational")


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def _dense(row: Mapping[int, GaussRat], ncols: int) -> tuple[GaussRat, ...]:
    """Dense row of width ncols from a {column: entry} dict."""
    out = [ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _fraction_str(num: int, den: int) -> str:
    # lowest terms, and the denominator is always written, so emission is
    # canonical byte for byte
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def gauss_to_json(x: GaussRat) -> list[str]:
    """Serialize as a 2-element array of rational strings, e.g. ["1/2", "-3/1"].

    A part too long for the interpreter's int-to-str limit raises
    PreconditionError, as str() does.
    """
    try:
        return [_fraction_str(x._a, x._d), _fraction_str(x._b, x._d)]
    except ValueError:
        raise _too_many_digits() from None


def _too_many_digits() -> PreconditionError:
    return PreconditionError(
        "cannot write a rational with more than "
        f"{sys.get_int_max_str_digits()} decimal digits in one part"
    )


# the wire format of one part: an optional minus sign, decimal digits, and
# an optional "/" with a decimal denominator
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(data: Sequence[object], t: int) -> tuple[int, int]:
    """Numerator and denominator of part t of a wire scalar.  A message
    names the part and its length, never its text, which may be megabytes."""
    text = data[t]
    if not isinstance(text, str):
        raise CodecError(f"expected a rational string in part {t}, got {_json_kind(text)}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        problem = "not of the form n or n/m"
    else:
        num, den = match.groups()
        try:
            # int() refuses digit strings longer than the interpreter's limit
            q = 1 if den is None else int(den)
            if q:
                return int(num), q
            problem = "zero denominator"
        except ValueError:
            problem = f"more than {sys.get_int_max_str_digits()} digits"
    raise CodecError(f"bad rational in part {t} ({len(text)} characters): {problem}")


# the JSON type names of the values json.loads returns
_JSON_TYPES = {
    dict: "an object",
    str: "a string",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    type(None): "null",
}


def _json_kind(data: object) -> str:
    """The JSON type of a decoded value, with an array's length, for a
    codec message: the value itself may be megabytes long."""
    if isinstance(data, (list, tuple)):
        return f"an array of length {len(data)}"
    return _JSON_TYPES.get(type(data), f"a value of type {type(data).__name__}")


def _decode_at(where: str, decode, *args, **kwargs):
    """decode(*args, **kwargs), with `where: ` put before the message of a
    CodecError it raises."""
    try:
        return decode(*args, **kwargs)
    except CodecError as exc:
        raise CodecError(f"{where}: {exc}") from None


def gauss_from_json(data: object) -> GaussRat:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise CodecError(
            f"expected a 2-element array of rational strings, got {_json_kind(data)}"
        )
    (p, q), (r, s) = _parse_rational(data, 0), _parse_rational(data, 1)
    return _reduce(p * s, r * q, q * s)


class Mat:
    """Immutable matrix over GaussRat, stored as its nonzero entries.

    `nonzero` holds one {column: entry} dict per row, listing the row's
    nonzero entries in no particular key order; no stored row holds a
    zero, so equal matrices store equal rows.  The dicts are shared between
    matrices and never written after construction.  Every kernel here walks
    them, so a product, a sum or an elimination pays for the nonzero
    entries only; `entries` builds the dense grid on demand.

    `cols` must be passed explicitly when `entries` has no rows, since the
    width cannot be inferred from an empty grid.
    """

    __slots__ = ("rows", "cols", "nonzero")

    rows: int
    cols: int
    nonzero: tuple[dict[int, GaussRat], ...]

    def __init__(self, entries: Iterable[Iterable[object]], *, cols: int | None = None):
        grid = [[as_gauss(x) for x in row] for row in entries]
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ShapeError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise ShapeError(f"declared cols={cols} but rows have width {width}")
        else:
            if cols is None:
                cols = 0
            width = cols
        _fill_mat(self, [{j: x for j, x in enumerate(row) if x} for row in grid], width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Mat is immutable")

    def __reduce__(self):
        return (Mat._from_rows, (self.nonzero, self.cols))

    @classmethod
    def _from_rows(cls, rows: Iterable[dict[int, GaussRat]], cols: int) -> "Mat":
        """Wrap {column: entry} dicts of nonzero GaussRat entries below
        `cols`, with no copies, coercion or checks: only for rows this
        package has computed, and which nothing writes afterwards."""
        m = _new_mat(cls)
        _fill_mat(m, rows, cols)
        return m

    @classmethod
    def _from_words(cls, words: Sequence[tuple], rows: int, cols: int) -> "Mat":
        """The sum of words c*L*R (see `_word_rows`) as a rows x cols Mat: the
        builder of every Mat sum and product, one gcd per stored entry."""
        return cls._from_rows(
            [
                {j: _reduce(a, b, d) for j, (a, b, d) in acc.items() if a or b}
                for acc in _word_rows(words, range(rows))
            ],
            cols,
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._from_rows([{}] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.diagonal([ONE] * n)

    @classmethod
    def diagonal(cls, values: Sequence[object]) -> "Mat":
        vals = [as_gauss(v) for v in values]
        return cls._from_rows([{i: x} if x else {} for i, x in enumerate(vals)], len(vals))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[GaussRat, ...], ...]:
        """The dense grid of rows, built on each access."""
        return tuple(_dense(row, self.cols) for row in self.nonzero)

    def _column_index(self, j: int) -> int:
        """j as a tuple would take it: negative counts from the end."""
        j = operator.index(j)
        if j < 0:
            j += self.cols
        if not 0 <= j < self.cols:
            raise IndexError("tuple index out of range")
        return j

    def __getitem__(self, key: tuple[int, int]) -> GaussRat:
        i, j = key
        return self.nonzero[i].get(self._column_index(j), ZERO)

    def row(self, i: int) -> tuple[GaussRat, ...]:
        return _dense(self.nonzero[i], self.cols)

    def column(self, j: int) -> tuple[GaussRat, ...]:
        if self.rows:
            j = self._column_index(j)
        return tuple(row.get(j, ZERO) for row in self.nonzero)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.nonzero == other.nonzero

    def __hash__(self) -> int:
        return hash((self.shape, tuple(frozenset(row.items()) for row in self.nonzero)))

    def __neg__(self) -> "Mat":
        return Mat._from_words([(-1, self)], self.rows, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def _combine(self, other: object, sign: int) -> "Mat":
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return Mat._from_words([(1, self), (sign, other)], self.rows, self.cols)

    def __mul__(self, other: object) -> "Mat":
        if isinstance(other, Mat):
            return self._matmul(other)
        scalar = _coerce(other)
        if scalar is None:
            return NotImplemented
        return self.scale(scalar)

    # only a non-Mat left operand gets here, and scalars commute
    __rmul__ = __mul__

    def scale(self, scalar: object) -> "Mat":
        c = as_gauss(scalar)
        if not c:
            return Mat.zero(self.rows, self.cols)
        return Mat._from_rows(
            [{j: c * x for j, x in row.items()} for row in self.nonzero], self.cols
        )

    def _matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return Mat._from_words([(1, self, other)], self.rows, other.cols)

    def transpose(self) -> "Mat":
        out: list[dict[int, GaussRat]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero):
            for j, x in row.items():
                out[j][i] = x
        return Mat._from_rows(out, self.rows)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Mat":
        cols = list(col_idx)
        picked = [self.nonzero[i] for i in row_idx]
        # every output column that each stored column lands in
        targets: dict[int, list[int]] = {}
        if picked:
            for t, j in enumerate(cols):
                targets.setdefault(self._column_index(j), []).append(t)
        return Mat._from_rows(
            [
                {t: x for j, x in row.items() for t in targets.get(j, ())}
                for row in picked
            ],
            len(cols),
        )

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_diagonal(self) -> bool:
        return self.is_square() and all(
            not row or (len(row) == 1 and i in row) for i, row in enumerate(self.nonzero)
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"Mat({self.rows}x{self.cols}: {body})"


# Mat.__setattr__ refuses every write, so constructors fill the slots
# through the slot descriptors
_new_mat = object.__new__
_set_rows = Mat.rows.__set__
_set_cols = Mat.cols.__set__
_set_nonzero = Mat.nonzero.__set__


def _fill_mat(m: Mat, rows: Iterable[dict[int, GaussRat]], cols: int) -> None:
    stored = tuple(rows)
    _set_rows(m, len(stored))
    _set_cols(m, cols)
    _set_nonzero(m, stored)


# the wire form of a zero entry as mat_to_json writes it
_ZERO_CELL = ["0/1", "0/1"]


def mat_to_json(m: Mat) -> list[list[list[str]]]:
    out = []
    for row in m.nonzero:
        cells = [["0/1", "0/1"] for _ in range(m.cols)]
        for j, x in row.items():
            cells[j] = gauss_to_json(x)
        out.append(cells)
    return out


def mat_from_json(data: object, *, rows: int, cols: int) -> Mat:
    """Decode a rows x cols grid of entries.  A cell spelled exactly as
    mat_to_json writes zero is skipped; every other cell goes through
    gauss_from_json, so accepted input and error messages are the same."""
    if not isinstance(data, list) or len(data) != rows:
        raise CodecError(f"expected {rows} matrix rows, got {_json_kind(data)}")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise CodecError(
                f"row {i}: expected a matrix row of width {cols}, got {_json_kind(row)}"
            )
        stored = {}
        try:
            for j, cell in enumerate(row):
                if cell != _ZERO_CELL:
                    x = gauss_from_json(cell)
                    if x:
                        stored[j] = x
        except CodecError as exc:
            raise CodecError(f"row {i}, column {j}: {exc}") from None
        out.append(stored)
    return Mat._from_rows(out, cols)


def _word_rows(
    words: Iterable[tuple], rows: Iterable[int]
) -> Iterator[dict[int, tuple[int, int, int]]]:
    """Yield row i of the sum of words c*L*R, c = 1 or -1, for each i in
    `rows` in turn, as unreduced (a, b, d) triples by column.  R, or L and
    R, may be left out of a word (c, L, R); each stands for the identity.
    Words are resolved once per call and added in the order given, with one
    loop per shape: a helper call or identity lookup per term costs more
    than the rest of the loop.  Sums add numerators when denominators
    match; when one divides the other, the smaller is scaled up, and
    otherwise the two are cross-multiplied.  No sum is reduced here; the
    caller reduces each entry once.  A sum that cancels keeps a zero pair."""
    plan = [(c, *(m.nonzero for m in mats), None, None)[:3] for c, *mats in words]
    for i in rows:
        acc: dict[int, tuple[int, int, int]] = {}
        for c, left, right in plan:
            if left is None:
                va, vb, vd = acc.get(i, (0, 0, 1))
                acc[i] = (va + c * vd, vb, vd)
            elif right is None:
                for j, x in left[i].items():
                    a, b, d = c * x._a, c * x._b, x._d
                    v = acc.get(j)
                    if v is None:
                        acc[j] = (a, b, d)
                        continue
                    va, vb, vd = v
                    if vd == d:
                        acc[j] = (va + a, vb + b, d)
                    elif not vd % d:
                        m = vd // d
                        acc[j] = (va + a * m, vb + b * m, vd)
                    elif not d % vd:
                        m = d // vd
                        acc[j] = (va * m + a, vb * m + b, d)
                    else:
                        acc[j] = (va * d + a * vd, vb * d + b * vd, vd * d)
            else:
                for p, x in left[i].items():
                    xa, xb, xd = c * x._a, c * x._b, x._d
                    for j, y in right[p].items():
                        a, b, d = xa * y._a - xb * y._b, xa * y._b + xb * y._a, xd * y._d
                        v = acc.get(j)
                        if v is None:
                            acc[j] = (a, b, d)
                            continue
                        va, vb, vd = v
                        if vd == d:
                            acc[j] = (va + a, vb + b, d)
                        elif not vd % d:
                            m = vd // d
                            acc[j] = (va + a * m, vb + b * m, vd)
                        elif not d % vd:
                            m = d // vd
                            acc[j] = (va * m + a, vb * m + b, d)
                        else:
                            acc[j] = (va * d + a * vd, vb * d + b * vd, vd * d)
        yield acc


def _echelon(
    rows: Sequence[Mapping[int, GaussRat]],
) -> tuple[list[Mapping[int, GaussRat]], list[int]]:
    """Forward elimination over sparse rows; returns (pivot rows, pivot columns).

    Each row is a {column: entry} dict of its nonzero entries, as `Mat`
    stores them; the input dicts are read, never written.  Nonzero rows
    wait under their leading column, in arrival order.  Each step takes the
    rows waiting under the smallest leading column c: the first one,
    divided by its entry at c, is the pivot row, and every other row r
    becomes r - r[c] * pivot_row, evaluated only where r or the pivot row
    is nonzero, and waits again under its new leading column unless it is
    zero.  So the result depends on the input order only.  Both steps work
    on (a, b, d) triples and reduce every entry they write once: the
    division multiplies by r*(p - q*i)/(p^2 + q^2) for a pivot (p + q*i)/r,
    and the update adds numerators when denominators are equal and
    cross-multiplies otherwise.

    The pivot rows come out monic, by increasing pivot column.  Every entry
    met is a ratio of two minors of the input (Edmonds 1967), so entries
    do not grow with the number of steps.
    """
    waiting: dict[int, list[Mapping[int, GaussRat]]] = {}
    for row in rows:
        if row:
            waiting.setdefault(min(row), []).append(row)
    ech: list[Mapping[int, GaussRat]] = []
    pivots: list[int] = []
    while waiting:
        c = min(waiting)
        head, *others = waiting.pop(c)
        p, q, r = head[c]._a, head[c]._b, head[c]._d
        if p != 1 or q or r != 1:
            p, q, r = r * p, -r * q, p * p + q * q
            head = {
                j: _reduce(x._a * p - x._b * q, x._a * q + x._b * p, x._d * r)
                for j, x in head.items()
            }
        ech.append(head)
        pivots.append(c)
        rest = [(j, y._a, y._b, y._d) for j, y in head.items() if j != c]
        for row in others:
            lead = row[c]
            p, q, r = -lead._a, -lead._b, lead._d
            out = {j: x for j, x in row.items() if j != c}
            for j, ya, yb, yd in rest:
                # (p + q*i)/r times the pivot entry, unreduced
                ua, ub, ud = p * ya - q * yb, p * yb + q * ya, r * yd
                x = out.get(j)
                if x is None:
                    out[j] = _reduce(ua, ub, ud)
                    continue
                xa, xb, xd = x._a, x._b, x._d
                if xd == ud:
                    ua, ub = xa + ua, xb + ub
                else:
                    ua, ub, ud = xa * ud + ua * xd, xb * ud + ub * xd, xd * ud
                if ua or ub:
                    out[j] = _reduce(ua, ub, ud)
                else:
                    del out[j]
            if out:
                waiting.setdefault(min(out), []).append(out)
    return ech, pivots


def kernel_and_pivots(
    mat: Mat,
) -> tuple[list[tuple[GaussRat, ...]], list[int]]:
    """Exact right null space basis plus the pivot columns of the elimination.

    One basis vector per free column, in column order: 1 there and 0 at the
    other free columns, so the basis depends on the row space only.  Back
    substitution walks the nonzero entries of the monic pivot rows and
    never divides.  Each pivot's sum is accumulated on (a, b, d) triples,
    adding numerators when denominators are equal and cross-multiplying
    otherwise, and reduced once.
    """
    ech, pivots = _echelon(mat.nonzero)
    pivot_set = set(pivots)
    # (pivot column, the rest of the row as triples), last pivot first
    steps = [
        (c, [(j, a._a, a._b, a._d) for j, a in row.items() if j != c])
        for c, row in zip(reversed(pivots), reversed(ech))
    ]
    basis = []
    for free_col in range(mat.cols):
        if free_col in pivot_set:
            continue
        x: dict[int, GaussRat] = {free_col: ONE}
        for c, rest in steps:
            sa, sb, sd = 0, 0, 1
            for j, ya, yb, yd in rest:
                v = x.get(j)
                if v is None:
                    continue
                ua, ub, ud = ya * v._a - yb * v._b, ya * v._b + yb * v._a, yd * v._d
                if sd == ud:
                    sa, sb = sa + ua, sb + ub
                else:
                    sa, sb, sd = sa * ud + ua * sd, sb * ud + ub * sd, sd * ud
            if sa or sb:
                x[c] = _reduce(-sa, -sb, sd)
        basis.append(_dense(x, mat.cols))
    return basis, pivots


def kernel_basis(mat: Mat) -> list[tuple[GaussRat, ...]]:
    return kernel_and_pivots(mat)[0]


def row_basis(mat: Mat) -> tuple[list[tuple[GaussRat, ...]], list[int]]:
    """Echelon basis of the row space plus the leading column of each basis
    row: the monic pivot rows of `_echelon`, by increasing leading column."""
    ech, pivots = _echelon(mat.nonzero)
    return [_dense(row, mat.cols) for row in ech], pivots


def rank(mat: Mat) -> int:
    return len(_echelon(mat.nonzero)[1])


def _walk(
    matrix: Mat,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], list[int], list[tuple[int, int]]]:
    """Breadth-first walk of the row/column graph, one edge per nonzero entry.

    A new component starts at each unvisited row, then at each unvisited
    column, and neighbours are visited in index order.  Returns the
    components as (row indices, column indices), each row's component
    index, and the (row, column) edges that discovered a vertex, in
    visiting order.
    """
    row_nz, l = matrix.nonzero, matrix.cols
    # each column's rows, ascending, as the rows are read in order
    col_nz: list[list[int]] = [[] for _ in range(l)]
    for i, row in enumerate(row_nz):
        for j in row:
            col_nz[j].append(i)
    row_component, col_component = [-1] * matrix.rows, [-1] * l
    components = []
    tree: list[tuple[int, int]] = []
    for start, label in enumerate(row_component):
        if label >= 0:
            continue
        index = len(components)
        row_component[start] = index
        # a bipartite walk visits its layers in turn: rows, their new
        # columns, the new rows of those, ...
        rows, cols, layer = [start], [], [start]
        while layer:
            found = []
            for i in layer:
                for j in sorted(row_nz[i]):
                    if col_component[j] < 0:
                        col_component[j] = index
                        tree.append((i, j))
                        found.append(j)
            cols += found
            layer = []
            for j in found:
                for i in col_nz[j]:
                    if row_component[i] < 0:
                        row_component[i] = index
                        tree.append((i, j))
                        layer.append(i)
            rows += layer
        components.append((tuple(sorted(rows)), tuple(sorted(cols))))
    # every row has been walked, so a column left is a zero column
    components += [((), (j,)) for j, label in enumerate(col_component) if label < 0]
    return components, row_component, tree


def _diagonal(g: Mat) -> list[tuple[int, int, int]]:
    return [(x._a, x._b, x._d) for x in (row.get(i, ZERO) for i, row in enumerate(g.nonzero))]


def _commutant_system(gens: Sequence[Mat]) -> tuple[int, list[tuple[int, int]], Mat]:
    """(n, unknowns, equations) of the commutant of n x n generators.

    A diagonal generator diag(d) kills unknown X[i][j] unless d_i = d_j, so
    only unknowns inside a class of equal diagonal entries (keyed on integer
    triples) are kept, in row-major order.  Each other generator g gives the
    entries (p, q) of X*g - g*X, in row-major order: X[i][j] meets g[j][q]
    in entry (i, q) for q != j, -g[p][i] in entry (p, j) for p != i, and
    g[j][j] - g[i][i], once and unless zero, in entry (i, j).

    When every class is a single index, as for regular shifts, each
    equation is g[p][q] * (x_p - x_q) on the diagonal unknowns x_i, and the
    matrix returned is instead the pattern of the identity plus the other
    generators, whose `_walk` components span the kernel.
    """
    mats = list(gens)
    if not mats:
        raise ShapeError("at least one generator is required")
    n = mats[0].rows
    for g in mats:
        if not (g.is_square() and g.rows == n):
            raise ShapeError("generators must be square matrices of equal size")
    # the diagonal of each diagonal generator, and the other generators
    diagonals: list[list[tuple[int, int, int]]] = []
    others: list[Mat] = []
    for g in mats:
        if g.is_diagonal():
            diagonals.append(_diagonal(g))
        else:
            others.append(g)
    # X[i][j] is free when i and j have the same entry in every diagonal
    # generator; with no diagonal generator every key is ()
    classes: dict[tuple, list[int]] = {}
    keys = zip(*diagonals) if diagonals else [()] * n
    class_of = [classes.setdefault(key, []) for key in keys]
    for i, members in enumerate(class_of):
        members.append(i)
    positions = [(i, j) for i in range(n) for j in class_of[i]]
    if len(positions) == n:
        pattern = [{i: ONE} for i in range(n)]
        for g in others:
            for row, stored in zip(pattern, g.nonzero):
                row.update(stored)
        return n, positions, Mat._from_rows(pattern, n)

    rows: list[dict[int, GaussRat]] = []
    for g in others:
        diag = _diagonal(g)
        g_rows = [{q: x for q, x in row.items() if q != i} for i, row in enumerate(g.nonzero)]
        g_cols = [
            {p: -x for p, x in col.items() if p != i}
            for i, col in enumerate(g.transpose().nonzero)
        ]
        eqs: dict[tuple[int, int], dict[int, GaussRat]] = {}
        for t, (i, j) in enumerate(positions):
            if diag[i] != diag[j]:
                (a, b, d), (c, e, f) = diag[j], diag[i]
                eqs.setdefault((i, j), {})[t] = _reduce(a * f - c * d, b * f - e * d, d * f)
            for q, x in g_rows[j].items():
                eqs.setdefault((i, q), {})[t] = x
            for p, x in g_cols[i].items():
                eqs.setdefault((p, j), {})[t] = x
        rows += [eqs[pos] for pos in sorted(eqs)]
    return n, positions, Mat._from_rows(rows, len(positions))


def commutant_basis(gens: Sequence[Mat]) -> list[Mat]:
    """Basis of the algebra of matrices commuting with every generator: one
    `Mat` per kernel vector of the `_commutant_system` equations.

    The basis depends on the row space only (see `kernel_and_pivots`), and
    the elimination keeps every entry a ratio of minors of this system, so
    neither the order nor the scaling of the equations is needed to keep
    entries small.  On the read-off branch no elimination runs: one
    diagonal 0/1 matrix per `_walk` component, ordered by the component's
    largest index, is exactly what the elimination returns, since a column
    of the incidence system depends on the earlier ones only when it is
    the last of its component, and the kernel vector that is 1 there is
    the component's indicator.  The result always contains the identity.
    """
    n, positions, system = _commutant_system(gens)
    out = []
    if len(positions) == n:
        for members, _ in sorted(_walk(system)[0], key=lambda c: c[0][-1]):
            grid = [{} for _ in range(n)]
            for i in members:
                grid[i] = {i: ONE}
            out.append(Mat._from_rows(grid, n))
        return out
    for v in kernel_basis(system):
        grid: list[dict[int, GaussRat]] = [{} for _ in range(n)]
        for (i, j), x in zip(positions, v):
            if x:
                grid[i][j] = x
        out.append(Mat._from_rows(grid, n))
    return out


def _commutant_dim(gens: Sequence[Mat]) -> int:
    """len(commutant_basis(gens)) with no kernel vector built: the number of
    unknowns minus one rank, or the read-off's component count."""
    n, positions, system = _commutant_system(gens)
    return len(_walk(system)[0]) if len(positions) == n else len(positions) - rank(system)
