"""Relation checking for two-strand degenerate affine algebras.

A representation is a quadruple of square matrices (y1, y2, s, e).  The
periplectic checker reports on the nine defining relations of the
two-strand degenerate affine periplectic Brauer algebra.  The Hecke checker
reports on the four relations of the degenerate affine Hecke algebra, the
quotient in which e becomes zero, by running the periplectic one on
(y1, y2, s, 0): there the five relations with e read 0 = 0, and each other
one has the two sides of its Hecke form, so passed, checked and every
violation's position, lhs and rhs stay the same under the Hecke names.

Two relations follow from others over Q(i), where 2 is invertible, so the
checkers stream one of them only when one of its premises fails: s*y2 from
s*s = 1, s*y1, e*s = e and s*e = -e, and e*e = 0 from the last two.  On a
calibrated module, four checks on single entries, for s*s = 1, s*y1,
e*s = e and s*e = -e, together prove all nine relations, as below: when
all four hold the module passes with no stream, and otherwise it is
streamed like any other module.  On a calibrated module write
y1 = diag(u), y2 = diag(v), w = u - v, and d for the Kronecker delta.
Let R1 = s*y1 - y2*s + 1 + e and R2 = s*y2 - y1*s - 1 + e be the
residuals of s*y1 = y2*s - 1 - e and s*y2 = y1*s + 1 - e, and
C = R1 - R2 = (y1 - y2)*s + s*(y1 - y2) + 2.
- y1*y2 = y2*y1 on a calibrated module, with no premise: diagonal matrices
  commute;
- s*y1 = y2*s - 1 - e on a calibrated module, with no premise, when
  (R1)_ij = s_ij (u_j - v_i) + d_ij + e_ij is zero at every stored entry
  of s and e and on the diagonal: it is zero everywhere else;
- s*s = 1 on a calibrated module, with no premise, when C = 0 (its
  entries are given under s*e = -e) and O*O = 1 - D*D, where D is the
  diagonal of s and O = s - D.  C = 0 gives s_ii = -1/w_i and puts O_ij
  only where w_j = -w_i, so s_jj = -s_ii there and D*O + O*D = 0:
  s*s = D*D + O*O;
- e*s = e on a calibrated module from s*s = 1 and s*y1 = y2*s - 1 - e,
  when C = 0 and each row of e that stores an entry has w_i = 1, with D
  and O as for s*s = 1.  R1 = 0 gives e_ij = s_ij (v_i - u_j) - d_ij, so
  e_ii = -w_i s_ii - 1 = 0 and e_ij != 0 only where O_ij != 0, so
  w_j = -w_i and (e*D)_ij = e_ij s_jj = e_ij / w_i.  (e*O)_ij != 0 needs
  some e_ip O_pj != 0, so w_p = -w_i and w_j = w_i.  As w_i != 0 these
  two patterns are apart, so a row of e with w_i != 1 that stores an
  entry fails e*s = e.  When every such row is empty, a row p of e with
  w_p = -1 is empty, so O_pj != 0 forces v_p = u_j, and then
  u_p = v_p - 1 = u_j - 1 in each term e_ip O_pj: on a row with w_i = 1,
  (e*O)_ij = sum_p O_ip (v_i - u_p) O_pj = -(u_j - 1 - v_i) (O*O)_ij,
  and s*s = 1 makes row i of O*O = 1 - D*D zero.  So e*O = 0 and
  e*s = e*D = e;
- s*e = -e on a calibrated module from s*s = 1, s*y1 = y2*s - 1 - e and
  e*s = e, when C = 0.  Write F = e*s - e.  With s*s = 1 and R1 = 0,
  e = y2*s - s*y1 - 1 and s*e*s = s*y2 - y1*s - 1, so C = -e - s*e*s;
  and s*F*s = s*e - s*e*s, so s*e + e = s*F*s - C.  With e*s = e, F = 0,
  so s*e = -e holds exactly when C = 0.  C_ij = s_ij (w_i + w_j) + 2 d_ij:
  C = 0 when each stored s_ij off the diagonal has w_j = -w_i and each
  w_i s_ii = -1 (so a missing s_ii fails);
- s*y2 = y1*s + 1 - e from s*s = 1, s*y1 = y2*s - 1 - e, e*s = e and
  s*e = -e: conjugating s*y1 = y2*s - 1 - e by s gives
  y1*s = s*y2 - 1 - s*e*s, and s*e*s = -e*s = -e.  With e = 0 the last two
  premises read 0 = 0, so this derives the Hecke s*y2 = y1*s + 1;
- e*e = 0 from e*s = e and s*e = -e: e*e = e*s*e = -e*e;
- e*y2 = e*y1 + e and y1*e = y2*e + e on a calibrated module, from the
  premises of s*y2.  Then R1 = R2 = 0, so C = 0: s_ii = -1/w_i with
  w_i != 0, and s_ij != 0 for i != j forces w_j = -w_i.  The s*y1
  relation reads e_ij = s_ij (v_i - u_j) - d_ij, so e_ii = 0 and e_ij != 0
  forces w_j = -w_i.  For such (i, j), any other term e_ip s_pj of
  (e*s)_ij would need w_j = -w_p = w_i, so w_i = 0; hence
  (e*s)_ij = e_ij s_jj = e_ij / w_i, and e*s = e gives w_i = 1, w_j = -1.
  So (e*(y2 - y1 - 1))_ij = -(w_j + 1) e_ij = 0 and
  ((y1 - y2 - 1)*e)_ij = (w_i - 1) e_ij = 0.
  The premise s*s = 1 is needed from 3 x 3 on; in 2 x 2 an e-y relation
  fails only with e != 0, and then e*s = e and s*e = -e give s the
  eigenvalues 1 and -1, so s*s = 1.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import CodecError, PreconditionError, ShapeError
from .linalg import (
    GaussRat,
    Mat,
    _decode_at,
    _diagonal,
    _json_kind,
    _reduce,
    _word_rows,
    as_gauss,
    mat_from_json,
    mat_to_json,
)
from .record import Record

__all__ = [
    "Rep",
    "Violation",
    "RelationReport",
    "verify_periplectic",
    "verify_hecke",
    "poly_matrix",
    "e_sandwich_zero",
    "e_is_zero",
    "rep_to_json",
    "rep_from_json",
]


def _check_sizes(k: object, l: object, error: type[Exception] = ShapeError) -> None:
    """Raise `error` unless k and l are non-negative ints."""
    # a bool, such as a JSON true, would pass as an int
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (k, l)):
        raise error("k and l must be non-negative integers")


class Rep(Record):
    """Matrices for the four generators, acting on a (k+l)-dimensional space.

    k and l record the declared split of the basis into (+1)- and
    (-1)-weight vectors for y1 - y2; the constructions in `reps` always
    order the basis so the +1 block comes first.
    """

    __slots__ = ("k", "l", "y1", "y2", "s", "e")

    k: int
    l: int
    y1: Mat
    y2: Mat
    s: Mat
    e: Mat

    def __post_init__(self) -> None:
        _check_sizes(self.k, self.l)
        n = self.k + self.l
        for name in ("y1", "y2", "s", "e"):
            m: Mat = getattr(self, name)
            if m.shape != (n, n):
                raise ShapeError(f"{name} must be {n}x{n}, got {m.shape}")

    @property
    def dim(self) -> int:
        return self.k + self.l

    @property
    def is_calibrated(self) -> bool:
        return self.y1.is_diagonal() and self.y2.is_diagonal()

    def generators(self) -> tuple[Mat, Mat, Mat, Mat]:
        return (self.y1, self.y2, self.s, self.e)


class Violation(Record):
    __slots__ = ("relation", "position", "lhs", "rhs")

    relation: str
    position: tuple[int, int]
    lhs: GaussRat
    rhs: GaussRat


class RelationReport(Record):
    __slots__ = ("passed", "violations", "checked")

    passed: bool
    violations: tuple[Violation, ...]
    checked: tuple[str, ...]


def _check(rep: Rep) -> RelationReport:
    """Check the nine relations on the generators of `rep`.  Each side of a
    relation is a sum of signed words over the symbols y1, y2, s and e;
    bound to the generators, it is what `linalg._word_rows` takes, which
    streams the rows of lhs - rhs.  Only a relation that is streamed is
    bound.  A violation is the first nonzero row, at its smallest nonzero
    column: the one entry where lhs and rhs, that row alone, are evaluated
    and reduced once each.

    A relation in `_PREMISES` is skipped when none of its premises failed;
    otherwise it is streamed, the one writer of its violation.  `_ORDER`
    puts those relations last, so every premise is settled first.  The
    report still lists every relation in `checked` and its violations in
    table order."""

    mats = dict(zip(("y1", "y2", "s", "e"), rep.generators()))

    def bind(words: list) -> list:
        return [(c, *(mats[x] for x in symbols)) for c, *symbols in words]

    failed = {}
    for name, lhs, rhs in _ORDER:
        if name in _PREMISES and failed.keys().isdisjoint(_PREMISES[name]):
            continue
        lhs, rhs = bind(lhs), bind(rhs)
        difference = lhs + [(-c, *factors) for c, *factors in rhs]
        for i, acc in enumerate(_word_rows(difference, range(rep.dim))):
            hit = [j for j, (a, b, _) in acc.items() if a or b]
            if hit:
                j = min(hit)
                sides = (next(_word_rows(words, [i])).get(j, (0, 0, 1)) for words in (lhs, rhs))
                failed[name] = Violation(name, (i, j), *(_reduce(*t) for t in sides))
                break
    return RelationReport(not failed, tuple(failed[m] for m in _NAMES if m in failed), _NAMES)


def _s_y1_holds(
    u: list[tuple[int, int, int]], v: list[tuple[int, int, int]], s: Mat, e: Mat
) -> bool:
    """s*y1 = y2*s - 1 - e for y1 = diag(u) and y2 = diag(v), with u and v
    as (a, b, d) triples: the residual s_ij (u_j - v_i) + d_ij + e_ij is
    zero at every stored entry of s and e and on the diagonal."""
    for i, (s_row, e_row) in enumerate(zip(s.nonzero, e.nonzero)):
        va, vb, vd = v[i]
        for j, x in s_row.items():
            ua, ub, ud = u[j]
            da, db = ua * vd - va * ud, ub * vd - vb * ud
            a, b, d = x._a * da - x._b * db, x._a * db + x._b * da, x._d * ud * vd
            y = e_row.get(j)
            if y is not None:
                a, b, d = a * y._d + y._a * d, b * y._d + y._b * d, d * y._d
            if (a + d if j == i else a) or b:
                return False
        for j, y in e_row.items():
            # s_ij = 0 here: the residual is e_ij + d_ij
            if j not in s_row and ((y._a + y._d if j == i else y._a) or y._b):
                return False
        if i not in s_row and i not in e_row:
            return False
    return True


def _c_vanishes(w: list[tuple[int, int, int]], s: Mat) -> bool:
    """C = (y1 - y2)*s + s*(y1 - y2) + 2 is zero, for y1 - y2 = diag(w)
    with w as (a, b, d) triples: C_ij = s_ij (w_i + w_j) + 2 d_ij, so each
    stored s_ij off the diagonal has w_j = -w_i, and w_i s_ii = -1."""
    for i, row in enumerate(s.nonzero):
        if i not in row:
            return False
        wa, wb, wd = w[i]
        for j, x in row.items():
            if j == i:
                if x._a * wa - x._b * wb + x._d * wd or x._a * wb + x._b * wa:
                    return False
            else:
                za, zb, zd = w[j]
                if wa * zd + za * wd or wb * zd + zb * wd:
                    return False
    return True


def _off_products(s: Mat) -> Iterator[dict[int, tuple[int, int, int]]]:
    """Yield row i of O*O for each row i of s, where O is s without its
    diagonal, as unreduced (a, b, d) triples by column."""
    rows = s.nonzero
    for i, row in enumerate(rows):
        acc: dict[int, tuple[int, int, int]] = {}
        for p, x in row.items():
            if p != i:
                for j, y in rows[p].items():
                    if j != p:
                        a, b, d = x._a * y._a - x._b * y._b, x._a * y._b + x._b * y._a, x._d * y._d
                        va, vb, vd = acc.get(j, (0, 0, 1))
                        acc[j] = (va * d + a * vd, vb * d + b * vd, vd * d)
        yield acc


def _s_squared_holds(s: Mat) -> bool:
    """s*s = 1 when C = 0: O*O = 1 - D*D, with D the diagonal of s and O
    the rest (see the module docstring)."""
    for i, acc in enumerate(_off_products(s)):
        x = s.nonzero[i][i]
        xa, xb, xd = x._a, x._b, x._d
        a, b, d = acc.pop(i, (0, 0, 1))
        # (a + b i)/d + x*x = 1, times d xd^2
        if (a - d) * xd * xd + d * (xa * xa - xb * xb) or b * xd * xd + 2 * d * xa * xb:
            return False
        if acc and any(a or b for a, b, _ in acc.values()):
            return False
    return True


def _e_s_holds(w: list[tuple[int, int, int]], e: Mat) -> bool:
    """e*s = e when C = 0, s*s = 1 and s*y1 = y2*s - 1 - e hold: w_i = 1 on
    each row of e that stores an entry (see the module docstring)."""
    return all(wa == wd and not wb for (wa, wb, wd), row in zip(w, e.nonzero) if row)


_PERIPLECTIC_RELATIONS = (
    ("s*s = 1", [(1, "s", "s")], [(1,)]),
    ("y1*y2 = y2*y1", [(1, "y1", "y2")], [(1, "y2", "y1")]),
    ("s*y1 = y2*s - 1 - e", [(1, "s", "y1")], [(1, "y2", "s"), (-1,), (-1, "e")]),
    ("s*y2 = y1*s + 1 - e", [(1, "s", "y2")], [(1, "y1", "s"), (1,), (-1, "e")]),
    ("e*e = 0", [(1, "e", "e")], []),
    ("e*s = e", [(1, "e", "s")], [(1, "e")]),
    ("s*e = -e", [(1, "s", "e")], [(-1, "e")]),
    ("e*y2 = e*y1 + e", [(1, "e", "y2")], [(1, "e", "y1"), (1, "e")]),
    ("y1*e = y2*e + e", [(1, "y1", "e")], [(1, "y2", "e"), (1, "e")]),
)
_NAMES = tuple(name for name, _, _ in _PERIPLECTIC_RELATIONS)
# each derived relation with the relations it follows from (see the module docstring)
_PREMISES = {
    "s*y2 = y1*s + 1 - e": ("s*s = 1", "s*y1 = y2*s - 1 - e", "e*s = e", "s*e = -e"),
    "e*e = 0": ("e*s = e", "s*e = -e"),
}
# the derived relations last, so every premise is settled first
_ORDER = tuple(sorted(_PERIPLECTIC_RELATIONS, key=lambda r: r[0] in _PREMISES))
# the first four relations, which e = 0 keeps, by their Hecke names (see the module docstring)
_HECKE_NAMES = {name: name.removesuffix(" - e") for name, _, _ in _PERIPLECTIC_RELATIONS[:4]}


def verify_periplectic(rep: Rep) -> RelationReport:
    """Check all nine defining relations; the report carries the first
    offending entry of each relation that fails.  A calibrated module on
    which the four entry checks hold passes without a stream (see the
    module docstring); every other module is streamed."""
    if rep.is_calibrated:
        s, e = rep.s, rep.e
        u, v = _diagonal(rep.y1), _diagonal(rep.y2)
        w = [
            (ua * vd - va * ud, ub * vd - vb * ud, ud * vd)
            for (ua, ub, ud), (va, vb, vd) in zip(u, v)
        ]
        if (
            _c_vanishes(w, s)
            and _s_squared_holds(s)
            and _s_y1_holds(u, v, s, e)
            and _e_s_holds(w, e)
        ):
            return RelationReport(True, (), _NAMES)
    return _check(rep)


def verify_hecke(rep: Rep) -> RelationReport:
    """Check the four Hecke relations: the periplectic ones without e, on (y1, y2, s, 0)."""
    report = verify_periplectic(Rep(rep.k, rep.l, rep.y1, rep.y2, rep.s, Mat.zero(*rep.s.shape)))
    violations = tuple(
        Violation(_HECKE_NAMES[v.relation], v.position, v.lhs, v.rhs) for v in report.violations
    )
    return RelationReport(report.passed, violations, tuple(_HECKE_NAMES.values()))


def poly_matrix(
    y1: Mat, y2: Mat, poly: Mapping[tuple[int, int], object]
) -> Mat:
    """Evaluate a two-variable polynomial, given as {(p, q): coeff}, at (y1, y2)."""
    if y1.shape != y2.shape or not y1.is_square():
        raise ShapeError("y1 and y2 must be square of equal size")
    for key in poly:
        # True and False would pass as ints
        if not (isinstance(key, tuple) and len(key) == 2 and all(
            isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in key
        )):
            raise PreconditionError(f"exponents {key!r} must be two non-negative integers")
    n = y1.rows
    max1 = max((p for p, _ in poly), default=0)
    max2 = max((q for _, q in poly), default=0)
    pow1 = [Mat.identity(n)]
    for _ in range(max1):
        pow1.append(pow1[-1] * y1)
    pow2 = [Mat.identity(n)]
    for _ in range(max2):
        pow2.append(pow2[-1] * y2)
    out = Mat.zero(n, n)
    for (p, q), coeff in poly.items():
        c = as_gauss(coeff)
        if c:
            out = out + c * (pow1[p] * pow2[q])
    return out


def e_sandwich_zero(rep: Rep, poly: Mapping[tuple[int, int], object]) -> bool:
    """True when e * f(y1, y2) * e vanishes.

    This holds for every polynomial f whenever the representation satisfies
    the defining relations, so a False return flags an invalid input.
    """
    middle = poly_matrix(rep.y1, rep.y2, poly)
    return (rep.e * middle * rep.e).is_zero()


def e_is_zero(rep: Rep) -> bool:
    return rep.e.is_zero()


def rep_to_json(rep: Rep) -> dict:
    return {
        "k": rep.k,
        "l": rep.l,
        "y1": mat_to_json(rep.y1),
        "y2": mat_to_json(rep.y2),
        "s": mat_to_json(rep.s),
        "e": mat_to_json(rep.e),
    }


def _sizes_from_json(data: object, keys: set[str], noun: str) -> tuple[int, int]:
    """The k and l of a JSON object that must hold `keys`; raises
    CodecError naming the `noun` when it is not such an object."""
    if not isinstance(data, dict):
        raise CodecError(f"expected a JSON object for a {noun}, got {_json_kind(data)}")
    missing = keys - set(data)
    if missing:
        raise CodecError(f"{noun} object lacks keys {sorted(missing)}")
    k, l = data["k"], data["l"]
    _check_sizes(k, l, CodecError)
    return k, l


def rep_from_json(data: object) -> Rep:
    k, l = _sizes_from_json(data, {"k", "l", "y1", "y2", "s", "e"}, "representation")
    n = k + l
    mats = {
        name: _decode_at(name, mat_from_json, data[name], rows=n, cols=n)
        for name in ("y1", "y2", "s", "e")
    }
    return Rep(k, l, mats["y1"], mats["y2"], mats["s"], mats["e"])
