"""Constructions of calibrated representations.

All modules built here act on a basis split into k vectors of weight +1 and
l vectors of weight -1 for y1 - y2.  The two-parameter family is seeded by a
k x l coupling matrix together with a vector of k + l eigenvalue shifts; the
unshifted case is the pulled-back degenerate affine Hecke module, and a
nonzero shift pattern switches on the extra generator e.
"""

from __future__ import annotations

from .algebra import Rep, _check_sizes, _sizes_from_json
from .errors import CodecError, PreconditionError, ShapeError
from .linalg import (
    GaussRat,
    Mat,
    ONE,
    ZERO,
    _decode_at,
    _json_kind,
    _make,
    _reduce,
    as_gauss,
    gauss_from_json,
    gauss_to_json,
    mat_from_json,
    mat_to_json,
)
from .record import Record

__all__ = [
    "Seed",
    "ExtensionProfile",
    "build_one_dim",
    "build_hecke_module",
    "build_rep",
    "entrywise_e",
    "extension_profile",
    "seed_to_json",
    "seed_from_json",
]

_MINUS_ONE = _make(-1, 0, 1)


class Seed(Record):
    """Input data for the two-parameter family: a coupling matrix and shifts.

    eigenvalues lists the k shift values a_1..a_k followed by the l values
    b_1..b_l; the built module has y1 = diag(a_1..a_k, b_1 - 1..b_l - 1).
    """

    __slots__ = ("k", "l", "coupling", "eigenvalues")

    k: int
    l: int
    coupling: Mat
    eigenvalues: tuple[GaussRat, ...]

    def __post_init__(self) -> None:
        _check_sizes(self.k, self.l)
        if self.coupling.shape != (self.k, self.l):
            raise ShapeError(
                f"coupling must be {self.k}x{self.l}, got {self.coupling.shape}"
            )
        object.__setattr__(
            self, "eigenvalues", tuple(as_gauss(x) for x in self.eigenvalues)
        )
        if len(self.eigenvalues) != self.k + self.l:
            raise ShapeError(
                f"expected {self.k + self.l} eigenvalues, got {len(self.eigenvalues)}"
            )

    @property
    def a(self) -> tuple[GaussRat, ...]:
        """Shifts attached to the +1 weight space."""
        return self.eigenvalues[: self.k]

    @property
    def b(self) -> tuple[GaussRat, ...]:
        """Shifts attached to the -1 weight space."""
        return self.eigenvalues[self.k :]


def build_one_dim(a: object, sign: str) -> Rep:
    """One-dimensional module: y1 = a, s = sign, e = 0, y2 = a -+ 1.

    sign "+" gives y2 = a + 1 on a (-1)-weight line, the module of the
    seed (0, 1) with shift a + 1; sign "-" gives y2 = a - 1 on a
    (+1)-weight line, the module of the seed (1, 0) with shift a.
    """
    value = as_gauss(a)
    if sign == "+":
        return build_rep(Seed(0, 1, Mat.zero(0, 1), (value + ONE,)))
    if sign == "-":
        return build_rep(Seed(1, 0, Mat.zero(1, 0), (value,)))
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def build_hecke_module(k: int, l: int, coupling: Mat) -> Rep:
    """Pulled-back Hecke module: y1 = diag(0,..,-1,..), upper-triangular s,
    e = 0; the module of the seed with every shift 0."""
    _check_sizes(k, l)  # before k + l sizes the shifts
    return build_rep(Seed(k, l, coupling, (ZERO,) * (k + l)))


def build_rep(seed: Seed) -> Rep:
    """The Hecke module shifted to y1 = diag(a, b - 1) and y2 = diag(a - 1, b),
    with s = [[-1, S], [0, 1]] and e zero outside the upper-right k x l
    corner, where e[i][k + j] = (a_i - b_j) * S_ij for the coupling S.

    y1, y2 and e are written from the integer triples (a, b, d) of the
    shifts and the coupling.  x - 1 is (a - d, b, d), already normalised
    since gcd(a - d, b, d) = gcd(a, b, d), and each stored e entry is
    reduced once; zeros are not stored.  `entrywise_e` is the second route
    to e, on GaussRat operators, and `verify_periplectic`'s `s*y1` relation
    pins e = y2*s - s*y1 - 1.
    """
    k, l = seed.k, seed.l
    n = k + l
    lowered = [_make(x._a - x._d, x._b, x._d) for x in seed.eigenvalues]

    def diagonal(values: list[GaussRat]) -> Mat:
        return Mat._from_rows([{t: x} if x else {} for t, x in enumerate(values)], n)

    shifts = [(x._a, x._b, x._d) for x in seed.b]
    s_top, top = [], []
    for i, (x, row) in enumerate(zip(seed.a, seed.coupling.nonzero)):
        s_top.append({i: _MINUS_ONE, **{k + j: z for j, z in row.items()}})
        p, q, r = x._a, x._b, x._d
        out = {}
        for j, z in row.items():
            # a_i - b_j, unreduced
            u, v, w = shifts[j]
            if w == r:
                u, v = p - u, q - v
            else:
                u, v, w = p * w - u * r, q * w - v * r, r * w
            if u or v:
                out[k + j] = _reduce(u * z._a - v * z._b, u * z._b + v * z._a, w * z._d)
        top.append(out)
    return Rep(
        k,
        l,
        y1=diagonal([*seed.a, *lowered[k:]]),
        y2=diagonal([*lowered[:k], *seed.b]),
        s=Mat._from_rows(s_top + [{k + t: ONE} for t in range(l)], n),
        e=Mat._from_rows(top + [{}] * l, n),
    )


def entrywise_e(seed: Seed) -> Mat:
    """The e matrix of build_rep computed entry by entry with GaussRat
    operators: the only nonzero block is the upper-right k x l corner with
    entries (a_i - b_j) * coupling_ij.

    Kept as a second route to the same matrix, which the tests and `fuzz`
    compare with build_rep's; build_rep computes each entry on integer
    triples instead.
    """
    k, l = seed.k, seed.l
    rows = []
    for i in range(k):
        row = {}
        for j, x in seed.coupling.nonzero[i].items():
            v = (seed.a[i] - seed.b[j]) * x
            if v:
                row[k + j] = v
        rows.append(row)
    return Mat._from_rows(rows + [{}] * l, k + l)


class ExtensionProfile(Record):
    """Composition data read off a module in canonical block shape: the
    socle collects one-dimensional s = -1 factors, the quotient s = +1
    factors, each tagged with its y1 eigenvalue."""

    __slots__ = ("socle_factors", "quotient_factors")

    socle_factors: tuple[tuple[str, GaussRat], ...]
    quotient_factors: tuple[tuple[str, GaussRat], ...]


def extension_profile(rep: Rep) -> ExtensionProfile:
    """Read the extension structure of a module with y1 - y2 = diag(1..,-1..).

    The submodule spanned by the +1 weight vectors is a sum of
    one-dimensional sign "-" modules with eigenvalues a_i; the quotient is a
    sum of sign "+" modules with eigenvalues b_j - 1.
    """
    k = check_core_shape(rep, "extension profile", "rep not in canonical block shape")
    socle = tuple(("-", rep.y1[i, i]) for i in range(k))
    quotient = tuple(("+", rep.y1[i, i]) for i in range(k, rep.dim))
    return ExtensionProfile(socle, quotient)


def _weights(rep: Rep, operation: str) -> list[GaussRat]:
    """The y1 - y2 weight of each basis vector; raises PreconditionError
    "<operation> needs diagonal y1 and y2" unless the module is calibrated."""
    if not rep.is_calibrated:
        raise PreconditionError(f"{operation} needs diagonal y1 and y2")
    return [rep.y1[i, i] - rep.y2[i, i] for i in range(rep.dim)]


def check_core_shape(rep: Rep, operation: str, refusal: str) -> int:
    """The k of a calibrated module whose y1 - y2 is k entries +1 followed
    by -1s, matching its declared split.

    Raises PreconditionError as _weights does for `operation`, "<refusal>:
    ..." when the weights are not in that shape, and one naming both splits
    when they disagree.
    """
    n = rep.dim
    d = _weights(rep, operation)
    k = 0
    while k < n and d[k] == ONE:
        k += 1
    if any(d[i] != _MINUS_ONE for i in range(k, n)):
        raise PreconditionError(f"{refusal}: y1 - y2 must be +1s followed by -1s")
    if (k, n - k) != (rep.k, rep.l):
        raise PreconditionError(
            f"declared split ({rep.k},{rep.l}) does not match weights ({k},{n - k})"
        )
    return k


def seed_to_json(seed: Seed) -> dict:
    return {
        "k": seed.k,
        "l": seed.l,
        "S": mat_to_json(seed.coupling),
        "ab": [gauss_to_json(x) for x in seed.eigenvalues],
    }


def seed_from_json(data: object) -> Seed:
    k, l = _sizes_from_json(data, {"k", "l", "S", "ab"}, "seed")
    coupling = _decode_at("S", mat_from_json, data["S"], rows=k, cols=l)
    ab = data["ab"]
    if not isinstance(ab, list) or len(ab) != k + l:
        raise CodecError(f"ab must list {k + l} values, got {_json_kind(ab)}")
    eigenvalues = []
    try:
        for t, x in enumerate(ab):
            eigenvalues.append(gauss_from_json(x))
    except CodecError as exc:
        raise CodecError(f"ab: value {t}: {exc}") from None
    return Seed(k, l, coupling, eigenvalues)
