"""Indecomposability, isomorphism, and normal forms for seeded modules.

The decidable cases: with pairwise-distinct shifts inside each weight space
("regular"), the endomorphism algebra of a seeded module is spanned by
idempotents cut out by the connectivity classes of the coupling matrix, so
the module is indecomposable exactly when the coupling is rhizomatic.  When
one weight space is a single line, indecomposability is equivalent to
regular shifts plus a coupling with no zero entry.  Isomorphism between
regular rhizomatic seeds is controlled by a monomial change of basis in
each weight space, and a canonical orbit representative is computed by
sorting the shifts and gauging the coupling along a spanning tree.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import Rep, verify_periplectic
from .errors import PreconditionError, ShapeError
from .linalg import (
    GaussRat,
    Mat,
    ONE,
    as_gauss,
    gauss_to_json,
    mat_to_json,
    _commutant_dim,
    commutant_basis,
    rank,
    kernel_and_pivots,
    row_basis,
)
from .record import Record
from .reps import _MINUS_ONE, Seed, _weights, build_rep, check_core_shape
from .rhizome import analyze, bipartite_components, scaling_normalize

__all__ = [
    "INDECOMPOSABLE",
    "DECOMPOSABLE",
    "UNKNOWN",
    "MonomialPair",
    "CanonicalForm",
    "WeightBlockPartition",
    "EndoReport",
    "Verdict",
    "is_regular",
    "indecomposable",
    "endo_report",
    "group_act",
    "canonical_form",
    "isomorphic",
    "split_weight_blocks",
    "split_core",
    "e_nonzero_guarantee",
    "canonical_to_json",
    "verdict_to_json",
]

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"
UNKNOWN = "unknown"

Vector = tuple[GaussRat, ...]


class MonomialPair(Record):
    """A monomial change of basis in each weight space.

    The first matrix has entry xi_i in row i and column sigma(i); the second
    likewise with phi and tau.  Permutations are 0-based image tuples.
    """

    __slots__ = ("sigma", "xi", "tau", "phi")

    sigma: tuple[int, ...]
    xi: tuple[GaussRat, ...]
    tau: tuple[int, ...]
    phi: tuple[GaussRat, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "tau", tuple(self.tau))
        object.__setattr__(self, "xi", tuple(as_gauss(x) for x in self.xi))
        object.__setattr__(self, "phi", tuple(as_gauss(x) for x in self.phi))
        for perm, scalars, name in (
            (self.sigma, self.xi, "row"),
            (self.tau, self.phi, "column"),
        ):
            # float and bool entries sort like ints; floats then fail as
            # tuple indices, and bools pass for 0 and 1
            if not all(type(v) is int for v in perm) or sorted(perm) != [*range(len(perm))]:
                raise ValueError(f"{name} permutation {perm} is not a permutation")
            if len(scalars) != len(perm):
                raise ValueError(f"{name} scalars do not match the permutation size")
            if not all(scalars):
                raise ValueError(f"{name} scalars must be nonzero")

    @classmethod
    def identity(cls, k: int, l: int) -> "MonomialPair":
        return cls(tuple(range(k)), (ONE,) * k, tuple(range(l)), (ONE,) * l)

    def inverse(self) -> "MonomialPair":
        k, l = len(self.sigma), len(self.tau)
        sigma_inv = [0] * k
        for i, img in enumerate(self.sigma):
            sigma_inv[img] = i
        tau_inv = [0] * l
        for j, img in enumerate(self.tau):
            tau_inv[img] = j
        xi_inv = tuple(self.xi[sigma_inv[m]].inverse() for m in range(k))
        phi_inv = tuple(self.phi[tau_inv[m]].inverse() for m in range(l))
        return MonomialPair(tuple(sigma_inv), xi_inv, tuple(tau_inv), phi_inv)


def group_act(g: MonomialPair, seed: Seed) -> Seed:
    """Act on a seed so that building the new seed equals conjugating the
    built matrices by the block-diagonal monomial matrix of g: with X that
    matrix, each generator M of the seed's module and M' of the new one
    satisfy M' X = X M."""
    k, l = seed.k, seed.l
    if len(g.sigma) != k or len(g.tau) != l:
        raise ShapeError(
            f"monomial pair sized ({len(g.sigma)},{len(g.tau)}) against seed ({k},{l})"
        )
    # entry (i, j) is xi_i * coupling[sigma(i), tau(j)] / phi_j
    column_of = {q: j for j, q in enumerate(g.tau)}
    coupling = Mat._from_rows(
        [
            {
                column_of[q]: g.xi[i] * x / g.phi[column_of[q]]
                for q, x in seed.coupling.nonzero[g.sigma[i]].items()
            }
            for i in range(k)
        ],
        l,
    )
    eigenvalues = tuple(seed.a[g.sigma[i]] for i in range(k)) + tuple(
        seed.b[g.tau[j]] for j in range(l)
    )
    return Seed(k, l, coupling, eigenvalues)


def is_regular(eigenvalues: Sequence[GaussRat], k: int, l: int) -> bool:
    """Pairwise distinct within the first k values and within the last l;
    collisions across the two groups are allowed."""
    values = [as_gauss(x) for x in eigenvalues]
    if len(values) != k + l:
        raise ShapeError(f"expected {k + l} eigenvalues, got {len(values)}")
    a, b = values[:k], values[k:]
    return len(set(a)) == k and len(set(b)) == l


class EndoReport(Record):
    __slots__ = ("dimension", "basis", "all_diagonal")

    dimension: int
    basis: tuple[Mat, ...]
    all_diagonal: bool


def endo_report(rep: Rep) -> EndoReport:
    """Endomorphisms computed as the commutant of {y1, y2, s}.

    e never needs checking: the mixed relations express e through the other
    three generators, so anything commuting with them commutes with e.
    """
    basis = commutant_basis([rep.y1, rep.y2, rep.s])
    return EndoReport(
        dimension=len(basis),
        basis=tuple(basis),
        all_diagonal=all(m.is_diagonal() for m in basis),
    )


class Verdict(Record):
    __slots__ = ("value", "reason", "witness", "endo_dim")
    _defaults = (None, None)  # witness, endo_dim

    value: str
    reason: str
    witness: tuple[tuple[Vector, ...], tuple[Vector, ...]] | None
    endo_dim: int | None


def _check_split(rep: Rep, part1: Mat, part2: Mat) -> None:
    """Verify that the rows of part1 and of part2 span complementary
    invariant subspaces; raises when they do not.

    When every row holds one stored entry, as in every component witness,
    no elimination runs: the parts are complementary when their coordinates
    partition range(n), and a part is invariant when every generator's
    block from its coordinates into the other part's is zero.  Otherwise one
    rank of the stacked rows checks complementarity (with n rows in all,
    rank n also makes each part independent), and for each part one rank of
    the part stacked with its images under the four generators checks
    invariance.
    """
    n = rep.dim
    if not part1.rows or not part2.rows:
        raise PreconditionError("split witness must have two nonzero parts")
    if part1.rows + part2.rows != n:
        raise PreconditionError("split witness does not have full dimension")
    not_complementary = "split witness vectors are not complementary"
    moved = "claimed invariant subspace is not preserved by the generators"
    stacked = part1.nonzero + part2.nonzero
    if all(len(row) == 1 for row in stacked):
        coords = [[p for row in part.nonzero for p in row] for part in (part1, part2)]
        if len(set(coords[0] + coords[1])) != n:
            raise PreconditionError(not_complementary)
        for inside, outside in (coords, coords[::-1]):
            inside_set = set(inside)
            for m in rep.generators():
                if any(not inside_set.isdisjoint(m.nonzero[p]) for p in outside):
                    raise PreconditionError(moved)
        return
    if rank(Mat._from_rows(stacked, n)) != n:
        raise PreconditionError(not_complementary)
    gens_t = [m.transpose() for m in rep.generators()]
    for part in (part1, part2):
        # row t of part * m^T is m v for the t-th row v of the part
        rows = list(part.nonzero)
        for m_t in gens_t:
            rows.extend((part * m_t).nonzero)
        if rank(Mat._from_rows(rows, n)) != part.rows:
            raise PreconditionError(moved)


def _decomposable(rep: Rep, reason: str, part1: Mat, part2: Mat) -> Verdict:
    """The one maker of a decomposable verdict: re-check the split witness
    given as the rows of part1 and part2, then write it out densely."""
    _check_split(rep, part1, part2)
    return Verdict(DECOMPOSABLE, reason, (part1.entries, part2.entries))


def _component_witness(
    components: list[tuple[tuple[int, ...], tuple[int, ...]]], k: int, n: int
) -> tuple[Mat, Mat]:
    first_rows, first_cols = components[0]
    head = {i for i in first_rows} | {k + j for j in first_cols}
    part1 = Mat._from_rows([{i: ONE} for i in sorted(head)], n)
    part2 = Mat._from_rows([{i: ONE} for i in range(n) if i not in head], n)
    return part1, part2


def _repeat_witness(seed: Seed) -> tuple[Mat, Mat]:
    """Split witness for one-line weight spaces with repeated shifts and a
    coupling without zeros.

    Group equal shifts.  When the second space is the line, s fixes the
    first-space coordinates up to sign, so each group sheds its non-head
    coordinate directions and keeps only its coupling-weighted sum next to
    the line.  When the first space is the line the roles flip: s pushes
    every second-space coordinate into the line, so the line plus one head
    coordinate per group stay together and the weighted-zero-sum
    differences split off.  (A weighted sum cannot serve as complement on
    that side: over the Gaussian rationals it may be isotropic and collapse
    into the zero-sum space.)
    """
    k, l = seed.k, seed.l
    n = k + l
    groups: dict[GaussRat, list[int]] = {}
    for t, val in enumerate(seed.a if l == 1 else seed.b):
        groups.setdefault(val, []).append(t)
    part1: list[dict[int, GaussRat]] = []
    part2: list[dict[int, GaussRat]] = []
    if l == 1:
        weights = seed.coupling.column(0)
        for members in groups.values():
            part2.append({t: weights[t] for t in members})
            part1.extend({t: ONE} for t in members[1:])
        part2.append({k: ONE})
    else:  # k == 1
        weights = seed.coupling.row(0)
        part2.append({0: ONE})
        for members in groups.values():
            head = members[0]
            part2.append({1 + head: ONE})
            part1.extend({1 + head: -weights[t], 1 + t: weights[head]} for t in members[1:])
    return Mat._from_rows(part1, n), Mat._from_rows(part2, n)


def indecomposable(seed: Seed) -> Verdict:
    """Decide indecomposability of build_rep(seed) when possible.

    Regular shifts: the verdict is read off the rhizome analysis of the
    coupling.  A disconnected coupling pattern always yields an explicit
    coordinate splitting, regular or not.  One-line weight spaces with
    repeated shifts split via weighted sums.  The remaining case (repeated
    shifts, both weight spaces of dimension >= 2, connected coupling) is
    undecided here and reported with the endomorphism dimension.
    """
    k, l = seed.k, seed.l
    n = k + l
    if n == 0:
        raise ShapeError("empty seed")
    if n == 1:
        return Verdict(INDECOMPOSABLE, "one-dimensional modules are indecomposable")
    components = bipartite_components(seed.coupling)
    # with n >= 2, a single component means the coupling is rhizomatic
    if len(components) == 1 and is_regular(seed.eigenvalues, k, l):
        return Verdict(
            INDECOMPOSABLE,
            "regular shifts with a rhizomatic coupling force a scalar endomorphism algebra",
        )
    if len(components) >= 2:
        witness = _component_witness(components, k, n)
        reason = f"the coupling pattern splits into {len(components)} independent blocks"
    # otherwise the coupling is rhizomatic, so the shifts are the obstruction
    elif k == 1 or l == 1:
        witness = _repeat_witness(seed)
        reason = "repeated shifts in a one-line weight space split off invariant summands"
    else:
        dim = _commutant_dim(build_rep(seed).generators()[:3])  # endo_report's y1, y2, s
        return Verdict(
            UNKNOWN,
            "repeated shifts with both weight spaces of dimension >= 2 are outside "
            f"the decided cases; endomorphism dimension is {dim}",
            endo_dim=dim,
        )
    return _decomposable(build_rep(seed), reason, *witness)


def e_nonzero_guarantee(seed: Seed) -> bool:
    """Regular shifts plus a rhizomatic coupling force e to act nonzero.

    The argument: were e zero, every nonzero coupling entry would tie a
    shift from one side to an equal shift on the other, and a second entry
    in its row or column would then force two equal shifts on one side,
    against regularity.  A 1x1 coupling has no second entry, so the lone
    configuration k = l = 1 with equal shifts slips through and is
    excluded here.
    """
    if not is_regular(seed.eigenvalues, seed.k, seed.l):
        return False
    if not analyze(seed.coupling).is_rhizomatic:
        return False
    if seed.k == 1 and seed.l == 1 and seed.a[0] == seed.b[0]:
        return False
    return True


class CanonicalForm(Record):
    """Orbit representative: sorted shifts and a tree-gauged coupling."""

    __slots__ = ("eigenvalues", "coupling")

    eigenvalues: tuple[GaussRat, ...]
    coupling: Mat


def canonical_form(seed: Seed) -> CanonicalForm:
    """Canonical representative of the monomial-pair orbit of a regular
    rhizomatic seed: sort each shift group ascending, permute the coupling
    along, then normalize the scalings along a spanning tree.

    The sort is a permutation of the stored coupling entries, with no
    scalar arithmetic: it is the action of the monomial pair with unit
    scalars, without building one.  The coupling is analyzed once, by
    scaling_normalize; sorting permutes rows and columns and so keeps it
    rhizomatic or not."""
    k, l = seed.k, seed.l
    if not is_regular(seed.eigenvalues, k, l):
        raise PreconditionError("canonical form needs regular shifts")
    a, b = seed.a, seed.b
    sigma = sorted(range(k), key=a.__getitem__)
    tau = sorted(range(l), key=b.__getitem__)
    # each stored entry moves to its row's and its column's sorted place
    col_to, stored = {j: t for t, j in enumerate(tau)}, seed.coupling.nonzero
    permuted = Mat._from_rows([{col_to[j]: x for j, x in stored[i].items()} for i in sigma], l)
    try:
        norm = scaling_normalize(permuted)
    except PreconditionError:
        raise PreconditionError("canonical form needs a rhizomatic coupling") from None
    eigenvalues = tuple(a[i] for i in sigma) + tuple(b[j] for j in tau)
    return CanonicalForm(eigenvalues, norm.normalized)


def isomorphic(seed1: Seed, seed2: Seed) -> bool:
    """Equality of canonical forms; requires both seeds regular and rhizomatic.

    Seeds with different weight space dimensions are never isomorphic.  The
    preconditions are canonical_form's, so its refusal is reworded here.
    """
    if (seed1.k, seed1.l) != (seed2.k, seed2.l):
        return False
    try:
        return canonical_form(seed1) == canonical_form(seed2)
    except PreconditionError:
        raise PreconditionError(
            "isomorphism testing needs regular rhizomatic seeds on both sides; "
            "compare endo_report output instead"
        ) from None


class WeightBlockPartition(Record):
    """Indices of the +1 and -1 weight spaces and of the paired weight
    blocks (d, indices with weight d, indices with weight -d), in the
    original basis order."""

    __slots__ = ("plus_block", "minus_block", "other_blocks")

    plus_block: tuple[int, ...]
    minus_block: tuple[int, ...]
    other_blocks: tuple[tuple[GaussRat, tuple[int, ...], tuple[int, ...]], ...]


def _require_relations(rep: Rep) -> None:
    """Raise PreconditionError on the first violation verify_periplectic reports."""
    report = verify_periplectic(rep)
    if not report.passed:
        v = report.violations[0]
        raise PreconditionError(f"input violates {v.relation} at {v.position}: {v.lhs} != {v.rhs}")


def split_weight_blocks(rep: Rep) -> tuple[WeightBlockPartition, Rep, Rep | None]:
    """Sort a calibrated module by y1 - y2 weight into the (+1, -1) core and
    the paired blocks on which e acts by zero.

    The input must satisfy the relations (verify_periplectic), and then the
    relations force the block structure, as the algebra module docstring
    shows: every weight w is nonzero with s diagonal -1/w, s couples weight
    w only to weight -w, and e vanishes outside the (+1, -1) corner.
    Returns (partition, core module, remaining module or None).
    """
    _require_relations(rep)
    d = _weights(rep, "weight splitting")
    by_weight: dict[GaussRat, list[int]] = {}
    for i, di in enumerate(d):
        by_weight.setdefault(di, []).append(i)
    plus = by_weight.pop(ONE, [])
    minus = by_weight.pop(_MINUS_ONE, [])

    # pair the remaining weights as (d, -d) with d the larger of the two
    blocks = [
        (key, tuple(by_weight.get(key, ())), tuple(by_weight.get(-key, ())))
        for key in sorted({max(w, -w) for w in by_weight})
    ]
    partition = WeightBlockPartition(tuple(plus), tuple(minus), tuple(blocks))

    def restrict(k: int, idx: list[int]) -> Rep:
        return Rep(k, len(idx) - k, *(m.submatrix(idx, idx) for m in rep.generators()))

    core = restrict(len(plus), plus + minus)
    rest_idx = [i for _, bp, bm in blocks for i in (*bp, *bm)]
    rest = restrict(sum(len(bp) for _, bp, _ in blocks), rest_idx) if rest_idx else None
    return partition, core, rest


def split_core(rep: Rep) -> Verdict:
    """Try to split a core-shaped module along the lower-left block of s.

    The input must satisfy the relations (verify_periplectic), and on a
    core they force s = [[-1, S], [T, 1]] in block form, with S*T = 0 and
    T*S = 0 (see the algebra module docstring).  With T nonzero, the pivot
    coordinates of T and its column space span one invariant summand; the
    kernel of T and the coordinate complement of the column space span the
    other.  T = 0 says nothing (classify from the seed instead), and a T of
    full rank on both sides leaves no complement to split off.
    """
    k = check_core_shape(rep, "core splitting", "not in core shape")
    _require_relations(rep)
    n = rep.dim
    l = n - k
    lower = rep.s.submatrix(range(k, n), range(k))
    if lower.is_zero():
        return Verdict(
            UNKNOWN,
            "lower coupling block is zero; decide from the seed data instead",
        )
    kernel, pivot_cols = kernel_and_pivots(lower)
    image_rows, image_leads = row_basis(lower.transpose())
    part1 = [{p: ONE} for p in pivot_cols]
    part1 += ({k + t: x for t, x in enumerate(w) if x} for w in image_rows)
    part2 = [{t: x for t, x in enumerate(u) if x} for u in kernel]
    part2 += ({k + q: ONE} for q in range(l) if q not in image_leads)
    if not part2:
        return Verdict(
            UNKNOWN,
            "lower coupling block has full rank on both sides; "
            "no complementary summand arises from this route",
        )
    return _decomposable(
        rep,
        "nonzero lower coupling block splits the module into two invariant summands",
        Mat._from_rows(part1, n),
        Mat._from_rows(part2, n),
    )


def canonical_to_json(form: CanonicalForm) -> dict:
    return {
        "ab": [gauss_to_json(x) for x in form.eigenvalues],
        "S": mat_to_json(form.coupling),
    }


def verdict_to_json(verdict: Verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = [
            [[gauss_to_json(x) for x in vec] for vec in part]
            for part in verdict.witness
        ]
    return {
        "verdict": verdict.value,
        "reason": verdict.reason,
        "witness": witness,
        "endo_dim": verdict.endo_dim,
    }
