"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the production code paths: elimination
is plain divide-by-pivot Gauss-Jordan instead of the library's elimination,
and it computes on (re, im) pairs of stdlib Fractions rather than on
GaussRat, converting only where an oracle takes or returns library values;
the commutant system is assembled over all matrix positions with no
presolve; isomorphism is decided by enumerating permutations and
propagating scalings along the zero pattern; scaling normalization
gauges along a given tree on Fraction pairs until no edge changes, and
multiplies every entry out in full; zero-pattern classes and components
come from a dense flood fill rather than the library's walk, and the
walk itself is checked against a queue-driven search that scans the
dense grid; the generators of a seeded module are written from their
closed forms on Fraction pairs, and a monomial change of basis as its
dense block-diagonal grid; direct sums and split cores are assembled
on dense grids; and relation reports come from both
sides of each relation evaluated in full on dense grids of Fraction
pairs, rather than from generator words.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Sequence

from periplectic import GaussRat, Mat, MonomialPair, ONE, Rep, Seed, ZERO

Vector = tuple[GaussRat, ...]
Pair = tuple[Fraction, Fraction]

_PAIR_ZERO: Pair = (Fraction(0), Fraction(0))
_PAIR_ONE: Pair = (Fraction(1), Fraction(0))


def to_pair(x: GaussRat) -> Pair:
    return (x.re, x.im)


def _pairs(rows: Sequence[Sequence[GaussRat]]) -> list[list[Pair]]:
    return [[to_pair(x) for x in row] for row in rows]


def pair_add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x: Pair, y: Pair) -> Pair:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_inverse(x: Pair) -> Pair:
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def rref(rows: Sequence[Sequence[Pair]], ncols: int):
    """Reduced row echelon form by pivot division on (re, im) Fraction
    pairs; returns (rows, pivots)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(work)) if any(work[i][c])), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = pair_inverse(work[r][c])
        work[r] = [pair_mul(x, inv) for x in work[r]]
        for i in range(len(work)):
            if i != r and any(work[i][c]):
                f = work[i][c]
                work[i] = [
                    pair_sub(x, pair_mul(f, y)) if any(y) else x for x, y in zip(work[i], work[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def oracle_rank(mat: Mat) -> int:
    reduced, _ = rref(_pairs(mat.entries), mat.cols)
    return len(reduced)


def _nullspace(rows: Sequence[Sequence[Pair]], ncols: int) -> list[Vector]:
    """One vector per free column of the RREF, in column order: 1 there, 0
    at the other free columns."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_PAIR_ZERO] * ncols
        vec[free] = _PAIR_ONE
        for row, c in zip(reduced, pivots):
            vec[c] = pair_sub(_PAIR_ZERO, row[free])
        basis.append(tuple(GaussRat(re, im) for re, im in vec))
    return basis


def oracle_nullspace(mat: Mat) -> list[Vector]:
    return _nullspace(_pairs(mat.entries), mat.cols)


def in_span(vectors: Sequence[Vector], target: Vector) -> bool:
    if not vectors:
        return not any(target)
    ncols = len(target)
    base, _ = rref(_pairs(vectors), ncols)
    extended, _ = rref(_pairs(list(vectors) + [target]), ncols)
    return len(base) == len(extended)


def oracle_commutant_basis(gens: Sequence[Mat]) -> list[Vector]:
    """Null space of the full (X*G - G*X = 0) system over all n^2 positions,
    with the unknowns X[i][j] numbered row-major: each vector is a commuting
    matrix flattened row-major."""
    n = gens[0].rows
    equations: list[list[Pair]] = []
    for g in gens:
        ge = _pairs(g.entries)
        for p in range(n):
            for q in range(n):
                row = [_PAIR_ZERO] * (n * n)
                for t in range(n):
                    row[p * n + t] = pair_add(row[p * n + t], ge[t][q])
                    row[t * n + q] = pair_sub(row[t * n + q], ge[p][t])
                equations.append(row)
    return _nullspace(equations, n * n)


def oracle_commutant_dim(gens: Sequence[Mat]) -> int:
    return len(oracle_commutant_basis(gens))


def oracle_invariant_line_spaces(rep: Rep) -> list[tuple[int, int]]:
    """All invariant lines of a calibrated module.

    A line is invariant iff it sits in a joint eigenspace of y1 and y2,
    is an eigenvector of s (eigenvalue +1 or -1 since s squares to one),
    and is killed by e (e is nilpotent).  Returns (solution dimension,
    sign) per joint-eigenvalue block and sign with nonzero solutions; the
    module has finitely many invariant lines iff every dimension is 1.
    """
    n = rep.dim
    blocks: dict[tuple[GaussRat, GaussRat], list[int]] = {}
    for i in range(n):
        blocks.setdefault((rep.y1[i, i], rep.y2[i, i]), []).append(i)
    spaces = []
    s, e = _pairs(rep.s.entries), _pairs(rep.e.entries)
    for sign in (1, -1):
        shifted = [
            [(x[0] - sign, x[1]) if p == c else x for c, x in enumerate(row)]
            for p, row in enumerate(s)
        ]
        for coords in blocks.values():
            rows = []
            for p in range(n):
                rows.append([shifted[p][c] for c in coords])
                rows.append([e[p][c] for c in coords])
            reduced, _ = rref(rows, len(coords))
            dim = len(coords) - len(reduced)
            if dim:
                spaces.append((dim, sign))
    return spaces


def _scaling_match(
    s1: Mat, s2: Mat, sigma: Sequence[int], tau: Sequence[int]
) -> bool:
    """Does some scaling pair turn the permuted s1 into s2 entrywise?"""
    k, l = s2.rows, s2.cols
    for i in range(k):
        for j in range(l):
            if bool(s1[sigma[i], tau[j]]) != bool(s2[i, j]):
                return False
    # propagate xi_i = ratio_{ij} * phi_j over the nonzero positions
    xi: dict[int, GaussRat] = {}
    phi: dict[int, GaussRat] = {}
    for start in range(k):
        if start in xi:
            continue
        xi[start] = ONE
        queue = [("r", start)]
        while queue:
            kind, v = queue.pop()
            if kind == "r":
                for j in range(l):
                    if not s2[v, j]:
                        continue
                    ratio = s2[v, j] / s1[sigma[v], tau[j]]
                    want = xi[v] / ratio
                    if j in phi:
                        if phi[j] != want:
                            return False
                    else:
                        phi[j] = want
                        queue.append(("c", j))
            else:
                for i in range(k):
                    if not s2[i, v]:
                        continue
                    ratio = s2[i, v] / s1[sigma[i], tau[v]]
                    want = ratio * phi[v]
                    if i in xi:
                        if xi[i] != want:
                            return False
                    else:
                        xi[i] = want
                        queue.append(("r", i))
    return True


def oracle_scaling_normalize(
    m: Mat, tree_edges: Sequence[tuple[int, int]]
) -> tuple[list[list[Pair]], list[Pair], list[Pair]]:
    """Gauge the row and column scalings along the given spanning tree, on
    Fraction pairs: the first row scalar is 1, and each tree edge whose one
    end is gauged fixes the other so that the scaled entry is 1, until no
    edge changes anything.  Returns the scaled grid with every entry
    multiplied out in full (tree entries included), and the row and column
    scalars."""
    grid = _pairs(m.entries)
    xi: dict[int, Pair] = {0: _PAIR_ONE}
    phi: dict[int, Pair] = {}
    changed = True
    while changed:
        changed = False
        for i, j in tree_edges:
            if i in xi and j not in phi:
                phi[j] = pair_inverse(pair_mul(xi[i], grid[i][j]))
                changed = True
            elif j in phi and i not in xi:
                xi[i] = pair_inverse(pair_mul(phi[j], grid[i][j]))
                changed = True
    rows = [xi[i] for i in range(m.rows)]
    cols = [phi[j] for j in range(m.cols)]
    scaled = [
        [pair_mul(pair_mul(rows[i], cols[j]), x) for j, x in enumerate(row)]
        for i, row in enumerate(grid)
    ]
    return scaled, rows, cols


def oracle_zero_pattern(mat: Mat) -> tuple[
    list[list[tuple[int, int]]],
    list[int],
    list[int],
    list[tuple[tuple[int, ...], tuple[int, ...]]],
]:
    """Entry classes, zero rows, zero columns and row/column components of
    the zero pattern, by depth-first flood fill over the dense grid.

    Two cells are joined when they share a row or a column, tested against
    every other cell.  Classes list their cells in row-major order and come
    in the order of their first cell.  Components are (rows, columns): one
    per class, one per zero row and one per zero column, ordered by their
    smallest vertex with rows before columns.
    """
    grid = mat.entries
    cells = [(i, j) for i, row in enumerate(grid) for j, x in enumerate(row) if x]
    found: set[tuple[int, int]] = set()
    classes: list[list[tuple[int, int]]] = []
    for cell in cells:
        if cell in found:
            continue
        found.add(cell)
        members, stack = [], [cell]
        while stack:
            i, j = stack.pop()
            members.append((i, j))
            for other in cells:
                if other not in found and (other[0] == i or other[1] == j):
                    found.add(other)
                    stack.append(other)
        classes.append(sorted(members))
    zero_rows = [i for i in range(mat.rows) if not any(grid[i])]
    zero_cols = [j for j in range(mat.cols) if not any(row[j] for row in grid)]
    components = [
        (tuple(sorted({i for i, _ in members})), tuple(sorted({j for _, j in members})))
        for members in classes
    ]
    components += [((i,), ()) for i in zero_rows] + [((), (j,)) for j in zero_cols]
    components.sort(key=lambda part: (0, part[0][0]) if part[0] else (1, part[1][0]))
    return classes, zero_rows, zero_cols, components


def oracle_walk(grid: Sequence[Sequence[int]], cols: int) -> tuple[
    list[tuple[tuple[int, ...], tuple[int, ...]]],
    list[int],
    list[tuple[int, int]],
]:
    """The coupling-graph walk on a dense 0/1 grid with `cols` columns: a
    first-in first-out breadth-first search over ("row", i) and
    ("col", j) vertices, started at each unvisited row and then at each
    unvisited column, that scans a whole grid row or column for the
    neighbours of a vertex, in index order.  Returns the components as
    (sorted rows, sorted columns), each row's component index, and the
    (row, column) edges that discovered a vertex, in visiting order."""
    starts = [("row", i) for i in range(len(grid))] + [("col", j) for j in range(cols)]
    label: dict[tuple[str, int], int] = {}
    components, tree = [], []
    for start in starts:
        if start in label:
            continue
        label[start] = len(components)
        queue = deque([start])
        members = []
        while queue:
            side, v = queue.popleft()
            members.append((side, v))
            if side == "row":
                near = [(("col", j), (v, j)) for j in range(cols) if grid[v][j]]
            else:
                near = [(("row", i), (i, v)) for i in range(len(grid)) if grid[i][v]]
            for vertex, edge in near:
                if vertex not in label:
                    label[vertex] = label[start]
                    tree.append(edge)
                    queue.append(vertex)
        components.append(
            (
                tuple(sorted(v for side, v in members if side == "row")),
                tuple(sorted(v for side, v in members if side == "col")),
            )
        )
    return components, [label[("row", i)] for i in range(len(grid))], tree


def brute_force_isomorphic(seed1: Seed, seed2: Seed) -> bool:
    """Orbit search over all permutation pairs plus scaling propagation."""
    if (seed1.k, seed1.l) != (seed2.k, seed2.l):
        return False
    k, l = seed1.k, seed1.l
    for sigma in itertools.permutations(range(k)):
        if any(seed2.a[i] != seed1.a[sigma[i]] for i in range(k)):
            continue
        for tau in itertools.permutations(range(l)):
            if any(seed2.b[j] != seed1.b[tau[j]] for j in range(l)):
                continue
            if _scaling_match(seed1.coupling, seed2.coupling, sigma, tau):
                return True
    return False


def oracle_split_ok(
    rep: Rep, witness: tuple[Sequence[Vector], Sequence[Vector]]
) -> bool:
    """Re-verify a claimed invariant splitting from scratch on (re, im)
    pairs: the n vectors have rank n, and adding a part's images under any
    generator does not raise the rank of the part."""
    part1, part2 = (_pairs(part) for part in witness)
    n = rep.dim
    if not part1 or not part2 or len(part1) + len(part2) != n:
        return False
    if len(rref(part1 + part2, n)[0]) != n:
        return False
    gens = [_pairs(m.entries) for m in rep.generators()]
    for part in (part1, part2):
        inside = len(rref(part, n)[0])
        for g in gens:
            images = [pair_apply(g, v) for v in part]
            if len(rref(part + images, n)[0]) != inside:
                return False
    return True


def make_weight_block(alpha: GaussRat, d: GaussRat, c: GaussRat) -> Rep:
    """A valid two-dimensional module concentrated in weights (d, -d)."""
    dinv = d.inverse()
    return Rep(
        1,
        1,
        y1=Mat.diagonal([alpha, alpha - d]),
        y2=Mat.diagonal([alpha - d, alpha]),
        s=Mat([[-dinv, c], [(ONE - dinv * dinv) / c, dinv]]),
        e=Mat.zero(2, 2),
    )


def _block_diagonal(blocks: Sequence[Mat]) -> Mat:
    """The square blocks down the diagonal of one dense grid."""
    n = sum(m.cols for m in blocks)
    grid: list[list[GaussRat]] = []
    for m in blocks:
        left = len(grid)
        grid += [[ZERO] * left + list(row) + [ZERO] * (n - left - m.cols) for row in m.entries]
    return Mat(grid, cols=n)


def direct_sum(reps: Sequence[Rep]) -> Rep:
    return Rep(
        sum(r.k for r in reps),
        sum(r.l for r in reps),
        y1=_block_diagonal([r.y1 for r in reps]),
        y2=_block_diagonal([r.y2 for r in reps]),
        s=_block_diagonal([r.s for r in reps]),
        e=_block_diagonal([r.e for r in reps]),
    )


def make_split_core(
    a_free: Sequence[GaussRat],
    b_free: Sequence[GaussRat],
    shared: GaussRat,
    coupling_up: Mat,
    coupling_down: Mat,
) -> Rep:
    """Core-shaped module whose s has both off-diagonal blocks nonzero.

    The upper coupling lives on the (a_free x b_free) corner and the lower
    one on the (shared x shared) corner, so their products vanish and the
    relations hold; every lower entry ties two equal eigenvalue shifts.
    """
    k = len(a_free) + coupling_down.cols
    l = len(b_free) + coupling_down.rows
    a = list(a_free) + [shared] * coupling_down.cols
    b = list(b_free) + [shared] * coupling_down.rows
    n = k + l
    s = [[ZERO] * n for _ in range(n)]
    e = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        s[i][i] = -ONE if i < k else ONE
    for i in range(len(a_free)):
        for j in range(len(b_free)):
            s[i][k + j] = coupling_up[i, j]
            e[i][k + j] = (a[i] - b[j]) * coupling_up[i, j]
    for j in range(coupling_down.rows):
        for i in range(coupling_down.cols):
            s[k + len(b_free) + j][len(a_free) + i] = coupling_down[j, i]
    return Rep(
        k,
        l,
        y1=Mat.diagonal(a + [x - ONE for x in b]),
        y2=Mat.diagonal([x - ONE for x in a] + b),
        s=Mat(s, cols=n),
        e=Mat(e, cols=n),
    )


# Dense reference for the Mat operations: a matrix is a list of rows of
# (re, im) Fraction pairs, every zero written out.

PairGrid = list[list[Pair]]


def pair_zero_grid(rows: int, cols: int) -> PairGrid:
    return [[_PAIR_ZERO] * cols for _ in range(rows)]


def pair_diagonal(values: Sequence[Pair]) -> PairGrid:
    out = pair_zero_grid(len(values), len(values))
    for i, x in enumerate(values):
        out[i][i] = x
    return out


def pair_monomial(g: MonomialPair) -> PairGrid:
    """The block-diagonal monomial matrix of g: xi_i at (i, sigma(i)) and
    phi_j at (k + j, k + tau(j))."""
    k = len(g.sigma)
    out = pair_zero_grid(k + len(g.tau), k + len(g.tau))
    for i, (c, x) in enumerate(zip(g.sigma, g.xi)):
        out[i][c] = to_pair(x)
    for j, (c, x) in enumerate(zip(g.tau, g.phi)):
        out[k + j][k + c] = to_pair(x)
    return out


def pair_neg(a: PairGrid) -> PairGrid:
    return [[pair_sub(_PAIR_ZERO, x) for x in row] for row in a]


def pair_sum(a: PairGrid, b: PairGrid) -> PairGrid:
    return [[pair_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pair_scale(c: Pair, a: PairGrid) -> PairGrid:
    return [[pair_mul(c, x) for x in row] for row in a]


def pair_product(a: PairGrid, b: PairGrid, cols: int) -> PairGrid:
    """Each output row is the sum of the rows of b, scaled by the entries of
    the row of a; zero entries on either side are skipped."""
    out = []
    for row in a:
        acc = [_PAIR_ZERO] * cols
        for p, x in enumerate(row):
            if any(x):
                acc = [pair_add(v, pair_mul(x, y)) if any(y) else v for v, y in zip(acc, b[p])]
        out.append(acc)
    return out


def pair_apply(a: PairGrid, vector: Sequence[Pair]) -> list[Pair]:
    return [pair_product([row], [[x] for x in vector], 1)[0][0] for row in a]


def pair_transpose(a: PairGrid, cols: int) -> PairGrid:
    return [[row[j] for row in a] for j in range(cols)]


def pair_submatrix(a: PairGrid, rows: Sequence[int], cols: Sequence[int]) -> PairGrid:
    return [[a[i][j] for j in cols] for i in rows]


def pair_is_zero(a: PairGrid) -> bool:
    return not any(any(x) for row in a for x in row)


def pair_is_diagonal(a: PairGrid, cols: int) -> bool:
    return len(a) == cols and all(
        not any(x) for i, row in enumerate(a) for j, x in enumerate(row) if i != j
    )


def pairs_to_gauss(a: PairGrid) -> list[list[GaussRat]]:
    return [[GaussRat(*x) for x in row] for row in a]


def oracle_build_rep(seed: Seed) -> dict[str, PairGrid]:
    """The four generators of build_rep(seed) as dense (re, im) Fraction
    grids, from the closed forms alone: y1 = diag(a, b - 1),
    y2 = diag(a - 1, b), s = [[-1, S], [0, 1]], and e zero but for
    e[i][k + j] = (a_i - b_j) * S_ij."""
    k, l = seed.k, seed.l
    a = [to_pair(x) for x in seed.a]
    b = [to_pair(x) for x in seed.b]
    coupling = _pairs(seed.coupling.entries)
    s = pair_diagonal([pair_sub(_PAIR_ZERO, _PAIR_ONE)] * k + [_PAIR_ONE] * l)
    e = pair_zero_grid(k + l, k + l)
    for i in range(k):
        for j in range(l):
            s[i][k + j] = coupling[i][j]
            e[i][k + j] = pair_mul(pair_sub(a[i], b[j]), coupling[i][j])
    return {
        "y1": pair_diagonal(a + [pair_sub(x, _PAIR_ONE) for x in b]),
        "y2": pair_diagonal([pair_sub(x, _PAIR_ONE) for x in a] + b),
        "s": s,
        "e": e,
    }


def oracle_relation_report(
    rep: Rep, hecke: bool = False
) -> tuple[bool, list[tuple[str, tuple[int, int], Pair, Pair]], list[str]]:
    """(passed, violations, checked) as verify_periplectic reports them, or
    verify_hecke when `hecke`: both sides of every relation are evaluated in
    full on dense (re, im) Fraction grids, and a violation is the first
    entry, in row-major order, where they differ, with both values."""
    n = rep.dim
    y1, y2, s, e = (_pairs(m.entries) for m in rep.generators())
    one = pair_diagonal([_PAIR_ONE] * n)

    def mul(a: PairGrid, b: PairGrid) -> PairGrid:
        return pair_product(a, b, n)

    def sub(a: PairGrid, b: PairGrid) -> PairGrid:
        return pair_sum(a, pair_neg(b))

    if hecke:
        sides = [
            ("s*s = 1", mul(s, s), one),
            ("y1*y2 = y2*y1", mul(y1, y2), mul(y2, y1)),
            ("s*y1 = y2*s - 1", mul(s, y1), sub(mul(y2, s), one)),
            ("s*y2 = y1*s + 1", mul(s, y2), pair_sum(mul(y1, s), one)),
        ]
    else:
        sides = [
            ("s*s = 1", mul(s, s), one),
            ("y1*y2 = y2*y1", mul(y1, y2), mul(y2, y1)),
            ("s*y1 = y2*s - 1 - e", mul(s, y1), sub(sub(mul(y2, s), one), e)),
            ("s*y2 = y1*s + 1 - e", mul(s, y2), sub(pair_sum(mul(y1, s), one), e)),
            ("e*e = 0", mul(e, e), pair_zero_grid(n, n)),
            ("e*s = e", mul(e, s), e),
            ("s*e = -e", mul(s, e), pair_neg(e)),
            ("e*y2 = e*y1 + e", mul(e, y2), pair_sum(mul(e, y1), e)),
            ("y1*e = y2*e + e", mul(y1, e), pair_sum(mul(y2, e), e)),
        ]
    violations = []
    for name, lhs, rhs in sides:
        cells = ((i, j) for i in range(n) for j in range(n))
        hit = next(((i, j) for i, j in cells if lhs[i][j] != rhs[i][j]), None)
        if hit is not None:
            i, j = hit
            violations.append((name, hit, lhs[i][j], rhs[i][j]))
    return not violations, violations, [name for name, _, _ in sides]
