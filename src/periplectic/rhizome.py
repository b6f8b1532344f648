"""Connectivity combinatorics of matrix zero patterns.

Two nonzero entries of a matrix are related when they share a row or a
column; a matrix is rhizomatic when all nonzero entries form a single class
and every row and every column carries at least one of them.  The same data
is visible in the bipartite graph on row and column vertices with an edge
per nonzero entry: the number of connected components there equals the
number of entry classes plus the number of zero rows plus the number of
zero columns.  One breadth-first walk of that graph gives the classes, the
components and the spanning tree that scaling normalization gauges along.
That walk is `linalg._walk`, which `commutant_basis` also reads.
"""

from __future__ import annotations

from .errors import CodecError, PreconditionError
from .linalg import GaussRat, Mat, ONE, ZERO, _reduce, _walk
from .record import Record

__all__ = [
    "RhizomeReport",
    "ScalingNormalization",
    "analyze",
    "bipartite_components",
    "scaling_normalize",
    "parse_pattern",
    "format_pattern",
]


class RhizomeReport(Record):
    __slots__ = ("n_classes", "zero_rows", "zero_cols", "is_rhizomatic", "class_labels")

    n_classes: int
    zero_rows: int
    zero_cols: int
    is_rhizomatic: bool
    class_labels: dict[tuple[int, int], int]


def analyze(matrix: Mat) -> RhizomeReport:
    """Entry classes are the components that hold an edge; zero rows and
    zero columns are the edgeless ones.

    Class labels number the classes by first appearance in row-major order.
    """
    components, row_component, _ = _walk(matrix)
    labels: dict[tuple[int, int], int] = {}
    class_of: dict[int, int] = {}
    for i, row in enumerate(matrix.nonzero):
        for j in sorted(row):
            labels[(i, j)] = class_of.setdefault(row_component[i], len(class_of))
    n_classes = len(class_of)
    zero_rows = sum(not cols for _, cols in components)
    zero_cols = sum(not rows for rows, _ in components)
    return RhizomeReport(
        n_classes=n_classes,
        zero_rows=zero_rows,
        zero_cols=zero_cols,
        is_rhizomatic=(n_classes == 1 and zero_rows == 0 and zero_cols == 0),
        class_labels=labels,
    )


def bipartite_components(matrix: Mat) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the row/column graph, isolated vertices included.

    Each component is returned as (row indices, column indices), ordered by
    the smallest vertex it contains; rows come before columns.
    """
    return _walk(matrix)[0]


class ScalingNormalization(Record):
    """Result of gauging row and column scalings along a spanning tree."""

    __slots__ = ("tree_edges", "normalized", "row_scalars", "col_scalars")

    tree_edges: tuple[tuple[int, int], ...]
    normalized: Mat
    row_scalars: tuple[GaussRat, ...]
    col_scalars: tuple[GaussRat, ...]


def scaling_normalize(matrix: Mat) -> ScalingNormalization:
    """Rescale rows and columns so every spanning tree entry becomes 1.

    The tree is grown breadth first from the first row, visiting neighbours
    in index order, with the first row scalar gauged to 1; a rhizomatic
    input is required so that the tree reaches everything.  The off-tree
    entries of the normalized matrix are complete invariants of the
    row/column scaling action, and the normalized matrix itself is the
    unique member of the scaling orbit with ones along the tree.

    Each scalar is the inverse of one product, and each off-tree entry one
    product of three scalars, taken on their integer parts and reduced
    once; the tree entries are set to 1 without arithmetic.
    """
    components, _, tree = _walk(matrix)
    # rhizomatic: a single component, and it holds an edge
    if len(components) != 1 or not tree:
        raise PreconditionError("scaling normalization needs a rhizomatic matrix")
    k, l = matrix.rows, matrix.cols
    row_nz = matrix.nonzero
    xi: list[GaussRat | None] = [None] * k
    phi: list[GaussRat | None] = [None] * l
    xi[0] = ONE
    # a tree entry is 1 by construction; each tree edge gauges the one
    # endpoint that is not gauged yet to 1 / (gauged scalar * entry), taken
    # on the (a, b, d) ints and reduced once
    rows: list[dict[int, GaussRat]] = [{} for _ in range(k)]
    for i, j in tree:
        rows[i][j] = ONE
        x = row_nz[i][j]
        g = phi[j] if xi[i] is None else xi[i]
        u, v = g._a * x._a - g._b * x._b, g._a * x._b + g._b * x._a
        inverse = _reduce(u * g._d * x._d, -v * g._d * x._d, u * u + v * v)
        if xi[i] is None:
            xi[i] = inverse
        else:
            phi[j] = inverse
    # every other entry is the product xi_i * phi_j * x, taken on the ints
    # and reduced once
    col = [(p._a, p._b, p._d) for p in phi]
    for row, out, s in zip(row_nz, rows, xi):
        sa, sb, sd = s._a, s._b, s._d
        for j, x in row.items():
            if j in out:
                continue
            pa, pb, pd = col[j]
            ra, rb = sa * pa - sb * pb, sa * pb + sb * pa
            out[j] = _reduce(ra * x._a - rb * x._b, ra * x._b + rb * x._a, sd * pd * x._d)
    return ScalingNormalization(
        tree_edges=tuple(tree),
        normalized=Mat._from_rows(rows, l),
        row_scalars=tuple(xi),
        col_scalars=tuple(phi),
    )


_ZERO_CHARS = {".", "·"}
_NONZERO_CHARS = {"*", "•"}


def parse_pattern(text: str) -> Mat:
    """Parse a text grid of '.'/'*' (or the typographic dot/bullet) into a
    0/1 matrix.  Blanks between cells are ignored."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = [c for c in line if not c.isspace()]
        if not cells:
            continue
        row = []
        for c in cells:
            if c in _ZERO_CHARS:
                row.append(ZERO)
            elif c in _NONZERO_CHARS:
                row.append(ONE)
            else:
                raise CodecError(f"line {lineno}: unexpected pattern character {c!r}")
        rows.append(row)
    if not rows:
        raise CodecError("empty pattern")
    width = len(rows[0])
    for idx, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CodecError(f"pattern row {idx} has {len(row)} cells, expected {width}")
    return Mat(rows, cols=width)


def format_pattern(matrix: Mat) -> str:
    return "\n".join(
        "".join("*" if j in row else "." for j in range(matrix.cols)) for row in matrix.nonzero
    )
