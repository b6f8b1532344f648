"""Connectivity combinatorics of matrix zero patterns.

Two nonzero entries of a matrix are related when they share a row or a
column; a matrix is rhizomatic when all nonzero entries form a single class
and every row and every column carries at least one of them.  The same data
is visible in the bipartite graph on row and column vertices with an edge
per nonzero entry: the number of connected components there equals the
number of entry classes plus the number of zero rows plus the number of
zero columns.
"""

from __future__ import annotations

from collections import deque

from .errors import CodecError, PreconditionError
from .linalg import GaussRat, Mat, ONE, ZERO
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class RhizomeReport(Record):
    __slots__ = ("n_classes", "zero_rows", "zero_cols", "is_rhizomatic", "class_labels")

    n_classes: int
    zero_rows: int
    zero_cols: int
    is_rhizomatic: bool
    class_labels: dict[tuple[int, int], int]


def analyze(matrix: Mat) -> RhizomeReport:
    """Union-find over the nonzero entries, merging along rows and columns.

    Class labels number the classes by first appearance in row-major order.
    """
    positions = [(i, j) for i, row in enumerate(matrix.nonzero) for j in sorted(row)]
    index = {pos: t for t, pos in enumerate(positions)}
    uf = _UnionFind(len(positions))
    by_row: dict[int, int] = {}
    by_col: dict[int, int] = {}
    for t, (i, j) in enumerate(positions):
        if i in by_row:
            uf.union(by_row[i], t)
        else:
            by_row[i] = t
        if j in by_col:
            uf.union(by_col[j], t)
        else:
            by_col[j] = t
    labels: dict[tuple[int, int], int] = {}
    root_label: dict[int, int] = {}
    for pos in positions:
        root = uf.find(index[pos])
        if root not in root_label:
            root_label[root] = len(root_label)
        labels[pos] = root_label[root]
    n_classes = len(root_label)
    zero_rows = matrix.rows - len(by_row)
    zero_cols = matrix.cols - len(by_col)
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
    k, l = matrix.rows, matrix.cols
    row_nz, col_nz = matrix.nonzero, matrix.transpose().nonzero
    seen_rows = [False] * k
    seen_cols = [False] * l
    components = []

    def walk(kind0: str, v0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rows_here: list[int] = []
        cols_here: list[int] = []
        queue: deque[tuple[str, int]] = deque([(kind0, v0)])
        while queue:
            kind, x = queue.popleft()
            if kind == "r":
                rows_here.append(x)
                for j in row_nz[x]:
                    if not seen_cols[j]:
                        seen_cols[j] = True
                        queue.append(("c", j))
            else:
                cols_here.append(x)
                for i in col_nz[x]:
                    if not seen_rows[i]:
                        seen_rows[i] = True
                        queue.append(("r", i))
        return tuple(sorted(rows_here)), tuple(sorted(cols_here))

    for v in range(k):
        if not seen_rows[v]:
            seen_rows[v] = True
            components.append(walk("r", v))
    for v in range(l):
        if not seen_cols[v]:
            seen_cols[v] = True
            components.append(walk("c", v))
    return components


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
    """
    if not analyze(matrix).is_rhizomatic:
        raise PreconditionError("scaling normalization needs a rhizomatic matrix")
    k, l = matrix.rows, matrix.cols
    # transpose rows list their keys in ascending order
    row_nz, col_nz = matrix.nonzero, matrix.transpose().nonzero
    xi: list[GaussRat | None] = [None] * k
    phi: list[GaussRat | None] = [None] * l
    xi[0] = ONE
    tree: list[tuple[int, int]] = []
    queue: deque[tuple[str, int]] = deque([("r", 0)])
    while queue:
        kind, x = queue.popleft()
        if kind == "r":
            for j in sorted(row_nz[x]):
                if phi[j] is None:
                    phi[j] = (xi[x] * row_nz[x][j]).inverse()
                    tree.append((x, j))
                    queue.append(("c", j))
        else:
            for i, y in col_nz[x].items():
                if xi[i] is None:
                    xi[i] = (phi[x] * y).inverse()
                    tree.append((i, x))
                    queue.append(("r", i))
    rows = [{j: xi[i] * phi[j] * x for j, x in row.items()} for i, row in enumerate(row_nz)]
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
