"""Zero-pattern connectivity: entry classes, bipartite components, scaling."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from periplectic import (
    CodecError,
    GaussRat,
    Mat,
    PreconditionError,
    ZERO,
    analyze,
    bipartite_components,
    format_pattern,
    parse_pattern,
    scaling_normalize,
)
from periplectic.linalg import _walk
from periplectic.sampling import random_rhizomatic_matrix

from oracles import oracle_scaling_normalize, oracle_walk, oracle_zero_pattern, pairs_to_gauss

# Three 7x10 reference patterns exercising every failure mode: two entry
# classes, a single class with uncovered rows and columns, and a rhizomatic
# pattern.
PATTERN_TWO_CLASSES = """
...**.**..
*........*
.*.***....
........*.
..*......*
.*..***...
..*.....*.
"""

PATTERN_UNCOVERED = """
.....*...*
...***....
..........
...*...**.
*..*......
..........
.........*
"""

PATTERN_RHIZOMATIC = """
*.*...*.*.
*........*
.*...*.*..
...**...*.
..*.**...*
.*........
*.*...*.*.
"""


def _random_pattern(rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat(
        [
            [GaussRat(1) if rng.random() < 0.3 else GaussRat(0) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols=cols,
    )


class TestAnalyze:
    def test_two_classes_is_not_rhizomatic(self):
        report = analyze(parse_pattern(PATTERN_TWO_CLASSES))
        assert report.n_classes == 2
        assert report.zero_rows == 0
        assert report.zero_cols == 0
        assert not report.is_rhizomatic

    def test_uncovered_rows_and_columns(self):
        report = analyze(parse_pattern(PATTERN_UNCOVERED))
        assert report.n_classes == 1
        assert report.zero_rows == 2
        assert report.zero_cols == 3
        assert not report.is_rhizomatic

    def test_rhizomatic_pattern(self):
        report = analyze(parse_pattern(PATTERN_RHIZOMATIC))
        assert report.n_classes == 1
        assert report.zero_rows == 0
        assert report.zero_cols == 0
        assert report.is_rhizomatic

    def test_identity_splits_into_singletons(self):
        report = analyze(Mat.identity(4))
        assert report.n_classes == 4
        assert not report.is_rhizomatic
        assert report.class_labels == {(i, i): i for i in range(4)}

    def test_single_entry(self):
        assert analyze(Mat([[5]])).is_rhizomatic
        report = analyze(Mat([[0]]))
        assert report.n_classes == 0
        assert (report.zero_rows, report.zero_cols) == (1, 1)

    def test_all_nonzero_is_rhizomatic(self):
        rng = random.Random(41)
        m = random_rhizomatic_matrix(rng, 3, 5, density=1.0)
        assert analyze(m).is_rhizomatic

    def test_fallback_has_no_zero_entry(self):
        # density 0 draws only zero matrices, which are never rhizomatic, so
        # every attempt fails and the fallback fills every cell
        assert not analyze(Mat.zero(3, 4)).is_rhizomatic
        rng = random.Random(43)
        m = random_rhizomatic_matrix(rng, 3, 4, density=0.0)
        assert m.shape == (3, 4)
        assert all(x != ZERO for row in m.entries for x in row)
        assert analyze(m).is_rhizomatic

    def test_labels_number_by_first_appearance(self):
        labels = analyze(parse_pattern(PATTERN_TWO_CLASSES)).class_labels
        assert labels[(0, 3)] == 0
        assert labels[(1, 0)] == 1
        assert labels[(2, 1)] == 0
        assert labels[(4, 2)] == 1
        assert labels[(6, 8)] == 1


class TestBipartiteComponents:
    def test_rhizomatic_pattern_is_connected(self):
        components = bipartite_components(parse_pattern(PATTERN_RHIZOMATIC))
        assert components == [(tuple(range(7)), tuple(range(10)))]

    def test_isolated_vertices_are_own_components(self):
        components = bipartite_components(parse_pattern(PATTERN_UNCOVERED))
        assert len(components) == 1 + 2 + 3
        assert ((2,), ()) in components
        assert ((), (1,)) in components

    def test_component_count_identity(self):
        """components = entry classes + zero rows + zero columns, always."""
        rng = random.Random(42)
        for _ in range(500):
            m = _random_pattern(rng, rng.randint(1, 7), rng.randint(1, 10))
            report = analyze(m)
            components = bipartite_components(m)
            assert len(components) == (
                report.n_classes + report.zero_rows + report.zero_cols
            )
            rows = sorted(i for rs, _ in components for i in rs)
            cols = sorted(j for _, cs in components for j in cs)
            assert rows == list(range(m.rows))
            assert cols == list(range(m.cols))

    def test_classes_respect_components(self):
        rng = random.Random(43)
        for _ in range(50):
            m = _random_pattern(rng, rng.randint(2, 6), rng.randint(2, 6))
            labels = analyze(m).class_labels
            lookup = {}
            for idx, (rs, cs) in enumerate(bipartite_components(m)):
                for i in rs:
                    lookup[("r", i)] = idx
                for j in cs:
                    lookup[("c", j)] = idx
            for (i, j), label in labels.items():
                assert lookup[("r", i)] == lookup[("c", j)]
                same = [p for p, lab in labels.items() if lab == label]
                assert len({lookup[("r", i)] for i, _ in same}) == 1


def _forest_cells(
    draw, rows: int, cols: int, max_cuts: int = 2
) -> set[tuple[int, int]]:
    """Cells of a spanning forest: the vertices in a drawn order, cut into
    1 to max_cuts + 1 runs; in each run holding both kinds, every vertex is
    attached to a drawn earlier vertex of the other kind (the first row and
    the first column to each other).  A run of one kind stays isolated."""
    order = draw(st.permutations([(0, i) for i in range(rows)] + [(1, j) for j in range(cols)]))
    cuts = sorted(draw(st.lists(st.integers(1, len(order) - 1), max_size=max_cuts)))
    cells: set[tuple[int, int]] = set()
    for run in (order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])):
        first = {kind: x for kind, x in reversed(run)}
        if len(first) < 2:
            continue
        placed = {0: [first[0]], 1: [first[1]]}
        cells.add((first[0], first[1]))
        for kind, x in run:
            if x == first[kind]:
                continue
            y = draw(st.sampled_from(placed[1 - kind]))
            cells.add((x, y) if kind == 0 else (y, x))
            placed[kind].append(x)
    return cells


GAUSSIAN_INTEGERS = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# denominators 1-9 in both parts, so products share nontrivial gcds
GAUSSIAN_RATIONALS = st.builds(GaussRat, _FRACTIONS, _FRACTIONS).filter(bool)


@st.composite
def sparse_patterns(draw, value=GAUSSIAN_INTEGERS, connected: bool = False) -> Mat:
    """0-8 rows and columns of nonzero values on a sparse set of cells; half
    the draws with rows and columns add a spanning forest, so rhizomatic
    patterns and several classes are both common.  A connected pattern has
    1-8 rows and columns and always holds a spanning tree, so it is
    rhizomatic."""
    low = 1 if connected else 0
    rows, cols = draw(st.integers(low, 8)), draw(st.integers(low, 8))
    cells: set[tuple[int, int]] = set()
    if rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        cells = draw(st.sets(cell, max_size=rows * cols // 4 + 1))
        if connected:
            cells |= _forest_cells(draw, rows, cols, max_cuts=0)
        elif draw(st.booleans()):
            cells |= _forest_cells(draw, rows, cols)
    grid = [[ZERO] * cols for _ in range(rows)]
    for i, j in sorted(cells):
        grid[i][j] = draw(value)
    return Mat(grid, cols=cols)


class TestAgainstFloodFill:
    """The functions derived from the library's walk against a dense flood
    fill that shares no code with it."""

    @given(sparse_patterns())
    @settings(max_examples=300, deadline=None)
    def test_analyze(self, m):
        classes, zero_rows, zero_cols, _ = oracle_zero_pattern(m)
        report = analyze(m)
        assert report.n_classes == len(classes)
        assert report.zero_rows == len(zero_rows)
        assert report.zero_cols == len(zero_cols)
        assert report.is_rhizomatic == (len(classes) == 1 and not zero_rows and not zero_cols)
        expected = {cell: t for t, members in enumerate(classes) for cell in members}
        assert report.class_labels == expected

    @given(sparse_patterns())
    @settings(max_examples=300, deadline=None)
    def test_bipartite_components(self, m):
        assert bipartite_components(m) == oracle_zero_pattern(m)[3]

    @given(sparse_patterns())
    @settings(max_examples=300, deadline=None)
    def test_scaling_normalize(self, m):
        classes, zero_rows, zero_cols, _ = oracle_zero_pattern(m)
        if len(classes) != 1 or zero_rows or zero_cols:
            with pytest.raises(PreconditionError):
                scaling_normalize(m)
            return
        result = scaling_normalize(m)
        tree = result.tree_edges
        assert len(tree) == m.rows + m.cols - 1
        for i, j in tree:
            assert m[i, j]
            assert result.normalized[i, j] == GaussRat(1)
        assert result.row_scalars[0] == GaussRat(1)
        # the edges span: their own pattern is a single class covering everything
        tree_pattern = Mat(
            [[int((i, j) in tree) for j in range(m.cols)] for i in range(m.rows)], cols=m.cols
        )
        tree_classes, tree_zero_rows, tree_zero_cols, _ = oracle_zero_pattern(tree_pattern)
        assert len(tree_classes) == 1 and not tree_zero_rows and not tree_zero_cols


@st.composite
def zero_one_grids(draw):
    """A k x l grid of 0 and 1, k, l in 0..8, mostly zeros, so zero rows,
    zero columns and several components all occur."""
    k, l = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cell = st.sampled_from([0, 0, 0, 1])
    return draw(st.lists(st.lists(cell, min_size=l, max_size=l), min_size=k, max_size=k)), l


class TestWalk:
    # k = 0, l = 0, and a pattern with a zero row and a zero column
    @example(([], 2))
    @example(([[], []], 0))
    @example(([[0, 1, 0], [0, 0, 0], [1, 1, 0]], 3))
    @given(zero_one_grids())
    @settings(max_examples=400, deadline=None)
    def test_matches_queue_oracle(self, grid_and_cols):
        grid, cols = grid_and_cols
        assert _walk(Mat(grid, cols=cols)) == oracle_walk(grid, cols)


class TestScalingNormalize:
    @given(sparse_patterns(GAUSSIAN_RATIONALS, connected=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_oracle(self, m):
        result = scaling_normalize(m)
        scaled, rows, cols = oracle_scaling_normalize(m, result.tree_edges)
        # GaussRat equality compares the stored ints, so an entry left
        # unreduced fails here even where its value is right
        assert result.normalized == Mat(pairs_to_gauss(scaled), cols=m.cols)
        assert result.row_scalars == tuple(GaussRat(*x) for x in rows)
        assert result.col_scalars == tuple(GaussRat(*x) for x in cols)

    def test_two_by_two_cross_ratio(self):
        m = Mat([[2, 3], [5, GaussRat(7, 1)]])
        result = scaling_normalize(m)
        ratio = m[0, 0] * m[1, 1] / (m[0, 1] * m[1, 0])
        assert result.normalized == Mat([[1, 1], [1, ratio]])
        assert result.tree_edges == ((0, 0), (0, 1), (1, 0))
        assert result.row_scalars[0] == GaussRat(1)

    def test_tree_alternates_rows_and_columns(self):
        # the walk meets row 0, columns 0 and 3, row 1, columns 1 and 2,
        # then row 2 through column 1; (2, 2) is the one off-tree entry
        m = Mat([[1, 0, 0, 1], [0, 1, 3, 1], [0, 1, 2, 0]])
        result = scaling_normalize(m)
        assert result.tree_edges == ((0, 0), (0, 3), (1, 3), (1, 1), (1, 2), (2, 1))
        # the cycle rows 1, 2 and columns 1, 2 keeps m11 m22 / (m12 m21)
        assert result.normalized == Mat(
            [[1, 0, 0, 1], [0, 1, 1, 1], [0, 1, Fraction(2, 3), 0]]
        )

    def test_tree_entries_become_one(self):
        rng = random.Random(44)
        for _ in range(30):
            m = random_rhizomatic_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            result = scaling_normalize(m)
            assert len(result.tree_edges) == m.rows + m.cols - 1
            for i, j in result.tree_edges:
                assert result.normalized[i, j] == GaussRat(1)

    def test_idempotent(self):
        rng = random.Random(45)
        m = random_rhizomatic_matrix(rng, 4, 3)
        once = scaling_normalize(m).normalized
        assert scaling_normalize(once).normalized == once

    def test_invariant_under_row_and_column_scalings(self):
        rng = random.Random(46)
        for _ in range(200):
            m = random_rhizomatic_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            d1 = Mat.diagonal(
                [GaussRat(rng.randint(1, 9), rng.randint(-3, 3)) for _ in range(m.rows)]
            )
            d2 = Mat.diagonal(
                [GaussRat(rng.randint(1, 9), rng.randint(-3, 3)) for _ in range(m.cols)]
            )
            scaled = d1 * m * d2
            assert scaling_normalize(scaled).normalized == scaling_normalize(m).normalized

    def test_scalars_reconstruct_the_input(self):
        rng = random.Random(47)
        m = random_rhizomatic_matrix(rng, 3, 4)
        result = scaling_normalize(m)
        for i in range(3):
            for j in range(4):
                assert result.row_scalars[i] * result.col_scalars[j] * m[i, j] == (
                    result.normalized[i, j]
                )

    def test_rejects_non_rhizomatic_input(self):
        with pytest.raises(PreconditionError):
            scaling_normalize(Mat.identity(2))
        with pytest.raises(PreconditionError):
            scaling_normalize(Mat([[1, 0]]))


class TestPatternCodec:
    def test_parse_accepts_typographic_aliases(self):
        assert parse_pattern("·•\n•·") == Mat([[0, 1], [1, 0]])

    def test_parse_skips_blanks(self):
        assert parse_pattern(" * . \n . * ") == Mat.identity(2)

    def test_parse_reports_line_of_bad_character(self):
        with pytest.raises(CodecError, match="line 2"):
            parse_pattern("**\n*x")

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(CodecError, match="row 2"):
            parse_pattern("**\n*")

    def test_parse_rejects_empty_text(self):
        with pytest.raises(CodecError):
            parse_pattern("   \n  ")

    def test_format_round_trip(self):
        text = PATTERN_RHIZOMATIC.strip()
        assert format_pattern(parse_pattern(text)) == text

    def test_format_masks_values(self):
        assert format_pattern(Mat([[3, 0], [0, GaussRat(0, -2)]])) == "*.\n.*"
