"""Sparse Mat storage against a dense (Fraction, Fraction) reference, the
codec's zero cells, the shared core-shape check, and the size of the
entries that the commutant elimination meets."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import periplectic.linalg as linalg
from periplectic import (
    CodecError,
    GaussRat,
    Mat,
    ONE,
    PreconditionError,
    Rep,
    Seed,
    ShapeError,
    ZERO,
    build_rep,
    endo_report,
    extension_profile,
    gauss_from_json,
    gauss_to_json,
    mat_from_json,
    mat_to_json,
    split_core,
)

from oracles import (
    Pair,
    pair_diagonal,
    pair_is_diagonal,
    pair_is_zero,
    pair_neg,
    pair_product,
    pair_scale,
    pair_submatrix,
    pair_sum,
    pair_transpose,
    pair_zero_grid,
    pairs_to_gauss,
)

F = Fraction
_ZERO_PAIR: Pair = (F(0), F(0))
# few values, so that sums and products of them cancel often
_VALUES: list[Pair] = [
    (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)), (F(1, 2), F(0)),
    (F(-1, 2), F(0)), (F(2), F(0)), (F(1), F(1)), (F(-1), F(-1)),
]
# denominators where one divides another (3, 6, 9) and coprime ones (2, 3),
# so that sums meet every branch of the word kernel's denominator update
_WIDE_VALUES: list[Pair] = _VALUES + [
    (F(1, 3), F(0)), (F(-1, 3), F(0)), (F(1, 6), F(-1, 6)), (F(0), F(2, 9)),
    (F(-5, 9), F(1, 3)), (F(1, 6), F(0)),
]


@st.composite
def grids(
    draw, rows: int | None = None, cols: int | None = None,
    values: list[Pair] = _VALUES, dense: bool = False,
):
    """A rows x cols grid of pairs with at least 70% zeros, or with no zero
    cell when `dense`."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    if dense:
        cells = {
            (i, j): draw(st.sampled_from(values)) for i in range(rows) for j in range(cols)
        }
    else:
        positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        cells = draw(
            st.dictionaries(positions, st.sampled_from(values), max_size=3 * rows * cols // 10)
        )
    return [[cells.get((i, j), _ZERO_PAIR) for j in range(cols)] for i in range(rows)]


# (values, dense) of the grids that sums and products take: the sparse
# draw, wider denominators, and full grids of either
_KERNEL_INPUTS = st.tuples(st.sampled_from([_VALUES, _WIDE_VALUES]), st.booleans())


def mat(grid: list[list[Pair]], cols: int) -> Mat:
    return Mat(pairs_to_gauss(grid), cols=cols)


def check_matches(m: Mat, grid: list[list[Pair]], cols: int) -> None:
    """m holds exactly the grid, stores no zero, and equals and hashes like
    the matrix rebuilt from its dense entries."""
    assert m.shape == (len(grid), cols)
    assert m.entries == tuple(tuple(row) for row in pairs_to_gauss(grid))
    assert len(m.nonzero) == m.rows
    assert all(x and 0 <= j < cols for row in m.nonzero for j, x in row.items())
    rebuilt = Mat(m.entries, cols=cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


class TestAgainstDenseReference:
    @settings(max_examples=120, deadline=None)
    @given(grids())
    def test_reads(self, grid):
        rows, cols = len(grid), len(grid[0])
        m = mat(grid, cols)
        check_matches(m, grid, cols)
        dense = pairs_to_gauss(grid)
        for i in range(rows):
            assert m.row(i) == tuple(dense[i]) == m.row(i - rows)
            for j in range(cols):
                assert m[i, j] == dense[i][j] == m[i - rows, j - cols]
        for j in range(cols):
            assert m.column(j) == tuple(row[j] for row in dense) == m.column(j - cols)
        for key in ((rows, 0), (-rows - 1, 0), (0, cols), (0, -cols - 1)):
            with pytest.raises(IndexError):
                m[key]
        with pytest.raises(IndexError):
            m.row(rows)
        with pytest.raises(IndexError):
            m.column(cols)
        assert m.is_zero() == pair_is_zero(grid)
        assert m.is_diagonal() == pair_is_diagonal(grid, cols)
        body = "; ".join(" ".join(str(x) for x in row) for row in dense)
        assert repr(m) == f"Mat({rows}x{cols}: {body})"

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_sums_and_scaling(self, data):
        values, dense = data.draw(_KERNEL_INPUTS)
        a = data.draw(grids(values=values, dense=dense))
        rows, cols = len(a), len(a[0])
        b = data.draw(grids(rows, cols, values, data.draw(st.booleans())))
        c = data.draw(st.sampled_from(values + [_ZERO_PAIR]))
        ma, mb, gc = mat(a, cols), mat(b, cols), GaussRat(*c)
        check_matches(ma + mb, pair_sum(a, b), cols)
        check_matches(ma - mb, pair_sum(a, pair_neg(b)), cols)
        check_matches(-ma, pair_neg(a), cols)
        for scaled in (ma.scale(gc), gc * ma, ma * gc):
            check_matches(scaled, pair_scale(c, a), cols)
        check_matches(2 * ma, pair_scale((F(2), F(0)), a), cols)
        assert (ma - ma).is_zero() and ma - ma == Mat.zero(rows, cols)
        assert (ma + mb) - mb == ma and hash((ma + mb) - mb) == hash(ma)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_products(self, data):
        values, dense = data.draw(_KERNEL_INPUTS)
        a = data.draw(grids(values=values, dense=dense))
        inner, cols = len(a[0]), data.draw(st.integers(1, 6))
        b = data.draw(grids(inner, cols, values, data.draw(st.booleans())))
        ma, mb = mat(a, inner), mat(b, cols)
        check_matches(ma * mb, pair_product(a, b, cols), cols)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_structure(self, data):
        a = data.draw(grids())
        rows, cols = len(a), len(a[0])
        m = mat(a, cols)
        check_matches(m.transpose(), pair_transpose(a, cols), rows)
        # negative and repeated indices pick as on tuples
        row_idx = data.draw(st.lists(st.integers(-rows, rows - 1), max_size=5))
        col_idx = data.draw(st.lists(st.integers(-cols, cols - 1), max_size=5))
        picked = m.submatrix(row_idx, col_idx)
        check_matches(picked, pair_submatrix(a, row_idx, col_idx), len(col_idx))
        with pytest.raises(IndexError):
            m.submatrix([0], [cols])
        values = data.draw(st.lists(st.sampled_from(_VALUES + [_ZERO_PAIR] * 2), min_size=1, max_size=6))
        check_matches(Mat.diagonal([GaussRat(*x) for x in values]), pair_diagonal(values), len(values))
        check_matches(Mat.identity(rows), pair_diagonal([(F(1), F(0))] * rows), rows)
        check_matches(Mat.zero(rows, cols), pair_zero_grid(rows, cols), cols)

    def test_cancelling_entries_are_dropped(self):
        assert (Mat([[1, 1]]) * Mat([[1], [-1]])).nonzero == ({},)
        assert (Mat([[1, 2]]) + Mat([[-1, 2]])).nonzero == ({1: GaussRat(4)},)
        assert Mat([[0, 0]]).scale(3) == Mat.zero(1, 2)

    @pytest.mark.parametrize("k, m", [(0, 0), (0, 3), (2, 0), (2, 3)])
    def test_zero_inner_dimension(self, k, m):
        # a (k x 0)(0 x m) product is the k x m zero matrix
        left, right = Mat([[]] * k, cols=0), Mat([], cols=m)
        product = left * right
        assert product.shape == (k, m) and product.nonzero == ({},) * k
        assert product == Mat.zero(k, m)

    def test_matrices_without_rows(self):
        empty, other = Mat([], cols=3), Mat.zero(0, 3)
        for result in (empty + other, empty - other, -empty):
            assert result.shape == (0, 3) and result.nonzero == ()
        product = empty * Mat([[1, 2], [0, 1], [3, 0]])
        assert product.shape == (0, 2) and product.nonzero == ()

    def test_shape_error_messages(self):
        for combine in (operator.add, operator.sub):
            with pytest.raises(ShapeError) as mismatch:
                combine(Mat([[1]]), Mat([[1, 2]]))
            assert str(mismatch.value) == "cannot add (1, 1) and (1, 2)"
        with pytest.raises(ShapeError) as product:
            Mat([[1, 2]]) * Mat([[1, 2]])
        assert str(product.value) == "cannot multiply (1, 2) by (1, 2)"


class TestWordKernel:
    @pytest.mark.parametrize("order", [[8, 4, 2], [2, 4, 8], [4, 8, 2]])
    def test_dividing_denominators_are_scaled_up(self, order):
        # 1/2 + 1/4 + 1/8 in any order stays over 8: the smaller of two
        # denominators is scaled up when it divides the larger
        words = [(1, Mat([[F(1, d)]]), Mat.identity(1)) for d in order]
        assert list(linalg._word_rows(words, [0])) == [{0: (7, 0, 8)}]

    def test_coprime_denominators_are_cross_multiplied(self):
        words = [(1, Mat([[F(1, 2)]]), Mat([[F(1, 3)]])), (-1, Mat([[F(1, 5)]]), Mat.identity(1))]
        assert list(linalg._word_rows(words, [0])) == [{0: (-1, 0, 30)}]

    def test_a_cancelling_sum_keeps_zero_pairs(self):
        a, one = Mat([[F(1, 3), F(-5, 9)], [0, F(1, 6)]]), Mat.identity(2)
        words = [(1, one, one), (1, a, a), (-1, a, one), (-1, a, a), (-1, one, one), (1, a, one)]
        rows = linalg._word_rows(words, [1, 0])
        pairs = [{j: (x, y) for j, (x, y, _) in acc.items()} for acc in rows]
        assert pairs == [{1: (0, 0)}, {0: (0, 0), 1: (0, 0)}]
        assert Mat._from_words(words, 2, 2).nonzero == ({}, {})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sums_of_words_match_the_reference(self, data):
        # products (c, L, R) of 0-2 factors padded with the identity, with
        # c = 1 or -1, over denominators that meet every branch of the
        # update; with its own negation appended the sum cancels everywhere
        n = data.draw(st.integers(1, 5))
        one, identity = pair_diagonal([(F(1), F(0))] * n), Mat.identity(n)
        words, expected = [], pair_zero_grid(n, n)
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.sampled_from([1, -1]))
            square = grids(n, n, _WIDE_VALUES, data.draw(st.booleans()))
            factors = data.draw(st.lists(square, max_size=2))
            term = one
            for g in factors:
                term = pair_product(term, g, n)
            expected = pair_sum(expected, term if c == 1 else pair_neg(term))
            words.append((c, *(mat(g, n) for g in factors), identity, identity)[:3])
        cancel = data.draw(st.booleans())
        if cancel:
            words += [(-c, *mats) for c, *mats in words]
            expected = pair_zero_grid(n, n)
        subset = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
        for rows in (range(n), subset):
            accs = list(linalg._word_rows(words, rows))
            assert len(accs) == len(rows)
            for i, acc in zip(rows, accs):
                assert all(d > 0 for _, _, d in acc.values())
                assert not cancel or all(not a and not b for a, b, _ in acc.values())
                row = [_ZERO_PAIR] * n
                for j, (a, b, d) in acc.items():
                    row[j] = (F(a, d), F(b, d))
                assert row == expected[i]
        check_matches(Mat._from_words(words, n, n), expected, n)


class TestZeroCells:
    def test_every_zero_spelling_is_stored_as_nothing(self):
        cells = [["0/1", "0/1"], ["0", "0"], ["-0/3", "0/7"]]
        m = mat_from_json([cells], rows=1, cols=3)
        assert m.nonzero == ({},) and m == Mat.zero(1, 3)

    @pytest.mark.parametrize(
        "cell",
        [["0/1"], ["0/1", "0/1", "0/1"], ["0/1", "0/0"], ["0/1 ", "0/1"], [0, 0], "0/1", None],
    )
    def test_malformed_cells_keep_their_messages(self, cell):
        with pytest.raises(CodecError) as direct:
            gauss_from_json(cell)
        with pytest.raises(CodecError) as in_matrix:
            mat_from_json([[["1", "0"], cell]], rows=1, cols=2)
        # the matrix decoder only says where the cell sits
        assert str(in_matrix.value) == f"row 0, column 1: {direct.value}"

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_writer_matches_dense_writer(self, grid):
        m = mat(grid, len(grid[0]))
        written = mat_to_json(m)
        assert written == [[gauss_to_json(x) for x in row] for row in m.entries]
        assert mat_from_json(written, rows=m.rows, cols=m.cols) == m

    def test_written_zero_cells_are_fresh_lists(self):
        written = mat_to_json(Mat.zero(2, 2))
        written[0][0].append("x")
        assert written[0][1] == written[1][0] == ["0/1", "0/1"]


class TestCoreShapeMessages:
    @staticmethod
    def rep(k: int, l: int, y2: list[int]) -> Rep:
        n = len(y2)
        return Rep(k, l, Mat.zero(n, n), Mat.diagonal(y2), Mat.identity(n), Mat.zero(n, n))

    def test_weights_out_of_shape(self):
        bad = self.rep(1, 1, [1, -1])  # y1 - y2 = (-1, +1)
        shape = "y1 - y2 must be +1s followed by -1s"
        with pytest.raises(PreconditionError) as profile:
            extension_profile(bad)
        assert str(profile.value) == f"rep not in canonical block shape: {shape}"
        with pytest.raises(PreconditionError) as core:
            split_core(bad)
        assert str(core.value) == f"not in core shape: {shape}"

    def test_declared_split_disagrees(self):
        bad = self.rep(2, 0, [-1, 1])  # weights (1, 1), declared (2, 0)
        for check in (extension_profile, split_core):
            with pytest.raises(PreconditionError) as refusal:
                check(bad)
            assert str(refusal.value) == "declared split (2,0) does not match weights (1,1)"


def _value(rng: random.Random) -> GaussRat:
    while True:
        x = GaussRat(
            F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
        )
        if x:
            return x


def _staircase_seed(k: int, rng: random.Random, eigenvalues: list[GaussRat]) -> Seed:
    """k x k coupling on the tree (i, k-1-i), (i+1, k-1-i) plus 35% of the
    other positions, so it is rhizomatic."""
    tree = {(i, k - 1 - i) for i in range(k)} | {(i + 1, k - 1 - i) for i in range(k - 1)}
    others = [(i, j) for i in range(k) for j in range(k) if (i, j) not in tree]
    pattern = tree | set(rng.sample(others, round(0.35 * len(others))))
    grid = [[_value(rng) if (i, j) in pattern else ZERO for j in range(k)] for i in range(k)]
    return Seed(k, k, Mat(grid), eigenvalues)


def _repeating(rng: random.Random, count: int) -> list[GaussRat]:
    """count values drawn from count // 2 distinct ones, each used."""
    values: list[GaussRat] = []
    while len(values) < count // 2:
        x = _value(rng)
        if x not in values:
            values.append(x)
    out = values + [rng.choice(values) for _ in range(count - len(values))]
    rng.shuffle(out)
    return out


def _bits(x: GaussRat) -> int:
    return max(
        p.bit_length() for p in (x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)
    )


@pytest.fixture
def echelon_bits(monkeypatch):
    """[the largest bit length in the rows linalg._echelon returns, the
    number of calls of linalg._echelon]."""
    seen = [0, 0]
    original = linalg._echelon

    def recording(rows):
        ech, pivots = original(rows)
        seen[0] = max([seen[0]] + [_bits(x) for row in ech for x in row.values()])
        seen[1] += 1
        return ech, pivots

    monkeypatch.setattr(linalg, "_echelon", recording)
    return seen


def _regular(k: int) -> list[GaussRat]:
    return [GaussRat(t) for t in range(k)] + [GaussRat(t, F(1, 2)) for t in range(k)]


class TestCommutantGrowth:
    def test_regular_shifts_stay_small(self, echelon_bits):
        # with the equations as read off s, the elimination that did not
        # divide pivot rows by their pivots reached 15,346 bits; regular
        # shifts leave every diagonal class a singleton, so the commutant is
        # read off the coupling graph and no elimination runs at all
        k = 48
        report = endo_report(build_rep(_staircase_seed(k, random.Random(1), _regular(k))))
        assert report.dimension == 1 and report.all_diagonal
        assert report.basis[0].is_diagonal()
        assert echelon_bits[0] <= 8
        assert echelon_bits[1] == 0

    # largest bit length of a pivot row on the repeated-shift systems
    # below; seeds 1-8 at both sizes read at most 51.  While pivot rows were
    # not divided by their pivots, seed 1 at k = 16 reached 25,757 bits and
    # took 18 s.
    MAX_BITS = 64

    def _check_repeated(self, k: int, seed: int, echelon_bits) -> None:
        rng = random.Random(seed)
        shifts = _repeating(rng, k) + _repeating(rng, k)
        report = endo_report(build_rep(_staircase_seed(k, rng, shifts)))
        assert report.basis == (Mat.identity(2 * k),)
        assert echelon_bits[0] <= self.MAX_BITS

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_repeated_shifts_no_larger(self, echelon_bits, seed):
        self._check_repeated(16, seed, echelon_bits)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_repeated_shifts_no_larger_at_32(self, echelon_bits, seed):
        self._check_repeated(32, seed, echelon_bits)


class TestCommutantEnvelope:
    """Regular shifts at sizes the elimination took seconds on."""

    def test_rhizomatic_k256_is_one_component(self):
        # staircase seed 2, n = 512
        rep = build_rep(_staircase_seed(256, random.Random(2), _regular(256)))
        assert endo_report(rep).basis == (Mat.identity(512),)

    def test_identity_coupling_has_one_component_per_pair(self):
        # s couples i with 64 + i only: 64 components, element i is the
        # indicator of {i, 64 + i}, in the order of i
        basis = endo_report(build_rep(Seed(64, 64, Mat.identity(64), range(128)))).basis
        assert basis == tuple(
            Mat.diagonal([ONE if j in (i, 64 + i) else ZERO for j in range(128)])
            for i in range(64)
        )
