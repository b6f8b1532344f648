"""Exact scalar and matrix arithmetic, checked against plain Gauss-Jordan."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periplectic import (
    CodecError,
    GaussRat,
    I,
    Mat,
    ONE,
    ShapeError,
    ZERO,
    as_gauss,
    commutant_basis,
    gauss_from_json,
    gauss_to_json,
    kernel_basis,
    mat_from_json,
    mat_to_json,
    rank,
)
from periplectic.linalg import _commutant_dim, kernel_and_pivots, row_basis
from periplectic.sampling import random_matrix

from oracles import (
    _pairs,
    in_span,
    oracle_commutant_basis,
    oracle_commutant_dim,
    oracle_nullspace,
    oracle_rank,
    pair_add,
    pair_apply,
    pair_inverse,
    pair_is_zero,
    pair_mul,
    pair_sub,
    to_pair,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussRat, fractions, fractions)
nonzero_scalars = scalars.filter(bool)


def test_property_tests_are_deterministic():
    # the profile tests/conftest.py loads, alone and under a test's own settings
    for current in (settings.default, settings(max_examples=300, deadline=None)):
        assert current.derandomize is True
        assert current.database is None


def q(re, im=0) -> GaussRat:
    return GaussRat(Fraction(re), Fraction(im))


class TestGaussRat:
    def test_basic_arithmetic(self):
        assert (ONE + I) * (ONE - I) == q(2)
        assert I * I == q(-1)
        assert I.inverse() == -I
        assert q("1/2", "1/3") + q("1/2", "-1/3") == ONE
        assert q(3, 4) - q(3, 4) == ZERO
        assert q(1, 1) / q(1, 1) == ONE

    def test_integer_operands_coerce(self):
        assert 1 + I == q(1, 1)
        assert 2 * q("1/2") == ONE
        assert q(3) - 1 == q(2)
        assert 1 - q(3) == q(-2)
        assert 6 / q(2) == q(3)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_str_forms(self):
        assert str(q(3)) == "3"
        assert str(q("1/2")) == "1/2"
        assert str(I) == "i"
        assert str(-I) == "-i"
        assert str(q(0, "2/3")) == "2/3i"
        assert str(q(1, -1)) == "1-i"
        assert str(q("-1/2", 5)) == "-1/2+5i"

    def test_order_is_lexicographic(self):
        assert q(1, 100) < q(2, 0)
        assert q(1, 1) < q(1, 2)
        assert sorted([I, ONE, ZERO, -I]) == [-I, ZERO, I, ONE]

    def test_conjugate_and_bool(self):
        assert not ZERO
        assert I
        assert q("1/7")

    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == ONE

    @given(scalars, scalars)
    def test_order_is_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1


def pair_str(x) -> str:
    re, im = x
    if not im:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


# small denominators repeat often enough to reach the equal-denominator paths
wide_fractions = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=6), st.fractions()
)
pairs = st.tuples(wide_fractions, wide_fractions)


class TestAgainstFractionPairs:
    """GaussRat checked against arithmetic on (re, im) pairs of Fractions."""

    @given(pairs, pairs)
    def test_field_operations(self, x, y):
        gx, gy = GaussRat(*x), GaussRat(*y)
        assert isinstance(gx.re, Fraction) and isinstance(gx.im, Fraction)
        assert to_pair(gx) == x
        assert to_pair(gx + gy) == pair_add(x, y)
        assert to_pair(gx - gy) == pair_sub(x, y)
        assert to_pair(gx * gy) == pair_mul(x, y)
        assert to_pair(-gx) == (-x[0], -x[1])
        if any(y):
            assert to_pair(gy.inverse()) == pair_inverse(y)
            assert to_pair(gx / gy) == pair_mul(x, pair_inverse(y))

    @given(pairs, st.sampled_from([1, -1]), st.sampled_from([GaussRat, int, Fraction]))
    def test_unit_factors_and_divisors(self, x, u, kind):
        """A factor of exactly +-1 on either side of `*`, or a divisor of
        exactly +-1, as a GaussRat, an int or a Fraction."""
        gx, unit, pu = GaussRat(*x), kind(u), (Fraction(u), Fraction(0))
        product, quotient = pair_mul(x, pu), pair_mul(x, pair_inverse(pu))
        for result, expected in [(gx * unit, product), (unit * gx, product), (gx / unit, quotient)]:
            assert to_pair(result) == expected
            assert type(result) is GaussRat
            assert hash(result) == hash(GaussRat(*expected))

    @given(pairs, pairs)
    def test_comparison_hash_and_text(self, x, y):
        gx, gy = GaussRat(*x), GaussRat(*y)
        assert (gx == gy) == (x == y)
        assert (gx < gy) == (x < y)
        assert (gx <= gy) == (x <= y)
        assert (gx > gy) == (x > y)
        assert str(gx) == pair_str(x)
        assert gauss_to_json(gx) == [f"{f.numerator}/{f.denominator}" for f in x]

    @given(pairs, st.integers(min_value=2, max_value=5))
    def test_equal_values_built_differently(self, x, m):
        a = GaussRat(*x)
        scaled = [f"{f.numerator * m}/{f.denominator * m}" for f in x]
        b = GaussRat(scaled[0], Fraction(-x[1].numerator * m, -x[1].denominator * m))
        c = gauss_from_json(scaled)
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert a != x and a != GaussRat(x[0] + 1, x[1])

    def test_equal_values_examples(self):
        assert GaussRat("2/4") == GaussRat(Fraction(1, 2))
        assert hash(GaussRat("2/4")) == hash(GaussRat(Fraction(1, 2)))
        assert GaussRat(3) != 3
        assert GaussRat(Fraction(1, 2)) != Fraction(1, 2)

    @given(wide_fractions, st.floats())
    def test_floats_rejected_in_either_part(self, exact, inexact):
        with pytest.raises(TypeError):
            GaussRat(inexact, exact)
        with pytest.raises(TypeError):
            GaussRat(exact, inexact)

    def test_immutable(self):
        x = q(1, 2)
        with pytest.raises(AttributeError):
            x.re = Fraction(3)
        with pytest.raises(AttributeError):
            x.extra = 3
        with pytest.raises(AttributeError):
            del x.im
        assert x == q(1, 2)


class TestAsGauss:
    def test_coercions(self):
        assert as_gauss(5) == q(5)
        assert as_gauss(Fraction(2, 6)) == q("1/3")
        assert as_gauss("-7/2") == q("-7/2")
        x = q(1, 2)
        assert as_gauss(x) is x

    def test_floats_rejected(self):
        # floats would silently lose exactness, so they are a hard error
        with pytest.raises(TypeError):
            as_gauss(0.5)


class TestGaussCodec:
    def test_exact_strings(self):
        assert gauss_to_json(q("1/2", -3)) == ["1/2", "-3/1"]
        assert gauss_to_json(ZERO) == ["0/1", "0/1"]
        assert gauss_from_json(["2/4", "0/1"]) == q("1/2")
        assert gauss_from_json(["5", "-3/7"]) == q(5, "-3/7")
        assert gauss_from_json(["-0", "006/004"]) == q(0, "3/2")

    @given(scalars)
    def test_round_trip(self, x):
        assert gauss_from_json(gauss_to_json(x)) == x

    @pytest.mark.parametrize(
        "bad",
        [
            "1/2", ["1/2"], ["1/2", "1/3", "0/1"], [1, 2], ["1/0", "0/1"], ["ham", "0/1"],
            # only -?[0-9]+(/[0-9]+)? in each part
            ["1.5", "0"], ["0", "2e3"], ["1e20000", "0"], ["+1", "0"], [" 1", "0"],
            ["0", "1/0"], ["1 ", "0"], ["1/-2", "0"], ["1_000", "0"], ["\u0661", "0"],
            ["1/2\n", "0"], ["", "0"], ["-", "0"], ["1/", "0"],
            # parts too long to echo: not of the form n or n/m, or past the digit limit
            ["1" * 100000 + "x", "0"], ["0", "1" * 5000],
        ],
    )
    def test_malformed_input(self, bad):
        with pytest.raises(CodecError) as info:
            gauss_from_json(bad)
        # the message names a part and its length, never its text
        assert len(str(info.value)) < 100


class TestMat:
    def test_constructor_validation(self):
        with pytest.raises(ShapeError):
            Mat([[1, 2], [3]])
        with pytest.raises(ShapeError):
            Mat([[1, 2]], cols=3)
        assert Mat([], cols=4).shape == (0, 4)

    def test_immutability(self):
        m = Mat([[1]])
        with pytest.raises(AttributeError):
            m.rows = 2

    def test_equality_and_hash(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([["1", "2"], ["3", "4"]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Mat([[1, 2]])

    def test_arithmetic(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert a + b == Mat([[1, 3], [4, 4]])
        assert a - a == Mat.zero(2, 2)
        assert a * b == Mat([[2, 1], [4, 3]])
        assert b * a == Mat([[3, 4], [1, 2]])
        assert a.scale(2) == Mat([[2, 4], [6, 8]])
        assert 2 * a == a * 2 == a.scale(2)
        assert -a == a.scale(-1)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            Mat([[1]]) + Mat([[1, 2]])
        with pytest.raises(ShapeError):
            Mat([[1, 2]]) * Mat([[1, 2]])

    def test_structure_helpers(self):
        m = Mat([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == Mat([[1, 4], [2, 5], [3, 6]])
        assert m.row(1) == (q(4), q(5), q(6))
        assert m.column(2) == (q(3), q(6))
        assert m.submatrix([0], [0, 2]) == Mat([[1, 3]])
        assert Mat.diagonal([1, 2]).is_diagonal()
        assert not Mat([[0, 1], [0, 0]]).is_diagonal()
        assert Mat.zero(2, 3).is_zero()


class TestMatCodec:
    def test_round_trip(self):
        m = Mat([[q(1, 2), q("1/2")], [ZERO, q(-3)]])
        assert mat_from_json(mat_to_json(m), rows=2, cols=2) == m

    def test_shape_mismatch(self):
        data = mat_to_json(Mat.identity(2))
        with pytest.raises(CodecError):
            mat_from_json(data, rows=3, cols=2)
        with pytest.raises(CodecError):
            mat_from_json(data, rows=2, cols=3)
        with pytest.raises(CodecError):
            mat_from_json("nope", rows=1, cols=1)


class TestElimination:
    def test_kernel_single_row(self):
        a, b = q(3), q(1, 1)
        (vec,), pivots = kernel_and_pivots(Mat([[a, b]]))
        assert pivots == [0]
        assert vec == (-b / a, ONE)

    def test_kernel_of_injective_map_is_empty(self):
        assert kernel_basis(Mat([[1, 0], [0, 1], [1, 1]])) == []

    def test_rank_examples(self):
        assert rank(Mat([[1, 2], [2, 4]])) == 1
        assert rank(Mat.identity(3)) == 3
        assert rank(Mat.zero(2, 2)) == 0

    def test_row_basis_leads(self):
        rows, leads = row_basis(Mat([[0, 1, 2], [0, 2, 4], [1, 0, 0]]))
        assert leads == [0, 1]
        assert len(rows) == 2

    def test_matches_division_based_elimination(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), density=0.5)
            assert rank(m) == oracle_rank(m)
            kernel = kernel_basis(m)
            assert len(kernel) == m.cols - rank(m)
            grid = _pairs(m.entries)
            for vec in kernel:
                assert pair_is_zero([pair_apply(grid, [to_pair(x) for x in vec])])
            reference = oracle_nullspace(m)
            assert all(in_span(kernel, v) for v in reference)
            assert all(in_span(reference, v) for v in kernel)

    def test_row_basis_spans_row_space(self):
        rng = random.Random(12)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), density=0.5)
            rows, _ = row_basis(m)
            assert all(in_span(rows, m.row(i)) for i in range(m.rows))
            assert oracle_rank(m) == len(rows)


class TestCommutant:
    def test_identity_generator_constrains_nothing(self):
        assert len(commutant_basis([Mat.identity(3)])) == 9

    def test_distinct_diagonal(self):
        basis = commutant_basis([Mat.diagonal([1, 2, 3])])
        assert len(basis) == 3
        assert all(b.is_diagonal() for b in basis)

    def test_repeated_diagonal_keeps_a_block(self):
        basis = commutant_basis([Mat.diagonal([5, 5, 7])])
        assert len(basis) == 5

    def test_members_commute(self):
        gens = [Mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), Mat.diagonal([1, 1, 2])]
        basis = commutant_basis(gens)
        for b in basis:
            for g in gens:
                assert b * g == g * b

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ShapeError):
            commutant_basis([])

    @pytest.mark.parametrize(
        "gens",
        [[Mat([[1, 2]])], [Mat.identity(2), Mat.identity(3)], [Mat.identity(2), Mat([[1, 2], [3, 4], [5, 6]])]],
        ids=["not_square", "sizes_differ", "second_not_square"],
    )
    def test_generators_must_be_square_of_equal_size(self, gens):
        with pytest.raises(ShapeError, match="^generators must be square matrices of equal size$"):
            commutant_basis(gens)

    def test_size_zero_has_empty_basis(self):
        assert commutant_basis([Mat.zero(0, 0)]) == []
        assert commutant_basis([Mat.zero(0, 0), Mat.identity(0)]) == []

    def test_against_full_system_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 4)
            gens = [random_matrix(rng, n, n, density=0.7) for _ in range(rng.randint(1, 2))]
            gens.append(Mat.diagonal([rng.randint(-3, 3) for _ in range(n)]))
            assert len(commutant_basis(gens)) == oracle_commutant_dim(gens)

    @staticmethod
    def _diagonals(rng: random.Random, n: int, kind: str) -> list[Mat]:
        """Diagonal generators whose classes of equal entries are all
        singletons ("distinct", also as two diagonals that each repeat an
        entry), not all singletons ("repeated"), or no diagonal at all."""
        if kind == "distinct":
            return [Mat.diagonal(rng.sample(range(-5, 6), n))]
        if kind == "distinct_pair":
            return [Mat.diagonal([i // 2 for i in range(n)]), Mat.diagonal([i % 2 for i in range(n)])]
        if kind == "repeated":
            values = [rng.randint(-2, 2) for _ in range(n)]
            values[rng.randrange(1, n)] = values[0]
            return [Mat.diagonal(values)]
        return []

    def test_basis_equals_full_system_oracle(self):
        # the read-off for singleton classes and the elimination both give
        # the null space of the full n^2 system, vector for vector
        rng = random.Random(16)
        kinds = ["distinct", "distinct_pair", "repeated", "none"]
        isolated = 0
        for trial in range(320):
            kind = kinds[trial % len(kinds)]
            n = rng.randint(2 if kind == "repeated" else 1, 5)
            count = rng.randint(1 if kind == "none" else 0, 2)
            others = [random_matrix(rng, n, n, density=rng.uniform(0.1, 0.6)) for _ in range(count)]
            if others and rng.random() < 0.5:
                # a coordinate that no generator couples to any other
                c = rng.randrange(n)
                others = [
                    Mat([[x if (i == j or c not in (i, j)) else ZERO for j, x in enumerate(row)]
                         for i, row in enumerate(g.entries)])
                    for g in others
                ]
                isolated += 1
            gens = others + self._diagonals(rng, n, kind)
            rng.shuffle(gens)
            basis = commutant_basis(gens)
            flat = [tuple(x for row in b.entries for x in row) for b in basis]
            assert flat == oracle_commutant_basis(gens), (kind, [g.entries for g in gens])
            # the dimension path solves the same system by one rank
            assert _commutant_dim(gens) == len(basis), (kind, [g.entries for g in gens])
        assert isolated >= 100
        for gens in ([Mat.zero(0, 0)], [Mat.zero(0, 0), Mat.identity(0)]):
            assert _commutant_dim(gens) == len(commutant_basis(gens)) == 0

    def test_basis_does_not_depend_on_generator_order(self):
        # diagonal generators first, last and interleaved with the others
        # give one basis, and so does a list with no diagonal generator
        rng = random.Random(17)
        kinds = ["distinct", "distinct_pair", "repeated"]
        for trial in range(60):
            n = rng.randint(2, 5)
            diagonals = self._diagonals(rng, n, kinds[trial % len(kinds)])
            diagonals.append(Mat.diagonal([rng.randint(-2, 2) for _ in range(n)]))
            others = []
            while len(others) < 2:
                g = random_matrix(rng, n, n, density=rng.uniform(0.2, 0.6))
                if not g.is_diagonal():
                    others.append(g)
            interleaved = [g for pair in zip(diagonals, others) for g in pair]
            interleaved += diagonals[len(others):]
            expected = oracle_commutant_basis(others + diagonals)
            for gens in (diagonals + others, others + diagonals, interleaved):
                flat = [tuple(x for row in b.entries for x in row) for b in commutant_basis(gens)]
                assert flat == expected, [g.entries for g in gens]
            flat = [tuple(x for row in b.entries for x in row) for b in commutant_basis(others)]
            assert flat == oracle_commutant_basis(others), [g.entries for g in others]
