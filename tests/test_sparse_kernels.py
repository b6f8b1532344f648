"""The structure-aware kernels: sparse elimination against the Gauss-Jordan
oracle, the split re-check on coordinate and general witnesses, the
single analysis per coupling in isomorphism tests, and the writer's digit
limit."""

from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import periplectic.linalg as linalg
import periplectic.rhizome as rhizome
from periplectic import (
    GaussRat,
    INDECOMPOSABLE,
    Mat,
    ONE,
    PreconditionError,
    Seed,
    ZERO,
    build_rep,
    canonical_form,
    endo_report,
    gauss_from_json,
    gauss_to_json,
    group_act,
    indecomposable,
    isomorphic,
    kernel_basis,
    rank,
    rep_to_json,
    scaling_normalize,
)
from periplectic.classify import _check_split
from periplectic.linalg import row_basis
from periplectic.sampling import random_monomial_pair, random_seed

from cli_runner import run_cli
from oracles import (
    _pairs,
    in_span,
    make_split_core,
    oracle_nullspace,
    oracle_rank,
    oracle_split_ok,
    pair_apply,
    pair_is_zero,
    rref,
    to_pair,
)

NOT_COMPLEMENTARY = "split witness vectors are not complementary"
NOT_PRESERVED = "claimed invariant subspace is not preserved by the generators"


def q(re, im=0) -> GaussRat:
    return GaussRat(re, im)


def unit(n: int, i: int, scale: GaussRat = ONE) -> tuple[GaussRat, ...]:
    return tuple(scale if t == i else ZERO for t in range(n))


def combo(n: int, terms: dict[int, GaussRat]) -> tuple[GaussRat, ...]:
    return tuple(terms.get(t, ZERO) for t in range(n))


def as_parts(rep, witness) -> tuple[Mat, Mat]:
    """A witness of dense vectors as the two matrices _check_split takes,
    whose rows are the vectors of each part."""
    return tuple(Mat(list(part), cols=rep.dim) for part in witness)


# k = l = 2 with a connected coupling: indecomposable, so no coordinate
# splitting is invariant
CONNECTED = build_rep(Seed(2, 2, Mat([[1, 2], [0, 3]]), (q(1), q(2), q(3), q(5))))
# two coupling blocks, rows {0} x cols {0} and rows {1} x cols {1}
TWO_BLOCKS = build_rep(Seed(2, 2, Mat([[1, 0], [0, 3]]), (q(1), q(2), q(3), q(5))))


class TestCheckSplit:
    def test_coordinate_witness_not_invariant(self):
        n = CONNECTED.dim
        witness = ((unit(n, 0), unit(n, 2)), (unit(n, 1), unit(n, 3)))
        with pytest.raises(PreconditionError, match=NOT_PRESERVED):
            _check_split(CONNECTED, *as_parts(CONNECTED, witness))

    def test_scaled_coordinate_witness_invariant(self):
        # coordinates {0, 2} and {1, 3} are the two coupling blocks
        n = TWO_BLOCKS.dim
        witness = (
            (unit(n, 2, q(0, 3)), unit(n, 0, q(-1, 2))),
            (unit(n, 1), unit(n, 3, q(7))),
        )
        _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))
        assert oracle_split_ok(TWO_BLOCKS, witness)

    def test_general_witness_not_invariant(self):
        n = TWO_BLOCKS.dim
        witness = (
            (combo(n, {0: ONE, 1: ONE}), unit(n, 2)),
            (unit(n, 1), unit(n, 3)),
        )
        with pytest.raises(PreconditionError, match=NOT_PRESERVED):
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_general_witness_invariant(self):
        # a change of basis inside one invariant summand keeps it invariant
        n = TWO_BLOCKS.dim
        witness = (
            (combo(n, {0: ONE, 2: q(2)}), combo(n, {0: q(0, 1), 2: ONE})),
            (unit(n, 1), unit(n, 3)),
        )
        _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_dependent_vectors(self):
        # with n vectors in all, dependence inside a part makes the whole
        # family fall short of rank n, which the complementarity check reports
        n = TWO_BLOCKS.dim
        for part1 in (
            (unit(n, 0), unit(n, 0, q(2))),
            (combo(n, {0: ONE, 2: ONE}), combo(n, {0: q(3), 2: q(3)})),
        ):
            with pytest.raises(PreconditionError, match=NOT_COMPLEMENTARY):
                witness = (part1, (unit(n, 1), unit(n, 3)))
                _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_not_complementary_coordinate(self):
        n = TWO_BLOCKS.dim
        witness = ((unit(n, 0), unit(n, 2)), (unit(n, 2, q(5)), unit(n, 3)))
        with pytest.raises(PreconditionError, match=NOT_COMPLEMENTARY):
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_not_complementary_general(self):
        n = TWO_BLOCKS.dim
        witness = (
            (combo(n, {0: ONE, 1: ONE}), unit(n, 2)),
            (unit(n, 0), unit(n, 1)),
        )
        with pytest.raises(PreconditionError, match=NOT_COMPLEMENTARY):
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_zero_vector_is_not_complementary(self):
        n = TWO_BLOCKS.dim
        witness = ((unit(n, 0), unit(n, 2)), (tuple([ZERO] * n), unit(n, 3)))
        with pytest.raises(PreconditionError, match=NOT_COMPLEMENTARY):
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_shape_messages(self):
        n = TWO_BLOCKS.dim
        with pytest.raises(PreconditionError, match="two nonzero parts"):
            witness = ((), tuple(unit(n, i) for i in range(n)))
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))
        with pytest.raises(PreconditionError, match="full dimension"):
            witness = ((unit(n, 0),), (unit(n, 1),))
            _check_split(TWO_BLOCKS, *as_parts(TWO_BLOCKS, witness))

    def test_agrees_with_oracle_on_random_witnesses(self):
        rng = random.Random(91)
        checked = accepted = 0
        for _ in range(60):
            seed = random_seed(rng, 3, 3)
            rep = build_rep(seed)
            n = rep.dim
            if n < 2:
                continue
            verdict = indecomposable(seed)
            candidates = []
            if verdict.witness is not None:
                candidates.append(verdict.witness)
            cut = rng.randint(1, n - 1)
            order = rng.sample(range(n), n)
            vecs = [unit(n, i, q(rng.randint(1, 3), rng.randint(-1, 1))) for i in order]
            candidates.append((tuple(vecs[:cut]), tuple(vecs[cut:])))
            mixed = [
                combo(n, {i: q(rng.randint(-2, 2)) for i in rng.sample(range(n), 2)})
                for _ in range(n)
            ]
            candidates.append((tuple(mixed[:cut]), tuple(mixed[cut:])))
            for witness in candidates:
                expected = oracle_split_ok(rep, witness)
                try:
                    _check_split(rep, *as_parts(rep, witness))
                    ok = True
                except PreconditionError:
                    ok = False
                assert ok == expected, (seed, witness)
                checked += 1
                accepted += ok
        assert checked > 100 and accepted > 10


@st.composite
def sparse_matrices(draw):
    """At least 70% zeros, with a zero row and a duplicated row.  Entries
    of exactly 1 and -1 are drawn often, so that pivots of +-1 and updates
    that cancel come up."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 8))
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            st.one_of(
                st.sampled_from([ONE, -ONE]),
                st.builds(
                    GaussRat,
                    st.fractions(min_value=-9, max_value=9, max_denominator=6),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6),
                ),
            ),
            max_size=max(1, rows * cols // 4),
        )
    )
    grid = [[cells.get((i, j), ZERO) for j in range(cols)] for i in range(rows)]
    grid.insert(draw(st.integers(0, len(grid))), [ZERO] * cols)
    copy = list(grid[draw(st.integers(0, len(grid) - 1))])
    grid.insert(draw(st.integers(0, len(grid))), copy)
    zeros = sum(not x for row in grid for x in row)
    assume(zeros >= 0.7 * len(grid) * cols)
    return Mat(grid, cols=cols)


class TestSparseElimination:
    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_against_gauss_jordan(self, m):
        r = oracle_rank(m)
        assert rank(m) == r
        kernel = kernel_basis(m)
        assert len(kernel) == m.cols - r
        grid = _pairs(m.entries)
        assert all(pair_is_zero([pair_apply(grid, [to_pair(x) for x in v])]) for v in kernel)
        reference = oracle_nullspace(m)
        assert all(in_span(kernel, v) for v in reference)
        assert all(in_span(reference, v) for v in kernel)
        rows, leads = row_basis(m)
        assert leads == rref(_pairs(m.entries), m.cols)[1]
        assert len(rows) == r
        assert all(in_span(list(m.entries), v) for v in rows)
        assert all(in_span(rows, v) for v in m.entries)

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_pivot_rows_are_monic(self, m):
        rows, leads = row_basis(m)
        assert leads == rref(_pairs(m.entries), m.cols)[1]
        assert all(a < b for a, b in zip(leads, leads[1:]))
        for row, c in zip(_pairs(rows), leads):
            assert row[c] == (1, 0)
            assert all(x == (0, 0) for x in row[:c])
        assert oracle_rank(Mat(rows + list(m.entries), cols=m.cols)) == len(rows) == rank(m)

    def test_zero_and_duplicate_rows_keep_pivot_order(self):
        # rows wait under their leading column in arrival order, so (0, 1, 2)
        # becomes the pivot row of column 1 ahead of (0, 3, 1), which is
        # reduced to (0, 0, -5) and then divided by its pivot; the zero row
        # and the duplicate drop out
        m = Mat([[0, 0, 0], [0, 1, 2], [0, 3, 1], [1, 0, 0], [0, 1, 2]])
        rows, leads = row_basis(m)
        assert leads == [0, 1, 2]
        assert rows == [(ONE, ZERO, ZERO), (ZERO, ONE, q(2)), (ZERO, ZERO, ONE)]
        assert rank(m) == 3


# a core module whose split witness has rows with several nonzero entries;
# the bytes are the `split --json` output with monic image rows (the dense
# implementation wrote the image rows [2, 1-2i] and [0, -2-i], which span
# the same space)
PINNED_CORE = make_split_core(
    a_free=[q(4)],
    b_free=[q(1, 1)],
    shared=q(6, -1),
    coupling_up=Mat([[3]]),
    coupling_down=Mat([[2, q(0, 1), 1], [q(1, -2), 0, 3]]),
)
PINNED_SPLIT_SHA256 = "2ccb5d0a8cec3aeace114b38497e4014d553b0a376a87b2aed132cac13293df0"
PINNED_WITNESS = [
    [
        [["0/1", "0/1"], ["1/1", "0/1"]] + [["0/1", "0/1"]] * 5,
        [["0/1", "0/1"]] * 2 + [["1/1", "0/1"]] + [["0/1", "0/1"]] * 4,
        [["0/1", "0/1"]] * 5 + [["1/1", "0/1"], ["1/2", "-1/1"]],
        [["0/1", "0/1"]] * 6 + [["1/1", "0/1"]],
    ],
    [
        [["1/1", "0/1"]] + [["0/1", "0/1"]] * 6,
        [["0/1", "0/1"], ["-3/5", "-6/5"], ["12/5", "-1/5"], ["1/1", "0/1"]]
        + [["0/1", "0/1"]] * 3,
        [["0/1", "0/1"]] * 4 + [["1/1", "0/1"]] + [["0/1", "0/1"]] * 2,
    ],
]


def test_split_json_bytes_are_pinned(tmp_path):
    path = tmp_path / "core.json"
    path.write_text(json.dumps(rep_to_json(PINNED_CORE)))
    result = run_cli(["split", "--json", str(path)])
    assert result.exit_code == 0
    witness = json.loads(result.stdout)["core_split"]["witness"]
    assert witness == PINNED_WITNESS
    decoded = tuple(
        tuple(tuple(gauss_from_json(x) for x in vec) for vec in part) for part in witness
    )
    _check_split(PINNED_CORE, *as_parts(PINNED_CORE, decoded))
    assert oracle_split_ok(PINNED_CORE, decoded)
    assert len(result.stdout) == 14698
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED_SPLIT_SHA256


class TestSingleAnalysis:
    """Each coupling is walked once: every rhizome function derives from
    one breadth-first walk, `linalg._walk`, which `rhizome` imports by name
    (so patching `rhizome._walk` counts the rhizome walks), and the
    regular-shift commutant is read off that same walk."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = rhizome._walk

        def counted(matrix):
            calls.append(matrix)
            return walk(matrix)

        monkeypatch.setattr(rhizome, "_walk", counted)
        return calls

    SEED = Seed(3, 2, Mat([[0, 1], [-3, 5], [2, 0]]), (q(0, 2), q(0, -2), q(1), q(-1), q(1)))

    def test_isomorphic_analyzes_each_coupling_once(self, walks):
        acted = group_act(random_monomial_pair(random.Random(5), 3, 2), self.SEED)
        assert isomorphic(self.SEED, acted)
        assert len(walks) == 2

    def test_canonical_form_analyzes_once(self, walks):
        canonical_form(self.SEED)
        assert len(walks) == 1

    def test_indecomposable_walks_once(self, walks):
        verdict = indecomposable(self.SEED)
        assert verdict.value == INDECOMPOSABLE
        assert len(walks) == 1

    def test_regular_endo_walks_once_and_never_eliminates(self, monkeypatch):
        calls = {"_walk": 0, "_echelon": 0}
        for name in calls:
            original = getattr(linalg, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(linalg, name, counted)
        report = endo_report(build_rep(self.SEED))
        assert report.dimension == 1 and report.all_diagonal
        assert calls == {"_walk": 1, "_echelon": 0}

    def test_messages(self):
        split = Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4)))
        with pytest.raises(PreconditionError, match="^canonical form needs a rhizomatic coupling$"):
            canonical_form(split)
        with pytest.raises(PreconditionError, match="^canonical form needs regular shifts$"):
            canonical_form(Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0))))
        with pytest.raises(PreconditionError, match="^scaling normalization needs a rhizomatic"):
            scaling_normalize(Mat.identity(2))
        # two coupling blocks, on either side
        other = Seed(3, 2, Mat([[1, 0], [0, 1], [1, 0]]), self.SEED.eigenvalues)
        for pair in ((self.SEED, other), (other, self.SEED)):
            with pytest.raises(PreconditionError, match="^isomorphism testing needs regular"):
                isomorphic(*pair)


class TestDigitLimit:
    def test_long_part_is_a_precondition_error(self):
        # the limit exists from Python 3.10.7 and 3.11 on
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("the interpreter has no int-to-str limit")
        assert gauss_to_json(GaussRat(10 ** (limit - 1))) == ["1" + "0" * (limit - 1) + "/1", "0/1"]
        for write in (gauss_to_json, str):
            with pytest.raises(PreconditionError) as info:
                write(GaussRat(0, 10**limit))
            assert "\n" not in str(info.value)
            assert str(limit) in str(info.value)
        assert str(GaussRat(1, 10 ** (limit - 1))) == "1+1" + "0" * (limit - 1) + "i"
