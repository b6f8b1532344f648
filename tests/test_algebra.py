"""Relation checking, polynomial evaluation, and representation codecs."""

from __future__ import annotations

import random
import re

import pytest

from periplectic import (
    CodecError,
    GaussRat,
    I,
    Mat,
    PreconditionError,
    Rep,
    Seed,
    ShapeError,
    build_hecke_module,
    build_one_dim,
    build_rep,
    e_is_zero,
    e_sandwich_zero,
    poly_matrix,
    rep_from_json,
    rep_to_json,
    verify_hecke,
    verify_periplectic,
)
from periplectic import algebra
from periplectic.linalg import _word_rows
from periplectic.sampling import random_nonzero_gauss, random_polynomial, random_seed

from oracles import direct_sum, make_weight_block, oracle_relation_report, to_pair

PERIPLECTIC_RELATIONS = (
    "s*s = 1",
    "y1*y2 = y2*y1",
    "s*y1 = y2*s - 1 - e",
    "s*y2 = y1*s + 1 - e",
    "e*e = 0",
    "e*s = e",
    "s*e = -e",
    "e*y2 = e*y1 + e",
    "y1*e = y2*e + e",
)

# the premises of the relations that verify_periplectic derives
PREMISES = ("s*s = 1", "s*y1 = y2*s - 1 - e", "e*s = e", "s*e = -e")

HECKE_RELATIONS = (
    "s*s = 1",
    "y1*y2 = y2*y1",
    "s*y1 = y2*s - 1",
    "s*y2 = y1*s + 1",
)


@pytest.fixture
def reference_seed() -> Seed:
    two_i = GaussRat(0, 2)
    return Seed(
        3,
        2,
        coupling=Mat([[0, 1], [-3, 5], [2, 0]]),
        eigenvalues=(two_i, -two_i, GaussRat(1), GaussRat(-1), GaussRat(1)),
    )


def test_reference_module_satisfies_all_relations(reference_seed):
    report = verify_periplectic(build_rep(reference_seed))
    assert report.passed
    assert report.violations == ()
    assert report.checked == PERIPLECTIC_RELATIONS


def test_corrupted_module_reports_first_offending_entry(reference_seed):
    rep = build_rep(reference_seed)
    broken = Rep(rep.k, rep.l, rep.y1, rep.y2, rep.s, Mat.zero(5, 5))
    report = verify_periplectic(broken)
    assert not report.passed
    names = [v.relation for v in report.violations]
    assert names == ["s*y1 = y2*s - 1 - e", "s*y2 = y1*s + 1 - e"]
    # the first nonzero entry of the dropped e block, (a_0 - b_1)*S_01 =
    # 1 - 2i, explains both mismatches
    assert [(v.position, v.lhs, v.rhs) for v in report.violations] == [
        ((0, 4), GaussRat(0), GaussRat(-1, 2)),
        ((0, 4), GaussRat(1), GaussRat(0, 2)),
    ]


def test_hecke_verifier_ignores_e():
    rng = random.Random(21)
    for _ in range(20):
        seed = random_seed(rng)
        rep = build_rep(seed)
        assert verify_periplectic(rep).passed
        hecke = verify_hecke(rep)
        # the module factors through the Hecke quotient exactly when e vanishes
        assert hecke.passed == e_is_zero(rep)
        assert hecke.checked == HECKE_RELATIONS
        # the report depends on y1, y2 and s alone: a zero or a dense e gives it too
        n = rep.dim
        nonzero = Mat([[random_nonzero_gauss(rng) for _ in range(n)] for _ in range(n)])
        for e in (Mat.zero(n, n), nonzero):
            assert verify_hecke(Rep(rep.k, rep.l, rep.y1, rep.y2, rep.s, e)) == hecke


def _changed(rep: Rep, name: str, i: int, j: int, delta: GaussRat) -> Rep:
    """rep with delta added to entry (i, j) of the generator `name`."""
    grid = [list(row) for row in getattr(rep, name).entries]
    grid[i][j] += delta
    mats = dict(zip(("y1", "y2", "s", "e"), rep.generators()))
    mats[name] = Mat(grid, cols=rep.dim)
    return Rep(rep.k, rep.l, **mats)


def _unitriangular_conjugate(rep: Rep, rng: random.Random) -> Rep:
    """u^-1 * g * u for each generator g, with u unit upper triangular and
    every entry above the diagonal a nonzero Gaussian rational."""
    n = rep.dim
    u = [[GaussRat(1) if j == i else random_nonzero_gauss(rng) if j > i else GaussRat(0)
          for j in range(n)] for i in range(n)]
    # the rows of u^-1 from the last up: row i is e_i - sum_{j > i} u_ij (u^-1)_j
    inv: list[list[GaussRat]] = [[]] * n
    for i in reversed(range(n)):
        row = [GaussRat(int(j == i)) for j in range(n)]
        for j in range(i + 1, n):
            row = [x - u[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = row
    return Rep(rep.k, rep.l, *(Mat(inv) * g * Mat(u) for g in rep.generators()))


def _assert_reports_match_oracle(rep: Rep) -> None:
    for verify, hecke in ((verify_periplectic, False), (verify_hecke, True)):
        report = verify(rep)
        passed, violations, checked = oracle_relation_report(rep, hecke)
        assert report.passed == passed
        assert report.checked == tuple(checked)
        assert [
            (v.relation, v.position, to_pair(v.lhs), to_pair(v.rhs)) for v in report.violations
        ] == violations


def _repeated_seed(rng: random.Random) -> Seed:
    """A random seed whose last two b shifts are equal when k = 1 < l, and
    whose second shift equals its first otherwise (a_1 = a_0, or b_0 = a_0
    when k = 1)."""
    seed = random_seed(rng)
    ab = list(seed.eigenvalues)
    if seed.k == 1 < seed.l:
        ab[-1] = ab[-2]
    else:
        ab[1] = ab[0]
    return Seed(seed.k, seed.l, seed.coupling, tuple(ab))


class TestReportsMatchOracle:
    def test_built_modules(self):
        rng = random.Random(31)
        for t in range(30):
            seed = _repeated_seed(rng) if t % 3 == 0 else random_seed(rng, constant=t % 3 == 1)
            rep = build_rep(seed)
            assert verify_periplectic(rep).passed
            _assert_reports_match_oracle(rep)

    def test_s_squared_premise_is_needed(self):
        # calibrated, with s*y1, e*s = e and s*e = -e holding: s*s = 1 fails
        # and so does an e-y relation, which is evaluated, not derived
        rep = Rep(
            2,
            1,
            Mat.diagonal([0, -1, 1]),
            Mat.diagonal([-1, 0, 2]),
            Mat([[-1, 0, -1], [-1, 1, -1], [0, 0, 1]]),
            Mat([[0, 0, 2], [0, 0, 1], [0, 0, 0]]),
        )
        assert rep.is_calibrated
        _assert_reports_match_oracle(rep)
        assert [v.relation for v in verify_periplectic(rep).violations] == [
            "s*s = 1", "s*y2 = y1*s + 1 - e", "y1*e = y2*e + e",
        ]

    def test_c_fails_with_its_premises_holding(self):
        """Calibrated modules where s*s = 1, s*y1 and e*s = e hold but
        C = (y1 - y2)*s + s*(y1 - y2) + 2 does not vanish, so s*e = -e is
        streamed and fails: on the line y1 = y2 = 0, s = 1, e = -1, C is 2;
        on the 3 x 3 module below, with w = y1 - y2 = (-1, 1, -1) and
        w_i s_ii = -1, C is nonzero at (0, 2) alone, where s_02 != 0 and
        w_0 + w_2 = -2 (s*s = 1 since s_02 = -s_01 s_12 / 2)."""
        line = Rep(1, 0, Mat([[0]]), Mat([[0]]), Mat([[1]]), Mat([[-1]]))
        cube = Rep(
            2,
            1,
            Mat.diagonal([0, 1, 3]),
            Mat.diagonal([1, 0, 4]),
            Mat([[1, 2, -1], [0, -1, 1], [0, 0, 1]]),
            Mat([[0, 0, 2], [0, 0, -3], [0, 0, 0]]),
        )
        for rep in (line, cube):
            assert rep.is_calibrated
            _assert_reports_match_oracle(rep)
            failed = [v.relation for v in verify_periplectic(rep).violations]
            assert "s*e = -e" in failed
            assert not set(failed) & {"s*s = 1", "s*y1 = y2*s - 1 - e", "e*s = e"}

    def test_s_y1_fails_only_where_s_is_zero(self):
        """Calibrated modules whose s*y1 residual s_ij (u_j - v_i) + d_ij +
        e_ij (y1 = diag(u), y2 = diag(v)) is nonzero at one entry where
        s_ij = 0: a built module with s_ii set to zero, where the residual
        is 1 + e_ii = 1, or with e_ij (i != j, s_ij = 0) changed.  On the
        line y1 = y2 = 0, s = 0, e = -1, s_00 is missing but s*y1 holds."""
        relation = "s*y1 = y2*s - 1 - e"
        rng = random.Random(36)
        for t in range(40):
            rep = build_rep(_repeated_seed(rng) if t % 2 else random_seed(rng))
            n = rep.dim
            if t % 4 < 2:
                i = j = rng.randrange(n)
                rep = _changed(rep, "s", i, i, -rep.s[i, i])
            else:
                zeros = [(i, j) for i in range(n) for j in range(n) if i != j and not rep.s[i, j]]
                if not zeros:
                    continue
                i, j = rng.choice(zeros)
                rep = _changed(rep, "e", i, j, random_nonzero_gauss(rng))
            _assert_reports_match_oracle(rep)
            violations = verify_periplectic(rep).violations
            assert [v.position for v in violations if v.relation == relation] == [(i, j)]
        line = Rep(1, 0, Mat([[0]]), Mat([[0]]), Mat([[0]]), Mat([[-1]]))
        _assert_reports_match_oracle(line)
        assert relation not in [v.relation for v in verify_periplectic(line).violations]

    @pytest.mark.parametrize(
        "name, off_diagonal",
        [("y1", False), ("y1", True), ("y2", False), ("s", False), ("e", False)],
    )
    def test_one_entry_changed(self, name, off_diagonal):
        rng = random.Random(f"changed {name} {off_diagonal}")
        failed = 0
        for t in range(25):
            rep = build_rep(_repeated_seed(rng) if t % 2 else random_seed(rng))
            n = rep.dim
            if off_diagonal:
                i, j = rng.sample(range(n), 2)
            else:
                i, j = rng.randrange(n), rng.randrange(n)
            changed = _changed(rep, name, i, j, random_nonzero_gauss(rng))
            if off_diagonal:
                assert not changed.is_calibrated
            _assert_reports_match_oracle(changed)
            failed += not verify_periplectic(changed).passed
        assert failed >= 20

    def test_entries_changed_in_two_rows(self):
        # relation rows are streamed in order, so the report names the first
        # offending entry; in most trials a violation lies in the upper of
        # the two changed rows, the one with the smaller index, and none in
        # the lower
        rng = random.Random(35)
        at_upper = 0
        for t in range(24):
            rep = build_rep(random_seed(rng, 6, 6))
            n = rep.dim
            if n < 2:
                continue
            name = ("s", "e", "y1", "y2")[t % 4]
            upper, lower = sorted(rng.sample(range(n), 2))
            for i in (lower, upper):
                rep = _changed(rep, name, i, rng.randrange(n), random_nonzero_gauss(rng))
            _assert_reports_match_oracle(rep)
            rows = [v.position[0] for v in verify_periplectic(rep).violations]
            at_upper += upper in rows and lower not in rows
        assert at_upper >= 12

    def test_dense_unitriangular_conjugates(self):
        rng = random.Random(33)
        for t in range(8):
            rep = _unitriangular_conjugate(build_rep(random_seed(rng, 6, 6)), rng)
            assert rep.dim <= 12 and not rep.is_calibrated
            _assert_reports_match_oracle(rep)
            n = rep.dim
            name = ("y1", "y2", "s", "e")[t % 4]
            changed = _changed(rep, name, rng.randrange(n), rng.randrange(n), GaussRat(1))
            assert not verify_periplectic(changed).passed
            _assert_reports_match_oracle(changed)

    def test_dimensions_zero_and_one(self):
        empty = Mat([], cols=0)
        reps = [Rep(0, 0, empty, empty, empty, empty)]
        for a, sign in ((GaussRat(2), "+"), (GaussRat("1/3", -1), "-")):
            line = build_one_dim(a, sign)
            reps.append(line)
            # adding i to any one entry breaks a relation
            reps += [_changed(line, g, 0, 0, GaussRat(0, 1)) for g in ("y1", "y2", "s", "e")]
        for rep in reps:
            _assert_reports_match_oracle(rep)
        passed = [verify_periplectic(rep).passed for rep in reps]
        assert passed == [True] + ([True] + [False] * 4) * 2

    def test_only_s_squared_fails(self):
        """Modules where s*s = 1 is the one failed premise, so both checkers
        evaluate s*y2 = y1*s + 1 (- e): it holds on the line y1 = 0, y2 = 2,
        s = 1/2, e = 0, and fails at (0, 1) on the plane below."""
        line = Rep(1, 0, Mat([[0]]), Mat([[2]]), Mat([[GaussRat("1/2")]]), Mat([[0]]))
        plane = Rep(1, 1, Mat.diagonal([0, 1]), Mat.diagonal([1, 3]),
                    Mat([[1, 1], [0, GaussRat("1/2")]]), Mat.zero(2, 2))
        for rep, derived_fails in ((line, False), (plane, True)):
            _assert_reports_match_oracle(rep)
            for verify in (verify_periplectic, verify_hecke):
                failed = [v.relation for v in verify(rep).violations]
                assert failed[0] == "s*s = 1"
                assert len(failed) == 1 + derived_fails
                assert failed[-1].startswith("s*y2 = ") == derived_fails

    def test_one_premise_fails(self):
        """One y1 or y2 entry of a built module changed, and in half the
        trials e re-derived from s*y1 = y2*s - 1 - e: each of s*y1, e*s and
        s*e is then, often enough, the one failed premise of the derived
        relations."""
        rng = random.Random(34)
        alone = {name: 0 for name in PREMISES}
        for t in range(120):
            rep = build_rep(_repeated_seed(rng) if t % 2 else random_seed(rng))
            n = rep.dim
            name = ("y1", "y2")[t % 2]
            rep = _changed(rep, name, rng.randrange(n), rng.randrange(n), random_nonzero_gauss(rng))
            if t % 4 < 2:
                y1, y2, s, _ = rep.generators()
                rep = Rep(rep.k, rep.l, y1, y2, s, y2 * s - Mat.identity(n) - s * y1)
            _assert_reports_match_oracle(rep)
            failed = [v.relation for v in verify_periplectic(rep).violations if v.relation in PREMISES]
            if len(failed) == 1:
                alone[failed[0]] += 1
        assert min(alone["s*y1 = y2*s - 1 - e"], alone["e*s = e"], alone["s*e = -e"]) >= 8

    def test_failed_e_y_relation_has_a_failed_premise(self):
        """One y1 diagonal entry of a built module moved, or the same entry
        of y1 and y2, and e re-derived from s*y1 = y2*s - 1 - e: the module
        stays calibrated and keeps s*s = 1 and s*y1, so wherever an e-y
        relation fails, e*s = e or s*e = -e fails too."""
        rng = random.Random(5)
        e_y = ("e*y2 = e*y1 + e", "y1*e = y2*e + e")
        e_y_failures = 0
        for t in range(300):
            rep = build_rep(random_seed(rng))
            n = rep.dim
            i, delta = rng.randrange(n), random_nonzero_gauss(rng)
            for name in ("y1", "y2")[: 1 + t % 2]:
                rep = _changed(rep, name, i, i, delta)
            y1, y2, s, _ = rep.generators()
            rep = Rep(rep.k, rep.l, y1, y2, s, y2 * s - Mat.identity(n) - s * y1)
            assert rep.is_calibrated
            passed, violations, checked = oracle_relation_report(rep)
            failed = {name for name, *_ in violations}
            assert failed.isdisjoint(PREMISES[:2])
            if not failed.isdisjoint(e_y):
                e_y_failures += 1
                assert not failed.isdisjoint(PREMISES[2:])
            report = verify_periplectic(rep)
            assert (report.passed, report.checked) == (passed, tuple(checked))
            assert [
                (v.relation, v.position, to_pair(v.lhs), to_pair(v.rhs)) for v in report.violations
            ] == violations
        assert e_y_failures >= 50

    def test_paired_weight_blocks(self):
        """Blocks y1 = diag(u, u - d), y2 = diag(u - d, u), s = [[-1/d, b],
        [c, 1/d]] with b c = 1 - 1/d^2 and e = 0: alone, summed with built
        cores, and with one entry of s or e changed.  Their s stores entries
        below the diagonal, which no built module does, so the check of
        s*s = 1 does arithmetic on O*O, O the part of s off its diagonal."""
        rng = random.Random(37)
        below, failed = 0, 0
        for t in range(30):
            parts = [
                make_weight_block(*(random_nonzero_gauss(rng) for _ in range(3)))
                for _ in range(1 + t % 2)
            ]
            if t % 3:
                parts.insert(rng.randrange(len(parts) + 1), build_rep(random_seed(rng, 3, 3)))
            rep = direct_sum(parts)
            assert rep.is_calibrated and verify_periplectic(rep).passed
            _assert_reports_match_oracle(rep)
            below += any(j < i for i, row in enumerate(rep.s.nonzero) for j in row)
            n = rep.dim
            i, j = rng.randrange(n), rng.randrange(n)
            changed = _changed(rep, ("s", "e")[t % 2], i, j, random_nonzero_gauss(rng))
            _assert_reports_match_oracle(changed)
            failed += not verify_periplectic(changed).passed
        assert below >= 25 and failed >= 25

    @pytest.mark.parametrize(
        "y1, y2, s, e, failed, by_premise",
        [
            # C = 0 and O*O = diag(1, 1), not diag(3/4, 3/4)
            ([0, -2], [-2, 0], [[GaussRat("-1/2"), 1], [1, GaussRat("1/2")]], [[0, 0], [0, 0]],
             ["s*s = 1"], False),
            # s*s = 1 and s*y1 hold, and e stores e_01 in a row with w_0 = -1
            ([0, 0], [1, -1], [[1, 1], [0, -1]], [[0, 1], [0, 0]],
             ["e*s = e", "s*e = -e", "e*y2 = e*y1 + e", "y1*e = y2*e + e"], False),
            # C = 0, s*y1 holds and w_0 = 1, so the check of e*s = e holds;
            # but O*O is nonzero at (0, 2) alone, so s*s = 1 fails, and
            # e*s = e, streamed for that, fails at (e*s)_02 = e_01 s_12 = 1
            ([1, -1, 0], [0, 0, -1], [[-1, 1, 0], [0, 1, 1], [0, 0, -1]],
             [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
             ["s*s = 1", "e*s = e"], True),
            # O*O = 1 - D*D = 0, but w_1 s_11 = 1, so C != 0 and (s*s)_01 = 2
            ([0, 1], [1, 0], [[1, 1], [0, 1]], [[0, 0], [0, -2]],
             ["s*s = 1", "s*y2 = y1*s + 1 - e", "e*e = 0", "s*e = -e", "e*y2 = e*y1 + e"], False),
            # s*y1 holds and w_0 = 1, but C = 6, and e*s = -6 != e
            ([1], [0], [[2]], [[-3]],
             ["s*s = 1", "s*y2 = y1*s + 1 - e", "e*e = 0", "e*s = e", "s*e = -e",
              "e*y2 = e*y1 + e"], False),
        ],
        ids=["o_squared", "e_row_weight", "e_times_o", "c_with_o_squared", "c_with_e_row"],
    )
    def test_one_part_of_a_check_fails(self, y1, y2, s, e, failed, by_premise):
        """Calibrated modules where one part of the check of s*s = 1 or of
        e*s = e fails (C = 0, O*O = 1 - D*D, or w_i = 1 on the rows of e)
        and its other parts hold, so the module is streamed and the
        relation's violation reported; in e_times_o the check of e*s = e
        holds, and e*s = e fails in the stream that the failed check of
        s*s = 1 starts."""
        n = len(y1)
        rep = Rep(n - 1, 1, Mat.diagonal(y1), Mat.diagonal(y2), Mat(s), Mat(e))
        _assert_reports_match_oracle(rep)
        assert [v.relation for v in verify_periplectic(rep).violations] == failed
        w = [(a - b, 0, 1) for a, b in zip(y1, y2)]
        e_s_check = algebra._c_vanishes(w, rep.s) and algebra._e_s_holds(w, rep.e)
        assert (e_s_check and "e*s = e" in failed and "s*s = 1" in failed) == by_premise

    def test_e_times_o_nonzero(self):
        """Calibrated modules with C = 0, s*y1 = y2*s - 1 - e holding and
        w_i = 1 on every row of e that stores an entry, but e*O != 0, O the
        part of s off its diagonal.  The weights w = y1 - y2 are 1 and -1,
        with s_ii = -1/w_i; O runs from +1 rows to -1 columns and back, and
        e is read off s*y1.  Each -1 row p has v_p = u_j wherever O_pj != 0,
        so its row of e is empty, and (e*O)_ij = -(u_j - 1 - v_i) (O*O)_ij
        is nonzero where u_j != u_i: s*s = 1 fails, and so does e*s = e,
        whose check holds.  Half the modules are summed with a built core;
        the basis is shuffled."""
        rng = random.Random(38)
        values = [GaussRat(x, y) for x in range(-2, 3) for y in (0, 1)]
        for t in range(30):
            alpha, beta = rng.sample(values, 2)
            u_plus = [alpha, beta] + [rng.choice((alpha, beta)) for _ in range(t % 2)]
            v_minus = [rng.choice((alpha, beta)) for _ in range(1 + t % 3 // 2)]
            n = len(u_plus) + len(v_minus)
            at = rng.sample(range(n), n)
            plus, minus = at[: len(u_plus)], at[len(u_plus):]
            u, v = [GaussRat(0)] * n, [GaussRat(0)] * n
            grid = [[GaussRat(0)] * n for _ in range(n)]
            for i, x in zip(plus, u_plus):
                u[i], v[i], grid[i][i] = x, x - 1, GaussRat(-1)
            for p, x in zip(minus, v_minus):
                u[p], v[p], grid[p][p] = x - 1, x, GaussRat(1)
                # into p from a +1 row whose u is not v_p, out of p to a +1
                # column whose u is v_p, and to or from the others at random
                into = [i for i in plus if u[i] != x]
                out = [j for j in plus if u[j] == x]
                for i in into:
                    if i == into[0] or rng.random() < 0.5:
                        grid[i][p] = random_nonzero_gauss(rng)
                for j in out:
                    if j == out[0] or rng.random() < 0.5:
                        grid[p][j] = random_nonzero_gauss(rng)
            y1, y2, s = Mat.diagonal(u), Mat.diagonal(v), Mat(grid)
            rep = Rep(len(plus), len(minus), y1, y2, s, y2 * s - Mat.identity(n) - s * y1)
            if t % 2:
                rep = direct_sum([rep, build_rep(random_seed(rng, 3, 3))])
            n = rep.dim
            y1, y2, s, e = rep.generators()
            w = y1 - y2
            assert rep.is_calibrated
            assert (w * s + s * w + Mat.diagonal([2] * n)).is_zero()
            assert all(w[i, i] == GaussRat(1) for i, row in enumerate(e.nonzero) if row)
            off = s - Mat.diagonal([s[i, i] for i in range(n)])
            assert not (e * off).is_zero()
            _assert_reports_match_oracle(rep)
            failed = [v.relation for v in verify_periplectic(rep).violations]
            assert "s*y1 = y2*s - 1 - e" not in failed
            assert {"s*s = 1", "e*s = e"} <= set(failed)


def test_tables_settle_premises_first(reference_seed):
    # the evaluation order holds every relation once, and each premise names
    # a relation that is evaluated before the relation that rests on it;
    # checked lists the relations in table order
    order = [name for name, _, _ in algebra._ORDER]
    assert sorted(order) == sorted(PERIPLECTIC_RELATIONS)
    position = {name: t for t, name in enumerate(order)}
    for name, before in algebra._PREMISES.items():
        for premise in before:
            assert position[premise] < position[name]
    calibrated = build_rep(reference_seed)
    conjugate = _unitriangular_conjugate(calibrated, random.Random(6))
    for rep in (calibrated, conjugate, _changed(calibrated, "s", 0, 1, GaussRat(1))):
        assert verify_periplectic(rep).checked == PERIPLECTIC_RELATIONS


def _stream_log(monkeypatch) -> list[tuple[object, list[int]]]:
    """Route algebra's word kernel through a wrapper that logs each call as
    (rows asked for, rows its caller took from the stream)."""
    log: list[tuple[object, list[int]]] = []

    def logged(words, rows):
        taken: list[int] = []
        log.append((rows, taken))
        for i, acc in zip(rows, _word_rows(words, rows)):
            taken.append(i)
            yield acc

    monkeypatch.setattr(algebra, "_word_rows", logged)
    return log


def test_derived_relations_are_not_evaluated(monkeypatch, reference_seed):
    # every relation passes, so each streamed one streams every row once; a
    # calibrated module streams none: it checks s*s = 1, s*y1, e*s = e and
    # s*e = -e entry by entry and derives the other five, and so does
    # verify_hecke, which runs those checks with e = 0; a conjugate by a
    # unit upper triangular matrix, not calibrated, derives two
    log = _stream_log(monkeypatch)
    hecke = build_hecke_module(2, 3, Mat([[1, 0, 2], [0, 3, 1]]))
    conjugate = _unitriangular_conjugate(build_rep(reference_seed), random.Random(6))
    assert not conjugate.is_calibrated
    for rep, verify, streamed in (
        (build_rep(reference_seed), verify_periplectic, 0),
        (hecke, verify_periplectic, 0),
        (hecke, verify_hecke, 0),
        (conjugate, verify_periplectic, 7),
    ):
        log.clear()
        assert verify(rep).passed
        assert sum(len(taken) for _, taken in log) == streamed * rep.dim
    # on the line y1 = y2 = 0, s = 1, e = -1, C = 2 fails the entry checks,
    # so the module is streamed like one that is not calibrated: the seven
    # relations that are not derived, s*y1 among them though it holds, and
    # s*y2 and e*e, whose premise s*e = -e fails; s*e and four others fail
    # at row 0
    log.clear()
    line = Rep(1, 0, Mat([[0]]), Mat([[0]]), Mat([[1]]), Mat([[-1]]))
    report = verify_periplectic(line)
    assert [v.relation for v in report.violations] == [
        "s*y2 = y1*s + 1 - e", "e*e = 0", "s*e = -e", "e*y2 = e*y1 + e", "y1*e = y2*e + e",
    ]
    assert len([taken for rows, taken in log if rows == range(1)]) == 9


def test_a_failing_first_row_stops_its_stream(monkeypatch, reference_seed):
    # with e_00 changed, five relations fail at row 0 and the other four
    # hold; each failing stream yields row 0 alone, and its violation
    # re-reads row 0 of lhs and of rhs
    rep = _changed(build_rep(reference_seed), "e", 0, 0, GaussRat(1))
    log = _stream_log(monkeypatch)
    report = verify_periplectic(rep)
    assert [v.position[0] for v in report.violations] == [0] * 5
    streams = [taken for rows, taken in log if rows == range(rep.dim)]
    rereads = [taken for rows, taken in log if rows == [0]]
    assert len(streams) + len(rereads) == len(log)
    assert sorted(map(len, streams)) == [1] * len(report.violations) + [rep.dim] * (
        len(streams) - len(report.violations)
    )
    assert rereads == [[0]] * (2 * len(report.violations))


def test_poly_matrix_explicit():
    y1 = Mat.diagonal([1, 2])
    y2 = Mat.diagonal([3, -1])
    # f = 2 + y1*y2^2 - 3*y2
    poly = {(0, 0): 2, (1, 2): 1, (0, 1): -3}
    assert poly_matrix(y1, y2, poly) == Mat.diagonal([2 + 9 - 9, 2 + 2 + 3])


def test_poly_matrix_empty_poly_is_zero():
    assert poly_matrix(Mat.identity(2), Mat.identity(2), {}) == Mat.zero(2, 2)


def test_poly_matrix_shape_guard():
    with pytest.raises(ShapeError):
        poly_matrix(Mat.identity(2), Mat.identity(3), {(0, 0): 1})


@pytest.mark.parametrize("poly, key", [
    ({(-1, 0): 1}, "(-1, 0)"),
    ({(0, -2): 1, (1, 0): 1}, "(0, -2)"),
    ({(0.5, 0): 1}, "(0.5, 0)"),
    ({(True, 0): 1}, "(True, 0)"),
    ({(1, 0, 2): 1}, "(1, 0, 2)"),
    ({3: 1}, "3"),
])
def test_poly_matrix_rejects_bad_exponents(poly, key):
    y = Mat.diagonal([1, 2])
    with pytest.raises(PreconditionError, match=re.escape(key)):
        poly_matrix(y, y, poly)
    rep = Rep(1, 1, y, y, Mat.identity(2), Mat.zero(2, 2))
    with pytest.raises(PreconditionError, match=re.escape(key)):
        e_sandwich_zero(rep, poly)


def test_sandwich_vanishes_on_valid_modules():
    rng = random.Random(22)
    for _ in range(15):
        rep = build_rep(random_seed(rng))
        poly = random_polynomial(rng)
        assert e_sandwich_zero(rep, poly)


def test_sandwich_detects_non_nilpotent_e():
    fake = Rep(
        1,
        1,
        y1=Mat.diagonal([0, 1]),
        y2=Mat.diagonal([0, 1]),
        s=Mat.identity(2),
        e=Mat([[1, 0], [0, 0]]),
    )
    assert not e_sandwich_zero(fake, {(0, 0): 1})


class TestRepCodec:
    def test_round_trip(self, reference_seed):
        rep = build_rep(reference_seed)
        assert rep_from_json(rep_to_json(rep)) == rep

    def test_missing_key(self):
        with pytest.raises(CodecError, match="lacks keys"):
            rep_from_json({"k": 1, "l": 1})

    def test_bad_sizes(self):
        data = rep_to_json(build_rep(Seed(1, 1, Mat([[1]]), (GaussRat(2), GaussRat(0)))))
        data["k"] = 2
        with pytest.raises(CodecError):
            rep_from_json(data)
        with pytest.raises(CodecError):
            rep_from_json({"k": -1, "l": 0, "y1": [], "y2": [], "s": [], "e": []})
        with pytest.raises(CodecError):
            rep_from_json([1, 2, 3])

    def test_boolean_sizes(self):
        data = rep_to_json(build_rep(Seed(0, 1, Mat([], cols=1), (GaussRat(2),))))
        data["l"] = True
        with pytest.raises(CodecError, match="non-negative integers"):
            rep_from_json(data)


class TestRepValidation:
    def test_negative_split(self):
        with pytest.raises(ShapeError):
            Rep(-1, 2, Mat.identity(1), Mat.identity(1), Mat.identity(1), Mat.identity(1))

    def test_sizes_must_be_ints(self):
        # 2.0 + 1 == 3 matches the 3 x 3 generators; only the size check catches it
        for k, l in ((2.0, 1), (2, 1.0), (True, 2), (2, True)):
            with pytest.raises(ShapeError, match="k and l must be non-negative integers"):
                Rep(k, l, *[Mat.identity(3)] * 4)

    def test_wrong_matrix_size(self):
        with pytest.raises(ShapeError):
            Rep(1, 1, Mat.identity(3), Mat.identity(2), Mat.identity(2), Mat.identity(2))

    def test_dim_and_calibration(self, reference_seed):
        rep = build_rep(reference_seed)
        assert rep.dim == 5
        assert rep.is_calibrated
        skew = Rep(rep.k, rep.l, rep.s, rep.y2, rep.s, rep.e)
        assert not skew.is_calibrated

    def test_generators_order(self, reference_seed):
        rep = build_rep(reference_seed)
        assert rep.generators() == (rep.y1, rep.y2, rep.s, rep.e)


def test_verify_accepts_trivial_zero_dimensional_module():
    empty = Rep(0, 0, Mat([], cols=0), Mat([], cols=0), Mat([], cols=0), Mat([], cols=0))
    assert verify_periplectic(empty).passed


def test_i_squared_convention():
    # the imaginary unit used throughout the eigenvalue data
    assert I * I == GaussRat(-1)
