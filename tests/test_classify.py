"""Indecomposability verdicts, canonical forms, and weight-block splitting."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from periplectic import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    UNKNOWN,
    CanonicalForm,
    GaussRat,
    I,
    Mat,
    MonomialPair,
    PreconditionError,
    Rep,
    Seed,
    ShapeError,
    build_rep,
    canonical_form,
    canonical_to_json,
    e_is_zero,
    e_nonzero_guarantee,
    endo_report,
    extension_profile,
    group_act,
    indecomposable,
    is_regular,
    isomorphic,
    split_core,
    split_weight_blocks,
    verdict_to_json,
    verify_periplectic,
)
from periplectic import classify, linalg
from periplectic.sampling import (
    random_gauss,
    random_monomial_pair,
    random_nonzero_gauss,
    random_rhizomatic_matrix,
    random_seed,
)

from oracles import (
    brute_force_isomorphic,
    direct_sum,
    make_split_core,
    make_weight_block,
    oracle_build_rep,
    oracle_commutant_dim,
    oracle_invariant_line_spaces,
    oracle_split_ok,
    pair_diagonal,
    pair_monomial,
    pair_product,
)
from test_algebra import _changed, _unitriangular_conjugate

TWO_I = GaussRat(0, 2)

REFERENCE = Seed(
    3,
    2,
    coupling=Mat([[0, 1], [-3, 5], [2, 0]]),
    eigenvalues=(TWO_I, -TWO_I, GaussRat(1), GaussRat(-1), GaussRat(1)),
)


def q(re, im=0) -> GaussRat:
    return GaussRat(re, im)


class TestIsRegular:
    def test_distinct_within_each_group(self):
        assert is_regular((TWO_I, -TWO_I, q(1), q(-1), q(1)), 3, 2)

    def test_repeat_within_a_group(self):
        assert not is_regular((q(0), q(0), q(5)), 2, 1)

    def test_collision_across_groups_allowed(self):
        assert is_regular((q(7), q(7)), 1, 1)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            is_regular((q(1), q(2)), 2, 1)


class TestMonomialPair:
    def test_validation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            MonomialPair((0, 0), (q(1), q(1)), (0,), (q(1),))
        with pytest.raises(ValueError, match="scalars do not match"):
            MonomialPair((0, 1), (q(1),), (0,), (q(1),))
        with pytest.raises(ValueError, match="nonzero"):
            MonomialPair((0,), (q(0),), (0,), (q(1),))

    def test_permutation_entries_must_be_ints(self):
        # sorted((0.0, 1.0)) == sorted((True, False)) == [0, 1], so only the
        # type check catches floats and bools
        with pytest.raises(ValueError, match="row permutation .* is not a permutation"):
            MonomialPair((0.0, 1.0), (1, 1), (0,), (1,))
        with pytest.raises(ValueError, match="row permutation .* is not a permutation"):
            MonomialPair((True, False), (1, 1), (0,), (1,))
        with pytest.raises(ValueError, match="column permutation .* is not a permutation"):
            MonomialPair((0, 1), (1, 1), ("0",), (1,))

    def test_inverse(self):
        rng = random.Random(51)
        for _ in range(10):
            g = random_monomial_pair(rng, 3, 2)
            product = pair_product(pair_monomial(g), pair_monomial(g.inverse()), 5)
            assert product == pair_diagonal([(1, 0)] * 5)
            assert g.inverse().inverse() == g

    def test_identity(self):
        g = MonomialPair.identity(2, 1)
        assert pair_monomial(g) == pair_diagonal([(1, 0)] * 3)


class TestGroupAct:
    def test_identity_action(self):
        assert group_act(MonomialPair.identity(3, 2), REFERENCE) == REFERENCE

    def test_action_is_conjugation(self):
        rng = random.Random(52)
        for _ in range(15):
            seed = random_seed(rng)
            g = random_monomial_pair(rng, seed.k, seed.l)
            x, n = pair_monomial(g), seed.k + seed.l
            acted = oracle_build_rep(group_act(g, seed))
            for name, m in oracle_build_rep(seed).items():
                assert pair_product(acted[name], x, n) == pair_product(x, m, n), name

    def test_preserves_rhizome_and_regularity(self):
        rng = random.Random(53)
        from periplectic import analyze

        for _ in range(10):
            seed = random_seed(rng)
            g = random_monomial_pair(rng, seed.k, seed.l)
            acted = group_act(g, seed)
            assert analyze(acted.coupling).is_rhizomatic == analyze(
                seed.coupling
            ).is_rhizomatic
            assert is_regular(acted.eigenvalues, seed.k, seed.l) == is_regular(
                seed.eigenvalues, seed.k, seed.l
            )

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            group_act(MonomialPair.identity(2, 2), REFERENCE)


class TestCanonicalForm:
    def test_single_entry_normalizes_to_one(self):
        form = canonical_form(Seed(1, 1, Mat([[q(-7, 3)]]), (q(4), q(9))))
        assert form == CanonicalForm((q(4), q(9)), Mat([[1]]))

    def test_reference_form(self):
        form = canonical_form(REFERENCE)
        assert form.eigenvalues == (-TWO_I, TWO_I, q(1), q(-1), q(1))
        assert form.coupling == Mat([[1, 1], [0, 1], [1, 0]])

    def test_shifts_sorted_within_groups(self):
        form = canonical_form(REFERENCE)
        assert list(form.eigenvalues[:3]) == sorted(form.eigenvalues[:3])
        assert list(form.eigenvalues[3:]) == sorted(form.eigenvalues[3:])

    def test_orbit_invariance(self):
        rng = random.Random(54)
        for _ in range(30):
            seed = random_seed(rng, regular=True, rhizomatic=True)
            g = random_monomial_pair(rng, seed.k, seed.l)
            assert canonical_form(group_act(g, seed)) == canonical_form(seed)

    def test_fixed_point(self):
        form = canonical_form(REFERENCE)
        again = canonical_form(Seed(3, 2, form.coupling, form.eigenvalues))
        assert again == form

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="regular"):
            canonical_form(Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0))))
        with pytest.raises(PreconditionError, match="rhizomatic"):
            canonical_form(Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4))))


class TestIsomorphic:
    def test_same_orbit(self):
        g = MonomialPair((1, 0, 2), (q(1), q(2), q(0, 1)), (1, 0), (q(3), q("1/2")))
        assert isomorphic(REFERENCE, group_act(g, REFERENCE))

    def test_different_shifts(self):
        other = Seed(3, 2, REFERENCE.coupling, (TWO_I, -TWO_I, q(1), q(-1), q(2)))
        assert not isomorphic(REFERENCE, other)

    def test_different_sizes_is_false_not_an_error(self):
        assert not isomorphic(REFERENCE, Seed(1, 1, Mat([[1]]), (q(0), q(0))))

    def test_cross_ratio_decides_two_by_two(self):
        """All-nonzero 2x2 couplings over the same shifts are isomorphic
        exactly when a11*a22/(a12*a21) agrees."""
        ab = (q(1), q(2), q(0), q(5))
        first = Seed(2, 2, Mat([[1, 2], [3, 4]]), ab)
        same_ratio = Seed(2, 2, Mat([[2, 4], [3, 4]]), ab)
        other_ratio = Seed(2, 2, Mat([[1, 1], [1, 1]]), ab)
        assert isomorphic(first, same_ratio)
        assert not isomorphic(first, other_ratio)

    def test_rejects_undecidable_inputs(self):
        degenerate = Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0)))
        with pytest.raises(PreconditionError, match="endo_report"):
            isomorphic(degenerate, degenerate)

    def test_no_monomial_action(self, monkeypatch):
        """Sorting permutes stored entries: canonical_form and isomorphic
        build no monomial pair and act with none, and refuse as before."""
        g = MonomialPair((1, 0, 2), (q(1), q(2), q(0, 1)), (1, 0), (q(3), q("1/2")))
        acted = group_act(g, REFERENCE)

        def forbidden(*args, **kwargs):
            raise AssertionError("the monomial action was called")

        monkeypatch.setattr(classify, "group_act", forbidden)
        monkeypatch.setattr(classify, "MonomialPair", forbidden)
        assert canonical_form(REFERENCE).coupling == Mat([[1, 1], [0, 1], [1, 0]])
        assert canonical_form(acted) == canonical_form(REFERENCE)
        assert isomorphic(REFERENCE, acted)
        with pytest.raises(PreconditionError, match="regular"):
            canonical_form(Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0))))
        with pytest.raises(PreconditionError, match="rhizomatic"):
            canonical_form(Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4))))
        degenerate = Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0)))
        with pytest.raises(PreconditionError, match="endo_report"):
            isomorphic(degenerate, degenerate)

    def test_agrees_with_orbit_search(self):
        rng = random.Random(55)
        for trial in range(25):
            seed1 = random_seed(rng, kmax=3, lmax=3, regular=True, rhizomatic=True)
            if trial % 2:
                g = random_monomial_pair(rng, seed1.k, seed1.l)
                seed2 = group_act(g, seed1)
            else:
                seed2 = random_seed(rng, kmax=3, lmax=3, regular=True, rhizomatic=True)
            if (seed1.k, seed1.l) == (seed2.k, seed2.l):
                assert isomorphic(seed1, seed2) == brute_force_isomorphic(seed1, seed2)


class TestIndecomposable:
    def test_one_dimensional(self):
        for k, l in ((1, 0), (0, 1)):
            seed = Seed(k, l, Mat.zero(k, l), (q(5),))
            assert indecomposable(seed).value == INDECOMPOSABLE

    def test_empty_seed(self):
        with pytest.raises(ShapeError):
            indecomposable(Seed(0, 0, Mat([], cols=0), ()))

    def test_regular_rhizomatic(self):
        verdict = indecomposable(REFERENCE)
        assert verdict.value == INDECOMPOSABLE
        assert verdict.witness is None

    def test_disconnected_coupling(self):
        seed = Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4)))
        verdict = indecomposable(seed)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(build_rep(seed), verdict.witness)
        assert len(verdict.witness[0]) == 2
        assert len(verdict.witness[1]) == 2

    def test_disconnected_coupling_with_repeated_shifts(self):
        # the coordinate witness needs no regularity at all
        seed = Seed(2, 2, Mat.identity(2), (q(5), q(5), q(3), q(3)))
        verdict = indecomposable(seed)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(build_rep(seed), verdict.witness)

    def test_repeated_shift_against_a_line(self):
        seed = Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0)))
        verdict = indecomposable(seed)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(build_rep(seed), verdict.witness)

    def test_distinct_shifts_against_a_line(self):
        seed = Seed(2, 1, Mat([[1], [1]]), (q(3), q(4), q(0)))
        assert indecomposable(seed).value == INDECOMPOSABLE

    def test_isotropic_weights_still_split(self):
        # (1, i) has zero weighted square sum; the witness must not rely on it
        seed = Seed(1, 3, Mat([[1, I, 2]]), (q(0), q(2), q(2), q(7)))
        verdict = indecomposable(seed)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(build_rep(seed), verdict.witness)

    def test_undecided_case_reports_endomorphisms(self):
        seed = Seed(2, 2, Mat([[1, 1], [1, 1]]), (q(1), q(1), q(0), q(0)))
        verdict = indecomposable(seed)
        assert verdict.value == UNKNOWN
        assert verdict.endo_dim == 5
        assert verdict.endo_dim == oracle_commutant_dim(
            list(build_rep(seed).generators())
        )
        assert "5" in verdict.reason

    def test_undecided_builds_no_kernel(self, monkeypatch):
        """The undecided verdict reads dim End off one rank: no kernel
        vector is built, while endo_report on the same module builds them."""
        shapes = []
        original = linalg.kernel_and_pivots

        def counted(mat):
            shapes.append(mat.shape)
            return original(mat)

        monkeypatch.setattr(linalg, "kernel_and_pivots", counted)
        monkeypatch.setattr(classify, "kernel_and_pivots", counted)
        seed = Seed(2, 2, Mat([[1, 1], [1, 1]]), (q(1), q(1), q(0), q(0)))
        assert indecomposable(seed).endo_dim == 5
        assert shapes == []
        assert endo_report(build_rep(seed)).dimension == 5
        assert shapes

    def test_undecided_dimension_matches_basis_and_oracle(self):
        # repeated shifts on both sides (fewer values than coordinates) and
        # a rhizomatic coupling: every seed is undecided
        rng = random.Random(58)
        for _ in range(150):
            k, l = rng.randint(2, 5), rng.randint(2, 5)
            a = [random_gauss(rng) for _ in range(rng.randint(1, k - 1))]
            b = [random_gauss(rng) for _ in range(rng.randint(1, l - 1))]
            shifts = [rng.choice(a) for _ in range(k)] + [rng.choice(b) for _ in range(l)]
            seed = Seed(k, l, random_rhizomatic_matrix(rng, k, l), tuple(shifts))
            verdict = indecomposable(seed)
            assert verdict.value == UNKNOWN
            rep = build_rep(seed)
            assert verdict.endo_dim == endo_report(rep).dimension
            assert verdict.endo_dim == oracle_commutant_dim([rep.y1, rep.y2, rep.s])

    def test_random_regular_rhizomatic_is_indecomposable(self):
        rng = random.Random(56)
        for _ in range(20):
            seed = random_seed(rng, regular=True, rhizomatic=True)
            assert indecomposable(seed).value == INDECOMPOSABLE


class TestEndoReport:
    def test_scalar_endomorphisms(self):
        report = endo_report(build_rep(REFERENCE))
        assert report.dimension == 1
        assert report.all_diagonal

    def test_two_blocks_two_idempotents(self):
        seed = Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4)))
        report = endo_report(build_rep(seed))
        assert report.dimension == 2
        assert report.all_diagonal

    def test_nilpotent_directions_show_up(self):
        seed = Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0)))
        report = endo_report(build_rep(seed))
        assert report.dimension == 3
        assert not report.all_diagonal

    def test_members_commute_with_all_generators(self):
        rep = build_rep(Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0))))
        for m in endo_report(rep).basis:
            for g in rep.generators():
                assert m * g == g * m

    def test_dimension_matches_full_system(self):
        rng = random.Random(57)
        for _ in range(10):
            rep = build_rep(random_seed(rng, kmax=3, lmax=3))
            assert endo_report(rep).dimension == oracle_commutant_dim(
                [rep.y1, rep.y2, rep.s]
            )


class TestSplitWeightBlocks:
    def test_pure_core_passes_through(self):
        rep = build_rep(REFERENCE)
        partition, core, rest = split_weight_blocks(rep)
        assert partition.plus_block == (0, 1, 2)
        assert partition.minus_block == (3, 4)
        assert partition.other_blocks == ()
        assert core == rep
        assert rest is None

    def test_lone_weight_block_has_empty_core(self):
        block = make_weight_block(q(2), q(3), q(5))
        assert verify_periplectic(block).passed
        partition, core, rest = split_weight_blocks(block)
        assert partition.plus_block == ()
        assert partition.minus_block == ()
        assert partition.other_blocks == ((q(3), (0,), (1,)),)
        assert core.dim == 0
        assert rest == block

    def test_recovers_core_from_a_sum(self):
        core = build_rep(REFERENCE)
        for assembly in (
            [make_weight_block(q(2), q(3), q(5)), core],
            [core, make_weight_block(q(0, 1), q(-4), q(1))],
            [make_weight_block(q(1), q(3), q(2)), core, make_weight_block(q(0), q("5/2"), q(7))],
        ):
            total = direct_sum(assembly)
            assert verify_periplectic(total).passed
            partition, recovered, rest = split_weight_blocks(total)
            assert recovered == core
            assert rest is not None
            assert verify_periplectic(rest).passed

    def test_block_keys_sorted_ascending(self):
        total = direct_sum(
            [
                make_weight_block(q(1), q(3), q(2)),
                build_rep(REFERENCE),
                make_weight_block(q(0), q("5/2"), q(7)),
            ]
        )
        partition, _, _ = split_weight_blocks(total)
        keys = [key for key, _, _ in partition.other_blocks]
        assert keys == [q("5/2"), q(3)]

    def test_negative_weight_indices_pair_up(self):
        block = make_weight_block(q(2), q(3), q(5))
        total = direct_sum([block, build_rep(REFERENCE)])
        partition, _, _ = split_weight_blocks(total)
        (key, plus_side, minus_side), = partition.other_blocks
        assert key == q(3)
        assert plus_side == (0,)
        assert minus_side == (1,)
        assert partition.plus_block == (2, 3, 4)
        assert partition.minus_block == (5, 6)

    def test_requires_calibration(self):
        rep = build_rep(REFERENCE)
        # y1 = s breaks a relation, and relations are checked first
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(Rep(rep.k, rep.l, rep.s, rep.y2, rep.s, rep.e))
        assert str(info.value) == "input violates y1*y2 = y2*y1 at (0, 4): 1 != -1+2i"
        conjugate = _unitriangular_conjugate(rep, random.Random(6))
        assert verify_periplectic(conjugate).passed
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(conjugate)
        assert str(info.value) == "weight splitting needs diagonal y1 and y2"

    def test_rejects_weight_zero(self):
        flat = Rep(
            1,
            0,
            y1=Mat.diagonal([q(2)]),
            y2=Mat.diagonal([q(2)]),
            s=Mat.identity(1),
            e=Mat.zero(1, 1),
        )
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(flat)
        assert str(info.value) == "input violates s*y1 = y2*s - 1 - e at (0, 0): 2 != 1"

    def test_rejects_e_outside_corner(self):
        rep = build_rep(REFERENCE)
        bad_e = Mat(
            [
                [rep.e[i, j] if (i, j) != (3, 0) else q(1) for j in range(5)]
                for i in range(5)
            ],
            cols=5,
        )
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(Rep(rep.k, rep.l, rep.y1, rep.y2, rep.s, bad_e))
        assert str(info.value) == "input violates s*y1 = y2*s - 1 - e at (3, 0): 0 != -1"

    def test_rejects_wrong_s_diagonal(self):
        block = make_weight_block(q(2), q(3), q(5))
        bad_s = Mat([[q(1), block.s[0, 1]], [block.s[1, 0], block.s[1, 1]]])
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(Rep(1, 1, block.y1, block.y2, bad_s, block.e))
        assert str(info.value) == "input violates s*s = 1 at (0, 0): 17/9 != 1"

    def test_rejects_coupling_between_unpaired_weights(self):
        a = make_weight_block(q(2), q(3), q(5))
        b = make_weight_block(q(0), q(4), q(1))
        total = direct_sum([a, b])
        grid = [[total.s[i, j] for j in range(4)] for i in range(4)]
        grid[0][3] = q(1)
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(
                Rep(total.k, total.l, total.y1, total.y2, Mat(grid, cols=4), total.e)
            )
        assert str(info.value) == "input violates s*s = 1 at (0, 2): 15/16 != 0"


class TestSplitCore:
    def test_upper_triangular_core_stays_open(self):
        verdict = split_core(build_rep(REFERENCE))
        assert verdict.value == UNKNOWN
        assert "seed" in verdict.reason

    def test_two_sided_coupling_splits(self):
        rep = make_split_core(
            a_free=[q(4)],
            b_free=[q(1)],
            shared=q(6),
            coupling_up=Mat([[3]]),
            coupling_down=Mat([[q(0, 2)]]),
        )
        assert verify_periplectic(rep).passed
        verdict = split_core(rep)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(rep, verdict.witness)

    def test_wider_lower_block(self):
        rep = make_split_core(
            a_free=[q(4), q(5)],
            b_free=[q(1)],
            shared=q(6),
            coupling_up=Mat([[3], [1]]),
            coupling_down=Mat([[2, 7]]),
        )
        assert verify_periplectic(rep).passed
        verdict = split_core(rep)
        assert verdict.value == DECOMPOSABLE
        assert oracle_split_ok(rep, verdict.witness)

    def test_full_rank_square_lower_block_is_undecided(self):
        rep = make_split_core(
            a_free=[],
            b_free=[],
            shared=q(3),
            coupling_up=Mat([], cols=0),
            coupling_down=Mat.diagonal([q(1), q(7)]),
        )
        assert verify_periplectic(rep).passed
        verdict = split_core(rep)
        assert verdict.value == UNKNOWN
        assert "full rank" in verdict.reason

    def test_pure_lower_one_by_one_is_genuinely_indecomposable(self):
        """The 1x1 module with equal shifts and only the lower coupling has a
        single invariant line, so no splitting exists; the open verdict is
        the only sound answer."""
        rep = make_split_core(
            a_free=[],
            b_free=[],
            shared=q(2),
            coupling_up=Mat([], cols=0),
            coupling_down=Mat([[7]]),
        )
        assert verify_periplectic(rep).passed
        assert split_core(rep).value == UNKNOWN
        assert oracle_invariant_line_spaces(rep) == [(1, 1)]

    def test_rejects_non_involutive_s(self):
        base = make_split_core(
            a_free=[q(4)],
            b_free=[q(1)],
            shared=q(6),
            coupling_up=Mat([[3]]),
            coupling_down=Mat([[2]]),
        )
        grid = [[base.s[i, j] for j in range(4)] for i in range(4)]
        grid[2][1] = q(5)  # now the coupling blocks overlap
        with pytest.raises(PreconditionError) as info:
            split_core(Rep(2, 2, base.y1, base.y2, Mat(grid, cols=4), base.e))
        assert str(info.value) == "input violates s*s = 1 at (0, 1): 15 != 0"

    def test_rejects_mismatched_declared_split(self):
        rep = build_rep(REFERENCE)
        with pytest.raises(PreconditionError, match="declared split"):
            split_core(Rep(2, 3, rep.y1, rep.y2, rep.s, rep.e))

    def test_rejects_wrong_diagonal_blocks(self):
        rep = build_rep(REFERENCE)
        grid = [[rep.s[i, j] for j in range(5)] for i in range(5)]
        grid[0][1] = q(1)
        with pytest.raises(PreconditionError) as info:
            split_core(Rep(3, 2, rep.y1, rep.y2, Mat(grid, cols=5), rep.e))
        assert str(info.value) == "input violates s*s = 1 at (0, 1): -2 != 0"

    def test_rejects_wrong_lower_right_block(self):
        rep = build_rep(REFERENCE)
        grid = [[rep.s[i, j] for j in range(5)] for i in range(5)]
        grid[4][3] = q(1)
        with pytest.raises(PreconditionError) as info:
            split_core(Rep(3, 2, rep.y1, rep.y2, Mat(grid, cols=5), rep.e))
        assert str(info.value) == "input violates s*s = 1 at (0, 3): 1 != 0"

    def test_rejects_non_diagonal_weights(self):
        rep = build_rep(REFERENCE)
        grid = [[rep.y1[i, j] for j in range(5)] for i in range(5)]
        grid[0][1] = q(1)
        bad = Rep(3, 2, Mat(grid, cols=5), rep.y2, rep.s, rep.e)
        # split_weight_blocks checks the relations, which `bad` breaks, first
        with pytest.raises(PreconditionError) as info:
            split_weight_blocks(bad)
        assert str(info.value) == "input violates y1*y2 = y2*y1 at (0, 1): -1-2i != -1+2i"
        conjugate = _unitriangular_conjugate(rep, random.Random(7))
        assert verify_periplectic(conjugate).passed
        # every reader of the weights refuses in the same words
        for operation, name, inputs in (
            (split_core, "core splitting", (bad, conjugate)),
            (split_weight_blocks, "weight splitting", (conjugate,)),
            (extension_profile, "extension profile", (bad, conjugate)),
        ):
            for module in inputs:
                with pytest.raises(PreconditionError) as info:
                    operation(module)
                assert str(info.value) == f"{name} needs diagonal y1 and y2"


def _splitter_input(kind: str, rng: random.Random) -> Rep:
    """A module that satisfies the relations: a built seed, a shuffled
    direct sum of one with weight blocks, or a core split by make_split_core."""
    if kind == "built":
        return build_rep(random_seed(rng, 3, 3))
    if kind == "sum":
        parts = [build_rep(random_seed(rng, 2, 2))]
        parts += [
            make_weight_block(random_gauss(rng), q(rng.randint(2, 4), rng.randint(-2, 2)),
                              random_nonzero_gauss(rng))
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(parts)
        return direct_sum(parts)
    def block(rows: int, cols: int) -> Mat:
        return Mat([[random_gauss(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)

    na, nb = rng.randint(1, 2), rng.randint(1, 2)
    return make_split_core(
        a_free=[random_gauss(rng) for _ in range(na)],
        b_free=[random_gauss(rng) for _ in range(nb)],
        shared=random_gauss(rng),
        coupling_up=block(na, nb),
        coupling_down=block(rng.randint(1, 2), rng.randint(1, 2)),
    )


def _refuses(operation, rep: Rep) -> bool:
    try:
        operation(rep)
    except PreconditionError:
        return True
    return False


class TestSplittersCheckRelations:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(("built", "sum", "core")),
        st.sampled_from((None, "s", "e", "conjugate")),
        st.integers(0, 2**32 - 1),
    )
    def test_refuse_exactly_what_verify_shape_or_calibration_refuses(self, kind, change, seed):
        rng = random.Random(seed)
        rep = _splitter_input(kind, rng)
        assert verify_periplectic(rep).passed
        n = rep.dim
        if change == "conjugate":
            rep = _unitriangular_conjugate(rep, rng)
        elif change is not None:
            rep = _changed(rep, change, rng.randrange(n), rng.randrange(n), q(rng.randint(1, 3)))
        fails = not verify_periplectic(rep).passed
        calibrated = rep.is_calibrated
        core_shaped = calibrated and [rep.y1[i, i] - rep.y2[i, i] for i in range(n)] == (
            [q(1)] * rep.k + [q(-1)] * rep.l
        )
        assert _refuses(split_weight_blocks, rep) == (fails or not calibrated)
        assert _refuses(split_core, rep) == (fails or not core_shaped)


class TestENonzeroGuarantee:
    def test_reference_seed(self):
        assert e_nonzero_guarantee(REFERENCE)
        assert not e_is_zero(build_rep(REFERENCE))

    def test_non_regular_gives_no_guarantee(self):
        assert not e_nonzero_guarantee(Seed(2, 1, Mat([[1], [1]]), (q(3), q(3), q(0))))

    def test_non_rhizomatic_gives_no_guarantee(self):
        assert not e_nonzero_guarantee(
            Seed(2, 2, Mat.identity(2), (q(1), q(2), q(3), q(4)))
        )

    def test_single_entry_with_equal_shifts_is_the_exception(self):
        # regular and rhizomatic, yet e = (a - b) * s = 0; no second entry
        # exists to push the contradiction through
        seed = Seed(1, 1, Mat([[1]]), (q(7), q(7)))
        assert not e_nonzero_guarantee(seed)
        assert e_is_zero(build_rep(seed))

    def test_single_entry_with_distinct_shifts(self):
        seed = Seed(1, 1, Mat([[1]]), (q(7), q(8)))
        assert e_nonzero_guarantee(seed)
        assert not e_is_zero(build_rep(seed))

    def test_guarantee_never_lies(self):
        rng = random.Random(58)
        for _ in range(40):
            seed = random_seed(rng)
            if e_nonzero_guarantee(seed):
                assert not e_is_zero(build_rep(seed))


class TestCodecs:
    def test_canonical_json_structure(self):
        data = canonical_to_json(canonical_form(REFERENCE))
        assert set(data) == {"ab", "S"}
        assert len(data["ab"]) == 5

    def test_canonical_json_bytes_identify_orbits(self):
        g = MonomialPair((2, 0, 1), (q(4), q(1), q(0, 3)), (0, 1), (q(1), q(-2)))
        blob1 = json.dumps(canonical_to_json(canonical_form(REFERENCE)), sort_keys=True)
        blob2 = json.dumps(
            canonical_to_json(canonical_form(group_act(g, REFERENCE))), sort_keys=True
        )
        assert blob1.encode() == blob2.encode()

    def test_verdict_json(self):
        data = verdict_to_json(indecomposable(REFERENCE))
        assert data["verdict"] == INDECOMPOSABLE
        assert data["witness"] is None
        unknown = verdict_to_json(
            indecomposable(Seed(2, 2, Mat([[1, 1], [1, 1]]), (q(1), q(1), q(0), q(0))))
        )
        assert unknown["endo_dim"] == 5
