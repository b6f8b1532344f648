"""Construction of the seeded modules and their composition data."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from periplectic import (
    CodecError,
    GaussRat,
    Mat,
    PreconditionError,
    Rep,
    Seed,
    ShapeError,
    build_hecke_module,
    build_one_dim,
    build_rep,
    e_is_zero,
    entrywise_e,
    extension_profile,
    seed_from_json,
    seed_to_json,
    verify_hecke,
    verify_periplectic,
)
from periplectic.sampling import random_gauss, random_matrix, random_seed

from oracles import oracle_build_rep, to_pair

TWO_I = GaussRat(0, 2)

REFERENCE = Seed(
    3,
    2,
    coupling=Mat([[0, 1], [-3, 5], [2, 0]]),
    eigenvalues=(TWO_I, -TWO_I, GaussRat(1), GaussRat(-1), GaussRat(1)),
)


class TestOneDim:
    def test_plus_line(self):
        rep = build_one_dim(GaussRat(3), "+")
        assert (rep.k, rep.l) == (0, 1)
        assert rep.y1 == Mat([[3]])
        assert rep.y2 == Mat([[4]])
        assert rep.s == Mat([[1]])
        assert e_is_zero(rep)
        assert verify_periplectic(rep).passed

    def test_minus_line(self):
        rep = build_one_dim(GaussRat(0, 1), "-")
        assert (rep.k, rep.l) == (1, 0)
        assert rep.y2 == Mat([[GaussRat(-1, 1)]])
        assert rep.s == Mat([[-1]])
        assert verify_periplectic(rep).passed

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            build_one_dim(GaussRat(1), "plus")


class TestHeckeModule:
    def test_structure(self):
        coupling = Mat([[2], [7]])
        rep = build_hecke_module(2, 1, coupling)
        assert rep.y1 == Mat.diagonal([0, 0, -1])
        assert rep.y2 == Mat.diagonal([-1, -1, 0])
        assert rep.s == Mat([[-1, 0, 2], [0, -1, 7], [0, 0, 1]])
        assert e_is_zero(rep)
        assert verify_hecke(rep).passed

    def test_conjugation_identity(self):
        # s*y1*s + s = y2 is a rewrite of the first mixed relation
        rep = build_hecke_module(2, 2, Mat([[1, 0], [4, -5]]))
        assert rep.s * rep.y1 * rep.s + rep.s == rep.y2

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            build_hecke_module(2, 1, Mat([[1, 2]]))
        with pytest.raises(ShapeError, match="k and l must be non-negative integers"):
            build_hecke_module(2.0, 1, Mat([[1], [2]]))


class TestBuildRep:
    def test_zero_shifts_reduce_to_hecke_module(self):
        coupling = Mat([[1], [3]])
        seed = Seed(2, 1, coupling, (GaussRat(0),) * 3)
        assert build_rep(seed) == build_hecke_module(2, 1, coupling)

    def test_constant_shift_kills_e(self):
        rng = random.Random(31)
        for _ in range(10):
            seed = random_seed(rng, constant=True)
            rep = build_rep(seed)
            assert e_is_zero(rep)
            assert verify_hecke(rep).passed

    def test_generic_shift_passes_all_relations(self):
        rng = random.Random(32)
        for _ in range(25):
            assert verify_periplectic(build_rep(random_seed(rng))).passed

    def test_e_matches_entrywise_formula(self):
        rng = random.Random(33)
        for _ in range(25):
            seed = random_seed(rng)
            assert build_rep(seed).e == entrywise_e(seed)

    def test_reference_e_block(self):
        rep = build_rep(REFERENCE)
        corner = rep.e.submatrix(range(3), range(3, 5))
        assert corner == Mat(
            [
                [GaussRat(0), GaussRat(-1, 2)],
                [GaussRat(-3, 6), GaussRat(-5, -10)],
                [GaussRat(4), GaussRat(0)],
            ]
        )
        assert rep.e.submatrix(range(5), range(3)).is_zero()
        assert rep.e.submatrix(range(3, 5), range(5)).is_zero()

    # shifts half drawn from this pool, so that equal shifts on both sides
    # and a shift of 1 (b - 1 = 0) are common
    POOL = (
        GaussRat(1),
        GaussRat(0),
        GaussRat(0, 1),
        GaussRat(2, -3),
        GaussRat(Fraction(1, 2), Fraction(-1, 3)),
        GaussRat(-1),
    )

    def test_generators_match_closed_forms_oracle(self):
        rng = random.Random(41)
        seen: Counter = Counter()
        for _ in range(240):
            k, l = rng.randint(0, 5), rng.randint(0, 5)
            coupling = random_matrix(rng, k, l, density=rng.uniform(0.2, 0.9))
            ab = tuple(
                rng.choice(self.POOL) if rng.random() < 0.5 else random_gauss(rng)
                for _ in range(k + l)
            )
            seed = Seed(k, l, coupling, ab)
            self._assert_matches_oracle(build_rep(seed), seed)
            seen["gaussian shift"] += any(x.im for x in ab)
            seen["a_i = b_j on a coupled pair"] += any(
                seed.a[i] == seed.b[j] for i, row in enumerate(coupling.nonzero) for j in row
            )
            seen["shift 1"] += GaussRat(1) in ab
            seen["zero coupling row or column"] += bool(k and l) and (
                not all(coupling.nonzero) or not all(coupling.transpose().nonzero)
            )
            seen["k = 0 or l = 0"] += not (k and l)
        assert len(seen) == 5 and min(seen.values()) >= 20, seen
        # the Hecke modules (every shift 0) and the one-dimensional modules
        # (k + l = 1) are seeds too, and their builders answer to the oracle
        for k in range(4):
            for l in range(4):
                coupling = random_matrix(rng, k, l, density=0.6)
                seed = Seed(k, l, coupling, (GaussRat(0),) * (k + l))
                self._assert_matches_oracle(build_rep(seed), seed)
                self._assert_matches_oracle(build_hecke_module(k, l, coupling), seed)
        for x in self.POOL + (random_gauss(rng),):
            minus = Seed(1, 0, Mat.zero(1, 0), (x,))
            plus = Seed(0, 1, Mat.zero(0, 1), (x + GaussRat(1),))
            for sign, seed in (("-", minus), ("+", plus)):
                self._assert_matches_oracle(build_rep(seed), seed)
                self._assert_matches_oracle(build_one_dim(x, sign), seed)

    @staticmethod
    def _assert_matches_oracle(rep: Rep, seed: Seed) -> None:
        expected = oracle_build_rep(seed)
        assert (rep.k, rep.l) == (seed.k, seed.l), seed
        for name, m in zip(("y1", "y2", "s", "e"), rep.generators()):
            assert [[to_pair(x) for x in row] for row in m.entries] == expected[name], (name, seed)
            assert all(x for row in m.nonzero for x in row.values()), (name, seed)


class TestSeed:
    def test_split_properties(self):
        assert REFERENCE.a == (TWO_I, -TWO_I, GaussRat(1))
        assert REFERENCE.b == (GaussRat(-1), GaussRat(1))

    def test_validation(self):
        with pytest.raises(ShapeError):
            Seed(2, 1, Mat([[1]]), (GaussRat(0),) * 3)
        with pytest.raises(ShapeError):
            Seed(1, 1, Mat([[1]]), (GaussRat(0),))
        with pytest.raises(ShapeError):
            Seed(-1, 1, Mat([], cols=1), (GaussRat(0),))
        # sizes must be ints: 2.0 == 2, so only the size check catches them
        for k, l in ((2.0, 1), (2, 1.0), (True, 1), (2, True)):
            with pytest.raises(ShapeError, match="k and l must be non-negative integers"):
                Seed(k, l, Mat([[1], [2]]), (1, 2, 3))

    def test_eigenvalues_coerced(self):
        seed = Seed(1, 1, Mat([[1]]), ("1/2", 3))
        assert seed.a == (GaussRat("1/2"),)


class TestExtensionProfile:
    def test_reference_factors(self):
        profile = extension_profile(build_rep(REFERENCE))
        assert profile.socle_factors == (
            ("-", TWO_I),
            ("-", -TWO_I),
            ("-", GaussRat(1)),
        )
        assert profile.quotient_factors == (("+", GaussRat(-2)), ("+", GaussRat(0)))

    def test_factors_are_the_one_dim_modules(self):
        rng = random.Random(34)
        seed = random_seed(rng)
        profile = extension_profile(build_rep(seed))
        assert profile.socle_factors == tuple(("-", a) for a in seed.a)
        assert profile.quotient_factors == tuple(("+", b - GaussRat(1)) for b in seed.b)
        for sign, value in profile.socle_factors + profile.quotient_factors:
            assert verify_periplectic(build_one_dim(value, sign)).passed

    def test_requires_calibration(self):
        rep = build_rep(REFERENCE)
        with pytest.raises(PreconditionError):
            extension_profile(Rep(rep.k, rep.l, rep.s, rep.y2, rep.s, rep.e))

    def test_requires_sorted_weights(self):
        scrambled = Rep(
            1,
            1,
            y1=Mat.diagonal([0, 5]),
            y2=Mat.diagonal([1, 4]),
            s=Mat.diagonal([1, -1]),
            e=Mat.zero(2, 2),
        )
        with pytest.raises(PreconditionError, match="block shape"):
            extension_profile(scrambled)

    def test_requires_matching_declared_split(self):
        rep = build_rep(Seed(1, 1, Mat([[1]]), (GaussRat(4), GaussRat(0))))
        relabeled = Rep(0, 2, rep.y1, rep.y2, rep.s, rep.e)
        with pytest.raises(PreconditionError, match="declared split"):
            extension_profile(relabeled)


class TestSeedCodec:
    def test_round_trip(self):
        assert seed_from_json(seed_to_json(REFERENCE)) == REFERENCE

    def test_json_shape(self):
        data = seed_to_json(REFERENCE)
        assert set(data) == {"k", "l", "S", "ab"}
        assert data["k"] == 3
        assert len(data["ab"]) == 5

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("S"),
            lambda d: d.update(k="3"),
            lambda d: d.update(ab=d["ab"][:-1]),
            lambda d: d.update(S=[]),
            lambda d: d.update(k=True),
            lambda d: d.update(l=False),
        ],
    )
    def test_malformed_input(self, mutate):
        data = seed_to_json(REFERENCE)
        mutate(data)
        with pytest.raises(CodecError):
            seed_from_json(data)

    def test_non_object(self):
        with pytest.raises(CodecError):
            seed_from_json("seed")
