"""Relation checking, polynomial evaluation, and representation codecs."""

from __future__ import annotations

import random

import pytest

from periplectic import (
    CodecError,
    GaussRat,
    I,
    Mat,
    Rep,
    Seed,
    ShapeError,
    build_rep,
    e_is_zero,
    e_sandwich_zero,
    poly_matrix,
    rep_from_json,
    rep_to_json,
    verify_hecke,
    verify_periplectic,
)
from periplectic.sampling import random_polynomial, random_seed

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
    first = report.violations[0]
    # the first nonzero entry of the dropped e block explains the mismatch
    assert first.position == (0, 4)
    assert first.lhs - first.rhs == GaussRat(1, -2)


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
