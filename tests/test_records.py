"""The immutable records: construction, equality, hashing, repr, refusal of
assignment, and copy and pickle round trips of every record type and of
`Mat`."""

from __future__ import annotations

import copy
import pickle

import pytest

import periplectic
from periplectic import (
    GaussRat,
    Mat,
    MonomialPair,
    Rep,
    Seed,
    ShapeError,
    Verdict,
    analyze,
    build_rep,
    canonical_form,
    endo_report,
    extension_profile,
    indecomposable,
    scaling_normalize,
    split_weight_blocks,
    verify_periplectic,
)
from periplectic.record import Record

SEED = Seed(
    3,
    2,
    Mat([[0, 1], [-3, 5], [2, 0]]),
    (GaussRat(0, 2), GaussRat(0, -2), GaussRat(1), GaussRat(-1), GaussRat(1)),
)
SPLIT_SEED = Seed(2, 2, Mat.identity(2), (GaussRat(1), GaussRat(2), GaussRat(3), GaussRat(4)))


def _broken_rep() -> Rep:
    rep = build_rep(SEED)
    return Rep(rep.k, rep.l, rep.y1, rep.y2, rep.s, Mat.zero(5, 5))


def _every_record() -> dict[str, Record]:
    rep = build_rep(SEED)
    report = verify_periplectic(_broken_rep())
    return {
        "Rep": rep,
        "Violation": report.violations[0],
        "RelationReport": report,
        "Seed": SEED,
        "ExtensionProfile": extension_profile(rep),
        "RhizomeReport": analyze(SEED.coupling),
        "ScalingNormalization": scaling_normalize(SEED.coupling),
        "MonomialPair": MonomialPair((1, 0, 2), (GaussRat(2), GaussRat(0, 1), 3), (1, 0), (5, 7)),
        "EndoReport": endo_report(build_rep(SPLIT_SEED)),
        "Verdict": indecomposable(SPLIT_SEED),
        "CanonicalForm": canonical_form(SEED),
        "WeightBlockPartition": split_weight_blocks(rep)[0],
    }


class _ProfileTwin(Record):
    """ExtensionProfile's fields under another record type."""

    __slots__ = ("socle_factors", "quotient_factors")


RECORDS = _every_record()
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def test_every_record_type_is_covered():
    exported = [getattr(periplectic, name) for name in periplectic.__all__]
    record_types = [x for x in exported if isinstance(x, type) and issubclass(x, Record)]
    assert sorted(RECORDS) == sorted(cls.__name__ for cls in record_types)
    for name, record in RECORDS.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_round_trips(name, how):
    record = RECORDS[name]
    clone = ROUND_TRIPS[how](record)
    assert type(clone) is type(record)
    assert clone == record
    assert repr(clone) == repr(record)
    if name != "RhizomeReport":  # holds a dict, so it has no hash
        assert hash(clone) == hash(record)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize(
    "matrix",
    [Mat([[1, 0], [0, 2]]), Mat([[GaussRat("1/3", -2), 0, 5]]), Mat([], cols=3), Mat.zero(2, 0)],
)
def test_mat_round_trips(matrix, how):
    clone = ROUND_TRIPS[how](matrix)
    assert type(clone) is Mat
    assert clone == matrix
    assert clone.shape == matrix.shape
    assert clone.entries == matrix.entries
    assert hash(clone) == hash(matrix)


def test_positional_and_keyword_construction_agree():
    by_keyword = Seed(
        eigenvalues=SEED.eigenvalues, coupling=SEED.coupling, l=SEED.l, k=SEED.k
    )
    mixed = Seed(SEED.k, SEED.l, eigenvalues=SEED.eigenvalues, coupling=SEED.coupling)
    assert by_keyword == SEED
    assert mixed == SEED


def test_field_order_and_repr():
    assert Seed.__slots__ == ("k", "l", "coupling", "eigenvalues")
    assert Rep.__slots__ == ("k", "l", "y1", "y2", "s", "e")
    assert Verdict.__slots__ == ("value", "reason", "witness", "endo_dim")
    verdict = Verdict("unknown", "why", endo_dim=2)
    assert repr(verdict) == "Verdict(value='unknown', reason='why', witness=None, endo_dim=2)"


def test_verdict_defaults():
    verdict = Verdict("indecomposable", "reason")
    assert verdict.witness is None
    assert verdict.endo_dim is None
    assert verdict == Verdict("indecomposable", "reason", None, None)


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError):
        Seed(1, 1, Mat([[1]]))
    with pytest.raises(TypeError):
        Seed(1, 1, Mat([[1]]), (1, 2), (3,))
    with pytest.raises(TypeError):
        Seed(1, 1, Mat([[1]]), (1, 2), shifts=(1, 2))
    with pytest.raises(TypeError):
        Seed(1, 1, Mat([[1]]), (1, 2), k=1)


def test_post_init_checks_run():
    with pytest.raises(ShapeError, match="coupling must be 2x1"):
        Seed(2, 1, Mat([[1, 2]]), (1, 2, 3))
    with pytest.raises(ShapeError, match="expected 3 eigenvalues"):
        Seed(2, 1, Mat([[1], [2]]), (1, 2))
    with pytest.raises(ShapeError, match="e must be 2x2"):
        Rep(1, 1, Mat.identity(2), Mat.identity(2), Mat.identity(2), Mat.identity(3))
    with pytest.raises(ValueError, match="is not a permutation"):
        MonomialPair((0, 0), (1, 1), (0,), (1,))
    # normalisation by __post_init__ also happens on the keyword path
    seed = Seed(k=1, l=1, coupling=Mat([[1]]), eigenvalues=[1, "1/2"])
    assert seed.eigenvalues == (GaussRat(1), GaussRat("1/2"))


def test_equality_needs_the_same_type():
    profile = RECORDS["ExtensionProfile"]
    assert Seed.__eq__(SEED, (3, 2, SEED.coupling, SEED.eigenvalues)) is NotImplemented
    assert SEED != (3, 2, SEED.coupling, SEED.eigenvalues)
    twin = _ProfileTwin(profile.socle_factors, profile.quotient_factors)
    assert twin != profile
    assert profile != twin


def test_hash_is_by_value():
    twin = Seed(SEED.k, SEED.l, Mat(SEED.coupling.entries), tuple(SEED.eigenvalues))
    assert twin is not SEED
    assert hash(twin) == hash(SEED)
    assert len({SEED, twin}) == 1


def test_assignment_and_deletion_raise():
    with pytest.raises(AttributeError):
        SEED.k = 4
    with pytest.raises(AttributeError):
        del SEED.k
    with pytest.raises(AttributeError):
        SEED.extra = 1
    assert SEED.k == 3
