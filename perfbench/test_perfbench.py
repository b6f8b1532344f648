"""Tests of the benchmark itself: its generator and its output checkers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import periplectic as P  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import qi  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _docs(items):
    return [
        (item.kind, item.seed and item.seed.doc(), item.acted and item.acted.doc(),
         item.control and item.control.doc(), item.rep and gen.rep_doc(item.rep))
        for item in items
    ]


@pytest.mark.parametrize("batch", [gen.endo_batch, gen.classify_batch, gen.cli_batch])
def test_generator_is_deterministic_per_seed(batch):
    assert _docs(batch(7)) == _docs(batch(7))
    assert _docs(batch(7)) != _docs(batch(8))


def test_batches_keep_their_make_up_across_seeds():
    for batch in (gen.endo_batch, gen.classify_batch, gen.cli_batch):
        shapes = [
            sorted((i.kind, i.seed and (i.seed.k, i.seed.l), i.rep and i.rep["k"]) for i in batch(s))
            for s in (1, 2)
        ]
        assert shapes[0] == shapes[1]


def _first(kind):
    return next(item for item in gen.classify_batch(1) if item.kind == kind)


def _program_seed(seed: gen.Seed):
    return P.seed_from_json(seed.doc())


def _pairs(m):
    return [[(x.re, x.im) for x in row] for row in m.entries]


def _witness(verdict):
    return [[[(x.re, x.im) for x in v] for v in part] for part in verdict.witness]


def _bump(x):
    return (x[0] + 1, x[1])


def test_module_checker_rejects_a_perturbed_e_entry():
    seed = gen.endo_batch(1)[0].seed
    rep = P.build_rep(_program_seed(seed))
    mats = {name: _pairs(getattr(rep, name)) for name in ("y1", "y2", "s", "e")}
    checks.check_module(seed, mats)
    mats["e"][0][seed.k] = _bump(mats["e"][0][seed.k])
    with pytest.raises(CheckFailed):
        checks.check_module(seed, mats)


def test_relation_checker_needs_the_perturbed_copy_to_fail():
    checks.check_relations(True, False)
    with pytest.raises(CheckFailed):
        checks.check_relations(True, True)
    with pytest.raises(CheckFailed):
        checks.check_relations(False, False)


def test_endo_checker_rejects_a_wrong_dimension():
    seed = gen.endo_batch(1)[1].seed  # two components
    endo = P.endo_report(P.build_rep(_program_seed(seed)))
    checks.check_endo(seed, endo.dimension, [True] * endo.dimension)
    with pytest.raises(CheckFailed):
        checks.check_endo(seed, endo.dimension - 1, [True] * (endo.dimension - 1))


@pytest.mark.parametrize("kind", ["rhizomatic", "split", "line_repeat", "unknown"])
def test_verdict_checker_rejects_a_flipped_verdict(kind):
    item = _first(kind)
    verdict = P.indecomposable(_program_seed(item.seed))
    witness = None if verdict.witness is None else _witness(verdict)
    checks.check_verdict(item.seed, verdict.value, witness, verdict.endo_dim)
    flipped = checks.INDECOMPOSABLE if verdict.value != checks.INDECOMPOSABLE else checks.DECOMPOSABLE
    with pytest.raises(CheckFailed):
        checks.check_verdict(item.seed, flipped, witness, verdict.endo_dim)


def test_unknown_verdict_checker_rejects_a_wrong_endo_dimension():
    item = _first("unknown")
    verdict = P.indecomposable(_program_seed(item.seed))
    with pytest.raises(CheckFailed):
        checks.check_verdict(item.seed, verdict.value, None, verdict.endo_dim + 1)


@pytest.mark.parametrize("kind", ["split", "line_repeat"])
@pytest.mark.parametrize("part", [0, 1])
def test_witness_checker_rejects_a_witness_missing_one_vector(kind, part):
    item = _first(kind)
    verdict = P.indecomposable(_program_seed(item.seed))
    witness = _witness(verdict)
    checks.check_verdict(item.seed, verdict.value, witness, None)
    witness[part] = witness[part][:-1]
    with pytest.raises(CheckFailed):
        checks.check_verdict(item.seed, verdict.value, witness, None)


def test_witness_checker_rejects_a_non_invariant_part():
    item = _first("split")
    verdict = P.indecomposable(_program_seed(item.seed))
    part1, part2 = _witness(verdict)
    # swap one vector between the parts: still complementary, no longer invariant
    part1[0], part2[0] = part2[0], part1[0]
    with pytest.raises(CheckFailed):
        checks.check_witness(checks.seed_module(item.seed), [part1, part2])


def test_core_split_checker_rejects_a_witness_missing_one_vector():
    item = _first("core")
    rep = P.rep_from_json(gen.rep_doc(item.rep))
    partition, core, rest = P.split_weight_blocks(rep)
    verdict = P.split_core(core)
    args = (partition.plus_block, partition.minus_block, len(partition.other_blocks), rest is None)
    checks.check_core_split(item.rep, *args, verdict.value, _witness(verdict))
    part1, part2 = _witness(verdict)
    with pytest.raises(CheckFailed):
        checks.check_core_split(item.rep, *args, verdict.value, [part1, part2[:-1]])


def test_canonical_checker_rejects_one_changed_entry():
    item = _first("rhizomatic")
    form = P.canonical_form(_program_seed(item.seed))
    shifts = [(x.re, x.im) for x in form.eigenvalues]
    coupling = _pairs(form.coupling)
    checks.check_canonical(item.seed, shifts, coupling)
    checks.check_canonical(item.acted, shifts, coupling)
    i, j = next((i, j) for i, row in enumerate(coupling) for j, x in enumerate(row) if qi.nz(x))
    changed = [row[:] for row in coupling]
    changed[i][j] = _bump(changed[i][j])
    with pytest.raises(CheckFailed):
        checks.check_canonical(item.seed, shifts, changed)
    with pytest.raises(CheckFailed):
        checks.check_canonical(item.seed, [_bump(shifts[0])] + shifts[1:], coupling)


def test_isomorphism_checker():
    checks.check_isomorphic(True, False)
    for acted, control in ((False, False), (True, True)):
        with pytest.raises(CheckFailed):
            checks.check_isomorphic(acted, control)


def test_cli_checkers_reject_a_failed_relation_and_a_wrong_core_verdict():
    ok = "".join(f"ok   relation {t}\n" for t in range(checks.RELATIONS))
    checks.check_cli_verify(ok)
    with pytest.raises(CheckFailed):
        checks.check_cli_verify(ok.replace("ok  ", "FAIL", 1))
    seed = gen.cli_batch(1)[0].seed
    doc = {
        "plus_block": list(range(seed.k)),
        "minus_block": list(range(seed.k, seed.k + seed.l)),
        "other_blocks": [],
        "rest": None,
        "core_split": {"verdict": checks.UNKNOWN},
    }
    checks.check_cli_split(doc, seed)
    doc["core_split"]["verdict"] = checks.DECOMPOSABLE
    with pytest.raises(CheckFailed):
        checks.check_cli_split(doc, seed)


def test_own_rank_and_commutant():
    one, zero = qi.ONE, qi.ZERO
    assert qi.rank([[one, zero], [zero, one], [one, one]]) == 2
    half = (Fraction(1, 2), Fraction(0))
    assert qi.rank([[one, half], [(Fraction(2), Fraction(0)), one]]) == 1
    seed = gen.endo_batch(1)[1].seed
    m = checks.seed_module(seed)
    assert qi.commutant_dim(m["y1"], m["y2"], m["s"]) == qi.components(seed.coupling, seed.k, seed.l)
