"""Acceptance suite: ten exact end-to-end checks over the whole library.

Every check is exact (tolerance 0) and prints one PASS/FAIL line; random
data is drawn from fixed-seed generators so reruns are bit-identical.
"""

from __future__ import annotations

import json
import random

from periplectic import (
    DECOMPOSABLE,
    GaussRat,
    INDECOMPOSABLE,
    Mat,
    Seed,
    analyze,
    bipartite_components,
    build_rep,
    canonical_form,
    canonical_to_json,
    e_is_zero,
    e_sandwich_zero,
    endo_report,
    entrywise_e,
    group_act,
    indecomposable,
    isomorphic,
    parse_pattern,
    split_weight_blocks,
    split_core,
    verify_periplectic,
)
from periplectic.sampling import (
    random_monomial_pair,
    random_nonzero_gauss,
    random_polynomial,
    random_regular_ab,
    random_rhizomatic_matrix,
    random_seed,
)

from oracles import (
    brute_force_isomorphic,
    direct_sum,
    make_split_core,
    make_weight_block,
    oracle_build_rep,
    oracle_split_ok,
    pair_monomial,
    pair_product,
)

PATTERN_TWO_CLASSES = (
    "...**.**..\n*........*\n.*.***....\n........*.\n..*......*\n.*..***...\n..*.....*."
)
PATTERN_UNCOVERED = (
    ".....*...*\n...***....\n..........\n...*...**.\n*..*......\n..........\n.........*"
)
PATTERN_RHIZOMATIC = (
    "*.*...*.*.\n*........*\n.*...*.*..\n...**...*.\n..*.**...*\n.*........\n*.*...*.*."
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_relations_hold_on_random_modules():
    rng = random.Random(1001)
    ok = all(
        verify_periplectic(build_rep(random_seed(rng, kmax=5, lmax=5))).passed
        for _ in range(200)
    )
    _report(1, "nine defining relations on 200 random modules", ok)


def test_criterion_02_e_matches_entrywise_formula():
    rng = random.Random(1001)  # same stream as criterion 1
    ok = True
    for _ in range(200):
        seed = random_seed(rng, kmax=5, lmax=5)
        rep = build_rep(seed)
        derived = -(rep.s * rep.y2) + rep.y1 * rep.s + Mat.identity(rep.dim)
        expected = entrywise_e(seed)
        ok = ok and rep.e == derived == expected
    _report(2, "derived e block equals the entrywise shift formula", ok)


def test_criterion_03_published_pattern_classifications():
    two_classes = analyze(parse_pattern(PATTERN_TWO_CLASSES))
    uncovered = analyze(parse_pattern(PATTERN_UNCOVERED))
    connected = analyze(parse_pattern(PATTERN_RHIZOMATIC))
    ok = (
        two_classes.n_classes == 2
        and not two_classes.is_rhizomatic
        and uncovered.n_classes == 1
        and uncovered.zero_rows == 2
        and uncovered.zero_cols == 3
        and not uncovered.is_rhizomatic
        and connected.is_rhizomatic
        and not analyze(Mat.identity(4)).is_rhizomatic
        and analyze(Mat([[1] * 4 for _ in range(3)], cols=4)).is_rhizomatic
    )
    _report(3, "reference zero-pattern classifications", ok)


def test_criterion_04_endomorphism_dimension_identity():
    rng = random.Random(1004)
    ok = True
    for _ in range(100):
        seed = random_seed(rng, kmax=4, lmax=4, regular=True)
        report = endo_report(build_rep(seed))
        rhz = analyze(seed.coupling)
        expected = rhz.n_classes + rhz.zero_rows + rhz.zero_cols
        ok = ok and report.dimension == expected and report.all_diagonal
        ok = ok and len(bipartite_components(seed.coupling)) == expected
    _report(4, "endomorphism dimension counts coupling components", ok)


def test_criterion_05_repeated_shift_witness():
    repeated = Seed(2, 1, Mat([[1], [2]]), (GaussRat(3), GaussRat(3), GaussRat(0)))
    report = endo_report(build_rep(repeated))
    basis = report.basis
    non_commutative = any(
        x * y != y * x for x in basis for y in basis
    )
    verdict = indecomposable(repeated)
    ok = (
        report.dimension == 3
        and non_commutative
        and verdict.value == DECOMPOSABLE
        and oracle_split_ok(build_rep(repeated), verdict.witness)
    )
    distinct = Seed(2, 1, Mat([[1], [2]]), (GaussRat(3), GaussRat(4), GaussRat(0)))
    ok = (
        ok
        and endo_report(build_rep(distinct)).dimension == 1
        and indecomposable(distinct).value == INDECOMPOSABLE
    )
    _report(5, "repeated shift against a line: triangular endomorphisms", ok)


def test_criterion_06_canonical_form_orbit_invariance():
    rng = random.Random(1006)
    ok = True
    for _ in range(100):
        seed = random_seed(rng, regular=True, rhizomatic=True)
        g = random_monomial_pair(rng, seed.k, seed.l)
        acted = group_act(g, seed)
        blob = json.dumps(canonical_to_json(canonical_form(seed)), sort_keys=True)
        acted_blob = json.dumps(
            canonical_to_json(canonical_form(acted)), sort_keys=True
        )
        ok = ok and blob.encode() == acted_blob.encode()
        # M' X = X M for each generator M of the seed's module and M' of
        # the acted seed's, with X the monomial matrix of g
        x, n = pair_monomial(g), seed.k + seed.l
        acted_gens = oracle_build_rep(acted)
        ok = ok and all(
            pair_product(acted_gens[name], x, n) == pair_product(x, m, n)
            for name, m in oracle_build_rep(seed).items()
        )
    _report(6, "canonical form fixed on orbits; action is conjugation", ok)


def test_criterion_07_isomorphism_matches_orbit_search():
    rng = random.Random(1007)
    ok = True
    for trial in range(50):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        seed1 = Seed(
            k, l, random_rhizomatic_matrix(rng, k, l), random_regular_ab(rng, k, l)
        )
        if trial % 2:
            seed2 = group_act(random_monomial_pair(rng, k, l), seed1)
        else:
            seed2 = Seed(
                k, l, random_rhizomatic_matrix(rng, k, l), random_regular_ab(rng, k, l)
            )
        ok = ok and isomorphic(seed1, seed2) == brute_force_isomorphic(seed1, seed2)
    _report(7, "isomorphism test agrees with brute-force orbit search", ok)


def test_criterion_08_e_nonzero_and_zero_regimes():
    rng = random.Random(1008)
    ok = all(
        not e_is_zero(build_rep(random_seed(rng, regular=True, rhizomatic=True)))
        for _ in range(100)
    )
    ok = ok and all(
        e_is_zero(build_rep(random_seed(rng, constant=True))) for _ in range(20)
    )
    _report(8, "e nonzero in the regular rhizomatic regime, zero off it", ok)


def test_criterion_09_splitters_recover_block_structure():
    rng = random.Random(1009)
    ok = True
    weight_pool = [
        GaussRat("2"),
        GaussRat("5/2"),
        GaussRat("3"),
        GaussRat("7/2"),
        GaussRat("4"),
        GaussRat("9/2"),
    ]
    for _ in range(20):
        core = build_rep(random_seed(rng))
        keys = rng.sample(weight_pool, rng.randint(1, 3))
        blocks = [
            make_weight_block(random_nonzero_gauss(rng), d, random_nonzero_gauss(rng))
            for d in keys
        ]
        items: list = [*blocks, core]
        rng.shuffle(items)
        total = direct_sum(items)
        ok = ok and verify_periplectic(total).passed
        _, recovered, rest = split_weight_blocks(total)
        expected_rest = direct_sum(
            [b for _, b in sorted(zip(keys, blocks), key=lambda pair: pair[0])]
        )
        ok = ok and recovered == core and rest == expected_rest
    def dense(rows: int, cols: int) -> Mat:
        return Mat(
            [[random_nonzero_gauss(rng) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )

    for _ in range(10):
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        rep = make_split_core(
            a_free=[random_nonzero_gauss(rng) for _ in range(na)],
            b_free=[random_nonzero_gauss(rng) for _ in range(nb)],
            shared=random_nonzero_gauss(rng),
            coupling_up=dense(na, nb),
            coupling_down=dense(rng.randint(1, 2), rng.randint(1, 2)),
        )
        ok = ok and verify_periplectic(rep).passed
        verdict = split_core(rep)
        ok = ok and verdict.value == DECOMPOSABLE
        ok = ok and oracle_split_ok(rep, verdict.witness)
    _report(9, "weight-block and core splitters return verified summands", ok)


def test_criterion_10_sandwich_identity():
    rng = random.Random(1010)
    reps = [build_rep(random_seed(rng)) for _ in range(50)]
    polys = [random_polynomial(rng, max_degree=3) for _ in range(50)]
    ok = all(e_sandwich_zero(rep, poly) for rep in reps for poly in polys)
    _report(10, "e * f(y1, y2) * e vanishes for polynomial f", ok)
