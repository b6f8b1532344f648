"""Output checkers.  Each raises CheckFailed on a wrong answer.

Checkers take the program's answers already converted to plain data
(pairs of Fractions, strings, ints) and compare them with what the
mathematics forces or with the benchmark's own computations in `qi`.
"""

from __future__ import annotations

import qi
from gen import Seed

INDECOMPOSABLE, DECOMPOSABLE, UNKNOWN = "indecomposable", "decomposable", "unknown"
RELATIONS = 9


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def seed_module(seed: Seed) -> dict:
    return qi.module(seed.k, seed.l, seed.coupling, seed.ab)


def check_module(seed: Seed, mats: dict) -> None:
    """The built module's y1, y2, s and e equal the closed form: y1 and y2
    carry the seed's shifts and e is (a_i - b_j) * S_ij in the k x l corner
    and zero elsewhere."""
    expected = seed_module(seed)
    for name in ("y1", "y2", "s", "e"):
        got, want = mats[name], expected[name]
        require(len(got) == len(want), f"{name} has {len(got)} rows, expected {len(want)}")
        for i, (grow, wrow) in enumerate(zip(got, want)):
            for j, (g, w) in enumerate(zip(grow, wrow)):
                require(g == w, f"{name}[{i}][{j}] is {g}, expected {w}")


def check_relations(passed: bool, perturbed_passed: bool | None) -> None:
    require(passed, "verify_periplectic rejects a built module")
    require(not perturbed_passed, "verify_periplectic accepts a perturbed s")


def check_endo(seed: Seed, dimension: int, basis_diagonal: list[bool]) -> None:
    """Regular shifts: the endomorphisms are diagonal, one per component of
    the coupling's row/column graph."""
    parts = qi.components(seed.coupling, seed.k, seed.l)
    require(dimension == parts, f"endo dimension {dimension}, coupling has {parts} components")
    require(len(basis_diagonal) == dimension, "endo basis size differs from its dimension")
    require(all(basis_diagonal), "an endomorphism basis element is not diagonal")


def expected_verdict(seed: Seed) -> str:
    k, l = seed.k, seed.l
    if k + l == 1:
        return INDECOMPOSABLE
    if qi.components(seed.coupling, k, l) >= 2:
        return DECOMPOSABLE
    if len(set(seed.ab[:k])) == k and len(set(seed.ab[k:])) == l:
        return INDECOMPOSABLE
    if k == 1 or l == 1:
        return DECOMPOSABLE
    return UNKNOWN


def check_witness(mats: dict, witness) -> None:
    """The two vector families span complementary subspaces, each invariant
    under y1, y2, s and e."""
    require(witness is not None and len(witness) == 2, "decomposable verdict without a witness")
    part1, part2 = (list(map(list, part)) for part in witness)
    n = len(mats["s"])
    require(bool(part1) and bool(part2), "a witness part is empty")
    require(len(part1) + len(part2) == n, "witness parts do not add up to the dimension")
    require(qi.rank(part1 + part2) == n, "witness parts are not complementary")
    for part in (part1, part2):
        images = [qi.apply(mats[g], v) for g in ("y1", "y2", "s", "e") for v in part]
        require(qi.rank(part + images) == len(part), "a witness part is not invariant")


def check_verdict(seed: Seed, value: str, witness, endo_dim) -> None:
    want = expected_verdict(seed)
    require(value == want, f"verdict {value}, expected {want}")
    if value == DECOMPOSABLE:
        check_witness(seed_module(seed), witness)
    else:
        require(witness is None, f"{value} verdict carries a witness")
    if value == UNKNOWN:
        m = seed_module(seed)
        dim = qi.commutant_dim(m["y1"], m["y2"], m["s"])
        require(endo_dim == dim, f"endo dimension {endo_dim}, expected {dim}")


def check_canonical(seed: Seed, shifts: list, coupling: list) -> None:
    want_shifts, want_coupling = qi.canonical(seed.k, seed.l, seed.coupling, seed.ab)
    require(list(shifts) == want_shifts, "canonical shifts differ")
    require([list(r) for r in coupling] == want_coupling, "canonical coupling differs")


def check_isomorphic(acted: bool, control: bool) -> None:
    require(acted, "a monomially acted copy is reported not isomorphic")
    require(not control, "a seed with other shifts is reported isomorphic")


def check_core_split(rep: dict, plus: list, minus: list, other: int, rest_none: bool,
                     value: str, witness) -> None:
    """A core-shaped module sorts into itself, and a nonzero lower block of
    s with a nonzero kernel splits it."""
    k, l = rep["k"], rep["l"]
    require(list(plus) == list(range(k)), "plus block is not the first k coordinates")
    require(list(minus) == list(range(k, k + l)), "minus block is not the last l coordinates")
    require(other == 0 and rest_none, "a core-shaped module has paired weight blocks")
    require(value == DECOMPOSABLE, f"core split verdict {value}, expected {DECOMPOSABLE}")
    check_witness(rep, witness)


def check_cli_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    require(len(lines) == RELATIONS and all(x.startswith("ok ") for x in lines),
             f"verify printed {stdout!r}")


def check_cli_split(doc: dict, seed: Seed) -> None:
    """A built module's lower coupling block is zero, so the core splitter
    answers unknown; the whole module is its core."""
    k, l = seed.k, seed.l
    require(doc["plus_block"] == list(range(k)), "plus block is not the first k coordinates")
    require(doc["minus_block"] == list(range(k, k + l)), "minus block is not the last l coordinates")
    require(doc["other_blocks"] == [] and doc["rest"] is None, "a built module has paired weight blocks")
    require(doc["core_split"]["verdict"] == UNKNOWN,
             f"core split verdict {doc['core_split']['verdict']}, expected {UNKNOWN}")
