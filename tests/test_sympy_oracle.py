"""Cross-checks against sympy's DomainMatrix over QQ_I, an exact
implementation that shares no code with this package or with
`tests/oracles.py`.  Skipped when sympy is not installed."""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from periplectic import (  # noqa: E402
    GaussRat,
    Mat,
    Seed,
    build_rep,
    endo_report,
    kernel_basis,
    rank,
)
from periplectic.sampling import (  # noqa: E402
    random_gauss,
    random_matrix,
    random_regular_ab,
)


def to_qqi(x: GaussRat):
    re, im = x.re, x.im
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def domain_matrix(rows: list[list[GaussRat]], ncols: int) -> DomainMatrix:
    grid = [[to_qqi(x) for x in row] for row in rows]
    return DomainMatrix(grid, (len(grid), ncols), QQ_I)


def sympy_rank(m: Mat) -> int:
    return domain_matrix([list(r) for r in m.entries], m.cols).rank()


def commutator_nullity(gens: list[Mat]) -> int:
    """Nullity of X*g - g*X = 0 over all n^2 entries of X, one equation per
    generator and matrix position; unknown (p, t) sits in column p*n + t."""
    n = gens[0].rows
    zero = QQ_I(0)
    rows = []
    for g in gens:
        ge = [[to_qqi(x) for x in row] for row in g.entries]
        for p in range(n):
            for q in range(n):
                row = [zero] * (n * n)
                for t in range(n):
                    row[p * n + t] += ge[t][q]
                    row[t * n + q] -= ge[p][t]
                rows.append(row)
    system = DomainMatrix(rows, (len(rows), n * n), QQ_I)
    return n * n - system.rank()


def _low_rank(rng: random.Random, rows: int, cols: int, r: int, density: float) -> Mat:
    return random_matrix(rng, rows, r, density) * random_matrix(rng, r, cols, density)


def _matrices(rng: random.Random):
    for _ in range(12):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        yield random_matrix(rng, rows, cols, rng.choice([0.1, 0.2, 0.3]))
        yield random_matrix(rng, rows, cols, 1.0)
        yield _low_rank(rng, rows, cols, rng.randint(1, min(rows, cols)), 0.3)


def test_rank_and_nullity_match_sympy():
    rng = random.Random(2024)
    sizes = set()
    for m in _matrices(rng):
        r = sympy_rank(m)
        assert rank(m) == r
        assert len(kernel_basis(m)) == m.cols - r
        sizes.add(max(m.shape))
    assert max(sizes) >= 20


def _shifts(rng: random.Random, k: int, l: int, repeated: bool) -> tuple[GaussRat, ...]:
    if not repeated:
        return random_regular_ab(rng, k, l)
    pool = [random_gauss(rng) for _ in range(2)]
    return tuple(rng.choice(pool) for _ in range(k + l))


@pytest.mark.parametrize("repeated", [False, True], ids=["regular", "repeated"])
def test_endo_dimension_matches_full_commutator_system(repeated):
    rng = random.Random(7 + repeated)
    sizes = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]
    for k, l in sizes * 3:
        seed = Seed(k, l, random_matrix(rng, k, l, 0.6), _shifts(rng, k, l, repeated))
        rep = build_rep(seed)
        assert endo_report(rep).dimension == commutator_nullity(list(rep.generators()))
