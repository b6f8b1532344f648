"""Seeded inputs for the workloads, made without periplectic code.

Every batch has a fixed make-up (kinds and sizes); the workload seed only
draws the entries, so two seeds cost about the same and the same seed
always gives the same documents.  Entries are small Gaussian rationals
(numerator in [-9, 9], denominator in [1, 9] in each part).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from qi import ZERO, Q, encode, inv, module, mul, nz


@dataclass(frozen=True)
class Seed:
    k: int
    l: int
    coupling: list[list[Q]]
    ab: list[Q]

    def doc(self) -> dict:
        """The seed file document of the package README."""
        return {
            "k": self.k,
            "l": self.l,
            "S": [[encode(x) for x in row] for row in self.coupling],
            "ab": [encode(x) for x in self.ab],
        }


@dataclass(frozen=True)
class Item:
    """One operation's input: `kind` names the path it takes."""

    kind: str
    seed: Seed | None = None
    acted: Seed | None = None
    control: Seed | None = None
    rep: dict | None = None  # core-shaped module: k, l and the four matrices


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _gauss(rng: random.Random) -> Q:
    return (_rat(rng), _rat(rng))


def _nonzero(rng: random.Random) -> Q:
    while True:
        x = _gauss(rng)
        if nz(x):
            return x


def _distinct(rng: random.Random, count: int, avoid: set = frozenset()) -> list[Q]:
    seen = set(avoid)
    out: list[Q] = []
    while len(out) < count:
        x = _gauss(rng)
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _repeating(rng: random.Random, count: int) -> list[Q]:
    """count >= 2 values drawn from count // 2 distinct ones, each used."""
    values = _distinct(rng, count // 2)
    out = values + [rng.choice(values) for _ in range(count - len(values))]
    rng.shuffle(out)
    return out


def _tree_pattern(rng: random.Random, rows: list[int], cols: list[int], extra: float) -> set:
    """Positions of a random spanning tree of the complete bipartite graph on
    the given rows and columns, plus the share `extra` of the other
    positions: always a single class with no zero row or column, and the
    same number of nonzero entries for every seed."""
    rows, cols = rows[:], cols[:]
    rng.shuffle(rows)
    rng.shuffle(cols)
    placed_r, placed_c = [rows[0]], [cols[0]]
    edges = {(rows[0], cols[0])}
    rest = [(True, i) for i in rows[1:]] + [(False, j) for j in cols[1:]]
    rng.shuffle(rest)
    for is_row, v in rest:
        if is_row:
            edges.add((v, rng.choice(placed_c)))
            placed_r.append(v)
        else:
            edges.add((rng.choice(placed_r), v))
            placed_c.append(v)
    others = [(i, j) for i in sorted(rows) for j in sorted(cols) if (i, j) not in edges]
    return edges | set(rng.sample(others, round(extra * len(others))))


def _blocks_pattern(rng: random.Random, k: int, l: int, blocks: int, extra: float) -> set:
    """`blocks` rhizomatic blocks on interleaved row and column sets."""
    rows, cols = list(range(k)), list(range(l))
    rng.shuffle(rows)
    rng.shuffle(cols)
    row_of = [rows[b::blocks] for b in range(blocks)]
    col_of = [cols[b::blocks] for b in range(blocks)]
    edges: set = set()
    for b in range(blocks):
        edges |= _tree_pattern(rng, row_of[b], col_of[b], extra)
    return edges


def _coupling(rng: random.Random, k: int, l: int, pattern: set) -> list[list[Q]]:
    return [[_nonzero(rng) if (i, j) in pattern else ZERO for j in range(l)] for i in range(k)]


def _regular_seed(rng: random.Random, k: int, l: int, blocks: int, extra: float) -> Seed:
    pattern = (
        _tree_pattern(rng, list(range(k)), list(range(l)), extra)
        if blocks == 1
        else _blocks_pattern(rng, k, l, blocks, extra)
    )
    return Seed(k, l, _coupling(rng, k, l, pattern), _distinct(rng, k) + _distinct(rng, l))


def acted_copy(rng: random.Random, seed: Seed) -> Seed:
    """The seed moved by a random monomial pair (sigma, xi, tau, phi):
    S'_ij = xi_i * S[sigma_i][tau_j] / phi_j, a'_i = a[sigma_i],
    b'_j = b[tau_j].  Its module is isomorphic to the seed's."""
    k, l = seed.k, seed.l
    sigma, tau = list(range(k)), list(range(l))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    xi = [_nonzero(rng) for _ in range(k)]
    phi_inv = [inv(_nonzero(rng)) for _ in range(l)]
    coupling = [
        [mul(mul(xi[i], seed.coupling[sigma[i]][tau[j]]), phi_inv[j]) for j in range(l)]
        for i in range(k)
    ]
    ab = [seed.ab[sigma[i]] for i in range(k)] + [seed.ab[k + tau[j]] for j in range(l)]
    return Seed(k, l, coupling, ab)


def shifted_control(rng: random.Random, seed: Seed) -> Seed:
    """The seed with a_0 replaced by a value absent from all its shifts: the
    y1 eigenvalues on the +1 weight space change as a multiset, so the
    module is not isomorphic to the seed's."""
    (new,) = _distinct(rng, 1, set(seed.ab))
    return Seed(seed.k, seed.l, seed.coupling, [new] + seed.ab[1:])


def _core_rep(rng: random.Random, free: int, shared: int) -> dict:
    """A core-shaped module, k = l = free + shared, whose s has a nonzero
    lower block.  The upper coupling lives on the free x free corner and the
    lower one on the shared x shared corner, so both products of the two
    blocks vanish; every shared coordinate carries one common shift, so the
    lower entries tie equal shifts and the relations hold."""
    k = l = free + shared
    pattern = _tree_pattern(rng, list(range(free)), list(range(free)), 0.3)
    upper = [[_nonzero(rng) if (i, j) in pattern else ZERO for j in range(l)] for i in range(k)]
    a_free = _distinct(rng, free)
    b_free = _distinct(rng, free)
    (common,) = _distinct(rng, 1, set(a_free) | set(b_free))
    rep = {"k": k, "l": l, **module(k, l, upper, a_free + [common] * shared + b_free + [common] * shared)}
    for j in range(free, l):
        for i in range(free, k):
            rep["s"][k + j][i] = _nonzero(rng)
    return rep


def rep_doc(rep: dict) -> dict:
    """The rep file document of the package README."""
    doc = {"k": rep["k"], "l": rep["l"]}
    for name in ("y1", "y2", "s", "e"):
        doc[name] = [[encode(x) for x in row] for row in rep[name]]
    return doc


# endo_dense: (k = l, number of coupling components).  Thirteen rhizomatic
# k = l = 12 operations sit between four cheaper and four dearer ones, so
# the median operation is the middle of thirteen draws of one shape, which
# steadies op_p50_ref against the draw of any single seed.
ENDO_BATCH = (
    [(8, 1), (10, 1), (11, 3), (12, 2)]
    + [(12, 1)] * 13
    + [(14, 1), (15, 1), (16, 1), (16, 2)]
)

# classify_mix small seeds, all with k, l <= 6
RHIZOMATIC_SIZES = [(2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (3, 5), (5, 4), (4, 4),
                    (5, 5), (6, 4), (4, 6), (6, 5), (5, 6), (6, 6), (1, 3), (3, 1)]
SPLIT_SIZES = [(2, 2, 2), (3, 3, 2), (4, 3, 2), (3, 4, 3), (4, 4, 2),
               (5, 4, 3), (5, 5, 2), (6, 5, 3), (6, 6, 2), (4, 6, 2)]
LINE_SIZES = [(1, 3), (3, 1), (1, 4), (4, 1), (1, 5), (5, 1), (1, 6), (6, 1)]
UNKNOWN_SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4)]
# classify_mix mid-size decomposables: k = l = 12
MID_SIZE = 12
MID_COPIES = 2
# classify_mix repeats the small-seed schedule with fresh draws, so many
# operations of each size lie near the median and a seed's draw moves it little
CLASSIFY_COPIES = 4

# cli_roundtrip: k = l of each regular rhizomatic seed
CLI_SIZES = [2, 4, 6, 8, 10, 12]


def endo_batch(seed: int) -> list[Item]:
    rng = random.Random(f"endo_dense/{seed}")
    return [Item("endo", _regular_seed(rng, n, n, blocks, 0.35)) for n, blocks in ENDO_BATCH]


def classify_batch(seed: int) -> list[Item]:
    rng = random.Random(f"classify_mix/{seed}")
    items = []
    for _ in range(CLASSIFY_COPIES):
        items += _classify_group(rng)
    for _ in range(MID_COPIES):
        items.append(Item("two_block", _regular_seed(rng, MID_SIZE, MID_SIZE, 2, 0.3)))
        items.append(Item("core", rep=_core_rep(rng, MID_SIZE - 3, 3)))
    rng.shuffle(items)
    return items


def _classify_group(rng: random.Random) -> list[Item]:
    items = []
    for k, l in RHIZOMATIC_SIZES:
        s = _regular_seed(rng, k, l, 1, 0.3)
        items.append(Item("rhizomatic", s, acted_copy(rng, s), shifted_control(rng, s)))
    for k, l, blocks in SPLIT_SIZES:
        items.append(Item("split", _regular_seed(rng, k, l, blocks, 0.3)))
    for k, l in LINE_SIZES:
        full = {(i, j) for i in range(k) for j in range(l)}
        ab = _repeating(rng, k) + _distinct(rng, l) if l == 1 else _distinct(rng, k) + _repeating(rng, l)
        items.append(Item("line_repeat", Seed(k, l, _coupling(rng, k, l, full), ab)))
    for k, l in UNKNOWN_SIZES:
        pattern = _tree_pattern(rng, list(range(k)), list(range(l)), 0.3)
        ab = _repeating(rng, k) + _repeating(rng, l)
        items.append(Item("unknown", Seed(k, l, _coupling(rng, k, l, pattern), ab)))
    return items


def cli_batch(seed: int) -> list[Item]:
    rng = random.Random(f"cli_roundtrip/{seed}")
    return [Item("cli", _regular_seed(rng, n, n, 1, 0.3)) for n in CLI_SIZES]
