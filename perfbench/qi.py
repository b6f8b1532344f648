"""Exact Q(i) arithmetic for the benchmark's own checks, with no periplectic code.

A scalar is a pair (re, im) of Fractions.  Everything the benchmark checks
the program against is computed here or in `checks`, from the definitions
in the package README, so a checker never compares against the program's
own code path or against a stored copy of its output.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

Q = tuple[Fraction, Fraction]

ZERO: Q = (Fraction(0), Fraction(0))
ONE: Q = (Fraction(1), Fraction(0))


def add(x: Q, y: Q) -> Q:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Q, y: Q) -> Q:
    return (x[0] - y[0], x[1] - y[1])


def mul(x: Q, y: Q) -> Q:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def inv(x: Q) -> Q:
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def nz(x: Q) -> bool:
    return bool(x[0] or x[1])


def parse(text: list[str]) -> Q:
    """A wire scalar ["p/q", "r/s"] as a pair."""
    return (Fraction(text[0]), Fraction(text[1]))


def encode(x: Q) -> list[str]:
    return [f"{x[0].numerator}/{x[0].denominator}", f"{x[1].numerator}/{x[1].denominator}"]


def rank(rows: list[list[Q]]) -> int:
    """Rank of a list of vectors by plain Gauss elimination over Q(i)."""
    work = [list(r) for r in rows if any(nz(x) for x in r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if nz(work[i][c])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = inv(work[r][c])
        prow = [ZERO] * c + [mul(p, x) for x in work[r][c:]]
        for i in range(r + 1, len(work)):
            f = work[i][c]
            if nz(f):
                row = work[i]
                for j in range(c, ncols):
                    if nz(prow[j]):
                        row[j] = sub(row[j], mul(f, prow[j]))
        r += 1
        if r == len(work):
            break
    return r


def apply(m: list[list[Q]], v: list[Q]) -> list[Q]:
    out = []
    for row in m:
        acc = ZERO
        for a, x in zip(row, v):
            if nz(a) and nz(x):
                acc = add(acc, mul(a, x))
        out.append(acc)
    return out


def components(coupling: list[list[Q]], k: int, l: int) -> int:
    """Connected components of the row/column graph of the nonzero entries,
    isolated rows and columns included."""
    seen = [False] * (k + l)
    count = 0
    for start in range(k + l):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        todo = deque([start])
        while todo:
            v = todo.popleft()
            if v < k:
                nbrs = [k + j for j in range(l) if nz(coupling[v][j])]
            else:
                nbrs = [i for i in range(k) if nz(coupling[i][v - k])]
            for w in nbrs:
                if not seen[w]:
                    seen[w] = True
                    todo.append(w)
    return count


def module(k: int, l: int, coupling: list[list[Q]], ab: list[Q]) -> dict[str, list[list[Q]]]:
    """The seeded module by its closed form: y1 = diag(a, b - 1),
    y2 = diag(a - 1, b), s = [[-1, S], [0, 1]], and e zero except
    (a_i - b_j) * S_ij in the k x l corner."""
    n = k + l
    y1 = [[ZERO] * n for _ in range(n)]
    y2 = [[ZERO] * n for _ in range(n)]
    s = [[ZERO] * n for _ in range(n)]
    e = [[ZERO] * n for _ in range(n)]
    minus_one = (Fraction(-1), Fraction(0))
    for i in range(k):
        y1[i][i] = ab[i]
        y2[i][i] = sub(ab[i], ONE)
        s[i][i] = minus_one
        for j in range(l):
            s[i][k + j] = coupling[i][j]
            e[i][k + j] = mul(sub(ab[i], ab[k + j]), coupling[i][j])
    for j in range(l):
        y1[k + j][k + j] = sub(ab[k + j], ONE)
        y2[k + j][k + j] = ab[k + j]
        s[k + j][k + j] = ONE
    return {"y1": y1, "y2": y2, "s": s, "e": e}


def commutant_dim(y1: list[list[Q]], y2: list[list[Q]], s: list[list[Q]]) -> int:
    """Dimension of the matrices commuting with diagonal y1, y2 and with s.

    Against diagonal y1 and y2 only the positions (i, j) with equal
    eigenvalues survive; s X = X s gives one linear equation per entry.
    """
    n = len(s)
    free = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if y1[i][i] == y1[j][j] and y2[i][i] == y2[j][j]
    ]
    index = {pos: t for t, pos in enumerate(free)}
    rows = []
    for p in range(n):
        for q in range(n):
            row = [ZERO] * len(free)
            for j in range(n):
                t = index.get((j, q))
                if t is not None and nz(s[p][j]):
                    row[t] = add(row[t], s[p][j])
            for i in range(n):
                t = index.get((p, i))
                if t is not None and nz(s[i][q]):
                    row[t] = sub(row[t], s[i][q])
            rows.append(row)
    return len(free) - rank(rows)


def canonical(k: int, l: int, coupling: list[list[Q]], ab: list[Q]) -> tuple[list[Q], list[list[Q]]]:
    """Orbit representative of a regular rhizomatic seed, as the package
    README defines it: each shift group sorted ascending by (re, im), the
    coupling permuted along, then every entry of the breadth-first spanning
    tree grown from row 0 (neighbours in index order) gauged to 1 with the
    row-0 scalar fixed at 1."""
    sigma = sorted(range(k), key=lambda i: ab[i])
    tau = sorted(range(l), key=lambda j: ab[k + j])
    m = [[coupling[sigma[i]][tau[j]] for j in range(l)] for i in range(k)]
    xi: list[Q | None] = [None] * k
    phi: list[Q | None] = [None] * l
    xi[0] = ONE
    todo = deque([(True, 0)])
    while todo:
        is_row, x = todo.popleft()
        if is_row:
            for j in range(l):
                if nz(m[x][j]) and phi[j] is None:
                    phi[j] = inv(mul(xi[x], m[x][j]))
                    todo.append((False, j))
        else:
            for i in range(k):
                if nz(m[i][x]) and xi[i] is None:
                    xi[i] = inv(mul(phi[x], m[i][x]))
                    todo.append((True, i))
    gauged = [
        [mul(mul(xi[i], phi[j]), m[i][j]) if nz(m[i][j]) else ZERO for j in range(l)]
        for i in range(k)
    ]
    shifts = [ab[sigma[i]] for i in range(k)] + [ab[k + tau[j]] for j in range(l)]
    return shifts, gauged
