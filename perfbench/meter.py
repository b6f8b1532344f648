"""CPU costs in ref units.

One ref is the CPU time of one pass of `ref_pass`: a fixed exact
elimination and a sweep of Gaussian-rational products on Fractions, with
int, list and dict bookkeeping and no periplectic code.  On a shared
machine the CPU time of a fixed batch varies by tens of percent from one
process to the next, while its ratio to ref passes timed alongside it
varies by a few percent, so every operation's CPU time is divided by the
trimmed mean of the ref passes timed during and around it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

_REF_N = 9
_REF_GRID = [
    [Fraction((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(_REF_N + 1)]
    for i in range(_REF_N)
]
_SWEEP = [
    (Fraction((7 * i) % 19 - 9, i % 9 + 1), Fraction((5 * i) % 17 - 8, i % 7 + 1))
    for i in range(700)
]
# an operation's normaliser comes from the ref passes timed within this many
# wall seconds of it, and from at least _MIN_NEAR passes
_HALO_S = 0.5
_MIN_NEAR = 6
# share of those passes dropped at each end before averaging
_TRIM = 0.2


def ref_pass() -> int:
    """Gauss-Jordan elimination of a fixed 9 x 10 rational system, then a
    sweep of chained Gaussian-rational products over 700 fixed pairs (a
    working set of about 200 KB, nearer the library's than the small
    system alone); returns a checksum so the work cannot be skipped."""
    rows = [row[:] for row in _REF_GRID]
    tally: dict[int, int] = {}
    r = 0
    for c in range(_REF_N):
        piv = next((i for i in range(r, _REF_N) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(_REF_N):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                tally[i] = tally.get(i, 0) + 1
        r += 1
    re, im = Fraction(1), Fraction(0)
    products = []
    for i, (a, b) in enumerate(_SWEEP):
        x, y = a * re - b * im, a * im + b * re
        products.append((x, y))
        # every third product is damped and carried on; the others restart
        re, im = (x / (abs(x) + 1), y / (abs(y) + 1)) if i % 3 == 0 else (a, b)
        tally[i % 64] = tally.get(i % 64, 0) + (x.numerator & 7)
    return sum(x.numerator % 97 for row in rows for x in row) + sum(tally.values()) + len(products)


def ref_pass_s() -> float:
    """CPU seconds of one ref pass."""
    start = time.process_time()
    ref_pass()
    return time.process_time() - start


@dataclass
class Op:
    """One operation of a workload batch.  `run` returns (CPU seconds,
    output); `check(output, first_round)` raises on a wrong output."""

    kind: str
    run: Callable[[], tuple[float, object]]
    check: Callable[[object, bool], None]


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * _TRIM)
    return statistics.mean(values[cut: len(values) - cut])


class Meter:
    """Times operations against interleaved ref passes.

    A ref pass runs before an operation whenever `ref_every_s` of
    operation CPU has passed since the last one; `tick` runs one more
    inside an operation that spans several steps.  On a shared virtual
    machine the CPU cost of the same work jumps between levels up to 2x
    apart within a second, so a normaliser is the trimmed mean of the
    passes timed during and around the operation, not of the whole run.
    """

    def __init__(self, ref_every_s: float):
        self.ref_every_s = ref_every_s
        self.refs: list[tuple[float, float]] = []  # (wall time, CPU s)
        self.ops: list[tuple[int, str, float, float, float]] = []  # (round, kind, CPU s, start, end)
        self._since_ref = float("inf")

    def tick(self) -> None:
        cpu = ref_pass_s()
        self.refs.append((time.perf_counter(), cpu))

    def before_op(self) -> None:
        if self._since_ref >= self.ref_every_s:
            self.tick()
            self._since_ref = 0.0

    def record(self, round_no: int, kind: str, cpu_s: float, start: float, end: float) -> None:
        self.ops.append((round_no, kind, cpu_s, start, end))
        self._since_ref += cpu_s

    def ref_s(self) -> float:
        return statistics.median(cpu for _, cpu in self.refs)

    def costs_ref(self) -> list[float]:
        """Each operation's CPU time divided by its normaliser."""
        times = [t for t, _ in self.refs]
        out = []
        for _, _, cpu, start, end in self.ops:
            lo = bisect.bisect_left(times, start - _HALO_S)
            hi = bisect.bisect_right(times, end + _HALO_S)
            while hi - lo < min(_MIN_NEAR, len(times)):
                before = start - times[lo - 1] if lo > 0 else float("inf")
                after = times[hi] - end if hi < len(times) else float("inf")
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
            out.append(cpu / _trimmed_mean([c for _, c in self.refs[lo:hi]]))
        return out

    def summary(self) -> dict:
        costs = self.costs_ref()
        rounds = max(op[0] for op in self.ops) + 1
        per_kind: dict[str, float] = {}
        for op, cost in zip(self.ops, costs):
            per_kind[op[1]] = per_kind.get(op[1], 0.0) + cost
        total = sum(costs)
        raw = [op[2] for op in self.ops]
        return {
            "op_p50_ref": statistics.median(costs),
            "work_ref": total / rounds,
            "rounds": rounds,
            "ref_ms": 1000 * self.ref_s(),
            "raw_op_p50_ms": 1000 * statistics.median(raw),
            "raw_work_ms": 1000 * sum(raw) / rounds,
            "work_share_by_kind": {k: v / total for k, v in sorted(per_kind.items())},
        }
