"""Spans and counters around periplectic's public functions, installed from
outside and only in a traced run.

A span records name, start, end and the span that caused it; spans of
one operation share its identifier.  A layer's self time is a span's
duration minus the time its direct child spans cover.  Scalar methods,
`as_gauss` and the per-entry codec helpers are only counted, since a span
around each of them would cost more than the work it times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) wrapped in a span
SPANS = [
    ("linalg", "Mat.__mul__"),
    ("linalg", "rank"),
    ("linalg", "kernel_and_pivots"),
    ("linalg", "kernel_basis"),
    ("linalg", "row_basis"),
    ("linalg", "commutant_basis"),
    ("algebra", "verify_periplectic"),
    ("algebra", "verify_hecke"),
    ("algebra", "poly_matrix"),
    ("algebra", "e_sandwich_zero"),
    ("algebra", "rep_to_json"),
    ("algebra", "rep_from_json"),
    ("reps", "build_hecke_module"),
    ("reps", "build_rep"),
    ("reps", "entrywise_e"),
    ("reps", "extension_profile"),
    ("reps", "seed_to_json"),
    ("reps", "seed_from_json"),
    ("rhizome", "analyze"),
    ("rhizome", "bipartite_components"),
    ("rhizome", "scaling_normalize"),
    ("classify", "endo_report"),
    ("classify", "indecomposable"),
    ("classify", "group_act"),
    ("classify", "canonical_form"),
    ("classify", "isomorphic"),
    ("classify", "split_weight_blocks"),
    ("classify", "split_core"),
    ("classify", "canonical_to_json"),
    ("classify", "verdict_to_json"),
]

# (module, attribute path) whose calls are only counted, and the counter
COUNTS = [
    ("linalg", "GaussRat.__mul__", "linalg.GaussRat.mul_calls"),
    ("linalg", "GaussRat.__rmul__", "linalg.GaussRat.mul_calls"),
    ("linalg", "GaussRat.__add__", "linalg.GaussRat.add_calls"),
    ("linalg", "GaussRat.__radd__", "linalg.GaussRat.add_calls"),
    ("linalg", "GaussRat.__sub__", "linalg.GaussRat.add_calls"),
    ("linalg", "GaussRat.__rsub__", "linalg.GaussRat.add_calls"),
    ("linalg", "GaussRat.__truediv__", "linalg.GaussRat.div_calls"),
    ("linalg", "GaussRat.__rtruediv__", "linalg.GaussRat.div_calls"),
    ("linalg", "GaussRat.inverse", "linalg.GaussRat.div_calls"),
    ("linalg", "as_gauss", "linalg.as_gauss.calls"),
    ("linalg", "gauss_from_json", "linalg.gauss_from_json.calls"),
    ("linalg", "gauss_to_json", "linalg.gauss_to_json.calls"),
    ("linalg", "mat_from_json", "linalg.mat_from_json.calls"),
    ("linalg", "mat_to_json", "linalg.mat_to_json.calls"),
]

# spans whose matrix argument adds rows x cols to `<name>.cells`
_CELLS = {"linalg.rank", "linalg.kernel_and_pivots"}
# linalg spans whose returned matrices or vectors feed linalg.max_entry_bits
_RETURNS_MATRICES = {
    "linalg.Mat.__mul__",
    "linalg.kernel_and_pivots",
    "linalg.kernel_basis",
    "linalg.row_basis",
    "linalg.commutant_basis",
}
# (span, ancestor span, counter): calls of the span made under the ancestor
_NESTED = [
    ("linalg.rank", "classify.indecomposable", "classify.indecomposable.rank_calls"),
    ("rhizome.analyze", "classify.isomorphic", "classify.isomorphic.analyze_calls_total"),
]


def _bits(x) -> int:
    return max(
        x.re.numerator.bit_length(),
        x.re.denominator.bit_length(),
        x.im.numerator.bit_length(),
        x.im.denominator.bit_length(),
    )


def _max_bits(value) -> int:
    """Largest entry bit length in a Mat, a vector, or lists and tuples of them."""
    if hasattr(value, "entries"):
        return max((_bits(x) for row in value.entries for x in row), default=0)
    if isinstance(value, (list, tuple)):
        return max((_max_bits(v) for v in value), default=0)
    if hasattr(value, "re"):
        return _bits(value)
    return 0


class Tracer:
    """Counters and spans of one process.  Wrappers record only while `on`."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.stats: dict[str, float] = {}
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._ids = 0

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def note_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0), value)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if name in _CELLS:
                self.add(f"{name}.cells", args[0].rows * args[0].cols)
            names = [frame[1] for frame in self._stack]
            for child, ancestor, key in _NESTED:
                if name == child and ancestor in names:
                    self.add(key, 1)
            if name == "linalg.kernel_basis" and names and names[-1] == "linalg.commutant_basis":
                self.add("linalg.commutant_basis.eq_cells", args[0].rows * args[0].cols)
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._ids, name, 0.0]
            self._ids += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.add(f"{name}.calls", 1)
                self.add(f"{name}.self_s", duration - frame[2])
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((self.op, frame[0], parent, name, start, end))
            if name in _RETURNS_MATRICES:
                self.note_max("linalg.max_entry_bits", _max_bits(result))
            return result

        return traced

    def count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                self.stats[key] = self.stats.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def merge(self, child: dict) -> None:
        """Fold in the dump of a child process; its spans join the current
        operation with their identifiers moved past the ones in use."""
        for key, value in child["stats"].items():
            if key == "linalg.max_entry_bits":
                self.note_max(key, value)
            else:
                self.add(key, value)
        base = self._ids
        for _, span_id, parent, name, start, end in child["spans"]:
            self.spans.append(
                (self.op, base + span_id, None if parent is None else base + parent, name, start, end)
            )
            self._ids = max(self._ids, base + span_id + 1)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "spans": self.spans}, handle)


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every periplectic module global that names `original`, so
    calls through `from .linalg import rank` and the package re-exports
    are traced as well."""
    for modname, module in list(sys.modules.items()):
        if modname == "periplectic" or modname.startswith("periplectic."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the periplectic functions in SPANS and COUNTS.  Call after every
    periplectic module the process uses has been imported."""
    import periplectic  # noqa: F401  (loads every library module)

    for modname, path, *key in [(m, p) for m, p in SPANS] + COUNTS:
        module = sys.modules[f"periplectic.{modname}"]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        if key:
            wrapper = tracer.count(key[0], original)
        else:
            wrapper = tracer.span(f"{modname}.{path}", original)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)

