"""The in-process workloads, endo_dense and classify_mix.

Each operation returns (CPU seconds, output); its checker converts the
output to plain data for `checks`.  The tracer, when given, records only
while an operation runs, so checks never reach the traced counts.
"""

from __future__ import annotations

import time

import periplectic as P

import checks
import gen
from meter import Op


def _pairs(m) -> list[list[tuple]]:
    return [[(x.re, x.im) for x in row] for row in m.entries]


def _witness(verdict):
    if verdict.witness is None:
        return None
    return [[[(x.re, x.im) for x in v] for v in part] for part in verdict.witness]


def _module(rep) -> dict:
    return {name: _pairs(getattr(rep, name)) for name in ("y1", "y2", "s", "e")}


def _timed(tracer, work):
    def run():
        if tracer is not None:
            tracer.on = True
        start = time.process_time()
        try:
            out = work()
        finally:
            cpu = time.process_time() - start
            if tracer is not None:
                tracer.on = False
        return cpu, out

    return run


def _endo_op(item: gen.Item, tracer) -> Op:
    seed = P.seed_from_json(item.seed.doc())

    def work():
        rep = P.build_rep(seed)
        return rep, P.verify_periplectic(rep), P.endo_report(rep)

    def check(out, first: bool) -> None:
        rep, report, endo = out
        checks.check_module(item.seed, _module(rep))
        perturbed = None
        if first:
            # a coupling entry of s with a_0 != b_j: s*s = 1 still holds, but
            # s*y1 = y2*s - 1 - e fails at (0, k + j)
            k, ab = rep.k, item.seed.ab
            j = next(j for j in range(rep.l) if ab[0] != ab[k + j])
            grid = [list(row) for row in rep.s.entries]
            grid[0][k + j] = grid[0][k + j] + 1
            bad = P.Rep(rep.k, rep.l, rep.y1, rep.y2, P.Mat(grid), rep.e)
            perturbed = P.verify_periplectic(bad).passed
        checks.check_relations(report.passed, perturbed)
        diagonal = [
            all(not (x[0] or x[1]) for i, row in enumerate(_pairs(m)) for j, x in enumerate(row) if i != j)
            for m in endo.basis
        ]
        checks.check_endo(item.seed, endo.dimension, diagonal)

    return Op(item.kind, _timed(tracer, work), check)


def _rhizomatic_op(item: gen.Item, tracer) -> Op:
    docs = item.seed.doc(), item.acted.doc(), item.control.doc()

    def work():
        seed, acted, control = (P.seed_from_json(d) for d in docs)
        return (
            P.indecomposable(seed),
            P.canonical_form(seed),
            P.canonical_form(acted),
            P.isomorphic(seed, acted),
            P.isomorphic(seed, control),
        )

    def check(out, first: bool) -> None:
        verdict, form, acted_form, iso_acted, iso_control = out
        checks.check_verdict(item.seed, verdict.value, _witness(verdict), verdict.endo_dim)
        for f in (form, acted_form):
            checks.check_canonical(item.seed, [(x.re, x.im) for x in f.eigenvalues], _pairs(f.coupling))
        checks.check_isomorphic(iso_acted, iso_control)

    return Op(item.kind, _timed(tracer, work), check)


def _verdict_op(item: gen.Item, tracer) -> Op:
    doc = item.seed.doc()

    def work():
        return P.indecomposable(P.seed_from_json(doc))

    def check(verdict, first: bool) -> None:
        checks.check_verdict(item.seed, verdict.value, _witness(verdict), verdict.endo_dim)

    return Op(item.kind, _timed(tracer, work), check)


def _core_op(item: gen.Item, tracer) -> Op:
    rep = P.rep_from_json(gen.rep_doc(item.rep))

    def work():
        partition, core, rest = P.split_weight_blocks(rep)
        return partition, rest, P.split_core(core)

    def check(out, first: bool) -> None:
        partition, rest, verdict = out
        checks.check_core_split(
            item.rep,
            partition.plus_block,
            partition.minus_block,
            len(partition.other_blocks),
            rest is None,
            verdict.value,
            _witness(verdict),
        )

    return Op(item.kind, _timed(tracer, work), check)


def endo_dense(seed: int, tracer) -> list[Op]:
    return [_endo_op(item, tracer) for item in gen.endo_batch(seed)]


def classify_mix(seed: int, tracer) -> list[Op]:
    makers = {"rhizomatic": _rhizomatic_op, "core": _core_op}
    return [makers.get(item.kind, _verdict_op)(item, tracer) for item in gen.classify_batch(seed)]
