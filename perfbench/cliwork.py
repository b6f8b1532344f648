"""The cli_roundtrip workload: each operation runs one seed through five
`periplectic` children, one at a time.

Untraced children run as `python -m periplectic.cli` with PYTHONPATH=src;
traced ones run under `launcher.py`, which installs the tracer first.  An
operation's cost is the CPU its children used, from
getrusage(RUSAGE_CHILDREN).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import qi
from meter import Op

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
VERBS = ("construct", "verify", "split", "indecomposable", "canonical")
CHILD_TIMEOUT_S = 60


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _grid(rows) -> list[list[tuple]]:
    return [[qi.parse(x) for x in row] for row in rows]


class _Child:
    """Spawns the CLI children of one workload run and, when traced, merges
    the counters and spans each child leaves behind."""

    def __init__(self, root: Path, workdir: Path, tracer):
        # one CPU for this process and so for its children: the ref passes
        # run here then sample the CPU the children run on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.spawned = 0

    def run(self, args: list[str], stdout) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return subprocess.run([sys.executable, "-m", "periplectic.cli", *args], cwd=self.root,
                                  env=self.env, stdout=stdout, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        trace_out = self.workdir / f"child-{self.spawned}.json"
        self.spawned += 1
        env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_out), PERFBENCH_SPAWN=repr(time.monotonic()))
        done = subprocess.run([sys.executable, str(LAUNCHER), *args], cwd=self.root, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if trace_out.exists():
            self.tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        return done


def _op(child: _Child, index: int, item: gen.Item, tick) -> Op:
    seed_path = child.workdir / f"seed-{index}.json"
    rep_path = child.workdir / f"rep-{index}.json"
    seed_path.write_text(json.dumps(item.seed.doc()), encoding="utf-8")

    def run():
        start = _children_cpu()
        results = {}
        with open(rep_path, "wb") as rep_file:
            results["construct"] = child.run(["construct", str(seed_path)], rep_file)
        for verb, args in (
            ("verify", [str(rep_path)]),
            ("split", ["--json", str(rep_path)]),
            ("indecomposable", ["--json", str(seed_path)]),
            ("canonical", ["--json", str(seed_path)]),
        ):
            tick()
            results[verb] = child.run([verb, *args], subprocess.PIPE)
        cpu = _children_cpu() - start
        rep_bytes = rep_path.stat().st_size
        out = {verb: (r.returncode, r.stdout.decode("utf-8") if r.stdout else "", r.stderr)
               for verb, r in results.items()}
        out["construct"] = (out["construct"][0], rep_path.read_text(encoding="utf-8"), out["construct"][2])
        if child.tracer is not None:
            child.tracer.add("algebra.rep_json.bytes", rep_bytes)
            child.tracer.add("cli.stdout_bytes", sum(len(o[1].encode("utf-8")) for o in out.values()))
        return cpu, out

    def check(out, first: bool) -> None:
        for verb in VERBS:
            code, _, err = out[verb]
            checks.require(code == 0, f"{verb} exited {code}: {err.decode('utf-8', 'replace')}")
        seed = item.seed
        rep = json.loads(out["construct"][1])
        checks.require((rep["k"], rep["l"]) == (seed.k, seed.l), "constructed k, l differ from the seed")
        checks.check_module(seed, {name: _grid(rep[name]) for name in ("y1", "y2", "s", "e")})
        checks.check_cli_verify(out["verify"][1])
        split = json.loads(out["split"][1])
        checks.check_cli_split(split, seed)
        checks.check_module(seed, {name: _grid(split["core"][name]) for name in ("y1", "y2", "s", "e")})
        verdict = json.loads(out["indecomposable"][1])
        witness = verdict["witness"]
        if witness is not None:
            witness = [[[qi.parse(x) for x in v] for v in part] for part in witness]
        checks.check_verdict(seed, verdict["verdict"], witness, verdict["endo_dim"])
        form = json.loads(out["canonical"][1])
        checks.check_canonical(seed, [qi.parse(x) for x in form["ab"]], _grid(form["S"]))

    return Op(item.kind, run, check)


def cli_roundtrip(seed: int, tracer, root: Path, workdir: Path, tick) -> list[Op]:
    """`tick` runs one ref pass; it is called between consecutive children."""
    child = _Child(root, workdir, tracer)
    return [_op(child, index, item, tick) for index, item in enumerate(gen.cli_batch(seed))]
