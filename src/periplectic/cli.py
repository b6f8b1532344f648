"""Command-line front end: build, verify, analyze, canonicalize, compare, fuzz.

Verbs read JSON files (the rhizome verb also takes `./*` pattern grids) and
print a human summary, or a machine document with --json.  Exit codes:
0 success or pass, 1 a check failed, 2 unreadable or unparseable input,
3 input outside an operation's hypotheses.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import NoReturn

from .algebra import (
    e_is_zero,
    e_sandwich_zero,
    rep_from_json,
    rep_to_json,
    verify_periplectic,
)
from .classify import (
    canonical_form,
    canonical_to_json,
    e_nonzero_guarantee,
    endo_report,
    group_act,
    indecomposable,
    is_regular,
    isomorphic,
    split_core,
    split_weight_blocks,
    verdict_to_json,
)
from .errors import CodecError, PreconditionError, ShapeError
from .linalg import gauss_to_json, mat_to_json
from .reps import build_rep, entrywise_e, seed_from_json
from .rhizome import analyze, bipartite_components, parse_pattern


def _fail(code: int, message: str) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _fail(2, f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(2, f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _load(path: str, decode, text: str | None = None):
    """Parse the JSON text of `path` (read here unless given) and decode it;
    input that cannot be parsed or decoded exits 2 with one `path: message`
    line."""
    if text is None:
        text = _read_text(path)
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as exc:
        _fail(2, f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        _fail(2, f"{path}: JSON nested too deeply")
    except ValueError as exc:
        # a CodecError or ShapeError of the decoder, or an integer past the
        # interpreter's int-to-str digit limit
        _fail(2, f"{path}: {exc}")


def _dump(document: object) -> None:
    print(json.dumps(document, indent=2))


def _echo_lines(lines: list[str]) -> None:
    """Write text output in one piece, once every line has been formatted,
    so an error while formatting leaves stdout empty."""
    print("\n".join(lines))


class _Command:
    """One verb: the function that runs it, with the parsed arguments as
    keywords, and the argparse arguments it takes."""

    __slots__ = ("callback", "arguments", "doc")

    def __init__(self, callback, arguments: tuple, doc: str):
        self.callback = callback
        self.arguments = arguments
        self.doc = doc


_COMMANDS: dict[str, _Command] = {}


def _arg(*names: str, **options: object) -> tuple:
    """One `add_argument` call's positional and keyword arguments."""
    return names, options


_JSON = _arg("--json", dest="as_json", action="store_true", help="machine-readable output")


class _AtLeast(argparse.Action):
    """Store an int option; one below `const` is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.const:
            raise argparse.ArgumentError(self, f"must be at least {self.const}, got {value}")
        setattr(namespace, self.dest, value)


def _command(name: str, *arguments: tuple):
    """Register the decorated function as verb `name`."""

    def register(fn):
        _COMMANDS[name] = _Command(fn, arguments, fn.__doc__)
        return fn

    return register


@_command("construct", _arg("seed_file"))
def construct(seed_file: str) -> None:
    """Build the module of a seed file and print it as JSON."""
    rep = build_rep(_load(seed_file, seed_from_json))
    _dump(rep_to_json(rep))


@_command("verify", _arg("rep_file"), _JSON)
def verify(rep_file: str, as_json: bool) -> None:
    """Check the nine defining relations; exit 0 iff all hold."""
    report = verify_periplectic(_load(rep_file, rep_from_json))
    if as_json:
        _dump(
            {
                "passed": report.passed,
                "violations": [
                    {
                        "relation": v.relation,
                        "position": list(v.position),
                        "lhs": gauss_to_json(v.lhs),
                        "rhs": gauss_to_json(v.rhs),
                    }
                    for v in report.violations
                ],
            }
        )
    else:
        failed = {v.relation: v for v in report.violations}
        lines = []
        for name in report.checked:
            if name in failed:
                v = failed[name]
                lines.append(f"FAIL {name}  at {v.position}: {v.lhs} != {v.rhs}")
            else:
                lines.append(f"ok   {name}")
        _echo_lines(lines)
    sys.exit(0 if report.passed else 1)


@_command("rhizome", _arg("input_file"), _JSON)
def rhizome(input_file: str, as_json: bool) -> None:
    """Zero-pattern analysis of a coupling matrix.

    Accepts a seed JSON file or a plain-text grid of `.` and `*` cells.
    """
    text = _read_text(input_file)
    if text.lstrip().startswith("{"):
        matrix = _load(input_file, seed_from_json, text).coupling
    else:
        try:
            matrix = parse_pattern(text)
        except CodecError as exc:
            _fail(2, f"{input_file}: {exc}")
    report = analyze(matrix)
    if as_json:
        _dump(
            {
                "n_classes": report.n_classes,
                "zero_rows": report.zero_rows,
                "zero_cols": report.zero_cols,
                "is_rhizomatic": report.is_rhizomatic,
            }
        )
    else:
        print(f"classes: {report.n_classes}")
        print(f"zero_rows: {report.zero_rows}")
        print(f"zero_cols: {report.zero_cols}")
        print(f"is_rhizomatic: {'true' if report.is_rhizomatic else 'false'}")


@_command("indecomposable", _arg("seed_file"), _JSON)
def indecomposable_cmd(seed_file: str, as_json: bool) -> None:
    """Classify the module of a seed as indecomposable, decomposable, or unknown."""
    verdict = indecomposable(_load(seed_file, seed_from_json))
    if as_json:
        _dump(verdict_to_json(verdict))
    else:
        print(f"verdict: {verdict.value}")
        print(f"reason: {verdict.reason}")
        if verdict.witness is not None:
            d1, d2 = (len(part) for part in verdict.witness)
            print(f"witness: invariant summands of dimensions {d1} and {d2}")
        if verdict.endo_dim is not None:
            print(f"endomorphism dimension: {verdict.endo_dim}")


@_command("endo", _arg("rep_file"), _JSON)
def endo(rep_file: str, as_json: bool) -> None:
    """Compute the endomorphism algebra of a module."""
    report = endo_report(_load(rep_file, rep_from_json))
    if as_json:
        _dump(
            {
                "dimension": report.dimension,
                "all_diagonal": report.all_diagonal,
                "basis": [mat_to_json(m) for m in report.basis],
            }
        )
    else:
        print(f"dimension: {report.dimension}")
        print(f"all_diagonal: {'true' if report.all_diagonal else 'false'}")


@_command("canonical", _arg("seed_file"), _JSON)
def canonical(seed_file: str, as_json: bool) -> None:
    """Print the canonical orbit representative of a regular rhizomatic seed."""
    form = canonical_form(_load(seed_file, seed_from_json))
    if as_json:
        _dump(canonical_to_json(form))
    else:
        lines = ["ab: " + " ".join(str(x) for x in form.eigenvalues), "S:"]
        lines += ["  " + " ".join(str(x) for x in row) for row in form.coupling.entries]
        _echo_lines(lines)


@_command("isomorphic", _arg("seed_file_1"), _arg("seed_file_2"), _JSON)
def isomorphic_cmd(seed_file_1: str, seed_file_2: str, as_json: bool) -> None:
    """Decide isomorphism of two seeds' modules; exit 0 iff isomorphic."""
    answer = isomorphic(
        _load(seed_file_1, seed_from_json), _load(seed_file_2, seed_from_json)
    )
    if as_json:
        _dump({"isomorphic": answer})
    else:
        print(f"isomorphic: {'true' if answer else 'false'}")
    sys.exit(0 if answer else 1)


@_command("split", _arg("rep_file"), _JSON)
def split(rep_file: str, as_json: bool) -> None:
    """Sort a calibrated module into weight blocks and try the core splitter."""
    rep = _load(rep_file, rep_from_json)
    report = verify_periplectic(rep)
    if not report.passed:
        v = report.violations[0]
        _fail(3, f"input violates {v.relation} at {v.position}: {v.lhs} != {v.rhs}")
    partition, core, rest = split_weight_blocks(rep)
    core_verdict = split_core(core)
    if as_json:
        _dump(
            {
                "plus_block": list(partition.plus_block),
                "minus_block": list(partition.minus_block),
                "other_blocks": [
                    {
                        "weight": gauss_to_json(d),
                        "plus": list(bp),
                        "minus": list(bm),
                    }
                    for d, bp, bm in partition.other_blocks
                ],
                "core": rep_to_json(core),
                "rest": None if rest is None else rep_to_json(rest),
                "core_split": verdict_to_json(core_verdict),
            }
        )
    else:
        lines = [
            "plus_block: " + " ".join(map(str, partition.plus_block)),
            "minus_block: " + " ".join(map(str, partition.minus_block)),
        ]
        if partition.other_blocks:
            for d, bp, bm in partition.other_blocks:
                plus = " ".join(map(str, bp))
                minus = " ".join(map(str, bm))
                lines.append(f"paired block d={d}: plus [{plus}] minus [{minus}]")
        else:
            lines.append("paired blocks: none")
        lines.append(f"core: dimension {core.dim} ({core.k} + {core.l})")
        lines.append(f"rest: {'none' if rest is None else f'dimension {rest.dim}'}")
        lines.append(f"core_split: {core_verdict.value} ({core_verdict.reason})")
        _echo_lines(lines)


def _fuzz_trial(rng: random.Random, kmax: int, lmax: int) -> list[str]:
    """One trial of the property suite; returns failure descriptions."""
    # imported here, so that no other verb pays for it
    from .sampling import random_monomial_pair, random_polynomial, random_seed

    seed = random_seed(rng, kmax, lmax)
    rep = build_rep(seed)
    problems: list[str] = []
    report = verify_periplectic(rep)
    if not report.passed:
        v = report.violations[0]
        problems.append(f"relation {v.relation} fails at {v.position}")
    if rep.e != entrywise_e(seed):
        problems.append("e block disagrees with the entrywise formula")
    if not e_sandwich_zero(rep, random_polynomial(rng)):
        problems.append("e * f(y1, y2) * e is nonzero")
    if is_regular(seed.eigenvalues, seed.k, seed.l):
        n_parts = len(bipartite_components(seed.coupling))
        if endo_report(rep).dimension != n_parts:
            problems.append("endomorphism dimension disagrees with the component count")
    if rep_from_json(rep_to_json(rep)) != rep:
        problems.append("module does not survive a serialization round trip")
    if e_nonzero_guarantee(seed):
        if e_is_zero(rep):
            problems.append("guaranteed-nonzero e is zero")
        acted = group_act(random_monomial_pair(rng, seed.k, seed.l), seed)
        if canonical_form(acted) != canonical_form(seed):
            problems.append("canonical form moved under the group action")
        if not isomorphic(seed, acted):
            problems.append("acted seed not isomorphic to the original")
    return problems


@_command(
    "fuzz",
    _arg("--kmax", type=int, action=_AtLeast, const=1, default=4,
         help="largest first dimension, at least 1 (default: %(default)s)"),
    _arg("--lmax", type=int, action=_AtLeast, const=1, default=4,
         help="largest second dimension, at least 1 (default: %(default)s)"),
    _arg("--trials", type=int, action=_AtLeast, const=0, default=100,
         help="number of trials (default: %(default)s)"),
    _arg("--seed", dest="rng_seed", metavar="SEED", type=int, default=0,
         help="pseudo-random seed (default: %(default)s)"),
    _JSON,
)
def fuzz(kmax: int, lmax: int, trials: int, rng_seed: int, as_json: bool) -> None:
    """Run the random property suite; reproducible for a fixed --seed."""
    rng = random.Random(rng_seed)
    failures: list[dict] = []
    for trial in range(trials):
        for problem in _fuzz_trial(rng, kmax, lmax):
            failures.append({"trial": trial, "problem": problem})
    if as_json:
        _dump(
            {
                "kmax": kmax,
                "lmax": lmax,
                "trials": trials,
                "seed": rng_seed,
                "passed": not failures,
                "failures": failures,
            }
        )
    else:
        print(f"fuzz kmax={kmax} lmax={lmax} trials={trials} seed={rng_seed}")
        for failure in failures:
            print(f"FAIL trial {failure['trial']}: {failure['problem']}")
        print(f"{trials - len({f['trial'] for f in failures})}/{trials} trials passed")
    sys.exit(1 if failures else 0)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periplectic",
        description="Exact construction and classification of calibrated two-strand modules.",
        allow_abbrev=False,
    )
    verbs = parser.add_subparsers(dest="verb", metavar="COMMAND", required=True)
    for name, command in main.commands.items():
        help_line = command.doc.split("\n")[0]
        verb = verbs.add_parser(name, help=help_line, description=command.doc, allow_abbrev=False)
        for names, options in command.arguments:
            verb.add_argument(*names, **options)
    return parser


def main(args: list[str] | None = None) -> NoReturn:
    """Run the verb named in `args` (default: the command line) and exit
    with its code; a usage error exits 2."""
    options = vars(_parser().parse_args(args))
    verb = options.pop("verb")
    try:
        main.commands[verb].callback(**options)
    except (PreconditionError, ShapeError) as exc:
        # input outside an operation's hypotheses
        _fail(3, str(exc))
    sys.exit(0)


# verb -> _Command; the callback is looked up on every call, so it may be
# replaced after import
main.commands = _COMMANDS


if __name__ == "__main__":
    main()
