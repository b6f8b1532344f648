"""Command-line front end: build, verify, analyze, canonicalize, compare, fuzz.

Verbs read JSON files (the rhizome verb also takes `./*` pattern grids) and
print a human summary, or a machine document with --json.  Exit codes:
0 success or pass, 1 a check failed, 2 unreadable or unparseable input,
3 input outside an operation's hypotheses.  Each verb returns its stdout
text and exit code (0 or 1) and raises on bad input; `main` alone writes
stdout and exits.
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
from .linalg import _decode_at, gauss_to_json, mat_to_json
from .reps import build_rep, entrywise_e, seed_from_json
from .rhizome import analyze, bipartite_components, parse_pattern


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CodecError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load(path: str, decode, text: str | None = None):
    """Parse the JSON text of `path` (read here unless given) and decode it;
    input that cannot be parsed or decoded raises a CodecError whose message
    is one `path: message` line."""
    if text is None:
        text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise CodecError(f"{path}: JSON nested too deeply") from None
    except ValueError:
        # the one other ValueError of json.loads: an integer literal past the
        # interpreter's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise CodecError(f"{path}: a JSON integer has more than {limit} digits") from None
    try:
        return decode(data)
    except ValueError as exc:
        # a CodecError or ShapeError of the decoder
        raise CodecError(f"{path}: {exc}") from None


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
def construct(seed_file: str) -> tuple[str, int]:
    """Build the module of a seed file and print it as JSON."""
    rep = build_rep(_load(seed_file, seed_from_json))
    return json.dumps(rep_to_json(rep), indent=2), 0


@_command("verify", _arg("rep_file"), _JSON)
def verify(rep_file: str, as_json: bool) -> tuple[str, int]:
    """Check the nine defining relations; exit 0 iff all hold."""
    report = verify_periplectic(_load(rep_file, rep_from_json))
    if as_json:
        document = {
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
        text = json.dumps(document, indent=2)
    else:
        failed = {v.relation: v for v in report.violations}
        lines = []
        for name in report.checked:
            if name in failed:
                v = failed[name]
                lines.append(f"FAIL {name}  at {v.position}: {v.lhs} != {v.rhs}")
            else:
                lines.append(f"ok   {name}")
        text = "\n".join(lines)
    return text, 0 if report.passed else 1


@_command("rhizome", _arg("input_file"), _JSON)
def rhizome(input_file: str, as_json: bool) -> tuple[str, int]:
    """Zero-pattern analysis of a coupling matrix.

    Accepts a seed JSON file or a plain-text grid of `.` and `*` cells.
    """
    text = _read_text(input_file)
    if text.lstrip().startswith("{"):
        matrix = _load(input_file, seed_from_json, text).coupling
    else:
        matrix = _decode_at(input_file, parse_pattern, text)
    report = analyze(matrix)
    if as_json:
        document = {
            "n_classes": report.n_classes,
            "zero_rows": report.zero_rows,
            "zero_cols": report.zero_cols,
            "is_rhizomatic": report.is_rhizomatic,
        }
        return json.dumps(document, indent=2), 0
    lines = [
        f"classes: {report.n_classes}",
        f"zero_rows: {report.zero_rows}",
        f"zero_cols: {report.zero_cols}",
        f"is_rhizomatic: {'true' if report.is_rhizomatic else 'false'}",
    ]
    return "\n".join(lines), 0


@_command("indecomposable", _arg("seed_file"), _JSON)
def indecomposable_cmd(seed_file: str, as_json: bool) -> tuple[str, int]:
    """Classify the module of a seed as indecomposable, decomposable, or unknown."""
    verdict = indecomposable(_load(seed_file, seed_from_json))
    if as_json:
        return json.dumps(verdict_to_json(verdict), indent=2), 0
    lines = [f"verdict: {verdict.value}", f"reason: {verdict.reason}"]
    if verdict.witness is not None:
        d1, d2 = (len(part) for part in verdict.witness)
        lines.append(f"witness: invariant summands of dimensions {d1} and {d2}")
    if verdict.endo_dim is not None:
        lines.append(f"endomorphism dimension: {verdict.endo_dim}")
    return "\n".join(lines), 0


@_command("endo", _arg("rep_file"), _JSON)
def endo(rep_file: str, as_json: bool) -> tuple[str, int]:
    """Compute the endomorphism algebra of a module."""
    report = endo_report(_load(rep_file, rep_from_json))
    if as_json:
        document = {
            "dimension": report.dimension,
            "all_diagonal": report.all_diagonal,
            "basis": [mat_to_json(m) for m in report.basis],
        }
        return json.dumps(document, indent=2), 0
    all_diagonal = "true" if report.all_diagonal else "false"
    return f"dimension: {report.dimension}\nall_diagonal: {all_diagonal}", 0


@_command("canonical", _arg("seed_file"), _JSON)
def canonical(seed_file: str, as_json: bool) -> tuple[str, int]:
    """Print the canonical orbit representative of a regular rhizomatic seed."""
    form = canonical_form(_load(seed_file, seed_from_json))
    if as_json:
        return json.dumps(canonical_to_json(form), indent=2), 0
    lines = ["ab: " + " ".join(str(x) for x in form.eigenvalues), "S:"]
    lines += ["  " + " ".join(str(x) for x in row) for row in form.coupling.entries]
    return "\n".join(lines), 0


@_command("isomorphic", _arg("seed_file_1"), _arg("seed_file_2"), _JSON)
def isomorphic_cmd(seed_file_1: str, seed_file_2: str, as_json: bool) -> tuple[str, int]:
    """Decide isomorphism of two seeds' modules; exit 0 iff isomorphic."""
    answer = isomorphic(
        _load(seed_file_1, seed_from_json), _load(seed_file_2, seed_from_json)
    )
    if as_json:
        text = json.dumps({"isomorphic": answer}, indent=2)
    else:
        text = f"isomorphic: {'true' if answer else 'false'}"
    return text, 0 if answer else 1


@_command("split", _arg("rep_file"), _JSON)
def split(rep_file: str, as_json: bool) -> tuple[str, int]:
    """Sort a calibrated module into weight blocks and try the core splitter."""
    rep = _load(rep_file, rep_from_json)
    report = verify_periplectic(rep)
    if not report.passed:
        v = report.violations[0]
        raise PreconditionError(f"input violates {v.relation} at {v.position}: {v.lhs} != {v.rhs}")
    partition, core, rest = split_weight_blocks(rep)
    core_verdict = split_core(core)
    if as_json:
        document = {
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
        return json.dumps(document, indent=2), 0
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
    return "\n".join(lines), 0


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
def fuzz(kmax: int, lmax: int, trials: int, rng_seed: int, as_json: bool) -> tuple[str, int]:
    """Run the random property suite; reproducible for a fixed --seed."""
    rng = random.Random(rng_seed)
    failures: list[dict] = []
    for trial in range(trials):
        for problem in _fuzz_trial(rng, kmax, lmax):
            failures.append({"trial": trial, "problem": problem})
    code = 1 if failures else 0
    if as_json:
        document = {
            "kmax": kmax,
            "lmax": lmax,
            "trials": trials,
            "seed": rng_seed,
            "passed": not failures,
            "failures": failures,
        }
        return json.dumps(document, indent=2), code
    lines = [f"fuzz kmax={kmax} lmax={lmax} trials={trials} seed={rng_seed}"]
    lines += [f"FAIL trial {f['trial']}: {f['problem']}" for f in failures]
    lines.append(f"{trials - len({f['trial'] for f in failures})}/{trials} trials passed")
    return "\n".join(lines), code


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
    """Run the verb named in `args` (default: the command line), write its
    text to stdout and exit with its code.  Unreadable or unparseable input
    (CodecError) exits 2 and input outside an operation's hypotheses
    (PreconditionError, ShapeError) exits 3, each with the message alone on
    stderr; a usage error exits 2."""
    options = vars(_parser().parse_args(args))
    verb = options.pop("verb")
    try:
        text, code = main.commands[verb].callback(**options)
    except (CodecError, PreconditionError, ShapeError) as exc:
        print(exc, file=sys.stderr)
        sys.exit(2 if isinstance(exc, CodecError) else 3)
    print(text)
    sys.exit(code)


# verb -> _Command; the callback is looked up on every call, so it may be
# replaced after import
main.commands = _COMMANDS


if __name__ == "__main__":
    main()
