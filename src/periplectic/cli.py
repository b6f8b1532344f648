"""Command-line front end: build, verify, analyze, canonicalize, compare, fuzz.

Verbs read JSON files (the rhizome verb also takes `./*` pattern grids) and
print a human summary, or a machine document with --json.  Exit codes:
0 success or pass, 1 a check failed, 2 unreadable or unparseable input,
3 input outside an operation's hypotheses.  Each verb returns its stdout
text and exit code (0 or 1) and raises on bad input; `main` alone writes
stdout and exits.

The command line is read here, not by argparse, so that a CLI process
loads less.  Options may come before or after positionals, `--opt value`
and `--opt=value` both work, and `--` ends a verb's options.  The parser
reads what the argparse parser of earlier versions read, and a usage
error ends with the error line argparse wrote under Python 3.11, on every
interpreter.
"""

from __future__ import annotations

import json
import re
import sys
from typing import TYPE_CHECKING, NoReturn

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
from .record import Record
from .reps import build_rep, entrywise_e, seed_from_json
from .rhizome import analyze, bipartite_components, parse_pattern

if TYPE_CHECKING:
    import random


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


class _Option(Record):
    """An int option of a verb: its flag, the keyword it fills, its default,
    the least value it takes (None: any), its metavar and its help line."""

    __slots__ = ("flag", "dest", "default", "least", "metavar", "help")


class _Command:
    """One verb: the function that runs it, with the parsed arguments as
    keywords, and the arguments it takes: positional file names, int
    options, and `--json`, which fills `as_json`."""

    __slots__ = ("callback", "positionals", "options", "takes_json", "doc")

    def __init__(self, callback, positionals: tuple, options: tuple, takes_json: bool, doc: str):
        self.callback = callback
        self.positionals = positionals
        self.options = options
        self.takes_json = takes_json
        self.doc = doc


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, *positionals: str, options: tuple = (), takes_json: bool = True):
    """Register the decorated function as verb `name`."""

    def register(fn):
        _COMMANDS[name] = _Command(fn, positionals, options, takes_json, fn.__doc__)
        return fn

    return register


@_command("construct", "seed_file", takes_json=False)
def construct(seed_file: str) -> tuple[str, int]:
    """Build the module of a seed file and print it as JSON."""
    rep = build_rep(_load(seed_file, seed_from_json))
    return json.dumps(rep_to_json(rep), indent=2), 0


@_command("verify", "rep_file")
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


@_command("rhizome", "input_file")
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


@_command("indecomposable", "seed_file")
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


@_command("endo", "rep_file")
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


@_command("canonical", "seed_file")
def canonical(seed_file: str, as_json: bool) -> tuple[str, int]:
    """Print the canonical orbit representative of a regular rhizomatic seed."""
    form = canonical_form(_load(seed_file, seed_from_json))
    if as_json:
        return json.dumps(canonical_to_json(form), indent=2), 0
    lines = ["ab: " + " ".join(str(x) for x in form.eigenvalues), "S:"]
    lines += ["  " + " ".join(str(x) for x in row) for row in form.coupling.entries]
    return "\n".join(lines), 0


@_command("isomorphic", "seed_file_1", "seed_file_2")
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


@_command("split", "rep_file")
def split(rep_file: str, as_json: bool) -> tuple[str, int]:
    """Sort a calibrated module into weight blocks and try the core splitter."""
    partition, core, rest = split_weight_blocks(_load(rep_file, rep_from_json))
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
    options=(
        _Option("--kmax", "kmax", 4, 1, "KMAX", "largest first dimension, at least 1"),
        _Option("--lmax", "lmax", 4, 1, "LMAX", "largest second dimension, at least 1"),
        _Option("--trials", "trials", 100, 0, "TRIALS", "number of trials"),
        _Option("--seed", "rng_seed", 0, None, "SEED", "pseudo-random seed"),
    ),
)
def fuzz(kmax: int, lmax: int, trials: int, rng_seed: int, as_json: bool) -> tuple[str, int]:
    """Run the random property suite; reproducible for a fixed --seed."""
    # imported here, with the samplers `_fuzz_trial` imports, so that no
    # other verb pays for it
    import random

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


# what argparse reads as a negative number, and so as a positional
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
_HELP = ("-h", "--help")


def _split_option(arg: str, known) -> tuple[str, str | None] | None:
    """None if `arg` is a positional; else its flag, which for an option
    not in `known` is the whole argument, and the value given with it
    (`--flag=value` for a known flag, or `-hvalue`), or None."""
    if arg in known:
        return arg, None
    if arg[:1] != "-" or arg == "-":
        return None
    flag, eq, value = arg.partition("=")
    if not (eq and flag in known):
        if arg[:2] != "-h":
            return None if _NEGATIVE.match(arg) or " " in arg else (arg, None)
        # argparse reads `-hX` as -h with the value X
        flag, value = "-h", arg[2:]
    if flag == "-h" and value:
        # ... and each `h` that starts the value as one more -h
        value = value.lstrip("h") or None
    return flag, value


def _usage(verb: str | None) -> str:
    if verb is None:
        return "periplectic [-h] COMMAND ..."
    command = main.commands[verb]
    words = [f"periplectic {verb} [-h]"]
    words += [f"[{option.flag} {option.metavar}]" for option in command.options]
    words += ["[--json]"] * command.takes_json
    words += command.positionals
    return " ".join(words)


def _fail(verb: str | None, message: str) -> NoReturn:
    """A usage error: a usage line and argparse's error line on stderr,
    nothing on stdout, exit 2."""
    prog = "periplectic" if verb is None else f"periplectic {verb}"
    sys.stderr.write(f"usage: {_usage(verb)}\n{prog}: error: {message}\n")
    sys.exit(2)


def _help(verb: str | None) -> NoReturn:
    """Print the help of the program or of one verb and exit 0."""
    options = [("-h, --help", "show this help message and exit")]
    if verb is None:
        about = "Exact construction and classification of calibrated two-strand modules."
        sections = [("commands", [(name, c.doc.split("\n")[0]) for name, c in main.commands.items()])]
    else:
        command = main.commands[verb]
        about = "\n".join(line.strip() for line in command.doc.strip().split("\n"))
        options += [
            (f"{o.flag} {o.metavar}", f"{o.help} (default: {o.default})") for o in command.options
        ]
        options += [("--json", "machine-readable output")] * command.takes_json
        sections = [("positional arguments", [(name, "") for name in command.positionals])]
    sections.append(("options", options))
    width = max(len(name) for _, rows in sections for name, _ in rows)
    lines = [f"usage: {_usage(verb)}", "", about]
    for title, rows in sections:
        if rows:
            lines += ["", f"{title}:"]
            lines += [f"  {name:{width}}  {text}".rstrip() for name, text in rows]
    print("\n".join(lines))
    sys.exit(0)


def _parse(args: list[str]) -> tuple[str, dict]:
    """The verb that `args` name and the keywords of its callback.  Help
    exits 0, and a usage error exits 2 with the error line argparse gave
    under Python 3.11."""
    extras: list[str] = []
    for i, arg in enumerate(args):
        if arg == "--" and i + 1 == len(args):
            break
        # argparse takes a `--` with arguments after it for the verb
        option = None if arg == "--" else _split_option(arg, _HELP)
        if option is None:
            if arg not in main.commands:
                choices = ", ".join(map(repr, main.commands))
                _fail(None, f"argument COMMAND: invalid choice: {arg!r} (choose from {choices})")
            values = _parse_verb(arg, args[i + 1 :], extras)
            if extras:
                _fail(None, "unrecognized arguments: " + " ".join(extras))
            return arg, values
        flag, value = option
        if flag in _HELP:
            if value is not None:
                _fail(None, f"argument -h/--help: ignored explicit argument {value!r}")
            _help(None)
        extras.append(arg)
    _fail(None, "the following arguments are required: COMMAND")


def _parse_verb(verb: str, args: list[str], extras: list[str]) -> dict:
    """The keywords of `verb`'s callback from the arguments after it.
    Options may come before or after positionals; after the first `--`
    every argument is a positional.  Arguments left over go to `extras`."""
    command = main.commands[verb]
    by_flag = {option.flag: option for option in command.options}
    known = {*_HELP, *by_flag, *["--json"] * command.takes_json}
    values = {option.dest: option.default for option in command.options}
    if command.takes_json:
        values["as_json"] = False
    missing = list(command.positionals)
    ended = filled = False  # a `--` was read; the last argument filled a positional
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--" and not ended:
            ended = True
            # argparse drops the `--` only beside a positional it fills
            if not (filled or missing and i < len(args)):
                extras.append(arg)
            continue
        option = None if ended else _split_option(arg, known)
        filled = option is None and bool(missing)
        if option is None:
            if missing:
                values[missing.pop(0)] = arg
            else:
                extras.append(arg)
            continue
        flag, value = option
        if flag not in known:
            extras.append(arg)
        elif flag in by_flag:
            if value is None:
                if i == len(args) or args[i] == "--" or _split_option(args[i], known):
                    _fail(verb, f"argument {flag}: expected one argument")
                value = args[i]
                i += 1
            try:
                number = int(value)
            except ValueError:
                _fail(verb, f"argument {flag}: invalid int value: {value!r}")
            least = by_flag[flag].least
            if least is not None and number < least:
                _fail(verb, f"argument {flag}: must be at least {least}, got {number}")
            values[by_flag[flag].dest] = number
        elif value is not None:
            name = "-h/--help" if flag in _HELP else flag
            _fail(verb, f"argument {name}: ignored explicit argument {value!r}")
        elif flag in _HELP:
            _help(verb)
        else:
            values["as_json"] = True
    if missing:
        _fail(verb, "the following arguments are required: " + ", ".join(missing))
    return values


def main(args: list[str] | None = None) -> NoReturn:
    """Run the verb named in `args` (default: the command line), write its
    text to stdout and exit with its code.  Unreadable or unparseable input
    (CodecError) exits 2 and input outside an operation's hypotheses
    (PreconditionError, ShapeError) exits 3, each with the message alone on
    stderr; a usage error exits 2."""
    verb, options = _parse(sys.argv[1:] if args is None else args)
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
