"""End-to-end command checks: output shape and the exit-code contract."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import periplectic
from periplectic import (
    CodecError,
    EndoReport,
    GaussRat,
    Mat,
    PreconditionError,
    RelationReport,
    Seed,
    ShapeError,
    Violation,
    build_rep,
    group_act,
    rep_to_json,
    seed_to_json,
)
from periplectic.cli import main
from periplectic.sampling import (
    random_monomial_pair,
    random_regular_ab,
    random_rhizomatic_matrix,
)

from cli_runner import run_cli
from oracles import direct_sum, make_split_core, make_weight_block
from test_sparse_mat import _regular, _repeating, _staircase_seed

REFERENCE = Seed(
    3,
    2,
    coupling=Mat([[0, 1], [-3, 5], [2, 0]]),
    eigenvalues=(
        GaussRat(0, 2),
        GaussRat(0, -2),
        GaussRat(1),
        GaussRat(-1),
        GaussRat(1),
    ),
)

NON_REGULAR = Seed(2, 1, Mat([[1], [1]]), (GaussRat(3), GaussRat(3), GaussRat(0)))

SMALL = Seed(1, 1, Mat([[2]]), (GaussRat(1), GaussRat(3)))

SRC = str(Path(periplectic.__file__).resolve().parent.parent)

# the nine relations in the order `verify` prints them
RELATIONS = (
    "s*s = 1",
    "y1*y2 = y2*y1",
    "s*y1 = y2*s - 1 - e",
    "s*y2 = y1*s + 1 - e",
    "e*e = 0",
    "e*s = e",
    "s*e = -e",
    "e*y2 = e*y1 + e",
    "y1*e = y2*e + e",
)


def _verify_text(failures: dict) -> str:
    """`verify`'s stdout: `FAIL <relation>  at <failures[relation]>` for
    each relation in `failures`, an ok line for every other one."""
    return "".join(
        f"FAIL {relation}  at {failures[relation]}\n" if relation in failures else f"ok   {relation}\n"
        for relation in RELATIONS
    )


def _bidiagonal(n: int) -> Mat:
    """The n x n coupling with 1 on the diagonal and 2 just above it."""
    return Mat([[1 if j == i else 2 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def _gaussian_k64() -> Seed:
    """A k = l = 64 seed with Gaussian shifts: a_0 = b_0 and a_5 = b_6 on
    coupled pairs, so e(0, 64) and e(5, 70) are zero, and a_1 = 1, so
    y2(1, 1) is zero."""
    a = [GaussRat(i, 1) for i in range(64)]
    a[1] = GaussRat(1)
    b = [GaussRat(64 + j, -1) for j in range(64)]
    b[0], b[6] = a[0], a[5]
    return Seed(64, 64, _bidiagonal(64), tuple(a + b))


def _rhizomatic_seed_and_image(size: int) -> tuple[Seed, Seed]:
    """A k = l = `size` regular rhizomatic seed drawn from Random(size), and
    its image under the monomial pair drawn next."""
    rng = random.Random(size)
    seed = Seed(size, size, random_rhizomatic_matrix(rng, size, size), random_regular_ab(rng, size, size))
    return seed, group_act(random_monomial_pair(rng, size, size), seed)


def _bad_s_small() -> dict:
    """SMALL's module with s[0][1] set to 5."""
    document = rep_to_json(build_rep(SMALL))
    document["s"][0][1] = ["5", "0"]
    return document


def _invalid_modules() -> list[tuple[dict, str]]:
    """Modules that violate a relation, each with a FAIL line of `verify`."""
    reference = rep_to_json(build_rep(REFERENCE))
    reference["e"] = [[["0/1", "0/1"]] * 5 for _ in range(5)]
    return [
        (reference, "FAIL s*y1 = y2*s - 1 - e  at (0, 4): 0 != -1+2i"),
        (_bad_s_small(), "FAIL s*y2 = y1*s + 1 - e  at (0, 1): 15 != 9"),
    ]


@pytest.fixture
def seed_file(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed_to_json(REFERENCE)))
    return str(path)


@pytest.fixture
def rep_file(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(build_rep(REFERENCE))))
    return str(path)


@pytest.fixture(scope="module")
def k64_document():
    """A k = l = 64 module: identity coupling, shifts 0..127."""
    return rep_to_json(build_rep(Seed(64, 64, Mat.identity(64), tuple(map(GaussRat, range(128))))))


# a k = l = 3 module with y1[0][1] and e[4][1] changed, so eight of the nine
# relations fail; the expected output pins the rational strings of each
# first offending entry
BROKEN_K3 = Seed(
    3,
    3,
    coupling=Mat([[1, 2, 0], [0, -1, 3], ["1/2", 0, 1]]),
    eigenvalues=(
        GaussRat("1/2"),
        GaussRat(0, 2),
        GaussRat(-1),
        GaussRat(3),
        GaussRat("1/3", 1),
        GaussRat(0),
    ),
)

BROKEN_K3_TEXT = """\
ok   s*s = 1
FAIL y1*y2 = y2*y1  at (0, 1): -1/2+i != -1/4
FAIL s*y1 = y2*s - 1 - e  at (0, 1): -1/2 != 0
FAIL s*y2 = y1*s + 1 - e  at (0, 1): 0 != -1/2
FAIL e*e = 0  at (0, 1): -37/9i != 0
FAIL e*s = e  at (4, 1): -2+1/3i != 2-1/3i
FAIL s*e = -e  at (0, 1): 4-2/3i != 0
FAIL e*y2 = e*y1 + e  at (4, 1): -4/3+13/3i != 8/3+11/3i
FAIL y1*e = y2*e + e  at (0, 4): 1/3-3/2i != 1/6-i
"""

BROKEN_K3_VIOLATIONS = [
    ("y1*y2 = y2*y1", (0, 1), ["-1/2", "1/1"], ["-1/4", "0/1"]),
    ("s*y1 = y2*s - 1 - e", (0, 1), ["-1/2", "0/1"], ["0/1", "0/1"]),
    ("s*y2 = y1*s + 1 - e", (0, 1), ["0/1", "0/1"], ["-1/2", "0/1"]),
    ("e*e = 0", (0, 1), ["0/1", "-37/9"], ["0/1", "0/1"]),
    ("e*s = e", (4, 1), ["-2/1", "1/3"], ["2/1", "-1/3"]),
    ("s*e = -e", (0, 1), ["4/1", "-2/3"], ["0/1", "0/1"]),
    ("e*y2 = e*y1 + e", (4, 1), ["-4/3", "13/3"], ["8/3", "11/3"]),
    ("y1*e = y2*e + e", (0, 4), ["1/3", "-3/2"], ["1/6", "-1/1"]),
]


@pytest.fixture
def broken_k3_file(tmp_path):
    data = rep_to_json(build_rep(BROKEN_K3))
    data["y1"][0][1] = ["1/2", "0/1"]
    data["e"][4][1] = ["2/1", "-1/3"]
    return _write(tmp_path, "broken-k3.json", json.dumps(data))


def _write(tmp_path, name: str, content: str) -> str:
    path = tmp_path / name
    path.write_text(content)
    return str(path)


# an integer literal past the interpreter's int-to-str digit limit
LONG_INT = b'{"k": ' + b"1" * 5000 + b', "l": 1, "S": [], "ab": []}'


class TestConstructVerify:
    def test_round_trip(self, tmp_path):
        # construct writes the given cells; the module it writes passes
        # verify, and endo --json reads it
        zero = ["0/1", "0/1"]
        k64_cells = {
            ("e", 0, 64): zero,
            ("e", 5, 70): zero,
            ("y2", 1, 1): zero,
            ("e", 1, 65): ["-64/1", "1/1"],
        }
        for seed, cells in ((REFERENCE, {}), (_gaussian_k64(), k64_cells)):
            path = _write(tmp_path, "seed.json", json.dumps(seed_to_json(seed)))
            built = run_cli(["construct", path])
            assert (built.exit_code, built.stderr) == (0, "")
            document = json.loads(built.stdout)
            for (key, i, j), cell in cells.items():
                assert document[key][i][j] == cell
            rep_path = _write(tmp_path, "built.json", built.stdout)
            verified = run_cli(["verify", rep_path])
            assert verified[:3] == (0, _verify_text({}), "")
            endo = run_cli(["endo", "--json", rep_path])
            assert (endo.exit_code, endo.stderr) == (0, "")

    @pytest.mark.parametrize(
        "cells, failures",
        [
            ([], {}),
            (
                [(0, 65)],
                {"s*y1 = y2*s - 1 - e": "(0, 65): 0 != -1", "s*y2 = y1*s + 1 - e": "(0, 65): 0 != -1"},
            ),
            # relation rows are streamed in order, so each FAIL line names
            # the row-5 entry
            (
                [(5, 69), (63, 127)],
                {"s*y1 = y2*s - 1 - e": "(5, 69): 68 != 3", "s*y2 = y1*s + 1 - e": "(5, 69): 69 != 4"},
            ),
            # a (-1, +1)-weight position: both e-y relations are derived on a
            # calibrated module, but their premises s*y1 and e*s = e fail, so
            # both are evaluated and name (70, 5)
            (
                [(70, 5)],
                {
                    "s*y1 = y2*s - 1 - e": "(70, 5): 0 != -1",
                    "s*y2 = y1*s + 1 - e": "(70, 5): 0 != -1",
                    "e*e = 0": "(6, 5): -64 != 0",
                    "e*s = e": "(70, 5): -1 != 1",
                    "s*e = -e": "(6, 5): 1 != 0",
                    "e*y2 = e*y1 + e": "(70, 5): 4 != 6",
                    "y1*e = y2*e + e": "(70, 5): 69 != 71",
                },
            ),
        ],
        ids=["passes", "upper_right", "two_rows", "lower_left"],
    )
    def test_verify_k64_names_first_offending_entry(self, tmp_path, k64_document, cells, failures):
        document = _with_cells(k64_document, "e", {cell: ["1", "0"] for cell in cells})
        path = _write(tmp_path, "rep.json", json.dumps(document))
        result = run_cli(["verify", path])
        assert (result.exit_code, result.stderr) == (1 if failures else 0, "")
        assert result.stdout == _verify_text(failures)

    def test_verify_json_document(self, rep_file):
        result = run_cli(["verify", rep_file, "--json"])
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert document == {"passed": True, "violations": []}

    def test_verify_flags_violations(self, tmp_path):
        for document, line in _invalid_modules():
            path = _write(tmp_path, "broken.json", json.dumps(document))
            result = run_cli(["verify", path])
            assert (result.exit_code, result.stderr) == (1, "")
            assert line in result.stdout.splitlines()

    def test_verify_json_lists_violations(self, tmp_path):
        data = rep_to_json(build_rep(SMALL))
        data["s"][0][1] = ["3/1", "0/1"]
        path = _write(tmp_path, "perturbed.json", json.dumps(data))
        result = run_cli(["verify", "--json", path])
        assert result.exit_code == 1
        assert result.stderr == ""
        violations = [
            {"relation": relation, "position": [0, 1], "lhs": [lhs, "0/1"], "rhs": [rhs, "0/1"]}
            for relation, lhs, rhs in (
                ("s*y1 = y2*s - 1 - e", "6/1", "4/1"),
                ("s*y2 = y1*s + 1 - e", "9/1", "7/1"),
            )
        ]
        document = {"passed": False, "violations": violations}
        assert result.stdout == json.dumps(document, indent=2) + "\n"

    def test_verify_pins_failing_relations(self, broken_k3_file):
        result = run_cli(["verify", broken_k3_file])
        assert (result.exit_code, result.stderr) == (1, "")
        assert result.stdout == BROKEN_K3_TEXT

    def test_verify_json_pins_failing_relations(self, broken_k3_file):
        result = run_cli(["verify", "--json", broken_k3_file])
        assert (result.exit_code, result.stderr) == (1, "")
        violations = [
            {"relation": relation, "position": list(position), "lhs": lhs, "rhs": rhs}
            for relation, position, lhs, rhs in BROKEN_K3_VIOLATIONS
        ]
        document = {"passed": False, "violations": violations}
        assert result.stdout == json.dumps(document, indent=2) + "\n"

    # sha256 of `verify` and `verify --json` stdout, recorded before
    # s*y1 = y2*s - 1 - e and s*e = -e were checked entry by entry on
    # calibrated modules; both passing modules print the same bytes
    VERIFY_STAIRCASE_K16_SHA256 = {
        "regular": (
            0,
            "aba4265b78c5942e9142e921b5d7d834ca4740f7b6ceeb97b555d9c6e7c99e0c",
            "0adf2161214843baf9b6ed41e8cfad06e2c8474843e04ca775077787e2174b89",
        ),
        "repeated": (
            0,
            "aba4265b78c5942e9142e921b5d7d834ca4740f7b6ceeb97b555d9c6e7c99e0c",
            "0adf2161214843baf9b6ed41e8cfad06e2c8474843e04ca775077787e2174b89",
        ),
        "s_diagonal": (
            1,
            "9afa814f26315edde485da68c1d6d0e73e59919a591874bb718fed364cd140af",
            "058f6f2b3f8060cd4da171492b1ca130548facf7cc92e51d4dde1ee420b3def5",
        ),
        "e_entry": (
            1,
            "2ba270df89ea36483bcd426468ce78841fd09e5efa8adf089e89b046624ee990",
            "42855e84054c390a88fa5006748e090023fe6695f8cd4d10dc4138fc2316f91d",
        ),
    }

    def test_verify_bytes_are_pinned(self, tmp_path):
        # staircase seed 2 at k = l = 16 with regular shifts, then with
        # repeated ones; the regular module with s_33 (-1) set to 1/2, and
        # with e_{20,2} (zero, and s_{20,2} zero) set to 1
        rng = random.Random(2)
        regular = rep_to_json(build_rep(_staircase_seed(16, rng, _regular(16))))
        shifts = _repeating(rng, 16) + _repeating(rng, 16)
        documents = {
            "regular": regular,
            "repeated": rep_to_json(build_rep(_staircase_seed(16, rng, shifts))),
            "s_diagonal": copy.deepcopy(regular),
            "e_entry": copy.deepcopy(regular),
        }
        documents["s_diagonal"]["s"][3][3] = ["1/2", "0/1"]
        documents["e_entry"]["e"][20][2] = ["1/1", "0/1"]
        for name, document in documents.items():
            path = _write(tmp_path, f"{name}.json", json.dumps(document))
            code, *digests = self.VERIFY_STAIRCASE_K16_SHA256[name]
            for flags, digest in zip(([], ["--json"]), digests):
                result = run_cli(["verify", *flags, path])
                assert result.exit_code == code
                assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    def test_construct_rejects_incomplete_seed(self, tmp_path):
        path = _write(tmp_path, "partial.json", '{"k": 1, "l": 1}')
        result = run_cli(["construct", path])
        assert result.exit_code == 2
        assert "lacks keys" in result.stderr


def _with_cells(document: dict, key: str, cells: dict) -> dict:
    """The document with each `(row, column): cell` of `cells` set in the
    matrix under `key`."""
    rows = [list(row) for row in document[key]]
    for (i, j), cell in cells.items():
        rows[i][j] = cell
    return {**document, key: rows}


class TestInputErrors:
    def test_boolean_size_exits_2(self, tmp_path):
        small = Seed(1, 1, Mat([[1]]), (GaussRat(1), GaussRat(2)))
        for verb, document in (
            ("construct", seed_to_json(small)),
            ("verify", rep_to_json(build_rep(small))),
        ):
            document["k"] = True
            path = _write(tmp_path, f"{verb}.json", json.dumps(document))
            result = run_cli([verb, path])
            assert result.exit_code == 2
            assert result.stderr == f"{path}: k and l must be non-negative integers\n"

    def test_shape_error_on_large_module_is_one_short_line(self, tmp_path, k64_document):
        # a k = l = 64 module whose k is one too large: the message names
        # what was found instead of echoing 128 rows of the file
        path = _write(tmp_path, "rep.json", json.dumps({**k64_document, "k": 65}))
        result = run_cli(["verify", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{path}: y1: expected 129 matrix rows, got an array of length 128\n"
        assert len(result.stderr.encode()) < 200

    @pytest.mark.parametrize(
        "verb, edit, message, where",
        [
            ("construct", lambda doc: [1, 2],
             "expected a JSON object for a seed, got an array of length 2", ""),
            ("verify", lambda doc: "rep",
             "expected a JSON object for a representation, got a string", ""),
            ("construct", lambda doc: {**doc, "S": doc["S"][:2]},
             "expected 3 matrix rows, got an array of length 2", "S: "),
            ("construct", lambda doc: {**doc, "S": None},
             "expected 3 matrix rows, got null", "S: "),
            ("verify", lambda doc: {**doc, "s": [doc["s"][0][:4]] + doc["s"][1:]},
             "expected a matrix row of width 5, got an array of length 4", "s: row 0: "),
            ("construct", lambda doc: {**doc, "S": [doc["S"][0], doc["S"][1][:1], doc["S"][2]]},
             "expected a matrix row of width 2, got an array of length 1", "S: row 1: "),
            ("construct", lambda doc: {**doc, "S": [[doc["S"][0][0], [1, 0]]] + doc["S"][1:]},
             "expected a rational string in part 0, got a number", "S: row 0, column 1: "),
            ("verify", lambda doc: {**doc, "e": doc["e"][:4] + [doc["e"][4][:4] + [["0", None]]]},
             "expected a rational string in part 1, got null", "e: row 4, column 4: "),
            # a rational part is named by its length, never echoed
            ("construct", lambda doc: _with_cells(doc, "S", {(2, 1): ["1" * 100000 + "x", "0"]}),
             "bad rational in part 0 (100001 characters): not of the form n or n/m",
             "S: row 2, column 1: "),
            ("construct", lambda doc: _with_cells(doc, "S", {(2, 1): ["1" * 5000, "0"]}),
             "bad rational in part 0 (5000 characters): more than 4300 digits",
             "S: row 2, column 1: "),
            ("construct", lambda doc: {**doc, "ab": {}}, "ab must list 5 values, got an object", ""),
            ("construct", lambda doc: {**doc, "ab": [7] + doc["ab"][1:]},
             "expected a 2-element array of rational strings, got a number", "ab: value 0: "),
            ("construct", lambda doc: {**doc, "ab": [["1", "0", "0"]] + doc["ab"][1:]},
             "expected a 2-element array of rational strings, got an array of length 3",
             "ab: value 0: "),
        ],
    )
    def test_shape_errors_name_the_type_found(self, tmp_path, verb, edit, message, where):
        # `where` is the key, row and column the decoder puts before the message
        if verb == "construct":
            document = seed_to_json(REFERENCE)
        else:
            document = rep_to_json(build_rep(REFERENCE))
        path = _write(tmp_path, "input.json", json.dumps(edit(document)))
        result = run_cli([verb, path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{path}: {where}{message}\n"

    def test_malformed_rational_exits_2(self, tmp_path):
        document = seed_to_json(REFERENCE)
        document["ab"][0] = ["1.5", "0/1"]
        path = _write(tmp_path, "seed.json", json.dumps(document))
        result = run_cli(["construct", path])
        assert result.exit_code == 2
        assert result.stderr == (
            f"{path}: ab: value 0: bad rational in part 0 (3 characters): "
            "not of the form n or n/m\n"
        )

    def test_oversized_output_exits_3(self, tmp_path):
        # each part parses, but e holds their 8,000-digit product, past the
        # interpreter's int-to-str limit
        huge = ["9" * 4000, "0/1"]
        document = {"k": 1, "l": 1, "S": [[huge]], "ab": [huge, ["0/1", "0/1"]]}
        path = _write(tmp_path, "seed.json", json.dumps(document))
        result = run_cli(["construct", path])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert "decimal digits" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_oversized_canonical_exits_3(self, tmp_path, flags):
        # the off-tree entry of the gauged coupling is 1/(A*B), whose
        # 8,000-digit denominator is past the int-to-str limit in text and JSON
        big = ["9" * 4000, "0/1"]
        one = ["1", "0/1"]
        shifts = [[str(t), "0/1"] for t in range(4)]
        document = {"k": 2, "l": 2, "S": [[one, big], [big, one]], "ab": shifts}
        path = _write(tmp_path, "seed.json", json.dumps(document))
        result = run_cli(["canonical", *flags, path])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert "decimal digits" in result.stderr
        assert "Traceback" not in result.stderr

    def test_json_syntax_error_carries_position(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{\n"k": 1\n"l": 2}')
        result = run_cli(["construct", path])
        assert result.exit_code == 2
        assert f"{path}:3:1:" in result.stderr

    def test_missing_file(self):
        result = run_cli(["construct", "no-such-file.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("verb", ["construct", "rhizome"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{", "not UTF-8 text: invalid start byte at byte 0"),
            # opens like a seed document, so rhizome parses it as JSON too
            (b'{"S": ' + b"[" * 100_000, "JSON nested too deeply"),
            (LONG_INT, f"a JSON integer has more than {sys.get_int_max_str_digits()} digits"),
            # a bare array does not open like a seed document, so rhizome
            # reads it as a pattern grid
            (
                b"[" * 100_000 + b"\n",
                {
                    "construct": "JSON nested too deeply",
                    "rhizome": "line 1: unexpected pattern character '['",
                },
            ),
        ],
        ids=["invalid_utf8", "deep_nesting", "long_integer", "deep_array"],
    )
    def test_malformed_file_exits_2(self, tmp_path, verb, content, message):
        if isinstance(message, dict):
            message = message[verb]
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        result = run_cli([verb, str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{path}: {message}\n"

    @pytest.mark.parametrize("verb", ["verify", "endo", "split"])
    def test_sizes_past_digit_limit_exit_2(self, tmp_path, verb):
        # k and l each parse, but k + l has one digit more than the
        # int-to-str limit allows in the decoder's size message
        big = "9" * sys.get_int_max_str_digits()
        path = _write(
            tmp_path,
            "rep.json",
            f'{{"k": {big}, "l": {big}, "y1": [], "y2": [], "s": [], "e": []}}',
        )
        with pytest.raises(ValueError) as info:
            str(2 * int(big))
        result = run_cli([verb, path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{path}: {info.value}\n"


class TestRhizome:
    def test_pattern_grid(self, tmp_path):
        grid = "*.*...*.*.\n*........*\n.*...*.*..\n...**...*.\n..*.**...*\n.*........\n*.*...*.*.\n"
        path = _write(tmp_path, "pattern.txt", grid)
        result = run_cli(["rhizome", path])
        assert result.exit_code == 0
        assert "is_rhizomatic: true" in result.stdout

    def test_seed_json_input(self, seed_file):
        result = run_cli(["rhizome", seed_file, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {
            "n_classes": 1,
            "zero_rows": 0,
            "zero_cols": 0,
            "is_rhizomatic": True,
        }

    def test_seed_file_is_read_once(self, seed_file, monkeypatch):
        """The seed is parsed from the text read to tell it from a grid."""
        from periplectic import cli

        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read_text(path))
        result = run_cli(["rhizome", seed_file, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["n_classes"] == 1
        assert reads == [seed_file]

    def test_bad_pattern_character(self, tmp_path):
        for grid, message in (
            ("*.\n?*\n", "line 2: unexpected pattern character '?'"),
            ("*x\n", "line 1: unexpected pattern character 'x'"),
        ):
            path = _write(tmp_path, "pattern.txt", grid)
            result = run_cli(["rhizome", path])
            assert result[:3] == (2, "", f"{path}: {message}\n")


class TestClassifyCommands:
    def test_indecomposable_json(self, seed_file):
        result = run_cli(["indecomposable", seed_file, "--json"])
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert document["verdict"] == "indecomposable"

    def test_indecomposable_witness_summary(self, tmp_path):
        seed = Seed(
            2, 2, Mat.identity(2), (GaussRat(1), GaussRat(2), GaussRat(3), GaussRat(4))
        )
        path = _write(tmp_path, "disc.json", json.dumps(seed_to_json(seed)))
        result = run_cli(["indecomposable", path])
        assert result.exit_code == 0
        assert "verdict: decomposable" in result.stdout
        assert "dimensions 2 and 2" in result.stdout

    def test_endo_json(self, tmp_path, rep_file, k64_document):
        result = run_cli(["endo", rep_file, "--json"])
        document = json.loads(result.stdout)
        assert document["dimension"] == 1
        assert document["all_diagonal"] is True
        assert len(document["basis"]) == 1
        # the k = l = 64 module couples i with 64 + i only and every shift is
        # regular, so the commutant is read off the coupling graph: 64
        # diagonal idempotents.  The 54 MB document is checked by its head:
        # parsing it would add half again the time the verb takes.
        path = _write(tmp_path, "k64.json", json.dumps(k64_document))
        result = run_cli(["endo", path, "--json"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith('{\n  "dimension": 64,\n  "all_diagonal": true,\n')

    def test_unknown_endo_dim_matches_endo(self, tmp_path):
        # each shift repeated on both sides and a connected staircase
        # coupling: the undecided verdict's endo_dim (one rank, no basis)
        # equals the dimension endo --json prints for the built module
        ab = [GaussRat(i // 2) for i in range(16)] + [GaussRat(20 + j // 2, 1) for j in range(16)]
        seed = Seed(16, 16, _bidiagonal(16), tuple(ab))
        seed_path = _write(tmp_path, "seed.json", json.dumps(seed_to_json(seed)))
        verdict = run_cli(["indecomposable", "--json", seed_path])
        built = run_cli(["construct", seed_path])
        endo = run_cli(["endo", "--json", _write(tmp_path, "rep.json", built.stdout)])
        assert (verdict.exit_code, built.exit_code, endo.exit_code) == (0, 0, 0)
        document = json.loads(verdict.stdout)
        assert document["verdict"] == "unknown"
        assert document["endo_dim"] == json.loads(endo.stdout)["dimension"]

    def test_two_blocks_decompose_and_have_no_canonical_form(self, tmp_path):
        seed = Seed(2, 2, Mat.identity(2), tuple(map(GaussRat, range(4))))
        path = _write(tmp_path, "two-blocks.json", json.dumps(seed_to_json(seed)))
        result = run_cli(["indecomposable", "--json", path])
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert document["verdict"] == "decomposable"
        assert len(document["witness"]) == 2
        result = run_cli(["canonical", path])
        assert result[:3] == (3, "", "canonical form needs a rhizomatic coupling\n")

    def test_indecomposable_unknown_text(self, tmp_path):
        seed = Seed(2, 2, Mat([[1, 2], [3, 4]]), tuple(map(GaussRat, (1, 1, 2, 2))))
        path = _write(tmp_path, "repeated.json", json.dumps(seed_to_json(seed)))
        result = run_cli(["indecomposable", path])
        assert result.exit_code == 0
        assert result.stdout == (
            "verdict: unknown\n"
            "reason: repeated shifts with both weight spaces of dimension >= 2 are "
            "outside the decided cases; endomorphism dimension is 4\n"
            "endomorphism dimension: 4\n"
        )

    def test_endo_text(self, rep_file):
        result = run_cli(["endo", rep_file])
        assert result.exit_code == 0
        assert result.stdout == "dimension: 1\nall_diagonal: true\n"

    def test_canonical_human_output(self, seed_file):
        result = run_cli(["canonical", seed_file])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "ab: -2i 2i 1 -1 1"

    def test_canonical_rejects_non_regular(self, tmp_path):
        path = _write(tmp_path, "nr.json", json.dumps(seed_to_json(NON_REGULAR)))
        result = run_cli(["canonical", path])
        assert result[:3] == (3, "", "canonical form needs regular shifts\n")

    def test_isomorphic_exit_codes(self, tmp_path, seed_file):
        same = _write(tmp_path, "same.json", json.dumps(seed_to_json(REFERENCE)))
        other_seed = Seed(
            3,
            2,
            REFERENCE.coupling,
            REFERENCE.eigenvalues[:4] + (GaussRat(2),),
        )
        other = _write(tmp_path, "other.json", json.dumps(seed_to_json(other_seed)))
        # size mismatches answer false; only same-size degenerate seeds
        # violate the hypotheses
        repeated = Seed(3, 2, REFERENCE.coupling, (GaussRat(1),) * 5)
        degenerate = _write(tmp_path, "deg.json", json.dumps(seed_to_json(repeated)))
        assert run_cli(["isomorphic", seed_file, same]).exit_code == 0
        mismatch = run_cli(["isomorphic", seed_file, other])
        assert (mismatch.exit_code, mismatch.stdout) == (1, "isomorphic: false\n")
        assert run_cli(["isomorphic", seed_file, degenerate]).exit_code == 3

    @pytest.mark.parametrize(
        "seeds",
        [
            lambda: (REFERENCE, group_act(random_monomial_pair(random.Random(5), 3, 2), REFERENCE)),
            lambda: _rhizomatic_seed_and_image(64),
        ],
        ids=["reference", "k64"],
    )
    def test_image_under_monomial_pair(self, tmp_path, seeds):
        # a seed and its image are isomorphic and print the same canonical form
        paths = [_write(tmp_path, f"{n}.json", json.dumps(seed_to_json(s))) for n, s in enumerate(seeds())]
        result = run_cli(["isomorphic", *paths])
        assert result[:3] == (0, "isomorphic: true\n", "")
        one, two = (run_cli(["canonical", "--json", path]) for path in paths)
        assert one.exit_code == 0
        assert one[:3] == two[:3]

    def test_isomorphic_json(self, seed_file):
        result = run_cli(["isomorphic", "--json", seed_file, seed_file])
        assert result.exit_code == 0
        assert result.stdout == '{\n  "isomorphic": true\n}\n'

    # sha256 of stdout, recorded before the coupling walk, the tree gauge,
    # the canonical sort and the kernel's back substitution were rewritten
    CANONICAL_K12_SHA256 = "d30279db88e67d60e6f4a3b982ed191c4ece9a16f42003d22a21f708bec30dce"
    ENDO_STAIRCASE_K16_SHA256 = "7ec8ab1cc9feb4094a1fcc05d0ba20923d6f47fa8381d83b241dcb67622e3313"

    def test_canonical_json_bytes_are_pinned(self, tmp_path):
        # a k = l = 12 regular rhizomatic seed and its image under a
        # monomial pair print the same bytes
        seed, acted = _rhizomatic_seed_and_image(12)
        for name, s in (("seed.json", seed), ("acted.json", acted)):
            path = _write(tmp_path, name, json.dumps(seed_to_json(s)))
            result = run_cli(["canonical", "--json", path])
            assert result.exit_code == 0
            assert hashlib.sha256(result.stdout.encode()).hexdigest() == self.CANONICAL_K12_SHA256

    def test_endo_json_bytes_are_pinned(self, tmp_path):
        # repeated shifts, staircase seed 2 at k = l = 16: the commutant is
        # eliminated and read off by back substitution
        rng = random.Random(2)
        shifts = _repeating(rng, 16) + _repeating(rng, 16)
        rep = build_rep(_staircase_seed(16, rng, shifts))
        path = _write(tmp_path, "rep.json", json.dumps(rep_to_json(rep)))
        result = run_cli(["endo", "--json", path])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == self.ENDO_STAIRCASE_K16_SHA256


class TestSplit:
    def test_core_only_module(self, rep_file):
        result = run_cli(["split", rep_file])
        assert result.exit_code == 0
        assert "paired blocks: none" in result.stdout
        assert "core: dimension 5 (3 + 2)" in result.stdout
        assert "core_split: unknown" in result.stdout

    def test_two_sided_core_document(self, tmp_path):
        rep = make_split_core(
            a_free=[GaussRat(4)],
            b_free=[GaussRat(1)],
            shared=GaussRat(6),
            coupling_up=Mat([[3]]),
            coupling_down=Mat([[2]]),
        )
        path = _write(tmp_path, "core.json", json.dumps(rep_to_json(rep)))
        result = run_cli(["split", path, "--json"])
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert document["core_split"]["verdict"] == "decomposable"
        assert document["rest"] is None
        assert document["plus_block"] == [0, 1]

    def test_paired_blocks_text(self, tmp_path):
        core = make_split_core(
            a_free=[GaussRat(4)],
            b_free=[GaussRat(1)],
            shared=GaussRat(6),
            coupling_up=Mat([[3]]),
            coupling_down=Mat([[2]]),
        )
        rep = direct_sum(
            [
                core,
                make_weight_block(GaussRat(2), GaussRat(3), GaussRat(5)),
                make_weight_block(GaussRat(1, 1), GaussRat(2, 1), GaussRat(7)),
            ]
        )
        path = _write(tmp_path, "blocks.json", json.dumps(rep_to_json(rep)))
        result = run_cli(["split", path])
        assert result.exit_code == 0
        assert result.stdout == (
            "plus_block: 0 1\n"
            "minus_block: 2 3\n"
            "paired block d=2+i: plus [6] minus [7]\n"
            "paired block d=3: plus [4] minus [5]\n"
            "core: dimension 4 (2 + 2)\n"
            "rest: dimension 4\n"
            "core_split: decomposable (nonzero lower coupling block splits the "
            "module into two invariant summands)\n"
        )

    def test_paired_block_document(self, tmp_path):
        rep = direct_sum(
            [build_rep(SMALL), make_weight_block(GaussRat(2), GaussRat(3), GaussRat(5))]
        )
        path = _write(tmp_path, "blocks.json", json.dumps(rep_to_json(rep)))
        result = run_cli(["split", "--json", path])
        assert result.exit_code == 0

        def module(y1, y2, s, e):
            return {"k": 1, "l": 1, "y1": y1, "y2": y2, "s": s, "e": e}

        def grid(*entries):
            cells = [[entry, "0/1"] for entry in entries]
            return [cells[:2], cells[2:]]

        document = {
            "plus_block": [0],
            "minus_block": [1],
            "other_blocks": [{"weight": ["3/1", "0/1"], "plus": [2], "minus": [3]}],
            "core": module(
                grid("1/1", "0/1", "0/1", "2/1"),
                grid("0/1", "0/1", "0/1", "3/1"),
                grid("-1/1", "2/1", "0/1", "1/1"),
                grid("0/1", "-4/1", "0/1", "0/1"),
            ),
            "rest": module(
                grid("2/1", "0/1", "0/1", "-1/1"),
                grid("-1/1", "0/1", "0/1", "2/1"),
                grid("-1/3", "5/1", "8/45", "1/3"),
                grid("0/1", "0/1", "0/1", "0/1"),
            ),
            "core_split": {
                "verdict": "unknown",
                "reason": "lower coupling block is zero; decide from the seed data instead",
                "witness": None,
                "endo_dim": None,
            },
        }
        assert result.stdout == json.dumps(document, indent=2) + "\n"

    def test_rejects_invalid_module(self, tmp_path):
        for document, _ in _invalid_modules():
            path = _write(tmp_path, "broken.json", json.dumps(document))
            result = run_cli(["split", path])
            assert (result.exit_code, result.stdout) == (3, "")
            assert result.stderr.startswith("input violates")
            assert "Traceback" not in result.stderr


# each fuzz property: the `cli` global replaced so that it fails, the
# failure it reports and the trials of `fuzz --seed 1 --trials 3` that report
# it; the last three need e_nonzero_guarantee, which holds in trial 2 only
FUZZ_FAILURES = [
    (
        "verify_periplectic",
        lambda rep: RelationReport(
            False, (Violation("s*s = 1", (0, 1), GaussRat(1), GaussRat(0)),), ("s*s = 1",)
        ),
        "relation s*s = 1 fails at (0, 1)",
        [0, 1, 2],
    ),
    ("entrywise_e", lambda seed: None, "e block disagrees with the entrywise formula", [0, 1, 2]),
    ("e_sandwich_zero", lambda rep, poly: False, "e * f(y1, y2) * e is nonzero", [0, 1, 2]),
    (
        "endo_report",
        lambda rep: EndoReport(0, (), True),
        "endomorphism dimension disagrees with the component count",
        [0, 1, 2],
    ),
    ("rep_from_json", lambda document: None, "module does not survive a serialization round trip", [0, 1, 2]),
    ("e_is_zero", lambda rep: True, "guaranteed-nonzero e is zero", [2]),
    ("canonical_form", lambda seed: object(), "canonical form moved under the group action", [2]),
    ("isomorphic", lambda one, two: False, "acted seed not isomorphic to the original", [2]),
]


class TestFuzz:
    def test_deterministic_and_green(self):
        for trials, args in (
            (12, ["fuzz", "--trials", "12", "--seed", "7"]),
            (60, ["fuzz", "--seed", "3", "--trials", "60"]),
            (40, ["fuzz", "--kmax", "10", "--lmax", "10", "--trials", "40", "--seed", "11"]),
        ):
            first = run_cli(args)
            second = run_cli(args)
            assert first.exit_code == 0
            assert first.stdout == second.stdout
            assert f"{trials}/{trials} trials passed" in first.stdout

    def test_json_document(self):
        result = run_cli(["fuzz", "--trials", "5", "--seed", "3", "--json"]
        )
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert document["passed"] is True
        assert document["failures"] == []
        assert document["seed"] == 3

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_failure_report(self, monkeypatch, flags):
        from periplectic import cli

        for name, replacement, problem, trials in FUZZ_FAILURES:
            with monkeypatch.context() as patch:
                patch.setattr(cli, name, replacement)
                result = run_cli(["fuzz", "--seed", "1", "--trials", "3", *flags])
            assert result.exit_code == 1, name
            assert result.stderr == ""
            if flags:
                document = json.loads(result.stdout)
                assert document["passed"] is False
                assert document["failures"] == [{"trial": t, "problem": problem} for t in trials]
            else:
                assert result.stdout == (
                    "fuzz kmax=4 lmax=4 trials=3 seed=1\n"
                    + "".join(f"FAIL trial {t}: {problem}\n" for t in trials)
                    + f"{3 - len(trials)}/3 trials passed\n"
                )

    def test_smallest_counts_run(self):
        result = run_cli(["fuzz", "--kmax", "1", "--lmax", "1", "--trials", "3"])
        assert result.exit_code == 0
        assert "3/3 trials passed" in result.stdout
        result = run_cli(["fuzz", "--trials", "0"])
        assert result.exit_code == 0
        assert "0/0 trials passed" in result.stdout


VERBS = (
    "construct",
    "verify",
    "rhizome",
    "indecomposable",
    "endo",
    "canonical",
    "isomorphic",
    "split",
    "fuzz",
)


def test_help_lists_all_verbs():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    for verb in VERBS:
        assert verb in result.stdout


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["bogus"],
            ["construct"],
            ["isomorphic", "one.json"],
            ["verify", "--bogus", "rep.json"],
            ["split", "--js", "rep.json"],
            ["fuzz", "--trials", "x"],
            ["fuzz", "--kmax", "0"],
            ["fuzz", "--lmax", "0"],
            ["fuzz", "--kmax", "-1"],
            ["fuzz", "--lmax", "-3"],
            ["fuzz", "--trials", "-3"],
        ],
    )
    def test_exits_2_without_output(self, args):
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "usage: periplectic" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "verb, options",
        [
            ("construct", []),
            ("verify", ["--json"]),
            ("split", ["--json"]),
            ("isomorphic", ["--json"]),
            ("fuzz", ["--kmax", "--lmax", "--trials", "--seed", "--json"]),
        ],
    )
    def test_verb_help_lists_its_options(self, verb, options):
        result = run_cli([verb, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"usage: periplectic {verb}")
        for option in options:
            assert option in result.stdout


def test_callbacks_are_looked_up_at_call_time(monkeypatch):
    """The benchmark's traced launcher replaces `callback` after import."""
    calls = []

    def callback(**options):
        calls.append(options)
        return "", 0

    monkeypatch.setattr(main.commands["split"], "callback", callback)
    result = run_cli(["split", "--json", "rep.json"])
    assert result.exit_code == 0
    assert calls == [{"rep_file": "rep.json", "as_json": True}]


# the positional arguments of each verb
VERB_ARGS = {
    "construct": ["seed.json"],
    "verify": ["rep.json"],
    "rhizome": ["seed.json"],
    "indecomposable": ["seed.json"],
    "endo": ["rep.json"],
    "canonical": ["seed.json"],
    "isomorphic": ["seed.json", "other.json"],
    "split": ["rep.json"],
    "fuzz": [],
}


@pytest.mark.parametrize("verb", list(VERB_ARGS))
def test_hypothesis_errors_exit_3(monkeypatch, verb):
    """`main` turns a PreconditionError or ShapeError raised by any verb,
    including a callback replaced after import, into exit 3, and a
    CodecError into exit 2, each with the message alone."""
    assert set(VERB_ARGS) == set(main.commands)
    for error, code in ((PreconditionError("x"), 3), (ShapeError("y"), 3), (CodecError("z"), 2)):

        def callback(**options):
            raise error

        monkeypatch.setattr(main.commands[verb], "callback", callback)
        result = run_cli([verb, *VERB_ARGS[verb]])
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == f"{error}\n"


def test_startup_imports():
    """`import periplectic` loads every module the benchmark tracer wraps;
    `import periplectic.cli` then adds no click, no dataclasses and not the
    fuzz samplers.  -S keeps site hooks from importing anything first."""
    probe = """if True:
        import sys
        import periplectic
        wrapped = ("linalg", "algebra", "reps", "rhizome", "classify")
        print(all(f"periplectic.{name}" in sys.modules for name in wrapped))
        import periplectic.cli
        print([m for m in ("click", "dataclasses", "periplectic.sampling") if m in sys.modules])
    """
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["True", "[]"]


def test_cli_runs_as_a_process(tmp_path):
    """`python -m periplectic.cli` exits and writes what `main` does in
    process, on one input for each exit code 0-3."""
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    cases = [
        ["construct", _write(tmp_path, "small.json", json.dumps(seed_to_json(SMALL)))],
        ["verify", _write(tmp_path, "bad-s.json", json.dumps(_bad_s_small()))],
        ["construct", str(tmp_path / "bad.json")],
        ["canonical", _write(tmp_path, "nr.json", json.dumps(seed_to_json(NON_REGULAR)))],
    ]
    for code, args in enumerate(cases):
        done = subprocess.run(
            [sys.executable, "-m", "periplectic.cli", *args],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == run_cli(args)[:3]
        assert done.returncode == code
        assert "Traceback" not in done.stderr


def test_workflow_runs_no_cli_checks():
    """CLI checks belong in this file, which tier-1 runs, not in inline
    scripts of the CI workflow."""
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    assert "periplectic.cli" not in workflow.read_text()


# what a mutation puts in place of a node: small values only, so that no
# mutated document asks for a large allocation.  Half are rational parts,
# so that many mutated documents still decode and reach the algorithms.
JSON_VALUES = st.sampled_from(["0/1", "1/1", "-1/2", "3", "2/3"]) | st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(width=16)
    | st.sampled_from(["1/0", "*", ".", "k"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _paths(node, path=()):
    """The path of every node from the root."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, document):
    """`document` after one to three mutations: a node replaced with another
    JSON value, a key or element dropped, or an element duplicated."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        # deepest first: the simplest mutations change one entry
        path = draw(st.sampled_from(sorted(_paths(document), key=len, reverse=True)))
        if not path:
            document = draw(JSON_VALUES)
            continue
        *path, last = path
        parent = document
        for key in path:
            parent = parent[key]
        kinds = ["replace", "drop"] + (["duplicate"] if isinstance(parent, list) else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "replace":
            parent[last] = draw(JSON_VALUES)
        elif kind == "drop":
            del parent[last]
        else:
            parent.insert(last, copy.deepcopy(parent[last]))
    return document


def _grid_text(document) -> str:
    """A pattern document, a list of rows of cells, as the text grid the
    `rhizome` verb reads; any other JSON value is written as JSON."""
    if not isinstance(document, list):
        return json.dumps(document)
    return "\n".join(
        "".join(c if isinstance(c, str) else json.dumps(c) for c in row)
        if isinstance(row, list)
        else json.dumps(row)
        for row in document
    )


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    """A directory holding the valid seed that `isomorphic` compares with."""
    path = tmp_path_factory.mktemp("mutated")
    _write(path, "valid.json", json.dumps(seed_to_json(REFERENCE)))
    return path


class TestNoTraceback:
    """Mutated seed, rep and pattern documents never end in a traceback:
    each verb exits 0 or 1, or exits 2 or 3 with no stdout and exactly one
    stderr line.  An exception other than SystemExit leaves run_cli and
    fails the test."""

    SETTINGS = settings(max_examples=60, deadline=None)

    def _run_all(self, mutation_dir, text: str, verbs, as_json: bool) -> None:
        path = _write(mutation_dir, "mutated", text)
        for verb in verbs:
            args = [verb, path]
            if verb == "isomorphic":
                args.append(str(mutation_dir / "valid.json"))
            if as_json and verb != "construct":
                args.append("--json")
            result = run_cli(args)
            if result.exit_code in (0, 1):
                continue
            assert result.exit_code in (2, 3), (args, result)
            assert result.stdout == "", (args, result)
            assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), (args, result)

    @SETTINGS
    @given(_mutated(seed_to_json(REFERENCE)), st.booleans())
    def test_mutated_seed(self, mutation_dir, document, as_json):
        verbs = ("construct", "rhizome", "indecomposable", "canonical", "isomorphic")
        self._run_all(mutation_dir, json.dumps(document), verbs, as_json)

    @SETTINGS
    @given(_mutated(rep_to_json(build_rep(REFERENCE))), st.booleans())
    def test_mutated_rep(self, mutation_dir, document, as_json):
        self._run_all(mutation_dir, json.dumps(document), ("verify", "endo", "split"), as_json)

    @SETTINGS
    @given(_mutated([list("*.*"), list(".**"), list("*..")]), st.booleans())
    def test_mutated_pattern(self, mutation_dir, document, as_json):
        self._run_all(mutation_dir, _grid_text(document), ("rhizome",), as_json)
