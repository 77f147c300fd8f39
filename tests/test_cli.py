"""Command-line surface: golden text output, structured round trips, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptolemy.cli
from ptolemy import Arc, LaurentPolynomial, build_triangulation, expand
from ptolemy.cli import _build_parser, main
from ptolemy.polygon import MAX_MATRIX_RANK
from conftest import (
    OCTAGON_DIAGONALS,
    OCTAGON_EXPANSION_TEXT,
    ZIGZAG3_COEFFICIENTS,
    ZIGZAG3_MATRIX,
)

OCTAGON_ARGS = ["--n", "5", "--diagonals", "2-4,4-6,2-6,2-8,6-8", "--target", "3-7"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_octagon_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", *OCTAGON_ARGS)
        assert code == 0
        assert out.strip() == OCTAGON_EXPANSION_TEXT

    def test_contained_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--n", "5", "--diagonals", "2-4,4-6,2-6,2-8,6-8",
            "--target", "2-6",
        )
        assert code == 0
        assert out.strip() == "x3"

    def test_trivial_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--n", "1", "--diagonals", "1-3", "--target", "2-4",
            "--trivial-coefficients",
        )
        assert code == 0
        assert out.strip() == "2*x1^-1"

    def test_structured_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "expand", *OCTAGON_ARGS, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["target"] == [3, 7]
        assert payload["origin"] == 3
        assert payload["format_version"] == 1
        t = build_triangulation(5, OCTAGON_DIAGONALS)
        assert LaurentPolynomial.from_term_list(13, payload["terms"]) == expand(t, Arc(3, 7))

    def test_orient_flag(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "expand", *OCTAGON_ARGS, "--orient", "3")
        code_b, out_b, _ = run_cli(capsys, "expand", *OCTAGON_ARGS, "--orient", "7")
        assert code_a == code_b == 0
        assert out_a == out_b


class TestPaths:
    def test_octagon_lines(self, capsys):
        code, out, _ = run_cli(capsys, "paths", *OCTAGON_ARGS)
        assert code == 0
        assert out.splitlines() == [
            "(3,2,4,6,2,8,6,7 | 7,1,2,3,4,5,11)",
            "(3,2,4,6,8,7 | 7,1,2,5,12)",
            "(3,2,6,7 | 7,3,11)",
            "(3,4,2,6,8,7 | 8,1,3,5,12)",
            "(3,4,2,8,6,7 | 8,1,4,5,11)",
        ]

    def test_contained_target_single_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "paths", "--n", "5", "--diagonals", "2-4,4-6,2-6,2-8,6-8",
            "--target", "2-6",
        )
        assert code == 0
        assert out.splitlines() == ["(2,6 | 3)"]

    def test_reoriented_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "paths", *OCTAGON_ARGS, "--orient", "7")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("(7,") for line in lines)

    def test_structured(self, capsys):
        code, out, _ = run_cli(capsys, "paths", *OCTAGON_ARGS, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["origin"] == 3
        assert len(payload["paths"]) == 5


class TestMatrix:
    def test_zigzag_golden(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "3")
        assert code == 0
        matrix_lines = [" ".join(str(e) for e in row) for row in ZIGZAG3_MATRIX]
        coeff_lines = []
        for j, (plus, minus) in enumerate(ZIGZAG3_COEFFICIENTS, start=1):
            coeff_lines.append(f"p{j}+ = {plus}")
            coeff_lines.append(f"p{j}- = {minus}")
        assert out.splitlines() == matrix_lines + [""] + coeff_lines

    def test_structured(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "3", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == [list(row) for row in ZIGZAG3_MATRIX]
        assert [(c["plus"], c["minus"]) for c in payload["coefficients"]] == [
            tuple(pair) for pair in ZIGZAG3_COEFFICIENTS
        ]

    def test_explicit_diagonals(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--n", "1", "--diagonals", "1-3")
        assert code == 0
        assert out.splitlines()[:5] == ["0", "1", "-1", "1", "-1"]

    @pytest.mark.parametrize(
        "extra", [[], ["--diagonals", ",".join(f"1-{v}" for v in range(3, MAX_MATRIX_RANK + 3))]]
    )
    def test_rank_over_the_cap_refused_before_building(self, capsys, monkeypatch, extra):
        def refuse(*args):
            raise AssertionError("a triangulation was built")

        monkeypatch.setattr(ptolemy.cli, "snake_triangulation", refuse)
        monkeypatch.setattr(ptolemy.cli, "build_triangulation", refuse)
        n = MAX_MATRIX_RANK + 1
        code, out, err = run_cli(capsys, "matrix", "--n", str(n), *extra)
        assert (code, out) == (2, "")
        assert err == f"error: matrix is guarded at rank {MAX_MATRIX_RANK}, got {n}\n"


class TestVerify:
    def test_small_rank_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--level", "full")
        assert code == 0
        assert "RESULT: PASS" in out
        # square: 2 triangulations x 2 diagonals x 2 orientations
        assert "enumeration-vs-brute-force        8  pass" in out

    def test_quick_level(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--level", "quick")
        assert code == 0
        assert "enumeration-vs-brute-force" not in out

    def test_guard_refusal(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "9")
        assert code == 2
        assert "error:" in err


class TestTriangulations:
    def test_pentagon_listing(self, capsys):
        code, out, _ = run_cli(capsys, "triangulations", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "1-3,1-4",
            "1-3,3-5",
            "1-4,2-4",
            "2-4,2-5",
            "2-5,3-5",
        ]

    def test_structured_count(self, capsys):
        code, out, _ = run_cli(capsys, "triangulations", "--n", "3", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["triangulations"]) == 14


class TestGraph:
    def test_square_dot(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["graph flips {", '  "1-3" -- "2-4";', "}"]

    def test_pentagon_structured_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--n", "2", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 5
        assert len(payload["edges"]) == 5
        degree = {i: 0 for i in range(5)}
        for i, j in payload["edges"]:
            degree[i] += 1
            degree[j] += 1
        assert all(d == 2 for d in degree.values())


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["expand", *OCTAGON_ARGS], "expand_octagon.json"),
        (["paths", *OCTAGON_ARGS], "paths_octagon.json"),
        (["matrix", "--n", "3"], "matrix_n3.json"),
        (["triangulations", "--n", "2"], "triangulations_n2.json"),
        (["graph", "--n", "2"], "graph_n2.json"),
    ],
    ids=["expand", "paths", "matrix", "triangulations", "graph"],
)
def test_structured_output_is_byte_exact(capsys, argv, golden):
    # Whole stdout: key order, two-space indentation and the trailing newline.
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["graph", "--n", "6", "--format", "structured"],
            "ec02d696c5347c9082eb2c761bf30813debdf1625d4b6339c8006850021b2e1f",
        ),
        (["graph", "--n", "5"], "25656685db8e65c1a5a348c20e7fe00c084e2fe7b8437a890b3b1f6d39679bfe"),
        (
            ["triangulations", "--n", "6", "--format", "structured"],
            "f76f10a888d38bb091308001d9c3791dfcd9c404240a1cd66cb784396e7416fa",
        ),
    ],
    ids=["graph-6-structured", "graph-5-dot", "triangulations-6-structured"],
)
def test_enumeration_output_digest(capsys, argv, digest):
    # SHA-256 of the whole stdout, too long to keep as golden text.
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSpecFile:
    def test_file_matches_flags(self, capsys, tmp_path):
        spec = tmp_path / "problem.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 5,
                    "diagonals": [[2, 4], [4, 6], [2, 6], [2, 8], [6, 8]],
                    "target": [3, 7],
                }
            )
        )
        code, out, _ = run_cli(capsys, "expand", "--spec-file", str(spec))
        assert code == 0
        assert out.strip() == OCTAGON_EXPANSION_TEXT

    def test_flags_override_file(self, capsys, tmp_path):
        spec = tmp_path / "problem.json"
        spec.write_text(
            json.dumps({"n": 5, "diagonals": [[2, 4], [4, 6], [2, 6], [2, 8], [6, 8]],
                        "target": [3, 7]})
        )
        code, out, _ = run_cli(capsys, "expand", "--spec-file", str(spec), "--target", "2-6")
        assert code == 0
        assert out.strip() == "x3"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "expand", "--spec-file", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_malformed_pairs(self, capsys, tmp_path):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps({"n": 1, "diagonals": [[1, 3, 5]], "target": [2, 4]}))
        code, _, err = run_cli(capsys, "expand", "--spec-file", str(spec))
        assert code == 2
        assert "vertex pair" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"n": "five", "diagonals": [[1, 3]], "target": [2, 4]},
        {"n": True, "diagonals": [[1, 3]], "target": [2, 4]},
        {"n": 1.0, "diagonals": [[1, 3]], "target": [2, 4]},
        {"n": 1, "diagonals": [["a", 3]], "target": [2, 4]},
        {"n": 1, "diagonals": 5, "target": [2, 4]},
        {"n": 1, "diagonals": [[1, 3]], "target": [1, "x"]},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "orient": "x"},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "format": "xml"},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "format": ["text"]},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "trivial_coefficients": "no"},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "trivial_coefficients": 1},
        {"n": 1, "diagonals": [[1, 3]], "target": [2, 4], "trivial_coefficients": "no",
         "format": "xml"},
    ],
    ids=["n-string", "n-bool", "n-float", "diagonal-string", "diagonals-int", "target-string",
         "orient-string", "format-unknown", "format-list", "trivial-string", "trivial-int",
         "trivial-and-format"],
)
def test_malformed_spec_values_exit_two(capsys, tmp_path, spec):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "expand", "--spec-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: spec-file ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"n": 1}',
        b'{"n": ' + b"1" * 5000 + b"}",
        b"[" * 100_000,
    ],
    ids=["not-utf8", "int-past-digit-limit", "nested-too-deep"],
)
def test_unreadable_spec_file_exits_two(capsys, tmp_path, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "expand", "--spec-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: spec file ") and err.count("\n") == 1


class TestInputErrors:
    def test_crossing_diagonals(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--n", "2", "--diagonals", "1-3,2-4", "--target", "1-4"
        )
        assert code == 2
        assert err == "error: diagonals 1-3 and 2-4 cross\n"

    def test_missing_rank(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--diagonals", "1-3", "--target", "2-4")
        assert code == 2
        assert "error:" in err

    def test_bad_pair_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--n", "1", "--diagonals", "13", "--target", "2-4"
        )
        assert code == 2
        assert "error:" in err

    def test_boundary_target(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--n", "1", "--diagonals", "1-3", "--target", "1-2"
        )
        assert code == 2
        assert "boundary" in err

    def test_boundary_target_has_no_paths(self, capsys):
        code, out, err = run_cli(
            capsys, "paths", "--n", "1", "--diagonals", "1-3", "--target", "1-2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "diagonals, message",
        [
            ("1-2,1-3", "error: 1-2 is a boundary edge, not a diagonal\n"),
            ("1-3,1-9", "error: vertex 9 out of range 1..5\n"),
        ],
        ids=["boundary-pair", "vertex-out-of-range"],
    )
    def test_bad_diagonal_is_one_line(self, capsys, diagonals, message):
        code, out, err = run_cli(
            capsys, "expand", "--n", "2", "--diagonals", diagonals, "--target", "2-4"
        )
        assert (code, out, err) == (2, "", message)

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["expand", "--n", "abc", "--diagonals", "1-3", "--target", "2-4"],
                "argument --n: invalid int value: 'abc'",
            ),
            (
                ["verify", "--n", "2", "--level", "bogus"],
                "argument --level: invalid choice: 'bogus' (choose from 'quick', 'full')",
            ),
            (
                ["no-such-command"],
                "argument command: invalid choice: 'no-such-command' (choose from "
                "'expand', 'paths', 'matrix', 'verify', 'triangulations', 'graph')",
            ),
            (["verify"], "the following arguments are required: --n"),
        ],
        ids=["bad-int", "bad-level", "unknown-command", "missing-rank"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_one_parser_serves_every_call_in_a_process(capsys):
    # The parser is built once per process; neither a rejected argument nor an
    # input error may leave state behind that changes a later call's output.
    assert _build_parser() is _build_parser()
    expand_golden = (GOLDEN / "expand_octagon.json").read_text()
    assert run_cli(capsys, "expand", *OCTAGON_ARGS, "--format", "structured") == (0, expand_golden, "")
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--n", "x", "--diagonals", "1-3", "--target", "2-4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out, err = run_cli(capsys, "expand", "--n", "1", "--diagonals", "1-3", "--target", "1-2")
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert run_cli(capsys, "expand", *OCTAGON_ARGS, "--format", "structured") == (0, expand_golden, "")
    graph_golden = (GOLDEN / "graph_n2.json").read_text()
    assert run_cli(capsys, "graph", "--n", "2", "--format", "structured") == (0, graph_golden, "")


def run_with_closed_stdout(argv, optimize, read_first_line):
    """Run ``python [-O] -m ptolemy argv`` with its stdout closed early: after
    one line is read, or before the process starts.  Returns (exit code,
    first line read, stderr)."""
    src = Path(ptolemy.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    # Block-buffered stdout, as in a shell pipeline: short output is first
    # written by a flush, not by ``print``.
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, *(["-O"] if optimize else []), "-m", "ptolemy", *argv]
    if read_first_line:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(command, stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        first = b""
    _, err = proc.communicate(timeout=120)
    return proc.returncode, first, err


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "argv, read_first_line, first",
    [
        # Far more than a pipe buffer, so a write meets the closed pipe: ``| head -1``.
        (["graph", "--n", "7"], True, b"graph flips {\n"),
        # One short line, still buffered when the command returns: the flush meets it.
        (["expand", *OCTAGON_ARGS], False, b""),
        # argparse prints the help, short and still buffered, then exits.
        (["--help"], False, b""),
        (["graph", "--help"], False, b""),
    ],
    ids=["head", "closed-before-start", "help", "subcommand-help"],
)
def test_closed_stdout_exits_141_without_traceback(argv, read_first_line, first, optimize):
    assert run_with_closed_stdout(argv, optimize, read_first_line) == (141, first, b"")
