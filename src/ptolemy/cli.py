"""Command-line interface.

Commands: expand, paths, matrix, verify, triangulations, graph.  Problems are
described by flags (--n, --diagonals, --target, --orient) or a JSON spec file;
explicit flags override the file.  Text output is stable and pinned by golden
tests; structured output is versioned JSON.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .errors import InputError, ResourceLimitError
from .expansion import expand, expand_trivial_coefficients
from .laurent import LaurentPolynomial
from .oracle import exchange_matrix, initial_coefficients
from .polygon import (
    MAX_MATRIX_RANK,
    Arc,
    Triangulation,
    all_triangulations,
    build_triangulation,
    flip_graph,
    snake_triangulation,
)
from .tpaths import enumerate_t_paths
from .verify import LEVELS, all_pass, render_report, run_checks

FORMAT_VERSION = 1
FORMATS = ("text", "structured")
# Vertices 1..n+3 counterclockwise; diagonals labeled 1..n, boundary {k,k+1} -> n+k.
LABELING = "ccw-1based/boundary-n+k/v1"


@dataclass
class ProblemSpec:
    """Parsed problem description for the expand/paths/matrix commands."""

    n: int
    diagonals: list[tuple[int, int]]
    target: tuple[int, int] | None = None
    orient: int | None = None
    trivial_coefficients: bool = False
    fmt: str = "text"

    def triangulation(self) -> Triangulation:
        return build_triangulation(self.n, self.diagonals)

    def chord(self) -> Arc:
        if self.target is None:
            raise InputError("no target diagonal given (use --target or the spec file)")
        if len(self.target) != 2:
            raise InputError(f"target must be a vertex pair, got {self.target!r}")
        return Arc(*self.target)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split("-")
    if len(parts) != 2:
        raise InputError(f"expected a pair like 2-4, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"expected integers in {text!r}") from exc


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    text = text.strip()
    if not text:
        return []
    return [_parse_pair(part) for part in text.split(",")]


def _spec_int(value: object, what: str) -> int:
    """A spec-file value that must be a JSON integer (not a boolean, float or string)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"spec-file {what} must be an integer, got {value!r}")
    return value


def _spec_pair(value: object, what: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"spec-file {what} {value!r} is not a vertex pair")
    where = f"{what} {value!r} entry"
    return _spec_int(value[0], where), _spec_int(value[1], where)


def _load_spec(args: argparse.Namespace) -> ProblemSpec:
    data: dict = {}
    if getattr(args, "spec_file", None):
        try:
            with open(args.spec_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("spec file must hold a JSON object")

    n = args.n
    if n is None and data.get("n") is not None:
        n = _spec_int(data["n"], "n")
    if n is None:
        raise InputError("no rank given (use --n or the spec file)")
    if args.diagonals is not None:
        diagonals = _parse_pairs(args.diagonals)
    elif "diagonals" in data:
        if not isinstance(data["diagonals"], list):
            raise InputError(f"spec-file diagonals {data['diagonals']!r} are not a list of pairs")
        diagonals = [_spec_pair(pair, "diagonal") for pair in data["diagonals"]]
    else:
        diagonals = None

    target = None
    if getattr(args, "target", None) is not None:
        target = _parse_pair(args.target)
    elif data.get("target") is not None:
        target = _spec_pair(data["target"], "target")

    orient = getattr(args, "orient", None)
    if orient is None and data.get("orient") is not None:
        orient = _spec_int(data["orient"], "orient")

    trivial = getattr(args, "trivial_coefficients", False)
    if not trivial and data.get("trivial_coefficients") is not None:
        trivial = data["trivial_coefficients"]
        if not isinstance(trivial, bool):
            raise InputError(f"spec-file trivial_coefficients must be true or false, got {trivial!r}")
    fmt = getattr(args, "format", None)
    if fmt is None and data.get("format") is not None:
        fmt = data["format"]
        if fmt not in FORMATS:
            raise InputError(f"spec-file format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    if diagonals is None:
        raise InputError("no diagonals given (use --diagonals or the spec file)")
    return ProblemSpec(n, diagonals, target, orient, trivial, fmt or "text")


def _structured(n: int, **fields: object) -> str:
    """Versioned JSON document: the format header, then ``fields`` in call order."""
    return json.dumps(
        {"format_version": FORMAT_VERSION, "labeling": LABELING, "n": n, **fields}, indent=2
    )


def polynomial_from_payload(payload: dict) -> LaurentPolynomial:
    """Rebuild the polynomial from a structured expand payload."""
    if payload.get("format_version") != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {payload.get('format_version')!r}")
    nvars = 2 * int(payload["n"]) + 3
    return LaurentPolynomial.from_term_list(nvars, payload["terms"])


def _problem(args: argparse.Namespace) -> tuple[ProblemSpec, Triangulation, Arc, int]:
    """The spec, its triangulation, the target chord and the origin (default: smaller end)."""
    spec = _load_spec(args)
    t = spec.triangulation()
    chord = spec.chord()
    return spec, t, chord, spec.orient if spec.orient is not None else chord.u


def _cmd_expand(args: argparse.Namespace) -> int:
    spec, t, chord, origin = _problem(args)
    expander = expand_trivial_coefficients if spec.trivial_coefficients else expand
    poly = expander(t, chord, origin)
    if spec.fmt == "structured":
        print(
            _structured(
                spec.n,
                target=chord.endpoints(),
                origin=origin,
                trivial_coefficients=spec.trivial_coefficients,
                terms=poly.to_term_list(),
            )
        )
    else:
        print(poly.render())
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    spec, t, chord, origin = _problem(args)
    if not chord.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {chord}")
    paths = [str(p) for p in enumerate_t_paths(t, origin, chord.other_end(origin))]
    if spec.fmt == "structured":
        print(_structured(spec.n, target=chord.endpoints(), origin=origin, paths=paths))
    else:
        for line in paths:
            print(line)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.diagonals is None and args.spec_file is None:
        if args.n is None:
            raise InputError("no rank given (use --n)")
        spec = None
        n = args.n
        fmt = args.format or "text"
    else:
        spec = _load_spec(args)
        n = spec.n
        fmt = spec.fmt
    if n > MAX_MATRIX_RANK:
        raise ResourceLimitError(f"matrix is guarded at rank {MAX_MATRIX_RANK}, got {n}")
    t = snake_triangulation(n) if spec is None else spec.triangulation()
    matrix = exchange_matrix(t)
    pairs = initial_coefficients(t)
    if fmt == "structured":
        coefficients = [
            {
                "plus": plus.render(),
                "minus": minus.render(),
                "plus_exponents": plus.exponents,
                "minus_exponents": minus.exponents,
            }
            for plus, minus in pairs
        ]
        print(_structured(n, matrix=matrix.rows, coefficients=coefficients))
    else:
        print(matrix.render())
        print()
        for j, (plus, minus) in enumerate(pairs, start=1):
            print(f"p{j}+ = {plus.render()}")
            print(f"p{j}- = {minus.render()}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = run_checks(args.n, args.level)
    print(render_report(args.n, args.level, rows))
    return 0 if all_pass(rows) else 1


def _node_name(t: Triangulation) -> str:
    return ",".join(str(arc) for arc in t.diagonal_key())


def _cmd_triangulations(args: argparse.Namespace) -> int:
    nodes = all_triangulations(args.n)
    if args.format == "structured":
        pairs = [[arc.endpoints() for arc in t.diagonal_key()] for t in nodes]
        print(_structured(args.n, triangulations=pairs))
    else:
        for t in nodes:
            print(_node_name(t))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    nodes, edges = flip_graph(args.n)
    names = [_node_name(t) for t in nodes]
    if args.format == "structured":
        print(_structured(args.n, nodes=names, edges=edges))
    else:
        print("graph flips {")
        for i, j in edges:
            print(f'  "{names[i]}" -- "{names[j]}";')
        print("}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it keeps no parsed input."""
    parser = argparse.ArgumentParser(
        prog="ptolemy",
        description=(
            "Exact Laurent expansions of polygon cluster variables: path sums, "
            "exchange recursion, seed matrices and verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--n", type=int, default=None, help="rank (polygon has n+3 vertices)")
    problem.add_argument(
        "--diagonals", default=None, help='triangulation diagonals, e.g. "2-4,4-6,2-6"'
    )
    problem.add_argument("--spec-file", default=None, help="JSON problem description")
    problem.add_argument(
        "--format", choices=FORMATS, default=None, help="output format"
    )

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--target", default=None, help='diagonal to expand, e.g. "3-7"')
    target.add_argument(
        "--orient", type=int, default=None, help="endpoint anchoring the crossing order"
    )

    p_expand = sub.add_parser(
        "expand", parents=[problem, target], help="Laurent expansion of a diagonal"
    )
    p_expand.add_argument(
        "--trivial-coefficients",
        action="store_true",
        help="substitute 1 for every boundary variable",
    )
    p_expand.set_defaults(func=_cmd_expand)

    p_paths = sub.add_parser(
        "paths", parents=[problem, target], help="list the admissible paths"
    )
    p_paths.set_defaults(func=_cmd_paths)

    p_matrix = sub.add_parser(
        "matrix",
        parents=[problem],
        help="sign matrix and coefficient pairs (zigzag triangulation when no diagonals given)",
    )
    p_matrix.set_defaults(func=_cmd_matrix)

    p_verify = sub.add_parser("verify", help="run the verification sweeps for one rank")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--level", choices=LEVELS, default="full")
    p_verify.set_defaults(func=_cmd_verify)

    p_tri = sub.add_parser("triangulations", help="list every triangulation of the polygon")
    p_tri.add_argument("--n", type=int, required=True)
    p_tri.add_argument("--format", choices=FORMATS, default="text")
    p_tri.set_defaults(func=_cmd_triangulations)

    p_graph = sub.add_parser("graph", help="export the flip graph")
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.add_argument("--format", choices=FORMATS, default="text")
    p_graph.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
