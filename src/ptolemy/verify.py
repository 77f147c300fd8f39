"""Exhaustive verification sweeps over every triangulation of one polygon.

Each check runs over all triangulations of the (n+3)-gon and all diagonals
(both orientations where orientation matters) and reports a pass/fail row;
the quick level covers the expansion/recursion agreement and its structural
consequences, the full level adds the path-set oracle and the partition and
bijection checks at the ranks where their guards allow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantError
from .expansion import (
    check_bijections_fg,
    check_partitions,
    check_positivity,
    denominator_vector,
    expand,
)
from .oracle import cluster_variable_recursive
from .polygon import MAX_ENUMERATION_RANK, all_polygon_diagonals, all_triangulations
from .tpaths import MAX_BRUTE_FORCE_RANK, brute_force_t_paths, enumerate_t_paths

# Triangulation counts of the (n+3)-gon by rank n (Catalan numbers C(n+1)).
TRIANGULATION_COUNTS = {1: 2, 2: 5, 3: 14, 4: 42, 5: 132, 6: 429, 7: 1430, 8: 4862}

LEVELS = ("quick", "full")


@dataclass
class CheckRow:
    name: str
    instances: int
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


def run_checks(n: int, level: str = "full") -> list[CheckRow]:
    if level not in LEVELS:
        raise InputError(f"level must be one of {LEVELS}, got {level!r}")
    if not 1 <= n <= MAX_ENUMERATION_RANK:
        raise InputError(f"verification sweeps accept ranks 1..{MAX_ENUMERATION_RANK}, got {n}")
    triangulations = all_triangulations(n)
    diagonals = all_polygon_diagonals(n)
    rows = [
        _check_counts(n, triangulations),
        _check_expansion_vs_recursion(triangulations, diagonals),
        _check_term_structure(triangulations, diagonals),
        _check_denominators(triangulations, diagonals),
    ]
    if level == "full":
        rows.append(_check_enumerator_oracle(n, triangulations, diagonals))
        rows.append(_check_partitions(triangulations, diagonals))
        rows.append(_check_bijections(triangulations, diagonals))
    return rows


def all_pass(rows: list[CheckRow]) -> bool:
    return all(row.status != "fail" for row in rows)


def render_report(n: int, level: str, rows: list[CheckRow]) -> str:
    lines = [f"verification sweep: n={n} level={level}"]
    width = max(len(row.name) for row in rows)
    for row in rows:
        line = f"  {row.name.ljust(width)}  {row.instances:>7}  {row.status}"
        if row.detail:
            line += f"  ({row.detail})"
        lines.append(line)
    lines.append(f"RESULT: {'PASS' if all_pass(rows) else 'FAIL'}")
    return "\n".join(lines)


def _oriented_instances(triangulations, diagonals):
    for t in triangulations:
        for chord in diagonals:
            for origin in chord.endpoints():
                yield t, chord, origin


def _check_counts(n, triangulations) -> CheckRow:
    expected = TRIANGULATION_COUNTS[n]
    ok = len(triangulations) == expected
    return CheckRow(
        "triangulation-count",
        1,
        "pass" if ok else "fail",
        f"{len(triangulations)} of {expected}",
    )


def _check_expansion_vs_recursion(triangulations, diagonals) -> CheckRow:
    checked = 0
    for t in triangulations:
        for chord in diagonals:
            polys = [expand(t, chord, o) for o in chord.endpoints()]
            polys += [cluster_variable_recursive(t, chord, o) for o in chord.endpoints()]
            checked += 1
            if any(p != polys[0] for p in polys[1:]):
                return CheckRow(
                    "expansion-vs-recursion",
                    checked,
                    "fail",
                    f"{chord} in {t.diagonal_key()}",
                )
    return CheckRow("expansion-vs-recursion", checked, "pass")


def _check_term_structure(triangulations, diagonals) -> CheckRow:
    checked = 0
    for t in triangulations:
        for chord in diagonals:
            if t.contains(chord):
                continue
            checked += 1
            poly = expand(t, chord)
            paths = enumerate_t_paths(t, chord.u, chord.v)
            if not check_positivity(poly) or len(poly) != len(paths):
                return CheckRow(
                    "unit-coefficients",
                    checked,
                    "fail",
                    f"{chord} in {t.diagonal_key()}",
                )
    return CheckRow("unit-coefficients", checked, "pass")


def _check_denominators(triangulations, diagonals) -> CheckRow:
    checked = 0
    for t in triangulations:
        for chord in diagonals:
            checked += 1
            try:
                denominator_vector(t, chord)
            except InvariantError:
                return CheckRow(
                    "denominator-vectors", checked, "fail", f"{chord} in {t.diagonal_key()}"
                )
    return CheckRow("denominator-vectors", checked, "pass")


def _check_enumerator_oracle(n, triangulations, diagonals) -> CheckRow:
    if n > MAX_BRUTE_FORCE_RANK:
        return CheckRow(
            "enumeration-vs-brute-force", 0, "skip", f"guarded to rank {MAX_BRUTE_FORCE_RANK}"
        )
    checked = 0
    for t, chord, origin in _oriented_instances(triangulations, diagonals):
        target = chord.other_end(origin)
        checked += 1
        if set(enumerate_t_paths(t, origin, target)) != set(brute_force_t_paths(t, origin, target)):
            return CheckRow(
                "enumeration-vs-brute-force",
                checked,
                "fail",
                f"{origin}->{target} in {t.diagonal_key()}",
            )
    return CheckRow("enumeration-vs-brute-force", checked, "pass")


def _check_partitions(triangulations, diagonals) -> CheckRow:
    checked = 0
    for t, chord, origin in _oriented_instances(triangulations, diagonals):
        if t.contains(chord):
            continue
        checked += 1
        report = check_partitions(t, origin, chord.other_end(origin))
        if not report.ok:
            return CheckRow("first-edge-partition", checked, "fail", report.failures[0])
    return CheckRow("first-edge-partition", checked, "pass")


def _check_bijections(triangulations, diagonals) -> CheckRow:
    checked = 0
    for t, chord, origin in _oriented_instances(triangulations, diagonals):
        if t.contains(chord):
            continue
        checked += 1
        report = check_bijections_fg(t, origin, chord.other_end(origin))
        if not report.ok:
            return CheckRow("start-edge-bijections", checked, "fail", report.failures[0])
    return CheckRow("start-edge-bijections", checked, "pass")
