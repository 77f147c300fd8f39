"""Exhaustive verification sweeps over every triangulation of one polygon.

One pass visits every triangulation of the (n+3)-gon and, in it, every
diagonal once.  Per triangulation it enumerates the paths for both
orientations of every diagonal into one table, weighing each entry's paths
once as it is made (``path_entry``), and every row reads that table through
the ``paths=`` argument of the expansion checks.  Each diagonal is expanded
once from its smaller endpoint; the agreement row compares that polynomial
with the expansion from the other endpoint and with both recursion
orientations, and the unit-coefficient and denominator rows read it as it is
(``denominator_vector``'s ``poly=``).  The path-set oracle gets a table of
its own, filled one source vertex at a time by a single brute-force walk to
all of that vertex's targets (fixed for the sweep), and only while its row
is running, so a skipped or failed row walks nothing.  Each crossed oriented
chord's crossing step is read once (``first_crossing_step``) and handed to
both the partition and the bijection row (``step=``); nothing keeps it past
that chord.  The exchange recursion reads its steps from the fan directly
and keeps its polynomials per call, one call per orientation; apart from the
chord itself the two orientations step disjoint arcs, so the agreement row
still tests that the expansion does not depend on the orientation.  Each row
counts its instances (both orientations where orientation matters) and stops
at its first failure, as if it ran alone; a failure's detail is formatted
only then.  The quick level covers the expansion/recursion agreement and its
structural consequences; the full level adds the path-set oracle and the
partition and bijection checks at the ranks where their guards allow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb

from .errors import InputError, InvariantError
from .expansion import (
    check_bijections_fg,
    check_partitions,
    check_positivity,
    denominator_vector,
    expand,
    path_entry,
)
from .oracle import cluster_variable_recursive
from .polygon import (
    MAX_ENUMERATION_RANK,
    all_polygon_diagonals,
    all_triangulations,
    first_crossing_step,
)
from .tpaths import MAX_BRUTE_FORCE_RANK, TPath, brute_force_t_path_table, enumerate_t_paths

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
    pending = deque(all_triangulations(n))
    diagonals = all_polygon_diagonals(n)
    # The (n+3)-gon has Catalan C(n+1) triangulations.
    found, expected = len(pending), comb(2 * n + 2, n + 1) // (n + 2)
    status = "pass" if found == expected else "fail"
    rows = [CheckRow("triangulation-count", 1, status, f"{found} of {expected}")]
    recursion, units, denominators = (
        CheckRow(name, 0, "pass")
        for name in ("expansion-vs-recursion", "unit-coefficients", "denominator-vectors")
    )
    rows += [recursion, units, denominators]
    oracle = partitions = bijections = None
    if level == "full":
        oracle = CheckRow("enumeration-vs-brute-force", 0, "pass")
        if n > MAX_BRUTE_FORCE_RANK:
            oracle.status, oracle.detail = "skip", f"guarded to rank {MAX_BRUTE_FORCE_RANK}"
        partitions = CheckRow("first-edge-partition", 0, "pass")
        bijections = CheckRow("start-edge-bijections", 0, "pass")
        rows += [oracle, partitions, bijections]

    targets = {
        origin: [chord.other_end(origin) for chord in diagonals if chord.is_incident(origin)]
        for origin in range(1, n + 4)
    }
    while pending:
        # Each triangulation, and the crossing tables kept on it, goes after its pass.
        t = pending.popleft()
        brute: dict[int, dict[int, list[TPath]]] = {}
        table = {
            (source, target): path_entry(t, enumerate_t_paths(t, source, target))
            for chord in diagonals
            for source, target in ((chord.u, chord.v), (chord.v, chord.u))
        }
        # The failure details below are formatted only when a row fails.
        for chord in diagonals:
            seeded = t.contains(chord)
            poly = expand(t, chord, paths=table)
            if _running(recursion):
                others = [expand(t, chord, chord.v, paths=table)]
                others += [cluster_variable_recursive(t, chord, o) for o in chord.endpoints()]
                same = all(p == poly for p in others)
                _tally(recursion, None if same else f"{chord} in {t.diagonal_key()}")
            if _running(units) and not seeded:
                ok = check_positivity(poly) and len(poly) == len(table[chord.u, chord.v][0])
                _tally(units, None if ok else f"{chord} in {t.diagonal_key()}")
            if _running(denominators):
                failure = None
                try:
                    denominator_vector(t, chord, poly=poly)
                except InvariantError:
                    failure = f"{chord} in {t.diagonal_key()}"
                _tally(denominators, failure)
            for origin in chord.endpoints():
                target = chord.other_end(origin)
                if _running(oracle):
                    if origin not in brute:
                        brute[origin] = brute_force_t_path_table(t, origin, targets[origin])
                    same = set(table[origin, target][0]) == set(brute[origin][target])
                    _tally(oracle, None if same else f"{origin}->{target} in {t.diagonal_key()}")
                if seeded or not (_running(partitions) or _running(bijections)):
                    continue
                # One step for both rows.
                step = first_crossing_step(t, chord, origin)
                if _running(partitions):
                    report = check_partitions(t, origin, target, paths=table, step=step)
                    _tally(partitions, None if report.ok else report.failures[0])
                if _running(bijections):
                    report = check_bijections_fg(t, origin, target, paths=table, step=step)
                    _tally(bijections, None if report.ok else report.failures[0])
    return rows


def _running(row: CheckRow | None) -> bool:
    """Whether the sweep still evaluates a row: run at this level, passing so far."""
    return row is not None and row.status == "pass"


def _tally(row: CheckRow, failure: str | None) -> None:
    """Count one instance; a failure ends the row, its detail naming the instance."""
    row.instances += 1
    if failure is not None:
        row.status, row.detail = "fail", failure


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
