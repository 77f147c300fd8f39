"""Verification sweep plumbing: levels, report rendering, guard handling,
fault injection showing that every row can fail and names its first failure,
and counts showing the work each triangulation shares across rows."""

import json
import sys
from contextlib import contextmanager

import pytest

import ptolemy.expansion
import ptolemy.oracle
import ptolemy.polygon
import ptolemy.tpaths
import ptolemy.verify
from ptolemy import (
    Arc,
    InputError,
    LaurentPolynomial,
    PathCheck,
    TPath,
    all_polygon_diagonals,
    all_triangulations,
    check_bijections_fg,
    check_partitions,
)
from ptolemy.verify import CheckRow, all_pass, render_report, run_checks
from conftest import run_optimized

_honest_expand = ptolemy.expansion.expand
_honest_recursive = ptolemy.oracle.cluster_variable_recursive
_honest_enumerate = ptolemy.tpaths.enumerate_t_paths
_honest_brute_force = ptolemy.tpaths.brute_force_t_path_table
_honest_validator = ptolemy.tpaths.is_valid_t_path


def skewed_expand(t, chord, origin=None, *, paths=None):
    """expand with every multi-term result times x1, so x1's denominator is wrong."""
    poly = _honest_expand(t, chord, origin, paths=paths)
    return poly * LaurentPolynomial.variable(1, t.n_labels) if len(poly) > 1 else poly


@contextmanager
def injected(original, replacement):
    """Rebind a package function in every ptolemy namespace that holds it; restore on exit."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "ptolemy" or name.startswith("ptolemy."):
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key))
                    setattr(module, key, replacement)
    try:
        yield
    finally:
        for module, key in undo:
            setattr(module, key, original)


# The faults below fire only on hexagon triangulations holding 2-5, the eighth
# of the fourteen in sweep order, so every faulted row fails mid-sweep.
_FAULTY = Arc(2, 5)


def scaled_recursion(t, arc, origin=None):
    """Recursion doubled when anchored at the larger end of an arc crossing two diagonals."""
    poly = _honest_recursive(t, arc, origin)
    faulty = t.contains(_FAULTY) and origin == arc.v and len(t.crossing_labels(arc)) >= 2
    return poly + poly if faulty else poly


def duplicating_enumeration(t, source, target):
    """Enumeration repeating its first path when it finds three or more, so two terms merge."""
    paths = _honest_enumerate(t, source, target)
    return paths + paths[:1] if t.contains(_FAULTY) and len(paths) >= 3 else paths


def dropping_enumeration(t, source, target):
    """Enumeration losing its last path when run from the larger endpoint."""
    paths = _honest_enumerate(t, source, target)
    return paths[:-1] if t.contains(_FAULTY) and source > target and len(paths) >= 2 else paths


def swapping_enumeration(t, source, target):
    """Enumeration swapping the first two labels of its last path, from the larger endpoint."""
    paths = _honest_enumerate(t, source, target)
    if t.contains(_FAULTY) and source > target and len(paths) >= 2:
        last = paths[-1]
        labels = (last.labels[1], last.labels[0]) + last.labels[2:]
        paths = paths[:-1] + [TPath(last.vertices, labels)]
    return paths


def thinning_enumeration(t, source, target):
    """Enumeration losing its first path on chords that cross exactly one diagonal."""
    paths = _honest_enumerate(t, source, target)
    single = len(t.crossing_labels(Arc(source, target))) == 1
    return paths[1:] if t.contains(_FAULTY) and single else paths


def dropping_brute_force(t, source, targets):
    """Oracle table losing the last path of its largest target."""
    table = _honest_brute_force(t, source, targets)
    if t.contains(_FAULTY):
        target = max(table)
        table[target] = table[target][:-1]
    return table


def accepting_validator(t, source, target, candidate, *, keys=None):
    """Rule check that passes every candidate on triangulations holding 2-5,
    so the oracle keeps every odd arrival there."""
    if t.contains(_FAULTY):
        return PathCheck(True)
    return _honest_validator(t, source, target, candidate, keys=keys)


_SEED = "in (Arc(u=1, v=5), Arc(u=2, v=4), Arc(u=2, v=5))"

# fault: (function replaced, stand-in, the rank-3 full sweep's failing rows as
# {name: (status, instances, detail)}).  Each first row named is the one the
# fault targets.  The values are what the seven separate row loops reported
# before the sweep became one pass.
FAULTS = {
    "scale-recursion": (
        _honest_recursive,
        scaled_recursion,
        {"expansion-vs-recursion": ("fail", 64, f"1-3 {_SEED}")},
    ),
    "duplicate-path": (
        _honest_enumerate,
        duplicating_enumeration,
        {
            "unit-coefficients": ("fail", 43, f"1-3 {_SEED}"),
            "expansion-vs-recursion": ("fail", 64, f"1-3 {_SEED}"),
            "start-edge-bijections": ("fail", 85, "summed weights from corner 2 mismatch family 1"),
        },
    ),
    "drop-path": (
        _honest_enumerate,
        dropping_enumeration,
        {
            "enumeration-vs-brute-force": ("fail", 128, f"3->1 {_SEED}"),
            "expansion-vs-recursion": ("fail", 64, f"1-3 {_SEED}"),
            "start-edge-bijections": (
                "fail",
                85,
                "images from corner 5 do not exhaust the paths starting with 4",
            ),
        },
    ),
    "swap-labels": (
        _honest_enumerate,
        swapping_enumeration,
        {
            "first-edge-partition": (
                "fail",
                86,
                "(3,4,2,1 | 2,6,4) starts with edge 2, not one of (5, 6)",
            ),
            "expansion-vs-recursion": ("fail", 64, f"1-3 {_SEED}"),
            "enumeration-vs-brute-force": ("fail", 128, f"3->1 {_SEED}"),
            "start-edge-bijections": (
                "fail",
                85,
                "image (1,2,5,4,2,3 | 4,3,2,7,5) of (5,4,2,3 | 2,7,5) is not an admissible path",
            ),
        },
    ),
    "thin-single-crossings": (
        _honest_enumerate,
        thinning_enumeration,
        {
            "start-edge-bijections": (
                "fail",
                85,
                "images from corner 5 do not exhaust the paths starting with 4",
            ),
            "expansion-vs-recursion": ("fail", 65, f"1-4 {_SEED}"),
            "enumeration-vs-brute-force": ("fail", 129, f"1->4 {_SEED}"),
        },
    ),
    "drop-brute-path": (
        _honest_brute_force,
        dropping_brute_force,
        {"enumeration-vs-brute-force": ("fail", 131, f"1->5 {_SEED}")},
    ),
    "accept-every-walk": (
        _honest_validator,
        accepting_validator,
        {"enumeration-vs-brute-force": ("fail", 127, f"1->3 {_SEED}")},
    ),
}


def failing_rows(fault):
    """The rank-3 full sweep's non-passing rows with the fault injected."""
    original, replacement, _ = FAULTS[fault]
    with injected(original, replacement):
        rows = run_checks(3, "full")
    return {
        row.name: (row.status, row.instances, row.detail) for row in rows if row.status != "pass"
    }


def _first_chord_crossing_label_1(n):
    # The first sweep instance whose x1 denominator the skew removes.
    return next(
        f"{chord} in {t.diagonal_key()}"
        for t in all_triangulations(n)
        for chord in all_polygon_diagonals(n)
        if 1 in t.crossing_labels(chord)
    )


def test_quick_level_square():
    rows = run_checks(1, "quick")
    assert [row.name for row in rows] == [
        "triangulation-count",
        "expansion-vs-recursion",
        "unit-coefficients",
        "denominator-vectors",
    ]
    assert all(row.status == "pass" for row in rows)


def test_full_level_square_counts():
    rows = run_checks(1, "full")
    by_name = {row.name: row for row in rows}
    assert by_name["expansion-vs-recursion"].instances == 4
    assert by_name["enumeration-vs-brute-force"].instances == 8
    assert all_pass(rows)


def test_full_level_hexagon_all_pass():
    rows = run_checks(3, "full")
    assert all(row.status == "pass" for row in rows)


def test_brute_force_skipped_beyond_its_guard(monkeypatch):
    rows = run_checks(5, "quick")
    assert all(row.status == "pass" for row in rows)
    # full level marks the oracle comparison as skipped instead of running it
    # (covered at rank <= 4 elsewhere); a lowered guard exercises the skip cheaply
    monkeypatch.setattr(ptolemy.verify, "MAX_BRUTE_FORCE_RANK", 1)
    rows = run_checks(2, "full")
    (row,) = [row for row in rows if row.name == "enumeration-vs-brute-force"]
    assert (row.status, row.instances, row.detail) == ("skip", 0, "guarded to rank 1")
    assert all_pass(rows)


def test_level_and_rank_validation():
    with pytest.raises(InputError):
        run_checks(1, "bogus")
    with pytest.raises(InputError):
        run_checks(9, "quick")
    with pytest.raises(InputError):
        run_checks(0, "quick")


def test_report_rendering_flags_failures():
    rows = [
        CheckRow("alpha", 3, "pass"),
        CheckRow("beta", 1, "fail", "boom"),
        CheckRow("gamma", 0, "skip", "guarded"),
    ]
    assert not all_pass(rows)
    text = render_report(2, "quick", rows)
    assert "RESULT: FAIL" in text
    assert "boom" in text
    assert all_pass([rows[0], rows[2]])


def test_denominator_row_fails_on_a_faulty_expansion():
    # the sweep's own expand builds the polynomial the denominator row reads
    with injected(_honest_expand, skewed_expand):
        rows = run_checks(2, "quick")
    (row,) = [row for row in rows if row.name == "denominator-vectors"]
    assert row.status == "fail"
    assert row.detail == _first_chord_crossing_label_1(2)


def test_denominator_row_fails_under_optimization():
    out = run_optimized(
        "from test_verify import _honest_expand, injected, skewed_expand\n"
        "from ptolemy.verify import run_checks\n"
        "with injected(_honest_expand, skewed_expand):\n"
        "    rows = run_checks(2, 'quick')\n"
        "for row in rows:\n"
        "    if row.name == 'denominator-vectors':\n"
        "        print(row.status)\n"
        "        print(row.detail)\n"
    )
    assert out.splitlines() == ["fail", _first_chord_crossing_label_1(2)]


@pytest.mark.parametrize("fault", FAULTS)
def test_row_reports_its_first_failure(fault):
    assert failing_rows(fault) == FAULTS[fault][2]


def test_rows_fail_under_optimization():
    out = run_optimized(
        "import json, test_verify\n"
        "for fault in test_verify.FAULTS:\n"
        "    print(json.dumps(test_verify.failing_rows(fault)))\n"
    )
    reported = [json.loads(line) for line in out.splitlines()]
    expected = [
        {name: list(row) for name, row in failing.items()} for _, _, failing in FAULTS.values()
    ]
    assert reported == expected


def test_sweep_enumerates_each_ordered_pair_once_per_triangulation():
    calls = []

    def counted(t, source, target):
        calls.append((t.diagonal_key(), source, target))
        return _honest_enumerate(t, source, target)

    with injected(_honest_enumerate, counted):
        assert all_pass(run_checks(3, "full"))
    # 14 triangulations of the hexagon, 9 diagonals, both orientations of each
    assert len(calls) == 2 * 9 * 14
    assert len(set(calls)) == len(calls)


def test_sweep_expands_each_chord_once_per_orientation_per_triangulation():
    calls = []

    def counted(t, chord, origin=None, *, paths=None):
        calls.append((t.diagonal_key(), chord, origin))
        return _honest_expand(t, chord, origin, paths=paths)

    with injected(_honest_expand, counted):
        assert all_pass(run_checks(3, "full"))
    # 14 triangulations of the hexagon, 9 diagonals, one expansion from each
    # endpoint; the unit-coefficient and denominator rows read the first
    assert len(calls) == 2 * 9 * 14
    assert len(set(calls)) == len(calls)


def test_sweep_walks_once_per_source_vertex_per_triangulation():
    calls = []

    def counted(t, source, targets):
        calls.append((t.diagonal_key(), source))
        return _honest_brute_force(t, source, targets)

    with injected(_honest_brute_force, counted):
        assert all_pass(run_checks(3, "full"))
    # 14 triangulations of the hexagon, 6 source vertices each
    assert len(calls) == 14 * 6
    assert len(set(calls)) == len(calls)


def test_sweep_builds_one_crossing_table_per_oriented_chord():
    honest_keys, honest_crosses = ptolemy.tpaths.crossing_keys, ptolemy.polygon.crosses
    crossed = []
    built = []

    def counted_crosses(*args):
        crossed.append(args)
        return honest_crosses(*args)

    def counted_keys(t, source, target):
        before = len(crossed)
        keys = honest_keys(t, source, target)
        if len(crossed) > before:
            built.append((t.diagonal_key(), source, target))
        return keys

    with injected(honest_crosses, counted_crosses), injected(honest_keys, counted_keys):
        assert all_pass(run_checks(3, "full"))
    # 14 triangulations of the hexagon, 9 diagonals, both orientations of
    # each; building a table tests each of the 3 diagonals once
    assert len(built) == 2 * 9 * 14
    assert len(set(built)) == len(built)
    assert len(crossed) == 3 * len(built)


def test_sweep_weighs_each_table_entry_and_reads_each_step_once():
    honest_weights, honest_step = ptolemy.expansion._weight_keys, ptolemy.polygon.first_crossing_step
    weighed = []
    stepped = []

    def counted_weights(paths, nvars):
        weighed.append(paths)
        return honest_weights(paths, nvars)

    def counted_step(t, chord, origin):
        stepped.append((t.diagonal_key(), chord, origin))
        return honest_step(t, chord, origin)

    with injected(honest_weights, counted_weights), injected(honest_step, counted_step):
        assert all_pass(run_checks(3, "full"))
    # 14 triangulations of the hexagon, 9 diagonals, both orientations of
    # each: one weighing per table entry, however many rows read it
    assert len(weighed) == 2 * 9 * 14
    # 6 of the 9 diagonals cross each triangulation: one step per crossed
    # oriented chord, for both the partition and the bijection row
    assert len(stepped) == 2 * 6 * 14
    assert len(set(stepped)) == len(stepped)


def test_partition_and_bijection_checks_pass_without_a_path_table():
    # The sweep hands both checks its path table; here each enumerates its own.
    diagonals = all_polygon_diagonals(4)
    for t in all_triangulations(4):
        for chord in diagonals:
            if t.contains(chord):
                continue
            for origin in chord.endpoints():
                target = chord.other_end(origin)
                assert check_partitions(t, origin, target).ok
                assert check_bijections_fg(t, origin, target).ok
