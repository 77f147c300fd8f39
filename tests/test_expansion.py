"""Expansion values, trivial-coefficient specialization, structural checks."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from ptolemy import (
    Arc,
    InputError,
    InvariantError,
    LaurentPolynomial,
    TPath,
    all_polygon_diagonals,
    all_triangulations,
    build_triangulation,
    check_bijections_fg,
    check_partitions,
    check_positivity,
    denominator_vector,
    expand,
    expand_trivial_coefficients,
    first_crossing_step,
    path_entry,
)
from conftest import (
    OCTAGON_TERMS,
    OCTAGON_TRIVIAL_TERMS,
    exponents,
    poly_from_sparse,
    reference_weights,
    run_optimized,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def instances_without_chord(max_rank):
    for n in range(1, max_rank + 1):
        for t in all_triangulations(n):
            for chord in all_polygon_diagonals(n):
                if t.contains(chord):
                    continue
                for origin in chord.endpoints():
                    yield t, chord, origin


class TestExpand:
    def test_octagon_golden(self, octagon):
        assert expand(octagon, Arc(3, 7), 3) == poly_from_sparse(13, OCTAGON_TERMS)

    def test_contained_chord_is_its_variable(self, octagon):
        assert expand(octagon, Arc(2, 6)) == LaurentPolynomial.variable(3, 13)

    def test_square(self, square):
        expected = LaurentPolynomial(
            5,
            {
                exponents(5, {1: -1, 2: 1, 4: 1}): 1,
                exponents(5, {1: -1, 3: 1, 5: 1}): 1,
            },
        )
        assert expand(square, Arc(2, 4)) == expected

    def test_boundary_rejected(self, octagon):
        with pytest.raises(InputError):
            expand(octagon, Arc(1, 2))

    def test_bad_origin(self, octagon):
        with pytest.raises(InputError):
            expand(octagon, Arc(3, 7), 4)

    def test_orientation_independent(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    assert expand(t, chord, chord.u) == expand(t, chord, chord.v)


class TestTrivialCoefficients:
    def test_octagon_stays_unmerged(self, octagon):
        triv = expand_trivial_coefficients(octagon, Arc(3, 7))
        assert triv == poly_from_sparse(13, OCTAGON_TRIVIAL_TERMS)
        assert triv.coefficients() == [1, 1, 1, 1, 1]

    def test_square_merges_to_two(self, square):
        triv = expand_trivial_coefficients(square, Arc(2, 4))
        assert triv == LaurentPolynomial(5, {exponents(5, {1: -1}): 2})

    def test_contained_chord_unchanged(self, octagon):
        assert expand_trivial_coefficients(octagon, Arc(2, 6)) == LaurentPolynomial.variable(
            3, 13
        )

    def test_equals_boundary_substitution(self):
        for t, chord, origin in instances_without_chord(3):
            full = expand(t, chord, origin)
            boundary = range(t.n + 1, 2 * t.n + 4)
            assert expand_trivial_coefficients(t, chord, origin) == full.substitute_ones(
                boundary
            )


class TestDenominatorVector:
    def test_octagon(self, octagon):
        vec = denominator_vector(octagon, Arc(3, 7))
        assert vec == exponents(13, {1: 1, 3: 1, 5: 1})

    def test_contained_chord(self, octagon):
        assert denominator_vector(octagon, Arc(2, 6)) == (0,) * 13

    def test_given_expansion(self, octagon):
        chord = Arc(3, 7)
        vec = denominator_vector(octagon, chord, poly=expand(octagon, chord))
        assert vec == exponents(13, {1: 1, 3: 1, 5: 1})
        # the vector is read from the polynomial given, not from a new expansion
        with pytest.raises(InvariantError):
            denominator_vector(octagon, chord, poly=expand(octagon, Arc(2, 6)))
        with pytest.raises(InputError):
            denominator_vector(octagon, chord, poly=LaurentPolynomial.variable(1, 5))

    def test_matches_crossing_indicator(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    vec = denominator_vector(t, chord)
                    crossing = set(t.crossing_labels(chord))
                    assert {i + 1 for i, e in enumerate(vec) if e} == crossing
                    assert all(e == 0 for e in vec[t.n :])


class TestPositivity:
    def test_octagon(self, octagon):
        assert check_positivity(expand(octagon, Arc(3, 7)))

    def test_single_variable(self, octagon):
        assert check_positivity(expand(octagon, Arc(2, 6)))

    def test_rejects_other_coefficients(self):
        assert not check_positivity(LaurentPolynomial(2, {(0, 1): 2}))


class TestPartitions:
    def test_octagon(self, octagon):
        report = check_partitions(octagon, 3, 7)
        assert report.ok
        assert report.pivot == 1
        assert set(report.first_edges) == {7, 8}
        assert report.by_first == {7: 3, 8: 2}
        assert report.total == 5

    def test_square(self, square):
        report = check_partitions(square, 2, 4)
        assert report.ok
        assert set(report.first_edges) == {2, 3}
        assert report.by_first in ({2: 1, 3: 1},)

    def test_contained_chord_rejected(self, octagon):
        with pytest.raises(InputError):
            check_partitions(octagon, 2, 6)

    def test_sweep(self):
        for t, chord, origin in instances_without_chord(3):
            assert check_partitions(t, origin, chord.other_end(origin)).ok


class TestBijections:
    def test_octagon(self, octagon):
        report = check_bijections_fg(octagon, 3, 7)
        assert report.ok, report.failures
        assert report.counts["total"] == 5
        # corner path counts add up to the full path count
        assert report.counts["corner_4"] + report.counts["corner_2"] == 5

    def test_contained_chord_rejected(self, octagon):
        with pytest.raises(InputError):
            check_bijections_fg(octagon, 4, 6)

    def test_sweep(self):
        for t, chord, origin in instances_without_chord(3):
            report = check_bijections_fg(t, origin, chord.other_end(origin))
            assert report.ok, report.failures


def path_table(t, corrupt=None):
    """The sweep's path table of t; ``corrupt`` rewrites the path lists, each
    then weighed by the reference weigher."""
    table = {
        (a, b): path_entry(t, a, b)
        for chord in all_polygon_diagonals(t.n)
        for a, b in ((chord.u, chord.v), (chord.v, chord.u))
    }
    if corrupt is None:
        return table
    paths = corrupt({pair: found for pair, (found, _) in table.items()})
    return {pair: (found, reference_weights(t, found)) for pair, found in paths.items()}


def corrupted(pair, how):
    """A rewrite of one pair's path list: its last path dropped, that path's
    first two labels swapped, its first path repeated at the end, or its last
    path replaced by the last path of the fullest other entry from the same
    source."""

    def corrupt(paths):
        found = list(paths[pair])
        if how == "drop":
            found = found[:-1]
        elif how == "swap":
            last = found[-1]
            found[-1] = TPath(last.vertices, (last.labels[1], last.labels[0]) + last.labels[2:])
        elif how == "duplicate":
            found = found + found[:1]
        else:
            other = max(
                (p for p in paths if p[0] == pair[0] and p != pair), key=lambda p: len(paths[p])
            )
            found[-1] = paths[other][-1]
        return {**paths, pair: found}

    return corrupt


# Per rank, a triangulation and the chord with the most paths.
CORRUPTED_CASES = {
    3: ([(1, 3), (1, 4), (4, 6)], (2, 5)),
    4: ([(1, 3), (1, 4), (4, 7), (5, 7)], (2, 6)),
}


def corrupted_reports():
    """Both reports for each corruption of the chord's entry, from either end,
    and of each far corner's entry, as JSON values."""
    out = {}
    for n, (diagonals, (u, v)) in CORRUPTED_CASES.items():
        t = build_triangulation(n, diagonals)
        step = first_crossing_step(t, Arc(u, v), u)
        for source, target, where in (
            (u, v, (u, v)),
            (v, u, (v, u)),
            (u, v, (step.ccw_corner, v)),
            (u, v, (step.cw_corner, v)),
        ):
            for how in ("drop", "swap", "duplicate", "foreign"):
                table = path_table(t, corrupted(where, how))
                reports = {
                    "partition": check_partitions(t, source, target, paths=table),
                    "bijection": check_bijections_fg(t, source, target, paths=table),
                }
                name = f"{n} {source}->{target}, {how} at {where[0]}->{where[1]}"
                out[name] = json.loads(json.dumps({k: asdict(r) for k, r in reports.items()}))
    return out


class TestCorruptedTables:
    def test_reports_are_pinned(self):
        # Every field of both reports, failures in order, as the checks gave
        # them when each weighed its own table paths.
        pinned = json.loads((GOLDEN / "corrupted_table_reports.json").read_text())
        reports = corrupted_reports()
        assert list(reports) == list(pinned)
        assert reports == pinned

    def test_given_step_gives_the_same_reports(self):
        diagonals = all_polygon_diagonals(4)
        for t in all_triangulations(4):
            table = path_table(t)
            for chord in diagonals:
                if t.contains(chord):
                    continue
                for origin in chord.endpoints():
                    target = chord.other_end(origin)
                    step = first_crossing_step(t, chord, origin)
                    for check in (check_partitions, check_bijections_fg):
                        given = check(t, origin, target, paths=table, step=step)
                        assert given == check(t, origin, target, paths=table)
                        assert given.ok

    def test_other_orientations_step_fails(self):
        diagonals = all_polygon_diagonals(4)
        for t in all_triangulations(4):
            table = path_table(t)
            for chord in diagonals:
                if t.contains(chord):
                    continue
                for origin in chord.endpoints():
                    target = chord.other_end(origin)
                    step = first_crossing_step(t, chord, target)
                    for check in (check_partitions, check_bijections_fg):
                        assert not check(t, origin, target, paths=table, step=step).ok


def missing_pair_errors(t):
    """The InputError text of each table lookup that misses, on the octagon."""
    own = {(3, 7): path_entry(t, 3, 7)}
    calls = (
        lambda: expand(t, Arc(3, 7), paths={}),
        lambda: check_partitions(t, 3, 7, paths={}),
        lambda: check_bijections_fg(t, 3, 7, paths={}),
        # The chord's own entry is there; its first far corner's is not.
        lambda: check_bijections_fg(t, 3, 7, paths=own),
    )
    errors = []
    for call in calls:
        try:
            call()
        except InputError as exc:
            errors.append(str(exc))
    return errors


MISSING_PAIR_ERRORS = [f"the path table has no entry for {pair}" for pair in ["3->7"] * 3 + ["4->7"]]


class TestMissingPair:
    def test_named_in_an_input_error(self, octagon):
        assert missing_pair_errors(octagon) == MISSING_PAIR_ERRORS

    def test_named_under_optimization(self):
        out = run_optimized(
            "from ptolemy import build_triangulation\n"
            "from conftest import OCTAGON_DIAGONALS\n"
            "from test_expansion import missing_pair_errors\n"
            "for error in missing_pair_errors(build_triangulation(5, OCTAGON_DIAGONALS)):\n"
            "    print(error)\n"
        )
        assert out.splitlines() == MISSING_PAIR_ERRORS
