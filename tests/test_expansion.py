"""Expansion values, trivial-coefficient specialization, structural checks."""

import pytest

from ptolemy import (
    Arc,
    InputError,
    InvariantError,
    LaurentPolynomial,
    TPath,
    all_polygon_diagonals,
    all_triangulations,
    check_bijections_fg,
    check_partitions,
    check_positivity,
    denominator_vector,
    expand,
    expand_trivial_coefficients,
)
from conftest import (
    OCTAGON_TERMS,
    OCTAGON_TRIVIAL_TERMS,
    exponents,
    poly_from_sparse,
)


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

    @pytest.mark.parametrize("bad", [0, 14])
    def test_table_path_with_out_of_range_label(self, octagon, bad):
        table = {(3, 7): [TPath((3, 2, 6, 7), (7, bad, 11))]}
        with pytest.raises(InputError, match=f"^label {bad} out of range 1..13$"):
            expand(octagon, Arc(3, 7), paths=table)

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
