"""Seed matrix, coefficient pairs, exchange relation, recursive expansion."""

import gc
import random
from fractions import Fraction

import pytest

from ptolemy import (
    Arc,
    InputError,
    LaurentPolynomial,
    all_polygon_diagonals,
    all_triangulations,
    cluster_variable_recursive,
    exchange_matrix,
    expand,
    initial_coefficients,
    snake_triangulation,
)
from conftest import OCTAGON_TERMS, ZIGZAG3_COEFFICIENTS, ZIGZAG3_MATRIX, poly_from_sparse


class TestExchangeMatrix:
    def test_zigzag3_golden(self):
        matrix = exchange_matrix(snake_triangulation(3))
        assert matrix.rows == ZIGZAG3_MATRIX

    def test_square(self, square):
        matrix = exchange_matrix(square)
        assert matrix.rows == ((0,), (1,), (-1,), (1,), (-1,))

    def test_render(self):
        text = exchange_matrix(snake_triangulation(3)).render()
        assert text.splitlines()[0] == "0 -1 0"
        assert len(text.splitlines()) == 9

    def test_top_block_skew_symmetric(self):
        for n in range(1, 6):
            for t in all_triangulations(n):
                block = [row[:n] for row in exchange_matrix(t).rows[:n]]
                for i in range(n):
                    assert block[i][i] == 0
                    for j in range(n):
                        assert block[i][j] == -block[j][i]

    def test_column_support(self):
        for n in range(1, 5):
            for t in all_triangulations(n):
                matrix = exchange_matrix(t)
                for j in range(1, n + 1):
                    nonzero = sum(
                        1 for i in range(1, 2 * n + 4) if matrix.entry(i, j) != 0
                    )
                    assert 2 <= nonzero <= 4


class TestInitialCoefficients:
    def test_zigzag3_golden(self):
        pairs = initial_coefficients(snake_triangulation(3))
        rendered = [(plus.render(), minus.render()) for plus, minus in pairs]
        assert rendered == ZIGZAG3_COEFFICIENTS

    def test_empty_product_renders_as_unit(self):
        pairs = initial_coefficients(snake_triangulation(3))
        assert pairs[1][1].render() == "1"

    def test_pair_product_matches_boundary_rows(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                matrix = exchange_matrix(t)
                for j, (plus, minus) in enumerate(initial_coefficients(t), start=1):
                    combined = [a + b for a, b in zip(plus.exponents, minus.exponents)]
                    for i in range(n + 1, 2 * n + 4):
                        expected = 1 if matrix.entry(i, j) != 0 else 0
                        assert combined[i - 1] == expected


class TestExchangeRelation:
    def test_identity_on_expansions(self):
        # Ptolemy relation of each flip quadrilateral:
        # x[flipped]*x[replacement] == x[a]*x[c] + x[b]*x[d], all expanded in a
        # third triangulation; exact polynomial identity
        for n in range(1, 4):
            triangulations = all_triangulations(n)
            nvars = 2 * n + 3
            for s in triangulations:
                cache = {}

                def x(arc, s=s, cache=cache):
                    if arc not in cache:
                        if arc.is_boundary(s.n_vertices):
                            label = s.label_of(arc)
                            cache[arc] = LaurentPolynomial.variable(label, nvars)
                        else:
                            cache[arc] = expand(s, arc)
                    return cache[arc]

                for t in triangulations:
                    for k in range(1, n + 1):
                        quad = t.quadrilateral(k)
                        (a, c), (b, d) = quad.opposite_pairs
                        lhs = x(t.arc(k)) * x(quad.replacement)
                        rhs = x(t.arc(a)) * x(t.arc(c)) + x(t.arc(b)) * x(t.arc(d))
                        assert lhs == rhs


class TestRecursion:
    def test_octagon_golden(self, octagon):
        assert cluster_variable_recursive(octagon, Arc(3, 7)) == poly_from_sparse(
            13, OCTAGON_TERMS
        )

    def test_contained_chord(self, octagon):
        assert cluster_variable_recursive(octagon, Arc(2, 8)) == LaurentPolynomial.variable(
            4, 13
        )

    def test_boundary_arc(self, octagon):
        assert cluster_variable_recursive(octagon, Arc(7, 8)) == LaurentPolynomial.variable(
            12, 13
        )

    def test_square(self, square):
        expected = (
            LaurentPolynomial.variable(2, 5) * LaurentPolynomial.variable(4, 5)
            + LaurentPolynomial.variable(3, 5) * LaurentPolynomial.variable(5, 5)
        ).divide_by_variable(1)
        assert cluster_variable_recursive(square, Arc(2, 4)) == expected

    def test_orientation_independent(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    assert cluster_variable_recursive(
                        t, chord, chord.u
                    ) == cluster_variable_recursive(t, chord, chord.v)

    def test_bad_origin(self, octagon):
        with pytest.raises(InputError):
            cluster_variable_recursive(octagon, Arc(3, 7), 4)

    def test_agrees_with_path_sum(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    assert cluster_variable_recursive(t, chord) == expand(t, chord)

    def test_leaves_no_reference_cycle(self):
        t = snake_triangulation(8)
        gc.collect()
        gc.disable()
        try:
            poly = cluster_variable_recursive(t, Arc(3, 9))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(poly) > 1

    def test_agreement_at_random_points(self, octagon):
        rng = random.Random(41)
        left = expand(octagon, Arc(3, 7))
        right = cluster_variable_recursive(octagon, Arc(3, 7))
        for _ in range(10):
            point = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(13)]
            assert left.evaluate(point) == right.evaluate(point)
