"""Polygon combinatorics: crossing predicate, triangulations, flips, orderings."""

from collections import Counter

import pytest

from ptolemy import (
    Arc,
    InputError,
    ResourceLimitError,
    all_polygon_diagonals,
    all_triangulations,
    build_triangulation,
    crosses,
    crosses_before,
    crossing_position,
    flip_graph,
    snake_triangulation,
)
from conftest import OCTAGON_DIAGONALS


def test_arc_normalizes_and_rejects_loops():
    assert Arc(4, 2) == Arc(2, 4)
    assert str(Arc(7, 3)) == "3-7"
    with pytest.raises(InputError):
        Arc(3, 3)


def test_arc_kind():
    assert Arc(1, 2).is_boundary(8)
    assert Arc(1, 8).is_boundary(8)
    assert Arc(2, 4).is_diagonal(8)


class TestCrosses:
    def test_interleaving_pair(self):
        assert crosses(Arc(2, 4), Arc(3, 7), 8)

    def test_same_side_pair(self):
        # both 3 and 7 lie on the same side of 2-8
        assert not crosses(Arc(2, 8), Arc(3, 7), 8)

    def test_shared_endpoint(self):
        assert not crosses(Arc(2, 4), Arc(4, 6), 8)

    def test_invalid_vertex(self):
        for d1, d2 in [
            (Arc(2, 9), Arc(3, 7)),
            (Arc(3, 7), Arc(2, 9)),
            (Arc(0, 4), Arc(3, 7)),
            (Arc(3, 7), Arc(-1, 5)),
        ]:
            with pytest.raises(InputError):
                crosses(d1, d2, 8)

    def test_symmetry_self_and_boundary_exhaustive(self):
        nv = 8
        arcs = [Arc(u, v) for u in range(1, nv + 1) for v in range(u + 1, nv + 1)]
        for d1 in arcs:
            assert not crosses(d1, d1, nv)
            for d2 in arcs:
                assert crosses(d1, d2, nv) == crosses(d2, d1, nv)
                if d1.is_boundary(nv):
                    assert not crosses(d1, d2, nv)


class TestBuildTriangulation:
    def test_octagon_labels_match_input_order(self, octagon):
        assert octagon.diagonal_arcs() == tuple(Arc(u, v) for u, v in OCTAGON_DIAGONALS)
        # boundary: {k, k+1} -> label 5+k
        assert octagon.arc(6) == Arc(1, 2)
        assert octagon.arc(13) == Arc(1, 8)

    def test_square(self, square):
        assert square.n_vertices == 4
        assert square.edges[square.n :] == (Arc(1, 2), Arc(2, 3), Arc(3, 4), Arc(1, 4))

    def test_pentagon_variants(self):
        build_triangulation(2, [(1, 3), (3, 5)])
        build_triangulation(2, [(1, 3), (1, 4)])
        with pytest.raises(InputError):
            build_triangulation(2, [(1, 3), (2, 4)])

    def test_wrong_count(self):
        with pytest.raises(InputError):
            build_triangulation(2, [(1, 3)])

    def test_duplicate(self):
        with pytest.raises(InputError):
            build_triangulation(2, [(1, 3), (1, 3)])

    def test_boundary_as_diagonal(self):
        with pytest.raises(InputError):
            build_triangulation(2, [(1, 2), (1, 3)])

    def test_each_diagonal_validated_once(self, monkeypatch):
        checked = []
        validate = Arc.validate

        def counting_validate(arc, n_vertices):
            checked.append(arc)
            validate(arc, n_vertices)

        monkeypatch.setattr(Arc, "validate", counting_validate)
        build_triangulation(5, OCTAGON_DIAGONALS)
        assert checked == [Arc(u, v) for u, v in OCTAGON_DIAGONALS]


class TestSnake:
    def test_small_instances(self):
        assert snake_triangulation(1).diagonal_arcs() == (Arc(2, 4),)
        assert snake_triangulation(2).diagonal_arcs() == (Arc(2, 4), Arc(1, 4))
        assert snake_triangulation(3).diagonal_arcs() == (Arc(2, 4), Arc(1, 4), Arc(1, 5))

    def test_all_ranks_valid(self):
        for n in range(1, 9):
            t = snake_triangulation(n)  # constructor validates
            assert t.n == n

    def test_rejects_rank_zero(self):
        with pytest.raises(InputError):
            snake_triangulation(0)


class TestQuadrilateral:
    def test_square(self, square):
        quad = square.quadrilateral(1)
        assert quad.replacement == Arc(2, 4)
        assert quad.corners == (1, 2, 3, 4)
        assert quad.opposite_pairs == ((2, 4), (3, 5))

    def test_octagon_k3(self, octagon):
        quad = octagon.quadrilateral(3)
        assert quad.corners == (2, 4, 6, 8)
        assert quad.replacement == Arc(4, 8)
        assert {frozenset(pair) for pair in quad.opposite_pairs} == {
            frozenset({1, 5}),
            frozenset({2, 4}),
        }

    def test_hexagon_k2(self):
        t = snake_triangulation(3)
        quad = t.quadrilateral(2)
        assert quad.corners == (1, 2, 4, 5)
        assert quad.replacement == Arc(2, 5)
        assert quad.opposite_pairs == ((4, 7), (1, 3))

    def test_boundary_label_rejected(self, square):
        for label in (2, 3):
            with pytest.raises(InputError):
                square.quadrilateral(label)


class TestFlip:
    def test_square(self, square):
        assert square.flip(1).arc(1) == Arc(2, 4)

    def test_octagon_k3(self, octagon):
        flipped = octagon.flip(3)
        assert set(flipped.diagonal_arcs()) == {
            Arc(2, 4),
            Arc(4, 6),
            Arc(4, 8),
            Arc(2, 8),
            Arc(6, 8),
        }

    def test_changes_exactly_one_arc_and_is_involutive(self):
        for n in range(1, 4):
            for t in all_triangulations(n):
                for k in range(1, n + 1):
                    flipped = t.flip(k)
                    diff = [lab for lab in range(1, 2 * n + 4) if flipped.arc(lab) != t.arc(lab)]
                    assert diff == [k]
                    assert flipped.flip(k) == t

    def test_out_of_range(self, square):
        with pytest.raises(InputError):
            square.flip(0)


class TestCrossingOrder:
    def test_nearer_endpoint_pair(self):
        assert crosses_before(Arc(2, 4), Arc(2, 6), Arc(3, 7), 3, 8)

    def test_shared_endpoint_pair(self):
        # shared endpoint 6; 2 is nearer than 8 on the walk from 3
        assert crosses_before(Arc(2, 6), Arc(6, 8), Arc(3, 7), 3, 8)

    def test_antisymmetry(self, octagon):
        nv = octagon.n_vertices
        chord = Arc(3, 7)
        crossing = [octagon.arc(lab) for lab in octagon.crossing_labels(chord)]
        for d1 in crossing:
            for d2 in crossing:
                if d1 == d2:
                    continue
                assert crosses_before(d1, d2, chord, 3, nv) != crosses_before(
                    d2, d1, chord, 3, nv
                )

    def test_total_order_matches_sort(self):
        # pairwise comparisons agree with the sorted sequence on every instance
        for n in range(1, 4):
            nv = n + 3
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    for origin in chord.endpoints():
                        ordered = t.crossing_labels_from(chord, origin)
                        arcs = [t.arc(lab) for lab in ordered]
                        for i in range(len(arcs)):
                            for j in range(i + 1, len(arcs)):
                                assert crosses_before(arcs[i], arcs[j], chord, origin, nv)

    def test_preconditions(self):
        with pytest.raises(InputError):
            crosses_before(Arc(2, 4), Arc(2, 4), Arc(3, 7), 3, 8)
        with pytest.raises(InputError):
            # 2-8 does not cross 3-7
            crosses_before(Arc(2, 4), Arc(2, 8), Arc(3, 7), 3, 8)
        with pytest.raises(InputError):
            # crossing comparands are not ordered
            crosses_before(Arc(2, 6), Arc(4, 8), Arc(3, 7), 3, 8)
        with pytest.raises(InputError):
            crosses_before(Arc(2, 4), Arc(2, 6), Arc(3, 7), 5, 8)

    def test_crossing_position_requires_crossing(self):
        with pytest.raises(InputError):
            crossing_position(Arc(2, 8), 3, 7, 8)


class TestCrossingLabelsOrdered:
    def test_octagon(self, octagon):
        assert octagon.crossing_labels_from(Arc(3, 7), 3) == [1, 3, 5]

    def test_reversed_orientation(self, octagon):
        assert octagon.crossing_labels_from(Arc(3, 7), 7) == [5, 3, 1]

    def test_contained_chord_is_empty(self, octagon):
        assert octagon.crossing_labels_from(octagon.arc(2), 4) == []
        assert octagon.crossing_labels(Arc(2, 6)) == []

    def test_boundary_rejected(self, octagon):
        with pytest.raises(InputError):
            octagon.crossing_labels_from(Arc(1, 2), 1)
        # the unordered crossing set of a boundary edge is empty, not an error
        assert octagon.crossing_labels(Arc(1, 2)) == []


def _maximal_noncrossing_sets(n):
    """Backtracking oracle: every set of n pairwise non-crossing diagonals."""
    nv = n + 3
    diagonals = all_polygon_diagonals(n)
    found = []

    def extend(start, chosen):
        if len(chosen) == n:
            found.append(tuple(chosen))
            return
        for i in range(start, len(diagonals)):
            d = diagonals[i]
            if all(not crosses(d, c, nv) for c in chosen):
                chosen.append(d)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return found


class TestAllTriangulations:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42)])
    def test_matches_backtracking_oracle(self, n, count):
        from_flips = {t.diagonal_key() for t in all_triangulations(n)}
        from_backtracking = set(_maximal_noncrossing_sets(n))
        assert from_flips == from_backtracking
        assert len(from_flips) == count

    def test_maximality(self):
        # adding any missing diagonal to a triangulation creates a crossing
        for t in all_triangulations(3):
            present = set(t.diagonal_arcs())
            for d in all_polygon_diagonals(3):
                if d in present:
                    continue
                assert any(crosses(d, c, t.n_vertices) for c in present)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            all_triangulations(9)


class TestFlipGraph:
    def test_single_flip_square(self):
        nodes, edges = flip_graph(1)
        assert len(nodes) == 2
        assert edges == [(0, 1)]

    def test_pentagon_cycle(self):
        nodes, edges = flip_graph(2)
        assert len(nodes) == 5
        assert len(edges) == 5
        degree = {i: 0 for i in range(5)}
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        assert all(d == 2 for d in degree.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_backtracking_oracle(self, n):
        nodes, edges = flip_graph(n)
        oracle = sorted(_maximal_noncrossing_sets(n))
        assert [t.diagonal_key() for t in nodes] == oracle
        assert all(t.diagonal_arcs() == t.diagonal_key() for t in nodes)
        sets = [set(key) for key in oracle]
        one_apart = [
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if len(sets[i] - sets[j]) == 1
        ]
        assert edges == one_apart

    def test_rank_seven_is_regular(self):
        nodes, edges = flip_graph(7)
        degree = Counter(v for edge in edges for v in edge)
        assert len(nodes) == 1430
        assert sorted(degree) == list(range(1430))
        assert set(degree.values()) == {7}
