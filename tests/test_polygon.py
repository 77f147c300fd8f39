"""Polygon combinatorics: crossing predicate, triangulations, flips, orderings."""

import hashlib
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptolemy import (
    Arc,
    CrossingStep,
    InputError,
    ResourceLimitError,
    Triangulation,
    all_polygon_diagonals,
    all_triangulations,
    build_triangulation,
    check_partitions,
    crosses,
    crosses_before,
    crossing_position,
    first_crossing_step,
    flip_graph,
    snake_triangulation,
)
from ptolemy import polygon
from ptolemy.polygon import _fan_step
from ptolemy.tpaths import crossing_keys
from conftest import OCTAGON_DIAGONALS


def orient(p, q, r):
    """Twice the signed area of the triangle p, q, r: positive when counterclockwise."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def test_arc_normalizes_and_rejects_loops():
    assert Arc(4, 2) == Arc(2, 4)
    assert str(Arc(7, 3)) == "3-7"
    with pytest.raises(InputError):
        Arc(3, 3)


def test_arc_is_its_sorted_pair():
    # Set and dict order over arcs follow this hash; JSON writes an arc as its pair.
    arc = Arc(4, 2)
    assert arc == (2, 4) and hash(arc) == hash((2, 4))
    assert len(arc) == 2 and tuple(arc) == (2, 4)
    assert repr(arc) == "Arc(u=2, v=4)"
    with pytest.raises(AttributeError):
        arc.u = 3
    with pytest.raises(InputError, match=r"^arc endpoints must be distinct, got 3 twice$"):
        Arc(3, 3)
    pairs = [(3, 7), (1, 8), (2, 4), (1, 3), (2, 9), (2, 3)]
    assert [tuple(arc) for arc in sorted(Arc(v, u) for u, v in pairs)] == sorted(pairs)


def test_make_and_replace_order_the_ends():
    # Both build through ``__new__``: ends ordered, equal ends refused.
    assert tuple(Arc(5, 1)._replace(u=9)) == (5, 9)
    assert tuple(Arc._make((4, 2))) == (2, 4)
    with pytest.raises(InputError, match=r"^arc endpoints must be distinct, got 1 twice$"):
        Arc(1, 5)._replace(v=1)
    # An unordered 4-6 would escape the crossing check against 1-5.
    edges = (Arc(2, 4)._replace(u=6),) + snake_triangulation(3).edges[1:]
    with pytest.raises(InputError, match=r"^diagonals 4-6 and 1-5 cross$"):
        Triangulation(3, edges)


class TestValidate:
    @pytest.fixture
    def slow_path_calls(self, monkeypatch):
        calls = []
        require = polygon._require_vertex

        def counting_require(v, n_vertices):
            calls.append(v)
            require(v, n_vertices)

        monkeypatch.setattr(polygon, "_require_vertex", counting_require)
        return calls

    def test_plain_ints_in_range_skip_the_vertex_checks(self, slow_path_calls):
        Arc(1, 8).validate(8)
        Arc(3, 5).validate(8)
        assert slow_path_calls == []

    @pytest.mark.parametrize(
        "arc,message",
        [
            (Arc(0, 3), r"^vertex 0 out of range 1\.\.8$"),
            (Arc(3, 9), r"^vertex 9 out of range 1\.\.8$"),
            (Arc(True, 3), r"^vertex True out of range 1\.\.8$"),
        ],
    )
    def test_rejections_keep_their_messages(self, slow_path_calls, arc, message):
        with pytest.raises(InputError, match=message):
            arc.validate(8)
        assert slow_path_calls

    def test_int_subclass_in_range_is_accepted(self, slow_path_calls):
        class Vertex(IntEnum):
            TWO = 2
            FIVE = 5

        Arc(Vertex.TWO, Vertex.FIVE).validate(8)
        assert slow_path_calls == [Vertex.TWO, Vertex.FIVE]


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

    @pytest.mark.parametrize("nv", [4, 5, 6, 7, 8, 9])
    def test_matches_segment_intersection(self, nv):
        # Vertex k at (k, k^2): convex position in counterclockwise order, so
        # two chords cross exactly when their segments properly intersect.
        point = {k: (k, k * k) for k in range(1, nv + 1)}
        arcs = [Arc(u, v) for u in range(1, nv + 1) for v in range(u + 1, nv + 1)]
        for d1 in arcs:
            a, b = point[d1.u], point[d1.v]
            for d2 in arcs:
                c, d = point[d2.u], point[d2.v]
                proper = (
                    orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0
                )
                assert crosses(d1, d2, nv) == proper

    def test_symmetry_self_and_boundary_exhaustive(self):
        nv = 8
        arcs = [Arc(u, v) for u in range(1, nv + 1) for v in range(u + 1, nv + 1)]
        for d1 in arcs:
            assert not crosses(d1, d1, nv)
            for d2 in arcs:
                assert crosses(d1, d2, nv) == crosses(d2, d1, nv)
                if d1.is_boundary(nv):
                    assert not crosses(d1, d2, nv)


@st.composite
def diagonal_lists(draw):
    """A rank n = 1..18 and n diagonals of the (n+3)-gon in random order: a
    triangulation reached by flips from the snake, with up to four of its
    diagonals replaced by arbitrary ones, so zero, one or several crossings."""
    n = draw(st.integers(min_value=1, max_value=18))
    t = snake_triangulation(n)
    for k in draw(st.lists(st.integers(min_value=1, max_value=n), max_size=2 * n)):
        t = t.flip(k)
    diags = list(t.diagonal_arcs())
    replaced = st.tuples(st.integers(0, n - 1), st.sampled_from(all_polygon_diagonals(n)))
    for k, d in draw(st.lists(replaced, max_size=4)):
        diags[k] = d
    return n, draw(st.permutations(diags))


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
        with pytest.raises(InputError, match="^expected 2 diagonals, got 1$"):
            build_triangulation(2, [(1, 3)])
        with pytest.raises(InputError, match="^expected 5 labeled arcs, got 3$"):
            Triangulation(1, build_triangulation(1, [(1, 3)]).edges[:3])

    def test_duplicate(self):
        with pytest.raises(InputError, match="^duplicate arcs in triangulation$"):
            build_triangulation(2, [(1, 3), (1, 3)])

    def test_boundary_as_diagonal(self):
        with pytest.raises(InputError, match="^1-2 is a boundary edge, not a diagonal$"):
            build_triangulation(2, [(1, 2), (1, 3)])

    def test_wrong_boundary_label(self, square):
        edges = list(square.edges)
        edges[2], edges[3] = Arc(3, 4), Arc(2, 3)
        with pytest.raises(InputError, match="^label 3 must carry boundary edge 2-3, got 3-4$"):
            Triangulation(1, tuple(edges))

    def test_crossing_diagonals(self):
        with pytest.raises(InputError, match="^diagonals 1-3 and 2-4 cross$"):
            build_triangulation(2, [(1, 3), (2, 4)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_swapped_diagonal_rejected_exactly_when_it_crosses(self, n):
        # Replace each diagonal of each triangulation by each absent diagonal;
        # the reference predicate decides acceptance and the named pair.
        nv = n + 3
        for t in all_triangulations(n):
            for k in range(n):
                for d in all_polygon_diagonals(n):
                    if t.contains(d):
                        continue
                    edges = t.edges[:k] + (d,) + t.edges[k + 1 :]
                    diags = edges[:n]
                    crossing = [
                        (a, b)
                        for i, a in enumerate(diags)
                        for b in diags[i + 1 :]
                        if crosses(a, b, nv)
                    ]
                    if not crossing:
                        assert Triangulation(n, edges).diagonal_arcs() == diags
                        continue
                    a, b = crossing[0]
                    with pytest.raises(InputError, match=f"^diagonals {a} and {b} cross$"):
                        Triangulation(n, edges)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(diagonal_lists())
    def test_crossing_check_matches_the_definition(self, case):
        # Same verdict as testing every pair, and the same first pair named.
        n, diags = case
        nv = n + 3
        crossing = [
            (a, b) for i, a in enumerate(diags) for b in diags[i + 1 :] if crosses(a, b, nv)
        ]
        edges = tuple(diags) + snake_triangulation(n).edges[n:]
        if len(set(diags)) < n:
            message = "duplicate arcs in triangulation"
        elif crossing:
            a, b = crossing[0]
            message = f"diagonals {a} and {b} cross"
        else:
            assert Triangulation(n, edges).diagonal_arcs() == tuple(diags)
            return
        with pytest.raises(InputError, match=f"^{message}$"):
            Triangulation(n, edges)

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


class TestIncidentLabels:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_ascending_labels_of_the_edges_at_each_vertex(self, n):
        for t in all_triangulations(n):
            for v in range(1, n + 4):
                expected = tuple(
                    lab for lab in range(1, t.n_labels + 1) if t.arc(lab).is_incident(v)
                )
                assert t.incident_labels(v) == expected
            for v in (0, n + 4):
                with pytest.raises(InputError, match=rf"^vertex {v} out of range 1\.\.{n + 3}$"):
                    t.incident_labels(v)


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

    def test_crossing_keys_rise_componentwise_along_the_segment(self):
        # Vertex k at (k, k^2), as in TestCrosses.  Sorted by where each
        # diagonal meets the segment source->target, the crossing positions
        # rise in both components and never repeat, so the crossing table's
        # ranks p + q rise strictly; rule 6, the pruned search and its proof
        # that no path repeats an edge rest on this.
        cases = 0
        for n in range(1, 6):
            nv = n + 3
            point = {k: (k, k * k) for k in range(1, nv + 1)}
            for t in all_triangulations(n):
                for chord in all_polygon_diagonals(n):
                    for source in chord.endpoints():
                        target = chord.other_end(source)
                        a, b = point[source], point[target]
                        keys = crossing_keys(t, source, target)
                        meets = {}
                        for lab in keys:
                            c, d = (point[v] for v in t.arc(lab).endpoints())
                            # a and b lie on opposite sides of the line c-d
                            side_a, side_b = orient(c, d, a), orient(c, d, b)
                            meets[lab] = Fraction(side_a, side_a - side_b)
                        assert len(set(meets.values())) == len(meets)
                        ordered = sorted(keys, key=meets.get)
                        positions = [
                            crossing_position(t.arc(lab), source, target, nv) for lab in ordered
                        ]
                        for (p1, q1), (p2, q2) in zip(positions, positions[1:]):
                            assert p1 <= p2 and q1 <= q2 and (p1, q1) != (p2, q2)
                        ranks = [keys[lab] for lab in ordered]
                        assert ranks == [p + q for p, q in positions]
                        assert all(r1 < r2 for r1, r2 in zip(ranks, ranks[1:]))
                        cases += 1
        assert cases == 6766

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

    def test_vertex_range_checked_before_boundary(self, octagon):
        # 10 wraps round to 2 on the octagon, which would make 1-10 look like an edge
        with pytest.raises(InputError, match=r"^vertex 10 out of range 1\.\.8$"):
            octagon.crossing_labels_from(Arc(1, 10), 1)


def crossing_step_by_definition(t, chord, origin):
    """The step by its definition: the pivot is the first diagonal in the
    crossing order from origin, the corners are its endpoints on the
    counterclockwise and clockwise walks to target, and the sides are the
    labels joining the corners to origin."""
    ordered = t.crossing_labels_from(chord, origin)
    if not ordered:
        return None
    pivot = ordered[0]
    target = chord.other_end(origin)
    nv = t.n_vertices
    a, b = t.arc(pivot).endpoints()
    ccw, cw = (a, b) if 0 < (a - origin) % nv < (target - origin) % nv else (b, a)
    return CrossingStep(
        ccw_corner=ccw,
        cw_corner=cw,
        pivot=pivot,
        ccw_side=t.label_of(Arc(origin, ccw)),
        cw_side=t.label_of(Arc(origin, cw)),
    )


def assert_steps_match_definition(t):
    for chord in all_polygon_diagonals(t.n):
        for origin in chord.endpoints():
            assert first_crossing_step(t, chord, origin) == crossing_step_by_definition(
                t, chord, origin
            ), (t.diagonal_arcs(), chord, origin)


@st.composite
def walked_triangulations(draw):
    """A rank 7..25 triangulation reached by random flips from the snake."""
    n = draw(st.integers(min_value=7, max_value=25))
    t = snake_triangulation(n)
    for k in draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3 * n)):
        t = t.flip(k)
    return t


class TestFirstCrossingStep:
    def test_octagon(self, octagon):
        step = first_crossing_step(octagon, Arc(3, 7), 3)
        assert step == CrossingStep(ccw_corner=4, cw_corner=2, pivot=1, ccw_side=8, cw_side=7)
        assert CrossingStep._fields == ("ccw_corner", "cw_corner", "pivot", "ccw_side", "cw_side")
        # The exchange recursion reads the same five ints as a plain tuple.
        assert type(_fan_step(octagon, 3, 7)) is tuple
        assert step == _fan_step(octagon, 3, 7)
        assert first_crossing_step(octagon, Arc(3, 7), 7).pivot == 5
        assert first_crossing_step(octagon, Arc(2, 6), 2) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_definition_exhaustive(self, n):
        for t in all_triangulations(n):
            assert_steps_match_definition(t)

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(walked_triangulations())
    def test_matches_definition_on_flip_walks(self, t):
        assert_steps_match_definition(t)

    @pytest.mark.parametrize(
        "chord,origin,message",
        [
            (Arc(1, 10), 1, r"^vertex 10 out of range 1\.\.8$"),
            (Arc(1, 2), 1, r"^1-2 is a boundary edge; only diagonals can be crossed$"),
            (Arc(3, 7), 5, r"^5 is not an endpoint of 3-7$"),
        ],
    )
    def test_rejections_store_nothing(self, octagon, chord, origin, message):
        with pytest.raises(InputError, match=message):
            first_crossing_step(octagon, chord, origin)

    def test_partition_check_reports_the_vertex_range(self, octagon):
        with pytest.raises(InputError, match=r"^vertex 10 out of range 1\.\.8$"):
            check_partitions(octagon, 1, 10)


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


class TestTriangles:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_match_brute_force(self, n):
        # Every ascending vertex triple whose three sides are arcs of t, in order.
        for t in all_triangulations(n):
            by_definition = tuple(
                triple
                for triple in combinations(range(1, t.n_vertices + 1), 3)
                if all(t.contains(Arc(a, b)) for a, b in combinations(triple, 2))
            )
            assert t.triangles == by_definition
            assert len(by_definition) == n + 1


# SHA-256 of repr((node diagonal keys as vertex pairs, edges)) of flip_graph(n).
FLIP_GRAPH_DIGESTS = {
    1: "a3706391e01f0954b3b897af798df26bd1d776e1a09af18c906ac6da3cdf59f3",
    2: "de2e532586efb1be1d629bf4239147d0003c5b672233eb4f36d59492f2664e54",
    3: "d7a8ac4b66b7ba7776721b77d006117e86f2b64a3b36b0d7cd681d5761e1e4aa",
    4: "3409d263534b03b2eee6b42290d57b91903c8e10e3ec959426463f708871c8b3",
    5: "173316b7f2d85d5329841490f1c405f6ed73076f3c39a1759facd9245d076e75",
    6: "91f5cbbceb4f4a7289a39039ec7b7253f64147034dd720f6be9f955754973145",
    7: "3b1d7bcf01b8aeb29319cab3dcb28d90c6fe017f37f9051d1129b5b82816166c",
    8: "2b42fc3e24fac81e62afc27d986cb0dfaa8b1592a4620c1b475c605dd06022af",
}


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

    @pytest.mark.parametrize("n", sorted(FLIP_GRAPH_DIGESTS))
    def test_nodes_and_edges_digest(self, n):
        nodes, edges = flip_graph(n)
        keys = [[arc.endpoints() for arc in t.diagonal_key()] for t in nodes]
        assert hashlib.sha256(repr((keys, edges)).encode()).hexdigest() == FLIP_GRAPH_DIGESTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flips_of_each_node_are_its_edges(self, n):
        # The edges are the node pairs that share n-1 diagonals; each node's n
        # geometric flips, by the apexes of its quadrilaterals, reach exactly
        # its n neighbours in ``edges``.
        nodes, edges = flip_graph(n)
        index = {t.diagonal_key(): i for i, t in enumerate(nodes)}
        neighbours = [set() for _ in nodes]
        for i, j in edges:
            neighbours[i].add(j)
            neighbours[j].add(i)
        for i, t in enumerate(nodes):
            flipped = [index[t.flip(k).diagonal_key()] for k in range(1, n + 1)]
            assert all(j in neighbours[i] for j in flipped)
            assert len(set(flipped)) == len(neighbours[i]) == n

    def test_rank_seven_is_regular(self):
        nodes, edges = flip_graph(7)
        degree = Counter(v for edge in edges for v in edge)
        assert len(nodes) == 1430
        assert sorted(degree) == list(range(1430))
        assert set(degree.values()) == {7}

    def test_rank_eight_is_regular(self):
        nodes, edges = flip_graph(8)
        degree = Counter(v for edge in edges for v in edge)
        assert (len(nodes), len(edges)) == (4862, 19448)
        assert sorted(degree) == list(range(4862))
        assert set(degree.values()) == {8}
