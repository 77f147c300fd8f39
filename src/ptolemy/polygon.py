"""Combinatorial model of a convex polygon and its labeled triangulations.

Vertices of an (n+3)-gon are numbered 1..n+3 counterclockwise.  An arc is a
chord between two distinct vertices, a named tuple (u, v) with u < v that
equals, hashes and sorts as that plain pair, as a ``TPath`` does; it is a
boundary edge when its endpoints are circularly adjacent and a diagonal
otherwise.  A triangulation stores its 2n+3 arcs by label: labels 1..n are
the diagonals, and the boundary edge {k, k+1} carries label n+k (vertex n+4
read as vertex 1).  Its pair -> label table is keyed by the arcs; its label
-> ends table holds plain tuples, which Python 3.11 indexes faster.

Everything is decided by exact circular-interleaving arithmetic on vertex
indices; no coordinates or floating point appear anywhere, so every predicate
is exact and every ordering total on its intended inputs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, NoReturn

from .errors import InputError, InvariantError, ResourceLimitError

# Largest rank accepted by the exhaustive enumerators (11-gon, 4862 triangulations).
MAX_ENUMERATION_RANK = 8
# Largest rank ``ptolemy matrix`` accepts: its (2n+3) x n matrix grows
# quadratically, and rank 1000 takes about 1.5 s (Python 3.11, 2 vCPUs).
MAX_MATRIX_RANK = 1000


def ccw_steps(u: int, v: int, n_vertices: int) -> int:
    """Number of counterclockwise steps from vertex u to vertex v."""
    return (v - u) % n_vertices


def _require_vertex(v: int, n_vertices: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n_vertices:
        raise InputError(f"vertex {v!r} out of range 1..{n_vertices}")


class Arc(NamedTuple("ArcFields", [("u", int), ("v", int)])):
    """Unordered pair of distinct polygon vertices: the named tuple (u, v), u < v."""

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> Arc:
        if u == v:
            raise InputError(f"arc endpoints must be distinct, got {u} twice")
        return tuple.__new__(cls, (u, v) if u < v else (v, u))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Arc:
        # The named tuple's own ``_make``, which ``_replace`` calls too, skips ``__new__``.
        return cls(*iterable)

    def validate(self, n_vertices: int) -> None:
        u, v = self
        if type(u) is int and type(v) is int and 0 < u < v <= n_vertices:
            return
        _require_vertex(u, n_vertices)
        _require_vertex(v, n_vertices)

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def is_incident(self, vertex: int) -> bool:
        return vertex == self.u or vertex == self.v

    def other_end(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise InputError(f"vertex {vertex} is not an endpoint of {self}")

    def is_boundary(self, n_vertices: int) -> bool:
        return ccw_steps(self.u, self.v, n_vertices) in (1, n_vertices - 1)

    def is_diagonal(self, n_vertices: int) -> bool:
        return not self.is_boundary(n_vertices)

    def __str__(self) -> str:
        return f"{self.u}-{self.v}"


def crosses(d1: Arc, d2: Arc, n_vertices: int) -> bool:
    """Whether two arcs cross in the interior of the polygon.

    True exactly when the endpoint pairs strictly interleave around the
    circle.  Arcs sharing an endpoint never cross, and a boundary edge never
    crosses anything (no vertex lies strictly between adjacent vertices).
    """
    d1.validate(n_vertices)
    d2.validate(n_vertices)
    return _crosses(d1, d2)


def _crosses(d1: Arc, d2: Arc) -> bool:
    """``crosses`` for validated arcs: with u < v, strict interleaving of the endpoints."""
    (a, b), (c, d) = d1, d2
    return a < c < b < d or c < a < d < b


def crossing_position(d: Arc, origin: int, target: int, n_vertices: int) -> tuple[int, int]:
    """Rank pair that orders chords crossing {origin, target} by distance from origin.

    Writing d = {p, q} with p on the open counterclockwise walk origin->target
    and q on the clockwise one, the key is (steps to p, steps to q), each
    measured from origin along its own walk.  For two non-crossing chords that
    both cross the oriented chord, componentwise comparison of these keys is
    total and matches comparing the chords' intersection points with the
    segment origin-target; since the components can never pull in opposite
    directions for such chords, plain tuple comparison of keys realizes it.
    """
    span = ccw_steps(origin, target, n_vertices)
    ccw_rank = cw_rank = None
    for x in d:
        s = ccw_steps(origin, x, n_vertices)
        if 0 < s < span:
            ccw_rank = s
        elif s > span:
            cw_rank = n_vertices - s
    if ccw_rank is None or cw_rank is None:
        raise InputError(f"{d} does not cross {origin}-{target}")
    return (ccw_rank, cw_rank)


def crosses_before(d1: Arc, d2: Arc, chord: Arc, origin: int, n_vertices: int) -> bool:
    """True when d1 meets the chord strictly nearer to origin than d2 does.

    Both arcs must cross the chord and must not cross each other; the order is
    then a strict total order, so exactly one of crosses_before(d1, d2, ...)
    and crosses_before(d2, d1, ...) holds.
    """
    if not chord.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {chord}")
    if d1 == d2:
        raise InputError("arcs to compare must be distinct")
    if crosses(d1, d2, n_vertices):
        raise InputError(f"{d1} and {d2} cross each other; their order is undefined")
    target = chord.other_end(origin)
    k1 = crossing_position(d1, origin, target, n_vertices)
    k2 = crossing_position(d2, origin, target, n_vertices)
    return k1 < k2


def _joined(pairs: Iterable[tuple[int, int]], n_vertices: int) -> list[int]:
    """Vertex -> bitmask of the vertices joined to it: bit v of entry u and bit
    u of entry v are set for each (u, v) pair; entry 0 is unused."""
    joined = [0] * (n_vertices + 1)
    for u, v in pairs:
        joined[u] |= 1 << v
        joined[v] |= 1 << u
    return joined


def _apexes(joined: list[int], u: int, v: int) -> tuple[int, int]:
    """The apexes of the two triangles on the diagonal {u, v}, low then high:
    the diagonal its flip puts in its place.  ``joined`` masks every arc."""
    apexes = joined[u] & joined[v]
    count = apexes.bit_count()
    if count != 2:
        raise InvariantError(f"diagonal {u}-{v} bounds {count} triangles, expected 2")
    return (apexes & -apexes).bit_length() - 1, apexes.bit_length() - 1


def _raise_first_crossing(diags: tuple[Arc, ...]) -> NoReturn:
    """Name the first crossing pair of diagonals in label order, by the definition."""
    for i, (a, b) in enumerate(diags):
        for j, (c, d) in enumerate(diags[i + 1 :], start=i + 1):
            if a < c < b < d or c < a < d < b:
                raise InputError(f"diagonals {diags[i]} and {diags[j]} cross")
    raise InvariantError("the crossing check found a crossing that no pair of diagonals makes")


@cache
def _boundary(n_vertices: int) -> tuple[Arc, ...]:
    """The boundary edges {k, k+1} of the polygon, k = 1..n_vertices, in label order."""
    return tuple(Arc(k, k % n_vertices + 1) for k in range(1, n_vertices + 1))


@dataclass(frozen=True)
class FlipQuadrilateral:
    """The quadrilateral formed by the two triangles adjacent to a diagonal.

    ``opposite_pairs`` holds the four side labels grouped into the two pairs of
    opposite sides; ``replacement`` is the other diagonal of the quadrilateral.
    """

    label: int
    corners: tuple[int, int, int, int]
    replacement: Arc
    opposite_pairs: tuple[tuple[int, int], tuple[int, int]]


class CrossingStep(NamedTuple):
    """Quadrilateral at the first crossing of a chord from origin to target.

    ``pivot`` labels the crossing diagonal nearest origin: the third side of
    the triangle of the triangulation that the chord leaves origin through.
    The triangle's other sides are ``ccw_side`` = {origin, ccw_corner} and
    ``cw_side`` = {origin, cw_corner}; the corners are origin's neighbours
    nearest the chord on the counterclockwise and clockwise walks to target,
    hence also the pivot's endpoints on those walks.  The quadrilateral is
    (origin, ccw_corner, target, cw_corner), and the one-step exchange
    identity reads

        x[chord] * x[pivot] == x[cw_side] * x[ccw_corner, target]
                               + x[ccw_side] * x[cw_corner, target]

    where x[a, b] is the variable of the arc {a, b}, which need not belong
    to the triangulation.
    """

    ccw_corner: int
    cw_corner: int
    pivot: int
    ccw_side: int
    cw_side: int


@dataclass(frozen=True)
class Triangulation:
    """A labeled triangulation of the (n+3)-gon.

    ``edges[i]`` is the arc with label i+1.  Construction validates each
    diagonal's vertex range once, the labeling convention, distinctness of
    the arcs and non-crossing of the diagonals; with exactly n non-crossing
    diagonals the set is automatically maximal.  The crossing check is a stack
    over the diagonals sorted by (u, -v), linear after the sort; only a set
    that fails it is searched pair by pair, so the error names the first
    crossing pair in label order.
    """

    n: int
    edges: tuple[Arc, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InputError(f"rank must be at least 1, got {n}")
        nv = n + 3
        if len(self.edges) != 2 * n + 3:
            raise InputError(f"expected {2 * n + 3} labeled arcs, got {len(self.edges)}")
        diags = self.edges[:n]
        spans = []
        for arc in diags:
            arc.validate(nv)
            u, v = arc
            # 1 <= u < v <= nv now, so v - u is the counterclockwise step count.
            if v - u == 1 or v - u == nv - 1:
                raise InputError(f"{arc} is a boundary edge, not a diagonal")
            spans.append((u, -v))
        # Each boundary label must hold one fixed arc, valid by construction.
        boundary = _boundary(nv)
        if self.edges[n:] != boundary:
            k = next(k for k, arc in enumerate(boundary) if self.edges[n + k] != arc)
            raise InputError(
                f"label {n + k + 1} must carry boundary edge {boundary[k]}, got {self.edges[n + k]}"
            )
        if len(set(diags)) != n:
            raise InputError("duplicate arcs in triangulation")
        # Sorted by (u, -v), a diagonal comes after every diagonal that contains
        # it.  ``ends`` holds the far ends of the diagonals still open at u,
        # nearest on top, above a bound no vertex reaches; a diagonal crosses an
        # open one exactly when it ends beyond the nearest open end.
        spans.sort()
        ends = [nv + 1]
        for u, minus_v in spans:
            while ends[-1] <= u:
                ends.pop()
            if ends[-1] < -minus_v:
                _raise_first_crossing(diags)
            ends.append(-minus_v)

    @property
    def n_vertices(self) -> int:
        return self.n + 3

    @property
    def n_labels(self) -> int:
        return 2 * self.n + 3

    def arc(self, label: int) -> Arc:
        if not 1 <= label <= self.n_labels:
            raise InputError(f"label {label} out of range 1..{self.n_labels}")
        return self.edges[label - 1]

    def diagonal_arcs(self) -> tuple[Arc, ...]:
        return self.edges[: self.n]

    def diagonal_key(self) -> tuple[Arc, ...]:
        """Sorted diagonal set; identifies the triangulation up to relabeling."""
        return tuple(sorted(self.diagonal_arcs()))

    @cached_property
    def _label_by_pair(self) -> dict[Arc, int]:
        return {arc: i + 1 for i, arc in enumerate(self.edges)}

    @cached_property
    def _crossing_keys(self) -> dict[tuple[int, int], dict[int, int]]:
        """``tpaths.crossing_keys`` tables by (source, target); see there."""
        return {}

    def label_of(self, arc: Arc) -> int | None:
        return self._label_by_pair.get(arc)

    def contains(self, arc: Arc) -> bool:
        return arc in self._label_by_pair

    @cached_property
    def _ends(self) -> dict[int, tuple[int, int]]:
        """Label -> its arc's (u, v) as a plain tuple; a label outside 1..2n+3 is absent."""
        return {i + 1: (arc.u, arc.v) for i, arc in enumerate(self.edges)}

    @cached_property
    def _steps(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Vertex -> its fan: (label, far end) per incident edge, ascending label.

        The only neighbour table a triangulation keeps: the path searches
        step along it and ``_fan_step`` reads the crossing step off it.
        """
        steps: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.n_vertices + 1)}
        for label, (u, v) in enumerate(self.edges, start=1):
            steps[u].append((label, v))
            steps[v].append((label, u))
        return {v: tuple(fan) for v, fan in steps.items()}

    def incident_labels(self, vertex: int) -> tuple[int, ...]:
        _require_vertex(vertex, self.n_vertices)
        return tuple(step[0] for step in self._steps[vertex])

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles, as ascending vertex triples in ascending order.

        The triangle (u, v, w), u < v < w, is read off its side {u, v}: w is the
        one apex above v, the top bit of ``joined[u] & joined[v]``.  The masks are
        built here, as in ``quadrilateral``: the fan stays the only neighbour
        table a triangulation keeps.
        """
        joined = _joined(self._label_by_pair, self.n_vertices)
        return tuple(
            (u, v, (joined[u] & joined[v]).bit_length() - 1)
            for u, v in sorted(self._label_by_pair)
            if (joined[u] & joined[v]) >> v + 1
        )

    def quadrilateral(self, k: int) -> FlipQuadrilateral:
        """The quadrilateral whose diagonals are T_k and its flip replacement."""
        if not 1 <= k <= self.n:
            raise InputError(f"label {k} does not name a diagonal (1..{self.n})")
        d = self.edges[k - 1]
        joined = _joined(self._label_by_pair, self.n_vertices)
        replacement = _apexes(joined, *d)
        corners = tuple(sorted((*d, *replacement)))
        p0, p1, p2, p3 = corners

        def side(a: int, b: int) -> int:
            lab = self.label_of(Arc(a, b))
            if lab is None:
                raise InvariantError(f"side {Arc(a, b)} of the quadrilateral at {d} has no label")
            return lab

        pairs = ((side(p0, p1), side(p2, p3)), (side(p1, p2), side(p3, p0)))
        return FlipQuadrilateral(k, corners, Arc(*replacement), pairs)

    def flip(self, k: int) -> "Triangulation":
        """Replace the diagonal labeled k by the other diagonal of its quadrilateral."""
        quad = self.quadrilateral(k)
        return Triangulation(self.n, self.edges[: k - 1] + (quad.replacement,) + self.edges[k:])

    def crossing_labels(self, chord: Arc) -> list[int]:
        """Labels of the diagonals crossing the given arc, in label order."""
        chord.validate(self.n_vertices)
        return [lab for lab in range(1, self.n + 1) if _crosses(self.edges[lab - 1], chord)]

    def crossing_labels_from(self, chord: Arc, origin: int) -> list[int]:
        """Diagonals crossing the chord, ordered by crossing point from origin.

        Empty exactly when the chord belongs to the triangulation.
        """
        chord.validate(self.n_vertices)
        if not chord.is_diagonal(self.n_vertices):
            raise InputError(f"{chord} is a boundary edge; only diagonals can be crossed")
        if not chord.is_incident(origin):
            raise InputError(f"{origin} is not an endpoint of {chord}")
        target = chord.other_end(origin)
        labels = self.crossing_labels(chord)
        labels.sort(
            key=lambda lab: crossing_position(self.edges[lab - 1], origin, target, self.n_vertices)
        )
        return labels


def build_triangulation(n: int, diagonals: list[tuple[int, int]]) -> Triangulation:
    """Assemble a triangulation from its n diagonals.

    Diagonal labels follow the input order.  Boundary labels always follow
    the {k, k+1} -> n+k convention.
    """
    if n < 1:
        raise InputError(f"rank must be at least 1, got {n}")
    if len(diagonals) != n:
        raise InputError(f"expected {n} diagonals, got {len(diagonals)}")
    return Triangulation(n, tuple(Arc(u, v) for u, v in diagonals) + _boundary(n + 3))


def snake_triangulation(n: int) -> Triangulation:
    """The zigzag triangulation: {2,4}, then fanning alternately from both ends.

    The diagonals are the consecutive pairs of the walk 2, 4, 1, 5, n+3, 6, ...
    whose even entries step down from 2 and odd entries step up from 4.
    """
    nv = n + 3
    walk = [2, 4]
    lo, hi = 2, 4
    while len(walk) < n + 1:
        if len(walk) % 2 == 0:
            lo -= 1
            walk.append((lo - 1) % nv + 1)
        else:
            hi += 1
            walk.append(hi)
    return build_triangulation(n, [(walk[i], walk[i + 1]) for i in range(n)])


def first_crossing_step(t: Triangulation, chord: Arc, origin: int) -> CrossingStep | None:
    """Locate the quadrilateral at the chord's first crossing from origin.

    Returns None when nothing crosses, i.e. when the chord belongs to the
    triangulation.  The step is read off the fan of triangulation edges at
    ``origin`` (see ``CrossingStep``), in time linear in origin's degree: no
    crossing is tested and nothing is sorted.  The exchange recursion reads
    the same step from ``_fan_step``, without this validation.  The chord's
    vertex range is checked before anything else.
    """
    nv = t.n_vertices
    chord.validate(nv)
    if chord.is_boundary(nv):
        raise InputError(f"{chord} is a boundary edge; only diagonals can be crossed")
    if not chord.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {chord}")
    if chord in t._label_by_pair:
        return None
    return CrossingStep(*_fan_step(t, origin, chord.other_end(origin)))


def _fan_step(t: Triangulation, origin: int, target: int) -> tuple[int, int, int, int, int]:
    """(ccw_corner, cw_corner, pivot, ccw_side, cw_side) of the chord origin-target.

    The fields are those of ``CrossingStep``, as a plain tuple, read off the
    fan ``t._steps[origin]``.  Nothing is validated: the vertices must be
    distinct vertices of ``t`` and the chord not an arc of ``t``, else the
    result means nothing.  A fan that has no such triangle raises
    ``InvariantError``.
    """
    nv = t.n_vertices
    labels = t._label_by_pair
    span = (target - origin) % nv  # ccw_steps, inline here and below: a hot loop
    # The chord leaves origin between two consecutive edges of origin's fan:
    # the neighbours nearest it on the counterclockwise and clockwise walks to
    # target.  With no neighbour on one side the corner stays origin itself,
    # and a check below refuses it.
    ccw_corner = cw_corner = origin
    ccw_step, cw_step = 0, nv
    for _, x in t._steps[origin]:
        s = (x - origin) % nv
        if s < span:
            if s > ccw_step:
                ccw_step, ccw_corner = s, x
        elif s < cw_step:
            cw_step, cw_corner = s, x
    # Consecutive neighbours of origin bound a triangle with it, whose third
    # side is the first diagonal the chord crosses.
    low, high = (ccw_corner, cw_corner) if ccw_corner < cw_corner else (cw_corner, ccw_corner)
    pivot = labels.get((low, high))
    if pivot is None:
        raise InvariantError(
            f"neighbours {ccw_corner} and {cw_corner} of {origin} "
            f"around {origin}-{target} are not joined"
        )
    ccw_side = labels.get((origin, ccw_corner) if origin < ccw_corner else (ccw_corner, origin))
    cw_side = labels.get((origin, cw_corner) if origin < cw_corner else (cw_corner, origin))
    if ccw_side is None or cw_side is None:
        raise InvariantError(f"triangle at {origin} before pivot {t.edges[pivot - 1]} lacks a side")
    return ccw_corner, cw_corner, pivot, ccw_side, cw_side


def all_polygon_diagonals(n: int) -> list[Arc]:
    """Every diagonal of the (n+3)-gon, sorted."""
    nv = n + 3
    return [Arc(u, v) for u in range(1, nv) for v in range(u + 2, nv + 1) if (u, v) != (1, nv)]


def flip_graph(n: int) -> tuple[list[Triangulation], list[tuple[int, int]]]:
    """All triangulations of the (n+3)-gon and the flips connecting them.

    No search: the triangle on the side {i, j} of a sub-polygon i, i+1, ..., j
    has an apex k that splits it into the sub-polygons i..k and k..j, so each
    sub-polygon's triangulations are built once from narrower ones, each as a
    bitmask over ``all_polygon_diagonals`` whose smallest diagonal holds the
    top bit.  Every set has n members, so descending masks list the nodes by
    their sorted diagonal sets; each node is labeled in that order and
    validated once on construction.  Dropping a diagonal leaves one
    quadrilateral, which has two triangulations: the flips are the pairs of
    nodes that share a mask with one bit cleared.  Edges come back as sorted
    index pairs into the node list.
    """
    if n < 1:
        raise InputError(f"rank must be at least 1, got {n}")
    if n > MAX_ENUMERATION_RANK:
        raise ResourceLimitError(
            f"exhaustive enumeration is guarded at rank {MAX_ENUMERATION_RANK}, got {n}"
        )
    nv = n + 3
    bit = {d: 1 << i for i, d in enumerate(reversed(all_polygon_diagonals(n)))}
    # parts[i, j]: the triangulations of the sub-polygon i..j as (mask,
    # diagonals), its side {i, j} included when that is a diagonal.
    parts = {(i, i + 1): [(0, ())] for i in range(1, nv)}
    for width in range(2, nv):
        for i in range(1, nv - width + 1):
            j = i + width
            split = [
                (m | m2, d + d2)
                for k in range(i + 1, j)
                for m, d in parts[i, k]
                for m2, d2 in parts[k, j]
            ]
            side = Arc(i, j)
            if side in bit:
                b, one = bit[side], (side,)
                split = [(m | b, one + d) for m, d in split]
            parts[i, j] = split
    found = sorted(parts[1, nv], reverse=True)
    boundary = _boundary(nv)
    nodes = [Triangulation(n, tuple(sorted(d)) + boundary) for _, d in found]
    # A hole, a node's mask with one diagonal dropped, is shared by exactly the
    # two ends of one flip; the first of them to meet it keeps it.
    holes: dict[int, int] = {}
    edges = []
    for i, (mask, d) in enumerate(found):
        for arc in d:
            k = holes.setdefault(mask ^ bit[arc], i)
            if k != i:
                edges.append((k, i))
    if 2 * len(edges) != n * len(nodes):
        raise InvariantError(
            f"{len(edges)} flips among {len(nodes)} triangulations, expected {n} at each"
        )
    edges.sort()
    return nodes, edges


def all_triangulations(n: int) -> list[Triangulation]:
    """Every triangulation of the (n+3)-gon, canonically labeled and ordered."""
    nodes, _ = flip_graph(n)
    return nodes
