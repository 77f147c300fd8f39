"""Combinatorial model of a convex polygon and its labeled triangulations.

Vertices of an (n+3)-gon are numbered 1..n+3 counterclockwise.  An arc is a
chord between two distinct vertices; it is a boundary edge when its endpoints
are circularly adjacent and a diagonal otherwise.  A triangulation stores its
2n+3 arcs by label: labels 1..n are the diagonals, and the boundary edge
{k, k+1} carries label n+k (vertex n+4 read as vertex 1).

Everything is decided by exact circular-interleaving arithmetic on vertex
indices; no coordinates or floating point appear anywhere, so every predicate
is exact and every ordering total on its intended inputs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property

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


@dataclass(frozen=True, order=True)
class Arc:
    """Unordered pair of distinct polygon vertices, stored with u < v."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise InputError(f"arc endpoints must be distinct, got {self.u} twice")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    def validate(self, n_vertices: int) -> None:
        _require_vertex(self.u, n_vertices)
        _require_vertex(self.v, n_vertices)

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
    a, b, c, d = d1.u, d1.v, d2.u, d2.v
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
    for x in d.endpoints():
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


def _flip_corners(
    neighbors: dict[int, set[int]], u: int, v: int
) -> tuple[tuple[int, int, int, int], tuple[int, int]]:
    """Corners, ascending, and the other diagonal of the quadrilateral around {u, v}.

    ``neighbors`` is ``_neighbor_sets`` of every arc of a triangulation, the
    diagonal {u, v} (u < v) among them.  The two apexes are the vertices
    joined to both u and v: ``neighbors[u] & neighbors[v]``.
    """
    apexes = neighbors[u] & neighbors[v]
    if len(apexes) != 2:
        raise InvariantError(f"diagonal {u}-{v} bounds {len(apexes)} triangles, expected 2")
    p0, p1, p2, p3 = sorted((u, v, *apexes))
    replacement = (p1, p3) if (u, v) == (p0, p2) else (p0, p2)
    return (p0, p1, p2, p3), replacement


def _neighbor_sets(n_vertices: int, pairs: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Vertex -> the vertices joined to it by one of the given arcs, as (u, v) pairs."""
    neighbors: dict[int, set[int]] = {v: set() for v in range(1, n_vertices + 1)}
    for u, v in pairs:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return neighbors


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


@dataclass(frozen=True)
class CrossingStep:
    """Quadrilateral data at the first crossing of an oriented chord.

    For a chord from ``origin`` to ``target`` not belonging to the
    triangulation, ``pivot`` labels the crossing diagonal nearest ``origin``:
    the third side of the triangle of the triangulation that the chord leaves
    ``origin`` through.  That triangle's other two sides are the edges
    {origin, ccw_corner} and {origin, cw_corner}, where the corners are the
    neighbours of origin nearest the chord on the counterclockwise and
    clockwise walks from origin to target, hence also the pivot's endpoints
    on those walks.  ``ccw_far`` and ``cw_far`` close up the quadrilateral
    (origin, ccw_corner, target, cw_corner); they need not belong to the
    triangulation.  The one-step exchange identity reads

        x[chord] * x[pivot] == x[cw_side] * x[ccw_far] + x[ccw_side] * x[cw_far]
    """

    origin: int
    target: int
    pivot: int
    ccw_corner: int
    cw_corner: int
    ccw_side: int
    cw_side: int
    ccw_far: Arc
    cw_far: Arc


@dataclass(frozen=True)
class Triangulation:
    """A labeled triangulation of the (n+3)-gon.

    ``edges[i]`` is the arc with label i+1.  Construction validates the
    labeling convention, pairwise non-crossing of the diagonals and
    distinctness of all arcs; with exactly n non-crossing diagonals the set is
    automatically maximal.
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
        pairs = []
        for arc in diags:
            arc.validate(nv)
            u, v = arc.u, arc.v
            # 1 <= u < v <= nv now, so v - u is the counterclockwise step count.
            if v - u == 1 or v - u == nv - 1:
                raise InputError(f"{arc} is a boundary edge, not a diagonal")
            pairs.append((u, v))
        # Each boundary label must hold one fixed arc, valid by construction.
        boundary = _boundary(nv)
        if self.edges[n:] != boundary:
            k = next(k for k, arc in enumerate(boundary) if self.edges[n + k] != arc)
            raise InputError(
                f"label {n + k + 1} must carry boundary edge {boundary[k]}, got {self.edges[n + k]}"
            )
        if len(set(pairs)) != n:
            raise InputError("duplicate arcs in triangulation")
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs[i + 1 :], start=i + 1):
                if a < c < b < d or c < a < d < b:
                    raise InputError(f"diagonals {diags[i]} and {diags[j]} cross")

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
    def _label_by_pair(self) -> dict[tuple[int, int], int]:
        return {(arc.u, arc.v): i + 1 for i, arc in enumerate(self.edges)}

    @cached_property
    def _crossing_steps(self) -> dict[tuple[int, int, int], CrossingStep | None]:
        """``first_crossing_step`` results by (u, v, origin); see there."""
        return {}

    @cached_property
    def _crossing_keys(self) -> dict[tuple[int, int], dict[int, tuple[int, int]]]:
        """``tpaths.crossing_keys`` tables by (source, target); see there."""
        return {}

    def label_of(self, arc: Arc) -> int | None:
        return self._label_by_pair.get((arc.u, arc.v))

    def contains(self, arc: Arc) -> bool:
        return (arc.u, arc.v) in self._label_by_pair

    @cached_property
    def _incidence(self) -> dict[int, tuple[int, ...]]:
        by_vertex: dict[int, list[int]] = {v: [] for v in range(1, self.n_vertices + 1)}
        for label, arc in enumerate(self.edges, start=1):
            by_vertex[arc.u].append(label)
            by_vertex[arc.v].append(label)
        return {v: tuple(sorted(labels)) for v, labels in by_vertex.items()}

    @cached_property
    def _ends(self) -> dict[int, tuple[int, int]]:
        """Label -> its arc's (u, v); a label outside 1..2n+3 is absent."""
        return {i + 1: (arc.u, arc.v) for i, arc in enumerate(self.edges)}

    @cached_property
    def _steps(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """Vertex -> (label, 1 << label, far end) per incident edge, ascending label."""
        edges = self.edges
        return {
            v: tuple((lab, 1 << lab, edges[lab - 1].other_end(v)) for lab in labels)
            for v, labels in self._incidence.items()
        }

    def incident_labels(self, vertex: int) -> tuple[int, ...]:
        _require_vertex(vertex, self.n_vertices)
        return self._incidence[vertex]

    @cached_property
    def _neighbors(self) -> dict[int, set[int]]:
        return _neighbor_sets(self.n_vertices, self._label_by_pair)

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles, as ascending vertex triples in ascending order."""
        neighbors = self._neighbors
        return tuple(
            (u, v, w)
            for u, joined in neighbors.items()
            for v in sorted(x for x in joined if x > u)
            for w in sorted(x for x in joined & neighbors[v] if x > v)
        )

    def quadrilateral(self, k: int) -> FlipQuadrilateral:
        """The quadrilateral whose diagonals are T_k and its flip replacement."""
        if not 1 <= k <= self.n:
            raise InputError(f"label {k} does not name a diagonal (1..{self.n})")
        d = self.edges[k - 1]
        corners, replacement = _flip_corners(self._neighbors, d.u, d.v)
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
    crossing is tested and nothing is sorted.  Each result, None included, is
    kept on ``t`` under ``(chord.u, chord.v, origin)``, so every later call on
    the same triangulation (the recursion's steps, the partition and bijection
    checks) shares one step per arc and origin.  The memo holds geometry
    only, lives exactly as long as ``t``, and is created on the first call.
    Calls that raise store nothing; the chord's vertex range is checked
    before anything else.
    """
    memo = t._crossing_steps
    key = (chord.u, chord.v, origin)
    if key not in memo:
        memo[key] = _first_crossing_step(t, chord, origin)
    return memo[key]


def _first_crossing_step(t: Triangulation, chord: Arc, origin: int) -> CrossingStep | None:
    nv = t.n_vertices
    chord.validate(nv)
    if chord.is_boundary(nv):
        raise InputError(f"{chord} is a boundary edge; only diagonals can be crossed")
    if not chord.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {chord}")
    labels = t._label_by_pair
    if (chord.u, chord.v) in labels:
        return None
    target = chord.other_end(origin)
    span = ccw_steps(origin, target, nv)
    # The chord leaves origin between two consecutive edges of origin's fan:
    # the neighbours nearest it on the counterclockwise and clockwise walks to
    # target.  With no neighbour on one side the corner stays origin itself,
    # and a check below refuses it.
    ccw_corner = cw_corner = origin
    ccw_step, cw_step = 0, nv
    for x in t._neighbors[origin]:
        s = ccw_steps(origin, x, nv)
        if s < span:
            if s > ccw_step:
                ccw_step, ccw_corner = s, x
        elif s < cw_step:
            cw_step, cw_corner = s, x
    # Consecutive neighbours of origin bound a triangle with it, whose third
    # side is the first diagonal the chord crosses.
    pivot = labels.get((min(ccw_corner, cw_corner), max(ccw_corner, cw_corner)))
    if pivot is None:
        raise InvariantError(
            f"neighbours {ccw_corner} and {cw_corner} of {origin} "
            f"around {origin}-{target} are not joined"
        )
    ccw_side = labels.get((min(origin, ccw_corner), max(origin, ccw_corner)))
    cw_side = labels.get((min(origin, cw_corner), max(origin, cw_corner)))
    if ccw_side is None or cw_side is None:
        raise InvariantError(f"triangle at {origin} before pivot {t.edges[pivot - 1]} lacks a side")
    return CrossingStep(
        origin=origin,
        target=target,
        pivot=pivot,
        ccw_corner=ccw_corner,
        cw_corner=cw_corner,
        ccw_side=ccw_side,
        cw_side=cw_side,
        ccw_far=Arc(ccw_corner, target),
        cw_far=Arc(cw_corner, target),
    )


def all_polygon_diagonals(n: int) -> list[Arc]:
    """Every diagonal of the (n+3)-gon, sorted."""
    nv = n + 3
    return [Arc(u, v) for u in range(1, nv) for v in range(u + 2, nv + 1) if (u, v) != (1, nv)]


def flip_graph(n: int) -> tuple[list[Triangulation], list[tuple[int, int]]]:
    """All triangulations of the (n+3)-gon and the flips connecting them.

    Produced by breadth-first flips from the fan at vertex 1, each diagonal
    set keyed by a bitmask; nodes come back sorted by their sorted diagonal
    vertex-pair sets, with labels in that order, each validated once on
    construction, and edges as index pairs into the node list.
    """
    if n < 1:
        raise InputError(f"rank must be at least 1, got {n}")
    if n > MAX_ENUMERATION_RANK:
        raise ResourceLimitError(
            f"exhaustive enumeration is guarded at rank {MAX_ENUMERATION_RANK}, got {n}"
        )
    nv = n + 3
    boundary = _boundary(nv)
    ring = tuple((arc.u, arc.v) for arc in boundary)
    arcs = {(d.u, d.v): d for d in all_polygon_diagonals(n)}
    bit = {pair: 1 << i for i, pair in enumerate(arcs)}
    start = tuple((1, v) for v in range(3, nv))
    # (diagonal set as a bitmask over ``bit``, its vertex pairs) in order of
    # discovery; the list grows while it is read, so it is also the queue.
    found = [(sum(bit[pair] for pair in start), start)]
    ids = {found[0][0]: 0}
    flips = []
    for i, (mask, key) in enumerate(found):
        neighbors = _neighbor_sets(nv, ring + key)
        for j, (u, v) in enumerate(key):
            _, replacement = _flip_corners(neighbors, u, v)
            other = mask ^ bit[u, v] ^ bit[replacement]
            k = ids.setdefault(other, len(found))
            if k == len(found):
                found.append((other, key[:j] + (replacement,) + key[j + 1 :]))
            if k > i:  # each flip is met from both ends; keep it once
                flips.append((i, k))
    keys = [tuple(sorted(key)) for _, key in found]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    nodes = [Triangulation(n, tuple(arcs[pair] for pair in keys[i]) + boundary) for i in order]
    edges = sorted((min(rank[i], rank[k]), max(rank[i], rank[k])) for i, k in flips)
    return nodes, edges


def all_triangulations(n: int) -> list[Triangulation]:
    """Every triangulation of the (n+3)-gon, canonically labeled and ordered."""
    nodes, _ = flip_graph(n)
    return nodes
