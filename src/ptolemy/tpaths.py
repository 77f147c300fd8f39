"""Paths on a triangulation that expand the cluster variable of a chord.

For non-adjacent vertices a and b of the polygon, the admissible paths from a
to b over the edges of a triangulation are those satisfying six rules:

  1. the vertex sequence starts at a and ends at b;
  2. each listed label names an edge joining its consecutive vertices;
  3. no edge label repeats;
  4. the number of edges is odd;
  5. every even-position edge crosses the chord a-b;
  6. the edges crossing the chord appear in strictly increasing order of
     crossing point, walking the chord from a.

Rule 6 constrains every crossing edge wherever it sits, not just the
even-position ones; odd-position edges may cross the chord and some valid
paths rely on that.  Vertices may repeat, but a and b never appear mid-path.
No edge at either crosses the chord, so no even-position edge enters or
leaves them; yet a vertex mid-path is entered by one edge and left by the
next, and one of the two sits at an even position.

``enumerate_t_paths`` walks a per-call graph of the moves the rules allow,
pruned to the moves from which b stays reachable, and checks every path it
emits against all six rules (``is_valid_t_path``), under ``python -O`` as
well.  ``brute_force_t_path_table`` is its independent oracle at small rank:
one walk over the edge-distinct trails from a source, each arrival at a
target checked by the same ``is_valid_t_path``; ``brute_force_t_paths`` is
that walk for a single target.  Both list paths in lexicographic order of
their label sequences, read one crossing table per oriented chord
(``crossing_keys``, kept on the triangulation) and step along one table per
triangulation (``Triangulation._steps``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, InvariantError, ResourceLimitError
from .laurent import Monomial, packed_layout
from .polygon import Arc, Triangulation, crosses, crossing_position

# brute_force_t_paths walks edge-distinct trails; keep it to small ranks.
MAX_BRUTE_FORCE_RANK = 4


class TPath(NamedTuple):
    """Vertex sequence plus the edge labels joining consecutive vertices.

    Equal to the pair (vertices, labels), so ``len()`` is 2; ``length`` counts edges."""

    vertices: tuple[int, ...]
    labels: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        verts = ",".join(str(v) for v in self.vertices)
        labs = ",".join(str(i) for i in self.labels)
        return f"({verts} | {labs})"


@dataclass(frozen=True)
class PathCheck:
    """Validation outcome: ok, or the lowest-numbered violated rule."""

    ok: bool
    violated: int | None = None
    detail: str = ""


_VALID = PathCheck(True)


def _require_endpoints(t: Triangulation, source: int, target: int) -> Arc:
    chord = Arc(source, target)
    chord.validate(t.n_vertices)
    if chord.is_boundary(t.n_vertices):
        raise InputError(f"vertices {source} and {target} are adjacent")
    return chord


def crossing_keys(t: Triangulation, source: int, target: int) -> dict[int, int]:
    """Crossing rank, seen from source, of each diagonal crossing source-target.

    Keyed by label; edges absent from the table do not cross the chord.  The
    rank is p + q for the diagonal's ``crossing_position`` (p, q).  Crossing
    diagonals of a triangulation never cross each other, so their positions
    rise componentwise along the chord and their ranks rise strictly.  The
    endpoints are validated on every call; each oriented chord's table is then
    built once and kept on ``t`` for as long as it lives, shared by every
    caller, so it must not be changed.
    """
    chord = _require_endpoints(t, source, target)
    memo = t._crossing_keys
    keys = memo.get((source, target))
    if keys is None:
        nv = t.n_vertices
        keys = memo[source, target] = {
            lab: sum(crossing_position(arc, source, target, nv))
            for lab, arc in enumerate(t.diagonal_arcs(), start=1)
            if crosses(arc, chord, nv)
        }
    return keys


def is_valid_t_path(
    t: Triangulation,
    source: int,
    target: int,
    candidate: TPath,
    *,
    keys: dict[int, int] | None = None,
) -> PathCheck:
    """Check the six rules, reporting the first one violated.

    Malformed candidates (a vertex out of range, else a label, else a length
    mismatch) are input errors rather than rule violations.  ``keys`` is the
    table ``crossing_keys(t, source, target)`` returns; a caller checking many
    paths between the same endpoints builds it once and passes it in, and the
    check then costs time linear in the path's length.

    The ranges are checked only when the lengths mismatch, rule 1 or 2 fails
    or there are no labels: rule 2 holding on a step puts its label in 1..2n+3
    and its vertices on an edge.
    """
    if keys is None:
        keys = crossing_keys(t, source, target)
    vertices, labels = candidate.vertices, candidate.labels
    if len(vertices) != len(labels) + 1:
        _require_ranges(t, candidate)
        raise InputError(
            f"{len(labels)} labels need {len(labels) + 1} vertices, got {len(vertices)}"
        )
    if vertices[0] != source or vertices[-1] != target:
        _require_ranges(t, candidate)
        return PathCheck(False, 1, "path must run from the source vertex to the target")
    ends = t._ends
    for lab, a, b in zip(labels, vertices, vertices[1:]):
        e = ends.get(lab)
        if e is None or (e[0] != a or e[1] != b) and (e[0] != b or e[1] != a):
            _require_ranges(t, candidate)
            return PathCheck(False, 2, f"edge {lab} does not join {a} and {b}")
    if len(set(labels)) != len(labels):
        return PathCheck(False, 3, "repeated edge label")
    if len(labels) % 2 == 0:
        if not labels:
            _require_ranges(t, candidate)
        return PathCheck(False, 4, f"even length {len(labels)}")
    for lab in labels[1::2]:
        if lab not in keys:
            return PathCheck(False, 5, f"even-position edge {lab} does not cross the chord")
    last = 0
    for lab in labels:
        rank = keys.get(lab)
        if rank is None:
            continue
        if rank <= last:
            return PathCheck(False, 6, f"edge {lab} crosses out of order")
        last = rank
    return _VALID


def _require_ranges(t: Triangulation, candidate: TPath) -> None:
    nv, n_labels = t.n_vertices, t.n_labels
    for v in candidate.vertices:
        if not 1 <= v <= nv:
            raise InputError(f"vertex {v} out of range 1..{nv}")
    for lab in candidate.labels:
        if not 1 <= lab <= n_labels:
            raise InputError(f"label {lab} out of range 1..{n_labels}")


def enumerate_t_paths(
    t: Triangulation, source: int, target: int, *, weights: list[int] | None = None
) -> list[TPath]:
    """All admissible paths from source to target, pruned search.

    The search moves from one odd position to the next.  Its state is the
    current vertex and the rank (see ``crossing_keys``) of the last crossing
    edge.  A move is an odd step onto the target, which ends the path, or an
    odd step and the even one after it, which must cross; a crossing edge must
    cross later than the last one.  Each state's moves are listed once per call, keeping only the
    moves into states from which the target is still reachable.  The rank
    rises with every move, so the states form an acyclic graph, and the walk
    emits every path from the source state to the target.

    No such path repeats an edge, so the walk keeps no record of the edges it
    used.  Write a = source, b = target, and let p and q be the two
    components of a crossing position (see ``crossing_position``).
      * Each crossing edge has a higher rank than every crossing edge before
        it, at odd and even positions alike, so no crossing edge repeats.
      * Every even step crosses the chord, so a and b never appear
        mid-path (see the module docstring): an edge at a can only come
        first and an edge at b only last.
      * Any other edge e = {x, y} crosses nothing, so it sits at an odd
        position i, between crossing edges at i - 1 and i + 1, and x and y
        lie on one side of the chord, say the counterclockwise one.  The
        edges at i - 1 and i + 1 meet that side at x and at y, so their
        values of p are the steps from a to x and to y, which differ.  The
        positions of a triangulation's crossing edges rise componentwise along
        the chord, so p never falls along a path, and it rises strictly from
        i - 1 to i + 1.  Two uses of e at i < j would give
        p(i - 1) < p(i + 1) <= p(j - 1) < p(j + 1), three distinct values
        out of two.  On the clockwise side the same holds for q.
    Rule 3 is still checked on every emitted path, as below.

    Every emitted path is checked against the six rules, from the same
    crossing table the search prunes with; a path that fails raises
    ``InvariantError``.  When ``weights`` is given, each path's packed weight
    (see ``packed_layout``: odd-position labels up, even-position labels
    down) is appended to it, in the order of the returned paths.
    """
    keys = crossing_keys(t, source, target)
    zero, units = packed_layout(t.n_labels)
    steps = t._steps
    # (vertex, last rank) -> [(labels, vertices reached, weight change, the
    # next state's moves or None at the target), ...]
    memo: dict[tuple[int, int], list] = {}

    def moves(vertex: int, last: int) -> list:
        kept = memo[vertex, last] = []
        for lab, mid in steps[vertex]:
            rank = keys.get(lab)
            if rank is None:
                rank = last
            elif rank <= last:
                continue
            if mid == target:
                kept.append(((lab,), (mid,), units[lab], None))
                continue
            for lab2, nxt in steps[mid]:
                rank2 = keys.get(lab2, 0)
                if rank2 <= rank:
                    continue
                follow = memo.get((nxt, rank2))
                if follow is None:
                    follow = moves(nxt, rank2)
                if follow:
                    kept.append(((lab, lab2), (mid, nxt), units[lab] - units[lab2], follow))
        return kept

    out: list[TPath] = []
    found = [] if weights is None else weights

    def walk(options: list, weight: int, vertices: tuple, labels: tuple) -> None:
        for labs, reached, delta, follow in options:
            if follow is None:
                path = TPath(vertices + reached, labels + labs)
                check = is_valid_t_path(t, source, target, path, keys=keys)
                if not check.ok:
                    raise InvariantError(
                        f"enumerated {path} breaks rule {check.violated}: {check.detail}"
                    )
                out.append(path)
                found.append(weight + delta)
            else:
                walk(follow, weight + delta, vertices + reached, labels + labs)

    walk(moves(source, 0), zero, (source,), ())
    # Each closure calls itself, so it sits in a reference cycle that would keep
    # the memo, the paths and the weights alive until the next cycle collection.
    del moves, walk
    return out


def brute_force_t_paths(t: Triangulation, source: int, target: int) -> list[TPath]:
    """Oracle enumeration between two vertices; see ``brute_force_t_path_table``."""
    return brute_force_t_path_table(t, source, (target,))[target]


def brute_force_t_path_table(
    t: Triangulation, source: int, targets: Iterable[int]
) -> dict[int, list[TPath]]:
    """Oracle enumeration from one source: edge-distinct walks, filtered by
    the six rules, for each target at once.

    One walk from ``source`` serves every target: each odd-length arrival at a
    target becomes a ``TPath`` and is kept when ``is_valid_t_path`` passes it
    with that target's own crossing table.  The walk steps along the fans of
    ``t._steps``, carrying the labels it used as a mask of bits ``1 << label``
    and a mask of the targets whose chord every even-position edge so far
    crosses, read from the same crossing tables; it extends no trail whose
    target mask is empty and checks an arrival only when its target's bit is
    set.  Rule 5 is closed under prefixes: an even-position edge that misses a
    target's chord keeps that position in every extension of the trail.  So
    the pruning drops no path that could pass, and each list, order included,
    is the one a walk over every edge-distinct trail gives.  The oracle reads
    nothing of the pruned search (``enumerate_t_paths``), neither its moves,
    its crossing ranks nor its reachability test, so agreement between the two
    still exercises that search end to end.  Guarded to small ranks; the walk
    count grows quickly.
    """
    if t.n > MAX_BRUTE_FORCE_RANK:
        raise ResourceLimitError(
            f"brute-force enumeration is guarded at rank {MAX_BRUTE_FORCE_RANK}, got {t.n}"
        )
    keys = {target: crossing_keys(t, source, target) for target in targets}
    bit_of = {target: 1 << i for i, target in enumerate(keys)}
    # Label -> the bits of the targets whose chord it crosses.
    crossed: dict[int, int] = {}
    for target, table in keys.items():
        for lab in table:
            crossed[lab] = crossed.get(lab, 0) | bit_of[target]
    steps = t._steps
    out: dict[int, list[TPath]] = {target: [] for target in keys}
    vertices = [source]
    labels: list[int] = []

    def extend(vertex: int, used: int, odd: bool, live: int) -> None:
        for lab, nxt in steps[vertex]:
            bit = 1 << lab
            if used & bit:
                continue
            if odd:
                kept = live
            else:
                kept = live & crossed.get(lab, 0)
                if not kept:
                    continue
            labels.append(lab)
            vertices.append(nxt)
            if odd and live & bit_of.get(nxt, 0):
                path = TPath(tuple(vertices), tuple(labels))
                if is_valid_t_path(t, source, nxt, path, keys=keys[nxt]).ok:
                    out[nxt].append(path)
            extend(nxt, used | bit, not odd, kept)
            labels.pop()
            vertices.pop()

    extend(source, 0, True, (1 << len(keys)) - 1)
    del extend  # a self-calling closure, as in enumerate_t_paths
    return out


def path_weight(path: TPath, nvars: int) -> Monomial:
    """The path's monomial: odd-position labels up, even-position labels down."""
    labels = path.labels
    if labels and (min(labels) < 1 or max(labels) > nvars):
        bad = next(lab for lab in labels if not 1 <= lab <= nvars)
        raise InputError(f"label {bad} out of range 1..{nvars}")
    exps = [0] * nvars
    for lab in labels[::2]:
        exps[lab - 1] += 1
    for lab in labels[1::2]:
        exps[lab - 1] -= 1
    return Monomial(1, tuple(exps))
