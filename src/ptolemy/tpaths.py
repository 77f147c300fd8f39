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

``enumerate_t_paths`` walks a per-call table of the moves the rules allow
from each search state, pruned to the moves from which b stays reachable, and
hands out each path's packed weight as it finds it;
``brute_force_t_path_table`` generates every edge-distinct walk from one
source and filters with the validator, serving as its independent oracle at
small rank.  The trails from a source do not depend on the target, so one
walk serves all of the source's targets, each arrival checked with its own
target's crossing table; ``brute_force_t_paths`` is that walk for a single
target.  Both routes list paths in lexicographic order of their label
sequences.  Each chord gets one table of crossing positions
(``crossing_keys``), and the search, its validator calls and the oracle's
all read it; both walks step along one table per triangulation
(``Triangulation._steps``).  Every path the pruned search emits is checked
against all six rules at a cost linear in its length, and a failure raises
``InvariantError``, under ``python -O`` as well.  Vertex and label ranges are
checked only when the lengths mismatch or rule 1 or 2 fails (or the path is
empty), since rule 2 holding implies them (see ``is_valid_t_path``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InputError, InvariantError, ResourceLimitError
from .laurent import Monomial, packed_layout
from .polygon import Arc, Triangulation, crosses, crossing_position

# brute_force_t_paths walks every edge-distinct path; keep it to small ranks.
MAX_BRUTE_FORCE_RANK = 4


@dataclass(frozen=True)
class TPath:
    """Vertex sequence plus the edge labels joining consecutive vertices."""

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


def crossing_keys(t: Triangulation, source: int, target: int) -> dict[int, tuple[int, int]]:
    """Crossing position, seen from source, of each diagonal crossing source-target.

    Keyed by label; edges absent from the table do not cross the chord.
    """
    chord = _require_endpoints(t, source, target)
    nv = t.n_vertices
    return {
        lab: crossing_position(arc, source, target, nv)
        for lab, arc in enumerate(t.diagonal_arcs(), start=1)
        if crosses(arc, chord, nv)
    }


def is_valid_t_path(
    t: Triangulation,
    source: int,
    target: int,
    candidate: TPath,
    *,
    keys: dict[int, tuple[int, int]] | None = None,
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
    last = None
    for lab in labels:
        key = keys.get(lab)
        if key is None:
            continue
        if last is not None and key <= last:
            return PathCheck(False, 6, f"edge {lab} crosses out of order")
        last = key
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
    current vertex and the rank of the last crossing edge.  A move is an odd
    step onto the target, which ends the path, or an odd step and the even
    one after it, which must cross; a crossing edge must cross later than the
    last one.  Each state's moves are listed once per call, keeping only the
    moves into states from which the target is still reachable.  That test
    ignores edge distinctness, so it drops no path; the walk checks
    distinctness itself.  The rank rises with every move, so the states form
    an acyclic graph.

    Every emitted path is checked against the six rules, from the same
    crossing table the search prunes with; a path that fails raises
    ``InvariantError``.  When ``weights`` is given, each path's packed weight
    (see ``packed_layout``: odd-position labels up, even-position labels
    down) is appended to it, in the order of the returned paths.
    """
    keys = crossing_keys(t, source, target)
    zero, units = packed_layout(t.n_labels)
    steps = t._steps
    # A crossing edge's rank is the sum of its key: the keys of a triangulation's
    # crossing edges rise componentwise along the chord, so the sums rise strictly.
    rank_of = {lab: p + q for lab, (p, q) in keys.items()}
    # (vertex, last rank) -> [(labels, their bits, vertices reached, weight
    # change, the next state's moves or None at the target), ...]
    memo: dict[tuple[int, int], list] = {}

    def moves(vertex: int, last: int) -> list:
        kept = memo[vertex, last] = []
        for lab, bit, mid in steps[vertex]:
            rank = rank_of.get(lab)
            if rank is None:
                rank = last
            elif rank <= last:
                continue
            if mid == target:
                kept.append(((lab,), bit, (mid,), units[lab], None))
                continue
            for lab2, bit2, nxt in steps[mid]:
                rank2 = rank_of.get(lab2, 0)
                if rank2 <= rank:
                    continue
                follow = memo.get((nxt, rank2))
                if follow is None:
                    follow = moves(nxt, rank2)
                if follow:
                    delta = units[lab] - units[lab2]
                    kept.append(((lab, lab2), bit | bit2, (mid, nxt), delta, follow))
        return kept

    out: list[TPath] = []
    found = [] if weights is None else weights

    def walk(options: list, used: int, weight: int, vertices: tuple, labels: tuple) -> None:
        for labs, bits, reached, delta, follow in options:
            if used & bits:
                continue
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
                walk(follow, used | bits, weight + delta, vertices + reached, labels + labs)

    walk(moves(source, 0), 0, zero, (source,), ())
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
    """Oracle enumeration from one source: every edge-distinct walk, filtered
    by the validator, for each target at once.

    One walk from ``source`` serves every target: each odd-length arrival at
    a target is checked against the six rules with that target's own
    crossing table.  No rule is used for pruning beyond edge distinctness,
    so agreement with ``enumerate_t_paths`` exercises the pruned search end
    to end.  Guarded to small ranks; the walk count grows quickly.
    """
    if t.n > MAX_BRUTE_FORCE_RANK:
        raise ResourceLimitError(
            f"brute-force enumeration is guarded at rank {MAX_BRUTE_FORCE_RANK}, got {t.n}"
        )
    keys = {target: crossing_keys(t, source, target) for target in targets}
    steps = t._steps
    out: dict[int, list[TPath]] = {target: [] for target in keys}
    vertices = [source]
    labels: list[int] = []

    def extend(vertex: int, used: int, odd: bool) -> None:
        for lab, bit, nxt in steps[vertex]:
            if used & bit:
                continue
            labels.append(lab)
            vertices.append(nxt)
            if odd and nxt in keys:
                path = TPath(tuple(vertices), tuple(labels))
                if is_valid_t_path(t, source, nxt, path, keys=keys[nxt]).ok:
                    out[nxt].append(path)
            extend(nxt, used | bit, not odd)
            labels.pop()
            vertices.pop()

    extend(source, 0, True)
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
