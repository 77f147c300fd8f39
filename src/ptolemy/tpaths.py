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
``brute_force_t_path_table`` walks the edge-distinct trails from one source
and filters with the six rules, serving as its independent oracle at small
rank.  The trails from a source do not depend on the target, so one walk
serves all of the source's targets; a trail is dropped once an even-position
edge misses every target's chord (rule 5).  Each odd-length arrival at a
target whose chord those edges all cross goes to the validator's rule core
(``_broken_rule``) with that target's crossing table; the core names the
first broken rule and formats nothing, so a rejected arrival costs no
``TPath`` and no ``PathCheck``, and only an accepted one is built into a
path.  ``brute_force_t_paths`` is that walk for a single target.  Both
routes list paths in lexicographic order of their label sequences.  Each
oriented chord gets one table of crossing positions (``crossing_keys``),
kept on the triangulation, and the search, its validator calls and the
oracle all read it; both walks step along one table per triangulation
(``Triangulation._steps``).  Every path the pruned search emits is checked
against all six rules by ``is_valid_t_path``, at a cost linear in its
length, and a failure raises ``InvariantError``, under ``python -O`` as
well.  Vertex and label ranges are checked only when the
lengths mismatch or rule 1 or 2 fails (or the path is empty), since rule 2
holding implies them (see ``is_valid_t_path``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import InputError, InvariantError, ResourceLimitError
from .laurent import Monomial, packed_layout
from .polygon import Arc, Triangulation, crosses, crossing_position

# brute_force_t_paths walks edge-distinct trails; keep it to small ranks.
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

    Keyed by label; edges absent from the table do not cross the chord.  The
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
            lab: crossing_position(arc, source, target, nv)
            for lab, arc in enumerate(t.diagonal_arcs(), start=1)
            if crosses(arc, chord, nv)
        }
    return keys


# The detail of each rule's failure, filled in with what ``_broken_rule`` names.
_RULE_DETAILS = {
    1: "path must run from the source vertex to the target",
    2: "edge {} does not join {} and {}",
    3: "repeated edge label",
    4: "even length {}",
    5: "even-position edge {} does not cross the chord",
    6: "edge {} crosses out of order",
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
    and its vertices on an edge.  The rules themselves are checked by
    ``_broken_rule``, and the report is formatted here.
    """
    if keys is None:
        keys = crossing_keys(t, source, target)
    vertices, labels = candidate.vertices, candidate.labels
    if len(vertices) != len(labels) + 1:
        _require_ranges(t, candidate)
        raise InputError(
            f"{len(labels)} labels need {len(labels) + 1} vertices, got {len(vertices)}"
        )
    broken = _broken_rule(t, source, target, vertices, labels, keys)
    if broken is None:
        return _VALID
    rule, named = broken
    if rule <= 2 or not labels:
        _require_ranges(t, candidate)
    return PathCheck(False, rule, _RULE_DETAILS[rule].format(*named))


def _broken_rule(
    t: Triangulation,
    source: int,
    target: int,
    vertices: Sequence[int],
    labels: Sequence[int],
    keys: dict[int, tuple[int, int]],
) -> tuple[int, tuple] | None:
    """The first of the six rules the path breaks, with what its detail names
    (see ``_RULE_DETAILS``), or None when it keeps them all.

    There must be one more vertex than labels; nothing is range-checked and
    nothing is formatted.
    """
    if vertices[0] != source or vertices[-1] != target:
        return 1, ()
    ends = t._ends
    for lab, a, b in zip(labels, vertices, vertices[1:]):
        e = ends.get(lab)
        if e is None or (e[0] != a or e[1] != b) and (e[0] != b or e[1] != a):
            return 2, (lab, a, b)
    if len(set(labels)) != len(labels):
        return 3, ()
    if len(labels) % 2 == 0:
        return 4, (len(labels),)
    for lab in labels[1::2]:
        if lab not in keys:
            return 5, (lab,)
    last = None
    for lab in labels:
        key = keys.get(lab)
        if key is None:
            continue
        if last is not None and key <= last:
            return 6, (lab,)
        last = key
    return None


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
    """Oracle enumeration from one source: edge-distinct walks, filtered by
    the six rules, for each target at once.

    One walk from ``source`` serves every target: each odd-length arrival at
    a target is checked against the six rules with that target's own
    crossing table, by the same rule check ``is_valid_t_path`` runs, and
    becomes a ``TPath`` only when it passes.  The walk carries a mask of the
    targets whose chord every even-position edge so far crosses, read from
    the same crossing tables; it extends no trail whose mask is empty and
    checks an arrival only when its target's bit is set.  Rule 5 is closed
    under prefixes: an even-position edge that misses a target's chord keeps
    that position in every extension of the trail.  So the pruning drops no
    path that could pass, and each list, order included, is the one a walk
    over every edge-distinct trail gives.  The oracle reads nothing of the
    pruned search (``enumerate_t_paths``), neither its moves, its crossing
    ranks nor its reachability test, so agreement between the two still
    exercises that search end to end.  Guarded to small ranks; the walk
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
        for lab, bit, nxt in steps[vertex]:
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
                if _broken_rule(t, source, nxt, vertices, labels, keys[nxt]) is None:
                    out[nxt].append(TPath(tuple(vertices), tuple(labels)))
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
