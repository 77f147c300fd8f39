"""Independent computation route: seed data and the one-step exchange recursion.

The sign matrix records oriented triangle adjacency of the triangulation's
edges, the coefficient pairs collect its boundary rows, and
``cluster_variable_recursive`` computes a chord's Laurent polynomial without
ever enumerating paths, by peeling off one crossing at a time through the
exchange identity.  Agreement of this recursion with the path-sum expansion is
the library's central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantError
from .laurent import LaurentPolynomial, TropicalMonomial, _check_keys, packed_layout
from .polygon import Arc, Triangulation, _fan_step


@dataclass(frozen=True)
class ExchangeMatrix:
    """(2n+3) x n sign matrix of oriented triangle adjacencies."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def render(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def exchange_matrix(t: Triangulation) -> ExchangeMatrix:
    """Sign matrix of the triangulation.

    Entry (i, j) is +1 when edges i and j bound a common triangle and edge j
    immediately follows edge i on a clockwise walk around that triangle
    (vertices being numbered counterclockwise, a clockwise walk visits them in
    decreasing circular order), -1 for the reverse, 0 otherwise.  Columns only
    exist for diagonals.
    """
    n = t.n
    rows = [[0] * n for _ in range(t.n_labels)]
    def label(a: int, b: int) -> int:
        lab = t.label_of(Arc(a, b))
        if lab is None:
            raise InvariantError(f"side {Arc(a, b)} of a triangle has no label")
        return lab

    for u, v, w in t.triangles:
        # Clockwise traversal of ascending vertices u < v < w: w -> v -> u -> w.
        cw_edges = (label(w, v), label(v, u), label(u, w))
        for idx in range(3):
            i, j = cw_edges[idx], cw_edges[(idx + 1) % 3]
            if j <= n:
                rows[i - 1][j - 1] = 1
            if i <= n:
                rows[j - 1][i - 1] = -1
    return ExchangeMatrix(n, tuple(tuple(row) for row in rows))


def initial_coefficients(
    t: Triangulation,
) -> tuple[tuple[TropicalMonomial, TropicalMonomial], ...]:
    """Per-diagonal coefficient pairs read off the matrix's boundary rows.

    The j-th pair multiplies the boundary variables whose rows carry +1,
    respectively -1, in column j; an empty product is the unit monomial.
    """
    matrix = exchange_matrix(t)
    n = t.n
    pairs = []
    for j in range(1, n + 1):
        plus = [i for i in range(n + 1, t.n_labels + 1) if matrix.entry(i, j) == 1]
        minus = [i for i in range(n + 1, t.n_labels + 1) if matrix.entry(i, j) == -1]
        pairs.append(
            (TropicalMonomial.from_labels(n, plus), TropicalMonomial.from_labels(n, minus))
        )
    return tuple(pairs)


def cluster_variable_recursive(
    t: Triangulation, arc: Arc, origin: int | None = None
) -> LaurentPolynomial:
    """Laurent polynomial of any arc, by induction on its crossing count.

    An arc of the triangulation is its own variable.  Otherwise the exchange
    identity of the quadrilateral at the first crossing from ``origin``
    (default ``arc.u``; see ``CrossingStep``) gives x[arc] from the far arcs
    {corner, target}, which cross strictly fewer diagonals, so the induction
    terminates.  Every arc the call meets is thus (x, target) for some vertex
    x: at most n + 2 arcs, each stepped once from x, from the five ints of
    ``polygon._fan_step``.  A first pass orders the steps far arcs first on
    an explicit stack, one frame per arc, so the crossing count is not
    bounded by the interpreter's recursion limit; an arc met again while
    its frame is open means the steps loop, and raises ``InvariantError``.
    A second pass builds each arc's terms as a list of packed keys, one
    entry per unit of coefficient: the step only shifts and adds, so every
    coefficient is a count.  The far arcs' lists, each multiplied by the
    one-term x[side]/x[pivot] as one shift of every key, are concatenated
    and range-checked once; the division is by a single variable, hence
    exact.  An arc's list is dropped once every step that reads it has run,
    and ``LaurentPolynomial.from_keys`` counts the last one.  Nothing
    outlives the call, and apart from the chord itself the two origins of a
    chord step disjoint arcs, so comparing them tests that the result does
    not depend on ``origin``.
    """
    arc.validate(t.n_vertices)
    if origin is None:
        origin = arc.u
    elif not arc.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {arc}")
    target = arc.other_end(origin)
    nvars = t.n_labels
    zero, units = packed_layout(nvars)
    labels = t._label_by_pair

    keys: dict[int, list[int]] = {}  # x -> terms of (x, target), once known
    steps: dict[int, tuple[int, int, int, int, int]] = {}  # x -> its step, far arcs first
    open_steps: dict[int, tuple[int, int, int, int, int]] = {}  # frames on the stack
    uses: dict[int, int] = {}  # x -> steps reading (x, target)
    stack = [origin]
    while stack:
        x = stack[-1]
        step = open_steps.pop(x, None)
        if step is not None:  # both far arcs are ordered before x now
            steps[x] = step
            stack.pop()
            continue
        if x in steps or x in keys:
            stack.pop()
            continue
        label = labels.get((x, target) if x < target else (target, x))
        if label is not None:
            keys[x] = [zero + units[label]]
            stack.pop()
            continue
        step = open_steps[x] = _fan_step(t, x, target)
        for corner in step[:2]:
            if corner in open_steps:
                raise InvariantError(
                    f"the exchange steps toward {target} return to {Arc(corner, target)} "
                    "before it is resolved"
                )
            uses[corner] = uses.get(corner, 0) + 1
            stack.append(corner)

    for x, (ccw_corner, cw_corner, pivot, ccw_side, cw_side) in steps.items():
        shift = units[cw_side] - units[pivot]
        terms = [key + shift for key in keys[ccw_corner]]
        shift = units[ccw_side] - units[pivot]
        terms += [key + shift for key in keys[cw_corner]]
        _check_keys(terms, nvars)
        keys[x] = terms
        for corner in (ccw_corner, cw_corner):
            uses[corner] -= 1
            if not uses[corner]:
                del keys[corner]
    return LaurentPolynomial.from_keys(nvars, keys[origin])
