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
from .laurent import LaurentPolynomial, TropicalMonomial, packed_layout
from .polygon import Arc, Triangulation, first_crossing_step


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

    An arc of the triangulation is its own variable.  Otherwise the
    quadrilateral at the first crossing from ``origin`` yields

        x[arc] = (x[cw_side] * x[ccw_far] + x[ccw_side] * x[cw_far]) / x[pivot]

    where both far arcs cross strictly fewer diagonals, so the recursion
    terminates.  Each far arc's polynomial is multiplied by the one-term
    x[side]/x[pivot] as one shift of its keys (``_shifted``, the path a
    product with a one-term operand takes), so each term is shifted once and
    no ratio or product is built; the division is by a single variable,
    hence exact.  Each step comes from ``first_crossing_step``, one call per
    arc not in the triangulation.  Results are memoized by the arc's vertex
    pair, confined to this call.
    ``origin`` orients only the top step (recursive steps orient
    canonically); the result does not depend on it, which the test suite
    asserts.
    """
    nv = t.n_vertices
    arc.validate(nv)
    if origin is not None and not arc.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {arc}")
    nvars = t.n_labels
    _, units = packed_layout(nvars)
    labels = t._label_by_pair
    memo: dict[tuple[int, int], LaurentPolynomial] = {}

    def resolve(current: Arc, anchor: int) -> LaurentPolynomial:
        pair = (current.u, current.v)
        cached = memo.get(pair)
        if cached is not None:
            return cached
        label = labels.get(pair)
        if label is not None:
            poly = LaurentPolynomial.variable(label, nvars)
        else:
            step = first_crossing_step(t, current, anchor)
            if step is None:
                raise InvariantError(f"{current} is not in the triangulation yet crosses nothing")
            pivot = units[step.pivot]
            ccw = resolve(step.ccw_far, step.ccw_far.u)._shifted(units[step.cw_side] - pivot, 1)
            cw = resolve(step.cw_far, step.cw_far.u)._shifted(units[step.ccw_side] - pivot, 1)
            poly = ccw + cw
        memo[pair] = poly
        return poly

    poly = resolve(arc, origin if origin is not None else arc.u)
    del resolve  # it calls itself; the cycle would keep the memo alive until collected
    return poly
