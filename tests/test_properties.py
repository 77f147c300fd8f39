"""Randomized agreement checks at ranks beyond the exhaustive sweeps.

Triangulations come from random flip walks out of the snake; the chord's term
count is checked against the Conway-Coxeter frieze, computed here from the
quiddity sequence without calling the package.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ptolemy import (
    all_polygon_diagonals,
    cluster_variable_recursive,
    enumerate_t_paths,
    expand,
    snake_triangulation,
)


@st.composite
def walked_chords(draw):
    """A rank 6..12 triangulation reached by flips from the snake, and one of
    the n chords crossing the most diagonals (most chords cross one or two)."""
    n = draw(st.integers(min_value=6, max_value=12))
    t = snake_triangulation(n)
    for k in draw(st.lists(st.integers(min_value=1, max_value=n), max_size=3 * n)):
        t = t.flip(k)
    deepest = sorted(all_polygon_diagonals(n), key=lambda c: -len(t.crossing_labels(c)))
    chord = draw(st.sampled_from(deepest[:n]))
    return t, chord


def frieze_entry(n, diagonals, i, j):
    """m(i, j) by m(i, k+1) = a_k m(i, k) - m(i, k-1), walking k counterclockwise
    from m(i, i) = 0, m(i, i+1) = 1; a_k is the number of triangles at vertex k."""
    nv = n + 3
    quiddity = [1] * (nv + 1)
    for u, v in diagonals:
        quiddity[u] += 1
        quiddity[v] += 1
    prev, cur = 0, 1
    k = i % nv + 1
    while k != j:
        prev, cur = cur, quiddity[k] * cur - prev
        k = k % nv + 1
    return cur


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(walked_chords())
def test_recursion_matches_expansion_and_frieze(case):
    t, chord = case
    poly = expand(t, chord)
    assert cluster_variable_recursive(t, chord, chord.u) == poly
    assert cluster_variable_recursive(t, chord, chord.v) == poly
    assert all(coeff == 1 for coeff in poly.coefficients())
    diagonals = [(arc.u, arc.v) for arc in t.edges[: t.n]]
    terms = frieze_entry(t.n, diagonals, chord.u, chord.v)
    assert len(poly) == terms
    # The walk from the other end, with its own pruning, finds as many paths.
    assert len(enumerate_t_paths(t, chord.v, chord.u)) == terms
