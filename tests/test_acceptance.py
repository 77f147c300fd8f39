"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The sweeps here are exhaustive over every triangulation of
each polygon up to the stated rank; nothing is sampled.
"""

import json
import time

import pytest

from ptolemy import (
    Arc,
    LaurentPolynomial,
    all_polygon_diagonals,
    all_triangulations,
    build_triangulation,
    brute_force_t_paths,
    check_bijections_fg,
    check_partitions,
    check_positivity,
    cluster_variable_recursive,
    enumerate_t_paths,
    exchange_matrix,
    expand,
    expand_trivial_coefficients,
    flip_graph,
    initial_coefficients,
    snake_triangulation,
)
from ptolemy.cli import main
from conftest import (
    OCTAGON_DIAGONALS,
    OCTAGON_PATHS,
    OCTAGON_TERMS,
    OCTAGON_TRIVIAL_TERMS,
    ZIGZAG3_COEFFICIENTS,
    ZIGZAG3_MATRIX,
    poly_from_sparse,
)

OCTAGON_ARGS = ["--n", "5", "--diagonals", "2-4,4-6,2-6,2-8,6-8", "--target", "3-7"]


def _octagon():
    return build_triangulation(5, OCTAGON_DIAGONALS)


def test_criterion_1_worked_example_via_cli(capsys):
    started = time.perf_counter()
    code = main(["expand", *OCTAGON_ARGS, "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["format_version"] == 1
    poly = LaurentPolynomial.from_term_list(13, payload["terms"])
    assert poly == poly_from_sparse(13, OCTAGON_TERMS)
    assert poly.coefficients() == [1, 1, 1, 1, 1]

    code = main(["paths", *OCTAGON_ARGS])
    out = capsys.readouterr().out
    assert code == 0
    listed = set(out.splitlines())
    expected = {
        "(" + ",".join(map(str, verts)) + " | " + ",".join(map(str, labs)) + ")"
        for verts, labs in OCTAGON_PATHS
    }
    assert listed == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: worked octagon example, 5 terms and 5 paths ({elapsed:.3f}s)")


def test_criterion_2_initial_seed_data(capsys):
    started = time.perf_counter()
    zigzag = snake_triangulation(3)
    assert exchange_matrix(zigzag).rows == ZIGZAG3_MATRIX
    pairs = initial_coefficients(zigzag)
    assert [(p.render(), m.render()) for p, m in pairs] == ZIGZAG3_COEFFICIENTS

    code = main(["matrix", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:9] == [" ".join(str(e) for e in row) for row in ZIGZAG3_MATRIX]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: rank-3 seed matrix and coefficient pairs ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def oriented_sweep():
    """Every (triangulation, diagonal, orientation) instance for ranks 1..5."""
    instances = []
    for n in range(1, 6):
        triangulations = all_triangulations(n)
        diagonals = all_polygon_diagonals(n)
        for t in triangulations:
            for chord in diagonals:
                instances.append((n, t, chord))
    return instances


def test_criterion_3_expansion_equals_recursion(oriented_sweep):
    started = time.perf_counter()
    checked = 0
    for _, t, chord in oriented_sweep:
        reference = expand(t, chord, chord.u)
        for poly in (
            expand(t, chord, chord.v),
            cluster_variable_recursive(t, chord, chord.u),
            cluster_variable_recursive(t, chord, chord.v),
        ):
            assert poly == reference, f"{chord} in {t.diagonal_key()}"
        checked += 2
    elapsed = time.perf_counter() - started
    assert checked == 2 * (2 * 2 + 5 * 5 + 14 * 9 + 42 * 14 + 132 * 20)
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 3 PASS: expansion == recursion on {checked} oriented instances, "
        f"ranks 1..5 ({elapsed:.1f}s)"
    )


def test_criterion_4_positivity_and_denominators(oriented_sweep):
    started = time.perf_counter()
    checked = 0
    for n, t, chord in oriented_sweep:
        poly = expand(t, chord)
        assert check_positivity(poly), f"{chord} in {t.diagonal_key()}"
        if not t.contains(chord):
            paths = enumerate_t_paths(t, chord.u, chord.v)
            assert len(poly) == len(paths), "path weights must be pairwise distinct"
        crossing = set(t.crossing_labels(chord))
        nvars = 2 * n + 3
        vec = tuple(max(0, -poly.min_exponent(i)) for i in range(1, nvars + 1))
        assert vec == tuple(1 if i in crossing else 0 for i in range(1, nvars + 1))
        assert all(e == 0 for e in vec[n:]), "boundary variables never appear inverted"
        checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 4 PASS: unit coefficients, distinct monomials and crossing "
        f"denominators on {checked} instances ({elapsed:.1f}s)"
    )


def test_criterion_5_enumeration_matches_brute_force():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for t in all_triangulations(n):
            for chord in all_polygon_diagonals(n):
                for origin in chord.endpoints():
                    target = chord.other_end(origin)
                    pruned = enumerate_t_paths(t, origin, target)
                    reference = brute_force_t_paths(t, origin, target)
                    assert set(pruned) == set(reference), (
                        f"{origin}->{target} in {t.diagonal_key()}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 2 * (2 * 2 + 5 * 5 + 14 * 9 + 42 * 14)
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5 PASS: pruned enumeration == brute force on {checked} "
        f"oriented instances, ranks 1..4 ({elapsed:.1f}s)"
    )


def test_criterion_6_partition_and_bijection_checks():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for t in all_triangulations(n):
            for chord in all_polygon_diagonals(n):
                if t.contains(chord):
                    continue
                for origin in chord.endpoints():
                    target = chord.other_end(origin)
                    partition = check_partitions(t, origin, target)
                    assert partition.ok, partition.failures
                    bijection = check_bijections_fg(t, origin, target)
                    assert bijection.ok, bijection.failures
                    checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 6 PASS: first-edge partition and start-edge bijections on "
        f"{checked} oriented instances, ranks 1..4 ({elapsed:.1f}s)"
    )


def test_criterion_7_counts_and_flip_graph():
    started = time.perf_counter()
    counts = [len(all_triangulations(n)) for n in range(1, 7)]
    assert counts == [2, 5, 14, 42, 132, 429]
    nodes, edges = flip_graph(2)
    assert len(nodes) == 5 and len(edges) == 5
    degree = {i: 0 for i in range(5)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert all(d == 2 for d in degree.values())
    # a connected graph on 5 nodes with 5 edges, all degrees 2, is the 5-cycle
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for i, j in edges:
            for other, here in ((i, j), (j, i)):
                if here == node and other not in reached:
                    reached.add(other)
                    frontier.append(other)
    assert reached == set(range(5))
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 7 PASS: triangulation counts {counts} and pentagon flip "
        f"5-cycle ({elapsed:.1f}s)"
    )


def _substituted_reference(poly, n):
    """Independent boundary substitution: zero the boundary exponents, merge."""
    merged = {}
    for exps, coeff in poly.terms():
        key = exps[:n] + (0,) * (len(exps) - n)
        merged[key] = merged.get(key, 0) + coeff
    return LaurentPolynomial(poly.nvars, merged)


def test_criterion_8_trivial_coefficient_specialization():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for t in all_triangulations(n):
            for chord in all_polygon_diagonals(n):
                specialized = expand_trivial_coefficients(t, chord)
                assert specialized == _substituted_reference(expand(t, chord), n)
                checked += 1
    # substitution (not re-enumeration) shows up as a merged coefficient where
    # two full terms differ only in boundary variables: the square's diagonal
    square = build_triangulation(1, [(1, 3)])
    merged = expand_trivial_coefficients(square, Arc(2, 4))
    assert merged.coefficients() == [2]
    # on the worked octagon example nothing merges: five distinct unit terms
    octagon_trivial = expand_trivial_coefficients(_octagon(), Arc(3, 7))
    assert octagon_trivial == poly_from_sparse(13, OCTAGON_TRIVIAL_TERMS)
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 8 PASS: boundary substitution verified on {checked} instances, "
        f"merged coefficient 2 exhibited on the square ({elapsed:.1f}s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "substituting 1 for the eight boundary variables of the worked octagon "
        "instance leaves five pairwise-distinct monomials (x2 and x4 are cluster "
        "variables, not boundary coefficients), so no coefficient can merge to 2 "
        "there; the merge phenomenon is genuine on the square instance instead"
    ),
)
def test_criterion_8_octagon_merged_coefficient_claim():
    octagon_trivial = expand_trivial_coefficients(_octagon(), Arc(3, 7))
    assert 2 in octagon_trivial.coefficients()
