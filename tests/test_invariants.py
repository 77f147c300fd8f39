"""Fault injection at the lookup checks of polygon, oracle and expansion: each raises InvariantError, also under -O."""

import pytest

import ptolemy.oracle
from ptolemy import Arc, InvariantError, Triangulation, build_triangulation
from ptolemy.expansion import _paths_between
from ptolemy.oracle import cluster_variable_recursive, exchange_matrix
from ptolemy.polygon import first_crossing_step
from conftest import OCTAGON_DIAGONALS, run_optimized


def no_label(self, arc):
    """Stand-in label lookup that finds nothing."""
    return None


def no_step(t, chord, origin):
    """Stand-in crossing lookup that finds nothing."""
    return None


def stray_fans(self):
    """Stand-in neighbour sets: 3 joined to 4 and 8, which are not joined to
    each other, and 5 joined to 2, which no edge of the octagon joins."""
    return {3: {4, 8}, 5: {2, 4}}


# site: (owner, attribute, stand-in, call on the octagon, expected message fragment)
FAULTS = {
    "flip-apexes": (
        Triangulation,
        "_label_by_pair",
        property(lambda self: {}),
        lambda t: t.quadrilateral(1),
        "diagonal 2-4 bounds 0 triangles",
    ),
    "flip-sides": (
        Triangulation,
        "label_of",
        no_label,
        lambda t: t.quadrilateral(1),
        "of the quadrilateral at 2-4 has no label",
    ),
    "first-crossing-corners": (
        Triangulation,
        "_neighbors",
        property(stray_fans),
        lambda t: first_crossing_step(t, Arc(3, 7), 3),
        "neighbours 4 and 8 of 3 around 3-7 are not joined",
    ),
    "first-crossing-sides": (
        Triangulation,
        "_neighbors",
        property(stray_fans),
        lambda t: first_crossing_step(t, Arc(3, 5), 5),
        "before pivot 2-4 lacks a side",
    ),
    "exchange-matrix-sides": (
        Triangulation,
        "label_of",
        no_label,
        exchange_matrix,
        "of a triangle has no label",
    ),
    "recursion-step": (
        ptolemy.oracle,
        "first_crossing_step",
        no_step,
        lambda t: cluster_variable_recursive(t, Arc(3, 7)),
        "3-7 is not in the triangulation yet crosses nothing",
    ),
    "boundary-path-label": (
        Triangulation,
        "label_of",
        no_label,
        lambda t: _paths_between(t, 1, 2),
        "boundary edge 1-2 has no label",
    ),
}


def injected(site):
    """Run the site's call on the octagon with its fault in place; return the InvariantError text."""
    owner, name, stand_in, call, _ = FAULTS[site]
    saved = getattr(owner, name)
    setattr(owner, name, stand_in)
    try:
        call(build_triangulation(5, OCTAGON_DIAGONALS))
    except InvariantError as exc:
        return str(exc)
    finally:
        setattr(owner, name, saved)
    return "no InvariantError"


@pytest.mark.parametrize("site", list(FAULTS))
def test_fault_raises(monkeypatch, octagon, site):
    owner, name, stand_in, call, fragment = FAULTS[site]
    monkeypatch.setattr(owner, name, stand_in)
    with pytest.raises(InvariantError, match=fragment):
        call(octagon)


def test_faults_raise_under_optimization():
    # One interpreter for every site: each start re-imports pytest through conftest.
    out = run_optimized(
        "import test_invariants\n"
        "for site in test_invariants.FAULTS:\n"
        "    print(test_invariants.injected(site))\n"
    )
    messages = dict(zip(FAULTS, out.splitlines()))
    assert [site for site in FAULTS if FAULTS[site][4] not in messages.get(site, "")] == []
