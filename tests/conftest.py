"""Shared fixtures and frozen golden data for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptolemy
from ptolemy import LaurentPolynomial, build_triangulation

# The worked octagon instance used throughout: rank 5, five labeled diagonals,
# expansion target 3-7 anchored at vertex 3.
OCTAGON_DIAGONALS = [(2, 4), (4, 6), (2, 6), (2, 8), (6, 8)]
OCTAGON_TARGET = (3, 7)

# Its five admissible paths, in lexicographic label order.
OCTAGON_PATHS = [
    ((3, 2, 4, 6, 2, 8, 6, 7), (7, 1, 2, 3, 4, 5, 11)),
    ((3, 2, 4, 6, 8, 7), (7, 1, 2, 5, 12)),
    ((3, 2, 6, 7), (7, 3, 11)),
    ((3, 4, 2, 6, 8, 7), (8, 1, 3, 5, 12)),
    ((3, 4, 2, 8, 6, 7), (8, 1, 4, 5, 11)),
]

# The expansion's five terms, as sparse {variable: exponent} maps, coefficient 1.
OCTAGON_TERMS = [
    {7: 1, 11: 1, 3: -1},
    {7: 1, 2: 1, 12: 1, 1: -1, 5: -1},
    {8: 1, 4: 1, 11: 1, 1: -1, 5: -1},
    {8: 1, 3: 1, 12: 1, 1: -1, 5: -1},
    {7: 1, 2: 1, 4: 1, 11: 1, 1: -1, 3: -1, 5: -1},
]

# After substituting 1 for the boundary variables x6..x13: still five distinct
# unit-coefficient terms (nothing merges on this instance).
OCTAGON_TRIVIAL_TERMS = [
    {3: -1},
    {2: 1, 1: -1, 5: -1},
    {4: 1, 1: -1, 5: -1},
    {3: 1, 1: -1, 5: -1},
    {2: 1, 4: 1, 1: -1, 3: -1, 5: -1},
]

OCTAGON_EXPANSION_TEXT = (
    "x4*x8*x11*x1^-1*x5^-1 + x3*x8*x12*x1^-1*x5^-1 + "
    "x2*x4*x7*x11*x1^-1*x3^-1*x5^-1 + x2*x7*x12*x1^-1*x5^-1 + x7*x11*x3^-1"
)

# The rank-3 zigzag seed: 9x3 sign matrix and the three coefficient pairs.
ZIGZAG3_MATRIX = (
    (0, -1, 0),
    (1, 0, 1),
    (0, -1, 0),
    (-1, 1, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, -1),
    (0, 0, 1),
    (0, 0, -1),
)
ZIGZAG3_COEFFICIENTS = [("x5", "x4*x6"), ("x4*x7", "1"), ("x8", "x7*x9")]


def exponents(nvars, powers):
    """Dense exponent tuple from a sparse {variable: exponent} map."""
    exps = [0] * nvars
    for index, e in powers.items():
        exps[index - 1] = e
    return tuple(exps)


def poly_from_sparse(nvars, sparse_terms):
    """Polynomial with coefficient 1 on each of the given sparse exponent maps."""
    return LaurentPolynomial(nvars, ((exponents(nvars, powers), 1) for powers in sparse_terms))


@pytest.fixture
def octagon():
    return build_triangulation(5, OCTAGON_DIAGONALS)


@pytest.fixture
def square():
    return build_triangulation(1, [(1, 3)])


def run_optimized(code):
    """Run code under ``python -O``, with the package and the tests importable; return stdout."""
    src = Path(ptolemy.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    guard = "import sys\nif not sys.flags.optimize:\n    sys.exit('asserts are enabled')\n"
    result = subprocess.run(
        [sys.executable, "-O", "-c", guard + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout
