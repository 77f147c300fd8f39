"""Exact cluster expansions over polygon triangulations.

Given a triangulation of a convex (n+3)-gon and any diagonal, this package
computes the diagonal's cluster variable as an exact Laurent polynomial in the
triangulation's 2n+3 edge variables, two independent ways: as a weighted sum
over admissible paths on the triangulation, and by a one-step exchange
recursion that peels off crossings.  It also builds the seed data (sign matrix
and boundary coefficient pairs), enumerates triangulations and the flip graph,
and ships exhaustive verification sweeps tying it all together.
"""

from .errors import InputError, InvariantError, ResourceLimitError
from .expansion import (
    BijectionReport,
    PartitionReport,
    check_bijections_fg,
    check_partitions,
    check_positivity,
    denominator_vector,
    expand,
    expand_trivial_coefficients,
    path_entry,
)
from .laurent import LaurentPolynomial, Monomial, TropicalMonomial
from .oracle import (
    ExchangeMatrix,
    cluster_variable_recursive,
    exchange_matrix,
    initial_coefficients,
)
from .polygon import (
    Arc,
    CrossingStep,
    FlipQuadrilateral,
    Triangulation,
    all_polygon_diagonals,
    all_triangulations,
    build_triangulation,
    crosses,
    crosses_before,
    crossing_position,
    first_crossing_step,
    flip_graph,
    snake_triangulation,
)
from .tpaths import (
    PathCheck,
    TPath,
    brute_force_t_path_table,
    brute_force_t_paths,
    enumerate_t_paths,
    is_valid_t_path,
    path_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BijectionReport",
    "CrossingStep",
    "ExchangeMatrix",
    "FlipQuadrilateral",
    "InputError",
    "InvariantError",
    "LaurentPolynomial",
    "Monomial",
    "PartitionReport",
    "PathCheck",
    "ResourceLimitError",
    "TPath",
    "Triangulation",
    "TropicalMonomial",
    "all_polygon_diagonals",
    "all_triangulations",
    "brute_force_t_path_table",
    "brute_force_t_paths",
    "build_triangulation",
    "check_bijections_fg",
    "check_partitions",
    "check_positivity",
    "cluster_variable_recursive",
    "crosses",
    "crosses_before",
    "crossing_position",
    "denominator_vector",
    "enumerate_t_paths",
    "exchange_matrix",
    "expand",
    "expand_trivial_coefficients",
    "first_crossing_step",
    "flip_graph",
    "initial_coefficients",
    "is_valid_t_path",
    "path_entry",
    "path_weight",
    "snake_triangulation",
]
