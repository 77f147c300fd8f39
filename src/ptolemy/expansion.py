"""Laurent expansion of a chord's cluster variable as a sum over paths.

``expand`` sums the weight monomials of all admissible paths between the
chord's endpoints.  The remaining functions turn the structural facts behind
that formula into executable checks: the expansion's denominators match the
crossing pattern, the paths partition by their first edge, and the two path
families are in weight-preserving bijection with the path sets of the
quadrilateral's far sides.  The checks return reports naming each offending
path so a search bug is diagnosable, not just detectable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import InputError, InvariantError
from .laurent import LaurentPolynomial, packed_layout
from .polygon import Arc, CrossingStep, Triangulation, first_crossing_step
from .tpaths import TPath, enumerate_t_paths

# The paths of one ordered pair and their packed weights, in the same order.
PathEntry = tuple[Sequence[TPath], Sequence[int]]
# {(source, target): path_entry(t, enumerate_t_paths(t, source, target))} on one t.
PathTable = Mapping[tuple[int, int], PathEntry]


def expand(
    t: Triangulation, chord: Arc, origin: int | None = None, *, paths: PathTable | None = None
) -> LaurentPolynomial:
    """Laurent polynomial of the chord in the triangulation's variables.

    ``origin`` picks which endpoint anchors the crossing order during
    enumeration; the result is independent of the choice (asserted by the
    test suite, not assumed here) and defaults to the smaller endpoint.
    A chord already in the triangulation has the one-edge path alone, so it
    is its own variable.  The weights are read from the table ``paths`` when
    given (it is never changed; see ``path_entry``); else the search
    enumerates the paths and hands back their weights.
    """
    nv = t.n_vertices
    chord.validate(nv)
    if chord.is_boundary(nv):
        raise InputError(f"{chord} is a boundary edge; only diagonals have expansions")
    if origin is None:
        origin = chord.u
    elif not chord.is_incident(origin):
        raise InputError(f"{origin} is not an endpoint of {chord}")
    nvars = t.n_labels
    target = chord.other_end(origin)
    if paths is None:
        keys: list[int] = []
        enumerate_t_paths(t, origin, target, weights=keys)
    else:
        keys = _table_entry(paths, origin, target)[1]
    return LaurentPolynomial.from_keys(nvars, keys)


def path_entry(t: Triangulation, paths: Sequence[TPath]) -> PathEntry:
    """A path-table entry: paths on ``t`` and their packed weights in its variables.

    A label outside 1..2n+3 raises ``InputError``.
    """
    return paths, _weight_keys(paths, t.n_labels)


def _table_entry(paths: PathTable, source: int, target: int) -> PathEntry:
    try:
        return paths[source, target]
    except KeyError:
        raise InputError(f"the path table has no entry for {source}->{target}") from None


def _weight_keys(paths: Sequence[TPath], nvars: int) -> list[int]:
    """Packed weight of each path: odd-position labels up, even-position labels down."""
    zero, units = packed_layout(nvars)
    unit = units.__getitem__
    try:
        return [
            zero + sum(map(unit, p.labels[::2])) - sum(map(unit, p.labels[1::2]))
            for p in paths
        ]
    except KeyError as exc:
        raise InputError(f"label {exc.args[0]} out of range 1..{nvars}") from None


def expand_trivial_coefficients(
    t: Triangulation, chord: Arc, origin: int | None = None
) -> LaurentPolynomial:
    """Expansion with every boundary variable set to 1, terms merged."""
    full = expand(t, chord, origin)
    return full.substitute_ones(range(t.n + 1, t.n_labels + 1))


def check_positivity(poly: LaurentPolynomial) -> bool:
    """True when every stored coefficient equals 1 (read unsorted)."""
    return all(coeff == 1 for coeff in poly._terms.values())


def denominator_vector(
    t: Triangulation, chord: Arc, *, poly: LaurentPolynomial | None = None
) -> tuple[int, ...]:
    """Per-variable denominator exponents of the chord's expansion.

    Entry i is the largest power of 1/x_i appearing in any term (0 when x_i
    never appears inverted), read in one pass over the terms.  The result
    must coincide with the indicator of which diagonals cross the chord, with
    every boundary entry zero; a mismatch means the enumeration itself is
    broken and raises ``InvariantError``.  ``poly`` is the chord's expansion
    when the caller already has it (it is never changed); without it the
    chord is expanded here.
    """
    if poly is None:
        poly = expand(t, chord)
    elif poly.nvars != t.n_labels:
        raise InputError(f"expansion has {poly.nvars} variables, expected {t.n_labels}")
    vec = tuple(max(0, -low) for low in poly._min_exponents())
    crossing = set(t.crossing_labels(chord))
    expected = tuple(1 if i in crossing else 0 for i in range(1, t.n_labels + 1))
    if vec != expected:
        raise InvariantError(f"denominators {vec} disagree with crossings {expected}")
    return vec


def _paths_between(
    t: Triangulation, source: int, target: int, *, paths: PathTable | None = None
) -> PathEntry:
    """Paths between any two distinct vertices and their weights, read from
    ``paths`` when given.

    Adjacent vertices get the single one-edge path along their boundary edge,
    which is what the one-step exchange identity needs for its far sides; a
    table holds diagonals only.
    """
    nv = t.n_vertices
    if (target - source) % nv in (1, nv - 1):  # Arc.is_boundary, without building the arc
        boundary = Arc(source, target)
        label = t.label_of(boundary)
        if label is None:
            raise InvariantError(f"boundary edge {boundary} has no label")
        zero, units = packed_layout(t.n_labels)
        return [TPath((source, target), (label,))], [zero + units[label]]
    if paths is None:
        return path_entry(t, enumerate_t_paths(t, source, target))
    return _table_entry(paths, source, target)


def _step_or_raise(
    t: Triangulation, source: int, target: int, step: CrossingStep | None
) -> CrossingStep:
    """``step`` when given, else the crossing step read off the triangulation."""
    if step is not None:
        return step
    step = first_crossing_step(t, Arc(source, target), source)
    if step is None:
        raise InputError(
            f"{Arc(source, target)} belongs to the triangulation; nothing to decompose"
        )
    return step


@dataclass
class PartitionReport:
    """Outcome of the first-edge partition check."""

    ok: bool
    pivot: int
    first_edges: tuple[int, int]
    total: int
    by_first: dict[int, int]
    failures: list[str] = field(default_factory=list)


def check_partitions(
    t: Triangulation,
    source: int,
    target: int,
    *,
    paths: PathTable | None = None,
    step: CrossingStep | None = None,
) -> PartitionReport:
    """Every path starts with one of the two triangle sides at the source, and
    each family splits by whether the pivot comes second or never appears.
    ``paths`` is as for ``expand``.  ``step`` is the chord's
    ``first_crossing_step`` from ``source`` when the caller has it; it is
    trusted as given, and without it the step is read here."""
    step = _step_or_raise(t, source, target, step)
    found = _paths_between(t, source, target, paths=paths)[0]
    first_edges = (step.cw_side, step.ccw_side)
    by_first = {step.cw_side: 0, step.ccw_side: 0}
    failures = []
    for path in found:
        first = path.labels[0]
        if first not in by_first:
            failures.append(f"{path} starts with edge {first}, not one of {first_edges}")
            continue
        by_first[first] += 1
        second_is_pivot = path.length > 1 and path.labels[1] == step.pivot
        pivot_free = step.pivot not in path.labels
        if second_is_pivot == pivot_free:
            failures.append(
                f"{path} neither has the pivot {step.pivot} second nor avoids it"
            )
    return PartitionReport(
        ok=not failures,
        pivot=step.pivot,
        first_edges=first_edges,
        total=len(found),
        by_first=by_first,
        failures=failures,
    )


@dataclass
class BijectionReport:
    """Outcome of the start-edge bijection and weight-transfer check."""

    ok: bool
    pivot: int
    counts: dict[str, int]
    failures: list[str] = field(default_factory=list)


def check_bijections_fg(
    t: Triangulation,
    source: int,
    target: int,
    *,
    paths: PathTable | None = None,
    step: CrossingStep | None = None,
) -> BijectionReport:
    """Verify the two weight-preserving bijections behind the one-step recursion.

    Paths from a quadrilateral corner to the target map into the family of
    source paths starting with that corner's opposite side: replace a leading
    pivot edge by the side (when the path starts with the pivot), or prepend
    the side followed by the pivot (when the path avoids the pivot).  Images
    must land in the claimed subfamilies, be distinct, jointly exhaust the
    family, and scale each weight by side/pivot; the two sides together must
    also account for every source path and for the summed polynomials.
    ``paths`` is as for ``expand``; the corner path sets and their weights
    are read from it too.  ``step`` is as for ``check_partitions``.
    """
    step = _step_or_raise(t, source, target, step)
    pivot = step.pivot
    _, units = packed_layout(t.n_labels)
    found, found_weights = _paths_between(t, source, target, paths=paths)
    weight = dict(zip(found, found_weights))
    failures: list[str] = []
    counts: dict[str, int] = {"total": len(found)}
    corner_total = 0

    sides = (
        # (corner the far paths start from, first edge of the image family,
        #  vertex the rewritten paths step to first)
        (step.ccw_corner, step.cw_side, step.cw_corner),
        (step.cw_corner, step.ccw_side, step.ccw_corner),
    )
    for corner, side, via in sides:
        corner_paths, corner_weights = _paths_between(t, corner, target, paths=paths)
        corner_total += len(corner_paths)
        family = {p for p in found if p.labels[0] == side}
        family_weights = [w for p, w in zip(found, found_weights) if p.labels[0] == side]
        counts[f"family_{side}"] = len(family_weights)
        counts[f"corner_{corner}"] = len(corner_paths)
        ratio = units[side] - units[pivot]
        transported_weights = [w + ratio for w in corner_weights]
        images = []
        for gamma, transported_weight in zip(corner_paths, transported_weights):
            if gamma.labels[0] == pivot:
                vertices, labels = (source,) + gamma.vertices[1:], (side,) + gamma.labels[1:]
                expected_family = "pivot-free"
                in_family = pivot not in labels
            elif pivot not in gamma.labels:
                vertices, labels = (source, via) + gamma.vertices, (side, pivot) + gamma.labels
                expected_family = "pivot-second"
                in_family = len(labels) > 1 and labels[1] == pivot
            else:
                failures.append(
                    f"{gamma} from corner {corner} contains the pivot {pivot} after its first edge"
                )
                continue
            image = TPath(vertices, labels)
            image_weight = weight.get(image)
            if image_weight is None:
                failures.append(f"image {image} of {gamma} is not an admissible path")
                continue
            if not in_family:
                failures.append(f"image {image} of {gamma} missed the {expected_family} family")
            if image_weight != transported_weight:
                failures.append(f"weight of {image} is not weight({gamma})*x{side}/x{pivot}")
            images.append(image)
        distinct = set(images)
        if len(distinct) != len(images):
            failures.append(f"images from corner {corner} collide")
        if distinct != family:
            failures.append(
                f"images from corner {corner} do not exhaust the paths starting with {side}"
            )
        # Equal sums of unit monomials: the same keys, each as often.
        if sorted(transported_weights) != sorted(family_weights):
            failures.append(f"summed weights from corner {corner} mismatch family {side}")

    if corner_total != len(found):
        failures.append(
            f"corner path counts {corner_total} do not add up to {len(found)}"
        )
    return BijectionReport(ok=not failures, pivot=pivot, counts=counts, failures=failures)
