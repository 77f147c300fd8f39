"""Per-module tracing of the package from outside it.

``Tracer.installed`` wraps the package's public functions and a few methods
by rebinding each one in every module namespace that holds it (the package's
``__init__`` included), and puts the originals back on exit.  Nothing in the
package changes, and an untraced run installs nothing.

Two kinds of wrapper:

* span functions (layer entries such as ``expand`` or ``run_checks``) record
  one span each: name, module, start, end and the enclosing span;
* aggregate functions (hot predicates such as ``crosses`` or
  ``Arc.validate``, and Laurent arithmetic) keep only a call count and
  inclusive time, plus their self time per module.

``self_times`` turns the spans into each module's self time: a span's
duration less the time its child spans cover and the time spent in
aggregate calls made directly under it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

PACKAGE = "ptolemy"
MODULES = ("polygon", "tpaths", "laurent", "expansion", "oracle", "verify", "cli")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    module: str
    start: float
    end: float
    # Inclusive time of the aggregate calls made directly under this span.
    aggregate: float = 0.0


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid: int | None) -> None:
        self.sid = sid  # None for an aggregate call
        self.child = 0.0


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[Span], aggregate_self: dict[str, float] | None = None) -> dict[str, float]:
    """Self time per module: span time not covered by child spans or aggregate calls."""
    spans = list(spans)
    out: dict[str, float] = defaultdict(float, aggregate_self or {})
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for s in spans:
        covered = _covered(children[s.sid], s.start, s.end)
        out[s.module] += (s.end - s.start) - covered - s.aggregate
    return dict(out)


# After-call hooks: (tracer, args, result, state) -> None, where state is what
# the matching before-hook returned.  Both are optional.
Hook = Callable[["Tracer", tuple, object, object], None]


@dataclass(frozen=True)
class Target:
    """A function or method to wrap, named '<module>.<function>' or '<module>.<Class>.<method>'."""

    path: str
    span: bool = False
    before: Callable[["Tracer", tuple], object] | None = None
    after: Hook | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.aggregate_self: dict[str, float] = defaultdict(float)
        self._frames: list[_Frame] = [_Frame(None)]
        self._next_sid = 0

    def _wrap(self, fn: Callable, name: str, module: str, target: Target) -> Callable:
        clock = time.perf_counter
        frames = self._frames
        calls = self.calls
        seconds = self.seconds
        aggregate_self = self.aggregate_self
        before, after = target.before, target.after

        if target.span:
            spans = self.spans

            def span_wrapper(*args, **kwargs):
                parent = frames[-1].sid  # only spans and the root are open here
                sid = self._next_sid
                self._next_sid += 1
                frame = _Frame(sid)
                state = before(self, args) if before else None
                frames.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    frames.pop()
                    spans.append(Span(sid, parent, name, module, start, end, frame.child))
                    calls[name] += 1
                    seconds[name] += end - start
                if after:
                    after(self, args, result, state)
                return result

            return span_wrapper

        def aggregate_wrapper(*args, **kwargs):
            frame = _Frame(None)
            state = before(self, args) if before else None
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1].child += elapsed
                aggregate_self[module] += elapsed - frame.child
                calls[name] += 1
                seconds[name] += elapsed
            if after:
                after(self, args, result, state)
            return result

        return aggregate_wrapper

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Rebind every target in every package namespace; restore on exit."""
        for name in MODULES:
            importlib.import_module(f"{PACKAGE}.{name}")
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        undo: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                module_name, *rest = target.path.split(".")
                owner = sys.modules[f"{PACKAGE}.{module_name}"]
                for part in rest[:-1]:
                    owner = getattr(owner, part)
                attr = rest[-1]
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(fn, target.path, module_name, target)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, target.path, module_name, target)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def module_self_times(self) -> dict[str, float]:
        return self_times(self.spans, self.aggregate_self)


# --- the package's layers -----------------------------------------------------


def _count_after(counter: str, measure: Callable[[tuple, object], int]) -> Hook:
    def after(tracer: Tracer, args: tuple, result: object, state: object) -> None:
        tracer.counts[counter] += measure(args, result)

    return after


def _calls_of(name: str) -> Callable[[Tracer, tuple], int]:
    return lambda tracer, args: tracer.calls[name]


def _brute_force_after(tracer: Tracer, args: tuple, result: object, before: object) -> None:
    tracer.counts["tpaths.brute_force.accepted"] += len(result)
    tracer.counts["tpaths.brute_force.validated"] += tracer.calls["tpaths.is_valid_t_path"] - before


def _recursion_after(tracer: Tracer, args: tuple, result: object, before: object) -> None:
    steps = tracer.calls["polygon.first_crossing_step"] - before
    tracer.counts["oracle.arcs_resolved"] += steps


_LAURENT = "laurent.LaurentPolynomial."
_TRIANGULATION = "polygon.Triangulation."

# Layer entries get spans; hot predicates and arithmetic get aggregates.  No
# span function is reachable from an aggregate one in this package, and the
# span tree's self times rely on that.
TARGETS = (
    Target("polygon.Arc.validate"),
    Target("polygon.crosses"),
    Target("polygon.crossing_position"),
    Target("polygon.crosses_before"),
    Target("polygon.first_crossing_step"),
    Target("polygon.build_triangulation"),
    Target("polygon.snake_triangulation"),
    Target("polygon.all_polygon_diagonals"),
    Target(_TRIANGULATION + "__post_init__"),
    Target(_TRIANGULATION + "flip"),
    Target(_TRIANGULATION + "quadrilateral"),
    Target(_TRIANGULATION + "incident_labels"),
    Target(_TRIANGULATION + "crossing_labels"),
    Target(_TRIANGULATION + "crossing_labels_from"),
    Target("polygon.flip_graph", span=True),
    Target("polygon.all_triangulations", span=True),
    Target("tpaths.is_valid_t_path"),
    Target("tpaths.path_weight"),
    Target(
        "tpaths.enumerate_t_paths",
        span=True,
        after=_count_after("tpaths.enumerate.paths", lambda args, result: len(result)),
    ),
    Target(
        "tpaths.brute_force_t_paths",
        span=True,
        before=_calls_of("tpaths.is_valid_t_path"),
        after=_brute_force_after,
    ),
    Target("laurent.Monomial.__post_init__"),
    Target(
        _LAURENT + "__init__",
        after=_count_after("laurent.construct.terms", lambda args, result: len(args[0])),
    ),
    Target(_LAURENT + "variable"),
    Target(_LAURENT + "from_monomials"),
    Target(_LAURENT + "__add__"),
    Target(
        _LAURENT + "__mul__",
        after=_count_after("laurent.mul.term_pairs", lambda args, result: len(args[0]) * len(args[1])),
    ),
    Target(_LAURENT + "__eq__"),
    Target(_LAURENT + "coefficients"),
    Target(_LAURENT + "min_exponent"),
    Target(_LAURENT + "divide_by_variable"),
    Target(_LAURENT + "substitute_ones"),
    Target(_LAURENT + "to_term_list"),
    Target(
        _LAURENT + "render",
        after=_count_after("laurent.render.bytes", lambda args, result: len(result)),
    ),
    Target("expansion.expand", span=True),
    Target("expansion.expand_trivial_coefficients", span=True),
    Target("expansion.check_positivity"),
    Target("expansion.denominator_vector", span=True),
    Target("expansion.check_partitions", span=True),
    Target("expansion.check_bijections_fg", span=True),
    Target(
        "oracle.cluster_variable_recursive",
        span=True,
        before=_calls_of("polygon.first_crossing_step"),
        after=_recursion_after,
    ),
    Target("oracle.exchange_matrix", span=True),
    Target("oracle.initial_coefficients", span=True),
    Target(
        "verify.run_checks",
        span=True,
        after=_count_after("verify.instances", lambda args, result: sum(r.instances for r in result)),
    ),
    Target("verify.render_report"),
    Target("cli.main", span=True),
)

# Per-layer time metrics: share of the traced run's operation time spent
# inside the named function, children included.
INCLUSIVE_SHARES = {
    "tpaths.is_valid.pct": "tpaths.is_valid_t_path",
    "tpaths.brute_force.pct": "tpaths.brute_force_t_paths",
    "polygon.triangulation_init.pct": _TRIANGULATION + "__post_init__",
    "polygon.flip_graph.pct": "polygon.flip_graph",
    "laurent.mul.pct": _LAURENT + "__mul__",
    "laurent.render.pct": _LAURENT + "render",
    "expansion.expand.pct": "expansion.expand",
    "expansion.check_partitions.pct": "expansion.check_partitions",
    "expansion.check_bijections.pct": "expansion.check_bijections_fg",
    "expansion.denominator_vector.pct": "expansion.denominator_vector",
    "cli.main.pct": "cli.main",
}

CALL_COUNTS = {
    "tpaths.is_valid.calls": "tpaths.is_valid_t_path",
    "tpaths.enumerate.calls": "tpaths.enumerate_t_paths",
    "polygon.arc_validate.calls": "polygon.Arc.validate",
    "polygon.crosses.calls": "polygon.crosses",
    "polygon.crossing_position.calls": "polygon.crossing_position",
    "polygon.first_crossing_step.calls": "polygon.first_crossing_step",
    "polygon.triangulation_init.calls": _TRIANGULATION + "__post_init__",
    "polygon.flip.calls": _TRIANGULATION + "flip",
    "laurent.mul.calls": _LAURENT + "__mul__",
    "laurent.eq.calls": _LAURENT + "__eq__",
    "oracle.recursive.calls": "oracle.cluster_variable_recursive",
}

COUNTERS = (
    "tpaths.enumerate.paths",
    "laurent.mul.term_pairs",
    "laurent.render.bytes",
    "laurent.construct.terms",
    "verify.instances",
    "cli.stdout_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``ops`` is the workload's operation count in the traced pass, and the two
    times are the summed operation times of the traced and untraced passes.
    """
    out: dict[str, tuple[float, str]] = {}
    for metric, name in CALL_COUNTS.items():
        out[metric] = (tracer.calls[name], "count")
    for counter in COUNTERS:
        out[counter] = (tracer.counts[counter], "count")
    out["tpaths.enumerate.per_instance"] = (
        _ratio(tracer.calls["tpaths.enumerate_t_paths"], ops),
        "1/op",
    )
    out["tpaths.brute_force.accept_ratio"] = (
        _ratio(
            tracer.counts["tpaths.brute_force.accepted"],
            tracer.counts["tpaths.brute_force.validated"],
        ),
        "ratio",
    )
    out["oracle.arcs_resolved.per_call"] = (
        _ratio(tracer.counts["oracle.arcs_resolved"], tracer.calls["oracle.cluster_variable_recursive"]),
        "1/call",
    )
    for metric, name in INCLUSIVE_SHARES.items():
        out[metric] = (100.0 * _ratio(tracer.seconds[name], traced_s), "%")
    self_s = tracer.module_self_times()
    for module in MODULES:
        out[f"{module}.self_pct"] = (100.0 * _ratio(self_s.get(module, 0.0), traced_s), "%")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out
