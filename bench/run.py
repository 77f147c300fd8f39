#!/usr/bin/env python3
"""Closed-loop benchmark of the ptolemy package, run from a source checkout.

    python3 bench/run.py --workload deep-chords --seed 1 --seconds 30 --trace 0

One process, one client, no threads: each call starts when the previous one
returns.  Workloads:

* ``deep-chords``: one long chord per seeded triangulation of rank 12-18,
  half a few flips from the zigzag triangulation, half well mixed; each
  chord is expanded by ``ptolemy expand`` (the CLI, in process) and by
  ``build_triangulation`` + ``cluster_variable_recursive`` (the library);
* ``verify-sweep``: the full verification sweep of ranks 1..3, each rank
  through ``verify.run_checks`` and through ``ptolemy verify --n N``;
* ``flip-graph``: every triangulation of the 9-gon and its flips, calls
  alternating between ``flip_graph(6)`` and ``ptolemy graph --n 6``.

Every output is checked against references that share no code with the
package (see inputs.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is repeated under the tracer (tracer.py) and the metrics are per layer.
A line before it starting with ``env`` records the run's environment.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from tracer import TARGETS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "ptolemy"
SETUP_REPEATS = 15
# A traced run traces this many units, after timing the workload untraced.
TRACED_UNITS = 2
WORKLOADS = ("deep-chords", "verify-sweep", "flip-graph")

_UNIT_TERM = re.compile(r"x\d+(\^-?\d+)?(\*x\d+(\^-?\d+)?)*")
_REPORT_ROW = re.compile(r"  (\S+)\s+(\d+)  (pass|fail|skip)(?:  \(.*\))?")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_package():
    """Import the package afresh from this checkout's src/, never from elsewhere."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise BenchError(f"no package source at {PACKAGE_DIR}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "ptolemy" or k.startswith("ptolemy.")]:
        del sys.modules[name]
    package = importlib.import_module("ptolemy")
    importlib.import_module("ptolemy.cli")
    importlib.import_module("ptolemy.verify")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR:
        raise BenchError(f"imported ptolemy from {package.__file__}, not from {PACKAGE_DIR}")
    return package


# --- operations ------------------------------------------------------------------


@dataclass
class Call:
    """One timed call into the package, and how to judge its output."""

    route: str  # "cli" or "lib"
    slot: tuple  # the same work in every unit of a workload: its place in the unit
    weight: int  # operations it counts for in ops_per_s
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    seconds: float = 0.0
    run_output: object = None
    failures: list[str] = field(default_factory=list)


@dataclass
class CliOutput:
    code: int
    stdout: str


def run_cli(package, argv: list[str]) -> CliOutput:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = package.cli.main(argv)
    return CliOutput(code, buffer.getvalue())


def _check_cli_expand(chord: inputs.DeepChord, out: CliOutput) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}"]
    terms = out.stdout.rstrip("\n").split(" + ")
    failures = []
    if len(terms) != chord.terms:
        failures.append(f"{len(terms)} terms, frieze says {chord.terms}")
    if not all(_UNIT_TERM.fullmatch(term) for term in terms):
        failures.append("a coefficient is not 1")
    return failures


def deep_chord_calls(package, chord: inputs.DeepChord) -> list[Call]:
    """The CLI and the library route on one chord; the library output must
    render exactly as the CLI printed it."""
    argv = ["expand", "--n", str(chord.n), "--diagonals", chord.diagonals_arg(), "--target", chord.target_arg()]
    slot = chord.index % inputs.CYCLE
    cli = Call("cli", (slot, "cli"), 1, lambda: run_cli(package, argv), lambda out: _check_cli_expand(chord, out))

    def recursion():
        t = package.build_triangulation(chord.n, list(chord.diagonals))
        return package.cluster_variable_recursive(t, package.Arc(*chord.chord))

    def check_recursion(poly) -> list[str]:
        failures = []
        if len(poly) != chord.terms:
            failures.append(f"{len(poly)} terms, frieze says {chord.terms}")
        if not isinstance(cli.run_output, CliOutput) or poly.render() + "\n" != cli.run_output.stdout:
            failures.append("recursion renders differently from the CLI expansion")
        return failures

    return [cli, Call("lib", (slot, "lib"), 1, recursion, check_recursion)]


def sweep_call(package, route: str, n: int) -> Call:
    """The acceptance sweep of rank n through one route."""
    expected = inputs.expected_sweep_rows(n)
    weight = sum(count for _, count, _ in expected)
    if route == "lib":
        def run():
            return package.verify.run_checks(n, "full")

        def rows(out):
            return [(r.name, r.instances, r.status) for r in out]
    else:
        def run():
            return run_cli(package, ["verify", "--n", str(n), "--level", "full"])

        def rows(out: CliOutput):
            lines = out.stdout.splitlines()
            if out.code != 0 or not lines or lines[-1] != "RESULT: PASS":
                return f"exit code {out.code}, report ends {lines[-1:]}"
            matches = [_REPORT_ROW.fullmatch(line) for line in lines[1:-1]]
            if not all(matches):
                return "unreadable report"
            return [(m[1], int(m[2]), m[3]) for m in matches]

    def check(out) -> list[str]:
        got = rows(out)
        return [] if got == expected else [f"rank {n}: rows {got}, expected {expected}"]

    return Call(route, (n, route), weight, run, check)


def _check_graph(names: list, edges: list) -> list[str]:
    nodes, flips = inputs.expected_flip_graph(inputs.FLIP_GRAPH_RANK)
    failures = []
    if len(names) != nodes or len(set(names)) != nodes:
        failures.append(f"{len(set(names))} distinct triangulations of {len(names)}, expected {nodes}")
    pairs = {tuple(edge) for edge in edges}
    if len(edges) != flips or len(pairs) != flips:
        failures.append(f"{len(pairs)} distinct flips of {len(edges)}, expected {flips}")
    degree = [0] * len(names)
    for i, j in pairs:
        if not 0 <= i < j < len(names):
            return failures + [f"flip {i}-{j} out of range"]
        degree[i] += 1
        degree[j] += 1
    if any(d != inputs.FLIP_GRAPH_RANK for d in degree):
        failures.append(f"a triangulation does not have {inputs.FLIP_GRAPH_RANK} flips")
    return failures


def flip_graph_call(package, route: str) -> Call:
    n = inputs.FLIP_GRAPH_RANK
    weight = inputs.expected_flip_graph(n)[0]
    if route == "lib":

        def check(result) -> list[str]:
            nodes, edges = result
            names = [tuple(sorted(arc.endpoints() for arc in t.diagonal_arcs())) for t in nodes]
            return _check_graph(names, edges)

        return Call("lib", ("lib",), weight, lambda: package.flip_graph(n), check)

    def check_cli(out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        data = json.loads(out.stdout)
        return _check_graph(data["nodes"], data["edges"])

    return Call(
        "cli",
        ("cli",),
        weight,
        lambda: run_cli(package, ["graph", "--n", str(n), "--format", "structured"]),
        check_cli,
    )


# --- workloads ------------------------------------------------------------------


class Workload:
    """Inputs of one workload, served as units: the calls between two looks at the clock.

    Every unit poses the same work in the same slots (a ``Call.slot``), so
    a run times each slot several times.  ``fresh`` workloads never repeat
    an input: a traced pass continues where the untraced one stopped.
    """

    fresh = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Inputs and references made before timing starts (part of setup_s)."""

    def unit(self, package, k: int) -> list[Call]:
        raise NotImplementedError


class DeepChords(Workload):
    fresh = True

    def setup(self) -> None:
        self.chords = [inputs.deep_chord(self.seed, i) for i in range(inputs.CYCLE)]

    def unit(self, package, k):
        start = k * inputs.CYCLE
        while len(self.chords) < start + inputs.CYCLE:
            self.chords.append(inputs.deep_chord(self.seed, len(self.chords)))
        calls = []
        for chord in self.chords[start : start + inputs.CYCLE]:
            calls += deep_chord_calls(package, chord)
        return calls


class VerifySweep(Workload):
    def unit(self, package, k):
        return [sweep_call(package, route, n) for n in inputs.SWEEP_RANKS for route in ("lib", "cli")]


class FlipGraph(Workload):
    def unit(self, package, k):
        return [flip_graph_call(package, "lib" if k % 2 == 0 else "cli")]


WORKLOAD_CLASSES = {"deep-chords": DeepChords, "verify-sweep": VerifySweep, "flip-graph": FlipGraph}


def set_up(workload: Workload) -> tuple[object, float]:
    """Import the package and make the inputs, several times; the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from a collected heap, not the last one's garbage
        start = time.perf_counter()
        package = load_package()
        workload.setup()
        times.append(time.perf_counter() - start)
    return package, statistics.median(times)


@dataclass
class Pass:
    units: list[list[Call]] = field(default_factory=list)

    @property
    def calls(self) -> list[Call]:
        return [call for unit in self.units for call in unit]

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def attempted(self) -> int:
        return sum(c.weight for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(c.weight for c in self.calls if c.failures)


def run_pass(
    package,
    workload: Workload,
    first_unit: int,
    *,
    seconds: float | None = None,
    units: int | None = None,
    tracer: Tracer | None = None,
) -> Pass:
    """Run whole units until ``seconds`` have passed, or exactly ``units`` of them.

    A timed pass runs at least two units, so that both routes of every
    workload are measured.
    """
    result = Pass()
    gc.collect()
    start = time.perf_counter()
    k = first_unit
    while True:
        calls = workload.unit(package, k)
        for call in calls:
            run_call(call, tracer)
        for call in calls:
            call.run_output = None  # checked; keep no output alive into the next unit
        result.units.append(calls)
        k += 1
        done = len(result.units)
        if units is not None and done >= units:
            return result
        if seconds is not None and done >= 2 and time.perf_counter() - start >= seconds:
            return result


def run_call(call: Call, tracer: Tracer | None) -> None:
    try:
        with tracer.installed(TARGETS) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = call.run()
            finally:
                call.seconds = time.perf_counter() - start
        call.run_output = output
        call.failures = call.check(output)
    except Exception as exc:  # a crashing call is a failed operation, never a lost run
        call.failures = [f"{type(exc).__name__}: {exc}"]
    if tracer:
        outputs = call.run_output if isinstance(call.run_output, list) else [call.run_output]
        tracer.counts["cli.stdout_bytes"] += sum(
            len(out.stdout.encode()) for out in outputs if isinstance(out, CliOutput)
        )
    for failure in call.failures:
        print(f"check failed ({call.route}): {failure}", file=sys.stderr)


# --- metrics --------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slot_medians(run: Pass) -> list[tuple[str, int, float]]:
    """(route, weight, median seconds) of each slot over the run's calls.

    Every unit poses the same work in each slot, so a slot's calls differ
    only by the machine's noise, and the median of a slot, unlike one taken
    over all calls, never falls between two slots of different cost.
    """
    calls: dict[tuple, list[Call]] = collections.defaultdict(list)
    for call in run.calls:
        calls[call.slot].append(call)
    return [
        (group[0].route, group[0].weight, statistics.median(c.seconds for c in group))
        for group in calls.values()
    ]


def end_to_end(run: Pass, setup_s: float) -> dict[str, tuple[float, str]]:
    slots = slot_medians(run)
    out = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(w for _, w, _ in slots) / sum(s for _, _, s in slots), "1/s"),
    }
    for route in ("cli", "lib"):
        ms = [1000.0 * s for r, _, s in slots if r == route]
        out[f"{route}_p50_ms"] = (statistics.median(ms), "ms")
        out[f"{route}_p90_ms"] = (percentile(ms, 0.9), "ms")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def environment(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        raise BenchError("refusing to run under python -O: it strips the asserts the program runs")
    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    package, setup_s = set_up(workload)
    env = environment(args)
    print("env " + json.dumps(env), flush=True)

    plain = run_pass(package, workload, 0, seconds=args.seconds)
    attempted, failed = plain.attempted, plain.failed
    if args.trace:
        tracer = Tracer()
        first = len(plain.units) if workload.fresh else 0
        traced = run_pass(package, workload, first, units=TRACED_UNITS, tracer=tracer)
        attempted += traced.attempted
        failed += traced.failed
        untraced_s = Pass(plain.units[:TRACED_UNITS]).seconds
        metrics = layer_metrics(tracer, traced.attempted, traced.seconds, untraced_s)
    else:
        metrics = end_to_end(plain, setup_s)

    timed = collections.Counter(call.slot for call in plain.calls)
    print(
        f"samples: {len(plain.units)} units, {len(plain.calls)} calls, "
        f"{len(timed)} slots each timed {min(timed.values())} to {max(timed.values())} times"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'failed_ratio':40s} {failed / attempted:16.6f} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
