"""Tests of the benchmark's own pieces: references, input generator, tracer, checks."""

import pytest

import inputs
import run
from tracer import TARGETS, Span, Tracer, self_times

import ptolemy
import ptolemy.cli  # noqa: F401  (run_cli calls ptolemy.cli.main)
from ptolemy import Arc, all_triangulations, expand, flip_graph, snake_triangulation
from ptolemy.verify import CheckRow, render_report, run_checks


def _pairs(t):
    return [arc.endpoints() for arc in t.diagonal_arcs()]


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frieze_counts_the_terms_of_every_chord(n):
    for t in all_triangulations(n):
        diagonals = _pairs(t)
        for chord in ptolemy.all_polygon_diagonals(n):
            expected = 1 if t.contains(chord) else len(expand(t, chord))
            assert inputs.frieze_entry(n, diagonals, chord.u, chord.v) == expected
            assert inputs.frieze_entry(n, diagonals, chord.v, chord.u) == expected


@pytest.mark.parametrize("n", [1, 6, 13, 18])
def test_frieze_gives_fibonacci_numbers_on_snake_chords(n):
    diagonals = inputs.snake_diagonals(n)
    for (u, v), crossed in inputs.crossing_counts(n, diagonals).items():
        assert inputs.frieze_entry(n, diagonals, u, v) == _fibonacci(crossed + 2)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 18])
def test_snake_matches_the_package(n):
    assert inputs.snake_diagonals(n) == _pairs(snake_triangulation(n))


def test_crossing_counts_match_the_package():
    n = 7
    diagonals = inputs.snake_diagonals(n)
    inputs.flip(n, diagonals, 3)
    t = ptolemy.build_triangulation(n, diagonals)
    for (u, v), crossed in inputs.crossing_counts(n, diagonals).items():
        assert crossed == len(t.crossing_labels(Arc(u, v)))


def test_flip_matches_the_package():
    n = 9
    diagonals = inputs.snake_diagonals(n)
    t = snake_triangulation(n)
    for k in (0, 4, 8, 2):
        inputs.flip(n, diagonals, k)
        t = t.flip(k + 1)
        assert diagonals == _pairs(t)


def test_same_seed_same_inputs():
    first = [inputs.deep_chord(7, i) for i in range(inputs.CYCLE + 3)]
    again = [inputs.deep_chord(7, i) for i in range(inputs.CYCLE + 3)]
    other = [inputs.deep_chord(8, i) for i in range(inputs.CYCLE + 3)]
    assert first == again
    assert first != other


def test_every_cycle_has_the_same_mix():
    for seed in (1, 2):
        cycle = [inputs.deep_chord(seed, i) for i in range(inputs.CYCLE, 2 * inputs.CYCLE)]
        assert sorted((c.n, c.shape) for c in cycle) == sorted(
            (n, shape) for n in inputs.DEEP_RANKS for shape in inputs.SHAPES
        )


def test_a_slot_poses_the_same_chord_in_new_coordinates():
    for slot in (0, 5, inputs.CYCLE - 1):
        chords = [inputs.deep_chord(seed, slot + k * inputs.CYCLE) for seed in (1, 2) for k in (0, 3)]
        assert len({(c.n, c.shape, c.crossings, c.terms) for c in chords}) == 1
        assert len({(c.diagonals, c.chord) for c in chords}) == len(chords)


def test_deep_chord_crosses_the_most_diagonals():
    chord = inputs.deep_chord(3, 4)
    t = ptolemy.build_triangulation(chord.n, list(chord.diagonals))
    most = max(len(t.crossing_labels(arc)) for arc in ptolemy.all_polygon_diagonals(chord.n))
    assert len(t.crossing_labels(Arc(*chord.chord))) == chord.crossings == most


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_closed_forms_match_the_program(n):
    rows = [(r.name, r.instances, r.status) for r in run_checks(n, "full")]
    assert rows == inputs.expected_sweep_rows(n)


def test_sweep_closed_forms_skip_brute_force_above_its_guard():
    by_name = {name: (count, status) for name, count, status in inputs.expected_sweep_rows(5)}
    assert by_name["enumeration-vs-brute-force"] == (0, "skip")
    assert by_name["expansion-vs-recursion"] == (132 * 20, "pass")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flip_graph_closed_forms_match_the_program(n):
    nodes, edges = flip_graph(n)
    assert inputs.expected_flip_graph(n) == (len(nodes), len(edges))


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "cli.main", "cli", 0.0, 10.0, aggregate=1.0),
        # children listed out of order; expand holds two enumerations
        Span(3, 0, "oracle.cluster_variable_recursive", "oracle", 7.0, 9.0),
        Span(1, 0, "expansion.expand", "expansion", 1.0, 6.0, aggregate=0.5),
        Span(2, 1, "tpaths.enumerate_t_paths", "tpaths", 2.0, 5.0, aggregate=2.0),
        Span(4, 1, "tpaths.enumerate_t_paths", "tpaths", 5.2, 5.6),
    ]
    got = self_times(spans, {"polygon": 3.5})
    expected = {"cli": 2.0, "expansion": 1.1, "tpaths": 1.4, "oracle": 2.0, "polygon": 3.5}
    assert got == pytest.approx(expected)


def test_tracer_partitions_time_and_restores_the_package():
    original = (ptolemy.polygon.crosses, ptolemy.tpaths.crosses, Arc.validate, ptolemy.expand)
    tracer = Tracer()
    with tracer.installed(TARGETS):
        assert ptolemy.tpaths.crosses is not original[1]
        out = run.run_cli(ptolemy, ["expand", "--n", "5", "--diagonals", "2-4,4-6,2-6,2-8,6-8", "--target", "3-7"])
    assert (ptolemy.polygon.crosses, ptolemy.tpaths.crosses, Arc.validate, ptolemy.expand) == original
    assert out.code == 0 and len(out.stdout.split(" + ")) == 5
    assert tracer.calls["tpaths.enumerate_t_paths"] == 1
    assert tracer.counts["tpaths.enumerate.paths"] == 5
    assert tracer.calls["tpaths.is_valid_t_path"] == 5
    assert tracer.calls["polygon.crosses"] > 0
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "cli.main"
    total = sum(tracer.module_self_times().values())
    assert total == pytest.approx(root.end - root.start, rel=1e-9)


def test_checks_catch_wrong_outputs():
    chord = inputs.deep_chord(1, 0)
    good = expand(ptolemy.build_triangulation(chord.n, list(chord.diagonals)), Arc(*chord.chord)).render()
    assert run._check_cli_expand(chord, run.CliOutput(0, good + "\n")) == []
    assert run._check_cli_expand(chord, run.CliOutput(0, good.replace(" + ", " + 2*", 1) + "\n"))
    assert run._check_cli_expand(chord, run.CliOutput(0, good.rsplit(" + ", 1)[0] + "\n"))
    assert run._check_cli_expand(chord, run.CliOutput(2, ""))


def test_sweep_checks_read_both_routes():
    for n in inputs.SWEEP_RANKS:
        rows = [CheckRow(*row) for row in inputs.expected_sweep_rows(n)]
        report = run.CliOutput(0, render_report(n, "full", rows) + "\n")
        lib, cli = run.sweep_call(None, "lib", n), run.sweep_call(None, "cli", n)
        assert lib.check(rows) == []
        assert cli.check(report) == []
        rows[2].status = "fail"
        assert len(lib.check(rows)) == 1
        assert len(cli.check(run.CliOutput(1, render_report(n, "full", rows) + "\n"))) == 1
        assert len(run.sweep_call(None, "lib", n % 5 + 1).check(rows)) == 1


def test_every_sweep_unit_is_the_full_sweep_through_both_routes():
    sweep = run.VerifySweep(1)
    first, second = sweep.unit(None, 0), sweep.unit(None, 1)
    assert [c.slot for c in first] == [c.slot for c in second]
    assert sorted(c.slot for c in first) == sorted((n, r) for n in inputs.SWEEP_RANKS for r in ("cli", "lib"))


def test_end_to_end_takes_each_slots_median():
    def call(slot, route, seconds):
        c = run.Call(route, slot, 10, None, None)
        c.seconds = seconds
        return c

    units = [
        [call((0, "cli"), "cli", 2.0), call((0, "lib"), "lib", 1.0), call((1, "cli"), "cli", 4.0)],
        [call((0, "cli"), "cli", 3.0), call((0, "lib"), "lib", 0.5), call((1, "cli"), "cli", 6.0)],
        [call((0, "cli"), "cli", 9.0), call((0, "lib"), "lib", 0.75), call((1, "cli"), "cli", 5.0)],
    ]
    metrics = run.end_to_end(run.Pass(units), 0.1)
    assert metrics["ops_per_s"] == (30 / 8.75, "1/s")
    assert metrics["cli_p50_ms"] == (4000.0, "ms")
    assert metrics["cli_p90_ms"] == (5000.0, "ms")
    assert metrics["lib_p50_ms"] == metrics["lib_p90_ms"] == (750.0, "ms")


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 0.5) == 3.0
    assert run.percentile(values, 0.9) == 5.0
    assert run.percentile([7.0], 0.9) == 7.0
