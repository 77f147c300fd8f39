"""Path validation, pruned enumeration vs brute force, weight monomials."""

import gc
import hashlib
import random
from collections import Counter

import pytest

import ptolemy.tpaths
from ptolemy import (
    Arc,
    InputError,
    InvariantError,
    Monomial,
    PathCheck,
    ResourceLimitError,
    TPath,
    Triangulation,
    all_polygon_diagonals,
    all_triangulations,
    brute_force_t_path_table,
    brute_force_t_paths,
    build_triangulation,
    enumerate_t_paths,
    expand,
    is_valid_t_path,
    path_weight,
    snake_triangulation,
)
from ptolemy.expansion import _weight_keys, path_entry
from ptolemy.tpaths import crossing_keys
from conftest import OCTAGON_PATHS, exponents, run_optimized


def small_instances(max_rank):
    for n in range(1, max_rank + 1):
        for t in all_triangulations(n):
            for chord in all_polygon_diagonals(n):
                for origin in chord.endpoints():
                    yield t, origin, chord.other_end(origin)


def test_tpath_is_the_pair_of_its_fields():
    # Set and dict order over paths follow this hash; printed paths, repr and str.
    vertices, labels = (3, 2, 6, 7), (7, 3, 11)
    path = TPath(vertices, labels)
    assert hash(path) == hash((vertices, labels))
    assert path == (vertices, labels) and len(path) == 2 and path.length == 3
    assert repr(path) == "TPath(vertices=(3, 2, 6, 7), labels=(7, 3, 11))"
    assert str(path) == "(3,2,6,7 | 7,3,11)"
    with pytest.raises(AttributeError):
        path.labels = ()


class TestValidator:
    def test_listed_path_is_valid(self, octagon):
        path = TPath((3, 2, 6, 7), (7, 3, 11))
        assert is_valid_t_path(octagon, 3, 7, path).ok

    def test_non_crossing_even_edge(self, octagon):
        # chain holds together but the even edge 2-8 misses the chord 3-7
        path = TPath((3, 2, 8, 7), (7, 4, 12))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 5

    def test_even_length(self, octagon):
        path = TPath((3, 2, 6, 8, 7), (7, 3, 5, 12))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 4

    def test_wrong_endpoints(self, octagon):
        path = TPath((2, 6, 7), (3, 11))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 1

    def test_broken_chain_reports_lowest_rule(self, octagon):
        # swapping label 3 for 4 breaks the vertex chain before anything else
        path = TPath((3, 2, 6, 7), (7, 4, 11))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 2

    def test_repeated_label(self, octagon):
        path = TPath((3, 2, 3, 2, 6, 7), (7, 7, 7, 3, 11))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 3

    def test_out_of_order_crossings(self, octagon):
        # chain holds, even edges cross, but the second crossing is nearer to 3
        path = TPath((3, 2, 6, 4, 2, 8, 6, 7), (7, 3, 2, 1, 4, 5, 11))
        check = is_valid_t_path(octagon, 3, 7, path)
        assert not check.ok and check.violated == 6

    @pytest.mark.parametrize(
        "vertices, labels, rule",
        [
            ((3, 2, 6, 7), (7, 3, 11), None),
            ((2, 6, 7), (3, 11), 1),
            ((3, 2, 6, 7), (7, 4, 11), 2),
            ((3, 2, 3, 2, 6, 7), (7, 7, 7, 3, 11), 3),
            ((3, 2, 6, 8, 7), (7, 3, 5, 12), 4),
            ((3, 2, 8, 7), (7, 4, 12), 5),
            ((3, 2, 6, 4, 2, 8, 6, 7), (7, 3, 2, 1, 4, 5, 11), 6),
        ],
    )
    def test_prebuilt_table_reports_the_same_rule(self, octagon, vertices, labels, rule):
        path = TPath(vertices, labels)
        keys = crossing_keys(octagon, 3, 7)
        assert is_valid_t_path(octagon, 3, 7, path, keys=keys) == is_valid_t_path(octagon, 3, 7, path)
        assert is_valid_t_path(octagon, 3, 7, path, keys=keys).violated == rule

    def test_crossing_keys_list_the_crossing_diagonals(self, octagon):
        keys = crossing_keys(octagon, 3, 7)
        assert list(keys) == octagon.crossing_labels(Arc(3, 7))
        assert sorted(keys, key=keys.get) == octagon.crossing_labels_from(Arc(3, 7), 3)

    def test_malformed_input(self, octagon):
        with pytest.raises(InputError):
            is_valid_t_path(octagon, 3, 7, TPath((3, 7), (99,)))
        with pytest.raises(InputError):
            is_valid_t_path(octagon, 3, 7, TPath((3, 2, 7), (7,)))
        with pytest.raises(InputError):
            is_valid_t_path(octagon, 3, 4, TPath((3, 4), (8,)))


class TestCrossingTable:
    def test_one_table_per_oriented_chord(self, octagon):
        keys = crossing_keys(octagon, 3, 7)
        assert crossing_keys(octagon, 3, 7) is keys
        assert is_valid_t_path(octagon, 3, 7, TPath((3, 2, 6, 7), (7, 3, 11))).ok
        assert crossing_keys(octagon, 3, 7) is keys
        assert crossing_keys(octagon, 7, 3) is not keys
        assert keys == crossing_keys(Triangulation(octagon.n, octagon.edges), 3, 7)

    @pytest.mark.parametrize(
        "source, target, message",
        [
            (3.0, 7, "vertex 3.0 out of range 1..8"),
            (True, 3, "vertex True out of range 1..8"),
            (3, 4, "vertices 3 and 4 are adjacent"),
            (8, 1, "vertices 8 and 1 are adjacent"),
            (3, 9, "vertex 9 out of range 1..8"),
            (0, 3, "vertex 0 out of range 1..8"),
        ],
    )
    def test_a_filled_memo_still_validates_the_endpoints(self, octagon, source, target, message):
        # 3.0 and True hash like the vertices 3 and 1, whose tables are kept.
        for chord in all_polygon_diagonals(octagon.n):
            crossing_keys(octagon, chord.u, chord.v)
            crossing_keys(octagon, chord.v, chord.u)
        candidate = TPath((source, target), (1,))
        calls = (
            lambda: crossing_keys(octagon, source, target),
            lambda: is_valid_t_path(octagon, source, target, candidate),
            lambda: enumerate_t_paths(octagon, source, target),
        )
        for call in calls:
            with pytest.raises(InputError) as exc:
                call()
            assert str(exc.value) == message


def validator_cases(max_rank):
    """(t, source, target, candidate, tables) for a fixed set of candidates on
    every oriented chord of every triangulation up to ``max_rank``.

    Per listed path: the path, one label and one vertex swapped for an
    out-of-range or another in-range value, the last step dropped, the last
    label dropped, one edge walked back and forth once more, and the path
    reversed.  Per chord, four random walks from the source along the
    triangulation that stop at the target or where no unused edge is left.
    Each candidate goes with the tables it is checked against: none, the
    chord's own, and the opposite orientation's, whose reversed crossing order
    makes rule 6 fire.
    """
    rng = random.Random(47840)
    for t, source, target in small_instances(max_rank):
        nv, n_labels, steps = t.n_vertices, t.n_labels, t._steps
        tables = (None, crossing_keys(t, source, target), crossing_keys(t, target, source))
        out = []
        for p in enumerate_t_paths(t, source, target):
            vs, ls = p.vertices, p.labels
            out.append(TPath(vs, ls))
            i = rng.randrange(len(ls))
            bad = rng.choice((0, -1, -2, n_labels + 1, 99, rng.randint(1, n_labels)))
            out.append(TPath(vs, ls[:i] + (bad,) + ls[i + 1 :]))
            i = rng.randrange(len(vs))
            bad = rng.choice((0, -1, nv + 1, 99, rng.randint(1, nv)))
            out.append(TPath(vs[:i] + (bad,) + vs[i + 1 :], ls))
            out.append(TPath(vs[:-1], ls[:-1]))
            out.append(TPath(vs, ls[:-1]))
            k = rng.randrange(len(ls))
            out.append(TPath(vs[: k + 2] + vs[k:], ls[: k + 1] + ls[k : k + 1] + ls[k:]))
            out.append(TPath(vs[::-1], ls[::-1]))
        for _ in range(4):
            vs, ls = [source], []
            options = steps[source]
            while options:
                lab, nxt = rng.choice(options)
                vs.append(nxt)
                ls.append(lab)
                if nxt == target:
                    break
                options = [step for step in steps[nxt] if step[0] not in ls]
            out.append(TPath(tuple(vs), tuple(ls)))
        for candidate in out:
            yield t, source, target, candidate, tables


def test_validator_outcomes_are_pinned():
    """Every outcome (the ``PathCheck``, or the ``InputError`` and its
    message) on the candidates of ``validator_cases(4)``, hashed in order,
    is pinned, so any reorganisation of the validator keeps every outcome."""
    digest = hashlib.sha256()
    kinds = Counter()
    for t, source, target, candidate, tables in validator_cases(4):
        for keys in tables:
            try:
                check = is_valid_t_path(t, source, target, candidate, keys=keys)
            except InputError as exc:
                text, kind = f"InputError: {exc}", "InputError"
            else:
                text, kind = repr(check), f"rule {check.violated}" if check.violated else "valid"
            digest.update(text.encode() + b"\n")
            kinds[kind] += 1
    assert kinds == {
        "valid": 12363,
        "rule 1": 25755,
        "rule 2": 2574,
        "rule 3": 10872,
        "rule 4": 7776,
        "rule 5": 4428,
        "rule 6": 1434,
        "InputError": 28734,
    }
    assert digest.hexdigest() == "535c0b02fb1ab64b74279dc8160071f5f9b01c96def16cd7fd9b069f052a8a69"


def _input_error(t, source, target, candidate, keys):
    with pytest.raises(InputError) as exc:
        is_valid_t_path(t, source, target, candidate, keys=keys)
    return str(exc.value)


@pytest.mark.parametrize("prebuilt", [False, True], ids=["own-table", "prebuilt-table"])
class TestErrorPrecedence:
    """A candidate both malformed and breaking a rule gets the input error, and
    among input errors the vertex range comes first, then the label range,
    then the length mismatch."""

    @pytest.mark.parametrize(
        "vertices, labels, message",
        [
            ((3, 99, 7), (7, 3), "vertex 99 out of range 1..8"),
            ((4, 7), (0,), "label 0 out of range 1..13"),
            ((3, 2, 7), (7,), "1 labels need 2 vertices, got 3"),
        ],
    )
    def test_exact_message(self, octagon, prebuilt, vertices, labels, message):
        keys = crossing_keys(octagon, 3, 7) if prebuilt else None
        assert _input_error(octagon, 3, 7, TPath(vertices, labels), keys) == message

    @pytest.mark.parametrize("bad", [0, 14])
    def test_bad_label_anywhere_in_a_listed_path(self, octagon, prebuilt, bad):
        keys = crossing_keys(octagon, 3, 7) if prebuilt else None
        for vertices, labels in OCTAGON_PATHS:
            for i in range(len(labels)):
                broken = TPath(vertices, labels[:i] + (bad,) + labels[i + 1 :])
                message = _input_error(octagon, 3, 7, broken, keys)
                assert message == f"label {bad} out of range 1..13"

    def test_label_zero_does_not_wrap_to_the_last_edge(self, octagon, prebuilt):
        # The middle step joins 8 and 1, the ends of label 13 = edges[-1].
        keys = crossing_keys(octagon, 7, 2) if prebuilt else None
        candidate = TPath((7, 8, 1, 2), (12, 0, 6))
        assert _input_error(octagon, 7, 2, candidate, keys) == "label 0 out of range 1..13"


def test_label_less_path_is_range_checked(octagon):
    # A table passed for equal endpoints lets rule 1 hold on a single vertex.
    with pytest.raises(InputError, match="^vertex 99 out of range 1..8$"):
        is_valid_t_path(octagon, 99, 99, TPath((99,), ()), keys={})
    check = is_valid_t_path(octagon, 3, 3, TPath((3,), ()), keys={})
    assert not check.ok and check.violated == 4


class TestEnumerate:
    def test_octagon_lists_all_five(self, octagon):
        paths = enumerate_t_paths(octagon, 3, 7)
        assert [(p.vertices, p.labels) for p in paths] == OCTAGON_PATHS

    def test_contained_chord_gives_single_edge(self, octagon):
        paths = enumerate_t_paths(octagon, 4, 6)
        assert [(p.vertices, p.labels) for p in paths] == [((4, 6), (2,))]

    def test_square_has_two(self, square):
        paths = enumerate_t_paths(square, 2, 4)
        assert [(p.vertices, p.labels) for p in paths] == [
            ((2, 1, 3, 4), (2, 1, 4)),
            ((2, 3, 1, 4), (3, 1, 5)),
        ]

    def test_adjacent_or_equal_rejected(self, square):
        with pytest.raises(InputError):
            enumerate_t_paths(square, 1, 2)
        with pytest.raises(InputError):
            enumerate_t_paths(square, 1, 1)

    def test_every_emission_validates(self, octagon):
        for p in enumerate_t_paths(octagon, 7, 3):
            assert is_valid_t_path(octagon, 7, 3, p).ok

    def test_matches_brute_force(self):
        for t, source, target in small_instances(3):
            assert set(enumerate_t_paths(t, source, target)) == set(
                brute_force_t_paths(t, source, target)
            )

    def test_endpoints_appear_only_at_the_ends(self):
        # No edge at an endpoint crosses the chord, so no even-position edge
        # enters or leaves one, and a branch ends where it reaches the target.
        for t, source, target in small_instances(5):
            for p in enumerate_t_paths(t, source, target):
                assert not {source, target} & set(p.vertices[1:-1]), p

    def test_structural_bounds(self):
        for t, source, target in small_instances(3):
            crossing = set(t.crossing_labels_from(Arc(source, target), source))
            for p in enumerate_t_paths(t, source, target):
                assert p.length <= 2 * t.n + 3
                even = p.labels[1::2]
                assert len(even) <= len(crossing)
                assert set(even) <= crossing


def reject_every_path(t, source, target, candidate, *, keys=None):
    """Stand-in rule checker that turns down every path."""
    return PathCheck(False, 5, "injected fault")


class TestEmissionCheck:
    def test_rejected_path_raises(self, monkeypatch, octagon):
        monkeypatch.setattr(ptolemy.tpaths, "is_valid_t_path", reject_every_path)
        with pytest.raises(InvariantError, match="breaks rule 5: injected fault"):
            enumerate_t_paths(octagon, 3, 7)

    def test_rejected_path_raises_under_optimization(self):
        out = run_optimized(
            "import ptolemy.tpaths, test_tpaths\n"
            "from ptolemy import InvariantError, build_triangulation\n"
            "from conftest import OCTAGON_DIAGONALS\n"
            "ptolemy.tpaths.is_valid_t_path = test_tpaths.reject_every_path\n"
            "try:\n"
            "    ptolemy.tpaths.enumerate_t_paths(build_triangulation(5, OCTAGON_DIAGONALS), 3, 7)\n"
            "except InvariantError as exc:\n"
            "    print(exc)\n"
        )
        assert "breaks rule 5: injected fault" in out

    def test_every_emitted_path_is_checked_once(self, monkeypatch):
        calls = []
        check = ptolemy.tpaths.is_valid_t_path

        def counting(*args, **kwargs):
            calls.append(args[3])
            return check(*args, **kwargs)

        monkeypatch.setattr(ptolemy.tpaths, "is_valid_t_path", counting)
        paths = enumerate_t_paths(snake_triangulation(10), 3, 9)
        assert len(paths) == 144
        assert calls == paths


class TestBruteForce:
    def test_guard(self, octagon):
        with pytest.raises(ResourceLimitError):
            brute_force_t_paths(octagon, 3, 7)
        with pytest.raises(ResourceLimitError):
            brute_force_t_path_table(octagon, 3, (6, 7))

    def test_adjacent_rejected(self, square):
        with pytest.raises(InputError):
            brute_force_t_paths(square, 1, 2)
        with pytest.raises(InputError):
            brute_force_t_path_table(square, 1, (3, 2))

    def test_every_odd_arrival_gets_the_validators_verdict(self):
        # Every odd-length edge-distinct walk, listed by an unpruned walk of
        # the test's own; the oracle keeps, in order, exactly the arrivals at
        # each target that is_valid_t_path accepts.  Every triangulation up
        # to rank 3, then two at rank 4: the fan at vertex 1 and the snake.
        def odd_walks(t, vertices, labels):
            for lab, arc in enumerate(t.edges, start=1):
                if lab not in labels and arc.is_incident(vertices[-1]):
                    walk = TPath(vertices + (arc.other_end(vertices[-1]),), labels + (lab,))
                    if walk.length % 2:
                        yield walk
                    yield from odd_walks(t, walk.vertices, walk.labels)

        fan = build_triangulation(4, [(1, 3), (1, 4), (1, 5), (1, 6)])
        cases = [t for n in range(1, 4) for t in all_triangulations(n)]
        cases += [fan, snake_triangulation(4)]
        arrivals = Counter()
        for t in cases:
            diagonals = all_polygon_diagonals(t.n)
            for source in range(1, t.n_vertices + 1):
                targets = [d.other_end(source) for d in diagonals if d.is_incident(source)]
                expected = {target: [] for target in targets}
                for walk in odd_walks(t, (source,), ()):
                    target = walk.vertices[-1]
                    if target in expected:
                        arrivals[t.n] += 1
                        if is_valid_t_path(t, source, target, walk).ok:
                            expected[target].append(walk)
                assert brute_force_t_path_table(t, source, targets) == expected
        assert arrivals == {1: 36, 2: 350, 3: 5112, 4: 3268}

    def test_rule_core_sees_only_arrivals_that_keep_rule_5(self, monkeypatch):
        # The walk stops a trail once an even-position edge misses every
        # target's chord, so no arrival the rule check sees breaks rule 5.
        honest = ptolemy.tpaths.is_valid_t_path
        verdicts = Counter()

        def counted(t, source, target, candidate, *, keys=None):
            check = honest(t, source, target, candidate, keys=keys)
            verdicts[t.n, check.violated] += 1
            return check

        monkeypatch.setattr(ptolemy.tpaths, "is_valid_t_path", counted)
        for n in range(1, 4):
            diagonals = all_polygon_diagonals(n)
            for t in all_triangulations(n):
                for source in range(1, n + 4):
                    targets = [d.other_end(source) for d in diagonals if d.is_incident(source)]
                    brute_force_t_path_table(t, source, targets)
        assert verdicts == {
            (1, None): 12,
            (2, None): 90,
            (2, 6): 10,
            (3, None): 540,
            (3, 6): 108,
        }

    def test_one_walk_serves_every_target(self):
        # Each target's list, order included, is what the pruned search finds.
        for n in range(1, 4):
            diagonals = all_polygon_diagonals(n)
            for t in all_triangulations(n):
                for source in range(1, n + 4):
                    targets = [d.other_end(source) for d in diagonals if d.is_incident(source)]
                    assert brute_force_t_path_table(t, source, targets) == {
                        target: enumerate_t_paths(t, source, target) for target in targets
                    }

    def test_leaves_no_reference_cycle(self):
        t = snake_triangulation(4)
        gc.collect()
        gc.disable()
        try:
            table = brute_force_t_path_table(t, 1, (3, 4, 5, 6))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert any(table.values())


class TestWeights:
    def test_three_edge_path(self):
        nv = 13
        w = path_weight(TPath((3, 2, 6, 7), (7, 3, 11)), nv)
        assert w == Monomial(1, exponents(nv, {7: 1, 11: 1, 3: -1}))

    def test_single_edge_path(self):
        nv = 13
        assert path_weight(TPath((4, 6), (2,)), nv) == Monomial(1, exponents(nv, {2: 1}))

    def test_seven_edge_path(self):
        nv = 13
        w = path_weight(TPath((3, 2, 4, 6, 2, 8, 6, 7), (7, 1, 2, 3, 4, 5, 11)), nv)
        assert w == Monomial(
            1, exponents(nv, {7: 1, 2: 1, 4: 1, 11: 1, 1: -1, 3: -1, 5: -1})
        )

    @pytest.mark.parametrize(
        "labels, named", [((7, 14, 0), 14), ((0, 3, 99), 0), ((7, 3, -2), -2)]
    )
    def test_out_of_range_label_named(self, labels, named):
        with pytest.raises(InputError, match=f"^label {named} out of range 1..13$"):
            path_weight(TPath((3, 2, 6, 7), labels), 13)

    def test_weights_distinct_and_reduced(self):
        for t, source, target in small_instances(3):
            nv = 2 * t.n + 3
            paths = enumerate_t_paths(t, source, target)
            weights = [path_weight(p, nv).exponents for p in paths]
            assert len(set(weights)) == len(weights)
            crossing = set(t.crossing_labels(Arc(source, target)))
            for exps in weights:
                assert all(e in (-1, 0, 1) for e in exps)
                negatives = {i + 1 for i, e in enumerate(exps) if e < 0}
                assert negatives <= crossing

    def test_walk_weights_match_label_weights(self):
        # The weights the walk carries, against weights read off each path's
        # labels, and expand's two routes against each other.
        snake = snake_triangulation(12)
        longest = max(all_polygon_diagonals(12), key=lambda c: len(snake.crossing_labels(c)))
        cases = list(small_instances(4)) + [(snake, longest.u, longest.v), (snake, longest.v, longest.u)]
        for t, source, target in cases:
            weights = []
            paths = enumerate_t_paths(t, source, target, weights=weights)
            assert paths == enumerate_t_paths(t, source, target)
            assert weights == _weight_keys(paths, t.n_labels)
            chord = Arc(source, target)
            table = {(source, target): path_entry(t, paths)}
            assert expand(t, chord, source) == expand(t, chord, source, paths=table)
