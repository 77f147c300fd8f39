"""Benchmark inputs and reference answers, from the benchmark's own arithmetic.

Nothing here imports the package: triangulations are plain lists of vertex
pairs, crossings are decided by circular interleaving, and the reference term
count of a chord comes from the Conway-Coxeter frieze of the triangulation.
Generating inputs therefore costs the same whatever the package does, and the
reference shares no code with either route it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# deep-chords: ranks of the generated polygons, and the two shapes per rank.
DEEP_RANKS = tuple(range(12, 19))
SHAPES = ("zigzag", "mixed")
# zigzag-like: this many random flips away from the snake triangulation;
# well-mixed: a random flip walk this many times the rank long.
ZIGZAG_FLIPS = 2
MIXED_WALK_PER_RANK = 4
# One cycle holds one chord per (rank, shape), so any whole number of cycles
# has the same mix of sizes whatever the seed.
CYCLE = len(DEEP_RANKS) * len(SHAPES)

# Ranks 4 and 5 take 3 to 5 s a sweep, too long a call to time steadily on
# a shared machine; ranks 1..3 run every check, brute force included.
SWEEP_RANKS = (1, 2, 3)
BRUTE_FORCE_MAX_RANK = 4
# Below the package's rank guard (8): a call takes about 0.3 s rather than
# 8 s, so a run times each route dozens of times.
FLIP_GRAPH_RANK = 6


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def interleaved(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two chords of a convex polygon cross in its interior.

    With a = (p, q), p < q, the chords cross exactly when one endpoint of b
    lies strictly between p and q and the other strictly outside.
    """
    p, q = a
    inside = [p < x < q for x in b if x not in a]
    return len(inside) == 2 and inside[0] != inside[1]


def snake_diagonals(n: int) -> list[tuple[int, int]]:
    """Diagonals of the zigzag triangulation of the (n+3)-gon, in label order.

    Consecutive pairs of the walk 2, 4, 1, 5, n+3, 6, ...: even entries step
    down from 2 and odd entries up from 4, read circularly.
    """
    nv = n + 3
    walk = [2, 4]
    lo, hi = 2, 4
    while len(walk) < n + 1:
        if len(walk) % 2 == 0:
            lo -= 1
            walk.append((lo - 1) % nv + 1)
        else:
            hi += 1
            walk.append(hi)
    return [_pair(walk[i], walk[i + 1]) for i in range(n)]


def _edges(n: int, diagonals: list[tuple[int, int]]) -> set[tuple[int, int]]:
    nv = n + 3
    return set(diagonals) | {_pair(k, k % nv + 1) for k in range(1, nv + 1)}


def flip(n: int, diagonals: list[tuple[int, int]], index: int) -> None:
    """Replace diagonals[index] by the other diagonal of its quadrilateral, in place."""
    a, b = diagonals[index]
    edges = _edges(n, diagonals)
    apexes = [
        w
        for w in range(1, n + 4)
        if w not in (a, b) and _pair(a, w) in edges and _pair(b, w) in edges
    ]
    if len(apexes) != 2:
        raise ValueError(f"diagonal {a}-{b} does not bound two triangles")
    diagonals[index] = _pair(*apexes)


def quiddity(n: int, diagonals: list[tuple[int, int]]) -> list[int]:
    """Triangles at each vertex 1..n+3: one more than the diagonals there."""
    counts = [1] * (n + 3)
    for u, v in diagonals:
        counts[u - 1] += 1
        counts[v - 1] += 1
    return counts


def frieze_entry(n: int, diagonals: list[tuple[int, int]], i: int, j: int) -> int:
    """Conway-Coxeter frieze entry m(i, j) of the triangulated (n+3)-gon.

    m(i, i) = 0, m(i, i+1) = 1 and m(i, k+1) = a_k m(i, k) - m(i, k-1),
    walking k counterclockwise from i to j, where a is the quiddity
    sequence.  It is the chord's cluster variable with every variable set to
    1; since every coefficient is 1, it also counts the chord's terms.
    """
    nv = n + 3
    a = quiddity(n, diagonals)
    prev, cur = 0, 1
    k = i % nv + 1
    while k != j:
        prev, cur = cur, a[k - 1] * cur - prev
        k = k % nv + 1
    return cur


def crossing_counts(n: int, diagonals: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Every diagonal of the polygon, with how many of the given diagonals it crosses."""
    nv = n + 3
    out = {}
    for u in range(1, nv + 1):
        for v in range(u + 2, nv + 1):
            if (u, v) != (1, nv):
                out[(u, v)] = sum(interleaved((u, v), d) for d in diagonals)
    return out


@dataclass(frozen=True)
class DeepChord:
    """One deep-chords input: a labeled triangulation, a chord and its reference."""

    index: int
    shape: str
    n: int
    diagonals: tuple[tuple[int, int], ...]
    chord: tuple[int, int]
    crossings: int
    terms: int

    def diagonals_arg(self) -> str:
        return ",".join(f"{u}-{v}" for u, v in self.diagonals)

    def target_arg(self) -> str:
        return f"{self.chord[0]}-{self.chord[1]}"


def deep_chord(seed: int, index: int) -> DeepChord:
    """The index-th deep-chords input of a seed; a pure function of both.

    Index i takes its rank, shape and flip walk from its place in the cycle
    alone, so every cycle of every seed poses the same triangulations up to
    their coordinates, and any whole number of cycles costs the same.  The
    chord is one that crosses the most diagonals.  The seed and i then draw
    the coordinates: a rotation and a reflection of the polygon, and the
    order of the diagonal labels, so no input repeats.
    """
    slot = index % CYCLE
    walk = random.Random(f"walk:{slot}")
    n = DEEP_RANKS[slot // len(SHAPES)]
    shape = SHAPES[slot % len(SHAPES)]
    diagonals = snake_diagonals(n)
    steps = ZIGZAG_FLIPS if shape == "zigzag" else MIXED_WALK_PER_RANK * n
    for _ in range(steps):
        flip(n, diagonals, walk.randrange(n))
    counts = crossing_counts(n, diagonals)
    most = max(counts.values())
    chord = walk.choice(sorted(c for c, k in counts.items() if k == most))

    rng = random.Random(f"{seed}:{index}")
    nv = n + 3
    turn = rng.randrange(nv)
    mirror = rng.random() < 0.5

    def move(v: int) -> int:
        v = (v - 1 + turn) % nv + 1
        return nv + 1 - v if mirror else v

    diagonals = [_pair(move(u), move(v)) for u, v in diagonals]
    rng.shuffle(diagonals)
    chord = _pair(move(chord[0]), move(chord[1]))
    return DeepChord(
        index=index,
        shape=shape,
        n=n,
        diagonals=tuple(diagonals),
        chord=chord,
        crossings=most,
        terms=frieze_entry(n, diagonals, *chord),
    )


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def expected_sweep_rows(n: int) -> list[tuple[str, int, str]]:
    """(row name, instances, status) that a full verification sweep of rank n reports.

    Counts are closed forms in the triangulation count C(n+1) and the number
    of polygon diagonals D = n(n+3)/2; a triangulation contains n of them.
    The brute-force row is skipped above its documented rank guard.
    """
    triangulations = catalan(n + 1)
    diagonals = n * (n + 3) // 2
    instances = triangulations * diagonals
    crossed = triangulations * (diagonals - n)
    brute = ("skip", 0) if n > BRUTE_FORCE_MAX_RANK else ("pass", 2 * instances)
    return [
        ("triangulation-count", 1, "pass"),
        ("expansion-vs-recursion", instances, "pass"),
        ("unit-coefficients", crossed, "pass"),
        ("denominator-vectors", instances, "pass"),
        ("enumeration-vs-brute-force", brute[1], brute[0]),
        ("first-edge-partition", 2 * crossed, "pass"),
        ("start-edge-bijections", 2 * crossed, "pass"),
    ]


def expected_flip_graph(n: int) -> tuple[int, int]:
    """(triangulations, flips) of the (n+3)-gon: C(n+1) nodes, each of degree n."""
    nodes = catalan(n + 1)
    return nodes, n * nodes // 2
