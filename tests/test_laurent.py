"""Laurent polynomial arithmetic, evaluation, rendering, tropical monomials."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptolemy import (
    Arc,
    InputError,
    LaurentPolynomial,
    Monomial,
    TropicalMonomial,
    expand,
    snake_triangulation,
)
from ptolemy.laurent import packed_layout, render_term
from conftest import exponents, run_optimized


def random_polynomial(rng, nvars, max_terms=6, span=3, coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exps] = rng.randint(-coeff, coeff)
    return LaurentPolynomial(nvars, terms)


def reference_terms(pairs):
    """Exponent tuple -> summed coefficient, zeros dropped, in lexicographic
    order: a plain dict that shares no code with the package's merge."""
    out = {}
    for exps, coeff in pairs:
        out[exps] = out.get(exps, 0) + coeff
    return [(exps, out[exps]) for exps in sorted(out) if out[exps]]


def naive_product(f, g):
    """Independent reference for ``f * g``, read from both ``terms()``."""
    return reference_terms(
        (tuple(a + b for a, b in zip(fe, ge)), fc * gc)
        for fe, fc in f.terms()
        for ge, gc in g.terms()
    )


def naive_sum(f, g):
    """Independent reference for ``f + g``, read from both ``terms()``."""
    return reference_terms([*f.terms(), *g.terms()])


def cancelling_sum():
    terms = {(1, -2, 0): 3, (0, 0, 5): -7, (2, 1, -1): 1}
    return LaurentPolynomial(3, terms) + LaurentPolynomial(3, {e: -c for e, c in terms.items()})


def cancelling_product():
    # (x1 + 1)(x1 - 1)
    return LaurentPolynomial(2, {(1, 0): 1, (0, 0): 1}) * LaurentPolynomial(
        2, {(1, 0): 1, (0, 0): -1}
    )


class TestRingOperations:
    def test_identities(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_polynomial(rng, 4)
            assert f + LaurentPolynomial.zero(4) == f
            assert f * LaurentPolynomial.one(4) == f

    def test_distributing_an_inverse_variable(self):
        nv = 5
        f = LaurentPolynomial(
            nv, {exponents(nv, {2: 1, 4: 1}): 1, exponents(nv, {3: 1, 5: 1}): 1}
        )
        inverse = LaurentPolynomial(nv, {exponents(nv, {1: -1}): 1})
        assert f * inverse == LaurentPolynomial(
            nv,
            {
                exponents(nv, {1: -1, 2: 1, 4: 1}): 1,
                exponents(nv, {1: -1, 3: 1, 5: 1}): 1,
            },
        )

    def test_product_against_naive_reference(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            assert list((f * g).terms()) == naive_product(f, g)

    def test_sum_against_naive_reference(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            assert list((f + g).terms()) == naive_sum(f, g)

    def test_ring_axioms(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            h = random_polynomial(rng, 3)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_rank_mismatch(self):
        with pytest.raises(InputError):
            LaurentPolynomial.one(3) + LaurentPolynomial.one(4)
        with pytest.raises(InputError):
            LaurentPolynomial.one(3) * LaurentPolynomial.one(4)
        with pytest.raises(InputError):
            LaurentPolynomial.variable(1, 4) * LaurentPolynomial.one(3)

    def test_canonical_form_ignores_construction_order(self):
        nv = 3
        a = LaurentPolynomial(nv, [((1, 0, 0), 2), ((0, 1, 0), 3), ((1, 0, 0), -1)])
        b = LaurentPolynomial(nv, [((0, 1, 0), 3), ((1, 0, 0), 1)])
        assert a == b
        assert list(a.terms()) == list(b.terms())

    def test_zero_coefficients_never_stored(self):
        p = LaurentPolynomial(2, [((1, 1), 5), ((1, 1), -5)])
        assert len(p) == 0
        assert not p

    @pytest.mark.parametrize(
        "build, expected",
        [(cancelling_sum, []), (cancelling_product, [((0, 0), -1), ((2, 0), 1)])],
        ids=["add", "mul"],
    )
    def test_merging_operation_stores_no_cancelled_term(self, build, expected):
        # terms() lists every stored term, a zero one included
        assert list(build().terms()) == expected


class TestMonomialProducts:
    """One-term operands, of one variable, none (`one`) or two, shift the other operand's keys."""

    NV = 4
    MONOMIALS = {
        "variable": LaurentPolynomial.variable(2, NV),
        "inverse-times-minus-three": LaurentPolynomial(NV, {exponents(NV, {3: -1}): -3}),
        "one": LaurentPolynomial.one(NV),
        "two-variables": LaurentPolynomial(NV, {exponents(NV, {1: 2, 4: -1}): 5}),
    }

    def operands(self):
        rng = random.Random(29)
        return [LaurentPolynomial.zero(self.NV)] + [
            random_polynomial(rng, self.NV, max_terms=8) for _ in range(15)
        ]

    @pytest.mark.parametrize("name", sorted(MONOMIALS))
    def test_one_term_operand_on_either_side(self, name):
        m = self.MONOMIALS[name]
        for f in self.operands():
            assert list((m * f).terms()) == naive_product(m, f)
            assert list((f * m).terms()) == naive_product(f, m)

    def test_one_term_operands_on_both_sides(self):
        for m in self.MONOMIALS.values():
            for k in self.MONOMIALS.values():
                product = m * k
                assert list(product.terms()) == naive_product(m, k)
                assert len(product) == 1

    @pytest.mark.parametrize("name", sorted(MONOMIALS))
    def test_operands_unchanged_and_unshared(self, name):
        m = self.MONOMIALS[name]
        for f in self.operands():
            before_m, before_f = list(m.terms()), list(f.terms())
            for product in (m * f, f * m):
                assert product._terms is not f._terms
                assert product._terms is not m._terms
            assert list(m.terms()) == before_m
            assert list(f.terms()) == before_f


class TestDivision:
    def test_single_variable(self):
        nv = 2
        p = LaurentPolynomial(nv, {(1, 1): 1})
        assert p.divide_by_variable(1) == LaurentPolynomial(nv, {(0, 1): 1})

    def test_two_terms(self):
        nv = 5
        f = LaurentPolynomial(
            nv, {exponents(nv, {2: 1, 4: 1}): 1, exponents(nv, {3: 1, 5: 1}): 1}
        )
        assert f.divide_by_variable(1) == LaurentPolynomial(
            nv,
            {
                exponents(nv, {1: -1, 2: 1, 4: 1}): 1,
                exponents(nv, {1: -1, 3: 1, 5: 1}): 1,
            },
        )

    def test_divide_then_multiply_restores(self):
        rng = random.Random(17)
        x1 = LaurentPolynomial.variable(1, 4)
        for _ in range(20):
            f = random_polynomial(rng, 4)
            assert f.divide_by_variable(1) * x1 == f


class TestEvaluate:
    def test_all_ones_sums_coefficients(self):
        rng = random.Random(19)
        for _ in range(10):
            f = random_polynomial(rng, 3)
            assert f.evaluate([1, 1, 1]) == sum(f.coefficients())

    def test_inverse_variable(self):
        nv = 13
        p = LaurentPolynomial(nv, {exponents(nv, {1: -1, 2: 1}): 1})
        point = [2, 6] + [1] * (nv - 2)
        assert p.evaluate(point) == 3

    def test_homomorphism(self):
        rng = random.Random(23)
        for _ in range(15):
            f = random_polynomial(rng, 3)
            g = random_polynomial(rng, 3)
            point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
            assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(InputError):
            LaurentPolynomial.one(2).evaluate([1, 0])


class TestRendering:
    def test_mixed_signs(self):
        nv = 13
        p = LaurentPolynomial(nv, {exponents(nv, {7: 1, 11: 1, 3: -1}): 1})
        assert p.render() == "x7*x11*x3^-1"

    def test_coefficient_prefix(self):
        p = LaurentPolynomial(2, {(-1, 0): 2})
        assert p.render() == "2*x1^-1"

    def test_constants(self):
        assert LaurentPolynomial.zero(2).render() == "0"
        assert LaurentPolynomial.one(2).render() == "1"

    def test_power_rendering(self):
        p = LaurentPolynomial(2, {(2, -3): 1})
        assert p.render() == "x1^2*x2^-3"

    def test_term_order_is_lexicographic(self):
        p = LaurentPolynomial(2, {(1, 0): 1, (-1, 2): 1, (0, 1): 1})
        assert p.render() == "x2^2*x1^-1 + x2 + x1"

    def test_term_list_round_trip(self):
        rng = random.Random(29)
        for _ in range(10):
            f = random_polynomial(rng, 4)
            assert LaurentPolynomial.from_term_list(4, f.to_term_list()) == f


# Products and quotients over three variables whose exact result has an
# exponent outside -64..63: (left terms, right terms or the index to divide by).
SPILLS = {
    "shift-up": ({(63, 0, 0): 1}, {(1, 0, 0): 1}),
    "shift-down": ({(0, 0, -64): 1}, {(0, 0, -1): 2}),
    "general-up": ({(40, 0, 0): 1, (0, 1, 0): 1}, {(40, 0, 0): 1, (0, 1, 0): 1}),
    "general-down": ({(0, 0, -64): 1, (0, 0, 0): 1}, {(0, 0, -64): 1, (63, 0, 0): 1}),
    "divide-last-field": ({(0, 0, -64): 1}, 3),
    "divide-first-field": ({(-64, 5, 0): 1}, 1),
}

SPILL_RUNNER = """
from ptolemy import InputError, LaurentPolynomial
for name, (left, right) in sorted(SPILLS.items()):
    p = LaurentPolynomial(3, left)
    try:
        p.divide_by_variable(right) if isinstance(right, int) else p * LaurentPolynomial(3, right)
    except InputError as exc:
        print(name, exc)
    else:
        print(name, "returned")
"""


class TestPackedRange:
    """Exponents -64..63 are stored; a constructor given, or an operation
    producing, any other exponent raises InputError."""

    @pytest.mark.parametrize("e", [63, -64])
    def test_extremes_round_trip(self, e):
        nv = 3
        exps = (e, 0, -1 - e)
        p = LaurentPolynomial(nv, {exps: 5})
        assert list(p.terms()) == [(exps, 5)]
        assert [p.min_exponent(i) for i in (1, 2, 3)] == list(exps)
        assert LaurentPolynomial.from_term_list(nv, p.to_term_list()) == p
        assert LaurentPolynomial.from_monomials(nv, [Monomial(5, exps)]) == p
        assert p.divide_by_variable(2).divide_by_variable(2) * LaurentPolynomial(
            nv, {(0, 2, 0): 1}
        ) == p

    @pytest.mark.parametrize("e", [64, -65])
    def test_out_of_range_rejected_by_every_constructor(self, e):
        nv = 3
        exps = (0, e, 0)
        with pytest.raises(InputError, match="leaves the range -64..63"):
            LaurentPolynomial(nv, {exps: 1})
        with pytest.raises(InputError, match="leaves the range -64..63"):
            LaurentPolynomial.from_term_list(nv, [{"coefficient": 1, "exponents": list(exps)}])
        with pytest.raises(InputError, match="leaves the range -64..63"):
            LaurentPolynomial.from_monomials(nv, [Monomial(1, exps)])

    def test_from_keys(self):
        nv = 2
        zero, units = packed_layout(nv)
        p = LaurentPolynomial.from_keys(nv, [zero + units[1], zero - units[2], zero + units[1]])
        assert list(p.terms()) == [((0, -1), 1), ((1, 0), 2)]
        for key in (zero + 64 * units[2], zero - 65 * units[1], -1, 1 << 16):
            with pytest.raises(InputError, match="leaves the range -64..63"):
                LaurentPolynomial.from_keys(nv, [zero, key])

    def test_from_keys_counts_only_repeated_keys(self):
        # Distinct keys take the one-pass route, a repeat the counting one:
        # both give the same terms and both range-check every key.
        nv = 2
        zero, units = packed_layout(nv)
        k, k2 = zero + units[1], zero - units[2]
        assert list(LaurentPolynomial.from_keys(nv, [k, k, k2]).terms()) == [
            ((0, -1), 1),
            ((1, 0), 2),
        ]
        assert list(LaurentPolynomial.from_keys(nv, [k, k2]).terms()) == [
            ((0, -1), 1),
            ((1, 0), 1),
        ]
        spilled = zero + 64 * units[2]
        for keys in ([k, spilled], [k, k, spilled], [spilled, spilled]):
            with pytest.raises(InputError, match="leaves the range -64..63"):
                LaurentPolynomial.from_keys(nv, keys)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_operation_leaving_the_range_raises(self, capsys, optimize):
        code = f"SPILLS = {SPILLS!r}\n{SPILL_RUNNER}"
        if optimize:
            out = run_optimized(code)
        else:
            exec(code, {})
            out = capsys.readouterr().out
        message = "an exponent of the result leaves the range -64..63"
        assert out.splitlines() == [f"{name} {message}" for name in sorted(SPILLS)]


@st.composite
def term_lists(draw):
    """A rank, and terms over it with exponents across the whole packed range,
    drawn from a few vectors so that terms merge and cancel."""
    nvars = draw(st.integers(min_value=1, max_value=40))
    exps = st.lists(st.integers(-64, 63), min_size=nvars, max_size=nvars).map(tuple)
    pool = draw(st.lists(exps, min_size=1, max_size=4))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-3, 3)), max_size=8))
    return nvars, terms


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(term_lists())
def test_serialization_matches_a_tuple_keyed_reference(case):
    nvars, terms = case
    reference = {}
    for exps, coeff in terms:
        reference[exps] = reference.get(exps, 0) + coeff
    ordered = [(exps, reference[exps]) for exps in sorted(reference) if reference[exps]]
    p = LaurentPolynomial(nvars, terms)
    assert list(p.terms()) == ordered
    assert p.render() == (" + ".join(render_term(c, e) for e, c in ordered) or "0")
    assert p.to_term_list() == [{"coefficient": c, "exponents": list(e)} for e, c in ordered]
    assert p._min_exponents() == tuple(map(min, zip(*(e for e, _ in ordered))))


def substituted_by_tuples(p, indices):
    """Reference for ``substitute_ones``: rebuild every exponent tuple with the
    given variables' entries zeroed, through the validating constructor."""
    zeroed = {i - 1 for i in indices}
    return LaurentPolynomial(
        p.nvars,
        ((tuple(0 if i in zeroed else e for i, e in enumerate(exps)), c) for exps, c in p.terms()),
    )


@pytest.mark.parametrize("nvars", [1, 2, 7, 8, 9, 16, 17, 51])
def test_substitute_ones_matches_the_tuple_route(nvars):
    """Terms drawn from a few base vectors, each varied only in the
    substituted fields, so that substitution merges them, and with
    coefficients of both signs, so that some merges cancel."""
    rng = random.Random(1000 + nvars)
    for _ in range(40):
        indices = rng.sample(range(1, nvars + 1), rng.randint(0, nvars))
        bases = [[rng.randint(-64, 63) for _ in range(nvars)] for _ in range(rng.randint(1, 3))]
        terms = []
        for _ in range(rng.randint(0, 12)):
            exps = list(rng.choice(bases))
            for i in indices:
                exps[i - 1] = rng.randint(-64, 63)
            terms.append((tuple(exps), rng.choice([1, -1, 2, -2, 10**30])))
        p = LaurentPolynomial(nvars, terms)
        got = p.substitute_ones(iter(indices))
        expected = substituted_by_tuples(p, indices)
        assert got == expected
        assert list(got.terms()) == list(expected.terms())
        assert got.render() == expected.render()
    assert LaurentPolynomial.zero(nvars).substitute_ones([1]) == LaurentPolynomial.zero(nvars)


def test_substitute_ones_cancels_merged_terms():
    p = LaurentPolynomial(3, {(1, 2, 0): 1, (1, -5, 0): -1, (0, 0, 1): 4})
    assert p.substitute_ones([2]) == LaurentPolynomial(3, {(0, 0, 1): 4})
    q = LaurentPolynomial(2, {(1, 1): 1, (1, -1): -1})
    assert q.substitute_ones([2]) == LaurentPolynomial.zero(2)


@pytest.mark.parametrize("index", [0, -1, 4])
def test_substitute_ones_range_error(index):
    p = LaurentPolynomial(3, {(1, 2, 0): 1})
    with pytest.raises(InputError, match=f"^variable index {index} out of range 1..3$"):
        p.substitute_ones([1, index])


@pytest.mark.parametrize("nvars", [1, 7, 8, 9, 16, 17, 51])
def test_render_agrees_with_render_term_on_both_routes(nvars):
    """Terms with every exponent in -1..1 are picked from a names list, any
    other term goes through ``render_term``; each ``wide`` exponent puts one
    term of the second kind among the first."""
    rng = random.Random(nvars)
    coefficients = [1, -1, 3, -3, 10**30, -(10**30)]
    for wide in (None, 2, -2, -64, 63):
        terms = [
            (tuple(rng.choice([-1, 0, 1]) for _ in range(nvars)), rng.choice(coefficients))
            for _ in range(40)
        ]
        terms.append(((0,) * nvars, rng.choice(coefficients)))
        if wide is not None:
            exps = list(terms[0][0])
            exps[rng.randrange(nvars)] = wide
            terms.append((tuple(exps), rng.choice(coefficients)))
        p = LaurentPolynomial(nvars, terms)
        assert len(p) > 1
        assert p.render() == " + ".join(render_term(c, e) for e, c in p.terms())
    for coefficient in coefficients:
        constant = LaurentPolynomial(nvars, [((0,) * nvars, coefficient)])
        assert constant.render() == str(coefficient)
    assert LaurentPolynomial.zero(nvars).render() == "0"


def test_render_of_a_deep_expansion_is_pinned():
    """SHA-256 of the 6765-term snake n=18 chord 3-13 expansion as rendered
    before ``render`` read key bytes; the bytes must not move."""
    text = expand(snake_triangulation(18), Arc(3, 13)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d67dccb85bf5edf5fd7fb50645a29c9c9ed30a53c7c500a17660718362fa0b9e"
    )


class TestMonomial:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(InputError):
            Monomial(0, (1, 0))


class TestTropical:
    def test_render(self):
        n = 3
        assert TropicalMonomial.from_labels(n, [4, 6]).render() == "x4*x6"
        assert TropicalMonomial.one(n).render() == "1"

    @pytest.mark.parametrize("label", [0, -1, 10])
    def test_label_out_of_range(self, label):
        with pytest.raises(InputError, match=f"^label {label} out of range 1..9$"):
            TropicalMonomial.from_labels(3, [4, label])

    def test_support_restricted_to_boundary(self):
        with pytest.raises(InputError):
            TropicalMonomial.from_labels(3, [2])
        with pytest.raises(InputError):
            TropicalMonomial(3, (0, 0, 0, -1, 0, 0, 0, 0, 0))
