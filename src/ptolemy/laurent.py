"""Exact sparse Laurent polynomials over x_1..x_m, plus min-tropical monomials.

A polynomial is a map from exponent tuples (length m, entries may be negative)
to nonzero integer coefficients.  Python integers are arbitrary precision, so
all arithmetic here is exact with no overflow concerns.  Normal form never
stores a zero coefficient, and serialization walks terms in lexicographic
exponent order, which pins the text rendering bit-for-bit.

Variable indices are 1-based throughout, matching the edge labels of the
polygon modules.

A product with a one-term, one-variable operand ``k * x_i^d`` is built by
shifting the i-th exponent of each term of the other operand, with no merging:
a shift by a fixed vector is injective, so no two shifted terms meet, and a
product of two nonzero coefficients is nonzero, so the result is already in
normal form.  Every product of the exchange recursion has this shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import InputError

Exponents = tuple[int, ...]


def render_factors(exponents: Exponents) -> list[str]:
    """Factor strings like x7 or x3^-1: positive powers first, ascending index."""
    pos = []
    neg = []
    for i, e in enumerate(exponents, start=1):
        if e > 0:
            pos.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        elif e < 0:
            neg.append(f"x{i}^{e}")
    return pos + neg


def render_term(coefficient: int, exponents: Exponents) -> str:
    factors = render_factors(exponents)
    if not factors:
        return str(coefficient)
    if coefficient == 1:
        return "*".join(factors)
    return "*".join([str(coefficient)] + factors)


@dataclass(frozen=True)
class Monomial:
    """One term: a nonzero integer coefficient and an exponent vector."""

    coefficient: int
    exponents: Exponents

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise InputError("monomial coefficient must be nonzero")
        object.__setattr__(self, "exponents", tuple(self.exponents))

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.nvars != other.nvars:
            raise InputError(f"rank mismatch: {self.nvars} vs {other.nvars}")
        return Monomial(
            self.coefficient * other.coefficient,
            tuple(map(add, self.exponents, other.exponents)),
        )

    def __str__(self) -> str:
        return render_term(self.coefficient, self.exponents)


class LaurentPolynomial:
    """Immutable-by-convention sparse Laurent polynomial."""

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = (),
    ) -> None:
        if nvars < 1:
            raise InputError(f"need at least one variable, got {nvars}")
        self.nvars = nvars
        data: dict[Exponents, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise InputError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if coeff:
                data[exps] = data.get(exps, 0) + coeff
                if not data[exps]:
                    del data[exps]
        self._terms = data

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "LaurentPolynomial":
        if not 1 <= index <= nvars:
            raise InputError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def from_monomials(cls, nvars: int, monomials: Iterable[Monomial]) -> "LaurentPolynomial":
        return cls(nvars, ((m.exponents, m.coefficient) for m in monomials))

    # --- ring operations ---------------------------------------------------

    def _check_rank(self, other: "LaurentPolynomial") -> None:
        if self.nvars != other.nvars:
            raise InputError(f"rank mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_rank(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        result = LaurentPolynomial(self.nvars)
        result._terms = out
        return result

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_rank(other)
        for mono, poly in ((self, other), (other, self)):
            if len(mono._terms) == 1:
                ((shift, k),) = mono._terms.items()
                moved = [i for i, d in enumerate(shift) if d]
                if len(moved) == 1:
                    (i,) = moved
                    return poly._shifted(i, shift[i], k)
        out: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(map(add, e1, e2))
                acc = out.get(exps, 0) + c1 * c2
                if acc:
                    out[exps] = acc
                else:
                    out.pop(exps, None)
        result = LaurentPolynomial(self.nvars)
        result._terms = out
        return result

    def _shifted(self, i: int, d: int, k: int) -> "LaurentPolynomial":
        """k * x_(i+1)^d * self, already in normal form (see the module docstring)."""
        result = LaurentPolynomial(self.nvars)
        result._terms = {
            exps[:i] + (exps[i] + d,) + exps[i + 1 :]: coeff * k
            for exps, coeff in self._terms.items()
        }
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None  # not hashable: holds a dict

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # --- accessors ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Terms in canonical (lexicographic exponent) order."""
        for exps in sorted(self._terms):
            yield exps, self._terms[exps]

    def coefficients(self) -> list[int]:
        return [coeff for _, coeff in self.terms()]

    def min_exponent(self, index: int) -> int:
        """Smallest exponent of x_index over all terms (0 for the zero polynomial)."""
        if not 1 <= index <= self.nvars:
            raise InputError(f"variable index {index} out of range 1..{self.nvars}")
        if not self._terms:
            return 0
        return min(exps[index - 1] for exps in self._terms)

    # --- transformations ------------------------------------------------------

    def divide_by_variable(self, index: int) -> "LaurentPolynomial":
        """Shift every term's exponent of x_index down by one; always exact."""
        if not 1 <= index <= self.nvars:
            raise InputError(f"variable index {index} out of range 1..{self.nvars}")
        return self._shifted(index - 1, -1, 1)

    def substitute_ones(self, indices: Iterable[int]) -> "LaurentPolynomial":
        """Set the given variables to 1: zero their exponents and merge terms."""
        idx = set()
        for index in indices:
            if not 1 <= index <= self.nvars:
                raise InputError(f"variable index {index} out of range 1..{self.nvars}")
            idx.add(index - 1)
        return LaurentPolynomial(
            self.nvars,
            (
                (tuple(0 if i in idx else e for i, e in enumerate(exps)), coeff)
                for exps, coeff in self._terms.items()
            ),
        )

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a point with all coordinates nonzero."""
        if len(point) != self.nvars:
            raise InputError(f"point has {len(point)} coordinates, expected {self.nvars}")
        values = [Fraction(x) for x in point]
        if any(v == 0 for v in values):
            raise InputError("evaluation point must have nonzero coordinates")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # --- serialization -------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(render_term(coeff, exps) for exps, coeff in self.terms())

    def to_term_list(self) -> list[dict]:
        return [
            {"coefficient": coeff, "exponents": list(exps)} for exps, coeff in self.terms()
        ]

    @classmethod
    def from_term_list(cls, nvars: int, items: Iterable[Mapping]) -> "LaurentPolynomial":
        return cls(
            nvars,
            ((tuple(item["exponents"]), int(item["coefficient"])) for item in items),
        )

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.nvars}, {self.render()!r})"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class TropicalMonomial:
    """Multiplicative monomial in the boundary variables x_{n+1}..x_{2n+3}.

    Exponents are stored as a full-length vector over all 2n+3 variables; the
    entries for diagonal labels must be zero and all exponents non-negative.
    The semifield addition is the componentwise minimum.
    """

    rank: int
    exponents: Exponents

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        nvars = 2 * self.rank + 3
        if len(self.exponents) != nvars:
            raise InputError(
                f"exponent vector has length {len(self.exponents)}, expected {nvars}"
            )
        if any(e < 0 for e in self.exponents):
            raise InputError("tropical exponents must be non-negative")
        if any(self.exponents[: self.rank]):
            raise InputError("tropical support is restricted to boundary variables")

    @classmethod
    def one(cls, rank: int) -> "TropicalMonomial":
        return cls(rank, (0,) * (2 * rank + 3))

    @classmethod
    def from_labels(cls, rank: int, labels: Iterable[int]) -> "TropicalMonomial":
        exps = [0] * (2 * rank + 3)
        for label in labels:
            exps[label - 1] += 1
        return cls(rank, tuple(exps))

    def tropical_add(self, other: "TropicalMonomial") -> "TropicalMonomial":
        """Componentwise minimum of exponents (the auxiliary addition)."""
        if self.rank != other.rank:
            raise InputError(f"rank mismatch: {self.rank} vs {other.rank}")
        return TropicalMonomial(
            self.rank, tuple(min(a, b) for a, b in zip(self.exponents, other.exponents))
        )

    def __mul__(self, other: "TropicalMonomial") -> "TropicalMonomial":
        if self.rank != other.rank:
            raise InputError(f"rank mismatch: {self.rank} vs {other.rank}")
        return TropicalMonomial(
            self.rank, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def render(self) -> str:
        factors = render_factors(self.exponents)
        return "*".join(factors) if factors else "1"

    def __str__(self) -> str:
        return self.render()
