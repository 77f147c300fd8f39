"""Exact sparse Laurent polynomials over x_1..x_m, plus min-tropical monomials.

A polynomial maps exponent vectors (length m, entries may be negative) to
nonzero integer coefficients.  Python integers are arbitrary precision, so
coefficient arithmetic is exact.  Normal form never stores a zero coefficient,
and serialization walks terms in lexicographic exponent order, which pins the
text rendering bit-for-bit.

Variable indices are 1-based throughout, matching the edge labels of the
polygon modules.

Each term is stored under one int key, its packed exponent vector (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The key has one 8-bit field per variable, x_1 in the
most significant field, and each field holds the exponent plus ``BIAS`` (64).
Exponents therefore run from ``MIN_EXPONENT`` (-64) to ``MAX_EXPONENT`` (63)
and fields from 0 to 127; the top bit of every field is a guard bit that no
stored key sets.  The fields are unsigned and x_1 leads, so integer order of
keys is lexicographic order of exponent vectors and sorting keys sorts terms.
A constructor given an exponent outside the range raises ``InputError``; there
is no second representation to fall back to.  Internal constructions call the
constructor with no terms and fill the key dictionary themselves; for empty
``terms`` it returns before testing for a ``Mapping``, an ABC check that runs
in Python.

Arithmetic never decodes a key.  The product of two terms has key
``k1 + k2 - zero``, where ``zero`` is the key of x^0, and multiplying by x_i^d
adds d times the unit of field i.  Every field of such a sum lies in -64..190,
a window narrower than a field, so a result field outside 0..127 sets its own
guard bit, or borrows from the field above and shows as 192..255, or makes the
whole key negative.  Products and ``divide_by_variable`` OR their keys together
once and raise ``InputError`` when that sets any bit outside the value fields.
Distinct exponent vectors in the window keep distinct keys, so a spilled key
never merges with the key of another vector.  Keys are decoded only at the
public boundaries: ``terms`` (and so ``to_term_list``) and ``evaluate``
unpack whole keys, ``substitute_ones`` masks fields, ``min_exponent``
reads one field with a shift and a mask, and ``_min_exponents`` (for the
denominator vector) takes each field's minimum over the keys' bytes, unsorted.
``render`` reads each key's bytes too.
Cluster variables only have exponents -1, 0 and 1, and a term whose fields
all hold one of those three is a selection from the names x1..xm followed by
x1^-1..xm^-1: two byte translations mark its fields of exponent 1 and -1, and
``itertools.compress`` picks the names.  Any other term is formatted by
``render_term``, the one formatter of a general exponent vector.

A product with a one-term operand ``k * x^m`` adds ``key(m) - zero`` to each
key of the other operand, with no merging: a shift by a fixed vector is
injective, so no two shifted terms meet, and a product of two nonzero
coefficients is nonzero, so the result is already in normal form.  Every
product of the exchange recursion has this shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import or_
from struct import Struct
from types import MappingProxyType

from .errors import InputError

Exponents = tuple[int, ...]

BIAS = 64
MIN_EXPONENT = -BIAS
MAX_EXPONENT = BIAS - 1
_FIELD_BITS = 8
_FIELD_MASK = 0xFF
# Field byte -> its exponent as a signed byte.
_SIGNED_EXPONENT = bytes((b - BIAS) & _FIELD_MASK for b in range(1 << _FIELD_BITS))
# Field bytes of the exponents -1, 0 and 1, and field byte -> 1 if its exponent
# is 1 (``_UP``) or -1 (``_DOWN``), else 0.
_UNIT_FIELDS = bytes(range(BIAS - 1, BIAS + 2))
_UP = bytes(b == BIAS + 1 for b in range(1 << _FIELD_BITS))
_DOWN = bytes(b == BIAS - 1 for b in range(1 << _FIELD_BITS))


@lru_cache(maxsize=None)
def packed_layout(nvars: int) -> tuple[int, Mapping[int, int]]:
    """The key of x^0, and the unit of each variable's field by index 1..nvars."""
    zero = int.from_bytes(bytes([BIAS]) * nvars, "big")
    units = {i: 1 << _FIELD_BITS * (nvars - i) for i in range(1, nvars + 1)}
    return zero, MappingProxyType(units)


@lru_cache(maxsize=None)
def _spill_mask(nvars: int) -> int:
    """Bits no valid key sets: the guard bits, all bits above x_1, and the sign."""
    return ~int.from_bytes(bytes([MAX_EXPONENT + BIAS]) * nvars, "big")


def _pack(exps: Iterable[int], nvars: int) -> int:
    exps = tuple(exps)
    if len(exps) != nvars:
        raise InputError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
    if min(exps) < MIN_EXPONENT or max(exps) > MAX_EXPONENT:
        raise InputError(
            f"exponent vector {exps} leaves the range {MIN_EXPONENT}..{MAX_EXPONENT}"
        )
    return int.from_bytes(bytes([e + BIAS for e in exps]), "big")


@lru_cache(maxsize=None)
def _signed_bytes(nvars: int) -> Struct:
    return Struct(f"{nvars}b")


def _unpack(key: int, nvars: int) -> Exponents:
    return _signed_bytes(nvars).unpack(key.to_bytes(nvars, "big").translate(_SIGNED_EXPONENT))


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


def _term_text(coefficient: int, product: str) -> str:
    """A term from its coefficient and its factors already joined by ``*``."""
    if not product:
        return str(coefficient)
    if coefficient == 1:
        return product
    return f"{coefficient}*{product}"


def render_term(coefficient: int, exponents: Exponents) -> str:
    return _term_text(coefficient, "*".join(render_factors(exponents)))


@dataclass(frozen=True)
class Monomial:
    """One term: a nonzero integer coefficient and an exponent vector."""

    coefficient: int
    exponents: Exponents

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise InputError("monomial coefficient must be nonzero")
        object.__setattr__(self, "exponents", tuple(self.exponents))

    def __str__(self) -> str:
        return render_term(self.coefficient, self.exponents)


class LaurentPolynomial:
    """Immutable-by-convention sparse Laurent polynomial, terms keyed by packed exponents."""

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = (),
    ) -> None:
        if nvars < 1:
            raise InputError(f"need at least one variable, got {nvars}")
        self.nvars = nvars
        if not terms:
            self._terms = {}
            return
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            key = _pack(exps, nvars)
            if coeff:
                data[key] = data.get(key, 0) + coeff
                if not data[key]:
                    del data[key]
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
        result = cls(nvars)
        zero, units = packed_layout(nvars)
        result._terms = {zero + units[index]: 1}
        return result

    @classmethod
    def from_monomials(cls, nvars: int, monomials: Iterable[Monomial]) -> "LaurentPolynomial":
        return cls(nvars, ((m.exponents, m.coefficient) for m in monomials))

    @classmethod
    def from_keys(cls, nvars: int, keys: Iterable[int]) -> "LaurentPolynomial":
        """Sum of the monomials with these packed keys (see ``packed_layout``), each
        with coefficient 1; a repeated key adds up."""
        result = cls(nvars)
        out = result._terms
        for key in keys:
            out[key] = out.get(key, 0) + 1
        return result._in_range()

    # --- ring operations ---------------------------------------------------

    def _check_rank(self, other: "LaurentPolynomial") -> None:
        if self.nvars != other.nvars:
            raise InputError(f"rank mismatch: {self.nvars} vs {other.nvars}")

    def _in_range(self) -> "LaurentPolynomial":
        """Self, once no key spills out of its fields (see the module docstring)."""
        if reduce(or_, self._terms, 0) & _spill_mask(self.nvars):
            raise InputError(
                f"an exponent of the result leaves the range {MIN_EXPONENT}..{MAX_EXPONENT}"
            )
        return self

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_rank(other)
        out = self._terms | other._terms
        for key in self._terms.keys() & other._terms.keys():
            acc = self._terms[key] + other._terms[key]
            if acc:
                out[key] = acc
            else:
                del out[key]
        result = LaurentPolynomial(self.nvars)
        result._terms = out
        return result

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_rank(other)
        zero, _ = packed_layout(self.nvars)
        for mono, poly in ((self, other), (other, self)):
            if len(mono._terms) == 1:
                ((key, k),) = mono._terms.items()
                return poly._shifted(key - zero, k)
        out: dict[int, int] = {}
        for k1, c1 in self._terms.items():
            base = k1 - zero
            for k2, c2 in other._terms.items():
                key = base + k2
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        result = LaurentPolynomial(self.nvars)
        result._terms = out
        return result._in_range()

    def _shifted(self, delta: int, k: int) -> "LaurentPolynomial":
        """k * x^m * self, where delta = key(m) - zero; already in normal form."""
        result = LaurentPolynomial(self.nvars)
        result._terms = {key + delta: coeff * k for key, coeff in self._terms.items()}
        return result._in_range()

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
        for key in sorted(self._terms):
            yield _unpack(key, self.nvars), self._terms[key]

    def _min_exponents(self) -> tuple[int, ...]:
        """Each variable's smallest exponent over all terms, read from the key
        bytes in one pass with no sort (empty for the zero polynomial)."""
        raws = [key.to_bytes(self.nvars, "big") for key in self._terms]
        return tuple(low - BIAS for low in map(min, zip(*raws)))

    def coefficients(self) -> list[int]:
        return [self._terms[key] for key in sorted(self._terms)]

    def min_exponent(self, index: int) -> int:
        """Smallest exponent of x_index over all terms (0 for the zero polynomial)."""
        if not 1 <= index <= self.nvars:
            raise InputError(f"variable index {index} out of range 1..{self.nvars}")
        if not self._terms:
            return 0
        shift = _FIELD_BITS * (self.nvars - index)
        return min(key >> shift & _FIELD_MASK for key in self._terms) - BIAS

    # --- transformations ------------------------------------------------------

    def divide_by_variable(self, index: int) -> "LaurentPolynomial":
        """Shift every term's exponent of x_index down by one (exact; raises
        ``InputError`` below the exponent range)."""
        if not 1 <= index <= self.nvars:
            raise InputError(f"variable index {index} out of range 1..{self.nvars}")
        _, units = packed_layout(self.nvars)
        return self._shifted(-units[index], 1)

    def substitute_ones(self, indices: Iterable[int]) -> "LaurentPolynomial":
        """Set the given variables to 1: one mask sets their fields of every
        key to exponent 0, and terms whose keys then meet merge."""
        nvars = self.nvars
        idx = set()
        for index in indices:
            if not 1 <= index <= nvars:
                raise InputError(f"variable index {index} out of range 1..{nvars}")
            idx.add(index - 1)
        zero, units = packed_layout(nvars)
        mask = _FIELD_MASK * sum(units[i + 1] for i in range(nvars) if i in idx)
        keep, fill = ~mask, zero & mask
        result = LaurentPolynomial(nvars)
        out = result._terms
        for key, coeff in self._terms.items():
            key = key & keep | fill
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return result

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a point with all coordinates nonzero."""
        if len(point) != self.nvars:
            raise InputError(f"point has {len(point)} coordinates, expected {self.nvars}")
        values = [Fraction(x) for x in point]
        if any(v == 0 for v in values):
            raise InputError("evaluation point must have nonzero coordinates")
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, _unpack(key, self.nvars)):
                if e:
                    term *= v**e
            total += term
        return total

    # --- serialization -------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        nvars = self.nvars
        names = [f"x{i}" for i in range(1, nvars + 1)]
        names += [f"{name}^-1" for name in names]
        terms = self._terms
        out = []
        for key in sorted(terms):
            raw = key.to_bytes(nvars, "big")
            if raw.translate(None, _UNIT_FIELDS):
                out.append(render_term(terms[key], _unpack(key, nvars)))
            else:
                mask = raw.translate(_UP) + raw.translate(_DOWN)
                out.append(_term_text(terms[key], "*".join(compress(names, mask))))
        return " + ".join(out)

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
        nvars = 2 * rank + 3
        exps = [0] * nvars
        for label in labels:
            if not 1 <= label <= nvars:
                raise InputError(f"label {label} out of range 1..{nvars}")
            exps[label - 1] += 1
        return cls(rank, tuple(exps))

    def render(self) -> str:
        factors = render_factors(self.exponents)
        return "*".join(factors) if factors else "1"

    def __str__(self) -> str:
        return self.render()
