"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from monomials to nonzero rational coefficients.  At
the public boundary a monomial is a tuple of (symbol, exponent) pairs,
sorted by symbol name, with every exponent >= 1; the empty tuple is the
constant monomial.  The constructor takes such tuples and terms() yields
them.

Inside, a monomial is one packed int.  Each symbol owns a field of _W bits,
handed out in the order the process first sees symbols, and the exponent of
the symbol sits in its field; the constant monomial is 0.  The package's own
symbols are first seen when `symbols` is imported, which builds their
variables, so they take the first slots in a fixed order.  Multiplying two
monomials is adding their keys.  Every exponent stays at or below
MAX_EXPONENT = 2**(_W-1) - 1, so the top bit of each field is a guard bit:
the sum of two keys never carries into the next field, and a product whose
exponent overflows sets a guard bit.  The guard is checked once per product
result and an overflow raises ValueError.  Keys depend on the order of first
sight, so they never leave the process: terms() and pickling decode them to
tuples, and str() reads each exponent field in symbol-name order.

Coefficients are fraction-free, as in FLINT's fmpq_poly: int numerators
over one positive denominator, coprime to their gcd, and zero over 1.  The
form is canonical, so equality compares numerators and denominator.  The
kernels add and multiply only ints, the one normaliser _normal drops zero
numerators and cancels the gcd, and arithmetic among integral polynomials
(denominator 1) makes no gcd or lcm call.  Scalars are ints and Fractions;
any other type is a TypeError, also as a binding of evaluate.  terms()
yields an int for an integral coefficient and a Fraction otherwise;
evaluate and as_fraction always return a Fraction.

Each operation pays only for the terms it combines: a zero side of a sum,
a product or a dot pair, and a single-term side of a product (a constant,
say), skip the general kernel _product, which only products of two
multi-term operands reach.  Tests check each path against a Fraction-only
reference.

Symbols are nonempty strings, any number of which coexist in one ring; a
name of another type, or the empty name, is a ValueError before it takes a
slot.  Values are immutable after construction and safe to share.

Only ring arithmetic, substitution, formal derivatives, and evaluation are
provided; there is deliberately no factorization or division of polynomials.
The helpers at the end serve the other layers.  `check_index` is the one
rule for every family index, series order and enumeration size in the
package: an int, not a bool, >= 0 and at most a cutoff where there is one,
else a ValueError that names the index.  The series layer also shares the
coercion `as_poly`, the running powers `powers`, the evaluation kernel
`evaluate_at` behind substitution, evaluate and series composition, the
sum of products `dot` behind every truncated product, exp and inverse, and
the term renderer `join_signed`; Polynomial.graded gives those kernels the
parts by total degree.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, lcm
from operator import index, or_
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[tuple[str, int], ...]

# A scalar of Q at the boundary: an int or a Fraction.
Scalar = Union[int, Fraction]

# ---- packed monomial keys ----

_W = 16
_MASK = (1 << _W) - 1
MAX_EXPONENT = (1 << (_W - 1)) - 1

# The slot table only grows, so a key made earlier keeps its meaning.
_SHIFT: dict[str, int] = {}  # symbol -> bit offset of its field
_NAMES: list[str] = []  # slot -> symbol
_guard = 0  # the top bit of every field handed out so far
_slot_lock = threading.Lock()


def _shift(sym: str) -> int:
    """Bit offset of sym's field, handing out the next slot on first sight."""
    shift = _SHIFT.get(sym)
    if shift is None:
        if not isinstance(sym, str) or not sym:
            raise ValueError(f"symbol name must be a nonempty string, got {sym!r}")
        global _guard
        with _slot_lock:
            shift = _SHIFT.get(sym)
            if shift is None:
                shift = len(_NAMES) * _W
                _NAMES.append(sym)
                _guard |= 1 << (shift + _W - 1)
                _SHIFT[sym] = shift
    return shift


def _encode(mono: Monomial) -> int:
    exps: dict[str, int] = {}
    for s, e in mono:
        e = index(e)
        if e < 0:
            raise ValueError(f"negative exponent {e} of {s!r} in a monomial")
        exps[s] = exps.get(s, 0) + e
    key = 0
    for s, e in exps.items():
        if e > MAX_EXPONENT:
            raise ValueError(f"exponent {e} of {s!r} exceeds {MAX_EXPONENT}")
        key |= e << _shift(s)  # also for e = 0, so that every name is checked
    return key


def _decode(key: int) -> Monomial:
    mono = []
    slot = 0
    while key:
        e = key & _MASK
        if e:
            mono.append((_NAMES[slot], e))
        key >>= _W
        slot += 1
    mono.sort()
    return tuple(mono)


def _scalar(c) -> Scalar:
    """c itself if it is an int or a Fraction; any other type is a TypeError."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(
        f"coefficient must be an int or a Fraction, not {type(c).__name__}"
    )


def _normal(terms: dict[int, int], den: int) -> Polynomial:
    """terms/den in canonical form: drop zero numerators, cancel gcd(den, content)."""
    if 0 in terms.values():
        terms = {m: c for m, c in terms.items() if c}
    if den > 1:
        g = gcd(den, *terms.values())
        if g > 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return Polynomial._raw(terms, den)


def _guarded(out: dict[int, int]) -> dict[int, int]:
    """out itself, unless a key of it has a guard bit set: an exponent overflowed."""
    if reduce(or_, out, 0) & _guard:
        raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
    return out


def _product(
    rows: Iterable[tuple[int, int, Iterable[tuple[int, int]]]], den: int
) -> Polynomial:
    """Sum of c1*c2/den * m1*m2 over every row (m1, c1, right) and (m2, c2) in
    right, where the c are int numerators."""
    out: dict[int, int] = {}
    get = out.get
    for m1, c1, right in rows:
        for m2, c2 in right:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return _normal(_guarded(out), den)


class Polynomial:
    """Immutable element of Q[symbols] in canonical form."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[int, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            c = _scalar(coeff)
            if c:
                key = _encode(mono)
                data[key] = data.get(key, 0) + c
        den = lcm(*(c.denominator for c in data.values()))
        p = _normal(
            {m: c.numerator * (den // c.denominator) for m, c in data.items()}, den
        )
        self._terms, self._den = p._terms, p._den

    @classmethod
    def _raw(cls, terms: dict[int, int], den: int) -> Polynomial:
        # Internal fast path: terms/den must already be canonical (packed
        # keys, nonzero int numerators, den >= 1 coprime to their content).
        p = object.__new__(cls)
        p._terms = terms
        p._den = den
        return p

    # ---- constructors ----

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def constant(cls, c: Scalar) -> Polynomial:
        c = _scalar(c)
        if not c:
            return _ZERO
        return cls._raw({0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        return cls._raw({1 << _shift(name): 1}, 1)

    # ---- inspection ----

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """(monomial, coefficient) pairs, each monomial decoded to a tuple and
        each coefficient an int when integral, else a Fraction."""
        den = self._den
        return (
            (_decode(m), Fraction(c, den) if c % den else c // den)
            for m, c in self._terms.items()
        )

    def symbols(self) -> frozenset[str]:
        return frozenset(s for s, _ in _decode(reduce(or_, self._terms, 0)))

    def mentions(self, sym: str) -> bool:
        """Whether sym occurs in some term: one test of its field, no decoding."""
        shift = _SHIFT.get(sym)
        return shift is not None and (reduce(or_, self._terms, 0) >> shift) & _MASK > 0

    def _split(self, sym: str) -> Iterator[tuple[int, int, Scalar]]:
        """(exponent of sym, key without sym, coefficient) for every term."""
        shift = _shift(sym)
        for m, c in self._terms.items():
            e = (m >> shift) & _MASK
            yield e, m - (e << shift), c

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; raises if symbols remain."""
        if self._terms.keys() <= {0}:
            return Fraction(self._terms.get(0, 0), self._den)
        raise ValueError(f"polynomial is not constant: {self}")

    def coefficients_in(self, sym: str) -> list[Polynomial]:
        """Split as sum of coefficients_in(sym)[j] * sym**j."""
        byp: dict[int, dict[int, int]] = {}
        for e, rest, c in self._split(sym):
            byp.setdefault(e, {})[rest] = c
        top = max(byp, default=0)
        return [_normal(byp.get(j, {}), self._den) for j in range(top + 1)]

    def graded(self, syms: Iterable[str], top: int) -> list[Polynomial]:
        """The parts of degree 0..top in syms; the terms above top are dropped."""
        check_index(top, "truncation order")  # below degree 0 nothing would be kept
        shifts = {_shift(s) for s in syms}
        parts: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for m, c in self._terms.items():
            d = sum((m >> shift) & _MASK for shift in shifts)
            if d <= top:
                parts[d][m] = c
        return [_normal(part, self._den) for part in parts]

    # ---- ring arithmetic ----

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        den = self._den
        if den != other._den:  # bring both sides to the lcm
            den = lcm(den, other._den)
            fa, fb = den // self._den, den // other._den
            out = {m: c * fa for m, c in self._terms.items()}
            get = out.get
            for mono, c in other._terms.items():
                out[mono] = get(mono, 0) + c * fb
            return _normal(out, den)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            if mono in out:  # only a key both sides hold needs an add
                c += out[mono]
                if not c:
                    del out[mono]
                    continue
            out[mono] = c
        return Polynomial._raw(out, 1) if den == 1 else _normal(out, den)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self).__add__(other)

    def _scale(self, num: int, den: int) -> Polynomial:
        """self * num/den for ints num and den >= 1."""
        terms = {m: c * num for m, c in self._terms.items()}
        den *= self._den
        return Polynomial._raw(terms, 1) if den == 1 and num else _normal(terms, den)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if type(other) is not Polynomial:  # isinstance of the ABC Fraction is slow
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            if not isinstance(other, Polynomial):
                return NotImplemented
        left, right, den = self._terms, other._terms, self._den * other._den
        if len(left) > 1 < len(right):
            right = list(right.items())
            return _product(((m1, c1, right) for m1, c1 in left.items()), den)
        if not left or not right:
            return _ZERO
        if len(left) == 1:  # the single term on the right
            left, right = right, left
        # Shifted keys stay apart and scaled numerators stay nonzero.
        ((m2, c2),) = right.items()
        out = _guarded({m1 + m2: c1 * c2 for m1, c1 in left.items()})
        return Polynomial._raw(out, 1) if den == 1 else _normal(out, den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Polynomial:
        # Scalar division only; the coefficient field is Q.
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = other.numerator, other.denominator
        if not num:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scale(den, num) if num > 0 else self._scale(-den, -num)

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError(f"negative exponent {k} for polynomial power")
        # Empty product convention: p**0 == 1 even for p == 0.
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = base if result is _ONE else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ---- equality / hashing ----

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # A constant hashes like its value, as == compares it with one.
        if self._terms.keys() <= {0}:
            return hash(self.as_fraction())
        return hash((frozenset(self._terms.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __reduce__(self):
        # Packed keys mean nothing in another process; rebuild from tuples.
        return Polynomial, (dict(self.terms()),)

    # ---- calculus and substitution ----

    def derivative(self, sym: str) -> Polynomial:
        """Formal partial derivative with respect to sym."""
        unit = 1 << _shift(sym)
        return _normal(
            {rest + (e - 1) * unit: c * e for e, rest, c in self._split(sym) if e},
            self._den,
        )

    def substitute(self, sym: str, value: Polynomial | Scalar) -> Polynomial:
        """Replace every occurrence of sym with value, fully expanded."""
        value = as_poly(value)
        coeffs = self.coefficients_in(sym)
        return evaluate_at(coeffs, value, coeffs[0])

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point, substituted in name order; all symbols bound."""
        p = self
        for s in sorted(self.symbols()):
            if s not in bindings:
                raise ValueError(f"no binding for symbol {s!r}")
            p = p.substitute(s, _scalar(bindings[s]))
        return p.as_fraction()

    # ---- rendering ----

    def __str__(self) -> str:
        # Exponents read off each key in name order; highest total degree first.
        names = sorted(self.symbols())
        shifts = [_SHIFT[s] for s in names]
        den = self._den
        rows = sorted((-sum(es), es, c) for m, c in self._terms.items()
                      for es in [tuple((m >> shift) & _MASK for shift in shifts)])
        return join_signed(
            (Fraction(c, den) if c % den else c // den,
             "".join(s if e == 1 else f"{s}^{e}" for s, e in zip(names, es) if e))
            for _, es, c in rows
        )

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"


_ZERO = Polynomial._raw({}, 1)
_ONE = Polynomial._raw({0: 1}, 1)


# ---- helpers shared with the other layers ----


def check_index(n: int, what: str, cap: int | None = None) -> None:
    """Raise ValueError, naming what, unless n is an int (not a bool) >= 0
    and at most cap, if one is given."""
    if type(n) is not int:
        raise ValueError(f"{what} must be an int, got {n!r}")
    if n < 0 or cap is not None and n > cap:
        raise ValueError(f"{what} must be {'>= 0' if cap is None else f'in 0..{cap}'}, got {n}")


def as_poly(x: Polynomial | Scalar) -> Polynomial:
    """x if it is a Polynomial, else the constant x; a float is a TypeError."""
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


def powers(base: Any) -> Iterator[Any]:
    """1, base, base**2, ...: each power after base is one product by base.

    The zeroth power is the polynomial 1 whatever base is, and base may be
    any value with a `*`, a TruncatedSeries say.  The stream never ends: zip
    it after the indices it serves, so that no unused power is formed.
    """
    yield _ONE
    power = base
    while True:
        yield power
        power = power * base


def dot(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p*q over the (p, q) pairs in one _product pass: no partial
    product or partial sum is built as a Polynomial.  Unless every pair is
    integral, each term of p is brought to the lcm of the pairs' denominators
    by one int multiply."""
    pairs = [
        (p._terms.items(), q._terms.items(), p._den * q._den)
        for p, q in pairs if p._terms and q._terms
    ]
    den = max((d for *_, d in pairs), default=1)
    if den == 1:
        rows = ((m1, c1, right) for left, right, _ in pairs for m1, c1 in left)
    else:
        den = lcm(*(d for *_, d in pairs))
        pairs = [(left, right, den // d) for left, right, d in pairs]
        rows = ((m1, c1 * f, right) for left, right, f in pairs for m1, c1 in left)
    return _product(rows, den)


def evaluate_at(coeffs: Sequence[Polynomial], value: Any, total: Any) -> Any:
    """total + sum of coeffs[j] * value**j over j >= 1, from running powers.

    This is the polynomial with coefficients coeffs at value, where total is
    coeffs[0] given value's type (a constant series for a series value).  A
    zero coefficient adds no term, though its power is still formed for the
    next one.
    """
    for c, power in zip(coeffs[1:], islice(powers(value), 1, None)):
        if c:
            total = total + c * power
    return total


def join_signed(terms: Iterable[tuple[Scalar, str]]) -> str:
    """Render (coefficient, body) pairs as "c1 b1 + c2 b2 - c3 b3"; "0" if none.

    A unit coefficient is left out unless the body is empty, an integral one
    is written against its body and a fraction apart from it; each sign after
    the first stands alone between the terms.
    """
    parts: list[str] = []
    for c, body in terms:
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        elif mag.denominator == 1:
            piece = f"{mag}{body}"
        else:
            piece = f"{mag} {body}"
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(parts) if parts else "0"
