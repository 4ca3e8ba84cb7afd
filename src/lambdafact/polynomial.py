"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from monomials to nonzero rational coefficients.  A
monomial is a tuple of (symbol, exponent) pairs, sorted by symbol name, with
every exponent >= 1; the empty tuple is the constant monomial.

A coefficient is stored as a plain int whenever it is integral and as a
Fraction only when its denominator exceeds 1.  Most family polynomials have
integer coefficients, and int arithmetic skips the gcd that every Fraction
operation runs.  Every operation that can turn a Fraction integral
normalises its result, so the representation stays canonical: equality is a
dict comparison and printing is deterministic.  Values leave the ring as
Fraction: evaluate, as_fraction and constant_term always return one.

Symbols are open-ended strings, which lets any number of parameters coexist
in one ring.  Values are immutable after construction and safe to share.

Only ring arithmetic, substitution, formal derivatives, and evaluation are
provided; there is deliberately no factorization or division of polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Monomial = tuple[tuple[str, int], ...]

# Coefficients live in Q: an int when integral, else a Fraction in lowest
# terms with a positive denominator.
Scalar = Union[int, Fraction]


def _scalar(c) -> Scalar:
    """c as a canonical coefficient: int if integral, else Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        if isinstance(c, int):
            return int(c)
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(sums: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """Drop zero sums and store integral Fractions as int."""
    return {
        m: (c.numerator if type(c) is Fraction and c.denominator == 1 else c)
        for m, c in sums.items()
        if c
    }


def _monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for sym, e in b:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items()))


def _degree_in(mono: Monomial, symset: frozenset[str]) -> int:
    return sum(e for s, e in mono if s in symset)


def _product(
    rows: Iterable[tuple[Monomial, Scalar, list[tuple[Monomial, Scalar]]]],
) -> Polynomial:
    """Sum of c1*c2 * m1*m2 over every row (m1, c1, right) and (m2, c2) in right."""
    out: dict[Monomial, Scalar] = {}
    get = out.get
    for m1, c1, right in rows:
        for m2, c2 in right:
            m = _monomial_mul(m1, m2)
            out[m] = get(m, 0) + c1 * c2
    return Polynomial._raw(_canonical(out))


class Polynomial:
    """Immutable element of Q[symbols] in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _scalar(coeff)
                if not c:
                    continue
                exps: dict[str, int] = {}
                for s, e in mono:
                    if e:
                        exps[s] = exps.get(s, 0) + int(e)
                key = tuple(sorted(exps.items()))
                data[key] = data.get(key, 0) + c
        self._terms = _canonical(data)

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar]) -> Polynomial:
        # Internal fast path: terms must already be canonical (zero-free,
        # integral coefficients stored as int).
        p = object.__new__(cls)
        p._terms = terms
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
        return cls._raw({(): c})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        if not name:
            raise ValueError("symbol name must be a nonempty string")
        return cls._raw({((name, 1),): 1})

    # ---- inspection ----

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def symbols(self) -> frozenset[str]:
        return frozenset(s for mono in self._terms for s, _ in mono)

    def degree(self, sym: str) -> int:
        """Highest power of sym; 0 if sym does not occur (also for 0)."""
        deg = 0
        for mono in self._terms:
            for s, e in mono:
                if s == sym and e > deg:
                    deg = e
        return deg

    def total_degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self._terms), default=0)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((), 0))

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; raises if symbols remain."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return Fraction(self._terms[()])
        raise ValueError(f"polynomial is not constant: {self}")

    def coefficient(self, sym: str, power: int) -> Polynomial:
        """Coefficient of sym**power, a polynomial in the other symbols."""
        out: dict[Monomial, Scalar] = {}
        for mono, c in self._terms.items():
            rest = tuple((s, e) for s, e in mono if s != sym)
            got = sum(e for s, e in mono if s == sym)
            if got == power:
                out[rest] = out.get(rest, 0) + c
        return Polynomial._raw(_canonical(out))

    def coefficients_in(self, sym: str) -> list[Polynomial]:
        """Split as sum of coefficients_in(sym)[j] * sym**j."""
        byp: dict[int, dict[Monomial, Scalar]] = {}
        for mono, c in self._terms.items():
            power = 0
            rest = []
            for s, e in mono:
                if s == sym:
                    power = e
                else:
                    rest.append((s, e))
            byp.setdefault(power, {})[tuple(rest)] = c
        top = max(byp, default=0)
        return [
            Polynomial._raw(byp.get(j, {}).copy()) for j in range(top + 1)
        ]

    # ---- ring arithmetic ----

    @staticmethod
    def _coerce(x: Polynomial | Scalar) -> Polynomial:
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction)):
            return Polynomial.constant(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
            if not c:
                return _ZERO
            return Polynomial._raw(
                _canonical({m: v * c for m, v in self._terms.items()})
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        right = list(other._terms.items())
        return _product((m1, c1, right) for m1, c1 in self._terms.items())

    __rmul__ = __mul__

    def _mul_capped(
        self, other: Polynomial, symset: frozenset[str], cap: int
    ) -> Polynomial:
        """self*other less every monomial whose degree in symset exceeds cap.

        No such monomial is formed: each term of self pairs only with the
        terms of other whose degree fits beside its own.
        """
        right = [(m, c, _degree_in(m, symset)) for m, c in other._terms.items()]
        return _product(
            (m1, c1, [(m2, c2) for m2, c2, d2 in right if d1 + d2 <= cap])
            for m1, c1 in self._terms.items()
            if (d1 := _degree_in(m1, symset)) <= cap
        )

    def _truncated(self, symset: frozenset[str], cap: int) -> Polynomial:
        """self less every monomial whose degree in symset exceeds cap."""
        return Polynomial._raw(
            {m: c for m, c in self._terms.items() if _degree_in(m, symset) <= cap}
        )

    def __truediv__(self, other: Scalar) -> Polynomial:
        # Scalar division only; the coefficient field is Q.
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

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
                result = result * base
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
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ---- calculus and substitution ----

    def derivative(self, sym: str) -> Polynomial:
        """Formal partial derivative with respect to sym."""
        out: dict[Monomial, Scalar] = {}
        for mono, c in self._terms.items():
            for i, (s, e) in enumerate(mono):
                if s != sym:
                    continue
                if e == 1:
                    rest = mono[:i] + mono[i + 1:]
                else:
                    rest = mono[:i] + ((s, e - 1),) + mono[i + 1:]
                out[rest] = out.get(rest, 0) + c * e
                break
        return Polynomial._raw(_canonical(out))

    def substitute(self, sym: str, value: Polynomial | Scalar) -> Polynomial:
        """Replace every occurrence of sym with value, fully expanded."""
        value = Polynomial._coerce(value)
        result = _ZERO
        powers: dict[int, Polynomial] = {0: _ONE, 1: value}

        def vpow(e: int) -> Polynomial:
            got = powers.get(e)
            if got is None:
                got = vpow(e - 1) * value
                powers[e] = got
            return got

        for mono, c in self._terms.items():
            e = 0
            rest = []
            for s, exp in mono:
                if s == sym:
                    e = exp
                else:
                    rest.append((s, exp))
            part = Polynomial._raw({tuple(rest): c})
            result = result + (part * vpow(e) if e else part)
        return result

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every symbol must be bound."""
        total = _F0
        for mono, c in self._terms.items():
            term = c
            for s, e in mono:
                if s not in bindings:
                    raise ValueError(f"no binding for symbol {s!r}")
                term *= Fraction(bindings[s]) ** e
            total += term
        return total

    # ---- rendering ----

    def _sort_key(self, dense_syms: tuple[str, ...]):
        def key(mono: Monomial):
            exps = dict(mono)
            dense = tuple(exps.get(s, 0) for s in dense_syms)
            return (-sum(dense), dense)
        return key

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        syms = tuple(sorted(self.symbols()))
        parts: list[str] = []
        for mono in sorted(self._terms, key=self._sort_key(syms)):
            c = self._terms[mono]
            body = "".join(
                s if e == 1 else f"{s}^{e}" for s, e in mono
            )
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
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"


_F0 = Fraction(0)
_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({(): 1})


def variables(*names: str) -> tuple[Polynomial, ...]:
    """Convenience: variables("x", "y") -> (x, y) as polynomials."""
    return tuple(Polynomial.variable(n) for n in names)
