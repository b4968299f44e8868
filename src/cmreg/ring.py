"""Immutable polynomials over F_p, the term order, and the text syntax.

Monomials are exponent tuples of fixed length n.  The term order used
everywhere is graded reverse lexicographic with x_1 > x_2 > ... > x_n:
higher total degree wins, and at equal degree the monomial whose
trailing exponents are smaller is the larger one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

DEFAULT_CHAR = 32003

Exponent = tuple[int, ...]
Term = tuple[Exponent, int]


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for every m < 3.3e24."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# exponent vector helpers


def exp_degree(a: Exponent) -> int:
    return sum(a)


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True when x^a divides x^b, i.e. a <= b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def revlex_key(a: Exponent) -> tuple:
    """Sort key realizing graded revlex: ascending key = ascending monomial."""
    return (sum(a), tuple(-x for x in reversed(a)))


# ---------------------------------------------------------------------------
# ring and polynomials


@dataclass(frozen=True)
class Ring:
    """A polynomial ring F_p[x_1..x_n] with named variables."""

    names: tuple[str, ...]
    p: int = DEFAULT_CHAR

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    @property
    def n(self) -> int:
        return len(self.names)

    @staticmethod
    def make(n: int, p: int = DEFAULT_CHAR) -> "Ring":
        return Ring(tuple(f"x{j}" for j in range(1, n + 1)), p)


def _normalize(ring: Ring, mapping: Mapping[Exponent, int]) -> tuple[Term, ...]:
    items = []
    for exp, c in mapping.items():
        c %= ring.p
        if c:
            if len(exp) != ring.n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {ring.n} variables")
            items.append((exp, c))
    items.sort(key=lambda t: revlex_key(t[0]), reverse=True)
    return tuple(items)


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial; terms kept sorted descending, so the leading
    term is terms[0]."""

    ring: Ring
    terms: tuple[Term, ...]

    @staticmethod
    def from_dict(ring: Ring, mapping: Mapping[Exponent, int]) -> "Polynomial":
        return Polynomial(ring, _normalize(ring, mapping))

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring, ())

    @staticmethod
    def monomial(ring: Ring, exp: Exponent, c: int = 1) -> "Polynomial":
        return Polynomial.from_dict(ring, {exp: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_exponent(self) -> Exponent:
        return self.leading_term()[0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(exp_degree(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        return len({exp_degree(e) for e, _ in self.terms}) <= 1

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        c = self.leading_term()[1]
        if c == 1:
            return self
        p = self.ring.p
        inv = pow(c, -1, p)
        # a unit mod p keeps every coefficient nonzero and the terms in order
        return Polynomial(self.ring, tuple((e, c0 * inv % p) for e, c0 in self.terms))

    def __str__(self) -> str:
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# text syntax: terms joined by + or -, each term a *-joined product of
# integer coefficients and var^exp factors, e.g.  x1^3*x3^2 - x2^4*x4


class ParseError(ValueError):
    """Input text rejected; message carries the offending position."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                return
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} at column {pos + 1}")
        pos = m.end()
        kind = m.lastgroup
        yield kind, m.group(kind), m.start(kind)
    return


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the term syntax into a polynomial over ring."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise ParseError("empty polynomial")
    index = {name: j for j, name in enumerate(ring.names)}
    acc: dict[Exponent, int] = {}
    i = 0
    sign = 1
    # leading sign
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1 if tokens[0][1] == "-" else 1
        i = 1
    while i < len(tokens):
        coeff = sign
        exp = [0] * ring.n
        expect_factor = True
        while i < len(tokens):
            kind, value, col = tokens[i]
            if kind == "num":
                coeff *= int(value)
                i += 1
            elif kind == "name":
                if value not in index:
                    raise ParseError(f"unknown variable {value!r} at column {col + 1}")
                e = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise ParseError(f"exponent expected after '^' at column {col + 1}")
                    e = int(tokens[i][1])
                    i += 1
                exp[index[value]] += e
            else:
                raise ParseError(f"factor expected at column {col + 1}")
            expect_factor = False
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                expect_factor = True
                continue
            break
        if expect_factor:
            raise ParseError("dangling '*' at end of term")
        e = tuple(exp)
        acc[e] = acc.get(e, 0) + coeff
        if i >= len(tokens):
            break
        kind, value, col = tokens[i]
        if kind != "op" or value not in "+-":
            raise ParseError(f"'+' or '-' expected at column {col + 1}")
        sign = -1 if value == "-" else 1
        i += 1
        if i >= len(tokens):
            raise ParseError("trailing sign without a term")
    return Polynomial.from_dict(ring, acc)


def _format_term(exp: Exponent, c: int, ring: Ring) -> str:
    factors = []
    for name, e in zip(ring.names, exp):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, str(c))
    return "*".join(factors)


def format_polynomial(f: Polynomial) -> str:
    """Render with balanced signs: coefficients above p/2 print as subtraction."""
    if f.is_zero:
        return "0"
    p = f.ring.p
    pieces = []
    for k, (exp, c) in enumerate(f.terms):
        negative = c > p - c
        mag = p - c if negative else c
        body = _format_term(exp, mag, f.ring)
        if k == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
