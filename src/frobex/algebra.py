"""Exact sparse polynomial arithmetic over prime fields.

A monomial is a tuple of nonnegative integer exponents, one slot per ring
variable.  A polynomial is a dict mapping monomials to nonzero coefficients
in [1, p-1].  Rings are lightweight descriptors (characteristic, variable
names, monomial order, optional grading) that build, combine and print
canonical polynomials.  Everything downstream reduces to this module, so it
stays small and dependency free.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

Mono = tuple[int, ...]

# Exponents are kept well inside machine range; Frobenius powers multiply
# exponents by p^e, so this is the guard that turns silent wraparound into a
# loud error.
MAX_EXPONENT = 2**31 - 1


class AlgebraError(Exception):
    """Base class for errors raised by the workbench."""


class RingMismatchError(AlgebraError):
    """Operands belong to different rings."""


class ExponentOverflowError(AlgebraError):
    """An exponent left the supported machine range."""


class ParseError(AlgebraError):
    """Polynomial text did not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # pickled out of a pool worker; the default would call cls(str(self))
        return type(self), (self.message, self.position)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p < 2^31."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31):
            raise AlgebraError(f"characteristic out of range: {self.p}")
        if not is_prime(self.p):
            raise AlgebraError(f"characteristic must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, -1, self.p)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a: Mono, b: Mono) -> Mono:
    """Exponent vector of a / b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_weighted_degree(m: Mono, weights: tuple[int, ...]) -> int:
    return sum(e * w for e, w in zip(m, weights))


def monomials_of_weighted_degree(nvars: int, degree: int,
                                 weights: tuple[int, ...]) -> list[Mono]:
    """All exponent tuples with the given weighted degree, ordered
    lexicographically.  Weights must be positive."""
    out: list[Mono] = []

    def rec(i: int, left: int, acc: list[int]):
        if i == nvars - 1:
            if left % weights[i] == 0:
                out.append(tuple(acc + [left // weights[i]]))
            return
        w = weights[i]
        for e in range(left // w + 1):
            rec(i + 1, left - e * w, acc + [e])

    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    rec(0, degree, [])
    return out


def _grevlex_key(m: Mono):
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_heap_key(m: Mono):
    return (-sum(m), m[::-1])


@functools.lru_cache(maxsize=256)
def _block_tail(block: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    """Indices outside a block, in order; computed once per (block, nvars)
    because block-order keys are taken on every Buchberger step."""
    inside = set(block)
    return tuple(i for i in range(nvars) if i not in inside)


def _block_key(block: tuple[int, ...], m: Mono):
    tail = _block_tail(block, len(m))
    return (_grevlex_key([m[i] for i in block]),
            _grevlex_key([m[i] for i in tail]))


def _block_heap_key(block: tuple[int, ...], m: Mono):
    # the two grevlex heap keys, flattened: tuples compare the same either way
    tail = _block_tail(block, len(m))
    head = tuple([m[i] for i in block])
    rest = tuple([m[i] for i in tail])
    return (-sum(head), head[::-1], -sum(rest), rest[::-1])


@dataclass(frozen=True)
class MonomialOrder:
    """Monomial order on exponent tuples.

    kind is one of "grevlex", "block".  A block order compares the
    projection onto ``block`` (a tuple of variable indices) by grevlex first,
    then the remaining variables by grevlex; this is an elimination order for
    the block variables.

    ``key(m)`` sorts monomials ascending in the order; ``heap_key(m)`` sorts
    them descending, so a min-heap on it pops the largest monomial first.
    Both are chosen once per order, when it is built.
    """

    kind: str = "grevlex"
    block: tuple[int, ...] = ()
    key: Callable[[Mono], object] = field(init=False, repr=False, compare=False)
    heap_key: Callable[[Mono], object] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        if self.kind == "grevlex":
            key, heap_key = _grevlex_key, _grevlex_heap_key
        elif self.kind == "block":
            if not self.block:
                raise AlgebraError("block order needs a nonempty variable block")
            key = functools.partial(_block_key, self.block)
            heap_key = functools.partial(_block_heap_key, self.block)
        else:
            raise AlgebraError(f"unknown monomial order: {self.kind}")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "heap_key", heap_key)


GREVLEX = MonomialOrder("grevlex")


# ---------------------------------------------------------------------------
# rings and polynomials

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class PolyRing:
    """Polynomial ring F_p[variables] with a fixed monomial order.

    An optional grading assigns a positive weight to each variable; when
    absent, graded operations fall back to the standard weights (all 1).
    """

    def __init__(self, field: PrimeField | int, variables, order: MonomialOrder | None = None,
                 grading=None):
        if isinstance(field, int):
            field = PrimeField(field)
        self.field = field
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise AlgebraError("duplicate variable names")
        for v in self.variables:
            if not _NAME_RE.match(v):
                raise AlgebraError(f"bad variable name: {v!r}")
        self.order = order if order is not None else GREVLEX
        if grading is not None:
            grading = tuple(int(w) for w in grading)
            if len(grading) != len(self.variables):
                raise AlgebraError("grading length does not match variables")
            if any(w <= 0 for w in grading):
                raise AlgebraError("grading weights must be positive")
        self.grading: tuple[int, ...] | None = grading

    # rings compare structurally so that handles from two loads of the same
    # spec interoperate
    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.field.p == other.field.p
                and self.variables == other.variables
                and self.order == other.order
                and self.grading == other.grading)

    def __hash__(self):
        return hash((self.field.p, self.variables, self.order, self.grading))

    def __repr__(self):
        return f"PolyRing(GF({self.field.p}), {list(self.variables)})"

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def weights(self) -> tuple[int, ...]:
        return self.grading if self.grading is not None else (1,) * self.nvars

    def zero_mono(self) -> Mono:
        return (0,) * self.nvars

    def poly(self, terms: dict) -> "Polynomial":
        """Build a polynomial from a mono->coefficient mapping, normalizing
        coefficients mod p and dropping zeros."""
        p = self.p
        n = self.nvars
        clean: dict[Mono, int] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise AlgebraError(f"monomial arity {len(mono)} != {n}")
            for e in mono:
                if e < 0:
                    raise AlgebraError("negative exponent")
                if e > MAX_EXPONENT:
                    raise ExponentOverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
            c %= p
            if c:
                clean[mono] = (clean.get(mono, 0) + c) % p
                if not clean[mono]:
                    del clean[mono]
        return Polynomial(self, clean)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if not c:
            return self.zero()
        return Polynomial(self, {self.zero_mono(): c})

    def gen(self, which) -> "Polynomial":
        """The variable given by index or name, as a polynomial."""
        if isinstance(which, str):
            which = self.variables.index(which)
        mono = tuple(1 if i == which else 0 for i in range(self.nvars))
        return Polynomial(self, {mono: 1})

    def gens(self) -> list["Polynomial"]:
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, mono: Mono, c: int = 1) -> "Polynomial":
        return self.poly({tuple(mono): c})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(self, text)

    def extended(self, extra: tuple[str, ...], order: MonomialOrder) -> "PolyRing":
        """Same coefficients with extra variables appended (used for tag and
        elimination constructions).  The extension drops the grading."""
        return PolyRing(self.field, self.variables + tuple(extra), order)


class Polynomial:
    """Immutable sparse polynomial; terms maps monomials to coefficients
    in [1, p-1].  Do not mutate terms after construction."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lead = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring, {m: (a * c) % p for m, a in self.terms.items()})
        self._check(other)
        p = self.ring.p
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    def leading_term(self) -> tuple[Mono, int]:
        """(monomial, coefficient) maximal for the ring order."""
        if not self.terms:
            raise AlgebraError("leading term of zero polynomial")
        if self._lead is None:
            key = self.ring.order.key
            self._lead = max(self.terms, key=key)
        return self._lead, self.terms[self._lead]

    def leading_monomial(self) -> Mono:
        return self.leading_term()[0]

    def monic(self) -> "Polynomial":
        _, c = self.leading_term()
        if c == 1:
            return self
        inv = self.ring.field.inv(c)
        p = self.ring.p
        return Polynomial(self.ring, {m: (a * inv) % p for m, a in self.terms.items()})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def weighted_degree(self) -> int:
        if not self.terms:
            return -1
        w = self.ring.weights
        return max(mono_weighted_degree(m, w) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        w = self.ring.weights
        degs = {mono_weighted_degree(m, w) for m in self.terms}
        return len(degs) == 1

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


def frobenius_raise(f: Polynomial, e: int) -> Polynomial:
    """f with every monomial exponent multiplied by p^e and every coefficient
    taken to the p^e-th power.  Over F_p the coefficient part is the identity
    (Fermat), but it is applied anyway so the definition reads off the page.
    This is the e-fold Frobenius applied to a polynomial term by term; it is
    deliberately not implemented as f**(p**e).
    """
    if e < 0:
        raise AlgebraError("Frobenius exponent must be >= 0")
    p = f.ring.p
    q = p**e
    out: dict[Mono, int] = {}
    for m, c in f.terms.items():
        mm = tuple(x * q for x in m)
        for x in mm:
            if x > MAX_EXPONENT:
                raise ExponentOverflowError(
                    f"Frobenius power p^{e} pushes exponent {max(m)} past {MAX_EXPONENT}")
        out[mm] = pow(c, q, p)
    return Polynomial(f.ring, out)


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[+\-*^()])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  expr := [sign] term ((+|-) term)*,
    term := factor (* factor)*, factor := int | var [^int] | (expr) [^int].
    """

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return poly

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                poly = poly - rhs if val == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                poly = poly * self.factor()
            else:
                return poly

    def exponent_if_any(self) -> int:
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k, v, pos = self.next()
            if k != "int":
                raise ParseError(f"expected integer exponent, found {v!r}", pos)
            e = int(v)
            if e > MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
            return e
        return 1

    def factor(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "int":
            return self.ring.constant(int(val))
        if kind == "name":
            if val not in self.ring.variables:
                raise ParseError(f"unknown variable {val!r}", pos)
            e = self.exponent_if_any()
            idx = self.ring.variables.index(val)
            mono = tuple(e if i == idx else 0 for i in range(self.ring.nvars))
            return self.ring.monomial(mono)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            e = self.exponent_if_any()
            return inner**e
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Parse polynomial text in the ring's variables.

    Grammar: sums of products of factors, where a factor is a nonnegative
    integer, a variable with optional ^exponent, or a parenthesized
    expression with optional ^exponent.  Multiplication is always explicit
    (2*x, not 2x).
    """
    if not text.strip():
        raise ParseError("empty polynomial text", 0)
    return _Parser(ring, text).parse()


def format_poly(f: Polynomial) -> str:
    """Canonical text form: terms in descending ring order, explicit '*',
    caret powers.  parse_poly(ring, format_poly(f)) == f."""
    if not f.terms:
        return "0"
    key = f.ring.order.key
    names = f.ring.variables
    parts = []
    for mono in sorted(f.terms, key=key, reverse=True):
        c = f.terms[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return "+".join(parts)

