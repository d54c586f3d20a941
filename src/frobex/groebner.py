"""Buchberger engine and ideal arithmetic over F_p.

The engine uses sugar-strategy pair selection with the coprimality and chain
criteria, full normal-form reduction, and produces the reduced (monic,
auto-reduced, sorted) Groebner basis, which is the canonical form behind
ideal equality tests everywhere else.  Intersection is built on a
tag-variable elimination.  For an ideal that is homogeneous under the
standard grading, the colon and the saturation by one linear form are read
off one reverse-lex basis in which that form is the last variable, and the
saturation by the maximal ideal takes one such basis per variable
(Bayer-Stillman).  Other colons take tag-variable eliminations, and other
saturations iterate colons.  Resource caps turn runaway computations into
explicit errors instead of hangs.

Ideals are IdealHandle objects: generator lists over an ambient polynomial
ring, optionally attached to a QuotientRing whose defining relations are
appended to every Groebner computation.  A handle keeps its generators and
its cached basis only.  Every Groebner run takes its caps from the
enclosing shared_bases() block (the library defaults outside any block), and
inside a block bases are shared between handles: a basis is built once per
order, characteristic, caps and generator list.  The block's memo holds the
linear frames of changed coordinates too, so they last exactly as long.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from . import linalg
from .algebra import (
    GREVLEX,
    AlgebraError,
    Mono,
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    frobenius_raise,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_weighted_degree,
    parse_poly,
)


class ResourceCapExceeded(AlgebraError):
    """A Groebner run hit the pair budget or the degree cap, or a
    saturation did not stabilize within its step limit."""

    def __init__(self, reason: str, stats: "GBStats"):
        super().__init__(reason)
        self.reason = reason
        self.stats = stats

    def __reduce__(self):
        # pickled out of a pool worker; the default would call cls(reason)
        return type(self), (self.reason, self.stats)


class ImproperIdealError(AlgebraError):
    """Operation needs a proper ideal but received the unit ideal."""


class NotZeroDimensionalError(AlgebraError):
    """Standard monomial enumeration needs a zero-dimensional ideal."""


@dataclass(frozen=True)
class GBConfig:
    """Resource limits for a single Buchberger run (see buchberger_basis)."""

    max_pairs: int = 50_000
    max_degree: int = 120


DEFAULT_GB_CONFIG = GBConfig()


@dataclass
class GBStats:
    """The work counts of one Buchberger run, which do not depend on the
    machine."""

    pairs_processed: int = 0
    zero_reductions: int = 0
    max_degree_seen: int = 0
    basis_size: int = 0


# ---------------------------------------------------------------------------
# low-level reduction on raw term dicts


def _terms_degree(terms: dict) -> int:
    if not terms:
        return -1
    return max(mono_degree(m) for m in terms)


def _nf_terms(fterms: dict, reducers: list, p: int, order: MonomialOrder) -> dict:
    """Full normal form of a term dict against reducers [(lm, terms), ...],
    as a term dict.  Every reducer must be monic with leading monomial lm.

    Work terms wait in a min-heap on order.heap_key, so each step pops the
    leading term in O(log n).  A term whose coefficient cancels stays in
    work at 0 until it is popped and skipped; as every new term lies below
    the popped one, each monomial enters the heap at most once.
    """
    heap_key = order.heap_key
    work = dict(fterms)
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Mono, int] = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lm, gterms in reducers:
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                for gm, gc in gterms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, shift)
                    old = work.get(t)
                    if old is None:
                        work[t] = (-coeff * gc) % p
                        heapq.heappush(heap, (heap_key(t), t))
                    else:
                        work[t] = (old - coeff * gc) % p
                break
        else:
            remainder[mono] = coeff
    return remainder


def _monic_terms(terms: dict, p: int, order: MonomialOrder) -> tuple[Mono, dict]:
    lm = max(terms, key=order.key)
    c = terms[lm]
    if c != 1:
        inv = pow(c, -1, p)
        terms = {m: (v * inv) % p for m, v in terms.items()}
    return lm, terms


def _spoly_terms(lm_i: Mono, f_i: dict, lm_j: Mono, f_j: dict, p: int) -> dict:
    lcm = mono_lcm(lm_i, lm_j)
    si = mono_div(lcm, lm_i)
    sj = mono_div(lcm, lm_j)
    out: dict[Mono, int] = {}
    for m, c in f_i.items():
        out[mono_mul(m, si)] = c
    for m, c in f_j.items():
        t = mono_mul(m, sj)
        v = (out.get(t, 0) - c) % p
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return out


def buchberger_basis(polys, order: MonomialOrder, p: int,
                     config: GBConfig = DEFAULT_GB_CONFIG):
    """Reduced Groebner basis of the given polynomials (as term dicts or
    Polynomial objects).  Returns (list of monic term dicts sorted by leading
    monomial, GBStats).  Raises ResourceCapExceeded when a cap trips; the
    degree cap bounds growth, past the largest input degree by max_degree.
    """
    polys = [f.terms if isinstance(f, Polynomial) else f for f in polys]
    top = max((_terms_degree(t) for t in polys if t), default=0)
    stats = GBStats(max_degree_seen=top)

    basis: list[dict] = []
    lms: list[Mono] = []
    sugars: list[int] = []
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def cap_degree(terms: dict):
        d = _terms_degree(terms)
        if d > stats.max_degree_seen:
            stats.max_degree_seen = d
        if d > top + config.max_degree:
            raise ResourceCapExceeded(
                f"degree cap exceeded: {d} > {top} + {config.max_degree}", stats)

    def push_pairs(j: int):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            sugar = mono_degree(lcm) + max(sugars[i] - mono_degree(lms[i]),
                                           sugars[j] - mono_degree(lms[j]))
            pending.add((i, j))
            heapq.heappush(heap, (sugar, order.key(lcm), i, j))

    def add_element(terms: dict, sugar: int):
        cap_degree(terms)
        lm, monic = _monic_terms(terms, p, order)
        basis.append(monic)
        lms.append(lm)
        sugars.append(sugar)
        push_pairs(len(basis) - 1)

    for terms in polys:
        if not terms:
            continue
        rem = _nf_terms(terms, list(zip(lms, basis)), p, order)
        if rem:
            add_element(rem, _terms_degree(terms))

    while pending:
        sugar, lcm_key, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        stats.pairs_processed += 1
        if stats.pairs_processed > config.max_pairs:
            raise ResourceCapExceeded(
                f"pair budget exhausted: {config.max_pairs}", stats)
        lcm = mono_lcm(lms[i], lms[j])
        # coprimality criterion: disjoint leading monomials reduce to zero
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # i and j were both already handled makes this pair redundant
        redundant = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not mono_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                redundant = True
                break
        if redundant:
            continue
        s = _spoly_terms(lms[i], basis[i], lms[j], basis[j], p)
        if not s:
            stats.zero_reductions += 1
            continue
        cap_degree(s)
        rem = _nf_terms(s, list(zip(lms, basis)), p, order)
        if not rem:
            stats.zero_reductions += 1
            continue
        add_element(rem, sugar)

    reduced = _reduce_basis(basis, lms, p, order)
    stats.basis_size = len(reduced)
    return reduced, stats


# (caps, memo) of the innermost shared_bases() block, None outside any block
_SHARED_BASES: contextvars.ContextVar[tuple[GBConfig, dict] | None] = \
    contextvars.ContextVar("frobex_shared_bases", default=None)


@contextlib.contextmanager
def shared_bases(caps: GBConfig = DEFAULT_GB_CONFIG):
    """Build every basis inside the block under ``caps``, and share reduced
    bases between handles until the outermost block exits.

    Inside the block, a basis is built once for each key (order, p, caps,
    generator term dicts in their given order); a repeat gets the stored
    basis and GBStats, exactly what a rebuild would return.  A run that
    hits a cap is not stored.  The memo also holds each linear_frame built
    in the block.  A nested block sets its own caps and uses the outermost
    block's memo.  Outside any block, bases are built under
    DEFAULT_GB_CONFIG and nothing is shared.
    """
    outer = _SHARED_BASES.get()
    token = _SHARED_BASES.set((caps, {} if outer is None else outer[1]))
    try:
        yield
    finally:
        _SHARED_BASES.reset(token)


def caps_in_force() -> GBConfig:
    """The caps of the enclosing shared_bases() block, or the defaults."""
    block = _SHARED_BASES.get()
    return DEFAULT_GB_CONFIG if block is None else block[0]


def _basis(polys, order: MonomialOrder, p: int):
    """buchberger_basis(polys, order, p, caps) under the caps of the
    enclosing shared_bases() block, through its memo when there is one."""
    block = _SHARED_BASES.get()
    if block is None:
        return buchberger_basis(polys, order, p, DEFAULT_GB_CONFIG)
    caps, memo = block
    terms = [f.terms if isinstance(f, Polynomial) else f for f in polys]
    key = (order, p, caps, tuple(frozenset(t.items()) for t in terms))
    found = memo.get(key)
    if found is None:
        found = memo[key] = buchberger_basis(terms, order, p, caps)
    return found


def _reduce_basis(basis: list[dict], lms: list[Mono], p: int,
                  order: MonomialOrder) -> list[dict]:
    """Minimalize by leading-monomial divisibility, then tail-reduce; the
    result is the reduced Groebner basis, unique for the order."""
    keep: list[int] = []
    for i, lm in enumerate(lms):
        dominated = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if mono_divides(other, lm) and (other != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    chosen = [(lms[i], basis[i]) for i in keep]
    chosen.sort(key=lambda pair: order.key(pair[0]))
    for idx, (lm, terms) in enumerate(chosen):
        others = [chosen[k] for k in range(len(chosen)) if k != idx]
        rem = _nf_terms(terms, others, p, order)
        _, monic = _monic_terms(rem, p, order)
        chosen[idx] = (lm, monic)
    return [terms for _, terms in chosen]


def spairs_reduce_to_zero(gb_terms: list[dict], p: int,
                          order: MonomialOrder) -> tuple[bool, tuple[int, int] | None]:
    """Buchberger criterion audit: every S-polynomial of the basis must have
    normal form zero.  Returns (ok, first offending pair)."""
    lms = [max(t, key=order.key) for t in gb_terms]
    reducers = list(zip(lms, gb_terms))
    for i in range(len(gb_terms)):
        for j in range(i + 1, len(gb_terms)):
            s = _spoly_terms(lms[i], gb_terms[i], lms[j], gb_terms[j], p)
            rem = _nf_terms(s, reducers, p, order)
            if rem:
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# ideal handles and quotient rings


class IdealHandle:
    """An ideal given by generators over an ambient polynomial ring.

    When ``ring`` is a QuotientRing R = S/J the handle denotes the preimage
    ideal (own generators) + J in the ambient S; the quotient's relations are
    appended automatically in every Groebner computation, so membership and
    equality are those of the quotient ring.  The reduced basis is computed
    once and cached, under the caps of the shared_bases() block in force
    when it is first asked for, and so is its reducer list for normal
    forms.  Inside a block (every CLI command runs in one), a fresh handle
    with the same generators, order and caps as an earlier one gets that
    basis without a rebuild; a pooled task of frobenius.map_tasks goes
    through its worker's memo instead, which starts empty and is shared by
    the tasks that worker runs for one map, under the caller's caps.  The
    results are identical either way.
    """

    def __init__(self, ring, gens=()):
        if isinstance(ring, QuotientRing):
            self._quotient: QuotientRing | None = ring
            self._ambient = ring.ambient
        elif isinstance(ring, PolyRing):
            self._quotient = None
            self._ambient = ring
        else:
            raise AlgebraError(f"not a ring: {ring!r}")
        own: list[Polynomial] = []
        for g in gens:
            if isinstance(g, str):
                g = parse_poly(self._ambient, g)
            if not isinstance(g, Polynomial):
                raise AlgebraError(f"not a polynomial: {g!r}")
            if g.ring != self._ambient:
                raise RingMismatchError("generator from a different ring")
            if g:
                own.append(g)
        self.own_gens: tuple[Polynomial, ...] = tuple(own)
        self._gb: tuple[Polynomial, ...] | None = None
        self._reducers: tuple[tuple[Mono, dict], ...] | None = None
        self._stats: GBStats | None = None

    @property
    def ring(self):
        return self._quotient if self._quotient is not None else self._ambient

    @property
    def ambient(self) -> PolyRing:
        return self._ambient

    @property
    def quotient(self):
        return self._quotient

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """Own generators plus the quotient relations, in the ambient ring."""
        if self._quotient is None:
            return self.own_gens
        return self.own_gens + self._quotient.relations.own_gens

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            terms, stats = _basis(self.generators, self._ambient.order,
                                  self._ambient.p)
            self._gb = tuple(Polynomial(self._ambient, t) for t in terms)
            self._stats = stats
        return self._gb

    def reducers(self) -> tuple[tuple[Mono, dict], ...]:
        """The reduced basis as the (leading monomial, terms) pairs that
        _nf_terms reduces by, built once per handle."""
        gb = self.groebner_basis()
        if self._reducers is None:
            self._reducers = tuple((g.leading_monomial(), g.terms) for g in gb)
        return self._reducers

    @property
    def gb_stats(self) -> GBStats | None:
        return self._stats

    def normal_form(self, f) -> Polynomial:
        if isinstance(f, str):
            f = parse_poly(self._ambient, f)
        if f.ring != self._ambient:
            raise RingMismatchError("polynomial from a different ring")
        rem = _nf_terms(f.terms, self.reducers(), self._ambient.p, self._ambient.order)
        return Polynomial(self._ambient, rem)

    def contains(self, f) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.generators)

    def is_proper(self) -> bool:
        gb = self.groebner_basis()
        return not any(mono_degree(g.leading_monomial()) == 0 for g in gb)

    def equals(self, other: "IdealHandle") -> bool:
        if self._ambient != other._ambient:
            raise RingMismatchError("ideals over different ambient rings")
        return self.groebner_basis() == other.groebner_basis()

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.own_gens) or "0"
        return f"Ideal({inside})"


def _known_basis(ring, basis) -> IdealHandle:
    """A handle on ring whose own generators are basis, given as the
    reduced Groebner basis of those generators and ring's relations, which
    the handle caches as its own without a Buchberger run."""
    handle = IdealHandle(ring, basis)
    handle._gb = handle.own_gens
    return handle


class QuotientRing:
    """R = S/J for a polynomial ring S and proper ideal J (possibly zero).

    The maximal ideal is always the image of (all variables); rings here are
    graded-local by convention.  Krull dimension is computed at construction.
    """

    def __init__(self, ambient: PolyRing, relations=(), label: str = ""):
        self.ambient = ambient
        self.relations = IdealHandle(ambient, relations)
        if not self.relations.is_proper():
            raise ImproperIdealError("relations generate the unit ideal")
        self.label = label
        self.dim = dimension(self.relations)

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ambient.variables

    @property
    def grading(self):
        return self.ambient.grading

    def maximal_ideal(self) -> IdealHandle:
        return IdealHandle(self, self.ambient.gens())

    def parse(self, text: str) -> Polynomial:
        return parse_poly(self.ambient, text)

    def __eq__(self, other):
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.relations.groebner_basis() == other.relations.groebner_basis())

    def __hash__(self):
        return hash((self.ambient, self.relations.groebner_basis()))

    def __repr__(self):
        rel = ", ".join(str(g) for g in self.relations.own_gens)
        base = f"GF({self.p})[{', '.join(self.variables)}]"
        return f"{base}/({rel})" if rel else base


def ideal(ring, *gens) -> IdealHandle:
    """Convenience constructor; generators may be Polynomial or str."""
    if len(gens) == 1 and isinstance(gens[0], (list, tuple)):
        gens = tuple(gens[0])
    return IdealHandle(ring, gens)


def ring_fingerprint(R: QuotientRing) -> str:
    rel = ",".join(str(g) for g in R.relations.groebner_basis())
    return f"GF({R.p})[{','.join(R.variables)}]/({rel})"


# ---------------------------------------------------------------------------
# elimination-based operations


def fresh_names(existing, base: str, count: int) -> list[str]:
    taken = set(existing)
    out = []
    i = 0
    while len(out) < count:
        name = f"{base}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


def _append_tag(terms: dict, tag_exp: int) -> dict:
    return {m + (tag_exp,): c for m, c in terms.items()}


def intersect(I: IdealHandle, K: IdealHandle) -> IdealHandle:
    """I cap K via the tag construction t*I + (1-t)*K, eliminating t."""
    if I.ambient != K.ambient:
        raise RingMismatchError("ideals over different ambient rings")
    ring = I.ambient
    tag = fresh_names(ring.variables, "t", 1)
    n = ring.nvars
    tagged = ring.extended(tuple(tag), MonomialOrder("block", (n,)))
    gens = []
    for g in I.generators:
        gens.append(Polynomial(tagged, _append_tag(g.terms, 1)))
    for g in K.generators:
        gens.append(Polynomial(tagged, _append_tag(g.terms, 0))
                    - Polynomial(tagged, _append_tag(g.terms, 1)))
    work = IdealHandle(tagged, gens)
    gb = work.groebner_basis()
    out = []
    for g in gb:
        if all(m[n] == 0 for m in g.terms):
            out.append(Polynomial(ring, {m[:n]: c for m, c in g.terms.items()}))
    home = I.ring if (I.quotient is not None and I.quotient == K.quotient) else ring
    return IdealHandle(home, out)


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """The quotient g/f when f divides g exactly; raises otherwise."""
    if g.ring != f.ring:
        raise RingMismatchError("polynomials from different rings")
    if f.is_zero():
        raise AlgebraError("division by zero polynomial")
    ring, p = g.ring, g.ring.p
    lm, c = f.leading_term()
    inv = ring.field.inv(c)
    rest, quotient = dict(g.terms), {}
    while rest:
        # while f divides g, the rest is a multiple of f, led by a multiple of lm
        mono = max(rest, key=ring.order.key)
        if not mono_divides(lm, mono):
            raise AlgebraError("not an exact polynomial division")
        shift = mono_div(mono, lm)
        a = quotient[shift] = rest[mono] * inv % p
        for fm, fc in f.terms.items():
            t = mono_mul(fm, shift)
            v = (rest.get(t, 0) - a * fc) % p
            if v:
                rest[t] = v
            else:
                rest.pop(t, None)
    return Polynomial(ring, quotient)


def colon(I: IdealHandle, K: IdealHandle) -> IdealHandle:
    """The colon ideal (I : K) = {r : r*K inside I}, over the same ring.

    When K's own generators are one linear form and I is homogeneous under
    the standard grading (quotient relations included), the colon is read
    off one reverse-lex basis; see _colon_by_linear_form.  Otherwise each
    (I : f) for f among K's own generators is I cap (f), divided by f, from
    a tag-variable elimination, and the pieces are intersected; see
    _colon_by_elimination.
    """
    if I.ambient != K.ambient:
        raise RingMismatchError("ideals over different ambient rings")
    if _linear_form_applies(I, K):
        gens, _ = _colon_by_linear_form(I, K.own_gens[0], saturate=False)
        return IdealHandle(I.ring, gens)
    return _colon_by_elimination(I, K)


def _colon_by_elimination(I: IdealHandle, K: IdealHandle) -> IdealHandle:
    """(I : K) from one tag-variable elimination per own generator of K;
    the general path of colon and the oracle its fast path is tested
    against."""
    ring = I.ambient
    divisors = [g for g in K.own_gens if g]
    if not divisors:
        # (I : 0) is the whole ring
        return IdealHandle(I.ring, [ring.one()])
    result: IdealHandle | None = None
    for f in divisors:
        principal = IdealHandle(ring, [f])
        inter = intersect(IdealHandle(ring, I.generators), principal)
        quotient_gens = [exact_divide(h, f) for h in inter.own_gens]
        piece = IdealHandle(I.ring, quotient_gens)
        if result is None:
            result = piece
        else:
            result = intersect(result, piece)
            result = IdealHandle(I.ring, result.own_gens)
    return result


SATURATION_MAX_STEPS = 200


def saturation(I: IdealHandle, K: IdealHandle) -> tuple[IdealHandle, int]:
    """Stable colon (I : K^infinity) along with the stabilization exponent s,
    the least s with (I : K^s) = (I : K^(s+1)).

    When the grading is standard and I is homogeneous (quotient relations
    included), two kinds of K are read off reverse-lex bases
    (Bayer-Stillman): one linear form as K's own generators takes one basis,
    see _colon_by_linear_form, and the maximal ideal (K's reduced basis is
    the variables) takes one basis per variable, see
    _saturation_by_variables.  Everything else goes through the iterated
    colons of _saturation_by_colons.  Every path raises ResourceCapExceeded
    when s would reach SATURATION_MAX_STEPS.
    """
    ring = I.ambient
    if _linear_form_applies(I, K):
        gens, s = _colon_by_linear_form(I, K.own_gens[0], saturate=True)
        if s >= SATURATION_MAX_STEPS:
            raise ResourceCapExceeded(
                f"saturation did not stabilize within {SATURATION_MAX_STEPS} steps",
                GBStats())
        return (IdealHandle(I.ring, gens) if s else I), s
    if K.ambient == ring and _is_graded(I) and _is_maximal_ideal(K):
        return _saturation_by_variables(I)
    return _saturation_by_colons(I, K)


def is_linear_form(f: Polynomial) -> bool:
    """Whether f is a nonzero form of degree 1 in the ambient variables."""
    return bool(f.terms) and all(mono_degree(m) == 1 for m in f.terms)


def _is_graded(I: IdealHandle) -> bool:
    """Whether I, quotient relations included, is homogeneous under the
    standard grading."""
    return (all(w == 1 for w in I.ambient.weights)
            and all(g.is_homogeneous() for g in I.generators))


def _linear_form_applies(I: IdealHandle, K: IdealHandle) -> bool:
    """Whether K's own generators are one linear form and I is graded, so
    that (I : K) and (I : K^infinity) come from _colon_by_linear_form."""
    return (K.ambient == I.ambient and len(K.own_gens) == 1
            and is_linear_form(K.own_gens[0]) and _is_graded(I))


def _is_maximal_ideal(K: IdealHandle) -> bool:
    """Whether K's reduced basis is the variables of its ambient ring."""
    gb = K.groebner_basis()
    return (len(gb) == K.ambient.nvars > 0
            and all(len(g.terms) == 1 and mono_degree(g.leading_monomial()) == 1
                    for g in gb))


def _linear_substitution(images: list, ring: PolyRing) -> Callable[[dict], dict]:
    """The map on term dicts that replaces each variable x_j by the linear
    form images[j], a term dict.  A variable whose image is a variable is
    moved there, and the other images are multiplied in.  Over F_p a p-th
    power raises term by term, so x_j^a is built from x_j^(a/p) when p
    divides a, and a bracket power sum c*x^q costs no more than its form."""
    p, n = ring.p, ring.nvars
    moved = {j: next(iter(img)).index(1) for j, img in enumerate(images)
             if list(img.values()) == [1]}

    @functools.cache
    def power(j: int, a: int) -> Polynomial:
        if a % p:
            return (power(j, a - 1) if a > 1 else ring.one()) * Polynomial(ring, images[j])
        return frobenius_raise(power(j, a // p), 1)

    def substitute(terms: dict) -> dict:
        out: dict[Mono, int] = {}
        for m, c in terms.items():
            base = [0] * n
            for j, k in moved.items():
                base[k] = m[j]
            term = {tuple(base): c}
            for j, a in enumerate(m):
                if a and j not in moved:
                    term = (Polynomial(ring, term) * power(j, a)).terms
            for t, v in term.items():
                out[t] = (out.get(t, 0) + v) % p
        return {t: v for t, v in out.items() if v}
    return substitute


def linear_frame(ring: PolyRing, forms: tuple) -> tuple[Callable[[dict], dict], ...]:
    """(forward, back): the maps on term dicts to the frame whose last
    variables are the linear forms, in order, that do not depend on those
    before them, and back.  The other variables come first, in the ring's
    order.  Each form is reduced on the pivots of the forms kept before it;
    its pivot, which the frame drops, is the last variable of the reduced
    form, and the form is divided by that coefficient.  So a frame of one
    form drops its last variable, and a frame of variables is a reindexing.
    A form with a term of degree other than 1 raises AlgebraError; the zero
    form, like any dependent one, is skipped.
    Frames recur (the same element saturates tower after tower), so inside
    a shared_bases() block the maps are built once and kept in its memo,
    each with every power it has built; outside a block they are built
    afresh."""
    block = _SHARED_BASES.get()
    key = ("frame", ring, forms)  # a basis key has four entries
    if block is not None and key in block[1]:
        return block[1][key]
    n, p = ring.nvars, ring.p
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    pivots: list[tuple[int, list[int]]] = []  # (pivot, reduced form)
    rows: list[list[int]] = []
    for ell in forms:
        if any(mono_degree(m) != 1 for m in ell.terms):
            raise AlgebraError(f"a frame needs linear forms, not {ell}")
        row = reduced = [ell.terms.get(u, 0) for u in units]
        for k, other in pivots:
            c = reduced[k]
            reduced = [(a - c * b) % p for a, b in zip(reduced, other)]
        if any(reduced):
            k = max(j for j in range(n) if reduced[j])
            inv = pow(reduced[k], -1, p)
            pivots.append((k, [a * inv % p for a in reduced]))
            rows.append([a * inv % p for a in row])
    dropped = {k for k, _ in pivots}
    y_of_x = [list(units[j]) for j in range(n) if j not in dropped] + rows
    inverse, _ = linalg.rref([r + list(u) for r, u in zip(y_of_x, units)], p)
    x_of_y = inverse[:, n:].tolist()
    frame = tuple(_linear_substitution([{u: c for u, c in zip(units, r) if c} for r in m], ring)
                  for m in (x_of_y, y_of_x))
    if block is not None:
        block[1][key] = frame
    return frame


def _framed_basis(I: IdealHandle, forms: tuple):
    """(forward, back, reducers): the maps of linear_frame(ring, forms), phi
    and its inverse, and the reduced grevlex basis of phi(g) for I's
    generators g, quotient relations included, as the (leading monomial,
    terms) pairs that _nf_terms reduces by.  The basis is built through
    _basis, so the memo and the caps in force apply; when the frame is the
    identity of a grevlex ring, that is the memo entry of I's own basis."""
    ring = I.ambient
    forward, back = linear_frame(ring, forms)
    basis, _ = _basis([forward(g.terms) for g in I.generators], GREVLEX, ring.p)
    return forward, back, [(max(t, key=GREVLEX.key), t) for t in basis]


def _colon_by_linear_form(I: IdealHandle, ell: Polynomial,
                          saturate: bool) -> tuple[list[Polynomial], int]:
    """Generators of (I : ell), or of (I : ell^infinity) when saturate is
    set, over I's ambient ring, and the stabilization exponent s of
    (I : ell^infinity).  I must be homogeneous under the standard grading
    and ell a linear form.

    _framed_basis gives the reduced grevlex basis of I in coordinates
    where ell is the last variable y.  There a form is divisible by y^a
    exactly when its leading monomial is (Bayer-Stillman; Eisenbud,
    Prop. 15.12).  So dividing each basis element by y once, where it can,
    gives a basis of (I : ell), and by its full power of y a basis of
    (I : ell^infinity); the largest such power is s, since the reduced
    basis's leading monomials generate the initial ideal minimally.
    """
    _, back, basis = _framed_basis(I, (ell,))
    powers = [min(m[-1] for m in terms) for _, terms in basis]
    gens = []
    for (_, terms), a in zip(basis, powers):
        if not saturate:
            a = min(a, 1)
        gens.append(Polynomial(I.ambient,
                               back({m[:-1] + (m[-1] - a,): c for m, c in terms.items()})))
    return gens, max(powers, default=0)


def _saturation_by_variables(I: IdealHandle) -> tuple[IdealHandle, int]:
    """(I : m^infinity) and its exponent for homogeneous I under the
    standard grading (Bayer-Stillman; Eisenbud, Prop. 15.12).

    (I : m^infinity) is the intersection over the variables x_i of the
    (I : x_i^infinity), each from one reverse-lex basis in which x_i is the
    last variable (_colon_by_linear_form); a piece that contains the running
    intersection, or lies inside it, needs no tag elimination.  When no
    basis element has an x_i factor, (I : x_i^infinity) = I, hence
    (I : m^infinity) = I and s = 0.  Otherwise s is the largest, over the
    saturation's reduced basis, of the least k with m^k * g inside I.  The
    variables are taken from the last one down, so that a grevlex ring
    starts from the basis of I it has cached.
    """
    ring = I.ambient
    pieces = []
    for i in reversed(range(ring.nvars)):
        gens, power = _colon_by_linear_form(I, ring.gen(i), saturate=True)
        if not power:
            return I, 0
        pieces.append(IdealHandle(ring, gens))
    sat = pieces[0]
    for piece in pieces[1:]:
        if piece.contains_ideal(sat):
            continue
        if sat.contains_ideal(piece):
            sat = piece
        else:
            sat = intersect(sat, piece)
    sat = IdealHandle(I.ring, sat.own_gens)
    s = max(_kill_exponent(I, g) for g in sat.groebner_basis())
    return sat, s


def _kill_exponent(I: IdealHandle, g: Polynomial) -> int:
    """Least k < SATURATION_MAX_STEPS with m^k * g inside I."""
    ring = I.ambient
    for k in range(SATURATION_MAX_STEPS):
        monos = monomials_of_weighted_degree(ring.nvars, k, (1,) * ring.nvars)
        if all(I.contains(ring.monomial(a) * g) for a in monos):
            return k
    raise ResourceCapExceeded(
        f"saturation did not stabilize within {SATURATION_MAX_STEPS} steps", GBStats())


def _saturation_by_colons(I: IdealHandle, K: IdealHandle) -> tuple[IdealHandle, int]:
    """(I : K^infinity) by iterated colons until two agree; the general path
    of saturation and the oracle its fast path is tested against."""
    current = I
    for s in range(SATURATION_MAX_STEPS):
        nxt = colon(current, K)
        if nxt.equals(current):
            return current, s
        current = nxt
    raise ResourceCapExceeded(
        f"saturation did not stabilize within {SATURATION_MAX_STEPS} steps", GBStats())


def dimension(I: IdealHandle) -> int:
    """Krull dimension of ambient/(I), computed from the initial ideal as the
    largest set of variables meeting no leading-monomial support."""
    return monomial_dimension([g.leading_monomial() for g in I.groebner_basis()],
                              I.ambient.nvars)


def monomial_dimension(monos, n: int) -> int:
    """Krull dimension of the quotient of the ring in n variables by the
    monomial ideal the given monomials generate: the largest set of
    variables that contains the support of none of them."""
    if any(mono_degree(m) == 0 for m in monos):
        raise ImproperIdealError("dimension of the zero ring")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monos]
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if not any(supp <= s for supp in supports):
                return size
    return 0


def std_monomials(I: IdealHandle) -> list[Mono]:
    """Monomials outside the initial ideal: a vector space basis of
    ambient/I, sorted by degree, then by the monomial order.  Requires I
    zero-dimensional (finite staircase); the walk is staircase(I)."""
    gb = I.groebner_basis()
    if any(mono_degree(g.leading_monomial()) == 0 for g in gb):
        return []
    n = I.ambient.nvars
    lms = {g.leading_monomial() for g in gb}
    pure = {i for lm in lms for i, e in enumerate(lm) if e and e == mono_degree(lm)}
    if len(pure) < n:
        raise NotZeroDimensionalError(
            "no pure power of some variable in the initial ideal")
    return [m for layer in staircase(I) for m in layer]


def staircase(I: IdealHandle, S: IdealHandle | None = None,
              max_past_top: int | None = None):
    """Yield, one degree at a time from degree 0, the monomials of in(S)
    outside in(I), each degree sorted by the monomial order.  S must
    contain I; it defaults to the unit ideal, which walks the standard
    monomials of I.

    A monomial lies outside in(I) exactly when it is no leading monomial of
    I and lowering any one of its nonzero exponents gives a monomial outside
    in(I): one the walk yielded a degree earlier, or one outside in(S).  The
    candidates of the next degree are those yielded raised by one variable,
    plus S's leading monomials of that degree, so each costs a few set
    lookups, and a divisibility scan of S's leading monomials only for a
    lowering the walk did not yield.  The walk ends at the first empty degree
    at or past S's top leading monomial, since above it in(S) is generated
    by the degree below; when S/I has infinite length it never ends, unless
    ``max_past_top`` is given: a walk that would go more than that many
    degrees past S's top leading monomial raises ResourceCapExceeded.
    """
    n = I.ambient.nvars
    lms = {g.leading_monomial() for g in I.groebner_basis()}
    tops = ([(0,) * n] if S is None
            else [g.leading_monomial() for g in S.groebner_basis()])
    top = max((mono_degree(t) for t in tops), default=0)
    key = I.ambient.order.key
    layer: list[Mono] = []
    for d in itertools.count():
        below = set(layer)
        raised = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in layer for i in range(n)}
        raised.update(t for t in tops if mono_degree(t) == d)
        layer = sorted((m for m in raised if m not in lms and all(
            (u := m[:i] + (m[i] - 1,) + m[i + 1:]) in below
            or not any(mono_divides(t, u) for t in tops)
            for i in range(n) if m[i])), key=key)
        if not layer and d >= top:
            return
        if max_past_top is not None and d > top + max_past_top:
            raise ResourceCapExceeded(
                f"staircase runs more than {max_past_top} degrees past "
                f"degree {top}", GBStats())
        yield layer


def std_monomials_of_weighted_degree(I: IdealHandle, degree: int) -> list[Mono]:
    """Standard monomials of the given weighted degree (any dimension)."""
    gb = I.groebner_basis()
    lms = [g.leading_monomial() for g in gb]
    ring = I.ambient
    cands = monomials_of_weighted_degree(ring.nvars, degree, ring.weights)
    key = ring.order.key
    out = [m for m in cands if not any(mono_divides(lm, m) for lm in lms)]
    out.sort(key=key)
    return out

