"""Filter regular sequences and random systems of parameters.

A sequence x_1, ..., x_t in the maximal ideal m of R = S/J is filter regular
when each x_i avoids every associated prime of I = (x_1, ..., x_{i-1}) except
possibly m itself, that is, when (I : x_i)/I has finite length, or

    (I : x_i)  is contained in  (I : m^infinity):

multiples killed by x_i are m-torsion.  For a linear form x_i over a prefix
that is homogeneous under the standard grading (relations included), this
is read off one reverse-lex basis of I in coordinates where x_i is the last
variable y (Bayer-Stillman): in(I : y) = in(I) : y, and two ideals with
equal initial ideals have equal Hilbert functions, so (I : y)/I has finite
length exactly when in(I) : y does modulo in(I).  The same basis gives
dim S/(I + x_i), since in(I + y) = in(I) + (y).  Every sequence the program
builds, a random search's or a coordinate base (parameter_base), is tested
this way one step at a time; a sequence handed in to be checked
(is_filter_regular_sequence), and every step over a prefix outside that
case, takes the colon and the saturation by m themselves.  Over an
infinite constant field a generic linear form works at every step; over a
small F_p the candidate pool is finite, so the random search retries and
reports exhaustion honestly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import AlgebraError, Polynomial
from .groebner import (
    IdealHandle,
    ImproperIdealError,
    QuotientRing,
    _framed_basis,
    _is_graded,
    colon,
    dimension,
    ideal,
    monomial_dimension,
    saturation,
)
from .seeding import derive_seed, rng_for

# random_filter_regular_sop: candidates per step, restarts of the search
_MAX_TRIES = 60
_RESTARTS = 25


class SearchExhausted(AlgebraError):
    """Random search failed to find an admissible element."""


class SequenceShapeError(AlgebraError):
    """A sequence of the wrong length, an element outside the maximal
    ideal, or a ring of dimension 0 where a system of parameters is
    needed: bad input rather than a failed check."""


@dataclass
class FilterSequence:
    """A sequence of elements of the maximal ideal m of R.

    ``verified`` is True once the whole sequence is certified filter
    regular, by the construction or by is_filter_regular_sequence.
    """

    ring: QuotientRing
    elements: tuple[Polynomial, ...]
    verified: bool

    def __len__(self):
        return len(self.elements)

    def element_strings(self) -> list[str]:
        return [str(f) for f in self.elements]


def make_sequence(R: QuotientRing, elements) -> FilterSequence:
    """Wrap raw elements (str or Polynomial) without verifying them."""
    elems = tuple(R.parse(f) if isinstance(f, str) else f for f in elements)
    return FilterSequence(R, elems, False)


def linear_form_test(prefix: IdealHandle, ell: Polynomial) -> tuple[int, bool]:
    """(dim S/(I + ell), whether ell is filter regular on S/I) for I the
    prefix, homogeneous under the standard grading with the relations, and
    ell a linear form; both read off one basis.

    In the reduced grevlex basis of I in coordinates where ell is the last
    variable y (groebner._framed_basis), the leading monomials
    generate in(I) minimally, and in(I + y) = in(I) + (y) gives the
    dimension.  in(I : y) = in(I) : y is generated by in(I) and the h/y for
    the leading monomials h divisible by y; such a g = h/y lies outside
    in(I) by minimality.  (I : y)/I has finite length when each of these g
    times some power of each variable x_i lies in in(I), that is, when some
    leading monomial divides g in every exponent but that of x_i.  For
    x_i = y, h itself does.
    """
    lms = [lm for lm, _ in _framed_basis(prefix, (ell,))[1]]
    n = prefix.ambient.nvars
    y = (0,) * (n - 1) + (1,)
    dim = monomial_dimension([u for u in lms if not u[-1]] + [y], n)
    for h in lms:
        if not h[-1]:
            continue
        g = h[:-1] + (h[-1] - 1,)
        for i in range(n - 1):
            if not any(all(u[j] <= g[j] for j in range(n) if j != i) for u in lms):
                return dim, False
    return dim, True


def is_filter_regular_sequence(seq: FilterSequence) -> tuple[bool, int | None]:
    """(True, None) when filter regular, else (False, first bad index): the
    first element whose colon over its prefix is not inside the prefix's
    saturation by m.  This is the definition itself, kept apart from the
    random search's linear_form_test so that a sequence handed in is
    certified independently of it.

    Marks the sequence verified on success.
    """
    R = seq.ring
    m = R.maximal_ideal()
    for f in seq.elements:
        if not m.contains(f):
            raise SequenceShapeError("sequence element outside the maximal ideal")
    for i, f in enumerate(seq.elements):
        prefix = ideal(R, list(seq.elements[:i]))
        quotient = colon(prefix, ideal(R, [f]))
        saturated, _ = saturation(prefix, m)
        if not saturated.contains_ideal(quotient):
            return False, i
    seq.verified = True
    return True, None


def is_system_of_parameters(R: QuotientRing, elements) -> bool:
    """True when the elements lie in m, are dim(R) many, and cut the
    dimension to zero."""
    elems = [R.parse(f) if isinstance(f, str) else f for f in elements]
    if len(elems) != R.dim:
        return False
    m = R.maximal_ideal()
    if not all(m.contains(f) for f in elems):
        return False
    q = ideal(R, elems)
    if not q.is_proper():
        return False
    return dimension(q) == 0


def random_filter_regular_sop(R: QuotientRing, seed: int) -> FilterSequence:
    """Random linear forms built one at a time; each new element must keep
    the prefix filter regular and drop the dimension by one.

    Over tiny fields a prefix can be a dead end (every remaining linear form
    a zerodivisor where it should not be), so after _MAX_TRIES failures at
    one step the whole sequence is rebuilt from a derived seed, up to
    _RESTARTS times.  Returns a fully verified FilterSequence of length
    dim(R) whose ideal is a parameter ideal; raises SearchExhausted when
    every restart dead-ends.
    """
    d = R.dim
    variables = R.ambient.gens()
    p = R.p
    last_fail = "step 1"
    for attempt in range(_RESTARTS):
        rng = rng_for(seed, "sop", attempt)
        chosen: list[Polynomial] = []
        for step in range(d):
            admissible = _admissible(ideal(R, chosen), d - step - 1)
            found = None
            nv = len(variables)
            for _ in range(_MAX_TRIES):
                # bias toward sparse forms: in their frame the relations stay
                # sparse, and sparse parameters are just as admissible
                size = 1 + min(rng.randrange(nv), rng.randrange(nv))
                support = rng.sample(range(nv), size)
                coeffs = [0] * nv
                for i in support:
                    coeffs[i] = rng.randrange(1, p) if p > 2 else 1
                cand = R.ambient.zero()
                for c, v in zip(coeffs, variables):
                    if c:
                        cand = cand + c * v
                try:
                    if admissible(cand):
                        found = cand
                        break
                except ImproperIdealError:
                    continue  # the candidate made the unit ideal
            if found is None:
                last_fail = f"step {step + 1}"
                break
            chosen.append(found)
        else:
            return FilterSequence(R, tuple(chosen), True)
    raise SearchExhausted(
        f"no filter regular linear system of parameters after {_RESTARTS} "
        f"restarts of {_MAX_TRIES} tries (last failure at {last_fail})")


def parameter_base(R: QuotientRing, seed: int) -> FilterSequence:
    """Base system of parameters for the power families.

    Coordinate variables are preferred when some dim(R)-subset of them is a
    filter regular system of parameters (their frame only reorders the
    variables, so the relations keep their sparsity).  The subsets are tried
    in order, each step by the random search's test, which certifies the
    whole sequence as it does a searched one; when none passes, a seeded
    random search runs.
    """
    d = R.dim
    for combo in itertools.combinations(R.ambient.gens(), d):
        try:
            if all(_admissible(ideal(R, list(combo[:k])), d - k - 1)(combo[k])
                   for k in range(d)):
                return FilterSequence(R, combo, True)
        except ImproperIdealError:
            continue  # a coordinate made the unit ideal
    return random_filter_regular_sop(R, derive_seed(seed, "family-base"))


def _admissible(prefix: IdealHandle, dim_after: int):
    """The test of random_filter_regular_sop's candidates over the prefix:
    a linear form passes when it leaves dimension dim_after and is filter
    regular modulo the prefix.  Over a standard-graded prefix both come
    from linear_form_test; otherwise the prefix is saturated by m once,
    and each candidate takes a dimension and a colon."""
    if _is_graded(prefix):
        def admissible(ell: Polynomial) -> bool:
            dim, regular = linear_form_test(prefix, ell)
            return dim == dim_after and regular
        return admissible
    R = prefix.ring
    saturated, _ = saturation(prefix, R.maximal_ideal())

    def admissible(ell: Polynomial) -> bool:
        if dimension(ideal(R, list(prefix.own_gens) + [ell])) != dim_after:
            return False
        return saturated.contains_ideal(colon(prefix, ideal(R, [ell])))
    return admissible
