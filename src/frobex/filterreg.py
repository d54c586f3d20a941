"""Filter regular sequences and random systems of parameters.

A sequence x_1, ..., x_t in the maximal ideal m of R = S/J is filter regular
when each x_i avoids every associated prime of (x_1, ..., x_{i-1}) except
possibly m itself.  Rather than computing associated primes, each step is
certified through the colon-saturation criterion

    ((x_1..x_{i-1}) : x_i)  is contained in  ((x_1..x_{i-1}) : m^infinity),

which says that multiples killed by x_i are m-torsion.  Over an infinite
constant field a generic linear form works at every step; over a small F_p
the candidate pool is finite, so the random search retries and reports
exhaustion honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError, Polynomial
from .groebner import (
    IdealHandle,
    ImproperIdealError,
    QuotientRing,
    colon,
    dimension,
    ideal,
    saturation,
)
from .seeding import rng_for

# random_filter_regular_sop: candidates per step, restarts of the search
_MAX_TRIES = 60
_RESTARTS = 25


class SearchExhausted(AlgebraError):
    """Random search failed to find an admissible element."""


class SequenceShapeError(AlgebraError):
    """A sequence of the wrong length, or with an element outside the
    maximal ideal: bad input rather than a failed check."""


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

    def prefix_ideal(self, i: int) -> IdealHandle:
        """The ideal generated by the first i elements, inside the ring."""
        return ideal(self.ring, list(self.elements[:i]))

    def element_strings(self) -> list[str]:
        return [str(f) for f in self.elements]


def make_sequence(R: QuotientRing, elements) -> FilterSequence:
    """Wrap raw elements (str or Polynomial) without verifying them."""
    elems = tuple(R.parse(f) if isinstance(f, str) else f for f in elements)
    return FilterSequence(R, elems, False)


def filter_regular_failure(seq: FilterSequence) -> int | None:
    """Index of the first element violating the colon-saturation criterion,
    or None when the whole sequence is filter regular."""
    R = seq.ring
    m = R.maximal_ideal()
    for f in seq.elements:
        if not m.contains(f):
            raise SequenceShapeError("sequence element outside the maximal ideal")
    for i, f in enumerate(seq.elements):
        prefix = seq.prefix_ideal(i)
        quotient = colon(prefix, ideal(R, [f]))
        saturated, _ = saturation(prefix, m)
        if not saturated.contains_ideal(quotient):
            return i
    return None


def is_filter_regular_sequence(seq: FilterSequence) -> tuple[bool, int | None]:
    """(True, None) when filter regular, else (False, first bad index).

    Marks the sequence verified on success.
    """
    bad = filter_regular_failure(seq)
    if bad is None:
        seq.verified = True
        return True, None
    return False, bad


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
    m = R.maximal_ideal()
    variables = R.ambient.gens()
    p = R.p
    last_fail = "step 1"
    for attempt in range(_RESTARTS):
        rng = rng_for(seed, "sop", attempt)
        chosen: list[Polynomial] = []
        for step in range(d):
            prefix = ideal(R, chosen)
            saturated, _ = saturation(prefix, m)
            found = None
            nv = len(variables)
            for _ in range(_MAX_TRIES):
                # bias toward sparse forms: downstream Frobenius eliminations
                # stay cheap, and sparse parameters are just as admissible
                size = 1 + min(rng.randrange(nv), rng.randrange(nv))
                support = rng.sample(range(nv), size)
                coeffs = [0] * nv
                for i in support:
                    coeffs[i] = rng.randrange(1, p) if p > 2 else 1
                cand = R.ambient.zero()
                for c, v in zip(coeffs, variables):
                    if c:
                        cand = cand + c * v
                extended = ideal(R, chosen + [cand])
                try:
                    if dimension(extended) != d - step - 1:
                        continue
                except ImproperIdealError:
                    continue  # the candidate made the unit ideal
                quotient = colon(prefix, ideal(R, [cand]))
                if not saturated.contains_ideal(quotient):
                    continue
                found = cand
                break
            if found is None:
                last_fail = f"step {step + 1}"
                break
            chosen.append(found)
        else:
            return FilterSequence(R, tuple(chosen), True)
    raise SearchExhausted(
        f"no filter regular linear system of parameters after {_RESTARTS} "
        f"restarts of {_MAX_TRIES} tries (last failure at {last_fail})")
