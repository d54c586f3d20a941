"""Frobenius powers, q-th power preimages, Frobenius closure and test
exponents of ideals in prime characteristic.

The e-th Frobenius power of I = (g_1, ..., g_r) is I^[q] = (g_1^q, ..., g_r^q)
with q = p^e, raised term by term.  The closure chain is

    J_e = { x : x^q lies in I^[q] + J },

an ascending chain of ideals whose union is the Frobenius closure of I.  Each
J_e is the preimage of K = I^[q] + J under the q-th power map, computed in
one of two ways.  When K is homogeneous and m-primary under the standard
grading (as for every homogeneous parameter ideal), the degree-d part of the
preimage is the kernel of the F_p-linear map m -> NF_K(m^q) on the degree-d
monomials, linear because (sum c*m)^q = sum c*m^q over F_p; degrees are taken
one at a time until every image vanishes.  Frobenius is multiplicative, so
each image is NF(NF(x_i^q) * NF((m/x_i)^q)), an image of the degree below
times one of n normal forms taken once.  The preimage is homogeneous, so its
reduced Groebner basis, in any monomial order, is read off the row-reduced
kernels, and no Buchberger run builds a level.  The same identity lets a
linear change of coordinates commute with brackets, so the kernels are taken
in the frame where the linear forms that K's generators are powers of are
the last variables: there those generators, and a hypersurface relation,
lead with pure powers of distinct variables and are a Groebner basis already.
For any other K the preimage comes from an elimination: in S[w_1..w_n] the
membership x^q in K becomes linear algebra over the subring generated by
the w_i = x_i^q, because g(x)^q = g(x^q) over F_p.  This preimage is
genuinely different from the Frobenius root K^[1/q] (for K = (x^3), q = 2
the preimage is (x^2) while the root is (x)), so no basis-decomposition
shortcut applies.

The Frobenius test exponent of I is the least e with (closure)^[p^e] =
I^[p^e].  Since g^[q] lies in I^[q] + J exactly when g lies in J_e, it is
the level at which the chain last grew, and every such order is read off
the chain's levels.  Scanning it over sampled parameter ideals gives the
empirical lower bound for the ring-level test exponent that the rest of the
package compares against HSL numbers.  Each sample is a self-contained task,
a partial of _run_sample that holds everything but the ring, and map_tasks
runs such tasks in turn or on a process pool.
"""

from __future__ import annotations

import functools
import itertools
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import linalg
from .algebra import (
    GREVLEX,
    AlgebraError,
    ExponentOverflowError,
    MonomialOrder,
    Polynomial,
    frobenius_raise,
    mono_divides,
    mono_mul,
    monomials_of_weighted_degree,
)
from .filterreg import (
    FilterSequence,
    SearchExhausted,
    SequenceShapeError,
    parameter_base,
    random_filter_regular_sop,
)
from .groebner import (
    GBConfig,
    IdealHandle,
    QuotientRing,
    ResourceCapExceeded,
    _SHARED_BASES,
    _framed_basis,
    _is_graded,
    _known_basis,
    _nf_terms,
    caps_in_force,
    fresh_names,
    ideal,
    ring_fingerprint,
)
from .seeding import derive_seed


class InconsistencyError(AlgebraError):
    """An internal invariant failed (non-ascending chain, missing exponent,
    a saturation by an element that is not filter regular)."""


def frobenius_power(I: IdealHandle, e: int) -> IdealHandle:
    """The bracket power I^[p^e]: generators raised term by term.

    Quotient relations are carried by the handle, not raised: for I inside
    R = S/J the result denotes I^[q] + J, the correct object in R.
    """
    if e < 0:
        raise AlgebraError("Frobenius exponent must be >= 0")
    raised = [frobenius_raise(g, e) for g in I.own_gens]
    return IdealHandle(I.ring, raised)


def qpower_preimage(K: IdealHandle, e: int) -> IdealHandle:
    """The ideal { x : x^(p^e) lies in K }.

    For e >= 1 and K homogeneous (quotient relations included) under the
    standard grading and m-primary, the preimage is built degree by degree
    from kernels of m -> NF_K(m^q) in K's frame, and returned with its
    reduced basis as its own generators, cached; see _graded_preimage.
    Everything else -- e = 0, inhomogeneous or weighted input, or K not
    m-primary -- goes through the tag-variable elimination of
    _preimage_by_elimination; a cap that K's framed basis trips is raised.
    """
    if e > 0:
        level = _graded_preimage(K, e)
        if level is not None:
            return level
    return _preimage_by_elimination(K, e)


def _graded_preimage(K: IdealHandle, e: int) -> IdealHandle | None:
    """{ x : x^q in K } by graded linear algebra, as a handle whose own
    generators are its reduced Groebner basis in the ring's order, or None
    when K is not a standard-graded homogeneous m-primary ideal.

    For homogeneous K the preimage is homogeneous, and its degree-d part is
    the kernel of the F_p-linear map m -> [m^q] from the monomials of degree
    d to S/K.  Since K is m-primary some degree D has every image zero; then
    all of S_D, hence all of S_{>=D}, lies in the preimage.

    The map is written down in K's frame phi, groebner._framed_basis of the
    forms that K's own generators are powers of (see _frame_forms), degree
    by degree by _qpower_images.  phi commutes with the q-th power
    over F_p, so it carries the preimage of K onto that of phi(K), and each
    kernel vector is mapped back by the frame.  The kernel does not depend
    on the monomial order of the normal forms: a normal form is zero
    exactly on K.

    In ring coordinates and row-reduced over the degree-d monomials in
    descending ring order, a kernel has one row m - NF(m) for each leading
    monomial m of degree d of the preimage, in any monomial order, as the
    preimage is homogeneous.  The rows whose m no earlier kept m divides
    are the reduced basis elements of degree d; at D, the monomials that no
    kept m divides.
    """
    ring = K.ambient
    n, p = ring.nvars, ring.p
    if not _is_graded(K):
        return None
    back, reducers = _framed_basis(K, _frame_forms(K.own_gens))
    # m-primary: some leading monomial is a pure power of each variable
    if not all(any(lm[i] == sum(lm) for lm, _ in reducers) for i in range(n)):
        return None
    order = ring.order
    basis: list[Polynomial] = []
    for images in _qpower_images(n, p, reducers, p**e):
        monos = list(images)
        kept = [g.leading_monomial() for g in basis]
        if not any(images.values()):
            # every monomial of this degree, in any coordinates
            basis += [ring.monomial(m) for m in monos
                      if not any(mono_divides(lm, m) for lm in kept)]
            basis.sort(key=lambda g: order.key(g.leading_monomial()))
            return _known_basis(K.ring, basis)
        rows = {t: r for r, t in enumerate({t for img in images.values() for t in img})}
        matrix = linalg.zeros(len(rows), len(monos))
        for col, img in enumerate(images.values()):
            for t, c in img.items():
                matrix[rows[t], col] = c
        kernel = linalg.nullspace(matrix, p)
        if not len(kernel):
            continue
        # the kernel in ring coordinates, over the monomials in descending order
        monos.sort(key=order.key, reverse=True)
        cols = {m: k for k, m in enumerate(monos)}
        mapped = linalg.zeros(len(kernel), len(monos))
        for r, vec in enumerate(kernel):
            for m, c in back({m: int(c) for m, c in zip(images, vec) if c}).items():
                mapped[r, cols[m]] = c
        reduced, pivots = linalg.rref(mapped, p)
        for row, k in zip(reduced, pivots):
            if not any(mono_divides(lm, monos[k]) for lm in kept):
                basis.append(Polynomial(ring, {monos[j]: int(c)
                                               for j, c in enumerate(row) if c}))


def _frame_forms(gens) -> tuple[Polynomial, ...]:
    """The linear forms that gens are powers of, in their order: a unit
    times a pure power of x_i gives x_i, and sum c_i x_i^(p^a) gives
    sum c_i x_i.  When the forms are parameters, a relation leads with a
    pure power of a variable before them, as it does not vanish where they
    do, so the generators are often a basis already."""
    forms = []
    for g in gens:
        d = g.degree()
        if (d > 0 and all(sum(a // d for a in m) == 1 for m in g.terms)
                and (len(g.terms) == 1 or pow(g.ring.p, d, d) == 0)):
            forms.append(Polynomial(g.ring, {tuple(a // d for a in m): c
                                             for m, c in g.terms.items()}))
    return tuple(forms)


def _qpower_images(n: int, p: int, reducers, q: int):
    """Yield, for d = 0, 1, ..., the dict {m: NF(m^q)} over the degree-d
    monomials m of the standard-graded ring in n variables, in the order of
    monomials_of_weighted_degree, with normal forms as term dicts against
    reducers, a reduced grevlex Groebner basis.  Frobenius is
    multiplicative and a reduced basis gives unique normal forms, so
    NF(m^q) = NF(NF(x_i^q) * NF((m/x_i)^q)) with x_i the first variable
    dividing m: each image of degree d > 0 is the image of m/x_i from
    degree d - 1 times NF(x_i^q), taken once per call, and reduced.  No raw
    power m^q is expanded, nor a shifted image reduced by the long chain
    x_i^q takes down to its normal form.
    """
    one = (0,) * n
    powers = [_nf_terms({one[:i] + (q,) + one[i + 1:]: 1}, reducers, p, GREVLEX)
              for i in range(n)]
    images = {one: _nf_terms({one: 1}, reducers, p, GREVLEX)}
    for d in itertools.count(1):
        yield images
        below, images = images, {}
        for m in monomials_of_weighted_degree(n, d, (1,) * n):
            i = next(k for k, a in enumerate(m) if a)
            start: dict = {}
            for t, c in below[m[:i] + (m[i] - 1,) + m[i + 1:]].items():
                for u, b in powers[i].items():
                    tu = mono_mul(t, u)
                    start[tu] = (start.get(tu, 0) + c * b) % p
            images[m] = _nf_terms(start, reducers, p, GREVLEX)


def _preimage_by_elimination(K: IdealHandle, e: int) -> IdealHandle:
    """The ideal { x : x^(p^e) lies in K }, via elimination; the general
    path of qpower_preimage and the oracle its graded path is tested against.

    Adjoin one tag variable w_i per original variable together with the
    relations w_i - x_i^q; rewriting x_i^q as w_i throughout K and
    eliminating the original variables leaves exactly the polynomials g(w)
    with g(x)^q = g(x^q) in K.  Generators of K are pre-reduced modulo the
    tag relations (splitting every exponent as q*a + r), which changes no
    ideal but keeps the elimination degrees low.
    """
    if e < 0:
        raise AlgebraError("Frobenius exponent must be >= 0")
    if e == 0:
        return IdealHandle(K.ring, K.own_gens)
    ring = K.ambient
    p = ring.p
    q = p**e
    n = ring.nvars
    tags = fresh_names(ring.variables, "w", n)
    ext = ring.extended(tuple(tags), MonomialOrder("block", tuple(range(n))))
    gens = []
    for g in K.generators:
        terms = {}
        for m, c in g.terms.items():
            lo = tuple(x % q for x in m)
            hi = tuple(x // q for x in m)
            mono = lo + hi
            terms[mono] = (terms.get(mono, 0) + c) % p
        gens.append(ext.poly(terms))
    zero = (0,) * n
    if K.quotient is not None:
        # freshman's dream: g^q raises termwise, so each quotient relation g
        # has g^q in the ideal already, and its rewrite is g with variables
        # renamed to tags -- a pure-tag generator that keeps the elimination
        # from rediscovering the relation's image at degree q
        for g in K.quotient.relations.own_gens:
            gens.append(ext.poly({zero + m: c for m, c in g.terms.items()}))
    for i in range(n):
        xi_q = tuple(q if k == i else 0 for k in range(n)) + zero
        wi = zero + tuple(1 if k == i else 0 for k in range(n))
        gens.append(ext.poly({wi: 1, xi_q: p - 1}))
    work = IdealHandle(ext, gens)
    gb = work.groebner_basis()
    out = []
    for g in gb:
        if all(all(m[i] == 0 for i in range(n)) for m in g.terms):
            out.append(Polynomial(ring, {m[n:]: c for m, c in g.terms.items()}))
    return IdealHandle(K.ring, out)


# The closure chain is stable once this many levels past its last growth
# equal it; a heuristic, and the one stopping rule of every chain.
CLOSURE_WINDOW = 2


@dataclass
class ClosureResult:
    """The closure chain J_0 = I, J_1, ..., J_L of frobenius_closure, and
    fte, the last level at which it grew (0 when it never did).

    g^[p^e] lies in I^[p^e] + J exactly when g lies in J_e, so fte is the
    least e with closure^[p^e] = I^[p^e]: the Frobenius test exponent of I
    once the chain is stable, that is once CLOSURE_WINDOW levels past fte
    equal it.  stabilized_at is fte when some level past it was computed
    (None when the chain grew at its last level).  certified is True only
    when the chain is stable and never grew, in which case closure == I
    exactly by definition; otherwise the reported closure is the stabilized
    chain value under the CLOSURE_WINDOW heuristic.
    """

    levels: list[IdealHandle]
    fte: int

    @property
    def closure(self) -> IdealHandle:
        return self.levels[-1]

    @property
    def levels_computed(self) -> int:
        return len(self.levels) - 1

    @property
    def stabilized_at(self) -> int | None:
        return self.fte if self.levels_computed > self.fte else None

    @property
    def stable(self) -> bool:
        return self.levels_computed - self.fte >= CLOSURE_WINDOW

    @property
    def certified(self) -> bool:
        return self.stable and self.fte == 0

    @property
    def chain_lengths(self) -> list[int]:
        return [len(level.groebner_basis()) for level in self.levels]

    def to_dict(self) -> dict:
        return {
            "closure": [str(g) for g in self.closure.groebner_basis()],
            "stabilized_at": self.stabilized_at,
            "window_checked": CLOSURE_WINDOW,
            "certified": self.certified,
            "chain_lengths": self.chain_lengths,
            "stable": self.stable,
            "levels_computed": self.levels_computed,
        }


def _next_level(levels: list) -> IdealHandle:
    """Build J_e = qpower_preimage(I^[p^e], e) for e = len(levels), with
    levels holding J_0 = I, ..., J_(e-1), and append it; an InconsistencyError
    when it does not contain J_(e-1)."""
    e = len(levels)
    level = qpower_preimage(frobenius_power(levels[0], e), e)
    if not level.contains_ideal(levels[-1]):
        raise InconsistencyError(f"closure chain not ascending at level {e}")
    levels.append(level)
    return level


def frobenius_closure(I: IdealHandle, e_max: int = 8) -> ClosureResult:
    """The ascending chain J_e = qpower_preimage(I^[p^e], e) from J_0 = I,
    until CLOSURE_WINDOW consecutive levels equal the one before them or
    e_max is reached."""
    if e_max < 1:
        raise AlgebraError("e_max must be >= 1")
    levels = [IdealHandle(I.ring, I.own_gens)]
    fte = 0
    for e in range(1, e_max + 1):
        if not _next_level(levels).equals(levels[-2]):
            fte = e
        if e - fte >= CLOSURE_WINDOW:
            break
    return ClosureResult(levels, fte)


def chain_level(g: Polynomial, levels: list, e_max: int) -> int | None:
    """The least e <= e_max with g in J_e, that is with g^[p^e] in
    I^[p^e] + J, or None.  levels holds J_0 = I, J_1, ... as far as they
    are built (J_0 at least); a level past them is built here, checked to
    contain the one before it as in frobenius_closure, and appended.  So
    levels is a list the caller owns, never a ClosureResult's own, whose
    last level is its closure."""
    for e in range(e_max + 1):
        if e == len(levels):
            _next_level(levels)
        if levels[e].contains(g):
            return e
    return None


def power_family_ideal(R: QuotientRing, base_elements, t: int, n: int) -> IdealHandle:
    """Parameter ideal (f_1^n, ..., f_t^n, f_{t+1}, ..., f_d) built from a
    system of parameters: the prefix-power families the scan walks."""
    if not (1 <= t <= len(base_elements)):
        raise AlgebraError("prefix length out of range")
    gens = [f**n for f in base_elements[:t]] + list(base_elements[t:])
    return ideal(R, gens)


@dataclass
class ScanSample:
    """One scanned parameter ideal and its closure chain (None when the
    sample failed before the chain was built).  to_dict writes out what it
    reads off the chain, and not the chain itself."""

    kind: str
    descriptor: dict
    gens: list[str]
    chain: ClosureResult | None = None
    error: str | None = None

    @property
    def fte(self) -> int | None:
        return None if self.chain is None else self.chain.fte

    def to_dict(self) -> dict:
        c = self.chain
        read = dict.fromkeys(("fte", "closure_gens", "stabilized_at", "certified",
                              "nontrivial")) if c is None else {
            "fte": c.fte,
            "closure_gens": [str(g) for g in c.closure.groebner_basis()],
            "stabilized_at": c.stabilized_at,
            "certified": c.certified,
            "nontrivial": c.fte > 0,
        }
        return {"kind": self.kind, "descriptor": self.descriptor, "gens": self.gens,
                **read, "error": self.error}


@dataclass
class FteScanReport:
    """Sampled lower bound for the ring-level Frobenius test exponent; base
    is the verified system of parameters of the power families, emitted as
    "base_sop"."""

    fingerprint: str
    ring_label: str
    seed: int
    n_random: int
    base: FilterSequence
    samples: list[ScanSample]
    max_fte: int | None
    any_failures: bool
    e_max: int

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "ring_label": self.ring_label,
            "seed": self.seed,
            "n_random": self.n_random,
            "power_family_max": POWER_FAMILY_MAX,
            "base_sop": self.base.element_strings(),
            "samples": [s.to_dict() for s in self.samples],
            "max_fte": self.max_fte,
            "any_failures": self.any_failures,
            "e_max": self.e_max,
            "window": CLOSURE_WINDOW,
        }


def _run_sample(R: QuotientRing, task: dict, e_max: int) -> ScanSample:
    kind = task["kind"]
    descriptor = task["descriptor"]
    gens: list[str] = []
    try:
        if kind == "random-sop":
            fseq = random_filter_regular_sop(R, task["seed"])
            polys = list(fseq.elements)
        else:
            handle = power_family_ideal(R, task["base"], descriptor["t"],
                                        descriptor["n"])
            polys = list(handle.own_gens)
        gens = [str(g) for g in polys]
        sample = ScanSample(kind, descriptor, gens,
                            frobenius_closure(ideal(R, polys), e_max))
        if not sample.chain.stable:
            sample.error = "closure chain did not stabilize within e_max"
        return sample
    except (ResourceCapExceeded, SearchExhausted, ExponentOverflowError) as exc:
        sample = ScanSample(kind, descriptor, gens)
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample


def map_tasks(R: QuotientRing, tasks: list, jobs: int) -> list:
    """[task(R) for task in tasks], on a process pool of its own with
    min(jobs, len(tasks)) workers when jobs > 1 and there is more than one
    task; the pool is joined before the call returns.

    Each task is a module-level function or a functools.partial of one,
    holding everything it needs but the ring; R, the tasks and the results
    cross the pool pickled.  A pooled task gets an unpickled copy of R, and runs
    under the caps in force at the call, through its worker's basis memo
    (see _start_worker).  The results are identical either way.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_start_worker,
                                 initargs=(caps_in_force(),)) as pool:
            return list(pool.map(operator.methodcaller("__call__", R), tasks))
    return [task(R) for task in tasks]


def _start_worker(caps: GBConfig) -> None:
    """Pool initializer: the worker builds every basis under the caller's
    caps, through one memo that is empty whatever the start method copied
    from the parent, and that the tasks of this worker share until the
    map's pool is joined."""
    _SHARED_BASES.set((caps, {}))


# Each prefix-power family of a scan runs through n = 1..POWER_FAMILY_MAX.
POWER_FAMILY_MAX = 3


def fte_scan(R: QuotientRing, n_random: int = 5, seed: int = 42,
             e_max: int = 8, jobs: int = 1) -> FteScanReport:
    """Closure and test exponent for a deterministic batch of parameter
    ideals: n_random random filter regular systems of parameters plus the
    prefix-power families of one base system (see parameter_base), up to
    POWER_FAMILY_MAX.

    Per-sample failures (resource caps, exhausted searches, exponent
    overflows) are recorded on the sample and the scan continues; any other
    error is raised.  Requires dim(R) >= 1.
    """
    base, tasks = _scan_tasks(R, n_random, seed, e_max)
    samples = map_tasks(R, tasks, jobs)
    return _scan_report(R, base, samples, n_random, seed, e_max)


def _scan_tasks(R: QuotientRing, n_random: int, seed: int,
               e_max: int) -> tuple[FilterSequence, list]:
    """The base system of parameters of fte_scan and its sample tasks, each
    a partial of _run_sample for map_tasks; raises unless dim(R) >= 1 and
    the closure chain's e_max is >= 1, before any basis is built."""
    if R.dim < 1:
        raise SequenceShapeError("scan needs a ring of positive dimension")
    if e_max < 1:
        raise AlgebraError("e_max must be >= 1")
    base = parameter_base(R, seed)
    tasks: list[dict] = []
    for k in range(n_random):
        tasks.append({
            "kind": "random-sop",
            "descriptor": {"index": k},
            "seed": derive_seed(seed, "random-sop", k),
        })
    for t in range(1, R.dim + 1):
        for n in range(1, POWER_FAMILY_MAX + 1):
            if n == 1 and t > 1:
                continue  # all t coincide with the base ideal at n = 1
            tasks.append({
                "kind": "power-family",
                "descriptor": {"t": t, "n": n},
                "base": base.elements,
            })
    return base, [functools.partial(_run_sample, task=task, e_max=e_max)
                  for task in tasks]


def _scan_report(R: QuotientRing, base: FilterSequence, samples: list[ScanSample],
                n_random: int, seed: int, e_max: int) -> FteScanReport:
    """The report of fte_scan from its samples, in the order of _scan_tasks."""
    good = [s.fte for s in samples if s.fte is not None and s.error is None]
    return FteScanReport(
        fingerprint=ring_fingerprint(R),
        ring_label=R.label,
        seed=seed,
        n_random=n_random,
        base=base,
        samples=samples,
        max_fte=max(good) if good else None,
        any_failures=any(s.error is not None for s in samples),
        e_max=e_max,
    )
