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
one at a time until every image vanishes.  That kernel is the set of
combinations whose q-th power lies in K, so it does not depend on the
monomial order of the normal forms.  They are taken in grevlex on the
variables ranked so that K's generators lead with pure powers of distinct
variables, when such a ranking exists: the generators then already form a
Groebner basis, and the images are reduced by them instead of by K's
grevlex basis in the variables' own ranking, which may be much larger.
For any other K the preimage comes from an elimination: in S[w_1..w_n] the
membership x^q in K becomes linear algebra over the subring generated by
the w_i = x_i^q, because g(x)^q = g(x^q) over F_p.  This preimage is
genuinely different from the Frobenius root K^[1/q] (for K = (x^3), q = 2
the preimage is (x^2) while the root is (x)), so no basis-decomposition
shortcut applies.

The Frobenius test exponent of I is the least e with (closure)^[p^e] =
I^[p^e]; scanning it over sampled parameter ideals gives the empirical lower
bound for the ring-level test exponent that the rest of the package compares
against HSL numbers.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import linalg
from .algebra import (
    AlgebraError,
    MonomialOrder,
    Polynomial,
    frobenius_raise,
    monomials_of_weighted_degree,
)
from .filterreg import (
    FilterSequence,
    is_filter_regular_sequence,
    is_system_of_parameters,
    make_sequence,
    random_filter_regular_sop,
)
from .groebner import (
    GBConfig,
    IdealHandle,
    QuotientRing,
    ResourceCapExceeded,
    _SHARED_BASES,
    _basis,
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
    standard grading, with a pure power of every variable among the leading
    monomials of its Groebner basis (K is m-primary), the preimage is built
    degree by degree from kernels of m -> NF_K(m^q); see _graded_preimage.
    Everything else -- e = 0, inhomogeneous or weighted input, K not
    m-primary, or K's basis tripping a resource cap -- goes through the
    tag-variable elimination of _preimage_by_elimination.
    """
    if e > 0:
        gens = _graded_preimage(K, e)
        if gens is not None:
            return IdealHandle(K.ring, gens)
    return _preimage_by_elimination(K, e)


def _graded_preimage(K: IdealHandle, e: int) -> list[Polynomial] | None:
    """Generators of { x : x^q in K } by graded linear algebra, or None when
    K is not a standard-graded homogeneous m-primary ideal or its basis hits
    a resource cap.

    For homogeneous K the preimage is homogeneous, and its degree-d part is
    the kernel of the F_p-linear map m -> [m^q] from the monomials of degree
    d to S/K.  Since K is m-primary some degree d has every image zero; then
    all of S_d, hence all of S_{>=d}, lies in the preimage, so the kernels
    below d plus the degree-d monomials generate it.

    The map is written down with normal forms NF_K under some monomial
    order, degree by degree by _qpower_images.  Any order will do: a normal
    form is zero exactly on K, so a combination sum c*m lies in the kernel
    iff sum c*NF_K(m^q) = NF_K(sum c*m^q) vanishes, whatever the order.  The
    matrices of two orders thus have one kernel, hence one row space and
    one reduced echelon form, and the generators read off the kernel are
    the same.  The order used is grevlex on the variables as ranked by
    _coprime_ranking, when it finds a ranking under which K's generators
    lead with pure powers of distinct variables: they are then a Groebner
    basis already (every S-pair has coprime leading monomials), and the
    Buchberger run only inter-reduces them.  Otherwise the variables keep
    their own ranking, and the basis is K's grevlex basis, whose memo entry
    a grevlex ring's handle of K shares.
    """
    ring = K.ambient
    n, p = ring.nvars, ring.p
    if any(w != 1 for w in ring.weights):
        return None
    if not all(g.is_homogeneous() for g in K.generators):
        return None
    try:
        frame = _normal_form_frame(K)
    except ResourceCapExceeded:
        return None
    if frame is None:
        return None
    rank, reducers = frame
    gens: list[Polynomial] = []
    for d, by_rank in enumerate(_qpower_images(n, p, reducers, p**e)):
        # columns in the ring's own monomial order, whatever order rank gives
        monos = monomials_of_weighted_degree(n, d, ring.weights)
        images = [by_rank[tuple(m[v] for v in rank)] for m in monos]
        if not any(images):
            return gens + [ring.monomial(m) for m in monos]
        rows = {t: r for r, t in enumerate({t for img in images for t in img})}
        matrix = linalg.zeros(len(rows), len(monos))
        for col, img in enumerate(images):
            for t, c in img.items():
                matrix[rows[t], col] = c
        for vec in linalg.nullspace(matrix, p):
            gens.append(Polynomial(ring, {m: int(c)
                                          for m, c in zip(monos, vec) if c}))


_GREVLEX = MonomialOrder("grevlex")


def _normal_form_frame(K: IdealHandle):
    """(rank, reducers) for the normal forms of _graded_preimage, or None
    when K, homogeneous under the standard grading, is not m-primary.

    rank lists the variable indices, highest first, as _coprime_ranking
    finds them, or in their own order when it finds none.  The reducers are
    the reduced grevlex basis of K's generators in coordinates where
    position k holds the exponent of variable rank[k].  Raises
    ResourceCapExceeded when the basis trips a cap.
    """
    n = K.ambient.nvars
    rank = _coprime_ranking(K.generators, n) or tuple(range(n))
    permuted = [{tuple(m[v] for v in rank): c for m, c in g.terms.items()}
                for g in K.generators]
    basis, _ = _basis(permuted, _GREVLEX, K.ambient.p)
    reducers = [(max(t, key=_GREVLEX.key), t) for t in basis]
    # m-primary: some leading monomial is a pure power of each variable
    if not all(any(lm[i] == sum(lm) for lm, _ in reducers) for i in range(n)):
        return None
    return rank, reducers


def _coprime_ranking(gens, n: int) -> tuple[int, ...] | None:
    """A ranking of the n variables, highest first, under whose grevlex
    order each of the homogeneous gens leads with a pure power of a variable
    of its own, or None when there are not exactly n gens or no ranking
    does.  The pure powers then form an m-primary monomial ideal.

    In grevlex a pure power x_i^d leads a form of degree d exactly when each
    other term involves a variable ranked below x_i.  So the ranking is
    built from the bottom: the next variable up is x_i for any remaining
    generator whose terms free of the variables placed so far are x_i^d
    alone.  Placing it never blocks a ranking: that generator's other terms
    all involve placed variables, so x_i^d is the only pure power it could
    lead with in any ranking that extends the current one.
    """
    if len(gens) != n:
        return None
    below: list[int] = []
    left = list(gens)
    while left:
        for k, g in enumerate(left):
            free = [m for m in g.terms if not any(m[v] for v in below)]
            if len(free) == 1 and sum(1 for a in free[0] if a) == 1:
                below.append(next(v for v, a in enumerate(free[0]) if a))
                del left[k]
                break
        else:
            return None
    return tuple(reversed(below))


def _qpower_images(n: int, p: int, reducers, q: int):
    """Yield, for d = 0, 1, ..., the dict {m: NF(m^q)} over the degree-d
    monomials m of the standard-graded ring in n variables, in the order of
    monomials_of_weighted_degree, with normal forms as term dicts against
    reducers, a reduced grevlex Groebner basis.  Frobenius is
    multiplicative and a reduced basis gives unique normal forms, so
    NF(m^q) = NF(x_i^q * NF((m/x_i)^q)) with x_i the first variable dividing
    m: each image of degree d > 0 is the image of m/x_i from degree d - 1,
    shifted by x_i^q and reduced.  No raw power m^q is expanded.
    """
    one = (0,) * n
    images = {one: _nf_terms({one: 1}, reducers, p, _GREVLEX)[0]}
    for d in itertools.count(1):
        yield images
        below, images = images, {}
        for m in monomials_of_weighted_degree(n, d, (1,) * n):
            i = next(k for k, a in enumerate(m) if a)
            start = {t[:i] + (t[i] + q,) + t[i + 1:]: c for t, c
                     in below[m[:i] + (m[i] - 1,) + m[i + 1:]].items()}
            images[m] = _nf_terms(start, reducers, p, _GREVLEX)[0]


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


@dataclass
class ClosureResult:
    """Outcome of a Frobenius closure chain computation.

    stabilized_at is the first level e with J_e = J_{e+1} (None when the
    chain was still moving at e_max).  certified is True only when the chain
    never grew at all, in which case closure == I exactly by definition;
    otherwise the reported closure is the stabilized chain value under the
    window heuristic.
    """

    closure: IdealHandle
    stabilized_at: int | None
    window_checked: int
    certified: bool
    chain_lengths: list[int]
    stable: bool
    levels_computed: int

    def to_dict(self) -> dict:
        return {
            "closure": [str(g) for g in self.closure.groebner_basis()],
            "stabilized_at": self.stabilized_at,
            "window_checked": self.window_checked,
            "certified": self.certified,
            "chain_lengths": self.chain_lengths,
            "stable": self.stable,
            "levels_computed": self.levels_computed,
        }


def frobenius_closure(I: IdealHandle, e_max: int = 8, window: int = 2) -> ClosureResult:
    """Ascending chain of q-th power preimages until `window` consecutive
    equalities are seen or e_max is reached."""
    if e_max < 1:
        raise AlgebraError("e_max must be >= 1")
    if window < 1:
        raise AlgebraError("window must be >= 1")
    start = IdealHandle(I.ring, I.own_gens)
    previous = start
    lengths = [len(previous.groebner_basis())]
    consecutive = 0
    stabilized_at: int | None = None
    levels = 0
    for e in range(1, e_max + 1):
        bracket = frobenius_power(I, e)
        current = qpower_preimage(bracket, e)
        levels = e
        if not current.contains_ideal(previous):
            raise InconsistencyError(f"closure chain not ascending at level {e}")
        lengths.append(len(current.groebner_basis()))
        if current.equals(previous):
            consecutive += 1
            if stabilized_at is None:
                stabilized_at = e - 1
        else:
            consecutive = 0
            stabilized_at = None
        previous = current
        if consecutive >= window:
            break
    stable = consecutive >= window
    certified = stable and previous.equals(start)
    return ClosureResult(previous, stabilized_at, window, certified, lengths,
                         stable, levels)


def fte_of_ideal(I: IdealHandle, closure: IdealHandle, e_max: int = 8) -> int:
    """Least e with closure^[p^e] = I^[p^e], checked by membership of the
    raised closure generators.  The bracket of the larger ideal always
    contains the bracket of the smaller, so one inclusion suffices."""
    for e in range(e_max + 1):
        bracket = frobenius_power(I, e)
        if all(bracket.contains(frobenius_raise(g, e))
               for g in closure.own_gens):
            return e
    raise InconsistencyError(f"no Frobenius test exponent up to {e_max}")


def power_family_ideal(R: QuotientRing, base_elements, t: int, n: int) -> IdealHandle:
    """Parameter ideal (f_1^n, ..., f_t^n, f_{t+1}, ..., f_d) built from a
    system of parameters: the prefix-power families the scan walks."""
    if not (1 <= t <= len(base_elements)):
        raise AlgebraError("prefix length out of range")
    gens = [f**n for f in base_elements[:t]] + list(base_elements[t:])
    return ideal(R, gens)


@dataclass
class ScanSample:
    """One scanned parameter ideal; closure_gens is the reduced basis of
    its Frobenius closure, written out as strings by to_dict."""

    kind: str
    descriptor: dict
    gens: list[str]
    fte: int | None = None
    closure_gens: list[Polynomial] | None = None
    stabilized_at: int | None = None
    certified: bool | None = None
    nontrivial: bool | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "descriptor": self.descriptor,
            "gens": self.gens,
            "fte": self.fte,
            "closure_gens": (None if self.closure_gens is None
                             else [str(g) for g in self.closure_gens]),
            "stabilized_at": self.stabilized_at,
            "certified": self.certified,
            "nontrivial": self.nontrivial,
            "error": self.error,
        }


@dataclass
class FteScanReport:
    """Sampled lower bound for the ring-level Frobenius test exponent; base
    is the verified system of parameters of the power families, emitted as
    "base_sop"."""

    fingerprint: str
    ring_label: str
    seed: int
    n_random: int
    power_family_max: int
    base: FilterSequence
    samples: list[ScanSample]
    max_fte: int | None
    any_failures: bool
    e_max: int
    window: int

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "ring_label": self.ring_label,
            "seed": self.seed,
            "n_random": self.n_random,
            "power_family_max": self.power_family_max,
            "base_sop": self.base.element_strings(),
            "samples": [s.to_dict() for s in self.samples],
            "max_fte": self.max_fte,
            "any_failures": self.any_failures,
            "e_max": self.e_max,
            "window": self.window,
        }


def _run_sample(R: QuotientRing, task: dict, e_max: int, window: int) -> ScanSample:
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
        sample = ScanSample(kind, descriptor, gens)
        I = ideal(R, polys)
        closure = frobenius_closure(I, e_max, window)
        fte = fte_of_ideal(I, closure.closure, e_max)
        sample.fte = fte
        sample.closure_gens = list(closure.closure.groebner_basis())
        sample.stabilized_at = closure.stabilized_at
        sample.certified = closure.certified
        sample.nontrivial = not closure.closure.equals(I)
        if not closure.stable:
            sample.error = "closure chain did not stabilize within e_max"
        return sample
    except AlgebraError as exc:
        sample = ScanSample(kind, descriptor, gens)
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample


def map_tasks(fn, R: QuotientRing, tasks: list, jobs: int) -> list:
    """[fn(R, task) for task in tasks], on a process pool of its own with
    min(jobs, len(tasks)) workers when jobs > 1 and there is more than one
    task; the pool is joined before the call returns.

    fn, R, the tasks and the results cross the pool pickled, so fn is a
    module-level function or a functools.partial of one.  A pooled task
    gets an unpickled copy of R, and runs under the caps in force at the
    call, through its worker's basis memo (see _start_worker).  The results
    are identical either way.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_start_worker,
                                 initargs=(caps_in_force(),)) as pool:
            return list(pool.map(functools.partial(fn, R), tasks))
    return [fn(R, task) for task in tasks]


def _start_worker(caps: GBConfig) -> None:
    """Pool initializer: the worker builds every basis under the caller's
    caps, through one memo that is empty whatever the start method copied
    from the parent, and that the tasks of this worker share until the
    map's pool is joined."""
    _SHARED_BASES.set((caps, {}))


def parameter_base(R: QuotientRing, seed: int) -> FilterSequence:
    """Base system of parameters for the power families.

    Coordinate variables are preferred when some dim(R)-subset of them is a
    filter regular system of parameters (sparse generators keep the
    elimination steps of the closure chain cheap); otherwise a seeded
    random search runs.
    """
    d = R.dim
    variables = R.ambient.gens()
    for combo in itertools.combinations(variables, d):
        if not is_system_of_parameters(R, list(combo)):
            continue
        seq = make_sequence(R, combo)
        ok, _ = is_filter_regular_sequence(seq)
        if ok:
            return seq
    return random_filter_regular_sop(R, derive_seed(seed, "family-base"))


def fte_scan(R: QuotientRing, n_random: int = 5, power_family_max: int = 3,
             seed: int = 42, e_max: int = 8, window: int = 2,
             jobs: int = 1) -> FteScanReport:
    """Closure and test exponent for a deterministic batch of parameter
    ideals: n_random random filter regular systems of parameters plus the
    prefix-power families of one base system (see parameter_base).

    Per-sample failures (resource caps, exhausted searches) are recorded on
    the sample and the scan continues.  Requires dim(R) >= 1.
    """
    base, tasks = _scan_tasks(R, n_random, power_family_max, seed, e_max,
                              window)
    samples = map_tasks(functools.partial(_run_sample, e_max=e_max, window=window),
                        R, tasks, jobs)
    return _scan_report(R, base, samples, n_random, power_family_max, seed,
                       e_max, window)


def _scan_tasks(R: QuotientRing, n_random: int, power_family_max: int,
               seed: int, e_max: int, window: int) -> tuple[FilterSequence, list[dict]]:
    """The base system of parameters of fte_scan and its sample tasks, each
    run by _run_sample; raises unless dim(R) >= 1 and the closure chain's
    e_max and window are >= 1, before any basis is built."""
    if R.dim < 1:
        raise AlgebraError("scan needs a ring of positive dimension")
    if e_max < 1:
        raise AlgebraError("e_max must be >= 1")
    if window < 1:
        raise AlgebraError("window must be >= 1")
    base = parameter_base(R, seed)
    tasks: list[dict] = []
    for k in range(n_random):
        tasks.append({
            "kind": "random-sop",
            "descriptor": {"index": k},
            "seed": derive_seed(seed, "random-sop", k),
        })
    for t in range(1, R.dim + 1):
        for n in range(1, power_family_max + 1):
            if n == 1 and t > 1:
                continue  # all t coincide with the base ideal at n = 1
            tasks.append({
                "kind": "power-family",
                "descriptor": {"t": t, "n": n},
                "base": base.elements,
            })
    return base, tasks


def _scan_report(R: QuotientRing, base: FilterSequence, samples: list[ScanSample],
                n_random: int, power_family_max: int, seed: int, e_max: int,
                window: int) -> FteScanReport:
    """The report of fte_scan from its samples, in the order of _scan_tasks."""
    good = [s.fte for s in samples if s.fte is not None and s.error is None]
    return FteScanReport(
        fingerprint=ring_fingerprint(R),
        ring_label=R.label,
        seed=seed,
        n_random=n_random,
        power_family_max=power_family_max,
        base=base,
        samples=samples,
        max_fte=max(good) if good else None,
        any_failures=any(s.error is not None for s in samples),
        e_max=e_max,
        window=window,
    )
