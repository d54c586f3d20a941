"""Truncated limit local cohomology with Frobenius actions, HSL numbers,
and the consistency and inequality reports built on top of them.

For a filter regular sequence x_1, ..., x_d in R and a prefix length i, the
i-th local cohomology of R at the maximal ideal is the direct limit of the
finite-length torsion quotients

    L_n = ((x_1^n, ..., x_i^n) : m^infinity) / (x_1^n, ..., x_i^n),

with transition maps given by multiplication by (x_1 ... x_i) and a natural
Frobenius action sending the class of a at level n to the class of a^p at
level p*n.  Powers of a filter regular sequence are filter regular, so for
i < d the next element x_{i+1} is filter regular on R/(x_1^n, ..., x_i^n):
it is a nonzerodivisor modulo the m-torsion, and the numerator above is
((x_1^n, ..., x_i^n) : x_{i+1}^infinity).  For a linear form x_{i+1} that
saturation takes a single reverse-lex basis.  When x_1, ..., x_{i+1} are
linear forms, the tower is built in their frame, a linear change of
coordinates phi over F_p in which they are the last variables: phi commutes
with Frobenius, so phi(R) has the same tower, its levels are monomial ideals
plus phi(J), and the saturation's basis is the level's own.  Witnesses are
mapped back through phi^(-1).  Each L_n is read off the
staircase of its numerator S: one basis element m - NF_S(m) for each
monomial m of in(S) outside in(Q_n), and coordinates are the coefficients
of those monomials in a normal form modulo Q_n.  Truncating at level N gives
finite matrices for everything; the Frobenius-nilpotent part is scanned
through kernels of composed Frobenius chains, filtered by survival under the
transition maps so that truncation artifacts (classes that die in the limit)
are never reported as witnesses.

The HSL number of the ring is the maximum, over cohomological degrees, of
the nilpotency orders seen this way; it is an experimental lower bound.  Each
tower is built once, PROBE_STEP levels deeper than asked: the base report
reads its first N levels, and a stability probe reads the whole tower with
one more Frobenius step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import linalg
from .algebra import (
    AlgebraError,
    Mono,
    Polynomial,
    frobenius_raise,
    mono_weighted_degree,
)
from .filterreg import (
    FilterSequence,
    SequenceShapeError,
    is_filter_regular_sequence,
    make_sequence,
)
from .frobenius import (
    FteScanReport,
    InconsistencyError,
    _run_sample,
    _scan_report,
    _scan_tasks,
    chain_level,
    frobenius_closure,
    map_tasks,
)
from .groebner import (
    SATURATION_MAX_STEPS,
    IdealHandle,
    QuotientRing,
    ResourceCapExceeded,
    _is_graded,
    dimension,
    ideal,
    is_linear_form,
    linear_frame,
    ring_fingerprint,
    saturation,
    staircase,
    std_monomials,
    std_monomials_of_weighted_degree,
)


class TorsionSpanError(AlgebraError):
    """Element outside the span of a torsion quotient snapshot."""


# ---------------------------------------------------------------------------
# torsion quotient snapshots


@dataclass
class TorsionQuotientSnapshot:
    """Vector space basis of (Q : m^infinity)/Q over F_p, Q the defining
    ideal, read off the staircase of S = (Q : m^infinity).

    The columns are the monomials of in(S) outside in(Q), sorted by degree
    then monomial order; S/Q has finite length, so they are finitely many.
    The basis element of column m is m - NF_S(m), which lies in S and whose
    other terms are standard for S, hence on no column: the reduced echelon
    form of S/Q read with the columns descending.  The coordinates of
    an element are the column coefficients of its normal form modulo Q; an
    element of S leaves nothing once those basis elements are subtracted.
    When Q is homogeneous and m-primary under the standard grading, S is the
    unit ideal and the basis is the standard monomials of Q.
    """

    ring: QuotientRing
    defining: IdealHandle
    basis: tuple[Polynomial, ...]
    columns: tuple[Mono, ...]

    @property
    def length(self) -> int:
        return len(self.basis)

    def _column_index(self) -> dict:
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = {m: (i, b.terms)
                      for i, (m, b) in enumerate(zip(self.columns, self.basis))}
            self._index = cached
        return cached

    def coordinate_matrix(self, polys) -> np.ndarray:
        """The coordinates of each of the polynomials' classes, as the
        columns of one array, filled in one sweep; raises TorsionSpanError
        when a class lies outside the torsion submodule."""
        p = self.ring.p
        index = self._column_index()
        out = np.zeros((len(self.columns), len(polys)), dtype=np.int64)
        for col, f in enumerate(polys):
            terms, rest = {}, {}
            for m, c in f.terms.items():
                (terms if m in index else rest)[m] = c
            if rest:
                # a term on a column is standard for Q, so only the rest is reduced
                for m, c in self.defining.normal_form(Polynomial(f.ring, rest)).terms.items():
                    terms[m] = (terms.get(m, 0) + c) % p
            left = dict(terms)  # NF_Q(f) minus the basis elements of its columns
            for m, c in terms.items():
                if m in index:
                    i, basis_terms = index[m]
                    out[i, col] = c
                    for t, a in basis_terms.items():
                        left[t] = (left.get(t, 0) - c * a) % p
            if any(left.values()):
                raise TorsionSpanError(f"{f} is not m-torsion modulo the ideal")
        return out

    def from_coordinates(self, coords) -> Polynomial:
        out = self.ring.ambient.zero()
        for c, b in zip(coords, self.basis):
            if c % self.ring.p:
                out = out + int(c) * b
        return out


def torsion_quotient(R: QuotientRing, Q: IdealHandle,
                     regular: Polynomial | None = None) -> TorsionQuotientSnapshot:
    """Snapshot of (Q : m^infinity)/Q; Q is a handle over R.

    A homogeneous Q of dimension 0 under the standard grading needs no
    saturation: R/Q is m-torsion, S is the unit ideal, and the columns are
    Q's standard monomials.  Every other Q is saturated by m, or by
    ``regular`` as below, and the columns are walked up the staircase of
    in(S) outside in(Q) (groebner.staircase).

    ``regular``, when given, must be filter regular on R/Q, as the next
    element of a verified filter regular sequence is on the powers of its
    prefix.  It is then a nonzerodivisor on R/(Q : m^infinity), so
    (Q : regular) lies inside (Q : m^infinity), and
    (Q : m^infinity) = (Q : regular^infinity).  For a linear form and a
    homogeneous Q under the standard grading, that saturation takes one
    reverse-lex basis, in which the form is the last variable; in the frame
    of limit_system it is a unit times that variable already, and the basis
    is Q's own.  When ``regular`` is not filter regular, S/Q has infinite
    length, so on that path alone the walk is stopped SATURATION_MAX_STEPS
    degrees past S's top leading monomial and raises InconsistencyError.
    S taken by m, or the unit ideal, leaves S/Q of finite length, and its
    walk ends by itself.
    """
    if not Q.is_proper():
        return TorsionQuotientSnapshot(R, Q, (), ())
    graded = _is_graded(Q)
    cap = None  # S/Q has finite length unless S was taken by ``regular``
    if graded and dimension(Q) == 0:
        saturated = None
    elif graded and regular is not None and is_linear_form(regular):
        saturated, _ = saturation(Q, ideal(R, [regular]))
        cap = SATURATION_MAX_STEPS
    else:
        saturated, _ = saturation(Q, R.maximal_ideal())
    try:
        columns = [m for layer in staircase(Q, saturated, cap) for m in layer]
    except ResourceCapExceeded as exc:
        raise InconsistencyError(
            f"{regular} is not filter regular: the saturation has classes "
            f"more than {SATURATION_MAX_STEPS} degrees above its generators") from exc
    basis = []
    for m in columns:
        b = Polynomial(R.ambient, {m: 1})
        basis.append(b - saturated.normal_form(b) if saturated else b)
    return TorsionQuotientSnapshot(R, Q, tuple(basis), tuple(columns))


# ---------------------------------------------------------------------------
# truncated limit systems


@dataclass
class LimitSystem:
    """Levels 1..N of the Koszul-limit tower for one prefix length.

    transitions[k] maps level k+1 to level k+2 (multiplication by the product
    of the prefix); frobenius[n] maps level n to level p*n (class of a to
    class of a^p).  All matrices act on coordinate columns.  A composite of
    transitions is never formed as a matrix: transition_chain pushes a given
    block of columns up one level at a time, so every product has the
    operand's few columns on its narrow side.

    ring, prefix and the snapshots live in a frame: ring is phi(R) for a
    linear change of coordinates phi of the ring R the tower was asked for,
    and prefix is phi of its prefix.  back maps a term dict of the frame to
    R's coordinates (to_ring); it is the identity when phi is.
    """

    ring: QuotientRing
    prefix: tuple[Polynomial, ...]
    index: int
    levels: int
    snapshots: list[TorsionQuotientSnapshot]
    transitions: list[np.ndarray]
    frobenius: dict[int, np.ndarray]
    back: Callable[[dict], dict] = dict

    @property
    def p(self) -> int:
        return self.ring.p

    def lengths(self) -> list[int]:
        return [s.length for s in self.snapshots]

    def to_ring(self, f: Polynomial) -> Polynomial:
        """The polynomial f of the frame in the coordinates of R."""
        return Polynomial(f.ring, self.back(f.terms))

    def truncated(self, N: int) -> LimitSystem:
        """Levels 1..N of this tower: the system limit_system builds at N."""
        if not 1 <= N <= self.levels:
            raise AlgebraError(f"truncation {N} outside 1..{self.levels}")
        frobenius = {n: m for n, m in self.frobenius.items() if self.p * n <= N}
        return replace(self, levels=N, snapshots=self.snapshots[:N],
                       transitions=self.transitions[:N - 1], frobenius=frobenius)

    def capacity(self, n: int) -> int:
        """Largest e with n * p^e <= N."""
        e = 0
        level = n
        while level * self.p <= self.levels:
            level *= self.p
            e += 1
        return e

    def transition_chain(self, a: int, b: int, x: np.ndarray) -> np.ndarray:
        """Image of the coordinate columns x at level a under the transitions
        out to level b (a <= b), applied one level at a time."""
        if not (1 <= a <= b <= self.levels):
            raise AlgebraError(f"levels out of range: {a} -> {b}")
        for lev in range(a, b):
            x = linalg.matmul(self.transitions[lev - 1], x, self.p)
        return x

    def frobenius_chain(self, n: int, e: int) -> np.ndarray:
        """Composite Frobenius from level n to level n * p^e."""
        if e < 1:
            raise AlgebraError("Frobenius chain needs e >= 1")
        if n * self.p**e > self.levels:
            raise AlgebraError(f"chain {n} -> {n * self.p ** e} exceeds truncation")
        out = self.frobenius[n]
        level = n * self.p
        for _ in range(e - 1):
            out = linalg.matmul(self.frobenius[level], out, self.p)
            level *= self.p
        return out

    def audit_commutation(self) -> str | None:
        """Matrix-wise check of the Frobenius-transition square; returns a
        description of the first failing square, or None."""
        p = self.p
        for n in range(1, self.levels):
            if p * (n + 1) > self.levels:
                break
            lhs = linalg.matmul(self.frobenius[n + 1], self.transitions[n - 1], p)
            rhs = self.transition_chain(p * n, p * (n + 1), self.frobenius[n])
            if not np.array_equal(lhs, rhs):
                return (f"square at level {n}: frobenius after transition != "
                        f"transition chain after frobenius")
        return None


def limit_system(R: QuotientRing, fseq: FilterSequence, i: int, N: int) -> LimitSystem:
    """Build snapshots, transitions and Frobenius matrices for prefix i.

    For i > 0 fseq must be verified filter regular; levels run
    from 1 to N and Frobenius matrices exist for every n with p*n <= N.
    When fseq is verified and i < len(fseq), every level is saturated by
    the next element rather than by m (see torsion_quotient).  A square of
    the commutation audit that fails raises InconsistencyError.

    The tower is built in the frame phi of the elements it uses, the prefix
    and the next element (groebner.linear_frame), where they are variables,
    the next one last.  A linear change of coordinates over F_p commutes
    with Frobenius, so the tower of phi(R) = S/phi(J) has the same lengths,
    kernels and orders.  Its level ideals are monomials plus phi(J), and
    the saturation by the next element, a variable there, reads the level's
    own basis.  Witnesses are mapped back by LimitSystem.to_ring.  When the
    elements are not all linear forms under the standard grading, phi is
    the identity (_tower_frame_forms) and the tower keeps R's coordinates.
    """
    if not (0 <= i <= len(fseq)):
        raise AlgebraError(f"prefix length {i} out of range")
    if N < 1:
        raise AlgebraError("truncation must be >= 1")
    if i > 0 and not fseq.verified:
        raise AlgebraError("prefix is not a verified filter regular sequence")
    p = R.p
    following = fseq.elements[i:i + 1] if fseq.verified else ()
    forward, back = linear_frame(
        R.ambient, _tower_frame_forms(R, fseq.elements[:i] + following))

    def framed(f: Polynomial) -> Polynomial:
        return Polynomial(R.ambient, forward(f.terms))

    frame = QuotientRing(R.ambient, [framed(g) for g in R.relations.own_gens], R.label)
    prefix = tuple(framed(f) for f in fseq.elements[:i])
    regular = framed(following[0]) if following else None
    snapshots: list[TorsionQuotientSnapshot] = []
    if i == 0:
        shared = torsion_quotient(frame, ideal(frame), regular)
        snapshots = [shared] * N
    else:
        for n in range(1, N + 1):
            Q = ideal(frame, [f**n for f in prefix])
            snapshots.append(torsion_quotient(frame, Q, regular))

    product = R.ambient.one()
    for f in prefix:
        product = product * f

    transitions = [snapshots[n].coordinate_matrix(
        [b * product for b in snapshots[n - 1].basis]) for n in range(1, N)]
    frobenius = {n: snapshots[p * n - 1].coordinate_matrix(
        [frobenius_raise(b, 1) for b in snapshots[n - 1].basis])
        for n in range(1, N // p + 1)}

    system = LimitSystem(frame, prefix, i, N, snapshots, transitions, frobenius, back)
    witness = system.audit_commutation()
    if witness is not None:
        raise InconsistencyError(f"Frobenius-transition commutation failed: {witness}")
    return system


def _tower_frame_forms(R: QuotientRing, elements) -> tuple[Polynomial, ...]:
    """The forms limit_system frames a tower by: the sequence elements it
    uses when all are linear forms under the standard grading, else none,
    which leaves the tower in R's coordinates."""
    if all(w == 1 for w in R.ambient.weights) and all(map(is_linear_form, elements)):
        return tuple(elements)
    return ()


# ---------------------------------------------------------------------------
# Frobenius-nilpotent part


@dataclass
class NilpotentWitness:
    level: int
    order: int
    poly: Polynomial


@dataclass
class NilpotentReport:
    """undetermined_levels are the nonzero levels with no Frobenius map
    inside the truncation, read_levels the nonzero levels with one."""

    witnesses: list[NilpotentWitness]
    max_order: int
    undetermined_levels: list[int]
    read_levels: list[int]


def nilpotent_part(system: LimitSystem, e_max: int) -> NilpotentReport:
    """Witnesses of Frobenius-nilpotency order exactly e, per level.

    A witness at level n of order e is a class v with chain^e(v) = 0,
    chain^(e-1)(v) surviving the transitions out to the truncation edge, and
    v itself surviving; survival filtering discards truncation artifacts.
    Survival is read from the images of the kernel basis only, pushed up the
    tower once a kernel is nonzero, and a witness's images are columns of
    those (or the sum of two).  Levels with no Frobenius reach inside the
    truncation are reported as undetermined rather than silently skipped.
    """
    p = system.p
    N = system.levels
    witnesses: list[NilpotentWitness] = []
    undetermined: list[int] = []
    read: list[int] = []
    for n in range(1, N + 1):
        snap = system.snapshots[n - 1]
        if snap.length == 0:
            continue
        cap = system.capacity(n)
        if cap == 0:
            undetermined.append(n)
            continue
        read.append(n)
        for e in range(1, min(e_max, cap) + 1):
            kernel = linalg.nullspace(system.frobenius_chain(n, e), p)
            if kernel.shape[0] == 0:
                continue
            img_a = system.transition_chain(n, N, kernel.T)
            if e == 1:
                img_b = img_a
            else:
                pushed = linalg.matmul(system.frobenius_chain(n, e - 1), kernel.T, p)
                img_b = system.transition_chain(n * p**(e - 1), N, pushed)
            alive_a = [j for j in range(kernel.shape[0]) if np.any(img_a[:, j])]
            alive_b = [j for j in range(kernel.shape[0]) if np.any(img_b[:, j])]
            if not alive_a or not alive_b:
                continue
            both = [j for j in alive_a if j in alive_b]
            if both:
                pick = both[:1]
            else:
                # sum of a survivor and an almost-survivor works since each
                # lies outside exactly one of the two kernels
                pick = [alive_a[0], alive_b[0]]
            v = kernel[pick].sum(axis=0) % p
            # v survives both: exactly one picked column is nonzero in each image
            witnesses.append(NilpotentWitness(
                n, e, system.to_ring(snap.from_coordinates(v))))
    max_order = max((w.order for w in witnesses), default=0)
    return NilpotentReport(witnesses, max_order, undetermined, read)


# ---------------------------------------------------------------------------
# HSL estimation


PROBE_STEP = 2


@dataclass
class HslReport:
    """Witnessed HSL numbers per cohomological degree, with stability probe.

    per_index[i] is the maximal witnessed Frobenius-nilpotency order on the
    i-th limit tower at truncation N; overall is the max over i.
    per_index_stable[i] means the same tower read at truncation
    N + PROBE_STEP with chain depth e_max + 1 reported the same value, and
    the base report read one of its nonzero levels at least, if it has any;
    a degree whose nonzero levels are all undetermined has read nothing.
    stable means every degree is stable.
    """

    fingerprint: str
    ring_label: str
    sequence: list[str]
    per_index: dict
    overall: int
    stable: bool
    per_index_stable: dict
    witnesses: dict
    undetermined: dict
    N: int
    e_max: int
    probe_N: int
    probe_e_max: int


def _hsl_tower(R: QuotientRing, i: int, fseq: FilterSequence, N: int,
               e_max: int) -> tuple[NilpotentReport, NilpotentReport]:
    """Base and probe nilpotency reports of the i-th limit tower of fseq (a
    task of map_tasks).  The tower is built once, at the probe's truncation;
    the base report reads its first N levels."""
    system = limit_system(R, fseq, i, N + PROBE_STEP)
    return (nilpotent_part(system.truncated(N), e_max),
            nilpotent_part(system, e_max + 1))


def hsl_estimate(R: QuotientRing, fseq: FilterSequence, N: int = 8,
                 e_max: int = 8, jobs: int = 1) -> HslReport:
    """Witnessed HSL numbers for every cohomological degree 0..dim(R).

    The sequence must be a filter regular system of parameters (one not
    marked verified is verified here), and e_max must be >= 1.  Each tower
    is built once, to truncation N + PROBE_STEP: the base report reads
    levels 1..N with chain depth e_max, the probe reads every level with
    depth e_max + 1, and their agreement, on a degree whose base report
    read a level, sets the stability flag.  The towers are mapped from the
    top degree down.
    """
    _check_hsl_args(R, fseq, e_max)
    tower = functools.partial(_hsl_tower, fseq=fseq, N=N, e_max=e_max)
    towers = map_tasks(tower, R, list(range(R.dim, -1, -1)), jobs)
    return _hsl_report(R, fseq, N, e_max, towers[::-1])


def _check_hsl_args(R: QuotientRing, fseq: FilterSequence, e_max: int) -> None:
    d = R.dim
    if len(fseq) != d:
        raise SequenceShapeError(f"need a full system of parameters ({d} elements)")
    if e_max < 1:
        raise AlgebraError("e_max must be >= 1")
    if not fseq.verified:
        ok, bad = is_filter_regular_sequence(fseq)
        if not ok:
            raise AlgebraError(f"sequence is not filter regular at index {bad}")


def _hsl_report(R: QuotientRing, fseq: FilterSequence, N: int, e_max: int,
                towers: list) -> HslReport:
    """The report of hsl_estimate from the (base, probe) pairs of _hsl_tower,
    indexed by degree."""
    bases = [base for base, _ in towers]
    per_index = {i: r.max_order for i, r in enumerate(bases)}
    per_index_stable = {i: probe.max_order == base.max_order
                        and bool(base.read_levels or not base.undetermined_levels)
                        for i, (base, probe) in enumerate(towers)}
    return HslReport(
        fingerprint=ring_fingerprint(R),
        ring_label=R.label,
        sequence=fseq.element_strings(),
        per_index=per_index,
        overall=max(per_index.values()),
        stable=all(per_index_stable.values()),
        per_index_stable=per_index_stable,
        witnesses={i: r.witnesses for i, r in enumerate(bases)},
        undetermined={i: r.undetermined_levels for i, r in enumerate(bases)},
        N=N,
        e_max=e_max,
        probe_N=N + PROBE_STEP,
        probe_e_max=e_max + 1,
    )


def scan_and_hsl(R: QuotientRing, n_random: int = 5, power_family_max: int = 3,
                 seed: int = 42, e_max: int = 8, N: int = 8,
                 jobs: int = 1) -> tuple[FteScanReport, HslReport]:
    """fte_scan(R, n_random, power_family_max, seed, e_max) and
    hsl_estimate(R, scan.base, N, e_max), as one map_tasks call.

    The towers need only the base sequence, which is built before the map,
    so they go first, being the longest tasks, from the top degree down as
    in hsl_estimate, followed by the scan samples; a pool then waits once,
    for its slowest worker.  Both reports equal those of the two calls, and
    the checks of both run, in the same order, before any task does.
    """
    base, sample_tasks = _scan_tasks(R, n_random, power_family_max, seed, e_max)
    _check_hsl_args(R, base, e_max)
    d = R.dim
    task = functools.partial(_scan_or_tower, fseq=base, N=N, e_max=e_max)
    results = map_tasks(task, R, list(range(d, -1, -1)) + sample_tasks, jobs)
    scan = _scan_report(R, base, results[d + 1:], n_random, power_family_max,
                        seed, e_max)
    return scan, _hsl_report(R, base, N, e_max, results[d::-1])


def _scan_or_tower(R: QuotientRing, task, fseq: FilterSequence, N: int,
                   e_max: int):
    """A task of scan_and_hsl: the tower of degree task when it is an int,
    else the scan sample it describes."""
    if isinstance(task, int):
        return _hsl_tower(R, task, fseq, N, e_max)
    return _run_sample(R, task, e_max)


# ---------------------------------------------------------------------------
# graded Koszul cohomology oracle


def koszul_cohomology_table(R: QuotientRing, powers, degree_lo: int,
                            degree_hi: int) -> dict:
    """Graded dimensions of every Koszul cohomology H^j(powers; R) in the
    degree window, as {j: {degree: dim}}.

    Cochain components are twisted so the top cohomology R/(powers) carries
    its natural grading: the slot degree of a component indexed by a subset
    T of the t generators is deg_R(element) + sum of deg(f_i) over i not in
    T.  Requires homogeneous relations and generators; the computation is
    rank linear algebra on multiplication matrices between standard monomial
    bases of the graded pieces.
    """
    powers = [R.parse(f) if isinstance(f, str) else f for f in powers]
    t = len(powers)
    if t == 0:
        raise AlgebraError("Koszul complex needs at least one element")
    for g in list(R.relations.own_gens) + powers:
        if not g.is_homogeneous():
            raise AlgebraError("graded Koszul oracle needs homogeneous data")
    p = R.p
    J = R.relations
    degs = [f.weighted_degree() for f in powers]

    piece_cache: dict[int, list[Mono]] = {}

    def piece(D: int) -> list[Mono]:
        if D < 0:
            return []
        if D not in piece_cache:
            piece_cache[D] = std_monomials_of_weighted_degree(J, D)
        return piece_cache[D]

    mult_cache: dict = {}

    def mult_matrix(gi: int, D: int) -> np.ndarray:
        key = (gi, D)
        if key not in mult_cache:
            src = piece(D)
            dst = piece(D + degs[gi])
            index = {m: r for r, m in enumerate(dst)}
            mat = np.zeros((len(dst), len(src)), dtype=np.int64)
            for col, mono in enumerate(src):
                w = J.normal_form(R.ambient.monomial(mono) * powers[gi])
                for m, c in w.terms.items():
                    mat[index[m], col] = c
            mult_cache[key] = mat
        return mult_cache[key]

    subsets = {j: list(itertools.combinations(range(t), j)) for j in range(t + 1)}
    shift = {T: sum(degs[i] for i in range(t) if i not in T)
             for j in range(t + 1) for T in subsets[j]}

    def comp_dims(j: int, D: int) -> list[int]:
        return [len(piece(D - shift[T])) for T in subsets[j]]

    def differential_rank(j: int, D: int) -> int:
        # block matrix of d^j : K^j_D -> K^{j+1}_D
        src_list = subsets[j]
        dst_list = subsets[j + 1]
        src_dims = comp_dims(j, D)
        dst_dims = comp_dims(j + 1, D)
        if sum(src_dims) == 0 or sum(dst_dims) == 0:
            return 0
        src_off = np.cumsum([0] + src_dims)
        dst_off = np.cumsum([0] + dst_dims)
        dst_index = {T: k for k, T in enumerate(dst_list)}
        mat = np.zeros((int(dst_off[-1]), int(src_off[-1])), dtype=np.int64)
        for a, T in enumerate(src_list):
            for i in range(t):
                if i in T:
                    continue
                U = tuple(sorted(T + (i,)))
                b = dst_index[U]
                sign = (-1) ** sum(1 for x in T if x < i)
                block = mult_matrix(i, D - shift[T])
                if block.size == 0:
                    continue
                mat[dst_off[b]:dst_off[b + 1], src_off[a]:src_off[a + 1]] = \
                    (sign * block) % p
        return linalg.rank(mat, p)

    table: dict = {j: {} for j in range(t + 1)}
    for D in range(degree_lo, degree_hi + 1):
        ranks = [differential_rank(j, D) for j in range(t)]
        for j in range(t + 1):
            total = sum(comp_dims(j, D))
            r_out = ranks[j] if j < t else 0
            r_in = ranks[j - 1] if j > 0 else 0
            table[j][D] = total - r_out - r_in
    return table


# ---------------------------------------------------------------------------
# consistency and inequality reports


@dataclass
class NsReport:
    """Comparison of two independently sampled limit towers plus the graded
    Koszul oracle; status is pass, fail or inconclusive."""

    fingerprint: str
    ring_label: str
    N: int
    probes: tuple
    tables: dict
    stabilized: dict
    oracle: dict
    status: str
    first_disagreement: str | None
    notes: list


def _stabilized_tail(values: list[int], window: int) -> int | None:
    if len(values) < window:
        return None
    tail = values[-window:]
    if all(v == tail[0] for v in tail):
        return tail[0]
    return None


NS_PROBES = (1, 2)
STAB_WINDOW = 2


def ns_consistency_check(R: QuotientRing, fseq_a: FilterSequence,
                         fseq_b: FilterSequence, N: int = 6) -> NsReport:
    """Check that two independent filter regular systems of parameters give
    the same stabilized torsion-quotient tables, and that both agree with
    the graded Koszul cohomology oracle at the levels NS_PROBES.

    For i = dim(R) the towers are compared entrywise (the quotients are the
    same R/Q_n up to choice of parameters); for i < dim(R) the tails of the
    last STAB_WINDOW lengths are compared once they are constant.  A tower
    that fails its commutation audit raises InconsistencyError.
    """
    d = R.dim
    tables: dict = {}
    stabilized: dict = {}
    oracle: dict = {}
    notes: list = []
    status = "pass"
    first = None

    def fail(msg: str):
        nonlocal status, first
        status = "fail"
        if first is None:
            first = msg

    for i in range(d + 1):
        ta = limit_system(R, fseq_a, i, N).lengths()
        tb = limit_system(R, fseq_b, i, N).lengths()
        tables[i] = {"a": ta, "b": tb}
        if i == d:
            stabilized[i] = None
            if ta != tb:
                lvl = next(k for k in range(len(ta)) if ta[k] != tb[k])
                fail(f"top tower differs at level {lvl + 1}: {ta[lvl]} vs {tb[lvl]}")
        else:
            va = _stabilized_tail(ta, STAB_WINDOW)
            vb = _stabilized_tail(tb, STAB_WINDOW)
            if va is None or vb is None:
                stabilized[i] = None
                if status == "pass":
                    status = "inconclusive"
                notes.append(f"tower i={i} not stabilized within N={N}")
            else:
                if va != vb:
                    fail(f"stabilized lengths differ at i={i}: {va} vs {vb}")
                stabilized[i] = va

    graded_ok = all(g.is_homogeneous() for g in R.relations.own_gens) and \
        all(f.is_homogeneous() for f in fseq_a.elements)
    if not graded_ok:
        notes.append("graded oracle skipped (non-homogeneous data)")
    elif d == 0:
        notes.append("graded oracle skipped (dimension 0)")
    else:
        for n in NS_PROBES:
            if n > N:
                continue
            powers = [f**n for f in fseq_a.elements]
            full = ideal(R, powers)
            monos = std_monomials(full)
            top_internal = max((mono_weighted_degree(m, R.ambient.weights)
                                for m in monos), default=-1)
            hi = sum(f.weighted_degree() for f in powers) + max(top_internal, 0) + 2
            table = koszul_cohomology_table(R, powers, 0, hi)
            for i in range(d + 1):
                margin = [table[i].get(D, 0) for D in (hi - 1, hi)]
                if any(margin):
                    notes.append(f"oracle window too small at i={i}, n={n}")
                    if status == "pass":
                        status = "inconclusive"
                total = sum(table[i].values())
                oracle.setdefault(i, {})[n] = total
                if i == d:
                    expected = tables[i]["a"][n - 1]
                    if total != expected:
                        fail(f"oracle mismatch at top degree, n={n}: "
                             f"koszul {total} vs tower {expected}")
                else:
                    if stabilized.get(i) is not None and total != stabilized[i]:
                        fail(f"oracle mismatch at i={i}, n={n}: koszul {total} "
                             f"vs stabilized tower {stabilized[i]}")

    return NsReport(
        fingerprint=ring_fingerprint(R),
        ring_label=R.label,
        N=N,
        probes=NS_PROBES,
        tables=tables,
        stabilized=stabilized,
        oracle=oracle,
        status=status,
        first_disagreement=first,
        notes=notes,
    )


@dataclass
class InequalityReport:
    """Empirical comparison of the sampled Frobenius test exponent bound
    against the witnessed HSL number, with the pushed-closure mechanism."""

    fingerprint: str
    ring_label: str
    max_fte: int | None
    hsl_overall: int
    holds: bool
    status: str
    mechanism: list
    mechanism_ok: bool
    notes: list


def verify_inequality(R: QuotientRing, scan, hsl: HslReport) -> InequalityReport:
    """Check max sampled Frobenius test exponent >= witnessed HSL number.
    A strict gap max_fte > hsl_overall is inconclusive, not pass: the
    witnessed HSL is only a lower bound.

    Also traces the mechanism linking the two sides: for every prefix-power
    family (f_1^n..f_t^n, f_{t+1}..f_d) with a nontrivial closure, each
    closure generator a is pushed to the uniform power family via
    a * (f_{t+1} ... f_d)^(n-1), and its Frobenius-nilpotency order there
    must be bounded by the family's test exponent.  That order is the
    least level of the uniform family's closure chain holding the pushed
    element, read off the chain of the scan's (d, n) sample, the (1, 1)
    sample at n = 1; levels that chain lacks are built (chain_level), once
    for each uniform family.
    """
    fp = ring_fingerprint(R)
    notes: list = []
    if scan.fingerprint != fp or hsl.fingerprint != fp:
        raise AlgebraError("scan/hsl reports belong to a different ring")
    status = "pass"
    if scan.any_failures:
        notes.append("some scan samples failed; the bound uses the rest")
    if scan.max_fte is None:
        status = "inconclusive"
        notes.append("no scan sample succeeded")
    if not hsl.stable:
        status = "inconclusive"
        notes += [f"HSL degree {i} is unstable: the probe run disagreed with the "
                  f"base run, or the base run read none of its nonzero levels"
                  for i, ok in hsl.per_index_stable.items() if not ok]
    holds = scan.max_fte is not None and scan.max_fte >= hsl.overall

    base = scan.base.elements
    families = {(s.descriptor["t"], s.descriptor["n"]): s
                for s in scan.samples if s.kind == "power-family"}
    mechanism: list = []
    mechanism_ok = True
    uniform_levels: dict = {}  # n -> the levels of the uniform family so far
    for (t, n), sample in families.items():
        if sample.error is not None:
            continue
        if n not in uniform_levels:
            uniform = families[(len(base) if n > 1 else 1, n)].chain
            uniform_levels[n] = (list(uniform.levels) if uniform
                                 else [ideal(R, [f**n for f in base])])
        levels = uniform_levels[n]
        tail = R.ambient.one()
        for f in base[t:]:
            tail = tail * f
        push = tail**(n - 1)
        entry = {"t": t, "n": n, "fte": sample.fte, "classes": []}
        for a in sample.chain.closure.groebner_basis():
            if sample.chain.levels[0].contains(a):
                continue
            pushed = a * push
            order = chain_level(pushed, levels, max(sample.fte, 1))
            record = {"gen": str(a), "pushed": str(pushed)}
            if order == 0:
                record["zero_class"] = True
            else:
                record["order"] = order
                record["zero_class"] = False
                if order is None or order > sample.fte:
                    mechanism_ok = False
                    record["violating"] = True
            entry["classes"].append(record)
        mechanism.append(entry)
    if not mechanism_ok and status == "pass":
        status = "fail"
    if status == "pass" and not holds:
        status = "fail"
    if holds and scan.max_fte > hsl.overall:
        notes.append("max_fte exceeds hsl_overall, but the witnessed HSL is "
                     "only a lower bound, so the gap is not shown")
        if status == "pass":
            status = "inconclusive"
    return InequalityReport(
        fingerprint=fp,
        ring_label=R.label,
        max_fte=scan.max_fte,
        hsl_overall=hsl.overall,
        holds=holds,
        status=status,
        mechanism=mechanism,
        mechanism_ok=mechanism_ok,
        notes=notes,
    )


@dataclass
class Prop34Report:
    """Two-way correspondence between closure quotients and nilpotent
    classes of the limit tower for one prefix and level."""

    fingerprint: str
    prefix: list
    n: int
    e: int
    forward: list
    backward: list
    forward_ok: bool
    backward_ok: bool
    ok: bool


def prop34_check(R: QuotientRing, prefix_elements, n: int = 1, e: int = 1,
                 N: int = 8, e_max: int = 8) -> Prop34Report:
    """Both directions of the closure/nilpotence correspondence.

    Forward: every generator of the Frobenius closure of (x_1^n, ..., x_t^n)
    beyond the ideal itself is killed, with order at most e, by the
    Frobenius chain into the matching power level.  Backward: every
    nilpotent witness of order at most e found in the truncated tower lies
    in the computed Frobenius closure at its level.  Both directions are
    vacuously true on rings with trivial closures and no nilpotent classes.
    """
    if n < 1:
        raise AlgebraError("power n must be >= 1")
    prefix = [R.parse(f) if isinstance(f, str) else f for f in prefix_elements]
    t = len(prefix)
    seq = make_sequence(R, prefix)
    ok_seq, bad = is_filter_regular_sequence(seq)
    if not ok_seq:
        raise AlgebraError(f"prefix is not filter regular at index {bad}")

    closure = frobenius_closure(ideal(R, [f**n for f in prefix]), e_max)
    forward: list = []
    forward_ok = True
    levels = list(closure.levels)
    for g in closure.closure.groebner_basis():
        order = chain_level(g, levels, e_max)
        if order == 0:
            continue
        entry = {"gen": str(g), "order": order}
        if order is None or order > e:
            forward_ok = False
            entry["violating"] = True
        forward.append(entry)

    system = limit_system(R, seq, t, N)
    nil = nilpotent_part(system, e)
    backward: list = []
    backward_ok = True
    for w in nil.witnesses:
        level_ideal = ideal(R, [f**w.level for f in prefix])
        level_closure = frobenius_closure(level_ideal, e_max)
        member = level_closure.closure.contains(w.poly)
        entry = {"level": w.level, "order": w.order, "poly": str(w.poly),
                 "in_closure": member}
        if not member:
            backward_ok = False
            entry["violating"] = True
        backward.append(entry)

    return Prop34Report(
        fingerprint=ring_fingerprint(R),
        prefix=[str(f) for f in prefix],
        n=n,
        e=e,
        forward=forward,
        backward=backward,
        forward_ok=forward_ok,
        backward_ok=backward_ok,
        ok=forward_ok and backward_ok,
    )
