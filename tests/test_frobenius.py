"""Bracket powers, q-th power preimages, Frobenius closure, test exponents."""

import functools
import itertools
import math
import os
import pickle
import random
import sys

import pytest

import frobex.frobenius as frobenius_module
import frobex.groebner as groebner_module
from frobex import algebra, corpus, filterreg, localcoh
from frobex.algebra import (
    AlgebraError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    frobenius_raise,
    monomials_of_weighted_degree,
)
from frobex.corpus import load_corpus_ring
from frobex.filterreg import random_filter_regular_sop
from frobex.frobenius import (
    _preimage_by_elimination,
    fte_scan,
    frobenius_closure,
    frobenius_power,
    parameter_base,
    power_family_ideal,
    qpower_preimage,
)
from frobex.groebner import (
    GBConfig,
    QuotientRing,
    ResourceCapExceeded,
    _framed_basis,
    ideal,
    linear_frame,
    ring_fingerprint,
    shared_bases,
)
from frobex.seeding import rng_for


def poly_ring(p, *names):
    return PolyRing(PrimeField(p), names, MonomialOrder("grevlex"))


def random_ideal(rng, P, max_gens=2, max_deg=3):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            m = tuple(rng.randrange(max_deg + 1) for _ in range(P.nvars))
            terms[m] = rng.randrange(1, P.p)
        g = P.poly(terms)
        if g:
            gens.append(g)
    return ideal(P, gens)


# --- bracket powers ---

def test_frobenius_power_raises_generators():
    P = poly_ring(2, "x", "y")
    I = ideal(P, "x + y", "x*y")
    F = frobenius_power(I, 1)
    assert {str(g) for g in F.own_gens} == {"x^2+y^2", "x^2*y^2"}
    assert frobenius_power(I, 0).equals(I)
    with pytest.raises(AlgebraError):
        frobenius_power(I, -1)


def test_frobenius_power_keeps_quotient_relations():
    R = load_corpus_ring("fermat-cubic-p2")
    I = ideal(R, "y", "z")
    F = frobenius_power(I, 1)
    # x^3 + y^3 + z^3 = 0 in R, so x^3 lies in (y^2, z^2) + relations
    assert F.contains("x^3")


# --- q-th power preimages ---

def test_preimage_recovers_ideal_on_regular_rings():
    # over a polynomial ring the Frobenius is flat: preimage of I^[q] is I
    rng = rng_for(42, "frob", "exact")
    for p, names in ((2, ("x", "y")), (3, ("x", "y"))):
        P = poly_ring(p, *names)
        for _ in range(8):
            I = random_ideal(rng, P)
            for e in (1, 2):
                back = qpower_preimage(frobenius_power(I, e), e)
                assert back.equals(I)


def test_preimage_monomial_oracle():
    # preimage of a monomial ideal is generated by the ceil(a/q) exponent
    # vectors of its generators
    rng = rng_for(42, "frob", "mono")
    P = poly_ring(2, "x", "y", "z")
    for _ in range(15):
        e = rng.randrange(1, 3)
        q = 2**e
        monos = [tuple(rng.randrange(7) for _ in range(3))
                 for _ in range(rng.randrange(1, 4))]
        K = ideal(P, [P.monomial(m) for m in monos])
        want = ideal(P, [P.monomial(tuple(math.ceil(a / q) for a in m))
                         for m in monos])
        assert qpower_preimage(K, e).equals(want)


def test_preimage_rounds_up_not_down():
    # {g : g^2 in (x)} is (x) itself; the e-th Frobenius root of (x) would be
    # the unit ideal, so the two operations genuinely differ on odd exponents
    P = poly_ring(2, "x", "y")
    got = qpower_preimage(ideal(P, "x"), 1)
    assert got.equals(ideal(P, "x"))
    assert got.is_proper()


def test_preimage_identity_at_level_zero():
    P = poly_ring(3, "x", "y")
    I = ideal(P, "x^2 + y")
    assert qpower_preimage(I, 0).equals(I)
    with pytest.raises(AlgebraError):
        qpower_preimage(I, -2)


def test_preimage_defining_property_in_quotient():
    R = load_corpus_ring("fermat-cubic-p2")
    K = frobenius_power(ideal(R, "y", "z"), 1)
    pre = qpower_preimage(K, 1)
    # forward: raised generators of the preimage land in K
    for g in pre.own_gens:
        assert K.contains(frobenius_raise(g, 1))
    # the certificate element: x^2 squared is x*(x^3) = x*(y^3 + z^3)
    assert pre.contains("x^2")
    # but x itself does not square into K
    assert not K.contains("x^2")
    assert not pre.contains("x")


# --- graded preimages against the elimination oracle ---

def random_form(rng, P, degree):
    """A homogeneous polynomial on at most three random monomials of the
    given standard degree."""
    monos = monomials_of_weighted_degree(P.nvars, degree, P.weights)
    return P.poly({m: rng.randrange(1, P.p)
                   for m in rng.sample(monos, min(3, len(monos)))})


@pytest.fixture
def elimination_calls(monkeypatch):
    """Record every fallback qpower_preimage makes to the elimination."""
    calls = []

    def spy(K, e):
        calls.append((K, e))
        return _preimage_by_elimination(K, e)

    monkeypatch.setattr(frobenius_module, "_preimage_by_elimination", spy)
    return calls


def assert_graded_matches_oracle(K, e, calls):
    got = qpower_preimage(K, e)
    assert not calls, f"fell back to elimination on {K!r}, e={e}"
    want = _preimage_by_elimination(K, e)
    assert got.groebner_basis() == want.groebner_basis(), (K, e)


def random_mprimary_K(rng, P, e):
    """I^[q] for random forms I, plus pure powers x_i^b with q < b < 4q so
    that K is m-primary, plus one random form of degree between q and 3q."""
    q = P.p**e
    n = P.nvars
    gens = [frobenius_raise(random_form(rng, P, rng.randrange(1, 4)), e)
            for _ in range(rng.randrange(1, 3))]
    gens += [P.monomial(tuple(rng.randrange(q + 1, 4 * q) if k == i else 0
                              for k in range(n))) for i in range(n)]
    gens.append(random_form(rng, P, rng.randrange(q, 3 * q)))
    return ideal(P, gens)


def test_graded_preimage_matches_elimination_on_random_forms(elimination_calls):
    rng = random.Random(1801)
    with shared_bases(GBConfig(max_pairs=50_000, max_degree=400)):
        for p in (2, 3, 7):
            for names in (("x", "y"), ("x", "y", "z")):
                P = poly_ring(p, *names)
                for _ in range(3):
                    for e in (1, 2):
                        assert_graded_matches_oracle(random_mprimary_K(rng, P, e), e,
                                                     elimination_calls)


@pytest.mark.parametrize("label", ["fermat-cubic-p2", "two-planes-f2"])
def test_graded_preimage_matches_elimination_on_parameter_brackets(
        label, elimination_calls):
    R = load_corpus_ring(label)
    base = parameter_base(R, seed=42)
    ideals = [power_family_ideal(R, base.elements, t, n)
              for t in range(1, R.dim + 1) for n in (1, 2)]
    ideals.append(ideal(R, list(random_filter_regular_sop(R, seed=1801).elements)))
    for I in ideals:
        for e in (1, 2):
            assert_graded_matches_oracle(frobenius_power(I, e), e,
                                         elimination_calls)


def test_kernel_read_basis_matches_buchberger_and_elimination():
    # the reduced basis read off the kernels, under grevlex and under
    # orders that are not degree-compatible, against a Buchberger run on
    # it (it is reduced) and against the elimination (it is the preimage)
    rng = random.Random(42)
    agreed, capped = 0, 0
    with shared_bases(GBConfig()):
        for p in (2, 3, 5, 7):
            for names in (("x", "y"), ("x", "y", "z")):
                for order in (MonomialOrder("grevlex"), MonomialOrder("block", (0,)),
                              MonomialOrder("block", (1,))):
                    P = PolyRing(PrimeField(p), names, order)
                    for e in (1, 2):
                        K = random_mprimary_K(rng, P, e)
                        try:
                            got = frobenius_module._graded_preimage(K, e)
                            want = _preimage_by_elimination(K, e)
                        except ResourceCapExceeded:
                            capped += 1
                            continue
                        rebuilt, _ = groebner_module.buchberger_basis(got.own_gens, order, p)
                        assert [g.terms for g in got.groebner_basis()] == rebuilt, (K, e)
                        assert got.groebner_basis() == want.groebner_basis(), (K, e)
                        agreed += 1
    # at seed 42, 47 agree, and one K trips the pair budget in its framed basis
    assert agreed >= 46, (agreed, capped)


def assert_images_match_raw_powers(K, e):
    """Every image _qpower_images builds, degree by degree up to the first
    degree where all vanish, equals NF(m^q) reduced from the raw power m^q."""
    ring = K.ambient
    reducers = K.reducers()
    q = ring.p**e
    assert ring.order == MonomialOrder("grevlex")
    for d, images in enumerate(frobenius_module._qpower_images(
            ring.nvars, ring.p, reducers, q)):
        assert list(images) == monomials_of_weighted_degree(ring.nvars, d,
                                                            ring.weights)
        for m, img in images.items():
            raw = groebner_module._nf_terms({tuple(q * a for a in m): 1},
                                            reducers, ring.p, ring.order)
            assert img == raw, (K, e, m)
        if not any(images.values()):
            return


def test_qpower_images_match_raw_powers_on_random_forms():
    rng = random.Random(42)
    with shared_bases(GBConfig(max_pairs=50_000, max_degree=400)):
        for p in (2, 3, 7):
            for names in (("x", "y"), ("x", "y", "z")):
                P = poly_ring(p, *names)
                for _ in range(3):
                    for e in (1, 2):
                        assert_images_match_raw_powers(random_mprimary_K(rng, P, e),
                                                       e)


def test_qpower_images_match_raw_powers_on_p7_bracket():
    # q = 49 over x^3 + y^3 + z^3: the reduction the images are built to save
    R = load_corpus_ring("fermat-cubic-p7")
    with shared_bases(GBConfig(max_pairs=400_000, max_degree=300)):
        assert_images_match_raw_powers(frobenius_power(ideal(R, "x^2", "y"), 2), 2)


def test_qpower_images_match_raw_powers_on_hypersurface_brackets():
    # brackets of the variables after a relation's leading one, for every
    # q <= 49: there NF(x^q) is no monomial, as x^q reduces by the relation,
    # so the images multiply normal forms with several terms
    products = 0
    with shared_bases(GBConfig(max_pairs=400_000, max_degree=300)):
        for p in (2, 3, 5, 7):
            for R in fermat_type_rings(p):
                params = R.variables[len(R.relations.own_gens):]
                for e in itertools.takewhile(lambda e: p**e <= 49, itertools.count(1)):
                    K = frobenius_power(ideal(R, list(params)), e)
                    assert_images_match_raw_powers(K, e)
                    x_q = {(p**e,) + (0,) * (R.ambient.nvars - 1): 1}
                    products += len(groebner_module._nf_terms(
                        x_q, K.reducers(), p, R.ambient.order)) > 1
    assert products >= 15, products


# --- the order of the graded normal forms ---

def random_triangular_K(rng, R, e):
    """An m-primary K with one generator per variable over R, whose
    generators lead with pure powers of distinct variables under grevlex on
    a random ranking of the variables: R's relation, if any, which is
    x^d + y^d + ... and leads with x^d once x ranks highest, plus for each
    other variable u either the bracket of a linear form u + (variables
    below u) or a form c*u^a + (terms involving a variable below u)."""
    P = R.ambient
    n, q = P.nvars, P.p**e
    top = len(R.relations.own_gens)
    rank = list(range(top)) + rng.sample(range(top, n), n - top)
    gens = []
    for k in range(top, n):
        below = rank[k + 1:]
        u = rank[k]
        if rng.random() < 0.5:
            # I^[q] for a linear form u + (variables below u)
            lin = {tuple(int(v == u) for v in range(n)): rng.randrange(1, P.p)}
            for v in below:
                lin[tuple(int(w == v) for w in range(n))] = rng.randrange(P.p)
            gens.append(frobenius_raise(P.poly(lin), e))
        else:
            a = rng.randrange(1, 2 * q + 1)
            terms = {tuple(a if v == u else 0 for v in range(n)): rng.randrange(1, P.p)}
            for _ in range(rng.randrange(3) if below else 0):
                m = [0] * n
                m[rng.choice(below)] += 1
                for _ in range(a - 1):
                    m[rng.randrange(n)] += 1
                terms[tuple(m)] = rng.randrange(1, P.p)
            gens.append(P.poly(terms))
    return ideal(R, gens)


def fermat_type_rings(p):
    yield QuotientRing(poly_ring(p, "x", "y"), [])
    yield QuotientRing(poly_ring(p, "x", "y", "z"), ["x^3 + y^3 + z^3"])
    yield QuotientRing(poly_ring(p, "x", "y", "z"), ["x^2 + y^2 + z^2"])
    yield QuotientRing(poly_ring(p, "x", "y", "z", "w"), ["x^2 + y^2 + z^2 + w^2"])


def assert_frame_matches_ring_coordinates(K, e, monkeypatch):
    """The graded preimage read off K's frame generates the same ideal as
    the one read off ring coordinates (the identity frame, the oracle).
    Returns whether the frame moved the coordinates."""
    units = [{m: 1} for m in monomials_of_weighted_degree(K.ambient.nvars, 1,
                                                          K.ambient.weights)]
    forward, _ = linear_frame(K.ambient, frobenius_module._frame_forms(K.own_gens))
    got = frobenius_module._graded_preimage(K, e)
    with monkeypatch.context() as m:
        m.setattr(frobenius_module, "_frame_forms", lambda gens: ())
        oracle, _ = linear_frame(K.ambient, frobenius_module._frame_forms(K.own_gens))
        assert [oracle(u) for u in units] == units
        want = frobenius_module._graded_preimage(K, e)
    assert got is not None and want is not None, K
    # each level's basis is read off its kernels; Buchberger is the oracle
    assert (got.groebner_basis() == want.groebner_basis()
            == ideal(K.ring, want.own_gens).groebner_basis()), (K, e)
    return [forward(u) for u in units] != units


def test_permuted_order_matches_ring_order_on_random_K(monkeypatch):
    # triangular K, and brackets of random linear sequences (sparse, dense
    # and non-unit forms, with a dependent one the frame must skip)
    rng, linear_rng = random.Random(1801), random.Random(42)
    moved = 0
    with shared_bases(GBConfig(max_pairs=400_000, max_degree=400)):
        for p in (2, 3, 7):
            for R in fermat_type_rings(p):
                for e in (1, 2):
                    for _ in range(2):
                        K = random_triangular_K(rng, R, e)
                        moved += assert_frame_matches_ring_coordinates(K, e, monkeypatch)
                    K = frobenius_power(random_linear_K(linear_rng, R), e)
                    if p**e < 49 and frobenius_module._graded_preimage(K, e) is not None:
                        moved += assert_frame_matches_ring_coordinates(K, e, monkeypatch)
    assert moved >= 40, moved


def test_permuted_order_matches_ring_order_on_p7_bracket(monkeypatch):
    # q = 49 over x^3 + y^3 + z^3: in the frame of x and y, z comes first, the
    # cubic leads with z^3, and the bracket's generators are their own basis
    R = load_corpus_ring("fermat-cubic-p7")
    K = frobenius_power(ideal(R, "x^2", "y"), 2)
    with shared_bases(GBConfig(max_pairs=400_000, max_degree=300)):
        _, reducers = _framed_basis(K, frobenius_module._frame_forms(K.own_gens))
        assert sorted(lm for lm, _ in reducers) == [(0, 0, 49), (0, 98, 0), (3, 0, 0)]
        assert assert_frame_matches_ring_coordinates(K, 2, monkeypatch)


def random_linear_form(rng, P):
    """A variable, a form in two variables, a form in every variable, or
    one of these with a coefficient other than 1."""
    n, p = P.nvars, P.p
    support = rng.sample(range(n), rng.choice((1, min(2, n), n)))
    return P.poly({tuple(int(i == j) for i in range(n)): rng.randrange(1, p)
                   for j in support})


def random_linear_K(rng, R):
    """I generated by random linear forms, one per variable over a
    polynomial ring and one fewer over a hypersurface, some of them raised
    to the bracket power f^[p] or replaced by a unit times a power of one of
    their variables, plus a combination of the first two of the forms these
    are powers of, which the frame must skip."""
    P = R.ambient
    n, p = P.nvars, P.p
    count = n - len(R.relations.own_gens)
    roots = [random_linear_form(rng, P) for _ in range(count)]
    gens = []
    for k, f in enumerate(roots):
        kind = rng.randrange(3)
        if kind == 1:
            f = f**p
        elif kind == 2:
            roots[k] = P.monomial(next(iter(f.terms)))
            f = (roots[k] * rng.randrange(1, p))**rng.randrange(1, 4)
        gens.append(f)
    if count > 1:
        gens.append(roots[0] * rng.randrange(1, p) + roots[1])
    return ideal(R, gens)


def weighted_K():
    P = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (1, 2))
    return ideal(P, "x^2 + y", "y^3")


@pytest.mark.parametrize("make_K", [
    lambda: ideal(poly_ring(2, "x", "y"), "x^3 + y", "y^2"),
    lambda: ideal(poly_ring(2, "x", "y"), "x^2"),
    weighted_K,
], ids=["inhomogeneous", "not-m-primary", "weighted"])
def test_preimage_fallbacks_take_elimination(make_K, elimination_calls):
    K = make_K()
    got = qpower_preimage(K, 2)
    assert len(elimination_calls) == 1
    want = _preimage_by_elimination(K, 2)
    assert got.groebner_basis() == want.groebner_basis()


def test_a_cap_trip_in_the_framed_basis_is_final(elimination_calls):
    # K is m-primary, and the S-polynomial y^5 of its generators grows two
    # degrees past them: over a cap of 1 the preimage fails, under 2 it is
    # graded
    K = ideal(poly_ring(2, "x", "y"), "x^3 + y^3", "x*y^2")
    with shared_bases(GBConfig(max_degree=1)):
        with pytest.raises(ResourceCapExceeded, match="5 > 3 \\+ 1"):
            qpower_preimage(K, 2)
    assert elimination_calls == []
    with shared_bases(GBConfig(max_degree=2)):
        assert_graded_matches_oracle(K, 2, elimination_calls)


def test_fte_on_p7_at_default_caps(elimination_calls):
    # at q = 49 the bracket power has degree 147, over the default degree cap
    # of 120, which bounds growth and not input: the chain stays graded
    R = load_corpus_ring("fermat-cubic-p7")
    I = ideal(R, "x^3", "y")
    with shared_bases(GBConfig()):
        res = frobenius_closure(I)
        assert res.certified and res.stabilized_at == 0
        assert res.fte == 0
    assert elimination_calls == []


def test_p7_bracket_preimage_at_default_caps_matches_elimination(elimination_calls):
    R = load_corpus_ring("fermat-cubic-p7")
    with shared_bases(GBConfig()):
        assert_graded_matches_oracle(frobenius_power(ideal(R, "x^3", "y"), 2), 2,
                                     elimination_calls)


def test_f5_curve_closure_is_stable_at_default_caps():
    # the chain of (x, y) reaches q = 125: its bracket x^125 is above the
    # default degree cap of 120, which bounds growth and not input
    R = QuotientRing(poly_ring(5, "x", "y", "z"), ["2*x^3+y^3+z^3+2*x*y^2"])
    with shared_bases(GBConfig()):
        res = frobenius_closure(ideal(R, "x", "y"))
    assert res.stable and res.levels_computed >= 3


def test_p7_square_family_closure_at_default_caps(elimination_calls):
    # the (t = 2, n = 2) and (t = 2, n = 3) scan samples: at q = 49 the
    # bracket's generators are their own basis with z ranked first, so they
    # never reach the degree cap
    R = load_corpus_ring("fermat-cubic-p7")
    for gens in (("x^2", "y^2"), ("x^3", "y^3")):
        with shared_bases(GBConfig()):
            res = frobenius_closure(ideal(R, *gens))
        assert elimination_calls == [], gens
        assert res.certified and res.stabilized_at == 0, gens


@pytest.mark.parametrize("gens", [("x^2", "y"), ("x^3", "y")])
def test_p7_closure_stays_graded_at_raised_caps(gens, elimination_calls):
    # the closures the p7-closure benchmark times, at its caps: the q = 49
    # level stays on the graded path there too
    R = load_corpus_ring("fermat-cubic-p7")
    with shared_bases(GBConfig(max_pairs=400_000, max_degree=300)):
        res = frobenius_closure(ideal(R, *gens))
    assert elimination_calls == []
    assert res.certified and res.stabilized_at == 0


# --- closure and test exponent ---

def test_closure_trivial_on_regular_ring():
    P = poly_ring(2, "x", "y")
    R = QuotientRing(P, [])
    I = ideal(R, "x^2", "y^3")
    res = frobenius_closure(I)
    assert res.certified and res.stable
    assert res.stabilized_at == 0
    assert res.closure.equals(I)
    assert len(set(res.chain_lengths)) == 1
    assert res.fte == 0


def test_closure_fermat_cubic_known_value():
    R = load_corpus_ring("fermat-cubic-p2")
    I = ideal(R, "y", "z")
    res = frobenius_closure(I)
    assert res.closure.equals(ideal(R, "y", "z", "x^2"))
    assert res.stabilized_at == 1
    assert res.stable and not res.certified
    assert res.fte == 1
    # the closure ideal is itself Frobenius closed
    again = frobenius_closure(res.closure)
    assert again.closure.equals(res.closure)
    assert again.certified


def test_closure_short_budget_reports_unstable():
    R = load_corpus_ring("fermat-cubic-p2")
    res = frobenius_closure(ideal(R, "y", "z"), e_max=1)
    assert not res.stable
    assert res.levels_computed == 1


def bracket_order(I, g, e_max):
    """The oracle of chain_level: the least e <= e_max with g^[p^e] in the
    bracket I^[p^e], by that bracket's own basis in ring coordinates."""
    return next((e for e in range(e_max + 1)
                 if frobenius_power(I, e).contains(frobenius_raise(g, e))), None)


def test_chain_level_matches_the_bracket_definition():
    # the least level holding g equals the least e with g^[q] in I^[q] + J,
    # whether the levels are read off a chain or built on demand: power
    # families of the corpus, random linear sequences over F_2, F_3 and
    # F_7, an ideal that is not m-primary and an inhomogeneous one
    rng = random.Random(1801)
    cases = []
    for label in ("fermat-cubic-p2", "fermat-quintic-p2", "two-planes-f2",
                  "regular-f3-xyz", "depth-zero-f2"):
        R = load_corpus_ring(label)
        base = parameter_base(R, 42).elements
        cases += [(power_family_ideal(R, base, t, n), 2)
                  for t in range(1, len(base) + 1) for n in (1, 2)]
    # in the frame of dense forms a relation is dense, and preimages of
    # high-degree brackets in it take seconds, so these stop at e = 1
    linear_rng = random.Random(42)
    cases += [(random_linear_K(linear_rng, R), 1)
              for p in (2, 3, 7) for R in fermat_type_rings(p)]
    R = load_corpus_ring("regular-f2-xy")
    cases += [(ideal(R, "x"), 2), (ideal(R, "x + x^2", "y"), 2)]
    found = []
    for k, (I, e_max) in enumerate(cases):
        P = I.ambient
        # every other case reads J_1 off a chain and builds only J_2
        levels = (frobenius_closure(I, 1).levels if k % 2 and e_max > 1
                  else [I])
        # members, the quadratic monomials (x^2 has order 1 over the
        # cubic and 2 over the quintic), and random elements with exponents
        # below 2p, and below 6 over F_7 for the same reason
        probes = [g * P.monomial(m) for g in I.generators
                  for m in monomials_of_weighted_degree(P.nvars, 1, P.weights)]
        probes += [P.monomial(m) for m in monomials_of_weighted_degree(P.nvars, 2, P.weights)]
        probes += [P.poly({tuple(rng.randrange(2 * min(P.p, 3)) for _ in range(P.nvars)):
                           rng.randrange(1, P.p) for _ in range(3)})
                   for _ in range(10)]
        for f in probes:
            want = bracket_order(I, f, e_max)
            assert frobenius_module.chain_level(f, levels, e_max) == want, (I, f)
            found.append(want)
    assert found.count(1) >= 5 and found.count(2) >= 1 and None in found, found


def test_closure_to_dict_shape():
    P = poly_ring(2, "x", "y")
    R = QuotientRing(P, [])
    d = frobenius_closure(ideal(R, "x")).to_dict()
    assert set(d) == {"closure", "stabilized_at", "window_checked", "certified",
                      "chain_lengths", "stable", "levels_computed"}


# --- power families and the scan ---

def test_power_family_ideal():
    R = load_corpus_ring("regular-f2-xy")
    base = R.ambient.gens()
    fam = power_family_ideal(R, base, t=1, n=3)
    assert {str(g) for g in fam.own_gens} == {"x^3", "y"}
    fam = power_family_ideal(R, base, t=2, n=2)
    assert {str(g) for g in fam.own_gens} == {"x^2", "y^2"}
    with pytest.raises(AlgebraError):
        power_family_ideal(R, base, t=0, n=1)
    with pytest.raises(AlgebraError):
        power_family_ideal(R, base, t=3, n=1)


def test_parameter_base_prefers_coordinates():
    F = load_corpus_ring("fermat-cubic-p7")
    assert parameter_base(F, seed=42).element_strings() == ["x", "y"]
    D = load_corpus_ring("depth-zero-f2")
    assert parameter_base(D, seed=42).element_strings() == ["y"]
    # no coordinate pair works on the two-planes ring, so the search runs
    T = load_corpus_ring("two-planes-f2")
    base = parameter_base(T, seed=42)
    assert len(base) == 2 and base.verified is True


def test_fte_scan_regular_ring(monkeypatch):
    R = load_corpus_ring("regular-f2-xy")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 2)
    report = fte_scan(R, n_random=2, seed=42)
    assert report.max_fte == 0
    assert not report.any_failures
    kinds = [s.kind for s in report.samples]
    assert kinds.count("random-sop") == 2
    assert kinds.count("power-family") == 3  # (1,1), (1,2), (2,2)
    assert all(s.to_dict()["nontrivial"] is False for s in report.samples)
    assert report.base.element_strings() == ["x", "y"]
    assert report.base.verified
    assert report.to_dict()["base_sop"] == ["x", "y"]


def test_fte_scan_detects_fermat_closure(monkeypatch):
    R = load_corpus_ring("fermat-cubic-p2")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 1)
    report = fte_scan(R, n_random=1, seed=42)
    assert report.max_fte == 1
    assert any(s.to_dict()["nontrivial"] for s in report.samples)
    assert not report.any_failures


def test_fte_scan_is_deterministic(monkeypatch):
    R = load_corpus_ring("regular-f2-xy")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 1)
    a = fte_scan(R, n_random=2, seed=7)
    b = fte_scan(R, n_random=2, seed=7)
    assert a.to_dict() == b.to_dict()


def test_fte_scan_parallel_matches_serial(monkeypatch):
    R = load_corpus_ring("regular-f2-xy")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 1)
    serial = fte_scan(R, n_random=1, seed=42, jobs=1)
    parallel = fte_scan(R, n_random=1, seed=42, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def _memo_around_one_basis(R, gen):
    caps, memo = groebner_module._SHARED_BASES.get()
    before = set(memo)
    ideal(R, [gen]).groebner_basis()
    return os.getpid(), caps, before, set(memo)


def test_pool_workers_keep_one_memo_per_command():
    # a forked worker starts with a copy of its parent's memo; the pool's
    # initializer empties it, and the worker's tasks then share it, under the
    # caps of the map, until the map's pool is joined.  A worker runs its
    # tasks in the order they were mapped, so each task must see exactly the
    # keys that the worker's earlier tasks of that map left.
    R = load_corpus_ring("regular-f2-xy")
    caps = GBConfig(max_pairs=7_000, max_degree=70)
    gens = ["x", "y", "x + y"]
    task_keys = {(R.ambient.order, R.p, caps,
                  tuple(frozenset(g.terms.items())
                        for g in ideal(R, [gen]).generators))
                 for gen in gens}
    for _command in range(2):
        with shared_bases(caps):
            ideal(R, ["x"]).groebner_basis()  # a key the tasks build too
            load_corpus_ring("two-planes-f2")
            parent = set(groebner_module._SHARED_BASES.get()[1])
            results = frobenius_module.map_tasks(
                R, [functools.partial(_memo_around_one_basis, gen=gen)
                    for gen in ["x", "y", "x", "y", "x + y", "x"]],
                jobs=2)
        assert parent - task_keys and parent & task_keys
        seen: dict[int, set] = {}
        for pid, task_caps, before, after in results:
            assert task_caps == caps
            assert before == seen.get(pid, set())
            assert after <= task_keys  # every key carries the caps
            seen[pid] = after
        # six tasks on at most two workers: a later task on one worker saw
        # the keys an earlier one left
        assert any(before for _, _, before, _ in results)


def test_every_frobex_exception_survives_pickle():
    # a pooled task's exception comes back to the parent pickled
    stats = groebner_module.GBStats(pairs_processed=61)
    samples = [
        algebra.AlgebraError("no inverse"),
        algebra.RingMismatchError("different rings"),
        algebra.ExponentOverflowError("too big"),
        algebra.ParseError("unexpected token", 4),
        corpus.RingSpecError("no such ring"),
        filterreg.SearchExhausted("no admissible element"),
        filterreg.SequenceShapeError("sequence element outside the maximal ideal"),
        groebner_module.ResourceCapExceeded("pair budget exhausted: 60", stats),
        groebner_module.ImproperIdealError("unit ideal"),
        groebner_module.NotZeroDimensionalError("positive dimension"),
        frobenius_module.InconsistencyError("not ascending"),
        localcoh.TorsionSpanError("outside the span"),
    ]
    defined = {value for name, module in sys.modules.items()
               if name.startswith("frobex")
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == name}
    assert defined == {type(exc) for exc in samples}
    for exc in samples:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc) and copy.args == exc.args
        assert vars(copy) == vars(exc)


def _ring_summary(R):
    return R.grading, ring_fingerprint(R), R.dim


def test_pool_tasks_get_the_callers_ring():
    W = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (1, 2))
    R = QuotientRing(W, ["x^4 + y^2"])
    serial = frobenius_module.map_tasks(R, [_ring_summary] * 2, jobs=1)
    pooled = frobenius_module.map_tasks(R, [_ring_summary] * 2, jobs=2)
    assert pooled == serial == [((1, 2), ring_fingerprint(R), R.dim)] * 2


def test_fte_scan_records_sample_failures(monkeypatch):
    # a closure chain that cannot stabilize within e_max is an honest failure
    R = load_corpus_ring("fermat-cubic-p2")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 1)
    report = fte_scan(R, n_random=0, seed=42, e_max=1)
    assert report.any_failures
    assert report.max_fte is None
    assert all(s.error for s in report.samples)


def test_failed_scan_samples_keep_their_generators(monkeypatch):
    # the degree cap trips on growth in the closure chain, after each ideal
    # is built
    R = load_corpus_ring("two-planes-f2")
    monkeypatch.setattr(frobenius_module, "POWER_FAMILY_MAX", 2)
    with shared_bases(GBConfig(max_degree=2)):
        serial = fte_scan(R, n_random=0)
    assert [s.gens for s in serial.samples] == [
        ["x+y+u+v", "x+v"], ["x^2+y^2+u^2+v^2", "x+v"],
        ["x^2+y^2+u^2+v^2", "x^2+v^2"]]
    assert all(s.error.startswith("ResourceCapExceeded: degree cap exceeded")
               for s in serial.samples)
    with shared_bases(GBConfig(max_degree=2)):
        pooled = fte_scan(R, n_random=0, jobs=2)
    assert pooled.to_dict() == serial.to_dict()


def test_fte_scan_rejects_dimension_zero():
    R = QuotientRing(poly_ring(2, "x"), ["x^2"])
    with pytest.raises(AlgebraError):
        fte_scan(R, n_random=1)
