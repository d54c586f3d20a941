"""Groebner engine: bases, normal forms, ideal operations, quotient rings."""

import ast
import dataclasses
import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest

import frobex.cli as cli_module
import frobex.filterreg as filterreg_module
import frobex.groebner as groebner_module
import frobex.localcoh as localcoh_module
from frobex import linalg
from frobex.algebra import (
    AlgebraError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    mono_div,
    mono_divides,
    mono_mul,
    monomials_of_weighted_degree,
)
from frobex.corpus import corpus_labels, load_corpus_ring
from frobex.groebner import (
    GBConfig,
    ImproperIdealError,
    NotZeroDimensionalError,
    QuotientRing,
    ResourceCapExceeded,
    _colon_by_elimination,
    _colon_by_linear_form,
    _nf_terms,
    _saturation_by_colons,
    _spoly_terms,
    buchberger_basis,
    colon,
    dimension,
    exact_divide,
    fresh_names,
    ideal,
    intersect,
    linear_frame,
    ring_fingerprint,
    saturation,
    staircase,
    std_monomials,
    std_monomials_of_weighted_degree,
)
from frobex.seeding import rng_for


def poly_ring(p, *names, grading=None):
    return PolyRing(PrimeField(p), names, MonomialOrder("grevlex"), grading)


def random_poly(rng, R, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        terms[m] = rng.randrange(R.p)
    return R.poly(terms)


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


# --- bases ---

def test_twisted_cubic_reduced_basis():
    # classic grevlex example: (x^2 - y, x^3 - z) has reduced basis
    # {x^2 - y, x*y - z, y^2 - x*z}
    P = poly_ring(5, "x", "y", "z")
    I = ideal(P, "x^2 - y", "x^3 - z")
    gb = I.groebner_basis()
    assert {str(g) for g in gb} == {"x^2+4*y", "x*y+4*z", "y^2+4*x*z"}
    ok, pair = spairs_reduce_to_zero([g.terms for g in gb], P.p, P.order)
    assert ok and pair is None


def test_basis_is_monic_and_autoreduced():
    P = poly_ring(3, "x", "y")
    I = ideal(P, "2*x^2 + y", "2*y^2 + x*y + 1")
    gb = I.groebner_basis()
    lms = [g.leading_monomial() for g in gb]
    for g in gb:
        assert g.leading_term()[1] == 1
        for m in g.terms:
            if m == g.leading_monomial():
                continue
            assert not any(lm != g.leading_monomial() and _divides(lm, m) for lm in lms)
            assert not _divides(g.leading_monomial(), m)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def test_empty_and_zero_generators():
    P = poly_ring(2, "x", "y")
    assert ideal(P).groebner_basis() == ()
    assert ideal(P, P.zero()).groebner_basis() == ()
    gb, stats = buchberger_basis([], P.order, P.p)
    assert gb == [] and stats.basis_size == 0


def test_gb_stats_populated():
    P = poly_ring(5, "x", "y", "z")
    I = ideal(P, "x^2 - y", "x^3 - z")
    I.groebner_basis()
    stats = I.gb_stats
    assert stats.basis_size == 3
    assert stats.pairs_processed >= 1
    assert {f.name for f in dataclasses.fields(stats)} == {
        "pairs_processed", "zero_reductions", "max_degree_seen", "basis_size"}


def test_pair_budget_cap():
    P = poly_ring(3, "x", "y")
    I = ideal(P, "x^2 + y", "y^2 + x")
    with groebner_module.shared_bases(GBConfig(max_pairs=0)):
        with pytest.raises(ResourceCapExceeded) as err:
            I.groebner_basis()
    assert err.value.stats.pairs_processed >= 1


def test_degree_cap():
    # the cap bounds growth: an input far above it costs nothing, while the
    # S-polynomial y^5 of x^3 + y^3 and x*y^2 grows two degrees past them
    P = poly_ring(3, "x", "y")
    with groebner_module.shared_bases(GBConfig(max_degree=1)):
        assert len(ideal(P, "x^9 + y^9", "y^12").groebner_basis()) == 2
        I = ideal(P, "x^3 + y^3", "x*y^2")
        with pytest.raises(ResourceCapExceeded,
                           match=r"^degree cap exceeded: 5 > 3 \+ 1$") as err:
            I.groebner_basis()
    assert err.value.stats.max_degree_seen == 5
    with groebner_module.shared_bases(GBConfig(max_degree=2)):
        I.groebner_basis()
        assert I.gb_stats.max_degree_seen == 5


def test_spair_audit_flags_incomplete_basis():
    P = poly_ring(5, "x", "y", "z")
    broken = [P.parse("x^2 - y").terms, P.parse("x^3 - z").terms]
    ok, pair = spairs_reduce_to_zero(broken, P.p, P.order)
    assert not ok and pair == (0, 1)


def test_every_basis_goes_through_groebner():
    # criterion 8 audits bases by wrapping this one binding
    assert cli_module.main  # the CLI imports every frobex module
    for name, module in list(sys.modules.items()):
        if name.startswith("frobex") and name != "frobex.groebner":
            assert not any(value is buchberger_basis
                           for value in vars(module).values()), name


def _calls_gbconfig(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "GBConfig")


def test_caps_come_only_from_the_enclosing_block():
    # buchberger_basis is the one function that takes caps; everything else
    # reads them from shared_bases(), and only the CLI makes a GBConfig
    # besides the library default
    takes_config, makes_caps = [], []
    for path in sorted(Path(groebner_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        default = {node.value.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and _calls_gbconfig(node.value)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["DEFAULT_GB_CONFIG"]}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    x for x in (a.vararg, a.kwarg) if x is not None]
                if any(x.arg == "config" for x in params):
                    takes_config.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
            elif _calls_gbconfig(node) and node.lineno not in default:
                makes_caps.append(path.stem)
        if path.stem == "groebner":
            assert len(default) == 1
    assert takes_config == ["groebner.buchberger_basis"]
    assert makes_caps == ["cli"]


# --- bases shared within a block ---

@pytest.fixture
def builds(monkeypatch):
    """Generator lists handed to buchberger_basis, one entry per build."""
    seen = []
    build = groebner_module.buchberger_basis

    def counted(polys, order, p, caps):
        seen.append(polys)
        return build(polys, order, p, caps)

    monkeypatch.setattr(groebner_module, "buchberger_basis", counted)
    return seen


def test_shared_basis_equals_direct_build():
    rng = rng_for(42, "gb", "shared")
    config = GBConfig(max_pairs=100)
    checked = raised = 0
    for p in (2, 3, 7):
        for nvars in (2, 3):
            names = ("x", "y", "z")[:nvars]
            for order in _orders_for(nvars)[:4]:
                P = PolyRing(PrimeField(p), names, order)
                for _ in range(4):
                    gens = [P.poly(_random_terms(rng, nvars, p, rng.randrange(2, 4), 2))
                            for _ in range(rng.randrange(2, 4))]
                    with groebner_module.shared_bases(config):
                        handle = ideal(P, gens)
                        try:
                            want, stats = buchberger_basis(gens, order, p, config)
                        except ResourceCapExceeded:
                            with pytest.raises(ResourceCapExceeded):
                                handle.groebner_basis()
                            raised += 1
                            continue
                        got = handle.groebner_basis()
                        assert [g.terms for g in got] == want
                        assert handle.gb_stats == stats
                        again = ideal(P, gens)
                        assert again.groebner_basis() == got
                        assert again.gb_stats == stats
                        checked += 1
    assert checked > 50 and raised > 0


def test_repeat_handle_builds_nothing(builds):
    P = poly_ring(3, "x", "y", "z")
    gens = ["x^2 - y", "x^3 - z", "y*z + x"]
    with groebner_module.shared_bases():
        first = ideal(P, gens).groebner_basis()
        assert ideal(P, gens).groebner_basis() == first
        assert len(builds) == 1
        # generator order is part of the key
        assert ideal(P, gens[::-1]).groebner_basis() == first
        assert len(builds) == 2


def test_caps_are_part_of_the_key(builds):
    P = poly_ring(3, "x", "y")
    gens = ["x^2 + y", "y^2 + x"]
    with groebner_module.shared_bases():
        ideal(P, gens).groebner_basis()
        for _ in range(2):
            with groebner_module.shared_bases(GBConfig(max_pairs=0)):
                with pytest.raises(ResourceCapExceeded):
                    ideal(P, gens).groebner_basis()
        # a run that hits a cap is not stored, so the second one builds again
        assert len(builds) == 3


def test_sharing_is_scoped_to_the_outermost_block(builds):
    P = poly_ring(5, "x", "y")
    gens = ["x^2 - y", "x*y - 1"]
    ideal(P, gens).groebner_basis()
    ideal(P, gens).groebner_basis()
    assert len(builds) == 2
    assert groebner_module.caps_in_force() == groebner_module.DEFAULT_GB_CONFIG
    with groebner_module.shared_bases():
        caps, memo = groebner_module._SHARED_BASES.get()
        assert caps == groebner_module.DEFAULT_GB_CONFIG
        with groebner_module.shared_bases():
            assert groebner_module._SHARED_BASES.get()[1] is memo
            ideal(P, gens).groebner_basis()
        ideal(P, gens).groebner_basis()
        assert len(builds) == 3
        # a nested block sets its own caps on the outer block's memo, and
        # the outer caps come back when it exits
        raised = GBConfig(max_pairs=1_000, max_degree=60)
        with groebner_module.shared_bases(raised):
            assert groebner_module._SHARED_BASES.get() == (raised, memo)
            assert groebner_module.caps_in_force() == raised
            ideal(P, gens).groebner_basis()
            ideal(P, gens).groebner_basis()
        assert len(builds) == 4
        assert groebner_module._SHARED_BASES.get() == (caps, memo)
    assert groebner_module._SHARED_BASES.get() is None
    ideal(P, gens).groebner_basis()
    assert len(builds) == 5


# --- normal forms and membership ---

def _nf_terms_by_max_scan(fterms, reducers, p, order):
    """The loop _nf_terms ran before its heap, kept as the oracle: every step
    picks the leading term by a max over the whole work dict."""
    work = dict(fterms)
    remainder = {}
    key = order.key
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        reduced = False
        for lm, gterms in reducers:
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                for gm, gc in gterms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, shift)
                    v = (work.get(t, 0) - coeff * gc) % p
                    if v:
                        work[t] = v
                    elif t in work:
                        del work[t]
                reduced = True
                break
        if not reduced:
            remainder[mono] = coeff
    return remainder


def _orders_for(nvars):
    return [MonomialOrder("grevlex"),
            MonomialOrder("block", (0,)), MonomialOrder("block", (nvars - 1,)),
            MonomialOrder("block", tuple(range(0, nvars, 2)))]


def _random_terms(rng, nvars, p, nterms, max_deg):
    return {tuple(rng.randrange(max_deg + 1) for _ in range(nvars)):
            rng.randrange(1, p) for _ in range(nterms)}


def _small_basis(rng, nvars, p, order):
    # random ideals until one has a basis within a small pair budget
    while True:
        gens = [_random_terms(rng, nvars, p, rng.randrange(2, 4), 2)
                for _ in range(rng.randrange(2, 4))]
        try:
            return buchberger_basis(gens, order, p, GBConfig(max_pairs=100))[0]
        except ResourceCapExceeded:
            continue


def test_heap_normal_form_matches_max_scan_oracle():
    # same remainders, term for term and in the same insertion order, against
    # reducers taken from real reduced bases
    rng = random.Random(1801)
    compared = 0
    for p in (2, 3, 7):
        for nvars in (2, 3, 4):
            for order in _orders_for(nvars):
                for _ in range(3):
                    basis = _small_basis(rng, nvars, p, order)
                    reducers = [(max(t, key=order.key), t) for t in basis]
                    for _ in range(3):
                        f = _random_terms(rng, nvars, p, rng.randrange(1, 9), 4)
                        rem = _nf_terms(f, reducers, p, order)
                        want = _nf_terms_by_max_scan(f, reducers, p, order)
                        assert list(rem.items()) == list(want.items())
                        compared += 1
    assert compared == 3 * 3 * 4 * 3 * 3


@pytest.mark.parametrize("order", _orders_for(4) + [MonomialOrder("block", (1, 2))],
                         ids=lambda o: f"{o.kind}{list(o.block) if o.block else ''}")
def test_heap_key_minimum_is_order_key_maximum(order):
    rng = random.Random(42)
    for _ in range(200):
        monos = {tuple(rng.randrange(5) for _ in range(4))
                 for _ in range(rng.randrange(1, 15))}
        assert min(monos, key=order.heap_key) == max(monos, key=order.key)
        assert (sorted(monos, key=order.heap_key)
                == sorted(monos, key=order.key, reverse=True))
    # the compiled keys travel with the order
    back = pickle.loads(pickle.dumps(order))
    assert back == order and back.heap_key((1, 0, 2, 3)) == order.heap_key((1, 0, 2, 3))


def test_normal_form_properties():
    P = poly_ring(5, "x", "y", "z")
    I = ideal(P, "x^2 - y", "x^3 - z")
    rng = rng_for(42, "gb", "nf")
    for _ in range(25):
        f, g = random_poly(rng, P), random_poly(rng, P)
        nf = I.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(f * g) == nf(nf(f) * nf(g))
        assert I.contains(f - nf(f))


def test_membership_of_random_combinations():
    P = poly_ring(2, "x", "y", "z")
    gens = [P.parse("x*y + z"), P.parse("y^2 + y")]
    I = ideal(P, *gens)
    rng = rng_for(42, "gb", "member")
    for _ in range(20):
        combo = P.zero()
        for g in gens:
            combo = combo + random_poly(rng, P, max_terms=3, max_deg=2) * g
        assert I.contains(combo)
    assert not I.contains("z")


def test_membership_in_quotient_ring():
    # relations take part in membership once the handle lives over a quotient
    R = QuotientRing(poly_ring(2, "x", "y"), ["x^2"])
    J = ideal(R, "y")
    assert J.contains("x^2")
    assert J.equals(ideal(R, "y + x^2"))
    assert not ideal(R.ambient, "y").contains("x^2")


def test_is_proper_and_equals():
    P = poly_ring(3, "x", "y")
    assert not ideal(P, "x", "x + 1").is_proper()
    assert ideal(P, "x + y").equals(ideal(P, "2*x + 2*y"))
    assert not ideal(P, "x").equals(ideal(P, "y"))


# --- ideal operations ---

def test_intersect_principal():
    P = poly_ring(2, "x", "y")
    assert intersect(ideal(P, "x"), ideal(P, "y")).equals(ideal(P, "x*y"))


def test_intersect_mixed():
    P = poly_ring(3, "x", "y", "z")
    got = intersect(ideal(P, "x", "y"), ideal(P, "y", "z"))
    assert got.equals(ideal(P, "y", "x*z"))


def test_colon_basics():
    P = poly_ring(2, "x", "y")
    I = ideal(P, "x^2", "x*y")
    assert colon(I, ideal(P, "x")).equals(ideal(P, "x", "y"))
    assert colon(I, ideal(P, "y")).equals(ideal(P, "x"))
    # colon by zero is the unit ideal
    assert not colon(I, ideal(P)).is_proper()


def test_colon_socle_in_quotient():
    R = QuotientRing(poly_ring(2, "x", "y"), ["x^2", "y^2"])
    soc = colon(ideal(R), ideal(R, "x", "y"))
    assert soc.equals(ideal(R, "x*y"))


def test_saturation_strips_embedded_component():
    P = poly_ring(2, "x", "y")
    m = ideal(P, "x", "y")
    sat, s = saturation(ideal(P, "x^2", "x*y"), m)
    assert sat.equals(ideal(P, "x"))
    assert s == 1
    sat2, s2 = saturation(ideal(P, "x"), m)
    assert sat2.equals(ideal(P, "x")) and s2 == 0


@pytest.fixture
def colon_saturations(monkeypatch):
    """Record every saturation that falls back to iterated colons."""
    calls = []

    def spy(I, K):
        calls.append((I, K))
        return _saturation_by_colons(I, K)

    monkeypatch.setattr(groebner_module, "_saturation_by_colons", spy)
    return calls


@pytest.fixture
def linear_form_runs(monkeypatch):
    """Record every (I, ell, saturate) read off one reverse-lex basis."""
    calls = []

    def spy(I, ell, saturate):
        calls.append((I, ell, saturate))
        return _colon_by_linear_form(I, ell, saturate)

    monkeypatch.setattr(groebner_module, "_colon_by_linear_form", spy)
    return calls


def assert_saturation_matches_oracle(I, K):
    """saturation and the colon loop agree on the reduced basis and on s;
    returns s."""
    got, s = saturation(I, K)
    want, t = _saturation_by_colons(I, K)
    assert got.groebner_basis() == want.groebner_basis(), I
    assert s == t, I
    return s


def random_form(rng, P, degree):
    monos = monomials_of_weighted_degree(P.nvars, degree, P.weights)
    return P.poly({m: rng.randrange(1, P.p)
                   for m in rng.sample(monos, min(3, len(monos)))})


def random_torsion_ideal(rng, R):
    """Random forms plus h * m^k for a random form h, so that the
    saturation usually strips an embedded part."""
    P = R.ambient if isinstance(R, QuotientRing) else R
    gens = [random_form(rng, P, rng.randrange(1, 3))
            for _ in range(rng.randrange(1, 3))]
    h = random_form(rng, P, rng.randrange(1, 3))
    gens += [h * P.monomial(a) for a in
             monomials_of_weighted_degree(P.nvars, rng.randrange(1, 3), P.weights)]
    return ideal(R, gens)


def test_saturation_by_variables_matches_colons_on_random_ideals(colon_saturations):
    rng = random.Random(1801)
    rings = [poly_ring(p, *names) for p in (2, 3, 7)
             for names in (("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w"))]
    rings += [load_corpus_ring(label) for label in corpus_labels()]
    assert {R.p for R in rings} == {2, 3, 7}
    positive = 0
    for R in rings:
        m = R.maximal_ideal() if isinstance(R, QuotientRing) else ideal(R, R.gens())
        for _ in range(3):
            I = random_torsion_ideal(rng, R)
            positive += assert_saturation_matches_oracle(I, m) > 0
            assert not colon_saturations, f"fell back to colons on {I!r}"
    assert positive >= 30


def test_saturation_matches_colons_on_corpus_run(monkeypatch, colon_saturations):
    # every distinct saturation of one verify-inequality run per small
    # corpus ring at seed 42
    recorded = {}

    def spy(I, K):
        key = (I.quotient.label, tuple(I.generators), tuple(K.generators))
        recorded.setdefault(key, (I, K))
        return saturation(I, K)

    monkeypatch.setattr(localcoh_module, "saturation", spy)
    monkeypatch.setattr(filterreg_module, "saturation", spy)
    labels = [label for label in corpus_labels() if label != "fermat-cubic-p7"]
    for label in labels:
        assert cli_module.main(["verify-inequality", "--ring", label, "--json",
                                "--seed", "42", "--jobs", "1"]) == 0
    assert not colon_saturations, "a corpus saturation fell back to colons"
    assert len({key[0] for key in recorded}) == len(labels)
    exponents = [assert_saturation_matches_oracle(I, K)
                 for I, K in recorded.values()]
    assert len(exponents) > 50 and max(exponents) > 0


def weighted_saturation_input():
    P = poly_ring(2, "x", "y", grading=(1, 2))
    return ideal(P, "x^4 + x^2*y", "x*y^2"), ideal(P, "x", "y")


@pytest.mark.parametrize("make_input", [
    lambda: (ideal(poly_ring(2, "x", "y"), "x^2*y", "x*y^2"),
             ideal(poly_ring(2, "x", "y"), "x", "y^2")),
    weighted_saturation_input,
    lambda: (ideal(poly_ring(3, "x", "y"), "x^3 + y", "x*y"),
             ideal(poly_ring(3, "x", "y"), "x", "y")),
    lambda: (ideal(poly_ring(3, "x", "y"), "x^2*y", "x*y^2"),
             ideal(poly_ring(3, "x", "y"), "x^2 + y^2")),
    lambda: (ideal(poly_ring(3, "x", "y"), "x^2*y", "x*y^2"),
             ideal(poly_ring(3, "x", "y"), "x + x^2")),
    lambda: (ideal(poly_ring(3, "x", "y"), "x^3 + y", "x*y"),
             ideal(poly_ring(3, "x", "y"), "x + y")),
    lambda: (ideal(poly_ring(2, "x", "y", grading=(1, 2)), "x^4 + x^2*y", "x*y^2"),
             ideal(poly_ring(2, "x", "y", grading=(1, 2)), "x")),
], ids=["K-not-maximal", "weighted", "inhomogeneous", "K-nonlinear-form",
        "K-inhomogeneous-form", "inhomogeneous-by-linear-form", "weighted-by-variable"])
def test_saturation_fallbacks_take_colons(make_input, colon_saturations,
                                          linear_form_runs):
    I, K = make_input()
    assert_saturation_matches_oracle(I, K)
    assert colon_saturations == [(I, K)]
    assert (colon(I, K).groebner_basis()
            == _colon_by_elimination(I, K).groebner_basis())
    # neither I's colon nor its saturation was read off a reverse-lex basis;
    # a colon inside the loop may be graded, and then it is
    assert all(J is not I for J, _, _ in linear_form_runs)


def test_saturated_ideal_exits_without_intersect(monkeypatch, colon_saturations):
    intersections = []

    def spy(*args, **kwargs):
        intersections.append(args)
        return intersect(*args, **kwargs)

    monkeypatch.setattr(groebner_module, "intersect", spy)
    P = poly_ring(3, "x", "y", "z")
    m = ideal(P, "x", "y", "z")
    # both y*z and y^2 have factors of z and y; none has a factor of x
    I = ideal(P, "y*z", "y^2")
    got, s = saturation(I, m)
    assert got is I and s == 0
    assert not intersections and not colon_saturations
    assert _saturation_by_colons(I, m)[1] == 0


def test_saturation_step_cap_is_a_resource_error(monkeypatch):
    def capped(steps, run, *args):
        with monkeypatch.context() as m:
            m.setattr(groebner_module, "SATURATION_MAX_STEPS", steps)
            return run(*args)

    P = poly_ring(2, "x", "y")
    # (x^2*y : x) = (x*y), (x*y : x) = (y): s = 2 needs a third step
    I = ideal(P, "x^2*y")
    with pytest.raises(ResourceCapExceeded):
        capped(2, saturation, I, ideal(P, "x"))
    assert capped(3, saturation, I, ideal(P, "x"))[1] == 2
    # the same bound on the fast path: x*m^2 saturates to (x) with s = 2
    m = ideal(P, "x", "y")
    J = ideal(P, "x^3", "x^2*y", "x*y^2")
    with pytest.raises(ResourceCapExceeded):
        capped(2, saturation, J, m)
    with pytest.raises(ResourceCapExceeded):
        capped(2, _saturation_by_colons, J, m)
    assert assert_saturation_matches_oracle(J, m) == 2
    # and on the path in changed coordinates: in x + y, y, z the ideal is
    # ((x + y)^3 * z), so s = 3
    P3 = poly_ring(3, "x", "y", "z")
    I3, K3 = ideal(P3, "x^3*z + y^3*z"), ideal(P3, "x + y")
    with pytest.raises(ResourceCapExceeded):
        capped(3, saturation, I3, K3)
    got, s = capped(4, saturation, I3, K3)
    assert s == 3 and got.equals(ideal(P3, "z"))


# --- colon and saturation by a linear form ---

def assert_linear_form_matches_oracles(monkeypatch, I, ell):
    """colon(I, (ell)) equals the tag-elimination colon, and
    saturation(I, (ell)) equals iterated elimination colons, in reduced
    basis and in s; returns s."""
    K = ideal(I.ring, [ell])
    got, s = saturation(I, K)
    with monkeypatch.context() as patched:
        patched.setattr(groebner_module, "colon", _colon_by_elimination)
        want, t = _saturation_by_colons(I, K)
    assert got.groebner_basis() == want.groebner_basis(), (I, ell)
    assert s == t, (I, ell)
    assert (colon(I, K).groebner_basis()
            == _colon_by_elimination(I, K).groebner_basis()), (I, ell)
    return s


LINEAR_FORM_KINDS = ("variable", "sparse", "dense", "non-unit")


def random_linear_form(rng, P, kind):
    """A variable, a form in two variables, a form in every variable, or a
    form whose last variable has a coefficient other than 1."""
    n, p = P.nvars, P.p
    size = {"variable": 1, "sparse": 2, "dense": n,
            "non-unit": rng.randrange(1, n + 1)}[kind]
    support = rng.sample(range(n), size)
    coeffs = {j: 1 if kind == "variable" else rng.randrange(1, p) for j in support}
    if kind == "non-unit":
        coeffs[max(support)] = rng.randrange(2, p)
    return P.poly({tuple(int(i == j) for i in range(n)): c for j, c in coeffs.items()})


def test_linear_form_colon_and_saturation_match_oracles(monkeypatch, colon_saturations,
                                                        linear_form_runs):
    rng = random.Random(1801)
    rings = [poly_ring(p, *names) for p in (2, 3, 7)
             for names in (("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w"))]
    rings += [load_corpus_ring(label) for label in corpus_labels()]
    positive = moved = 0
    for R in rings:
        P = R.ambient if isinstance(R, QuotientRing) else R
        for kind in LINEAR_FORM_KINDS:
            if kind == "non-unit" and P.p == 2:
                continue
            ell = random_linear_form(rng, P, kind)
            I = random_torsion_ideal(rng, R)
            linear_form_runs.clear()
            positive += assert_linear_form_matches_oracles(monkeypatch, I, ell) > 0
            moved += len(ell.terms) > 1
            # the colon and the saturation each took one reverse-lex basis,
            # and the oracles took none
            assert [(J, f) for J, f, _ in linear_form_runs] == [(I, ell)] * 2
        assert colon_saturations == []
    assert positive >= 30 and moved >= 30


def test_several_linear_forms_match_oracles(colon_saturations, linear_form_runs):
    # K of two random linear forms f, g, or of f, g, f + g and a third random
    # form: one reverse-lex basis per form, and the pieces intersected,
    # against the elimination oracles in reduced basis and in s, on a random
    # I and on (f^3, g^2), whose s (4 for independent f and g) needs both
    rng = random.Random(42)
    rings = [poly_ring(p, *names) for p in (2, 3, 7)
             for names in (("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w"))]
    rings += [load_corpus_ring(label) for label in corpus_labels()]
    positive = intersected = 0
    for R in rings:
        P = R.ambient if isinstance(R, QuotientRing) else R
        kinds = [kind for kind in LINEAR_FORM_KINDS if kind != "non-unit" or P.p > 2]
        for dependent in (False, True):
            forms = [random_linear_form(rng, P, rng.choice(kinds)) for _ in range(2)]
            if dependent:
                forms += [forms[0] + forms[1], random_linear_form(rng, P, rng.choice(kinds))]
            K = ideal(R, forms)
            for I in (random_torsion_ideal(rng, R), ideal(R, forms[0]**3, forms[1]**2)):
                linear_form_runs.clear()
                positive += assert_saturation_matches_oracle(I, K) > 0
                assert (colon(I, K).groebner_basis()
                        == _colon_by_elimination(I, K).groebner_basis()), (I, K)
                assert linear_form_runs and all(J is I for J, _, _ in linear_form_runs)
                intersected += len(linear_form_runs) > 2
    assert colon_saturations == []
    assert positive >= 50 and intersected >= 50, (positive, intersected)


# --- linear frames ---

def unit(n, j):
    return tuple(int(i == j) for i in range(n))


def frame_images(frame, n):
    """Where the frame's forward and back maps send each variable."""
    units = [{unit(n, j): 1} for j in range(n)]
    return [[move(u) for u in units] for move in frame]


def is_identity(frame, n):
    forward, back = frame_images(frame, n)
    return forward == back == [{unit(n, j): 1} for j in range(n)]


def test_frame_of_one_form_pivots_on_its_last_variable():
    # the coordinates of the colon by a linear form: (3x + 2y)/2 = 5x + y
    # over F_7 replaces y and moves last, the other variables keep their order
    P = poly_ring(7, "x", "y", "z", "w")
    frame = linear_frame(P, (P.parse("3*x + 2*y"),))
    forward, back = frame_images(frame, 4)
    assert back == [{unit(4, 0): 1}, {unit(4, 2): 1}, {unit(4, 3): 1},
                    {unit(4, 0): 5, unit(4, 1): 1}]
    assert forward[1] == {unit(4, 3): 1, unit(4, 0): 2}
    assert not is_identity(frame, 4)
    assert is_identity(linear_frame(P, (P.parse("3*w"),)), 4)


def test_frame_of_variables_is_a_reindexing():
    P = poly_ring(3, "x", "y", "z", "w")
    forward, back = linear_frame(P, (P.parse("y"), P.parse("x"), P.parse("2*y")))
    f = P.parse("x^5*y + 2*z*w^9")
    assert forward(f.terms) == {(0, 0, 1, 5): 1, (1, 9, 0, 0): 2}
    assert back(forward(f.terms)) == f.terms
    assert is_identity(linear_frame(P, (P.parse("z"), P.parse("w"))), 4)


def test_frames_are_built_once_per_block():
    # a frame is kept in the enclosing block's memo beside the bases, and a
    # new block, like a call outside any block, builds it again
    P = poly_ring(7, "x", "y", "z")
    forms = (P.parse("3*x + 2*y"),)
    frames = []
    for _ in range(2):
        with groebner_module.shared_bases():
            frames.append(linear_frame(P, forms))
            assert linear_frame(P, forms) is frames[-1]
            with groebner_module.shared_bases(GBConfig(max_pairs=100)):
                assert linear_frame(P, forms) is frames[-1]
    assert frames[0] is not frames[1]
    assert frame_images(frames[0], 3) == frame_images(frames[1], 3)
    assert linear_frame(P, forms) is not linear_frame(P, forms)


def test_frame_of_a_form_that_is_not_linear_is_an_error():
    # only degree-1 coefficients enter the frame's matrix, so x + x^2 would
    # otherwise get the frame of x; the zero form is skipped as dependent
    P = poly_ring(2, "x", "y")
    for text in ("x + x^2", "x*y", "y + 1"):
        with pytest.raises(AlgebraError, match="linear forms"):
            linear_frame(P, (P.parse("y"), P.parse(text)))
    assert is_identity(linear_frame(P, (P.parse("0"), P.parse("y"))), 2)


def random_linear_sequence(rng, P):
    """Two to four independent-looking forms of the kinds of
    LINEAR_FORM_KINDS (forms may still be dependent over tiny fields), then
    a combination of the first two, which a frame must skip."""
    kinds = [k for k in LINEAR_FORM_KINDS if k != "non-unit" or P.p > 2]
    forms = [random_linear_form(rng, P, rng.choice(kinds))
             for _ in range(rng.randrange(2, P.nvars + 1))]
    dependent = forms[0] * rng.randrange(1, P.p) + forms[1]
    return forms, dependent


def test_frames_of_random_linear_sequences_invert_and_skip_dependent_forms():
    rng = random.Random(1801)
    framed = 0
    for p in (2, 3, 7):
        for n in (2, 3, 4):
            P = poly_ring(p, *"xyzw"[:n])
            for _ in range(6):
                forms, dependent = random_linear_sequence(rng, P)
                frame = linear_frame(P, (*forms, dependent))
                assert frame_images(frame, n) == frame_images(linear_frame(P, tuple(forms)), n)
                forward, back = frame
                # the forms independent of those before them, in order, are
                # the last variables of the frame, up to units
                rows = [[f.terms.get(unit(n, j), 0) for j in range(n)] for f in forms]
                kept = [f for k, f in enumerate(forms)
                        if linalg.rank(rows[:k + 1], p) > linalg.rank(rows[:k], p)]
                for k, f in enumerate(kept):
                    (mono,) = forward(f.terms)
                    assert mono == unit(n, n - len(kept) + k), (forms, f)
                for _ in range(3):
                    f = random_poly(rng, P, max_deg=4)
                    assert back(forward(f.terms)) == f.terms, (forms, f)
                    assert forward(back(f.terms)) == f.terms, (forms, f)
                framed += not is_identity(frame, n)
    assert framed >= 40


def test_exact_divide():
    P = poly_ring(5, "x", "y")
    f = P.parse("x + 2*y")
    g = P.parse("x^2 + 3*x*y + y^2 + 1")
    assert exact_divide(f * g, f) == g
    with pytest.raises(Exception):
        exact_divide(P.parse("x^2 + y"), f)


# --- dimension and standard monomials ---

def test_dimension():
    P = poly_ring(2, "x", "y")
    assert dimension(ideal(P)) == 2
    assert dimension(ideal(P, "x^2", "x*y")) == 1
    assert dimension(ideal(P, "x", "y")) == 0
    P3 = poly_ring(2, "x", "y", "z")
    assert dimension(ideal(P3, "x^3 + y^3 + z^3")) == 2
    P4 = poly_ring(2, "x", "y", "u", "v")
    assert dimension(ideal(P4, "x*u", "x*v", "y*u", "y*v")) == 2
    with pytest.raises(ImproperIdealError):
        dimension(ideal(P, "x", "x + 1"))


def test_std_monomials():
    P = poly_ring(2, "x", "y")
    got = std_monomials(ideal(P, "x^2", "y^3"))
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    assert len(std_monomials(ideal(P, "x^2", "x*y", "y^2"))) == 3
    assert std_monomials(ideal(P, "x", "x + 1")) == []
    with pytest.raises(NotZeroDimensionalError):
        std_monomials(ideal(P, "x^2"))


def _std_monomials_by_box(I):
    """The standard monomials by testing every monomial of the bounding box
    of the pure powers against every leading monomial: the oracle for the
    staircase walk."""
    gb = I.groebner_basis()
    if any(sum(g.leading_monomial()) == 0 for g in gb):
        return []
    n = I.ambient.nvars
    lms = [g.leading_monomial() for g in gb]
    bounds = [None] * n
    for lm in lms:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        raise NotZeroDimensionalError("no pure power")
    out = [m for m in itertools.product(*(range(b) for b in bounds))
           if not any(mono_divides(lm, m) for lm in lms)]
    key = I.ambient.order.key
    out.sort(key=lambda m: (sum(m), key(m)))
    return out


def _random_form(rng, P, degree):
    monos = monomials_of_weighted_degree(P.nvars, degree, P.weights)
    return P.poly({m: rng.randrange(1, P.p)
                   for m in rng.sample(monos, min(3, len(monos)))})


def test_staircase_walk_matches_box_oracle():
    # seeded random ideals, homogeneous and not, over F_2, F_3 and F_7 in
    # 2-4 variables; pure powers of all, some or none of the variables, so
    # both zero-dimensional ideals and NotZeroDimensionalError are covered
    rng = random.Random(1801)
    outcomes = {"basis": 0, "not zero-dimensional": 0}
    for p in (2, 3, 7):
        for nvars in (2, 3, 4):
            P = poly_ring(p, *("x", "y", "z", "w")[:nvars])
            for homogeneous in (True, False):
                for _ in range(6):
                    if homogeneous:
                        gens = [_random_form(rng, P, rng.randrange(1, 4))
                                for _ in range(rng.randrange(1, 4))]
                    else:
                        gens = [random_poly(rng, P) for _ in range(rng.randrange(1, 4))]
                    powered = rng.sample(range(nvars), rng.choice((nvars, nvars, nvars - 1)))
                    gens += [P.monomial(tuple(rng.randrange(1, 6) if k == i else 0
                                              for k in range(nvars)))
                             for i in powered]
                    I = ideal(P, [g for g in gens if g])
                    try:
                        want = _std_monomials_by_box(I)
                    except NotZeroDimensionalError:
                        with pytest.raises(NotZeroDimensionalError):
                            std_monomials(I)
                        outcomes["not zero-dimensional"] += 1
                        continue
                    assert std_monomials(I) == want, [str(g) for g in gens]
                    outcomes["basis"] += 1
    assert all(outcomes.values()), outcomes


def test_std_monomials_of_weighted_degree():
    P = poly_ring(2, "x", "y")
    got = std_monomials_of_weighted_degree(ideal(P, "x^2"), 3)
    assert got == [(0, 3), (1, 2)]
    W = poly_ring(2, "x", "y", grading=(1, 2))
    got = std_monomials_of_weighted_degree(ideal(W, "x^4"), 4)
    assert got == [(0, 2), (2, 1)]


# --- quotient rings ---

def test_quotient_ring_basics():
    R = QuotientRing(poly_ring(2, "x", "y", "z"), ["x^3 + y^3 + z^3"],
                     label="cubic")
    assert R.p == 2 and R.dim == 2 and R.label == "cubic"
    assert R.relations.groebner_basis() != ()
    assert R.relations.normal_form(R.parse("x^3 + y^3 + z^3")).is_zero()
    assert len(R.maximal_ideal().own_gens) == 3
    with pytest.raises(ImproperIdealError):
        QuotientRing(poly_ring(2, "x", "y"), ["x", "x + 1"])
    C = QuotientRing(poly_ring(3, "x", "y"), ["x^2 + 2*y^2"], label="conic")
    assert ring_fingerprint(C).startswith("GF(3)[x,y]/")


# a ring reaches pool workers pickled, so it must come back whole

def test_quotient_data_roundtrip():
    R = QuotientRing(poly_ring(3, "x", "y"), ["x^2 + 2*y^2"], label="conic")
    back = pickle.loads(pickle.dumps(R))
    assert back.p == 3 and back.label == "conic"
    assert back == R
    assert ring_fingerprint(back) == ring_fingerprint(R)
    assert ring_fingerprint(R).startswith("GF(3)[x,y]/")


def test_quotient_data_grading_survives():
    W = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (1, 2))
    R = QuotientRing(W, ["x^4 + y^2"])
    back = pickle.loads(pickle.dumps(R))
    assert back.grading == (1, 2)
    assert back == R


def test_fresh_names_avoid_collisions():
    assert fresh_names(("t0", "x"), "t", 2) == ["t1", "t2"]
    assert fresh_names(("x", "y"), "w", 2) == ["w0", "w1"]


def test_staircase_of_infinite_length_stops_at_its_cap():
    # in(S) = (x) outside in(I) = (x*y) is x, x^2, ...: one monomial a degree
    P = poly_ring(2, "x", "y")
    I, S = ideal(P, "x*y"), ideal(P, "x")
    walk = staircase(I, S)
    assert [next(walk) for _ in range(4)] == [[], [(1, 0)], [(2, 0)], [(3, 0)]]
    with pytest.raises(ResourceCapExceeded, match="more than 5 degrees past degree 1"):
        list(staircase(I, S, max_past_top=5))
    assert [m for layer in staircase(ideal(P, "x^3", "y"), max_past_top=2)
            for m in layer] == [(0, 0), (1, 0), (2, 0)]
