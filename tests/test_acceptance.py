"""Acceptance gate: one test per criterion, time budgets asserted inline.

Each test is independent and deterministic (fixed seeds); pytest -v shows
one pass/fail line per criterion.
"""

import itertools
import math
import multiprocessing
import os
import sys
import time

import pytest

import frobex.groebner as groebner_module
from frobex.algebra import MonomialOrder, PolyRing, PrimeField, frobenius_raise
from frobex.cli import main
from frobex.corpus import corpus_labels, load_corpus_ring
from frobex.filterreg import (
    is_filter_regular_sequence,
    make_sequence,
    random_filter_regular_sop,
)
from frobex.frobenius import (
    InconsistencyError,
    frobenius_closure,
    frobenius_power,
    fte_scan,
    qpower_preimage,
)
from frobex.groebner import (
    _nf_terms,
    _spoly_terms,
    ideal,
    shared_bases,
)
from frobex.localcoh import (
    hsl_estimate,
    limit_system,
    ns_consistency_check,
    prop34_check,
    verify_inequality,
)
from frobex.seeding import derive_seed, rng_for

_T0 = time.perf_counter()

_CM_LABELS = {"regular-f2-xy", "regular-f3-xyz", "fermat-cubic-p2",
              "fermat-cubic-p7", "fermat-quintic-p2"}


def _poly_ring(p, names):
    return PolyRing(PrimeField(p), names, MonomialOrder("grevlex"))


def _verified(R, elements):
    seq = make_sequence(R, elements)
    ok, bad = is_filter_regular_sequence(seq)
    assert ok, f"acceptance sequence not filter regular at {bad}"
    return seq


def _bracket_test_exponent(I, closure, e_max=8):
    """The least e with closure^[p^e] in I^[p^e], by each bracket's own
    basis in ring coordinates: the definition of the Frobenius test
    exponent that a closure chain's fte is read against."""
    return next(e for e in range(e_max + 1)
                if all(frobenius_power(I, e).contains(frobenius_raise(g, e))
                       for g in closure.groebner_basis()))


def _random_bounded_poly(rng, P, max_deg):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        while True:
            m = tuple(rng.randrange(max_deg + 1) for _ in range(P.nvars))
            if sum(m) <= max_deg:
                break
        terms[m] = rng.randrange(1, P.p)
    return P.poly(terms)


def test_criterion_1_preimage_exactness_on_regular_rings():
    # 50 random ideals (<= 3 generators of degree <= 4) over F_2[x,y] and
    # F_3[x,y,z]; the q-th power preimage of I^[p^e] must equal I for
    # e in {1, 2}; budget 60 seconds
    t0 = time.perf_counter()
    rng = rng_for(42, "acceptance", "exactness")
    cases = [(2, ("x", "y"), 25), (3, ("x", "y", "z"), 25)]
    checked = 0
    for p, names, count in cases:
        P = _poly_ring(p, names)
        for _ in range(count):
            gens = [_random_bounded_poly(rng, P, 4)
                    for _ in range(rng.randrange(1, 4))]
            I = ideal(P, [g for g in gens if g])
            for e in (1, 2):
                back = qpower_preimage(frobenius_power(I, e), e)
                assert back.equals(I), (
                    f"preimage broke exactness: p={p}, e={e}, "
                    f"I={[str(g) for g in I.own_gens]}")
            checked += 1
    assert checked == 50
    assert time.perf_counter() - t0 < 60


def test_criterion_2_fermat_cubic_closure():
    # closure of (y, z) in F_2[x,y,z]/(x^3+y^3+z^3) is (y, z, x^2),
    # stabilizing after one level, with test exponent 1; budget 30 seconds
    t0 = time.perf_counter()
    R = load_corpus_ring("fermat-cubic-p2")
    I = ideal(R, "y", "z")
    res = frobenius_closure(I)
    assert res.closure.equals(ideal(R, "y", "z", "x^2"))
    assert res.stabilized_at == 1
    assert res.stable
    assert res.fte == 1
    assert time.perf_counter() - t0 < 30


def test_criterion_3_hsl_values():
    # witnessed HSL numbers at N = 8, e_max = 2: 0 stable on F_2[x,y],
    # 0 stable on the Fermat cubic over F_7, 1 stable over F_2;
    # budget 5 minutes per ring
    jobs_cases = [
        ("regular-f2-xy", ["x", "y"], 0),
        ("fermat-cubic-p7", ["x", "y"], 0),
        ("fermat-cubic-p2", ["y", "z"], 1),
    ]
    for label, elements, expected in jobs_cases:
        t0 = time.perf_counter()
        R = load_corpus_ring(label)
        rep = hsl_estimate(R, _verified(R, elements), N=8, e_max=2)
        assert rep.overall == expected, f"{label}: {rep.per_index}"
        assert rep.stable, f"{label}: probe run disagreed"
        assert time.perf_counter() - t0 < 300, f"{label} exceeded the budget"


def test_criterion_4_inequality_on_whole_corpus():
    # the sampled test-exponent bound dominates the witnessed HSL number on
    # every corpus ring at the default caps, with no failed sample, and with
    # equality on the Cohen-Macaulay members
    for label in corpus_labels():
        with shared_bases():
            R = load_corpus_ring(label)
            scan = fte_scan(R)
            base = make_sequence(R, scan.base.elements)
            ok, bad = is_filter_regular_sequence(base)
            assert ok, f"{label}: base sequence failed re-verification at {bad}"
            hsl = hsl_estimate(R, base, N=8, e_max=8)
            rep = verify_inequality(R, scan, hsl)
        assert rep.status == "pass", f"{label}: {rep.status} {rep.notes}"
        assert rep.holds, f"{label}: {rep.max_fte} < {rep.hsl_overall}"
        assert rep.mechanism_ok, f"{label}: mechanism trace failed"
        assert not scan.any_failures, f"{label}: scan samples failed"
        for s in scan.samples:
            chain = s.chain
            assert _bracket_test_exponent(chain.levels[0], chain.closure) == s.fte, (
                f"{label}: {s.descriptor}")
        if label in _CM_LABELS:
            assert rep.max_fte == rep.hsl_overall, (
                f"{label}: expected equality on a Cohen-Macaulay ring, got "
                f"fte {rep.max_fte} vs hsl {rep.hsl_overall}")


def test_criterion_5_closure_nilpotence_correspondence():
    # both directions on the Fermat cubic (prefix (y, z), n = 1, e = 1,
    # N = 8), vacuous on the regular ring
    R = load_corpus_ring("fermat-cubic-p2")
    rep = prop34_check(R, ["y", "z"], n=1, e=1, N=8, e_max=8)
    assert rep.ok and rep.forward_ok and rep.backward_ok
    assert [f["gen"] for f in rep.forward] == ["x^2"]
    assert rep.forward[0]["order"] == 1
    assert rep.backward, "expected nilpotent witnesses in the tower"
    assert all(b["in_closure"] for b in rep.backward)

    G = load_corpus_ring("regular-f2-xy")
    rep = prop34_check(G, ["x", "y"], n=1, e=1, N=8, e_max=8)
    assert rep.ok
    assert rep.forward == [] and rep.backward == []


def test_criterion_6_tower_consistency_two_seeds():
    # independently sampled systems of parameters give identical stabilized
    # torsion tables, and both agree with the graded Koszul oracle
    expectations = {
        "regular-f2-xy": {0: 0, 1: 0},
        "two-planes-f2": {0: 0, 1: 1},
        "depth-zero-f2": {0: 1},
    }
    for label, expected in expectations.items():
        R = load_corpus_ring(label)
        results = []
        for seed in (42, 43):
            a = random_filter_regular_sop(R, derive_seed(seed, "ns", 0))
            b = random_filter_regular_sop(R, derive_seed(seed, "ns", 1))
            rep = ns_consistency_check(R, a, b, N=6)
            assert rep.status == "pass", (
                f"{label} seed {seed}: {rep.status} / {rep.first_disagreement}")
            results.append(rep)
        assert results[0].stabilized == results[1].stabilized, (
            f"{label}: stabilized tables differ between seeds")
        for i, value in expected.items():
            assert results[0].stabilized[i] == value, (
                f"{label}: stabilized length at i={i}")


def test_criterion_7_monomial_preimage_oracle():
    # 100 random monomial ideals in at most 3 variables: the preimage must
    # equal the ideal of componentwise ceil(a/q) exponent vectors
    rng = rng_for(42, "acceptance", "monomial")
    ring_cache = {}
    names = ("x", "y", "z")
    for _ in range(100):
        p = rng.choice((2, 3))
        nv = rng.randrange(1, 4)
        key = (p, nv)
        if key not in ring_cache:
            ring_cache[key] = _poly_ring(p, names[:nv])
        P = ring_cache[key]
        e = rng.randrange(1, 3)
        q = p**e
        monos = [tuple(rng.randrange(7) for _ in range(nv))
                 for _ in range(rng.randrange(1, 4))]
        K = ideal(P, [P.monomial(m) for m in monos])
        want = ideal(P, [P.monomial(tuple(math.ceil(a / q) for a in m))
                         for m in monos])
        got = qpower_preimage(K, e)
        assert got.equals(want), f"p={p}, e={e}, monomials {monos}"


def test_criterion_8_invariant_suites(monkeypatch, tmp_path):
    # seeded invariant batteries: termwise Frobenius arithmetic, closure
    # chain ascent/idempotence, tower commutation audits, and a Buchberger
    # S-pair audit of every Groebner basis built while they run, in pool
    # workers too; the whole acceptance module must finish within 10 minutes
    rng = rng_for(42, "acceptance", "invariants")

    # buchberger_basis builds every basis (test_groebner checks that no other
    # module binds it), so auditing what it returns covers them all: every
    # S-pair and every input polynomial must reduce to zero modulo the basis
    audited = []  # (order kind, (caller, its two callers), what failed or None)
    log = tmp_path / "audited.log"  # "pid ok|failed", one line per basis
    build = groebner_module.buchberger_basis

    def audited_build(polys, order, p, caps):
        polys = [getattr(f, "terms", f) for f in polys]
        basis, stats = build(polys, order, p, caps)
        reducers = [(max(g, key=order.key), g) for g in basis]
        pairs = itertools.combinations(reducers, 2)
        failed = next((f"the S-pair of {a[0]} and {b[0]}" for a, b in pairs
                       if _nf_terms(_spoly_terms(*a, *b, p), reducers, p, order)), None)
        if failed is None and any(_nf_terms(f, reducers, p, order) for f in polys):
            failed = "an input does not reduce to zero"
        # every build comes through groebner._basis, so the callers that
        # matter are two and three frames up
        caller = (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name,
                  sys._getframe(3).f_code.co_name)
        audited.append((order.kind, caller, failed))
        # a pool worker's list dies with it, so each build is also logged
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {'ok' if failed is None else 'failed'}\n")
        if failed is not None:
            raise InconsistencyError(f"basis fails its audit: {failed}")
        return basis, stats

    monkeypatch.setattr(groebner_module, "buchberger_basis", audited_build)

    # termwise Frobenius is additive, composes, and is the q-th power map
    for p in (2, 3, 5):
        P = _poly_ring(p, ("x", "y"))
        for _ in range(10):
            f = _random_bounded_poly(rng, P, 3)
            g = _random_bounded_poly(rng, P, 3)
            assert frobenius_raise(f + g, 1) == frobenius_raise(f, 1) + frobenius_raise(g, 1)
            assert frobenius_raise(frobenius_raise(f, 1), 2) == frobenius_raise(f, 3)
            assert frobenius_raise(f, 1) == f**p

    # closure chains ascend, contain the ideal, and are idempotent
    R = load_corpus_ring("fermat-cubic-p2")
    for k in range(2):
        sop = random_filter_regular_sop(R, derive_seed(42, "invariant-sop", k))
        I = ideal(R, list(sop.elements))
        res = frobenius_closure(I)
        assert res.stable
        assert res.closure.contains_ideal(I)
        assert all(a <= b for a, b in zip(res.chain_lengths, res.chain_lengths[1:]))
        assert _bracket_test_exponent(I, res.closure) == res.fte
        again = frobenius_closure(res.closure)
        assert again.certified
        assert again.closure.equals(res.closure)

    # Frobenius/transition squares commute on live towers: limit_system
    # audits every square and raises on one that fails
    audits = [
        ("fermat-cubic-p2", ["y", "z"], (2,), 6),
        ("two-planes-f2", ["x + u", "y + v"], (1, 2), 4),
        ("depth-zero-f2", ["y"], (0, 1), 4),
    ]
    for label, elements, indices, N in audits:
        S = load_corpus_ring(label)
        seq = _verified(S, elements)
        for i in indices:
            limit_system(S, seq, i, N)

    # bases built in pool workers: a forked worker inherits the patched
    # builder, and logs each basis it audits
    forked = multiprocessing.get_start_method() == "fork"
    if forked:
        assert main(["verify-inequality", "--ring", "fermat-cubic-p2",
                     "--jobs", "2", "--samples", "1"]) == 0
        workers = [line.split()[1] for line in log.read_text().splitlines()
                   if line.split()[0] != str(os.getpid())]
        assert workers, "no basis was built in a pool worker"
        assert workers.count("failed") == 0, f"{workers.count('failed')} worker bases fail"

    # every basis built above passes both checks, block-order tag
    # eliminations and the reverse-lex bases of colons and saturations by a
    # linear form included
    failures = [entry for entry in audited if entry[2] is not None]
    assert not failures, f"{len(failures)} of {len(audited)} bases fail: {failures[:3]}"
    assert any(kind == "block" for kind, _, _ in audited)
    assert any(kind == "grevlex" and caller[1:] == ("_framed_basis", "_colon_by_linear_form")
               for kind, caller, _ in audited)

    assert time.perf_counter() - _T0 < 600, "acceptance module exceeded 10 minutes"
    if not forked:
        pytest.skip("pool workers inherit the audited builder only when forked")
