"""Torsion towers, Frobenius nilpotency, HSL numbers, consistency checks."""

import dataclasses
import itertools
import multiprocessing
import random
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import frobex.frobenius as frobenius_module
import frobex.localcoh as localcoh_module
from frobex import linalg
from frobex.algebra import (
    AlgebraError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    frobenius_raise,
    mono_degree,
    monomials_of_weighted_degree,
)
from frobex.corpus import corpus_labels, load_corpus_ring, ring_from_spec
from frobex.filterreg import (
    is_filter_regular_sequence,
    make_sequence,
    random_filter_regular_sop,
)
from frobex.frobenius import InconsistencyError, fte_scan, parameter_base
from frobex.groebner import (
    SATURATION_MAX_STEPS,
    GBConfig,
    QuotientRing,
    dimension,
    ideal,
    saturation,
    shared_bases,
)
from frobex.localcoh import (
    PROBE_STEP,
    LimitSystem,
    NilpotentReport,
    NilpotentWitness,
    TorsionQuotientSnapshot,
    TorsionSpanError,
    _hsl_tower,
    _stabilized_tail,
    hsl_estimate,
    koszul_cohomology_table,
    limit_system,
    nilpotent_part,
    ns_consistency_check,
    prop34_check,
    scan_and_hsl,
    torsion_quotient,
    verify_inequality,
)


def verified(R, elements):
    seq = make_sequence(R, elements)
    ok, bad = is_filter_regular_sequence(seq)
    assert ok, f"test sequence not filter regular at {bad}"
    return seq


# --- torsion quotient snapshots ---

def test_snapshot_m_primary_uses_monomial_basis():
    R = load_corpus_ring("regular-f2-xy")
    snap = torsion_quotient(R, ideal(R, "x^2", "y^2"))
    assert snap.basis == tuple(R.ambient.monomial(m) for m in snap.columns)
    assert snap.length == 4
    assert Counter(b.weighted_degree() for b in snap.basis) == {0: 1, 1: 2, 2: 1}
    v = snap.coordinate_matrix([R.parse("x + y")])[:, 0]
    assert snap.from_coordinates(v) == R.parse("x + y")
    snap.coordinate_matrix([R.parse("x*y")])[:, 0]


def test_snapshot_no_torsion_is_empty():
    R = load_corpus_ring("regular-f2-xy")
    snap = torsion_quotient(R, ideal(R, "x"))
    assert snap.length == 0
    assert not snap.coordinate_matrix([R.parse("x")])[:, 0].any()  # the zero class
    with pytest.raises(TorsionSpanError):
        snap.coordinate_matrix([R.parse("y")])[:, 0]


def test_snapshot_depth_zero_torsion():
    # (0 : m^inf) = (x) in k[x,y]/(x^2, x*y)
    R = load_corpus_ring("depth-zero-f2")
    snap = torsion_quotient(R, ideal(R))
    assert snap.length == 1
    assert [str(b) for b in snap.basis] == ["x"]
    assert Counter(b.weighted_degree() for b in snap.basis) == {1: 1}
    assert snap.coordinate_matrix([R.parse("x")])[:, 0].tolist() == [1]
    with pytest.raises(TorsionSpanError):
        snap.coordinate_matrix([R.parse("y")])[:, 0]


def test_snapshot_unit_ideal_is_empty():
    R = load_corpus_ring("regular-f2-xy")
    snap = torsion_quotient(R, ideal(R, "x", "x + 1"))
    assert snap.length == 0


def test_snapshot_inhomogeneous_zero_dimensional_away_from_origin():
    # (x + x^2, y) has the points (0, 0) and (1, 0); the one at the origin
    # is saturated away, leaving the class of x + 1, killed by m
    R = load_corpus_ring("regular-f2-xy")
    snap = torsion_quotient(R, ideal(R, "x + x^2", "y"))
    assert snap.length == 1
    assert [str(b) for b in snap.basis] == ["x+1"]


def membership_loop_snapshot(R, Q):
    """The m-primary snapshot by testing every monomial of degree 0, 1, ...
    for being its own normal form, up to the first degree where none is:
    the oracle for the staircase walk."""
    P = R.ambient
    cols = []
    for k in itertools.count():
        layer = [m for m in monomials_of_weighted_degree(P.nvars, k, (1,) * P.nvars)
                 if Q.normal_form(P.monomial(m)) == P.monomial(m)]
        if not layer:
            return tuple(P.monomial(m) for m in cols), tuple(cols)
        cols += sorted(layer, key=P.order.key)


def random_form(rng, P, degree):
    monos = monomials_of_weighted_degree(P.nvars, degree, P.weights)
    return P.poly({m: rng.randrange(1, P.p)
                   for m in rng.sample(monos, min(3, len(monos)))})


def random_mprimary_ideal(rng, R):
    """Random forms plus a pure power of every variable."""
    P = R.ambient
    gens = [random_form(rng, P, rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 3))]
    gens += [P.monomial(tuple(rng.randrange(1, 5) if k == i else 0
                              for k in range(P.nvars)))
             for i in range(P.nvars)]
    return ideal(R, gens)


def assert_snapshot_matches_membership_loop(R, Q):
    snap = torsion_quotient(R, Q)
    assert (snap.basis, snap.columns) == membership_loop_snapshot(R, Q), Q


def test_homogeneous_m_primary_snapshot_matches_membership_loop():
    rng = random.Random(1801)
    for label in ("regular-f2-xy", "regular-f3-xyz", "fermat-cubic-p2",
                  "two-planes-f2"):
        R = load_corpus_ring(label)
        for _ in range(4):
            Q = random_mprimary_ideal(rng, R)
            assert_snapshot_matches_membership_loop(R, Q)


def test_weighted_m_primary_snapshot_matches_membership_loop():
    # a weighted Q is saturated to the unit ideal, whose normal forms are 0,
    # so the basis is the standard monomials of Q
    P = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (3, 2))
    R = QuotientRing(P, ["x^2 + y^3"], label="cusp")
    for gens in (["y^2"], ["x", "y^3"], ["x*y", "y^3"], ["x^3", "y^4"]):
        assert_snapshot_matches_membership_loop(R, ideal(R, *gens))


def test_filter_regular_saturation_matches_maximal_ideal_on_corpus_towers(monkeypatch):
    # every snapshot of every tower below the top, for the parameter base
    # and a random filter regular sequence of each corpus ring, saturated by
    # the next sequence element and by m
    saturated_by = []

    def spy(I, K):
        saturated_by.append(len(K.own_gens))
        return saturation(I, K)

    monkeypatch.setattr(localcoh_module, "saturation", spy)
    nonempty = 0
    for label in corpus_labels():
        R = load_corpus_ring(label)
        for seq in (parameter_base(R, 42), random_filter_regular_sop(R, 42)):
            for i in range(R.dim):
                for n in range(1, 11 if i else 2):
                    Q = ideal(R, [f**n for f in seq.elements[:i]])
                    by_next = torsion_quotient(R, Q, seq.elements[i])
                    by_m = torsion_quotient(R, Q)
                    assert by_next.basis == by_m.basis, (label, i, n)
                    assert by_next.columns == by_m.columns, (label, i, n)
                    nonempty += by_next.length > 0
    assert nonempty >= 4
    assert saturated_by.count(1) >= 20


@pytest.mark.parametrize("label,elements,by_next", [
    ("two-planes-f2", ["x + u", "y + v"], True),
    ("regular-f2-xy", ["x + x^2", "y"], False),   # inhomogeneous prefix
    ("regular-f2-xy", ["x^2", "y^2"], False),     # non-linear elements
])
def test_limit_system_saturates_by_the_next_linear_element(monkeypatch, label,
                                                           elements, by_next):
    saturated_by = []

    def spy(I, K):
        saturated_by.append(K)
        return saturation(I, K)

    monkeypatch.setattr(localcoh_module, "saturation", spy)
    R = load_corpus_ring(label)
    seq = verified(R, elements)
    last = (0,) * (R.ambient.nvars - 1) + (1,)
    for i in range(len(elements)):
        saturated_by.clear()
        system = limit_system(R, seq, i, 3)
        assert saturated_by, (label, i)
        if by_next:
            # the tower's frame makes the next element its last variable
            assert all(len(K.own_gens) == 1 and K.own_gens[0].terms.keys() == {last}
                       and system.to_ring(K.own_gens[0]) == seq.elements[i]
                       for K in saturated_by)
        else:
            assert all(K.equals(R.maximal_ideal()) for K in saturated_by)


def test_element_that_is_not_filter_regular_is_an_inconsistency():
    # in k[x,y]/(x*y), (0 : x^infinity) = (y) while (0 : m^infinity) = 0:
    # no power of m kills y, so x is not filter regular
    R = QuotientRing(PolyRing(PrimeField(2), ("x", "y")), ["x*y"])
    with pytest.raises(InconsistencyError, match="not filter regular"):
        torsion_quotient(R, ideal(R), R.parse("x"))
    assert torsion_quotient(R, ideal(R)).length == 0


@pytest.mark.parametrize("gens,regular,length", [
    (("x^202", "y"), None, 202),   # m-primary: S = (1), walked to degree 201
    (("x^202", "y"), "x", 202),    # the same, with a sequence element given
])
def test_finite_length_snapshot_walks_past_the_filter_regular_cap(gens, regular, length):
    # the SATURATION_MAX_STEPS cap bounds only a walk above a saturation by
    # a sequence element; above the unit ideal, S/Q has finite length
    R = load_corpus_ring("regular-f2-xy")
    with shared_bases(GBConfig(max_degree=2 * SATURATION_MAX_STEPS)):
        snap = torsion_quotient(R, ideal(R, *gens), regular and R.parse(regular))
    assert snap.length == length
    assert max(mono_degree(m) for m in snap.columns) > SATURATION_MAX_STEPS


def kill_exponent_rows(R, Q):
    """The saturation of Q by m, and the rows of the construction the
    staircase snapshot replaced: each element g of the saturation's basis
    times every monomial of degree 0, 1, ..., up to the first degree where
    all those products lie in Q (g's kill exponent), as nonzero normal
    forms modulo Q."""
    P = R.ambient
    saturated, _ = saturation(Q, R.maximal_ideal())
    rows = []
    for g in saturated.groebner_basis():
        for k in range(SATURATION_MAX_STEPS):
            forms = [Q.normal_form(P.monomial(a) * g)
                     for a in monomials_of_weighted_degree(P.nvars, k, (1,) * P.nvars)]
            if not any(forms):
                break
            rows += [f for f in forms if f]
        else:
            raise AssertionError(f"no kill exponent for {g}")
    return saturated, rows


def ascending_echelon(R, polys):
    """The monomials of the polynomials in ascending degree, then monomial
    order, and the reduced echelon form of their coefficient rows over
    them: one pair per row space."""
    key = R.ambient.order.key
    support = sorted({m for f in polys for m in f.terms},
                     key=lambda m: (mono_degree(m), key(m)))
    index = {m: i for i, m in enumerate(support)}
    mat = np.zeros((len(polys), len(support)), dtype=np.int64)
    for r, f in enumerate(polys):
        for m, c in f.terms.items():
            mat[r, index[m]] = c
    return support, linalg.rref(mat, R.p)[0]


def assert_matches_kill_exponent_rows(R, Q, regular, rng):
    """The snapshot of Q (saturated by regular when given) has the length
    and row space of the kill-exponent construction, and its coordinates
    round-trip on seeded elements of the saturation."""
    snap = torsion_quotient(R, Q, regular)
    saturated, rows = kill_exponent_rows(R, Q)
    support, red = ascending_echelon(R, rows)
    assert snap.length == red.shape[0], Q
    got_support, got = ascending_echelon(R, list(snap.basis))
    assert got_support == support and np.array_equal(got, red), Q
    P = R.ambient
    for _ in range(3):
        f = P.zero()
        for g in saturated.groebner_basis():
            a = rng.choice(monomials_of_weighted_degree(P.nvars, rng.randrange(3),
                                                        (1,) * P.nvars))
            f = f + rng.randrange(P.p) * P.monomial(a) * g
        coords = snap.coordinate_matrix([f])[:, 0]
        assert snap.from_coordinates(coords) == Q.normal_form(f), (Q, f)
    return snap


def test_snapshot_matches_kill_exponent_rows_on_corpus_towers():
    rng = random.Random(1801)
    nonempty = 0
    for label in corpus_labels():
        R = load_corpus_ring(label)
        for seq in (parameter_base(R, 42), random_filter_regular_sop(R, 42)):
            for i in range(R.dim):
                for n in range(1, 11 if i else 2):
                    Q = ideal(R, [f**n for f in seq.elements[:i]])
                    snap = assert_matches_kill_exponent_rows(R, Q, seq.elements[i], rng)
                    nonempty += snap.length > 0
    assert nonempty >= 4


def test_snapshot_matches_kill_exponent_rows_on_six_variable_ring():
    # the Segre product of the Fermat cubic cone with k[s,t] over F_2, a
    # non-Cohen-Macaulay ring of dimension 3
    R = QuotientRing(
        PolyRing(PrimeField(2), ("a", "b", "c", "d", "e", "g")),
        ["a*d + b*c", "a*g + b*e", "c*g + d*e", "a^3+c^3+e^3", "b^3+d^3+g^3",
         "a^2*b+c^2*d+e^2*g", "a*b^2+c*d^2+e*g^2"])
    seq = parameter_base(R, 42)
    rng = random.Random(1801)
    lengths = [assert_matches_kill_exponent_rows(
        R, ideal(R, [f**n for f in seq.elements[:i]]), seq.elements[i], rng).length
        for i in (1, 2) for n in (1, 2, 3)]
    assert any(lengths), lengths


@pytest.mark.parametrize("p", [2, 3, 7])
def test_snapshot_matches_kill_exponent_rows_on_random_ideals(p):
    # f times every monomial of degree 1 or 2, plus a random form h: V(f, h)
    # is a curve, so Q is not m-primary, and f is m-torsion modulo Q
    rng = random.Random(1801 + p)
    R = QuotientRing(PolyRing(PrimeField(p), ("x", "y", "z")), [])
    P = R.ambient
    nonempty = 0
    for _ in range(6):
        f = random_form(rng, P, rng.randrange(1, 3))
        gens = [f * P.monomial(a)
                for a in monomials_of_weighted_degree(3, rng.randrange(1, 3), (1, 1, 1))]
        gens.append(random_form(rng, P, rng.randrange(1, 4)))
        Q = ideal(R, gens)
        assert dimension(Q) > 0, gens
        nonempty += assert_matches_kill_exponent_rows(R, Q, None, rng).length > 0
    assert nonempty >= 4


def test_snapshot_matches_kill_exponent_rows_off_the_standard_grading():
    rng = random.Random(1801)
    R = load_corpus_ring("regular-f2-xy")
    assert_matches_kill_exponent_rows(R, ideal(R, "x + x^2", "y"), None, rng)
    P = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (3, 2))
    R = QuotientRing(P, ["x^2 + y^3"], label="cusp")
    for gens in (["y^2"], ["x", "y^3"], ["x*y", "y^3"], ["x^3", "y^4"]):
        assert_matches_kill_exponent_rows(R, ideal(R, *gens), None, rng)


def test_coordinates_reject_what_is_left_off_the_columns():
    # (0 : m^infinity) = (x) in k[x,y]/(x^2, x*y): x is the one column and y
    # is standard for the saturation, so x + y leaves y behind
    R = load_corpus_ring("depth-zero-f2")
    snap = torsion_quotient(R, ideal(R))
    assert snap.columns == (R.parse("x").leading_monomial(),)
    with pytest.raises(TorsionSpanError):
        snap.coordinate_matrix([R.parse("x + y")])[:, 0]


# --- limit systems ---

def test_limit_system_regular_top_tower():
    R = load_corpus_ring("regular-f2-xy")
    seq = verified(R, ["x", "y"])
    system = limit_system(R, seq, 2, 4)
    assert system.lengths() == [1, 4, 9, 16]
    assert system.audit_commutation() is None
    # transition by x*y is injective on the regular tower
    t = system.transition_chain(1, 4, np.eye(1, dtype=np.int64))
    assert np.any(t)
    # Frobenius has no kernel anywhere: the ring is regular
    report = nilpotent_part(system, e_max=2)
    assert report.max_order == 0
    assert all(linalg.nullspace(system.frobenius_chain(n, e), system.p).shape[0] == 0
               for n in range(1, 5) for e in range(1, min(2, system.capacity(n)) + 1))


def test_limit_system_intermediate_towers_empty_on_domain():
    R = load_corpus_ring("regular-f2-xy")
    seq = verified(R, ["x", "y"])
    for i in (0, 1):
        system = limit_system(R, seq, i, 3)
        assert system.lengths() == [0, 0, 0]


def test_limit_system_index_zero_shares_snapshot():
    R = load_corpus_ring("depth-zero-f2")
    seq = verified(R, ["y"])
    system = limit_system(R, seq, 0, 4)
    assert system.snapshots[0] is system.snapshots[2]
    assert system.lengths() == [1, 1, 1, 1]


def test_limit_system_argument_validation():
    R = load_corpus_ring("regular-f2-xy")
    seq = verified(R, ["x", "y"])
    with pytest.raises(AlgebraError):
        limit_system(R, seq, 3, 4)
    with pytest.raises(AlgebraError):
        limit_system(R, seq, 2, 0)
    raw = make_sequence(R, ["x", "y"])  # not verified
    with pytest.raises(AlgebraError):
        limit_system(R, raw, 2, 4)
    # the empty prefix needs no verification: H^0_m of a domain is zero
    assert limit_system(R, raw, 0, 4).lengths() == [0, 0, 0, 0]


def test_truncated_tower_is_the_tower_built_there():
    R = load_corpus_ring("fermat-cubic-p2")
    seq = verified(R, ["y", "z"])
    view = limit_system(R, seq, 2, 6).truncated(4)
    built = limit_system(R, seq, 2, 4)
    assert view.levels == 4 and view.lengths() == built.lengths()
    assert len(view.transitions) == len(built.transitions) == 3
    assert all(np.array_equal(a, b)
               for a, b in zip(view.transitions, built.transitions))
    assert view.frobenius.keys() == built.frobenius.keys() == {1, 2}
    assert all(np.array_equal(view.frobenius[n], built.frobenius[n])
               for n in built.frobenius)
    with pytest.raises(AlgebraError):
        built.truncated(5)


def commutation_squares(system):
    """Each square n of the audit with the transition levels (level k maps
    k to k + 1) and the Frobenius levels it multiplies."""
    p, N = system.p, system.levels
    return {n: ({n, *range(p * n, p * (n + 1))}, {n, n + 1})
            for n in range(1, N) if p * (n + 1) <= N}


@pytest.mark.parametrize("label,elements", [("regular-f2-xy", ["x", "y"]),
                                            ("fermat-cubic-p2", ["y", "z"])])
def test_audit_names_the_square_of_a_corrupted_transition(label, elements):
    # every transition inside a square, the chain that the audit applies to
    # frobenius[n] included, is checked: corrupting it fails the first
    # square that multiplies it
    R = load_corpus_ring(label)
    system = limit_system(R, verified(R, elements), 2, 6)
    squares = commutation_squares(system)
    assert len(squares) == 2
    for level in sorted(set().union(*(t for t, _ in squares.values()))):
        transitions = list(system.transitions)
        transitions[level - 1] = (transitions[level - 1] + 1) % system.p
        bad = dataclasses.replace(system, transitions=transitions)
        first = min(n for n, (t, _) in squares.items() if level in t)
        assert bad.audit_commutation().startswith(f"square at level {first}:"), level


@pytest.mark.parametrize("label,elements", [("regular-f2-xy", ["x", "y"]),
                                            ("fermat-cubic-p2", ["y", "z"])])
def test_audit_names_the_square_of_a_corrupted_frobenius(label, elements):
    R = load_corpus_ring(label)
    system = limit_system(R, verified(R, elements), 2, 6)
    squares = commutation_squares(system)
    for n0 in sorted(set().union(*(f for _, f in squares.values()))):
        frobenius = dict(system.frobenius)
        frobenius[n0] = (frobenius[n0] + 1) % system.p
        bad = dataclasses.replace(system, frobenius=frobenius)
        first = min(n for n, (_, f) in squares.items() if n0 in f)
        assert bad.audit_commutation().startswith(f"square at level {first}:"), n0


def test_failed_audit_is_an_inconsistency(monkeypatch):
    # an "action" that sends the class of a at level n to the class of a at
    # level p*n does not commute with the transitions; a tower built with it
    # breaks an invariant, which is not a failed check of the ring
    monkeypatch.setattr(localcoh_module, "frobenius_raise", lambda f, e: f)
    R = load_corpus_ring("regular-f2-xy")
    seq = verified(R, ["x", "y"])
    with pytest.raises(InconsistencyError, match="square at level 1"):
        limit_system(R, seq, 2, 4)


def test_nilpotent_part_depth_zero_socle():
    # Frobenius kills the class of x instantly: order-1 witnesses everywhere
    # the chain fits, deeper levels reported undetermined
    R = load_corpus_ring("depth-zero-f2")
    seq = verified(R, ["y"])
    system = limit_system(R, seq, 0, 4)
    report = nilpotent_part(system, e_max=2)
    assert report.max_order == 1
    levels = {w.level for w in report.witnesses}
    assert levels == {1, 2}
    assert all(str(w.poly) == "x" for w in report.witnesses)
    assert report.undetermined_levels == [3, 4]
    # the chain reaches depth 2 from level 1, depth 1 from level 2
    assert [system.capacity(n) for n in range(1, 5)] == [2, 1, 0, 0]


def test_nilpotent_part_survival_filter_kills_phantoms():
    # on the regular top tower every class survives, so kernels stay empty;
    # on the depth-zero top tower (R/(y^n)) Frobenius is injective modulo
    # torsion and no witness may be reported
    R = load_corpus_ring("depth-zero-f2")
    seq = verified(R, ["y"])
    system = limit_system(R, seq, 1, 4)
    report = nilpotent_part(system, e_max=2)
    assert report.max_order == 0


def test_fermat_cubic_order_one_witness():
    R = load_corpus_ring("fermat-cubic-p2")
    seq = verified(R, ["y", "z"])
    system = limit_system(R, seq, 2, 4)
    report = nilpotent_part(system, e_max=1)
    assert report.max_order == 1
    w = next(w for w in report.witnesses if w.level == 1)
    assert str(w.poly) == "x^2"


def full_transition_chain(system, a, b):
    out = np.eye(system.snapshots[a - 1].length, dtype=np.int64)
    for lev in range(a, b):
        out = linalg.matmul(system.transitions[lev - 1], out, system.p)
    return out


def nilpotent_part_by_full_chains(system, e_max):
    """nilpotent_part with every composite transition chain formed as a
    matrix and each witness's images taken as fresh products: the oracle for
    pushing only the kernel basis up the tower."""
    p = system.p
    N = system.levels
    witnesses, undetermined = [], []
    for n in range(1, N + 1):
        snap = system.snapshots[n - 1]
        if snap.length == 0:
            continue
        cap = system.capacity(n)
        if cap == 0:
            undetermined.append(n)
            continue
        survive_n = full_transition_chain(system, n, N)
        for e in range(1, min(e_max, cap) + 1):
            kernel = linalg.nullspace(system.frobenius_chain(n, e), p)
            if kernel.shape[0] == 0:
                continue
            if e == 1:
                almost = survive_n
            else:
                almost = linalg.matmul(full_transition_chain(system, n * p**(e - 1), N),
                                       system.frobenius_chain(n, e - 1), p)
            img_a = linalg.matmul(survive_n, kernel.T, p)
            img_b = linalg.matmul(almost, kernel.T, p)
            alive_a = [j for j in range(kernel.shape[0]) if np.any(img_a[:, j])]
            alive_b = [j for j in range(kernel.shape[0]) if np.any(img_b[:, j])]
            if not alive_a or not alive_b:
                continue
            both = [j for j in alive_a if j in alive_b]
            if both:
                v = kernel[both[0]] % p
            else:
                v = (kernel[alive_a[0]] + kernel[alive_b[0]]) % p
            va = linalg.matmul(survive_n, v.reshape(-1, 1), p)
            vb = linalg.matmul(almost, v.reshape(-1, 1), p)
            if not (np.any(va) and np.any(vb)):
                continue
            witnesses.append(NilpotentWitness(
                n, e, system.to_ring(snap.from_coordinates(v))))
    max_order = max((w.order for w in witnesses), default=0)
    return NilpotentReport(witnesses, max_order, undetermined)


@pytest.mark.parametrize("label", ["depth-zero-f2", "fermat-cubic-p2",
                                   "fermat-quintic-p2", "regular-f2-xy",
                                   "regular-f3-xyz", "two-planes-f2"])
def test_nilpotent_part_matches_full_chain_oracle(label):
    # every tower of the ring at the CLI's truncation and at the probe's,
    # compared as whole reports, witness polynomials included
    R = load_corpus_ring(label)
    seq = parameter_base(R, seed=42)
    N, e_max = 8, 8
    orders = []
    for i in range(R.dim + 1):
        system = limit_system(R, seq, i, N + PROBE_STEP)
        for tower, depth in ((system.truncated(N), e_max), (system, e_max + 1)):
            report = nilpotent_part(tower, depth)
            assert report == nilpotent_part_by_full_chains(tower, depth), (i, tower.levels)
            orders.append(report.max_order)
    assert max(orders) == {"depth-zero-f2": 1, "fermat-cubic-p2": 1,
                           "fermat-quintic-p2": 2}.get(label, 0)



def ring_coordinate_tower(R, seq, i, levels, monkeypatch):
    """limit_system with no frame forms: the tower in R's own coordinates,
    the oracle for the tower built in the frame of its sequence."""
    with monkeypatch.context() as m:
        m.setattr(localcoh_module, "_tower_frame_forms", lambda R, elements: ())
        return limit_system(R, seq, i, levels)


def assert_witness_order(system, w):
    """w, in R's coordinates, read in system's coordinates, is a class of
    exactly its order: chain^order kills it, while it and its image under
    chain^(order - 1) survive to the truncation edge."""
    p, N, n, e = system.p, system.levels, w.level, w.order
    v = system.snapshots[n - 1].coordinate_matrix([w.poly])
    assert not np.any(linalg.matmul(system.frobenius_chain(n, e), v, p)), w
    assert np.any(system.transition_chain(n, N, v)), w
    if e > 1:
        pushed = linalg.matmul(system.frobenius_chain(n, e - 1), v, p)
        assert np.any(system.transition_chain(n * p**(e - 1), N, pushed)), w


def assert_framed_towers_match_ring_coordinates(R, seq, N, e_max, monkeypatch):
    """Every tower of seq, built in its frame, against the ring-coordinate
    tower: lengths, the kernel dimension of every Frobenius chain, the base
    and probe orders, and each witness's order in the oracle's coordinates.
    Returns the number of towers whose frame moved R's coordinates and the
    number of witnesses checked."""
    moved = checked = 0
    units = [R.ambient.monomial(m) for m in
             monomials_of_weighted_degree(R.ambient.nvars, 1, (1,) * R.ambient.nvars)]
    for i in range(R.dim + 1):
        framed = limit_system(R, seq, i, N + PROBE_STEP)
        oracle = ring_coordinate_tower(R, seq, i, N + PROBE_STEP, monkeypatch)
        assert all(oracle.to_ring(u) == u for u in units)
        moved += any(framed.to_ring(u) != u for u in units)
        assert framed.lengths() == oracle.lengths(), (R, i)
        for n in range(1, framed.levels + 1):
            for e in range(1, framed.capacity(n) + 1):
                kernels = [linalg.nullspace(t.frobenius_chain(n, e), R.p).shape[0]
                           for t in (framed, oracle)]
                assert kernels[0] == kernels[1], (R, i, n, e)
        for levels, depth in ((N, e_max), (N + PROBE_STEP, e_max + 1)):
            got = nilpotent_part(framed.truncated(levels), depth)
            want = nilpotent_part(oracle.truncated(levels), depth)
            assert got.max_order == want.max_order, (R, i, levels)
            assert got.undetermined_levels == want.undetermined_levels
            for w in got.witnesses:
                assert_witness_order(oracle.truncated(levels), w)
            checked += len(got.witnesses)
    return moved, checked


@pytest.mark.parametrize("seed", [42, 1801])
def test_framed_towers_match_ring_coordinates_on_the_corpus(seed, monkeypatch):
    counts = np.zeros(2, dtype=int)  # towers moved, witnesses checked
    with shared_bases():
        for label in corpus_labels():
            R = load_corpus_ring(label)
            counts += assert_framed_towers_match_ring_coordinates(
                R, parameter_base(R, seed), 8, 8, monkeypatch)
    assert counts[0] >= 10 and counts[1] >= 10, counts


def dense_linear_sequence(rng, R):
    """dim(R) linear forms, each coefficient a random unit with probability
    3/4 and 0 otherwise, drawn until the sequence is filter regular."""
    P = R.ambient
    units = monomials_of_weighted_degree(P.nvars, 1, (1,) * P.nvars)
    for _ in range(100):
        forms = [P.poly({u: rng.randrange(1, P.p) for u in units if rng.random() < 0.75})
                 for _ in range(R.dim)]
        seq = make_sequence(R, forms)
        if all(forms) and is_filter_regular_sequence(seq)[0]:
            return seq
    raise AssertionError(f"no filter regular dense sequence on {R}")


def random_tower_rings(p):
    """A regular ring, a hypersurface, a non-CM ring of depth 1 and a ring of
    depth 0, over F_p."""
    yield QuotientRing(PolyRing(PrimeField(p), ("x", "y")), [])
    yield QuotientRing(PolyRing(PrimeField(p), ("x", "y", "z")), ["x^3 + y^3 + z^3"])
    yield QuotientRing(PolyRing(PrimeField(p), ("x", "y", "u", "v")),
                       ["x*u", "x*v", "y*u", "y*v"])
    yield QuotientRing(PolyRing(PrimeField(p), ("x", "y", "z")), ["x*z", "y*z", "z^2"])


@pytest.mark.parametrize("p", [2, 3, 7])
def test_framed_towers_match_ring_coordinates_on_dense_sequences(p, monkeypatch):
    # N = 8 gives every tower a Frobenius map, at p = 7 from level 1
    rng = random.Random(1801 + p)
    counts = np.zeros(2, dtype=int)  # towers moved, witnesses checked
    with shared_bases():
        for R in random_tower_rings(p):
            seq = dense_linear_sequence(rng, R)
            counts += assert_framed_towers_match_ring_coordinates(R, seq, 8, 3, monkeypatch)
    assert counts[0] >= 8 and counts[1] >= 2, counts


@pytest.mark.parametrize("kind", ["weighted ring", "inhomogeneous sequence"])
def test_towers_off_linear_forms_keep_ring_coordinates(kind, monkeypatch):
    if kind == "weighted ring":
        P = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (3, 2))
        R, elements = QuotientRing(P, ["x^2 + y^3"], label="cusp"), ["y"]
    else:
        R, elements = load_corpus_ring("regular-f2-xy"), ["x + x^2", "y"]
    seq = verified(R, elements)
    assert localcoh_module._tower_frame_forms(R, seq.elements) == ()
    assert assert_framed_towers_match_ring_coordinates(R, seq, 4, 3, monkeypatch)[0] == 0


def synthetic_system(R, transitions, frobenius):
    """A tower over R with the given matrices and x^0, x^1, ... as the basis
    of each level; nilpotent_part reads nothing else."""
    lengths = [transitions[0].shape[1]] + [t.shape[0] for t in transitions]
    snapshots = [TorsionQuotientSnapshot(
        R, ideal(R), tuple(R.parse("x") ** k for k in range(length)), ())
        for length in lengths]
    return LimitSystem(R, (), 0, len(lengths), snapshots, list(transitions),
                       frobenius)


def test_nilpotent_part_matches_full_chain_oracle_on_random_towers():
    # seeded random matrices on towers with levels of length 1-4, so that
    # kernels, dying classes and almost-survivors all occur
    rng = random.Random(1801)
    orders = Counter()
    for label in ("regular-f2-xy", "regular-f3-xyz"):
        R = load_corpus_ring(label)
        p = R.p

        def matrix(rows, cols):
            return np.array([[rng.randrange(p) if rng.random() < 0.6 else 0
                              for _ in range(cols)] for _ in range(rows)],
                            dtype=np.int64).reshape(rows, cols)

        for _ in range(100):
            N = rng.randrange(p + 1, 2 * p * p + 1)
            lengths = [rng.randrange(1, 5) for _ in range(N)]
            system = synthetic_system(
                R, [matrix(lengths[k + 1], lengths[k]) for k in range(N - 1)],
                {n: matrix(lengths[p * n - 1], lengths[n - 1])
                 for n in range(1, N // p + 1)})
            report = nilpotent_part(system, 3)
            assert report == nilpotent_part_by_full_chains(system, 3)
            orders.update(w.order for w in report.witnesses)
    assert orders[1] and orders[2], orders


def test_witness_from_a_survivor_plus_an_almost_survivor():
    # at level 1 the order-2 kernel is spanned by e1, which survives to
    # level 4 but whose Frobenius image dies, and e2, which dies but whose
    # Frobenius image survives; no basis vector is a witness, their sum is
    R = load_corpus_ring("regular-f2-xy")
    one = np.array([[1]], dtype=np.int64)
    system = synthetic_system(
        R, [np.eye(2, dtype=np.int64), np.array([[1, 0]], dtype=np.int64), one],
        {1: np.array([[0, 1], [1, 0]], dtype=np.int64),
         2: np.zeros((1, 2), dtype=np.int64)})
    report = nilpotent_part(system, 2)
    assert report == nilpotent_part_by_full_chains(system, 2)
    assert [w for w in report.witnesses if w.level == 1] == [
        NilpotentWitness(1, 2, R.parse("x + 1"))]


# --- HSL estimation ---

def test_hsl_regular_ring_all_zero():
    R = load_corpus_ring("regular-f2-xy")
    rep = hsl_estimate(R, verified(R, ["x", "y"]), N=4, e_max=2)
    assert rep.per_index == {0: 0, 1: 0, 2: 0}
    assert rep.overall == 0
    assert rep.stable
    assert rep.probe_N == 6 and rep.probe_e_max == 3


def test_hsl_depth_zero():
    R = load_corpus_ring("depth-zero-f2")
    rep = hsl_estimate(R, verified(R, ["y"]), N=4, e_max=2)
    assert rep.per_index == {0: 1, 1: 0}
    assert rep.overall == 1
    assert rep.stable
    assert any(str(w.poly) == "x" for w in rep.witnesses[0])


def test_hsl_two_planes_f_pure():
    R = load_corpus_ring("two-planes-f2")
    rep = hsl_estimate(R, verified(R, ["x + u", "y + v"]), N=4, e_max=1)
    assert rep.overall == 0
    assert rep.stable


def test_hsl_fermat_cubic():
    R = load_corpus_ring("fermat-cubic-p2")
    rep = hsl_estimate(R, verified(R, ["y", "z"]), N=6, e_max=2)
    assert rep.per_index == {0: 0, 1: 0, 2: 1}
    assert rep.overall == 1
    assert rep.stable


def test_hsl_parallel_matches_serial():
    R = load_corpus_ring("depth-zero-f2")
    seq = verified(R, ["y"])
    a = hsl_estimate(R, seq, N=4, e_max=1, jobs=1)
    b = hsl_estimate(R, seq, N=4, e_max=1, jobs=2)
    assert a.to_dict() == b.to_dict()


def test_hsl_run_parallel_equals_serial_with_coords():
    # the pool path must hand back the same witnesses, polynomials included
    R = load_corpus_ring("depth-zero-f2")
    seq = verified(R, ["y"])
    serial = hsl_estimate(R, seq, N=4, e_max=1, jobs=1)
    pooled = hsl_estimate(R, seq, N=4, e_max=1, jobs=2)
    assert pooled.witnesses == serial.witnesses
    assert any(w.poly for ws in pooled.witnesses.values() for w in ws)


@pytest.mark.parametrize("label", ["depth-zero-f2", "fermat-cubic-p2",
                                   "regular-f2-xy", "regular-f3-xyz",
                                   "two-planes-f2"])
def test_one_tower_reports_equal_separate_towers(label):
    # the base report reads the probe's tower truncated to N; both must
    # equal the reports of towers built at N and at N + PROBE_STEP
    R = load_corpus_ring(label)
    seq = parameter_base(R, seed=42)
    N, e_max = 4, 2
    for i in range(R.dim + 1):
        base, probe = _hsl_tower(R, i, seq, N, e_max)
        assert base == nilpotent_part(limit_system(R, seq, i, N), e_max)
        assert probe == nilpotent_part(limit_system(R, seq, i, N + PROBE_STEP),
                                       e_max + 1)


def test_every_pool_goes_through_frobenius(monkeypatch):
    # the benchmark traces pools through this one binding
    entered = []

    class CountingPool(ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(frobenius_module, "ProcessPoolExecutor", CountingPool)
    R = load_corpus_ring("depth-zero-f2")
    fte_scan(R, n_random=1, power_family_max=1, jobs=2)
    assert len(entered) == 1
    hsl_estimate(R, verified(R, ["y"]), N=3, e_max=1, jobs=2)
    assert len(entered) == 2  # one pool for all towers, probes included
    # called outside any command, each map joined its own pool
    assert multiprocessing.active_children() == []
    for name, module in sys.modules.items():
        if name.startswith("frobex") and name != "frobex.frobenius":
            assert not any(value is ProcessPoolExecutor
                           for value in vars(module).values()), name


@pytest.mark.parametrize("label", ["depth-zero-f2", "fermat-cubic-p2",
                                   "regular-f2-xy", "regular-f3-xyz",
                                   "two-planes-f2", "fermat-quintic-p2"])
def test_scan_and_hsl_equals_scan_then_hsl(label):
    # the one map of scan_and_hsl against its oracle, fte_scan followed by
    # hsl_estimate on the scan's base, each under its own command's block
    R = load_corpus_ring(label)
    kw = dict(n_random=1, power_family_max=2)
    for seed in (42, 1801):
        for jobs in (1, 2):
            with shared_bases():
                scan = fte_scan(R, seed=seed, jobs=jobs, **kw)
                hsl = hsl_estimate(R, scan.base, N=4, jobs=jobs)
            with shared_bases():
                one_scan, one_hsl = scan_and_hsl(R, seed=seed, N=4, jobs=jobs, **kw)
            assert one_scan.to_dict() == scan.to_dict(), (seed, jobs)
            assert one_hsl.to_dict() == hsl.to_dict(), (seed, jobs)


def test_hsl_verifies_or_rejects_sequence():
    R = load_corpus_ring("regular-f2-xy")
    raw = make_sequence(R, ["x", "y"])
    rep = hsl_estimate(R, raw, N=3, e_max=1)  # verification happens in place
    assert rep.overall == 0
    with pytest.raises(AlgebraError):
        hsl_estimate(R, raw, N=0, e_max=1)
    with pytest.raises(AlgebraError):
        hsl_estimate(R, make_sequence(R, ["x"]), N=3, e_max=1)
    D = load_corpus_ring("depth-zero-f2")
    with pytest.raises(AlgebraError):
        hsl_estimate(D, make_sequence(D, ["x"]), N=3, e_max=1)


def test_hsl_needs_a_positive_chain_depth():
    # depth 0 reads no Frobenius chain, so it would report HSL 0 on a ring
    # whose HSL is 1
    D = load_corpus_ring("depth-zero-f2")
    with pytest.raises(AlgebraError, match="e_max must be >= 1"):
        hsl_estimate(D, verified(D, ["y"]), N=3, e_max=0)
    assert hsl_estimate(D, verified(D, ["y"]), N=3, e_max=1).overall == 1


# --- graded Koszul oracle ---

def test_koszul_regular_sequence_concentrated_on_top():
    R = load_corpus_ring("regular-f2-xy")
    table = koszul_cohomology_table(R, ["x^2", "y^3"], 0, 8)
    assert all(v == 0 for v in table[0].values())
    assert all(v == 0 for v in table[1].values())
    top = {d: v for d, v in table[2].items() if v}
    assert top == {0: 1, 1: 2, 2: 2, 3: 1}  # R/(x^2, y^3) with its grading
    assert sum(table[2].values()) == 6


def test_koszul_two_planes_detects_h1():
    R = load_corpus_ring("two-planes-f2")
    table = koszul_cohomology_table(R, ["x + u", "y + v"], 0, 6)
    assert sum(table[0].values()) == 0
    assert sum(table[1].values()) == 1
    assert sum(table[2].values()) == 3
    squared = [R.parse("x + u") ** 2, R.parse("y + v") ** 2]
    table2 = koszul_cohomology_table(R, squared, 0, 10)
    assert sum(table2[1].values()) == 1
    assert sum(table2[2].values()) == 9


def test_koszul_depth_zero_h0():
    R = load_corpus_ring("depth-zero-f2")
    assert sum(koszul_cohomology_table(R, ["y"], 0, 6)[0].values()) == 1
    assert sum(koszul_cohomology_table(R, ["y"], 0, 6)[1].values()) == 2
    assert sum(koszul_cohomology_table(R, ["y^2"], 0, 6)[1].values()) == 3


def test_koszul_fermat_totals():
    R = load_corpus_ring("fermat-cubic-p2")
    table = koszul_cohomology_table(R, ["y", "z"], 0, 6)
    assert sum(table[2].values()) == 3
    assert sum(table[1].values()) == 0


def test_koszul_requires_homogeneous_data():
    R = load_corpus_ring("regular-f2-xy")
    with pytest.raises(AlgebraError):
        koszul_cohomology_table(R, ["x + x^2"], 0, 3)
    with pytest.raises(AlgebraError):
        koszul_cohomology_table(R, [], 0, 3)


# --- consistency check ---

def test_stabilized_tail():
    assert _stabilized_tail([1, 1, 2, 2], 2) == 2
    assert _stabilized_tail([1, 2], 2) is None
    assert _stabilized_tail([3], 2) is None
    assert _stabilized_tail([2, 2], 2) == 2


def test_ns_check_regular():
    R = load_corpus_ring("regular-f2-xy")
    rep = ns_consistency_check(R, verified(R, ["x", "y"]),
                               verified(R, ["y", "x + y"]), N=4)
    assert rep.status == "pass"
    assert rep.stabilized == {0: 0, 1: 0, 2: None}
    assert rep.first_disagreement is None


def test_ns_check_two_planes_stabilized_h1():
    R = load_corpus_ring("two-planes-f2")
    rep = ns_consistency_check(R, verified(R, ["x + u", "y + v"]),
                               verified(R, ["x + u + v", "y + u"]), N=4)
    assert rep.status == "pass"
    assert rep.stabilized[1] == 1
    assert rep.oracle[1] == {1: 1, 2: 1}


def test_ns_check_depth_zero():
    R = load_corpus_ring("depth-zero-f2")
    rep = ns_consistency_check(R, verified(R, ["y"]), verified(R, ["x + y"]),
                               N=4)
    assert rep.status == "pass"
    assert rep.stabilized[0] == 1


def test_ns_check_truncation_too_short_is_inconclusive():
    R = load_corpus_ring("two-planes-f2")
    rep = ns_consistency_check(R, verified(R, ["x + u", "y + v"]),
                               verified(R, ["x + u", "y + v"]), N=1)
    assert rep.status == "inconclusive"
    assert any("not stabilized" in note for note in rep.notes)


def test_ns_check_corrupted_tower_fails_audit(monkeypatch):
    # a tower whose squares do not commute is an internal error, not a
    # failed check of the ring: ns-check raises, as hsl and prop34-check do
    monkeypatch.setattr(localcoh_module, "frobenius_raise", lambda f, e: f)
    R = load_corpus_ring("regular-f2-xy")
    seq = verified(R, ["x", "y"])
    with pytest.raises(InconsistencyError, match="commutation failed: square at level 1"):
        ns_consistency_check(R, seq, verified(R, ["y", "x"]), N=4)


# --- the main inequality and the correspondence check ---

def test_verify_inequality_regular_equality():
    R = load_corpus_ring("regular-f2-xy")
    scan = fte_scan(R, n_random=1, power_family_max=2, seed=42)
    hsl = hsl_estimate(R, verified(R, ["x", "y"]), N=4, e_max=2)
    rep = verify_inequality(R, scan, hsl)
    assert rep.status == "pass"
    assert rep.holds
    assert rep.max_fte == 0 and rep.hsl_overall == 0
    assert rep.mechanism_ok
    # power families are traced even when their closures are trivial
    assert {(m["t"], m["n"]) for m in rep.mechanism} == {(1, 1), (1, 2), (2, 2)}
    assert all(m["classes"] == [] for m in rep.mechanism)


def test_verify_inequality_fermat_mechanism():
    R = load_corpus_ring("fermat-cubic-p2")
    scan = fte_scan(R, n_random=1, power_family_max=2, seed=42)
    hsl = hsl_estimate(R, verified(R, ["y", "z"]), N=6, e_max=2)
    rep = verify_inequality(R, scan, hsl)
    assert rep.status == "pass"
    assert rep.holds
    assert rep.max_fte == 1 and rep.hsl_overall == 1
    assert rep.mechanism_ok
    classes = [c for m in rep.mechanism for c in m["classes"]]
    assert classes, "nontrivial closure classes should be traced"
    assert all(c.get("zero_class") or c["order"] <= 1 for c in classes)


@pytest.mark.parametrize("label", ["fermat-cubic-p2", "fermat-quintic-p2"])
def test_mechanism_builds_the_levels_a_uniform_chain_lacks(label, monkeypatch):
    # a uniform family whose sample failed has no chain; the families that
    # push into it get the same orders from levels built on demand, each
    # level once
    R = load_corpus_ring(label)
    with shared_bases():
        scan, hsl = scan_and_hsl(R, n_random=0, N=4)
        want = verify_inequality(R, scan, hsl).mechanism
        d = len(scan.base.elements)
        uniform = {(1, 1)} | {(d, n) for n in range(2, scan.power_family_max + 1)}
        for s in scan.samples:
            if (s.descriptor["t"], s.descriptor["n"]) in uniform:
                s.chain, s.error = None, "removed"
        builds = []
        build = frobenius_module.qpower_preimage

        def spy(K, e):
            builds.append((frozenset(str(g) for g in K.own_gens), e))
            return build(K, e)

        monkeypatch.setattr(frobenius_module, "qpower_preimage", spy)
        got = verify_inequality(R, scan, hsl).mechanism
    assert got == [m for m in want if (m["t"], m["n"]) not in uniform]
    assert any("order" in c for m in got for c in m["classes"])
    assert builds and len(builds) == len(set(builds))


def test_verify_inequality_rejects_foreign_reports():
    R = load_corpus_ring("regular-f2-xy")
    other = load_corpus_ring("depth-zero-f2")
    scan = fte_scan(other, n_random=1, power_family_max=1, seed=42)
    hsl = hsl_estimate(R, verified(R, ["x", "y"]), N=3, e_max=1)
    with pytest.raises(AlgebraError):
        verify_inequality(R, scan, hsl)


def test_verify_inequality_inconclusive_without_samples():
    R = load_corpus_ring("fermat-cubic-p2")
    scan = fte_scan(R, n_random=0, power_family_max=1, seed=42,
                    e_max=1)  # every sample fails to stabilize
    hsl = hsl_estimate(R, verified(R, ["y", "z"]), N=4, e_max=1)
    rep = verify_inequality(R, scan, hsl)
    assert rep.status == "inconclusive"
    assert rep.max_fte is None
    assert not rep.holds


def test_quintic_p3_certifies_and_a_strict_gap_is_not_a_pass():
    # F_3[x,y,z]/(x^5+y^5+z^5) at the CLI defaults: every sample certifies,
    # and max_fte above the witnessed HSL, a lower bound, proves no gap
    R = ring_from_spec({"label": "fermat-quintic-p3", "characteristic": 3,
                        "variables": ["x", "y", "z"],
                        "relations": ["x^5 + y^5 + z^5"]})
    with shared_bases():
        scan, hsl = scan_and_hsl(R)
        rep = verify_inequality(R, scan, hsl)
    assert not scan.any_failures
    assert rep.holds and rep.mechanism_ok
    if rep.max_fte > rep.hsl_overall:
        assert rep.status == "inconclusive"
        assert any("lower bound" in note for note in rep.notes)


def test_prop34_fermat_cubic_both_directions():
    R = load_corpus_ring("fermat-cubic-p2")
    rep = prop34_check(R, ["y", "z"], n=1, e=1, N=4, e_max=4)
    assert rep.ok and rep.forward_ok and rep.backward_ok
    assert [f["gen"] for f in rep.forward] == ["x^2"]
    assert rep.forward[0]["order"] == 1
    assert {b["level"] for b in rep.backward} == {1, 2}
    assert all(b["in_closure"] for b in rep.backward)


def test_prop34_vacuous_on_regular_ring():
    R = load_corpus_ring("regular-f2-xy")
    rep = prop34_check(R, ["x", "y"], n=1, e=1, N=4, e_max=4)
    assert rep.ok
    assert rep.forward == [] and rep.backward == []


def test_prop34_rejects_a_power_below_one():
    # n = 0 would check the unit ideal
    R = load_corpus_ring("fermat-cubic-p2")
    for n in (0, -2):
        with pytest.raises(AlgebraError, match="n must be >= 1"):
            prop34_check(R, ["y", "z"], n=n, e=1, N=3, e_max=2)


def test_prop34_rejects_bad_prefix():
    R = load_corpus_ring("depth-zero-f2")
    with pytest.raises(AlgebraError):
        prop34_check(R, ["x"], n=1, e=1, N=3, e_max=2)


def per_column_coordinates(snap, f):
    """The coordinates of f's class one column at a time, by the handle's
    normal form: the construction coordinate_matrix replaces."""
    p = snap.ring.p
    index = {m: i for i, m in enumerate(snap.columns)}
    nf = snap.defining.normal_form(f).terms
    coords = np.zeros(len(snap.columns), dtype=np.int64)
    left = dict(nf)
    for m, c in nf.items():
        if m in index:
            coords[index[m]] = c
            for t, a in snap.basis[index[m]].terms.items():
                left[t] = (left.get(t, 0) - c * a) % p
    if any(left.values()):
        raise TorsionSpanError(f"{f} is not m-torsion modulo the ideal")
    return coords


def test_limit_system_matrices_match_per_column_coordinates_on_corpus_towers():
    # every transition and Frobenius matrix of every corpus tower, levels
    # 1-10, against columns built one at a time from normal forms
    checked = 0
    for label in corpus_labels():
        R = load_corpus_ring(label)
        seq = parameter_base(R, 42)
        for i in range(len(seq) + 1):
            system = limit_system(R, seq, i, 10)
            # the tower lives in a frame, whose prefix maps back to the sequence's
            product = R.ambient.one()
            for f in system.prefix:
                product = product * f
            assert [system.to_ring(f) for f in system.prefix] == list(seq.elements[:i])
            snaps = system.snapshots
            maps = [(snaps[n - 1], snaps[n], system.transitions[n - 1],
                     lambda b: b * product) for n in range(1, 10)]
            maps += [(snaps[n - 1], snaps[R.p * n - 1], mat,
                      lambda b: frobenius_raise(b, 1))
                     for n, mat in system.frobenius.items()]
            for src, dst, mat, image in maps:
                want = np.zeros((dst.length, src.length), dtype=np.int64)
                for col, b in enumerate(src.basis):
                    want[:, col] = per_column_coordinates(dst, image(b))
                assert np.array_equal(mat, want), (label, i)
                checked += mat.size > 0
    assert checked >= 50


def test_coordinate_matrix_rejects_a_class_outside_the_torsion():
    R = load_corpus_ring("depth-zero-f2")
    snap = torsion_quotient(R, ideal(R))
    assert snap.coordinate_matrix([R.parse("x"), R.parse("0")]).tolist() == [[1, 0]]
    with pytest.raises(TorsionSpanError):
        snap.coordinate_matrix([R.parse("x"), R.parse("y")])
