"""Filter regular sequences, parameter checks, and the random search."""

import itertools
import random

import pytest

import frobex.filterreg as filterreg_module
from frobex.algebra import (
    AlgebraError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    monomials_of_weighted_degree,
)
from frobex.corpus import corpus_labels, load_corpus_ring, ring_from_spec
from frobex.filterreg import (
    SearchExhausted,
    filter_regular_failure,
    is_filter_regular_sequence,
    is_system_of_parameters,
    linear_form_test,
    make_sequence,
    random_filter_regular_sop,
)
from frobex.filterreg import parameter_base
from frobex.groebner import (
    ImproperIdealError,
    QuotientRing,
    _is_graded,
    colon,
    dimension,
    ideal,
    saturation,
)
from frobex.seeding import derive_seed


def quotient(p, names, relations):
    P = PolyRing(PrimeField(p), names, MonomialOrder("grevlex"))
    return QuotientRing(P, relations)


def test_make_sequence_wraps_unverified():
    R = quotient(2, ("x", "y"), [])
    seq = make_sequence(R, ["x", "y"])
    assert len(seq) == 2
    assert seq.verified is False
    assert seq.element_strings() == ["x", "y"]
    assert seq.prefix_ideal(1).equals(ideal(R, "x"))


def test_regular_sequence_is_filter_regular():
    R = quotient(2, ("x", "y"), [])
    seq = make_sequence(R, ["x", "y"])
    ok, bad = is_filter_regular_sequence(seq)
    assert ok and bad is None
    assert seq.verified is True


def test_zerodivisor_pair_fails_at_second_step():
    # x*y, x: multiples of y are killed by x modulo (x*y) but are not m-torsion
    R = quotient(2, ("x", "y"), [])
    seq = make_sequence(R, ["x*y", "x"])
    assert filter_regular_failure(seq) == 1


def test_depth_zero_ring_distinguishes_elements():
    # R = k[x,y]/(x^2, x*y): the torsion (0 : m^inf) = (x), so y is filter
    # regular while x is not ((0 : x) = m is too big)
    R = quotient(2, ("x", "y"), ["x^2", "x*y"])
    assert filter_regular_failure(make_sequence(R, ["y"])) is None
    assert filter_regular_failure(make_sequence(R, ["x"])) == 0


def test_element_outside_target_rejected():
    R = quotient(2, ("x", "y"), [])
    with pytest.raises(AlgebraError):
        filter_regular_failure(make_sequence(R, ["x + 1"]))


def test_is_system_of_parameters():
    R = quotient(2, ("x", "y"), [])
    assert is_system_of_parameters(R, ["x", "y"])
    assert is_system_of_parameters(R, ["x + y", "y"])
    assert not is_system_of_parameters(R, ["x"])          # wrong length
    assert not is_system_of_parameters(R, ["x", "x"])     # does not cut to 0
    assert not is_system_of_parameters(R, ["x", "x + 1"])  # outside m
    F = load_corpus_ring("fermat-cubic-p2")
    assert is_system_of_parameters(F, ["y", "z"])
    assert not is_system_of_parameters(F, ["y", "y + z", "z"])


def test_random_sop_regular_ring():
    R = quotient(3, ("x", "y"), [])
    seq = random_filter_regular_sop(R, seed=42)
    assert len(seq) == 2
    assert seq.verified is True
    assert is_system_of_parameters(R, seq.elements)
    ok, _ = is_filter_regular_sequence(seq)
    assert ok


def test_random_sop_is_deterministic():
    R = load_corpus_ring("two-planes-f2")
    a = random_filter_regular_sop(R, seed=42)
    b = random_filter_regular_sop(R, seed=42)
    assert a.element_strings() == b.element_strings()


def test_random_sop_on_singular_corpus_rings():
    for label in ("fermat-cubic-p2", "two-planes-f2", "depth-zero-f2"):
        R = load_corpus_ring(label)
        seq = random_filter_regular_sop(R, seed=7)
        assert len(seq) == R.dim
        assert seq.verified is True
        assert is_system_of_parameters(R, seq.elements)


def test_random_sop_zero_dimensional_ring_is_empty():
    R = quotient(2, ("x",), ["x^2"])
    seq = random_filter_regular_sop(R, seed=1)
    assert len(seq) == 0
    assert is_system_of_parameters(R, [])


def test_random_sop_exhaustion_is_reported(monkeypatch):
    R = quotient(2, ("x", "y"), [])
    monkeypatch.setattr(filterreg_module, "_MAX_TRIES", 0)
    monkeypatch.setattr(filterreg_module, "_RESTARTS", 2)
    with pytest.raises(SearchExhausted) as err:
        random_filter_regular_sop(R, seed=1)
    assert "restarts" in str(err.value)


# --- linear forms read off one reverse-lex basis, against colon and saturation ---

SEGRE_SPEC = {
    "label": "segre-fermat-cubic-p2", "characteristic": 2,
    "variables": ["a", "b", "c", "d", "e", "g"],
    "relations": ["a*d + b*c", "a*g + b*e", "c*g + d*e", "a^3+c^3+e^3",
                  "b^3+d^3+g^3", "a^2*b+c^2*d+e^2*g", "a*b^2+c*d^2+e*g^2"]}
QUINTIC_P3_SPEC = {
    "label": "fermat-quintic-p3", "characteristic": 3,
    "variables": ["x", "y", "z"], "relations": ["x^5 + y^5 + z^5"]}


def oracle_pair(prefix, ell):
    """(dim S/(I + ell), (I : ell) inside (I : m^infinity)) by the general
    operations, with dimension None when I + ell is the unit ideal."""
    R = prefix.ring
    try:
        dim = dimension(ideal(R, list(prefix.own_gens) + [ell]))
    except ImproperIdealError:
        dim = None
    saturated, _ = saturation(prefix, R.maximal_ideal())
    return dim, saturated.contains_ideal(colon(prefix, ideal(R, [ell])))


def random_linear_form(rng, P, shape):
    gens = P.gens()
    if shape == "sparse":
        support = rng.sample(range(len(gens)), rng.randrange(1, 3))
    else:
        support = range(len(gens))
    form = P.zero()
    for i in support:
        c = rng.randrange(1, P.p) if shape == "non-unit" else 1
        form = form + c * gens[i]
    return form


def random_form(rng, P, degree):
    monos = monomials_of_weighted_degree(P.nvars, degree, P.weights)
    return P.poly({m: rng.randrange(1, P.p)
                   for m in rng.sample(monos, min(3, len(monos)))})


def random_graded_prefix(rng, R):
    """A few random forms of degree 1 to 3, and sometimes h * m^k, so the
    prefix often has m-torsion or is not Cohen-Macaulay."""
    P = R.ambient
    gens = [random_form(rng, P, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
    if rng.random() < 0.5:
        h = random_linear_form(rng, P, "sparse")
        k = rng.randrange(1, 3)
        gens += [h * P.monomial(a) for a in
                 monomials_of_weighted_degree(P.nvars, k, P.weights)]
    return ideal(R, gens)


def assert_pair_matches_oracle(prefix, ell):
    want = oracle_pair(prefix, ell)
    assert linear_form_test(prefix, ell) == want, (prefix, ell)
    return want


def test_linear_form_test_matches_colon_and_saturation_on_random_prefixes():
    rng = random.Random(2207)
    seen = set()
    for p in (2, 3, 7):
        for names in (("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")):
            P = PolyRing(PrimeField(p), names, MonomialOrder("grevlex"))
            for _ in range(12):
                relations = [random_form(rng, P, rng.randrange(2, 4))
                             for _ in range(rng.randrange(2))]
                R = QuotientRing(P, relations)
                prefix = random_graded_prefix(rng, R)
                for shape in ("sparse", "dense", "non-unit"):
                    ell = random_linear_form(rng, P, shape)
                    seen.add(assert_pair_matches_oracle(prefix, ell)[1])
    assert seen == {True, False}


def test_linear_form_test_matches_colon_and_saturation_on_corpus_prefixes():
    for label in corpus_labels():
        R = load_corpus_ring(label)
        seq = parameter_base(R, 42)
        rng = random.Random(label)
        for i in range(len(seq) + 1):
            prefix = seq.prefix_ideal(i)
            for shape in ("sparse", "dense", "non-unit"):
                assert_pair_matches_oracle(prefix, random_linear_form(rng, R.ambient, shape))
            for f in seq.elements[i:i + 1]:
                assert assert_pair_matches_oracle(prefix, f)[1]


@pytest.fixture
def colon_path(monkeypatch):
    """Send the random search's candidates down the colon and saturation
    path, the old search and the oracle of the one-basis test."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(filterreg_module, "_is_graded", lambda I: False)
            return fn(*args)
    return run


def test_random_sop_matches_the_colon_search(colon_path):
    rings = [load_corpus_ring(label) for label in corpus_labels()]
    cases = [(R, range(40)) for R in rings if R.dim >= 1]
    cases += [(ring_from_spec(QUINTIC_P3_SPEC), range(40)),
              (ring_from_spec(SEGRE_SPEC), range(10))]
    for R, seeds in cases:
        for seed in seeds:
            got = random_filter_regular_sop(R, seed).element_strings()
            want = colon_path(random_filter_regular_sop, R, seed).element_strings()
            assert got == want, (R.label, seed)


def test_searched_sequences_pass_the_definition():
    """The search tests candidates by linear_form_test; the certificate of a
    sequence handed in is the colon and saturation criterion itself."""
    for label in corpus_labels():
        R = load_corpus_ring(label)
        for seed in range(3):
            seq = random_filter_regular_sop(R, seed)
            assert filter_regular_failure(make_sequence(R, seq.elements)) is None


# --- the base of the power families, against the definition ---

def parameter_base_by_definition(R, seed):
    """The first dim(R)-subset of the variables that is a system of
    parameters and filter regular by the colon and saturation definition,
    else the seeded search: the oracle of parameter_base's step test."""
    for combo in itertools.combinations(R.ambient.gens(), R.dim):
        if is_system_of_parameters(R, list(combo)):
            seq = make_sequence(R, combo)
            if is_filter_regular_sequence(seq)[0]:
                return seq
    return random_filter_regular_sop(R, derive_seed(seed, "family-base"))


def random_base_rings(rng):
    """Seeded quotients by 0 to 2 random forms of degree 2 or 3, under the
    standard grading and under weights that are not all 1."""
    for p in (2, 3):
        for names, weights in ((("x", "y"), None), (("x", "y", "z"), None),
                               (("x", "y", "z", "w"), None),
                               (("x", "y"), (1, 2)), (("x", "y", "z"), (1, 1, 2))):
            P = PolyRing(PrimeField(p), names, MonomialOrder("grevlex"), weights)
            for _ in range(3):
                relations = [random_form(rng, P, rng.randrange(2, 4))
                             for _ in range(rng.randrange(3))]
                yield QuotientRing(P, relations)


def test_parameter_base_matches_the_definition():
    rings = [load_corpus_ring(label) for label in corpus_labels()]
    rings += [ring_from_spec(QUINTIC_P3_SPEC)]
    # y, z is a system of parameters of k[x,y,z]/(x^2, x*y) but y kills x,
    # which is not m-torsion, so no coordinate pair is a base
    for weights in (None, (1, 1, 2)):
        P = PolyRing(PrimeField(2), ("x", "y", "z"), MonomialOrder("grevlex"), weights)
        rings.append(QuotientRing(P, ["x^2", "x*y"]))
    rings += list(random_base_rings(random.Random(2808)))
    picked = set()  # which branch chose the base
    for R in rings:
        for seed in (42, 1801):
            want = parameter_base_by_definition(R, seed)
            got = parameter_base(R, seed)
            assert got.verified and got.element_strings() == want.element_strings(), (
                R.label, R.relations.own_gens, seed)
        gens = R.ambient.gens()
        coordinates = list(itertools.combinations(gens, R.dim))
        picked.add((R.dim == 0 or got.elements == coordinates[0],
                    got.elements in coordinates, _is_graded(ideal(R))))
    # the first subset, a later one and the search, under the standard
    # grading; and, under weights, _admissible's colon and saturation branch
    assert {(True, True, True), (False, True, True), (False, False, True)} <= picked
    assert any(not graded for _, _, graded in picked)
