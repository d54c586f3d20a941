"""Filter regular sequences, parameter checks, and the random search."""

import pytest

import frobex.filterreg as filterreg_module
from frobex.algebra import AlgebraError, MonomialOrder, PolyRing, PrimeField
from frobex.corpus import load_corpus_ring
from frobex.filterreg import (
    SearchExhausted,
    filter_regular_failure,
    is_filter_regular_sequence,
    is_system_of_parameters,
    make_sequence,
    random_filter_regular_sop,
)
from frobex.groebner import QuotientRing, ideal


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
