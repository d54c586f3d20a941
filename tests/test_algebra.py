"""Polynomial arithmetic, monomial orders, parsing, Frobenius raising."""

import random

import pytest

from frobex.algebra import (
    AlgebraError,
    ExponentOverflowError,
    MAX_EXPONENT,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    format_poly,
    frobenius_raise,
    is_prime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_weighted_degree,
    parse_poly,
)


def ring2(*names):
    return PolyRing(PrimeField(2), names or ("x", "y"), MonomialOrder("grevlex"))


def ring(p, *names):
    return PolyRing(PrimeField(p), names, MonomialOrder("grevlex"))


def random_poly(rng, R, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        m = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        terms[m] = rng.randrange(R.p)
    return R.poly(terms)


# --- fields and primality ---

def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101]
    composites = [0, 1, 4, 6, 9, 15, 91, 100]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def test_prime_field_rejects_composite():
    with pytest.raises(AlgebraError):
        PrimeField(4)
    with pytest.raises(AlgebraError):
        PrimeField(1)


def test_field_inverse():
    F = PrimeField(7)
    for a in range(1, 7):
        assert (a * F.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# --- monomial helpers ---

def test_mono_arithmetic():
    a, b = (2, 1, 0), (1, 3, 2)
    assert mono_mul(a, b) == (3, 4, 2)
    assert mono_lcm(a, b) == (2, 3, 2)
    assert not mono_divides(a, b)
    assert mono_divides((1, 1, 0), a)
    assert mono_div(a, (1, 1, 0)) == (1, 0, 0)
    assert mono_degree(a) == 3


def test_monomials_of_weighted_degree():
    # standard weights: count of monomials of total degree d in n variables
    ms = monomials_of_weighted_degree(3, 4, (1, 1, 1))
    assert len(ms) == 15
    assert len(set(ms)) == 15
    assert all(sum(m) == 4 for m in ms)
    # nonstandard weights
    ms = monomials_of_weighted_degree(2, 6, (2, 3))
    assert sorted(ms) == [(0, 2), (3, 0)]


def test_grevlex_order():
    R = ring(2, "x", "y", "z")
    o = R.order
    # degree first
    assert o.key((2, 0, 0)) < o.key((1, 1, 1))
    # grevlex tie-break: smaller exponent in the LAST variable wins
    assert o.key((1, 1, 0)) > o.key((1, 0, 1))
    assert o.key((0, 2, 0)) < o.key((1, 1, 0))
    assert o.key((1, 1, 1)) == o.key((1, 1, 1))


def test_block_order_eliminates_front_block():
    # block order with first variable in the elimination block: any monomial
    # containing x beats any x-free monomial
    o = MonomialOrder("block", (0,))
    assert o.key((1, 0, 0)) > o.key((0, 5, 5))
    assert o.key((0, 3, 1)) > o.key((0, 2, 2))


def test_block_order_key_matches_direct_split():
    # the key splits off the block with cached index tuples; it must equal
    # grevlex on the block then grevlex on the rest, rebuilt per monomial
    def direct(block, m):
        head = tuple(m[i] for i in block)
        tail = tuple(e for i, e in enumerate(m) if i not in set(block))
        return ((sum(head), tuple(-e for e in reversed(head))),
                (sum(tail), tuple(-e for e in reversed(tail))))

    rng = random.Random(1801)
    for block, nvars in (((0,), 3), ((2,), 3), ((0, 1, 2), 6), ((1, 3), 5),
                         ((0, 1), 2)):
        o = MonomialOrder("block", block)
        for _ in range(200):
            m = tuple(rng.randrange(9) for _ in range(nvars))
            assert o.key(m) == direct(block, m)


# --- polynomial arithmetic ---

def test_ring_equality_and_mismatch():
    R1, R2 = ring2("x", "y"), ring2("x", "y")
    assert R1 == R2
    f = R1.parse("x + y")
    g = R2.parse("x")
    assert f + g == R1.parse("y")
    other = ring2("a", "b")
    with pytest.raises(RingMismatchError):
        f + other.parse("a")


def test_add_cancels_in_char_p():
    R = ring(3, "x")
    f = R.parse("2*x + 1")
    g = R.parse("x + 2")
    assert (f + g).is_zero()
    assert f - f == R.zero()


def test_mul_and_pow():
    R = ring2("x", "y")
    f = R.parse("x + y")
    assert f * f == R.parse("x^2 + y^2")  # freshman's dream, p = 2
    assert f**4 == R.parse("x^4 + y^4")
    assert f**0 == R.one()
    assert (R.zero()) ** 0 == R.one()


def test_pow_matches_repeated_mul():
    rng = random.Random(20260101)
    R = ring(5, "x", "y")
    for _ in range(25):
        f = random_poly(rng, R)
        g = R.one()
        for k in range(4):
            assert g == f**k
            g = g * f


def test_scalar_mul():
    R = ring(5, "x")
    f = R.parse("x + 2")
    assert 3 * f == R.parse("3*x + 6")
    assert 0 * f == R.zero()
    assert 5 * f == R.zero()


def test_leading_term_and_monic():
    R = ring(5, "x", "y")
    f = R.parse("2*x^2*y + 3*y^2 + 1")
    m, c = f.leading_term()
    assert m == (2, 1) and c == 2
    g = f * R.constant(3)
    assert g.leading_term() == ((2, 1), 1)
    assert g * R.constant(2) == f
    with pytest.raises(AlgebraError):
        R.zero().leading_term()


def test_degrees_and_homogeneity():
    R = ring(2, "x", "y")
    assert R.parse("x^3 + x*y").degree() == 3
    assert R.parse("x^3 + x*y^2").is_homogeneous()
    assert not R.parse("x^3 + y").is_homogeneous()
    W = PolyRing(PrimeField(2), ("x", "y"), MonomialOrder("grevlex"), (2, 3))
    assert W.parse("x^3 + y^2").is_homogeneous()
    assert W.parse("x^3").weighted_degree() == 6


def test_terms_never_store_zero_coefficients():
    rng = random.Random(7)
    R = ring(3, "x", "y")
    for _ in range(50):
        f, g = random_poly(rng, R), random_poly(rng, R)
        for h in (f + g, f - g, f * g):
            assert all(c % 3 != 0 for c in h.terms.values())
            assert all(0 < c < 3 for c in h.terms.values())


# --- Frobenius raising ---

def test_frobenius_raise_basics():
    R = ring(2, "x", "y")
    f = R.parse("x + y")
    assert frobenius_raise(f, 1) == R.parse("x^2 + y^2")
    assert frobenius_raise(f, 3) == R.parse("x^8 + y^8")
    assert frobenius_raise(f, 0) == f


def test_frobenius_raise_is_qth_power():
    # termwise raising equals the honest q-th power in characteristic p
    rng = random.Random(424242)
    for p in (2, 3, 5):
        R = ring(p, "x", "y")
        for _ in range(20):
            f = random_poly(rng, R, max_terms=4, max_deg=3)
            assert frobenius_raise(f, 1) == f**p
            assert frobenius_raise(f, 2) == f ** (p * p)


def test_frobenius_raise_additive_and_composes():
    rng = random.Random(99)
    R = ring(3, "x", "y", "z")
    for _ in range(20):
        f, g = random_poly(rng, R), random_poly(rng, R)
        assert frobenius_raise(f + g, 2) == frobenius_raise(f, 2) + frobenius_raise(g, 2)
        assert frobenius_raise(frobenius_raise(f, 1), 2) == frobenius_raise(f, 3)


def test_frobenius_raise_overflow_guard():
    R = ring(2, "x")
    f = R.poly({(2**20,): 1})
    with pytest.raises(ExponentOverflowError):
        frobenius_raise(f, 12)  # 2^20 * 2^12 = 2^32 > MAX_EXPONENT
    assert MAX_EXPONENT == 2**31 - 1


# --- parsing and formatting ---

def test_parse_basic_forms():
    R = ring(7, "x", "y")
    assert R.parse("0").is_zero()
    assert R.parse("3") == R.constant(3)
    assert R.parse("10") == R.constant(3)
    assert R.parse("x^2*y") == R.monomial((2, 1))
    assert R.parse("-x") == R.parse("6*x")
    assert R.parse("(x + y)^2") == R.parse("x^2 + 2*x*y + y^2")
    assert R.parse("-x + x").is_zero()


def test_parse_errors_carry_position():
    R = ring(2, "x", "y")
    for bad in ["x +* y", "w", "x^", "(x + y", "x ^ -2", "3x"]:
        with pytest.raises(ParseError) as err:
            R.parse(bad)
        assert err.value.position >= 0


def test_format_parse_roundtrip():
    rng = random.Random(31337)
    for p in (2, 5):
        R = ring(p, "x", "y", "z")
        for _ in range(60):
            f = random_poly(rng, R)
            assert parse_poly(R, format_poly(f)) == f


def test_format_orders_terms_descending():
    R = ring(5, "x", "y")
    s = format_poly(R.parse("1 + x^2 + y + 4*x*y"))
    assert s == "x^2+4*x*y+y+1"
    assert str(R.zero()) == "0"


def test_extended_ring_keeps_base_variables():
    R = ring(2, "x", "y")
    E = R.extended(("w0", "w1"), MonomialOrder("block", (0, 1)))
    assert E.nvars == 4
    assert [str(g) for g in E.gens()] == ["x", "y", "w0", "w1"]
