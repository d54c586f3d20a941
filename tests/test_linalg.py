"""Mod-p linear algebra checked against brute-force enumeration."""

import random

import numpy as np

from frobex.linalg import (
    as_modp,
    matmul,
    nullspace,
    rank,
    rref,
    zeros,
)
from frobex.seeding import derive_seed, rng_for


def random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def brute_rank(a, p):
    """Rank by enumerating all row combinations (tiny matrices only)."""
    rows, cols = a.shape
    seen = set()
    # span size = p^rank
    vectors = [tuple(int(x) for x in a[i]) for i in range(rows)]
    span = {(0,) * cols}
    for v in vectors:
        new = set()
        for s in span:
            for c in range(p):
                new.add(tuple((si + c * vi) % p for si, vi in zip(s, v)))
        span = new
    size = len(span)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


def test_as_modp_normalizes():
    out = as_modp([[-1, 5], [7, 0]], 3)
    assert out.tolist() == [[2, 2], [1, 0]]
    assert out.dtype == np.int64


def test_zeros_identity():
    assert zeros(2, 3).shape == (2, 3)
    assert np.eye(3, dtype=np.int64).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_matmul_small():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[0, 1], [1, 1]], dtype=np.int64)
    assert matmul(a, b, 5).tolist() == [[2, 3], [4, 2]]


def test_matmul_object_fallback_matches():
    # force the object-dtype path with a large p and compare against python ints
    p = 2**31 - 1
    rng = random.Random(5)
    a = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(3)], dtype=np.int64)
    b = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(4)], dtype=np.int64)
    got = matmul(a, b, p)
    want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % p for j in range(2)]
            for i in range(3)]
    assert got.tolist() == want


def test_rref_shape_and_pivots():
    a = [[1, 2, 1], [2, 4, 0], [0, 0, 1]]
    red, pivots = rref(a, 5)
    assert pivots == [0, 2]
    assert red.shape == (2, 3)
    # pivot columns are unit vectors
    for r, c in enumerate(pivots):
        col = red[:, c]
        assert col[r] == 1 and np.count_nonzero(col) == 1


def test_rref_empty():
    red, pivots = rref(np.zeros((0, 4), dtype=np.int64), 3)
    assert red.shape[0] == 0 and pivots == []
    assert rank(np.zeros((0, 4), dtype=np.int64), 3) == 0


def test_rank_against_brute_force():
    rng = rng_for(42, "linalg", "rank")
    for p in (2, 3):
        for _ in range(40):
            a = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), p)
            assert rank(a, p) == brute_rank(a, p)


def test_rank_properties():
    rng = rng_for(42, "linalg", "rank-props")
    p = 5
    for _ in range(20):
        a = random_matrix(rng, 4, 6, p)
        assert rank(a, p) == rank(a.T, p)
        assert rank(matmul(a, a.T, p), p) <= rank(a, p)


def test_nullspace_is_the_kernel():
    rng = rng_for(42, "linalg", "null")
    for p in (2, 3, 7):
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            a = random_matrix(rng, rows, cols, p)
            basis = nullspace(a, p)
            # every basis row is killed by a
            if basis.shape[0]:
                prod = matmul(a, basis.T, p)
                assert not np.any(prod)
            # rank-nullity
            assert basis.shape[0] == cols - rank(a, p)
            # basis rows are independent
            assert rank(basis, p) == basis.shape[0] if basis.shape[0] else True


def row_loop_rref(a, p):
    """Reduced row echelon form clearing one row at a time: the
    construction rref replaces, kept as its oracle."""
    m = as_modp(a, p).copy()
    if m.size == 0:
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0), []
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        lead = r + int(nz[0])
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def loop_nullspace(a, p):
    """Kernel basis filled entry by entry: the oracle of nullspace."""
    a = as_modp(a, p)
    rows, cols = a.shape if a.ndim == 2 else (1, a.shape[0])
    red, pivots = row_loop_rref(a.reshape(rows, cols), p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-int(red[r, fc])) % p
    return basis


def oracle_shapes(rng):
    """Empty, all-zero, tall, square and wide shapes, and rank-deficient
    matrices built as products."""
    yield 0, 0
    yield 0, 5
    yield 3, 0
    for _ in range(20):
        yield rng.randrange(1, 7), rng.randrange(1, 7)
    yield 2, 12
    yield 12, 2


def test_rref_and_nullspace_match_the_row_loop():
    rng = rng_for(42, "linalg", "oracle")
    for p in (2, 3, 7, 2**31 - 1):
        for rows, cols in oracle_shapes(rng):
            cases = [zeros(rows, cols), random_matrix(rng, rows, cols, p)]
            if rows and cols:
                k = rng.randrange(1, min(rows, cols) + 1)
                cases.append(matmul(random_matrix(rng, rows, k, p),
                                    random_matrix(rng, k, cols, p), p))
            for a in cases:
                red, pivots = rref(a, p)
                want, want_pivots = row_loop_rref(a, p)
                assert pivots == want_pivots, (p, a)
                assert red.shape == want.shape and np.array_equal(red, want), (p, a)
                assert np.array_equal(nullspace(a, p), loop_nullspace(a, p)), (p, a)


def test_nullspace_full_rank_is_empty():
    assert nullspace(np.eye(3, dtype=np.int64), 2).shape[0] == 0


def test_derive_seed_is_stable_and_path_sensitive():
    a = derive_seed(42, "sop", 0)
    assert a == derive_seed(42, "sop", 0)
    assert a != derive_seed(42, "sop", 1)
    assert a != derive_seed(43, "sop", 0)
    assert isinstance(a, int)


def test_rng_for_reproduces_streams():
    r1 = rng_for(7, "x")
    r2 = rng_for(7, "x")
    assert [r1.randrange(100) for _ in range(5)] == [r2.randrange(100) for _ in range(5)]
    assert isinstance(rng_for(7, "y"), random.Random)
