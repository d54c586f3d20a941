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
