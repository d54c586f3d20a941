"""Dense linear algebra over F_p on numpy int64 arrays.

Matrices hold canonical representatives in [0, p-1].  Entries stay exact:
products are guarded so intermediate values cannot wrap int64; the guard
trips to a Python-object dtype fallback instead of overflowing silently.
"""

from __future__ import annotations

import numpy as np


def as_modp(a, p: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64) % p
    return arr


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p without silent overflow."""
    inner = a.shape[1] if a.ndim == 2 else a.shape[0]
    # worst-case accumulated magnitude: inner * (p-1)^2
    if inner * (p - 1) ** 2 < 2**62:
        return (a @ b) % p
    return np.array((a.astype(object) @ b.astype(object)) % p, dtype=np.int64)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns (matrix, pivot_columns); zero rows are dropped and every pivot
    entry is 1 with zeros above and below.  Each pivot clears its column in
    every other row with one array operation; the products stay below
    (p-1)^2, which fits int64 for any p below 2^31.
    """
    m = as_modp(a, p).copy()
    if m.size == 0:
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0), []
    rows, cols = m.shape
    pivots: list[int] = []
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
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(a, p: int) -> int:
    if np.asarray(a).size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Rows form a basis of the right kernel of a (mod p): one row per free
    column, with 1 at that column and minus the reduced matrix's free
    column at the pivot columns."""
    a = as_modp(a, p)
    rows, cols = a.shape if a.ndim == 2 else (1, a.shape[0])
    a = a.reshape(rows, cols)
    red, pivots = rref(a, p)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = zeros(len(free), cols)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[:, free].T) % p
    return basis
