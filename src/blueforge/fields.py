"""Explicit finite fields F_q for q in {2, 3, 4, 5, 7, 8, 9}, and subspaces
of F_q^dim as canonical reduced-row-echelon bases.

Elements are integers 0..q-1; for prime powers they encode polynomial
coefficients over F_p in base p, with arithmetic reduced by a fixed
irreducible polynomial. Tables are built once and cached.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

# Irreducible polynomials x^k + ... over F_p, low-degree coefficients first.
_MODULUS = {
    4: (2, (1, 1)),    # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0)),  # x^3 + x + 1 over F_2
    9: (3, (1, 0)),    # x^2 + 1 over F_3
}


def _digits(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


class GF:
    """Arithmetic tables for one finite field."""

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field size {q}; supported: {SUPPORTED_Q}")
        self.q = q
        if q in _MODULUS:
            p, mod = _MODULUS[q]
            k = len(mod)
            self.p, self.k = p, k

            def add(a, b):
                da, db = _digits(a, p, k), _digits(b, p, k)
                return _undigits([(x + y) % p for x, y in zip(da, db)], p)

            def mul(a, b):
                da, db = _digits(a, p, k), _digits(b, p, k)
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
                for i in range(len(prod) - 1, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j, m in enumerate(mod):
                            prod[i - k + j] = (prod[i - k + j] - c * m) % p
                return _undigits(prod[:k], p)

            self.add_table = [[add(a, b) for b in range(q)] for a in range(q)]
            self.mul_table = [[mul(a, b) for b in range(q)] for a in range(q)]
        else:
            self.p, self.k = q, 1
            self.add_table = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul_table = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.neg_table = [next(b for b in range(q) if self.add_table[a][b] == 0)
                          for a in range(q)]
        self.inv_table = [None] + [next(b for b in range(1, q)
                                        if self.mul_table[a][b] == 1)
                                   for a in range(1, q)]

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        for _ in range(e):
            r = self.mul_table[r][a]
        return r

    def units(self):
        return range(1, self.q)

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def prime_powers_upto(n: int):
    return [q for q in SUPPORTED_Q if q <= n]


# ---------------------------------------------------------------------------
# Subspaces of F_q^dim


def _rref_bases(dim, r, q):
    """Canonical bases (tuples of rows in reduced row echelon form) of all
    r-dimensional subspaces of F_q^dim."""
    out = []
    for pivots in itertools.combinations(range(dim), r):
        frees = [(row, col) for row, p in enumerate(pivots)
                 for col in range(p + 1, dim) if col not in pivots]
        for values in itertools.product(range(q), repeat=len(frees)):
            rows = [[0] * dim for _ in range(r)]
            for row, p in enumerate(pivots):
                rows[row][p] = 1
            for (row, col), v in zip(frees, values):
                rows[row][col] = v
            out.append(tuple(tuple(x) for x in rows))
    return out


def _reduce_vec(field, rows, vec):
    """`vec` minus its components along echelon `rows`: all zero iff `vec`
    lies in their span."""
    add, mul = field.add_table, field.mul_table
    vec = list(vec)
    for row in rows:
        p = next((i for i, x in enumerate(row) if x), None)
        if p is None or not vec[p]:
            continue
        c = field.neg(mul[vec[p]][field.inv(row[p])])
        vec = [add[v][mul[c][r]] for v, r in zip(vec, row)]
    return vec


def _subspace_contains(field, big, small):
    """Whether the span of echelon rows `big` holds every row of `small`."""
    return not any(any(_reduce_vec(field, big, v)) for v in small)


def _rref(field, vectors):
    """The canonical reduced-row-echelon basis of the span of `vectors`, in
    the form `_rref_bases` lists: pivots 1, in increasing columns, and zero
    elsewhere in pivot columns."""
    rows = []
    for vec in vectors:
        vec = _reduce_vec(field, rows, vec)
        p = next((i for i, x in enumerate(vec) if x), None)
        if p is None:
            continue
        c = field.mul_table[field.inv(vec[p])]
        vec = [c[x] for x in vec]
        rows = [_reduce_vec(field, [vec], row) for row in rows]
        rows.append(vec)
    # A row with an earlier pivot is the larger tuple.
    return tuple(sorted((tuple(row) for row in rows), reverse=True))
