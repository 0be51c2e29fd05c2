"""Integer matrix normal forms.

Hermite and Smith normal forms over Z with exact Python integers. Used for
monomial identification lattices (canonical exponent vectors, torus rank and
torsion) and for the K0 relation matrix.
"""

from __future__ import annotations


def hnf_with_transform(rows: list[list[int]]):
    """Row-style HNF with the transform recorded.

    Returns (basis, transforms, kernel): basis[i] == transforms[i] applied to
    the input rows, pivots positive, entries above a pivot reduced into
    [0, pivot); kernel collects transform rows combining the inputs to zero.
    """
    if not rows:
        return [], [], []
    n = len(rows[0])
    k = len(rows)
    work = [list(r) + [1 if j == i else 0 for j in range(k)]
            for i, r in enumerate(rows)]
    done: list[list[int]] = []
    for col in range(n):
        cand = [r for r in work if r[col] != 0]
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            a, b = cand[0], cand[1]
            q = b[col] // a[col]
            for i in range(n + k):
                b[i] -= q * a[i]
            cand = [r for r in work if r[col] != 0]
        if cand:
            piv = cand[0]
            if piv[col] < 0:
                for i in range(n + k):
                    piv[i] = -piv[i]
            work.remove(piv)
            done.append(piv)
    kernel = [r[n:] for r in work if not any(r[:n])]
    # Any residue with nonzero primary part but no pivot column left is
    # impossible: every nonzero primary row gets consumed by its first column.
    basis_rows = sorted(done, key=lambda r: next(i for i, x in enumerate(r[:n]) if x))
    # Reduce entries above later pivots.
    for i in range(len(basis_rows)):
        for j in range(i + 1, len(basis_rows)):
            pc = next(c for c in range(n) if basis_rows[j][c] != 0)
            p = basis_rows[j][pc]
            q = basis_rows[i][pc] // p
            if q:
                for c in range(n + k):
                    basis_rows[i][c] -= q * basis_rows[j][c]
    basis = [r[:n] for r in basis_rows]
    transforms = [r[n:] for r in basis_rows]
    return basis, transforms, kernel


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix `rows`."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    factors: list[int] = []
    top = 0

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None
                                     or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    while top < min(nrows, ncols):
        piv = find_pivot(top)
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for r in m:
            r[top], r[j] = r[j], r[top]
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, nrows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    for c in range(ncols):
                        m[i][c] -= q * m[top][c]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(top + 1, ncols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for r in m:
                        r[j] -= q * r[top]
                    if m[top][j]:
                        for r in m:
                            r[top], r[j] = r[j], r[top]
                        dirty = True
        p = m[top][top]
        bad = None
        for i in range(top + 1, nrows):
            if any(m[i][j] % p for j in range(top + 1, ncols)):
                bad = i
                break
        if bad is not None:
            for c in range(ncols):
                m[top][c] += m[bad][c]
            continue
        factors.append(abs(p))
        top += 1
    return factors


def lattice_rank(rows: list[list[int]]) -> int:
    return len(smith_normal_form(rows))


def quotient_group_invariants(n: int, rows: list[list[int]]) -> tuple[int, list[int]]:
    """Structure of Z^n / <rows>: (free rank, torsion invariants > 1)."""
    factors = smith_normal_form(rows)
    free = n - len(factors)
    torsion = [d for d in factors if d > 1]
    return free, torsion


def in_lattice(basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of `vec` in the lattice spanned by an HNF `basis`."""
    vec = list(vec)
    for b in basis:
        p = next(i for i, x in enumerate(b) if x)
        if vec[p] % b[p]:
            return False
        q = vec[p] // b[p]
        vec = [a - q * c for a, c in zip(vec, b)]
    return not any(vec)
