"""Answers the benchmark checks blueforge against, computed without it.

Every function here works on the models of `models.py` or on plain numbers:
closed forms from the mathematics (2^n primes of A^n, q-binomials, group
orders), brute force over tiny carriers (prime ideals of a finite table), and
certificates that replay on their own (a semiring assignment that satisfies
every relation yet separates two sums). Nothing imports blueforge.
"""

from __future__ import annotations

import itertools
import math

from .models import ONE, ZERO, mixed_terms


# ---------------------------------------------------------------------------
# Evaluation in Z/p and in B1 (p == 0 stands for B1: 1 + 1 = 1)


def _add(p, a, b):
    return (a or b) if p == 0 else (a + b) % p


def _mul(p, a, b):
    return (a and b) if p == 0 else (a * b) % p


def term_value(model, witness, t):
    p, values = witness["p"], witness["values"]
    if model.kind == "finite":
        return values[t]
    acc = 1
    for name, e in zip(model.gens, t):
        for _ in range(e):
            acc = _mul(p, acc, values[name])
    return acc


def sum_value(model, witness, terms):
    acc = 0
    for t in terms:
        acc = _add(witness["p"], acc, term_value(model, witness, t))
    return acc


def is_morphism(model, witness):
    """The assignment is a semiring-valued morphism of the blueprint: it is
    multiplicative on a finite carrier and satisfies every relation."""
    p, values = witness["p"], witness["values"]
    if model.kind == "finite":
        if values[ZERO] != 0 or values[ONE] != 1:
            return False
        for a in model.symbols:
            for b in model.symbols:
                if values[model.mul(a, b)] != _mul(p, values[a], values[b]):
                    return False
    return all(sum_value(model, witness, l) == sum_value(model, witness, r)
               for l, r in model.relations)


def certifies_underivable(model, witness, lhs, rhs):
    """A morphism into Z/p or B1 maps every derivable equality to an equality;
    one that separates lhs and rhs proves lhs = rhs underivable."""
    return is_morphism(model, witness) and \
        sum_value(model, witness, lhs) != sum_value(model, witness, rhs)


def mixed_invariant_separates(model, lhs, rhs):
    """The criterion-4 invariant: every relation side of the two-field
    blueprint is made of pure terms, and a monomial times a pure term is pure
    or zero, so each rewrite keeps the multiset of mixed terms. Different
    mixed multisets therefore prove lhs = rhs underivable."""
    pure = all(not mixed_terms(side) for rel in model.relations for side in rel)
    return pure and mixed_terms(lhs) != mixed_terms(rhs)


# ---------------------------------------------------------------------------
# Prime ideals


def _outside_count_ok(model, S, rel):
    """For a variable-generated ideal: the number of relation terms outside
    the ideal is never exactly one (else the closure adds that term)."""
    idx = [i for i, g in enumerate(model.gens) if g in S]
    outside = [t for side in rel for t in side
               if not any(t[i] for i in idx)]
    return len(outside) != 1


def monomial_primes(model, projective=False):
    """Primes of a monomial blueprint over F1 with no inverted generators:
    the variable sets S whose ideal is closed under every relation (a
    monomial multiple of a relation either lies in the ideal or keeps the
    pattern of the relation itself). Proj drops S containing every
    positive-degree generator."""
    out = []
    for r in range(len(model.gens) + 1):
        for S in itertools.combinations(model.gens, r):
            if projective and len(S) == len(model.gens):
                continue
            if all(_outside_count_ok(model, set(S), rel)
                   for rel in model.relations):
                out.append(frozenset(S))
    return out


PRODUCT_RING_PRIMES = {
    "product_ring23": [frozenset({ZERO, "(0,1)", "(0,2)"}),
                       frozenset({ZERO, "(1,0)"})],
}


def table_primes(model):
    """Prime ideals of a finite table by brute force over carrier subsets:
    contains 0, absorbs multiplication, complement multiplicative with 1,
    and no multiple of a relation has exactly one term outside."""
    if model.semiring:
        return PRODUCT_RING_PRIMES[model.name]
    nz = model.nonzero()
    out = []
    for r in range(len(nz) + 1):
        for sub in itertools.combinations(nz, r):
            ideal = {ZERO, *sub}
            if ONE in ideal:
                continue
            if any(model.mul(a, s) not in ideal
                   for a in ideal for s in model.symbols):
                continue
            comp = [s for s in model.symbols if s not in ideal]
            if any(model.mul(a, b) not in comp for a in comp for b in comp):
                continue
            ok = True
            for l, rr in model.relations:
                for m in nz:
                    terms = [model.mul(m, t) for t in l + rr]
                    if sum(1 for t in terms if t not in ideal) == 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(frozenset(ideal))
    return out


def hasse_edges(sets):
    """Cover pairs (a, b) of the inclusion order on the given sets."""
    sets = list(sets)
    out = []
    for a in sets:
        for b in sets:
            if a < b and not any(a < c < b for c in sets):
                out.append((a, b))
    return out


def closed_sets(sets):
    """Maximal members: closed points of a spectrum ordered by inclusion."""
    return [a for a in sets if not any(a < b for b in sets)]


# ---------------------------------------------------------------------------
# Quotients by variable primes


def _survivors(model, S, side):
    dead = [i for i, g in enumerate(model.gens) if g in S]
    return [t for t in side if not any(t[i] for i in dead)]


def canonical(vec):
    """A lattice vector up to sign: first nonzero entry positive."""
    lead = next((x for x in vec if x), 0)
    return tuple(-x for x in vec) if lead < 0 else tuple(vec)


def pushed_relations(model, S):
    """What B/(S) must look like. Terms with a variable of S die; the rest
    keep their exponents on the surviving generators. A pushed relation
    unit = monomial becomes the lattice identification of the two. A kept
    relation 0 = 1 + m also forces m^2 = 1 (1 ~ 1 + m + m^2 ~ m^2, using
    1 + m = 0 and its multiple m + m^2 = 0), a lattice vector 2*m.
    Returns the surviving generators, the kept relations (unordered pairs
    of term multisets) and the lattice vectors up to sign, sorted."""
    keep = [i for i, g in enumerate(model.gens) if g not in S]
    names = tuple(model.gens[i] for i in keep)
    kept, lattice = set(), []
    for rel in model.relations:
        sides = [tuple(sorted(tuple(t[i] for i in keep)
                              for t in _survivors(model, S, side)))
                 for side in rel]
        if sides[0] == sides[1]:
            continue
        if len(sides[0]) == 1 and len(sides[1]) == 1:
            lattice.append(canonical([a - b for a, b in zip(*sides[0],
                                                             *sides[1])]))
            continue
        pair = tuple(sorted(sides))
        kept.add(pair)
        one = (0,) * len(keep)
        if not pair[0] and len(pair[1]) == 2 and one in pair[1]:
            m = max(pair[1])
            lattice.append(canonical([2 * x for x in m]))
    return names, kept, sorted(lattice)


def quotient_supported(model, S):
    """The library quotients by a variable prime only when no pushed
    relation identifies two non-unit monomials."""
    for l, r in model.relations:
        sl, sr = _survivors(model, S, l), _survivors(model, S, r)
        if len(sl) == 1 and len(sr) == 1 and sl != sr \
                and any(sl[0]) and any(sr[0]):
            return False
    return True


def parse_rendered_sum(names, text):
    """Exponent tuples over `names` of a rendered monomial sum."""
    if text.strip() == ZERO:
        return ()
    out = []
    for term in text.split(" + "):
        e = [0] * len(names)
        if term.strip() != ONE:
            for part in term.split("*"):
                var, _, pw = part.strip().partition("^")
                e[names.index(var)] += int(pw) if pw else 1
        out.append(tuple(e))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Closed forms


def q_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def binomial(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def tree_subrep_count(tree, q):
    """Subrepresentations of dimension e of an identity-matrix
    representation on a tree quiver (every vertex carries F_q^d): the root
    subspace is any e_root-subspace, and along each arrow s -> t the child
    is any subspace inside (or containing) its parent's, a count that depends
    only on the dimensions. q = 1 gives the Euler characteristic."""
    d, e, arrows = tree["d"], tree["e"], tree["arrows"]
    gauss = binomial if q == 1 else (lambda n, k: q_binomial(n, k, q))
    adj = {v: [] for v in range(len(e))}
    for s, t in arrows:
        adj[s].append((t, "up"))      # U_s inside U_t
        adj[t].append((s, "down"))    # U_s inside U_t, seen from t
    count = gauss(d, e[0])
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, direction in adj[v]:
            if w in seen:
                continue
            seen.add(w)
            stack.append(w)
            if direction == "up":       # U_v inside U_w
                count *= gauss(d - e[v], e[w] - e[v])
            else:                       # U_w inside U_v
                count *= gauss(e[v], e[w])
    return count


def poly_coeffs(name, n=None):
    """Counting polynomials N(q), coefficients low to high."""
    if name in ("sl2", "sl2_minors"):
        return (0, -1, 0, 1)
    if name == "affine":
        return (0,) * n + (1,)
    if name == "torus":
        return tuple(math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1))
    if name == "gr24":
        return (1, 1, 2, 1, 1)
    if name == "f1":
        return (1,)
    raise KeyError(name)


def poly_value(coeffs, q):
    return sum(c * q ** i for i, c in enumerate(coeffs))


def gr24_cone_points(q):
    """The affine cone: the origin plus (q-1) points over each point of
    Gr(2,4)(F_q)."""
    return 1 + (q - 1) * poly_value(poly_coeffs("gr24"), q)


def projective_points(n, q):
    return sum(q ** i for i in range(n + 1))


def zeta_pairs(coeffs):
    return [[i, a] for i, a in enumerate(coeffs) if a]


def coxeter_order(family, n):
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C"):
        return 2 ** n * math.factorial(n)
    return 2 ** (n - 1) * math.factorial(n)


def q_factorial(n, q):
    out = 1
    for k in range(1, n + 1):
        out *= (q ** k - 1) // (q - 1)
    return out


# ---------------------------------------------------------------------------
# Congruences and modules


def congruence_is_prime(model, partition):
    """Multiplicative (a~b, c~d => ac~bd), proper (0 and 1 apart) and
    integral (ab~ac => b~c or a~0)."""
    block = {x: i for i, b in enumerate(partition) for x in b}
    if sorted(block) != sorted(model.symbols) or block[ZERO] == block[ONE]:
        return False
    syms = model.symbols
    for a, b, c, d in itertools.product(syms, repeat=4):
        if block[a] == block[b] and block[c] == block[d] and \
                block[model.mul(a, c)] != block[model.mul(b, d)]:
            return False
    for a in syms:
        if block[a] == block[ZERO]:
            continue
        for b in syms:
            for c in syms:
                if block[model.mul(a, b)] == block[model.mul(a, c)] and \
                        block[b] != block[c]:
                    return False
    return True


def module_isomorphism_ok(m1, m2, mapping):
    """mapping is a base-point preserving bijection commuting with the
    action. Modules are given as (carrier, action dict) descriptions."""
    c1, a1 = m1["carrier"], m1["action"]
    c2, a2 = m2["carrier"], m2["action"]
    if sorted(mapping) != sorted(c1) or sorted(mapping.values()) != sorted(c2):
        return False
    for (b, m), v in a1.items():
        if mapping[v] != a2[(b, mapping[m])]:
            return False
    return True


def orbit_profile(module_desc, model):
    """Sizes of the orbits of the unit group on the non-base elements; a
    free module over a group with zero has only regular orbits."""
    units = model.units()
    nb = [m for m in module_desc["carrier"] if m != "*"]
    seen, out = set(), []
    for m in nb:
        if m in seen:
            continue
        orbit = {module_desc["action"][(u, m)] for u in units} - {"*"}
        seen |= orbit
        out.append(len(orbit))
    return sorted(out)

