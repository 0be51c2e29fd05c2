"""The derivation engine: rewrite search, completion and properness guard."""

from __future__ import annotations

import heapq
import itertools

from .budget import Budget
from .core import PROVED, REFUTED, UNKNOWN, ZERO, TooLarge, _per_blueprint


def _scale(bp, m, terms):
    """The nonzero products m*t, t in terms."""
    mul, is_zero = bp.backend.mul, bp.backend.is_zero
    return [x for t in terms if not is_zero(x := mul(m, t))]


class _RewriteMemo:
    """What the rewrite kernel computes for one search, so that each piece is
    computed once: the multipliers that carry a relation's left side onto a
    term, and per (multiplier, relation) the scaled sides. Tied to one
    blueprint and one degree bound; a search drops it when it returns."""

    __slots__ = ("bp", "max_degree", "quotients", "cands", "left", "right",
                 "adds")

    def __init__(self, bp, max_degree):
        self.bp = bp
        self.max_degree = max_degree
        self.quotients = {}  # (t, l) -> backend.divide(t, l)
        self.cands = {}   # (t, i) -> multipliers m with m*l == t, l in L_i
        self.left = {}    # (m, i) -> m*L_i, or () over the degree bound
        self.right = {}   # (m, i) -> m*R_i
        self.adds = {}    # i with L_i empty -> the nonempty m*R_i

    def candidates(self, t, i, L):
        out = self.cands.get((t, i))
        if out is None:
            out = self.cands[t, i] = set()
            for l in L:
                q = self.quotients.get((t, l))
                if q is None:
                    q = self.quotients[t, l] = self.bp.backend.divide(t, l)
                out.update(q)
        return out

    def scaled_left(self, m, i, L):
        out = self.left.get((m, i))
        if out is None:
            out = self.left[m, i] = (
                tuple(_scale(self.bp, m, L))
                if self.bp.backend.degree(m) <= self.max_degree else ())
        return out

    def scaled_right(self, m, i, R):
        out = self.right.get((m, i))
        if out is None:
            out = self.right[m, i] = _scale(self.bp, m, R)
        return out

    def additions(self, i, R):
        out = self.adds.get(i)
        if out is None:
            mults = self.bp.backend.multipliers(self.max_degree)
            out = self.adds[i] = [add for add in (_scale(self.bp, m, R)
                                                  for m in mults) if add]
        return out


def _rewrites(bp, u, budget, memo=None):
    """One-step rewrites of the formal sum u under the generated congruence.

    Sums are sorted by their terms: both backends' `sort_key` orders as the
    elements themselves do.
    """
    if memo is None:
        memo = _RewriteMemo(bp, budget.max_degree)
    max_terms = budget.max_terms
    size = len(u)
    terms = set(u)
    for i, (L, R) in enumerate(bp._oriented):
        if not L:
            for add in memo.additions(i, R):
                if size + len(add) <= max_terms:
                    yield tuple(sorted((*u, *add)))
            continue
        cands = set()
        for t in terms:
            cands.update(memo.candidates(t, i, L))
        for m in sorted(cands):
            mL = memo.scaled_left(m, i, L)
            if not mL:
                continue
            v = list(u)
            try:
                for x in mL:
                    v.remove(x)
            except ValueError:   # m*L is not contained in u
                continue
            mR = memo.scaled_right(m, i, R)
            if size - len(mL) + len(mR) <= max_terms:
                v += mR
                v.sort()
                yield tuple(v)


def _explore(bp, start, budget, targets=frozenset(), collect_singles=False,
             memo=None):
    """Bounded BFS through the congruence class of `start`.

    Returns (hit_target, singles_found, truncated). `memo` lets searches on
    the same blueprint and degree bound share the kernel's work.
    """
    if memo is None:
        memo = _RewriteMemo(bp, budget.max_degree)
    seen = {start}
    frontier = [start]
    singles = set()
    steps = 0
    truncated = False
    while frontier:
        nxt = []
        for u in frontier:
            for v in _rewrites(bp, u, budget, memo):
                steps += 1
                if steps > budget.max_steps:
                    return False, singles, True
                if v in seen:
                    continue
                seen.add(v)
                if v in targets:
                    return True, singles, truncated
                if collect_singles and len(v) == 1:
                    singles.add(v[0])
                nxt.append(v)
        frontier = nxt
    return False, singles, truncated


# Rules of a completion past which it gives up: uncapped, the completion of
# roots_sums(7) runs for minutes, where its BFS answers in milliseconds; at
# 64 rules it gives up in about 50 ms.
_COMPLETION_CAP = 64


def _scaled_pairs(relations, multipliers, mul, zero):
    """The pairs (m*L, m*R), m in `multipliers` and L = R in `relations`,
    products by `mul`, with the products equal to `zero` dropped: a finite
    table's or a module's relations."""
    def scale(m, terms):
        return [x for t in terms if (x := mul(m, t)) != zero]
    return [(scale(m, L), scale(m, R)) for L, R in relations
            for m in multipliers]


class _Completion:
    """The reduced Gröbner basis, read as rewrite rules, of the binomial
    ideal of a finite pre-addition.

    A sum of `symbols`, the nonzero elements, is an exponent vector over
    them, and the pre-addition is the monoid congruence on these vectors
    generated by `pairs` of sums: for a finite table or a module, the pairs
    (m*L, m*R) of `_scaled_pairs`, m a nonzero symbol and L = R a relation.
    u ~ v iff x^u - x^v lies in the ideal of those binomials
    (Eisenbud-Sturmfels, Duke Math. J. 84, 1996), so u ~ v iff u and v
    have the same normal form under the completed rules
    (Ballantyne-Lankford, Comp. Math. Appl. 7, 1981). Buchberger's
    algorithm in graded reverse lex order: the pair with the least lcm
    first, pairs with coprime leading terms skipped, the basis kept reduced
    on each insert. More than `_COMPLETION_CAP` rules raise TooLarge.
    """

    def __init__(self, symbols, pairs):
        self.symbols = list(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self.rules = {}   # id -> (lhs, rhs), lhs > rhs
        self._steps = {}  # id -> (bitmask of lhs, lhs entries, rhs - lhs)
        self._pairs = []  # heap of (key(lcm), id, id, lcm)
        self._ids = itertools.count()
        pending = sorted((self._key(u), u, v) for L, R in pairs
                         if (u := self.vector(L)) != (v := self.vector(R)))
        self._pending = [(u, v) for _, u, v in reversed(pending)]
        while True:
            while self._pending:
                self._equate(*self._pending.pop())
            if not self._pairs:
                break
            _, i, j, lcm = heapq.heappop(self._pairs)
            if i in self.rules and j in self.rules:
                # the lcm rewritten by each of the two rules
                self._equate(*(tuple(a - b + c for a, b, c
                                     in zip(lcm, *self.rules[k]))
                               for k in (i, j)))

    @staticmethod
    def _key(u):
        """Graded reverse lex: by degree, then the smaller last exponent
        is the larger monomial."""
        return sum(u), tuple(-e for e in reversed(u))

    def vector(self, terms):
        u = [0] * len(self.symbols)
        for t in terms:
            u[self.index[t]] += 1
        return tuple(u)

    def _put(self, k, lhs, rhs):
        self.rules[k] = lhs, rhs
        self._steps[k] = (sum(1 << i for i, e in enumerate(lhs) if e),
                          tuple((i, e) for i, e in enumerate(lhs) if e),
                          tuple((i, b - a) for i, (a, b)
                                in enumerate(zip(lhs, rhs)) if a != b))

    def _reduce(self, u):
        """The normal form of the vector u under the rules so far."""
        u = list(u)
        support = sum(1 << k for k, e in enumerate(u) if e)
        done = False
        while not done:
            done = True
            for need, lhs, delta in self._steps.values():
                if need & support == need and \
                        (times := min(u[k] // e for k, e in lhs)):
                    for k, d in delta:
                        u[k] += times * d
                        if u[k]:
                            support |= 1 << k
                        else:
                            support &= ~(1 << k)
                    done = False
        return tuple(u)

    def _equate(self, u, v):
        u, v = self._reduce(u), self._reduce(v)
        if u == v:
            return
        if self._key(u) < self._key(v):
            u, v = v, u
        for k, (lhs, rhs) in list(self.rules.items()):
            if all(a >= b for a, b in zip(lhs, u)):
                del self.rules[k], self._steps[k]
                self._pending.append((lhs, rhs))
        new = next(self._ids)
        self._put(new, u, v)
        for k, (lhs, rhs) in list(self.rules.items()):
            if k != new:
                self._put(k, lhs, self._reduce(rhs))
                if any(a and b for a, b in zip(lhs, u)):
                    lcm = tuple(map(max, lhs, u))
                    heapq.heappush(self._pairs, (self._key(lcm), k, new, lcm))
        if len(self.rules) > _COMPLETION_CAP:
            raise TooLarge(f"completion past {_COMPLETION_CAP} rules")

    def normal_form(self, terms):
        """The normal form of a sum of nonzero symbols, as a sorted sum."""
        u = self._reduce(self.vector(terms))
        return tuple(s for s, e in zip(self.symbols, u) for _ in range(e))


def _improper_pair(symbols, pairs, zero):
    """The pair that an uncut `_improper_search` over `symbols` returns, read
    off the normal forms of the completion of `pairs` by `_first_identified`;
    None when the sums are proper. Past `_COMPLETION_CAP` rules, TooLarge.
    When every pair has two terms or more a side, no rewrite applies to the
    empty sum or to a single term, and no completion is needed."""
    if _long_sides(pairs):
        return None
    return _first_identified(_Completion(symbols, pairs), zero)


def _long_sides(pairs):
    return all(len(L) > 1 and len(R) > 1 for L, R in pairs)


def _first_identified(done, zero):
    """(zero, m) for the first symbol m of `done` with an empty normal form,
    else (m, b) for the first m that shares it with b, b least; or None."""
    forms = {s: done.normal_form((s,)) for s in done.symbols}
    for m in done.symbols:
        if not forms[m]:
            return zero, m
        same = [b for b in done.symbols if b != m and forms[b] == forms[m]]
        if same:
            return m, min(same)
    return None


def _quotient_improper_pair(bp, rep):
    """`_improper_pair` of B/~ for the multiplicative equivalence ~ on the
    finite table `bp` whose classes `rep` maps to their representatives:
    the relations pushed to them, zero dropped, scaled by the nonzero ones
    as rep(a)·rep(b) = rep(ab). No quotient table is built. TooLarge past
    `_COMPLETION_CAP` rules."""
    mul = bp.backend.mul_table
    nonzero = [s for s in bp.backend.symbols if s != ZERO and rep[s] == s]
    pushed = {tuple(tuple(sorted(rep[t] for t in side if rep[t] != ZERO))
                    for side in relation) for relation in bp.relations}
    pairs = _scaled_pairs(sorted((l, r) for l, r in pushed if l != r),
                          nonzero, lambda a, b: rep[mul[a, b]], ZERO)
    return _improper_pair(nonzero, pairs, ZERO)


@_per_blueprint
def _scaled_relations(bp):
    return _scaled_pairs(bp.relations, bp.backend.multipliers(0),
                         bp.backend.mul, ZERO)


@_per_blueprint
def _completion(bp):
    """The completion of a finite table's `_scaled_relations`, or None past
    its cap: built by the guard of `Blueprint`, then read by `derive`."""
    try:
        return _Completion(bp.backend.multipliers(0), _scaled_relations(bp))
    except TooLarge:
        return None


def _derive3(bp, l, r, budget):
    """Three-valued core: Proved / Refuted / Unknown on normalized sums.

    Decided without the budget on finite tables: by the addition table of a
    semiring, else by the normal forms of `_Completion`, whose Refuted
    carries the two normal forms. Where the completion outgrows its cap, and
    on monomial backends, Proved comes from a bounded search and nothing is
    refuted."""
    if l == r:
        return PROVED, None
    if bp.is_semiring:
        vl = bp.backend.eval_sum(l)
        vr = bp.backend.eval_sum(r)
        return (PROVED, None) if vl == vr else (REFUTED, (vl, vr))
    if not bp.relations:
        # The pre-addition generated by nothing relates sums iff their
        # zero-free normal forms coincide.
        return REFUTED, None
    if bp.backend.kind == "finite" and (done := _completion(bp)) is not None:
        nl, nr = done.normal_form(l), done.normal_form(r)
        return (PROVED, None) if nl == nr else (REFUTED, (nl, nr))
    half = Budget(budget.max_degree, budget.max_terms,
                  max(1, budget.max_steps // 2))
    memo = _RewriteMemo(bp, half.max_degree)
    hit, _, _ = _explore(bp, l, half, targets=frozenset([r]), memo=memo)
    if hit:
        return PROVED, None
    hit, _, _ = _explore(bp, r, half, targets=frozenset([l]), memo=memo)
    if hit:
        return PROVED, None
    return UNKNOWN, None


def derive(bp, lhs, rhs, budget=None):
    """Proved when lhs = rhs lies in the generated pre-addition, else
    Unknown. Decided on finite tables, which read no budget unless their
    completion outgrows its cap (see `_derive3`); semi-decided by a bounded
    search over monomials."""
    budget = budget or bp.budget
    l = bp.normalize_sum(lhs)
    r = bp.normalize_sum(rhs)
    verdict, _ = _derive3(bp, l, r, budget)
    return PROVED if verdict == PROVED else UNKNOWN


def _improper_search(bp, elements, budget):
    """The properness search: one search per element, in order and with one
    shared memo, up to the first element m that is identified with
    something. That gives (0, m) when its search reaches the empty sum, else
    (m, b) with b the least element the search reaches. Returns the pair or
    None, and whether the budget cut a search short. A derivation is
    symmetric, so a search that returns uncut has seen m's whole class."""
    if not bp.relations:
        return None, False
    memo = _RewriteMemo(bp, budget.max_degree)
    cut = False
    for m in elements:
        hit, singles, truncated = _explore(bp, (m,), budget, targets={()},
                                           collect_singles=True, memo=memo)
        cut = cut or truncated
        if hit:
            return (bp.backend.zero(), m), cut
        if singles:
            return (m, min(singles)), cut
    return None, cut


def _certified_proper(bp):
    """True when `bp` is certified proper: a monomial blueprint over a
    coefficient table without relations, whose relations all read
    0 = a + b with units a and b, all ratios b/a being one u with u*u = 1.
    Without relations nothing is identified, so it is proper.

    Proof. Write M' for the nonzero monomials. A rewrite step inserts or
    removes a chunk c*a + c*b with c in M' (c*a and c*b are in M', as a and
    b are units), so u ~ v puts u - v in the subgroup I of Z[M'] spanned by
    the x + x*(b/a), x in M'. Let H be the subgroup of M^x x {+1, -1}
    generated by the pairs (b/a, -1), acting on Z[M'] by (w, s)x = s*w*x.
    Then I is spanned by the x - h*x with h in H, and Z[M']/I is the
    coinvariant module: one Z or Z/2 per H-orbit of M', in which no x is 0
    and x = y only if y = w*x for some (w, +1) in H. If every b/a is u with
    u*u = 1, then H = {(1, +1), (u, -1)}, so no single element is
    identified with 0 or with another element."""
    backend = bp.backend
    if backend.kind != "monomial" or backend.coeff.relations:
        return False
    ratios = set()
    for l, r in bp.relations:
        if l or len(r) != 2 or not all(map(backend.is_unit, r)):
            return False
        ratios.add(backend.mul(r[1], backend.power(r[0], -1)))
    if not ratios:
        return True
    u = ratios.pop()
    return not ratios and backend.mul(u, u) == backend.one()


def improper_pair(bp, budget):
    """The first derivable identification of a probe element with 0, as
    (0, p), or with another element, or None: read off `_completion` on
    finite tables below its cap (none is built when `_long_sides`), else
    certified or searched, where a search cut by the budget finds nothing."""
    if not bp.relations or _certified_proper(bp):
        return None
    if bp.backend.kind == "finite":
        if _long_sides(_scaled_relations(bp)):
            return None
        if (done := _completion(bp)) is not None:
            return _first_identified(done, ZERO)
    return _improper_search(bp, _probe_elements(bp), budget)[0]


def _probe_elements(bp):
    backend = bp.backend
    probes = []
    if backend.kind == "finite":
        probes.extend(s for s in backend.symbols if s != ZERO)
    else:
        probes.append(backend.one())
        for g in backend.gens:
            probes.append(backend.gen_element(g))
        for g, h in itertools.combinations_with_replacement(backend.gens, 2):
            probes.append(backend.mul(backend.gen_element(g),
                                      backend.gen_element(h)))
    for l, r in bp.relations:
        probes.extend(l)
        probes.extend(r)
    seen = []
    for p in probes:
        p = backend.normalize(p)
        if not backend.is_zero(p) and p not in seen:
            seen.append(p)
    return seen
