"""Morphisms of blueprints, presentations over N and Z, the point solver."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import (ONE, PROVED, REFUTED, UNKNOWN, ZERO, Blueprint,
                   BlueprintError, FiniteTable)
from .derivation import _derive3
from .fields import gf, prime_powers_upto


class BlueprintMorphism:
    """A multiplicative map given by images of generators / carrier symbols."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)

    def apply(self, elem):
        src, tgt = self.source.backend, self.target.backend
        elem = src.normalize(elem)
        if src.kind == "finite":
            if src.is_zero(elem):
                return tgt.zero()
            if elem == ONE:
                return tgt.one()
            return tgt.normalize(self.images[elem])
        coeff, exps = elem
        if coeff == ZERO:
            return tgt.zero()
        acc = tgt.one() if coeff == ONE else tgt.normalize(self.images[coeff])
        for name, e in zip(src.gens, exps):
            if e:
                acc = tgt.mul(acc, tgt.power(tgt.normalize(self.images[name]), e))
        return acc

    def apply_sum(self, terms):
        return self.target.normalize_sum([self.apply(t) for t in terms])

    def __repr__(self):
        bits = []
        for k, v in sorted(self.images.items(), key=lambda kv: str(kv[0])):
            key = k if isinstance(k, str) else self.source.render(k)
            bits.append(f"{key}->{self.target.render(v)}")
        return "Morphism(" + ", ".join(bits) + ")"


def is_morphism(f, budget=None):
    """(Proved | Unknown | Refuted | 'RefutedOnGenerator', evidence)."""
    budget = budget or f.source.budget
    src, tgt = f.source.backend, f.target.backend
    try:
        if src.kind == "finite":
            for a in src.symbols:
                for b in src.symbols:
                    if f.apply(src.mul(a, b)) != tgt.mul(f.apply(a), f.apply(b)):
                        return REFUTED, (a, b)
        else:
            cb = src.coeff.backend
            for a in cb.symbols:
                for b in cb.symbols:
                    lhs = f.apply(src.coeff_element(cb.mul(a, b)))
                    rhs = tgt.mul(f.apply(src.coeff_element(a)),
                                  f.apply(src.coeff_element(b)))
                    if lhs != rhs:
                        return REFUTED, (a, b)
            for l, r in src.coeff.relations:
                il = f.apply_sum([src.coeff_element(t) for t in l])
                ir = f.apply_sum([src.coeff_element(t) for t in r])
                verdict, _ = _derive3(f.target, il, ir, budget)
                if verdict == REFUTED:
                    return "RefutedOnGenerator", (l, r)
                if verdict == UNKNOWN:
                    return UNKNOWN, None
            for vec, char in src.lattice:
                acc = tgt.one()
                for name, e in zip(src.gens, vec):
                    if e:
                        acc = tgt.mul(acc, tgt.power(tgt.normalize(f.images[name]), e))
                if acc != f.apply(src.coeff_element(char)):
                    return REFUTED, (vec, char)
    except BlueprintError:
        return REFUTED, "image of an invertible generator is not a unit"
    overall = PROVED
    for l, r in f.source.relations:
        il, ir = f.apply_sum(l), f.apply_sum(r)
        verdict, _ = _derive3(f.target, il, ir, budget)
        if verdict == REFUTED:
            return "RefutedOnGenerator", (l, r)
        if verdict == UNKNOWN:
            overall = UNKNOWN
    return overall, None


# ---------------------------------------------------------------------------
# Presentations over N and Z


@dataclass(frozen=True)
class Presentation:
    """Finitely presented (semi)ring: generators plus polynomial relations.

    Polynomials map exponent tuples to integer coefficients. A semiring
    presentation has (lhs, rhs) pairs with N-coefficients; a ring presentation
    has single polynomials lhs - rhs.
    """
    gens: tuple
    relations: tuple
    ring: bool

    def __str__(self):
        base = "Z" if self.ring else "N"
        gens = ",".join(self.gens)
        if self.ring:
            rels = "; ".join(render_poly(self.gens, r) for r in self.relations)
        else:
            rels = "; ".join(f"{render_poly(self.gens, l)} = {render_poly(self.gens, r)}"
                             for l, r in self.relations)
        return f"{base}[{gens}] / ({rels})" if rels else f"{base}[{gens}]"


def render_poly(gens, poly):
    if not poly:
        return "0"
    bits = []
    for exps, c in sorted(poly.items()):
        mono = "*".join(f"{g}^{e}" if e > 1 else g
                        for g, e in zip(gens, exps) if e)
        if not mono:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")


def _poly_sub(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) - v
        if not out[k]:
            del out[k]
    return out


def _presentation_gens(bp):
    backend = bp.backend
    gens = []
    if backend.kind == "finite":
        gens.extend(s for s in backend.symbols if s not in (ZERO, ONE))
    else:
        gens.extend(s for s in backend.coeff.backend.symbols
                    if s not in (ZERO, ONE))
        gens.extend(backend.gens)
        gens.extend(n + "__inv" for n in backend.gens if n in backend.inverted)
    return tuple(gens)


def _sum_terms_poly(bp, terms, gi):
    poly: dict = {}
    backend = bp.backend
    n = len(gi)
    for t in terms:
        exps = [0] * n
        if backend.kind == "finite":
            if t == ZERO:
                continue
            if t != ONE:
                exps[gi[t]] = 1
        else:
            coeff, es = t
            if coeff == ZERO:
                continue
            if coeff != ONE:
                exps[gi[coeff]] = 1
            for name, e in zip(backend.gens, es):
                if e > 0:
                    exps[gi[name]] += e
                elif e < 0:
                    exps[gi[name + "__inv"]] += -e
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + 1
    return poly


def _structural_polys(bp, gi):
    backend = bp.backend
    n = len(gi)
    unit = {tuple([0] * n): 1}

    def mono(assignments):
        exps = [0] * n
        for g, e in assignments:
            exps[gi[g]] += e
        return {tuple(exps): 1}

    def table_rels(table, symbols):
        out = []
        for a in symbols:
            for b in symbols:
                if a <= b and ZERO not in (a, b) and ONE not in (a, b):
                    prod = table.mul(a, b)
                    lhs = mono([(a, 1), (b, 1)])
                    if prod == ZERO:
                        rhs = {}
                    elif prod == ONE:
                        rhs = unit
                    else:
                        rhs = mono([(prod, 1)])
                    out.append((lhs, rhs))
        return out

    out = []
    if backend.kind == "finite":
        out.extend(table_rels(backend, backend.symbols))
    else:
        cb = backend.coeff.backend
        out.extend(table_rels(cb, cb.symbols))
        for l, r in backend.coeff.relations:
            out.append((_sum_terms_poly_symbols(l, gi, n),
                        _sum_terms_poly_symbols(r, gi, n)))
        for name in backend.gens:
            if name in backend.inverted:
                out.append((mono([(name, 1), (name + "__inv", 1)]), unit))
        for vec, char in backend.lattice:
            assignments = []
            for name, e in zip(backend.gens, vec):
                if e > 0:
                    assignments.append((name, e))
                elif e < 0:
                    assignments.append((name + "__inv", -e))
            rhs = unit if char == ONE else mono([(char, 1)])
            out.append((mono(assignments), rhs))
    return out


def _sum_terms_poly_symbols(terms, gi, n):
    poly: dict = {}
    for t in terms:
        exps = [0] * n
        if t == ZERO:
            continue
        if t != ONE:
            exps[gi[t]] = 1
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + 1
    return poly


def semiring_presentation(bp):
    """B^+ = N[A]/R as a finitely presented semiring."""
    gens = _presentation_gens(bp)
    gi = {g: i for i, g in enumerate(gens)}
    rels = list(_structural_polys(bp, gi))
    for l, r in bp.relations:
        rels.append((_sum_terms_poly(bp, l, gi), _sum_terms_poly(bp, r, gi)))
    canon = set()
    for l, r in rels:
        pair = (tuple(sorted(l.items())), tuple(sorted(r.items())))
        if pair[0] == pair[1]:
            continue
        canon.add(pair if pair[0] <= pair[1] else (pair[1], pair[0]))
    out = tuple((dict(l), dict(r)) for l, r in sorted(canon))
    return Presentation(gens, out, ring=False)


def ring_presentation(bp):
    """B_Z^+ = Z[A]/I(R) as a finitely presented ring."""
    semi = semiring_presentation(bp)
    seen = set()
    out = []
    for l, r in semi.relations:
        poly = _poly_sub(l, r)
        if not poly:
            continue
        key = tuple(sorted(poly.items()))
        nkey = tuple(sorted((k, -v) for k, v in poly.items()))
        if key in seen or nkey in seen:
            continue
        seen.add(key)
        out.append(poly)
    return Presentation(semi.gens, tuple(out), ring=True)


def _int_in_field(c, field):
    out = 0
    for _ in range(c % field.p):
        out = field.add(out, 1)
    return out


def eval_poly(poly, values, field):
    acc = 0
    for exps, c in poly.items():
        term = _int_in_field(c, field)
        for v, e in zip(values, exps):
            for _ in range(e):
                term = field.mul(term, v)
        acc = field.add(acc, term)
    return acc


def count_presentation_points(pres, q):
    """Number of homomorphisms of the presented (semi)ring into F_q."""
    field = gf(q)
    count = 0
    for values in itertools.product(range(q), repeat=len(pres.gens)):
        ok = True
        for rel in pres.relations:
            if pres.ring:
                if eval_poly(rel, values, field) != 0:
                    ok = False
                    break
            else:
                l, r = rel
                if eval_poly(l, values, field) != eval_poly(r, values, field):
                    ok = False
                    break
        if ok:
            count += 1
    return count


def presentation_normalizes_to_integers(pres):
    """Greedily eliminate generators pinned by linear monic relations; True if
    everything reduces away over Z (the presented ring is the integers)."""
    if not pres.ring:
        raise ValueError("ring presentations only")
    gens = list(pres.gens)
    values: dict = {}
    rels = [dict(r) for r in pres.relations]
    changed = True
    while changed:
        changed = False
        for rel in rels:
            live_terms = []
            const = Fraction(0)
            ok = True
            for exps, c in rel.items():
                unknown = [(i, e) for i, e in enumerate(exps)
                           if e and gens[i] not in values]
                factor = Fraction(c)
                for i, e in enumerate(exps):
                    if e and gens[i] in values:
                        factor *= values[gens[i]] ** e
                if not unknown:
                    const += factor
                else:
                    live_terms.append((unknown, factor))
            if not ok or len(live_terms) != 1:
                continue
            unknown, factor = live_terms[0]
            if len(unknown) != 1 or unknown[0][1] != 1 or factor == 0:
                continue
            values[gens[unknown[0][0]]] = -const / factor
            changed = True
    if len(values) < len(gens):
        return False
    for rel in rels:
        total = Fraction(0)
        for exps, c in rel.items():
            term = Fraction(c)
            for i, e in enumerate(exps):
                if e:
                    term *= values[gens[i]] ** e
            total += term
        if total != 0:
            return False
    return all(v.denominator == 1 for v in values.values())


# ---------------------------------------------------------------------------
# Semiring targets and morphism enumeration


@cache
def field_blueprint(q):
    """F_q as a finite-table semiring blueprint (symbols '0'..'q-1')."""
    f = gf(q)
    syms = [str(i) for i in range(q)]
    mul = {(str(a), str(b)): str(f.mul(a, b)) for a in range(q) for b in range(q)}
    add = {(str(a), str(b)): str(f.add(a, b)) for a in range(q) for b in range(q)}
    return Blueprint(FiniteTable(syms, mul, add), (), name=f"F{q}",
                     check_proper=False)


@cache
def boolean_semiring_blueprint():
    """B1 with its idempotent addition table attached."""
    mul = {(a, b): (ONE if a == b == ONE else ZERO)
           for a in (ZERO, ONE) for b in (ZERO, ONE)}
    add = {(ZERO, ZERO): ZERO, (ZERO, ONE): ONE, (ONE, ZERO): ONE, (ONE, ONE): ONE}
    return Blueprint(FiniteTable((ZERO, ONE), mul, add), (), name="B1+",
                     check_proper=False)


def _sum_checks(bp, cimages):
    """The conditions on a map out of `bp` as pairs of sums that must agree.

    The frees are the generators of a monomial backend, or the carrier
    symbols other than 0 and 1 of a finite one. A term is (constant,
    ((free index, exponent), ...)) with increasing indices: the image of a
    coefficient under `cimages` times powers of the free values. Zero terms
    are left out. A finite source contributes f(a)*f(b) = f(ab) for every
    pair of symbols and its relations; a monomial source its lattice rows and
    its relations.
    """
    backend = bp.backend
    checks = []
    if backend.kind == "finite":
        index = {s: i for i, s in enumerate(
            s for s in backend.symbols if s not in (ZERO, ONE))}

        def product_term(*syms):
            if ZERO in syms:
                return ()
            powers = {}
            for s in syms:
                if s != ONE:
                    powers[index[s]] = powers.get(index[s], 0) + 1
            return ((ONE, tuple(sorted(powers.items()))),)

        for a in backend.symbols:
            for b in backend.symbols:
                checks.append((product_term(backend.mul(a, b)),
                               product_term(a, b)))
        for l, r in bp.relations:
            checks.append((sum(map(product_term, l), ()),
                           sum(map(product_term, r), ())))
    else:
        def monomial_term(coeff, exps):
            c = ONE if coeff == ONE else cimages[coeff]
            if c == ZERO:
                return ()
            return ((c, tuple((i, e) for i, e in enumerate(exps) if e)),)

        for vec, char in backend.lattice:
            checks.append((monomial_term(ONE, vec),
                           monomial_term(char, (0,) * len(vec))))
        for l, r in bp.relations:
            checks.append((sum((monomial_term(*t) for t in l), ()),
                           sum((monomial_term(*t) for t in r), ())))
    return tuple(dict.fromkeys(checks))


def _sum_total(tb, vals):
    """A side's value as `apply_sum` and `eval_sum` give it: zero terms
    dropped, the rest sorted by `tb.sort_key`, so the result does not rest on
    the addition being associative."""
    vals = [v for v in vals if v != ZERO]
    if len(vals) > 1:
        vals.sort(key=tb.sort_key)
    return tb.eval_sum(vals)


def _place_checks(checks, tb, rank):
    """`checks` (see `_sum_checks`) in one list per step, each check at the
    step of the last free it involves; `rank` maps each free to its step.
    None when a check that involves no free fails."""
    placed = [[] for _ in rank]
    for lhs, rhs in checks:
        d = max((rank[i] for _, p in lhs + rhs for i, _ in p), default=-1)
        if d >= 0:
            placed[d].append((lhs, rhs))
        elif _sum_total(tb, [c for c, _ in lhs]) != \
                _sum_total(tb, [c for c, _ in rhs]):
            return None
    return placed


def _solutions(bp, tb, domains, cimages=None):
    """The value tuples of `itertools.product(*domains)`, one domain per free
    of `bp` (see `_sum_checks`), under which every check of `bp` holds in the
    finite semiring table `tb`, in product order. `cimages` gives the
    coefficient images of a monomial source.

    Sides are evaluated by `_sum_total`. Each check runs in the loop over the
    last free it involves. When that loop starts, each term's product over
    the earlier frees is formed once. Which values pass depends only on those
    products, so the passing values are memoized on them.
    """
    mul = tb.mul_table
    powers = {}

    def pw(x, e):
        v = powers.get((x, e))
        if v is None:
            v = powers[(x, e)] = tb.power(x, e)
        return v

    placed = _place_checks(_sum_checks(bp, cimages), tb, range(len(domains)))
    if placed is None:
        return
    # Per loop: its terms as (constant, earlier powers, own exponent), and
    # each check as the bounds (start, middle, end) of its two sides.
    terms = [[] for _ in domains]
    bounds = [[] for _ in domains]
    for d, checks in enumerate(placed):
        for lhs, rhs in checks:
            start = len(terms[d])
            for c, p in lhs + rhs:
                own = p and p[-1][0] == d
                terms[d].append((c, p[:-1] if own else p,
                                 p[-1][1] if own else 0))
            bounds[d].append((start, start + len(lhs), len(terms[d])))
    last = max((d for d in range(len(domains)) if bounds[d]), default=-1)
    tail = domains[last + 1:]
    memo = [{} for _ in range(last + 1)]

    def passing(d, values):
        if not bounds[d]:
            return domains[d]
        prefix = []
        for c, earlier, _ in terms[d]:
            for i, e in earlier:
                c = mul[(c, pw(values[i], e))]
            prefix.append(c)
        key = tuple(prefix)
        found = memo[d].get(key)
        if found is None:
            exps = [e for _, _, e in terms[d]]
            found = []
            for x in domains[d]:
                vals = [p if not e else mul[(p, pw(x, e))]
                        for p, e in zip(prefix, exps)]
                if all(_sum_total(tb, vals[a:b]) == _sum_total(tb, vals[b:c])
                       for a, b, c in bounds[d]):
                    found.append(x)
            memo[d][key] = found
        return found

    def walk(d, values):
        if d > last:
            for rest in itertools.product(*tail):
                yield values + rest
            return
        for x in passing(d, values):
            yield from walk(d + 1, values + (x,))

    yield from walk(0, ())


def _elimination_order(checks, domains, size):
    """The frees that some check involves, greedily ordered so that few
    states of `_count_solutions` are expected. Once a set S of frees is set,
    each term of a check still open takes at most min(size, product of the
    domain sizes of its frees in S) values, and the estimate is the product
    of these bounds. The next free is the one that makes it smallest, the
    lowest index on a tie.
    """
    spans = []                # per term: its bound so far
    terms = []                # per check: its terms as (span index, frees)
    left = []                 # per check: its frees not yet set
    through = {}              # free -> the checks that involve it
    for c, (lhs, rhs) in enumerate(checks):
        terms.append([])
        for _, p in lhs + rhs:
            terms[c].append((len(spans), {i for i, _ in p}))
            spans.append(1)
        left.append({i for _, p in lhs + rhs for i, _ in p})
        for i in left[c]:
            through.setdefault(i, []).append(c)

    def change(f):
        # The estimate after setting f is the current one times num / den:
        # a check that f closes drops its terms, and in the others the
        # terms that involve f grow.
        num = den = 1
        for c in through[f]:
            for j, frees in terms[c]:
                if len(left[c]) == 1:
                    den *= spans[j]
                elif f in frees:
                    den *= spans[j]
                    num *= min(size, spans[j] * len(domains[f]))
        return num, den

    order = []
    while through:
        best = None
        for f in sorted(through):
            num, den = change(f)
            if best is None or num * best[2] < best[1] * den:
                best = f, num, den
        f = best[0]
        for c in through.pop(f):
            left[c].discard(f)
            for j, frees in terms[c]:
                if f in frees:
                    spans[j] = min(size, spans[j] * len(domains[f]))
        order.append(f)
    return order


def _count_solutions(bp, tb, domains, cimages=None):
    """The number of value tuples `_solutions` yields for the same
    arguments, found without listing them.

    This is counting by variable elimination (Dechter, "Bucket elimination",
    Artif. Intell. 113, 1999) as a forward pass: the frees that some check
    involves are set one at a time, in the order of `_elimination_order`.
    After some frees are set, a state is the tuple of the partial products of
    the terms of the checks still open; equal states are merged and carry
    their multiplicity. Each check is evaluated by `_sum_total`, as in
    `_solutions`, at the step of the last free it involves, and its terms then
    leave the state. The frees that no check involves multiply the count by
    their domain sizes.
    """
    mul = tb.mul_table
    checks = _sum_checks(bp, cimages)
    order = _elimination_order(checks, domains, len(tb.symbols))
    rank = {f: k for k, f in enumerate(order)}
    placed = _place_checks(checks, tb, rank)
    if placed is None:
        return 0
    # The state's slots are the terms of the checks in the order the checks
    # close, so the open ones are always a suffix.
    slots = [t for level in placed for lhs, rhs in level for t in lhs + rhs]
    states = {tuple(c for c, _ in slots): 1}
    exponents = {f: [] for f in order}     # free -> (slot, exponent)
    for k, (_, p) in enumerate(slots):
        for i, e in p:
            exponents[i].append((k, e))
    offset = 0
    for d, f in enumerate(order):
        # A check that involves f closes at step d or later, so its slots
        # are still in the state.
        touched = [(k - offset, e) for k, e in exponents[f]]
        width = 0
        bounds = []
        for lhs, rhs in placed[d]:
            start, mid = width, width + len(lhs)
            width = mid + len(rhs)
            bounds.append((start, mid, width))
        offset += width
        steps = [[(k, tb.power(x, e)) for k, e in touched]
                 for x in domains[f]]
        passes = {}
        nxt = {}
        for state, m in states.items():
            for step in steps:
                new = list(state)
                for k, p in step:
                    new[k] = mul[(new[k], p)]
                if width:
                    head = tuple(new[:width])
                    ok = passes.get(head)
                    if ok is None:
                        ok = passes[head] = all(
                            _sum_total(tb, head[a:b])
                            == _sum_total(tb, head[b:c]) for a, b, c in bounds)
                    if not ok:
                        continue
                    new = new[width:]
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + m
        if not nxt:
            return 0
        states = nxt
    count = sum(states.values())
    for i, dom in enumerate(domains):
        if i not in rank:
            count *= len(dom)
    return count


def _coefficient_images(bp, tb):
    """The maps of the coefficient carrier of a monomial source `bp` into the
    table `tb` that fix 0 and 1 and keep its products and relations."""
    coeff = bp.backend.coeff
    cb = coeff.backend
    cfrees = [s for s in cb.symbols if s not in (ZERO, ONE)]
    out = []
    for values in itertools.product(tb.symbols, repeat=len(cfrees)):
        images = dict(zip(cfrees, values))
        images[ZERO] = ZERO
        images[ONE] = ONE
        if any(tb.mul(images[a], images[b]) != images[cb.mul(a, b)]
               for a in cb.symbols for b in cb.symbols):
            continue
        if any(tb.eval_sum([images[t] for t in l]) != tb.eval_sum([images[t] for t in r])
               for l, r in coeff.relations):
            continue
        out.append(images)
    return out


def _free_domains(bp, tb):
    """One list of candidate values in `tb` per free of `bp` (see
    `_sum_checks`): every symbol, or the units for an inverted generator."""
    backend = bp.backend
    if backend.kind == "finite":
        frees = [s for s in backend.symbols if s not in (ZERO, ONE)]
        return [tb.symbols] * len(frees)
    units = sorted(set(tb.symbols) - {ZERO})
    return [units if name in backend.inverted else list(tb.symbols)
            for name in backend.gens]


def enumerate_morphisms(bp, target):
    """All blueprint morphisms into a finite semiring-table target."""
    return list(iter_morphisms(bp, target))


def iter_morphisms(bp, target):
    """The morphisms of `enumerate_morphisms`, in its order, one at a time."""
    if not target.is_semiring:
        raise BlueprintError("morphism enumeration needs a semiring target")
    tb = target.backend
    backend = bp.backend
    domains = _free_domains(bp, tb)
    if backend.kind == "finite":
        frees = [s for s in backend.symbols if s not in (ZERO, ONE)]
        for values in _solutions(bp, tb, domains):
            images = dict(zip(frees, values))
            images[ZERO] = ZERO
            images[ONE] = ONE
            yield BlueprintMorphism(bp, target, images)
        return
    for cimages in _coefficient_images(bp, tb):
        for values in _solutions(bp, tb, domains, cimages):
            images = dict(cimages)
            images.update(zip(backend.gens, values))
            yield BlueprintMorphism(bp, target, images)


def refutation_targets():
    return [boolean_semiring_blueprint()] + \
        [field_blueprint(q) for q in prime_powers_upto(5)]


def _refuting_target(bp, lhs, rhs):
    """The first of `refutation_targets()` with a morphism that sends the
    sums lhs and rhs to different values, or None."""
    for target in refutation_targets():
        for f in iter_morphisms(bp, target):
            if target.backend.eval_sum(f.apply_sum(lhs)) != \
                    target.backend.eval_sum(f.apply_sum(rhs)):
                return target
    return None
